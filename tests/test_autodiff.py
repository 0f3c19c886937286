import gc
import weakref

import numpy as np
import pytest

from stabledyn import autodiff as ad
from stabledyn.autodiff import ParamStore, Tape, grad_check


def test_scalar_square_gradient():
    store = ParamStore()
    store.add("w", 3.0)
    tape = Tape()
    w = tape.param(store, "w")
    loss = ad.mul(ad.mul(w, w), ad.mul(w, 2.0 / 3.0))   # (2/3) w^3, d/dw = 2 w^2
    tape.backward(loss)
    assert store.grads["w"] == pytest.approx(18.0, abs=1e-12)


def test_constant_loss_gives_zero_grads():
    store = ParamStore()
    store.add("w", np.array([1.0, -2.0]))
    tape = Tape()
    w = tape.param(store, "w")
    loss = ad.vsum(ad.mul(w, 0.0))
    tape.backward(loss)
    assert np.all(store.grads["w"] == 0.0)


def test_two_tapes_accumulate_additively():
    store = ParamStore()
    store.add("w", 2.0)
    for _ in range(2):
        tape = Tape()
        w = tape.param(store, "w")
        tape.backward(ad.mul(w, w))
    # each sweep contributes dw = 2w = 4
    assert store.grads["w"] == pytest.approx(8.0)


def test_tape_is_single_use():
    store = ParamStore()
    store.add("w", 1.0)
    tape = Tape()
    w = tape.param(store, "w")
    root = ad.mul(w, w)
    tape.backward(root)
    with pytest.raises(RuntimeError):
        tape.backward(root)


def test_nonscalar_root_rejected():
    tape = Tape()
    x = tape.input(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        tape.backward(x)


def test_input_gradient_readable():
    tape = Tape()
    x = tape.input(np.array([1.0, -3.0]))
    tape.backward(ad.rowdot(x, x))
    assert np.allclose(x.grad, [2.0, -6.0])


def test_mixing_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.input(1.0)
    b = t2.input(2.0)
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_duplicate_param_rejected():
    store = ParamStore()
    store.add("w", 1.0)
    with pytest.raises(ValueError):
        store.add("w", 2.0)


def test_smooth_relu_values():
    d = 0.1
    u = np.array([-1.0, 0.0, 0.05, 0.1, 1.0])
    got = ad.smooth_relu(u, d)
    assert got == pytest.approx([0.0, 0.0, 0.0125, 0.05, 0.95], abs=1e-15)


def test_smooth_relu_is_c1_at_knots():
    d = 0.1
    eps = 1e-6
    for knot in (0.0, d):
        lo = ad.smooth_relu(np.array([knot - eps]), d)[0]
        hi = ad.smooth_relu(np.array([knot + eps]), d)[0]
        slope_lo = (ad.smooth_relu(np.array([knot]), d)[0] - lo) / eps
        slope_hi = (hi - ad.smooth_relu(np.array([knot]), d)[0]) / eps
        assert abs(slope_hi - slope_lo) < 2e-5
        assert abs(hi - lo) < 3e-6


def test_smooth_relu_deriv_matches_difference_quotient():
    d = 0.1
    rng = np.random.default_rng(0)
    u = rng.uniform(-0.5, 0.5, size=200)
    h = 1e-7
    numeric = (ad.smooth_relu(u + h, d) - ad.smooth_relu(u - h, d)) / (2 * h)
    assert np.allclose(ad.smooth_relu_deriv(u, d), numeric, atol=1e-6)


def _unit_slope(u, d):
    # the exact slope clip(u/d, 0, 1); adding +0.0 turns np.clip's -0.0 at u = -0.0 into +0.0
    return np.clip(u / d, 0.0, 1.0) + 0.0


def test_smooth_relu_and_its_slope_on_every_piece():
    # signed zeros, infinities and NaN included: raw and taped read the same bits,
    # and the slope is exact (zeros compared by value)
    d = 0.1
    u = np.array([-0.0, 0.0, -3.0, -1e-300, -np.inf, 1e-300, 0.02, np.nextafter(d, 0.0),
                  d, 0.1000001, 4.0, 1e300, np.inf, np.nan])
    val = ad.smooth_relu(u, d)
    below, beyond = u <= 0.0, u >= d
    # a zero's sign at u = -0.0 follows np.maximum's tie, which numpy leaves open
    assert np.all(val[below] == 0.0) and not np.signbit(val[u < 0.0]).any()
    assert val[beyond].tobytes() == (u[beyond] - d / 2.0).tobytes()
    assert val[-2] == np.inf and np.isnan(val[-1])
    slope = _unit_slope(u, d)
    assert np.array_equal(ad.smooth_relu_deriv(u, d), slope, equal_nan=True)
    tape = Tape()
    x = tape.input(u)
    taped = ad.smooth_relu(x, d)
    assert taped.value.tobytes() == val.tobytes()
    tape.backward(ad.vsum(taped))
    assert np.array_equal(x.grad, slope, equal_nan=True)


def test_smooth_relu_is_within_3_ulp_of_the_quadratic_inside_the_knot():
    d = 0.1
    rng = np.random.default_rng(2)
    u = np.concatenate([rng.uniform(0.0, d, 200_000), 10.0 ** rng.uniform(-150.0, -1.0, 20_000)])
    u = u[(u > 0.0) & (u < d)]
    quad = u * u / (2.0 * d)
    assert np.all(np.abs(ad.smooth_relu(u, d) - quad) <= 3 * np.spacing(quad))


def test_logsumexp_matches_direct():
    rng = np.random.default_rng(1)
    a = rng.normal(scale=30.0, size=(6, 4))
    got = ad.logsumexp(a)
    want = np.log(np.exp(a - a.max(-1, keepdims=True)).sum(-1)) + a.max(-1)
    assert np.allclose(got, want)
    assert np.isfinite(ad.logsumexp(np.array([[1000.0, 999.0]]))).all()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    a = rng.normal(scale=8.0, size=(10, 5))
    s = ad.softmax(a)
    assert np.allclose(s.sum(-1), 1.0)
    assert np.all(s >= 0.0)


def test_gather_scatter_roundtrip_gradient():
    store = ParamStore()
    store.add("v", np.arange(5.0))
    tape = Tape()
    v = tape.param(store, "v")
    picked = ad.gather_rows(v, np.array([1, 3]))
    tape.backward(ad.vsum(ad.mul(picked, picked)))
    assert np.allclose(store.grads["v"], [0.0, 2.0, 0.0, 6.0, 0.0])


def test_scatter_rows_fill_is_exact():
    tape = Tape()
    vals = tape.input(np.array([0.5]))
    full = ad.scatter_rows(vals, np.array([2]), 4, fill=1.0)
    assert full.value[0] == 1.0 and full.value[1] == 1.0 and full.value[3] == 1.0
    assert full.value[2] == 0.5


def test_broadcast_unreduction():
    store = ParamStore()
    store.add("b", np.array([1.0, 2.0]))
    tape = Tape()
    b = tape.param(store, "b")
    x = np.ones((5, 2))
    tape.backward(ad.vsum(ad.mul(x, b)))
    assert np.allclose(store.grads["b"], [5.0, 5.0])


def test_grad_check_on_random_expressions():
    rng = np.random.default_rng(7)
    for trial in range(100):
        store = ParamStore()
        store.add("W", rng.normal(size=(3, 4)) * 0.5)
        store.add("b", rng.normal(size=3) * 0.5)
        x = rng.normal(size=(5, 4))
        pick = trial % 4

        def f(params, tape):
            if tape is None:
                W, b = params.values["W"], params.values["b"]
            else:
                W, b = tape.param(params, "W"), tape.param(params, "b")
            h = ad.linear(x, W, b)
            if pick == 0:
                h = ad.tanh(h)
            elif pick == 1:
                h = ad.smooth_relu(h, 0.1)
            elif pick == 2:
                h = ad.sigmoid(h)
            else:
                h = ad.softmax(h)
            out = ad.mean(ad.mul(h, h))
            return out if tape is not None else float(out)

        report = grad_check(f, store, h=1e-5)
        assert report.max_rel_err < 1e-4, (trial, report.max_rel_err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grad_check_rejects_nonfinite_loss():
    store = ParamStore()
    store.add("w", 0.0)

    def f(params, tape):
        w = tape.param(params, "w") if tape is not None else params.values["w"]
        out = ad.log(w)     # log(0) = -inf
        return out if tape is not None else float(out)

    with pytest.raises(FloatingPointError):
        grad_check(f, store)


def test_override_value_passthrough():
    tape = Tape()
    x = tape.input(np.array([2.0]))
    y = ad.mul(x, 3.0)
    z = ad.override_value(y, np.array([99.0]))
    assert z.value[0] == 99.0
    tape.backward(ad.vsum(z))
    assert x.grad[0] == pytest.approx(3.0)


def _swept_tape():
    store = ParamStore()
    store.add("w", np.array([1.0, 2.0]))
    tape = Tape()
    w = tape.param(store, "w")
    x = tape.input(np.array([3.0, -1.0]))
    root = ad.vsum(ad.mul(ad.tanh(ad.mul(w, x)), x))
    tape.backward(root)
    return tape, x, root


def test_swept_tape_is_freed_by_reference_counting():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tape, x, root = _swept_tape()
        assert len(tape._nodes) == 6       # w, x, mul, tanh, mul, vsum
        assert x.grad is not None and x.grad.shape == (2,)
        alive = weakref.ref(tape)
        del tape
        # x and root are still held, yet nothing they reach holds the tape
        assert alive() is None
        assert x.grad is not None
    finally:
        if was_enabled:
            gc.enable()


def test_swept_variable_cannot_enter_a_primitive():
    _, x, root = _swept_tape()
    live = Tape().input(np.array([1.0, 1.0]))
    for use in (lambda: ad.add(x, 1.0), lambda: ad.mul(live, x),
                lambda: ad.override_value(x, np.zeros(2)), lambda: ad.vsum(root)):
        with pytest.raises(ValueError, match="swept tape"):
            use()


def test_fan_out_gradients_are_exact_and_not_aliased():
    # w feeds add, mul and vsum: d/dw [sum(w + c*w) + (sum w)^2 + sum(b)]
    # = 1 + c + 2 sum(w), and d/db = 1
    store = ParamStore()
    store.add("w", np.array([1.0, 2.0, 3.0]))
    store.add("b", np.array([0.5, -0.5, 4.0]))
    c = np.array([2.0, -1.0, 0.5])
    tape = Tape()
    w, b = tape.param(store, "w"), tape.param(store, "b")
    s = ad.vsum(w)
    q = ad.add(ad.add(w, ad.mul(w, c)), b)
    tape.backward(ad.add(ad.vsum(q), ad.mul(s, s)))
    want_w = 1.0 + c + 12.0
    assert np.array_equal(store.grads["w"], want_w)
    assert np.array_equal(store.grads["b"], np.ones(3))
    for leaf, name in ((w, "w"), (b, "b")):
        assert not np.shares_memory(leaf.grad, store.grads[name])
    w.grad[...] = -99.0
    assert np.array_equal(store.grads["w"], want_w)


# ---------------------------------------------------------------------------
# primitives that compute in place keep the bits of their plain expressions

KNOT = 0.1
EDGES = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, KNOT, np.nextafter(KNOT, 0.0),
                  np.nextafter(KNOT, 1.0), 0.05, -3.0, 3.0, -1e-300, 5e-324])


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _smooth_relu_plain(u, d):
    s = _unit_slope(u, d)
    return (np.maximum(u, 0.0) - s * (0.5 * d)) * s


def _linear_before(x, W, b=None):
    val = x @ W.T
    if b is not None:
        val = val + b
    return val


_SR_INPUTS = {"1-d": EDGES, "2-d": EDGES.reshape(1, -1),
              **{f"0-d {u!r}": np.array(u) for u in EDGES[:6]}, "float": 0.05}


@pytest.mark.parametrize("u", _SR_INPUTS.values(), ids=_SR_INPUTS.keys())
def test_smooth_relu_keeps_the_bits_of_its_plain_expression(u):
    want = _smooth_relu_plain(np.asarray(u, dtype=np.float64), KNOT)
    assert _same_bits(ad.smooth_relu(u, KNOT), want)
    tape = Tape()
    assert _same_bits(ad.smooth_relu(tape.input(u), KNOT).value, want)


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("shape", [(3,), (5, 3)])
def test_linear_keeps_the_bits_of_its_previous_expression(shape, bias):
    rng = np.random.default_rng(1)
    x = rng.normal(size=shape)
    W = rng.normal(size=(6, 3))
    W[0] = 0.0
    W[1, 0] = -np.inf
    b = np.array([-0.0, np.nan, np.inf, -np.inf, KNOT, -1.5]) if bias else None
    want = _linear_before(x, W, b)
    assert _same_bits(ad.linear(x, W, b), want)
    tape = Tape()
    leaves = [tape.input(a) for a in (x, W, b) if a is not None]
    assert _same_bits(ad.linear(*leaves).value, want)


@pytest.mark.parametrize("u", [np.array(-0.0), np.array(np.nan), EDGES, EDGES.reshape(1, -1)],
                         ids=["0-d -0.0", "0-d nan", "1-d", "2-d"])
def test_expand_last_keeps_the_bits_of_expand_dims(u):
    want = np.expand_dims(u, -1)
    assert _same_bits(ad.expand_last(u), want)
    tape = Tape()
    x = tape.input(u)
    out = ad.expand_last(x)
    assert _same_bits(out.value, want)
    tape.backward(ad.vsum(ad.mul(out, 2.0)))
    assert _same_bits(x.grad, np.full(u.shape, 2.0))


def test_sigmoid_keeps_the_bits_of_its_three_exponential_form():
    # exp(-|a|) is computed once, and both branches are formed from it and
    # 1 + it with the same operations as before, so the raw and taped value
    # and the gradient keep their bits, at the signed zeros, the infinities,
    # NaN and where exp(|a|) would overflow
    a = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 3.5, -2.25])
    w = np.linspace(0.5, 2.0, a.size)
    old = np.where(a >= 0, 1.0 / (1.0 + np.exp(-np.abs(a))),
                   np.exp(-np.abs(a)) / (1.0 + np.exp(-np.abs(a))))
    assert ad.sigmoid(a).tobytes() == old.tobytes()
    tape = Tape()
    x = tape.input(a)
    s = ad.sigmoid(x)
    assert s.value.tobytes() == old.tobytes()
    tape.backward(ad.vsum(ad.mul(s, w)))
    assert x.grad.tobytes() == (w * old * (1.0 - old)).tobytes()
