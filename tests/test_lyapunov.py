import re

import numpy as np
import pytest

from stabledyn import autodiff as ad
from stabledyn.autodiff import ParamStore, Tape, grad_check
from stabledyn.lyapunov import EPSILON, VARIANTS, LyapunovNet
from stabledyn.nets import D, Mlp


def _fresh(variant, dim=2, hidden=(6, 6), seed=0):
    net = LyapunovNet(variant, dim, hidden=hidden)
    store = ParamStore()
    net.init_params(store, np.random.default_rng(seed))
    return net, store


def test_rejects_unknown_variant():
    with pytest.raises(ValueError):
        LyapunovNet("quadratic", 2)


@pytest.mark.parametrize("variant", VARIANTS)
def test_zero_at_origin(variant):
    for hidden in ((6, 6), (7, 5)):
        for seed in range(10):
            net, store = _fresh(variant, hidden=hidden, seed=seed)
            v0 = net.value(np.zeros(2), store)
            assert v0 == pytest.approx(0.0, abs=1e-14), (variant, hidden, seed, v0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_quadratic_floor(variant):
    rng = np.random.default_rng(3)
    for seed in range(10):
        net, store = _fresh(variant, seed=seed)
        X = rng.uniform(-8.0, 8.0, size=(50, 2))
        v = net.value(X, store)
        floor = EPSILON * (X * X).sum(-1)
        assert np.all(v >= floor - 1e-12), (variant, seed)


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradient_at_origin_vanishes(variant):
    net, store = _fresh(variant, seed=5)
    g = net.grad(np.zeros(2), store)
    assert np.all(g == 0.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_grad_matches_finite_differences(variant):
    rng = np.random.default_rng(11)
    net, store = _fresh(variant, seed=2)
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(-5.0, 5.0, size=2)
        g = net.grad(x, store)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            numeric = (net.value(x + e, store) - net.value(x - e, store)) / (2 * h)
            assert abs(g[j] - numeric) < 1e-5, (variant, x, j)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_eval_matches_rowwise(variant):
    rng = np.random.default_rng(4)
    net, store = _fresh(variant, seed=7)
    X = rng.uniform(-4.0, 4.0, size=(12, 2))
    vb, gb = net.value_and_grad(X, store)
    for i, x in enumerate(X):
        v, g = net.value_and_grad(x, store)
        assert v == pytest.approx(vb[i], rel=1e-13)
        assert np.allclose(g, gb[i], rtol=1e-13)


@pytest.mark.parametrize("variant", ["icnn", "convex_lnn"])
def test_convexity_along_segments(variant):
    rng = np.random.default_rng(9)
    for seed in range(8):
        net, store = _fresh(variant, seed=seed)
        X1 = rng.uniform(-6.0, 6.0, size=(40, 2))
        X2 = rng.uniform(-6.0, 6.0, size=(40, 2))
        t = rng.uniform(0.0, 1.0, size=(40, 1))
        lhs = net.value(t * X1 + (1 - t) * X2, store)
        rhs = t[:, 0] * net.value(X1, store) + (1 - t[:, 0]) * net.value(X2, store)
        assert np.all(lhs <= rhs + 1e-10), (variant, seed)


@pytest.mark.parametrize("variant", ["icnn", "convex_lnn"])
def test_scaling_contraction_for_convex(variant):
    # V(gamma*y) <= gamma*V(y) for gamma in [0,1]; the closed-form mode
    # depends on exactly this
    rng = np.random.default_rng(13)
    net, store = _fresh(variant, seed=1)
    Y = rng.uniform(-6.0, 6.0, size=(60, 2))
    gam = rng.uniform(0.0, 1.0, size=(60, 1))
    assert np.all(net.value(gam * Y, store) <= gam[:, 0] * net.value(Y, store) + 1e-10)


def test_icnn_z_layers_take_the_first_and_last_width():
    shapes = _fresh("icnn", hidden=(4, 3))[1].shapes()
    assert shapes == {"V.W0": (4, 2), "V.b0": (4,), "V.U1": (3, 4), "V.W1": (3, 2),
                      "V.b1": (3,), "V.u2": (1, 3), "V.w2": (1, 2), "V.b2": (1,)}
    assert _fresh("icnn", hidden=(5,))[1].shapes()["V.U1"] == (5, 5)
    for hidden in ((4, 3, 9), ()):
        with pytest.raises(ValueError, match="one or two hidden widths"):
            LyapunovNet("icnn", 2, hidden=hidden)


@pytest.mark.parametrize("variant", VARIANTS)
def test_widths_that_are_not_counts_are_refused_by_name(variant):
    # int(2.5) and int("3") used to build a (2, 3) net without a word
    for hidden, named in (((2.5, 3), "an integer, got 2.5"), ((4, "3"), "an integer, got '3'"),
                          ((True,), "an integer, got True"), ((0,), "at least 1, got 0")):
        with pytest.raises(ValueError, match=f"^a hidden width must be {named}"):
            LyapunovNet(variant, 2, hidden=hidden)
    assert LyapunovNet(variant, 2, hidden=np.array([4, 3])[:1]).hidden == (4,)
    for hidden in (5, "25", np.array(5)):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"hidden must be a list of layer widths, got {hidden!r}")):
            LyapunovNet(variant, 2, hidden)
    with pytest.raises(ValueError, match="^dim must be an integer"):
        LyapunovNet(variant, 2.0)


def test_mlp_refuses_a_layer_width_that_is_not_a_count():
    for dims, named in (([2, 2.5, 0], "an integer, got 2.5"), ([2, 3, 0], "at least 1, got 0"),
                        ([2, "3", 2], "an integer, got '3'")):
        with pytest.raises(ValueError, match=f"^a layer width must be {named}"):
            Mlp(dims)
    assert Mlp([np.int64(2), 3, 2]).n_layers == 2
    for dims in (5, "2,3"):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"layer_dims must be a list of layer widths, got {dims!r}")):
            Mlp(dims)
    with pytest.raises(ValueError, match="need at least input and output dims"):
        Mlp([2])


def test_clamp_projects_constrained_weights():
    net, store = _fresh("icnn")
    store.values["V.U1"][0, 0] = -0.5
    store.values["V.u2"][0, 1] = -2.0
    net.clamp(store)
    assert store.values["V.U1"][0, 0] == 0.0
    assert store.values["V.u2"][0, 1] == 0.0
    assert np.all(store.values["V.U1"] >= 0.0)

    net2, store2 = _fresh("convex_lnn")
    store2.values["V.W1"][0, 0] = -1.0
    net2.clamp(store2)
    assert store2.values["V.W1"][0, 0] == 0.0

    net3, store3 = _fresh("lnn")
    before = store3.values["V.W1"].copy()
    net3.clamp(store3)     # nothing to clamp
    assert np.array_equal(store3.values["V.W1"], before)


def test_init_respects_constraints():
    for variant in ("icnn", "convex_lnn"):
        net, store = _fresh(variant, seed=21)
        for name in net._clamped:
            assert np.all(store.values[name] >= 0.0), (variant, name)


def test_icnn_hand_computed_value_and_grad():
    net = LyapunovNet("icnn", 1, hidden=(1,))
    store = ParamStore()
    net.init_params(store, np.random.default_rng(0))
    store.values["V.W0"][...] = [[2.0]]
    store.values["V.b0"][...] = [0.3]
    store.values["V.U1"][...] = [[1.5]]
    store.values["V.W1"][...] = [[0.5]]
    store.values["V.b1"][...] = [0.1]
    store.values["V.u2"][...] = [[2.0]]
    store.values["V.w2"][...] = [[0.25]]
    store.values["V.b2"][...] = [0.4]
    x = np.array([1.0])
    v, g = net.value_and_grad(x, store)
    # z1 = sr(2.3) = 2.25, z2 = sr(1.5*2.25 + 0.5 + 0.1) = 3.925,
    # g(x) = 2*3.925 + 0.25 + 0.4 = 8.5; g(0) = 1.25;
    # V = sr(7.25) + 0.001 = 7.201, dV/dx = 3*2 + 2*0.5 + 0.25 + 0.002
    assert v == pytest.approx(7.201, abs=1e-12)
    assert g[0] == pytest.approx(7.252, abs=1e-12)


def test_lnn_hand_computed_value_and_grad():
    net = LyapunovNet("lnn", 1, hidden=(1,))
    store = ParamStore()
    net.init_params(store, np.random.default_rng(0))
    store.values["V.W0"][...] = [[3.0]]
    store.values["V.W1"][...] = [[0.5]]
    x = np.array([1.0])
    v, g = net.value_and_grad(x, store)
    # phi = 0.5*sr(3) = 1.475, V = phi^2 + 0.001
    assert v == pytest.approx(1.475 ** 2 + 0.001, abs=1e-12)
    # dV/dx = 2*phi * 0.5 * sr'(3) * 3 + 0.002
    assert g[0] == pytest.approx(2 * 1.475 * 0.5 * 3.0 + 0.002, abs=1e-12)


def test_convex_lnn_hand_computed_value():
    net = LyapunovNet("convex_lnn", 1, hidden=(1,))
    store = ParamStore()
    net.init_params(store, np.random.default_rng(0))
    store.values["V.W0"][...] = [[2.0]]
    store.values["V.W1"][...] = [[1.5]]
    x = np.array([1.0])
    # phi = sr(1.5*sr(2)) = sr(2.925) = 2.875, g = phi^2 = 8.265625, g0 = 0
    # V = sr(8.265625) + 0.001 = 8.215625 + 0.001
    assert net.value(x, store) == pytest.approx(8.216625, abs=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_value_and_grad_are_trainable_expressions(variant):
    # both V and its input gradient must backprop into the weights; beside
    # two hidden widths, the icnn with one (its z-layers share it, the net
    # (4, 4) builds) and with two that differ, so U1 is not square, and the
    # bias-free stacks with none, where the first layer is the output layer
    more = ((4,), (5, 3)) if variant == "icnn" else ((),)
    for hidden in ((4, 4), *more):
        rng = np.random.default_rng(17)
        net, store = _fresh(variant, hidden=hidden, seed=3)
        X = rng.uniform(-3.0, 3.0, size=(5, 2))
        C = rng.normal(size=(5, 2))

        def f(params, tape):
            v, g = net.value_and_grad(X, params, tape)
            out = ad.add(ad.mean(v), ad.mean(ad.mul(g, C)))
            return out if tape is not None else float(out)

        report = grad_check(f, store, h=1e-5)
        assert report.max_rel_err < 1e-4, (variant, hidden, report.max_rel_err,
                                           report.worst_param)


# nodes one recorded call registers on a fresh tape, parameter leaves
# included (and x's own leaf when x is recorded): (value, grad) for a raw x
# and for a recorded x. value_and_grad registers what grad does
_TAPE_NODES = [("icnn", (25, 25), (26, 40), (29, 44)), ("icnn", (7,), (26, 40), (29, 44)),
               ("lnn", (25, 25), (10, 19), (13, 23)), ("lnn", (7,), (7, 13), (10, 17)),
               ("convex_lnn", (25, 25), (12, 26), (15, 30)),
               ("convex_lnn", (7,), (9, 20), (12, 24))]


@pytest.mark.parametrize("variant,hidden,raw_x,recorded_x", _TAPE_NODES)
def test_a_recorded_call_registers_a_fixed_number_of_nodes(variant, hidden, raw_x, recorded_x):
    # training records V on every batch: the count pins what the tape holds
    net, store = _fresh(variant, hidden=hidden, seed=2)
    X = np.random.default_rng(3).uniform(-3.0, 3.0, size=(20, 2))
    for recorded, (n_value, n_grad) in ((False, raw_x), (True, recorded_x)):
        for call, want in ((net.value, n_value), (net.grad, n_grad),
                           (net.value_and_grad, n_grad)):
            tape = Tape()
            call(tape.input(X) if recorded else X, store, tape)
            assert len(tape._nodes) == want, (call.__name__, recorded)


# -- g(0) without a zero-input forward pass --------------------------------

@pytest.mark.parametrize("variant", ["lnn", "convex_lnn"])
def test_bias_free_variants_map_the_origin_to_exactly_zero(variant):
    # V uses g itself as the excess g - g(0); that is exact only if phi(0) = 0
    for seed in range(6):
        net, store = _fresh(variant, dim=3, hidden=(7, 5), seed=seed)
        assert np.all(_phi(net, store, np.zeros(3)) == 0.0), (variant, seed)
        rng = np.random.default_rng(seed)
        for v in store.values.values():
            v[...] = rng.normal(scale=2.0, size=v.shape)
        net.clamp(store)
        assert np.all(_phi(net, store, np.zeros(3)) == 0.0), (variant, seed)
        assert net.value(np.zeros(3), store) == 0.0


def _srelu(u, d):
    return ad.smooth_relu_and_slope(u, d)[0]


def _phi(net, store, x):
    """phi(x) of lnn or convex_lnn, one plain expression per layer."""
    layers = len(net.hidden) + 1
    for i in range(layers):
        x = x @ store.values[f"V.W{i}"].T
        if i < layers - 1 or net.variant == "convex_lnn":
            x = _srelu(x, D)
    return x


def _kernel_excess(net, p, x):
    """The icnn's g(x) - g(0) from V's kernel, on the parameters p (raw
    arrays or a tape's leaves)."""
    proj = (ad.linear(x, p["V.W0"], p["V.b0"]), ad.linear(x, p["V.W1"]), ad.linear(x, p["V.w2"]))
    return net._layers(p, proj)[0]


def _icnn_full_body(net, store, x):
    """g(x) with every term, the zero-input linear maps included."""
    p = {k.split(".", 1)[1]: v for k, v in store.values.items()}
    z1 = _srelu(x @ p["W0"].T + p["b0"], D)
    z2 = _srelu((z1 @ p["U1"].T + p["b1"]) + x @ p["W1"].T, D)
    return ((z2 @ p["u2"].T + p["b2"]) + x @ p["w2"].T)[..., 0]


def test_icnn_bias_only_g0_equals_the_full_body_at_the_origin():
    rng = np.random.default_rng(31)
    for seed in range(8):
        net, store = _fresh("icnn", dim=2, hidden=(9,), seed=seed)
        for name in ("W0", "W1", "w2", "b1", "b2"):
            v = store.values[f"V.{name}"]
            v[...] = rng.normal(size=v.shape)
            v.flat[0] = -abs(v.flat[0])
        # b0 on both sides of 0 and of the knot d, exact 0 and d included
        d = D
        store.values["V.b0"][...] = [-2 * d, -d / 2, 0.0, d / 4, d / 2, d, 1.5 * d, 3 * d, -5 * d]
        store.values["V.U1"][...] = rng.uniform(0.0, 1.0, size=(9, 9))
        store.values["V.u2"][...] = rng.uniform(0.0, 1.0, size=(1, 9))
        X = rng.uniform(-3.0, 3.0, size=(16, 2))
        X[0] = 0.0
        ref = _icnn_full_body(net, store, X) - _icnn_full_body(net, store, np.zeros(2))
        assert np.array_equal(_kernel_excess(net, store.values, X), ref), seed
        # x - y == 0 exactly only if x == y: the bias-only g(0) is the full
        # body's (a zero row inside a batch goes through another matmul kernel,
        # so only the single-state origin must come out exactly 0)
        assert _kernel_excess(net, store.values, np.zeros(2)) == 0.0
        assert net.value(np.zeros(2), store) == 0.0
        tape = Tape()
        leaves = {name: tape.param(store, name) for name in store.values}
        excess_t = _kernel_excess(net, leaves, tape.input(X))
        assert np.array_equal(ad.value_of(excess_t), ref), seed


@pytest.mark.parametrize("hidden", [(7,), (7, 5)])
def test_a_supplied_g0_changes_no_bit(hidden):
    net, store = _fresh("icnn", hidden=hidden, seed=3)
    g0 = net.origin(store)
    X = np.random.default_rng(4).uniform(-3.0, 3.0, size=(16, 2))
    for x in (X, X[0]):
        assert np.array_equal(net.value(x, store, g0=g0), net.value(x, store))


@pytest.mark.parametrize("variant", VARIANTS)
def test_origin_is_built_for_the_icnn_alone_and_serves_raw_calls(variant):
    net, store = _fresh(variant)
    g0 = net.origin(store)
    assert (g0 is None) == (variant != "icnn")
    if g0 is not None:
        assert np.array_equal(g0, _icnn_full_body(net, store, np.zeros(2)))
        # a recorded V needs g(0) on its own tape, or the biases lose its gradient
        with pytest.raises(ValueError, match="raw calls only"):
            net.value(np.ones((2, 2)), store, Tape(), g0=g0)


# ---------------------------------------------------------------------------
# V along a ray, by forward mode

_RAY_NETS = [("lnn", (25, 25)), ("convex_lnn", (25, 25)), ("icnn", (7,)),
             ("icnn", (7, 5)), ("lnn", (9, 7, 5))]


@pytest.mark.parametrize("batch", [1, 20, 128, 129, 256])
@pytest.mark.parametrize("variant,hidden", _RAY_NETS)
def test_ray_matches_value_and_grad_along_the_ray(variant, hidden, batch):
    # one row, and batches on each side of the raw V pass's stacking
    # threshold (STACK_ROWS / 2 = 128 rows)
    net, store = _fresh(variant, hidden=hidden, seed=3)
    rng = np.random.default_rng(batch)
    Y = rng.uniform(-6.0, 6.0, size=(batch, 2))
    gamma = 1.0 - rng.random(batch)          # in (0, 1]
    gamma[0] = 1.0
    v, dv = net.ray(Y, store).at(gamma)
    want_v, want_g = net.value_and_grad(gamma[:, None] * Y, store)
    np.testing.assert_allclose(v, want_v, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(dv, (want_g * Y).sum(axis=-1), rtol=1e-12, atol=0.0)
    # at gamma = 1 both read the same smooth_relu on the same batch: the same bits
    one = gamma == 1.0
    assert v[one].tobytes() == want_v[one].tobytes()


@pytest.mark.parametrize("batch", [None, 1, 2, 20, 128, 129, 256, 300])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_value_call_a_recorded_value_and_a_ray_at_one_read_the_same_bits(variant, batch):
    # raw calls run V's kernel and recorded ones the tape primitives, in one
    # order of operations, and one smooth_relu formula serves both and the
    # ray: on one batch nothing parts their V or grad V. batch None is a
    # single (n,) state
    for seed in range(4):
        net, store = _fresh(variant, hidden=(25, 25), seed=seed)
        rng = np.random.default_rng(100 * seed + (batch or 0))
        rows = (batch,) if batch else ()
        # rows at every scale from 1e-8 to 1e2, the origin among them
        X = rng.uniform(-1.0, 1.0, size=(*rows, 2)) * 10.0 ** rng.uniform(-8.0, 2.0, size=(*rows, 1))
        if batch is None and seed == 0:
            X[:] = 0.0
        elif batch and (batch > 1 or seed == 0):
            X[-1] = 0.0
        raw_v, raw_g = net.value_and_grad(X, store)
        g0 = net.origin(store)
        tape = Tape()
        x = tape.input(X)
        rec_v, rec_g = net.value_and_grad(x, store, tape)
        for v in (net.value(X, store), net.value(X, store, g0=g0),
                  net.value(x, store, tape), rec_v):
            assert ad.value_of(v).tobytes() == raw_v.tobytes(), seed
        for g in (net.grad(X, store), net.grad(x, store, tape), rec_g):
            assert ad.value_of(g).tobytes() == raw_g.tobytes(), seed
        if batch:
            v, _ = net.ray(X, store).at(np.ones(batch))
            assert v.tobytes() == raw_v.tobytes(), seed


@pytest.mark.parametrize("variant", VARIANTS)
def test_an_input_of_the_wrong_width_is_refused_by_name(variant):
    net, store = _fresh(variant)
    for shape in [(3, 3), (3,), (2, 1), (1, 2, 2), ()]:
        x = np.ones(shape)
        for tape in (None, Tape()):
            xin = x if tape is None else tape.input(x)
            for call in (net.value, net.grad, net.value_and_grad):
                with pytest.raises(ValueError, match=re.escape(
                        f"x must be a state of dimension 2 or a (batch, 2) array, got shape {shape}")):
                    call(xin, store, tape)
    for shape in [(3, 3), (2,), (2, 1), (1, 2, 2)]:
        with pytest.raises(ValueError, match=re.escape(
                f"Y must be a (batch, 2) array, got shape {shape}")):
            net.ray(np.ones(shape), store)


@pytest.mark.parametrize("variant,hidden", _RAY_NETS)
def test_a_taken_ray_matches_a_fresh_ray_on_its_rows(variant, hidden):
    net, store = _fresh(variant, hidden=hidden, seed=4)
    rng = np.random.default_rng(5)
    Y = rng.uniform(-6.0, 6.0, size=(40, 2))
    rows = np.flatnonzero(rng.random(40) < 0.4)
    gamma = 1.0 - rng.random(rows.size)
    mask = np.zeros(40, dtype=bool)
    mask[rows] = True
    fresh = net.ray(Y[rows], store).at(gamma)
    # the projections of Y are sliced, not recomputed, so the taken ray's
    # rows differ from the fresh ray's only by the matmul's batch rounding
    for taken in (net.ray(Y, store).take(rows), net.ray(Y, store).take(mask)):
        for a, b in zip(taken.at(gamma), fresh):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)


def test_a_ray_given_g0_changes_no_bit():
    net, store = _fresh("icnn", hidden=(7, 5), seed=3)
    Y = np.random.default_rng(4).uniform(-3.0, 3.0, size=(16, 2))
    gamma = np.linspace(0.1, 1.0, 16)
    for a, b in zip(net.ray(Y, store).at(gamma),
                    net.ray(Y, store, net.origin(store)).at(gamma)):
        assert np.array_equal(a, b)


def _sr_pair_before(a, da):
    s = np.minimum(np.maximum(a / D, 0.0), 1.0)
    return s * (a - (0.5 * D) * s), s * da


def _ray_at_before(net, store, Y, gamma):
    """V(gamma*Y) and dV/dgamma as Ray.at computed them before it ran in
    place: the same operations, one plain expression each."""
    def P(name):
        return store.values[f"V.{name}"]

    sq = (Y * Y).sum(axis=-1)
    gc = gamma[:, None]
    if net.variant == "icnn":
        W0Y, W1Y, w2Y = Y @ P("W0").T, Y @ P("W1").T, Y @ P("w2")[0]
        U1, u2 = P("U1"), P("u2")
        z, dz = _sr_pair_before(gc * W0Y + P("b0"), W0Y)
        z, dz = _sr_pair_before((z @ U1.T + P("b1")) + gc * W1Y, dz @ U1.T + W1Y)
        excess = ((z @ u2.T + P("b2"))[:, 0] + gamma * w2Y) - net.origin(store)
        d_excess = (dz @ u2.T)[:, 0] + w2Y
    else:
        W0Y = Y @ P("W0").T
        a, da = gc * W0Y, W0Y
        layers = len(net.hidden) + 1
        for i in range(layers):
            if i:
                W = P(f"W{i}")
                a, da = z @ W.T, dz @ W.T
            if i < layers - 1 or net.variant == "convex_lnn":
                z, dz = _sr_pair_before(a, da)
            else:
                z, dz = a, da
        excess = (z * z).sum(axis=-1)
        d_excess = 2.0 * (z * dz).sum(axis=-1)
    quad = (gamma * gamma * sq) * EPSILON
    d_quad = (2.0 * EPSILON) * gamma * sq
    if net.variant != "lnn":
        excess, d_excess = _sr_pair_before(excess, d_excess)
    return excess + quad, d_excess + d_quad


@pytest.mark.parametrize("batch", [1, 4, 20, 256])
@pytest.mark.parametrize("variant,hidden", [*_RAY_NETS, ("lnn", ())])
def test_ray_keeps_the_bits_of_its_previous_expressions(variant, hidden, batch):
    net, store = _fresh(variant, hidden=hidden, seed=6)
    rng = np.random.default_rng(batch)
    # rows at every scale, the origin among them, and gamma = 0 and 1
    Y = rng.uniform(-6.0, 6.0, size=(batch, 2)) * 10.0 ** rng.integers(-8, 2, size=(batch, 1))
    Y[-1] = 0.0
    gamma = 1.0 - rng.random(batch)
    gamma[0] = 1.0
    if batch > 2:
        gamma[1] = 0.0
    ray = net.ray(Y, store)
    for _ in range(2):        # a second call on the same ray reads the same bits
        v, dv = ray.at(gamma)
        want_v, want_dv = _ray_at_before(net, store, Y, gamma)
        assert np.array_equal(v, want_v) and np.array_equal(dv, want_dv)
