import numpy as np
import pytest

from stabledyn import autodiff as ad
from stabledyn.autodiff import ParamStore, Tape, grad_check
from stabledyn.deterministic import (ORIGIN_GUARD, STACK_ROWS, RootFindError, StepInfo,
                                     certified_gamma_expr, convex_gamma, make_model,
                                     model_step, rollout, solve_gamma_batch, step_expr)
from stabledyn.lyapunov import LyapunovNet, Ray
from stabledyn.stochastic import make_stochastic_model, mdn_forward
from stabledyn.training import train


class PolyV:
    """Radial polynomial stand-in with an exact root, for solver oracles."""

    def __init__(self, c2=1.0, c4=0.0):
        self.c2, self.c4 = c2, c4

    def value(self, X, store, tape=None, g0=None):
        r2 = (X * X).sum(-1)
        return self.c4 * r2 * r2 + self.c2 * r2

    def ray(self, Y, store, g0=None):
        return PolyRay(self, (Y * Y).sum(-1))


class PolyRay:
    """PolyV along the rays gamma*Y, from r2 = |Y|^2 (LyapunovNet.ray's interface)."""

    def __init__(self, v, r2):
        self.v, self.r2 = v, r2

    def take(self, rows):
        return PolyRay(self.v, self.r2[rows])

    def at(self, gamma):
        s = gamma * gamma * self.r2
        c2, c4 = self.v.c2, self.v.c4
        return c4 * s * s + c2 * s, (4.0 * c4 * s + 2.0 * c2) * gamma * self.r2


def _solve(lyap, store, Y, target, **kw):
    """solve_gamma_batch on the rays of Y, started from V(Y) and dV/dgamma
    at gamma = 1 as one pass along the rays reads them."""
    ray = lyap.ray(Y, store)
    v, slope = ray.at(np.ones(Y.shape[0]))
    return solve_gamma_batch(ray, v, slope, target, **kw)


def _fresh(mode, variant, seed=0, expand=None, **kw):
    model = make_model(mode, 2, variant, **kw)
    store = ParamStore()
    model.init_params(store, np.random.default_rng(seed))
    if expand:
        last = model.fhat.n_layers - 1
        store.values[f"f.W{last}"] *= expand
    return model, store


# ---------------------------------------------------------------------------
# construction contracts

def test_mode_validation():
    with pytest.raises(ValueError):
        make_model("soft", 2, "lnn")
    with pytest.raises(ValueError):
        make_model("convex", 2, "lnn")          # needs a convex V
    with pytest.raises(ValueError):
        make_model("convex", 2, "icnn", integrating=True)
    with pytest.raises(ValueError):
        make_model("implicit", 2, "lnn", integrating=True)
    make_model("projection", 2, "lnn", integrating=True)   # fine
    make_model("none", 2, "lnn", integrating=True)         # fine
    with pytest.raises(ValueError):
        make_model("implicit", 2, "lnn", beta=1.0)
    # a wrongly typed setting used to raise TypeError or OverflowError deep
    # in numpy, or (integrating="yes", 1) to be accepted
    for setting, value, match in [
            ("dim", "two", "dim must be an integer"), ("dim", 2.0, "dim must be an integer"),
            ("dim", True, "dim must be an integer"), ("dim", 0, "dim must be at least 1"),
            ("hidden_f", 5, "hidden_f must be a list of layer widths"),
            ("hidden_v", "25", "hidden_v must be a list of layer widths"),
            ("hidden_f", (25, 2.5), "a hidden_f width must be an integer"),
            ("hidden_v", (0,), "a hidden_v width must be at least 1"),
            ("beta", "0.9", "beta must be a number"), ("beta", True, "beta must be a number"),
            ("rootfind_tol", "1e-3", "rootfind_tol must be a number"),
            ("integrating", "yes", "integrating must be true or false"),
            ("integrating", 1, "integrating must be true or false")]:
        with pytest.raises(ValueError, match=match):
            make_model(**{"mode": "projection", "dim": 2, "variant": "icnn", setting: value})
    # numpy scalars, arrays and lists, as from a file, are fine
    make_model("projection", np.int64(2), "icnn", hidden_f=[4], hidden_v=[np.int64(3)],
               beta=np.float64(0.9), integrating=True)
    m = make_model("projection", 2, "icnn", hidden_f=np.array([4, 3]), integrating=np.bool_(True))
    assert m.hidden_f == (4, 3) and m.integrating is True


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_rootfind_tol_is_refused(value):
    # such a tolerance accepts every gamma, so the step would certify nothing
    with pytest.raises(ValueError, match="rootfind_tol"):
        make_model("implicit", 2, "icnn", rootfind_tol=value)


def test_prediction_at_the_floor_is_left_alone():
    # x = 0 makes the decrease test V(y) > 0 fire for any nonzero y, but a
    # prediction this close to the origin is exempted by the guard
    model, store = _fresh("convex", "icnn", seed=13)
    last = model.fhat.n_layers - 1
    for i in range(model.fhat.n_layers):
        store.values[f"f.W{i}"] *= 0.0
        store.values[f"f.b{i}"] *= 0.0
    store.values[f"f.b{last}"][:] = 1e-7
    X = np.zeros((1, 2))
    y = model.fhat.forward(X, store)
    assert 0.0 < model.lyap.value(y, store)[0] < 1e-12
    out, info = model_step(model, store, X, want_info=True)
    assert np.array_equal(out, y)
    assert not info.intervened.any()
    tape = Tape()
    expr = step_expr(model, store, tape, X)
    assert np.array_equal(ad.value_of(expr), y)


def test_none_mode_is_a_passthrough():
    model, store = _fresh("none", "lnn", seed=11)
    X = np.random.default_rng(0).uniform(-3, 3, size=(6, 2))
    y = model.fhat.forward(X, store)
    out, info = model_step(model, store, X, want_info=True)
    assert np.array_equal(out, y)
    assert not info.intervened.any()
    tape = Tape()
    expr = step_expr(model, store, tape, X)
    assert np.array_equal(ad.value_of(expr), y)

    model_i, store_i = _fresh("none", "lnn", seed=11, integrating=True)
    assert np.array_equal(model_step(model_i, store_i, X),
                          X + model_i.fhat.forward(X, store_i))


# ---------------------------------------------------------------------------
# closed-form scaling

def test_convex_gamma_on_numbers():
    # V(y) above the level set: relu term inactive, gamma = beta*Vx/Vy
    assert convex_gamma(np.array([2.0]), np.array([4.0]), 0.99)[0] == pytest.approx(0.495)
    # far above: still the same ratio
    assert convex_gamma(np.array([1.0]), np.array([100.0]), 0.5)[0] == pytest.approx(0.005)


def _relu(a):
    """relu(a) as a*[a > 0]: max(a, 0) up to the sign of a zero, and its pullback g*[a > 0]."""
    return ad.mul(a, ad.value_of(a) > 0.0)


def _convex_gamma_full(v_x, v_y, beta):
    """The paper's closed form, relu term and all."""
    bvx = ad.mul(v_x, beta)
    return ad.div(ad.sub(bvx, _relu(ad.sub(bvx, v_y))), v_y)


def test_convex_gamma_keeps_the_bits_of_the_full_form_on_violating_rows():
    # the callers pass only rows with V(y) > beta V(x), where the relu term is
    # an exact 0 with a zero pullback: values and both gradients keep their bits
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        beta = rng.uniform(0.5, 1.0)
        v_x = rng.random(n) * 10.0 ** rng.uniform(-12.0, 3.0, n)
        v_y = beta * v_x * (1.0 + 10.0 ** rng.uniform(-15.0, 2.0, n))
        keep = v_y > beta * v_x
        v_x, v_y, w = v_x[keep], v_y[keep], rng.normal(size=keep.sum())
        assert convex_gamma(v_x, v_y, beta).tobytes() == _convex_gamma_full(v_x, v_y, beta).tobytes()
        got = []
        for form in (convex_gamma, _convex_gamma_full):
            tape = Tape()
            x, y = tape.input(v_x), tape.input(v_y)
            gam = form(x, y, beta)
            tape.backward(ad.vsum(ad.mul(w, gam)))
            got.append(b"".join(a.tobytes() for a in (gam.value, x.grad, y.grad)))
        assert got[0] == got[1]


def test_no_intervention_passthrough_is_bitexact():
    model, store = _fresh("convex", "icnn", seed=1)
    # shrink fhat hard so its output always sits inside the level set
    last = model.fhat.n_layers - 1
    store.values[f"f.W{last}"] *= 1e-6
    store.values[f"f.b{last}"] *= 1e-6
    X = np.random.default_rng(2).uniform(-6, 6, size=(11, 2))
    y = model.fhat.forward(X, store)
    out, info = model_step(model, store, X, want_info=True)
    assert not info.intervened.any()
    assert np.array_equal(out, y)
    tape = Tape()
    expr = step_expr(model, store, tape, X)
    assert np.array_equal(ad.value_of(expr), y)


@pytest.mark.parametrize("variant", ["icnn", "convex_lnn"])
def test_convex_step_decreases_v(variant):
    for seed in range(15):
        model, store = _fresh("convex", variant, seed=seed, expand=10.0)
        X = np.random.default_rng(seed + 100).uniform(-6, 6, size=(20, 2))
        out = model_step(model, store, X)
        v_x = model.lyap.value(X, store)
        v_o = model.lyap.value(out, store)
        assert np.all(v_o <= model.beta * v_x + 1e-9), seed


# ---------------------------------------------------------------------------
# the root finder

def test_solver_quadratic_oracle():
    # V = ||x||^2, y = (2, 0), target 0.99: gamma* = sqrt(0.99)/2
    v = PolyV(c2=1.0)
    want = np.sqrt(0.99) / 2.0
    gamma, v_at, nn, nb = _solve(v, None, np.array([[2.0, 0.0]]), np.array([0.99]),
                                 rootfind_tol=1e-9)
    assert abs(gamma[0] - want) < 1e-6
    assert abs(v_at[0] - 0.99) <= 1e-9
    assert abs(gamma[0] - 0.49749371855331) < 1e-6
    assert nb[0] <= 10


def test_solver_quartic_oracle():
    # V = 0.5||x||^4 + ||x||^2, y = (2,0), target 1.485:
    # 8 g^4 + 4 g^2 - 1.485 = 0, g^2 = (-4 + sqrt(63.52))/16
    v = PolyV(c2=1.0, c4=0.5)
    want = np.sqrt((-4.0 + np.sqrt(63.52)) / 16.0)
    gamma, _, _, _ = _solve(v, None, np.array([[2.0, 0.0]]), np.array([1.485]),
                            rootfind_tol=1e-10)
    assert abs(gamma[0] - want) < 1e-6


def test_solver_budget_exhaustion_carries_bracket():
    v = PolyV()
    with pytest.raises(RootFindError) as exc:
        _solve(v, None, np.array([[2.0, 0.0]]), np.array([0.99]),
               rootfind_tol=1e-14, max_newton=0, max_bisect=3)
    err = exc.value
    assert err.row == 0
    assert 0.0 <= err.lo < err.hi <= 1.0
    assert err.residual > 1e-14


def test_solver_batch_of_mixed_rows():
    v = PolyV()
    Y = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    T = np.array([0.99, 4.5, 1.0])
    gamma, _, nn, nb = _solve(v, None, Y, T, rootfind_tol=1e-10)
    want = np.sqrt(T / (Y * Y).sum(-1))
    assert np.allclose(gamma, want, atol=1e-8)
    assert np.all(nb <= 10)


def test_solver_batch_matches_rowwise_solves_exactly():
    # with two Newton steps allowed, rows whose root is far from 1 finish by
    # bisection; rows leave the batch at different iterations
    v = PolyV(c2=1.0, c4=0.5)
    Y = np.array([[1.0, 0.5], [2.0, 0.0], [0.3, -1.2], [-1.5, 2.0], [0.8, 0.8],
                  [3.0, 1.0], [-0.4, 0.1]])
    frac = np.array([1.0 - 1e-13, 0.98, 0.6, 0.01, 0.3, 0.001, 0.9])
    T = v.value(Y, None) * frac
    kw = dict(rootfind_tol=1e-6, max_newton=2, max_bisect=60)
    gamma, v_at, nn, nb = _solve(v, None, Y, T, **kw)
    assert gamma[0] == 1.0 and nn[0] == 0 and nb[0] == 0
    assert np.any((nn > 0) & (nb == 0)) and np.any(nb > 0)
    for b in range(Y.shape[0]):
        g1, v1, n1, b1 = _solve(v, None, Y[b:b + 1], T[b:b + 1], **kw)
        assert np.array_equal(gamma[b:b + 1], g1), b
        assert np.array_equal(v_at[b:b + 1], v1), b
        assert (nn[b], nb[b]) == (n1[0], b1[0]), b


def test_solver_stall_names_the_input_row_and_its_own_bracket():
    # a zero prediction never moves V, so its Newton slope is 0 and bisection
    # runs out; rows 0, 1 and 3 converge and leave the batch before that
    v = PolyV()
    Y = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    T = np.array([0.99, 1.0, -1.0, 4.5, -2.0])
    kw = dict(rootfind_tol=1e-10, max_newton=50, max_bisect=20)
    with pytest.raises(RootFindError) as exc:
        _solve(v, None, Y, T, **kw)
    with pytest.raises(RootFindError) as alone:
        _solve(v, None, Y[2:3], T[2:3], **kw)
    err, ref = exc.value, alone.value
    assert err.row == 2 and ref.row == 0
    assert (err.lo, err.hi, err.residual) == (ref.lo, ref.hi, ref.residual)
    assert err.lo == 0.0 and err.hi == 0.5 ** 20
    assert "row 2" in str(err)


def _solve_before(ray, v, target, rootfind_tol=1e-3, max_newton=50, max_bisect=60):
    """solve_gamma_batch as its loop was written before it was made lean:
    a NaN in place of a zero slope, an isfinite test and both budget tests
    on every iteration, and fresh bracket arrays."""
    B = v.shape[0]
    gamma, v_out = np.ones(B), v.copy()
    n_newton, n_bisect = np.zeros(B, dtype=int), np.zeros(B, dtype=int)
    g = v - target
    rows = np.flatnonzero(np.abs(g) > rootfind_tol)
    if not rows.size:
        return gamma, v_out, n_newton, n_bisect
    if rows.size < B:
        ray = ray.take(rows)
    tc, gc = target[rows], g[rows]
    gpc = ray.at(np.ones(rows.size))[1]
    gam = np.ones(rows.size)
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    nn, nb = np.zeros(rows.size, dtype=int), np.zeros(rows.size, dtype=int)
    while rows.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = gam - gc / np.where(gpc == 0.0, np.nan, gpc)
        ok = (nn < max_newton) & np.isfinite(newton) & (lo < newton) & (newton < hi)
        stalled = ~ok & (nb >= max_bisect)
        if np.any(stalled):
            i = int(np.flatnonzero(stalled)[0])
            b = int(rows[i])
            raise RootFindError(
                f"gamma solve stalled in row {b}: bracket [{lo[i]:.6g}, {hi[i]:.6g}], "
                f"|g| = {abs(gc[i]):.3g} > {rootfind_tol:.3g}",
                row=b, lo=float(lo[i]), hi=float(hi[i]), residual=float(abs(gc[i])))
        gam = np.where(ok, newton, 0.5 * (lo + hi))
        nn += ok
        nb += ~ok
        v_c, gpc = ray.at(gam)
        gc = v_c - tc
        above = gc > 0.0
        hi = np.where(above, gam, hi)
        lo = np.where(above, lo, gam)
        going = np.abs(gc) > rootfind_tol
        if not going.all():
            done = ~going
            r = rows[done]
            gamma[r], v_out[r], n_newton[r], n_bisect[r] = gam[done], v_c[done], nn[done], nb[done]
            rows, tc, gc, gpc = rows[going], tc[going], gc[going], gpc[going]
            gam, lo, hi, nn, nb = gam[going], lo[going], hi[going], nn[going], nb[going]
            if rows.size:
                ray = ray.take(going)
    return gamma, v_out, n_newton, n_bisect


def _given_pass(ray, v, target, **kw):
    """solve_gamma_batch given the slope that a pass over every row reads."""
    return solve_gamma_batch(ray, v, ray.at(np.ones(v.shape[0]))[1], target, **kw)


def _outcome(ray, v, target, solve, **kw):
    """The solve's four arrays, or its RootFindError's row, bracket, residual and message."""
    try:
        return solve(ray, v, target, **kw)
    except RootFindError as err:
        return err.row, err.lo, err.hi, err.residual, str(err)


def _same_outcome(got, want):
    if isinstance(got[0], np.ndarray) != isinstance(want[0], np.ndarray):
        return False
    if not isinstance(got[0], np.ndarray):
        return got == want
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


class SlopeRay(PolyRay):
    """PolyRay whose dV/dgamma reads `bad` on the flagged rows."""

    def __init__(self, v, r2, flag, bad):
        super().__init__(v, r2)
        self.flag, self.bad = flag, bad

    def take(self, rows):
        return SlopeRay(self.v, self.r2[rows], self.flag[rows], self.bad)

    def at(self, gamma):
        v, dv = super().at(gamma)
        dv[self.flag] = self.bad
        return v, dv


@pytest.mark.parametrize("bad", [0.0, -0.0, np.nan, np.inf])
def test_a_slope_that_is_zero_or_not_finite_bisects_as_before(bad):
    # no NaN stands in for a zero slope and no isfinite test screens the
    # proposal: gc/0 is +-inf, and any non-finite proposal fails lo < newton < hi;
    # an infinite slope proposes the current point, an end of the bracket
    v = PolyV(c2=1.0, c4=0.5)
    Y = np.random.default_rng(3).uniform(-3.0, 3.0, size=(9, 2))
    T = v.value(Y, None) * np.linspace(0.05, 0.95, 9)
    flag = np.arange(9) % 3 == 0
    for kw in (dict(), dict(rootfind_tol=1e-9), dict(rootfind_tol=1e-9, max_newton=2)):
        got = _outcome(SlopeRay(v, (Y * Y).sum(-1), flag, bad), v.value(Y, None), T,
                       _given_pass, **kw)
        want = _outcome(SlopeRay(v, (Y * Y).sum(-1), flag, bad), v.value(Y, None), T,
                        _solve_before, **kw)
        assert _same_outcome(got, want)
        _, _, nn, nb = got
        assert np.all(nn[flag] == 0) and np.all(nb[flag] > 0) and np.all(nn[~flag] > 0)


@pytest.mark.parametrize("budgets", [(0, 3), (2, 1), (1, 4), (50, 20)])
def test_a_stall_raises_as_before(budgets):
    # the budgets are tested only once the iteration count can reach them;
    # the error names the same row, bracket and residual as before
    max_newton, max_bisect = budgets
    v = PolyV(c2=1.0, c4=0.5)
    Y = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 3.0], [0.3, -1.2]])
    T = np.array([0.99, 1.0, -1.0, 4.5, 1e-3])
    kw = dict(rootfind_tol=1e-13, max_newton=max_newton, max_bisect=max_bisect)
    got = _outcome(v.ray(Y, None), v.value(Y, None), T, _given_pass, **kw)
    assert not isinstance(got[0], np.ndarray)
    assert got == _outcome(v.ray(Y, None), v.value(Y, None), T, _solve_before, **kw)


@pytest.mark.parametrize("batch", [1, 4, 20, 256])
@pytest.mark.parametrize("variant", ["lnn", "icnn", "convex_lnn"])
def test_the_solve_keeps_the_bits_of_its_previous_loop(variant, batch):
    lyap = LyapunovNet(variant, 2)
    store = ParamStore()
    lyap.init_params(store, np.random.default_rng(batch))
    rng = np.random.default_rng(batch + 1)
    Y = rng.uniform(-6.0, 6.0, size=(batch, 2)) * 10.0 ** rng.integers(-2, 2, size=(batch, 1))
    v = lyap.value(Y, store)
    scale = rng.uniform(0.01, 0.999, size=batch)
    for kw in (dict(), dict(rootfind_tol=1e-10), dict(rootfind_tol=1e-10, max_newton=1),
               dict(rootfind_tol=1e-12, max_newton=0, max_bisect=8)):
        # rows that stop at gamma = 1: a positive target within rootfind_tol of V(Y)
        T = v * scale
        T[::5] = v[::5] - np.minimum(kw.get("rootfind_tol", 1e-3) / 10.0, v[::5] / 2.0)
        assert np.all(T > 0.0)
        got = _outcome(lyap.ray(Y, store), v, T, _given_pass, **kw)
        assert _same_outcome(got, _outcome(lyap.ray(Y, store), v, T, _solve_before, **kw))
        if isinstance(got[0], np.ndarray):
            gamma, _, nn, nb = got
            assert np.all(gamma[::5] == 1.0) and not (nn[::5].any() or nb[::5].any())
        else:
            assert got[0] % 5, got          # a stall is never one of the stopping rows


@pytest.mark.parametrize("variant", ["lnn", "icnn", "convex_lnn"])
def test_implicit_residuals_and_budgets_on_random_nets(variant):
    hits = 0
    for seed in range(15):
        model, store = _fresh("implicit", variant, seed=seed, expand=10.0)
        X = np.random.default_rng(seed + 7).uniform(-6, 6, size=(20, 2))
        out, info = model_step(model, store, X, want_info=True)
        hits += int(info.intervened.sum())
        assert np.all(info.residual <= model.rootfind_tol)
        assert np.all(info.bisect_iters <= 10)
        v_x = model.lyap.value(X, store)
        v_o = model.lyap.value(out, store)
        assert np.all(v_o <= model.beta * v_x + model.rootfind_tol + 1e-12)
    assert hits > 50      # the property must actually have been exercised


# ---------------------------------------------------------------------------
# gradients through the solve

def _loss_pair(model, X, W):
    def f(params, tape):
        if tape is None:
            out = model_step(model, params, X)
            return float((W * out).sum())
        out = step_expr(model, params, tape, X)
        return ad.vsum(ad.mul(W, out))
    return f


@pytest.mark.parametrize("variant", ["lnn", "icnn", "convex_lnn"])
def test_backward_routes_agree(variant):
    rng = np.random.default_rng(23)
    model, store = _fresh("implicit", variant, seed=31, expand=12.0)
    model.rootfind_tol = 1e-12      # polish: the surrogate error is O(|g|)
    X = rng.uniform(-5, 5, size=(8, 2))
    _, info = model_step(model, store, X, want_info=True)
    assert info.intervened.sum() >= 2
    W = rng.normal(size=(8, 2))

    grads = {}
    for route in ("fixed_point", "direct"):
        model.backward_route = route
        store.zero_grads()
        tape = Tape()
        out = step_expr(model, store, tape, X)
        tape.backward(ad.vsum(ad.mul(W, out)))
        grads[route] = {k: v.copy() for k, v in store.grads.items()}
    for name in grads["direct"]:
        diff = np.max(np.abs(grads["direct"][name] - grads["fixed_point"][name]))
        assert diff <= 1e-8, (name, diff)


@pytest.mark.parametrize("variant", ["lnn", "icnn", "convex_lnn"])
def test_direct_route_gives_the_closed_form_implicit_derivative(variant):
    # at the root V(p) = beta V(x), p = gamma y, the implicit function
    # theorem gives dgamma/dy = -gamma grad V(p) / (grad V(p)^T y); the
    # direct route's surrogate differentiates to it up to rounding
    rng = np.random.default_rng(41)
    model, store = _fresh("implicit", variant, seed=31, expand=12.0,
                          backward_route="direct")
    model.rootfind_tol = 1e-12
    X = rng.uniform(-5, 5, size=(16, 2))
    Y = model.fhat.forward(X, store)
    w = rng.normal(size=16)
    tape = Tape()
    y = tape.input(Y)
    info = StepInfo(intervened=None)
    gamma = certified_gamma_expr(model, store, tape, y, X, info)
    tape.backward(ad.vsum(ad.mul(gamma, w)))
    idx = np.flatnonzero(info.intervened)
    assert 2 <= idx.size < X.shape[0]
    g = info.gamma[idx]
    gv = model.lyap.grad(g[:, None] * Y[idx], store)
    want = np.zeros_like(Y)
    want[idx] = (-g * w[idx] / (gv * Y[idx]).sum(-1))[:, None] * gv
    assert np.max(np.abs(y.grad - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("route", ["fixed_point", "direct"])
def test_implicit_gradients_match_finite_differences(route):
    rng = np.random.default_rng(5)
    model, store = _fresh("implicit", "lnn", seed=12, expand=12.0,
                          hidden_f=(6, 6), hidden_v=(5, 5))
    model.rootfind_tol = 1e-12
    model.backward_route = route
    X = rng.uniform(-5, 5, size=(6, 2))
    _, info = model_step(model, store, X, want_info=True)
    assert info.intervened.any()
    W = rng.normal(size=(6, 2))
    report = grad_check(_loss_pair(model, X, W), store, h=1e-5)
    assert report.max_rel_err < 1e-4, (route, report.max_rel_err)


def test_convex_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    model, store = _fresh("convex", "icnn", seed=9, expand=10.0,
                          hidden_f=(6, 6), hidden_v=(5,))
    X = rng.uniform(-5, 5, size=(6, 2))
    _, info = model_step(model, store, X, want_info=True)
    assert info.intervened.any()
    W = rng.normal(size=(6, 2))
    report = grad_check(_loss_pair(model, X, W), store, h=1e-5)
    assert report.max_rel_err < 1e-4


# ---------------------------------------------------------------------------
# continuity at the switching surface

@pytest.mark.parametrize("mode,variant", [("convex", "icnn"), ("implicit", "lnn")])
def test_step_is_continuous_across_switch(mode, variant):
    # walk fhat's output across the V(y) = beta*V(x) surface by scaling one
    # weight; the certified step must not jump
    model, store = _fresh(mode, variant, seed=41)
    model.rootfind_tol = 1e-10
    x = np.array([3.0, -2.0])
    target = model.beta * model.lyap.value(x, store)
    last = f"f.W{model.fhat.n_layers - 1}"
    base = store.values[last].copy()

    def v_y(scale):
        store.values[last][...] = base * scale
        return model.lyap.value(model.fhat.forward(x, store), store)

    lo, hi = 1e-3, 50.0
    while v_y(hi) <= target:        # quadratic floor forces a crossing
        hi *= 2.0
        assert hi < 2.0 ** 40
    assert v_y(lo) < target < v_y(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if v_y(mid) > target:
            hi = mid
        else:
            lo = mid
    s_star = 0.5 * (lo + hi)

    def out_at(scale):
        store.values[last][...] = base * scale
        return model_step(model, store, x)

    for delta in (1e-3, 1e-4, 1e-5):
        jump = np.linalg.norm(out_at(s_star + delta) - out_at(s_star - delta))
        spread = np.linalg.norm(out_at(s_star + 2 * delta) - out_at(s_star - 2 * delta))
        assert jump < 1e-2, (delta, jump)
        # shrinking the window must shrink the jump: no finite discontinuity
        assert jump <= spread + 1e-12
    store.values[last][...] = base


# ---------------------------------------------------------------------------
# projection mode

def test_projection_never_ascends():
    for seed in range(10):
        model, store = _fresh("projection", "lnn", seed=seed, expand=5.0)
        X = np.random.default_rng(seed).uniform(-6, 6, size=(25, 2))
        out = model_step(model, store, X)
        gv = model.lyap.grad(X, store)
        assert np.all((gv * (out - X)).sum(-1) <= 1e-10)


def test_projection_leaves_descending_steps_alone():
    model, store = _fresh("projection", "convex_lnn", seed=3)
    X = np.random.default_rng(8).uniform(-6, 6, size=(40, 2))
    y = model.fhat.forward(X, store)
    gv = model.lyap.grad(X, store)
    keep = (gv * (y - X)).sum(-1) <= 0.0
    out = model_step(model, store, X)
    assert keep.any()
    assert np.array_equal(out[keep], X[keep] + (y[keep] - X[keep]))


def test_projection_at_origin_returns_fhat_unmodified():
    model, store = _fresh("projection", "icnn", seed=4)
    x = np.zeros(2)
    out = model_step(model, store, x)
    assert np.array_equal(out, model.fhat.forward(x, store))


def test_projection_integrating_form():
    model, store = _fresh("projection", "lnn", seed=5, integrating=True)
    X = np.random.default_rng(9).uniform(-4, 4, size=(15, 2))
    out = model_step(model, store, X)
    gv = model.lyap.grad(X, store)
    assert np.all((gv * (out - X)).sum(-1) <= 1e-10)
    # where nothing ascends the step is x + fhat(x) exactly
    y = model.fhat.forward(X, store)
    keep = (gv * y).sum(-1) <= 0.0
    assert np.array_equal(out[keep], X[keep] + y[keep])


def test_projection_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    model, store = _fresh("projection", "lnn", seed=6, expand=6.0,
                          hidden_f=(6, 6), hidden_v=(5, 5))
    X = rng.uniform(-5, 5, size=(6, 2))
    W = rng.normal(size=(6, 2))
    report = grad_check(_loss_pair(model, X, W), store, h=1e-5)
    assert report.max_rel_err < 1e-4


# ---------------------------------------------------------------------------
# step/expr agreement and rollouts

def _step_cases():
    # ids keep the plain "<mode>-<variant>" form for the default settings
    cases = [pytest.param("convex", v, False, "fixed_point", id=f"convex-{v}")
             for v in ("icnn", "convex_lnn")]
    for v in ("lnn", "icnn", "convex_lnn"):
        cases.append(pytest.param("implicit", v, False, "fixed_point", id=f"implicit-{v}"))
        cases.append(pytest.param("implicit", v, False, "direct", id=f"implicit-{v}-direct"))
        for mode in ("projection", "none"):
            cases.append(pytest.param(mode, v, False, "fixed_point", id=f"{mode}-{v}"))
            cases.append(pytest.param(mode, v, True, "fixed_point",
                                      id=f"{mode}-{v}-integrating"))
    return cases


@pytest.mark.parametrize("mode,variant,integrating,route", _step_cases())
def test_recorded_step_matches_raw_step(mode, variant, integrating, route):
    model, store = _fresh(mode, variant, seed=19, expand=8.0,
                          integrating=integrating, backward_route=route)
    # 64 rows, so every mode but none has rows on both sides of its switch,
    # and the first batch above the stacked pass, where V(X) and V(y) come
    # from separate calls
    for batch in (64, STACK_ROWS // 2 + 1):
        X = np.random.default_rng(20).uniform(-6, 6, size=(batch, 2))
        raw, info = model_step(model, store, X, want_info=True)
        if mode != "none":
            assert 0 < info.intervened.sum() < X.shape[0]
        rec = ad.value_of(step_expr(model, store, Tape(), X))
        assert np.array_equal(step_expr(model, store, None, X), raw)
        assert np.array_equal(raw, rec), batch


_PAIRS = [(mode, variant) for mode in ("convex", "implicit", "projection", "none")
          for variant in ("lnn", "icnn", "convex_lnn") if (mode, variant) != ("convex", "lnn")]


@pytest.mark.parametrize("mode,variant", _PAIRS)
def test_recorded_and_raw_steps_agree_bit_for_bit_at_every_batch(mode, variant):
    # the recorded step takes its decision from the raw step's V pass, with
    # the rows in the same batches, so no row differs, on the switching
    # surface included: a model and states of their own for every batch size
    # up to one past the stacked pass, with fhat's last layer as initialised
    # and x11, which moves most rows
    for batch in range(1, STACK_ROWS // 2 + 2):
        for expand in (None, 11.0):
            model, store = _fresh(mode, variant, seed=batch, expand=expand)
            X = np.random.default_rng(1000 + batch).uniform(-6, 6, size=(batch, 2))
            rec = ad.value_of(step_expr(model, store, Tape(), X))
            assert np.array_equal(rec, model_step(model, store, X)), (batch, expand)


# ---------------------------------------------------------------------------
# one V pass per raw step

_RAW_CASES = [("convex", "icnn"), ("implicit", "icnn"), ("implicit", "lnn"),
              ("implicit", "convex_lnn")]


def _separate_step(model, store, X):
    """The raw step from separate V(X) and V(y) calls and a fresh gamma solve."""
    y = model.fhat.forward(X, store)
    v_x, v_y = model.lyap.value(X, store), model.lyap.value(y, store)
    target = model.beta * v_x
    mask = (v_y > target) & (v_y >= ORIGIN_GUARD)
    rows = np.flatnonzero(mask)
    gamma = np.ones(X.shape[0])
    nn = np.zeros(X.shape[0], dtype=int)
    nb = np.zeros(X.shape[0], dtype=int)
    if model.mode == "convex":
        gamma[rows] = convex_gamma(v_x[rows], v_y[rows], model.beta)
    else:
        gamma[rows], _, nn[rows], nb[rows] = _solve(
            model.lyap, store, y[rows], target[rows], rootfind_tol=model.rootfind_tol)
    return gamma[:, None] * y, mask, nn, nb


@pytest.mark.parametrize("expand", [None, 20.0])
@pytest.mark.parametrize("mode,variant", _RAW_CASES)
def test_raw_step_matches_separate_v_calls_and_a_fresh_solve(mode, variant, expand):
    model, store = _fresh(mode, variant, seed=5, expand=expand)
    X = np.random.default_rng(6).uniform(-6, 6, size=(64, 2))
    out, info = model_step(model, store, X, want_info=True)
    want, mask, nn, nb = _separate_step(model, store, X)
    if expand:
        assert info.intervened.any()
    assert np.array_equal(info.intervened, mask)
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(info.newton_iters, nn)
    assert np.array_equal(info.bisect_iters, nb)


def _count_calls(monkeypatch):
    """Row counts of every V evaluation (value, grad or value_and_grad) and
    every ray evaluation from here on, as two lists."""
    calls, ray_calls = [], []
    plain_at = Ray.at

    def counting(plain):
        def counted(self, x, *args, **kwargs):
            calls.append(ad.value_of(x).shape[0])
            return plain(self, x, *args, **kwargs)
        return counted

    def counted_at(self, gamma):
        ray_calls.append(gamma.shape[0])
        return plain_at(self, gamma)

    for meth in ("value", "grad", "value_and_grad"):
        monkeypatch.setattr(LyapunovNet, meth, counting(getattr(LyapunovNet, meth)))
    monkeypatch.setattr(Ray, "at", counted_at)
    return calls, ray_calls


@pytest.mark.parametrize("batch", [1, 20, 128, 256])
@pytest.mark.parametrize("mode,variant", _RAW_CASES)
def test_raw_step_evaluates_v_once_plus_once_per_solver_iteration(monkeypatch, mode,
                                                                  variant, batch):
    model, store = _fresh(mode, variant, seed=5, expand=20.0)
    X = np.random.default_rng(batch).uniform(-6, 6, size=(batch, 2))
    calls, ray_calls = _count_calls(monkeypatch)
    _, info = model_step(model, store, X, want_info=True)
    stacked = 2 * batch <= STACK_ROWS
    iters = info.newton_iters + info.bisect_iters
    if mode == "convex":
        # V(X) and V(y) by value calls alone: one on the stacked rows, or two
        assert calls == ([2 * batch] if stacked else [batch, batch])
        assert ray_calls == [] and not iters.any()
        return
    # one ray pass reads V(y) and dV/dgamma at gamma = 1, and V(X) with them
    # on the stacked rows or by one value call above; then the batch solver
    # walks the rays once per iteration of its slowest row, taking its first
    # Newton step from the pass's slope with no evaluation of its own
    assert calls == ([] if stacked else [batch])
    assert ray_calls[0] == (2 * batch if stacked else batch)
    assert len(ray_calls) == 1 + int(iters.max())
    if iters.any():
        assert ray_calls[1] == int((iters > 0).sum())


@pytest.mark.parametrize("batch", [20, 129])
@pytest.mark.parametrize("mode", ["convex", "implicit"])
def test_a_step_builds_g0_once_where_its_pass_runs_raw(monkeypatch, mode, batch):
    # the raw step's V calls and ray share one g(0), and so do the recorded
    # implicit step's raw pass (a ray on [X; y], or a value call on X beside
    # the ray on y above 128 rows) and its solve; a recorded convex pass
    # records its own on the tape
    model, store = _fresh(mode, "icnn", seed=5, expand=20.0)
    X = np.random.default_rng(batch).uniform(-6, 6, size=(batch, 2))
    built = []
    plain = LyapunovNet.origin

    def counted(self, store):
        built.append(self)
        return plain(self, store)

    monkeypatch.setattr(LyapunovNet, "origin", counted)
    _, info = model_step(model, store, X, want_info=True)
    assert info.intervened.any() and len(built) == 1
    built.clear()
    step_expr(model, store, Tape(), X)
    assert len(built) == (mode == "implicit")


def test_the_solve_starts_from_the_v_it_is_given(monkeypatch):
    # a row already within rootfind_tol of its target stops at gamma = 1 with
    # the V it came with and is never evaluated; so does a row whose given V
    # says so, whatever the ray would read. The others take their first
    # Newton step from the given slope, so the first ray evaluation is their
    # first iterate
    model, store = _fresh("implicit", "icnn", seed=5)
    lyap = model.lyap
    Y = np.random.default_rng(7).uniform(-6, 6, size=(40, 2))
    v, slope = lyap.ray(Y, store).at(np.ones(40))
    T = np.random.default_rng(8).uniform(0.01, 0.99, size=40) * v
    T[:5] = v[:5] - 1e-4
    plain = solve_gamma_batch(lyap.ray(Y, store), v, slope, T)
    assert plain[2].sum() + plain[3].sum() > 0
    assert np.all(plain[0][:5] == 1.0) and np.array_equal(plain[1][:5], v[:5])
    _, ray_calls = _count_calls(monkeypatch)
    told = v.copy()
    told[5] = T[5]
    gamma, v_at, nn, nb = solve_gamma_batch(lyap.ray(Y, store), told, slope, T)
    assert ray_calls[0] == 34 and gamma[5] == 1.0 and v_at[5] == T[5]
    # the other rows iterate beside one row fewer, which may move the ray's
    # matmuls in their last bits
    keep = np.arange(40) != 5
    np.testing.assert_allclose(gamma[keep], plain[0][keep], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(v_at[keep], plain[1][keep], rtol=1e-12, atol=0.0)
    assert np.array_equal(nn[keep], plain[2][keep]) and np.array_equal(nb[keep], plain[3][keep])
    # a ray given g(0) walks the same bits as one that builds its own
    started = solve_gamma_batch(lyap.ray(Y, store, lyap.origin(store)), v, slope, T)
    for a, b in zip(plain, started):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("batch", [1, 20, 64])
@pytest.mark.parametrize("variant", ["lnn", "icnn", "convex_lnn"])
def test_a_solve_given_the_pass_slope_solves_as_one_that_reads_its_own(variant, batch):
    # the step's pass reads V and the slope on X and y stacked, and the
    # previous loop read the slope itself on the iterating rows alone, so
    # the two slopes may differ in their last bits: gamma and V agree to
    # rounding, and every row iterates alike. On PolyV, whose ray is rowwise,
    # the tests above pin the two bit for bit
    lyap = LyapunovNet(variant, 2)
    store = ParamStore()
    lyap.init_params(store, np.random.default_rng(batch))
    rng = np.random.default_rng(batch + 1)
    X = rng.uniform(-6.0, 6.0, size=(batch, 2))
    Y = rng.uniform(-6.0, 6.0, size=(batch, 2)) * 10.0 ** rng.integers(-2, 2, size=(batch, 1))
    pass_ray = lyap.ray(np.concatenate([X, Y]), store, lyap.origin(store))
    v, dv = pass_ray.at(np.ones(2 * batch))
    v_y, slope, pass_ray = v[batch:], dv[batch:], pass_ray.take(slice(batch, None))
    T = v_y * rng.uniform(0.01, 0.999, size=batch)
    T[1::5] = np.maximum(v_y[1::5] - 1e-11, 0.5 * v_y[1::5])   # rows that stop at gamma = 1
    iterated = False
    for kw in (dict(), dict(rootfind_tol=1e-10), dict(rootfind_tol=1e-10, max_newton=1)):
        given = solve_gamma_batch(pass_ray, v_y, slope, T, **kw)
        own = _solve_before(lyap.ray(Y, store), v_y, T, **kw)
        iterated |= bool((own[2] + own[3]).any())
        for a, b in zip(given[:2], own[:2]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
        for a, b in zip(given[2:], own[2:]):
            assert np.array_equal(a, b)
    assert iterated


@pytest.mark.parametrize("shape", [(3, 4, 2), (3, 3), (3,), ()])
def test_a_state_of_the_wrong_shape_is_refused_by_name(shape):
    # a (3, 4, 2) batch used to end in an IndexError inside the gamma decision,
    # and a wrong dimension in numpy's matmul message
    model, store = _fresh("implicit", "icnn", seed=2)
    with pytest.raises(ValueError, match=r"^x must be a state of dimension 2"):
        model_step(model, store, np.ones(shape))
    with pytest.raises(ValueError, match=r"^x0 must be a state of dimension 2"):
        rollout(model, store, np.ones(shape), 3)
    # the batch-only calls refuse a single state too, naming X and (batch, dim)
    batch_only = r"^X must be a \(batch, 2\) array, got shape"
    with pytest.raises(ValueError, match=batch_only):
        step_expr(model, store, Tape(), np.ones(shape))
    with pytest.raises(ValueError, match=batch_only):
        train(model, store, np.ones(shape), np.ones(shape))
    mdn = make_stochastic_model("implicit", 2, "icnn", k=2, hidden_f=(4,), hidden_v=(3,))
    mstore = ParamStore()
    mdn.init_params(mstore, np.random.default_rng(0))
    for tape in (None, Tape()):
        with pytest.raises(ValueError, match=batch_only):
            mdn_forward(mdn, mstore, np.ones(shape), tape)


def test_rollout_shapes_and_v_trace(monkeypatch):
    model, store = _fresh("implicit", "convex_lnn", seed=2, expand=8.0)
    traj, vs = rollout(model, store, np.array([5.0, -5.0]), 30, record_v=True)
    assert traj.shape == (31, 2) and vs.shape == (31,)
    assert np.all(np.diff(vs) <= model.beta * vs[:-1] - vs[:-1] + model.rootfind_tol + 1e-12)

    batch = np.random.default_rng(1).uniform(-6, 6, size=(4, 2))
    traj = rollout(model, store, batch, 10)
    assert traj.shape == (4, 11, 2)
    assert np.array_equal(traj[:, 0], batch)
    # the V trace is one V call over the whole trajectory, after the steps
    rows, plain = [], LyapunovNet.value
    monkeypatch.setattr(LyapunovNet, "value",
                        lambda self, x, *a, **kw: rows.append(len(x)) or plain(self, x, *a, **kw))
    traced, vs = rollout(model, store, batch, 10, record_v=True)
    assert rows == [44] and vs.shape == (4, 11)
    assert np.array_equal(traced, traj)
    assert np.array_equal(vs, plain(model.lyap, traj.reshape(-1, 2), store).reshape(4, 11))


def test_rollout_refuses_a_step_count_that_is_not_a_count():
    # 2.5 used to end in numpy's TypeError, and True ran one step
    model, store = _fresh("implicit", "icnn", seed=2)
    for steps, named in ((2.5, "an integer, got 2.5"), (True, "an integer, got True"),
                         ("3", "an integer, got '3'"), (-1, "at least 0, got -1")):
        with pytest.raises(ValueError, match=f"^steps must be {named}"):
            rollout(model, store, np.ones(2), steps)
    assert rollout(model, store, np.ones(2), np.int64(0)).shape == (1, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rollout_refuses_a_non_finite_start(bad):
    # a NaN start gives NaN states, and V(x) = inf switches the certificate off
    model, store = _fresh("implicit", "icnn", seed=2)
    with pytest.raises(ValueError, match="x0"):
        rollout(model, store, np.array([bad, 1.0]), 5)
    with pytest.raises(ValueError, match="x0"):
        rollout(model, store, np.array([[0.5, 0.5], [bad, 1.0]]), 5)


@pytest.mark.parametrize("mode,variant", [("implicit", "icnn"), ("convex", "icnn"),
                                          ("projection", "icnn")])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certified_step_refuses_a_non_finite_state(mode, variant, bad):
    # a NaN state gave [nan, nan] with nothing flagged, and an infinite one
    # an uncertified finite step, V(x) = inf switching the certificate off
    model, store = _fresh(mode, variant, seed=2)
    with pytest.raises(ValueError, match=r"finite states; rows \[0\]"):
        model_step(model, store, np.array([bad, 1.0]))
    with pytest.raises(ValueError, match=r"finite states; rows \[1\]"):
        step_expr(model, store, Tape(), np.array([[0.5, 0.5], [1.0, bad]]))


def test_mode_none_passes_a_non_finite_state_through():
    # the unconstrained baseline certifies nothing and may overflow
    model, store = _fresh("none", "icnn", seed=2)
    out = model_step(model, store, np.array([np.nan, 1.0]))
    assert np.isnan(out).all()


def test_origin_fixed_point_certified():
    # from exactly zero, a scaling model pins the state at zero
    model, store = _fresh("implicit", "lnn", seed=33)
    # make fhat(0) nonzero and expanding
    store.values["f.b0"] += 1.0
    store.values[f"f.W{model.fhat.n_layers-1}"] *= 10.0
    y0 = model.fhat.forward(np.zeros(2), store)
    assert model.lyap.value(y0, store) > 0.0
    out, info = model_step(model, store, np.zeros(2), want_info=True)
    assert np.array_equal(out, np.zeros(2))
    assert info.intervened[0] and info.gamma[0] == 0.0
    # the implicit derivative is undefined there, so training refuses the row
    with pytest.raises(ValueError, match="origin"):
        step_expr(model, store, Tape(), np.zeros((1, 2)))
