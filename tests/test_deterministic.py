import numpy as np
import pytest

from stabledyn import autodiff as ad
from stabledyn.autodiff import ParamStore, Tape, grad_check
from stabledyn.deterministic import (RootFindError, convex_gamma, make_model,
                                     model_step, rollout, solve_gamma_batch,
                                     step_expr)


class PolyV:
    """Radial polynomial stand-in with an exact root, for solver oracles."""

    def __init__(self, c2=1.0, c4=0.0):
        self.c2, self.c4 = c2, c4

    def value_and_grad(self, X, store, tape=None):
        X = np.atleast_2d(X)
        r2 = (X * X).sum(-1)
        v = self.c4 * r2 * r2 + self.c2 * r2
        g = (4.0 * self.c4 * r2 + 2.0 * self.c2)[:, None] * X
        return v, g


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
    gamma, res, nn, nb = solve_gamma_batch(v, None, np.array([[2.0, 0.0]]),
                                           np.array([0.99]), rootfind_tol=1e-9)
    assert abs(gamma[0] - want) < 1e-6
    assert res[0] <= 1e-9
    assert abs(gamma[0] - 0.49749371855331) < 1e-6
    assert nb[0] <= 10


def test_solver_quartic_oracle():
    # V = 0.5||x||^4 + ||x||^2, y = (2,0), target 1.485:
    # 8 g^4 + 4 g^2 - 1.485 = 0, g^2 = (-4 + sqrt(63.52))/16
    v = PolyV(c2=1.0, c4=0.5)
    want = np.sqrt((-4.0 + np.sqrt(63.52)) / 16.0)
    gamma, res, _, _ = solve_gamma_batch(v, None, np.array([[2.0, 0.0]]),
                                         np.array([1.485]), rootfind_tol=1e-10)
    assert abs(gamma[0] - want) < 1e-6


def test_solver_budget_exhaustion_carries_bracket():
    v = PolyV()
    with pytest.raises(RootFindError) as exc:
        solve_gamma_batch(v, None, np.array([[2.0, 0.0]]), np.array([0.99]),
                          rootfind_tol=1e-14, max_newton=0, max_bisect=3)
    err = exc.value
    assert err.row == 0
    assert 0.0 <= err.lo < err.hi <= 1.0
    assert err.residual > 1e-14


def test_solver_batch_of_mixed_rows():
    v = PolyV()
    Y = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    T = np.array([0.99, 4.5, 1.0])
    gamma, res, nn, nb = solve_gamma_batch(v, None, Y, T, rootfind_tol=1e-10)
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
    T = v.value_and_grad(Y, None)[0] * frac
    kw = dict(rootfind_tol=1e-6, max_newton=2, max_bisect=60)
    gamma, res, nn, nb = solve_gamma_batch(v, None, Y, T, **kw)
    assert gamma[0] == 1.0 and nn[0] == 0 and nb[0] == 0
    assert np.any((nn > 0) & (nb == 0)) and np.any(nb > 0)
    for b in range(Y.shape[0]):
        g1, r1, n1, b1 = solve_gamma_batch(v, None, Y[b:b + 1], T[b:b + 1], **kw)
        assert np.array_equal(gamma[b:b + 1], g1), b
        assert np.array_equal(res[b:b + 1], r1), b
        assert (nn[b], nb[b]) == (n1[0], b1[0]), b


def test_solver_stall_names_the_input_row_and_its_own_bracket():
    # a zero prediction never moves V, so its Newton slope is 0 and bisection
    # runs out; rows 0, 1 and 3 converge and leave the batch before that
    v = PolyV()
    Y = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    T = np.array([0.99, 1.0, -1.0, 4.5, -2.0])
    kw = dict(rootfind_tol=1e-10, max_newton=50, max_bisect=20)
    with pytest.raises(RootFindError) as exc:
        solve_gamma_batch(v, None, Y, T, **kw)
    with pytest.raises(RootFindError) as alone:
        solve_gamma_batch(v, None, Y[2:3], T[2:3], **kw)
    err, ref = exc.value, alone.value
    assert err.row == 2 and ref.row == 0
    assert (err.lo, err.hi, err.residual) == (ref.lo, ref.hi, ref.residual)
    assert err.lo == 0.0 and err.hi == 0.5 ** 20
    assert "row 2" in str(err)


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
    # 64 rows, so every mode but none has rows on both sides of its switch
    X = np.random.default_rng(20).uniform(-6, 6, size=(64, 2))
    raw, info = model_step(model, store, X, want_info=True)
    if mode != "none":
        assert 0 < info.intervened.sum() < X.shape[0]
    tape = Tape()
    rec = ad.value_of(step_expr(model, store, tape, X))
    assert np.array_equal(raw, rec)
    assert np.array_equal(step_expr(model, store, None, X), raw)


def test_rollout_shapes_and_v_trace():
    model, store = _fresh("implicit", "convex_lnn", seed=2, expand=8.0)
    traj, vs = rollout(model, store, np.array([5.0, -5.0]), 30, record_v=True)
    assert traj.shape == (31, 2) and vs.shape == (31,)
    assert np.all(np.diff(vs) <= model.beta * vs[:-1] - vs[:-1] + model.rootfind_tol + 1e-12)

    batch = np.random.default_rng(1).uniform(-6, 6, size=(4, 2))
    traj = rollout(model, store, batch, 10)
    assert traj.shape == (4, 11, 2)
    assert np.array_equal(traj[:, 0], batch)


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
