import re

import numpy as np
import pytest

from stabledyn import autodiff as ad
from stabledyn.autodiff import ParamStore, Tape, grad_check
from stabledyn.stochastic import (MdnOutput, make_stochastic_model,
                                  mdn_forward, mdn_nll, mdn_sample,
                                  stochastic_rollout)


def _fresh(mode, variant, k=3, seed=0, push=1.0, **kw):
    model = make_stochastic_model(mode, 2, variant, k=k, **kw)
    store = ParamStore()
    model.init_params(store, np.random.default_rng(seed))
    if push != 1.0:
        # inflate the mean half of the trunk output layer to force
        # interventions; the spread half stays untouched
        last = model.trunk.n_layers - 1
        rows = model.k * model.dim
        store.values[f"trunk.W{last}"][:rows] *= push
        store.values[f"trunk.b{last}"][:rows] *= push
    return model, store


def test_construction_contracts():
    with pytest.raises(ValueError):
        make_stochastic_model("projection", 2, "lnn")
    with pytest.raises(ValueError):
        make_stochastic_model("convex", 2, "lnn")
    with pytest.raises(ValueError):
        make_stochastic_model("convex", 2, "icnn", k=0)
    for k in (2.5, True, "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            make_stochastic_model("convex", 2, "icnn", k=k)
    with pytest.raises(ValueError, match="sigma_cap must be a number"):
        make_stochastic_model("convex", 2, "icnn", sigma_cap="1.0")
    with pytest.raises(ValueError, match="dim must be an integer"):
        make_stochastic_model("convex", "two", "icnn")
    with pytest.raises(ValueError):
        make_stochastic_model("convex", 2, "icnn", sigma_cap=0.0)
    with pytest.raises(ValueError):
        make_stochastic_model("implicit", 2, "icnn", beta=1.5)
    with pytest.raises(ValueError):
        make_stochastic_model("implicit", 2, "icnn", rootfind_tol=-1.0)
    with pytest.raises(ValueError):
        make_stochastic_model("implicit", 2, "icnn", backward_route="typo")


@pytest.mark.parametrize("setting", ["sigma_cap", "rootfind_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_caps_are_refused(setting, value):
    # a NaN or infinite cap bounds nothing, yet passes a plain "<= 0" test
    with pytest.raises(ValueError, match=setting):
        make_stochastic_model("implicit", 2, "icnn", **{setting: value})


def test_trunk_and_coeff_shapes():
    model, store = _fresh("convex", "icnn", k=3)
    assert model.trunk.layer_dims == [2, 25, 25, 12]
    assert model.coeff.layer_dims == [2, 25, 25, 3]
    X = np.zeros((5, 2))
    out = mdn_forward(model, store, X)
    assert ad.value_of(out.pi).shape == (5, 3)
    assert ad.value_of(out.mu).shape == (5, 3, 2)
    assert ad.value_of(out.sigma).shape == (5, 3, 2)


def test_nll_single_unit_gaussian_at_mode():
    # one component, one dimension, y on the mean with unit spread:
    # nll = 0.5*log(2*pi)
    out = MdnOutput(pi=np.ones((1, 1)), mu=np.zeros((1, 1, 1)),
                    sigma=np.ones((1, 1, 1)), mu_mix=np.zeros((1, 1)))
    got = float(mdn_nll(out, np.zeros((1, 1))))
    assert got == pytest.approx(0.9189385332046727, abs=1e-12)


def test_nll_symmetric_two_component_mixture():
    # equal weights at +-1 with unit spread, scored at zero:
    # ll = log(N(0;1,1)) = -(0.5 + 0.5*log(2*pi))
    out = MdnOutput(pi=np.full((1, 2), 0.5),
                    mu=np.array([[[1.0], [-1.0]]]),
                    sigma=np.ones((1, 2, 1)),
                    mu_mix=np.zeros((1, 1)))
    got = float(mdn_nll(out, np.zeros((1, 1))))
    assert got == pytest.approx(0.5 + 0.9189385332046727, abs=1e-12)


def test_nll_matches_direct_density():
    rng = np.random.default_rng(0)
    B, k, n = 6, 3, 2
    pi = rng.dirichlet(np.ones(k), size=B)
    mu = rng.normal(size=(B, k, n))
    sigma = rng.uniform(0.3, 2.0, size=(B, k, n))
    y = rng.normal(size=(B, n))
    out = MdnOutput(pi=pi, mu=mu, sigma=sigma, mu_mix=(pi[..., None] * mu).sum(1))
    got = float(mdn_nll(out, y))

    dens = np.zeros(B)
    for b in range(B):
        for j in range(k):
            z = (y[b] - mu[b, j]) / sigma[b, j]
            comp = np.exp(-0.5 * (z * z).sum()) / np.prod(np.sqrt(2 * np.pi) * sigma[b, j])
            dens[b] += pi[b, j] * comp
    assert got == pytest.approx(float(-np.mean(np.log(dens))), rel=1e-12)


@pytest.mark.parametrize("mode,variant", [("convex", "icnn"),
                                          ("convex", "convex_lnn"),
                                          ("implicit", "lnn")])
def test_stabilized_invariants(mode, variant):
    rng = np.random.default_rng(42)
    interventions = 0
    for seed in range(12):
        model, store = _fresh(mode, variant, seed=seed, push=15.0)
        X = rng.uniform(-6, 6, size=(15, 2))
        out = mdn_forward(model, store, X)
        assert np.allclose(out.pi.sum(-1), 1.0, atol=1e-12)
        assert np.all(out.pi >= 0.0)
        v_x = model.lyap.value(X, store)
        v_mu = model.lyap.value(out.mu_mix, store)
        assert np.all(v_mu <= model.beta * v_x + model.rootfind_tol + 1e-12)
        assert np.all(out.sigma ** 2 <= model.sigma_cap * v_mu[:, None, None] + 1e-12)
        interventions += int(out.info.intervened.sum())
    assert interventions > 20


def test_common_gamma_scales_every_component():
    model, store = _fresh("convex", "icnn", seed=3, push=30.0)
    X = np.random.default_rng(5).uniform(-0.5, 0.5, size=(10, 2))
    out = mdn_forward(model, store, X)
    assert out.info.intervened.any()
    # recompute the free means and compare ratios componentwise
    h = model.trunk.forward(X, store)
    mu_free = h[:, :model.k * 2].reshape(10, model.k, 2)
    assert np.allclose(out.mu, out.info.gamma[:, None, None] * mu_free, rtol=1e-12)


def test_variance_tether_holds_on_the_training_tape():
    model, store = _fresh("implicit", "convex_lnn", seed=9, push=15.0)
    X = np.random.default_rng(6).uniform(-6, 6, size=(8, 2))
    tape = Tape()
    out = mdn_forward(model, store, X, tape)
    assert out.info.intervened.any()
    sig = ad.value_of(out.sigma)
    v_mu = model.lyap.value(ad.value_of(out.mu_mix), store)
    assert np.all(sig ** 2 <= model.sigma_cap * v_mu[:, None, None] + 1e-12)


@pytest.mark.parametrize("mode,variant,route", [("convex", "icnn", "fixed_point"),
                                                ("implicit", "lnn", "fixed_point"),
                                                ("implicit", "convex_lnn", "direct"),
                                                ("none", "icnn", "fixed_point")])
def test_recorded_forward_matches_raw_forward(mode, variant, route):
    model, store = _fresh(mode, variant, seed=9, push=15.0)
    model.backward_route = route
    X = np.random.default_rng(6).uniform(-6, 6, size=(12, 2))
    raw = mdn_forward(model, store, X)
    rec = mdn_forward(model, store, X, Tape())
    for name in ("pi", "mu", "mu_mix"):
        assert np.array_equal(getattr(raw, name), ad.value_of(getattr(rec, name))), name
    # the raw forward tethers the spreads to the V values its step computed,
    # the recorded one to its own V at the scaled mean: V moves in its last
    # bits with the rows batched beside it, so the spreads agree to rounding
    np.testing.assert_allclose(raw.sigma, ad.value_of(rec.sigma), rtol=1e-13, atol=0.0)
    # both report the mean's step in one StepInfo: the same decision from
    # the same V pass, and V at the certified states (the tether's) to rounding
    raw, rec = raw.info, rec.info
    assert np.array_equal(raw.intervened, rec.intervened)
    if mode == "none":
        assert not raw.intervened.any() and raw.gamma is None and rec.gamma is None
        return
    assert 0 < raw.intervened.sum() < X.shape[0]
    for name in ("gamma", "newton_iters", "bisect_iters", "residual", "v_x", "v_y"):
        assert np.array_equal(getattr(raw, name), getattr(rec, name)), name
    assert raw.v_cert.shape == rec.v_cert.shape == (raw.intervened.sum(),)
    np.testing.assert_allclose(raw.v_cert, rec.v_cert, rtol=1e-13, atol=0.0)


def test_baseline_skips_the_machinery():
    model, store = _fresh("none", "icnn", seed=4, push=15.0)
    X = np.random.default_rng(7).uniform(-6, 6, size=(10, 2))
    out = mdn_forward(model, store, X)
    assert out.info.gamma is None and not out.info.intervened.any()
    # spreads are free: exp of the raw trunk half
    h = model.trunk.forward(X, store)
    raw = h[:, model.k * 2:].reshape(10, model.k, 2)
    assert np.allclose(out.sigma, np.exp(raw), rtol=1e-13)


def test_sampling_respects_mixture():
    model, store = _fresh("none", "icnn", k=2, seed=8)
    # freeze the output layers: uniform weights, fixed means, tiny spread
    tl = model.trunk.n_layers - 1
    cl = model.coeff.n_layers - 1
    store.values[f"trunk.W{tl}"][...] = 0.0
    store.values[f"trunk.b{tl}"][:4] = [3.0, 3.0, -3.0, -3.0]
    store.values[f"trunk.b{tl}"][4:] = -30.0
    store.values[f"coeff.W{cl}"][...] = 0.0
    store.values[f"coeff.b{cl}"][...] = 0.0
    rng = np.random.default_rng(11)
    x = np.zeros((4000, 2))
    s = mdn_sample(model, store, x, rng)
    hi = (s[:, 0] > 0).mean()
    assert abs(hi - 0.5) < 0.03
    assert np.allclose(np.abs(s), 3.0, atol=1e-9)


def test_stochastic_rollout_shapes_and_mean_path():
    model, store = _fresh("implicit", "lnn", seed=10, push=10.0)
    rng = np.random.default_rng(12)
    traj, means = stochastic_rollout(model, store, np.array([4.0, -4.0]), 25, 6, rng)
    assert traj.shape == (6, 26, 2)
    assert means.shape == (26, 2)
    assert np.isfinite(traj).all() and np.isfinite(means).all()
    # the mean path is its own dynamical system: V decreases along it
    vs = model.lyap.value(means, store)
    assert np.all(vs[1:] <= model.beta * vs[:-1] + model.rootfind_tol + 1e-12)
    # each step is one forward on the paths' states, the mean path's state last
    assert np.array_equal(
        means[1], mdn_forward(model, store, np.vstack([traj[:, 0], means[:1]])).mu_mix[-1])
    # a batch of one agrees to rounding: a state's forward can change in its
    # last bits with the rows beside it (CHANGES.md, FOUND: V of a state
    # depends on the batch it is evaluated in)
    np.testing.assert_allclose(means[1], mdn_forward(model, store, [[4.0, -4.0]]).mu_mix[0],
                               rtol=1e-12)


@pytest.mark.parametrize("mode,variant", [("implicit", "lnn"), ("convex", "icnn")])
def test_stochastic_rollout_keeps_the_random_stream(mode, variant):
    # the rollout draws as mdn_sample does, from the same generator in the same
    # order, so stepping the public calls by hand reproduces it
    model, store = _fresh(mode, variant, k=3, seed=21, push=10.0)
    x0 = np.array([3.0, -2.0])
    traj, means = stochastic_rollout(model, store, x0, 10, 4, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    cur, m = np.tile(x0, (4, 1)), x0
    for t in range(10):
        cur = mdn_sample(model, store, cur, rng)
        m = mdn_forward(model, store, m[None]).mu_mix[0]
        np.testing.assert_allclose(traj[:, t + 1], cur, rtol=0, atol=1e-12)
        np.testing.assert_allclose(means[t + 1], m, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stochastic_rollout_refuses_a_non_finite_start(bad):
    # a NaN start gives NaN paths, and V(x) = inf switches the certificate off
    model, store = _fresh("implicit", "lnn", seed=10)
    with pytest.raises(ValueError, match="x0"):
        stochastic_rollout(model, store, np.array([bad, 1.0]), 5, 2,
                           np.random.default_rng(0))


@pytest.mark.parametrize("steps,paths,named", [
    (2.5, 2, "steps must be an integer, got 2.5"), (True, 2, "steps must be an integer, got True"),
    (-1, 2, "steps must be at least 0, got -1"), (5, 2.5, "paths must be an integer, got 2.5"),
    (5, True, "paths must be an integer, got True"), (5, 0, "paths must be at least 1, got 0")])
def test_stochastic_rollout_refuses_counts_by_name(steps, paths, named):
    model, store = _fresh("implicit", "icnn", seed=10)
    with pytest.raises(ValueError, match=f"^{named}"):
        stochastic_rollout(model, store, np.ones(2), steps, paths, np.random.default_rng(0))


@pytest.mark.parametrize("shape", [(3,), (1, 2), (3, 4, 2)])
def test_stochastic_rollout_refuses_a_start_of_the_wrong_shape(shape):
    model, store = _fresh("implicit", "icnn", seed=10)
    with pytest.raises(ValueError, match=r"^x0 must be a single state of dimension 2"):
        stochastic_rollout(model, store, np.ones(shape), 5, 2, np.random.default_rng(0))


@pytest.mark.parametrize("mode", ["implicit", "convex"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stabilized_mixture_refuses_a_non_finite_state(mode, bad):
    # on an inf row V(x) = inf, and the mixture mean was certified by nothing
    model, store = _fresh(mode, "icnn", seed=10)
    X = np.array([[0.5, 0.5], [bad, 1.0]])
    with pytest.raises(ValueError, match=r"finite states; rows \[1\]"):
        mdn_forward(model, store, X)
    with pytest.raises(ValueError, match=r"finite states; rows \[1\]"):
        mdn_forward(model, store, X, Tape())


def test_plain_mixture_passes_a_non_finite_state_through():
    model, store = _fresh("none", "icnn", seed=10)
    out = mdn_forward(model, store, np.array([[0.5, 0.5], [np.nan, 1.0]]))
    assert np.isnan(out.mu_mix[1]).all() and np.isfinite(out.mu_mix[0]).all()


@pytest.mark.parametrize("mode,variant", [("convex", "icnn"), ("implicit", "lnn")])
def test_nll_gradients_match_finite_differences(mode, variant):
    rng = np.random.default_rng(13)
    model, store = _fresh(mode, variant, k=2, seed=14, push=30.0,
                          hidden_f=(6, 6), hidden_v=(5, 5))
    model.rootfind_tol = 1e-12
    # states stay off the origin: rows with tiny V(x) force a tiny certified
    # sigma, and the resulting huge loss drowns the difference quotients
    X = rng.uniform(1.0, 3.0, size=(6, 2)) * rng.choice([-1.0, 1.0], size=(6, 2))
    Y = rng.uniform(-1, 1, size=(6, 2))
    out = mdn_forward(model, store, X)
    assert out.info.intervened.any()

    def f(params, tape):
        o = mdn_forward(model, params, X, tape)
        loss = mdn_nll(o, Y)
        return loss if tape is not None else float(loss)

    report = grad_check(f, store, h=1e-5)
    assert report.max_rel_err < 1e-4, (mode, variant, report.max_rel_err)


def test_forward_rejects_flat_input():
    model, store = _fresh("convex", "icnn", seed=1)
    with pytest.raises(ValueError):
        mdn_forward(model, store, np.zeros(2))


@pytest.mark.parametrize("shape", [(1, 2), (3, 2), (4, 3), (4,)])
@pytest.mark.parametrize("recorded", [False, True], ids=["raw", "tape"])
def test_nll_refuses_targets_of_another_shape_by_name(shape, recorded):
    # a (1, 2) target would broadcast against all 4 rows and score them all
    model, store = _fresh("convex", "icnn", seed=1)
    out = mdn_forward(model, store, np.ones((4, 2)), Tape() if recorded else None)
    with pytest.raises(ValueError, match=re.escape(f"shape (4, 2), got {shape}")):
        mdn_nll(out, np.zeros(shape))
