import numpy as np
import pytest

from stabledyn import autodiff as ad
from stabledyn.autodiff import ParamStore, Tape, grad_check
from stabledyn.stochastic import (MdnOutput, make_stochastic_model,
                                  mdn_forward, mdn_mean_step, mdn_nll,
                                  mdn_sample, stochastic_rollout)


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
    with pytest.raises(ValueError):
        make_stochastic_model("convex", 2, "icnn", sigma_cap=0.0)
    with pytest.raises(ValueError):
        make_stochastic_model("implicit", 2, "icnn", beta=1.5)
    with pytest.raises(ValueError):
        make_stochastic_model("implicit", 2, "icnn", rootfind_tol=-1.0)
    with pytest.raises(ValueError):
        make_stochastic_model("implicit", 2, "icnn", backward_route="typo")


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
        assert out.max_var <= model.sigma_cap * v_mu.max() + 1e-12
        interventions += int(out.intervened.sum())
    assert interventions > 20


def test_common_gamma_scales_every_component():
    model, store = _fresh("convex", "icnn", seed=3, push=30.0)
    X = np.random.default_rng(5).uniform(-0.5, 0.5, size=(10, 2))
    out = mdn_forward(model, store, X)
    assert out.intervened.any()
    # recompute the free means and compare ratios componentwise
    h = model.trunk.forward(X, store)
    mu_free = h[:, :model.k * 2].reshape(10, model.k, 2)
    assert np.allclose(out.mu, out.gamma[:, None, None] * mu_free, rtol=1e-12)


def test_variance_tether_holds_on_the_training_tape():
    model, store = _fresh("implicit", "convex_lnn", seed=9, push=15.0)
    X = np.random.default_rng(6).uniform(-6, 6, size=(8, 2))
    tape = Tape()
    out = mdn_forward(model, store, X, tape)
    assert out.intervened.any()
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
    for name in ("pi", "mu", "sigma", "mu_mix"):
        assert np.array_equal(getattr(raw, name), ad.value_of(getattr(rec, name))), name
    assert raw.max_var == rec.max_var
    if mode == "none":
        assert rec.gamma is None and rec.intervened is None
    else:
        assert 0 < raw.intervened.sum() < X.shape[0]
        assert np.array_equal(raw.gamma, rec.gamma)
        assert np.array_equal(raw.intervened, rec.intervened)


def test_baseline_skips_the_machinery():
    model, store = _fresh("none", "icnn", seed=4, push=15.0)
    X = np.random.default_rng(7).uniform(-6, 6, size=(10, 2))
    out = mdn_forward(model, store, X)
    assert out.gamma is None and out.intervened is None
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
    assert np.array_equal(means[1], mdn_mean_step(model, store, np.array([4.0, -4.0])))


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
    assert out.intervened.any()

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
