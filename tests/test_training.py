import warnings

import numpy as np
import pytest

from stabledyn import autodiff as ad
from stabledyn import deterministic, training
from stabledyn.autodiff import ParamStore, Tape
from stabledyn.deterministic import BACKWARD_ROUTES, make_model, model_step
from stabledyn.lyapunov import LyapunovNet, Ray
from stabledyn.stochastic import make_stochastic_model
from stabledyn.systems import generate_transitions
from stabledyn.training import (AdamState, TrainConfig, adam_step, evaluate_mse,
                                evaluate_nll, evaluate_violations, train)


def test_adam_first_step_oracle():
    # with a unit gradient the bias-corrected first update is
    # lr * 1 / (1 + eps), whatever the moment constants are
    store = ParamStore()
    store.add("w", np.array([1.0, 2.0]))
    store.zero_grads()
    store.grads["w"][:] = [1.0, -1.0]
    state = AdamState(store)
    adam_step(store, state, lr=0.1)
    step = 0.1 / (1.0 + 1e-8)
    assert np.allclose(store.values["w"], [1.0 - step, 2.0 + step], rtol=1e-15)
    assert state.t == 1


def test_adam_rejects_nonfinite_gradient():
    store = ParamStore()
    store.add("layer.W", np.ones(3))
    store.zero_grads()
    store.grads["layer.W"][1] = np.nan
    with pytest.raises(FloatingPointError, match="layer.W"):
        adam_step(store, AdamState(store), lr=0.1)


@pytest.mark.parametrize("bad", [dict(epochs=0), dict(lr=0.0), dict(lr=float("nan")),
                                 dict(batch_size=0), dict(batch_size=-5),
                                 dict(lr=float("inf")), dict(seed=-1)])
def test_train_config_refuses_settings_that_cannot_train(bad):
    # epochs=0 would leave no loss to report, batch_size<1 would run no batch,
    # and numpy's SeedSequence refuses a negative seed only inside train
    with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
        TrainConfig(**bad)
    TrainConfig(epochs=1, batch_size=1, seed=0)


def _linear_data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    A = np.array([[0.9, 1.0], [0.0, 0.9]])
    X = rng.uniform(-4, 4, size=(n, 2))
    return X, X @ A.T


@pytest.mark.parametrize("mode,variant", [("convex", "icnn"),
                                          ("implicit", "lnn"),
                                          ("projection", "lnn")])
def test_training_reduces_loss_without_violations(mode, variant):
    X, Y = _linear_data()
    model = make_model(mode, 2, variant, hidden_f=(12, 12), hidden_v=(10, 10))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(1))
    before = evaluate_mse(model, store, X, Y)
    report = train(model, store, X, Y, TrainConfig(epochs=80, batch_size=30))
    after = evaluate_mse(model, store, X, Y)
    assert report.epochs == 80 and len(report.losses) == 80
    assert after < 0.2 * before
    assert report.violations == 0
    assert report.seconds > 0.0


@pytest.mark.parametrize("variant,init_seed", [("lnn", 0), ("icnn", 6)])
def test_implicit_training_pulls_an_overshooting_prediction_back(variant, init_seed,
                                                                 monkeypatch):
    # once every row intervenes, the certified step lands on the level set
    # V = beta V(x) whatever the scale of fhat's output; the training loss
    # must still grow with that scale, or nothing pulls fhat back
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(60, 2))
    Y = X @ np.array([[0.9, 1.0], [0.0, 0.9]]).T
    model = make_model("implicit", 2, variant, hidden_f=(8, 8), hidden_v=(8, 8),
                       rootfind_tol=1e-10)
    store = ParamStore()
    model.init_params(store, np.random.default_rng(init_seed))
    last = model.fhat.n_layers - 1
    w, b = f"f.W{last}", f"f.b{last}"
    store.values[w] *= 20.0     # criterion 1's x20 expansion
    _, info = model_step(model, store, X, want_info=True)
    assert info.intervened.all()
    W0, b0 = store.values[w].copy(), store.values[b].copy()

    # the gradient train() hands to its first Adam step, i.e. of the loss it
    # optimises at the starting weights
    seen = []
    real_step = training.adam_step

    def recording_step(store, *args):
        seen.append({k: store.grads[k].copy() for k in (w, b)})
        real_step(store, *args)

    monkeypatch.setattr(training, "adam_step", recording_step)
    train(model, store, X, Y, TrainConfig(epochs=1))
    assert len(seen) == 1
    # d loss / d s with the last layer's weights and bias scaled by s, at s = 1
    slope = float(np.sum(seen[0][w] * W0) + np.sum(seen[0][b] * b0))
    # the certified term alone gives zero to within the solver tolerance
    assert slope > 1.0


def test_training_is_seed_deterministic():
    X, Y = _linear_data(80)
    runs = []
    for _ in range(2):
        model = make_model("convex", 2, "icnn", hidden_f=(8, 8), hidden_v=(8, 8))
        store = ParamStore()
        model.init_params(store, np.random.default_rng(2))
        train(model, store, X, Y, TrainConfig(epochs=10, batch_size=32, seed=5))
        runs.append({k: v.copy() for k, v in store.values.items()})
    for k in runs[0]:
        assert np.array_equal(runs[0][k], runs[1][k]), k


def test_minibatches_cover_all_rows():
    X, Y = _linear_data(100)
    model = make_model("convex", 2, "icnn", hidden_f=(8, 8), hidden_v=(8, 8))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(3))
    r_full = train(model, store, X, Y, TrainConfig(epochs=3))
    model2 = make_model("convex", 2, "icnn", hidden_f=(8, 8), hidden_v=(8, 8))
    store2 = ParamStore()
    model2.init_params(store2, np.random.default_rng(3))
    r_mb = train(model2, store2, X, Y, TrainConfig(epochs=3, batch_size=33))
    assert len(r_full.losses) == len(r_mb.losses) == 3
    assert np.isfinite(r_mb.final_loss)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_raises():
    # free spreads under a huge step overflow exp() within a couple epochs
    X, Y = _linear_data(40)
    model = make_stochastic_model("none", 2, "icnn", k=2,
                                  hidden_f=(8, 8), hidden_v=(8, 8))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(4))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        train(model, store, X, Y, TrainConfig(epochs=100, lr=50.0))


def test_shape_mismatch_rejected():
    model = make_model("convex", 2, "icnn")
    store = ParamStore()
    model.init_params(store, np.random.default_rng(0))
    with pytest.raises(ValueError):
        train(model, store, np.zeros((5, 2)), np.zeros((4, 2)))


def test_mdn_training_improves_likelihood():
    X, Y, _ = generate_transitions("linear", seed=0, steps=10, grid_points=4,
                                   b=0.1)
    model = make_stochastic_model("convex", 2, "icnn", k=2,
                                  hidden_f=(12, 12), hidden_v=(10, 10))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(5))
    before = evaluate_nll(model, store, X, Y)
    report = train(model, store, X, Y, TrainConfig(epochs=40))
    after = evaluate_nll(model, store, X, Y)
    assert after < before - 0.5
    assert np.isfinite(report.final_loss)


def test_baseline_mdn_counts_no_violations():
    X, Y = _linear_data(60)
    model = make_stochastic_model("none", 2, "icnn", k=2,
                                  hidden_f=(8, 8), hidden_v=(8, 8))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(6))
    report = train(model, store, X, Y, TrainConfig(epochs=5))
    assert report.violations == 0


def _small_pair():
    rng = np.random.default_rng(7)
    det = make_model("implicit", 2, "lnn", hidden_f=(6,), hidden_v=(5,))
    mix = make_stochastic_model("convex", 2, "icnn", k=2, hidden_f=(6,), hidden_v=(5,))
    stores = []
    for model in (det, mix):
        stores.append(ParamStore())
        model.init_params(stores[-1], rng)
    return (det, stores[0]), (mix, stores[1])


def test_evaluate_refuses_the_other_model_kind():
    X, Y = _linear_data(12)
    (det, det_store), (mix, mix_store) = _small_pair()
    with pytest.raises(ValueError, match="nll does not score a StableModel"):
        evaluate_nll(det, det_store, X, Y)
    with pytest.raises(ValueError, match="mse does not score a StochasticModel"):
        evaluate_mse(mix, mix_store, X, Y)


@pytest.mark.parametrize("kind", ["deterministic", "mixture"])
def test_objective_reports_what_train_reports(kind):
    # one full-batch epoch reports the loss at the initial weights
    X, Y = _linear_data(40)
    model, store = _small_pair()[kind == "mixture"]
    reported = training.objective(model, store, None, X, Y)[1]
    report = train(model, store, X, Y, TrainConfig(epochs=1))
    assert report.losses[0] == reported


def _mixed_store():
    # values well below the step size, so a rounding change in the step
    # reaches the stored bits
    store = ParamStore()
    store.add("s", 5e-5)
    store.add("v", np.array([1e-4, -2e-4, 3e-4]))
    store.add("M", (np.arange(6.0).reshape(2, 3) - 2.5) * 1e-4)
    return store


def test_flat_adam_matches_the_per_parameter_update_bit_for_bit():
    store = _mixed_store()
    ref = {k: v.copy() for k, v in store.values.items()}
    m = {k: np.zeros_like(v) for k, v in ref.items()}
    v2 = {k: np.zeros_like(v) for k, v in ref.items()}
    state = AdamState(store)
    rng = np.random.default_rng(3)
    lr = 0.0025
    for t in range(1, 6):
        store.zero_grads()
        for name, g in store.grads.items():
            g[...] = rng.normal(scale=10.0 ** rng.integers(-4, 3), size=g.shape)
        adam_step(store, state, lr)
        b1t = 1.0 - training.BETA1 ** t
        b2t = 1.0 - training.BETA2 ** t
        for name, g in store.grads.items():
            m[name] += (1.0 - training.BETA1) * (g - m[name])
            v2[name] += (1.0 - training.BETA2) * (g * g - v2[name])
            ref[name] -= lr * (m[name] / b1t) / (np.sqrt(v2[name] / b2t) + training.ADAM_EPS)
        for name in ref:
            assert store.values[name].shape == ref[name].shape
            assert store.values[name].tobytes() == ref[name].tobytes(), (t, name)
        assert state.m.tobytes() == np.concatenate([a.ravel() for a in m.values()]).tobytes()
        assert state.v.tobytes() == np.concatenate([a.ravel() for a in v2.values()]).tobytes()
    assert state.t == 5


@pytest.mark.parametrize("cause", ["gradient", "overflow"])
def test_adam_refusal_moves_nothing(cause):
    store = _mixed_store()
    state = AdamState(store)
    for g in store.grads.values():
        g[...] = 1.0
    adam_step(store, state, lr=0.1)
    if cause == "gradient":
        store.grads["M"][1, 2] = np.nan   # the last parameter; s and v are finite
        lr, match = 0.1, "gradient for parameter 'M'"
    else:
        store.values["M"][0, 0] = -1.7e308   # a step of about 1e308 overflows it
        lr, match = 1e308, "values in parameter 'M'"
    values = {k: v.copy() for k, v in store.values.items()}
    moments = (state.m.copy(), state.v.copy(), state.t)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=match):
        adam_step(store, state, lr=lr)
    for name, v in values.items():
        assert np.array_equal(store.values[name], v), name
    assert np.array_equal(state.m, moments[0])
    assert np.array_equal(state.v, moments[1])
    assert state.t == moments[2]


@pytest.mark.parametrize("change", ["reshape", "extra", "missing"])
def test_adam_refuses_a_state_built_for_another_layout(change):
    state = AdamState(_mixed_store())
    store = ParamStore()
    store.add("s", 0.5)
    store.add("v", np.zeros(4 if change == "reshape" else 3))
    if change != "missing":
        store.add("M", np.zeros((2, 3)))
    if change == "extra":
        store.add("z", np.zeros(2))
    named = {"reshape": "'v'", "extra": "'z'", "missing": "'M'"}[change]
    with pytest.raises(ValueError, match=named):
        adam_step(store, state, lr=0.1)


@pytest.mark.parametrize("field,value", [("epochs", 2.5), ("epochs", 3.0), ("epochs", True),
                                         ("batch_size", 2.5), ("batch_size", np.float64(4.0)),
                                         ("batch_size", False), ("batch_size", "8"),
                                         ("seed", "1"), ("seed", 1.5), ("seed", True)])
def test_train_config_refuses_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TrainConfig(**{field: value})


def test_train_config_takes_numpy_integers():
    X, Y = _linear_data(12)
    model, store = _small_pair()[0]
    report = train(model, store, X, Y, TrainConfig(epochs=np.int64(2), batch_size=np.int32(5),
                                                   seed=np.int64(3)))
    assert report.epochs == 2 and len(report.losses) == 2


def test_empty_data_is_refused_by_name():
    (det, det_store), (mix, mix_store) = _small_pair()
    empty = np.zeros((0, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: train(det, det_store, empty, empty),
                     lambda: train(mix, mix_store, empty, empty),
                     lambda: evaluate_mse(det, det_store, empty, empty),
                     lambda: evaluate_nll(mix, mix_store, empty, empty)):
            with pytest.raises(ValueError, match="X has no rows"):
                call()


@pytest.mark.parametrize("y_shape", [(1, 2), (6, 1), (5, 2), (6,)])
def test_targets_of_another_shape_are_refused_by_name(y_shape):
    # a (1, 2) Y against 6 states used to broadcast into an MSE of 3.63 and
    # an NLL of 3.3e5, with no error
    X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 2))
    Y = np.ones(y_shape)
    (det, det_store), (mix, mix_store) = _small_pair()
    for call in (lambda: evaluate_mse(det, det_store, X, Y),
                 lambda: evaluate_nll(mix, mix_store, X, Y),
                 lambda: train(det, det_store, X, Y, TrainConfig(epochs=1)),
                 lambda: train(mix, mix_store, X, Y, TrainConfig(epochs=1))):
        with pytest.raises(ValueError, match=r"^Y must have the shape of X, \(6, 2\)"):
            call()


def test_evaluate_violations_takes_the_same_inputs_for_both_model_kinds():
    x = np.array([1.5, -2.0])
    for model, store in _small_pair():
        assert evaluate_violations(model, store, x) == evaluate_violations(model, store, x[None])
        with pytest.raises(ValueError, match="X must be a state of dimension 2"):
            evaluate_violations(model, store, np.zeros((3, 5)))


# -- the violation count reads the step's own V values -----------------------

TRAIN_PAIRS = [("none", "icnn"), ("convex", "icnn"), ("implicit", "icnn"),
               ("implicit", "lnn"), ("projection", "icnn")]
# last-layer scales of fhat (or of the mixture's mean outputs): none of the
# 40 rows intervenes at the first, some but not all at the second
NO_PUSH, PUSH = 1e-3, 6.0


def _pushed_model(mode, variant, route, scale, **kw):
    model = make_model(mode, 2, variant, hidden_f=(8, 8), hidden_v=(8, 8),
                       backward_route=route, **kw)
    store = ParamStore()
    model.init_params(store, np.random.default_rng(11))
    last = model.fhat.n_layers - 1
    store.values[f"f.W{last}"] *= scale
    store.values[f"f.b{last}"] *= scale
    return model, store


def _pushed_mixture(mode, route, scale):
    model = make_stochastic_model(mode, 2, "icnn", k=3, hidden_f=(8, 8), hidden_v=(8, 8),
                                  backward_route=route)
    store = ParamStore()
    model.init_params(store, np.random.default_rng(11))
    last, rows = model.trunk.n_layers - 1, model.k * model.dim
    store.values[f"trunk.W{last}"][:rows] *= scale
    store.values[f"trunk.b{last}"][:rows] *= scale
    return model, store


def _batch(n=40):
    X = np.random.default_rng(3).uniform(-3.0, 3.0, size=(n, 2))
    return X, 0.9 * X


def _recount(model, store, X, pred):
    """Breaches of X -> pred with V evaluated afresh over the whole batch."""
    if model.mode == "none":
        return 0
    v_x = model.lyap.value(X, store)
    if model.mode == "projection":
        ascent = (model.lyap.grad(X, store) * (pred - X)).sum(axis=-1)
        return int((ascent > 1e-9).sum())
    v_p = model.lyap.value(pred, store)
    return int((v_p > model.beta * v_x + model.rootfind_tol + 1e-9).sum())


def _assert_count_matches_recount(model, store, X, pred, step):
    count = training._count_violations
    assert count(model, store, X, pred, step) == _recount(model, store, X, pred)
    if model.mode == "projection":
        # the certified step never ascends, so also count the free prediction,
        # which does on the rows the projection moved
        free = model.fhat.forward(X, store)
        assert count(model, store, X, free, step) == _recount(model, store, X, free)
    elif model.mode != "none":
        # at the model's own bound nothing breaches; move beta between the
        # rows' thresholds, so the two counts meet rows on each side of it.
        # A beta is used only where no row sits within 1e-11 of the bound,
        # far above the rounding by which the step's V values may differ
        v_x, v_p = model.lyap.value(X, store), model.lyap.value(pred, store)
        slack = model.rootfind_tol + 1e-9
        cut = np.sort((v_p - slack) / v_x)
        betas = [b for b in (cut[1:] + cut[:-1]) / 2
                 if np.abs(v_p - b * v_x - slack).min() > 1e-11]
        assert len(betas) >= 10
        beta = model.beta
        try:
            for b in betas:
                model.beta = b
                expected = _recount(model, store, X, pred)
                assert 0 < expected < X.shape[0]
                assert count(model, store, X, pred, step) == expected, b
        finally:
            model.beta = beta


@pytest.mark.parametrize("scale", [NO_PUSH, PUSH])
@pytest.mark.parametrize("route", BACKWARD_ROUTES)
@pytest.mark.parametrize("mode,variant", TRAIN_PAIRS)
def test_count_from_the_step_equals_a_full_batch_recount(mode, variant, route, scale):
    model, store = _pushed_model(mode, variant, route, scale)
    X, Y = _batch()
    tape = Tape()
    _, _, pred, info = training.objective(model, store, tape, X, Y)
    raw, raw_info = model_step(model, store, X, want_info=True)
    hits = int(raw_info.intervened.sum())
    assert np.array_equal(info.intervened, raw_info.intervened)
    if mode == "none" or scale == NO_PUSH:
        assert hits == 0
    else:
        assert 0 < hits < X.shape[0]
    if mode == "implicit" and hits:
        # the gamma solve evaluated V at the certified states, raw and recorded alike
        assert info.v_cert.shape == raw_info.v_cert.shape == (hits,)
    _assert_count_matches_recount(model, store, X, pred, info)
    _assert_count_matches_recount(model, store, X, raw, raw_info)
    assert evaluate_violations(model, store, X) == _recount(model, store, X, raw)


@pytest.mark.parametrize("scale", [NO_PUSH, 5.0])
@pytest.mark.parametrize("route", BACKWARD_ROUTES)
@pytest.mark.parametrize("mode", ["convex", "implicit"])
def test_mixture_count_equals_a_full_batch_recount(mode, route, scale):
    model, store = _pushed_mixture(mode, route, scale)
    X, Y = _batch()
    for tape in (Tape(), None):
        _, _, pred, out = training.objective(model, store, tape, X, Y)
        hits = int(out.intervened.sum())
        assert (hits == 0) if scale == NO_PUSH else (0 < hits < X.shape[0])
        _assert_count_matches_recount(model, store, X, pred, out)
    assert evaluate_violations(model, store, X) == _recount(model, store, X, pred)


def _hook_v(monkeypatch, note):
    """Call note(x, taped) at every V evaluation from here on: every call of
    value, grad or value_and_grad, raw or recorded."""
    def counting(plain):
        def counted(self, x, store, tape=None, **kwargs):
            note(ad.value_of(x), tape is not None)
            return plain(self, x, store, tape, **kwargs)
        return counted

    for meth in ("value", "grad", "value_and_grad"):
        monkeypatch.setattr(LyapunovNet, meth, counting(getattr(LyapunovNet, meth)))


def _v_rows(monkeypatch):
    """The row count of every V evaluation from here on, in order."""
    calls = []
    _hook_v(monkeypatch, lambda x, taped: calls.append(x.shape[0]))
    return calls


def _ray_rows(monkeypatch):
    """The row count of every ray evaluation (Ray.at) from here on, in order."""
    calls = []
    plain = Ray.at

    def counted(self, gamma):
        calls.append(gamma.shape[0])
        return plain(self, gamma)

    monkeypatch.setattr(Ray, "at", counted)
    return calls


@pytest.mark.parametrize("kind", ["icnn", "lnn", "mixture"])
def test_counting_an_implicit_step_evaluates_no_v(kind, monkeypatch):
    # the step carries V at every row's certified state: V(y) where it left
    # the row alone, the gamma solve's V where it moved it
    if kind == "mixture":
        model, store = _pushed_mixture("implicit", "fixed_point", 5.0)
    else:
        model, store = _pushed_model("implicit", kind, "fixed_point", PUSH)
    X, _ = _batch()
    if kind == "mixture":
        out = training.mdn_forward(model, store, X)
        pred, info = out.mu_mix, out.info
    else:
        pred, info = model_step(model, store, X, want_info=True)
    expected = _recount(model, store, X, pred)
    calls, ray_calls = _v_rows(monkeypatch), _ray_rows(monkeypatch)
    assert evaluate_violations(model, store, X) == expected
    # no value call: one ray pass on X and y stacked, then one ray
    # evaluation per iteration of the gamma solve, and none to count
    assert calls == []
    assert ray_calls[0] == 2 * X.shape[0]
    assert len(ray_calls) == 1 + int((info.newton_iters + info.bisect_iters).max())


def test_counting_a_convex_mixture_evaluates_no_v(monkeypatch):
    # convex mode's closed form evaluates no V at the certified states, but
    # the sigma tether does, raw or recorded, and hands it to the step's v_cert
    model, store = _pushed_mixture("convex", "fixed_point", 5.0)
    X, Y = _batch()
    out = training.mdn_forward(model, store, X)
    hits = int(out.info.intervened.sum())
    assert 0 < hits < X.shape[0]
    expected = _recount(model, store, X, out.mu_mix)
    calls = _v_rows(monkeypatch)
    assert evaluate_violations(model, store, X) == expected
    # V(X) and V(y) stacked, then the tether's V on the moved rows; none to count
    assert calls == [2 * X.shape[0], hits]
    calls.clear()
    _, _, pred, step = training.objective(model, store, Tape(), X, Y)
    recorded = len(calls)
    assert training._count_violations(model, store, X, pred, step) == expected
    assert len(calls) == recorded


@pytest.mark.parametrize("route", BACKWARD_ROUTES)
def test_a_planted_breach_is_counted(route, monkeypatch):
    # a solver that claims convergence at gamma = 1, reporting V there, leaves
    # every intervening row at its free prediction, above the bound
    def no_solve(ray, v, slope, target, *args, **kwargs):
        n = v.shape[0]
        return np.ones(n), v, np.zeros(n, dtype=int), np.zeros(n, dtype=int)

    monkeypatch.setattr(deterministic, "solve_gamma_batch", no_solve)
    model, store = _pushed_model("implicit", "icnn", route, PUSH, rootfind_tol=1e-10)
    X, Y = _batch()
    pred, info = model_step(model, store, X, want_info=True)
    hits = int(info.intervened.sum())
    assert hits > 0 and np.all(info.gamma == 1.0)
    assert _recount(model, store, X, pred) == hits
    assert evaluate_violations(model, store, X) == hits
    assert train(model, store, X, Y, TrainConfig(epochs=1)).violations == hits


@pytest.mark.parametrize("route", BACKWARD_ROUTES)
@pytest.mark.parametrize("variant", ["icnn", "lnn"])
def test_a_taped_implicit_batch_evaluates_v_of_y_once(variant, route, monkeypatch):
    # the decision reads V(X), V(y) and dV/dgamma at gamma = 1 raw from the
    # raw step's one pass along the rays of X and y stacked, and the gamma
    # solve starts from it and walks on, one ray evaluation per iteration.
    # The tape records V only at the intervening rows of X, then the
    # surrogate's V at their solved states
    model, store = _pushed_model("implicit", variant, route, PUSH)
    X, Y = _batch()
    y = model.fhat.forward(X, store)
    evals, rays = [], []
    plain_ray = LyapunovNet.ray

    def counted_ray(self, rows, *args, **kwargs):
        rays.append(rows)
        return plain_ray(self, rows, *args, **kwargs)

    _hook_v(monkeypatch, lambda x, taped: evals.append((x, taped)))
    monkeypatch.setattr(LyapunovNet, "ray", counted_ray)
    ray_calls = _ray_rows(monkeypatch)
    _, _, _, info = training.objective(model, store, Tape(), X, Y)
    idx = np.flatnonzero(info.intervened)
    assert 0 < idx.size < X.shape[0]
    assert len(rays) == 1 and np.array_equal(rays[0], np.concatenate([X, y]))
    assert ray_calls[0] == 2 * X.shape[0]
    assert len(ray_calls) == 1 + int((info.newton_iters + info.bisect_iters).max())
    # the direct route records V at the solved states and reads grad V there raw
    solved = info.gamma[idx, None] * y[idx]
    if route == "fixed_point":
        assert [taped for _, taped in evals] == [True, True]
    else:
        assert [taped for _, taped in evals] == [True, True, False]
        assert np.array_equal(evals[2][0], solved)
    assert np.array_equal(evals[0][0], X[idx])
    assert np.array_equal(evals[1][0], solved)


@pytest.mark.parametrize("route", BACKWARD_ROUTES)
@pytest.mark.parametrize("variant", ["icnn", "lnn"])
def test_every_recorded_node_of_an_implicit_batch_gets_a_gradient(variant, route):
    # a batch where no row intervenes records no V at all
    for scale in (NO_PUSH, PUSH):
        model, store = _pushed_model("implicit", variant, route, scale)
        X, Y = _batch()
        tape = Tape()
        loss, _, _, info = training.objective(model, store, tape, X, Y)
        hits = info.intervened.sum()
        assert (hits == 0) if scale == NO_PUSH else (0 < hits < X.shape[0])
        tape.backward(loss)
        idle = [i for i, node in enumerate(tape._nodes) if node.grad is None]
        assert not idle, f"{len(idle)} of {len(tape._nodes)} nodes got no gradient at {scale}"
