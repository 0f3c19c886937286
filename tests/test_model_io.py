import json
from dataclasses import asdict

import numpy as np
import pytest

from stabledyn.autodiff import ParamStore
from stabledyn.deterministic import make_model, model_step, rollout
from stabledyn.model_io import load_model, save_model
from stabledyn.stochastic import make_stochastic_model, mdn_forward
from stabledyn.training import TrainConfig, train


def test_deterministic_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    model = make_model("implicit", 2, "icnn", hidden_f=(9, 7), hidden_v=(6, 5),
                       beta=0.95, rootfind_tol=1e-4)
    store = ParamStore()
    model.init_params(store, rng)
    p = tmp_path / "m.json"
    save_model(p, model, store)
    m2, s2 = load_model(p)

    assert sorted(s2.values) == sorted(store.values)
    for k in store.values:
        assert np.array_equal(s2.values[k], store.values[k]), k
    assert (m2.mode, m2.beta, m2.rootfind_tol) == ("implicit", 0.95, 1e-4)
    assert m2.lyap.variant == "icnn" and m2.lyap.hidden == (6, 5)
    assert m2.fhat.layer_dims == model.fhat.layer_dims
    assert m2.fhat.activation == "tanh"

    X = np.random.default_rng(1).uniform(-5, 5, size=(8, 2))
    assert np.array_equal(model_step(model, store, X), model_step(m2, s2, X))


def test_projection_integrating_round_trip(tmp_path):
    model = make_model("projection", 3, "lnn", integrating=True,
                       hidden_f=(8,), hidden_v=(6,))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(2))
    p = tmp_path / "m.json"
    save_model(p, model, store)
    m2, s2 = load_model(p)
    assert m2.integrating is True and m2.mode == "projection"
    x0 = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(rollout(model, store, x0, 12),
                          rollout(m2, s2, x0, 12))


def test_stochastic_round_trip(tmp_path):
    model = make_stochastic_model("convex", 2, "convex_lnn", k=4,
                                  sigma_cap=0.5, hidden_f=(10, 10),
                                  hidden_v=(8, 8))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(3))
    p = tmp_path / "m.json"
    save_model(p, model, store)
    m2, s2 = load_model(p)
    assert (m2.k, m2.sigma_cap, m2.mode) == (4, 0.5, "convex")
    assert json.loads(p.read_text())["kind"] == "mdn"
    X = np.random.default_rng(4).uniform(-3, 3, size=(6, 2))
    a = mdn_forward(model, store, X)
    b = mdn_forward(m2, s2, X)
    assert np.array_equal(a.pi, b.pi)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.sigma, b.sigma)


@pytest.mark.parametrize("model", [
    make_model("projection", 3, "convex_lnn", hidden_f=(7, 4), hidden_v=(6, 5),
               beta=0.9, rootfind_tol=1e-5,
               backward_route="direct", integrating=True),
    make_stochastic_model("implicit", 2, "icnn", hidden_f=(6,), hidden_v=(5, 4),
                          beta=0.8, rootfind_tol=1e-6,
                          backward_route="direct", k=3, sigma_cap=0.25),
], ids=["deterministic", "mdn"])
def test_every_setting_survives_the_trip(tmp_path, model):
    # a model's fields are its settings; the saved header must carry each one
    defaults = type(model)("none", model.dim, model.variant)
    assert all(v != asdict(defaults)[k] for k, v in asdict(model).items()
               if k not in ("mode", "dim", "variant"))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(9))
    p = tmp_path / "m.json"
    save_model(p, model, store)
    m2, _ = load_model(p)
    assert type(m2) is type(model)
    assert asdict(m2) == asdict(model)


def test_trained_weights_survive_the_trip(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.uniform(-4, 4, size=(60, 2))
    Y = X @ np.array([[0.9, 1.0], [0.0, 0.9]]).T
    model = make_model("convex", 2, "icnn", hidden_f=(8, 8), hidden_v=(8, 8))
    store = ParamStore()
    model.init_params(store, rng)
    train(model, store, X, Y, TrainConfig(epochs=5))
    p = tmp_path / "m.json"
    save_model(p, model, store)
    _, s2 = load_model(p)
    for k in store.values:
        assert np.array_equal(s2.values[k], store.values[k]), k


def test_version_mismatch_rejected(tmp_path):
    model = make_model("convex", 2, "icnn", hidden_f=(4,), hidden_v=(4,))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(6))
    p = tmp_path / "m.json"
    save_model(p, model, store)
    doc = json.loads(p.read_text())
    doc["format_version"] = 99
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_model(p)


def test_unknown_kind_rejected(tmp_path):
    model = make_model("convex", 2, "icnn", hidden_f=(4,), hidden_v=(4,))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(7))
    p = tmp_path / "m.json"
    save_model(p, model, store)
    doc = json.loads(p.read_text())
    doc["kind"] = "quantum"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="kind"):
        load_model(p)


def test_saving_a_plain_object_fails(tmp_path):
    with pytest.raises(ValueError):
        save_model(tmp_path / "m.json", object(), ParamStore())


def _saved_doc(tmp_path):
    model = make_model("implicit", 2, "icnn", hidden_f=(5,), hidden_v=(4,))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(8))
    p = tmp_path / "m.json"
    save_model(p, model, store)
    return p, json.loads(p.read_text())


def test_missing_parameter_rejected(tmp_path):
    p, doc = _saved_doc(tmp_path)
    del doc["params"]["V.U1"]
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="lacks parameter 'V.U1'"):
        load_model(p)


def test_missing_setting_rejected(tmp_path):
    p, doc = _saved_doc(tmp_path)
    del doc["integrating"], doc["beta"]
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"lacks settings \['beta', 'integrating'\]"):
        load_model(p)


def test_non_finite_tolerance_in_a_file_is_refused(tmp_path):
    # json writes and reads Infinity; a model built from it would certify
    # nothing, and its audit would count no violation either
    p, doc = _saved_doc(tmp_path)
    p.write_text(json.dumps(dict(doc, rootfind_tol=float("inf"))))
    assert "Infinity" in p.read_text()
    with pytest.raises(ValueError, match="rootfind_tol"):
        load_model(p)


def test_extra_parameter_rejected(tmp_path):
    p, doc = _saved_doc(tmp_path)
    doc["params"]["V.W2"] = [[0.5, 0.5]]
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unexpected parameter 'V.W2'"):
        load_model(p)


def test_misshaped_parameter_rejected(tmp_path):
    p, doc = _saved_doc(tmp_path)
    doc["params"]["f.W1"] = [row + [0.0] for row in doc["params"]["f.W1"]]
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"'f.W1' has shape \(2, 6\).*\(2, 5\)"):
        load_model(p)


def test_architecture_check_passes_a_clean_round_trip(tmp_path):
    p, doc = _saved_doc(tmp_path)
    m2, s2 = load_model(p)
    assert list(s2.values) == list(doc["params"])
    for k, v in doc["params"].items():
        assert np.array_equal(s2.values[k], np.asarray(v)), k


def test_solver_budgets_from_older_files(tmp_path):
    # earlier files recorded the solver budgets; the fixed ones still load
    p, doc = _saved_doc(tmp_path)
    assert "max_newton" not in doc and "max_bisect" not in doc
    doc.update(max_newton=50, max_bisect=60)
    p.write_text(json.dumps(doc))
    m2, _ = load_model(p)
    assert not hasattr(m2, "max_newton") and not hasattr(m2, "max_bisect")
    # the quadratic floor's weight, the smooth_relu knot and the activation
    # of fhat, trunk and coeff are constants too
    doc.update(epsilon=0.001, d=0.1, activation="tanh")
    p.write_text(json.dumps(doc))
    load_model(p)
    for key, value in (("max_newton", 20), ("max_bisect", 100), ("epsilon", 0.002),
                       ("d", 0.2), ("activation", "relu")):
        other = dict(doc, **{key: value})
        p.write_text(json.dumps(other))
        with pytest.raises(ValueError, match=key):
            load_model(p)


@pytest.mark.parametrize("edit, match", [
    (lambda doc: [1, 2], "one JSON object, not a list"),
    (lambda doc: {k: v for k, v in doc.items() if k != "kind"}, "kind must be one of"),
    (lambda doc: dict(doc, kind=["mdn"]), r"kind must be one of .*got \['mdn'\]"),
    (lambda doc: {k: v for k, v in doc.items() if k != "params"}, "params must map"),
    (lambda doc: dict(doc, params=[1]), "params must map names to arrays, not list"),
    (lambda doc: dict(doc, params={**doc["params"], "f.W0": {"a": 1}}),
     "'f.W0' is not a numeric array"),
    (lambda doc: dict(doc, params={**doc["params"], "f.W0": "abc"}),
     "'f.W0' is not a numeric array"),
    (lambda doc: dict(doc, dim="two"), "dim must be an integer, got 'two'"),
    (lambda doc: dict(doc, dim=0), "dim must be at least 1, got 0"),
    (lambda doc: dict(doc, hidden_f=5), "hidden_f must be a list of layer widths, got 5"),
    (lambda doc: dict(doc, beta="0.9"), "beta must be a number in .*got '0.9'"),
    (lambda doc: dict(doc, integrating="yes"), "integrating must be true or false"),
    (lambda doc: dict(doc, kind="mdn", k=2.5, sigma_cap=1.0), "k must be an integer, got 2.5"),
], ids=["list", "no-kind", "list-kind", "no-params", "list-params", "object-param",
        "text-param", "text-dim", "zero-dim", "number-hidden", "text-beta",
        "text-integrating", "fractional-k"])
def test_a_malformed_file_is_refused_by_name(tmp_path, edit, match):
    p, doc = _saved_doc(tmp_path)
    p.write_text(json.dumps(edit(doc)))
    with pytest.raises(ValueError, match=match):
        load_model(p)
