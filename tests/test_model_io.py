import functools
import hashlib
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


@pytest.mark.parametrize("make, setting, value", [
    (make_model, "dim", np.int64(2)),
    (make_model, "beta", np.float32(0.9)),
    (make_model, "rootfind_tol", np.float32(1e-4)),
    (make_stochastic_model, "k", np.int32(2)),
    (make_stochastic_model, "sigma_cap", np.float32(0.5)),
], ids=["dim", "beta", "rootfind_tol", "k", "sigma_cap"])
def test_numpy_scalar_settings_save_as_plain_values(tmp_path, make, setting, value):
    # json writes no numpy scalar, so a model keeps each setting as the plain
    # int or float of the same value
    model = make(**{"mode": "convex", "dim": 2, "variant": "icnn", setting: value})
    kept = getattr(model, setting)
    assert type(kept) is type(value.item()) and kept == value
    store = ParamStore()
    model.init_params(store, np.random.default_rng(4))
    p = tmp_path / "m.json"
    save_model(p, model, store)
    m2, _ = load_model(p)
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


@pytest.mark.parametrize("name,bad", [("f.W0", float("nan")), ("V.W0", float("inf"))])
def test_non_finite_parameter_in_a_file_is_refused(tmp_path, name, bad):
    # a NaN in fhat steps to NaN rows with no intervention flagged, and an
    # inf in V leaves the certificate off on every row, flagging nothing
    p, doc = _saved_doc(tmp_path)
    doc["params"][name][0][0] = bad
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"parameter '{name}' .* not finite"):
        load_model(p)


@pytest.mark.parametrize("name,bad", [("f.W0", float("nan")), ("V.b2", float("-inf"))])
def test_a_non_finite_parameter_is_not_saved(tmp_path, name, bad):
    # json would write a bare NaN or Infinity token, which strict parsers
    # and load_model refuse; the refusal names the parameter and writes nothing
    model = make_model("implicit", 2, "icnn", hidden_f=(5,), hidden_v=(4,))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(8))
    store.values[name].flat[0] = bad
    p = tmp_path / "m.json"
    with pytest.raises(ValueError, match=rf"parameter '{name}' .* not finite"):
        save_model(p, model, store)
    assert not p.exists()


@pytest.mark.parametrize("edit, match", [
    (lambda doc: doc["params"].update({"V.b2": [" 1e3 "]}), "'V.b2' is not a numeric array"),
    (lambda doc: doc["params"].update({"V.b2": [False]}), "'V.b2' is not a numeric array"),
    (lambda doc: doc["params"].update({"V.b2": [None]}), "'V.b2' is not a numeric array"),
    (lambda doc: doc["params"].update(
        {"V.W0": [[str(v) for v in row] for row in doc["params"]["V.W0"]]}),
     "'V.W0' is not a numeric array"),
    (lambda doc: doc["params"]["V.W0"][1].__setitem__(0, True),
     "'V.W0' is not a numeric array"),
    (lambda doc: doc["params"].update({"V.b2": [10 ** 400]}), "'V.b2' .* not finite"),
    (lambda doc: doc["params"].update(
        {"V.b2": functools.reduce(lambda v, _: [v], range(70), 1.0)}),
     "'V.b2' is not a numeric array"),
    (lambda doc: doc.update(format_version=True), "format version True"),
    (lambda doc: doc.update(format_version=1.0), "format version 1.0"),
], ids=["padded-text", "bool", "null", "text-array", "bool-among-numbers",
        "huge-integer", "deep-nesting", "bool-version", "float-version"])
def test_a_value_that_is_not_a_number_is_refused_by_name(tmp_path, edit, match):
    # numpy would read " 1e3 " as 1000.0 and false as 0.0, and True == 1
    p, doc = _saved_doc(tmp_path)
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
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


def _three_models():
    det = make_model("implicit", 2, "icnn", hidden_f=(9, 7), hidden_v=(6, 5))
    proj = make_model("projection", 3, "lnn", integrating=True, hidden_f=(8,), hidden_v=(6,))
    mix = make_stochastic_model("convex", 2, "convex_lnn", k=4, hidden_f=(10, 10),
                                hidden_v=(8, 8))
    pairs = []
    for seed, model in enumerate((det, proj, mix)):
        store = ParamStore()
        model.init_params(store, np.random.default_rng(seed))
        pairs.append((model, store))
    return pairs


@pytest.mark.parametrize("index", [0, 1, 2], ids=["deterministic", "integrating", "mdn"])
def test_the_file_layout(tmp_path, index):
    model, store = _three_models()[index]
    p = tmp_path / "m.json"
    save_model(p, model, store)
    text = p.read_text()

    def refuse(token):
        raise AssertionError(f"non-standard JSON token {token}")
    doc = json.loads(text, parse_constant=refuse)
    lines = text.splitlines()
    # one setting per line, then "params" with one parameter per line
    settings = {"format_version": 1, "kind": doc["kind"], **asdict(model)}
    assert lines[0] == "{" and lines[-2:] == [" }", "}"]
    assert lines[1:1 + len(settings)] == [f" {json.dumps(k)}: {json.dumps(v)},"
                                          for k, v in settings.items()]
    assert lines[1 + len(settings)] == ' "params": {'
    param_lines = lines[2 + len(settings):-2]
    assert len(param_lines) == len(store.values)
    for line, (name, v) in zip(param_lines, store.values.items()):
        assert json.loads("{" + line.rstrip(",") + "}") == {name: v.tolist()}

    # save -> load -> save writes the same text
    m2, s2 = load_model(p)
    p2 = tmp_path / "again.json"
    save_model(p2, m2, s2)
    assert p2.read_text() == text


@pytest.mark.parametrize("index", [0, 1, 2], ids=["deterministic", "integrating", "mdn"])
def test_a_file_in_the_indented_layout_still_loads_bit_for_bit(tmp_path, index):
    # earlier files were json.dumps(doc, indent=1): one number per line
    model, store = _three_models()[index]
    doc = {"format_version": 1, "kind": "mdn" if index == 2 else "deterministic",
           **asdict(model), "params": {k: v.tolist() for k, v in store.values.items()}}
    p = tmp_path / "old.json"
    p.write_text(json.dumps(doc, indent=1) + "\n")
    m2, s2 = load_model(p)
    assert asdict(m2) == asdict(model)
    assert list(s2.values) == list(store.values)
    for k, v in store.values.items():
        assert s2.values[k].tobytes() == v.tobytes(), k


# sha256 (first 16 hex digits) of every parameter's name, shape and bytes
# in draw order, at seed 0; taken before init_params read the draw tables
INIT_DIGESTS = {
    ("deterministic", "lnn", 2): "f96753a1c03d2528",
    ("deterministic", "lnn", 3): "70c81684ec5834e2",
    ("deterministic", "icnn", 2): "0c31eafd6211db4d",
    ("deterministic", "icnn", 3): "e41f10f4dfb50c43",
    ("deterministic", "convex_lnn", 2): "45ef2d9ff578860b",
    ("deterministic", "convex_lnn", 3): "85aaf35fb7886a80",
    ("mdn", "lnn", 2): "e42d02acfaa3405a",
    ("mdn", "lnn", 3): "c7435df6ead73a71",
    ("mdn", "icnn", 2): "0911c513bccf891f",
    ("mdn", "icnn", 3): "f69de61cf77cd906",
    ("mdn", "convex_lnn", 2): "d4e3b4377d277c57",
    ("mdn", "convex_lnn", 3): "7f669853fea719b6",
}


@pytest.mark.parametrize("kind, variant, dim", list(INIT_DIGESTS))
def test_init_params_draws_the_pinned_bytes(kind, variant, dim):
    # dim 2 takes the default widths, dim 3 one hidden layer in each net
    widths = {} if dim == 2 else dict(hidden_f=(7,), hidden_v=(6,))
    cls = make_model if kind == "deterministic" else make_stochastic_model
    store = ParamStore()
    cls("implicit", dim, variant, **widths).init_params(store, np.random.default_rng(0))
    h = hashlib.sha256()
    for name, v in store.values.items():
        h.update(name.encode())
        h.update(str(v.shape).encode())
        h.update(v.tobytes())
    assert h.hexdigest()[:16] == INIT_DIGESTS[kind, variant, dim]
