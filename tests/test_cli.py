import csv
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from stabledyn.cli import build_parser, main
from stabledyn.deterministic import StableModel, rollout
from stabledyn.model_io import load_model
from stabledyn.stochastic import StochasticModel
from stabledyn.systems import generate_transitions, load_transitions
from stabledyn.training import TrainConfig


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def _gen(tmp_path, capsys, system="linear", name="d.csv", extra=()):
    # grid 4 keeps the exact origin out of the data; training refuses states
    # where V(x) = 0 because no scaling gradient exists there
    path = tmp_path / name
    code, doc = _run(["gen", "--system", system, "--out", str(path),
                      "--grid", "-6,6,4", "--steps", "5", "--seed", "3",
                      *extra], capsys)
    assert code == 0
    return path, doc


def _train(tmp_path, capsys, data, model="convex", v="icnn", name="m.json",
           extra=()):
    out = tmp_path / name
    code, doc = _run(["train", "--model", model, "--v", v, "--data", str(data),
                      "--out", str(out), "--epochs", "3", "--hidden-f", "6,6",
                      "--hidden-v", "6,6", "--seed", "1", *extra], capsys)
    return code, doc, out


def test_gen_writes_grid_dataset(tmp_path, capsys):
    path, doc = _gen(tmp_path, capsys)
    assert doc["rows"] == 16 * 5
    X, Y, meta = load_transitions(path)
    assert X.shape == (80, 2) and Y.shape == (80, 2)
    assert meta["steps"] == 5 and meta["grid"]["points"] == 4


def test_gen_linear_stoch_defaults_noise(tmp_path, capsys):
    path, doc = _gen(tmp_path, capsys, system="linear-stoch")
    _, _, meta = load_transitions(path)
    assert meta["b"] == 0.1
    assert doc["system"] == "linear-stoch"


def test_gen_single_start(tmp_path, capsys):
    path = tmp_path / "one.csv"
    code, doc = _run(["gen", "--system", "saturated", "--out", str(path),
                      "--x0", "0.5,0.3", "--steps", "7"], capsys)
    assert code == 0 and doc["rows"] == 7
    _, _, meta = load_transitions(path)
    assert meta["x0"] == [0.5, 0.3] and meta["grid"] is None


def test_gen_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    code, _ = _run(["gen", "--out", out], capsys)
    assert code == 2
    code, _ = _run(["gen", "--system", "vanderpol", "--out", out], capsys)
    assert code == 2
    code, _ = _run(["gen", "--system", "linear", "--out", out,
                    "--grid", "-6,6,4", "--x0", "1,1"], capsys)
    assert code == 2


@pytest.mark.parametrize("system, flags, flag", [
    ("lorenz", ["--grid=-6,6,4", "--steps", "5"], "--grid"),
    ("saturated", ["--b", "0.5"], "--b"),
    ("linear", ["--h", "0.3"], "--h"),
], ids=["lorenz-grid", "saturated-b", "linear-h"])
def test_gen_refuses_flags_the_system_never_reads(tmp_path, capsys, system, flags, flag):
    out = tmp_path / "d.csv"
    code = main(["gen", "--system", system, "--out", str(out), *flags])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert flag in captured.err and "Traceback" not in captured.err
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize("flags, name", [
    (["--system", "saturated", "--h", "nan"], "h"),
    (["--system", "saturated", "--h", "0"], "h"),
    (["--system", "saturated", "--h=-0.1"], "h"),
    (["--system", "linear", "--b", "inf"], "b"),
], ids=["h-nan", "h-zero", "h-negative", "b-inf"])
def test_gen_refuses_a_step_or_gain_that_cannot_simulate(tmp_path, capsys, flags, name):
    out = tmp_path / "d.csv"
    code = main(["gen", *flags, "--grid=-6,6,2", "--steps", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert f"{name} must be" in captured.err and "Traceback" not in captured.err
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_train_writes_model_and_report(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    code, doc, out = _train(tmp_path, capsys, data)
    assert code == 0
    assert doc["violations"] == 0
    assert np.isfinite(doc["final_loss"])
    assert out.exists()
    report = json.loads((tmp_path / "m.report.json").read_text())
    assert len(report["losses"]) == 3
    assert report["model"] == "convex"


def test_train_rejects_nonconvex_v_for_convex_mode(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    code, _, out = _train(tmp_path, capsys, data, model="convex", v="lnn")
    assert code == 2 and not out.exists()
    code, _, _ = _train(tmp_path, capsys, data, model="mdn-convex", v="lnn")
    assert code == 2


@pytest.mark.parametrize("flags", [["--batch-size", "-5"], ["--epochs", "0"],
                                   ["--lr", "0"], ["--lr", "inf"],
                                   ["--rootfind-tol", "inf"], ["--rootfind-tol", "nan"]])
def test_train_refuses_settings_that_cannot_train(tmp_path, capsys, flags):
    data, _ = _gen(tmp_path, capsys)
    code, doc, out = _train(tmp_path, capsys, data, extra=flags)
    assert code == 2 and doc is None and not out.exists()
    assert not (tmp_path / "m.report.json").exists()


def test_train_accepts_hyphenated_variant(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    code, doc, out = _train(tmp_path, capsys, data, model="implicit",
                            v="convex-lnn")
    assert code == 0
    assert json.loads(out.read_text())["variant"] == "convex_lnn"


@pytest.mark.parametrize("model, flags, named", [
    ("mdn-convex", ["--integrating"], "--integrating"),
    ("convex", ["--k", "5"], "--k"),
    ("convex", ["--sigma-cap", "3"], "--sigma-cap"),
], ids=["mdn-integrating", "deterministic-k", "deterministic-sigma-cap"])
def test_train_refuses_settings_the_model_kind_never_reads(tmp_path, capsys, model,
                                                           flags, named):
    data, _ = _gen(tmp_path, capsys)
    out = tmp_path / "m.json"
    code = main(["train", "--model", model, "--data", str(data), "--out", str(out),
                 "--epochs", "1", *flags])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out and not out.exists()
    assert named in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "m.report.json").exists()


@pytest.mark.parametrize("model, cls, mode", [
    ("implicit", StableModel, "implicit"),
    ("mdn-convex", StochasticModel, "convex"),
])
def test_train_settings_left_out_take_the_class_defaults(tmp_path, capsys, model, cls,
                                                          mode):
    data, _ = _gen(tmp_path, capsys)
    out = tmp_path / "m.json"
    code, _ = _run(["train", "--model", model, "--data", str(data), "--out", str(out),
                    "--epochs", "1"], capsys)
    assert code == 0
    saved = json.loads(out.read_text())
    want = asdict(cls(mode, 2, "icnn"))
    assert {k: saved[k] for k in want} == json.loads(json.dumps(want))


def test_train_flags_name_settings_by_field():
    # settings pass through by field name, so a renamed field must not leave
    # its flag parsed and silently dropped
    _, commands = build_parser()
    settings = {f.name for cls in (StableModel, StochasticModel, TrainConfig)
                for f in fields(cls)}
    dests = {a.dest for a in commands["train"]._actions} - {"help", "model", "v", "data",
                                                             "out", "config"}
    assert dests and dests <= settings


@pytest.mark.parametrize("system", ["sde", "lorenz"])
def test_gen_defaults_are_the_library_defaults(tmp_path, capsys, system):
    out = tmp_path / "d.csv"
    code, doc = _run(["gen", "--system", system, "--out", str(out)], capsys)
    X, Y, meta = generate_transitions(system)
    assert code == 0 and doc["steps"] == meta["steps"]
    X2, Y2, meta2 = load_transitions(out)
    assert np.array_equal(X, X2) and np.array_equal(Y, Y2) and meta == meta2


@pytest.mark.parametrize("argv, flag", [
    ("rollout --model-file {model} --x0 nan,1 --out {out}", "--x0"),
    ("gen --system saturated --x0 inf,0 --out {out}", "--x0"),
    ("gen --system saturated --grid=-6,inf,3 --out {out}", "--grid"),
    ("lyap-solve --a nan", "--a"),
    ("lyap-solve --a 0.9 --b nan", "--b"),
    ("lyap-solve --a 0.9 --q inf", "--q"),
], ids=["rollout-x0", "gen-x0", "gen-grid", "lyap-a", "lyap-b", "lyap-q"])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, argv, flag):
    paths = {"out": tmp_path / "out.csv"}
    if "{model}" in argv:
        data, _ = _gen(tmp_path, capsys)
        paths["model"] = _train(tmp_path, capsys, data)[2]
    code = main(argv.format(**paths).split())
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert flag in captured.err and "finite" in captured.err
    assert not paths["out"].exists()


def test_rollout_deterministic_csv(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data)
    traj = tmp_path / "traj.csv"
    code, doc = _run(["rollout", "--model-file", str(model), "--x0", "4,-3",
                      "--steps", "6", "--out", str(traj)], capsys)
    assert code == 0
    with traj.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "V"]
    assert len(rows) == 8
    vs = np.array([float(r[3]) for r in rows[1:]])
    assert np.all(vs[1:] <= 0.99 * vs[:-1] + 1e-3 + 1e-12)
    # %.17g reads back bit for bit: the file holds rollout's own trajectory and V
    want, want_v = rollout(*load_model(model), np.array([4.0, -3.0]), 6, record_v=True)
    assert np.array([[float(v) for v in r[1:3]] for r in rows[1:]]).tobytes() == want.tobytes()
    assert vs.tobytes() == want_v.tobytes()

    code, _ = _run(["rollout", "--model-file", str(model), "--x0", "4,-3",
                    "--steps", "0", "--out", str(traj)], capsys)
    with traj.open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][0] == "0"


def test_rollout_dimension_mismatch(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data)
    code, _ = _run(["rollout", "--model-file", str(model), "--x0", "1,2,3",
                    "--steps", "3", "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 2


def test_rollout_mdn_mean_and_samples(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data, model="mdn-convex",
                         extra=("--k", "2"))
    traj = tmp_path / "traj.csv"
    argv = ["rollout", "--model-file", str(model), "--x0", "4,-3",
            "--steps", "4", "--samples", "3", "--seed", "5", "--out", str(traj)]
    code, doc = _run(argv, capsys)
    assert code == 0 and doc["samples"] == 3
    with traj.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path", "t", "x1", "x2", "V"]
    assert len(rows) == 1 + 5 * 4
    assert [r[0] for r in rows[1::5]] == ["mean", "0", "1", "2"]
    # each path's V column is V of that path's states, bit for bit
    m, store = load_model(model)
    for start in range(1, len(rows), 5):
        path = np.array([[float(v) for v in r[1:]] for r in rows[start:start + 5]])
        assert path[:, 0].tolist() == list(range(5))
        assert m.lyap.value(path[:, 1:3], store).tobytes() == path[:, 3].tobytes()
    first = traj.read_bytes()
    code, _ = _run(argv, capsys)
    assert traj.read_bytes() == first
    code, _ = _run(argv[:-3] + ["6", "--out", str(traj)], capsys)
    assert traj.read_bytes() != first


def test_rollout_refuses_a_negative_seed_by_name(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data, model="mdn-convex",
                         extra=("--k", "2"))
    traj = tmp_path / "traj.csv"
    code = main(["rollout", "--model-file", str(model), "--x0", "4,-3", "--steps", "4",
                 "--seed", "-1", "--out", str(traj)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out and not traj.exists()
    assert "seed must be at least 0, got -1" in captured.err


def test_eval_metrics(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data)
    code, doc = _run(["eval", "--model-file", str(model), "--data", str(data)],
                     capsys)
    assert code == 0 and doc["metric"] == "mse" and doc["value"] >= 0.0
    code, doc = _run(["eval", "--model-file", str(model), "--data", str(data),
                      "--metric", "v-violations"], capsys)
    assert code == 0 and doc["value"] == 0
    code, _ = _run(["eval", "--model-file", str(model), "--data", str(data),
                    "--metric", "nll"], capsys)
    assert code == 2


def test_eval_mdn_auto_is_nll(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data, model="mdn-none",
                         extra=("--k", "2"))
    code, doc = _run(["eval", "--model-file", str(model), "--data", str(data)],
                     capsys)
    assert code == 0 and doc["metric"] == "nll"


def test_lyap_solve_scalar_oracle(capsys):
    code, doc = _run(["lyap-solve", "--a", "0.9", "--b", "0", "--q", "1"],
                     capsys)
    assert code == 0
    assert doc["p"][0][0] == pytest.approx(1.0 / 0.19, rel=1e-12)
    assert doc["residual"] < 1e-12

    code, _ = _run(["lyap-solve", "--a", "0.9", "--b", "0.5", "--q", "1"],
                   capsys)
    assert code == 1


@pytest.mark.parametrize("flags, name", [
    (["--a=0.9,1"], "A must be square"),
    (["--a=0.9,1;0,0.9", "--b=0.1,0.2"], "B has shape (1, 2)"),
    (["--a=0.9,1;0,0.9", "--q=1,0;0,1;0,0"], "Q has shape (3, 2)"),
], ids=["a-not-square", "b-shape", "q-shape"])
def test_lyap_solve_refuses_misshaped_matrices(capsys, flags, name):
    # a usage error (2), not the numeric failure (1) of a map with no certificate
    code = main(["lyap-solve", *flags])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert name in captured.err and "Traceback" not in captured.err


def test_gradcheck_saved_model(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data, model="implicit", v="lnn")
    argv = ["gradcheck", "--model-file", str(model), "--data", str(data),
            "--batch", "6", "--seed", "2"]
    code, doc = _run(argv, capsys)
    assert code == 0 and doc["ok"] and doc["max_rel_err"] < 1e-4
    code, doc = _run(argv + ["--threshold", "1e-18"], capsys)
    assert code == 1 and not doc["ok"]


def test_gradcheck_refuses_a_negative_seed_by_name(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data, model="implicit", v="lnn")
    code = main(["gradcheck", "--model-file", str(model), "--data", str(data),
                 "--batch", "6", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "seed must be at least 0, got -1" in captured.err


def test_config_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 2, "seed": 9, "grid": "-6,6,3"}))
    out = tmp_path / "d.csv"
    code, doc = _run(["gen", "--system", "saturated", "--out", str(out),
                      "--config", str(cfg)], capsys)
    assert code == 0 and doc["rows"] == 9 * 2 and doc["steps"] == 2
    code, doc = _run(["gen", "--system", "saturated", "--out", str(out),
                      "--config", str(cfg), "--steps", "4"], capsys)
    assert code == 0 and doc["steps"] == 4

    cfg.write_text(json.dumps({"bogus": 1}))
    code, _ = _run(["gen", "--system", "saturated", "--out", str(out),
                    "--config", str(cfg)], capsys)
    assert code == 2

    # a JSON number for a list flag means what the same text on the command
    # line means, and a value its flag cannot read is a usage error
    cfg.write_text(json.dumps({"hidden_f": 5, "hidden_v": [4, 3]}))
    model = tmp_path / "m.json"
    code, _ = _run(["train", "--model", "convex", "--data", str(out), "--out", str(model),
                    "--epochs", "1", "--config", str(cfg)], capsys)
    saved = json.loads(model.read_text())
    assert code == 0 and saved["hidden_f"] == [5] and saved["hidden_v"] == [4, 3]
    cfg.write_text(json.dumps({"epochs": [1, 2]}))
    code, _ = _run(["train", "--model", "convex", "--data", str(out), "--out", str(model),
                    "--config", str(cfg)], capsys)
    assert code == 2


# -- a --config file's values are parsed exactly as typed flags ------------

def test_config_value_outside_choices_is_a_usage_error(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "bogus"}))
    code, doc = _run(["eval", "--model-file", str(model), "--data", str(data),
                      "--config", str(cfg)], capsys)
    assert code == 2 and doc is None


def test_config_fractional_count_is_a_usage_error(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 2.7}))
    out = tmp_path / "m.json"
    code, doc = _run(["train", "--model", "convex", "--data", str(data),
                      "--out", str(out), "--config", str(cfg)], capsys)
    assert code == 2 and doc is None and not out.exists()


def test_config_number_for_a_text_flag_reads_as_its_text(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 0.1}))
    code, doc = _run(["lyap-solve", "--a", "0.9", "--config", str(cfg)], capsys)
    assert code == 0
    assert doc["p"][0][0] == pytest.approx(1.0 / 0.18, rel=1e-12)
    code, typed = _run(["lyap-solve", "--a", "0.9", "--b", "0.1"], capsys)
    assert code == 0 and doc["p"] == typed["p"]


def test_config_supplies_required_flags_and_switches(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": "0.9,1;0,0.9", "b": 0.1}))
    code, doc = _run(["lyap-solve", "--config", str(cfg)], capsys)
    assert code == 0 and doc["min_eig"] > 0.0

    data, _ = _gen(tmp_path, capsys)
    model = tmp_path / "m.json"
    cfg.write_text(json.dumps({"model": "projection", "data": str(data),
                               "out": str(model), "epochs": 1, "integrating": True,
                               "verbose": False, "batch_size": None}))
    code, doc = _run(["train", "--config", str(cfg)], capsys)
    assert code == 0 and doc["epochs"] == 1
    assert json.loads(model.read_text())["integrating"] is True


@pytest.mark.parametrize("argv, name", [
    ("gen --system saturated --out {out} --steps -1", "steps"),
    ("gen --system saturated --out {out} --steps 0", "steps"),
    ("gen --system saturated --out {out} --grid=-6,6,0", "grid_points"),
    ("gen --system saturated --out {out} --grid=-6,6,-3", "grid_points"),
    ("train --model convex --data {empty} --out {out}", "empty.csv"),
    ("rollout --model-file {model} --x0 1,1 --steps -2 --out {out}", "steps"),
    ("rollout --model-file {mdn} --x0 1,1 --samples -1 --out {out}", "paths"),
    ("gradcheck --model-file {model} --data {data} --batch 0", "--batch"),
], ids=["gen-steps-negative", "gen-steps-zero", "gen-grid-zero", "gen-grid-negative",
        "train-no-rows",
        "rollout-steps", "rollout-samples", "gradcheck-batch"])
def test_counts_out_of_range_are_refused_by_name(tmp_path, capsys, argv, name):
    data, _ = _gen(tmp_path, capsys)
    empty = tmp_path / "empty.csv"
    empty.write_text("x1,x2,y1,y2\n")
    paths = {"out": tmp_path / "out.csv", "data": data, "empty": empty}
    if "{model}" in argv:
        paths["model"] = _train(tmp_path, capsys, data)[2]
    if "{mdn}" in argv:
        paths["mdn"] = _train(tmp_path, capsys, data, model="mdn-convex",
                              name="mdn.json")[2]
    code = main(argv.format(**paths).split())
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert name in captured.err and "Traceback" not in captured.err
    assert not paths["out"].exists()


@pytest.mark.parametrize("command", ["rollout", "eval"])
@pytest.mark.parametrize("doc, name", [([1, 2], "not a list"),
                                       ({"format_version": 1}, "kind must be one of")])
def test_a_malformed_model_file_is_refused_by_name(tmp_path, capsys, command, doc, name):
    data, _ = _gen(tmp_path, capsys)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    argv = {"rollout": f"rollout --model-file {model} --x0 1,1 --out {tmp_path / 'r.csv'}",
            "eval": f"eval --model-file {model} --data {data}"}[command]
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert name in captured.err and "Traceback" not in captured.err


def test_an_output_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    # --out naming a directory: the command's OSError exits 2, as a missing
    # input file does, not with a traceback
    code = main(["gen", "--system", "linear", "--out", str(tmp_path), "--steps", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error:") and not captured.out


def test_eval_refuses_data_whose_rows_the_header_does_not_name(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data)
    short = tmp_path / "short.csv"
    short.write_text("x1,x2,y1,y2\n1,2,3\n")
    code = main(["eval", "--model-file", str(model), "--data", str(short)])
    err = capsys.readouterr().err
    assert code == 2 and "line 2: 3 values" in err


def test_train_refuses_data_holding_nan_as_a_usage_error(tmp_path, capsys):
    # it used to train into "loss diverged at epoch 0", a numeric failure (1)
    data, _ = _gen(tmp_path, capsys)
    lines = data.read_text().splitlines()
    row = lines[4].split(",")
    row[2] = "nan"
    lines[4] = ",".join(row)
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.json"
    code = main(["train", "--model", "implicit", "--v", "icnn", "--data", str(data),
                 "--out", str(out), "--epochs", "2"])
    err = capsys.readouterr().err
    assert code == 2 and "Y must hold finite states; rows [3] are not" in err
    assert not out.exists()


def test_eval_refuses_data_of_another_dimension(tmp_path, capsys):
    data, _ = _gen(tmp_path, capsys)
    _, _, model = _train(tmp_path, capsys, data)
    lorenz = tmp_path / "lz.csv"
    code, _ = _run(["gen", "--system", "lorenz", "--out", str(lorenz), "--steps", "5"],
                   capsys)
    assert code == 0
    code = main(["eval", "--model-file", str(model), "--data", str(lorenz)])
    err = capsys.readouterr().err
    assert code == 2 and "3 columns, model expects 2" in err
