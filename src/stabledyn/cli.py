"""Command line entry points.

Subcommands cover the whole workflow: generate transition data, train a
model, roll it out, evaluate it, solve for an exact quadratic certificate of
the linear benchmark, and spot-check gradients. Results go to stdout as
JSON; progress and diagnostics go to stderr. Exit code 0 means success, 2 a
usage or validation problem, 1 a numeric failure at runtime.

A JSON file passed as --config supplies flags for the chosen subcommand,
read exactly as typed flags are; explicit flags always win.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .autodiff import ParamStore, grad_check
from .deterministic import MODES, RootFindError, StableModel, rollout
from .lyapunov import VARIANTS
from .model_io import load_model, save_model
from .stochastic import STAB_MODES, StochasticModel, stochastic_rollout
from .systems import (SYSTEMS, generate_transitions, load_transitions, save_transitions,
                      solve_discrete_lyapunov)
from .training import (TrainConfig, evaluate_mse, evaluate_nll, evaluate_violations,
                       metric_of, objective, train)
from .validate import check_count

# train's flags that are not settings of the model or of TrainConfig
TRAIN_IO = ("command", "config", "model", "v", "data", "out")


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise argparse.ArgumentTypeError("entries must be finite numbers")
    return values


def _parse_vector(text: str) -> np.ndarray:
    return _finite(np.array([float(v) for v in text.split(",")]))


def _parse_matrix(text: str) -> np.ndarray:
    return _finite(np.array([[float(v) for v in row.split(",")]
                             for row in text.split(";")]))


def _parse_gain(text: str):
    """A matrix, or a scalar read as that multiple of the identity."""
    M = _parse_matrix(text)
    return float(M[0, 0]) if M.size == 1 else M


def _parse_hidden(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _parse_grid(text: str) -> dict:
    lo, hi, count = text.split(",")
    lo, hi = _finite(np.array([float(lo), float(hi)])).tolist()
    return {"lo": lo, "hi": hi, "grid_points": int(count)}


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=1)
    sys.stdout.write("\n")


def build_parser():
    parser = argparse.ArgumentParser(prog="stabledyn",
                                     description="models that cannot walk away from the origin")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with defaults for this subcommand")
        commands[name] = p
        return p

    p = add("gen", "simulate a reference system into a transition CSV")
    p.add_argument("--system", required=True, choices=SYSTEMS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=None,
                   help="steps per trajectory (default: the system's own)")
    p.add_argument("--grid", type=_parse_grid, default=None,
                   help="lo,hi,count start grid per axis (default: the library's)")
    p.add_argument("--x0", type=_parse_vector, default=None,
                   help="single trajectory from this comma-separated start instead")
    p.add_argument("--h", type=float, default=None, help="override the step size")
    p.add_argument("--b", type=float, default=None,
                   help="noise gain of a linear map (default: the system's own)")

    p = add("train", "fit a model to transition data")
    p.add_argument("--model", required=True,
                   choices=(*MODES, *(f"mdn-{m}" for m in STAB_MODES)),
                   help="stability mode; mdn- prefix switches to the mixture model")
    p.add_argument("--v", choices=[v.replace("_", "-") for v in VARIANTS], default="icnn",
                   help="Lyapunov network variant")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    # a setting left out takes the model class's or TrainConfig's default
    p.add_argument("--k", type=int, help="mixture components (mdn only)")
    p.add_argument("--sigma-cap", type=float, help="spread cap (mdn only)")
    p.add_argument("--integrating", action="store_true", default=None,
                   help="treat the free prediction as an increment (deterministic only)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float)
    p.add_argument("--rootfind-tol", type=float)
    p.add_argument("--hidden-f", type=_parse_hidden)
    p.add_argument("--hidden-v", type=_parse_hidden)
    p.add_argument("--verbose", action="store_true")

    p = add("rollout", "iterate a saved model and write the trajectory CSV")
    p.add_argument("--model-file", required=True)
    p.add_argument("--x0", required=True, type=_parse_vector,
                   help="comma-separated start state")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=10,
                   help="sampled paths beside the mean path (mdn)")
    p.add_argument("--seed", type=int, default=0)

    p = add("eval", "score a saved model on transition data")
    p.add_argument("--model-file", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metric", choices=["auto", "mse", "nll", "v-violations"],
                   default="auto",
                   help="auto picks mse or nll to match the model kind")

    p = add("lyap-solve", "exact quadratic certificate for x' = Ax + Bxw")
    p.add_argument("--a", required=True, type=_parse_matrix, help="rows split by ';'")
    p.add_argument("--b", type=_parse_gain, default="0", help="scalar or matrix noise gain")
    p.add_argument("--q", type=_parse_matrix, help="right-hand side, default identity")

    p = add("gradcheck", "tape gradients of a saved model against finite differences")
    p.add_argument("--model-file", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batch", type=int, default=8,
                   help="rows sampled from the data for the check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)

    return parser, commands


# flags whose values may open with a minus sign yet are not plain negative
# numbers ("-6,6,14"); argparse reads such tokens as option names unless they
# are glued to the flag with '='
NUMERIC_LIST_FLAGS = ("--grid", "--x0", "--a", "--b", "--q")


def _preprocess(argv):
    out = []
    for tok in argv:
        if (out and out[-1] in NUMERIC_LIST_FLAGS and len(tok) > 1 and tok[0] == "-"
                and (tok[1].isdigit() or tok[1] == ".")):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _apply_config(parser, commands, argv):
    """Parse argv once, with a --config file's values spliced in as flags.

    They go right after the subcommand, so the command line's own flags win.
    true gives a bare switch, false and null leave the flag out, a list is
    joined with commas and any other value is its str().
    """
    argv = _preprocess(argv)
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    cfg_path = pre.parse_known_args(argv)[0].config
    if not cfg_path or argv[0] not in commands:
        return parser.parse_args(argv)
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("a config file holds one JSON object")
    # keys must name a dest exactly: argparse would take "epoch" for --epochs
    flags = {a.dest: a.option_strings[-1] for a in commands[argv[0]]._actions}
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        raise ValueError(f"config keys not recognized by {argv[0]!r}: {unknown}")
    tokens = []
    for key, val in cfg.items():
        if val is True:
            tokens.append(flags[key])
        elif val is not False and val is not None:
            text = ",".join(map(str, val)) if isinstance(val, list) else str(val)
            tokens.append(f"{flags[key]}={text}")
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_gen(args) -> int:
    spec = SYSTEMS[args.system]
    if args.x0 is not None and args.grid is not None:
        raise ValueError("give either --grid or --x0, not both")
    # a system with a fixed start runs one trajectory, only a linear map has
    # a noise gain, and a system with no step size reads none
    for flag, value, unread in (("--grid", args.grid, spec.x0 is not None),
                                ("--b", args.b, spec.b is None),
                                ("--h", args.h, not spec.h)):
        if value is not None and unread:
            raise ValueError(f"{flag} is not read by the {args.system} system")
    given = {k: v for k, v in vars(args).items()
             if v is not None and k in ("seed", "steps", "x0", "h", "b")}
    X, Y, meta = generate_transitions(args.system, **given, **(args.grid or {}))
    save_transitions(args.out, X, Y, meta)
    _emit({"path": args.out, "rows": int(X.shape[0]), "system": args.system,
           "steps": meta["steps"]})
    return 0


def _cmd_train(args) -> int:
    given = {k: v for k, v in vars(args).items() if v is not None and k not in TRAIN_IO}
    config = TrainConfig(**{f.name: given.pop(f.name) for f in fields(TrainConfig)
                            if f.name in given})
    cls, mode = ((StochasticModel, args.model[4:]) if args.model.startswith("mdn-")
                 else (StableModel, args.model))
    unread = ", ".join("--" + k.replace("_", "-") for k in given
                       if k not in {f.name for f in fields(cls)})
    if unread:
        raise ValueError(f"a {args.model} model does not read {unread}")
    X, Y, _ = load_transitions(args.data)
    model = cls(mode, X.shape[1], args.v.replace("-", "_"), **given)
    store = ParamStore()
    model.init_params(store, np.random.default_rng(args.seed))
    if args.verbose:
        print(f"training on {X.shape[0]} transitions", file=sys.stderr)
    report = train(model, store, X, Y, config)
    save_model(args.out, model, store)
    summary = {"out": args.out, "model": args.model, "v": args.v,
               "epochs": report.epochs, "final_loss": report.final_loss,
               "violations": report.violations,
               "seconds": round(report.seconds, 3)}
    report_path = Path(args.out).with_suffix(".report.json")
    report_path.write_text(json.dumps({**summary, "losses": report.losses},
                                      indent=1) + "\n")
    _emit({**summary, "report": str(report_path)})
    return 0


def _cmd_rollout(args) -> int:
    check_count("seed", args.seed, least=0)
    model, store = load_model(args.model_file)
    x0 = args.x0
    if x0.size != model.dim:
        raise ValueError(f"x0 has {x0.size} entries, model expects {model.dim}")
    cols = [f"x{i+1}" for i in range(model.dim)]
    if isinstance(model, StochasticModel):
        rng = np.random.default_rng(args.seed)
        traj, means = stochastic_rollout(model, store, x0, args.steps,
                                         args.samples, rng)
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["path", "t"] + cols + ["V"])

            def write_path(label, path):
                vs = model.lyap.value(path, store)
                for t in range(path.shape[0]):
                    w.writerow([label, t] + [f"{v:.17g}" for v in path[t]]
                               + [f"{vs[t]:.17g}"])

            write_path("mean", means)
            for p in range(traj.shape[0]):
                write_path(p, traj[p])
        final = float(np.linalg.norm(means[-1]))
        extra = {"samples": args.samples}
    else:
        traj, vs = rollout(model, store, x0, args.steps, record_v=True)
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + cols + ["V"])
            for t in range(traj.shape[0]):
                w.writerow([t] + [f"{v:.17g}" for v in traj[t]] + [f"{vs[t]:.17g}"])
        final = float(np.linalg.norm(traj[-1]))
        extra = {}
    _emit({"out": args.out, "steps": args.steps, "final_norm": final, **extra})
    return 0


def _load_scored(args):
    """The saved model and the transitions to score it on, of one dimension."""
    model, store = load_model(args.model_file)
    X, Y, _ = load_transitions(args.data)
    if X.shape[1] != model.dim:
        raise ValueError(f"data has {X.shape[1]} columns, model expects {model.dim}")
    return model, store, X, Y


def _cmd_eval(args) -> int:
    model, store, X, Y = _load_scored(args)
    metric = metric_of(model) if args.metric == "auto" else args.metric
    if metric == "v-violations":
        value = evaluate_violations(model, store, X)
    else:
        value = (evaluate_mse if metric == "mse" else evaluate_nll)(model, store, X, Y)
    _emit({"metric": metric, "value": value, "rows": int(X.shape[0])})
    return 0


def _cmd_lyap_solve(args) -> int:
    A, B = args.a, args.b
    Q = np.eye(A.shape[0]) if args.q is None else args.q
    P = solve_discrete_lyapunov(A, B, Q)
    Bm = B if isinstance(B, np.ndarray) else float(B) * np.eye(A.shape[0])
    residual = float(np.abs(A.T @ P @ A + Bm.T @ P @ Bm - P + Q).max())
    _emit({"p": P.tolist(), "residual": residual,
           "min_eig": float(np.linalg.eigvalsh(P).min())})
    return 0


def _cmd_gradcheck(args) -> int:
    if args.batch < 1:
        raise ValueError(f"--batch must be at least 1, got {args.batch}")
    check_count("seed", args.seed, least=0)
    model, store, X, Y = _load_scored(args)
    rng = np.random.default_rng(args.seed)
    if X.shape[0] > args.batch:
        sel = rng.choice(X.shape[0], size=args.batch, replace=False)
        X, Y = X[sel], Y[sel]
    # a loose root residual turns finite differences into noise
    model.rootfind_tol = 1e-12

    def loss(params, tape):
        value = objective(model, params, tape, X, Y)[1]
        return value if tape is not None else float(value)

    report = grad_check(loss, store, h=args.h)
    ok = bool(report.max_rel_err <= args.threshold)
    _emit({"max_rel_err": float(report.max_rel_err), "worst_param": report.worst_param,
           "threshold": args.threshold, "ok": ok, "rows": int(X.shape[0])})
    return 0 if ok else 1


_DISPATCH = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "rollout": _cmd_rollout,
    "eval": _cmd_eval,
    "lyap-solve": _cmd_lyap_solve,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = _apply_config(parser, commands, sys.argv[1:] if argv is None else argv)
        return _DISPATCH[args.command](args)
    except SystemExit as e:
        return int(e.code or 0)
    except (RootFindError, FloatingPointError, np.linalg.LinAlgError) as e:
        # before ValueError, which LinAlgError subclasses: lyap-solve's failure is numeric
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
