"""Command line entry points.

Subcommands cover the whole workflow: generate transition data, train a
model, roll it out, evaluate it, solve for an exact quadratic certificate of
the linear benchmark, and spot-check gradients. Results go to stdout as
JSON; progress and diagnostics go to stderr. Exit code 0 means success, 2 a
usage or validation problem, 1 a numeric failure at runtime.

A JSON file passed as --config supplies defaults for the chosen subcommand;
explicit flags always win.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, grad_check
from .deterministic import RootFindError, make_model, rollout, step_expr
from .model_io import load_model, save_model
from .stochastic import (StochasticModel, make_stochastic_model, mdn_forward,
                         mdn_nll, stochastic_rollout)
from .systems import generate_transitions, load_transitions, save_transitions, solve_discrete_lyapunov
from .training import (TrainConfig, evaluate_mse, evaluate_nll,
                       evaluate_violations, train)

GEN_SYSTEMS = ("linear", "linear-stoch", "saturated", "sde", "lorenz")
DEFAULT_STEPS = {"lorenz": 3000, "sde": 10}
MODEL_CHOICES = ("convex", "implicit", "projection", "none",
                 "mdn-convex", "mdn-implicit", "mdn-none")
V_CHOICES = ("icnn", "lnn", "convex-lnn")


def _parse_vector(value) -> np.ndarray:
    parts = value if isinstance(value, (list, tuple)) else value.split(",")
    return np.array([float(v) for v in parts])


def _parse_matrix(text: str) -> np.ndarray:
    return np.array([[float(v) for v in row.split(",")] for row in text.split(";")])


def _parse_hidden(value) -> tuple:
    parts = value if isinstance(value, (list, tuple)) else value.split(",")
    return tuple(int(v) for v in parts)


def _parse_grid(value) -> tuple:
    parts = value if isinstance(value, (list, tuple)) else value.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be lo,hi,count")
    return float(parts[0]), float(parts[1]), int(parts[2])


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
    p.add_argument("--system", required=True, choices=GEN_SYSTEMS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=None,
                   help="steps per trajectory (default 40; 10 stochastic, 3000 chaotic)")
    p.add_argument("--grid", type=_parse_grid, default=None,
                   help="lo,hi,count start grid per axis (default -6,6,14)")
    p.add_argument("--x0", type=_parse_vector, default=None,
                   help="single trajectory from this comma-separated start instead")
    p.add_argument("--h", type=float, default=None, help="override the step size")
    p.add_argument("--b", type=float, default=None,
                   help="noise gain of the linear map (default 0.1 for linear-stoch)")

    p = add("train", "fit a model to transition data")
    p.add_argument("--model", required=True, choices=MODEL_CHOICES,
                   help="stability mode; mdn- prefix switches to the mixture model")
    p.add_argument("--v", choices=V_CHOICES, default="icnn",
                   help="Lyapunov network variant")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=2, help="mixture components (mdn)")
    p.add_argument("--sigma-cap", type=float, default=1.0)
    p.add_argument("--integrating", action="store_true",
                   help="treat the free prediction as an increment")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.0025)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=0.99)
    p.add_argument("--rootfind-tol", type=float, default=1e-3)
    p.add_argument("--hidden-f", type=_parse_hidden, default=(25, 25))
    p.add_argument("--hidden-v", type=_parse_hidden, default=(25, 25))
    p.add_argument("--activation", choices=["tanh", "relu", "smooth_relu"], default="tanh")
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
    p.add_argument("--b", default="0", help="scalar or matrix noise gain")
    p.add_argument("--q", default=None, help="right-hand side, default identity")

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
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok in NUMERIC_LIST_FLAGS and len(nxt) > 1 and nxt[0] == "-"
                and (nxt[1].isdigit() or nxt[1] == ".")):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _apply_config(parser, commands, argv):
    argv = _preprocess(argv)
    args = parser.parse_args(argv)
    cfg_path = getattr(args, "config", None)
    if not cfg_path:
        return args
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    sub = commands[args.command]
    actions = {a.dest: a for a in sub._actions}
    unknown = sorted(set(cfg) - set(actions))
    if unknown:
        raise ValueError(f"config keys not recognized by {args.command!r}: {unknown}")
    for key, val in cfg.items():
        conv = actions[key].type
        # set_defaults skips argparse's own conversion, so mirror it here
        if conv is not None and isinstance(val, (str, list)):
            cfg[key] = conv(val)
    sub.set_defaults(**cfg)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_gen(args) -> int:
    system = args.system
    name = "linear" if system == "linear-stoch" else system
    b = args.b
    if b is None:
        b = 0.1 if system == "linear-stoch" else 0.0
    steps = args.steps if args.steps is not None else DEFAULT_STEPS.get(name, 40)
    if args.x0 is not None and args.grid is not None:
        raise ValueError("give either --grid or --x0, not both")
    common = dict(seed=args.seed, steps=steps, h=args.h, b=b)
    if args.x0 is not None:
        X, Y, meta = generate_transitions(name, x0=args.x0, **common)
    else:
        lo, hi, count = args.grid if args.grid is not None else (-6.0, 6.0, 14)
        X, Y, meta = generate_transitions(name, lo=lo, hi=hi, grid_points=count,
                                          **common)
    save_transitions(args.out, X, Y, meta)
    _emit({"path": args.out, "rows": int(X.shape[0]), "system": system,
           "steps": steps})
    return 0


def _cmd_train(args) -> int:
    X, Y, _ = load_transitions(args.data)
    dim = X.shape[1]
    variant = args.v.replace("-", "_")
    if args.model.startswith("mdn-"):
        model = make_stochastic_model(args.model[4:], dim, variant, k=args.k,
                                      hidden_f=args.hidden_f, hidden_v=args.hidden_v,
                                      sigma_cap=args.sigma_cap, beta=args.beta,
                                      rootfind_tol=args.rootfind_tol,
                                      activation=args.activation)
    else:
        model = make_model(args.model, dim, variant, hidden_f=args.hidden_f,
                           hidden_v=args.hidden_v, activation=args.activation,
                           beta=args.beta, rootfind_tol=args.rootfind_tol,
                           integrating=args.integrating)
    store = ParamStore()
    model.init_params(store, np.random.default_rng(args.seed))
    config = TrainConfig(epochs=args.epochs, lr=args.lr, batch_size=args.batch_size,
                         seed=args.seed, verbose=args.verbose)
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


def _cmd_eval(args) -> int:
    model, store = load_model(args.model_file)
    X, Y, _ = load_transitions(args.data)
    is_mdn = isinstance(model, StochasticModel)
    metric = args.metric
    if metric == "auto":
        metric = "nll" if is_mdn else "mse"
    if metric == "mse":
        if is_mdn:
            raise ValueError("mse scores a deterministic model")
        value = evaluate_mse(model, store, X, Y)
    elif metric == "nll":
        if not is_mdn:
            raise ValueError("nll scores a mixture model")
        value = evaluate_nll(model, store, X, Y)
    else:
        value = evaluate_violations(model, store, X)
    _emit({"metric": metric, "value": value, "rows": int(X.shape[0])})
    return 0


def _cmd_lyap_solve(args) -> int:
    A = args.a
    b_text = args.b
    B = _parse_matrix(b_text) if ";" in b_text or "," in b_text else float(b_text)
    Q = np.eye(A.shape[0]) if args.q is None else _parse_matrix(args.q)
    try:
        P = solve_discrete_lyapunov(A, B, Q)
    except ValueError as e:
        # well-formed flags, no certificate: a numeric failure, not usage
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1
    Bm = B if isinstance(B, np.ndarray) else float(B) * np.eye(A.shape[0])
    residual = float(np.abs(A.T @ P @ A + Bm.T @ P @ Bm - P + Q).max())
    _emit({"p": P.tolist(), "residual": residual,
           "min_eig": float(np.linalg.eigvalsh(P).min())})
    return 0


def _cmd_gradcheck(args) -> int:
    model, store = load_model(args.model_file)
    X, Y, _ = load_transitions(args.data)
    if X.shape[1] != model.dim:
        raise ValueError(f"data has {X.shape[1]} columns, model expects {model.dim}")
    rng = np.random.default_rng(args.seed)
    if X.shape[0] > args.batch:
        sel = rng.choice(X.shape[0], size=args.batch, replace=False)
        X, Y = X[sel], Y[sel]
    # a loose root residual turns finite differences into noise
    model.rootfind_tol = 1e-12

    def loss(params, tape):
        if isinstance(model, StochasticModel):
            value = mdn_nll(mdn_forward(model, params, X, tape), Y)
        else:
            diff = ad.sub(step_expr(model, params, tape, X), Y)
            value = ad.mean(ad.mul(diff, diff))
        return value if tape is not None else float(ad.value_of(value))

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
    except SystemExit as e:
        return int(e.code or 0)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, KeyError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RootFindError, FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
