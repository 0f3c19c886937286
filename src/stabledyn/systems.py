"""Reference systems, integrators, and dataset plumbing.

Everything downstream trains on transition pairs (x_t, x_{t+1}). The systems
here produce them:

* "linear"      discrete map x' = A x + b x w, w ~ N(0,1), A a spiral-free
                Jordan-type matrix; its own gain b = 0 gives the noiseless version
* "linear-stoch" the same map with its own gain b = 0.1
* "saturated"   damped pendulum-like ODE with a saturated input, RK4
* "sde"         two-dimensional stochastic differential equation with a
                radial drift and state-dependent diagonal noise, integrated
                by a two-stage stochastic Runge-Kutta scheme
* "lorenz"      the usual chaotic benchmark, RK4

Trajectory i of a dataset uses the stream seed base+i, so any single
trajectory can be regenerated without the rest, although a grid's starts
are all stepped together as one batch.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .validate import check_count

LINEAR_A = np.array([[0.9, 1.0], [0.0, 0.9]])


# ---------------------------------------------------------------------------
# integrators
#
# Every step and field works on the last axis, so one code path serves a
# single state (n,) and a batch of states (S, n). Noise is drawn per row:
# rng is one Generator for a single state, or a sequence of one per row.

def _state(*coords):
    """The state with these coordinates on its last axis: (n,) from numbers,
    (S, n) from (S,) arrays; the inverse of x.T[i]. On a single state both
    keep numpy scalars, whose arithmetic is several times cheaper than that
    of the 0-d arrays x[..., i] gives, and np.array than np.stack."""
    return np.array(coords).T


def _matvec(M, v):
    """M @ v over the last axes; each row rounds as a plain 2-D M @ v does,
    which v @ M.T and einsum do not."""
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


def _dot_self(x):
    """x . x over the last axis, each row rounded as np.linalg.norm rounds
    one state's; norm(axis=-1), (x*x).sum(-1) and hypot differ from it in
    the last bit on some rows."""
    return x.dot(x) if x.ndim == 1 else (x[..., None, :] @ x[..., :, None])[..., 0, 0]


class _PerRow:
    """A sequence of one Generator per row of a batch, drawn from as one
    Generator: each draw stacks row i's draw from generator i, so every
    row's stream runs as it would for that row alone."""

    def __init__(self, rngs):
        self.rngs = rngs

    def __getattr__(self, name):
        draws = [getattr(g, name) for g in self.rngs]
        return lambda *args, **kw: np.array([d(*args, **kw) for d in draws])


def _generator(rng):
    """rng itself when None or one Generator; a sequence as _PerRow."""
    return rng if rng is None or isinstance(rng, np.random.Generator) else _PerRow(rng)


def rk4_step(f, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def srk2_step(drift, diffusion, x: np.ndarray, h: float, rng) -> np.ndarray:
    """One step of a weak order-2 two-stage stochastic Runge-Kutta scheme.

    x is one state (n,) with one Generator rng, or a batch (S, n) with one
    Generator per row; diffusion(x) returns the (n, m) matrix of channel
    columns, or (S, n, m) for a batch. Each channel draws dW ~ N(0, h) and
    an independent sign S = +-1, in that order on each row's generator; the
    sign couples the two stages so that Ito correction terms come out right
    on average.
    """
    rng = _generator(rng)
    g_x = diffusion(x)
    m = g_x.shape[-1]
    dW = rng.normal(0.0, np.sqrt(h), size=m)
    S = rng.integers(0, 2, size=m) * 2.0 - 1.0
    sq = np.sqrt(h)
    k1 = h * drift(x) + _matvec(g_x, dW - S * sq)
    x1 = x + k1
    k2 = h * drift(x1) + _matvec(diffusion(x1), dW + S * sq)
    return x + 0.5 * (k1 + k2)


# ---------------------------------------------------------------------------
# the systems

def linear_step(x: np.ndarray, rng, b: float = 0.0) -> np.ndarray:
    out = _matvec(LINEAR_A, x)
    if b != 0.0:
        if rng is None:
            raise ValueError("stochastic linear map needs a generator")
        w = _generator(rng).standard_normal()   # one number per row
        out = out + (b * x.T * w).T
    return out


def saturated_rhs(x: np.ndarray) -> np.ndarray:
    xt = x.T
    p, v = xt[0], xt[1]
    return _state(v, -v - np.sin(p) - 2.0 * np.clip(p + v, -1.0, 1.0))


def sde_drift(x: np.ndarray) -> np.ndarray:
    r = np.sqrt(_dot_self(x))
    origin = r < 1e-12
    s = 1.0 / np.sqrt(r + origin)   # r + 0 is r; origin rows are zeroed below
    xt = x.T
    x0, x1 = xt[0], xt[1]
    out = _state(-x0 * s - x0 + x1, -x1 * s - (10.0 / 3.0) * x1 + x0)
    if np.count_nonzero(origin):
        out[origin] = 0.0
    return out


def sde_diffusion(x: np.ndarray) -> np.ndarray:
    xt = x.T
    d = np.zeros(x.shape + x.shape[-1:])
    d[..., 0, 0] = np.sin(xt[0])
    d[..., 1, 1] = xt[1]
    return d


def lorenz_rhs(x: np.ndarray, sigma: float = 10.0, rho: float = 28.0,
               b: float = 8.0 / 3.0) -> np.ndarray:
    xt = x.T
    x0, x1, x2 = xt[0], xt[1], xt[2]
    return _state(sigma * (x1 - x0), x0 * (rho - x2) - x1, x0 * x1 - b * x2)


@dataclass
class SystemSpec:
    dim: int
    h: float           # step size where a scheme applies, else 0
    steps: int = 40    # default trajectory length
    x0: tuple | None = None    # the one start of a system run without a grid
    b: float | None = None     # the linear map's noise gain; None: reads no gain


SYSTEMS = {
    "linear": SystemSpec(2, 0.0, b=0.0),
    "linear-stoch": SystemSpec(2, 0.0, b=0.1),
    "saturated": SystemSpec(2, 0.1),
    "sde": SystemSpec(2, 0.05, steps=10),
    "lorenz": SystemSpec(3, 0.01, steps=3000, x0=(1.0, 1.0, 1.0)),
}


def system_step(name: str, x: np.ndarray, rng=None, h: float | None = None,
                b: float | None = None) -> np.ndarray:
    """One step of a system from one state (n,) or a batch (S, n); h and b
    left as None take the system's own. rng is one Generator for a single
    state or a sequence of one per row of a batch; only the noisy systems
    read it."""
    spec = SYSTEMS[name]
    hh = spec.h if h is None else h
    if spec.b is not None:
        return linear_step(x, rng, spec.b if b is None else b)
    if name == "saturated":
        return rk4_step(saturated_rhs, x, hh)
    if name == "sde":
        if rng is None:
            raise ValueError("sde needs a generator")
        return srk2_step(sde_drift, sde_diffusion, x, hh, rng)
    return rk4_step(lorenz_rhs, x, hh)


def simulate(name: str, x0: np.ndarray, steps: int, seed: int | None = None,
             h: float | None = None, b: float | None = None) -> np.ndarray:
    """The trajectory of steps+1 states from x0, shape (steps+1, n).

    x0 may also be a batch of starts (S, n); the result is then
    (S, steps+1, n), every start stepped together, and row i draws its noise
    from the stream seed+i, so it equals simulate(name, x0[i], steps,
    seed=seed+i) bit for bit. h and b left as None take the system's own,
    and one the system never reads raises ValueError, as does an x0 that is
    not finite or not shaped (n,) or (S, n) with n the system's dimension,
    and a seed that is neither None nor an integer of at least 0.
    """
    check_count("steps", steps, least=0)
    if seed is not None:
        check_count("seed", seed, least=0)
    spec = SYSTEMS[name]
    if h is not None and not spec.h:
        raise ValueError(f"h is not read by the {name} system")
    if b is not None and spec.b is None:
        raise ValueError(f"b is not read by the {name} system")
    if h is not None and not 0.0 < h < np.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    if b is not None and not np.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    x = np.asarray(x0, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.dim or x.size == 0:
        raise ValueError(f"x0 must be one {name} start ({spec.dim},) or a batch "
                         f"(S, {spec.dim}) of them, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if seed is None:
        rng = None
    elif x.ndim == 1:
        rng = np.random.default_rng(seed)
    else:
        rng = [np.random.default_rng(seed + i) for i in range(len(x))]
    traj = np.empty((steps + 1,) + x.shape)
    traj[0] = x
    for t in range(steps):
        x = system_step(name, x, rng, h, b)
        traj[t + 1] = x
    return np.moveaxis(traj, 0, -2)


# ---------------------------------------------------------------------------
# exact expected-decrease certificate for the linear map

def solve_discrete_lyapunov(A: np.ndarray, B, Q: np.ndarray) -> np.ndarray:
    """P solving A^T P A + B^T P B - P = -Q for x' = A x + B x w, w ~ N(0,1).

    B may be a scalar b, read as b*I. Solved by vectorizing:
    (I - kron(A^T, A^T) - kron(B^T, B^T)) vec(P) = vec(Q). A must be square
    and a matrix B, like Q, of A's shape; otherwise a ValueError names the
    argument. The result is symmetrized and must come out finite and positive
    definite, otherwise no quadratic certificate exists and
    np.linalg.LinAlgError (a ValueError too) is raised.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    n = A.shape[0]
    if np.ndim(B) == 0:
        B = float(B) * np.eye(n)
    B = np.asarray(B, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    for name, M in (("B", B), ("Q", Q)):
        if M.shape != A.shape:
            raise ValueError(f"{name} has shape {M.shape}, A has {A.shape}")
    M = np.eye(n * n) - np.kron(A.T, A.T) - np.kron(B.T, B.T)
    P = np.linalg.solve(M, Q.reshape(-1)).reshape(n, n)
    P = 0.5 * (P + P.T)
    if not (np.isfinite(P).all() and np.linalg.eigvalsh(P).min() > 0.0):
        raise np.linalg.LinAlgError(
            "no positive definite solution; the map is not mean-square stable")
    return P


# ---------------------------------------------------------------------------
# datasets

def grid_starts(lo: float, hi: float, points: int, dim: int = 2) -> np.ndarray:
    axis = np.linspace(lo, hi, points)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def generate_transitions(system: str, seed: int = 0, steps: int | None = None,
                         lo: float = -6.0, hi: float = 6.0, grid_points: int = 14,
                         h: float | None = None, b: float | None = None,
                         x0=None):
    """Transition pairs for a system, plus the metadata that reproduces them.

    steps, h and b left as None take the system's own (SYSTEMS[system]): 40
    steps, but 10 for sde and 3000 for lorenz; b, recorded for the linear
    maps only, 0 for "linear" and 0.1 for "linear-stoch"; an h or b the
    system never reads is refused, as simulate refuses it. Trajectory i runs
    from start i with seed seed+i: grid_points per axis over [lo, hi]^dim,
    all stepped together by one simulate call, or the one start x0 (lorenz
    always runs from its own, (1, 1, 1)). The rows are trajectory-major.
    """
    spec = SYSTEMS[system]
    steps = spec.steps if steps is None else steps
    check_count("steps", steps)
    check_count("seed", seed, least=0)
    meta = {"system": system, "h": spec.h if h is None else h, "seed": seed,
            "grid": None, "steps": steps}
    if spec.b is not None:
        meta["b"] = spec.b if b is None else b
    x0 = spec.x0 if x0 is None else x0
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (spec.dim,):
            raise ValueError(f"{system} starts need {spec.dim} coordinates")
        meta["x0"] = x0.tolist()
        starts = x0   # one start keeps the cheaper single-state path
    else:
        check_count("grid_points", grid_points)
        meta["grid"] = {"lo": lo, "hi": hi, "points": grid_points}
        starts = grid_starts(lo, hi, grid_points, spec.dim)
    traj = simulate(system, starts, steps, seed=seed, h=h, b=b)
    X = traj[..., :-1, :].reshape(-1, spec.dim)
    Y = traj[..., 1:, :].reshape(-1, spec.dim)
    return X, Y, meta


def save_transitions(path, X: np.ndarray, Y: np.ndarray, meta: dict) -> None:
    """CSV of x1..xn,y1..yn rows at full precision, with a JSON sidecar."""
    path = Path(path)
    n = X.shape[1]
    header = [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for xr, yr in zip(X, Y):
            w.writerow([f"{v:.17g}" for v in xr] + [f"{v:.17g}" for v in yr])
    path.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")


def load_transitions(path):
    """(X, Y, meta) from save_transitions' files. A header other than
    x1..xn,y1..yn, or a row without 2n numbers, raises ValueError naming it."""
    path = Path(path)
    with path.open() as fh:
        r = csv.reader(fh)
        header = next(r, [])
        n = len(header) // 2
        if n < 1 or header != [f"{c}{i+1}" for c in "xy" for i in range(n)]:
            raise ValueError(f"{path} line 1: need the header x1..xn,y1..yn, "
                             f"got {','.join(header)!r}")
        rows = []
        for row in r:
            try:
                if len(row) != 2 * n:
                    raise ValueError(f"{len(row)} values, the header names {2 * n}")
                rows.append([float(v) for v in row])
            except ValueError as e:
                raise ValueError(f"{path} line {r.line_num}: {e}") from None
    rows = np.array(rows)
    if rows.size == 0:
        raise ValueError(f"{path} holds no transition rows")
    meta = {}
    side = path.with_suffix(".json")
    if side.exists():
        meta = json.loads(side.read_text())
    return rows[:, :n], rows[:, n:], meta
