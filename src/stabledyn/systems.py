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
trajectory can be regenerated without the rest.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LINEAR_A = np.array([[0.9, 1.0], [0.0, 0.9]])


# ---------------------------------------------------------------------------
# integrators

def rk4_step(f, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def srk2_step(drift, diffusion, x: np.ndarray, h: float,
              rng: np.random.Generator) -> np.ndarray:
    """One step of a weak order-2 two-stage stochastic Runge-Kutta scheme.

    diffusion(x) returns the (n, m) matrix of channel columns. Each channel
    draws dW ~ N(0, h) and an independent sign S = +-1; the sign couples the
    two stages so that Ito correction terms come out right on average.
    """
    m = diffusion(x).shape[1]
    dW = rng.normal(0.0, np.sqrt(h), size=m)
    S = rng.integers(0, 2, size=m) * 2.0 - 1.0
    sq = np.sqrt(h)
    k1 = h * drift(x) + diffusion(x) @ (dW - S * sq)
    x1 = x + k1
    k2 = h * drift(x1) + diffusion(x1) @ (dW + S * sq)
    return x + 0.5 * (k1 + k2)


# ---------------------------------------------------------------------------
# the systems

def linear_step(x: np.ndarray, rng: np.random.Generator | None, b: float = 0.0) -> np.ndarray:
    out = LINEAR_A @ x
    if b != 0.0:
        if rng is None:
            raise ValueError("stochastic linear map needs a generator")
        out = out + b * x * rng.standard_normal()
    return out


def saturated_rhs(x: np.ndarray) -> np.ndarray:
    p, v = x
    return np.array([v, -v - np.sin(p) - 2.0 * np.clip(p + v, -1.0, 1.0)])


def sde_drift(x: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(x)
    if r < 1e-12:
        return np.zeros_like(x)
    s = 1.0 / np.sqrt(r)
    return np.array([-x[0] * s - x[0] + x[1],
                     -x[1] * s - (10.0 / 3.0) * x[1] + x[0]])


def sde_diffusion(x: np.ndarray) -> np.ndarray:
    return np.diag([np.sin(x[0]), x[1]])


def lorenz_rhs(x: np.ndarray, sigma: float = 10.0, rho: float = 28.0,
               b: float = 8.0 / 3.0) -> np.ndarray:
    return np.array([sigma * (x[1] - x[0]),
                     x[0] * (rho - x[2]) - x[1],
                     x[0] * x[1] - b * x[2]])


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


def system_step(name: str, x: np.ndarray, rng: np.random.Generator | None = None,
                h: float | None = None, b: float | None = None) -> np.ndarray:
    """One step of a system; h and b left as None take the system's own."""
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
    """The trajectory of steps+1 states from x0; h and b left as None take the
    system's own, and one the system never reads raises ValueError."""
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    spec = SYSTEMS[name]
    if h is not None and not spec.h:
        raise ValueError(f"h is not read by the {name} system")
    if b is not None and spec.b is None:
        raise ValueError(f"b is not read by the {name} system")
    if h is not None and not 0.0 < h < np.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    if b is not None and not np.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    rng = None if seed is None else np.random.default_rng(seed)
    x = np.asarray(x0, dtype=np.float64)
    traj = np.empty((steps + 1, x.size))
    traj[0] = x
    for t in range(steps):
        x = system_step(name, x, rng, h, b)
        traj[t + 1] = x
    return traj


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
    or the one start x0 (lorenz always runs from its own, (1, 1, 1)).
    """
    spec = SYSTEMS[system]
    steps = spec.steps if steps is None else steps
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
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
        starts = x0[None]
    else:
        if grid_points < 1:
            raise ValueError(f"grid_points must be at least 1, got {grid_points}")
        meta["grid"] = {"lo": lo, "hi": hi, "points": grid_points}
        starts = grid_starts(lo, hi, grid_points, spec.dim)
    trajs = [simulate(system, s, steps, seed=seed + i, h=h, b=b)
             for i, s in enumerate(starts)]
    X = np.concatenate([t[:-1] for t in trajs], axis=0)
    Y = np.concatenate([t[1:] for t in trajs], axis=0)
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
    path = Path(path)
    with path.open() as fh:
        r = csv.reader(fh)
        header = next(r)
        rows = np.array([[float(v) for v in row] for row in r])
    if rows.size == 0:
        raise ValueError(f"{path} holds no transition rows")
    n = sum(1 for c in header if c.startswith("x"))
    meta = {}
    side = path.with_suffix(".json")
    if side.exists():
        meta = json.loads(side.read_text())
    return rows[:, :n], rows[:, n:], meta
