"""Dynamics models whose every step respects a learned Lyapunov decrease.

Three ways to turn a free network prediction y = fhat(x) into a certified
next state:

* "convex"     closed-form scaling. Valid when V is convex (icnn or
               convex_lnn): gamma = (bVx - relu(bVx - Vy)) / Vy with
               b = beta, applied only when V(y) > beta*V(x).
* "implicit"   solve V(gamma*y) = beta*V(x) for gamma in (0, 1) with a
               safeguarded Newton iteration, any V variant. Gradients flow
               through the solution by implicit differentiation, either via
               one fixed-point sweep (default) or closed-form Jacobians.
* "projection" remove the ascending component of the step increment along
               grad V(x). Keeps grad V(x)^T (x' - x) <= 0 but does not by
               itself certify a decrease of V.
* "none"       the free prediction untouched; the unconstrained baseline.

Steps are batched over rows; the scalar case is a batch of one. One code
path, built from the autodiff primitives, certifies every step: on raw
arrays for inference (model_step) and on a tape for training (step_expr).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .lyapunov import LyapunovNet, make_lyapunov
from .nets import Mlp

MODES = ("convex", "implicit", "projection", "none")
BACKWARD_ROUTES = ("fixed_point", "direct")

# below this value of V the prediction is already at the quadratic floor;
# scaling or root-finding there would divide by ~0 for no gain
ORIGIN_GUARD = 1e-12

# the gamma solver's budgets: Newton steps, then bisection steps
MAX_NEWTON = 50
MAX_BISECT = 60


class RootFindError(RuntimeError):
    """Raised when the gamma solve exhausts its budgets.

    Carries the tightest bracket found so callers can report or retry.
    """

    def __init__(self, msg, row=None, lo=None, hi=None, residual=None):
        super().__init__(msg)
        self.row = row
        self.lo = lo
        self.hi = hi
        self.residual = residual


@dataclass
class StepInfo:
    """Diagnostics for one batched step."""

    intervened: np.ndarray        # bool (B,)
    gamma: np.ndarray | None = None       # (B,), scaling modes only
    newton_iters: np.ndarray | None = None
    bisect_iters: np.ndarray | None = None
    residual: np.ndarray | None = None    # |V(gamma*y) - beta*V(x)| where solved


def check_certificate(model, modes) -> None:
    """Refuse a mode outside modes, and certificate settings no model can honour."""
    if model.mode not in modes:
        raise ValueError(f"mode must be one of {modes}")
    if not 0.0 < model.beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if model.rootfind_tol <= 0:
        raise ValueError("rootfind_tol must be positive")
    if model.backward_route not in BACKWARD_ROUTES:
        raise ValueError(f"backward_route must be one of {BACKWARD_ROUTES}")
    if model.mode == "convex" and model.lyap.variant == "lnn":
        raise ValueError("convex mode needs a convex V (icnn or convex_lnn)")


@dataclass
class StableModel:
    """A free predictor plus the Lyapunov machinery that constrains it."""

    mode: str
    fhat: Mlp
    lyap: LyapunovNet
    beta: float = 0.99
    rootfind_tol: float = 1e-3
    integrating: bool = False
    backward_route: str = "fixed_point"

    def __post_init__(self):
        check_certificate(self, MODES)
        if self.integrating and self.mode not in ("projection", "none"):
            # scaling the whole next state toward the origin has no sensible
            # increment form; only the increment-based models compose with x + delta
            raise ValueError("integrating form needs projection or none mode")

    @property
    def dim(self) -> int:
        return self.lyap.dim

    def init_params(self, store: ad.ParamStore, rng: np.random.Generator) -> None:
        self.fhat.init_params(store, rng)
        self.lyap.init_params(store, rng)


def make_model(mode: str, dim: int, variant: str, hidden_f=(25, 25), hidden_v=(25, 25),
               activation: str = "tanh", beta: float = 0.99, rootfind_tol: float = 1e-3,
               integrating: bool = False, epsilon: float = 0.001, d: float = 0.1,
               backward_route: str = "fixed_point") -> StableModel:
    fhat = Mlp(layer_dims=[dim, *tuple(hidden_f), dim], activation=activation,
               prefix="f", d=d)
    lyap = make_lyapunov(variant, dim, hidden=hidden_v, epsilon=epsilon, d=d)
    return StableModel(mode=mode, fhat=fhat, lyap=lyap, beta=beta,
                       rootfind_tol=rootfind_tol, integrating=integrating,
                       backward_route=backward_route)


# ---------------------------------------------------------------------------
# gamma by closed form (convex V)

def convex_gamma(v_x, v_y, beta: float):
    """Scaling factor for rows already known to violate V(y) <= beta*V(x)."""
    bvx = ad.mul(v_x, beta)
    return ad.div(ad.sub(bvx, ad.relu(ad.sub(bvx, v_y))), v_y)


# ---------------------------------------------------------------------------
# gamma by root finding

def solve_gamma_batch(lyap: LyapunovNet, store: ad.ParamStore, Y: np.ndarray,
                      target: np.ndarray, rootfind_tol: float = 1e-3,
                      max_newton: int = MAX_NEWTON, max_bisect: int = MAX_BISECT):
    """Solve V(gamma_b * Y_b) = target_b rowwise on the bracket [0, 1].

    Assumes V(Y_b) > target_b > 0 for every row, which gives
    g(0) = -target < 0 < g(1). Newton starts at gamma = 1; a proposal outside
    the open bracket becomes a bisection step, and every accepted point
    tightens the bracket using the sign of g. After max_newton Newton steps
    the iteration continues with bisection alone.

    Returns (gamma, residual, newton_iters, bisect_iters).
    """
    B = Y.shape[0]
    gamma = np.ones(B)
    n_newton = np.zeros(B, dtype=int)
    n_bisect = np.zeros(B, dtype=int)

    v, gv = lyap.value_and_grad(Y, store)
    g = v - target
    gp = (gv * Y).sum(axis=-1)
    # the rows still iterating, compacted in their original order; a row's
    # results go back to the full arrays once, when it converges
    rows = np.flatnonzero(np.abs(g) > rootfind_tol)
    Yc, tc, gc, gpc = Y[rows], target[rows], g[rows], gp[rows]
    gam = np.ones(rows.size)
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    nn = np.zeros(rows.size, dtype=int)
    nb = np.zeros(rows.size, dtype=int)

    while rows.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = gam - gc / np.where(gpc == 0.0, np.nan, gpc)
        ok = (nn < max_newton) & np.isfinite(newton) & (lo < newton) & (newton < hi)
        stalled = ~ok & (nb >= max_bisect)
        if np.any(stalled):
            i = int(np.flatnonzero(stalled)[0])
            b = int(rows[i])
            raise RootFindError(
                f"gamma solve stalled in row {b}: bracket [{lo[i]:.6g}, {hi[i]:.6g}], "
                f"|g| = {abs(gc[i]):.3g} > {rootfind_tol:.3g}",
                row=b, lo=float(lo[i]), hi=float(hi[i]), residual=float(abs(gc[i])))
        gam = np.where(ok, newton, 0.5 * (lo + hi))
        nn += ok
        nb += ~ok

        v_c, gv_c = lyap.value_and_grad(gam[:, None] * Yc, store)
        gc = v_c - tc
        gpc = (gv_c * Yc).sum(axis=-1)
        above = gc > 0.0
        hi = np.where(above, gam, hi)
        lo = np.where(above, lo, gam)

        going = np.abs(gc) > rootfind_tol
        if not going.all():
            done = ~going
            r = rows[done]
            gamma[r], g[r], n_newton[r], n_bisect[r] = gam[done], gc[done], nn[done], nb[done]
            rows, Yc, tc, gc, gpc = rows[going], Yc[going], tc[going], gc[going], gpc[going]
            gam, lo, hi, nn, nb = gam[going], lo[going], hi[going], nn[going], nb[going]

    return gamma, np.abs(g), n_newton, n_bisect


# ---------------------------------------------------------------------------
# the certified step, raw (tape None) or recorded

def as_batch(x):
    """(batch, dim) view of x, and whether x was a single state."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def certified_gamma_raw(lyap: LyapunovNet, store: ad.ParamStore, y, v_x, v_y,
                        beta: float, mode: str, rootfind_tol: float = 1e-3):
    """Row-wise scaling factors, 1.0 where V(y) <= beta*V(x) already holds.

    Rows whose prediction sits below the origin guard are left alone even if
    they fail the decrease test; they are within rounding of the fixed point.
    Returns (gamma, intervened, residual, newton_iters, bisect_iters).
    """
    B = y.shape[0]
    target = beta * v_x
    mask = (v_y > target) & (v_y >= ORIGIN_GUARD)
    gamma = np.ones(B)
    residual = np.zeros(B)
    n_newton = np.zeros(B, dtype=int)
    n_bisect = np.zeros(B, dtype=int)
    idx = np.flatnonzero(mask)
    if idx.size:
        solvable = target[idx] > 0.0
        # V(x) = 0 only at x = 0; the certified next state is the origin
        gamma[idx[~solvable]] = 0.0
        rows = idx[solvable]
        if rows.size and mode == "convex":
            gamma[rows] = convex_gamma(v_x[rows], v_y[rows], beta)
        elif rows.size:
            gamma[rows], residual[rows], n_newton[rows], n_bisect[rows] = solve_gamma_batch(
                lyap, store, y[rows], target[rows], rootfind_tol=rootfind_tol)
    return gamma, mask, residual, n_newton, n_bisect


def certified_gamma_expr(lyap: LyapunovNet, store: ad.ParamStore, tape: ad.Tape,
                         y, v_x, beta: float, mode: str, rootfind_tol: float = 1e-3,
                         backward_route: str = "fixed_point",
                         info: StepInfo | None = None):
    """Recorded (B,) scaling factors, or None when no row intervenes.

    certified_gamma_raw makes the decision on raw values: which rows
    intervene, the origin rows and the forward gamma. What is recorded is
    only a gradient surrogate on the intervening rows whose value is that
    gamma; rows left alone carry an exact 1.0. A StepInfo passed as info
    receives the decision.
    """
    v_y = lyap.value(y, store, tape)
    gamma, mask, residual, n_newton, n_bisect = certified_gamma_raw(
        lyap, store, ad.value_of(y), ad.value_of(v_x), ad.value_of(v_y), beta, mode,
        rootfind_tol)
    if info is not None:
        info.intervened, info.gamma, info.residual = mask, gamma, residual
        info.newton_iters, info.bisect_iters = n_newton, n_bisect
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None
    if mode != "convex" and np.any(gamma[idx] == 0.0):
        # V(x) = 0: the root sits at gamma = 0 where grad V vanishes, so the
        # implicit derivative divides by zero; the closed form has no such problem
        raise ValueError("intervention at the origin; gamma gradient undefined there")

    y_i = ad.gather_rows(y, idx)
    vx_i = ad.gather_rows(v_x, idx)
    if mode == "convex":
        gam_i = convex_gamma(vx_i, ad.gather_rows(v_y, idx), beta)
    elif backward_route == "fixed_point":
        gam_i = _fixed_point_gamma(lyap, store, tape, y_i, vx_i, beta, gamma[idx])
    else:
        gam_i = _direct_gamma_node(lyap, store, tape, y_i, vx_i, beta, gamma[idx])
    return ad.scatter_rows(gam_i, idx, mask.size, fill=1.0)


def _certify(model: StableModel, store: ad.ParamStore, tape, X, y):
    """The certified next state for the prediction y = fhat(X), and its StepInfo.

    Built from the autodiff primitives: on raw arrays when tape is None, on
    the tape otherwise. Rows left alone pass y through bit-exactly.
    """
    if model.mode == "none":
        out = ad.add(X, y) if model.integrating else y
        return out, StepInfo(intervened=np.zeros(X.shape[0], dtype=bool))
    if model.mode == "projection":
        return _projection(model, store, tape, X, y)

    v_x = model.lyap.value(X, store, tape)
    if tape is None:
        gamma, mask, residual, n_newton, n_bisect = certified_gamma_raw(
            model.lyap, store, y, v_x, model.lyap.value(y, store), model.beta,
            model.mode, model.rootfind_tol)
        info = StepInfo(mask, gamma, n_newton, n_bisect, residual)
        gamma = gamma if mask.any() else None
    else:
        info = StepInfo(intervened=None)
        gamma = certified_gamma_expr(model.lyap, store, tape, y, v_x, model.beta,
                                     model.mode, model.rootfind_tol,
                                     model.backward_route, info=info)
    return (y if gamma is None else ad.scale_rows(y, gamma)), info


def _projection(model: StableModel, store: ad.ParamStore, tape, X, y):
    """Remove the part of the increment that ascends along grad V(X)."""
    delta = y if model.integrating else ad.sub(y, X)
    gv = model.lyap.grad(X, store, tape)
    dot = ad.rowdot(gv, delta)
    mask = ad.value_of(dot) > 0.0
    idx = np.flatnonzero(mask)
    if idx.size:
        gv_i = ad.gather_rows(gv, idx)
        coef_i = ad.div(ad.gather_rows(dot, idx), ad.rowdot(gv_i, gv_i))
        coef = ad.scatter_rows(coef_i, idx, mask.size, fill=0.0)
        delta = ad.sub(delta, ad.scale_rows(gv, coef))
    return ad.add(X, delta), StepInfo(intervened=mask)


def model_step(model: StableModel, store: ad.ParamStore, x, want_info: bool = False):
    """One certified step for a batch of states (or a single state)."""
    X, single = as_batch(x)
    out, info = _certify(model, store, None, X, model.fhat.forward(X, store))
    if single:
        out = out[0]
    return (out, info) if want_info else out


def step_expr(model: StableModel, store: ad.ParamStore, tape: ad.Tape | None, X,
              return_free: bool = False):
    """The certified step of a (batch, dim) input, recorded on tape.

    The intervention pattern is decided on raw values and then frozen into
    the expression; gradients are exact on each side of the switching
    surface. With tape None the step runs raw, as in model_step. With
    return_free the free prediction fhat(X) comes back as well, as
    (step, free).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("step_expr expects a (batch, dim) input")
    y = model.fhat.forward(X, store, tape)
    out, _ = _certify(model, store, tape, X, y)
    return (out, y) if return_free else out


def rollout(model: StableModel, store: ad.ParamStore, x0, steps: int,
            record_v: bool = False):
    """Iterate model_step. x0 may be (n,) or (B, n).

    Returns trajectory of shape (steps+1, n) or (B, steps+1, n); with
    record_v also the V values along it, shape (steps+1,) or (B, steps+1).
    """
    X, single = as_batch(x0)
    B, n = X.shape
    traj = np.empty((B, steps + 1, n))
    traj[:, 0] = X
    vs = np.empty((B, steps + 1)) if record_v else None
    if record_v:
        vs[:, 0] = model.lyap.value(X, store)
    cur = X
    for t in range(steps):
        cur = model_step(model, store, cur)
        traj[:, t + 1] = cur
        if record_v:
            vs[:, t + 1] = model.lyap.value(cur, store)
    if single:
        traj = traj[0]
        if record_v:
            vs = vs[0]
    return (traj, vs) if record_v else traj


# ---------------------------------------------------------------------------
# gradient surrogates for the solved gamma

def _fixed_point_gamma(lyap, store, tape, y_i, vx_i, beta, gamma):
    """One more Newton map F(g) = g - (V(g y) - beta Vx)/(grad V(g y)^T y).

    The incoming gamma is held constant; at the root dF/dgamma = 0, so
    differentiating this single sweep gives the implicit derivative. The
    forward value stays the solved gamma.
    """
    p = ad.scale_rows(y_i, gamma)
    v_p, gv_p = lyap.value_and_grad(p, store, tape)
    g = ad.sub(v_p, ad.mul(vx_i, beta))
    gp = ad.rowdot(gv_p, y_i)
    return ad.override_value(ad.sub(gamma, ad.div(g, gp)), gamma)


def _direct_gamma_node(lyap, store, tape, y_i, vx_i, beta, gamma):
    """Custom node applying the closed-form implicit derivative.

    With p = gamma*y and the root equation V(p) - beta*V(x) = 0:
      dgamma/dy      = -gamma * grad V(p) / (grad V(p)^T y)
      dgamma/dV(x)   =  beta / (grad V(p)^T y)
      dgamma/dtheta_V = -(dV(p)/dtheta - beta dV(x)/dtheta) / (grad V(p)^T y),
    where the V(x) part arrives through the recorded vx_i expression and the
    explicit dV(p)/dtheta term is replayed on a side tape inside backward.
    """
    Y = ad.value_of(y_i)
    P = gamma[:, None] * Y
    gv_p = lyap.grad(P, store)
    denom = (gv_p * Y).sum(axis=-1)

    out = ad.Var(gamma, tape)

    def backward(gbar):
        w = gbar / denom            # (rows,)
        ad._accum(y_i, (-gamma * w)[:, None] * gv_p)
        ad._accum(vx_i, beta * w)
        side = ad.Tape()
        v_p = lyap.value(P, store, side)
        root = ad.vsum(ad.mul(v_p, -w))
        side.backward(root)

    out._backward = backward
    return tape._register(out)
