"""Dynamics models whose every step respects a learned Lyapunov decrease.

Three ways to turn a free network prediction y = fhat(x) into a certified
next state:

* "convex"     closed-form scaling. Valid when V is convex (icnn or
               convex_lnn): gamma = beta*V(x) / V(y), applied only when
               V(y) > beta*V(x).
* "implicit"   solve V(gamma*y) = beta*V(x) for gamma in (0, 1) with a
               safeguarded Newton iteration, any V variant. Gradients flow
               through the solution by implicit differentiation: one more
               Newton step from the solved gamma, whose denominator
               grad V(gamma*y)^T y the backward route records ("fixed_point",
               the default) or holds raw ("direct", which leaves the
               closed-form implicit derivative).
* "projection" remove the ascending component of the step increment along
               grad V(x). Keeps grad V(x)^T (x' - x) <= 0 but does not by
               itself certify a decrease of V.
* "none"       the free prediction untouched; the unconstrained baseline.

Steps are batched over rows; the scalar case is a batch of one. One code
path, built from the autodiff primitives, certifies every step: on raw
arrays for inference (model_step) and on a tape for training (step_expr).
Both make one V pass and one decision on its values (_decision), reported
as the step's StepInfo: which rows intervene and what gamma puts them
back. The pass evaluates V(x) and V(y) on the stacked rows for up to
STACK_ROWS / 2 rows, in the same batches with a tape as without, so raw and
recorded steps agree bit for bit. In implicit mode it runs raw along the
rays gamma*y (LyapunovNet.ray) at gamma = 1 and reads dV/dgamma with V; the
gamma solve walks the intervening rows' rays from there, and the tape
records V(x) only on those rows. The StepInfo carries the raw V values the
step computed, so checking its certificate needs V again only where the
step never evaluated it.

The entries take their states by validate.check_states: model_step and
rollout one state or a (batch, dim) array, step_expr a (batch, dim) array.
They refuse a state that is not finite, naming its rows: at NaN a
certified step returns NaN, and at inf V(x) = inf switches the certificate
off, each with nothing flagged. Mode "none" certifies nothing and its steps
pass such a state through; rollout refuses a non-finite start in every
mode.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from . import autodiff as ad
from .lyapunov import LyapunovNet, Ray
from .nets import Mlp
from .validate import check_between, check_count, check_states, check_widths

MODES = ("convex", "implicit", "projection", "none")
BACKWARD_ROUTES = ("fixed_point", "direct")

# below this value of V the prediction is already at the quadratic floor;
# scaling or root-finding there would divide by ~0 for no gain
ORIGIN_GUARD = 1e-12

# the gamma solver's budgets: Newton steps, then bisection steps
MAX_NEWTON = 50
MAX_BISECT = 60

# the raw V pass stacks X and y into one call up to this many rows. Past
# about 100 KB per (rows, width) temporary numpy's cost per element rises:
# at width 25 a stacked step measured faster than the separate calls at
# batch 128 and slower from batch 192, on random and on trained models.
# The implicit pass along the rays at gamma = 1 keeps the threshold: the
# stacked ray pass took 0.74/0.76/0.83 (icnn) and 0.75/0.82/0.88 (lnn) of
# a value call on X plus the ray pass on y at batch 64/96/128 (medians of
# 21 interleaved timings, one thread, 2-core x86_64), and from 0.89 to 1.7
# of it at batch 192 from run to run
STACK_ROWS = 256


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
    """The report of one batched certified step, a model's or a mixture
    mean's: its decisions, and the raw V values it computed.

    The V fields are what the step evaluated anyway, so a caller can check
    the certificate without evaluating V again (training's violation count).
    v_cert covers only the intervening rows, in row order: V at their
    certified states from the gamma solve (V = 0 exactly at the origin) or
    a mixture's sigma tether, else None until v_certified evaluates it.
    """

    intervened: np.ndarray        # bool (B,)
    gamma: np.ndarray | None = None       # (B,), scaling modes only
    newton_iters: np.ndarray | None = None
    bisect_iters: np.ndarray | None = None
    residual: np.ndarray | None = None    # |V(gamma*y) - beta*V(x)| where solved
    v_x: np.ndarray | None = None         # (B,) V(x), scaling modes only
    v_y: np.ndarray | None = None         # (B,) V at the free prediction y, scaling modes only
    grad_x: np.ndarray | None = None      # (B, n) grad V(x), projection mode only
    v_cert: np.ndarray | None = None      # V at the intervening rows' certified states

    def v_certified(self, lyap: LyapunovNet, store: ad.ParamStore, states, g0=None):
        """V at the raw certified states (B,): v_y on the rows left alone,
        which pass y through bit for bit, and v_cert on the moved rows. A
        missing v_cert is evaluated (with g0 as the icnn's g(0)) and kept."""
        idx = np.flatnonzero(self.intervened)
        if not idx.size:
            return self.v_y
        if self.v_cert is None:
            self.v_cert = lyap.value(states[idx], store, g0=g0)
        v = self.v_y.copy()
        v[idx] = self.v_cert
        return v


@dataclass
class Certified:
    """The settings every certified model shares, and the V they build.

    A model's dataclass fields are its settings and nothing else: its
    networks are plain attributes built from them, so fields() and asdict()
    give exactly what a saved file records.
    """

    MODES = MODES

    mode: str
    dim: int
    variant: str
    _: KW_ONLY
    hidden_f: tuple = (25, 25)
    hidden_v: tuple = (25, 25)
    beta: float = 0.99
    rootfind_tol: float = 1e-3
    backward_route: str = "fixed_point"

    def __post_init__(self):
        self.dim = check_count("dim", self.dim)
        for name in ("hidden_f", "hidden_v"):
            setattr(self, name, check_widths(name, getattr(self, name), f"a {name} width"))
        self.beta = check_between("beta", self.beta, 0.0, 1.0)
        self.rootfind_tol = check_between("rootfind_tol", self.rootfind_tol, 0.0, np.inf)
        if self.mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        if self.backward_route not in BACKWARD_ROUTES:
            raise ValueError(f"backward_route must be one of {BACKWARD_ROUTES}")
        if self.mode == "convex" and self.variant == "lnn":
            raise ValueError("convex mode needs a convex V (icnn or convex_lnn)")
        self.lyap = LyapunovNet(self.variant, self.dim, self.hidden_v)

    def _mlp(self, prefix: str, out_dim: int) -> Mlp:
        return Mlp(layer_dims=[self.dim, *self.hidden_f, out_dim], prefix=prefix)

    def init_params(self, store: ad.ParamStore, rng: np.random.Generator) -> None:
        for net in self.nets:
            net.init_params(store, rng)


@dataclass(kw_only=True)
class StableModel(Certified):
    """A free predictor fhat plus the Lyapunov machinery that constrains it."""

    integrating: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.integrating, (bool, np.bool_)):
            raise ValueError(f"integrating must be true or false, got {self.integrating!r}")
        self.integrating = bool(self.integrating)
        if self.integrating and self.mode not in ("projection", "none"):
            # scaling the whole next state toward the origin has no sensible
            # increment form; only the increment-based models compose with x + delta
            raise ValueError("integrating form needs projection or none mode")
        self.fhat = self._mlp("f", self.dim)
        self.nets = (self.fhat, self.lyap)


# the model's one construction path, under the name callers know
make_model = StableModel


# ---------------------------------------------------------------------------
# gamma by closed form (convex V)

def convex_gamma(v_x, v_y, beta: float):
    """beta*V(x)/V(y), for rows already known to violate V(y) <= beta*V(x).

    The paper's (beta*V(x) - relu(beta*V(x) - V(y))) / V(y) has the same bits
    and gradients on such rows: its relu is an exact 0 with a zero pullback.
    """
    return ad.div(ad.mul(v_x, beta), v_y)


# ---------------------------------------------------------------------------
# gamma by root finding

def solve_gamma_batch(ray: Ray, v: np.ndarray, slope: np.ndarray, target: np.ndarray,
                      rootfind_tol: float = 1e-3, max_newton: int = MAX_NEWTON,
                      max_bisect: int = MAX_BISECT):
    """Solve V(gamma_b * Y_b) = target_b rowwise on the bracket [0, 1].

    ray is V along the rows Y (LyapunovNet.ray); v and slope are V(Y) and
    dV/dgamma at gamma = 1, which the caller holds already from one
    ray.at(ones). Assumes V(Y_b) > target_b > 0 for every row, which gives
    g(0) = -target < 0 < g(1). A row already within rootfind_tol of its
    target stops at gamma = 1; the others take their first Newton step from
    slope, with no evaluation of their own. Newton starts at gamma = 1; a
    proposal outside the open bracket becomes a bisection step (so does a
    zero or NaN slope, whose proposal is not finite), and every accepted
    point tightens the bracket using the sign of g. After max_newton Newton
    steps the iteration continues with bisection alone. Each iteration is
    one ray.at on the rows still iterating.

    Returns (gamma, V at gamma, newton_iters, bisect_iters).
    """
    B = v.shape[0]
    gamma = np.ones(B)
    v_out = v.copy()
    n_newton = np.zeros(B, dtype=int)
    n_bisect = np.zeros(B, dtype=int)

    g = v - target
    # the rows still iterating, compacted in their original order; a row's
    # results go back to the full arrays once, when it converges
    rows = np.flatnonzero(np.abs(g) > rootfind_tol)
    if not rows.size:
        return gamma, v_out, n_newton, n_bisect
    if rows.size < B:
        ray = ray.take(rows)
    tc, gc = target[rows], g[rows]
    gpc = slope[rows]
    gam = np.ones(rows.size)
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    nn = np.zeros(rows.size, dtype=int)
    # every row still iterating has made `it` steps: nn by Newton, the rest
    # by bisection. So neither budget needs a test before `it` reaches it
    it = 0

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            newton = gc / gpc
            np.subtract(gam, newton, out=newton)
            ok = lo < newton
            ok &= newton < hi
            if it >= max_newton:
                ok &= nn < max_newton
            if it >= max_bisect:
                stalled = ~ok & (it - nn >= max_bisect)
                if stalled.any():
                    i = int(np.flatnonzero(stalled)[0])
                    b = int(rows[i])
                    raise RootFindError(
                        f"gamma solve stalled in row {b}: bracket [{lo[i]:.6g}, {hi[i]:.6g}], "
                        f"|g| = {abs(gc[i]):.3g} > {rootfind_tol:.3g}",
                        row=b, lo=float(lo[i]), hi=float(hi[i]), residual=float(abs(gc[i])))
            gam = newton if ok.all() else np.where(ok, newton, 0.5 * (lo + hi))
            nn += ok
            it += 1

            v_c, gpc = ray.at(gam)
            gc = v_c - tc
            above = gc > 0.0
            np.copyto(hi, gam, where=above)
            np.copyto(lo, gam, where=~above)

            going = np.abs(gc) > rootfind_tol
            if going.all():
                continue
            done = ~going
            r, nn_r = rows[done], nn[done]
            gamma[r], v_out[r], n_newton[r], n_bisect[r] = gam[done], v_c[done], nn_r, it - nn_r
            rows = rows[going]
            if not rows.size:
                return gamma, v_out, n_newton, n_bisect
            tc, gc, gpc = tc[going], gc[going], gpc[going]
            gam, lo, hi, nn = gam[going], lo[going], hi[going], nn[going]
            ray = ray.take(going)


# ---------------------------------------------------------------------------
# the certified step, raw (tape None) or recorded

def _decide(model, v_x, v_y, ray: Ray | None = None, slope=None) -> StepInfo:
    """The certificate's decision on raw values, as the step's StepInfo.

    model is a StableModel or a StochasticModel; its lyap, mode, beta and
    rootfind_tol define the certificate. A row intervenes where V(y) >
    beta*V(x), unless its prediction sits below the origin guard, within
    rounding of the fixed point. Implicit mode needs ray, the rays gamma*y
    of every row (LyapunovNet.ray), and slope, dV/dgamma at gamma = 1 as the
    ray.at(ones) that gave v_y read it: the gamma solve walks the
    intervening rows' rays from their v_y and slope.
    """
    B = v_x.shape[0]
    target = model.beta * v_x
    mask = (v_y > target) & (v_y >= ORIGIN_GUARD)
    gamma = np.ones(B)
    residual = np.zeros(B)
    n_newton = np.zeros(B, dtype=int)
    n_bisect = np.zeros(B, dtype=int)
    idx = np.flatnonzero(mask)
    v_cert = None if model.mode == "convex" else np.zeros(idx.size)
    if idx.size:
        solvable = target[idx] > 0.0
        # V(x) = 0 only at x = 0; the certified next state is the origin
        gamma[idx[~solvable]] = 0.0
        rows = idx[solvable]
        if rows.size and model.mode == "convex":
            gamma[rows] = convex_gamma(v_x[rows], v_y[rows], model.beta)
        elif rows.size:
            gamma[rows], v_sol, n_newton[rows], n_bisect[rows] = solve_gamma_batch(
                ray.take(rows), v_y[rows], slope[rows], target[rows],
                rootfind_tol=model.rootfind_tol)
            residual[rows] = np.abs(v_sol - target[rows])
            v_cert[solvable] = v_sol
    return StepInfo(mask, gamma, n_newton, n_bisect, residual, v_x, v_y, v_cert=v_cert)


def _decision(model, store: ad.ParamStore, tape, y, X):
    """The step's one V pass and one decision for the prediction y at the
    states X (B, dim), raw or recorded alike: (info, v_x, v_y, g0).

    The pass stacks X and y into one call while 2B <= STACK_ROWS, and makes
    one call each above. Convex mode's pass is value calls, recorded on tape
    if given, as its closed form differentiates through V(X) and V(y); v_x
    and v_y are those values. Implicit mode's pass is raw: the rays of the
    rows (a value call on X above) at gamma = 1, which read dV/dgamma with
    V; the gamma solve starts from that V(y) and slope and walks on the rays.
    g0 is the icnn's g(0), built once wherever the pass runs raw (implicit
    mode, or no tape) and handed to its V calls and ray; None on a taped
    convex pass, whose value calls record their own.
    """
    B = X.shape[0]
    lyap = model.lyap
    g0 = lyap.origin(store) if tape is None or model.mode == "implicit" else None
    stacked = 2 * B <= STACK_ROWS
    ray = slope = None
    if model.mode == "implicit":
        y = ad.value_of(y)
        ray = lyap.ray(np.concatenate([X, y]) if stacked else y, store, g0)
        v, slope = ray.at(np.ones(ray.sq.size))
        if stacked:
            v_x, v_y, slope, ray = v[:B], v[B:], slope[B:], ray.take(slice(B, None))
        else:
            v_x, v_y = lyap.value(X, store, g0=g0), v
    elif stacked:
        # V is a vector: its last axis holds the stacked rows
        v = lyap.value(ad.concat_rows(X, y), store, tape, g0=g0)
        v_x, v_y = ad.col_slice(v, 0, B), ad.col_slice(v, B, 2 * B)
    else:
        v_x, v_y = (lyap.value(r, store, tape, g0=g0) for r in (X, y))
    return _decide(model, ad.value_of(v_x), ad.value_of(v_y), ray, slope), v_x, v_y, g0


def certified_gamma_raw(model, store: ad.ParamStore, y, X):
    """The raw certificate (_decision) for the prediction y at the states X:
    (gamma, info.intervened, info, g0), gamma None when no row intervenes.
    The mask is returned only because perfbench/spans.py reads it as out[1]."""
    info, _, _, g0 = _decision(model, store, None, y, X)
    return (info.gamma if info.intervened.any() else None), info.intervened, info, g0


def certified_gamma_expr(model, store: ad.ParamStore, tape: ad.Tape, y, X,
                         info: StepInfo):
    """Recorded (B,) scaling factors for the prediction y at the states X, or
    None when no row intervenes; info receives the step's StepInfo.

    The decision and its V pass are the raw step's (_decision). On the
    intervening rows convex mode records its closed form on the pass's V;
    implicit mode records V(X) and the gradient surrogate (_gamma_surrogate),
    whose value is the solved gamma. Rows left alone carry an exact 1.0.
    """
    step, v_x, v_y, _ = _decision(model, store, tape, y, X)
    vars(info).update(vars(step))
    idx = np.flatnonzero(info.intervened)
    if idx.size == 0:
        return None
    if model.mode == "convex":
        gam_i = convex_gamma(ad.gather_rows(v_x, idx), ad.gather_rows(v_y, idx), model.beta)
    elif np.any(info.gamma[idx] == 0.0):
        # V(x) = 0: the root sits at gamma = 0 where grad V vanishes, so the
        # implicit derivative divides by zero; the closed form has no such problem
        raise ValueError("intervention at the origin; gamma gradient undefined there")
    else:
        gam_i = _gamma_surrogate(model, store, tape, ad.gather_rows(y, idx),
                                 model.lyap.value(X[idx], store, tape), info.gamma[idx])
    return ad.scatter_rows(gam_i, idx, info.intervened.size, fill=1.0)


def _certify(model: StableModel, store: ad.ParamStore, tape, X, y):
    """The certified next state for the prediction y = fhat(X), and its StepInfo.

    Built from the autodiff primitives: on raw arrays when tape is None
    (certified_gamma_raw), on the tape otherwise (certified_gamma_expr). Rows
    left alone pass y through bit-exactly. The StepInfo carries the raw V
    values the step computed (see StepInfo).
    """
    if model.mode == "none":
        out = ad.add(X, y) if model.integrating else y
        return out, StepInfo(intervened=np.zeros(X.shape[0], dtype=bool))
    if model.mode == "projection":
        return _projection(model, store, tape, X, y)

    if tape is None:
        gamma, _, info, _ = certified_gamma_raw(model, store, y, X)
    else:
        info = StepInfo(intervened=None)
        gamma = certified_gamma_expr(model, store, tape, y, X, info)
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
    return ad.add(X, delta), StepInfo(intervened=mask, grad_x=ad.value_of(gv))


def model_step(model: StableModel, store: ad.ParamStore, x, want_info: bool = False):
    """One certified step for a batch of states (or a single state).

    x is one state or a (batch, dim) array (validate.check_states); a state
    that is not finite is refused unless the mode is "none".
    """
    X, single = check_states("x", x, model.dim, finite=model.mode != "none")
    out, info = _certify(model, store, None, X, model.fhat.forward(X, store))
    if single:
        out = out[0]
    return (out, info) if want_info else out


def step_expr(model: StableModel, store: ad.ParamStore, tape: ad.Tape | None, X,
              want_parts: bool = False):
    """The certified step of a (batch, dim) input, recorded on tape.

    The intervention pattern is decided on raw values and then frozen into
    the expression; gradients are exact on each side of the switching
    surface. With tape None the step runs raw, as in model_step. With
    want_parts the free prediction fhat(X) and the step's StepInfo come back
    as well, as (step, free, info).
    """
    X, _ = check_states("X", X, model.dim, single=False, finite=model.mode != "none")
    y = model.fhat.forward(X, store, tape)
    out, info = _certify(model, store, tape, X, y)
    return (out, y, info) if want_parts else out


def rollout(model: StableModel, store: ad.ParamStore, x0, steps: int,
            record_v: bool = False):
    """Iterate model_step. x0 may be (n,) or (B, n).

    Returns trajectory of shape (steps+1, n) or (B, steps+1, n); with
    record_v also the V values along it, shape (steps+1,) or (B, steps+1),
    from one V call over the whole trajectory after the loop.
    A start that is not finite is refused in every mode.
    """
    check_count("steps", steps, least=0)
    X, single = check_states("x0", x0, model.dim, finite=True)
    B, n = X.shape
    traj = np.empty((B, steps + 1, n))
    traj[:, 0] = X
    cur = X
    for t in range(steps):
        cur = model_step(model, store, cur)
        traj[:, t + 1] = cur
    if single:
        traj = traj[0]
    if not record_v:
        return traj
    return traj, model.lyap.value(traj.reshape(-1, n), store).reshape(traj.shape[:-1])


# ---------------------------------------------------------------------------
# the gradient surrogate for the solved gamma

def _gamma_surrogate(model, store, tape, y_i, vx_i, gamma):
    """One more Newton map F(g) = g - (V(g y) - beta Vx)/(grad V(g y)^T y).

    The incoming gamma is held constant; at the root dF/dgamma = 0, so
    differentiating this single sweep gives the implicit derivative. The
    forward value stays the solved gamma. The backward route decides whether
    the denominator is recorded: "fixed_point" records it; "direct" holds it
    raw, which leaves the closed form of the implicit function theorem,
    with p = gamma y:
      dgamma/dy      = -gamma * grad V(p) / (grad V(p)^T y)
      dgamma/dV(x)   =  beta / (grad V(p)^T y)
      dgamma/dtheta_V = -(dV(p)/dtheta - beta dV(x)/dtheta) / (grad V(p)^T y).
    """
    p = ad.scale_rows(y_i, gamma)
    if model.backward_route == "fixed_point":
        v_p, gv_p = model.lyap.value_and_grad(p, store, tape)
        gp = ad.rowdot(gv_p, y_i)
    else:
        v_p = model.lyap.value(p, store, tape)
        gp = ad.rowdot(model.lyap.grad(ad.value_of(p), store), ad.value_of(y_i))
    g = ad.sub(v_p, ad.mul(vx_i, model.beta))
    return ad.override_value(ad.sub(gamma, ad.div(g, gp)), gamma)
