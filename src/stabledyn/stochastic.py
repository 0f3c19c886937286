"""Mixture density dynamics whose mixture mean is certified.

A trunk network emits the 2nk raw outputs for component means and spreads; a
separate coefficient network emits the k mixing logits. In the stabilized
construction the mixture mean is pushed below the beta*V(x) level set with
the same gamma machinery the deterministic models use (one gamma scales
every component mean), and each component's standard deviation is tethered
to the value of V at the scaled mean: sigma = sigmoid(raw) *
sqrt(sigma_cap * V(mu)). On every forward pass, training included, this
certifies V(mu) <= beta*V(x) (within rootfind_tol in implicit mode) and
sigma^2 <= sigma_cap * V(mu), and nothing more: it does not bound the
expected next value E[V(x')], which for a convex V is at least V(mu) by
Jensen's inequality and can exceed V(x).

With mode "none" the same architecture is a plain mixture density network
(sigma = exp(raw), no scaling); it exists as a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .deterministic import (Certified, StepInfo, as_batch, certified_gamma_expr,
                            certified_gamma_raw, check_between, check_count, refuse_non_finite)

LOG_2PI = float(np.log(2.0 * np.pi))

STAB_MODES = ("convex", "implicit", "none")


@dataclass(kw_only=True)
class StochasticModel(Certified):
    """A mixture head over trunk (n -> 2nk raw means and spreads) and coeff
    (n -> k mixing logits), with V stabilizing the mixture mean."""

    MODES = STAB_MODES

    k: int = 2
    sigma_cap: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        check_count("k", self.k)
        check_between("sigma_cap", self.sigma_cap, 0.0, np.inf)
        self.trunk = self._mlp("trunk", 2 * self.dim * self.k)
        self.coeff = self._mlp("coeff", self.k)
        self.nets = (self.trunk, self.coeff, self.lyap)


# the model's one construction path, under the name callers know
make_stochastic_model = StochasticModel


@dataclass
class MdnOutput:
    """One forward pass of the mixture head; entries are (B, ...) shaped."""

    pi: object          # (B, k)
    mu: object          # (B, k, n) component means, after any scaling
    sigma: object       # (B, k, n) per-dimension standard deviations
    mu_mix: object      # (B, n) mixture mean, after any scaling
    info: StepInfo | None = None    # the mean's certified step; mdn_forward sets it


def mdn_forward(model: StochasticModel, store: ad.ParamStore, x,
                tape: ad.Tape | None = None) -> MdnOutput:
    """Mixture parameters at a batch of states.

    In the stabilized model the scaled mixture mean is pushed below the
    decrease target beta*V(x) and every spread is tied to V at that scaled
    mean, so the covariance shrinks together with the mean dynamics. There a
    state that is not finite raises ValueError; mode "none" passes it through.
    info is the StepInfo of the certified step x -> scaled mean; mode "none"
    moves no row. On the raw path (tape None, certified_gamma_raw) the
    spreads are tethered to the step's own V at the scaled mean
    (StepInfo.v_certified), which evaluates V only on convex mode's moved
    rows; the recorded path records V at the scaled mean, which the spreads'
    gradients need. Either way info.v_cert is the tether's V.
    """
    X, _ = as_batch(x, model.dim, "X", single=False)
    if model.mode != "none":
        refuse_non_finite(X)
    B, n = X.shape
    k = model.k

    h = model.trunk.forward(X, store, tape)
    mu = ad.reshape(ad.col_slice(h, 0, k * n), (B, k, n))
    raw = ad.reshape(ad.col_slice(h, k * n, 2 * k * n), (B, k, n))
    logits = model.coeff.forward(X, store, tape)
    pi = ad.softmax(logits)
    mu_mix = ad.sum_axis(ad.mul(ad.expand_last(pi), mu), -2)

    if model.mode == "none":
        return MdnOutput(pi=pi, mu=mu, sigma=ad.exp(raw), mu_mix=mu_mix,
                         info=StepInfo(intervened=np.zeros(B, dtype=bool)))

    if tape is None:
        gv, _, info, g0 = certified_gamma_raw(model, store, mu_mix, X)
    else:
        info = StepInfo(intervened=None)
        gv = certified_gamma_expr(model, store, tape, mu_mix, X, info)

    if gv is not None:
        scale = ad.expand_last(ad.expand_last(gv))
        mu = ad.mul(mu, scale)
        mu_mix = ad.scale_rows(mu_mix, gv)

    if tape is None:
        v_mu = info.v_certified(model.lyap, store, mu_mix, g0)
    else:
        v_mu = model.lyap.value(mu_mix, store, tape)
        info.v_cert = ad.value_of(v_mu)[info.intervened]
    cap = ad.sqrt(ad.mul(v_mu, model.sigma_cap))
    sigma = ad.mul(ad.sigmoid(raw), ad.expand_last(ad.expand_last(cap)))
    return MdnOutput(pi=pi, mu=mu, sigma=sigma, mu_mix=mu_mix, info=info)


def mdn_nll(out: MdnOutput, y) -> object:
    """Mean negative log likelihood of targets y (B, n) under the mixture."""
    Y = np.asarray(y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("targets must be (batch, dim)")
    diff = ad.sub(out.mu, Y[:, None, :])
    z = ad.div(diff, out.sigma)
    z2 = ad.rowdot(z, z)                                               # (B, k)
    log_det = ad.mul(ad.rowdot(ad.log(out.sigma), 1.0), 2.0)           # (B, k)
    n = Y.shape[1]
    comp_ll = ad.sub(ad.log(out.pi),
                     ad.mul(ad.add(ad.add(z2, log_det), n * LOG_2PI), 0.5))
    return ad.neg(ad.mean(ad.logsumexp(comp_ll)))


def _draw(out: MdnOutput, rows: int, rng: np.random.Generator) -> np.ndarray:
    """One next state from the mixture at each of out's first `rows` rows."""
    pi, mu, sigma = out.pi[:rows], out.mu[:rows], out.sigma[:rows]
    u = rng.random(rows)
    comp = (u[:, None] > np.cumsum(pi, axis=-1)).sum(axis=-1)
    comp = np.minimum(comp, pi.shape[-1] - 1)
    r = np.arange(rows)
    return mu[r, comp] + sigma[r, comp] * rng.standard_normal((rows, mu.shape[-1]))


def mdn_sample(model: StochasticModel, store: ad.ParamStore, x,
               rng: np.random.Generator) -> np.ndarray:
    """Draw one next state per row."""
    X, single = as_batch(x, model.dim)
    sample = _draw(mdn_forward(model, store, X), X.shape[0], rng)
    return sample[0] if single else sample


def stochastic_rollout(model: StochasticModel, store: ad.ParamStore, x0,
                       steps: int, paths: int, rng: np.random.Generator):
    """Sampled trajectories plus the mean path from one start.

    Returns (samples, means): samples has shape (paths, steps+1, n) and is
    drawn from the mixture at each step; means has shape (steps+1, n) and
    feeds the mixture mean back as the state with no sampling. Each step is
    one mdn_forward on the paths' states with the mean path's state as the
    last row, so the mean path agrees with iterating one state's forward
    to rounding, not bit for bit (a state's forward can change in its last
    bits with the rows batched beside it). A start that is not finite raises
    ValueError.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    if paths < 1:
        raise ValueError(f"paths must be at least 1, got {paths}")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 must be a single state of dimension {model.dim}, "
                         f"got shape {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0}")
    X = np.tile(x0, (paths + 1, 1))
    traj = np.empty((paths, steps + 1, x0.size))
    traj[:, 0] = x0
    mean_traj = np.empty((steps + 1, x0.size))
    mean_traj[0] = x0
    for t in range(steps):
        out = mdn_forward(model, store, X)
        X = np.vstack([_draw(out, paths, rng), out.mu_mix[paths]])
        traj[:, t + 1] = X[:paths]
        mean_traj[t + 1] = X[paths]
    return traj, mean_traj
