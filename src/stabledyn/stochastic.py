"""Mixture density dynamics with an expected-decrease guarantee.

A trunk network emits the 2nk raw outputs for component means and spreads; a
separate coefficient network emits the k mixing logits. In the stabilized
construction the mixture mean is pushed below the beta*V(x) level set with
the same gamma machinery the deterministic models use (one gamma scales
every component mean), and each component's standard deviation is tethered
to the value of V at the scaled mean: sigma = sigmoid(raw) *
sqrt(sigma_cap * V(mu)). Together these bound the expected next value of V,
and the bound holds on every forward pass, training included.

With mode "none" the same architecture is a plain mixture density network
(sigma = exp(raw), no scaling); it exists as a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .deterministic import (StepInfo, as_batch, certified_gamma_expr,
                            certified_gamma_raw, check_certificate)
from .lyapunov import LyapunovNet, make_lyapunov
from .nets import Mlp

LOG_2PI = float(np.log(2.0 * np.pi))

STAB_MODES = ("convex", "implicit", "none")


@dataclass
class StochasticModel:
    mode: str                     # how the mixture mean is stabilized
    trunk: Mlp                    # n -> 2nk raw means and spreads
    coeff: Mlp                    # n -> k mixing logits
    lyap: LyapunovNet
    k: int
    beta: float = 0.99
    rootfind_tol: float = 1e-3
    sigma_cap: float = 1.0
    backward_route: str = "fixed_point"

    def __post_init__(self):
        check_certificate(self, STAB_MODES)
        if self.k < 1:
            raise ValueError("need at least one mixture component")
        if self.sigma_cap <= 0:
            raise ValueError("sigma_cap must be positive")

    @property
    def dim(self) -> int:
        return self.lyap.dim

    @property
    def stabilized(self) -> bool:
        return self.mode != "none"

    def init_params(self, store: ad.ParamStore, rng: np.random.Generator) -> None:
        self.trunk.init_params(store, rng)
        self.coeff.init_params(store, rng)
        self.lyap.init_params(store, rng)


def make_stochastic_model(mode: str, dim: int, variant: str, k: int = 2,
                          hidden_f=(25, 25), hidden_v=(25, 25), sigma_cap: float = 1.0,
                          beta: float = 0.99, rootfind_tol: float = 1e-3,
                          epsilon: float = 0.001, d: float = 0.1,
                          activation: str = "tanh",
                          backward_route: str = "fixed_point") -> StochasticModel:
    hf = tuple(hidden_f)
    trunk = Mlp(layer_dims=[dim, *hf, 2 * dim * k], activation=activation,
                prefix="trunk", d=d)
    coeff = Mlp(layer_dims=[dim, *hf, k], activation=activation,
                prefix="coeff", d=d)
    lyap = make_lyapunov(variant, dim, hidden=hidden_v, epsilon=epsilon, d=d)
    return StochasticModel(mode=mode, trunk=trunk, coeff=coeff, lyap=lyap, k=k,
                           beta=beta, rootfind_tol=rootfind_tol,
                           sigma_cap=sigma_cap, backward_route=backward_route)


@dataclass
class MdnOutput:
    """One forward pass of the mixture head; entries are (B, ...) shaped."""

    pi: object          # (B, k)
    mu: object          # (B, k, n) component means, after any scaling
    sigma: object       # (B, k, n) per-dimension standard deviations
    mu_mix: object      # (B, n) mixture mean, after any scaling
    max_var: float = 0.0
    gamma: np.ndarray | None = None
    intervened: np.ndarray | None = None


def mdn_forward(model: StochasticModel, store: ad.ParamStore, x,
                tape: ad.Tape | None = None) -> MdnOutput:
    """Mixture parameters at a batch of states.

    In the stabilized model the scaled mixture mean is pushed below the
    decrease target beta*V(x) and every spread is tied to V at that scaled
    mean, so the covariance shrinks together with the mean dynamics.
    """
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("mdn_forward expects a (batch, dim) input")
    B, n = X.shape
    k = model.k

    h = model.trunk.forward(X, store, tape)
    mu = ad.reshape(ad.col_slice(h, 0, k * n), (B, k, n))
    raw = ad.reshape(ad.col_slice(h, k * n, 2 * k * n), (B, k, n))
    logits = model.coeff.forward(X, store, tape)
    pi = ad.softmax(logits)
    mu_mix = ad.sum_axis(ad.mul(ad.expand_last(pi), mu), -2)

    if not model.stabilized:
        sigma = ad.exp(raw)
        return MdnOutput(pi=pi, mu=mu, sigma=sigma, mu_mix=mu_mix,
                         max_var=float((ad.value_of(sigma) ** 2).max()))

    v_x = model.lyap.value(X, store, tape)
    if tape is None:
        gamma, mask, _, _, _ = certified_gamma_raw(
            model.lyap, store, mu_mix, v_x, model.lyap.value(mu_mix, store),
            model.beta, model.mode, model.rootfind_tol)
        gv = gamma if mask.any() else None
    else:
        info = StepInfo(intervened=None)
        gv = certified_gamma_expr(
            model.lyap, store, tape, mu_mix, v_x, model.beta, model.mode,
            model.rootfind_tol, model.backward_route, info=info)
        gamma, mask = info.gamma, info.intervened

    if gv is not None:
        scale = ad.expand_last(ad.expand_last(gv))
        mu = ad.mul(mu, scale)
        mu_mix = ad.scale_rows(mu_mix, gv)

    v_mu = model.lyap.value(mu_mix, store, tape)
    cap = ad.sqrt(ad.mul(v_mu, model.sigma_cap))
    sigma = ad.mul(ad.sigmoid(raw), ad.expand_last(ad.expand_last(cap)))
    return MdnOutput(pi=pi, mu=mu, sigma=sigma, mu_mix=mu_mix,
                     max_var=float((ad.value_of(sigma) ** 2).max()),
                     gamma=gamma, intervened=mask)


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


def mdn_sample(model: StochasticModel, store: ad.ParamStore, x,
               rng: np.random.Generator) -> np.ndarray:
    """Draw one next state per row."""
    X, single = as_batch(x)
    out = mdn_forward(model, store, X)
    pi, mu, sigma = out.pi, out.mu, out.sigma
    B = X.shape[0]
    u = rng.random(B)
    comp = (u[:, None] > np.cumsum(pi, axis=-1)).sum(axis=-1)
    comp = np.minimum(comp, model.k - 1)
    rows = np.arange(B)
    sample = mu[rows, comp] + sigma[rows, comp] * rng.standard_normal(X.shape)
    return sample[0] if single else sample


def mdn_mean_step(model: StochasticModel, store: ad.ParamStore, x) -> np.ndarray:
    """The mixture mean at a batch of states, as a plain next-state map."""
    X, single = as_batch(x)
    m = mdn_forward(model, store, X).mu_mix
    return m[0] if single else m


def stochastic_rollout(model: StochasticModel, store: ad.ParamStore, x0,
                       steps: int, paths: int, rng: np.random.Generator):
    """Sampled trajectories plus the mean path from one start.

    Returns (samples, means): samples has shape (paths, steps+1, n) and is
    drawn from the mixture at each step; means has shape (steps+1, n) and
    feeds the mixture mean back as the state with no sampling.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1:
        raise ValueError("x0 must be a single state")
    cur = np.tile(x0, (paths, 1))
    traj = np.empty((paths, steps + 1, x0.size))
    traj[:, 0] = cur
    mean_traj = np.empty((steps + 1, x0.size))
    mean_traj[0] = x0
    m = x0
    for t in range(steps):
        cur = mdn_sample(model, store, cur, rng)
        traj[:, t + 1] = cur
        m = mdn_mean_step(model, store, m)
        mean_traj[t + 1] = m
    return traj, mean_traj
