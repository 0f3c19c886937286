"""Adam training loops for the deterministic and mixture models.

One tape per batch, one reverse sweep, clamp any constrained V weights,
zero the gradients, repeat. The loop also counts certificate violations on
the raw predictions as it goes; for the scaling modes that count staying at
zero is the whole point.

Deterministic models in implicit mode fit the free prediction y = fhat(x)
as well as the certified step. Where the step intervenes it returns the
point gamma(y)*y on the level set V = beta*V(x), the same point for every
positive scaling of y, so the certified loss alone has no gradient along y
and an overshooting fhat is never pulled back. The extra term is the plain
MSE of y against the target; the certified step used at inference is
unchanged, and the reported losses stay the MSE of the certified step, as
in every other mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .deterministic import StableModel, model_step, step_expr
from .stochastic import StochasticModel, mdn_forward, mdn_nll


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 0.0025
    batch_size: int | None = None      # None = full batch
    seed: int = 0
    shuffle: bool = True
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    verbose: bool = False
    log_every: int = 20


@dataclass
class TrainReport:
    epochs: int
    final_loss: float
    losses: list = field(default_factory=list)
    violations: int = 0
    seconds: float = 0.0


class AdamState:
    def __init__(self, store: ad.ParamStore):
        self.m = {k: np.zeros_like(v) for k, v in store.values.items()}
        self.v = {k: np.zeros_like(v) for k, v in store.values.items()}
        self.t = 0


def adam_step(store: ad.ParamStore, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    state.t += 1
    b1t = 1.0 - beta1 ** state.t
    b2t = 1.0 - beta2 ** state.t
    for name, g in store.grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        store.values[name] -= lr * (m / b1t) / (np.sqrt(v / b2t) + eps)
    store.check_finite()


def _batches(n: int, batch_size: int | None, rng, shuffle: bool):
    if batch_size is None or batch_size >= n:
        yield slice(None)
        return
    order = rng.permutation(n) if shuffle else np.arange(n)
    for i in range(0, n, batch_size):
        yield order[i:i + batch_size]


def train(model, store: ad.ParamStore, X: np.ndarray, Y: np.ndarray,
          config: TrainConfig | None = None) -> TrainReport:
    """Fit either model kind to transition pairs; dispatches on the type.

    Mixtures minimise the NLL, deterministic models the MSE of the certified
    step. In implicit mode the MSE of the free prediction fhat(x) is added,
    unweighted, because the certified step gives no gradient along fhat's
    own ray once it intervenes (see the module docstring). The reported
    losses are the NLL or the certified MSE alone, whatever is optimised.
    """
    config = config or TrainConfig()
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape != Y.shape or X.ndim != 2:
        raise ValueError("X and Y must be matching (samples, dim) arrays")
    is_mdn = isinstance(model, StochasticModel)
    rng = np.random.default_rng(config.seed)
    state = AdamState(store)
    store.zero_grads()

    t0 = time.perf_counter()
    losses = []
    violations = 0
    for epoch in range(config.epochs):
        batch_losses = []
        for sel in _batches(X.shape[0], config.batch_size, rng, config.shuffle):
            xb, yb = X[sel], Y[sel]
            tape = ad.Tape()
            if is_mdn:
                out = mdn_forward(model, store, xb, tape)
                reported = loss = mdn_nll(out, yb)
                pred = ad.value_of(out.mu_mix)
            else:
                pred_expr, free = step_expr(model, store, tape, xb, return_free=True)
                reported = loss = _mse(pred_expr, yb)
                if model.mode == "implicit":
                    loss = ad.add(loss, _mse(free, yb))
                pred = ad.value_of(pred_expr)
            lv = float(ad.value_of(reported))
            if not np.isfinite(ad.value_of(loss)):
                raise FloatingPointError(f"loss diverged at epoch {epoch}")
            # certificate check against the V that produced this prediction,
            # so it must run before the parameters move
            violations += _count_violations(model, store, xb, pred, is_mdn)
            tape.backward(loss)
            adam_step(store, state, config.lr, config.beta1, config.beta2,
                      config.adam_eps)
            model.lyap.clamp(store)
            store.zero_grads()
            batch_losses.append(lv)
        losses.append(float(np.mean(batch_losses)))
        if config.verbose and (epoch % config.log_every == 0 or epoch == config.epochs - 1):
            print(f"epoch {epoch:4d}  loss {losses[-1]:.6g}", flush=True)

    return TrainReport(epochs=config.epochs, final_loss=losses[-1], losses=losses,
                       violations=violations, seconds=time.perf_counter() - t0)


def _mse(pred, target):
    diff = ad.sub(pred, target)
    return ad.mean(ad.mul(diff, diff))


def _count_violations(model, store, xb, pred, is_mdn: bool) -> int:
    """Certificate breaches on this batch, measured on raw values."""
    slack = 1e-9
    if model.mode == "none":
        return 0
    v_x = model.lyap.value(xb, store)
    if not is_mdn and model.mode == "projection":
        gv = model.lyap.grad(xb, store)
        ascent = (gv * (pred - xb)).sum(axis=-1)
        return int((ascent > slack).sum())
    v_p = model.lyap.value(pred, store)
    bound = model.beta * v_x + model.rootfind_tol + slack
    return int((v_p > bound).sum())


def evaluate_mse(model: StableModel, store: ad.ParamStore,
                 X: np.ndarray, Y: np.ndarray) -> float:
    pred = model_step(model, store, np.asarray(X, dtype=np.float64))
    return float(np.mean((pred - np.asarray(Y)) ** 2))


def evaluate_violations(model, store: ad.ParamStore, X: np.ndarray) -> int:
    """Breaches of the model's own certificate over one pass through X."""
    X = np.asarray(X, dtype=np.float64)
    is_mdn = isinstance(model, StochasticModel)
    pred = mdn_forward(model, store, X).mu_mix if is_mdn else model_step(model, store, X)
    return _count_violations(model, store, X, pred, is_mdn)


def evaluate_nll(model: StochasticModel, store: ad.ParamStore,
                 X: np.ndarray, Y: np.ndarray) -> float:
    out = mdn_forward(model, store, np.asarray(X, dtype=np.float64))
    return float(ad.value_of(mdn_nll(out, np.asarray(Y, dtype=np.float64))))
