"""Adam training loops for the deterministic and mixture models.

One tape per batch, one reverse sweep, clamp any constrained V weights,
zero the gradients, repeat. The loop also counts certificate violations on
the raw predictions as it goes; for the scaling modes that count staying at
zero is the whole point. The count reads the V values the certified step
already computed (its StepInfo, a mixture's being its mean's): V(x), V at
the certified states (StepInfo.v_certified, which evaluates V only where
nothing did), and grad V(x) in projection mode.

`objective` scores a batch for training, evaluation and gradient checks
alike: a mixture's NLL, or the MSE of a deterministic model's certified
step. In implicit mode it also minimises the MSE of the free prediction
y = fhat(x). Where the step intervenes it returns the point gamma(y)*y on
the level set V = beta*V(x), the same point for every positive scaling of
y, so the certified loss alone has no gradient along y and an overshooting
fhat is never pulled back. That term is never reported.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .deterministic import (StableModel, as_batch, check_between, check_count, model_step,
                            step_expr)
from .stochastic import StochasticModel, mdn_forward, mdn_nll


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

# with verbose on, the loss is printed every LOG_EVERY epochs and at the last
LOG_EVERY = 20

# the violation count's allowance above the certificate's own bound
SLACK = 1e-9


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 0.0025
    batch_size: int | None = None      # None = full batch
    seed: int = 0                      # the minibatch order
    verbose: bool = False

    def __post_init__(self):
        check_count("epochs", self.epochs)
        if self.batch_size is not None:
            check_count("batch_size", self.batch_size)
        check_between("lr", self.lr, 0.0, np.inf)


@dataclass
class TrainReport:
    epochs: int
    final_loss: float
    losses: list = field(default_factory=list)
    violations: int = 0
    seconds: float = 0.0


class AdamState:
    """Adam's moments as flat vectors over the store's parameters, in order."""

    def __init__(self, store: ad.ParamStore):
        self.layout = list(store.shapes().items())
        self.bounds = [0, *itertools.accumulate(math.prod(s) for _, s in self.layout)]
        self.m = np.zeros(self.bounds[-1])
        self.v = np.zeros(self.bounds[-1])
        self.t = 0


def adam_step(store: ad.ParamStore, state: AdamState, lr: float) -> None:
    """One Adam update of every parameter. A non-finite gradient, or an update
    that would leave a non-finite value, raises before anything moves."""
    layout = list(store.shapes().items())
    if layout != state.layout:
        name = next(a or b for a, b in itertools.zip_longest(layout, state.layout)
                    if a != b)[0]
        raise ValueError(f"Adam state built for another parameter layout: {name!r} differs")
    g = _flat(store.grads)
    name = _first_nonfinite(g, state)
    if name is not None:
        raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    t = state.t + 1
    b1t = 1.0 - BETA1 ** t
    b2t = 1.0 - BETA2 ** t
    m = state.m + (1.0 - BETA1) * (g - state.m)
    v = state.v + (1.0 - BETA2) * (g * g - state.v)
    x = _flat(store.values) - lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
    name = _first_nonfinite(x, state)
    if name is not None:
        raise FloatingPointError(f"non-finite values in parameter {name!r}")
    state.m, state.v, state.t = m, v, t
    for (name, shape), lo, hi in zip(state.layout, state.bounds, state.bounds[1:]):
        store.values[name][...] = x[lo:hi].reshape(shape)


def _flat(arrays: dict) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in arrays.values()])


def _first_nonfinite(flat: np.ndarray, state: AdamState) -> str | None:
    """The first parameter with a non-finite entry in `flat`, else None."""
    finite = np.isfinite(flat)
    if finite.all():
        return None
    bad = int(finite.argmin())
    return next(n for (n, _), hi in zip(state.layout, state.bounds[1:]) if bad < hi)


def _batches(n: int, batch_size: int | None, rng):
    if batch_size is None or batch_size >= n:
        yield slice(None)
        return
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield order[i:i + batch_size]


def objective(model, store: ad.ParamStore, tape: ad.Tape | None, X, Y):
    """(loss minimised, loss reported, certified prediction, step report) for
    one batch.

    With tape None it runs raw; the prediction is always a raw array. The
    step report is the certified step's StepInfo, a mixture's being its
    mean's: what _count_violations reads.
    """
    if isinstance(model, StochasticModel):
        out = mdn_forward(model, store, X, tape)
        loss = mdn_nll(out, Y)
        return loss, loss, ad.value_of(out.mu_mix), out.info
    pred, free, info = step_expr(model, store, tape, X, want_parts=True)
    reported = loss = _mse(pred, Y)
    if model.mode == "implicit":
        loss = ad.add(loss, _mse(free, Y))
    return loss, reported, ad.value_of(pred), info


def train(model, store: ad.ParamStore, X: np.ndarray, Y: np.ndarray,
          config: TrainConfig | None = None) -> TrainReport:
    """Fit either model kind to transition pairs by minimising `objective`;
    the losses are its reported loss, the NLL or the certified MSE."""
    config = config or TrainConfig()
    X, Y = _check_data(model, X, Y)
    rng = np.random.default_rng(config.seed)
    state = AdamState(store)
    store.zero_grads()

    t0 = time.perf_counter()
    losses = []
    violations = 0
    for epoch in range(config.epochs):
        batch_losses = []
        for sel in _batches(X.shape[0], config.batch_size, rng):
            xb, yb = X[sel], Y[sel]
            tape = ad.Tape()
            loss, reported, pred, step = objective(model, store, tape, xb, yb)
            lv = float(ad.value_of(reported))
            if not np.isfinite(ad.value_of(loss)):
                raise FloatingPointError(f"loss diverged at epoch {epoch}")
            # certificate check against the V that produced this prediction,
            # so it must run before the parameters move
            violations += _count_violations(model, store, xb, pred, step)
            tape.backward(loss)
            adam_step(store, state, config.lr)
            model.lyap.clamp(store)
            store.zero_grads()
            batch_losses.append(lv)
        losses.append(float(np.mean(batch_losses)))
        if config.verbose and (epoch % LOG_EVERY == 0 or epoch == config.epochs - 1):
            print(f"epoch {epoch:4d}  loss {losses[-1]:.6g}", flush=True)

    return TrainReport(epochs=config.epochs, final_loss=losses[-1], losses=losses,
                       violations=violations, seconds=time.perf_counter() - t0)


def _mse(pred, target):
    diff = ad.sub(pred, target)
    return ad.mean(ad.mul(diff, diff))


def _count_violations(model, store, X, pred, step) -> int:
    """Certificate breaches of the certified step X -> pred, on raw values.

    step is the step's StepInfo, which supplies the V values. A scaling mode
    breaches where V(pred) > beta*V(x) + rootfind_tol + SLACK, with V(pred)
    from StepInfo.v_certified; projection where grad V(x).(pred - x) > SLACK.
    """
    if model.mode == "none":
        return 0
    if model.mode == "projection":
        ascent = (step.grad_x * (pred - X)).sum(axis=-1)
        return int((ascent > SLACK).sum())
    v_pred = step.v_certified(model.lyap, store, pred)
    bound = model.beta * step.v_x + model.rootfind_tol + SLACK
    return int((v_pred > bound).sum())


def metric_of(model) -> str:
    """The loss `objective` reports: "nll" for a mixture, else "mse"."""
    return "nll" if isinstance(model, StochasticModel) else "mse"


def _check_data(model, X, Y):
    """X and Y as float arrays. Refuses by name anything but a non-empty
    (batch, dim) X and a Y of the same shape, which would otherwise
    broadcast against it into a wrong loss."""
    X, _ = as_batch(X, model.dim, "X", single=False)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != X.shape:
        raise ValueError(f"Y must have the shape of X, {X.shape}, got {Y.shape}")
    if not X.shape[0]:
        raise ValueError("X has no rows: the dataset must hold at least one transition")
    return X, Y


def _evaluate(metric: str, model, store: ad.ParamStore, X, Y) -> float:
    if metric_of(model) != metric:
        raise ValueError(f"{metric} does not score a {type(model).__name__}; "
                         f"use {metric_of(model)}")
    X, Y = _check_data(model, X, Y)
    return float(objective(model, store, None, X, Y)[1])


def evaluate_mse(model: StableModel, store: ad.ParamStore,
                 X: np.ndarray, Y: np.ndarray) -> float:
    """MSE of a deterministic model's certified step; a mixture is refused."""
    return _evaluate("mse", model, store, X, Y)


def evaluate_violations(model, store: ad.ParamStore, X: np.ndarray) -> int:
    """Breaches of the model's own certificate over one pass through X, one
    state or a (batch, dim) array, for either model kind."""
    X, _ = as_batch(X, model.dim, "X")
    if isinstance(model, StochasticModel):
        out = mdn_forward(model, store, X)
        pred, step = out.mu_mix, out.info
    else:
        pred, step = model_step(model, store, X, want_info=True)
    return _count_violations(model, store, X, pred, step)


def evaluate_nll(model: StochasticModel, store: ad.ParamStore,
                 X: np.ndarray, Y: np.ndarray) -> float:
    """Mean NLL of a mixture model; a deterministic model is refused."""
    return _evaluate("nll", model, store, X, Y)
