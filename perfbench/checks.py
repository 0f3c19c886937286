"""Row-level correctness checks on the library's outputs, and their self-test.

Each function returns boolean masks over rows, one per named check, so a run
can print every failed check by name and count failures against rows
attempted. The rules are the ones the models state today:

* scaling modes (convex, implicit): V(x') <= beta V(x) + rootfind_tol + 1e-9,
  the slack `training._count_violations` allows;
* projection: grad V(x) . (x' - x) <= 1e-9, the ascent rule of the same
  function;
* every mode: the next state is finite;
* mixtures (criterion 9's invariants): finite outputs, mixing weights on the
  simplex, component variances tethered to V at the mean, mean decrease; on
  a sampled rollout also a finite trajectory and a decreasing mean path.
"""

from __future__ import annotations

import numpy as np

from stabledyn.autodiff import ParamStore
from stabledyn.deterministic import make_model, model_step
from stabledyn.stochastic import make_stochastic_model, mdn_forward, stochastic_rollout

SLACK = 1e-9
MIX_SLACK = 1e-12
SCALING_MODES = ("convex", "implicit")


def step_checks(model, store, X: np.ndarray, Xn: np.ndarray) -> dict[str, np.ndarray]:
    """Masks of failing rows for certified steps X -> Xn of a deterministic model.

    Also returns "strict_breach" (V(x') > beta V(x) with no slack) for the
    scaling modes; it is reported, not counted as a failure.
    """
    finite = np.isfinite(Xn).all(axis=-1)
    out = {"step.finite": ~finite}
    if model.mode in SCALING_MODES:
        v_x = model.lyap.value(X, store)
        v_n = model.lyap.value(np.where(finite[:, None], Xn, 0.0), store)
        bound = model.beta * v_x + model.rootfind_tol + SLACK
        out["step.decrease"] = finite & ~(v_n <= bound)
        out["strict_breach"] = finite & (v_n > model.beta * v_x)
    elif model.mode == "projection":
        gv = model.lyap.grad(X, store)
        ascent = (gv * (np.where(finite[:, None], Xn, X) - X)).sum(axis=-1)
        out["step.ascent"] = finite & ~(ascent <= SLACK)
    return out


def mixture_checks(out, v_x: np.ndarray, v_mu: np.ndarray, beta: float,
                   rootfind_tol: float, sigma_cap: float) -> dict[str, np.ndarray]:
    """Masks of rows breaking the mixture invariants, from one raw mdn_forward.

    For stabilized models only; "strict_breach" is reported, not counted.
    """
    pi, mu, sigma, mu_mix = (np.asarray(a) for a in (out.pi, out.mu, out.sigma, out.mu_mix))
    finite = (np.isfinite(pi).all(axis=-1) & np.isfinite(mu).all(axis=(1, 2))
              & np.isfinite(sigma).all(axis=(1, 2)) & np.isfinite(mu_mix).all(axis=-1)
              & np.isfinite(v_mu))
    simplex = (pi >= 0.0).all(axis=-1) & (np.abs(pi.sum(axis=-1) - 1.0) <= MIX_SLACK)
    max_var = (sigma ** 2).max(axis=(1, 2))
    tether = max_var <= sigma_cap * v_mu + MIX_SLACK
    decrease = v_mu <= beta * v_x + rootfind_tol + MIX_SLACK
    return {
        "mixture.finite": ~finite,
        "mixture.simplex": finite & ~simplex,
        "mixture.tether": finite & ~tether,
        "mixture.decrease": finite & ~decrease,
        "strict_breach": finite & (v_mu > beta * v_x),
    }


def rollout_checks(model, store, rollouts) -> dict[str, np.ndarray]:
    """Masks over every step of `stochastic_rollout` results [(samples, means)].

    One row per step taken, sampled paths first, then the mean path, per
    rollout. The mixture invariants are checked by a fresh raw mdn_forward at
    the state each step started from; the returned trajectory itself must be
    finite, and the mean path must decrease: V(m[t+1]) <= beta V(m[t]) + tol.
    """
    frm, to, is_mean = [], [], []
    for samples, means in rollouts:
        n = means.shape[-1]
        for a, mean in ((samples, False), (means[None], True)):
            frm.append(a[:, :-1].reshape(-1, n))
            to.append(a[:, 1:].reshape(-1, n))
            is_mean.append(np.full(frm[-1].shape[0], mean))
    frm, to, is_mean = np.concatenate(frm), np.concatenate(to), np.concatenate(is_mean)

    start_ok = np.isfinite(frm).all(axis=-1)
    safe = np.where(start_ok[:, None], frm, 0.0)
    out = mdn_forward(model, store, safe)
    v_x = model.lyap.value(safe, store)
    v_mu = model.lyap.value(np.nan_to_num(np.asarray(out.mu_mix)), store)
    masks = mixture_checks(out, v_x, v_mu, model.beta, model.rootfind_tol, model.sigma_cap)
    masks["mixture.finite"] |= ~start_ok

    finite = np.isfinite(to).all(axis=-1)
    v_to = model.lyap.value(np.where(finite[:, None], to, 0.0), store)
    bound = model.beta * v_x + model.rootfind_tol + SLACK
    masks["mixture.path_finite"] = ~finite
    masks["mixture.mean_decrease"] = is_mean & start_ok & finite & ~(v_to <= bound)
    return masks


def failed_rows(masks: dict[str, np.ndarray]) -> np.ndarray:
    """Rows failing any counted check; strict_breach is reported, not counted."""
    rows = [m for k, m in masks.items() if k != "strict_breach"]
    return np.logical_or.reduce(rows) if rows else np.zeros(0, dtype=bool)


def self_test() -> dict[str, int]:
    """Plant known-bad rows in real outputs; the checker must count exactly them.

    One row steps to V(x') > beta V(x) + tol, one row is NaN, one mixture
    row has its weights pushed off the simplex, and in a sampled rollout one
    mean step breaks the decrease and one sample is NaN. Returns the counts found and
    raises ValueError (not assert, so the gate survives python -O) when they
    are not exactly the planted rows.
    """
    rng = np.random.default_rng(0)
    X = rng.uniform(-6.0, 6.0, size=(16, 2))

    model = make_model("implicit", 2, "icnn")
    store = ParamStore()
    model.init_params(store, np.random.default_rng(1))
    Xn = np.array(model_step(model, store, X), copy=True)
    clean = int(failed_rows(step_checks(model, store, X, Xn)).sum())
    Xn[3] = X[3] * 10.0          # V(x') far above beta V(x) + tol
    Xn[7] = np.nan
    masks = step_checks(model, store, X, Xn)
    counts = {"clean": clean,
              "decrease": int(masks["step.decrease"].sum()),
              "finite": int(masks["step.finite"].sum()),
              "failed": int(failed_rows(masks).sum())}
    decrease_rows = np.flatnonzero(masks["step.decrease"]).tolist()
    nan_rows = np.flatnonzero(masks["step.finite"]).tolist()

    mdn = make_stochastic_model("implicit", 2, "icnn", k=3)
    mstore = ParamStore()
    mdn.init_params(mstore, np.random.default_rng(2))
    out = mdn_forward(mdn, mstore, X)
    v_x = mdn.lyap.value(X, mstore)
    v_mu = mdn.lyap.value(out.mu_mix, mstore)
    mclean = int(failed_rows(mixture_checks(out, v_x, v_mu, mdn.beta, mdn.rootfind_tol,
                                            mdn.sigma_cap)).sum())
    out.pi = np.array(out.pi, copy=True)
    out.pi[5, 0] += 0.25          # weights sum to 1.25
    mmasks = mixture_checks(out, v_x, v_mu, mdn.beta, mdn.rootfind_tol, mdn.sigma_cap)
    counts.update({"mixture_clean": mclean,
                   "simplex": int(mmasks["mixture.simplex"].sum()),
                   "mixture_failed": int(failed_rows(mmasks).sum())})
    simplex_rows = np.flatnonzero(mmasks["mixture.simplex"]).tolist()

    # a real rollout (2 paths, 3 steps: rows 0-5 sampled, 6-8 the mean path)
    # whose second mean step is pushed far out, and whose last sample is NaN
    samples, means = stochastic_rollout(mdn, mstore, X[0], 3, 2, np.random.default_rng(3))
    rclean = int(failed_rows(rollout_checks(mdn, mstore, [(samples, means)])).sum())
    means = np.array(means, copy=True)
    samples = np.array(samples, copy=True)
    means[2] *= 10.0
    samples[1, 3] = np.nan
    rmasks = rollout_checks(mdn, mstore, [(samples, means)])
    counts.update({"rollout_clean": rclean,
                   "mean_decrease": int(rmasks["mixture.mean_decrease"].sum()),
                   "path_finite": int(rmasks["mixture.path_finite"].sum()),
                   "rollout_failed": int(failed_rows(rmasks).sum())})
    path_rows = (np.flatnonzero(rmasks["mixture.mean_decrease"]).tolist(),
                 np.flatnonzero(rmasks["mixture.path_finite"]).tolist())

    expected = {"clean": 0, "decrease": 1, "finite": 1, "failed": 2,
                "mixture_clean": 0, "simplex": 1, "mixture_failed": 1,
                "rollout_clean": 0, "mean_decrease": 1, "path_finite": 1,
                "rollout_failed": 2}
    rows = (decrease_rows, nan_rows, simplex_rows, *path_rows)
    if counts != expected or rows != ([3], [7], [5], [7], [5]):
        raise ValueError(f"checker self-test: counted {counts}, rows {rows}; "
                         f"planted {expected}, rows [3] [7] [5] [7] [5]")
    return counts
