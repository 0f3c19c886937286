"""End-to-end acceptance checks, one test per numbered criterion.

Run with -s to see one verdict line per criterion; each line carries the
measured numbers next to the bound they are held to. The desk-scale
training runs (criteria 6, 8, 9, 10) use fixed seeds and take a few
minutes together; everything else is seconds.
"""

import time

import numpy as np
import pytest

from stabledyn import (make_model, make_stochastic_model, model_step, rollout,
                       mdn_forward, stochastic_rollout, solve_gamma_batch,
                       solve_discrete_lyapunov, rk4_step, srk2_step,
                       generate_transitions, simulate, train, TrainConfig,
                       evaluate_mse, evaluate_nll)
from stabledyn import autodiff as ad
from stabledyn.autodiff import ParamStore, Tape
from stabledyn.deterministic import step_expr

COMBOS = (("convex", "icnn"), ("convex", "convex_lnn"),
          ("implicit", "icnn"), ("implicit", "lnn"),
          ("implicit", "convex_lnn"))


def _verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def _first_step(hits):
    """Index of the first True in a per-step boolean array, -1 if none."""
    idx = np.flatnonzero(hits)
    return int(idx[0]) if idx.size else -1


def _fresh(mode, variant, seed, expand=None, dim=2, **kw):
    model = make_model(mode, dim, variant, **kw)
    store = ParamStore()
    model.init_params(store, np.random.default_rng(seed))
    if expand:
        last = model.fhat.n_layers - 1
        store.values[f"f.W{last}"] *= expand
    return model, store


def _fresh_mdn(mode, variant, seed, k=2, push=None, **kw):
    model = make_stochastic_model(mode, 2, variant, k=k, **kw)
    store = ParamStore()
    model.init_params(store, np.random.default_rng(seed))
    if push:
        # expand only the mean columns of the trunk so interventions fire
        last = model.trunk.n_layers - 1
        rows = model.k * 2
        store.values[f"trunk.W{last}"][:rows] *= push
        store.values[f"trunk.b{last}"][:rows] *= push
    return model, store


def test_01_decrease_holds_on_random_untrained_models():
    t0 = time.perf_counter()
    worst = -np.inf
    violations = 0
    interventions = 0
    for ci, (mode, variant) in enumerate(COMBOS):
        for s in range(50):
            # half the draws get an expanded last layer so the intervention
            # path stays hot; the rest keep the raw init scale
            expand = 20.0 if s % 2 else None
            model, store = _fresh(mode, variant, 1000 * ci + s, expand=expand)
            rng = np.random.default_rng(5000 + 1000 * ci + s)
            cur = rng.uniform(-6.0, 6.0, size=(20, 2))
            vs = [model.lyap.value(cur, store)]
            for _ in range(200):
                cur, info = model_step(model, store, cur, want_info=True)
                interventions += int(info.intervened.sum())
                vs.append(model.lyap.value(cur, store))
            vs = np.stack(vs, axis=1)
            dec = vs[:, 1:] - 0.99 * vs[:, :-1]
            worst = max(worst, float(dec.max()))
            violations += int((dec > 1e-3).sum())
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 120.0
    _verdict(1, ok, f"250 models x 20 starts x 200 steps: violations={violations} "
                    f"(want 0), worst decrease margin {worst:.3g} <= 1e-3, "
                    f"interventions={interventions}, {dt:.0f}s (<120s)")


def test_02_root_finder_residuals_budgets_and_quadratic_oracle():
    t0 = time.perf_counter()
    n_int = 0
    max_res = 0.0
    max_bisect = 0
    max_total = 0
    for ci, variant in enumerate(("icnn", "lnn", "convex_lnn")):
        for s in range(20):
            model, store = _fresh("implicit", variant, 31 * ci + s, expand=25.0)
            rng = np.random.default_rng(900 + 31 * ci + s)
            X = rng.uniform(-6.0, 6.0, size=(30, 2))
            _, info = model_step(model, store, X, want_info=True)
            m = info.intervened
            n_int += int(m.sum())
            if m.any():
                gy = info.gamma[m, None] * model.fhat.forward(X, store)[m]
                res = np.abs(model.lyap.value(gy, store)
                             - model.beta * model.lyap.value(X[m], store))
                max_res = max(max_res, float(res.max()))
                max_bisect = max(max_bisect, int(info.bisect_iters[m].max()))
                max_total = max(max_total, int((info.newton_iters[m]
                                                + info.bisect_iters[m]).max()))
    budget = 50 + 60

    class QuadV:
        """V(x) = |x|^2; built with sq = |Y|^2 it is also its own ray along Y."""

        def __init__(self, sq=None):
            self.sq = sq

        def value(self, Y, store, g0=None):
            return (Y * Y).sum(axis=-1)

        def ray(self, Y, store, g0=None):
            return QuadV(self.value(Y, store))

        def take(self, rows):
            return QuadV(self.sq[rows])

        def at(self, gamma):
            return gamma * gamma * self.sq, 2.0 * gamma * self.sq

    # V(g*y) = g^2*|y|^2 has the closed form g = sqrt(target)/|y|; the
    # solver is run tight so the comparison probes convergence, not the
    # default stopping tolerance
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(200):
        y = rng.uniform(-4.0, 4.0, size=(1, 2))
        target = np.array([rng.uniform(0.05, 0.95) * float((y * y).sum())])
        quad = QuadV()
        ray = quad.ray(y, None)
        g, _, _, nb = solve_gamma_batch(ray, *ray.at(np.ones(1)), target, rootfind_tol=1e-12)
        exact = np.sqrt(target[0]) / np.linalg.norm(y)
        worst_gap = max(worst_gap, abs(float(g[0]) - exact))
        max_bisect = max(max_bisect, int(nb[0]))
    dt = time.perf_counter() - t0
    ok = (n_int > 500 and max_res <= 1e-3 and max_bisect <= 10
          and max_total <= budget and worst_gap <= 1e-6 and dt < 60.0)
    _verdict(2, ok, f"{n_int} interventions: max residual {max_res:.3g} <= 1e-3, "
                    f"bisect {max_bisect} <= 10, total {max_total} <= {budget}; "
                    f"quadratic oracle gap {worst_gap:.2g} <= 1e-6, {dt:.0f}s (<60s)")


def test_03_implicit_gradient_routes_agree_and_match_differences():
    t0 = time.perf_counter()
    variants = ("icnn", "lnn", "convex_lnn")
    count = 0
    tried = 0
    worst_route = 0.0
    worst_fd = 0.0
    s = 0
    while count < 100 and tried < 600:
        s += 1
        tried += 1
        model, store = _fresh("implicit", variants[s % 3], s, expand=15.0,
                              hidden_f=(8, 8), hidden_v=(8, 8),
                              rootfind_tol=1e-12)
        rng = np.random.default_rng(10000 + s)
        x = rng.uniform(-6.0, 6.0, size=(1, 2))
        _, info = model_step(model, store, x, want_info=True)
        if not info.intervened[0]:
            continue
        count += 1
        w = rng.standard_normal(2)

        def loss_fn(params, tape):
            if tape is None:
                return float((model_step(model, params, x)[0] * w).sum())
            return ad.vsum(ad.mul(step_expr(model, params, tape, x), w))

        grads = {}
        for route in ("fixed_point", "direct"):
            model.backward_route = route
            store.zero_grads()
            tape = Tape()
            tape.backward(loss_fn(store, tape))
            grads[route] = {k: g.copy() for k, g in store.grads.items()}
        for k in grads["direct"]:
            rel = (np.abs(grads["fixed_point"][k] - grads["direct"][k])
                   / np.maximum(1.0, np.abs(grads["direct"][k])))
            worst_route = max(worst_route, float(rel.max()))
        if count <= 30:
            # the difference check is the slow part; 30 instances with the
            # route alternated keep both backward paths covered
            model.backward_route = "fixed_point" if count % 2 else "direct"
            store.zero_grads()
            rep = ad.grad_check(loss_fn, store, h=1e-5)
            worst_fd = max(worst_fd, rep.max_rel_err)
            model.backward_route = "fixed_point"
    dt = time.perf_counter() - t0
    ok = (count == 100 and worst_route <= 1e-8 and worst_fd <= 1e-4
          and dt < 120.0)
    _verdict(3, ok, f"{count} intervention instances: route gap "
                    f"{worst_route:.2g} <= 1e-8, difference-check err "
                    f"{worst_fd:.2g} <= 1e-4 on 30 of them, {dt:.0f}s (<120s)")


def test_04_step_map_is_continuous_across_the_switching_surface():
    t0 = time.perf_counter()
    ratio_spread = []
    for ci, (mode, variant) in enumerate(COMBOS):
        for s in range(2):
            model, store = _fresh(mode, variant, 77 + 13 * ci + s, expand=12.0)
            rng = np.random.default_rng(400 + 13 * ci + s)

            def intervened(x):
                return bool(model_step(model, store, x[None],
                                       want_info=True)[1].intervened[0])

            found = 0
            for _ in range(300):
                a = rng.uniform(-6.0, 6.0, size=2)
                b = rng.uniform(-6.0, 6.0, size=2)
                if intervened(a) == intervened(b):
                    continue
                pa = intervened(a)
                for _ in range(60):
                    mid = 0.5 * (a + b)
                    if intervened(mid) == pa:
                        a = mid
                    else:
                        b = mid
                xstar = 0.5 * (a + b)
                u = rng.standard_normal(2)
                u /= np.linalg.norm(u)
                f0 = model_step(model, store, xstar)
                rs = np.array([np.linalg.norm(model_step(model, store,
                                                         xstar + d * u) - f0) / d
                               for d in (1e-3, 1e-4, 1e-5)])
                if rs.max() < 1e-9:
                    continue        # step along the surface, nothing to rate
                ratio_spread.append(rs.max() / rs.min())
                found += 1
                if found >= 2:
                    break
    spread = np.array(ratio_spread)
    dt = time.perf_counter() - t0
    ok = len(spread) >= 15 and spread.max() < 10.0 and dt < 60.0
    _verdict(4, ok, f"{len(spread)} surface points: difference-quotient spread "
                    f"max {spread.max():.2f} < 10 across deltas 1e-3..1e-5, "
                    f"{dt:.0f}s (<60s)")


def test_05_mixture_invariants_on_random_stabilized_models():
    t0 = time.perf_counter()
    bad = 0
    interventions = 0
    rows = 0
    for s in range(50):
        mode = ("convex", "implicit")[s % 2]
        variant = ("icnn", "convex_lnn", "lnn")[s % 3]
        if mode == "convex" and variant == "lnn":
            variant = "icnn"
        model, store = _fresh_mdn(mode, variant, 3000 + s, k=(2, 3, 6)[s % 3],
                                  push=15.0, sigma_cap=(1.0, 0.5)[s % 2],
                                  hidden_f=(12, 12), hidden_v=(12, 12))
        rng = np.random.default_rng(8000 + s)
        X = rng.uniform(-6.0, 6.0, size=(15, 2))
        out = mdn_forward(model, store, X)
        rows += X.shape[0]
        interventions += int(out.info.intervened.sum())
        if np.any(out.pi < 0) or np.any(np.abs(out.pi.sum(axis=-1) - 1.0) > 1e-12):
            bad += 1
        v_x = model.lyap.value(X, store)
        v_mu = model.lyap.value(out.mu_mix, store)
        if np.any(v_mu > model.beta * v_x + model.rootfind_tol + 1e-12):
            bad += 1
        max_var = (out.sigma ** 2).max(axis=(1, 2))
        if np.any(max_var > model.sigma_cap * v_mu + 1e-12):
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and interventions > 100 and dt < 60.0
    _verdict(5, ok, f"50 models x {rows // 50} states: simplex, mean-decrease "
                    f"and variance-tether violations={bad} (want 0), "
                    f"interventions={interventions}, {dt:.1f}s (<60s)")


def test_06_linear_system_reproduction_deterministic_and_mixture():
    t0 = time.perf_counter()
    X, Y, _ = generate_transitions("linear", seed=0, steps=40)
    model, store = _fresh("convex", "icnn", 0)
    train(model, store, X, Y,
          TrainConfig(epochs=200, lr=0.0025, batch_size=256, seed=0))

    rng = np.random.default_rng(123)
    starts = rng.uniform(-6.0, 6.0, size=(20, 2))
    Xh = np.concatenate([simulate("linear", s, 40)[:-1] for s in starts])
    Yh = np.concatenate([simulate("linear", s, 40)[1:] for s in starts])
    mse = evaluate_mse(model, store, Xh, Yh)

    # each convergence bound is checked at the step where the reference map
    # itself first meets it from the same starts: A is Jordan-type with
    # |A^40| = 0.66, so no faithful model meets either bound at step 40
    X0 = rng.uniform(-6.0, 6.0, size=(10, 2))
    traj = rollout(model, store, X0, 120)
    ratios = np.linalg.norm(traj, axis=2) / np.linalg.norm(X0, axis=1)[:, None]
    ref = np.stack([simulate("linear", x0, 120) for x0 in X0])
    ref_ratios = np.linalg.norm(ref, axis=2) / np.linalg.norm(X0, axis=1)[:, None]
    ref_step = _first_step(ref_ratios.max(axis=0) < 0.05)
    contraction = float(ratios[:, ref_step].max()) if ref_step >= 0 else np.inf
    contraction_step = _first_step(ratios.max(axis=0) < 0.05)

    Xs, Ys, _ = generate_transitions("linear", seed=1, steps=40, b=0.1)
    mdn, mstore = _fresh_mdn("convex", "icnn", 1, k=2)
    # restart the shuffle stream every 100 epochs; one long stream settles
    # into a mixture that never fits the conditional density
    for block in range(4):
        nll = train(mdn, mstore, Xs, Ys,
                    TrainConfig(epochs=100, lr=0.0025, batch_size=256,
                                seed=1 + block)).final_loss
    rng2 = np.random.default_rng(77)
    sample_max = 0.0
    mean_worst = 0.0
    mean_steps = []
    model_steps = []
    finite = True
    for x0 in ((4.0, -3.5), (-5.0, 5.0), (2.5, 4.5)):
        samp, meanp = stochastic_rollout(mdn, mstore, np.array(x0), 100, 10, rng2)
        finite = finite and bool(np.isfinite(samp).all())
        sample_max = max(sample_max, float(np.abs(samp).max()))
        # the noise b*x*w has zero mean, so the reference mean path is A^t x0
        ref_mean = simulate("linear", np.array(x0), 100)
        step = _first_step(np.linalg.norm(ref_mean, axis=1) < 0.1)
        mean_steps.append(step)
        mean_worst = max(mean_worst, float(np.linalg.norm(meanp[step]))
                         if step >= 0 else np.inf)
        model_steps.append(_first_step(np.linalg.norm(meanp, axis=1) < 0.1))
    dt = time.perf_counter() - t0

    mse_ok = mse < 1e-2
    contraction_ok = contraction < 0.05
    bounded_ok = finite and sample_max < 50.0
    mean_ok = mean_worst < 0.1
    ok = bool(mse_ok and contraction_ok and bounded_ok and mean_ok and dt < 600.0)
    _verdict(6, ok, f"held-out mse {mse:.2e} (<1e-2 {'ok' if mse_ok else 'FAIL'}); "
                    f"contraction {contraction:.3g} at reference step {ref_step} "
                    f"(<0.05 {'ok' if contraction_ok else 'FAIL'}, model reached "
                    f"it at step {contraction_step}); sampled paths max|x| "
                    f"{sample_max:.1f} (<50 {'ok' if bounded_ok else 'FAIL'}); "
                    f"|mean path| {mean_worst:.3g} at reference steps {mean_steps} "
                    f"(<0.1 {'ok' if mean_ok else 'FAIL'}, model reached it at "
                    f"steps {model_steps}, nll {nll:.2f}); {dt:.0f}s (<600s)")


def test_07_certification_oracle_for_the_noisy_linear_system():
    t0 = time.perf_counter()
    A = np.array([[0.9, 1.0], [0.0, 0.9]])
    Q = np.eye(2)
    P = solve_discrete_lyapunov(A, 0.1, Q)
    eig_min = float(np.linalg.eigvalsh(P).min())
    residual = float(np.abs(A.T @ P @ A + 0.01 * P - P + Q).max())
    M = A.T @ P @ A + 0.01 * P - P
    rng = np.random.default_rng(11)
    xs = rng.standard_normal((1000, 2)) * rng.uniform(0.1, 10.0, size=(1000, 1))
    drift_max = float(np.einsum("bi,ij,bj->b", xs, M, xs).max())
    dt = time.perf_counter() - t0
    ok = eig_min > 0 and residual <= 1e-10 and drift_max < 0 and dt < 1.0
    _verdict(7, ok, f"P eig_min {eig_min:.3f} > 0, residual {residual:.2g} "
                    f"<= 1e-10, drift max {drift_max:.3g} < 0 on 1000 states, "
                    f"{dt * 1000:.0f}ms (<1s)")


def test_08_saturated_system_reproduction_across_v_variants():
    t0 = time.perf_counter()
    X, Y, _ = generate_transitions("saturated", seed=0, steps=40)
    rng = np.random.default_rng(55)
    starts = rng.uniform(-6.0, 6.0, size=(5, 2))
    true40 = np.stack([simulate("saturated", s, 40) for s in starts])

    rollout_mse = {}
    reached = worst_dec = stall = share = None
    for variant in ("lnn", "icnn", "convex_lnn"):
        model, store = _fresh("implicit", variant, 8)
        train(model, store, X, Y,
              TrainConfig(epochs=240, lr=0.0025, batch_size=256, seed=8))
        traj, vs = rollout(model, store, starts, 200, record_v=True)
        rollout_mse[variant] = float(((traj[:, :41] - true40) ** 2).mean())
        if variant == "lnn":
            norms = np.linalg.norm(traj, axis=2)
            reached = int((norms < 0.1).any(axis=1).sum())
            worst_dec = float((vs[:, 1:] - 0.99 * vs[:, :-1]).max())
            stall = float(norms[:, 200].max())
            # replay the rollout's own batches to read the step decisions
            share = float(np.mean([
                model_step(model, store, traj[:, t], want_info=True)[1].intervened
                for t in range(200)]))
    dt = time.perf_counter() - t0
    report = ", ".join(f"{k} {v:.3g}" for k, v in rollout_mse.items())
    ok = bool(reached == 5 and worst_dec <= 1e-3 and dt < 900.0)
    print(f"    40-step rollout mse by V variant (report only): {report}")
    _verdict(8, ok, f"{reached}/5 starts reach |x| < 0.1 within 200 steps "
                    f"(final norms up to {stall:.2f}; certificate intervened on "
                    f"{share:.1%} of steps), worst decrease margin "
                    f"{worst_dec:.3g} <= 1e-3, {dt:.0f}s (<900s)")


def test_09_sde_mixture_reproduction_stabilized_vs_baseline():
    t0 = time.perf_counter()
    X, Y, _ = generate_transitions("sde", seed=0, steps=10)
    rng = np.random.default_rng(99)
    starts = rng.uniform(-6.0, 6.0, size=(20, 2))
    trajs = np.stack([simulate("sde", s, 10, seed=5000 + i)
                      for i, s in enumerate(starts)])

    per_t = {}
    models = {}
    for name, mode in (("stabilized", "convex"), ("baseline", "none")):
        model, store = _fresh_mdn(mode, "icnn", 17, k=6)
        train(model, store, X, Y,
              TrainConfig(epochs=160, lr=0.0025, batch_size=256, seed=0))
        per_t[name] = [evaluate_nll(model, store, trajs[:, t], trajs[:, t + 1])
                       for t in range(10)]
        models[name] = (model, store)

    model, store = models["stabilized"]
    rng2 = np.random.default_rng(31)
    sample_max = 0.0
    finite = True
    visited = []
    for s in starts:
        samp, _ = stochastic_rollout(model, store, s, 100, 5, rng2)
        finite = finite and bool(np.isfinite(samp).all())
        sample_max = max(sample_max, float(np.abs(samp).max()))
        visited.append(samp[:, ::10].reshape(-1, 2))
    visited = np.concatenate(visited)
    out = mdn_forward(model, store, visited)
    v_x = model.lyap.value(visited, store)
    v_mu = model.lyap.value(out.mu_mix, store)
    simplex_ok = bool(np.all(out.pi >= 0)
                      and np.all(np.abs(out.pi.sum(axis=-1) - 1.0) <= 1e-12))
    dec_ok = bool(np.all(v_mu <= model.beta * v_x + model.rootfind_tol + 1e-12))
    max_var = (out.sigma ** 2).max(axis=(1, 2))
    tether_ok = bool(np.all(max_var <= model.sigma_cap * v_mu + 1e-12))
    dt = time.perf_counter() - t0

    for name in ("stabilized", "baseline"):
        arr = ", ".join(f"{v:.2f}" for v in per_t[name])
        print(f"    per-step held-out nll, {name} (report only): [{arr}]")
    ok = (finite and sample_max < 50.0 and simplex_ok and dec_ok and tether_ok
          and dt < 900.0)
    _verdict(9, ok, f"100-step extrapolation over 20 starts: max|x| "
                    f"{sample_max:.1f} < 50, finite={finite}; invariants on "
                    f"{len(visited)} visited states: simplex={simplex_ok} "
                    f"decrease={dec_ok} tether={tether_ok}, {dt:.0f}s (<900s)")


def test_10_chaotic_attractor_descent_directions_stay_certified():
    t0 = time.perf_counter()
    X, Y, _ = generate_transitions("lorenz", seed=0, steps=3000)
    model, store = _fresh("projection", "icnn", 4, dim=3, integrating=True)
    train(model, store, X, Y,
          TrainConfig(epochs=120, lr=0.0025, batch_size=256, seed=0))
    x0 = X[0] + np.random.default_rng(6).uniform(-0.5, 0.5, size=3)
    traj = rollout(model, store, x0, 3000)
    finite = bool(np.isfinite(traj).all())
    gv = model.lyap.grad(traj[:-1], store)
    dot_max = float((gv * (traj[1:] - traj[:-1])).sum(axis=1).max())

    base, bstore = _fresh("none", "icnn", 4, dim=3, integrating=True)
    train(base, bstore, X, Y,
          TrainConfig(epochs=120, lr=0.0025, batch_size=256, seed=0))
    with np.errstate(over="ignore", invalid="ignore"):
        btraj = rollout(base, bstore, x0, 3000)
    base_max = float(np.nanmax(np.abs(btraj)))
    dt = time.perf_counter() - t0

    ok = finite and dot_max <= 1e-10 and dt < 1200.0
    _verdict(10, ok, f"3000-step rollout from perturbed start: finite={finite}, "
                     f"max|x| {np.abs(traj).max():.0f}, descent dot max "
                     f"{dot_max:.2g} <= 1e-10; unconstrained baseline reaches "
                     f"max|x| {base_max:.2g} (no requirement), {dt:.0f}s (<1200s)")


def test_11_integrator_orders():
    t0 = time.perf_counter()

    def endpoint(h):
        x = np.array([1.0])
        for _ in range(round(1.0 / h)):
            x = rk4_step(lambda s: -s, x, h)
        return float(x[0])

    exact = float(np.exp(-1.0))
    ratio = abs(endpoint(0.1) - exact) / abs(endpoint(0.05) - exact)

    # multiplicative-noise mean test: dx = a x dt + b x dW has
    # E[x(1)] = exp(a); the 4-sigma band is wide next to the scheme's
    # weak bias at this step size
    a, b, h, n_steps, n_paths = -0.5, 0.3, 0.05, 20, 8000
    rng = np.random.default_rng(100)
    xT = np.empty(n_paths)
    for i in range(n_paths):
        x = np.array([1.0])
        for _ in range(n_steps):
            x = srk2_step(lambda s: a * s, lambda s: np.array([[b * s[0]]]),
                          x, h, rng)
        xT[i] = x[0]
    gap = abs(float(xT.mean()) - float(np.exp(a)))
    band = 4.0 * float(xT.std(ddof=1)) / np.sqrt(n_paths)
    dt = time.perf_counter() - t0
    ok = 12.0 <= ratio <= 20.0 and gap <= band and dt < 60.0
    _verdict(11, ok, f"step-halving error ratio {ratio:.1f} in [12, 20]; "
                     f"noisy mean gap {gap:.4f} <= clt band {band:.4f}, "
                     f"{dt:.0f}s (<60s)")
