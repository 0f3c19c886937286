"""The benchmark's metric names, and the per-layer ones computed from spans.

END_TO_END are reported by every workload's timed run (--trace 0), PER_LAYER
by every workload's traced run (--trace 1); BENCHMARK.json lists the same
names. Per-layer times are normalised like the end-to-end ones (scale = nominal / measured
reference over the traced rounds) and given per call unless the name says
per batch; "self" is a span's duration minus that of its child spans. The
names marked EXACT are counts of work, the same on every round and every run
of one seed, so a later change may claim them without timing noise.
"""

from __future__ import annotations

import numpy as np

import spans
import workloads

# seconds of one round of the workload's fixed work, normalised to the
# nominal machine speed; the round split into cells whose model runs the
# gamma root-finder (implicit mode) and the rest; and set-up time
END_TO_END = [("round_s", "s"), ("implicit_s", "s"), ("closed_form_s", "s"),
              ("setup_s", "s")]

ROLL_CELLS = tuple(f"{mode}-{v}" for mode, v in workloads.ROLL_PAIRS)

EXACT = (
    "lyapunov.calls_per_step", "lyapunov.calls_per_batch", "autodiff.nodes_per_batch",
    "deterministic.solve_iters_per_row", "deterministic.solve_iters_max",
    "deterministic.intervene_frac", "deterministic.strict_breach_frac",
    "training.batches", "nets.forward_calls",
)

PER_LAYER = [
    ("autodiff.backward_ms", "ms"), ("autodiff.record_ms", "ms"),
    ("autodiff.nodes_per_batch", "count"), ("autodiff.gc_ms", "ms"),
    ("autodiff.gc_objects", "count"),
    ("nets.forward_calls", "count"), ("nets.forward_ms.raw", "ms"),
    ("nets.forward_ms.tape", "ms"),
    ("lyapunov.calls_per_step", "count"), ("lyapunov.calls_per_batch", "count"),
    ("lyapunov.self_ms.raw", "ms"), ("lyapunov.self_ms.tape", "ms"),
    ("deterministic.solve_ms", "ms"), ("deterministic.solve_iters_per_row", "count"),
    ("deterministic.solve_iters_max", "count"), ("deterministic.intervene_frac", "count"),
    ("deterministic.model_step_self_ms", "ms"), ("deterministic.step_expr_self_ms", "ms"),
    ("deterministic.strict_breach_frac", "count"),
    *[(f"deterministic.step_us_{q}.{p}.b{b}", "us")
      for q in ("p50", "p99") for p in ROLL_CELLS for b in workloads.ROLL_BATCHES],
    ("training.adam_ms", "ms"), ("training.batches", "count"),
    ("stochastic.forward_ms.raw", "ms"), ("stochastic.forward_ms.tape", "ms"),
    ("stochastic.nll_ms", "ms"), ("stochastic.sample_ms", "ms"),
    ("systems.generate_s", "s"),
    ("model_io.save_ms", "ms"), ("model_io.load_ms", "ms"),
    ("env.ref_kernel_us", "us"), ("trace.overhead_frac", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: np.ndarray, scale: float) -> float:
    return float(values.mean()) * scale if values.size else 0.0


def round_counts(tr: spans.Tracer, rnd: int) -> dict:
    """Exact counts of one traced round; every round of a run must agree."""
    tab = tr.table({rnd})
    lyap = tr.name_mask(tab, *spans.LYAP)
    out = {name: int(tr.name_mask(tab, name).sum()) for name in
           ("nets.forward", "deterministic.model_step", "training.adam_step",
            "autodiff.backward", "deterministic.solve")}
    out["lyapunov.in_step"] = int((lyap & (tab["ctx"] & spans.IN_STEP > 0)).sum())
    out["lyapunov.in_train"] = int((lyap & (tab["ctx"] & spans.IN_TRAIN > 0)).sum())
    out["tape_nodes"] = float(tab["x1"][tr.name_mask(tab, "autodiff.backward")].sum())
    for key, per_round in tr.counts.items():
        out[key] = per_round.get(rnd, 0.0)
    return out


def layer_metrics(tr: spans.Tracer, rounds: list[int], results, scale: float,
                  ref_us: float, overhead: float) -> dict[str, float]:
    """Every PER_LAYER metric over the traced rounds (setup spans are round -1)."""
    R = len(rounds)
    tab = tr.table(set(rounds))
    setup = tr.table({-1})
    ms = 1e3 * scale

    def m(name, t=tab):
        return tr.name_mask(t, name)

    counts = [round_counts(tr, r) for r in rounds]
    total = {k: sum(c.get(k, 0.0) for c in counts) for k in counts[0]} if counts else {}
    batches = total.get("training.adam_step", 0)
    n_back = total.get("autodiff.backward", 0)
    gc_s = sum(tr.gc_s.get(r, 0.0) for r in rounds)
    gc_obj = sum(tr.gc_objects.get(r, 0.0) for r in rounds)

    taped = tab["tape"]
    fwd, lyap = m("nets.forward"), tr.name_mask(tab, *spans.LYAP)
    sfwd, nll = m("stochastic.forward"), m("stochastic.nll")
    record = (tab["dur"][m("deterministic.step_expr")].sum()
              + tab["dur"][sfwd & taped].sum() + tab["dur"][nll & taped].sum())
    solve = m("deterministic.solve")

    out = {
        "autodiff.backward_ms": _mean(tab["dur"][m("autodiff.backward")], ms),
        "autodiff.record_ms": _ratio(record, batches) * ms,
        "autodiff.nodes_per_batch": _ratio(total.get("tape_nodes", 0.0), n_back),
        "autodiff.gc_ms": _ratio(gc_s, batches) * ms,
        "autodiff.gc_objects": _ratio(gc_obj, batches),
        "nets.forward_calls": _ratio(total.get("nets.forward", 0), R),
        "nets.forward_ms.raw": _mean(tab["dur"][fwd & ~taped], ms),
        "nets.forward_ms.tape": _mean(tab["dur"][fwd & taped], ms),
        "lyapunov.calls_per_step": _ratio(total.get("lyapunov.in_step", 0),
                                          total.get("deterministic.model_step", 0)),
        "lyapunov.calls_per_batch": _ratio(total.get("lyapunov.in_train", 0), batches),
        "lyapunov.self_ms.raw": _mean(tab["self"][lyap & ~taped], ms),
        "lyapunov.self_ms.tape": _mean(tab["self"][lyap & taped], ms),
        "deterministic.solve_ms": _mean(tab["dur"][solve], ms),
        "deterministic.solve_iters_per_row": _ratio(total.get("solve_iters", 0.0),
                                                    total.get("solve_rows", 0.0)),
        "deterministic.solve_iters_max": float(tab["x1"][solve].max()) if solve.any() else 0.0,
        "deterministic.intervene_frac": _ratio(total.get("intervened_rows", 0.0),
                                               total.get("decided_rows", 0.0)),
        "deterministic.model_step_self_ms": _mean(tab["self"][m("deterministic.model_step")], ms),
        "deterministic.step_expr_self_ms": _mean(tab["self"][m("deterministic.step_expr")], ms),
        "deterministic.strict_breach_frac": _ratio(
            sum(r.strict_breaches for r in results), sum(r.strict_rows for r in results)),
        "training.adam_ms": _mean(tab["dur"][m("training.adam_step")], ms),
        "training.batches": _ratio(batches, R),
        "stochastic.forward_ms.raw": _mean(tab["dur"][sfwd & ~taped], ms),
        "stochastic.forward_ms.tape": _mean(tab["dur"][sfwd & taped], ms),
        "stochastic.nll_ms": _mean(tab["dur"][nll], ms),
        "stochastic.sample_ms": _mean(tab["dur"][m("stochastic.sample")], ms),
        "systems.generate_s": _mean(setup["dur"][m("systems.generate", setup)], scale),
        "model_io.save_ms": _mean(setup["dur"][m("model_io.save", setup)], ms),
        "model_io.load_ms": _mean(setup["dur"][m("model_io.load", setup)], ms),
        "env.ref_kernel_us": ref_us,
        "trace.overhead_frac": overhead,
    }
    step = m("deterministic.model_step")
    for p in ROLL_CELLS:
        for b in workloads.ROLL_BATCHES:
            label = f"{p}.b{b}"
            durs = tab["dur"][step & (tab["label"] == tr.label_id(label))]
            for q, pct in (("p50", 50), ("p99", 99)):
                out[f"deterministic.step_us_{q}.{label}"] = (
                    float(np.percentile(durs, pct)) * 1e6 * scale if durs.size else 0.0)
    return out
