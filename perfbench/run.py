"""stabledyn benchmark: timed end-to-end runs and a separate traced run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

--trace 0 times the workload with no instrumentation and reports the
end-to-end metrics; --trace 1 times it untraced and then traced, checks the
two give bit-identical outputs, and reports the per-layer metrics. Either
way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --workload all runs every workload
in turn and prints the per-workload metric table for each (for people; it
is not one of the benchmark's workloads). See perfbench/README.md.
"""

import os

# one thread: the benchmark measures a serial closed loop, and numpy's
# threaded OpenBLAS would otherwise race the interpreter for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_ROUNDS = 3

# the per-workload metrics named after what a user of each workload waits
# for; printed with every run, not part of the JSON contract
DETAIL_UNITS = {"epoch_s": ("s", 1.0), "step_us": ("us", 1e6),
                "mix_epoch_s": ("s", 1.0), "sample_us": ("us", 1e6)}
LOSS_NAME = {"train": "final_mse", "mixture": "final_nll"}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _lower_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _cell_times(results):
    """Each cell's lower quartile over rounds. A slow moment then spoils one
    sample of one cell, not a whole round; and a disturbed machine slows a
    cell by more than the reference around it catches, so the quartile of
    the quicker rounds repeats better between runs than the median (over 12
    runs of `train` on a shared 2-core x86 box, an IQR/median of 5% instead
    of 9%). Returns {label: (cell, norm_s, raw_s)}."""
    by_label = {}
    for res in results:
        for c in res.cells:
            by_label.setdefault(c.label, []).append(c)
    return {label: (cells[0], _lower_quartile([c.norm_s for c in cells]),
                    _lower_quartile([c.raw_s for c in cells]))
            for label, cells in by_label.items()}


def _totals(results, raw=False):
    """round_s, implicit_s and closed_form_s: sums of the cells' times."""
    med = _cell_times(results).values()
    pick = 2 if raw else 1
    total = sum(m[pick] for m in med)
    implicit = sum(m[pick] for m in med if m[0].implicit)
    return {"round_s": total, "implicit_s": implicit, "closed_form_s": total - implicit}


def _details(results):
    """Per-workload user-facing metrics: Σ cell times / Σ units per group."""
    groups = {}
    for cell, norm, raw in _cell_times(results).values():
        acc = groups.setdefault(cell.group, [0.0, 0.0, 0])
        acc[0] += norm
        acc[1] += raw
        acc[2] += cell.units
    out = {}
    for g, (norm, raw, units) in groups.items():
        unit, mult = DETAIL_UNITS[g.split(".")[0]]
        out[g] = (norm / units * mult, raw / units * mult, unit)
    return out


def _run_rounds(wl, clock, seconds, tracer=None, min_rounds=MIN_ROUNDS):
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < min_rounds or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.cur_round = len(results)
        results.append(wl.round(clock, tracer))
    return results


def _failed_checks(results):
    failures = {}
    for res in results:
        for name, n in res.failures.items():
            failures[name] = failures.get(name, 0) + n
    return [f"{name}: {n} failed" for name, n in sorted(failures.items())]


def _print_details(name, results, attempted, failed):
    for metric, (norm, raw, unit) in sorted(_details(results).items()):
        print(f"  {metric:<26} {norm:12.6g} {unit:<3} (raw {raw:.6g} {unit})")
    losses = [statistics.fmean(r.losses) for r in results if r.losses]
    if name in LOSS_NAME and losses:
        print(f"  {LOSS_NAME[name]:<26} {losses[-1]:12.10g} {'mse' if name == 'train' else 'nll'}")
    print(f"  {'fail_frac':<26} {failed / attempted:12.6g} ratio "
          f"({failed} of {attempted})")


def run_workload(name, seed, seconds, trace, workdir):
    import metrics
    import refclock
    import spans
    import workloads

    cls = workloads.WORKLOADS[name]
    failed_checks = []
    clock = refclock.Clock()
    ref_start = len(clock.refs_us)

    if trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.active = True
        wl = cls(seed, workdir)
        wl.setup()
        tracer.uninstall()
        failed_checks += wl.warm_start()
        warm = wl.round(clock)
        plain = _run_rounds(wl, clock, seconds / 2, min_rounds=2)
        tracer.install()
        tracer.active = True
        traced_ref = len(clock.refs_us)
        traced = _run_rounds(wl, clock, seconds / 2, tracer, min_rounds=2)
        tracer.uninstall()
        untraced = [warm, *plain]
        results = [*untraced, *traced]
        ref_us = clock.mean_ref_us(traced_ref)
        overhead = _totals(traced)["round_s"] / _totals(plain)["round_s"] - 1.0
        rounds = list(range(len(traced)))
        if {r.digest for r in traced} != {warm.digest}:
            failed_checks.append("trace.bit_identical: traced outputs differ from untraced")
        counts = [metrics.round_counts(tracer, r) for r in rounds]
        if any(c != counts[0] for c in counts):
            failed_checks.append("trace.counts_repeat: exact counts differ between rounds")
        values = metrics.layer_metrics(tracer, rounds, traced,
                                       refclock.REF_NOMINAL_US / ref_us, ref_us, overhead)
        units = dict(metrics.PER_LAYER)
        print(f"[{name}] traced {len(traced)} rounds after {len(plain)} untraced; "
              f"overhead {overhead:+.3%}; digest {warm.digest[:16]}")
        for key, unit in metrics.PER_LAYER:
            tag = "  exact" if key in metrics.EXACT else ""
            print(f"  {key:<44} {values[key]:14.6g} {unit}{tag}")
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            wl = cls(seed, workdir)
            _, _, norm = clock.time_cell(wl.setup)
            setups.append(norm)
        setup_s = _median(setups)
        errors, warm_raw, warm_norm = clock.time_cell(wl.warm_start)
        failed_checks += errors
        warm = wl.round(clock)
        timed = _run_rounds(wl, clock, seconds)
        results = untraced = [warm, *timed]
        values = {**_totals(timed), "setup_s": setup_s}
        raw = _totals(timed, raw=True)
        units = dict(metrics.END_TO_END)
        ref_us = clock.mean_ref_us(ref_start)
        print(f"[{name}] seed {seed}: {len(timed)} timed rounds after 1 warm-up; "
              f"mean reference {ref_us:.1f} us; digest {warm.digest[:16]}")
        for key, unit in metrics.END_TO_END:
            note = f" (raw {raw[key]:.6g} s)" if key in raw else ""
            print(f"  {key:<26} {values[key]:12.6g} {unit}{note}")
        print(f"  {'warm_start_s':<26} {warm_norm:12.6g} s   (raw {warm_raw:.6g} s)")

    if len({r.digest for r in untraced}) != 1:
        failed_checks.append("determinism: rounds of identical work gave different outputs")

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    failed_checks += _failed_checks(results)
    if not trace:
        _print_details(name, timed, attempted, failed)
    return {"correct": not failed_checks, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
            "checks_failed": failed_checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "rollout", "mixture", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stabledyn" / "__init__.py").is_file():
        print(f"perfbench: no stabledyn sources at {SRC}; run it from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stabledyn
    if Path(stabledyn.__file__).resolve().parent != (SRC / "stabledyn").resolve():
        print(f"perfbench: imported stabledyn from {stabledyn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import checks
    import refclock

    print("env " + json.dumps(refclock.environment(), sort_keys=True))
    gate = []
    try:
        checks.self_test()
    except ValueError as exc:
        gate.append(f"checker.self_test: {exc}")

    names = ("train", "rollout", "mixture") if args.workload == "all" else (args.workload,)
    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        outs = [run_workload(n, args.seed, args.seconds, args.trace, workdir) for n in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_checks = gate + [c for o in outs for c in o["checks_failed"]]
    for line in failed_checks:
        print(f"FAILED CHECK {line}")
    result = {"correct": not failed_checks,
              "attempted": sum(o["attempted"] for o in outs),
              "failed": sum(o["failed"] for o in outs),
              "metrics": outs[0]["metrics"] if len(outs) == 1 else
              {f"{n}.{k}": v for n, o in zip(names, outs) for k, v in o["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
