"""The benchmark's own tests: the correctness gate and the metric contract.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402


def test_checker_counts_exactly_the_planted_rows():
    counts = checks.self_test()
    assert counts["decrease"] == 1 and counts["finite"] == 1 and counts["simplex"] == 1
    assert counts["mean_decrease"] == 1 and counts["path_finite"] == 1
    assert counts["clean"] == 0 and counts["mixture_clean"] == 0 and counts["rollout_clean"] == 0


def test_benchmark_json_lists_the_metrics_the_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
