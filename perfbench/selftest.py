#!/usr/bin/env python3
"""Quick-mode test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seconds 2]

Checks that ``BENCHMARK.json`` names exactly the metrics ``run.py``
emits, with the same units; runs every workload briefly untraced and
traced and asserts that each named metric is emitted with its unit, that
every answer was correct, and that each workload loads what it exists to
load (result-cache hit ratio about 1 on ``warm-reads`` and about 0 on
``cold-batches``; on ``grant-churn``, at full run length, at least one
log compaction).  Finally runs the benchmark in a directory holding only
``BENCHMARK.json`` and the benchmark's files, where it must fail without
printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, PER_LAYER_UNITS, WORK_ROOT, WORKLOAD_NAMES  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit("selftest FAILED: %s" % message)


def run_bench(cwd: Path, workload: str, seconds: float, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description="quick-mode test of the benchmark")
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS,
          "BENCHMARK.json end_to_end differs from run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS,
          "BENCHMARK.json per_layer differs from run.py")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES),
          "BENCHMARK.json workloads differ from run.py")

    for workload in WORKLOAD_NAMES:
        for trace, units in ((0, END_TO_END_UNITS), (1, PER_LAYER_UNITS)):
            code, stdout = run_bench(ROOT, workload, args.seconds, trace)
            label = "%s --trace %d" % (workload, trace)
            check(code == 0, "%s exited %d" % (label, code))
            result = json.loads(stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s result keys %s" % (label, sorted(result)))
            check(result["correct"] is True and result["attempted"] >= 1,
                  "%s correct/attempted" % label)
            metrics = result["metrics"]
            check(set(metrics) == set(units), "%s metric names" % label)
            for name, unit in units.items():
                value = metrics[name]["value"]
                check(metrics[name]["unit"] == unit, "%s unit of %s" % (label, name))
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      "%s value of %s" % (label, name))
            if trace:
                hit_ratio = metrics["gateway.result_cache_hit_ratio"]["value"]
                if workload == "warm-reads":
                    check(hit_ratio >= 0.99, "warm-reads hit ratio %.3f" % hit_ratio)
                if workload == "cold-batches":
                    check(hit_ratio <= 0.01, "cold-batches hit ratio %.3f" % hit_ratio)
                if workload == "grant-churn" and args.seconds >= spec["run_seconds"]:
                    check(metrics["persistence.compactions"]["value"] > 0,
                          "grant-churn ran no compaction")
            print("ok %s" % label, flush=True)

    bare = WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run_bench(bare, WORKLOAD_NAMES[0], args.seconds, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and '"metrics"' not in stdout, "bare checkout did not fail cleanly")
    print("ok bare checkout fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
