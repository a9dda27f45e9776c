"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the tiny size, untraced and traced, each in its own
process, and checks the result line against BENCHMARK.json: every declared
metric is present with its unit and a finite value, nothing else is, no
operation failed, and the human-readable lines report ``fail_ratio 0``.
Exits 0 when all of that holds.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload, trace, declared):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    problems = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if not any(line.startswith("fail_ratio 0 ") for line in lines):
        problems.append("no 'fail_ratio 0' line")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, declared {unit!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace, declared[trace])
            status = "FAIL" if problems else "ok"
            print(f"{status} {workload} trace={trace}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
