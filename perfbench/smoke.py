#!/usr/bin/env python3
"""Smoke run: every workload at a tiny size, untraced and traced.

This includes ``dense_compute``, which runs but is not in BENCHMARK.json.

    python3 perfbench/smoke.py

Takes about a minute.  Fails unless every run exits 0, reports
``correct``, and prints exactly the end-to-end (``--trace 0``) or
per-layer (``--trace 1``) metric names of BENCHMARK.json with their units.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            if units != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
            print(f"{where}: {result['attempted']} attempted, {result['failed']} failed")
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
