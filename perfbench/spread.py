#!/usr/bin/env python3
"""Run the benchmark several times per workload and report run-to-run spread.

    python3 perfbench/spread.py --runs 10 --first-seed 100 [--trace 1]
        [--workloads dense_compute,wide_tail] [--out FILE]

Each run uses its own seed.  For every metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median.  For end-to-end metrics the spread is compared with a
third of the bound in BENCHMARK.json.  ``--out`` writes the whole table,
with the machine facts of the first run, as JSON (the trajectory point).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    run_facts = next(json.loads(l[6:]) for l in lines if l.startswith("facts "))
    return json.loads(lines[-1]), run_facts, elapsed


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    table, first_facts, steady = {}, None, True
    for workload in args.workloads.split(","):
        per_metric, units, elapsed = {}, {}, []
        for i in range(args.runs):
            result, run_facts, secs = run_once(workload, args.first_seed + i, args.seconds,
                                               args.trace)
            first_facts = first_facts or run_facts
            elapsed.append(secs)
            print(f"{workload} seed {args.first_seed + i}: {secs:.0f} s, " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:5]),
                flush=True)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {args.first_seed + i}: {result['failed']} failed")
            for name, entry in result["metrics"].items():
                per_metric.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
        rows = {}
        print(f"\n{workload}: {args.runs} runs, {statistics.mean(elapsed):.1f} s each on average")
        for name, values in per_metric.items():
            row = summarize(values)
            row["unit"] = units[name]
            rows[name] = row
            note = ""
            if name in bounds:
                ok = row["spread"] is not None and row["spread"] < bounds[name] / 3
                steady &= ok
                note = f"bound {bounds[name]}: {'ok' if ok else 'TOO WIDE'}"
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {name:34} median {row['median']:<12.6g} spread {spread:8} {units[name]:6} {note}")
        table[workload] = {"runs": args.runs, "mean_run_s": statistics.mean(elapsed),
                           "metrics": rows}
    if args.out:
        point = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                 "seconds": args.seconds, "trace": args.trace,
                 "machine": {k: first_facts[k] for k in
                             ("nproc", "python", "numpy", "scipy", "blas_threads", "load")},
                 "workloads": table}
        Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
