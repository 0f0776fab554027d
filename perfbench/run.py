#!/usr/bin/env python3
"""Seeded, checked end-to-end benchmark of the pmlkit command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pmlkit checkout; the package is imported from
``src/``.  The load is a closed loop: one client, one request at a time.
Every request is a ``pmlkit.cli.main(argv)`` call in a process forked
from a parent that has only imported the package.  Before anything is
timed, the five golden CLI reports in ``fixtures/golden`` are
byte-compared; after the timed loop every report is checked against
the numpy references in ``checks.py``.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics; with ``--trace 1`` each request runs twice (untraced and
traced, alternating which goes first) and it carries the per-layer
metrics.  The exit code is 0 only when every check passed.
"""

import os

#: BLAS threads, pinned before numpy loads (at most nproc; the work is serial Python)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("PMLKIT_THREADS", None)

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".bench_work"
#: fresh interpreters per run for setup_s (the median is reported)
SETUP_SPAWNS = 9
#: the exit code every request expects
EXIT_OK = 0

GOLDENS = {
    "compute_geometric_binary.json": ["compute", "geometric_binary_p03_q05.json"],
    "compute_identity4.json": ["compute", "identity4.json"],
    "tail_identity4.json": ["tail", "identity4.json", "--eps", "1.0",
                            "--eps", "1.3862943611198906"],
    "continuous_additive_gaussian.json": ["continuous", "--family",
                                          "family_additive_gaussian.json", "--outcome", "0",
                                          "--check-grid"],
    "continuous_gaussian_mixture.json": ["continuous", "--family",
                                         "family_gaussian_mixture.json", "--outcome", "0.5"],
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import pmlkit.cli from this checkout's src/, never from elsewhere."""
    package = SRC / "pmlkit"
    if not (package / "cli.py").is_file() or not (FIXTURES / "golden").is_dir():
        fail(f"run from the root of a pmlkit checkout (no {package}/cli.py or fixtures/golden)")
    sys.path.insert(0, str(SRC))
    import pmlkit.cli

    if Path(pmlkit.cli.__file__).resolve().parent != package.resolve():
        fail(f"imported pmlkit from {pmlkit.cli.__file__}, not from {package}")
    return pmlkit


def golden_failures(workdir: Path) -> list:
    """Byte-compare the CLI's output with the committed golden reports."""
    import harness

    failures = []
    for name, argv in GOLDENS.items():
        argv = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in argv]
        out = workdir / f"golden_{name}"
        outcome = harness.run_request(argv, str(out))
        if outcome.error or outcome.code != 0:
            failures.append(f"golden {name}: exit {outcome.code} {outcome.error or ''}")
        elif out.read_bytes() != (FIXTURES / "golden" / name).read_bytes():
            failures.append(f"golden {name}: report bytes differ")
    return failures


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread_order(requests, rng) -> list:
    """A seeded order of one round in which each label's requests are spaced
    evenly, so any stretch of the loop carries close to the round's mix."""
    groups = {}
    for i, req in enumerate(requests):
        groups.setdefault(req.label, []).append(i)
    keyed = []
    for label in sorted(groups):
        members = groups[label]
        offset = rng.random()
        for j, i in enumerate(rng.permutation(members)):
            keyed.append(((j + offset) / len(members), int(i)))
    return [i for _, i in sorted(keyed)]


def timed_loop(work, seconds: float, traced: bool, seed: int, workdir: Path, spawn) -> tuple:
    """Closed loop over repeated rounds until ``seconds`` of requests have run.

    ``spawn()`` times one fresh interpreter for ``setup_s``.  It runs
    SETUP_SPAWNS times, spaced evenly over the loop, between requests and
    off the loop's clock, so ``setup_s`` samples the same stretch of time
    as the requests.  Returns (records, request wall seconds, spawn
    results); a record is (request, report path, traced flag, outcome)."""
    import numpy as np

    import harness

    rng = np.random.default_rng([seed, 7])
    records, setup_runs = [], []
    paused = 0.0
    t_begin = time.perf_counter()

    def elapsed():
        return time.perf_counter() - t_begin - paused

    while elapsed() < seconds:
        for i in spread_order(work.round, rng):
            if records and elapsed() >= seconds:
                break
            if len(setup_runs) < SETUP_SPAWNS and \
                    elapsed() >= len(setup_runs) * seconds / SETUP_SPAWNS:
                t_spawn = time.perf_counter()
                setup_runs.append(spawn())
                paused += time.perf_counter() - t_spawn
            req = work.round[i]
            modes = [False]
            if traced:
                modes = [False, True] if len(records) % 4 == 0 else [True, False]
            for mode in modes:
                n = len(records)
                report = workdir / f"r{n}.out"
                outcome = harness.run_request(req.argv, str(report), traced=mode, request_id=n)
                records.append((req, report, mode, outcome))
    wall = elapsed()
    while len(setup_runs) < SETUP_SPAWNS:  # the last request overran the spawn schedule
        setup_runs.append(spawn())
    return records, wall, setup_runs


def check_records(records) -> list:
    failures = []
    for req, report, _, outcome in records:
        if outcome.error:
            reason = outcome.error
        elif outcome.code != EXIT_OK:
            err = Path(str(report) + ".err").read_text(errors="replace").strip()
            reason = f"exit {outcome.code}, expected {EXIT_OK}: {err[-300:]}"
        else:
            try:
                reason = req.check(report.read_text())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"report does not parse as expected: {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"{req.kind} {' '.join(req.argv)[:160]}: {reason}")
    return failures


def end_to_end(records, wall: float, setup_walls: list) -> dict:
    latencies = [o.latency_s for _, _, _, o in records]
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.p90": (percentile(latencies, 90), "s"),
        "requests_per_s": (len(records) / wall, "1/s"),
        "peak_rss_mb": (max(o.rss_kb for _, _, _, o in records) / 1024.0, "MB"),
    }


def per_layer(records, setup_runs: list) -> dict:
    import spans

    traced = [(req, rep, o) for req, rep, mode, o in records if mode]
    plain = [o.latency_s for _, _, mode, o in records if not mode]
    n = len(traced)
    total_latency = sum(o.latency_s for _, _, o in traced)
    layers, subs, calls = {}, {}, {}
    for _, _, o in traced:
        for table, part in ((layers, "layers"), (subs, "sublayers")):
            for key, (count, self_s) in o.trace[part].items():
                entry = table.setdefault(key, [0, 0.0])
                entry[0] += count
                entry[1] += self_s
        for key, count in o.trace["calls"].items():
            calls[key] = calls.get(key, 0) + count

    def self_of(key, table=subs):
        return table.get(key, [0, 0.0])[1]

    m = {}
    for layer in spans.LAYERS:
        count, self_s = layers.get(layer, [0, 0.0])
        m[f"{layer}.calls"] = (count / n, "count")
        m[f"{layer}.self_s"] = (self_s / n, "s")
        m[f"{layer}.share"] = (self_s / total_latency, "ratio")
    bytes_in = sum(req.bytes_in for req, _, _ in traced)
    report_bytes = sum(rep.stat().st_size for _, rep, _ in traced)
    candidates = sum(req.candidates for req, _, _ in traced)
    enum_self = sum(self_of(f"oracles.{k}") for k in ("subset", "functions", "strategies"))
    modelio_self = self_of("modelio", layers)
    m["modelio.bytes_in"] = (bytes_in / n, "B")
    m["modelio.parse_mb_per_s"] = (bytes_in / 1e6 / modelio_self if modelio_self else 0.0, "MB/s")
    m["distributions.vectors_validated"] = (calls.get("distributions.DiscreteDistribution", 0) / n,
                                            "count")
    m["leakage.profile.self_s"] = (self_of("leakage.profile") / n, "s")
    m["leakage.pml.calls"] = (calls.get("leakage.pml", 0) / n, "count")
    m["leakage.aggregate.calls"] = (subs.get("leakage.aggregate", [0, 0.0])[0] / n, "count")
    m["leakage.aggregate.self_s"] = (self_of("leakage.aggregate") / n, "s")
    m["cli.report_bytes"] = (report_bytes / n, "B")
    for oracle in ("subset", "partition", "functions", "strategies"):
        m[f"oracles.{oracle}.self_s"] = (self_of(f"oracles.{oracle}") / n, "s")
    m["oracles.candidates"] = (candidates / n, "count")
    m["oracles.candidates_per_s"] = (candidates / enum_self if enum_self else 0.0, "1/s")
    m["continuous.grid_points"] = (sum(req.grid_points for req, _, _ in traced) / n, "count")
    setup_wall = statistics.median(w for w, _ in setup_runs)
    m["setup.calls"] = (len(setup_runs), "count")
    m["setup.self_s"] = (setup_wall, "s")
    m["setup.share"] = (setup_wall / (setup_wall + statistics.mean(plain)), "ratio")
    for package in ("scipy", "numpy", "pmlkit"):
        m[f"setup.import.{package}_s"] = (statistics.median(p.get(package, 0.0)
                                                            for _, p in setup_runs), "s")
    m["bench.fork_s"] = (statistics.median(o.fork_s for _, _, _, o in records), "s")
    m["trace.overhead_share"] = (
        statistics.median(o.latency_s for _, _, o in traced) / statistics.median(plain) - 1.0,
        "ratio")
    return m


def facts(args, pkg, work, records) -> dict:
    import numpy
    import scipy

    kinds = {}
    for req in work.round:
        kinds[req.kind] = kinds.get(req.kind, 0) + 1
    with_model = [req.model for req in work.round if req.model]
    by_kind = {}
    for req, _, mode, outcome in records:
        if not mode:
            by_kind.setdefault(req.label, []).append(outcome.latency_s)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pmlkit": pkg.__version__,
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, 1 client, 1 request at a time, forked per request",
        "requests": len(records),
        "requests_per_round_by_kind": kinds,
        "untraced_latency_s_p50_by_label": {k: statistics.median(v) for k, v in by_kind.items()},
        "model_reuse_share": (1.0 - len(set(with_model)) / len(with_model)) if with_model else 0.0,
        "inputs": work.manifest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny models (smoke run)")
    args = parser.parse_args(argv)

    pkg = load_package()
    sys.path.insert(0, str(HERE))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    phases = {}

    def phase(name, start):
        phases[name] = time.perf_counter() - start
        return time.perf_counter()

    try:
        t = time.perf_counter()
        failures = golden_failures(workdir)
        t = phase("golden_s", t)
        work = harness.in_child(workloads.build, args.workload, args.seed, workdir, args.tiny)
        t = phase("inputs_s", t)
        env = dict(os.environ)
        records, wall, setup_runs = timed_loop(
            work, args.seconds, bool(args.trace), args.seed, workdir,
            functools.partial(harness.spawn_import, str(SRC), env, importtime=bool(args.trace)))
        t = phase("loop_s", t)
        failures += check_records(records)
        phase("checks_s", t)
        if args.trace:
            metrics = per_layer(records, setup_runs)
        else:
            metrics = end_to_end(records, wall, [w for w, _ in setup_runs])
        run_facts = facts(args, pkg, work, records)
        run_facts["phases"] = phases
        run_facts["setup_walls_s"] = [w for w, _ in setup_runs]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(GOLDENS) + len(records)
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print("facts " + json.dumps(run_facts, sort_keys=True))
    print(f"{'metric':32} {'value':>14} unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:14.6g} {unit}")
    print(f"{'error_rate':32} {len(failures) / attempted:14.6g} ratio"
          f"  ({len(failures)} of {attempted}, goldens included)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
