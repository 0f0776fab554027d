"""The three workloads: seeded inputs and one round of requests each.

A run repeats rounds of the same request list, each in a seeded order
that spaces every label's requests evenly, so every run, and every
stretch of a run, sees the same mix of request kinds.  Why each workload exists:

* ``dense_compute`` - ``compute`` on square models (sides 300 to 1500).
  Parsing (``modelio``) and row validation (``distributions``) dominate;
  the leakage kernel barely matters.  Shows I/O, validation and memory
  changes.
* ``wide_tail`` - ``tail`` and ``compute`` on thin, wide models (|X| 16
  or 64, |Y| 2000 or 4000, each file under 4 MB).  Parsing is small; the
  per-outcome profile, the |Y|^2 tail CDF loop and report emission
  dominate.  A parsing speed-up should show nothing here.
* ``verify_mix`` - ``verify`` with each of the four oracles on small
  models, plus ``continuous`` closed-form and grid-checked requests.
  Brute-force enumeration in ``oracles`` dominates; parsing and the
  kernel do not matter.  The only workload that runs ``continuous``.

Request counts per round put the median and the 90th percentile each
inside a block of requests of one kind and similar cost, so that the
percentiles do not jump between kinds from run to run, and let a
42-second run complete at least 100 requests on a 2-core machine.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
from inputs import make_model

WORKLOADS = ("dense_compute", "wide_tail", "verify_mix")


@dataclasses.dataclass
class Request:
    """One CLI invocation and its report check; every request expects exit code 0."""

    kind: str
    argv: list
    check: Callable[[str], Optional[str]]
    model: Optional[str] = None
    variant: str = ""
    bytes_in: int = 0
    candidates: int = 0
    grid_points: int = 0

    @property
    def label(self) -> str:
        """Requests with one label do the same work on same-shaped inputs."""
        return "@".join(filter(None, (self.kind, self.model, self.variant)))


@dataclasses.dataclass
class Workload:
    models: list
    round: list

    @property
    def manifest(self) -> list:
        return [m.manifest for m in self.models]


def _model_request(kind, argv, check, model, fmt="json", variant=""):
    files = list(model.files[fmt])
    return Request(kind, [argv[0]] + files + argv[1:], check, model.name, variant,
                   sum(Path(f).stat().st_size for f in files))


def _compute(kind: str, m, fmt="json", outcome=None) -> Request:
    """A ``compute`` request; ``kind`` is compute.json, .csv, .bits, .outcome
    or .csvmodel (the model read from its channel/prior CSV pair)."""
    if kind == "compute.csv":
        return _model_request(kind, ["compute", "--format", "csv"], partial(
            checks.check_profile_csv, model=m, units="nats"), m)
    if kind == "compute.outcome":
        return _model_request(kind, ["compute", "--outcome", outcome], partial(
            checks.check_outcome, model=m, outcome=outcome, units="nats"), m)
    units = "bits" if kind == "compute.bits" else "nats"
    return _model_request(kind, ["compute"] + (["--units", "bits"] if units == "bits" else []), partial(
        checks.check_profile_json, model=m, units=units), m, fmt=fmt)


def dense_compute(rng: np.random.Generator, directory: Path, tiny: bool) -> Workload:
    # Requests per round: 9 cheap (side 300, or one outcome at 600), 7 full
    # profiles at 600 (the median falls in the middle of these), 8 at 1000
    # (the 90th percentile) and 1 at 1500.
    sides = (12, 16, 20, 24) if tiny else (300, 600, 1000, 1500)
    mix = {
        sides[0]: {"compute.json": 4, "compute.csv": 1, "compute.bits": 1, "compute.outcome": 1,
                   "compute.csvmodel": 1},
        sides[1]: {"compute.json": 5, "compute.csv": 2, "compute.outcome": 1},
        sides[2]: {"compute.json": 6, "compute.bits": 2},
        sides[3]: {"compute.json": 1},
    }
    models, reqs = [], []
    for side, kinds in mix.items():
        fmts = ("json", "csv") if "compute.csvmodel" in kinds else ("json",)
        m = make_model(rng, directory, f"dense{side}", side, side, fmts)
        models.append(m)
        for kind, count in kinds.items():
            for _ in range(count):
                outcome = m.outcomes[int(rng.integers(side))]
                reqs.append(_compute(kind, m, "csv" if kind == "compute.csvmodel" else "json",
                                     outcome))
    return Workload(models, reqs)


def _gap_eps(leak: np.ndarray, quantiles) -> list:
    """Thresholds halfway between adjacent leakage values, so no tail mass
    depends on how a value equal to eps is rounded."""
    v = np.sort(leak)
    picks = [min(int(q * (len(v) - 1)), len(v) - 2) for q in quantiles]
    return [float((v[i] + v[i + 1]) / 2.0) for i in picks]


def wide_tail(rng: np.random.Generator, directory: Path, tiny: bool) -> Workload:
    # Requests per round, fastest first: 14 compute at 16 x 2000, 14 at
    # 64 x 2000 (the median falls among these), 7 compute at |Y| = 4000 and
    # 2 CSV tails, 10 JSON tails at |Y| = 2000, 9 of them at 64 x 2000 (the
    # 90th percentile falls among these), and 1 tail at 64 x 4000, the
    # slowest request.
    shapes = ((4, 40), (8, 40), (4, 80), (8, 80)) if tiny else (
        (16, 2000), (64, 2000), (16, 4000), (64, 4000))
    # per shape: (tail JSON, tail CSV in bits, compute JSON, compute CSV)
    counts = dict(zip(shapes, ((1, 1, 10, 4), (9, 1, 10, 4), (0, 0, 3, 1), (1, 0, 2, 1))))
    models, reqs = [], []
    for (nx, ny), (n_tail, n_tail_csv, n_json, n_csv) in counts.items():
        m = make_model(rng, directory, f"wide{nx}x{ny}", nx, ny)
        models.append(m)
        eps = _gap_eps(m.leak, (0.25, 0.5, 0.9))
        eps_bits = [e / checks.LN2 for e in eps]
        reqs += [_model_request("tail.json", ["tail"] + [a for e in eps for a in ("--eps", repr(e))],
                                partial(checks.check_tail_json, model=m, eps=eps, units="nats"), m)
                 for _ in range(n_tail)]
        reqs += [_model_request("tail.csv", ["tail", "--format", "csv", "--units", "bits"]
                                + [a for e in eps_bits for a in ("--eps", repr(e))],
                                partial(checks.check_tail_csv, model=m, eps=eps_bits,
                                        units="bits"), m)
                 for _ in range(n_tail_csv)]
        reqs += [_compute("compute.json", m) for _ in range(n_json)]
        reqs += [_compute("compute.csv", m) for _ in range(n_csv)]
    return Workload(models, reqs)


def _simplex_points(dim: int, resolution: int) -> int:
    return math.comb(resolution + dim - 1, dim - 1)


def _strategy_candidates(n: int, gains: int, resolution: int, seed: int, outcomes: int) -> int:
    """Simplex points the strategies oracle walks: the CLI draws each random
    gain's estimate alphabet size from ``default_rng(--seed)``."""
    cli_rng = np.random.default_rng(seed)
    total = 0
    for _ in range(gains):
        d = int(cli_rng.integers(1, 5))
        cli_rng.uniform(0.0, 1.0, size=(n, d))
        total += _simplex_points(d, resolution)
    return total * outcomes


def _partitions(n: int, k: int) -> int:
    """Set partitions of n items into at most k blocks (Stirling sums)."""
    s = [[0] * (k + 1) for _ in range(n + 1)]
    s[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            s[i][j] = j * s[i - 1][j] + s[i - 1][j - 1]
    return sum(s[n][1:])


def _verify(m, oracle, options: dict, candidates: int) -> Request:
    argv = ["verify", "--oracle", oracle]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    params = {"eps": options.get("eps", 0.05), "max_groups": options.get("max_groups", 5)}
    variant = ",".join(f"{k}={v}" for k, v in options.items())
    req = _model_request(f"verify.{oracle}", argv, partial(
        checks.check_verify, model=m, oracle=oracle, params=params), m, variant=variant)
    req.candidates = candidates
    return req


def _continuous(family: str, params: dict, y: float, grid: Optional[dict], spec_file=None):
    spec = json.dumps({"family": family, "params": params})
    argv = ["continuous", "--family", str(spec_file) if spec_file else spec, "--outcome", repr(y)]
    points = 0
    if grid is not None:
        argv += ["--check-grid", "--grid", json.dumps(grid)]
        points = grid["points"] + 2 * grid["refine"] + 1
    kind = "continuous.grid" if grid is not None else "continuous.closed"
    variant = family + (f",points={grid['points']}" if grid else "")
    return Request(kind, argv, partial(checks.check_continuous, family=family, params=params,
                                       y=y, grid=grid), variant=variant, grid_points=points)


def verify_mix(rng: np.random.Generator, directory: Path, tiny: bool) -> Workload:
    # Requests per round, fastest first: 18 closed-form continuous (about
    # 6 ms), 10 grid checks (about 12 ms; the median falls among these), 6
    # partition and small subset (13 to 15 ms), 4 strategies/subset between
    # 30 and 230 ms, 8 functions with 4 groups (the 90th percentile), then
    # subset at 20 and functions with 10 groups.
    models = {}
    for nx, ny in ((6, 4), (7, 4), (8, 5), (9, 5)) if tiny else ((10, 8), (12, 6), (16, 7), (20, 8)):
        models[nx] = make_model(rng, directory, f"small{nx}x{ny}", nx, ny)
    m10, m12, _, m20 = (models[n] for n in sorted(models))
    reqs = [_verify(m, "subset", {}, ((1 << m.shape[0]) - 1) * m.shape[1])
            for m in models.values()]
    for k, count in ((4, 8), (10, 1)):
        n = min(k, m10.shape[0])
        reqs += [_verify(m10, "functions", {"max_groups": k},
                         _partitions(m10.shape[0], n) * m10.shape[1]) for _ in range(count)]
    # The gain functions come from the CLI's default --seed 42, so their
    # estimate alphabets, and the simplex points walked, are the same every run.
    for resolution in ((4, 6, 8) if tiny else (10, 20, 30)):
        reqs.append(_verify(m12, "strategies", {"gains": 6, "resolution": resolution},
                            _strategy_candidates(m12.shape[0], 6, resolution, 42,
                                                 m12.shape[1])))
    for eps in (0.01, 0.05):
        reqs += [_verify(m, "partition", {"eps": eps}, 0) for m in (m12, m20)]

    def u(lo, hi):
        return round(float(rng.uniform(lo, hi)), 6)

    spec_file = directory / "family_additive.json"
    additive = {"sigma_x": u(0.5, 2.0), "sigma_n": u(0.5, 2.0)}
    spec_file.write_text(json.dumps({"family": "additive_gaussian", "params": additive}))
    grids = [{"points": 4096, "refine": 8}, {"points": 16384, "refine": 16}]
    for i in range(9):
        grid = grids[i % 2] if i < 5 else None
        reqs.append(_continuous("additive_gaussian", additive, u(-2.0, 2.0), grid,
                                spec_file if i % 2 else None))
    for i in range(9):
        params = {"sigma_x": u(0.5, 2.0), "sigma_y": u(0.5, 2.0), "rho": u(0.3, 0.8)}
        # the grid maximiser x = y sigma_x / (rho sigma_y) stays well inside the clipped domain
        y = u(-1.0, 1.0) * params["rho"] * params["sigma_y"] * 3.0
        reqs.append(_continuous("bivariate_gaussian", params, round(y, 6),
                                grids[i % 2] if i < 5 else None))
    for _ in range(4):
        reqs.append(_continuous("gaussian_mixture", {"sigma": u(0.5, 2.0)}, u(-2.0, 3.0), None))
    for _ in range(3):
        lam = u(1.5, 4.0)
        params = {"lam": lam, "p": u(1.0 - 1.0 / lam + 0.01, 0.95)}
        reqs.append(_continuous("poisson_binomial", params, float(rng.integers(0, 16)), None))
    for _ in range(3):
        reqs.append(_continuous("geometric_binary", {"p": u(0.1, 0.9), "q": u(0.1, 0.9)},
                                float(rng.integers(0, 2)), None))
    return Workload(list(models.values()), reqs)


def build(name: str, seed: int, directory: Path, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return globals()[name](rng, directory, tiny)
