#!/usr/bin/env python3
"""Regenerate the committed fixtures, their golden CLI outputs and the
manifest of every request whose bytes tier-1 checks.

Run explicitly from the repo root:

    python3 scripts/make_fixtures.py

Goldens are byte-exact expected reports; tests never regenerate them.
The fixture inputs come from ``fixture_texts()``, which a test compares
with the committed files byte for byte.  ``golden/requests.json`` is the
manifest of the request table below: the sha256 of each input
``write_inputs`` writes, and each argv with its exit code and the length
and sha256 of its stdout and stderr, as a fresh interpreter gave them.
It also records ``facts()``, what those bytes still depend on beyond the
code.  ``tests/test_requests.py`` replays every argv in process and names
each one whose bytes moved.  A new request goes into the table, and then
into the manifest by running this script.

Every request runs from one directory holding its inputs. The inputs are the
model and family fixtures plus seeded Dirichlet models (the shapes the
benchmark's ``verify_mix`` uses, one with zero-prior atoms and outcomes no
input produces, one with 11 and one with 21 inputs, on either side of the
event oracles' cap, and three with 20, 16 and 14 inputs whose zero-prior
atoms lie below, at and above atom 13, where the event oracles' blocks
begin) and a model whose prior holds a subnormal atom. Every oracle runs on
every input with the option values below, in nats and in bits, so capacity
and validation refusals are recorded too. ``compute`` and ``tail`` run with
their options below on the fixtures, the CSV pair, the model with zero-prior
atoms and two seeded wide models (16 and 64 inputs by 2000 outcomes), whose
reports carry one float per outcome. ``SINGLE_REQUESTS`` adds a CSV pair
whose channel has a blank line before its bad cell, so the error names the
file's line, a CSV pair with records of blank cells, an unknown outcome, a
``tail`` eps equal to a printed bits value, a model whose prior and row
deficits add up past the accepted maximum, a CSV pair labelled ``1.0`` and
``2`` asked for outcome ``1``, inline family and grid specs that are not
JSON, a negative partition ``--eps`` in bits, a strategies ``--resolution``
of 0, a geometric-binary family asked for outcome 2, two requests that must
be refused (a JSON model given with a prior file, and ``--format csv`` with
``--outcome``), a CSV profile whose outcome label holds a comma, a CSV pair
split by an option, which must read as the unsplit pair, the subset,
function and partition oracles on the two models whose ratio overflows, a
partition ``--eps`` of 5e-324, and grid checks whose posterior peak lies
past the clipped domain (and one whose peak lies inside). It also adds
``MODEL_TEXTS``, model files at the edges of the channel reader (``channel``
first or twice, line breaks in and between rows, an empty channel, a BOM,
trailing data, a trailing comma, NaN and infinite entries, ragged and nested
rows, boolean, string and null entries, and a row nested 100,000 deep), and
a family spec nested as deep, given as a family and as a grid.
``continuous`` runs each family, given as a fixture file and inline, with
the options below: negative and exponent outcomes, ``=`` forms,
abbreviations, grid checks with inline and file grids (among them the
benchmark's two grid shapes and the largest and a 1e-300 quantile clip), and
a grid file without ``--check-grid``; ``SINGLE_REQUESTS`` adds grid checks
of the bivariate family at rho = 0.99 and -0.99, grid checks of both
linear-Gaussian families on the smallest grid (1024 points), alone and with
the largest quantile clip, each grid given inline and as a file, and grids
past the 2^20-point cap: by one point, on the scanned and on the refining
grid, and by a 400-digit integer in each field. Last come argv on which
argparse exits: help, ``--version`` and usage errors, whose exit code 2 and
stderr are recorded.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
MANIFEST = GOLDEN / "requests.json"

#: the argv of each golden report; names of files in fixtures/ stand for
#: their paths.  tests/test_cli.py loads this table from here.
GOLDENS = {
    "compute_geometric_binary.json": ["compute", "geometric_binary_p03_q05.json"],
    "compute_identity4.json": ["compute", "identity4.json"],
    "tail_identity4.json": ["tail", "identity4.json", "--eps", "1.0",
                            "--eps", "1.3862943611198906"],
    "continuous_additive_gaussian.json": ["continuous", "--family",
                                          "family_additive_gaussian.json", "--outcome", "0",
                                          "--check-grid"],
    "continuous_bivariate_gaussian.json": ["continuous", "--family",
                                           "family_bivariate_gaussian.json", "--outcome", "1",
                                           "--check-grid"],
    "continuous_gaussian_mixture.json": ["continuous", "--family",
                                         "family_gaussian_mixture.json", "--outcome", "0.5"],
    "continuous_poisson_binomial.json": ["continuous", "--family",
                                         "family_poisson_binomial.json", "--outcome", "3"],
    "continuous_geometric_binary.json": ["continuous", "--family",
                                         "family_geometric_binary.json", "--outcome", "1",
                                         "--units", "bits"],
    "verify_subset_poisson_binomial.json": ["verify", "poisson_binomial_lam2_p05.json",
                                            "--oracle", "subset"],
    "verify_partition_poisson_binomial.json": ["verify", "poisson_binomial_lam2_p05.json",
                                               "--oracle", "partition"],
    "verify_functions4_cap10x8.json": ["verify", "cap10x8.json", "--oracle", "functions",
                                       "--max-groups", "4"],
    "verify_functions10_cap10x8.json": ["verify", "cap10x8.json", "--oracle", "functions",
                                        "--max-groups", "10"],
    "verify_strategies_cap10x8.json": ["verify", "cap10x8.json", "--oracle", "strategies",
                                       "--gains", "6", "--resolution", "30"],
}


def golden_argv(name):
    """The CLI arguments of a golden report, with fixture names as paths."""
    return [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in GOLDENS[name]]


def cap_model():
    """A full-support model with 10 inputs and 8 outcomes, from integer
    weights: the prior's are 1 to 10, and row i of the channel weighs
    outcome j by 1 + ((i + 1)(j + 2) mod 11), from 2 to 11."""
    from pmlkit import Alphabet, DiscreteChannel, DiscreteDistribution, JointModel

    n, m = 10, 8
    xs = Alphabet(list(range(n)))
    prior = np.arange(1, n + 1, dtype=float)
    i, j = np.indices((n, m))
    weights = 1.0 + ((i + 1) * (j + 2)) % 11
    return JointModel(
        DiscreteDistribution(xs, prior / prior.sum()),
        DiscreteChannel(xs, Alphabet([f"y{k}" for k in range(m)]),
                        weights / weights.sum(axis=1, keepdims=True)),
    )


def fixture_texts():
    """The text of every fixture input (models, CSV pairs and family specs),
    keyed by its file name in fixtures/."""
    from pmlkit import discretize_poisson_binomial, geometric_binary_model
    from pmlkit.modelio import _json, save_model_json

    models = {
        "geometric_binary_p03_q05.json": geometric_binary_model(0.3, 0.5),
        "poisson_binomial_lam2_p05.json": discretize_poisson_binomial(2.0, 0.5, 10),
        "cap10x8.json": cap_model(),
    }
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, model in models.items():
            path = pathlib.Path(tmp) / name
            save_model_json(model, path)
            texts[name] = path.read_text(encoding="utf-8")

    identity4 = {
        "alphabet_x": ["a", "b", "c", "d"],
        "alphabet_y": ["a", "b", "c", "d"],
        "prior": [0.25, 0.25, 0.25, 0.25],
        "channel": [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
    }
    texts["identity4.json"] = _json(identity4)
    texts["identity4_channel.csv"] = (
        "a,b,c,d\n1.0,0.0,0.0,0.0\n0.0,1.0,0.0,0.0\n0.0,0.0,1.0,0.0\n0.0,0.0,0.0,1.0\n"
    )
    texts["identity4_prior.csv"] = "a,0.25\nb,0.25\nc,0.25\nd,0.25\n"

    bad = dict(identity4)
    bad["channel"] = [row[:] for row in identity4["channel"]]
    bad["channel"][1][1] = 0.97
    texts["bad_rowsum.json"] = _json(bad)

    families = {
        "additive_gaussian": {"family": "additive_gaussian", "params": {"sigma_x": 1.0, "sigma_n": 1.0}},
        "bivariate_gaussian": {"family": "bivariate_gaussian", "params": {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 0.5}},
        "gaussian_mixture": {"family": "gaussian_mixture", "params": {"sigma": 1.0}},
        "poisson_binomial": {"family": "poisson_binomial", "params": {"lam": 2.0, "p": 0.5}},
        "geometric_binary": {"family": "geometric_binary", "params": {"p": 0.3, "q": 0.5}},
    }
    for name, spec in families.items():
        texts[f"family_{name}.json"] = _json(spec)
    return texts


def digest(data):
    """A request's stdout or stderr as its length and sha256."""
    return [len(data), hashlib.sha256(data).hexdigest()]


def facts():
    """What the recorded bytes depend on beyond the code: the Python minor
    version, whose argparse writes the help and usage texts, and the CPU
    target numpy dispatches its float64 ``exp``, ``log`` and ``log1p`` loops
    to, through which grid checks, ``maximal_leakage`` and the leakage
    kernel pass."""
    from numpy.lib.introspect import opt_func_info

    loops = opt_func_info(func_name="^(exp|log|log1p)$", signature="float64")
    return {"python": "%d.%d" % sys.version_info[:2],
            "numpy_loops": {name: sigs["dd"]["current"] for name, sigs in sorted(loops.items())}}


def replay(argv):
    """A request run in this process through ``cli.main``, as a manifest
    entry records it; argparse's ``SystemExit`` is caught."""
    from pmlkit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": digest(out.getvalue().encode()),
            "stderr": digest(err.getvalue().encode())}


# the request table: its inputs, and the options each kind of request runs with
MODEL_FIXTURES = ("cap10x8.json", "poisson_binomial_lam2_p05.json", "identity4.json",
                  "geometric_binary_p03_q05.json", "bad_rowsum.json")
CSV_PAIR = ("identity4_channel.csv", "identity4_prior.csv")
#: a channel CSV whose bad cell, on line 4, follows a blank line, and its prior
BLANK_LINE_PAIR = {"blank_line_channel.csv": "a,b\n\n0.5,0.5\n0.5,x\n",
                   "blank_line_prior.csv": "x0,0.5\nx1,0.5\n"}
#: a CSV pair whose files both hold "," and ",," records, which hold no value
BLANK_CELLS_PAIR = {"blank_cells_channel.csv": "a,b\n,\n0.5,0.5\n,,\n0.25,0.75\n",
                    "blank_cells_prior.csv": "x0,0.5\n,\nx1,0.5\n,,\n"}
#: a CSV pair whose labels 1.0 and 2 read as whole numbers, in both files
INTEGRAL_LABEL_PAIR = {"integral_channel.csv": "1.0,2\n1,0\n0,1\n",
                       "integral_prior.csv": "1.0,0.5\n2,0.5\n"}
#: models written as JSON: prior and row deficits of 1e-9 each, whose marginal
#: drops 2e-9; a prior atom of 5e-324, whose partition cell's gain overflows;
#: an outcome label that a CSV cell must quote; and a prior atom of 5e-324 that
#: one outcome reveals, whose pml of 744.44 nats overflows every ratio, with
#: that outcome last and, labelled "b", first
MODELS = {
    "deficits1e-9.json": {"alphabet_x": ["a", "b"], "alphabet_y": [0, 1],
                          "prior": [0.5, 0.5 - 1e-9], "truncation_deficit": 1e-9,
                          "channel": [[0.5, 0.5 - 1e-9], [0.25, 0.75 - 1e-9]],
                          "row_deficits": [1e-9, 1e-9]},
    "subnormal_atom.json": {"alphabet_x": [0, 1, 2], "alphabet_y": [0, 1],
                            "prior": [0.5, 0.5, 5e-324],
                            "channel": [[0.5, 0.5], [0.9, 0.1], [0.01, 0.99]]},
    "comma_label.json": {"alphabet_x": [0, 1], "alphabet_y": ["a,b", "c"],
                         "prior": [0.5, 0.5], "channel": [[1, 0], [0.2, 0.8]]},
    "overflow_last.json": {"alphabet_x": [0, 1], "alphabet_y": [0, 1], "prior": [1.0, 5e-324],
                           "channel": [[1.0, 0.0], [0.0, 1.0]]},
    "overflow_first.json": {"alphabet_x": [0, 1], "alphabet_y": ["b", "a"],
                            "prior": [1.0, 5e-324], "channel": [[0.0, 1.0], [1.0, 0.0]]},
}
_KEYS = '"alphabet_x": ["a", "b"], "alphabet_y": [0, 1], "prior": [0.5, 0.5]'
_ROWS = "[0.9, 0.1], [0.2, 0.8]"
_DEEP = "[" * 100_000 + "]" * 100_000
#: model files at the edges of the row-by-row channel reader, each read by ``compute``
MODEL_TEXTS = {
    "channel_first.json": f'{{"channel": [{_ROWS}], {_KEYS}}}',
    "channel_twice.json": f'{{"channel": [[1, 0], [0, 1]], {_KEYS}, "channel": [{_ROWS}]}}',
    "newlines.json": f'{{\n  {_KEYS},\n  "channel": [\n    [\n      0.9,\n      0.1\n    ]\n'
                     '    ,\r\n    [0.2,\n0.8]\n  ]\n}\n',
    "empty_channel.json": f'{{{_KEYS}, "channel": []}}',
    "bom.json": f'\ufeff{{{_KEYS}, "channel": [{_ROWS}]}}',
    "trailing_data.json": f'{{{_KEYS}, "channel": [{_ROWS}]}} {{}}',
    "trailing_comma.json": f'{{{_KEYS}, "channel": [{_ROWS},]}}',
    "nan_entry.json": f'{{{_KEYS}, "channel": [[NaN, 0.1], [0.2, 0.8]]}}',
    "infinity_entry.json": f'{{{_KEYS}, "channel": [[0.9, 0.1], [-Infinity, Infinity]]}}',
    "ragged.json": f'{{{_KEYS}, "channel": [[0.9, 0.1], [1.0]]}}',
    "nested_row.json": f'{{{_KEYS}, "channel": [[0.9, 0.1], [[0.2], 0.8]]}}',
    "bool_entries.json": f'{{{_KEYS}, "channel": [[true, false], [false, true]]}}',
    "string_entries.json": f'{{{_KEYS}, "channel": [["1", "0"], ["0", "1"]]}}',
    "null_entry.json": f'{{{_KEYS}, "channel": [[0.9, 0.1], [null, 0.8]]}}',
    "deep_row.json": f'{{{_KEYS}, "channel": [[0.9, 0.1], {_DEEP}]}}',
    "deep_spec.json": f'{{"family": "additive_gaussian", "params": {_DEEP}}}',
}
#: the grids of the benchmark's ``verify_mix`` grid checks
BENCH_GRIDS = ({"points": 4096, "refine": 8}, {"points": 16384, "refine": 16})
#: the largest quantile clip, ``continuous.MAX_QUANTILE_CLIP``, and a far smaller one
CLIP_GRIDS = ({"quantile_clip": 4.9e-07}, {"quantile_clip": 1e-300})
#: the smallest grid, alone and with the largest quantile clip, whose prior mass
#: is checked on it; each is given inline and as the file named here
SMALL_GRIDS = {"small_grid.json": {"points": 1024},
               "small_clip_grid.json": {"points": 1024, "quantile_clip": 4.9e-07}}
#: grids past the cap of 2^20 points: by one point, on the scanned grid and on the
#: refining grid of 2 * refine + 1 points, and by a 400-digit integer in each field
CAPPED_GRIDS = ('{"points": 1048577}', '{"refine": 524288}',
                *(f'{{"{key}": 1{"0" * 400}}}' for key in ("points", "refine")))
#: grid checks whose posterior peak lies outside the clipped domain, but at
#: additive outcome 3, and the outcomes of each
PEAK_CHECKS = (
    ("additive_gaussian", {"sigma_x": 1, "sigma_n": 1}, ("3", "8", "20")),
    ("bivariate_gaussian", {"sigma_x": 1, "sigma_y": 1, "rho": 0.1}, ("1", "2", "3")),
)
#: requests on one input each; 20.978589993105462 is outcome 13's leakage in bits
SINGLE_REQUESTS = (
    *(["compute", name] for name in MODEL_TEXTS if name != "deep_spec.json"),
    ["continuous", "--family", "deep_spec.json", "--outcome", "1"],
    ["continuous", "--family", "family_additive_gaussian.json", "--outcome", "1", "--check-grid",
     "--grid", "deep_spec.json"],
    ["compute", *BLANK_LINE_PAIR],
    ["compute", *BLANK_CELLS_PAIR],
    ["compute", "identity4.json", "--outcome", "zz"],
    ["tail", "poisson_binomial_lam2_p05.json", "--units", "bits", "--eps", "20.978589993105462"],
    ["compute", "deficits1e-9.json"],
    ["compute", *INTEGRAL_LABEL_PAIR, "--outcome", "1"],
    ["continuous", "--family", "{bad", "--outcome", "1"],
    ["continuous", "--family", "family_additive_gaussian.json", "--outcome", "1", "--check-grid",
     "--grid", '{"points": }'],
    ["verify", "identity4.json", "--oracle", "partition", "--units", "bits", "--eps", "-1"],
    ["verify", "identity4.json", "--oracle", "strategies", "--resolution", "0"],
    ["continuous", "--family", "family_geometric_binary.json", "--outcome", "2"],
    ["compute", "identity4.json", "identity4_prior.csv"],
    ["compute", "identity4.json", "--outcome", "a", "--format", "csv"],
    ["compute", "comma_label.json", "--format", "csv"],
    ["compute", "identity4_channel.csv", "--units", "bits", "identity4_prior.csv"],
    *(["continuous", "--family", json.dumps({"family": "bivariate_gaussian", "params": {
        "sigma_x": 1.0, "sigma_y": 2.0, "rho": rho}}), "--outcome", "1.5", "--check-grid",
       "--grid", json.dumps(grid)] for rho in (0.99, -0.99) for grid in BENCH_GRIDS),
    *(["continuous", "--family", f"family_{family}.json", "--outcome", "0.7", "--check-grid",
       "--grid", grid] for family in ("additive_gaussian", "bivariate_gaussian")
      for grid in (*SMALL_GRIDS, *map(json.dumps, SMALL_GRIDS.values()))),
    *(["continuous", "--family", "family_additive_gaussian.json", "--outcome", "1",
       "--check-grid", "--grid", grid] for grid in CAPPED_GRIDS),
    *(["verify", name, "--oracle", oracle] for name in ("overflow_last.json", "overflow_first.json")
      for oracle in ("subset", "functions", "partition")),
    ["verify", "identity4.json", "--oracle", "partition", "--eps", "5e-324"],
    *(["continuous", "--family", json.dumps({"family": family, "params": params}), "--outcome", y,
       "--check-grid"] for family, params, outcomes in PEAK_CHECKS for y in outcomes),
)
#: (inputs, outputs) of the seeded full-support models
SHAPES = ((10, 8), (12, 6), (16, 7), (20, 8))
OPTIONS = (
    ["--oracle", "subset"],
    ["--oracle", "subset", "--units", "bits"],
    ["--oracle", "partition", "--eps", "0.01"],
    ["--oracle", "partition", "--eps", "0.05"],
    *(["--oracle", "functions", "--max-groups", k] for k in ("0", "1", "2", "4", "5", "10", "-3")),
    *(["--oracle", "strategies", "--gains", "6", "--resolution", r] for r in ("10", "20", "30")),
    ["--oracle", "strategies"],
    ["--oracle", "partition", "--eps", "0.05", "--units", "bits"],
    ["--oracle", "functions", "--max-groups", "4", "--units", "bits"],
    ["--oracle", "strategies", "--gains", "6", "--units", "bits"],
)
#: (inputs, outputs) of the seeded wide models, which only compute and tail read
WIDE_SHAPES = ((16, 2000), (64, 2000))
#: (inputs, outputs) of seeded full-support models around the event oracles'
#: cap of 20, drawn after the others so that no earlier input changes
CAP_SHAPES = ((11, 6), (21, 6))
#: (inputs, outputs, zero-prior atoms) of seeded models drawn last, in this
#: order: zeros below atom 13, at it and above it, where the event oracles'
#: blocks of 2^13 events begin
ZERO_SHAPES = ((20, 6, (2, 7, 13, 17)), (16, 5, (1, 12, 13, 15)), (14, 5, (4, 12, 13)))
#: each outcome option names an outcome of some inputs and of no other
REPORT_OPTIONS = (
    *(["compute", *options] for options in (
        [], ["--format", "csv"], ["--units", "bits"],
        *(["--outcome", y] for y in ("1", "b", "y1")))),
    *(["tail", "--eps", "0.1", "--eps", "0.5", "--eps", "inf", *options] for options in (
        [], ["--format", "csv"], ["--units", "bits"], ["--units", "bits", "--format", "csv"])),
)

FAMILIES = ("additive_gaussian", "bivariate_gaussian", "gaussian_mixture", "poisson_binomial",
            "geometric_binary")
#: each follows ``continuous --family SPEC``; ``grid.json`` is written with the inputs
CONTINUOUS_OPTIONS = (
    ["--outcome", "1"],
    ["--outcome", "0", "--units", "bits", "--seed", "7"],
    ["--outcome", "-1.5"],
    ["--outcome", "-1e3"],
    ["--outcome=-1"],
    ["--outc", "2", "--un", "bits"],
    ["--out", "2"],
    ["--outcome", "1", "--check-grid"],
    ["--check-grid", "--outcome", "-1.5", "--grid", '{"points": 4096, "refine": 4}'],
    ["--outcome", "0.5", "--grid", "grid.json", "--check-grid"],
    ["--outcome", "1", "--grid", "grid.json"],
    *(["--outcome", y, "--check-grid", "--grid", json.dumps(grid)]
      for y, grid in zip(("1.5", "-0.3", "2", "-2"), (*BENCH_GRIDS, *CLIP_GRIDS))),
)
GRID = {"points": 2048, "refine": 8, "quantile_clip": 1e-10}
#: argv on which argparse exits: help, version and usage errors
ARGPARSE_EXITS = (
    [], ["-h"], ["--version"], ["bogus"], ["-h", "compute"],
    ["--units", "bits", "compute", "identity4.json"],
    *([command, "-h"] for command in ("compute", "verify", "continuous", "tail")),
    ["compute"], ["compute", "identity4.json", "--bad"],
    ["compute", "identity4.json", "--units", "furlongs"],
    ["compute", "identity4.json", "--outcome"], ["compute", "identity4.json", "--version"],
    ["compute", "--", "identity4_channel.csv", "identity4_prior.csv", "extra"],
    ["verify", "identity4.json"], ["verify", "identity4.json", "--oracle", "nope"],
    ["verify", "identity4.json", "--oracle", "functions", "--max-groups", "x"],
    ["verify", "identity4.json", "--oracle", "partition", "--eps", "-1e3"],
    ["verify", "identity4.json", "--oracle", "subset", "--max", "2", "--ma", "3"],
    ["tail", "identity4.json"], ["tail", "identity4.json", "--eps", "x"],
    ["tail", "identity4.json", "--eps", "1", "--eps"],
    ["continuous", "--outcome", "1"],
    ["continuous", "--family", "family_gaussian_mixture.json", "--outcome", "x"],
    ["continuous", "--family", "family_gaussian_mixture.json", "--outcome", "1", "extra"],
    ["continuous", "--family", "family_gaussian_mixture.json", "--outcome", "1", "--check"],
)


def _write_model(path, prior, channel):
    doc = {"alphabet_x": list(range(len(prior))), "alphabet_y": list(range(channel.shape[1])),
           "prior": prior.tolist(), "channel": channel.tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")


def write_inputs(directory):
    """Write every input into ``directory``; return one argv prefix per input,
    for ``verify``, for ``compute`` and ``tail``, and for ``continuous``."""
    families = [f"family_{family}.json" for family in FAMILIES]
    for name in MODEL_FIXTURES + CSV_PAIR + tuple(families):
        shutil.copyfile(FIXTURES / name, directory / name)
    for name, grid in {"grid.json": GRID, **SMALL_GRIDS}.items():
        (directory / name).write_text(json.dumps(grid), encoding="utf-8")
    for name, text in {**BLANK_LINE_PAIR, **BLANK_CELLS_PAIR, **INTEGRAL_LABEL_PAIR}.items():
        (directory / name).write_text(text, encoding="utf-8")
    for name, doc in MODELS.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    for name, text in MODEL_TEXTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    specs = families + [json.dumps(json.loads((directory / name).read_text(encoding="utf-8")))
                        for name in families]
    inputs = [[name] for name in MODEL_FIXTURES] + [list(CSV_PAIR)]
    rng = np.random.default_rng(20231)
    for n, m in SHAPES:
        name = f"dirichlet{n}x{m}.json"
        _write_model(directory / name, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m), n))
        inputs.append([name])
    prior = rng.dirichlet(np.ones(9))
    prior[[2, 5]] = 0.0
    channel = rng.dirichlet(np.ones(6), 9)
    channel[:, 4] = 0.0  # an outcome no input produces
    channel[rng.random(channel.shape) < 0.3] = 0.0
    channel[:, 0] += 0.01
    _write_model(directory / "zeros9x6.json", prior / prior.sum(),
                 channel / channel.sum(axis=1, keepdims=True))
    inputs.append(["zeros9x6.json"])
    wide = []
    for n, m in WIDE_SHAPES:
        name = f"wide{n}x{m}.json"
        _write_model(directory / name, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m), n))
        wide.append([name])
    for n, m in CAP_SHAPES:
        name = f"dirichlet{n}x{m}.json"
        _write_model(directory / name, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m), n))
        inputs.append([name])
    for n, m, zeros in ZERO_SHAPES:
        name = f"zeros{n}x{m}.json"
        prior = rng.dirichlet(np.ones(n))
        prior[list(zeros)] = 0.0
        _write_model(directory / name, prior / prior.sum(), rng.dirichlet(np.ones(m), n))
        inputs.append([name])
    inputs.append(["subnormal_atom.json"])
    reports = [[name] for name in MODEL_FIXTURES] + [list(CSV_PAIR), ["zeros9x6.json"], *wide]
    return inputs, reports, [["--family", spec] for spec in specs]



def write_request_inputs(directory):
    """Write every request's input into ``directory``; return each file's
    sha256 by name, and the argv of every request, in replay order, whose
    file names are relative to ``directory``."""
    verify_inputs, report_inputs, families = write_inputs(directory)
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(directory.iterdir())}
    argvs = [["verify", *model, *options] for model in verify_inputs for options in OPTIONS]
    argvs += [[command, *model, *options]
              for model in report_inputs for command, *options in REPORT_OPTIONS]
    argvs += SINGLE_REQUESTS
    argvs += [["continuous", *family, *options]
              for family in families for options in CONTINUOUS_OPTIONS]
    argvs += ARGPARSE_EXITS
    return hashes, argvs


#: the environment of every recording interpreter
ENV = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src"), "PYTHONUTF8": "1",
       "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80"}


def _record(argv, directory):
    """One request's manifest entry, from a fresh interpreter run in ``directory``."""
    proc = subprocess.run([sys.executable, "-m", "pmlkit.cli"] + argv, capture_output=True,
                          cwd=directory, env=ENV)
    if str(directory).encode() in proc.stdout + proc.stderr:
        raise SystemExit(f"request {argv} prints its input directory")
    return {"argv": argv, "exit": proc.returncode, "stdout": digest(proc.stdout),
            "stderr": digest(proc.stderr)}


def _manifest_text(recorded, hashes, entries):
    """The manifest as JSON: its facts, then one input and one request per line."""
    inputs = ",\n".join(f"  {json.dumps(name)}: {json.dumps(sha)}" for name, sha in hashes.items())
    rows = ",\n".join(f"  {json.dumps(entry, sort_keys=True)}" for entry in entries)
    return (f'{{\n"facts": {json.dumps(recorded, sort_keys=True)},\n'
            f'"inputs": {{\n{inputs}\n}},\n"requests": [\n{rows}\n]\n}}\n')


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    for name, text in fixture_texts().items():
        write(FIXTURES / name, text)

    for name in GOLDENS:
        proc = subprocess.run(
            [sys.executable, "-m", "pmlkit.cli"] + golden_argv(name),
            capture_output=True, text=True, cwd=ROOT,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src")},
        )
        if proc.returncode != 0:
            raise SystemExit(f"golden {name} failed: {proc.stderr}")
        write(GOLDEN / name, proc.stdout)

    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        hashes, argvs = write_request_inputs(directory)
        with ThreadPoolExecutor(2) as pool:
            entries = list(pool.map(lambda argv: _record(argv, directory), argvs))
    # the facts of an interpreter like the recording ones, not of this one's environment
    recorded = subprocess.run(
        [sys.executable, "-c", "import json, make_fixtures; print(json.dumps(make_fixtures.facts()))"],
        capture_output=True, text=True, check=True, cwd=ROOT / "scripts", env=ENV).stdout
    write(MANIFEST, _manifest_text(json.loads(recorded), hashes, entries))


if __name__ == "__main__":
    main()
