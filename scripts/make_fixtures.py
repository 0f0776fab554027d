#!/usr/bin/env python3
"""Regenerate the committed fixtures and their golden CLI outputs.

Run explicitly from the repo root:

    python3 scripts/make_fixtures.py

Goldens are byte-exact expected reports; tests never regenerate them.
The fixture inputs come from ``fixture_texts()``, which a test compares
with the committed files byte for byte.  ``golden/requests.json`` is the
manifest of every request ``scripts/compare_cli.py`` replays: the sha256 of
each input it writes, and each argv with its exit code and the length and
sha256 of its stdout and stderr, as a fresh interpreter gave them.
"""

import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
MANIFEST = GOLDEN / "requests.json"

# the request table, loaded by path as tests/conftest.py loads this script
_spec = importlib.util.spec_from_file_location("compare_cli", ROOT / "scripts" / "compare_cli.py")
compare_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_cli)

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


def write_request_inputs(directory):
    """Write every input of ``compare_cli`` into ``directory``; return each
    file's sha256 by name, and the argv of every request, in replay order."""
    requests = compare_cli.write_requests(ROOT, directory)
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(directory.iterdir())}
    return hashes, [argv for _, argv in requests]


def _record(argv, directory):
    """One request's manifest entry, from a fresh interpreter run in ``directory``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pmlkit.cli"] + argv, capture_output=True, cwd=directory,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src"), "PYTHONUTF8": "1",
             "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80"},
    )
    if str(directory).encode() in proc.stdout + proc.stderr:
        raise SystemExit(f"request {argv} prints its input directory")
    return {"argv": argv, "exit": proc.returncode, "stdout": digest(proc.stdout),
            "stderr": digest(proc.stderr)}


def _manifest_text(hashes, entries):
    """The manifest as JSON, one input and one request per line."""
    inputs = ",\n".join(f"  {json.dumps(name)}: {json.dumps(sha)}" for name, sha in hashes.items())
    rows = ",\n".join(f"  {json.dumps(entry, sort_keys=True)}" for entry in entries)
    return f'{{\n"inputs": {{\n{inputs}\n}},\n"requests": [\n{rows}\n]\n}}\n'


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
    write(MANIFEST, _manifest_text(hashes, entries))


if __name__ == "__main__":
    main()
