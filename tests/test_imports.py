"""Import hygiene: the CLI, imported and run in a fresh interpreter, loads no scipy,
and ``verify`` loads no ``numpy.random``, not even for the oracle that draws gains;
nor does the integrability probe, which is in closed form.

scipy takes most of an interpreter's start-up when it is imported, and
only the library's Poisson truncation helpers need it.  ``numpy.random``
is a lazy numpy submodule; ``verify --oracle strategies`` draws its gains
with the standard library's ``random`` instead.  A star import binds the
public names and no submodule.
"""

import json
import os
import pathlib
import subprocess
import sys
import types

import pmlkit

SRC = pathlib.Path(pmlkit.__file__).resolve().parent.parent

RUN_REQUESTS = """
import json, sys
import pmlkit.cli
requests, out = json.loads(sys.argv[1]), sys.argv[2]
codes = [pmlkit.cli.main(argv + ["--output", out]) for argv in requests]
def loaded(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))
print(json.dumps({"codes": codes, "scipy": loaded("scipy"),
                  "numpy.random": loaded("numpy.random")}))
"""


RUN_PROBE = """
import json, sys
from pmlkit import ClosedFormModel, integrability_probe
for family, params in (("additive_gaussian", {"sigma_x": 1.0, "sigma_n": 1.0}),
                       ("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 0.5}),
                       ("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 0.0})):
    integrability_probe(ClosedFormModel(family, params), [1, 2, 4])
print(json.dumps(sorted(m for m in sys.modules
                        if m == "numpy.random" or m.startswith("numpy.random."))))
"""


def _requests(fixtures):
    model = str(fixtures / "identity4.json")
    requests = [
        (["compute", model], 0),
        (["compute", model, "--format", "csv", "--units", "bits"], 0),
        (["compute", model, "--outcome", "a"], 0),
        (["compute", str(fixtures / "identity4_channel.csv"),
          str(fixtures / "identity4_prior.csv")], 0),
        (["tail", model, "--eps", "0.5"], 0),
        (["tail", model, "--eps", "0.5", "--format", "csv", "--units", "bits"], 0),
    ]
    for oracle in ("subset", "partition", "functions", "strategies"):
        requests.append((["verify", model, "--oracle", oracle], 0))
    for family in ("additive_gaussian", "bivariate_gaussian", "gaussian_mixture",
                   "poisson_binomial", "geometric_binary"):
        requests.append((["continuous", "--family", str(fixtures / f"family_{family}.json"),
                          "--outcome", "1"], 0))
    for family, code in (("additive_gaussian", 0), ("bivariate_gaussian", 0),
                         ("poisson_binomial", 3)):
        requests.append((["continuous", "--family", str(fixtures / f"family_{family}.json"),
                          "--outcome", "1", "--check-grid"], code))
    requests.append((["continuous", "--family", str(fixtures / "family_additive_gaussian.json"),
                      "--outcome", "1", "--check-grid", "--grid", '{"quantile_clip": 1e-8}'], 0))
    return requests


def _run_fresh(requests, tmp_path) -> dict:
    """Run the requests in one fresh interpreter; return its exit codes and modules."""
    result = subprocess.run(
        [sys.executable, "-c", RUN_REQUESTS,
         json.dumps([argv for argv, _ in requests]), str(tmp_path / "report")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout)
    assert seen["codes"] == [code for _, code in requests]
    return seen


def test_cli_requests_load_no_scipy(fixtures_dir, tmp_path):
    assert _run_fresh(_requests(fixtures_dir), tmp_path)["scipy"] == []


def test_verify_without_gains_loads_no_numpy_random(fixtures_dir, tmp_path):
    model = str(fixtures_dir / "identity4.json")
    requests = [(["verify", model, "--oracle", oracle], 0)
                for oracle in ("subset", "partition", "functions")]
    assert _run_fresh(requests, tmp_path)["numpy.random"] == []


def test_strategies_request_loads_no_numpy_random(fixtures_dir, tmp_path):
    # --seed seeds the standard library's random.Random, which statistics already loads
    model = str(fixtures_dir / "identity4.json")
    requests = [(["verify", model, "--oracle", "strategies", "--gains", "3", "--seed", "7"], 0)]
    assert _run_fresh(requests, tmp_path)["numpy.random"] == []


def test_integrability_probe_loads_no_numpy_random():
    result = subprocess.run(
        [sys.executable, "-c", RUN_PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_star_import_binds_the_public_names_and_no_module():
    namespace = {}
    exec("from pmlkit import *", namespace)
    del namespace["__builtins__"]
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    public = {name for name, value in vars(pmlkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(namespace) == sorted(pmlkit.__all__) == sorted(public)
