import importlib.util
import pathlib

import numpy as np
import pytest

from pmlkit import Alphabet, DiscreteChannel, DiscreteDistribution, JointModel

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# one table of golden argv, shared with the script that writes the goldens
_script = FIXTURES.parent / "scripts" / "make_fixtures.py"
_spec = importlib.util.spec_from_file_location("make_fixtures", _script)
make_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_fixtures)


def random_full_support_model(rng, n_in, n_out):
    """Random joint model with strictly positive prior and channel entries."""
    alpha_x = Alphabet([f"x{i}" for i in range(n_in)])
    alpha_y = Alphabet([f"y{j}" for j in range(n_out)])
    prior = rng.dirichlet(np.ones(n_in))
    prior = prior / prior.sum()
    matrix = rng.dirichlet(np.ones(n_out), size=n_in)
    matrix = matrix / matrix.sum(axis=1, keepdims=True)
    return JointModel(
        DiscreteDistribution(alpha_x, prior),
        DiscreteChannel(alpha_x, alpha_y, matrix),
    )


def random_model_with_zeros(rng, n_in, n_out):
    """Random model with zero-prior atoms, zero-weight outcomes and a sparse channel."""
    prior = rng.dirichlet(np.ones(n_in))
    prior[rng.random(n_in) < 0.25] = 0.0
    if not prior.any():
        prior[0] = 1.0
    prior = prior / prior.sum()
    matrix = rng.dirichlet(np.ones(n_out), size=n_in)
    matrix[rng.random((n_in, n_out)) < 0.3] = 0.0
    matrix[:, rng.random(n_out) < 0.2] = 0.0  # outcomes no input can produce
    matrix[:, 0] += 0.01
    matrix = matrix / matrix.sum(axis=1, keepdims=True)
    return JointModel(
        DiscreteDistribution(Alphabet(list(range(n_in))), prior),
        DiscreteChannel(Alphabet(list(range(n_in))), Alphabet(list(range(n_out))), matrix),
    )


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture(autouse=True)
def model_cache(tmp_path_factory, monkeypatch):
    """Each test's own model cache root, so no test reads or writes the home directory's;
    a subprocess that inherits the environment uses it too."""
    root = tmp_path_factory.mktemp("xdg_cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "pmlkit"
