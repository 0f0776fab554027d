"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from pmlkit import (
    Alphabet,
    ClosedFormModel,
    DiscreteChannel,
    DiscreteDistribution,
    GainFunction,
    JointModel,
    gain_ratio,
    geometric_binary_model,
    integrability_probe,
    leakage_profile,
    maximal_leakage,
    mixture_limit_check,
    partition_oracle,
    pml,
    pml_closed_form,
    pml_density,
    randomized_function_oracle,
    randomized_strategy_check,
    renyi_inf,
    subset_oracle,
    tail_probability,
    to_density_model,
)
from pmlkit import absolute_continuity_witness, discretize_poisson_binomial
from pmlkit import cli
from conftest import random_full_support_model


def announce(number, label, started):
    print(f"\nACCEPTANCE {number} ({label}): PASS [{time.time() - started:.2f}s]")


def seeded_models(seed, count, max_in=8, max_out=8):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_full_support_model(
            rng, int(rng.integers(2, max_in + 1)), int(rng.integers(2, max_out + 1))
        )


def test_criterion_1_geometric_binary_closed_form():
    started = time.time()
    for p, q in [(0.3, 0.5), (0.7, 0.2), (0.5, 0.9)]:
        model = geometric_binary_model(p, q)
        top = 1 - q + p * q
        assert pml(model, 0).nats == pytest.approx(math.log(top / p), abs=1e-8)
        assert pml(model, 1).nats == pytest.approx(math.log(top / (1 - q)), abs=1e-8)
    assert time.time() - started < 1.0
    announce(1, "geometric/binary closed form", started)


def test_criterion_2_subset_and_function_oracles_equal_pml():
    started = time.time()
    for model in seeded_models(20240, 200):
        n = model.input_alphabet.size
        for y, w in zip(model.output_alphabet.symbols, model.marginal.probs):
            if w <= 0:
                continue
            target = pml(model, y).nats
            assert subset_oracle(model, y) == pytest.approx(target, abs=1e-10)
            assert randomized_function_oracle(model, y, n) == pytest.approx(
                target, abs=1e-10
            )
    assert time.time() - started < 30.0
    announce(2, "subset/function oracle equivalence, 200 models", started)


def test_criterion_3_partition_achievability_band():
    started = time.time()
    for model in seeded_models(20240, 200):
        for y, w in zip(model.output_alphabet.symbols, model.marginal.probs):
            if w <= 0:
                continue
            target = pml(model, y).nats
            for eps in (0.2, 0.05, 0.01):
                got = partition_oracle(model, y, eps)
                assert target - eps - 1e-12 <= got <= target + 1e-12
    assert time.time() - started < 30.0
    announce(3, "partition oracle within [pml - eps, pml]", started)


def test_criterion_4_gain_function_converse_and_strategy_check():
    started = time.time()
    rng = np.random.default_rng(20241)
    for _ in range(500):
        model = random_full_support_model(
            rng, int(rng.integers(2, 7)), int(rng.integers(2, 7))
        )
        d = int(rng.integers(1, 5))
        g = GainFunction(
            model.input_alphabet,
            Alphabet([f"w{i}" for i in range(d)]),
            rng.uniform(size=(model.input_alphabet.size, d)),
        )
        y = model.output_alphabet.symbols[int(rng.integers(model.output_alphabet.size))]
        assert math.log(gain_ratio(model, y, g)) <= pml(model, y).nats + 1e-10
    for _ in range(100):
        model = random_full_support_model(
            rng, int(rng.integers(2, 7)), int(rng.integers(2, 7))
        )
        d = int(rng.integers(1, 4))
        g = GainFunction(
            model.input_alphabet,
            Alphabet([f"w{i}" for i in range(d)]),
            rng.uniform(size=(model.input_alphabet.size, d)),
        )
        y = model.output_alphabet.symbols[int(rng.integers(model.output_alphabet.size))]
        assert randomized_strategy_check(model, y, g, 20)
    assert time.time() - started < 60.0
    announce(4, "converse bound 500 gains + strategy check 100 pairs", started)


def test_criterion_5_closed_forms():
    started = time.time()
    for sx, sn in [(1.0, 1.0), (1.0, 3.0), (2.0, 0.5)]:
        m = ClosedFormModel("additive_gaussian", {"sigma_x": sx, "sigma_n": sn})
        density = to_density_model(m)
        for y in (-3.0, -1.0, 0.0, 1.0, 3.0):
            gap = pml_closed_form(m, y).nats - pml_density(density, y).value.nats
            assert abs(gap) <= 1e-4
    for rho in (-0.9, -0.5, 0.5, 0.9):
        m = ClosedFormModel(
            "bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": rho}
        )
        density = to_density_model(m)
        for y in (-3.0, -1.0, 0.0, 1.0, 3.0):
            gap = pml_closed_form(m, y).nats - pml_density(density, y).value.nats
            assert abs(gap) <= 1e-4
    zero = ClosedFormModel("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 0.0})
    assert pml_closed_form(zero, 2.0).nats == 0.0

    for sigma in (0.5, 1.0):
        mix = ClosedFormModel("gaussian_mixture", {"sigma": sigma})
        assert pml_closed_form(mix, 0.5).nats == 0.0
        assert mixture_limit_check(sigma, 0.5 + 50 * sigma ** 2) < 1e-6

    discrete = discretize_poisson_binomial(2.0, 0.5, 10)
    closed = ClosedFormModel("poisson_binomial", {"lam": 2.0, "p": 0.5})
    for y in range(11):
        assert pml(discrete, y).nats == pytest.approx(
            pml_closed_form(closed, y).nats, abs=1e-8
        )
    assert time.time() - started < 10.0
    announce(5, "closed forms: Gaussian grids, mixture, Poisson-binomial", started)


def test_criterion_6_leakage_rv_statistics():
    started = time.time()
    rng = np.random.default_rng(20242)
    for _ in range(100):
        model = random_full_support_model(
            rng, int(rng.integers(2, 9)), int(rng.integers(2, 9))
        )
        profile = leakage_profile(model)
        expected = math.log(model.channel.matrix.max(axis=0).sum())
        assert maximal_leakage(profile).nats == pytest.approx(expected, abs=1e-10)
        grid = np.linspace(0.0, profile.nats_array().max() + 0.1, 50)
        tails = [tail_probability(profile, float(e)) for e in grid]
        assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert time.time() - started < 10.0
    announce(6, "maximal leakage = column-maxima sum; monotone tails", started)


def test_criterion_7_data_processing():
    started = time.time()
    rng = np.random.default_rng(20243)
    for _ in range(100):
        model = random_full_support_model(
            rng, int(rng.integers(2, 7)), int(rng.integers(2, 7))
        )
        stage = random_full_support_model(
            rng, model.output_alphabet.size, int(rng.integers(2, 7))
        )
        post = DiscreteChannel(
            model.output_alphabet, stage.output_alphabet, stage.channel.matrix
        )
        composed = JointModel(model.prior, model.channel.compose(post))
        bound = max(pml(model, y).nats for y in model.output_alphabet)
        for z in composed.output_alphabet:
            assert pml(composed, z).nats <= bound + 1e-10
    announce(7, "data-processing inequality, 100 compositions", started)


def test_criterion_8_non_integrability_signature():
    started = time.time()
    gauss = ClosedFormModel("additive_gaussian", {"sigma_x": 1.0, "sigma_n": 1.0})
    probe = integrability_probe(gauss, [10**3, 10**4, 10**5], seed=42)
    assert probe.strictly_increasing
    assert probe.diverges
    control = ClosedFormModel(
        "bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 0.0}
    )
    ctrl = integrability_probe(control, [10**3, 10**4, 10**5], seed=42)
    assert not ctrl.diverges
    assert all(abs(e - 1.0) <= 1e-12 for e in ctrl.estimates)
    announce(8, "exp-leakage divergence signature + integrable control", started)


def test_criterion_9_non_absolute_continuity():
    started = time.time()
    alphabet = Alphabet(["a", "b", "c"])
    post = DiscreteDistribution(alphabet, np.array([0.5, 0.5, 0.0]))
    prior = DiscreteDistribution(alphabet, np.array([0.7, 0.0, 0.3]))
    value = renyi_inf(post, prior)
    assert value.is_infinite
    assert absolute_continuity_witness(post, prior) == "b"
    assert cli._json({"leakage": value.nats}) == '{\n  "leakage": "inf"\n}\n'
    announce(9, "prior-null atom: infinite leakage, witness, 'inf' format", started)
