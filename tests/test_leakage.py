import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmlkit import (
    Alphabet,
    DiscreteChannel,
    DiscreteDistribution,
    JointModel,
    LeakageProfile,
    LeakageValue,
    absolute_continuity_witness,
    constant_channel,
    geometric_binary_model,
    identity_channel,
    leakage_profile,
    maximal_leakage,
    mean_leakage,
    pml,
    posterior,
    renyi_inf,
    tail_probability,
    uniform,
)
from pmlkit.errors import AlphabetMismatchError, ValidationError
from pmlkit.leakage import _logsumexp
from pmlkit.modelio import load_model
from conftest import random_full_support_model, random_model_with_zeros as _model_with_zeros


def dist(probs):
    return DiscreteDistribution(Alphabet(list(range(len(probs)))), np.asarray(probs, float))


class TestRenyiInf:
    def test_equal_distributions(self):
        p = dist([0.2, 0.3, 0.5])
        assert renyi_inf(p, p).nats == 0.0

    def test_point_mass_vs_uniform(self):
        assert renyi_inf(dist([1.0, 0.0]), dist([0.5, 0.5])).nats == pytest.approx(math.log(2))

    def test_not_absolutely_continuous(self):
        assert renyi_inf(dist([0.5, 0.5]), dist([1.0, 0.0])).is_infinite

    def test_zero_zero_atoms_are_neutral(self):
        # trailing atom has P = Q = 0; ratio 1 by convention
        p = dist([0.6, 0.4, 0.0])
        q = dist([0.3, 0.7, 0.0])
        assert renyi_inf(p, q).nats == pytest.approx(math.log(2))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            renyi_inf(dist([1.0]), dist([0.5, 0.5]))


def test_leakage_value_units_and_bounds():
    v = LeakageValue(math.log(2))
    assert v.bits == pytest.approx(1.0)
    assert v.in_units("nats") == v.nats
    with pytest.raises(ValidationError):
        LeakageValue(-0.1)
    assert LeakageValue(math.inf).is_infinite


def test_pml_identity_uniform():
    for n in (2, 4, 7):
        a = Alphabet(list(range(n)))
        model = JointModel(uniform(a), identity_channel(a))
        for y in a:
            assert pml(model, y).nats == pytest.approx(math.log(n), abs=1e-12)


def test_pml_constant_channel_is_zero():
    a = Alphabet(list(range(3)))
    row = dist([0.1, 0.9])
    model = JointModel(uniform(a), constant_channel(a, row))
    assert pml(model, 0).nats == 0.0
    assert pml(model, 1).nats == 0.0


def test_pml_geometric_binary_exact_values():
    p, q = 0.3, 0.5
    model = geometric_binary_model(p, q)
    top = 1 - q + p * q
    assert pml(model, 0).nats == pytest.approx(math.log(top / p), abs=1e-8)
    assert pml(model, 1).nats == pytest.approx(math.log(top / (1 - q)), abs=1e-8)


def test_pml_equals_likelihood_ratio_form():
    # oracle identity: pml = log max_x P(y|x) / P_Y(y) on positive outcomes
    rng = np.random.default_rng(11)
    for _ in range(50):
        model = random_full_support_model(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        for j, y in enumerate(model.output_alphabet.symbols):
            expected = math.log(model.channel.matrix[:, j].max() / model.marginal.probs[j])
            assert pml(model, y).nats == pytest.approx(expected, abs=1e-10)


def test_profile_zero_weight_outcome_has_zero_leakage():
    a = Alphabet(["x0", "x1"])
    b = Alphabet(["y0", "y1", "never"])
    channel = DiscreteChannel(a, b, np.array([[0.9, 0.1, 0.0], [0.3, 0.7, 0.0]]))
    model = JointModel(uniform(a), channel)
    profile = leakage_profile(model)
    assert profile.leakages[2].nats == 0.0
    assert profile.weights.prob("never") == 0.0


def test_maximal_leakage_identity_and_constant():
    a = Alphabet(list(range(5)))
    ident = leakage_profile(JointModel(uniform(a), identity_channel(a)))
    assert maximal_leakage(ident).nats == pytest.approx(math.log(5), abs=1e-12)
    const = leakage_profile(JointModel(uniform(a), constant_channel(a, dist([0.5, 0.5]))))
    assert maximal_leakage(const).nats == 0.0


def test_maximal_leakage_column_maxima_oracle():
    rng = np.random.default_rng(23)
    for _ in range(25):
        model = random_full_support_model(rng, 4, 4)
        got = maximal_leakage(leakage_profile(model)).nats
        expected = math.log(model.channel.matrix.max(axis=0).sum())
        assert got == pytest.approx(expected, abs=1e-10)


def test_mean_leakage():
    a = Alphabet(list(range(4)))
    ident = leakage_profile(JointModel(uniform(a), identity_channel(a)))
    assert mean_leakage(ident).nats == pytest.approx(math.log(4), abs=1e-12)
    model = geometric_binary_model(0.3, 0.5)
    profile = leakage_profile(model)
    expected = float(np.dot(profile.weights.probs, profile.nats_array()))
    assert mean_leakage(profile).nats == pytest.approx(expected, abs=1e-15)


def test_tail_probability():
    a = Alphabet(list(range(4)))
    ident = leakage_profile(JointModel(uniform(a), identity_channel(a)))
    assert tail_probability(ident, 0.0) == 1.0
    assert tail_probability(ident, math.log(4)) == 0.0  # strict inequality
    const = leakage_profile(JointModel(uniform(a), constant_channel(a, dist([0.2, 0.8]))))
    assert tail_probability(const, 0.0) == 0.0

    model = geometric_binary_model(0.3, 0.5)
    profile = leakage_profile(model)
    low, high = sorted(profile.nats_array())
    between = 0.5 * (low + high)
    bigger = int(np.argmax(profile.nats_array()))
    assert tail_probability(profile, between) == pytest.approx(
        float(profile.weights.probs[bigger])
    )
    with pytest.raises(ValidationError):
        tail_probability(profile, -1.0)
    with pytest.raises(ValidationError, match="eps must be >= 0, got nan"):
        tail_probability(profile, math.nan)
    assert tail_probability(profile, math.inf) == 0.0
    # in bits, log 4 reads 2.0, and an outcome that prints as eps does not exceed it
    assert tail_probability(ident, 2.0, "bits") == 0.0
    assert tail_probability(ident, 1.99, units="bits") == 1.0
    with pytest.raises(ValidationError, match="unknown units 'hartleys'"):
        tail_probability(ident, 1.0, "hartleys")


def test_tail_is_monotone_step_function():
    rng = np.random.default_rng(37)
    model = random_full_support_model(rng, 5, 6)
    profile = leakage_profile(model)
    grid = np.linspace(0.0, profile.nats_array().max() + 0.5, 60)
    tails = [tail_probability(profile, e) for e in grid]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    # constant between consecutive distinct leakage values
    values = sorted(set(profile.nats_array()))
    for lo, hi in zip(values, values[1:]):
        mid1, mid2 = lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)
        assert tail_probability(profile, mid1) == tail_probability(profile, mid2)


def test_data_processing_inequality():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        model = random_full_support_model(rng, n, int(rng.integers(2, 7)))
        z_stage = random_full_support_model(
            rng, model.output_alphabet.size, int(rng.integers(2, 7))
        )
        post = DiscreteChannel(
            model.output_alphabet, z_stage.output_alphabet, z_stage.channel.matrix
        )
        composed = JointModel(model.prior, model.channel.compose(post))
        bound = max(pml(model, y).nats for y in model.output_alphabet)
        for z in composed.output_alphabet:
            assert pml(composed, z).nats <= bound + 1e-10


def test_absolute_continuity_checks():
    rng = np.random.default_rng(71)
    model = random_full_support_model(rng, 4, 4)
    for y in model.output_alphabet:
        assert absolute_continuity_witness(posterior(model, y), model.prior) is None
        assert not pml(model, y).is_infinite

    # prior null atom never receives posterior mass under exact Bayes
    a = Alphabet(["x0", "x1"])
    prior = DiscreteDistribution(a, np.array([0.0, 1.0]))
    model = JointModel(prior, identity_channel(a))
    assert absolute_continuity_witness(posterior(model, "x1"), model.prior) is None

    # externally supplied pair with a violating atom
    p = dist([0.5, 0.5, 0.0])
    q = dist([1.0, 0.0, 0.0])
    assert absolute_continuity_witness(p, q) == 1
    assert renyi_inf(p, q).is_infinite


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LeakageProfile(Alphabet([0, 1]), [0.0, 0.0], uniform(Alphabet(["a", "b"]))),
         "weights must live on the outcome alphabet"),
        (lambda: absolute_continuity_witness(dist([0.5, 0.5]), dist([0.5, 0.25, 0.25])),
         "absolute continuity check requires a shared alphabet"),
    ],
    ids=["profile_weights", "absolute_continuity"],
)
def test_alphabet_mismatch_refused(make, message):
    with pytest.raises(AlphabetMismatchError) as exc:
        make()
    assert str(exc.value) == message


def test_profile_invariant_zero_weight_zero_leakage():
    a = Alphabet([0, 1])
    weights = DiscreteDistribution(a, np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        LeakageProfile(a, (LeakageValue(0.0), LeakageValue(0.5)), weights)


def _reference_nats(model):
    """The per-outcome route: renyi_inf of each validated posterior."""
    return [renyi_inf(posterior(model, y), model.prior).nats for y in model.output_alphabet]


def _assert_profile_matches_reference(model):
    nats = leakage_profile(model).nats_array()
    assert nats.tolist() == _reference_nats(model)  # bit for bit
    for j, y in enumerate(model.output_alphabet.symbols):
        assert pml(model, y).nats == nats[j]


def test_profile_equals_per_outcome_reference():
    rng = np.random.default_rng(89)
    for _ in range(40):
        n_in, n_out = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        if rng.random() < 0.5:
            model = _model_with_zeros(rng, n_in, n_out)
        else:
            model = random_full_support_model(rng, n_in, n_out)
        _assert_profile_matches_reference(model)
    wide = random_full_support_model(rng, 16, 500)
    _assert_profile_matches_reference(wide)


def test_profile_covers_zero_prior_atoms_and_zero_weight_outcomes():
    model = _model_with_zeros(np.random.default_rng(97), 9, 25)
    assert (model.prior.probs == 0).any() and (model.marginal.probs == 0).any()
    _assert_profile_matches_reference(model)


@pytest.mark.parametrize(
    "name", ["identity4.json", "geometric_binary_p03_q05.json", "poisson_binomial_lam2_p05.json"]
)
def test_profile_equals_reference_on_fixture_models(fixtures_dir, name):
    _assert_profile_matches_reference(load_model(fixtures_dir / name))


def test_profile_is_one_read_only_array():
    profile = leakage_profile(geometric_binary_model(0.3, 0.5))
    nats = profile.nats_array()
    assert nats is profile.nats_array()
    assert not nats.flags.writeable
    assert [lv.nats for lv in profile.leakages] == nats.tolist()
    np.testing.assert_array_equal(profile.in_units("bits"), nats / math.log(2))
    with pytest.raises(ValidationError):
        profile.in_units("hartleys")


def test_profile_rejects_nan_and_negative_leakage():
    a = Alphabet([0, 1])
    weights = DiscreteDistribution(a, np.array([0.5, 0.5]))
    for bad in ([0.1, math.nan], [-0.1, 0.2]):
        with pytest.raises(ValidationError, match=">= 0"):
            LeakageProfile(a, np.array(bad), weights)
    with pytest.raises(ValidationError, match="one leakage value"):
        LeakageProfile(a, np.array([0.1]), weights)


def _with_marginal(model, skewed):
    """A test-only fake: the model with its derived marginal replaced, so the
    kernel's posterior law check has something to reject."""
    object.__setattr__(model, "marginal", skewed)
    return model


def test_unnormalized_posterior_is_rejected_by_name():
    # a marginal off from prior @ channel by 1e-12 absolute leaves the
    # posterior of a rare outcome far from normalized
    a = Alphabet(["x0", "x1"])
    b = Alphabet(["common", "rare"])
    model = JointModel(uniform(a), DiscreteChannel(a, b, np.array([[1.0, 0.0], [1 - 2e-9, 2e-9]])))
    skewed = DiscreteDistribution(b, model.marginal.probs + np.array([-5e-13, 5e-13]))
    skewed_model = _with_marginal(model, skewed)
    with pytest.raises(ValidationError):
        posterior(skewed_model, "rare")
    with pytest.raises(ValidationError, match="'rare'"):
        leakage_profile(skewed_model)
    with pytest.raises(ValidationError, match="'rare'"):
        pml(skewed_model, "rare")
    assert pml(skewed_model, "common").nats >= 0.0  # that posterior still normalizes


@pytest.mark.parametrize(
    "skew, reason",
    [
        (5e-13, "truncation_deficit 0.0002"),  # the posterior falls short of 1
        (-5e-13, "probabilities sum to 1.0002"),  # the posterior exceeds 1
    ],
)
def test_unnormalized_posterior_gives_one_reason_on_every_route(skew, reason):
    a = Alphabet(["x0", "x1"])
    b = Alphabet(["common", "rare"])
    model = JointModel(uniform(a), DiscreteChannel(a, b, np.array([[1.0, 0.0], [1 - 4e-9, 4e-9]])))
    skewed = DiscreteDistribution(b, model.marginal.probs + np.array([-skew, skew]))
    skewed_model = _with_marginal(model, skewed)
    with pytest.raises(ValidationError) as direct:
        posterior(skewed_model, "rare")
    assert str(direct.value).startswith(reason)
    for route in (lambda: pml(skewed_model, "rare"), lambda: leakage_profile(skewed_model)):
        with pytest.raises(ValidationError) as exc:
            route()
        assert str(exc.value) == f"posterior at outcome 'rare': {direct.value}"


def _subnormal_column_model(rng):
    """A random model whose outcome 0 has only subnormal channel entries,
    some of them exact multiples of 5e-324, and a prior that may hold zero
    and subnormal atoms."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(2, 5))
    prior = rng.dirichlet(np.ones(n))
    prior[rng.random(n) < 0.2] = 0.0
    prior[rng.random(n) < 0.2] = 5e-324 * rng.integers(1, 9)
    prior[0] += 1.0 - prior.sum()
    matrix = rng.dirichlet(np.ones(m), size=n)
    if rng.random() < 0.5:
        column = 5e-324 * rng.integers(0, 40, n)
    else:
        column = np.ldexp(rng.random(n), -int(rng.integers(1022, 1080)))
    matrix[:, 1:] *= (1.0 - column)[:, None] / matrix[:, 1:].sum(axis=1, keepdims=True)
    matrix[:, 0] = column
    a, b = Alphabet(list(range(n))), Alphabet(list(range(m)))
    return JointModel(DiscreteDistribution(a, prior), DiscreteChannel(a, b, matrix))


def test_bayes_division_never_overflows_on_subnormal_outcomes():
    # P_Y(y) = fl(prior @ W[:, j]) is at least every rounded product
    # fl(prior[i] * W[i, j]), so no posterior entry exceeds 1; under the
    # suite's filterwarnings = error an overflow here would raise.
    rng = np.random.default_rng(173)
    for _ in range(2000):
        model = _subnormal_column_model(rng)
        p_y = model.marginal.probs
        quotients = model.prior.probs[:, None] * model.channel.matrix / np.where(p_y > 0, p_y, 1)
        assert quotients.max() <= 1.0
        assert np.isfinite(leakage_profile(model).nats_array()).all()
        for y in model.output_alphabet:
            assert posterior(model, y).probs.max() <= 1.0


def test_subnormal_outcome_posterior_is_a_law():
    # The matrix product may round P_Y(0) to 14 subnormals while the products
    # the posterior divides round to 10 and 5, so the posterior summed to
    # 15/14; P_Y of such an outcome is now the sum of those products.
    unit = 5e-324
    a = Alphabet(["x0", "x1", "x2"])
    matrix = np.array([[19 * unit, 0.5, 0.25, 0.25],
                       [10 * unit, 0.25, 0.5, 0.25],
                       [15 * unit, 0.25, 0.25, 0.5]])
    model = JointModel(DiscreteDistribution(a, np.array([0.5, 0.5, 0.0])),
                       DiscreteChannel(a, Alphabet([0, 1, 2, 3]), matrix))
    assert model.marginal.probs[0] == 15 * unit
    post = posterior(model, 0).probs
    assert post.tolist() == [10 / 15, 5 / 15, 0.0]
    assert leakage_profile(model).nats_array()[0] == pml(model, 0).nats == 0.28768207245178085
    # each product is within u = 2^-1075, half a subnormal, of its exact value,
    # so each posterior entry is within 2 |X| u / P_Y(0) of the exact 19/29,
    # 10/29 and 0
    bound = 3 * unit / model.marginal.probs[0]
    assert np.abs(post - np.array([19, 10, 0]) / 29).max() <= bound
    assert 0 < pml(model, 0).nats - math.log(38 / 29) < 0.018


def test_aggregates_of_an_infinite_leakage_are_infinite():
    a = Alphabet([0, 1])
    profile = LeakageProfile(a, [math.inf, 0.3], DiscreteDistribution(a, np.array([0.5, 0.5])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert maximal_leakage(profile).nats == math.inf
        assert mean_leakage(profile).nats == math.inf


def test_logsumexp_equals_scipy_bit_for_bit():
    from scipy.special import logsumexp

    rng = np.random.default_rng(31)
    for i in range(2000):
        n = int(rng.integers(1, 40))
        a = rng.normal(0.0, rng.uniform(0.01, 30.0), n)
        if i % 2:  # ties, at the maximum and elsewhere
            a = np.round(a, 1)
            a[rng.integers(0, n, size=n // 2)] = a.max()
        assert _logsumexp(a) == float(logsumexp(a))
    for a in ([0.0], [-3.5], [2.0, 2.0], [-800.0, -800.5]):
        assert _logsumexp(np.array(a)) == float(logsumexp(a))


@st.composite
def full_support_models(draw):
    n_in, n_out = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.floats(min_value=1e-3, max_value=1.0)
    prior = np.array(draw(st.lists(entry, min_size=n_in, max_size=n_in)))
    matrix = np.array(
        [draw(st.lists(entry, min_size=n_out, max_size=n_out)) for _ in range(n_in)]
    )
    a, b = Alphabet(list(range(n_in))), Alphabet(list(range(n_out)))
    return JointModel(
        DiscreteDistribution(a, prior / prior.sum()),
        DiscreteChannel(a, b, matrix / matrix.sum(axis=1, keepdims=True)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(full_support_models())
def test_maximal_leakage_is_log_sum_of_column_maxima(model):
    # Issa-Wagner-Kamath maximal leakage, recovered as log E[exp leakage]
    got = maximal_leakage(leakage_profile(model)).nats
    assert got == pytest.approx(math.log(model.channel.matrix.max(axis=0).sum()), abs=1e-12)


@st.composite
def models_with_zero_atoms(draw):
    """Random models whose prior and channel rows may hold zeros; each keeps
    one positive entry, so zero-prior atoms and zero-weight outcomes occur."""
    n_in, n_out = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))

    def law(size):
        v = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
        v[draw(st.integers(0, size - 1))] += 1e-3
        return v / v.sum()

    a, b = Alphabet(list(range(n_in))), Alphabet(list(range(n_out)))
    matrix = np.array([law(n_out) for _ in range(n_in)])
    return JointModel(DiscreteDistribution(a, law(n_in)), DiscreteChannel(a, b, matrix))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(models_with_zero_atoms())
def test_mean_leakage_at_most_maximal_leakage(model):
    # Jensen: E[leakage] <= log E[exp leakage]
    profile = leakage_profile(model)
    assert mean_leakage(profile).nats <= maximal_leakage(profile).nats + 1e-12
