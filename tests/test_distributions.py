import math

import numpy as np
import pytest

from pmlkit import (
    Alphabet,
    DiscreteChannel,
    DiscreteDistribution,
    GainFunction,
    JointModel,
    constant_channel,
    geometric_binary_model,
    identity_channel,
    marginal,
    posterior,
    truncate_countable,
    uniform,
)
from pmlkit.errors import (
    AlphabetMismatchError,
    UnknownSymbolError,
    UnsupportedLawError,
    ValidationError,
)
from conftest import random_full_support_model


def test_alphabet_rejects_duplicates_and_empty():
    for symbols in (["a", "a"], [1, True], [1, "b", 1.0]):  # equal labels are duplicates
        with pytest.raises(ValidationError, match="^alphabet symbols must be unique$"):
            Alphabet(symbols)
    with pytest.raises(ValidationError, match="^alphabet must contain at least one symbol$"):
        Alphabet([])
    with pytest.raises(TypeError, match="^unhashable type: 'list'$"):
        Alphabet(["a", ["b"]])
    alphabet = Alphabet(["a", "b", 3])
    assert len(alphabet) == 3
    assert [alphabet.index(s) for s in ("a", "b", 3)] == [0, 1, 2]


def test_distribution_validation():
    a = Alphabet(["a", "b"])
    with pytest.raises(ValidationError):
        DiscreteDistribution(a, np.array([0.5, -0.5]))
    with pytest.raises(ValidationError):
        DiscreteDistribution(a, np.array([0.5, 0.4]))  # sum 0.9
    with pytest.raises(ValidationError):
        DiscreteDistribution(a, np.array([0.5, 0.5]), truncation_deficit=1e-6)
    # deficit participates in the normalization check
    DiscreteDistribution(a, np.array([0.5, 0.5 - 1e-10]), truncation_deficit=1e-10)


def test_identity_marginal_is_prior():
    a = Alphabet([1, 2, 3])
    prior = DiscreteDistribution(a, np.array([0.2, 0.3, 0.5]))
    out = marginal(prior, identity_channel(a))
    np.testing.assert_allclose(out.probs, prior.probs, rtol=0, atol=1e-15)


def test_constant_channel_marginal_is_row():
    a = Alphabet(["u", "v", "w"])
    row = DiscreteDistribution(Alphabet([0, 1]), np.array([0.7, 0.3]))
    prior = DiscreteDistribution(a, np.array([0.1, 0.2, 0.7]))
    out = marginal(prior, constant_channel(a, row))
    np.testing.assert_allclose(out.probs, row.probs, atol=1e-15)


def test_geometric_binary_marginal_closed_form():
    p, q = 0.3, 0.5
    model = geometric_binary_model(p, q)
    expected = p * q / (1 - q + p * q)
    assert model.marginal.prob(0) == pytest.approx(expected, abs=1e-12)
    assert model.marginal.prob(1) == pytest.approx(1 - expected, abs=1e-12)


def test_geometric_posterior_normalization_term_by_term():
    # oracle: sum p (1-p)^(x-1) q^x over the truncated support
    p, q = 0.3, 0.5
    model = geometric_binary_model(p, q)
    xs = np.array(model.input_alphabet.symbols, dtype=float)
    brute = float(np.sum(p * (1 - p) ** (xs - 1) * q ** xs))
    assert brute == pytest.approx(p * q / (1 - q + p * q), abs=1e-12)
    post = posterior(model, 0)
    assert post.probs.sum() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(
        post.probs, p * (1 - p) ** (xs - 1) * q ** xs / brute, atol=1e-12
    )


def test_posterior_identity_and_constant():
    a = Alphabet([0, 1, 2])
    prior = DiscreteDistribution(a, np.array([0.2, 0.3, 0.5]))
    model = JointModel(prior, identity_channel(a))
    post = posterior(model, 2)
    np.testing.assert_allclose(post.probs, [0.0, 0.0, 1.0], atol=1e-15)

    row = DiscreteDistribution(Alphabet(["y0", "y1"]), np.array([0.4, 0.6]))
    const = JointModel(prior, constant_channel(a, row))
    for y in const.output_alphabet:
        np.testing.assert_allclose(posterior(const, y).probs, prior.probs, atol=1e-15)


def test_posterior_zero_probability_outcome_returns_prior():
    a = Alphabet(["x0", "x1"])
    b = Alphabet(["y0", "y1", "dead"])
    prior = DiscreteDistribution(a, np.array([0.4, 0.6]))
    channel = DiscreteChannel(a, b, np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]))
    model = JointModel(prior, channel)
    assert posterior(model, "dead") is model.prior


def test_posterior_unknown_symbol():
    a = Alphabet([0, 1])
    model = JointModel(uniform(a), identity_channel(a))
    with pytest.raises(UnknownSymbolError):
        posterior(model, 7)


def test_marginal_alphabet_mismatch():
    prior = uniform(Alphabet([0, 1]))
    channel = identity_channel(Alphabet([0, 1, 2]))
    with pytest.raises(AlphabetMismatchError):
        marginal(prior, channel)


def test_compose_alphabet_mismatch():
    channel = identity_channel(Alphabet([0, 1]))
    with pytest.raises(AlphabetMismatchError, match="input alphabet must match output alphabet"):
        channel.compose(identity_channel(Alphabet([0, 1, 2])))


@pytest.mark.parametrize(
    "make",
    [lambda: identity_channel(Alphabet(["a", "b"])),
     lambda: GainFunction(Alphabet(["a", "b"]), Alphabet([0]), np.ones((2, 1)))],
    ids=["channel", "gain_function"],
)
def test_array_holders_compare_by_identity(make):
    # a generated __eq__ would compare the arrays, whose truth value is ambiguous
    one, twin = make(), make()
    assert one == one and one != twin
    assert one in [twin, one] and twin not in [one]
    assert hash(one) == hash(one)
    assert len({one, twin, one}) == 2 and one in {one} and twin not in {one}


def test_truncate_geometric_support_and_deficit():
    dist = truncate_countable("geometric", 0.5, 1e-12)
    assert dist.alphabet.symbols == tuple(range(1, 41))
    assert dist.truncation_deficit == pytest.approx(0.5 ** 40, rel=1e-12)


def test_truncate_poisson_matches_cumulative_oracle():
    dist = truncate_countable("poisson", 2.0, 1e-12)
    # independent oracle: accumulate the pmf recursively
    pmf, total, k = math.exp(-2.0), math.exp(-2.0), 0
    while 1.0 - total > 1e-12:
        k += 1
        pmf *= 2.0 / k
        total += pmf
    assert dist.alphabet.symbols[-1] == k
    assert dist.probs.sum() + dist.truncation_deficit == pytest.approx(1.0, abs=1e-12)


def test_truncate_poisson_corrects_an_undershooting_isf(monkeypatch):
    from scipy import stats

    want = truncate_countable("poisson", 2.0, 1e-12)
    isf = stats.poisson.isf
    monkeypatch.setattr(stats.poisson, "isf", lambda q, mu: isf(q, mu) - 3)
    got = truncate_countable("poisson", 2.0, 1e-12)
    assert got.alphabet.symbols == want.alphabet.symbols
    assert got.truncation_deficit == want.truncation_deficit


def test_truncate_rejects_coarse_tail_and_unknown_law():
    with pytest.raises(ValidationError):
        truncate_countable("geometric", 0.3, 0.5)
    with pytest.raises(UnsupportedLawError):
        truncate_countable("zipf", 1.5, 1e-12)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: truncate_countable("geometric", 1.5, 1e-12),
         "geometric parameter must be in (0, 1), got 1.5"),
        (lambda: truncate_countable("poisson", -1.0, 1e-12),
         "poisson rate must be positive, got -1.0"),
        (lambda: geometric_binary_model(0.3, 1.0),
         "kernel parameter q must be in (0, 1), got 1.0"),
    ],
    ids=["geometric_p", "poisson_rate", "geometric_binary_q"],
)
def test_countable_law_parameters_refused(make, message):
    with pytest.raises(ValidationError) as exc:
        make()
    assert str(exc.value) == message


def test_bayes_consistency_random_models():
    rng = np.random.default_rng(101)
    for _ in range(30):
        model = random_full_support_model(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        recovered = np.zeros(model.input_alphabet.size)
        for y, w in zip(model.output_alphabet.symbols, model.marginal.probs):
            recovered += w * posterior(model, y).probs
        np.testing.assert_allclose(recovered, model.prior.probs, rtol=0, atol=1e-10)


def test_channel_row_validation_names_the_row():
    a = Alphabet(["x0", "x1"])
    b = Alphabet([0, 1])
    with pytest.raises(ValidationError, match="x1"):
        DiscreteChannel(a, b, np.array([[0.5, 0.5], [0.5, 0.47]]))


def test_nan_deficit_is_rejected():
    # every comparison with NaN is false, so the range check must be one NaN fails
    a = Alphabet(["x0", "x1"])
    with pytest.raises(ValidationError, match="truncation_deficit"):
        DiscreteDistribution(a, np.array([0.5, 0.5]), truncation_deficit=math.nan)
    with pytest.raises(ValidationError, match="x1"):
        DiscreteChannel(a, Alphabet([0, 1]), np.full((2, 2), 0.5), np.array([0.0, math.nan]))


# The texts are those the per-check code wrote before the law rule moved
# into one function; a channel row holding inf and -inf used to warn
# "invalid value encountered in reduce" on the way to the same text.
_OK = [0.5, 0.5]
_SUM_OFF = "probabilities sum to {} (with deficit 0); expected 1 within 1e-12"


@pytest.mark.parametrize(
    "probs, deficit, message",
    [
        ([0.5, -0.5], 0.0, "probabilities must be finite and >= 0"),
        ([0.5, math.nan], 0.0, "probabilities must be finite and >= 0"),
        ([math.inf, 0.5], 0.0, "probabilities must be finite and >= 0"),
        ([math.inf, -math.inf], 0.0, "probabilities must be finite and >= 0"),
        (_OK, math.nan, "truncation_deficit must be >= 0, got nan"),
        (_OK, -1e-10, "truncation_deficit must be >= 0, got -1e-10"),
        ([0.5, 0.5 + 1e-10], -1e-10, "truncation_deficit must be >= 0, got -1e-10"),
        (_OK, 1e-6, "truncation_deficit 1e-06 exceeds the accepted maximum 1e-09; "
                    "refine the truncation"),
        ([0.5, 0.5 - 2e-9], 2e-9, "truncation_deficit 2e-09 exceeds the accepted "
                                  "maximum 1e-09; refine the truncation"),
        ([0.5, 0.5 + 2e-12], 0.0, _SUM_OFF.format("1.000000000002")),
        ([0.5, 0.5 - 2e-12], 0.0, _SUM_OFF.format("0.999999999998")),
        ([0.5, 0.25, 0.25], 0.0, "probability vector length (3,) does not match "
                                 "alphabet size 2"),
        ([_OK], 0.0, "probability vector length (1, 2) does not match alphabet size 2"),
    ],
)
def test_distribution_error_text(probs, deficit, message):
    with pytest.raises(ValidationError) as exc:
        DiscreteDistribution(Alphabet(["a", "b"]), np.array(probs), deficit)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "matrix, deficits, message",
    [
        ([_OK, _OK], None, "channel matrix shape (2, 2) does not match alphabets (3, 2)"),
        ([_OK] * 3, [0.0] * 4, "row_deficits shape (4,) does not match input alphabet size 3"),
        # the first row that is not a law is named, with its own first fault
        ([_OK, [0.5, -0.5], [0.5, 0.4]], None,
         "channel row for input 'x1': probabilities must be finite and >= 0"),
        ([_OK, [0.5, 0.4], [math.nan, 0.5]], None,
         "channel row for input 'x1': " + _SUM_OFF.format("0.9")),
        ([_OK, _OK, [math.inf, -math.inf]], None,
         "channel row for input 'x2': probabilities must be finite and >= 0"),
        ([_OK] * 3, [0.0, math.nan, 1e-6],
         "channel row for input 'x1': truncation_deficit must be >= 0, got nan"),
        ([_OK] * 3, [0.0, 0.0, -1e-10],
         "channel row for input 'x2': truncation_deficit must be >= 0, got -1e-10"),
        ([_OK, [0.5, 0.5 - 2e-9], _OK], [0.0, 2e-9, 1e-6],
         "channel row for input 'x1': truncation_deficit 2e-09 exceeds the accepted "
         "maximum 1e-09; refine the truncation"),
        ([_OK, _OK, [0.5, 0.5 + 2e-12]], None,
         "channel row for input 'x2': " + _SUM_OFF.format("1.000000000002")),
    ],
)
def test_channel_error_text(matrix, deficits, message):
    x, y = Alphabet(["x0", "x1", "x2"]), Alphabet([0, 1])
    deficits = None if deficits is None else np.array(deficits)
    with pytest.raises(ValidationError) as exc:
        DiscreteChannel(x, y, np.array(matrix), deficits)
    assert str(exc.value) == message
