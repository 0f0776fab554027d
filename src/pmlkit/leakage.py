"""Per-outcome leakage via the order-infinity Renyi divergence.

The core quantity is ``renyi_inf(P, Q) = log max_x P(x)/Q(x)`` over the
support of P, with the conventions 0/0 = 1 and x/0 = +infinity.  The
leakage of an outcome y is this divergence between the posterior and the
prior; collected over all outcomes (weighted by the output marginal)
this forms the leakage random variable, from which the averaged
statistics and tail probabilities derive.

The leakage of a ``JointModel`` is finite, as Bayes' rule puts no
posterior mass where the prior has none; the aggregates pass +inf through.

All values are in nats internally; ``UNITS`` converts them for display.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from .distributions import (
    Alphabet,
    DiscreteDistribution,
    JointModel,
    Symbol,
    _law_fault,
    _readonly,
)
from .errors import AlphabetMismatchError, ValidationError

#: nats per unit, for each unit a leakage or an eps can be given in
UNITS = {"nats": 1.0, "bits": math.log(2.0)}


def _nats_per(units: str) -> float:
    if units not in UNITS:
        raise ValidationError(f"unknown units {units!r}")
    return UNITS[units]


@dataclasses.dataclass(frozen=True, order=True)
class LeakageValue:
    """Extended non-negative leakage in nats; may be +infinity."""

    nats: float

    def __post_init__(self):
        if math.isnan(self.nats) or self.nats < 0:
            raise ValidationError(f"leakage must be >= 0, got {self.nats!r}")

    @property
    def bits(self) -> float:
        return self.in_units("bits")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.nats)

    def in_units(self, units: str) -> float:
        return self.nats / _nats_per(units)

    def __float__(self) -> float:
        return self.nats


@dataclasses.dataclass(frozen=True, eq=False)
class LeakageProfile:
    """The map y -> leakage(X -> y) together with the output law P_Y.

    The leakages (``LeakageValue``s or plain nats) are stored as one
    read-only float array of nats, which ``nats_array`` returns.
    """

    outcomes: Alphabet
    weights: DiscreteDistribution
    _nats: np.ndarray = dataclasses.field(repr=False)

    def __init__(self, outcomes: Alphabet, leakages, weights: DiscreteDistribution):
        nats = _readonly(leakages)
        if nats.shape != (outcomes.size,):
            raise ValidationError("one leakage value per outcome required")
        bad = np.flatnonzero(~(nats >= 0))
        if bad.size:
            raise ValidationError(f"leakage must be >= 0, got {float(nats[bad[0]])!r}")
        if weights.alphabet.symbols != outcomes.symbols:
            raise AlphabetMismatchError("weights must live on the outcome alphabet")
        if np.any((weights.probs == 0.0) & (nats != 0.0)):
            raise ValidationError("zero-probability outcomes must carry zero leakage")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_nats", nats)

    @property
    def leakages(self) -> Tuple[LeakageValue, ...]:
        return tuple(LeakageValue(v) for v in self._nats.tolist())

    def nats_array(self) -> np.ndarray:
        """The leakages in nats, read-only and not copied."""
        return self._nats

    def in_units(self, units: str) -> np.ndarray:
        """The leakages converted as ``LeakageValue.in_units`` converts one."""
        return self._nats / _nats_per(units)


def renyi_inf(p: DiscreteDistribution, q: DiscreteDistribution) -> LeakageValue:
    """D_inf(P || Q) = log max over the support of P of P(x)/Q(x).

    Returns +infinity exactly when P is not absolutely continuous with
    respect to Q.  Computed in the log domain so long-tailed truncated
    alphabets cannot overflow.
    """
    if p.alphabet.symbols != q.alphabet.symbols:
        raise AlphabetMismatchError("renyi_inf requires a shared alphabet")
    support = p.probs > 0  # never empty: a law has mass near 1
    with np.errstate(divide="ignore"):  # log Q(x) = -inf makes the ratio +inf
        val = float(np.max(np.log(p.probs[support]) - np.log(q.probs[support])))
    # max ratio >= 1 whenever both vectors (nearly) normalize; clamp fp dust
    return LeakageValue(max(val, 0.0))


def _leakage_nats(model: JointModel, outcomes: slice) -> np.ndarray:
    """Leakage in nats of a slice of outcomes, all columns at once.

    Per column these are the elementwise operations of
    ``renyi_inf(posterior(model, y), model.prior)``, so the values agree
    bit for bit (``log max_x W - log P_Y`` does not).  Outcomes with
    P_Y(y) = 0 get 0.  A posterior that is not a law is rejected with
    the reason ``posterior`` gives, naming its outcome.
    """
    prior = model.prior.probs
    p_y = model.marginal.probs[outcomes]
    live = p_y > 0.0
    # the one |X| x |Y| float temporary: the posteriors, then their log ratios
    ratio = prior[:, None] * model.channel.matrix[:, outcomes]
    ratio /= np.where(live, p_y, 1.0)
    # each live column's total, checked as a one-atom law as posterior() checks it
    totals = np.where(live, ratio.sum(axis=0), 1.0)
    fault = _law_fault(totals[:, None], np.maximum(1.0 - totals, 0.0))
    if fault is not None:
        y = model.output_alphabet.symbols[outcomes][fault[0]]
        raise ValidationError(f"posterior at outcome {y!r}: {fault[1]}")
    # off the posterior's support the log ratio is -inf, or NaN where the prior is 0: fmax skips it
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(ratio, out=ratio)
        ratio -= np.log(prior)[:, None]
    nats = np.fmax.reduce(ratio, axis=0)
    nats[~live] = 0.0
    # max ratio >= 1 whenever the posterior (nearly) normalizes; clamp fp dust
    return np.maximum(nats, 0.0, out=nats)


def pml(model: JointModel, y: Symbol) -> LeakageValue:
    """Pointwise maximal leakage from X to the outcome y.

    Equals ``renyi_inf(posterior, prior)``; zero for outcomes with
    P_Y(y) = 0 via the no-conditioning convention.
    """
    j = model.output_alphabet.index(y)
    return LeakageValue(float(_leakage_nats(model, slice(j, j + 1))[0]))


def leakage_profile(model: JointModel) -> LeakageProfile:
    return LeakageProfile(
        model.output_alphabet, _leakage_nats(model, slice(None)), model.marginal
    )


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a 1-D array of reals; an entry of +inf gives inf.

    Repeats the operations of ``scipy.special.logsumexp`` (1.17) in the
    same order, so the two agree bit for bit: the maximal entries are
    taken out of the shifted sum and counted instead.
    """
    a_max = np.max(a)
    ties = a == a_max
    m = np.sum(ties, dtype=float)
    s = np.sum(np.exp(np.where(ties, -math.inf, a) - a_max))
    if s != 0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + a_max)


def maximal_leakage(profile: LeakageProfile) -> LeakageValue:
    """log E_{P_Y}[exp leakage] — the averaged (Sibson-infinity) statistic.

    On finite full-support models this equals the log of the sum of the
    channel's column maxima, which the tests use as an independent check.
    """
    weights = profile.weights.probs
    nats = profile.nats_array()
    mask = weights > 0  # never empty: the weights are a law
    val = _logsumexp(np.log(weights[mask]) + nats[mask])
    return LeakageValue(max(val, 0.0))


def mean_leakage(profile: LeakageProfile) -> LeakageValue:
    """E_{P_Y}[leakage], with the convention 0 * inf = 0."""
    weights = profile.weights.probs
    nats = profile.nats_array()
    mask = weights > 0
    # positive weights times leakages >= 0: the sum is >= +0.0, in numpy's fixed order
    return LeakageValue(float(np.sum(weights[mask] * nats[mask])))


def leakage_law(profile: LeakageProfile, eps_values, units: str = "nats") -> tuple:
    """P_Y(leakage > eps) for each of ``eps_values``, the distinct leakages in ``units``
    (ascending, as ``profile.in_units`` gives and a report prints them) and P_Y(leakage <=
    value) at each, from one sorted sum: ``above[k]`` is the mass at or above the k-th value,
    summed from the top, so a tail (one entry) and the CDF (one minus the next) sum to exactly 1.
    A tail over m outcomes lies within gamma_{m-1} = (m-1)u / (1 - (m-1)u), u = 2^-53, of the
    exact sum of their P_Y floats, relative; a CDF entry lies within that plus u."""
    bad = [eps for eps in eps_values if not eps >= 0]
    if bad:
        raise ValidationError(f"eps must be >= 0, got {bad[0]!r}")
    values = profile.in_units(units)
    order = np.argsort(values, kind="stable")
    values = values[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    values = values[starts]
    mass = np.add.reduceat(profile.weights.probs[order], starts)
    above = np.append(np.cumsum(mass[::-1])[::-1], 0.0)
    tails = above[np.searchsorted(values, eps_values, side="right")]
    return tails, values, 1.0 - above[1:]


def tail_probability(profile: LeakageProfile, eps: float, units: str = "nats") -> float:
    """P_Y(leakage > eps), leakages in ``units``: ``leakage_law`` at one eps."""
    return float(leakage_law(profile, (eps,), units)[0][0])


def absolute_continuity_witness(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> Optional[Symbol]:
    """Lowest-index symbol with P > 0 but Q = 0, or None if P << Q."""
    if p.alphabet.symbols != q.alphabet.symbols:
        raise AlphabetMismatchError("absolute continuity check requires a shared alphabet")
    violations = np.flatnonzero((p.probs > 0) & (q.probs == 0))
    if violations.size == 0:
        return None
    return p.alphabet.symbols[int(violations[0])]
