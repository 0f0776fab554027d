"""Brute-force adversaries used as ground truth for the leakage pipeline.

Each routine here evaluates an operational definition of leakage
directly — optimal gain-function adversaries, exhaustive event
enumeration, the epsilon-partition gain construction, and guessing
adversaries over functions of the secret — without going through the
likelihood-ratio shortcut that ``pmlkit.leakage`` uses.  Agreement
between the two routes is what the verification suite checks.

Enumeration caps are hard errors: an oracle that silently under-searches
is worse than none.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from typing import Dict, Mapping, Tuple

import numpy as np

from .distributions import (
    Alphabet,
    DiscreteChannel,
    DiscreteDistribution,
    JointModel,
    Symbol,
    posterior,
)
from .errors import (
    AlphabetMismatchError,
    CapacityError,
    ValidationError,
)

#: largest input alphabet for subset enumeration (2^n events)
SUBSET_CAP = 20
#: largest input alphabet for the function adversary, which scores its 2^n events
FUNCTION_ALPHABET_CAP = 10
#: largest estimate alphabet / resolution for simplex enumeration
STRATEGY_ALPHABET_CAP = 4
STRATEGY_RESOLUTION_CAP = 50


@dataclasses.dataclass(frozen=True)
class GainFunction:
    """Dense non-negative gain table g(x, w) over secrets x and estimates w."""

    x_alphabet: Alphabet
    estimate_alphabet: Alphabet
    gains: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float).copy()
        gains.setflags(write=False)
        object.__setattr__(self, "gains", gains)
        if gains.shape != (self.x_alphabet.size, self.estimate_alphabet.size):
            raise ValidationError(
                f"gain table shape {gains.shape} does not match alphabets "
                f"({self.x_alphabet.size}, {self.estimate_alphabet.size})"
            )
        if np.any(gains < 0) or not np.all(np.isfinite(gains)):
            raise ValidationError("gains must be finite and >= 0")

    def expected_gain(self, probs: np.ndarray) -> np.ndarray:
        """Expected gain of each pure estimate under the given law on X."""
        return probs @ self.gains


#: posterior(model, y), built and law-checked once per (model, y) while the
#: caller stays on one outcome; models hash by identity
_posterior = lru_cache(maxsize=1)(posterior)


def _require_positive_outcome(model: JointModel, y: Symbol) -> None:
    if model.marginal.prob(y) <= 0.0:
        raise ValidationError(f"outcome {y!r} has zero probability")


def gain_ratio(model: JointModel, y: Symbol, g: GainFunction) -> float:
    """Best posterior expected gain over best prior expected gain.

    Randomized estimate strategies cannot beat the best pure estimate
    (they are mixtures), so both optima are maxima over columns of the
    gain table.  A zero prior optimum with positive posterior optimum
    yields +infinity.
    """
    if g.x_alphabet.symbols != model.input_alphabet.symbols:
        raise AlphabetMismatchError("gain function secret alphabet does not match model")
    _require_positive_outcome(model, y)
    num = float(np.max(g.expected_gain(_posterior(model, y).probs)))
    den = float(np.max(g.expected_gain(model.prior.probs)))
    if den == 0.0:
        return math.inf if num > 0.0 else 1.0
    return num / den


def _set_ratios(post_sums: np.ndarray, prior_sums: np.ndarray) -> np.ndarray:
    """post/prior over paired event masses, with 0/0 = 1 and x/0 = inf."""
    out = np.where(post_sums > 0, np.inf, 1.0)
    return np.divide(post_sums, prior_sums, out=out, where=prior_sums > 0)


def _subset_sums(v: np.ndarray) -> np.ndarray:
    """Mass of every event: entry m is the sum of v[i] over the set bits i
    of m, added in index order; entry 0 is the empty event."""
    s = np.empty(1 << len(v))
    s[0] = 0.0
    for i in range(len(v)):
        np.add(s[: 1 << i], v[i], out=s[1 << i : 2 << i])
    return s


@lru_cache(maxsize=1)
def _prior_events(prior: DiscreteDistribution) -> Tuple[np.ndarray, np.ndarray]:
    """The prior's event masses and the masks of its null events (the subsets
    of its zero atoms), built once per prior rather than once per outcome."""
    probs = prior.probs
    sums = _subset_sums(probs)
    sums.setflags(write=False)
    # a mask is the sum of its atoms' bit values: 2^z entries for z zero atoms
    null = _subset_sums(np.exp2(np.flatnonzero(probs == 0))).astype(np.intp)
    return sums, null


def _event_ratios(model: JointModel, y: Symbol) -> np.ndarray:
    """P_{X|y}(A) / P_X(A) for every event A, indexed by its bit mask.

    Bayes inversion gives a null event no posterior mass, so its 0/0 reads
    1, as in _set_ratios; no other event divides by zero.
    """
    ratios = _subset_sums(_posterior(model, y).probs)
    prior_sums, null = _prior_events(model.prior)
    with np.errstate(invalid="ignore"):
        np.divide(ratios, prior_sums, out=ratios)
    ratios[null] = 1.0
    return ratios


def subset_oracle(model: JointModel, y: Symbol) -> float:
    """log max over all non-empty events A of P_{X|y}(A) / P_X(A).

    Enumerates all 2^n - 1 events, so the input alphabet is capped at
    SUBSET_CAP symbols.
    """
    n = model.input_alphabet.size
    if n > SUBSET_CAP:
        raise CapacityError(
            f"subset oracle enumerates 2^n events; n={n} exceeds cap {SUBSET_CAP}"
        )
    _require_positive_outcome(model, y)
    # the full event's ratio is about 1, so the maximum is positive
    return math.log(float(_event_ratios(model, y)[1:].max()))


@dataclasses.dataclass(frozen=True)
class PartitionGain:
    """The epsilon-partition gain: cells B_w = {x : e^{w eps} <= f(x) < e^{(w+1) eps}}
    of the posterior/prior ratio f, each rewarded by 1/P_X(B_w) on itself.

    Cell index -infinity collects the symbols with f(x) = 0.
    """

    epsilon: float
    cells: Mapping[float, Tuple[Symbol, ...]]

    def to_gain_function(self, model: JointModel) -> GainFunction:
        labels = [str(w) for w in sorted(self.cells)]
        estimate = Alphabet(labels)
        gains = np.zeros((model.input_alphabet.size, estimate.size))
        for j, w in enumerate(sorted(self.cells)):
            idx = [model.input_alphabet.index(x) for x in self.cells[w]]
            mass = float(model.prior.probs[idx].sum())
            if mass > 0.0:
                gains[idx, j] = 1.0 / mass
        return GainFunction(model.input_alphabet, estimate, gains)


def build_partition_gain(model: JointModel, y: Symbol, epsilon: float) -> PartitionGain:
    if not 0 < epsilon < math.inf:
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon!r}")
    _require_positive_outcome(model, y)
    post = _posterior(model, y).probs
    prior = model.prior.probs
    cells: Dict[float, list] = {}
    for i, x in enumerate(model.input_alphabet.symbols):
        # a prior-null atom gets no posterior mass either: 0/0 reads 1
        f = post[i] / prior[i] if prior[i] > 0.0 else 1.0
        w = -math.inf if f == 0.0 else math.floor(math.log(f) / epsilon)
        cells.setdefault(w, []).append(x)
    return PartitionGain(epsilon, {w: tuple(xs) for w, xs in cells.items()})


def partition_oracle(model: JointModel, y: Symbol, epsilon: float) -> float:
    """Leakage achieved by the epsilon-partition gain.

    Guaranteed to land in [pml - epsilon, pml]: averaging the ratio over
    a cell loses at most a factor e^epsilon against the cell's supremum.
    """
    gain = build_partition_gain(model, y, epsilon).to_gain_function(model)
    return math.log(gain_ratio(model, y, gain))


def shattering_value(
    model: JointModel, y: Symbol, grouping: Mapping[Symbol, object]
) -> float:
    """Leakage achieved by guessing W = grouping(X) through the shattering
    construction: log max_i P_{W|Y=y}(i) / P_W(i).

    The construction's full channel has unbounded alphabet; only its
    achieved value is computed.
    """
    _require_positive_outcome(model, y)
    missing = [x for x in model.input_alphabet if x not in grouping]
    if missing:
        raise ValidationError(f"grouping is not total on E; missing {missing[:3]!r}")
    groups = sorted({grouping[x] for x in model.input_alphabet}, key=repr)
    index = {g: i for i, g in enumerate(groups)}
    post = _posterior(model, y).probs
    prior = model.prior.probs
    post_w = np.zeros(len(groups))
    prior_w = np.zeros(len(groups))
    for i, x in enumerate(model.input_alphabet.symbols):
        j = index[grouping[x]]
        post_w[j] += post[i]
        prior_w[j] += prior[i]
    # the groups' union has a ratio of about 1, so the maximum is positive
    return math.log(float(_set_ratios(post_w, prior_w).max()))


def randomized_function_oracle(model: JointModel, y: Symbol, max_groups: int) -> float:
    """Max shattering value over every total grouping of E into at most
    max_groups classes: a lower bound on pml, equal to it up to rounding
    once max_groups reaches 2.

    Scored by the binary-function reduction of arXiv 2304.07722: guessing a
    k-valued function of X never beats guessing the indicator of its best
    block, and for k >= 2 every non-empty event A is a block of the grouping
    {A, E \\ A}.  So the value is the largest event ratio, at least 1 (the
    empty event's 0/0 reads 1); with k = 1 the only grouping is {E}.
    """
    n = model.input_alphabet.size
    if n > FUNCTION_ALPHABET_CAP:
        raise CapacityError(
            f"function adversary enumerates groupings; |E|={n} exceeds cap "
            f"{FUNCTION_ALPHABET_CAP}"
        )
    if max_groups < 1:
        raise ValidationError("max_groups must be a positive integer")
    _require_positive_outcome(model, y)
    ratios = _event_ratios(model, y)
    best = ratios.max() if min(max_groups, n) >= 2 else ratios[-1]
    return math.log(max(1.0, float(best)))


@lru_cache(maxsize=None)
def _simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """Every mixture over dim estimates whose weights are multiples of
    1/resolution, one per row, in ``itertools.product`` order of the
    first dim - 1 counts."""
    counts = np.indices((resolution + 1,) * (dim - 1)).reshape(
        dim - 1, (resolution + 1) ** (dim - 1)
    ).T
    rest = resolution - counts.sum(axis=1)
    keep = rest >= 0
    grid = np.column_stack([counts[keep], rest[keep]]).astype(float) / resolution
    grid.setflags(write=False)
    return grid


def randomized_strategy_check(
    model: JointModel, y: Symbol, g: GainFunction, grid_resolution: int
) -> bool:
    """Verify that no mixed estimate strategy beats the best pure estimate.

    Walks a simplex grid over the estimate alphabet and checks every
    mixture's expected posterior gain against the pure optimum (within
    1e-12).  Always true by the mixture argument; this is the oracle
    confirming it numerically.
    """
    if g.estimate_alphabet.size > STRATEGY_ALPHABET_CAP:
        raise CapacityError(
            f"strategy check caps the estimate alphabet at {STRATEGY_ALPHABET_CAP}"
        )
    if not (1 <= grid_resolution <= STRATEGY_RESOLUTION_CAP):
        raise CapacityError(
            f"simplex resolution must lie in [1, {STRATEGY_RESOLUTION_CAP}]"
        )
    _require_positive_outcome(model, y)
    pure = g.expected_gain(_posterior(model, y).probs)
    grid = _simplex_grid(g.estimate_alphabet.size, grid_resolution)
    return not np.any(grid @ pure > float(pure.max()) + 1e-12)


def make_guessing_gain(subchannel: DiscreteChannel) -> GainFunction:
    """Gain for guessing U exactly, where U is drawn from P_{U|X}:
    g(x, w) = P_{U|X=x}(w)."""
    return GainFunction(
        subchannel.input_alphabet, subchannel.output_alphabet, subchannel.matrix
    )


def make_approx_gain(subchannel: DiscreteChannel, radius: float) -> GainFunction:
    """Gain for guessing an integer-valued U within an open ball of
    the given radius: g(x, w) = P_{U|X=x}({a : |a - w| < radius})."""
    labels = subchannel.output_alphabet.symbols
    if not all(isinstance(a, int) for a in labels):
        raise ValidationError("approximate guessing requires an integer estimate alphabet")
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius!r}")
    a_vals = np.array(labels, dtype=float)
    ball = np.abs(a_vals[:, None] - a_vals[None, :]) < radius
    gains = subchannel.matrix @ ball
    return GainFunction(subchannel.input_alphabet, subchannel.output_alphabet, gains)
