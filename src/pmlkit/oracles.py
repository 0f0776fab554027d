"""Brute-force adversaries used as ground truth for the leakage pipeline.

Each routine here evaluates an operational definition of leakage
directly — optimal gain-function adversaries, exhaustive event
enumeration, the epsilon-partition gain construction, and guessing
adversaries over functions of the secret — without going through the
likelihood-ratio shortcut that ``pmlkit.leakage`` uses.  Agreement
between the two routes is what the verification suite checks.

Enumeration caps are hard errors: an oracle that silently under-searches
is worse than none.  The subset and function oracles take 2^n time for n
inputs but score them in blocks of at most 2^13 events, one block up to 13
inputs: about 1 MiB at the cap of 20 inputs, not the 16 MiB of a posterior
and a prior table of 2^20 masses.
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
    _readonly,
    posterior,
)
from .errors import (
    AlphabetMismatchError,
    CapacityError,
    ValidationError,
)

#: largest input alphabet for the subset and function oracles, which score 2^n events
SUBSET_CAP = 20
#: events are scored in blocks spanning this many atoms: 2^13 masses, 64 KiB of floats
BLOCK_BITS = 13
#: largest estimate alphabet / resolution for simplex enumeration
STRATEGY_ALPHABET_CAP = 4
STRATEGY_RESOLUTION_CAP = 50


@dataclasses.dataclass(frozen=True, eq=False)
class GainFunction:
    """Dense non-negative gain table g(x, w) over secrets x and estimates w."""

    x_alphabet: Alphabet
    estimate_alphabet: Alphabet
    gains: np.ndarray

    def __post_init__(self):
        gains = _readonly(self.gains)
        object.__setattr__(self, "gains", gains)
        if gains.shape != (self.x_alphabet.size, self.estimate_alphabet.size):
            raise ValidationError(
                f"gain table shape {gains.shape} does not match alphabets "
                f"({self.x_alphabet.size}, {self.estimate_alphabet.size})"
            )
        if np.any(gains < 0) or not np.all(np.isfinite(gains)):
            raise ValidationError("gains must be finite and >= 0")

    def expected_gain(self, probs: np.ndarray) -> np.ndarray:
        """Expected gain of each pure estimate under the given law on X, summed
        by numpy rather than a CPU-dependent BLAS kernel, in an order set by the
        table's layout: a one-estimate table pairwise, a wider C-ordered one row by
        row in index order, so a column's last bits can differ between the two."""
        return (probs[:, None] * self.gains).sum(axis=0)


@lru_cache(maxsize=1)
def _posterior(model: JointModel, y: Symbol) -> DiscreteDistribution:
    """posterior(model, y), built and law-checked once per (model, y) while
    the caller stays on one outcome; models hash by identity.

    Every oracle reads its posterior here, so this is where an outcome of
    zero probability, which conditions nothing, is refused.
    """
    if model.marginal.prob(y) <= 0.0:
        raise ValidationError(f"outcome {y!r} has zero probability")
    return posterior(model, y)


def _finite(value: float, what: str, *args) -> float:
    """``value``, refused if it lies past the float range; ``what.format(*args)`` names it."""
    if abs(value) == math.inf:
        raise CapacityError(f"{what.format(*args)} overflows a float")
    return value


def _best_ratio(y: Symbol, post: np.ndarray, prior: np.ndarray) -> float:
    """max(post) / max(prior) over the expected gains at y and a priori, as ``gain_ratio`` says."""
    num, den = float(np.max(post)), float(np.max(prior))
    if den == 0.0:
        return math.inf if num > 0.0 else 1.0
    return _finite(num / den, "the gain ratio at outcome {!r}", y)


def gain_ratio(model: JointModel, y: Symbol, g: GainFunction) -> float:
    """Best posterior expected gain over best prior expected gain.

    Randomized estimate strategies cannot beat the best pure estimate
    (they are mixtures), so both optima are maxima over columns of the
    gain table.  A zero prior optimum with positive posterior optimum
    yields +infinity; a ratio of positive optima past the float range is a
    ``CapacityError``.
    """
    if g.x_alphabet.symbols != model.input_alphabet.symbols:
        raise AlphabetMismatchError("gain function secret alphabet does not match model")
    return _best_ratio(y, g.expected_gain(_posterior(model, y).probs),
                       g.expected_gain(model.prior.probs))


def _rarity_gain(mass: float, holder: str, label) -> float:
    """1/mass for a positive prior mass, 0 for a null one; ``holder.format(label)`` names its
    holder in the refusal of a 1/mass past the float range."""
    if mass <= 0.0:
        return 0.0
    return _finite(1.0 / mass, holder + " mass {!r}, whose gain 1/mass", label, mass)


def _set_ratios(post_sums: np.ndarray, prior_sums: np.ndarray) -> np.ndarray:
    """post/prior over paired event masses, with 0/0 = 1 (Bayes' rule leaves no x/0);
    a quotient past the float range reads +inf, for the caller to refuse."""
    out = np.ones_like(post_sums)
    with np.errstate(over="ignore"):
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
def _prior_events(prior: DiscreteDistribution) -> np.ndarray:
    """The prior's masses on the events of its low atoms, the first block,
    built once per prior rather than once per outcome."""
    sums = _subset_sums(prior.probs[:BLOCK_BITS])
    sums.setflags(write=False)
    return sums


def _event_extremes(model: JointModel, y: Symbol) -> Tuple[float, float]:
    """The largest P_{X|y}(A) / P_X(A) over the non-empty events A, and the
    ratio of the full event.

    The masks sharing their high atoms (those from BLOCK_BITS on) form one
    block, so a model of at most BLOCK_BITS inputs is one block.  Each block
    is the block without its top high atom plus that atom's mass: the
    recurrence of _subset_sums, so every mass has the same bits as in one
    2^n table.  The high-atom subsets are walked depth first, with one
    buffer pair per depth, so no 2^n array is ever held.  Bayes inversion
    gives a null event no posterior mass and leaves no x/0, so a plain
    division gives NaN (0/0) exactly on the null events, the empty one among
    them, and ``np.fmax`` skips those.  A null event reads 1, as in
    _set_ratios, so the maximum starts at 1 when some prior atom is 0.  A
    ratio past the float range is refused.  Both the subset and the function
    oracle score these 2^n events, so the input alphabet is capped at
    SUBSET_CAP symbols.
    """
    n = model.input_alphabet.size
    if n > SUBSET_CAP:
        raise CapacityError(
            f"subset and function oracles enumerate 2^n events; n={n} exceeds cap {SUBSET_CAP}"
        )
    post = _posterior(model, y).probs
    prior = model.prior.probs
    k = min(n, BLOCK_BITS)
    # depth d holds the posterior and prior masses of the block of a d-atom high subset
    posts = [_subset_sums(post[:k])] + [np.empty(1 << k) for _ in range(k, n)]
    priors = [_prior_events(model.prior)] + [np.empty(1 << k) for _ in range(k, n)]
    ratios = np.empty(1 << k)
    first = 1.0 if (prior == 0.0).any() else -math.inf
    full = -math.inf
    stack = [(0, k - 1)]  # (depth, top atom) of each block still to score
    with np.errstate(invalid="ignore", over="ignore"):
        while stack:
            d, top = stack.pop()
            if d:
                np.add(posts[d - 1], post[top], out=posts[d])
                np.add(priors[d - 1], prior[top], out=priors[d])
            np.divide(posts[d], priors[d], out=ratios)
            # a block of null events gives NaN, which max passes over
            first = max(first, np.fmax.reduce(ratios))
            if d == n - k:
                full = ratios[-1]
            stack.extend((d + 1, atom) for atom in range(n - 1, top, -1))
    return _finite(float(first), "the largest event ratio at outcome {!r}", y), float(full)


def subset_oracle(model: JointModel, y: Symbol) -> float:
    """log max over all non-empty events A of P_{X|y}(A) / P_X(A)."""
    # the full event's ratio is about 1, so the maximum is positive
    return math.log(_event_extremes(model, y)[0])


@dataclasses.dataclass(frozen=True)
class PartitionGain:
    """The epsilon-partition gain: cells B_w = {x : e^{w eps} <= f(x) < e^{(w+1) eps}}
    of the posterior/prior ratio f, each rewarded by 1/P_X(B_w) on itself.

    Cell index -infinity collects the symbols with f(x) = 0.
    """

    epsilon: float
    cells: Mapping[float, Tuple[Symbol, ...]]

    def to_gain_function(self, model: JointModel) -> GainFunction:
        order = sorted(self.cells)
        gains = np.zeros((model.input_alphabet.size, len(order)))
        for j, w in enumerate(order):
            idx = [model.input_alphabet.index(x) for x in self.cells[w]]
            mass = float(model.prior.probs[idx].sum())
            gains[idx, j] = _rarity_gain(mass, "partition cell {} has prior", w)
        return GainFunction(model.input_alphabet, Alphabet([str(w) for w in order]), gains)


def check_epsilon(epsilon: float) -> None:
    """Refuse a partition band that is not positive and finite."""
    if not 0 < epsilon < math.inf:
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon!r}")


def build_partition_gain(model: JointModel, y: Symbol, epsilon: float) -> PartitionGain:
    check_epsilon(epsilon)
    ratios = _set_ratios(_posterior(model, y).probs, model.prior.probs)
    cells: Dict[float, list] = {}
    for x, f in zip(model.input_alphabet.symbols, ratios.tolist()):
        w = -math.inf
        if f > 0.0:
            w = math.floor(_finite(math.log(f) / epsilon,
                                   "at outcome {!r} the band log(ratio) / eps of input {!r}", y, x))
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
    post = _posterior(model, y).probs
    missing = [x for x in model.input_alphabet if x not in grouping]
    if missing:
        raise ValidationError(f"grouping is not total on E; missing {missing[:3]!r}")
    groups = sorted({grouping[x] for x in model.input_alphabet}, key=repr)
    index = {g: i for i, g in enumerate(groups)}
    codes = np.array([index[grouping[x]] for x in model.input_alphabet.symbols])
    # bincount adds each group's atoms in index order
    post_w = np.bincount(codes, weights=post)
    prior_w = np.bincount(codes, weights=model.prior.probs)
    # the groups' union has a ratio of about 1, so the maximum is positive
    best = float(_set_ratios(post_w, prior_w).max())
    return math.log(_finite(best, "the largest group ratio at outcome {!r}", y))


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
    first, full = _event_extremes(model, y)  # first, so the cap binds whatever max_groups is
    if max_groups < 1:
        raise ValidationError("max_groups must be a positive integer")
    best = first if min(max_groups, model.input_alphabet.size) >= 2 else full
    return math.log(max(1.0, best))


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
    1e-12, times the optimum past 1).  Always true by the mixture argument;
    this is the oracle confirming it numerically.
    """
    if g.x_alphabet.symbols != model.input_alphabet.symbols:
        raise AlphabetMismatchError("gain function secret alphabet does not match model")
    if g.estimate_alphabet.size > STRATEGY_ALPHABET_CAP:
        raise CapacityError(
            f"strategy check caps the estimate alphabet at {STRATEGY_ALPHABET_CAP}"
        )
    if grid_resolution < 1:
        raise ValidationError(f"simplex resolution must be >= 1, got {grid_resolution!r}")
    if grid_resolution > STRATEGY_RESOLUTION_CAP:
        raise CapacityError(f"simplex resolution must lie in [1, {STRATEGY_RESOLUTION_CAP}]")
    pure = g.expected_gain(_posterior(model, y).probs)
    grid = _simplex_grid(g.estimate_alphabet.size, grid_resolution)
    return not np.any(grid @ pure > pure.max() + 1e-12 * max(1.0, pure.max()))


def atom_gain(model: JointModel) -> np.ndarray:
    """The diagonal 1 / P_X(x) (0 where P_X(x) = 0) of the gain for guessing X itself: the
    epsilon-partition gain with every atom its own cell, whose log ratio is the leakage."""
    return np.array([_rarity_gain(mass, "prior atom {!r} has", x) for x, mass
                     in zip(model.input_alphabet.symbols, model.prior.probs.tolist())])


def atom_ratio(model: JointModel, y: Symbol, gain: np.ndarray) -> float:
    """``gain_ratio`` of the atom gain, with no |X|×|X| table: column x holds P(x)·g(x) alone."""
    return _best_ratio(y, _posterior(model, y).probs * gain, model.prior.probs * gain)


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
