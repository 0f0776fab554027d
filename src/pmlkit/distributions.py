"""Discrete distributions, channels, and joint models.

Everything here is immutable after construction and validated eagerly:
every probability vector must be a law, as ``_law_fault`` defines it (it
also checks the leakage kernel's posteriors), and malformed inputs are
rejected rather than renormalized.

Conventions used throughout the package:

* an outcome ``y`` with ``P_Y(y) = 0`` conditions to the prior unchanged
  (so its leakage is zero);
* symbols are ordered and ties downstream always break toward the
  lowest index.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence, Union

import numpy as np

from .errors import (
    AlphabetMismatchError,
    UnknownSymbolError,
    UnsupportedLawError,
    ValidationError,
)

Symbol = Union[str, int]

#: absolute tolerance for probability-sum validation
SUM_ATOL = 1e-12
#: coarsest truncation deficit accepted at construction
MAX_DEFICIT = 1e-9


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)  # a copy even of a float array, so callers keep theirs
    out.setflags(write=False)
    return out


def _law_fault(probs: np.ndarray, deficits: np.ndarray):
    """The first row of ``probs`` that is not a law, as ``(row, reason)``, or None.

    Row i is a law when its entries are finite and >= 0, ``deficits[i]``
    lies in [0, MAX_DEFICIT], and ``sum(probs[i]) + deficits[i]`` is 1
    within SUM_ATOL; the reason names the first of these that row i fails.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, huge entries
        totals = probs.sum(axis=1) + deficits
    # NaN fails every comparison, and the total check rules out +inf entries
    laws = ((np.minimum(probs.min(axis=1), deficits) >= 0) & (deficits <= MAX_DEFICIT)
            & (abs(totals - 1.0) <= SUM_ATOL))
    if laws.all():
        return None
    i = int(np.argmin(laws))
    deficit = float(deficits[i])
    if not np.all((probs[i] >= 0) & (probs[i] < math.inf)):
        return i, "probabilities must be finite and >= 0"
    if not deficit >= 0:  # also rejects NaN
        return i, f"truncation_deficit must be >= 0, got {deficit!r}"
    if deficit > MAX_DEFICIT:
        return i, (f"truncation_deficit {deficit:g} exceeds the accepted "
                   f"maximum {MAX_DEFICIT:g}; refine the truncation")
    return i, (f"probabilities sum to {float(totals[i])!r} (with deficit "
               f"{deficit:g}); expected 1 within {SUM_ATOL:g}")


@dataclasses.dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct labels (strings or integers)."""

    symbols: tuple

    def __init__(self, symbols: Sequence[Symbol]):
        symbols = tuple(symbols)
        if len(symbols) < 1:
            raise ValidationError("alphabet must contain at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValidationError("alphabet symbols must be unique")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: Symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbolError(f"symbol {symbol!r} not in alphabet") from None

    def __contains__(self, symbol) -> bool:
        return symbol in self._index

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability vector over an alphabet, with a tracked truncation deficit.

    ``truncation_deficit`` records the mass dropped when a countably
    infinite law was restricted to an initial segment; it participates in
    the normalization check ``sum(probs) + deficit == 1`` and must not
    exceed ``MAX_DEFICIT``.
    """

    alphabet: Alphabet
    probs: np.ndarray
    truncation_deficit: float = 0.0

    def __post_init__(self):
        probs = _readonly(self.probs)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.shape[0] != self.alphabet.size:
            raise ValidationError(
                f"probability vector length {probs.shape} does not match "
                f"alphabet size {self.alphabet.size}"
            )
        deficit = float(self.truncation_deficit)
        fault = _law_fault(probs[None], np.array([deficit]))
        if fault is not None:
            raise ValidationError(fault[1])
        object.__setattr__(self, "truncation_deficit", deficit)

    def prob(self, symbol: Symbol) -> float:
        return float(self.probs[self.alphabet.index(symbol)])


def uniform(alphabet: Alphabet) -> DiscreteDistribution:
    n = alphabet.size
    return DiscreteDistribution(alphabet, np.full(n, 1.0 / n))


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteChannel:
    """Row-stochastic conditional family P_{Y|X}.

    ``matrix[i, j]`` is the probability of output ``j`` given input ``i``.
    Each row must be a law, as a DiscreteDistribution must; rows of
    truncated kernels carry their own deficits in ``row_deficits``.
    """

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    matrix: np.ndarray
    row_deficits: np.ndarray = None

    def __post_init__(self):
        matrix = _readonly(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        if matrix.shape != (self.input_alphabet.size, self.output_alphabet.size):
            raise ValidationError(
                f"channel matrix shape {matrix.shape} does not match "
                f"alphabets ({self.input_alphabet.size}, {self.output_alphabet.size})"
            )
        deficits = self.row_deficits
        if deficits is None:
            deficits = np.zeros(self.input_alphabet.size)
        deficits = _readonly(deficits)
        if deficits.shape != (self.input_alphabet.size,):
            raise ValidationError(
                f"row_deficits shape {deficits.shape} does not match "
                f"input alphabet size {self.input_alphabet.size}"
            )
        object.__setattr__(self, "row_deficits", deficits)
        fault = _law_fault(matrix, deficits)
        if fault is not None:
            symbol = self.input_alphabet.symbols[fault[0]]
            raise ValidationError(f"channel row for input {symbol!r}: {fault[1]}")

    def compose(self, other: "DiscreteChannel") -> "DiscreteChannel":
        """Post-process through ``other``, realizing the chain X - Y - Z."""
        if other.input_alphabet.symbols != self.output_alphabet.symbols:
            raise AlphabetMismatchError(
                "post-processing channel input alphabet must match output alphabet"
            )
        matrix = self.matrix @ other.matrix
        deficits = 1.0 - matrix.sum(axis=1)
        return DiscreteChannel(
            self.input_alphabet, other.output_alphabet, matrix, np.maximum(deficits, 0.0)
        )


def identity_channel(alphabet: Alphabet) -> DiscreteChannel:
    return DiscreteChannel(alphabet, alphabet, np.eye(alphabet.size))


def constant_channel(
    input_alphabet: Alphabet, row: DiscreteDistribution
) -> DiscreteChannel:
    matrix = np.tile(row.probs, (input_alphabet.size, 1))
    deficits = np.full(input_alphabet.size, row.truncation_deficit)
    return DiscreteChannel(input_alphabet, row.alphabet, matrix, deficits)


def marginal(
    prior: DiscreteDistribution, channel: DiscreteChannel
) -> DiscreteDistribution:
    """Output law P_Y(y) = sum_x P_X(x) P_{Y|X=x}(y).

    The deficit is rebuilt as ``1 - sum(P_Y)`` so that it also absorbs
    any mass lost to truncated channel rows; for exact rows this equals
    the prior's deficit up to floating rounding.  Prior and row deficits
    add up, so P_Y can drop more than ``MAX_DEFICIT`` and is then refused.

    Each P_Y(y) adds the rounded products ``P_X(x) P_{Y|X=x}(y)`` one input at
    a time, in index order, so its bits depend neither on the CPU nor on where
    its column sits.  Rounding is monotone, so P_Y(y) is at least every product
    it adds, and no posterior entry that ``posterior`` or the leakage kernel
    divides by it exceeds 1.  Products below ``tiny`` round to multiples of
    2^-1074, so an outcome with a subnormal P_Y(y) has posterior entries only
    within about 2 |X| 2^-1075 / P_Y(y) of the exact ones.
    """
    if prior.alphabet.symbols != channel.input_alphabet.symbols:
        raise AlphabetMismatchError("prior alphabet does not match channel input alphabet")
    probs = np.zeros(channel.output_alphabet.size)
    term = np.empty_like(probs)
    for w, row in zip(prior.probs.tolist(), channel.matrix):
        probs += np.multiply(row, w, out=term)
    deficit = max(0.0, 1.0 - float(probs.sum()))
    if deficit > MAX_DEFICIT:
        raise ValidationError(
            f"the model drops {deficit:g} of output mass (prior deficit "
            f"{prior.truncation_deficit:g}, largest row deficit {channel.row_deficits.max():g}), "
            f"above the accepted maximum {MAX_DEFICIT:g}; refine the truncation")
    return DiscreteDistribution(channel.output_alphabet, probs, deficit)


@dataclasses.dataclass(frozen=True, eq=False)
class JointModel:
    """Prior + channel, with the output marginal derived from them once."""

    prior: DiscreteDistribution
    channel: DiscreteChannel
    marginal: DiscreteDistribution = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "marginal", marginal(self.prior, self.channel))

    @property
    def input_alphabet(self) -> Alphabet:
        return self.prior.alphabet

    @property
    def output_alphabet(self) -> Alphabet:
        return self.channel.output_alphabet


def posterior(model: JointModel, y: Symbol) -> DiscreteDistribution:
    """Bayes inversion P_{X|Y=y}; returns the prior when P_Y(y) = 0.

    The zero-probability branch is the convention that conditioning on a
    null event equals no conditioning.
    """
    j = model.output_alphabet.index(y)
    p_y = float(model.marginal.probs[j])
    if p_y <= 0.0:
        return model.prior
    # P_Y(y) sums the rounded products fl(prior[i] * W[i, j]) and rounding is
    # monotone, so it is at least each of them: no entry exceeds 1, none overflows.
    probs = model.prior.probs * model.channel.matrix[:, j] / p_y
    deficit = max(0.0, 1.0 - float(probs.sum()))
    return DiscreteDistribution(model.input_alphabet, probs, deficit)


def truncate_countable(
    law: str, param: float, tail_bound: float
) -> DiscreteDistribution:
    """Restrict a countable law to an initial segment with tail <= tail_bound.

    Supported descriptors: ``"geometric"`` (success probability p, support
    starting at 1) and ``"poisson"`` (rate lambda, support starting at 0).
    The dropped mass is recorded in ``truncation_deficit``.
    """
    if not (0.0 < tail_bound <= MAX_DEFICIT):
        raise ValidationError(
            f"tail_bound must lie in (0, {MAX_DEFICIT:g}], got {tail_bound!r}"
        )
    if law == "geometric":
        p = float(param)
        if not (0.0 < p < 1.0):
            raise ValidationError(f"geometric parameter must be in (0, 1), got {p!r}")
        # tail beyond n terms is (1-p)^n
        n = max(1, math.ceil(math.log(tail_bound) / math.log1p(-p)))
        ks = np.arange(1, n + 1)
        probs = p * (1.0 - p) ** (ks - 1)
        deficit = math.exp(n * math.log1p(-p))
        return DiscreteDistribution(Alphabet([int(k) for k in ks]), probs, deficit)
    if law == "poisson":
        # imported here so that importing pmlkit, or any CLI request, loads no scipy
        from scipy import stats

        lam = float(param)
        if not (lam > 0 and math.isfinite(lam)):
            raise ValidationError(f"poisson rate must be positive, got {lam!r}")
        n = int(stats.poisson.isf(tail_bound, lam)) + 1
        while stats.poisson.sf(n, lam) > tail_bound:
            n += 1
        while n > 0 and stats.poisson.sf(n - 1, lam) <= tail_bound:
            n -= 1
        ks = np.arange(0, n + 1)
        probs = stats.poisson.pmf(ks, lam)
        deficit = float(stats.poisson.sf(n, lam))
        return DiscreteDistribution(Alphabet([int(k) for k in ks]), probs, deficit)
    raise UnsupportedLawError(f"unsupported law descriptor {law!r}")


def geometric_binary_model(p: float, q: float, tail_bound: float = 1e-12) -> JointModel:
    """Geometric prior Geom(p) on {1, 2, ...} with the binary kernel
    P_{Y|X=x}(0) = q^x, truncated so the dropped tail is <= tail_bound."""
    if not (0.0 < q < 1.0):
        raise ValidationError(f"kernel parameter q must be in (0, 1), got {q!r}")
    # The kernel column q^x can decay slower than the prior tail; keep enough
    # symbols that both the dropped prior mass and q^n fall below tail_bound,
    # so sup_x (1 - q^x) over the kept support is within tail_bound of 1.
    n_kernel = math.ceil(math.log(tail_bound) / math.log(q))
    prior_tail = min(tail_bound, (1.0 - p) ** n_kernel)
    prior = truncate_countable("geometric", p, prior_tail)
    xs = np.asarray(prior.alphabet.symbols, dtype=float)
    col0 = q ** xs
    matrix = np.column_stack([col0, 1.0 - col0])
    channel = DiscreteChannel(prior.alphabet, Alphabet([0, 1]), matrix)
    return JointModel(prior, channel)
