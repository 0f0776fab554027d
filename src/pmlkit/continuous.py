"""Leakage for density models: likelihood-ratio suprema on a grid,
the closed-form family catalog, and the exp-leakage integrability probe.

The continuous leakage of an outcome y is the essential supremum over
the prior of f_{Y|X}(y, x) / f_Y(y).  Numerically this is a plain
supremum over a quantile-clipped grid with one round of local
refinement; every grid result is reported together with the grid spec
that produced it.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import statistics
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .distributions import (
    Alphabet,
    DiscreteChannel,
    JointModel,
    truncate_countable,
)
from .errors import (
    CapabilityError,
    ParameterError,
    UndefinedOutcomeError,
    ValidationError,
)
from .leakage import LeakageValue

MIN_GRID_POINTS = 1 << 10
DENSITY_CLIP_DEFICIT = 1e-6
#: largest ``GridSpec.quantile_clip``: the two clipped prior tails drop
#: 2 * clip of mass, and 2% of DENSITY_CLIP_DEFICIT is left for the
#: trapezoid rule, which loses about 7e-13 more at 1 << 14 points
MAX_QUANTILE_CLIP = 0.49 * DENSITY_CLIP_DEFICIT
#: closed range of a family's scale parameters: the closed forms square
#: them and divide one square by another, and within this range every
#: such square and ratio is a normal float
SCALE_RANGE = (1e-75, 1e75)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(x, loc=0.0, scale=1.0) -> np.ndarray:
    """Normal density by the operations of ``scipy.stats.norm.pdf``, which it
    therefore equals bit for bit."""
    z = (np.asarray(x, dtype=float) - loc) / scale
    return np.exp(-z**2 / 2.0) / _SQRT_2PI / scale


def _norm_isf(q: float) -> float:
    """Standard normal upper quantile, the z with P(Z > z) = q; it agrees
    with ``scipy.stats.norm.isf`` within 1e-15 relative."""
    return -statistics.NormalDist().inv_cdf(q)


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Resolution of the likelihood-ratio grid search."""

    points: int = 1 << 14
    quantile_clip: float = 1e-9
    refine: int = 16

    def __post_init__(self):
        if not (isinstance(self.points, numbers.Integral) and self.points >= MIN_GRID_POINTS):
            raise ValidationError(
                f"grid points must be an integer >= {MIN_GRID_POINTS}, got {self.points!r}"
            )
        if not (isinstance(self.quantile_clip, numbers.Real)
                and 0 < self.quantile_clip <= MAX_QUANTILE_CLIP):
            raise ValidationError(
                f"quantile_clip must lie in (0, {MAX_QUANTILE_CLIP:g}], got "
                f"{self.quantile_clip!r}: the two clipped prior tails may drop at "
                f"most {DENSITY_CLIP_DEFICIT:g} of mass"
            )
        if not (isinstance(self.refine, numbers.Integral) and self.refine >= 1):
            raise ValidationError(f"refine factor must be an integer >= 1, got {self.refine!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class DensityModel:
    """Prior, conditional, and marginal densities over a real secret domain.

    ``x_domain`` is the represented interval (typically prior quantiles
    [clip, 1 - clip] of an unbounded law).  When no analytic marginal is
    supplied, f_Y is integrated numerically over the grid.
    """

    x_domain: Tuple[float, float]
    prior_density: Callable[[np.ndarray], np.ndarray]
    conditional_density: Callable[[float, np.ndarray], np.ndarray]
    marginal_density: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        lo, hi = self.x_domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError(f"x_domain must be a finite interval, got {self.x_domain!r}")
        xs = np.linspace(lo, hi, 1 << 14)
        mass = float(np.trapezoid(self.prior_density(xs), xs))
        if not (1.0 - DENSITY_CLIP_DEFICIT <= mass <= 1.0 + 1e-9):
            raise ValidationError(
                f"prior density integrates to {mass!r} over the domain; "
                f"clipping deficit must be <= {DENSITY_CLIP_DEFICIT:g}"
            )

    def marginal_at(self, y: float, xs: np.ndarray) -> float:
        if self.marginal_density is not None:
            return float(self.marginal_density(y))
        return float(np.trapezoid(self.conditional_density(y, xs) * self.prior_density(xs), xs))


@dataclasses.dataclass(frozen=True)
class DensityLeakageResult:
    """Grid-search leakage together with the grid settings that produced it."""

    value: LeakageValue
    grid: GridSpec
    argmax_x: float


def pml_density(
    model: DensityModel, y: float, grid: GridSpec = GridSpec()
) -> DensityLeakageResult:
    """log sup over the represented domain of f_{Y|X}(y, x) / f_Y(y).

    Scans the grid, then refines around the argmax cell with a mesh
    ``grid.refine`` times finer.  Ties break toward the lowest x.
    """
    lo, hi = model.x_domain
    xs = np.linspace(lo, hi, grid.points)
    f_y = model.marginal_at(y, xs)
    if not math.isfinite(f_y):
        raise ValidationError(f"marginal density at y={y!r} is not finite")
    if f_y <= 0.0:
        raise UndefinedOutcomeError(f"outcome y={y!r} has zero marginal density")
    ratios = model.conditional_density(y, xs) / f_y
    if not np.all(np.isfinite(ratios)) or np.any(ratios < 0):
        raise ValidationError("conditional density produced non-finite or negative values")
    i = int(np.argmax(ratios))
    best = float(ratios[i])
    best_x = float(xs[i])
    fine_lo = xs[max(i - 1, 0)]
    fine_hi = xs[min(i + 1, grid.points - 1)]
    fine = np.linspace(fine_lo, fine_hi, 2 * grid.refine + 1)
    fine_ratios = model.conditional_density(y, fine) / f_y
    j = int(np.argmax(fine_ratios))
    if float(fine_ratios[j]) > best:
        best = float(fine_ratios[j])
        best_x = float(fine[j])
    if best == 0.0:
        raise ValidationError(
            f"conditional density at outcome y={y!r} is 0 at every grid point (points="
            f"{grid.points}, refine={grid.refine}); its peak is narrower than the grid spacing")
    return DensityLeakageResult(LeakageValue(max(math.log(best), 0.0)), grid, best_x)


def _poisson_binomial_pml(p, y) -> float:
    if y != int(y) or y < 0:
        raise ValidationError(f"poisson_binomial outcomes are non-negative integers, got {y!r}")
    return p["lam"] * p["p"] - int(y) * math.log(p["lam"]) + math.lgamma(int(y) + 1)


def _geometric_binary_pml(p, y) -> float:
    if y not in (0, 1):
        raise ValidationError(f"geometric_binary outcomes are 0 or 1, got {y!r}")
    top = 1.0 - p["q"] + p["p"] * p["q"]
    ratio = top / (p["p"] if y == 0 else 1.0 - p["q"])
    # only a subnormal p overflows the ratio, and never its log
    return math.log(ratio) if ratio < math.inf else math.log(top) - math.log(p["p"])


@dataclasses.dataclass(frozen=True)
class _Family:
    """One closed-form family: its parameter names, its domain checks as
    (holds, message) pairs, its leakage in nats at an outcome and, for a
    continuous secret, its linear-Gaussian shape (sx, slope, cond, s_y):
    X ~ N(0, sx^2), Y | X ~ N(slope * x, cond^2) and Y ~ N(0, s_y^2).
    Its ``scales`` must lie in SCALE_RANGE."""

    params: Tuple[str, ...]
    checks: Tuple[Tuple[Callable[[dict], bool], str], ...]
    closed_form: Callable[[dict, float], float]
    shape: Optional[Callable[[dict], Tuple[float, float, float, float]]] = None
    scales: Tuple[str, ...] = ()


_FAMILIES = {
    "additive_gaussian": _Family(
        ("sigma_x", "sigma_n"),
        ((lambda p: p["sigma_x"] > 0 and p["sigma_n"] > 0,
          "additive_gaussian requires sigma_x, sigma_n > 0"),),
        lambda p, y: (0.5 * math.log1p(p["sigma_x"] ** 2 / p["sigma_n"] ** 2)
                      + y * y / (2.0 * (p["sigma_x"] ** 2 + p["sigma_n"] ** 2))),
        lambda p: (p["sigma_x"], 1.0, p["sigma_n"], math.hypot(p["sigma_x"], p["sigma_n"])),
        ("sigma_x", "sigma_n"),
    ),
    "bivariate_gaussian": _Family(
        ("sigma_x", "sigma_y", "rho"),
        ((lambda p: p["sigma_x"] > 0 and p["sigma_y"] > 0,
          "bivariate_gaussian requires sigma_x, sigma_y > 0"),
         (lambda p: -1.0 < p["rho"] < 1.0, "bivariate_gaussian requires rho in (-1, 1)")),
        lambda p, y: (0.0 if p["rho"] == 0.0 else
                      y * y / (2.0 * p["sigma_y"] ** 2) - 0.5 * math.log1p(-p["rho"] * p["rho"])),
        lambda p: (p["sigma_x"], p["rho"] * p["sigma_y"] / p["sigma_x"],
                   p["sigma_y"] * math.sqrt(1.0 - p["rho"] * p["rho"]), p["sigma_y"]),
        ("sigma_x", "sigma_y"),
    ),
    "gaussian_mixture": _Family(
        ("sigma",),
        ((lambda p: p["sigma"] > 0, "gaussian_mixture requires sigma > 0"),),
        # log(2 / (t + 1)) with t = exp(0) = 1 gives exactly 0.0 at the midpoint
        lambda p, y: max(
            math.log(2.0 / (math.exp(-abs(y - 0.5) / p["sigma"] ** 2) + 1.0)), 0.0
        ),
        scales=("sigma",),
    ),
    "poisson_binomial": _Family(
        ("lam", "p"),
        # the boundary lam * (1 - p) == 1 is admitted: the closed form still
        # holds there (the maximizing term ties at x = y and y - 1)
        ((lambda p: p["lam"] > 1 and 0 < p["p"] < 1 and p["lam"] * (1 - p["p"]) <= 1,
          "poisson_binomial requires lam > 1, p in (0, 1), lam * (1 - p) <= 1"),),
        _poisson_binomial_pml,
    ),
    "geometric_binary": _Family(
        ("p", "q"),
        ((lambda p: 0 < p["p"] < 1 and 0 < p["q"] < 1,
          "geometric_binary requires p, q in (0, 1)"),),
        _geometric_binary_pml,
    ),
}


@dataclasses.dataclass(frozen=True)
class ClosedFormModel:
    """A leakage family with a known closed-form answer."""

    family: str
    params: Mapping[str, float]

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        record = _FAMILIES[self.family]
        if not isinstance(self.params, Mapping):
            raise ParameterError(f"{self.family} params must be an object, got {self.params!r}")
        if set(self.params) != set(record.params):
            raise ParameterError(
                f"{self.family} expects parameters {record.params}, got {tuple(self.params)}"
            )
        for name, value in self.params.items():
            try:
                finite = isinstance(value, numbers.Real) and math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise ParameterError(
                    f"{self.family} parameter {name} must be a finite number, got {value!r}"
                )
        p = {name: float(self.params[name]) for name in record.params}
        object.__setattr__(self, "params", p)
        for holds, message in record.checks:
            if not holds(p):
                raise ParameterError(message)
        lo, hi = SCALE_RANGE
        for name in record.scales:
            if not lo <= p[name] <= hi:
                raise ParameterError(
                    f"{self.family} parameter {name} must lie in [{lo:g}, {hi:g}], "
                    f"got {p[name]!r}"
                )


def pml_closed_form(model: ClosedFormModel, y) -> LeakageValue:
    """Evaluate the family's closed-form leakage at the outcome y, in nats."""
    if not math.isfinite(y):
        raise ValidationError(f"outcome must be finite, got {y!r}")
    return LeakageValue(_FAMILIES[model.family].closed_form(model.params, y))


def _linear_gaussian(model: ClosedFormModel, refusal: str) -> Tuple[float, float, float, float]:
    shape = _FAMILIES[model.family].shape
    if shape is None:
        raise CapabilityError(refusal)
    return shape(model.params)


def to_density_model(
    model: ClosedFormModel, quantile_clip: float = 1e-9
) -> DensityModel:
    """Grid-checkable density model for the continuous-secret families."""
    sx, slope, cond, s_y = _linear_gaussian(
        model, f"grid checks require a continuous secret; family {model.family!r} unsupported"
    )
    half = sx * _norm_isf(quantile_clip)
    return DensityModel(
        x_domain=(-half, half),
        prior_density=lambda x: _norm_pdf(x, scale=sx),
        conditional_density=lambda y, x: _norm_pdf(y, loc=slope * x, scale=cond),
        marginal_density=lambda y: float(_norm_pdf(y, scale=s_y)),
    )


def mixture_limit_check(sigma: float, y_magnitude: float) -> float:
    """Gap ln 2 - leakage of the two-component Gaussian mixture at
    |y| = y_magnitude; positive and vanishing as the magnitude grows."""
    if y_magnitude <= 0:
        raise ValidationError("y_magnitude must be positive")
    model = ClosedFormModel("gaussian_mixture", {"sigma": sigma})
    return math.log(2.0) - pml_closed_form(model, y_magnitude).nats


@dataclasses.dataclass(frozen=True)
class IntegrabilityProbe:
    """Seeded Monte Carlo estimates of E[exp leakage], with the analytic
    divergence verdict.

    Only the divergence signature is meaningful: when the flag is set,
    the expectation is infinite and the estimates grow without bound.
    """

    family: str
    sample_counts: Tuple[int, ...]
    estimates: Tuple[float, ...]
    seed: int
    diverges: bool

    @property
    def eventually_increasing(self) -> bool:
        rising = [b > a for a, b in zip(self.estimates, self.estimates[1:])]
        return bool(rising) and rising[-1]

    @property
    def strictly_increasing(self) -> bool:
        return all(b > a for a, b in zip(self.estimates, self.estimates[1:]))


def integrability_probe(
    model: ClosedFormModel, sample_counts: Sequence[int], seed: int = 42
) -> IntegrabilityProbe:
    """Monte Carlo means of exp(leakage(Y)) with Y drawn from the marginal.

    For a linear-Gaussian family with a nonzero slope the integrand is
    s_y / cond * exp(y^2 / (2 s_y^2)), whose exponent exactly cancels the
    marginal's Gaussian decay, so the expectation diverges.  With slope 0
    (the bivariate family at rho = 0) Y is independent of X and the
    integrand is 1.
    """
    counts = tuple(int(n) for n in sample_counts)
    if len(counts) < 3 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValidationError("sample_counts must be at least 3 increasing integers")
    _, slope, cond, s_y = _linear_gaussian(
        model, f"integrability probe supports Gaussian families only, not {model.family!r}"
    )
    if slope == 0.0:
        exp_leak = np.ones_like
    else:
        exp_leak = lambda ys: s_y / cond * np.exp(ys * ys / (2.0 * s_y**2))
    rng = np.random.default_rng(seed)
    estimates = []
    for n in counts:
        ys = rng.normal(0.0, s_y, size=n)
        estimates.append(float(np.mean(exp_leak(ys))))
    return IntegrabilityProbe(model.family, counts, tuple(estimates), seed, slope != 0.0)


def discretize_poisson_binomial(
    lam: float, p: float, y_max: int, tail: float = 1e-12
) -> JointModel:
    """Truncated discrete joint model of the Poisson prior with the
    shifted-Poisson kernel, for cross-checking the closed form.

    Prior X ~ Pois(lam * p); kernel adds independent Pois(lam * (1 - p))
    noise, so Y ~ Pois(lam) and X | Y=y ~ Binom(y, p).
    """
    # imported here so that importing pmlkit, or any CLI request, loads no scipy
    from scipy import stats

    ClosedFormModel("poisson_binomial", {"lam": lam, "p": p})  # parameter gate
    if tail > 1e-9 or tail <= 0:
        raise ValidationError(f"tail must lie in (0, 1e-9], got {tail!r}")
    if y_max < 0:
        raise ValidationError("y_max must be a non-negative integer")
    prior = truncate_countable("poisson", lam * p, tail)
    n_x = prior.alphabet.size - 1  # prior support {0..n_x}
    lam_noise = lam * (1.0 - p)
    k = 1
    while stats.poisson.sf(k, lam_noise) > tail:
        k += 1
    n_y = max(n_x + k, int(y_max))
    ys = np.arange(0, n_y + 1)
    matrix = np.zeros((n_x + 1, n_y + 1))
    for x in range(n_x + 1):
        matrix[x, x:] = stats.poisson.pmf(ys[x:] - x, lam_noise)
    deficits = np.maximum(1.0 - matrix.sum(axis=1), 0.0)
    channel = DiscreteChannel(
        prior.alphabet, Alphabet([int(y) for y in ys]), matrix, deficits
    )
    return JointModel(prior, channel)
