import json
import math
import sys

import numpy as np
import pytest
from scipy import stats

from pmlkit import (
    Alphabet,
    ClosedFormModel,
    DensityModel,
    DiscreteDistribution,
    GridSpec,
    discretize_poisson_binomial,
    integrability_probe,
    mixture_limit_check,
    pml,
    pml_closed_form,
    pml_density,
    posterior,
    renyi_inf,
    to_density_model,
    uniform,
)
from pmlkit import continuous
from pmlkit.continuous import (
    MAX_GRID_POINTS,
    MAX_QUANTILE_CLIP,
    MIN_GRID_POINTS,
    _grid,
    _norm_isf,
    _norm_pdf,
    _trapezoid,
)
from pmlkit.modelio import _json
from pmlkit.errors import (
    CapabilityError,
    CapacityError,
    ParameterError,
    UndefinedOutcomeError,
    ValidationError,
)


def test_additive_gaussian_closed_form_values():
    m = ClosedFormModel("additive_gaussian", {"sigma_x": 1.0, "sigma_n": 1.0})
    assert pml_closed_form(m, 0.0).nats == pytest.approx(0.5 * math.log(2), abs=1e-15)
    m2 = ClosedFormModel("additive_gaussian", {"sigma_x": 1.0, "sigma_n": 3.0})
    assert pml_closed_form(m2, 0.0).nats == pytest.approx(0.5 * math.log(10 / 9), abs=1e-15)


def test_additive_gaussian_leakage_vanishes_with_noise():
    values = [
        pml_closed_form(
            ClosedFormModel("additive_gaussian", {"sigma_x": 1.0, "sigma_n": sn}), 1.0
        ).nats
        for sn in (1.0, 3.0, 10.0, 100.0)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_closed_forms_even_in_y():
    add = ClosedFormModel("additive_gaussian", {"sigma_x": 2.0, "sigma_n": 0.5})
    biv = ClosedFormModel("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 2.0, "rho": -0.5})
    mix = ClosedFormModel("gaussian_mixture", {"sigma": 0.7})
    for y in (0.3, 1.0, 2.5):
        assert pml_closed_form(add, y).nats == pml_closed_form(add, -y).nats
        assert pml_closed_form(biv, y).nats == pml_closed_form(biv, -y).nats
        assert pml_closed_form(mix, 0.5 + y).nats == pml_closed_form(mix, 0.5 - y).nats


def test_closed_forms_nonnegative():
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        m = ClosedFormModel("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": rho})
        for y in np.linspace(-3, 3, 13):
            assert pml_closed_form(m, float(y)).nats >= 0.0


def test_bivariate_rho_zero_is_exactly_zero():
    m = ClosedFormModel("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 0.0})
    for y in (-2.0, 0.0, 3.5):
        assert pml_closed_form(m, y).nats == 0.0


def test_mixture_midpoint_and_limit():
    for sigma in (0.5, 1.0, 2.0):
        m = ClosedFormModel("gaussian_mixture", {"sigma": sigma})
        assert pml_closed_form(m, 0.5).nats == 0.0
    assert mixture_limit_check(1.0, 51.0) < 1e-6
    assert mixture_limit_check(1.0, 0.5) == pytest.approx(math.log(2))
    gaps = [mixture_limit_check(1.0, y) for y in (0.6, 1.0, 3.0, 10.0)]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))


def test_mixture_closed_form_is_the_uniform_bit_leakage():
    # The family is a uniform bit X with Y | X ~ N(X, sigma^2).  Its two-atom
    # posterior, from the likelihoods by Bayes' rule, against the uniform
    # prior is a discrete route that shares no algebra with the closed form.
    rng = np.random.default_rng(173)
    bit = Alphabet([0, 1])
    prior = uniform(bit)
    for sigma, y in zip(rng.uniform(0.2, 5.0, 2000), rng.uniform(-5.0, 6.0, 2000)):
        likelihood = np.exp(-((y - np.array([0.0, 1.0])) ** 2) / (2.0 * sigma**2))
        post = DiscreteDistribution(bit, likelihood / likelihood.sum())
        model = ClosedFormModel("gaussian_mixture", {"sigma": float(sigma)})
        closed = pml_closed_form(model, float(y)).nats
        assert renyi_inf(post, prior).nats == pytest.approx(closed, rel=0.0, abs=1e-15)


def test_poisson_binomial_closed_form_value():
    m = ClosedFormModel("poisson_binomial", {"lam": 2.0, "p": 0.5})
    assert pml_closed_form(m, 3).nats == pytest.approx(math.log(6 * math.e / 8), abs=1e-12)
    assert pml_closed_form(m, 0).nats == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        pml_closed_form(m, 2.5)


def test_geometric_binary_closed_form_values():
    m = ClosedFormModel("geometric_binary", {"p": 0.3, "q": 0.5})
    assert pml_closed_form(m, 0).nats == pytest.approx(math.log(0.65 / 0.3), abs=1e-15)
    assert pml_closed_form(m, 1).nats == pytest.approx(math.log(0.65 / 0.5), abs=1e-15)


@pytest.mark.parametrize("p", [5e-324, 1e-310])
def test_geometric_binary_subnormal_p_is_finite(p):
    # (1 - q + p q) / p overflows, its log does not: about 743.747 nats at 5e-324
    value = pml_closed_form(ClosedFormModel("geometric_binary", {"p": p, "q": 0.5}), 0).nats
    assert value == math.log(0.5) - math.log(p)
    if p == 5e-324:
        assert value == pytest.approx(743.747, abs=1e-3)


def test_geometric_binary_normal_p_values_unchanged():
    # for a p whose ratio does not overflow the value is log of the ratio, bit for bit
    rng = np.random.default_rng(2024)
    ps = np.concatenate([10.0 ** rng.uniform(-300, 0, 500), [1e-300]])
    for p, q in zip(ps, rng.uniform(0.0, 1.0, ps.size)):
        p, q = float(min(p, 0.999)), float(q)
        m = ClosedFormModel("geometric_binary", {"p": p, "q": q})
        assert pml_closed_form(m, 0).nats == math.log((1.0 - q + p * q) / p)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ClosedFormModel("additive_gaussian", {"sigma_x": 0.0, "sigma_n": 1.0})
    with pytest.raises(ParameterError):
        ClosedFormModel("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 1.0})
    with pytest.raises(ParameterError):
        ClosedFormModel("poisson_binomial", {"lam": 3.0, "p": 0.5})  # lam (1-p) > 1
    with pytest.raises(ParameterError):
        ClosedFormModel("gaussian_noise", {"sigma": 1.0})
    with pytest.raises(ParameterError):
        ClosedFormModel("gaussian_mixture", {"sigma": 1.0, "extra": 2.0})


@pytest.mark.parametrize(
    "make, message",
    [
        *((lambda domain=domain: DensityModel(domain, np.ones_like, lambda y, x: np.ones_like(x)),
           f"x_domain must be a finite interval, got {domain!r}")
          for domain in ((-math.inf, 1.0), (0.0, math.nan), (1.0, 0.0))),
        (lambda: mixture_limit_check(1.0, 0.0), "y_magnitude must be positive"),
        (lambda: discretize_poisson_binomial(2.0, 0.5, -1), "y_max must be a non-negative integer"),
    ],
    ids=["infinite_domain", "nan_domain", "empty_domain", "mixture_at_zero", "negative_y_max"],
)
def test_continuous_helpers_refuse_by_name(make, message):
    with pytest.raises(ValidationError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("lam, p, y_max", [(2.0, 0.5, 10), (1.5, 0.9, 0), (3.0, 0.7, 40)])
def test_poisson_binomial_kernel_equals_its_rows(lam, p, y_max):
    # the kernel is one pmf call over y - x; row x is Pois(lam (1 - p)) shifted by x
    channel = discretize_poisson_binomial(lam, p, y_max).channel
    ys = np.array(channel.output_alphabet.symbols)
    for x, row in zip(channel.input_alphabet, channel.matrix):
        want = np.zeros(len(ys))
        want[x:] = stats.poisson.pmf(ys[x:] - x, lam * (1.0 - p))
        assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "family,params",
    [
        pytest.param("additive_gaussian", {"sigma_x": sx, "sigma_n": sn}, id=f"{sx}-{sn}")
        for sx, sn in [(1.0, 1.0), (1.0, 3.0), (2.0, 0.5)]
    ] + [
        pytest.param("bivariate_gaussian", {"sigma_x": sx, "sigma_y": sy, "rho": rho},
                     id=f"bivariate-{sx}-{sy}-{rho}")
        for sx, sy, rho in [(1.0, 1.0, 0.5), (1.0, 2.0, -0.5), (0.5, 3.0, 0.9), (2.0, 0.5, 0.0)]
    ],
)
def test_grid_matches_additive_closed_form(family, params):
    # both linear-Gaussian families; the additive ones keep their first ids
    m = ClosedFormModel(family, params)
    density = to_density_model(m)
    for y in (-3.0, -1.0, 0.0, 1.0, 3.0):
        result = pml_density(density, y)
        assert abs(result.value.nats - pml_closed_form(m, y).nats) <= 1e-4
        assert result.grid == GridSpec()


def test_grid_numeric_marginal_fallback():
    m = ClosedFormModel("additive_gaussian", {"sigma_x": 1.0, "sigma_n": 1.0})
    with_analytic = to_density_model(m)
    numeric = DensityModel(
        x_domain=with_analytic.x_domain,
        prior_density=with_analytic.prior_density,
        conditional_density=with_analytic.conditional_density,
    )
    got = pml_density(numeric, 0.5).value.nats
    assert got == pytest.approx(pml_closed_form(m, 0.5).nats, abs=1e-4)


def test_density_independence_gives_zero():
    model = DensityModel(
        x_domain=(-8.0, 8.0),
        prior_density=lambda x: stats.norm.pdf(x),
        conditional_density=lambda y, x: np.full_like(x, stats.norm.pdf(y)),
        marginal_density=lambda y: float(stats.norm.pdf(y)),
    )
    assert pml_density(model, 0.7).value.nats == 0.0


def test_grid_check_of_a_flat_ratio_gives_zero_far_out():
    # rho = 0: the ratio is 1 everywhere, with no peak for the domain to miss
    model = ClosedFormModel("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 0.0})
    for y in (0.0, 8.0, -30.0):
        assert continuous.grid_check(model, y).value.nats == 0.0


def test_density_zero_marginal_rejected():
    model = DensityModel(
        x_domain=(0.0, 1.0),
        prior_density=lambda x: np.ones_like(x),
        conditional_density=lambda y, x: np.where((0 <= y) & (y <= 1), 1.0, 0.0) * np.ones_like(x),
        marginal_density=lambda y: 1.0 if 0 <= y <= 1 else 0.0,
    )
    with pytest.raises(UndefinedOutcomeError):
        pml_density(model, 5.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_density_non_finite_marginal_rejected(bad):
    model = DensityModel((0.0, 1.0), np.ones_like, lambda y, x: np.ones_like(x), lambda y: bad)
    with pytest.raises(ValidationError, match=r"marginal density at y=0\.5 is not finite"):
        pml_density(model, 0.5, GridSpec(points=1024))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, -2.0])
@pytest.mark.parametrize("size,at", [(1024, 0), (1024, 700), (1024, 1023), (9, 0), (9, 3)])
def test_density_with_a_non_finite_or_negative_ratio_rejected(bad, size, at):
    # on the grid of 1024 points, or on the refining grid of 2 * 4 + 1
    def conditional(y, x):
        values = np.linspace(1.0, 2.0, len(x))  # the largest ratio is the last
        if len(x) == size:
            values[at] = bad
        return values

    model = DensityModel((0.0, 1.0), np.ones_like, conditional, lambda y: 1.0)
    with pytest.raises(ValidationError, match="non-finite or negative values"):
        pml_density(model, 0.0, GridSpec(points=1024, refine=4))


def test_density_peak_between_grid_points_rejected():
    # the conditional density is 0 at every grid point, so no ratio has a log
    model = to_density_model(
        ClosedFormModel("additive_gaussian", {"sigma_x": 1e75, "sigma_n": 1e-75})
    )
    with pytest.raises(ValidationError, match=r"y=3\.0 .*\(points=1024, refine=2\)"):
        pml_density(model, 3.0, GridSpec(points=1024, refine=2))


def test_grid_spec_validation():
    with pytest.raises(ValidationError):
        GridSpec(points=512)
    with pytest.raises(ValidationError):
        GridSpec(quantile_clip=0.7)
    for field in ("points", "quantile_clip", "refine"):
        with pytest.raises(ValidationError, match="got True"):
            GridSpec(**{field: True})
        with pytest.raises(ValidationError, match="got np.True_"):
            GridSpec(**{field: np.True_})


def test_grid_spec_takes_numpy_numbers():
    grid = GridSpec(points=np.int32(2048), quantile_clip=np.float32(1e-9), refine=np.uint8(4))
    assert (grid.points, grid.refine) == (2048, 4)
    params = {"sigma_x": np.float32(1.5), "sigma_n": np.int64(2)}
    model = ClosedFormModel("additive_gaussian", params)
    assert model.params == {"sigma_x": 1.5, "sigma_n": 2.0}
    result = pml_density(to_density_model(model, grid.quantile_clip), 0.5, grid)
    assert result.value.nats == pytest.approx(pml_closed_form(model, 0.5).nats, abs=1e-4)
    with pytest.raises(ParameterError, match="sigma must be a finite number, got np.True_"):
        ClosedFormModel("gaussian_mixture", {"sigma": np.True_})


def test_grid_spec_keeps_plain_python_numbers(monkeypatch):
    # 2 * np.uint8(200) + 1 wraps to 145, so the refining grid would be smaller than
    # the spec the result reports; and no numpy number is a JSON number
    grid = GridSpec(points=np.int64(2048), quantile_clip=np.float32(1e-9), refine=np.uint8(200))
    assert [type(value) for value in grid.to_dict().values()] == [int, float, int]
    assert json.loads(_json(grid.to_dict())) == {
        "points": 2048, "quantile_clip": float(np.float32(1e-9)), "refine": 200}
    sizes = []
    monkeypatch.setattr(continuous, "_grid", lambda lo, hi, n: sizes.append(n) or _grid(lo, hi, n))
    model = ClosedFormModel("additive_gaussian", {"sigma_x": 1.0, "sigma_n": 1.0})
    pml_density(to_density_model(model, grid.quantile_clip), 0.5, grid)
    assert sizes == [2048, 401]


def test_grid_spec_caps_both_grids():
    # the cap is checked before any grid is built or any float conversion
    assert GridSpec(points=MAX_GRID_POINTS).points == MAX_GRID_POINTS
    assert GridSpec(refine=(MAX_GRID_POINTS - 1) // 2).refine == 524287  # 2 * 524287 + 1 < cap
    huge = 10**400
    for spec in ({"points": MAX_GRID_POINTS + 1}, {"points": huge},
                 {"points": np.int64(2**62)}):
        with pytest.raises(CapacityError) as info:
            GridSpec(**spec)
        assert str(info.value) == "grid points exceed cap 1048576"
    for refine in (MAX_GRID_POINTS // 2, huge, np.int64(2**62)):
        with pytest.raises(CapacityError) as info:
            GridSpec(refine=refine)
        assert str(info.value) == "refining grid points 2 * refine + 1 exceed cap 1048576"


def test_quantile_clip_bound_is_the_largest_that_builds_a_density():
    assert GridSpec().quantile_clip <= MAX_QUANTILE_CLIP
    assert GridSpec(quantile_clip=MAX_QUANTILE_CLIP).quantile_clip == MAX_QUANTILE_CLIP
    with pytest.raises(ValidationError, match=r"quantile_clip must lie in \(0, 4.9e-07\]"):
        GridSpec(quantile_clip=float(np.nextafter(MAX_QUANTILE_CLIP, 1.0)))
    families = [
        ClosedFormModel("additive_gaussian", {"sigma_x": 1.3, "sigma_n": 0.4}),
        ClosedFormModel("bivariate_gaussian", {"sigma_x": 0.02, "sigma_y": 5.0, "rho": -0.7}),
    ]
    for model in families:
        for clip in [5e-324, 1e-300, *np.geomspace(1e-12, MAX_QUANTILE_CLIP, 25)]:
            for points in (MIN_GRID_POINTS, GridSpec().points):
                grid = GridSpec(points=points, quantile_clip=float(clip), refine=2)
                density = to_density_model(model, grid.quantile_clip)
                assert pml_density(density, 0.5, grid).grid == grid


def test_density_model_requires_normalized_prior():
    model = DensityModel(
        x_domain=(-1.0, 1.0),
        prior_density=lambda x: stats.norm.pdf(x),  # misses ~32% of the mass
        conditional_density=lambda y, x: stats.norm.pdf(y - x),
    )
    with pytest.raises(ValidationError) as info:
        pml_density(model, 0.0, GridSpec(points=2048))
    assert str(info.value).startswith("prior density integrates to 0.6826")
    assert str(info.value).endswith(
        " over the domain (points=2048); clipping deficit must be <= 1e-06")


def test_prior_mass_is_checked_on_the_grid_scanned():
    # N(0, s^2) with s half the spacing of 1024 points on [-1, 1], centred
    # between two of them: the trapezoid rule there drops about 1.4% of its
    # mass, and on 2^14 points, 16 times finer, none that a float shows
    spacing = 2.0 / (MIN_GRID_POINTS - 1)
    model = DensityModel(
        x_domain=(-1.0, 1.0),
        prior_density=lambda x: _norm_pdf(x, scale=spacing / 2),
        conditional_density=lambda y, x: _norm_pdf(y, loc=x),  # numeric marginal
    )
    with pytest.raises(ValidationError, match=r"integrates to 0\.98.*\(points=1024\)"):
        pml_density(model, 0.5, GridSpec(points=MIN_GRID_POINTS))
    result = pml_density(model, 0.5, GridSpec())
    # the prior is nearly a point mass at 0, so f_Y(y) is nearly f(y | 0) and the
    # ratio peaks at x = y with log f(y | y) / f(y | 0) = y^2 / 2
    assert result.value.nats == pytest.approx(0.125, abs=1e-6)
    assert result.argmax_x == 0.5


def test_integrability_probe_additive_gaussian():
    m = ClosedFormModel("additive_gaussian", {"sigma_x": 1.0, "sigma_n": 1.0})
    probe = integrability_probe(m, [10**3, 10**4, 10**5], seed=42)
    assert probe.diverges
    assert probe.strictly_increasing
    assert probe.eventually_increasing


def test_integrability_probe_bivariate_control():
    m = ClosedFormModel("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 0.0})
    probe = integrability_probe(m, [10**3, 10**4, 10**5], seed=42)
    assert not probe.diverges
    assert all(abs(e - 1.0) <= 1e-12 for e in probe.estimates)
    correlated = ClosedFormModel("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 0.5})
    assert integrability_probe(correlated, [10, 20, 30]).diverges


@pytest.mark.parametrize(
    "family,params,marginal_sd",
    [
        ("additive_gaussian", {"sigma_x": 1.0, "sigma_n": 1.0}, math.sqrt(2.0)),
        ("additive_gaussian", {"sigma_x": 1.3, "sigma_n": 0.4}, math.sqrt(1.3**2 + 0.4**2)),
        ("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 2.0, "rho": -0.5}, 2.0),
        ("bivariate_gaussian", {"sigma_x": 0.7, "sigma_y": 1.5, "rho": 0.0}, 1.5),
    ],
    ids=["additive-equal", "additive-skewed", "bivariate", "bivariate-independent"],
)
def test_integrability_probe_is_the_mean_of_exp_closed_form(family, params, marginal_sd):
    # the same seeded draws of Y, scored by the closed form one outcome at a time
    model = ClosedFormModel(family, params)
    counts = (100, 1000, 10000)
    probe = integrability_probe(model, counts, seed=11)
    rng = np.random.default_rng(11)
    for n, estimate in zip(counts, probe.estimates):
        ys = rng.normal(0.0, marginal_sd, size=n)
        expected = math.fsum(math.exp(pml_closed_form(model, float(y)).nats) for y in ys) / n
        assert estimate == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_integrability_probe_guards():
    pois = ClosedFormModel("poisson_binomial", {"lam": 2.0, "p": 0.5})
    with pytest.raises(CapabilityError):
        integrability_probe(pois, [10, 20, 30])
    m = ClosedFormModel("additive_gaussian", {"sigma_x": 1.0, "sigma_n": 1.0})
    with pytest.raises(ValidationError):
        integrability_probe(m, [10, 20])
    with pytest.raises(ValidationError):
        integrability_probe(m, [30, 20, 10])


def test_discretized_poisson_binomial_posterior_is_binomial():
    model = discretize_poisson_binomial(2.0, 0.5, 10)
    post = posterior(model, 4)
    xs = np.arange(post.alphabet.size)
    np.testing.assert_allclose(post.probs, stats.binom.pmf(xs, 4, 0.5), atol=1e-10)


def test_discretized_poisson_binomial_y_zero():
    model = discretize_poisson_binomial(2.0, 0.5, 10)
    post = posterior(model, 0)
    assert post.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert pml(model, 0).nats == pytest.approx(1.0, abs=1e-10)  # lam * p


def test_discretized_poisson_binomial_matches_closed_form():
    model = discretize_poisson_binomial(2.0, 0.5, 10)
    closed = ClosedFormModel("poisson_binomial", {"lam": 2.0, "p": 0.5})
    for y in range(11):
        assert pml(model, y).nats == pytest.approx(
            pml_closed_form(closed, y).nats, abs=1e-8
        )


def _reference_noise_support(lam_noise, tail):
    """The noise support's last point found by a linear search, as the discretizer once did."""
    k = 1
    while stats.poisson.sf(k, lam_noise) > tail:
        k += 1
    return k


@pytest.mark.parametrize("tail", [1e-12, 1e-10, 1e-9])
@pytest.mark.parametrize("lam, p", [(2.0, 0.975), (2.0, 0.85), (2.0, 0.5), (4.0, 0.75),
                                    (1.05, 0.1), (20.0, 0.99)])
def test_discretized_noise_support_matches_the_linear_search(lam, p, tail):
    model = discretize_poisson_binomial(lam, p, 0, tail)
    k = model.output_alphabet.size - model.input_alphabet.size
    assert k == _reference_noise_support(lam * (1 - p), tail)


def test_discretize_rejects_coarse_tail():
    with pytest.raises(ValidationError):
        discretize_poisson_binomial(2.0, 0.5, 10, tail=1e-6)


def test_grid_check_unsupported_for_integer_family():
    with pytest.raises(CapabilityError):
        to_density_model(ClosedFormModel("poisson_binomial", {"lam": 2.0, "p": 0.5}))


def test_norm_pdf_equals_scipy():
    rng = np.random.default_rng(37)
    for _ in range(200):
        x = rng.normal(0.0, 10.0, size=64)
        loc, scale = rng.normal(0.0, 3.0, size=64), rng.uniform(0.01, 20.0)
        assert np.array_equal(_norm_pdf(x, scale=scale), stats.norm.pdf(x, scale=scale))
        assert np.array_equal(
            _norm_pdf(x[0], loc=loc, scale=scale), stats.norm.pdf(x[0], loc=loc, scale=scale)
        )
    assert float(_norm_pdf(1.5, scale=2.0)) == float(stats.norm.pdf(1.5, scale=2.0))


def test_norm_isf_agrees_with_scipy():
    assert _norm_isf(1e-9) == stats.norm.isf(1e-9)  # the default quantile_clip
    for q in np.logspace(-300, math.log10(0.4999), 400):
        assert _norm_isf(q) == pytest.approx(stats.norm.isf(q), rel=1e-15)


def test_lgamma_agrees_with_gammaln():
    from scipy.special import gammaln

    for y in range(401):
        assert math.lgamma(y + 1) == pytest.approx(float(gammaln(y + 1)), rel=1e-15)


# every ParameterError and CapabilityError text, verbatim
PARAMETER_ERRORS = [
    ("additive_gaussian", {"sigma_x": 0.0, "sigma_n": 1.0},
     "additive_gaussian requires sigma_x, sigma_n > 0"),
    ("additive_gaussian", {"sigma_x": 1.0, "sigma_n": -1.0},
     "additive_gaussian requires sigma_x, sigma_n > 0"),
    ("additive_gaussian", {"sigma_x": 1.0},
     "additive_gaussian expects parameters ('sigma_x', 'sigma_n'), got ('sigma_x',)"),
    ("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 0.0, "rho": 0.0},
     "bivariate_gaussian requires sigma_x, sigma_y > 0"),
    ("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 1.0},
     "bivariate_gaussian requires rho in (-1, 1)"),
    ("bivariate_gaussian", {"sigma_x": 1.0, "sigma_y": 1.0},
     "bivariate_gaussian expects parameters ('sigma_x', 'sigma_y', 'rho'), "
     "got ('sigma_x', 'sigma_y')"),
    ("gaussian_mixture", {"sigma": 0.0}, "gaussian_mixture requires sigma > 0"),
    ("gaussian_mixture", {"sigma": 1.0, "extra": 2.0},
     "gaussian_mixture expects parameters ('sigma',), got ('sigma', 'extra')"),
    ("poisson_binomial", {"lam": 3.0, "p": 0.5},
     "poisson_binomial requires lam > 1, p in (0, 1), lam * (1 - p) <= 1"),
    ("poisson_binomial", {"lam": 1.0, "p": 0.5},
     "poisson_binomial requires lam > 1, p in (0, 1), lam * (1 - p) <= 1"),
    ("poisson_binomial", {"p": 0.5, "lam": 2.0, "x": 1},
     "poisson_binomial expects parameters ('lam', 'p'), got ('p', 'lam', 'x')"),
    ("geometric_binary", {"p": 0.3, "q": 1.0}, "geometric_binary requires p, q in (0, 1)"),
    ("geometric_binary", {"q": 0.3},
     "geometric_binary expects parameters ('p', 'q'), got ('q',)"),
    ("gaussian_noise", {"sigma": 1.0}, "unknown family 'gaussian_noise'"),
    ("geometric_binary", {"p": True, "q": 0.5},
     "geometric_binary parameter p must be a finite number, got True"),
]

@pytest.mark.parametrize("family,params,message", PARAMETER_ERRORS)
def test_parameter_error_text(family, params, message):
    with pytest.raises(ParameterError) as info:
        ClosedFormModel(family, params)
    assert str(info.value) == message


CAPABILITY_ERRORS = [
    ("gaussian_mixture", {"sigma": 1.0},
     "grid checks require a continuous secret; family 'gaussian_mixture' unsupported",
     "integrability probe supports Gaussian families only, not 'gaussian_mixture'"),
    ("poisson_binomial", {"lam": 2.0, "p": 0.5},
     "grid checks require a continuous secret; family 'poisson_binomial' unsupported",
     "integrability probe supports Gaussian families only, not 'poisson_binomial'"),
    ("geometric_binary", {"p": 0.3, "q": 0.5},
     "grid checks require a continuous secret; family 'geometric_binary' unsupported",
     "integrability probe supports Gaussian families only, not 'geometric_binary'"),
]


@pytest.mark.parametrize("family,params,grid_message,probe_message", CAPABILITY_ERRORS)
def test_capability_error_text(family, params, grid_message, probe_message):
    model = ClosedFormModel(family, params)
    with pytest.raises(CapabilityError) as info:
        to_density_model(model)
    assert str(info.value) == grid_message
    with pytest.raises(CapabilityError) as info:
        integrability_probe(model, [10, 20, 30])
    assert str(info.value) == probe_message


def test_grid_is_linspace_bit_for_bit():
    rng = np.random.default_rng(23)
    cases = [
        (0.0, 5e-324, 2),  # one subnormal wide: the step 5e-324 is exact
        (0.0, 3 * 5e-324, 1 << 10),  # the step underflows to 0
        (-5e-324, 5e-324, 1 << 14),
        (-1.5e308, 1.5e308, 1 << 10),  # the width overflows to inf
        (-math.ulp(0.0), 1.7976931348623157e308, 33),  # the width rounds to the largest float
    ]
    for _ in range(500):
        n = int(rng.choice([2, 3, 33, 1 << 10, 4096, 1 << 14, int(rng.integers(2, 5000))]))
        scale = 10.0 ** float(rng.uniform(-300, 300))
        lo, hi = sorted(rng.normal(0.0, 1.0, 2) * scale)
        cases.append((float(lo), float(hi), n))
        mid = float(rng.normal(0.0, scale))  # a width of a few ulps
        cases.append((mid, float(np.nextafter(np.nextafter(mid, np.inf), np.inf)), n))
    assert (3 * 5e-324) / ((1 << 10) - 1) == 0.0 and 1.5e308 - -1.5e308 == math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at the first point
        for lo, hi, n in cases:
            assert lo < hi
            assert _grid(lo, hi, n).tobytes() == np.linspace(lo, hi, n).tobytes(), (lo, hi, n)


def test_trapezoid_is_numpys_bit_for_bit():
    rng = np.random.default_rng(29)
    for _ in range(60):
        model = ClosedFormModel("bivariate_gaussian", {
            "sigma_x": float(rng.uniform(0.05, 5.0)), "sigma_y": float(rng.uniform(0.05, 5.0)),
            "rho": float(rng.uniform(-0.99, 0.99))})
        density = to_density_model(model, float(rng.choice([1e-9, 1e-300, MAX_QUANTILE_CLIP])))
        y = float(rng.normal(0.0, 2.0))
        for n in (1 << 10, 4096, 1 << 14):
            xs = _grid(*density.x_domain, n)
            prior = density.prior_density(xs)
            # the prior's mass check, and marginal_at's numeric path
            assert _trapezoid(prior, xs) == float(np.trapezoid(prior, xs))
            joint = density.conditional_density(y, xs) * prior
            numeric = DensityModel(density.x_domain, density.prior_density,
                                   density.conditional_density)
            assert numeric.marginal_at(y, xs) == float(np.trapezoid(joint, xs))
    xs = np.sort(rng.normal(0.0, 3.0, 999))
    ys = rng.exponential(1.0, 999)
    assert _trapezoid(ys, xs) == float(np.trapezoid(ys, xs))


def test_float_info_min_is_finfo_tiny():
    # distributions.marginal reads the smallest normal float from sys
    assert sys.float_info.min.hex() == float(np.finfo(float).tiny).hex()


def test_density_model_never_writes_into_callable_output():
    shared = {}  # the prior's arrays, one per grid length, handed out on every call
    handed_out = []

    def record(array):
        handed_out.append((array, array.copy()))
        return array

    # prior 1 on [1, 2] and f(y | x) = x there, so f_Y(y) = 1.5 and pml = log(2 / 1.5)
    model = DensityModel(
        x_domain=(1.0, 2.0),
        prior_density=lambda x: record(shared.setdefault(len(x), np.ones(len(x)))),
        conditional_density=lambda y, x: record(x),
    )
    xs = _grid(1.0, 2.0, 4096)
    assert model.marginal_at(0.0, xs) == pytest.approx(1.5)
    result = pml_density(model, 0.0, GridSpec(points=4096, refine=4))
    assert result.value.nats == pytest.approx(math.log(2.0 / 1.5))
    assert len(handed_out) == 7
    for array, before in handed_out:
        assert array.tobytes() == before.tobytes()
    for n, array in shared.items():
        assert array.tobytes() == np.ones(n).tobytes()


def _shape(family, p):
    """(sx, slope, cond) of the model X ~ N(0, sx^2), Y | X ~ N(slope x, cond^2)."""
    if family == "additive_gaussian":
        return p["sigma_x"], 1.0, p["sigma_n"]
    return (p["sigma_x"], p["rho"] * p["sigma_y"] / p["sigma_x"],
            p["sigma_y"] * math.sqrt(1.0 - p["rho"] ** 2))


def _normal_mass(a, b, mean, sd):
    """P(a <= Z <= b) for Z ~ N(mean, sd^2), from the tail on the interval's
    side of the mean, since cdf(b) - cdf(a) cancels to noise in the tails."""
    def above(t):  # P(Z > mean + t sd)
        return 0.5 * math.erfc(t / math.sqrt(2.0))

    s, t = (a - mean) / sd, (b - mean) / sd
    if s >= 0.0:
        return above(s) - above(t)
    if t <= 0.0:
        return above(-t) - above(-s)
    return 1.0 - above(-s) - above(t)


def test_gaussian_closed_forms_against_the_epsilon_partition_gain():
    """arXiv 2304.07722 defines pml on a general alphabet through gain
    functions.  The epsilon-partition gain cuts the secret's line into the
    cells B_w = {x : w eps <= L(x) < (w + 1) eps} of the information density
    L(x) = log f(x | y) / f(x), rewards a correct guess of the cell by
    1 / P_X(B_w), and so achieves log max_w P(B_w | y) / P_X(B_w), which
    lies in [pml - eps, pml].

    For these families L(x) = A - B (x - c)^2 with B = slope^2 / (2 cond^2)
    and c = y / slope, and A = L(c) is read off the two normal densities at
    c.  Each cell is one interval around c (the top cell, w = floor(A / eps))
    or two intervals.  A cell's ratio is an average of e^L over it, so it
    lies in [e^(w eps), e^((w + 1) eps)), and the top cell's is the largest.
    Its prior and posterior masses are normal interval probabilities taken
    from one tail with math.erfc.  No grid, no scipy and no closed-form
    algebra enter.

    Domain: where the top cell's prior mass is below 1e-300 (a small rho
    puts the peak 40 or more prior standard deviations out), its tail masses
    lose their precision; those draws are skipped and counted.
    """
    rng = np.random.default_rng(8)
    checked = skipped = 0
    for _ in range(2000):
        family = str(rng.choice(["additive_gaussian", "bivariate_gaussian"]))
        sx, s2 = (float(v) for v in rng.uniform(0.05, 5.0, 2))
        if family == "additive_gaussian":
            params = {"sigma_x": sx, "sigma_n": s2}
        else:
            params = {"sigma_x": sx, "sigma_y": s2, "rho": float(rng.uniform(-0.99, 0.99))}
        y = float(rng.choice([-4.0, -1.0, 0.0, 0.5, 3.0]))
        eps = float(rng.choice([0.05, 0.01]))
        sx, slope, cond = _shape(family, params)
        var = 1.0 / (1.0 / sx**2 + slope**2 / cond**2)  # X | Y = y ~ N(mean, var)
        mean = var * slope * y / cond**2
        c, b = y / slope, slope**2 / (2.0 * cond**2)
        a = (0.5 * math.log(sx**2 / var) - (c - mean) ** 2 / (2.0 * var)
             + c**2 / (2.0 * sx**2))

        half = math.sqrt((a - math.floor(a / eps) * eps) / b)  # the top cell's half-width
        prior = _normal_mass(c - half, c + half, 0.0, sx)
        if prior < 1e-300:
            skipped += 1
            continue
        value = math.log(_normal_mass(c - half, c + half, mean, math.sqrt(var)) / prior)
        closed = pml_closed_form(ClosedFormModel(family, params), y).nats
        assert 0.0 <= closed - value <= eps, (family, params, y, eps, closed, value)
        checked += 1
    assert checked >= 1900 and checked + skipped == 2000
