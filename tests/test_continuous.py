import math

import numpy as np
import pytest
from scipy import stats

from pmlkit import (
    ClosedFormModel,
    DensityModel,
    GridSpec,
    discretize_poisson_binomial,
    integrability_probe,
    mixture_limit_check,
    pml,
    pml_closed_form,
    pml_density,
    posterior,
    to_density_model,
)
from pmlkit.continuous import MAX_QUANTILE_CLIP, _norm_isf, _norm_pdf
from pmlkit.errors import (
    CapabilityError,
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


def test_density_zero_marginal_rejected():
    model = DensityModel(
        x_domain=(0.0, 1.0),
        prior_density=lambda x: np.ones_like(x),
        conditional_density=lambda y, x: np.where((0 <= y) & (y <= 1), 1.0, 0.0) * np.ones_like(x),
        marginal_density=lambda y: 1.0 if 0 <= y <= 1 else 0.0,
    )
    with pytest.raises(UndefinedOutcomeError):
        pml_density(model, 5.0)


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
            to_density_model(model, GridSpec(quantile_clip=float(clip)).quantile_clip)


def test_density_model_requires_normalized_prior():
    with pytest.raises(ValidationError):
        DensityModel(
            x_domain=(-1.0, 1.0),
            prior_density=lambda x: stats.norm.pdf(x),  # misses ~32% of the mass
            conditional_density=lambda y, x: stats.norm.pdf(y - x),
        )


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
