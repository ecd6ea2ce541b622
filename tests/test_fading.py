import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from wnc import (ChannelSpec, FrequencySelective, HeavyTailError, Lognormal,
                 Nakagami, Rayleigh, Rice, ValidationError, Weibull,
                 capacity_marginal, certify_light_tail, frechet_bounds)
from wnc.distributions import DiscreteDistribution
from wnc import fading
from wnc.fading import FadingMarginal, rayleigh_capacity_cdf

from conftest import (cdf_generic, exponential_tail_law, fading_cgf_reference,
                      fading_moment_reference, light_tail_reference,
                      scipy_gain_law)

SPEC = ChannelSpec(1.0, 1.0)

ALL_MODELS = [
    Rayleigh(), Rice(1.0, 0.5), Nakagami(1.0), Weibull(1.0, 2.0),
    Lognormal(0.0, 0.5),
]


def test_channel_spec_validation():
    with pytest.raises(ValidationError):
        ChannelSpec(-1.0, 1.0)
    with pytest.raises(ValidationError):
        ChannelSpec(1.0, 0.0)
    with pytest.raises(ValidationError):
        Nakagami(0.3)
    with pytest.raises(ValidationError):
        Weibull(1.0, -2.0)


# the quantile levels FadingMarginal._slices reads: 2^-50 ... 1 - 2^-40
LEFT_LEVELS = 0.5 ** np.arange(50, 0, -1)
RIGHT_LEVELS = 1.0 - 0.5 ** np.arange(2, 41)
LAW_MATRIX = ALL_MODELS + [
    Rayleigh(1.3), Rice(0.0, 1.0), Rice(3.0, 0.7), Nakagami(0.5),
    Nakagami(4.0, 2.0), Weibull(1.0, 0.5), Weibull(2.0, 1.0), Lognormal(0.3, 1.0),
]


@pytest.mark.parametrize("model", LAW_MATRIX, ids=repr)
def test_gain_law_matches_scipy_stats(model):
    oracle = scipy_gain_law(model)
    levels = np.concatenate((LEFT_LEVELS, RIGHT_LEVELS, [1e-15, 1.0 - 1e-12]))
    r = oracle.ppf(levels)
    np.testing.assert_allclose(model.ppf(levels), r, rtol=1e-13, atol=0)
    for name in ("cdf", "sf", "pdf", "logpdf"):
        np.testing.assert_allclose(getattr(model, name)(r), getattr(oracle, name)(r),
                                   rtol=1e-13, atol=1e-300, err_msg=name)
    # the formulas hold on the edges of the support, unmasked
    assert model.cdf(np.array([0.0, np.inf])).tolist() == [0.0, 1.0]
    assert model.sf(np.array([0.0, np.inf])).tolist() == [1.0, 0.0]
    assert model.ppf(np.array([0.0, 1.0])).tolist() == [0.0, np.inf]


@pytest.mark.parametrize("model", LAW_MATRIX, ids=repr)
def test_gain_law_ppf_round_trips_at_depth(model):
    # the lower levels through the cdf, the upper ones through the sf
    np.testing.assert_allclose(model.cdf(model.ppf(LEFT_LEVELS)), LEFT_LEVELS,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(model.sf(model.ppf(RIGHT_LEVELS)), 1.0 - RIGHT_LEVELS,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("model", [Rice(1.0, 0.5), Rice(3.0, 0.7), Rice(0.0, 1.0),
                                   Rice(10.0, 1.0), Rice(0.2, 2.0)], ids=repr)
def test_rice_sf_keeps_relative_accuracy_in_the_tail(model):
    # the Marcum series against the noncentral chi-square sf of (H/sigma0)^2,
    # from the mode out to where the sf reaches 1e-200
    b, scale = model.s / model.sigma0, model.sigma0
    z_far = b + math.sqrt(2.0 * 200.0 * math.log(10.0)) + 1.0
    z = np.concatenate((np.linspace(0.0, z_far, 2001), [b, np.nextafter(b, 9.0)]))
    want = stats.ncx2.sf(z * z, 2, b * b)
    keep = want >= 1e-200
    assert want[keep].min() < 1e-190
    np.testing.assert_allclose(model.sf(z[keep] * scale), want[keep],
                               rtol=1e-12, atol=0)
    # one point and a 0-d array give a scalar, as an array gives an array
    assert np.ndim(model.sf(z[3] * scale)) == 0
    assert model.sf(np.array(z[3] * scale)) == model.sf(z[3:4] * scale)[0]


def test_rice_capacity_tail_below_one_minus_cdf_resolution():
    # 1 - cdf read 0 here; the tail is 7.76e-20
    m = capacity_marginal(SPEC, Rice(1.0, 0.5))
    r = m._gain_radius(np.array([4.0, 5.0])) / 0.5
    want = stats.ncx2.sf(r * r, 2, 4.0)
    np.testing.assert_allclose(m.tail(np.array([4.0, 5.0])), want, rtol=1e-12)
    assert 7e-20 < m.tail(5.0) < 8e-20


def test_rayleigh_closed_form_values():
    m = capacity_marginal(SPEC, Rayleigh())
    assert m.cdf(0.0) == 0.0
    assert m.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert m.tail(0.0) == pytest.approx(1.0, abs=1e-12)
    assert m.tail(1.0) == pytest.approx(math.exp(-1.0), rel=1e-10)
    with pytest.raises(ValidationError):
        m.cdf(-0.5)


def test_rayleigh_closed_vs_generic_transform():
    m = capacity_marginal(SPEC, Rayleigh())
    xs = np.linspace(0.0, 8.0, 200)
    assert np.max(np.abs(m.cdf(xs) - cdf_generic(m, xs))) < 1e-9
    # non-default sigma keeps the two paths consistent via the effective SNR
    m2 = capacity_marginal(SPEC, Rayleigh(sigma=1.3))
    assert np.max(np.abs(rayleigh_capacity_cdf(SPEC, Rayleigh(1.3), xs)
                         - cdf_generic(m2, xs))) < 1e-9


def test_rayleigh_cdf_against_gain_monte_carlo():
    # oracle: 1e7 Rayleigh gain samples pushed through the capacity map
    rng = np.random.default_rng(20177)
    gains = rng.rayleigh(1.0 / math.sqrt(2.0), 10_000_000)
    caps = np.log2(1.0 + gains ** 2)
    for x in (0.5, 1.0, 2.0):
        est = float(np.mean(caps <= x))
        se = math.sqrt(est * (1 - est) / caps.size)
        assert abs(capacity_marginal(SPEC, Rayleigh()).cdf(x) - est) <= 3 * se


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_cdf_monotone_and_tail_complement(model):
    m = capacity_marginal(SPEC, model)
    xs = np.linspace(0.0, 10.0, 300)
    cdf = m.cdf(xs)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert np.all((cdf >= 0) & (cdf <= 1))
    tails = m.tail(xs)
    assert np.all(np.diff(tails) <= 1e-12)
    np.testing.assert_allclose(tails, 1.0 - cdf, atol=1e-9)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_quantile_round_trip(model):
    m = capacity_marginal(SPEC, model)
    for p in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
        q = m.quantile(p)
        assert abs(m.cdf(q) - p) < 1e-8
    assert 0.0 < m.quantile(1e-9) < m.quantile(1e-4) < m.quantile(0.5)
    assert m.quantile(1e-9) < 0.05   # approaches 0 from above
    with pytest.raises(ValidationError):
        m.quantile(1.0)


def test_quantile_inverts_rayleigh_closed_form():
    assert capacity_marginal(SPEC, Rayleigh()).quantile(
        1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-10)


def test_cgf_zero_and_point_mass():
    assert capacity_marginal(SPEC, Rayleigh()).cgf(0.0) == 0.0
    pm = DiscreteDistribution.point_mass(1.7)
    assert pm.cgf(0.9) == pytest.approx(0.9 * 1.7, abs=1e-13)


def test_cgf_against_fixed_grid_trapezoid():
    # independent oracle: 1e6-node trapezoid on the clipped gain domain
    theta = 0.5
    r_hi = math.sqrt(-math.log(1e-12))
    r = np.linspace(0.0, r_hi, 1_000_000)
    integrand = np.exp(theta * np.log2(1.0 + r ** 2)) * 2.0 * r * np.exp(-r ** 2)
    oracle = math.log(np.trapezoid(integrand, r))
    assert capacity_marginal(SPEC, Rayleigh()).cgf(theta) == pytest.approx(
        oracle, abs=1e-6)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_cgf_convex_in_theta(model):
    m = capacity_marginal(SPEC, model)
    ths = np.linspace(-1.5, 2.0, 29)
    ks = np.array([m.cgf(t) for t in ths])
    assert np.all(np.isfinite(ks))
    assert np.min(np.diff(ks, 2)) >= -1e-7


# at theta = 40 every law's integrand still rises at the clip point, so the
# divergence probe answers +inf (kappa itself stays below the overflow guard)
DIVERGENT_THETA = 40.0
TWO_PART = FrequencySelective(((SPEC, Rayleigh()),
                               (ChannelSpec(2.0, 3.0), Nakagami(1.5))))


@pytest.mark.parametrize("model", ALL_MODELS + [TWO_PART],
                         ids=lambda m: type(m).__name__)
def test_cgf_and_moments_match_uncached_quadrature(model):
    m = capacity_marginal(SPEC, model)
    for theta in (-1.5, -0.3, 0.4, 2.0, DIVERGENT_THETA, -0.3, 0.4):
        assert m.cgf(theta) == fading_cgf_reference(m, theta)
    assert math.isinf(m.cgf(DIVERGENT_THETA))
    parts = m._parts if m.is_composite else [m]
    assert m.mean() == float(sum(fading_moment_reference(p, 1) for p in parts))
    assert m.var() == float(sum(fading_moment_reference(p, 2)
                                - fading_moment_reference(p, 1) ** 2
                                for p in parts))


@pytest.mark.parametrize("first", [Rayleigh(), TWO_PART],
                         ids=lambda m: type(m).__name__)
def test_cgf_quadrature_is_built_once_per_part(first, monkeypatch):
    import wnc.fading

    # the Gauss-Legendre rule is built once per process, by whichever
    # marginal needs it first; every part maps it onto its own slices
    second = TWO_PART if first is not TWO_PART else Rayleigh()
    calls = {"leggauss": 0, "logpdf": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(wnc.fading, "leggauss", counted("leggauss", wnc.fading.leggauss))
    wnc.fading._legendre_rule.cache_clear()
    marginals = [capacity_marginal(SPEC, model) for model in (first, second)]
    parts = [p for m in marginals for p in (m._parts if m.is_composite else [m])]
    # a frozen dataclass takes no per-instance attribute: patch each law's class
    for law in {type(p.model) for p in parts}:
        monkeypatch.setattr(law, "logpdf", counted("logpdf", law.logpdf))
    for m in marginals:
        for i in range(100):
            m.cgf(0.7 if i % 2 else -0.7)
    # one rule in all; one logpdf per part for its nodes, one for the probe
    assert calls == {"leggauss": 1, "logpdf": 2 * len(parts)}


@pytest.mark.parametrize("model", [Rayleigh(), TWO_PART],
                         ids=lambda m: type(m).__name__)
def test_moments_are_computed_once_per_marginal(model, monkeypatch):
    m = capacity_marginal(SPEC, model)
    parts = m._parts if m.is_composite else [m]
    calls = {"pdf": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["pdf"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for law in {type(p.model) for p in parts}:
        monkeypatch.setattr(law, "pdf", counted(law.pdf))
    first = (m.mean(), m.var())
    after_first = calls["pdf"]
    assert after_first == 2 * len(parts)       # E[C] and E[C^2] per part
    assert (m.mean(), m.var()) == first
    assert calls["pdf"] == after_first


@pytest.mark.parametrize("model,samples", [
    (Rayleigh(), 1_000_000), (Rice(1.0, 0.5), 1_000_000),
    (Nakagami(2.0), 1_000_000), (Weibull(1.0, 0.5), 1_000_000),
    (Lognormal(0.0, 1.0), 1_000_000),
], ids=["rayleigh", "rice", "nakagami", "weibull", "lognormal"])
def test_sampling_matches_cdf_ks(model, samples):
    m = capacity_marginal(SPEC, model)
    draws = m.sample(np.random.default_rng(42), samples)
    stat = stats.kstest(draws, m.cdf).statistic
    critical = math.sqrt(math.log(2.0 / 0.001) / (2.0 * samples))
    assert stat < critical


@pytest.mark.parametrize("w,gamma,sigma", [
    (1.0, 1.0, 1.0 / math.sqrt(2.0)), (2.5, 0.1, 1.3), (0.3, 40.0, 0.2)])
def test_rayleigh_inverse_into_matches_the_ppf_chain(w, gamma, sigma):
    m = capacity_marginal(ChannelSpec(w, gamma), Rayleigh(sigma))
    u = np.concatenate(([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
                        np.random.default_rng(11).random(100_000)))
    want = m._inverse_cdf(u)
    got = m._inverse_into(u, np.empty_like(u))
    np.testing.assert_array_max_ulp(got, want, maxulp=8)
    np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)
    # in place, as the slot streams call it
    np.testing.assert_array_equal(m._inverse_into(u.copy(), u), got)


@pytest.mark.parametrize("model", [Rayleigh(), Rayleigh(1.3), Nakagami(2.0)],
                         ids=["rayleigh", "rayleigh_sigma", "nakagami"])
def test_sample_is_sample_into_bit_for_bit(model):
    m = capacity_marginal(ChannelSpec(2.0, 3.0), model)
    want = m.sample(np.random.default_rng(8), 1_001)
    out = np.empty(1_001)
    assert m._sample_into(np.random.default_rng(8), out) is out
    np.testing.assert_array_equal(out, want)
    assert m.sample(np.random.default_rng(8)) == want[0]


def test_frequency_selective_single_subchannel_is_identity():
    fs = FrequencySelective(((SPEC, Rayleigh()),))
    xs = np.linspace(0.0, 6.0, 50)
    np.testing.assert_allclose(capacity_marginal(SPEC, fs).cdf(xs),
                               capacity_marginal(SPEC, Rayleigh()).cdf(xs),
                               atol=1e-12)


def test_frequency_selective_sum_against_monte_carlo():
    sub = ((ChannelSpec(1.0, 1.0), Rayleigh()),
           (ChannelSpec(2.0, 0.5), Nakagami(2.0)))
    fs = FrequencySelective(sub)
    m = capacity_marginal(SPEC, fs)
    draws = m.sample(np.random.default_rng(5), 400_000)
    for x in (1.0, 2.5, 4.0):
        est = float(np.mean(draws <= x))
        se = math.sqrt(est * (1 - est) / draws.size) + 1e-3  # grid resolution
        assert abs(m.cdf(x) - est) <= 3 * se
    assert m.cgf(0.7) == pytest.approx(
        capacity_marginal(*sub[0]).cgf(0.7) + capacity_marginal(*sub[1]).cgf(0.7),
        rel=1e-12)


def test_certificate_rayleigh_matches_paper_pair():
    # paper: tail <= e^{1/gamma} e^{-theta x} for theta <= e ln2 / (W gamma)
    theta_paper = math.e * math.log(2.0)
    cert = certify_light_tail(SPEC, Rayleigh(), 0.0, 8.0, 512, rate=theta_paper)
    assert cert.prefactor_a <= math.e * (1.0 + 1e-9)
    assert cert.max_violation <= 0.0
    found = certify_light_tail(SPEC, Rayleigh(), 0.0, 8.0, 512)
    assert found.rate_b >= theta_paper - 1e-6
    assert found.prefactor_a <= math.e * (1.0 + 1e-9)


def test_certificate_point_mass_rate_at_least_one():
    cert = certify_light_tail(None, DiscreteDistribution.point_mass(2.0),
                              0.0, 8.0, 64)
    assert cert.rate_b >= 1.0
    assert cert.max_violation <= 0.0


def test_certificate_heavy_tail_detected():
    # log H ~ N(0, 1e18): the capacity tail falls by a relative 1e-8 on
    # [1, 30] bits, slower than any rate above 1e-8 would need
    flat = capacity_marginal(SPEC, Lognormal(0.0, 1e9))
    with pytest.raises(HeavyTailError):
        certify_light_tail(None, flat, 1.0, 30.0, 64)


@pytest.mark.parametrize("law,x_lo,x_hi", [
    (DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5])), 0.0, 1.5),
    (DiscreteDistribution(np.array([0.05, 5000.0]), np.array([0.5, 0.5])), 0.1, 900.0),
])
def test_certificate_bounded_law_flat_to_the_right_edge(law, x_lo, x_hi):
    # the tail is flat on the whole range and drops at an atom beyond it:
    # a bounded law is light, and the prefactor cap e sets the rate
    cert = certify_light_tail(None, law, x_lo, x_hi, 64)
    assert cert.max_violation <= 0.0
    assert cert.prefactor_a <= math.e * (1.0 + 1e-9)
    assert cert.rate_b == pytest.approx((1.0 + math.log(2.0)) / x_hi, rel=1e-12)


def closed_form_sweep(n_cases=120):
    """Certificate inputs (spec, law, x_lo, x_hi, grid_n) from a fixed seed:
    lattice laws of 1-6 atoms on a 0.5 grid, some atoms with zero mass, and
    the gain laws with a concave capacity log tail at random W and gamma,
    on random fit ranges and grids; then fixed laws of the monotone cover,
    among them two heavy-tail verdicts."""
    rng = np.random.default_rng(11)
    cases = []
    for i in range(n_cases):
        if i % 4 == 0:
            n = int(rng.integers(1, 7))
            support = np.sort(rng.choice(np.arange(25) * 0.5, n, replace=False))
            mass = rng.random(n) * (rng.random(n) > 0.25)
            if mass.sum() == 0.0:
                mass[0] = 1.0
            spec, model = None, DiscreteDistribution(support, mass / mass.sum())
        else:
            spec = ChannelSpec(float(rng.uniform(0.5, 3.0)),
                               float(np.exp(rng.uniform(-1.0, 3.5))))
            model = (Rayleigh(float(rng.uniform(0.3, 1.5))),
                     Nakagami(float(rng.uniform(1.0, 4.0)),
                              float(rng.uniform(0.5, 2.0))),
                     Weibull(float(rng.uniform(0.5, 2.0)),
                             float(rng.uniform(2.0, 4.0))))[i % 4 - 1]
        x_hi = float(rng.uniform(0.5, 20.0))
        x_lo = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.7 * x_hi))
        cases.append((spec, model, x_lo, x_hi, int(rng.integers(16, 513))))
    return cases + [
        (SPEC, Rice(1.0, 0.5), 0.0, 4.0, 64),
        (SPEC, Lognormal(0.0, 0.5), 0.5, 8.0, 128),
        (SPEC, Weibull(1.0, 1.5), 0.0, 8.0, 16),
        (SPEC, Nakagami(0.5), 1.0, 6.0, 33),
        (SPEC, TWO_PART, 0.0, 8.0, 64),
        (SPEC, Lognormal(0.0, 1e9), 1.0, 30.0, 64),
        (ChannelSpec(1.33, 53.6), Rice(2.79, 0.289), 0.0, 4.8, 256),
    ]


def exact_rule(marginal, x_lo, x_hi, grid_n):
    """min(b_edge, b_top, 64) in exact rationals over the grid's float logs."""
    grid = np.linspace(x_lo, x_hi, grid_n)
    tails = marginal.tail(grid)
    x = [Fraction(v) for v in grid[tails > 0]]
    logs = [Fraction(v) for v in np.log(tails[tails > 0])]
    log_cap = Fraction(fading._EXP_OVERFLOW if marginal.support_max <= x_hi
                       else math.log(fading._PREFACTOR_CAP))
    rates = [Fraction(64)] + [(log_cap - l) / v for v, l in zip(x, logs) if v > 0]
    if x and not math.isfinite(marginal.support_max):
        rates.append(max((l - logs[-1]) / (x[-1] - v)
                         for v, l in zip(x[:-1], logs[:-1])))
    return min(rates)


SWEEP = closed_form_sweep()


@pytest.mark.parametrize("spec,model,x_lo,x_hi,grid_n", SWEEP, ids=[
    f"{i}-{type(case[1]).__name__}" for i, case in enumerate(SWEEP)])
def test_certificate_rate_is_the_closed_form_of_the_search(spec, model, x_lo,
                                                            x_hi, grid_n):
    try:
        ref_a, ref_b, lowered = light_tail_reference(spec, model, x_lo, x_hi,
                                                     grid_n)
    except HeavyTailError:
        with pytest.raises(HeavyTailError):
            certify_light_tail(spec, model, x_lo, x_hi, grid_n)
        return
    cert = certify_light_tail(spec, model, x_lo, x_hi, grid_n)
    marginal = fading._as_marginal(spec, model)
    if lowered:
        # the rate is the cover's b_cap, whatever ulps the input rate had
        assert (cert.prefactor_a, cert.rate_b) == (ref_a, ref_b)
    else:
        # the search rounds each score l_k + b x_k, which moves its boundary
        # by up to ~1300 ulps on such grids; the closed form is within two
        # ulps of the exact rule
        assert cert.rate_b == pytest.approx(ref_b, rel=1e-12, abs=0.0)
        assert cert.prefactor_a == pytest.approx(ref_a, rel=1e-11, abs=0.0)
        exact = exact_rule(marginal, x_lo, x_hi, grid_n)
        assert abs(Fraction(cert.rate_b) - exact) <= 2 * Fraction(
            math.ulp(cert.rate_b))
    fine = np.linspace(x_lo, x_hi, 20_001)
    assert np.all(marginal.tail(fine)
                  <= cert.prefactor_a * np.exp(-cert.rate_b * fine))


def test_certificate_closed_form_edge_cases():
    # one positive grid point: the Weibull(1, 3) tail underflows to 0 by
    # the second point, so no rate is defended on an unbounded law
    for certify in (certify_light_tail, light_tail_reference):
        with pytest.raises(HeavyTailError):
            certify(SPEC, Weibull(1.0, 3.0), 6.3, 12.0, 16)
    # no positive grid point: every rate is
    cert = certify_light_tail(SPEC, Weibull(1.0, 3.0), 7.0, 8.0, 16)
    assert (cert.prefactor_a, cert.rate_b, cert.max_violation) == (1e-300, 64.0, 0.0)
    assert light_tail_reference(SPEC, Weibull(1.0, 3.0), 7.0, 8.0, 16)[1] == 64.0


def test_certificate_prefactor_never_overflows_into_nan():
    law = DiscreteDistribution(np.array([0.0, 12.0]), np.array([0.5, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # support exhausted at 12 < 13: the cap is e^700, not infinity
        cert = certify_light_tail(None, law, 0.0, 13.0)
        assert cert.prefactor_a == math.exp(700.0) * (1.0 + 1e-12)
        assert cert.rate_b == pytest.approx((700.0 + math.log(2.0)) / 12.0,
                                            rel=1e-3)
        assert cert.max_violation <= 0.0
        # a given rate is not capped: an overflowing a covers everything
        given = certify_light_tail(SPEC, Weibull(1.0, 3.0), 0.0, 8.0, rate=760.0)
        assert (given.prefactor_a, given.max_violation) == (math.inf, -math.inf)


def minplus_tail(laws, x):
    """inf over sum u_i = x of sum P(C_i > u_i), capped at 1: the tail
    form of the Frechet lower bound."""
    return 1.0 - frechet_bounds(laws, x)[0]


def test_minplus_tail_identity_and_range():
    f = exponential_tail_law(1.2, 0.8)
    assert frechet_bounds([f], 2.0) == (float(f.cdf(2.0)), float(f.cdf(2.0)))
    xs = np.linspace(0.0, 6.0, 13)
    g = exponential_tail_law(1.0, 1.5)
    vals = [minplus_tail([f, g], x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValidationError):
        frechet_bounds([], 1.0)
    # a lattice law: the best splits sit on atoms (u = 2 at x = 4, u = 1 at
    # x = 3), and the lattice polish makes the bound exact there
    law = DiscreteDistribution(np.array([0.0, 1.0, 2.0]),
                               np.array([0.2, 0.5, 0.3]))
    assert frechet_bounds([law, law], 4.0) == (1.0, 1.0)
    assert frechet_bounds([law, law], 3.0)[0] == 0.7


@pytest.mark.parametrize("params", [
    (1.0, 1.0, 1.0, 2.0), (1.5, 0.7, 2.0, 1.3), (2.5, 2.0, 1.2, 0.5),
])
def test_minplus_two_exponentials_product_bound(params):
    a1, b1, a2, b2 = params
    f = exponential_tail_law(a1, b1)
    g = exponential_tail_law(a2, b2)
    w = 1.0 / b1 + 1.0 / b2
    for x in (0.5, 1.0, 3.0, 8.0):
        res = minplus_tail([f, g], x)
        closed = ((a1 * b1 * w) ** (1.0 / (b1 * w))
                  * (a2 * b2 * w) ** (1.0 / (b2 * w)) * math.exp(-x / w))
        assert res <= closed * (1.0 + 1e-9) + 1e-12


def test_certificate_covers_between_grid_points():
    # the cover must hold on all of [x_lo, x_hi], not only on its grid
    fine = np.linspace(0.0, 8.0, 200_001)
    cases = [(SPEC, Rayleigh(), {}),
             (SPEC, Rayleigh(), {"rate": math.e * math.log(2.0)}),
             (SPEC, Rayleigh(), {"rate": 0.5}),
             (SPEC, Nakagami(2.0), {}),
             (None, DiscreteDistribution.point_mass(2.0), {})]
    for spec, model, kw in cases:
        cert = certify_light_tail(spec, model, 0.0, 8.0, 256, **kw)
        tail = np.asarray(capacity_marginal(spec, model).tail(fine)
                          if spec is not None else model.tail(fine))
        assert np.all(tail <= cert.prefactor_a * np.exp(-cert.rate_b * fine))


# float.hex of (prefactor_a, rate_b, max_violation) of certify_light_tail
# on [0, x_hi] with the default 256-point grid.  The cover refines its cells
# in one fixed order, and that order decides the last bits of a.  Rayleigh
# and Nakagami(2) take the secant cover of a concave log tail; the others
# take the monotone cover.
CERTIFICATE_PINS = [
    (SPEC, Rayleigh(), 4.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.e258ecc1ec684p+0", "-0x1.89943fb000000p-26")),
    (SPEC, Rayleigh(), 8.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.e258ecc1ec684p+0", "-0x1.89943fb000000p-26")),
    (SPEC, Rice(1.0, 0.5), 4.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.6c1530f0ef8b4p+0", "-0x1.1f5c903200000p-21")),
    (SPEC, Rice(1.0, 0.5), 8.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.6c152873a053ep+0", "-0x1.0512d7ebc7e43p-15")),
    (SPEC, Nakagami(2.0), 4.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.e697747a2aba6p+0", "-0x1.413cd88038000p-17")),
    (SPEC, Nakagami(2.0), 8.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.e69774731e32fp+0", "-0x1.6b518eba4d013p-21")),
    (SPEC, Weibull(1.0, 1.5), 4.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.a37b14d845afap+0", "-0x1.1bf4f01688000p-19")),
    (SPEC, Weibull(1.0, 1.5), 8.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.a37b14d845afap+0", "-0x1.1fd8ef9500000p-19")),
    (SPEC, Lognormal(0.0, 0.5), 4.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.7f5d37fb304b8p+0", "-0x1.98c575d000000p-24")),
    (SPEC, Lognormal(0.0, 0.5), 8.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.7f5d37fb304b8p+0", "-0x1.98c575d000000p-24")),
    (None, DiscreteDistribution(np.array([0.0, 1.0, 2.5]),
                                np.array([0.2, 0.5, 0.3])), 2.0,
     ("0x1.5bf0a8b146f52p+1", "0x1.1a1bc7e5ed390p+0", "-0x1.51d0000000000p-42")),
    (None, DiscreteDistribution(np.array([0.0, 1.0, 2.5]),
                                np.array([0.2, 0.5, 0.3])), 4.0,
     ("0x1.1147eaa379f3cp+229", "0x1.0000000000000p+6", "-0x1.b2d4b26bb5cb6p-141")),
    (SPEC, TWO_PART, 8.0,
     ("0x1.5bf0a8b146f53p+1", "0x1.8d5fbdd365890p-2", "-0x1.669310f1c4000p-14")),
]


@pytest.mark.parametrize(
    "spec,model,x_hi,pinned", CERTIFICATE_PINS,
    ids=[f"{type(m).__name__}-{x_hi:g}" for _, m, x_hi, _ in CERTIFICATE_PINS])
def test_certificate_bits_are_pinned(spec, model, x_hi, pinned):
    cert = certify_light_tail(spec, model, 0.0, x_hi)
    assert (cert.prefactor_a.hex(), cert.rate_b.hex(),
            cert.max_violation.hex()) == pinned


# the secant cover of a concave log tail: the laws whose power has a
# log-concave survival function, and laws that lack it
CONCAVE_LAWS = [Rayleigh(), Rayleigh(0.3), Nakagami(1.0), Nakagami(2.0),
                Nakagami(4.0), Weibull(1.0, 2.0), Weibull(1.0, 3.0)]
NOT_CONCAVE_LAWS = [Nakagami(0.5), Weibull(1.0, 1.0), Weibull(1.0, 1.5),
                    Lognormal(0.0, 1.0)]
E_LN2 = math.e * math.log(2.0)


def log_tail_sup(marginal, rate_b, x_hi):
    """sup of log tail(x) + b x on [0, x_hi]: a 200001-point grid, then a
    20001-point grid over the two cells around its best point."""
    fine = np.linspace(0.0, x_hi, 200_001)
    with np.errstate(divide="ignore"):
        score = np.log(marginal.tail(fine)) + rate_b * fine
        i = int(np.argmax(score))
        near = np.linspace(fine[max(i - 1, 0)], fine[min(i + 1, fine.size - 1)],
                           20_001)
        return max(float(score[i]),
                   float(np.max(np.log(marginal.tail(near)) + rate_b * near)))


@pytest.mark.parametrize("rate", [None, E_LN2, 0.5])
@pytest.mark.parametrize("x_hi", [4.0, 8.0, 20.0])
@pytest.mark.parametrize("model", CONCAVE_LAWS, ids=repr)
def test_concave_cover_is_rigorous_and_tight(model, x_hi, rate):
    marginal = capacity_marginal(SPEC, model)
    assert marginal.log_concave_tail
    cert = certify_light_tail(SPEC, model, 0.0, x_hi, rate=rate)
    fine = np.linspace(0.0, x_hi, 200_001)
    assert np.all(marginal.tail(fine)
                  <= cert.prefactor_a * np.exp(-cert.rate_b * fine))
    if rate is None:
        # a searched rate is lowered until a meets the cap e, so the cover
        # itself is checked at that rate
        assert cert.prefactor_a == math.e * (1.0 + 1e-12)
        grid = np.linspace(0.0, x_hi, 256)
        log_a, _ = fading._concave_cover(marginal._tail_values, grid,
                                         marginal.tail(grid), cert.rate_b,
                                         math.inf)
    else:
        log_a = math.log(cert.prefactor_a)
    gap = log_a - log_tail_sup(marginal, cert.rate_b, x_hi)
    assert 0.0 <= gap <= fading._COVER_TOL + 1e-11


@pytest.mark.parametrize("x_lo,x_hi", [(1.43, 8.0), (0.0, 1.445)])
def test_concave_cover_with_the_peak_in_an_end_cell(x_lo, x_hi):
    # at b = e ln 2 the Rayleigh log tail + b x peaks at log2(e) = 1.4427,
    # inside the first cell of [1.43, 8] and the last cell of [0, 1.445]
    marginal = capacity_marginal(SPEC, Rayleigh())
    grid = np.linspace(x_lo, x_hi, 256)
    log_a, _ = fading._concave_cover(marginal._tail_values, grid,
                                     marginal.tail(grid), E_LN2, math.inf)
    near = np.linspace(1.44, 1.445, 200_001)
    gap = log_a - float(np.max(np.log(marginal.tail(near)) + E_LN2 * near))
    assert 0.0 <= gap <= fading._COVER_TOL + 1e-11


@pytest.mark.parametrize("x_hi", [4.0, 8.0])
def test_concave_cover_meets_rayleigh_closed_form(x_hi):
    # at W = gamma = 1, sup log tail(x) + b x = 1 - b/ln2 + (b/ln2) log(b/ln2),
    # which meets the cap log e at b = e ln 2
    cert = certify_light_tail(SPEC, Rayleigh(), 0.0, x_hi)
    assert E_LN2 - 1e-9 <= cert.rate_b <= E_LN2


@pytest.mark.parametrize("model,x_hi,parent_b", [
    (Rayleigh(), 4.0, "0x1.e258ecc170592p+0"),
    (Rayleigh(), 8.0, "0x1.e258ecc170592p+0"),
    (Nakagami(2.0), 4.0, "0x1.e697737ef0cffp+0"),
    (Nakagami(2.0), 8.0, "0x1.e697607956979p+0"),
])
def test_concave_cover_rate_never_below_monotone_cover(model, x_hi, parent_b):
    # the rates the monotone cover searched for these laws
    cert = certify_light_tail(SPEC, model, 0.0, x_hi)
    assert cert.rate_b >= float.fromhex(parent_b)


def test_concave_cover_reads_few_points(monkeypatch):
    read = []
    tail_values = FadingMarginal._tail_values

    def counted(self, x):
        read.append(np.size(x))
        return tail_values(self, x)

    monkeypatch.setattr(FadingMarginal, "_tail_values", counted)
    certify_light_tail(SPEC, Rayleigh(), 0.0, 8.0)
    # the monotone cover reads ~646k points here
    assert sum(read) - 256 <= 100


@pytest.mark.parametrize("rate", [760.0, 3000.0])
def test_concave_cover_where_the_tail_underflows(rate):
    # at these rates L + b x peaks where the Weibull(1, 3) tail is subnormal
    # (x ~ 6.4) or at the last point before it underflows to 0; there the
    # computed log tail is not concave, and a secant through a zero tail
    # reads -inf - -inf
    marginal = capacity_marginal(SPEC, Weibull(1.0, 3.0))
    grid = np.linspace(0.0, 8.0, 256)
    log_a, b_cap = fading._concave_cover(marginal._tail_values, grid,
                                         marginal.tail(grid), rate, math.inf)
    fine = np.linspace(0.0, 8.0, 200_001)
    with np.errstate(divide="ignore"):
        dense = np.max(np.log(marginal.tail(fine)) + rate * fine)
    assert math.isfinite(log_a) and log_a >= dense
    assert b_cap == math.inf


def second_differences(model, x_hi=8.0, n=8001):
    """Second differences of the computed log tail on n points of [0, x_hi],
    where all three points have a tail of at least 1e-300."""
    x = np.linspace(0.0, x_hi, n)
    tail = capacity_marginal(SPEC, model).tail(x)
    normal = (tail[:-2] >= 1e-300) & (tail[1:-1] >= 1e-300) & (tail[2:] >= 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.diff(np.log(tail), 2)[normal]


@pytest.mark.parametrize("model", CONCAVE_LAWS, ids=repr)
def test_flagged_laws_have_a_concave_log_tail(model):
    assert np.max(second_differences(model)) <= 1e-12


@pytest.mark.parametrize("model", NOT_CONCAVE_LAWS + [Rice(1.0, 0.5)], ids=repr)
def test_unflagged_laws_take_the_monotone_cover(model):
    assert not capacity_marginal(SPEC, model).log_concave_tail
    if not isinstance(model, Rice):
        # the gate is needed: these log tails bend upwards somewhere
        assert np.max(second_differences(model)) > 1e-6


def test_composite_laws_take_the_monotone_cover():
    assert not capacity_marginal(SPEC, TWO_PART).log_concave_tail
    single = FrequencySelective(((SPEC, Rayleigh()),))
    assert capacity_marginal(SPEC, single).log_concave_tail
