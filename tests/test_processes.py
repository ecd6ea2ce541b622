import copy
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from wnc import (Additive, AntitheticPairing, ChannelSpec, Comonotonic,
                 MarkovAdditive, MarkovKernel, Nakagami, NumericFailure,
                 Rayleigh, ValidationError, Weibull,
                 capacity_marginal, cdf_bounds, comonotonic_cdf,
                 frechet_bounds, mgf_matrix, perron_frobenius)
from wnc import processes, solve
from wnc.cli import build_process, load_scenario
from wnc.distributions import DiscreteDistribution
from wnc.processes import (BoundReport, _grid_allocation, _spectral,
                           _Tilts, process_mean_rate)
from wnc.simulate import cumulative_capacity_samples

from conftest import (aperiodic_reference, assert_matrix_power_identity,
                      frechet_allocation_full_table, frechet_allocation_loop,
                      frechet_polish_reference, grid_exponent_min,
                      irreducible_reference, markov_sum_cdf,
                      nilpotent_reference, theta_grid)


def test_bound_report_validation():
    with pytest.raises(ValidationError):
        BoundReport("nonsense", 0.5, None, 1.0, 1.0)
    with pytest.raises(ValidationError):
        BoundReport("cdf_upper", 1.5, None, 1.0, 1.0)


def test_kernel_validation(ge_kernel):
    with pytest.raises(ValidationError):
        MarkovKernel.from_destination_laws(
            ("a", "b"), np.array([[0.5, 0.6], [0.2, 0.8]]), [1.0, 0.0])
    with pytest.raises(ValidationError):    # reducible
        MarkovKernel.from_destination_laws(
            ("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]), [1.0, 0.0])
    with pytest.raises(ValidationError):    # periodic
        MarkovKernel.from_destination_laws(
            ("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 0.0])
    np.testing.assert_allclose(ge_kernel.stationary, [2.0 / 3.0, 1.0 / 3.0],
                               atol=1e-12)
    assert ge_kernel.mean_rate() == pytest.approx(4.0 / 3.0, abs=1e-12)


def cycle_with_self_loop(n, loop):
    """The n-cycle 0 -> 1 -> ... -> 0 with a self-loop of weight loop on 0."""
    p = np.roll(np.eye(n), 1, axis=1)
    p[0, :2] = loop, 1.0 - loop
    return p


def wielandt(n):
    """The n-cycle with a chord n-1 -> 1: P^m > 0 first at m = (n - 1)^2 + 1."""
    p = np.roll(np.eye(n), 1, axis=1)
    p[-1, :2] = 0.5
    return p


@pytest.mark.parametrize("transition", [
    np.array([[1e-200, 1.0 - 1e-200, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
    cycle_with_self_loop(11, 1e-31),
    cycle_with_self_loop(12, 1e-31),
    wielandt(5),
    wielandt(12),
], ids=["3-state-1e-200", "11-cycle-1e-31", "12-cycle-1e-31", "wielandt-5",
        "wielandt-12"])
def test_aperiodic_kernel_constructs(transition):
    # a short cycle makes each kernel aperiodic.  Powers of the float matrix
    # lose a cycle through a tiny entry to underflow, the zero pattern does
    # not; and the Wielandt kernels need all (n - 1)^2 + 1 steps
    n = len(transition)
    kernel = MarkovKernel.from_destination_laws(
        tuple(range(n)), transition, [float(i % 3) for i in range(n)])
    assert kernel.transition.shape == (n, n)


@pytest.mark.parametrize("transition", [
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.roll(np.eye(3), 1, axis=1),
    cycle_with_self_loop(12, 0.0),
    # period 2: every cycle alternates between {0, 1} and {2, 3}
    np.array([[0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.3, 0.7],
              [0.4, 0.6, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
])
def test_periodic_kernel_is_rejected(transition):
    n = len(transition)
    with pytest.raises(ValidationError, match="aperiodic"):
        MarkovKernel.from_destination_laws(
            tuple(range(n)), transition, [float(i) for i in range(n)])


def _patterns():
    """Every 2x2 and 3x3 zero pattern, then 400 random 4-8-state ones of
    density 0.1-0.7 (fixed seed); half of those keep only the edges from
    each of k = 2 or 3 classes to the next, so many are periodic, plus
    sometimes one edge that may break the period."""
    for n in (2, 3):
        for bits in range(2 ** (n * n)):
            yield (bits >> np.arange(n * n) & 1).astype(bool).reshape(n, n)
    rng = np.random.default_rng(27)
    for _ in range(400):
        n = int(rng.integers(4, 9))
        pattern = rng.random((n, n)) < rng.uniform(0.3, 0.9)
        if rng.random() < 0.5:
            k = int(rng.integers(2, 4))
            cls = rng.integers(0, k, n)
            pattern &= (cls[None, :] - cls[:, None]) % k == 1
            if rng.random() < 0.5:
                pattern[tuple(rng.integers(0, n, 2))] = True
        yield pattern


def _verdict(transition):
    n = len(transition)
    try:
        MarkovKernel.from_destination_laws(tuple(range(n)), transition,
                                           [1.0] * n)
    except ValidationError as exc:
        return str(exc)
    return "accepted"


def test_pattern_tests_agree_with_the_float_forms():
    # the clipped squarings decide as the float walk counts did, which are
    # exact on these sizes: the kernel's verdict, and the domain test on
    # the pattern carrying random positive weights
    rng = np.random.default_rng(2027)
    seen = set()
    for pattern in _patterns():
        weights = np.where(pattern, rng.uniform(0.05, 1.0, pattern.shape), 0.0)
        rows = weights.sum(axis=1, keepdims=True)
        transition = weights / np.where(rows > 0, rows, 1.0)
        if not pattern.any(axis=1).all():
            expected = "transition rows must be probabilities summing to 1"
        elif not irreducible_reference(pattern):
            expected = "transition matrix must be irreducible"
        elif not aperiodic_reference(pattern):
            expected = "transition matrix must be aperiodic"
        else:
            expected = "accepted"
        assert _verdict(transition) == expected, pattern.astype(int)
        assert (processes._nilpotent(weights)
                == nilpotent_reference(weights)), pattern.astype(int)
        seen.add((min(pattern.shape[0], 4), expected,
                  nilpotent_reference(weights)))
    # every verdict and both domain answers occur for 2, 3 and 4-8 states
    verdicts = {"accepted", "transition matrix must be irreducible",
                "transition matrix must be aperiodic",
                "transition rows must be probabilities summing to 1"}
    for n in (2, 3, 4):
        assert {v for m, v, _ in seen if m == n} == verdicts
        assert {nil for m, _, nil in seen if m == n} == {True, False}


def test_dense_200_state_kernel_constructs():
    # a float (P > 0) + I to the 200th power counts 201^200 walks, which
    # overflows; the clipped squarings count none
    rng = np.random.default_rng(200)
    p = rng.uniform(0.1, 1.0, (200, 200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = MarkovKernel.from_destination_laws(
            tuple(range(200)), p / p.sum(axis=1, keepdims=True),
            [float(i % 4) for i in range(200)])
    assert kernel.transition.shape == (200, 200)


def test_reducible_300_state_kernel_is_rejected_as_reducible():
    # two dense 150-state blocks and one link from the first into the
    # second: the second is closed, so nothing leads back.  A float walk
    # count overflows into NaN here, which passes as reachable, and then
    # the kernel reads as periodic
    rng = np.random.default_rng(300)
    p = np.zeros((300, 300))
    p[:150, :150] = rng.uniform(0.1, 1.0, (150, 150))
    p[150:, 150:] = rng.uniform(0.1, 1.0, (150, 150))
    p[0, 150] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="must be irreducible"):
            MarkovKernel.from_destination_laws(
                tuple(range(300)), p / p.sum(axis=1, keepdims=True),
                [1.0] * 300)


def test_underflowed_200_state_domain_test_is_warning_free():
    # at theta = -1000 the mgf e^{-2000} of the 2-bit states underflows, so
    # F[theta] loses half its columns and the cycle test runs on a dense
    # 100-column pattern, whose float walk count overflows
    rng = np.random.default_rng(201)
    p = rng.uniform(0.1, 1.0, (200, 200))
    p /= p.sum(axis=1, keepdims=True)
    kernel = MarkovKernel.from_destination_laws(
        tuple(range(200)), p, [0.5] * 100 + [2.0] * 100)
    upper = np.triu(np.ones((200, 200)), 1)
    back = upper.copy()
    back[-1, 0] = 1e-300                # one cycle through every state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa, h = _spectral(MarkovAdditive(kernel), -1000.0)
        assert processes._nilpotent(upper)
        assert not processes._nilpotent(back)
    rho = max(np.linalg.eigvals(p[:100, :100]).real)
    assert kappa == pytest.approx(-500.0 + math.log(rho), rel=1e-12)
    assert h.shape == (200,)


def test_perron_frobenius_rejects_an_underflowed_eigenvector():
    # F[theta] of the near-reducible kernel at a tilt lundberg_root probes:
    # its Perron root 6.6e-312 is subnormal, and h underflows to 0 in the
    # power steps, so pi . h = 0 and normalising would divide 0 by 0
    m = np.array([[6.616261056707e-312, 4.377491037053051e-223, 0.0],
                  [0.0, 0.0, 0.0], [6.616261056709485e-112, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match=r"pi \. h = 0\.0"):
            perron_frobenius(m, np.full(3, 1.0 / 3.0))


# ---------------------------------------------------------------------------
# comonotonic closed form


def test_comonotonic_cdf_identities(two_point, unit_spec):
    proc = Comonotonic(two_point)
    assert comonotonic_cdf(proc, 1, 1.0) == two_point.cdf(1.0)
    assert comonotonic_cdf(proc, 2, 2.6) == two_point.cdf(1.3)
    ray = Comonotonic(capacity_marginal(unit_spec, Rayleigh()))
    assert comonotonic_cdf(ray, 5, 5.0) == pytest.approx(
        1.0 - math.exp(-1.0), abs=1e-12)
    with pytest.raises(ValidationError):
        comonotonic_cdf(ray, 0, 1.0)


# ---------------------------------------------------------------------------
# Frechet envelopes


def test_frechet_single_marginal_degenerate(uniform_law):
    lo, up = frechet_bounds([uniform_law], 0.3)
    assert lo == up == pytest.approx(uniform_law.cdf(0.3))
    with pytest.raises(ValidationError):
        frechet_bounds([uniform_law] * 9, 1.0)      # desk scale is t <= 8
    with pytest.raises(ValidationError):
        frechet_bounds([], 1.0)


def test_frechet_two_uniforms_against_bruteforce(uniform_law):
    x = 1.0
    lo, up = frechet_bounds([uniform_law, uniform_law], x)
    # oracle: 1e4-point allocation scan plus the atoms, where the sup of a
    # lattice law is attained (safe directions: grid-max <= sup, grid-min
    # >= inf)
    us = np.union1d(np.linspace(0.0, x, 10_000), uniform_law.support)
    sums = uniform_law.cdf(us) + uniform_law.cdf(x - us)
    assert lo <= max(0.0, float(np.max(sums)) - 1.0) + 1e-9
    assert up >= min(1.0, float(np.min(sums))) - 1e-9
    # the envelope contains the comonotonic value and the independent value
    assert lo - 1e-12 <= uniform_law.cdf(0.5) <= up + 1e-12          # = 0.5
    assert lo - 1e-12 <= 0.5 <= up + 1e-12                           # indep sum


def test_frechet_contains_compatible_processes(uniform_law):
    proc_add = Additive(uniform_law)
    for t in (2, 3, 4):
        for x in (0.3 * t, 0.5 * t, 0.8 * t):
            lo, up = frechet_bounds([uniform_law] * t, x)
            como = uniform_law.cdf(x / t)
            assert lo - 1e-9 <= como <= up + 1e-9
            add_lo, add_up = cdf_bounds(proc_add, t, x)
            # both intervals contain the true additive CDF
            assert add_lo.value <= up + 1e-9
            assert lo - 1e-9 <= add_up.value


@pytest.mark.parametrize("law_name", ["two_point", "rayleigh", "three_atom"])
@pytest.mark.parametrize("t", [2, 3, 8])
def test_frechet_grid_allocation_matches_cell_loop(law_name, t, two_point,
                                                   rayleigh_marginal):
    laws = {"two_point": two_point, "rayleigh": rayleigh_marginal,
            "three_atom": DiscreteDistribution(np.array([0.0, 1.0, 2.5]),
                                               np.array([0.2, 0.5, 0.3]))}
    law = laws[law_name]
    for x in (0.4 * t, 0.9 * t):
        grid = np.linspace(0.0, x, 257)
        fvals = [np.asarray(law.cdf(grid), dtype=float)] * t
        for sign in (+1.0, -1.0):
            assert (_grid_allocation(fvals, grid, sign)
                    == frechet_allocation_loop(fvals, grid, sign))


@pytest.mark.parametrize("n", [17, 33, 257, 300])
@pytest.mark.parametrize("t", [2, 3, 8])
def test_frechet_grid_allocation_matches_full_table(n, t, two_point,
                                                    rayleigh_marginal):
    # row blocks of the candidate table pick what the whole table picks,
    # also with a different law for each marginal
    laws = [two_point, rayleigh_marginal,
            DiscreteDistribution(np.array([0.0, 1.0, 2.5]),
                                 np.array([0.2, 0.5, 0.3]))]
    for x in (0.4 * t, 0.9 * t):
        grid = np.linspace(0.0, x, n)
        for shift in range(3):
            fvals = [np.asarray(laws[(k + shift) % 3].cdf(grid), dtype=float)
                     for k in range(t)]
            for sign in (+1.0, -1.0):
                assert (_grid_allocation(fvals, grid, sign)
                        == frechet_allocation_full_table(fvals, grid, sign))


# ---------------------------------------------------------------------------
# additive Chernoff bounds


def test_additive_bounds_brute_force_theta(two_point):
    proc = Additive(two_point)
    t, x = 10, 4.0
    lo, up = cdf_bounds(proc, t, x)
    # oracle: dense theta scan of the lower-tail exponent
    ths = np.linspace(1e-6, 30.0, 100_000)
    kneg = np.log(0.5 + 0.5 * np.exp(-2.0 * ths))
    brute_up = float(np.min(np.exp(t * kneg + ths * x)))
    assert up.value == pytest.approx(min(1.0, brute_up), abs=1e-6)
    # upper-tail side drives the cdf lower bound
    kpos = np.log(0.5 + 0.5 * np.exp(2.0 * ths))
    brute_tail = float(np.min(np.exp(t * kpos - ths * x)))
    assert 1.0 - lo.value == pytest.approx(min(1.0, brute_tail), abs=1e-6)
    assert lo.theta_star > 0 and up.theta_star > 0


def test_additive_bounds_vacuous_and_certain(two_point):
    proc = Additive(two_point)
    lo, up = cdf_bounds(proc, 5, 10.5)   # x above t * max support
    assert lo.value == up.value == 1.0
    # from the support edge on S(5) <= x surely: both sides are exact (the
    # Chernoff search alone saturated at 1 - P(S = 10) = 1 - 0.5**5 there)
    lo_edge, up_edge = cdf_bounds(proc, 5, 10.0)
    assert lo_edge.value == up_edge.value == 1.0
    assert lo_edge.theta_star is None and up_edge.theta_star is None
    lo2, up2 = cdf_bounds(proc, 5, 5.0)  # x at the mean: both vacuous
    assert lo2.value == 0.0
    assert up2.value == 1.0


def _three_state_chain():
    return MarkovAdditive(MarkovKernel.from_destination_laws(
        ("a", "b", "c"), np.array([[0.56, 0.01, 0.43], [0.05, 0.08, 0.87],
                                   [0.2, 0.3, 0.5]]), [2.0, 3.0, 4.0]))


@pytest.mark.parametrize("make, t, x", [
    (_three_state_chain, 5, 7.0),           # raised ZeroDivisionError
    (_three_state_chain, 5, 9.0),
    (_three_state_chain, 5, 9.99),          # reported an upper bound of 0.187
    (lambda: MarkovAdditive(MarkovKernel.from_destination_laws(
        ("G", "B"), np.array([[0.9, 0.1], [0.2, 0.8]]), [2.0, 1.0])),
     5, 4.99),                              # reported an upper bound of 0.676
])
def test_cdf_bounds_below_the_support_are_exactly_zero(make, t, x):
    lo, up = cdf_bounds(make(), t, x)
    assert lo.value == up.value == 0.0
    assert lo.theta_star is None and up.theta_star is None


def test_cdf_bounds_ends_compare_exactly():
    # 10 * 0.1 rounds down to 1.0, below the exact product
    low = Additive(DiscreteDistribution(np.array([0.1, 0.3]), np.array([0.5, 0.5])))
    lo, up = cdf_bounds(low, 10, 1.0)
    assert lo.value == up.value == 0.0
    high = Additive(DiscreteDistribution(np.array([0.0, 0.1]), np.array([0.5, 0.5])))
    lo, up = cdf_bounds(high, 10, 1.0)      # S = 10 * 0.1 > 1 with mass 2^-10
    assert lo.theta_star is not None and lo.value <= 1.0 - 0.5 ** 10 + 1e-9
    lo, up = cdf_bounds(high, 10, math.nextafter(1.0, 2.0))
    assert lo.value == up.value == 1.0


def test_cdf_bounds_ends_read_only_possible_transitions():
    # the transition a -> a never happens, so its law's atom 0 is no floor
    zero, one = (DiscreteDistribution.point_mass(v) for v in (0.0, 1.0))
    laws = ((zero, one),
            (DiscreteDistribution.point_mass(2.0),
             DiscreteDistribution.point_mass(1.5)))
    proc = MarkovAdditive(MarkovKernel(("a", "b"), np.array([[0.0, 1.0], [0.5, 0.5]]),
                                       laws))
    assert cdf_bounds(proc, 2, 1.99)[1].value == 0.0
    assert cdf_bounds(proc, 2, 4.0)[0].value == 1.0
    assert cdf_bounds(proc, 2, 2.0)[0].theta_star is not None
    # a fading capacity has support (0, inf): no end is ever exact
    ray = Additive(capacity_marginal(ChannelSpec(1.0, 1.0), Rayleigh()))
    assert all(rep.theta_star is not None for rep in cdf_bounds(ray, 8, 0.0))


def test_additive_sandwich_on_simulated_cdf(two_point):
    proc = Additive(two_point)
    t = 12
    samples = cumulative_capacity_samples(proc, t, 200_000, seed=3)
    for x in (6.0, 9.0, 12.0, 15.0, 18.0):
        lo, up = cdf_bounds(proc, t, x)
        p = float(np.mean(samples <= x))
        se = math.sqrt(max(p * (1 - p), 1e-9) / samples.size)
        assert lo.value - 3 * se <= p <= up.value + 3 * se


# ---------------------------------------------------------------------------
# Markov-additive machinery


def test_mgf_matrix_values(ge_kernel):
    np.testing.assert_allclose(mgf_matrix(ge_kernel, 0.0), ge_kernel.transition,
                               atol=0.0)
    m = mgf_matrix(ge_kernel, 1.0)
    e2 = math.exp(2.0)
    np.testing.assert_allclose(m, [[0.9 * e2, 0.1], [0.2 * e2, 0.8]], rtol=1e-14)
    single = MarkovKernel.from_destination_laws(("s",), np.array([[1.0]]), [1.5])
    np.testing.assert_allclose(mgf_matrix(single, 0.7),
                               [[math.exp(0.7 * 1.5)]], rtol=1e-14)


def test_perron_frobenius_stochastic_matrix(ge_kernel):
    kappa, h = perron_frobenius(ge_kernel.transition, ge_kernel.stationary)
    assert math.exp(kappa) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(h, np.ones(2), atol=1e-9)


def test_perron_frobenius_closed_form_2x2(ge_kernel):
    for th in (0.3, 0.7, -0.5, 1.4):
        m = mgf_matrix(ge_kernel, th)
        a, b = m[0, 0], m[0, 1]
        c, d = m[1, 0], m[1, 1]
        lam = 0.5 * ((a + d) + math.sqrt((a - d) ** 2 + 4 * b * c))
        kappa, h = _spectral(MarkovAdditive(ge_kernel), th)
        assert math.exp(kappa) == pytest.approx(lam, abs=1e-10)
        assert float(ge_kernel.stationary @ h) == pytest.approx(1.0, abs=1e-12)
        resid = np.max(np.abs(m @ h - lam * h))
        assert resid < 1e-9 * max(lam, 1.0)


def test_perron_frobenius_rejects_negative_entries():
    with pytest.raises(ValidationError):
        perron_frobenius(np.array([[1.0, -0.1], [0.2, 1.0]]), np.ones(2) / 2)


def test_matrix_power_identity_2_and_3_state(ge_kernel):
    three = MarkovKernel.from_destination_laws(
        ("a", "b", "c"),
        np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]),
        [DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.3, 0.7])),
         DiscreteDistribution.point_mass(2.0),
         DiscreteDistribution(np.array([0.5, 1.5]), np.array([0.5, 0.5]))])
    for kernel in (ge_kernel, three):
        assert_matrix_power_identity(
            kernel, [(t, theta) for theta in (0.4, -0.6) for t in range(1, 11)])


def test_kernel_cgf_convex(ge_kernel):
    proc = MarkovAdditive(ge_kernel)
    ths = np.linspace(-1.2, 1.2, 25)
    ks = np.array([_spectral(proc, t)[0] for t in ths])
    assert np.min(np.diff(ks, 2)) >= -1e-7
    assert _spectral(proc, 0.0)[0] == 0.0


def test_markov_bounds_single_state_reduce_to_additive(two_point):
    kernel = MarkovKernel.from_destination_laws(("s",), np.array([[1.0]]),
                                                [two_point])
    mproc = MarkovAdditive(kernel)
    aproc = Additive(two_point)
    for t, x in ((5, 4.0), (10, 14.0)):
        alo, aup = cdf_bounds(aproc, t, x)
        mlo, mup = cdf_bounds(mproc, t, x)
        assert mlo.value == pytest.approx(alo.value, abs=1e-12)
        assert mup.value == pytest.approx(aup.value, abs=1e-12)
        assert mlo.prefactor == pytest.approx(1.0, abs=1e-12)


def test_markov_bounds_sandwich_simulated(ge_kernel):
    t = 50
    for init in ("G", "B"):
        start = MarkovAdditive(ge_kernel, init)
        samples = cumulative_capacity_samples(start, t, 100_000, seed=11)
        for x in (50.0, 60.0, 70.0, 80.0):
            lo, up = cdf_bounds(start, t, x)
            p = float(np.mean(samples <= x))
            se = math.sqrt(max(p * (1 - p), 1e-9) / samples.size)
            assert lo.value - 3 * se <= p <= up.value + 3 * se
    # tail upper bound 1 - lower vs MC
    proc = MarkovAdditive(ge_kernel)
    samples = cumulative_capacity_samples(proc, t, 100_000, seed=12)
    for x in (70.0, 80.0):
        lo, _ = cdf_bounds(proc, t, x)
        p = float(np.mean(samples >= x))
        se = math.sqrt(max(p * (1 - p), 1e-9) / samples.size)
        assert p <= 1.0 - lo.value + 3 * se


def test_markov_self_check_runs(ge_kernel):
    # the matrix-power probe on the bounded kernel: F_t[theta] = F[theta]^t
    rng = np.random.default_rng(20_1711)
    assert_matrix_power_identity(
        ge_kernel, [(int(rng.integers(2, 5)), float(rng.uniform(-0.8, 0.8)))
                    for _ in range(3)])
    lo, up = cdf_bounds(MarkovAdditive(ge_kernel), 5, 6.0)
    assert 0.0 <= lo.value <= up.value <= 1.0


def test_antithetic_pair_sum_law(two_point, uniform_law):
    pair = AntitheticPairing(two_point).pair_sum_law
    np.testing.assert_allclose(pair.support, [2.0])
    u_pair = AntitheticPairing(uniform_law).pair_sum_law
    assert u_pair.mean() == pytest.approx(2 * uniform_law.mean(), abs=1e-9)
    assert u_pair.var() < 1e-6      # antithetic uniforms sum to ~1


def test_rayleigh_pair_sum_law_matches_scalar_quantiles(rayleigh_marginal):
    # the pair-sum law built from one scalar quantile call per grid midpoint
    n = 8192
    mids = (np.arange(n) + 0.5) / n
    vals = np.array([rayleigh_marginal.quantile(u)
                     + rayleigh_marginal.quantile(1.0 - u) for u in mids])
    uniq, inv = np.unique(vals, return_inverse=True)
    mass = np.zeros_like(uniq)
    np.add.at(mass, inv, np.full(n, 1.0 / n))
    pair = AntitheticPairing(rayleigh_marginal).pair_sum_law
    np.testing.assert_array_equal(pair.support, uniq)
    np.testing.assert_array_equal(pair.mass, mass / mass.sum())


def test_perron_frobenius_near_periodic():
    # eigenvalues +-rho of equal modulus: a dense solve needs no spectral gap
    pi = np.array([0.5, 0.5])
    for eps in (0.0, 1e-13, 1e-8):
        m = np.array([[eps, 2.0], [0.5, eps]])
        kappa, h = perron_frobenius(m, pi)
        lam = eps + 1.0
        assert math.exp(kappa) == pytest.approx(lam, rel=1e-14)
        np.testing.assert_allclose(m @ h, lam * h, rtol=1e-14)
        assert np.all(h > 0)
        assert float(pi @ h) == pytest.approx(1.0)
    # period 3: eigenvalues rho * (cube roots of unity)
    cyc = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 1.0], [1.0 / 3.0, 1e-12, 0.0]])
    kappa, h = perron_frobenius(cyc, np.ones(3) / 3)
    assert abs(kappa) < 1e-11
    assert np.max(np.abs(cyc @ h - math.exp(kappa) * h)) < 1e-12


def test_kernel_cgf_reports_nilpotent_underflow_as_outside_domain(full_kernel):
    # F[-theta] -> [[0, 0], [0.12, 0]] once exp underflows: rho = 0 exactly
    proc = MarkovAdditive(full_kernel)
    assert _spectral(proc, -1000.0)[0] < 0
    assert _spectral(proc, -1600.0) == (math.inf, None)
    # the eigenvector keeps entries far below eps relative to its largest
    for th in (40.0, 200.0, -200.0):
        kappa, h = _spectral(proc, th)
        m = mgf_matrix(full_kernel, th)
        np.testing.assert_allclose(m @ h, math.exp(kappa) * h, rtol=1e-12)


def test_mgf_matrix_evaluates_one_mgf_per_law(ge_kernel, full_kernel,
                                              monkeypatch):
    calls = []
    mgf = DiscreteDistribution.mgf

    def counted(law, theta):
        calls.append(law)
        return mgf(law, theta)

    monkeypatch.setattr(DiscreteDistribution, "mgf", counted)
    for kernel, n_laws in ((ge_kernel, 2), (full_kernel, 4)):
        assert len(kernel.laws) == n_laws
        calls.clear()
        m = mgf_matrix(kernel, 0.8)
        assert len(calls) == n_laws
        n = len(kernel.states)
        np.testing.assert_array_equal(m, [
            [kernel.transition[i, j] * mgf(kernel.increments[i][j], 0.8)
             for j in range(n)] for i in range(n)])
    # an mgf overflows: the tilt lies outside the domain
    assert _spectral(MarkovAdditive(full_kernel), 400.0) == (math.inf, None)


@pytest.mark.parametrize("t,x", [(10, 8.0), (10, 12.0), (10, 16.0), (4, 5.0)])
def test_full_transition_kernel_cdf_sandwich(full_kernel, t, x):
    lo, up = cdf_bounds(MarkovAdditive(full_kernel), t, x)
    exact = markov_sum_cdf(full_kernel, t, x)
    assert lo.value <= exact <= up.value


# ---------------------------------------------------------------------------
# the bracketed searches against the grid searches they replaced


def _ge(p, q):
    return MarkovAdditive(MarkovKernel.from_destination_laws(
        ("G", "B"), np.array([[1.0 - p, p], [q, 1.0 - q]]), [2.0, 0.0]))


def _grid_cdf_bounds(process, t, x):
    """(lower, upper) Chernoff values from the 200-point grid search."""
    tilts = _Tilts(process)

    def terms(th):
        k, h, weight = tilts[th]
        return k, 1.0 if h is None else weight / float(min(h))

    def kappa(th):
        return terms(th)[0]

    def exponent(sign):
        def fn(th):
            k, pf = terms(-sign * th)
            return math.inf if not np.isfinite(k) else t * k + sign * th * x + math.log(pf)
        return fn

    _, e_up = grid_exponent_min(exponent(+1), theta_grid(lambda th: kappa(-th)))
    _, e_lo = grid_exponent_min(exponent(-1), theta_grid(kappa))
    return (min(1.0, max(0.0, -math.expm1(min(e_lo, 709.0)))),
            min(1.0, math.exp(min(e_up, 709.0))))


def _chernoff_cases():
    two_point = DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    rayleigh = capacity_marginal(ChannelSpec(1.0, 1.0), Rayleigh())
    laws = ((DiscreteDistribution(np.array([1.0, 3.0]), np.array([0.5, 0.5])),
             DiscreteDistribution.point_mass(0.5)),
            (DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.3, 0.7])),
             DiscreteDistribution.point_mass(1.0)))
    full = MarkovAdditive(MarkovKernel(("a", "b"), np.array([[0.7, 0.3], [0.4, 0.6]]),
                                       laws))
    # shipped and benchmark (t, x): default/two_point t = 8, x in [2, 14];
    # rayleigh t = 8, x in [2, 10]; Gilbert-Elliott t = 10, x in [6, 18]
    cases = [("two_point", Additive(two_point), 8, x) for x in (2, 4, 8, 12, 14)]
    cases += [("rayleigh", Additive(rayleigh), 8, x) for x in (2, 6, 10)]
    cases += [("gilbert_elliott", _ge(0.1, 0.2), 10, x) for x in (6, 8, 13, 18)]
    cases += [("ge_slow_1e-3", _ge(1e-3, 2e-3), 2000, x) for x in (533, 1600, 3733)]
    cases += [("full_kernel", full, 10, x) for x in (8, 12, 16)]
    cases.append(("full_kernel", full, 4, 5))
    return [pytest.param(p, t, x, id=f"{name}-t{t}-x{x}") for name, p, t, x in cases]


@pytest.mark.parametrize("process, t, x", _chernoff_cases())
def test_chernoff_search_never_worse_than_grid(process, t, x):
    lo, up = cdf_bounds(process, t, float(x))
    grid_lo, grid_up = _grid_cdf_bounds(process, t, float(x))
    # 1e-12 relative, plus the rounding of the exponent t kappa (kappa, the
    # log of an eigenvalue or of a sum, carries a few eps absolute): at
    # t = 2000 the slow chain's exponent scatters by ~5e-13 between
    # neighbouring thetas, so the grid can land on a lower rounding error
    noise = 4.0 * t * np.finfo(float).eps
    assert up.value <= grid_up * (1.0 + 1e-12) * math.exp(noise)
    assert lo.value >= grid_lo * (1.0 - 1e-12) - (1.0 - grid_lo) * noise
    for rep in (lo, up):
        assert rep.diagnostics is not None and rep.diagnostics.evaluations < 80


@pytest.mark.parametrize("t", [2, 3, 8])
def test_frechet_never_looser_than_continuous_polish(rayleigh_marginal, t):
    two_point = DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    three_atom = DiscreteDistribution(np.array([0.0, 1.0, 3.0]),
                                      np.array([0.2, 0.5, 0.3]))
    for law in (two_point, three_atom, rayleigh_marginal):
        for x in (0.5, 1.0, 2.5, 4.0, 7.0):
            lo, up = frechet_bounds([law] * t, x)
            ref_lo, ref_up = frechet_polish_reference([law] * t, x)
            assert lo >= ref_lo and up <= ref_up
    # mixed lattice and continuous marginals take the scalar search
    mixed = [two_point, rayleigh_marginal, three_atom][: max(t, 2)]
    lo, up = frechet_bounds(mixed, 2.0)
    ref_lo, ref_up = frechet_polish_reference(mixed, 2.0)
    assert lo >= ref_lo and up <= ref_up


def _frechet_laws(rayleigh_marginal):
    """(law, top of its x range per slot): three lattice and three fading laws."""
    spec = rayleigh_marginal.spec
    return [
        (DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5])), 2.0),
        (DiscreteDistribution(np.array([0.0, 1.0, 3.0]),
                              np.array([0.2, 0.5, 0.3])), 3.0),
        (DiscreteDistribution(np.array([0.5, 3.0]), np.array([0.9, 0.1])), 3.0),
        (rayleigh_marginal, 4.0),
        (capacity_marginal(spec, Nakagami(0.5)), 4.0),
        (capacity_marginal(spec, Weibull(1.0, 1.0)), 4.0),
    ]


@pytest.mark.parametrize("t", [2, 3, 5, 8])
def test_frechet_memo_matches_unshared_copies(rayleigh_marginal, t):
    # t references to one law share their splits and may take the hull
    # certificate; t deep copies share neither, so every pair of them runs
    # the full search: the two must agree to the bit
    for law, top in _frechet_laws(rayleigh_marginal):
        copies = [copy.deepcopy(law) for _ in range(t)]
        xs = {0.5, 1.6, 2.4, 6.0, *(t * top * np.linspace(0.1, 1.1, 11))}
        if t == 8 and top == 2.0:
            # the two-point lower side is decided up to x ~ 11.9 only
            xs |= {12.0, 12.5, 13.0, 13.9}
        for x in sorted(xs):
            assert frechet_bounds([law] * t, x) == frechet_bounds(copies, x), x


@pytest.mark.parametrize("t", [2, 3, 5, 8])
def test_frechet_hulls_bound_every_split(rayleigh_marginal, t):
    # Jensen: for every split of x into t shares, t G_(x/t) <= sum F(u_i)
    # <= t G^(x/t), up to the rounding of the float sums
    rng = np.random.default_rng(21)
    for law, top in _frechet_laws(rayleigh_marginal):
        for x in t * top * np.array([0.1, 0.3, 0.5, 0.7, 0.9, 1.1]):
            grid = np.linspace(0.0, x, processes._FRECHET_BUDGET_CELLS + 1)
            hi, lo = processes._frechet_hulls(law, grid, law.cdf(grid), t)
            shares = x * rng.dirichlet(np.full(t, 0.5), size=2000)
            sums = law.cdf(shares.ravel()).reshape(shares.shape).sum(axis=1)
            assert lo - 1e-12 <= sums.min() and sums.max() <= hi + 1e-12, x


def test_frechet_certificate_skips_the_search(rayleigh_marginal, monkeypatch):
    two_point = DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    sides = []
    allocate = processes._grid_allocation

    def counted(fvals, grid, sign):
        sides.append(sign)
        return allocate(fvals, grid, sign)

    monkeypatch.setattr(processes, "_grid_allocation", counted)
    for x in (4.0, 8.0):
        assert frechet_bounds([two_point] * 8, x) == (0.0, 1.0)
    assert sides == []
    # Rayleigh has F(0) = 0, so only its lower side is decided at x = 6
    lower, upper = frechet_bounds([rayleigh_marginal] * 8, 6.0)
    assert lower == 0.0 and sides == [-1.0]
    # one law passed as distinct objects searches both sides
    sides.clear()
    assert frechet_bounds([two_point] * 7 + [copy.deepcopy(two_point)],
                          4.0) == (0.0, 1.0)
    assert sides == [1.0, -1.0]


def test_frechet_solves_each_split_once(rayleigh_marginal, monkeypatch):
    budgets = []
    minimize = solve.minimize

    def counted(fn, lo, hi, tol):
        budgets.append(hi)
        return minimize(fn, lo, hi, tol)

    monkeypatch.setattr(solve, "minimize", counted)
    # the hull certificate decides neither side here (the lower is above 0,
    # and F(0) = 0 leaves the upper to the search), so both sides search:
    # 20 distinct (budget, side) splits among the 2 x 2 x 10 the polish meets
    lower, upper = frechet_bounds([rayleigh_marginal] * 5, 8.0)
    assert 0.0 < lower and upper == 1.0
    assert len(budgets) == len(set(budgets)) == 20


REPO = Path(__file__).resolve().parents[1]
SHIPPED = sorted([*(REPO / "scenarios").glob("*.yaml"),
                  *(REPO / "bench" / "scenarios").glob("*.yaml")])


@pytest.mark.parametrize("path", SHIPPED,
                         ids=[f"{p.parent.name}/{p.stem}" for p in SHIPPED])
def test_trivial_chernoff_side_equals_full_search(path, monkeypatch):
    """At x <= t E[C] the lower side and at x >= t E[C] the upper side is
    evaluated once, at the floor of the theta range: value, theta_star and
    prefactor equal those of the full search on every shipped scenario's
    bounds and validate grids, and on x around t E[C]."""
    doc = load_scenario(str(path))
    proc = build_process(doc)
    lam = doc["arrival"]["lambda_bits_per_slot"]
    cases = []
    for q in doc["queries"]:
        if q["kind"] in ("bounds", "validate"):
            t = q.get("t_slots", 10)
            xs = q.get("x_grid_bits") or [0.6 * t * lam, t * lam, 1.4 * t * lam]
            cases += [(t, float(x)) for x in xs]
    for t in (1, 8, 10):
        mean_sum = t * process_mean_rate(proc)
        cases += [(t, f * mean_sum) for f in (0.25, 0.9, 1.0, 1.1, 2.0)]
    fast = [cdf_bounds(proc, t, x) for t, x in cases]
    monkeypatch.setattr(processes, "_trivial_side", solve.minimize_convex)
    full = [cdf_bounds(proc, t, x) for t, x in cases]
    trivial = 0
    for (t, x), (lo, up), ref in zip(cases, fast, full):
        assert (lo, up) == ref, (t, x)
        for rep in (lo, up):
            if rep.diagnostics is None:     # an exact support end: no search
                trivial += 1
                assert rep.theta_star is None and rep.value in (0.0, 1.0)
            elif rep.diagnostics.evaluations == 1:
                trivial += 1
                assert rep.theta_star == solve.CONVEX_FLOOR
                assert rep.value == (0.0 if rep.kind == "cdf_lower" else 1.0)
    # each (t, x) has at least one trivial side
    assert trivial >= len(cases)


SHIPPED_CHANNELS = [p for p in SHIPPED if "channel" in load_scenario(str(p))]


@pytest.mark.parametrize("path", SHIPPED_CHANNELS,
                         ids=[f"{p.parent.name}/{p.stem}" for p in SHIPPED_CHANNELS])
def test_frechet_certificate_equals_full_search(path, monkeypatch):
    """On every shipped scenario with one marginal, on its bounds grid and
    on x around t E[C], a side the hull certificate decides equals the full
    search's, and the certificate decides at least one side."""
    doc = load_scenario(str(path))
    law = build_process(doc).marginal
    cases = [(q.get("t_slots", 10), float(x)) for q in doc["queries"]
             if q["kind"] == "bounds" for x in q.get("x_grid_bits", [1.0])]
    for t in (2, 5, 8):
        cases += [(t, f * t * law.mean()) for f in (0.25, 0.9, 1.0, 1.1, 2.0)]
    cases = [(t, x) for t, x in cases if t <= 8]
    hulls = processes._frechet_hulls
    decided = 0

    def counted(law, grid, f, t):
        nonlocal decided
        hi, lo = hulls(law, grid, f, t)
        decided += ((hi <= t - 1 - processes._HULL_MARGIN)
                    + (lo >= 1.0 + processes._HULL_MARGIN))
        return hi, lo

    monkeypatch.setattr(processes, "_frechet_hulls", counted)
    fast = [frechet_bounds([law] * t, x) for t, x in cases]
    monkeypatch.setattr(processes, "_frechet_hulls",
                        lambda *args: (math.inf, -math.inf))
    full = [frechet_bounds([law] * t, x) for t, x in cases]
    assert fast == full
    assert decided >= 1
