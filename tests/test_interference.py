import math

import numpy as np
import pytest

from wnc import (Additive, ArrivalSpec, BivariateTrace, HopChain,
                 MarkovAdditive, MarkovKernel, UnstableSystemError,
                 ValidationError, delay_tail_additive, delay_tail_markov,
                 e2e_delay_bound, feedback_delay_additive,
                 feedback_delay_markov, lundberg_root, minplus_convolve,
                 single_hop_leftover)
from wnc.distributions import DiscreteDistribution
from wnc.simulate import sample_capacity_trace

from conftest import additive_union_delay_bound


def brute_minplus(f, g):
    n = f.horizon + 1
    out = np.zeros((n, n))
    for s in range(n):
        for t in range(s, n):
            out[s, t] = min(f.values[s, u] + g.values[u, t]
                            for u in range(s, t + 1))
    return out


def test_bivariate_trace_invariants():
    with pytest.raises(ValidationError):
        BivariateTrace(np.array([[0.0, 1.0], [0.0, 1.0]]))  # nonzero diagonal
    tr = BivariateTrace.from_increments([1.0, 2.0, 3.0])
    assert tr[0, 3] == 6.0
    assert tr[1, 2] == 2.0
    assert tr[2, 2] == 0.0


def test_minplus_constant_rate_identity():
    c = BivariateTrace.constant_rate(1.5, 10)
    out = minplus_convolve(c, c)
    mask = np.isfinite(out.values)
    np.testing.assert_allclose(out.values[mask], c.values[mask], atol=1e-12)


def test_minplus_zero_diagonal_majorant():
    rng = np.random.default_rng(7)
    f = BivariateTrace.from_increments(rng.uniform(0, 2, 10))
    g = BivariateTrace.from_increments(rng.uniform(0, 2, 10))
    out = minplus_convolve(f, g)
    # g(t,t) = 0 and g >= 0 imply f (x) g <= f
    mask = np.isfinite(out.values)
    assert np.all(out.values[mask] <= f.values[mask] + 1e-12)


def test_minplus_associative_against_bruteforce():
    rng = np.random.default_rng(11)
    f = BivariateTrace.from_increments(rng.uniform(0, 2, 12))
    g = BivariateTrace.from_increments(rng.uniform(0, 2, 12))
    h = BivariateTrace.from_increments(rng.uniform(0, 2, 12))
    left = minplus_convolve(minplus_convolve(f, g), h)
    right = minplus_convolve(f, minplus_convolve(g, h))
    mask = np.isfinite(left.values)
    np.testing.assert_allclose(left.values[mask], right.values[mask], atol=0)
    np.testing.assert_allclose(minplus_convolve(f, g).values[mask],
                               brute_minplus(f, g)[mask], atol=0)


def test_minplus_monotone():
    rng = np.random.default_rng(13)
    inc = rng.uniform(0, 2, 10)
    f = BivariateTrace.from_increments(inc)
    f2 = BivariateTrace.from_increments(inc + 0.5)
    g = BivariateTrace.from_increments(rng.uniform(0, 2, 10))
    a = minplus_convolve(f, g)
    b = minplus_convolve(f2, g)
    mask = np.isfinite(a.values)
    assert np.all(a.values[mask] <= b.values[mask] + 1e-12)
    with pytest.raises(ValidationError):
        minplus_convolve(f, BivariateTrace.constant_rate(1.0, 5))


def test_single_hop_leftover_cases():
    s = BivariateTrace.constant_rate(2.0, 8)
    none = single_hop_leftover(s, np.zeros(9))
    mask = np.isfinite(s.values)
    np.testing.assert_allclose(none.values[mask], s.values[mask], atol=0)
    # arrivals equal to the full service leave nothing
    a_full = np.array([s.values[0, t] for t in range(9)])
    drained = single_hop_leftover(s, a_full)
    assert np.all(drained.values[mask] == 0.0)
    # rate 2 minus rate 0.5 leaves rate 1.5
    half = single_hop_leftover(s, 0.5 * np.arange(9.0))
    expected = BivariateTrace.constant_rate(1.5, 8)
    np.testing.assert_allclose(half.values[mask], expected.values[mask],
                               atol=1e-12)
    with pytest.raises(ValidationError):
        single_hop_leftover(s, np.array([0.0, 1.0, 0.5] + [2.0] * 6))


def test_subadditivity_of_reduced_additive_service(two_point):
    # S(t) - lambda t built from an additive trace is subadditive (equality)
    trace = sample_capacity_trace(Additive(two_point), 30,
                                  np.random.default_rng(3))
    lam = 0.4
    tr = BivariateTrace.from_increments(trace - lam)
    v = tr.values
    for s in range(0, 31, 5):
        for u in range(s, 31, 5):
            for t in range(u, 31, 5):
                assert v[s, t] <= v[s, u] + v[u, t] + 1e-12


def test_feedback_additive_substitution_identity(two_point):
    proc = Additive(two_point)
    rep = feedback_delay_additive(proc, ArrivalSpec(0.25), 10.0)
    base = lundberg_root(proc, ArrivalSpec(0.5)).theta_star
    assert rep.theta_star == pytest.approx(base, abs=1e-12)
    assert rep.value == pytest.approx(math.exp(-base * 0.25 * 10.0), abs=1e-12)
    assert rep.prefactor == 1.0


def test_feedback_additive_stability_and_degenerate(two_point):
    with pytest.raises(UnstableSystemError):
        feedback_delay_additive(Additive(two_point), ArrivalSpec(0.6), 5.0)
    pm = Additive(DiscreteDistribution.point_mass(2.0))
    rep = feedback_delay_additive(pm, ArrivalSpec(0.9), 5.0)
    assert rep.value == 0.0


def test_feedback_multiplier_one_matches_plain_bound(two_point, ge_kernel):
    arrival = ArrivalSpec(0.5)
    plain = delay_tail_additive(Additive(two_point), arrival, 10.0)[1]
    fb = feedback_delay_additive(Additive(two_point), arrival, 10.0,
                                 multiplier=1.0, improved=True)
    assert fb.value == plain.value
    assert fb.theta_star == plain.theta_star
    assert fb.prefactor == plain.prefactor
    marr = ArrivalSpec(1.0)
    mplain = delay_tail_markov(MarkovAdditive(ge_kernel), marr, 10.0)[1]
    mfb = feedback_delay_markov(MarkovAdditive(ge_kernel), marr, 10.0,
                                multiplier=1.0, improved=True)
    assert mfb.value == mplain.value


def test_feedback_markov_single_state_reduces(two_point):
    kernel = MarkovKernel.from_destination_laws(("s",), np.array([[1.0]]),
                                                [two_point])
    arrival = ArrivalSpec(0.25)
    add = feedback_delay_additive(Additive(two_point), arrival, 10.0)
    mk = feedback_delay_markov(MarkovAdditive(kernel), arrival, 10.0)
    assert mk.value == pytest.approx(add.value, abs=1e-12)
    with pytest.raises(UnstableSystemError):
        feedback_delay_markov(MarkovAdditive(kernel), ArrivalSpec(0.6), 5.0)


def test_multihop_reduction(two_point):
    proc = Additive(two_point)
    shared = HopChain((proc,) * 3, 1, True)
    assert shared.multiplier == 1 and shared.shared_channel
    assert shared.hops[0] is proc
    capped = HopChain((proc, proc), 5, False)
    assert capped.effective_k == 2
    assert capped.multiplier == 3
    assert len(capped.hops) == 2


def test_shared_channel_bound_invariant_in_hop_count(two_point):
    arrival = ArrivalSpec(0.25)
    reports = []
    for n in (1, 2, 5):
        chain = HopChain((Additive(two_point),) * n, 1, True)
        rep = feedback_delay_additive(chain.hops[0], arrival, 10.0,
                                      multiplier=float(chain.multiplier + 1))
        reports.append(rep)
    assert reports[0] == reports[1] == reports[2]


def test_e2e_single_hop_equals_direct_union(two_point):
    proc = Additive(two_point)
    arrival = ArrivalSpec(0.25)
    chain = HopChain((proc,), 1, False)
    for th in (0.4, 0.8, 1.1):
        rep = e2e_delay_bound(chain, arrival, 20.0, th)
        direct = additive_union_delay_bound(proc, arrival, 20.0, th,
                                            multiplier=1)
        assert rep.value == pytest.approx(direct, abs=1e-12)


def test_e2e_identical_hops_generating_function_oracle(two_point,
                                                       rayleigh_marginal):
    proc = Additive(two_point)
    arrival = ArrivalSpec(0.2)
    for n_hops, th, d in ((2, 0.9, 30.0), (3, 0.8, 40.0)):
        chain = HopChain((proc,) * n_hops, 1, False)
        rep = e2e_delay_bound(chain, arrival, d, th)
        w = math.exp(two_point.cgf(-th) + 2.0 * th * arrival.lam)
        oracle = math.exp(-th * arrival.lam * d) / (1.0 - w) ** n_hops
        assert rep.value == pytest.approx(min(1.0, oracle), rel=1e-9)
    # heterogeneous hops and K = 2 against the segmentation sum itself:
    # sum_t sum_{a+b=t} e^{a k_1 + b k_2} e^{theta lambda (t - d)}
    three_point = DiscreteDistribution(np.array([0.0, 1.0, 3.0]),
                                       np.array([0.3, 0.4, 0.3]))
    arrival = ArrivalSpec(0.1)
    for laws, k, th, d in (((two_point, three_point), 1, 1.2, 30.0),
                           ((two_point, three_point), 2, 1.2, 40.0),
                           ((three_point, rayleigh_marginal), 2, 2.0, 20.0),
                           ((two_point, rayleigh_marginal), 1, 2.0, 20.0)):
        chain = HopChain(tuple(Additive(law) for law in laws), k, False)
        rep = e2e_delay_bound(chain, arrival, d, th)
        k1, k2 = (law.cgf(-th) + th * chain.multiplier * arrival.lam
                  for law in laws)
        total, t = 0.0, 0
        while True:
            term = sum(math.exp(a * k1 + (t - a) * k2
                                + th * arrival.lam * (t - d))
                       for a in range(t + 1))
            total += term
            if t > 0 and term < 1e-17 * total:
                break
            t += 1
        assert total < 1.0
        assert rep.value == pytest.approx(total, rel=1e-9)


def test_e2e_divergence_verdicts(two_point):
    proc = Additive(two_point)
    chain = HopChain((proc, proc), 1, False)
    arrival = ArrivalSpec(0.2)
    # w(theta) = (1 + e^{-2 theta}) e^{0.4 theta} / 2 is below 1 exactly on
    # (0, 1.65...): the verdict flips there, and nowhere else
    for th, diverges in ((1e-5, False), (1.6, False), (1.7, True), (3.0, True)):
        w = 0.5 * (1.0 + math.exp(-2.0 * th)) * math.exp(0.4 * th)
        assert (w >= 1.0) == diverges
        rep = e2e_delay_bound(chain, arrival, 30.0, th)
        assert ("diverges" in rep.notes) == diverges
        if diverges or th < 1.0:
            assert rep.value == 1.0
    unstable = e2e_delay_bound(chain, ArrivalSpec(0.6), 30.0, 0.5)
    assert "diverges" in unstable.notes
    everywhere = e2e_delay_bound(chain, ArrivalSpec(0.6), 30.0)
    assert "diverges" in everywhere.notes and everywhere.value == 1.0


def test_e2e_grid_optimization_beats_fixed_theta(two_point):
    proc = Additive(two_point)
    arrival = ArrivalSpec(0.2)
    chain = HopChain((proc, proc), 1, False)
    best = e2e_delay_bound(chain, arrival, 40.0)
    assert best.value < 1.0
    for th in (0.5, 1.0, 1.4):
        fixed = e2e_delay_bound(chain, arrival, 40.0, th)
        assert best.value <= fixed.value + 1e-12
