import math

import numpy as np
import pytest
from scipy import stats

from wnc import (Additive, AntitheticPairing, ArrivalSpec, Comonotonic,
                 HopChain, MarkovAdditive, MarkovKernel, ValidationError)
from wnc.distributions import DiscreteDistribution
from wnc.simulate import (SimConfig, cumulative_capacity_samples,
                          empirical_delay_tails, feedback_queue,
                          lindley_queue, sample_capacity_trace, substream,
                          tandem_queue)


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(seed=1, runs=0, horizon=10)
    with pytest.raises(ValidationError):
        SimConfig(seed=1, runs=1, horizon=10, warmup=10)
    cfg = SimConfig(seed=1, runs=1, horizon=100)
    assert cfg.warmup == 10 and cfg.window == 90


def test_trace_reproducible_and_structured(two_point, ge_kernel):
    proc = Additive(two_point)
    t1 = sample_capacity_trace(proc, 64, substream(9, 0))
    t2 = sample_capacity_trace(proc, 64, substream(9, 0))
    np.testing.assert_array_equal(t1, t2)
    como = sample_capacity_trace(Comonotonic(two_point), 64, substream(9, 1))
    assert np.all(como == como[0])
    pm = sample_capacity_trace(Additive(DiscreteDistribution.point_mass(1.5)),
                               16, substream(9, 2))
    assert np.all(pm == 1.5)
    mk = sample_capacity_trace(MarkovAdditive(ge_kernel), 64, substream(9, 3))
    assert set(np.unique(mk)) <= {0.0, 2.0}
    anti = sample_capacity_trace(AntitheticPairing(two_point), 64,
                                 substream(9, 4))
    np.testing.assert_allclose(anti[0::2] + anti[1::2], 2.0)


def test_single_state_markov_matches_iid(two_point):
    kernel = MarkovKernel.from_destination_laws(("s",), np.array([[1.0]]),
                                                [two_point])
    m = cumulative_capacity_samples(MarkovAdditive(kernel), 16, 50_000, seed=3)
    a = cumulative_capacity_samples(Additive(two_point), 16, 50_000, seed=4)
    # distributional equality at the 99.9% KS level
    stat = stats.ks_2samp(m, a).statistic
    critical = 1.9495 * math.sqrt(2.0 / 50_000)
    assert stat < critical


def test_lindley_recursion_basics():
    backlog, delay = lindley_queue(1.0, np.full(10, 2.0))
    assert np.all(backlog == 0.0)
    backlog, delay = lindley_queue(1.0, np.zeros(10))
    np.testing.assert_allclose(backlog, np.arange(11.0))
    np.testing.assert_allclose(delay, backlog)
    with pytest.raises(ValidationError):
        lindley_queue(0.0, np.ones(5))


def test_lindley_against_dual_formulation(two_point):
    # oracle: B(t) = max over s <= t of sum_{i=s+1..t} (lambda - C(i))
    trace = sample_capacity_trace(Additive(two_point), 200, substream(77, 0))
    lam = 0.5
    backlog, _ = lindley_queue(lam, trace)
    walk = np.concatenate(([0.0], np.cumsum(lam - trace)))
    for t in (0, 1, 50, 137, 200):
        oracle = walk[t] - np.min(walk[: t + 1])
        assert backlog[t] == pytest.approx(oracle, abs=1e-12)


def test_empirical_delay_tail_basics(two_point):
    pm = Additive(DiscreteDistribution.point_mass(2.0))
    cfg = SimConfig(seed=5, runs=2_000, horizon=100)
    est, est0 = empirical_delay_tails(pm, ArrivalSpec(1.0), [3.0, 0.0], cfg)
    assert est.point == 0.0 and est.stderr == 0.0
    assert est0.point == 1.0     # P(D >= 0) = 1 by convention
    proc = Additive(two_point)
    est2, = empirical_delay_tails(proc, ArrivalSpec(0.5), [2.0], cfg)
    assert 0.0 <= est2.point <= 1.0
    assert est2.stderr == pytest.approx(
        math.sqrt(est2.point * (1 - est2.point) / cfg.runs), abs=1e-12)


def test_estimates_bit_reproducible(two_point, ge_kernel):
    cfg = SimConfig(seed=6, runs=30_000, horizon=200)
    for proc in (Additive(two_point), MarkovAdditive(ge_kernel),
                 Comonotonic(two_point), AntitheticPairing(two_point)):
        arr = ArrivalSpec(0.5)
        a = empirical_delay_tails(proc, arr, [1.0, 5.0], cfg)
        b = empirical_delay_tails(proc, arr, [1.0, 5.0], cfg)
        assert a == b
    f1 = feedback_queue(Additive(two_point), ArrivalSpec(0.25), cfg, [2, 5])
    f2 = feedback_queue(Additive(two_point), ArrivalSpec(0.25), cfg, [2, 5])
    assert f1 == f2


def test_comonotonic_cumulative_matches_closed_form(two_point, unit_spec):
    from wnc import Rayleigh, capacity_marginal
    ray = capacity_marginal(unit_spec, Rayleigh())
    t = 7
    samples = cumulative_capacity_samples(Comonotonic(ray), t, 100_000, seed=8)
    stat = stats.kstest(samples, lambda x: ray.cdf(np.asarray(x) / t)).statistic
    critical = math.sqrt(math.log(2.0 / 0.001) / (2.0 * samples.size))
    assert stat < critical


def test_feedback_queue_sanity(two_point):
    # capacity floor above the doubled load: work clears in-slot, no delay
    floor = DiscreteDistribution(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    cfg = SimConfig(seed=10, runs=5_000, horizon=200)
    ests = feedback_queue(Additive(floor), ArrivalSpec(0.25), cfg, [1, 5])
    assert all(e.point == 0.0 for e in ests)
    proc = Additive(two_point)
    # 2*lambda above the mean: backlog grows linearly, tails go to 1
    unstable = feedback_queue(proc, ArrivalSpec(0.75),
                              SimConfig(seed=10, runs=2_000, horizon=400),
                              [5])[0]
    assert unstable.point > 0.95


def test_feedback_conservation_mirror(two_point):
    # explicit scalar mirror of the two-class recursion: departures never
    # exceed offered capacity or accumulated arrivals (debug-run invariant)
    rng = substream(123, 3, 0)
    caps = sample_capacity_trace(Additive(two_point), 300, rng)
    lam = 0.25
    b_flow = b_echo = dep_prev = 0.0
    cum_in_flow = cum_out_flow = 0.0
    for c in caps:
        b_echo += dep_prev
        dep_echo = min(b_echo, c)
        b_echo -= dep_echo
        b_flow += lam
        cum_in_flow += lam
        dep_flow = min(b_flow, c - dep_echo)
        b_flow -= dep_flow
        dep_prev = dep_flow
        cum_out_flow += dep_flow
        assert dep_echo + dep_flow <= c + 1e-12
        assert cum_out_flow <= cum_in_flow + 1e-12
        assert b_flow >= -1e-12 and b_echo >= -1e-12


def test_tandem_single_hop_matches_walk_estimator(two_point):
    proc = Additive(two_point)
    arrival = ArrivalSpec(0.5)
    chain = HopChain((proc,), 1, False)
    cfg = SimConfig(seed=12, runs=150_000, horizon=400)
    tq = tandem_queue(chain, arrival, cfg, [2, 5])
    walk = empirical_delay_tails(proc, arrival,
                                 [2, 5], SimConfig(seed=13, runs=150_000,
                                                   horizon=400, warmup=0),
                                 strict=True)
    for a, b in zip(tq, walk):
        assert abs(a.point - b.point) <= 3 * math.hypot(a.stderr, b.stderr) + 1e-3


def test_tandem_deterministic_hops_zero_delay():
    pm = DiscreteDistribution.point_mass(3.0)
    chain = HopChain((Additive(pm), Additive(pm)), 2, False)
    # effective capacity 3 - (2*2-2)*0.5 = 2 > lambda: no queueing
    cfg = SimConfig(seed=14, runs=2_000, horizon=100)
    ests = tandem_queue(chain, ArrivalSpec(0.5), cfg, [1, 3])
    assert all(e.point == 0.0 for e in ests)
