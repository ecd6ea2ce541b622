import math
from pathlib import Path

import numpy as np
import pytest

from wnc import (Additive, ArrivalSpec, HopChain, MarkovAdditive,
                 MarkovKernel, UnstableSystemError, ValidationError,
                 delay_tail, e2e_delay_bound, feedback_delay, lundberg_root)
from wnc import cli, interference
from wnc.distributions import DiscreteDistribution
from wnc.interference import feedback_delays

from conftest import additive_union_delay_bound


def test_feedback_additive_substitution_identity(two_point):
    proc = Additive(two_point)
    rep = feedback_delay(proc, ArrivalSpec(0.25), 10.0)
    base = lundberg_root(proc, ArrivalSpec(0.5)).theta_star
    assert rep.theta_star == pytest.approx(base, abs=1e-12)
    assert rep.value == pytest.approx(math.exp(-base * 0.25 * 10.0), abs=1e-12)
    assert rep.prefactor == 1.0


def test_feedback_additive_stability_and_degenerate(two_point):
    with pytest.raises(UnstableSystemError):
        feedback_delay(Additive(two_point), ArrivalSpec(0.6), 5.0)
    pm = Additive(DiscreteDistribution.point_mass(2.0))
    rep = feedback_delay(pm, ArrivalSpec(0.9), 5.0)
    assert rep.value == 0.0


def test_feedback_multiplier_one_matches_plain_bound(two_point, ge_kernel):
    # the grid holds points where theta * lambda * d rounds differently
    # from theta * (lambda * d)
    grid = [(0.5, 10.0)] + [(lam, d) for lam in (0.3, 0.35, 0.45, 0.55, 0.7)
                            for d in (3.0, 7.0, 11.0, 13.0)]
    for lam, d in grid:
        arrival = ArrivalSpec(lam)
        plain = delay_tail(Additive(two_point), arrival, d)[1]
        fb = feedback_delay(Additive(two_point), arrival, d,
                            multiplier=1.0, improved=True)
        assert fb.value == plain.value, (lam, d)
        assert fb.theta_star == plain.theta_star
        assert fb.prefactor == plain.prefactor
    marr = ArrivalSpec(1.0)
    mplain = delay_tail(MarkovAdditive(ge_kernel), marr, 10.0)[1]
    mfb = feedback_delay(MarkovAdditive(ge_kernel), marr, 10.0,
                         multiplier=1.0, improved=True)
    assert mfb.value == mplain.value


def test_feedback_markov_single_state_reduces(two_point):
    kernel = MarkovKernel.from_destination_laws(("s",), np.array([[1.0]]),
                                                [two_point])
    arrival = ArrivalSpec(0.25)
    add = feedback_delay(Additive(two_point), arrival, 10.0)
    mk = feedback_delay(MarkovAdditive(kernel), arrival, 10.0)
    assert mk.value == pytest.approx(add.value, abs=1e-12)
    with pytest.raises(UnstableSystemError):
        feedback_delay(MarkovAdditive(kernel), ArrivalSpec(0.6), 5.0)


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
        rep = feedback_delay(chain.hops[0], arrival, 10.0,
                             multiplier=float(chain.multiplier + 1))
        reports.append(rep)
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("k", [1, 2])
def test_shared_chain_e2e_bound_is_the_one_hop_bound(two_point, k):
    # one slot's capacity serves a shared chain, so only its first hop
    # queues; the multiplier 2 min(K, N) - 1 still counts every hop
    proc = Additive(two_point)
    arrival = ArrivalSpec(0.2)
    for n in (2, 4):
        chain = HopChain((proc,) * n, k, True)
        assert chain.queueing_hops == (proc,)
        rep = e2e_delay_bound(chain, arrival, 20.0)
        if k == 1:
            one_hop = e2e_delay_bound(HopChain((proc,)), arrival, 20.0)
            assert rep == one_hop
            assert rep.value == pytest.approx(0.0516, abs=5e-5)
        for th in (0.2, 0.3):
            direct = additive_union_delay_bound(
                proc, arrival, 100.0, th, multiplier=chain.multiplier)
            assert direct < 1.0
            assert e2e_delay_bound(chain, arrival, 100.0, th).value == \
                pytest.approx(direct, abs=1e-12)


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


def test_e2e_one_cgf_per_distinct_hop_marginal(two_point, monkeypatch):
    calls = []
    cgf = DiscreteDistribution.cgf

    def counted(self, theta):
        calls.append(theta)
        return cgf(self, theta)

    monkeypatch.setattr(DiscreteDistribution, "cgf", counted)
    arrival = ArrivalSpec(0.1)
    proc = Additive(two_point)
    shared = e2e_delay_bound(HopChain((proc,) * 3), arrival, 40.0)
    n_shared = len(calls)
    calls.clear()
    # three equal but distinct laws: the same search, one cgf per hop
    copies = tuple(Additive(DiscreteDistribution(two_point.support,
                                                 two_point.mass))
                   for _ in range(3))
    distinct = e2e_delay_bound(HopChain(copies), arrival, 40.0)
    assert shared == distinct and 0.0 < shared.value < 1.0
    assert n_shared > 0 and 3 * n_shared == len(calls)


def test_feedback_delays_equal_single_d_calls(two_point, ge_kernel):
    ds = [0.0, 2.0, 9.5]
    for proc, m in ((Additive(two_point), 2.0),
                    (MarkovAdditive(ge_kernel, "G"), 1.5),
                    (Additive(DiscreteDistribution.point_mass(2.0)), 2.0)):
        pairs = feedback_delays(proc, ArrivalSpec(0.3), ds, m)
        assert pairs == [tuple(feedback_delay(proc, ArrivalSpec(0.3), d,
                                              m, improved)
                               for improved in (False, True)) for d in ds]
    with pytest.raises(ValidationError):
        feedback_delays(Additive(two_point), ArrivalSpec(0.3), [1.0, -2.0])


# (process, multiplier) -> theta_star, (plain, improved) prefactor and
# (plain, improved) value at each d of _PINNED_D: recorded values, so that
# any change to the shared delay-report assembly shows here bit for bit
_PINNED_D = [0.0, 1.0, 5.0, 20.0]
_PINNED_FEEDBACK = {
    ("two_point", 1.0): (2.7564847416361182, (1.0, 1.0),
        [(1.0, 1.0), (0.5020170551781655, 0.5020170551781655),
         (0.031885435940112734, 0.031885435940112734),
         (1.0336403067801532e-06, 1.0336403067801532e-06)]),
    ("two_point", 2.0): (1.2187557268720124, (1.0, 1.0),
        [(1.0, 1.0), (0.7373527057603277, 0.7373527057603277),
         (0.2179597952653039, 0.2179597952653039),
         (0.002256864915340195, 0.002256864915340195)]),
    ("ge", 1.0): (0.5126883869157433, (2.305969186634519, 0.46889234060343693),
        [(1.0, 0.46889234060343693), (1.0, 0.3819531038871197),
         (0.8270619194995996, 0.1681735391374086),
         (0.038158526921785986, 0.007759098042610269)]),
    ("ge", 2.0): (0.19622960567652656, (1.4895449968193613, 0.6033881082366728),
        [(1.0, 0.6033881082366728), (1.0, 0.5578380996767056),
         (1.0, 0.40752464413223366),
         (0.3099432250263582, 0.12555247180096252)]),
    ("ge_B", 1.0): (0.5126883869157433, (4.917907559903564, 1.0),
        [(1.0, 1.0), (1.0, 0.8145859311661361), (1.0, 0.35866130575086624),
         (0.08138014554189177, 0.016547717611733143)]),
    ("ge_B", 2.0): (0.19622960567652656, (2.4686349904580864, 1.0),
        [(1.0, 1.0), (1.0, 0.9245096017999402), (1.0, 0.6753938941938615),
         (0.5136714177747537, 0.20807912865216072)]),
    ("zero", 1.0): (None, (1.0, 1.0),
        [(1.0, 1.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]),
    ("zero", 2.0): (None, (1.0, 1.0),
        [(1.0, 1.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]),
}


def test_feedback_delays_pinned_values(two_point, ge_kernel):
    zero = DiscreteDistribution(np.array([0.0, 1.0, 3.0]),
                                np.array([0.0, 0.5, 0.5]))
    cases = {"two_point": (Additive(two_point), 0.25),
             "ge": (MarkovAdditive(ge_kernel), 0.4),
             "ge_B": (MarkovAdditive(ge_kernel, "B"), 0.4),
             "zero": (Additive(zero), 0.45)}     # degenerate: floor 1
    for (name, m), (theta, prefs, values) in _PINNED_FEEDBACK.items():
        proc, lam = cases[name]
        pairs = feedback_delays(proc, ArrivalSpec(lam), _PINNED_D, m)
        for pair, want in zip(pairs, values):
            assert tuple(r.value for r in pair) == want, (name, m)
            assert tuple(r.prefactor for r in pair) == prefs, (name, m)
            assert all(r.theta_star == theta for r in pair), (name, m)


def test_interference_query_makes_one_ruin(monkeypatch):
    calls = []
    ruin = interference.ruin

    def counted(process, drain):
        calls.append(drain)
        return ruin(process, drain)
    monkeypatch.setattr(interference, "ruin", counted)
    repo = Path(__file__).resolve().parents[1]
    doc = cli.load_scenario(str(repo / "scenarios" / "gilbert_elliott.yaml"))
    doc["arrival"]["lambda_bits_per_slot"] = 0.3
    doc["queries"] = [{"kind": "interference", "d_slots": [5, 10, 20]}]
    rows, _ = cli.run_command("interference", doc)
    # plain and improved feedback rows at three d from one Lundberg root
    assert [row["d_slots"] for _, row in rows] == [5.0, 10.0, 20.0]
    assert all(0.0 < row["feedback_upper"] <= 1.0 for _, row in rows)
    assert len(calls) == 1
