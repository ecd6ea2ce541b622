from pathlib import Path

import numpy as np
import pytest

from wnc import (Additive, AntitheticPairing, ArrivalSpec, Comonotonic,
                 ValidationError, adjustment_ordering, cli, cx_order,
                 icx_order, st_order)
from wnc.distributions import DiscreteDistribution
from wnc.ordering import (SampleSet, adjustment_coefficient,
                          delay_ordering_check, stop_loss_curve)
from wnc.simulate import (SimConfig, cumulative_capacity_samples,
                          empirical_delay_tails)

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


def _adjustment(proc_a, proc_b, arrival, runs, probe_t=16, seed=0):
    """adjustment_ordering judged on cx_order of S(probe_t) samples of A
    and B, drawn with seeds seed and seed + 1."""
    sa = SampleSet(cumulative_capacity_samples(proc_a, probe_t, runs, seed),
                   label="S_A")
    sb = SampleSet(cumulative_capacity_samples(proc_b, probe_t, runs,
                                               seed + 1), label="S_B")
    return adjustment_ordering(proc_a, proc_b, arrival, cx_order(sa, sb))


def test_sample_set_validation():
    from wnc.errors import ValidationError
    with pytest.raises(ValidationError):
        SampleSet(np.array([]))
    with pytest.raises(ValidationError):
        SampleSet(np.array([1.0, np.inf]))


def test_st_order_reflexive_shift_and_uniforms(rng):
    x = SampleSet(rng.random(100_000), "u01")
    assert st_order(x, x).holds == "yes"
    assert st_order(x, SampleSet(x.values + 1.0)).holds == "yes"
    y = SampleSet(2.0 * rng.random(100_000), "u02")
    assert st_order(x, y).holds == "yes"
    # and the reverse direction clearly fails
    assert st_order(y, x).holds == "no"


def test_stop_loss_two_uniform_closed_forms(rng):
    n = 1_000_000
    indep = SampleSet(rng.random(n) + rng.random(n), "indep")
    como = SampleSet(2.0 * rng.random(n), "como")
    # oracle: int_0^1 x(1-x) dx = 1/6 and int_{1/2}^1 (2u-1) du = 1/4
    assert stop_loss_curve(indep, np.array([1.0]))[0] == pytest.approx(
        1.0 / 6.0, abs=1e-3)
    assert stop_loss_curve(como, np.array([1.0]))[0] == pytest.approx(
        0.25, abs=1e-3)
    assert icx_order(indep, como).holds == "yes"
    assert cx_order(indep, como).holds == "yes"


def test_icx_mean_preserving_spread(rng):
    x = rng.random(200_000)
    noise = rng.choice([-0.2, 0.2], size=x.size)
    spread = SampleSet(x + noise, "spread")
    base = SampleSet(x, "base")
    assert icx_order(base, spread).holds == "yes"
    assert cx_order(base, spread).holds == "yes"


def test_cx_rejects_different_means(rng):
    x = SampleSet(rng.random(50_000))
    y = SampleSet(rng.random(50_000) + 0.5)
    verdict = cx_order(x, y)
    assert verdict.holds == "no"
    assert verdict.reason == "means differ"


def test_st_implies_icx(rng):
    for seed in (1, 2, 3):
        r = np.random.default_rng(seed)
        x = SampleSet(r.exponential(1.0, 50_000))
        y = SampleSet(r.exponential(1.0, 50_000) + r.random(50_000))
        if st_order(x, y).holds == "yes":
            assert icx_order(x, y).holds == "yes"


def test_verdicts_deterministic(two_point):
    proc_a, proc_b = Additive(two_point), Comonotonic(two_point)
    r1 = _adjustment(proc_a, proc_b, ArrivalSpec(0.5), runs=20_000)
    r2 = _adjustment(proc_a, proc_b, ArrivalSpec(0.5), runs=20_000)
    assert r1 == r2


def test_adjustment_coefficients_triple(two_point):
    arrival = ArrivalSpec(0.5)
    assert adjustment_coefficient(Comonotonic(two_point), arrival) is None
    # antithetic pairs of the symmetric two-point law are deterministic blocks
    assert adjustment_coefficient(AntitheticPairing(two_point), arrival) is None
    theta = adjustment_coefficient(Additive(two_point), arrival)
    assert theta == pytest.approx(1.2187557268720122, abs=1e-8)


def test_adjustment_ordering_same_process_consistent(two_point):
    res = _adjustment(Additive(two_point), Additive(two_point),
                      ArrivalSpec(0.5), runs=50_000)
    assert res.consistent
    assert res.theta_a == pytest.approx(res.theta_b, abs=1e-9)


def test_adjustment_ordering_nonvacuous_asymmetric():
    # asymmetric two-point law keeps crossings possible for the antithetic
    # blocks, so both roots exist and must be ordered theta_N >= theta_perp
    law = DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.3, 0.7]))
    arrival = ArrivalSpec(1.1)
    pn, pp = AntitheticPairing(law), Additive(law)
    theta_n = adjustment_coefficient(pn, arrival)
    theta_p = adjustment_coefficient(pp, arrival)
    assert theta_n is not None and theta_p is not None
    assert theta_n >= theta_p
    res = _adjustment(pn, pp, arrival, runs=100_000)
    assert res.cx_verdict.holds == "yes"
    assert res.consistent


def test_adjustment_ordering_comonotonic_vacuous(two_point):
    res = _adjustment(Additive(two_point), Comonotonic(two_point),
                      ArrivalSpec(0.5), runs=100_000)
    assert res.cx_verdict.holds == "yes"
    assert res.theta_b is None
    assert res.consistent
    assert "no positive root" in res.note


def test_adjustment_ordering_symmetric_under_swap(two_point, uniform_law):
    arrival = ArrivalSpec(0.4)
    a, b = Additive(two_point), Comonotonic(two_point)
    fwd = _adjustment(a, b, arrival, runs=50_000)
    rev = _adjustment(b, a, arrival, runs=50_000)
    # swapping exchanges the roles; both runs must stay consistent here
    assert fwd.consistent and rev.consistent


def test_delay_ordering_identical_processes(two_point):
    proc = Additive(two_point)
    cfg = SimConfig(seed=31, runs=30_000, horizon=300)
    rep = delay_ordering_check(proc, proc, proc, ArrivalSpec(0.5),
                               [1, 2, 5], cfg)
    assert rep.chain_holds


def test_delay_ordering_triple_chain(two_point):
    cfg = SimConfig(seed=37, runs=100_000, horizon=400)
    rep = delay_ordering_check(AntitheticPairing(two_point),
                               Additive(two_point), Comonotonic(two_point),
                               ArrivalSpec(0.5), list(range(1, 11)), cfg)
    assert rep.chain_holds
    assert rep.dcc_ordered


def test_delay_ordering_unstable_comonotonic_dominates(two_point):
    # lambda above the essential supremum: comonotonic delay is certain
    cfg = SimConfig(seed=41, runs=20_000, horizon=200)
    rep = delay_ordering_check(AntitheticPairing(two_point),
                               Additive(two_point), Comonotonic(two_point),
                               ArrivalSpec(2.5), [1, 2, 5], cfg)
    assert all(e.point == 1.0 for e in rep.tails_comonotonic)
    assert rep.chain_holds


def test_delay_ordering_rejects_invalid_dcc_inputs(two_point):
    # invalid DCC inputs raise instead of reporting no capacity
    cfg = SimConfig(seed=43, runs=1_000, horizon=50)
    with pytest.raises(ValidationError):
        delay_ordering_check(AntitheticPairing(two_point), Additive(two_point),
                             Comonotonic(two_point), ArrivalSpec(0.5), [1],
                             cfg, dcc_eps=0.0)


def test_order_rows_are_the_delay_ordering_tails():
    # `wnc order` and delay_ordering_check draw the triple's strict tails
    # through one helper: N, perp and P on seeds +0, +1, +2
    doc = cli.load_scenario(str(REPO / "scenarios" / "default.yaml"))
    doc["sim"].update(runs=2_000, horizon_slots=100, warmup_slots=10)
    doc["queries"] = [{"kind": "order", "probe_t_slots": 4,
                       "d_slots": [1, 2, 5]}]
    rows, _ = cli.run_command("order", doc)
    rows = [row for _, row in rows if "tail_negative" in row]
    assert len(rows) == 3
    cfg = cli.build_sim_config(doc)
    law = cli.build_marginal(doc)
    procs = (AntitheticPairing(law), Additive(law), Comonotonic(law))
    rep = delay_ordering_check(*procs, ArrivalSpec(0.4), [1, 2, 5], cfg)
    tails = [tuple(e.point for e in est) for est in
             (rep.tails_negative, rep.tails_independent,
              rep.tails_comonotonic)]
    assert [tuple(row[key] for row in rows) for key in
            ("tail_negative", "tail_independent", "tail_comonotonic")] == tails
    for k, (proc, expected) in enumerate(zip(procs, tails)):
        drawn = empirical_delay_tails(
            proc, ArrivalSpec(0.4), [1, 2, 5],
            SimConfig(cfg.seed + k, cfg.runs, cfg.horizon, cfg.warmup),
            strict=True)
        assert tuple(e.point for e in drawn) == expected
