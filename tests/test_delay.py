import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnc import (Additive, AntitheticPairing, ArrivalSpec, Comonotonic,
                 MarkovAdditive, MarkovKernel, NumericFailure, Rayleigh,
                 UnstableSystemError, ValidationError, backlog_tail,
                 capacity_marginal, delay_constrained_capacity, delay_tail,
                 delay_tail_comonotonic, feedback_delay, lundberg_root,
                 stability_margin)
from wnc import (HopChain, cdf_bounds, cli, delay, e2e_delay_bound,
                 feedback_delays, processes)
from wnc.delay import (cramer_prefactors, delay_tail_markov_detail,
                       delay_tails)
from wnc.distributions import DiscreteDistribution
from wnc.ordering import adjustment_coefficient
from wnc.processes import _spectral, process_mean_rate
from wnc.simulate import SimConfig, empirical_delay_tails

from conftest import affine_prefactors, lundberg_theta_oracle

REPO = Path(__file__).resolve().parents[1]


def test_stability_margin_cases(two_point, ge_kernel):
    proc = Additive(two_point)
    assert stability_margin(proc, ArrivalSpec(1.0)) == pytest.approx(0.0)
    pm = Additive(DiscreteDistribution.point_mass(2.0))
    assert stability_margin(pm, ArrivalSpec(1.0)) == pytest.approx(1.0)
    mproc = MarkovAdditive(ge_kernel)
    assert stability_margin(mproc, ArrivalSpec(1.0)) == pytest.approx(
        1.0 / 3.0, abs=1e-12)


def test_lundberg_root_cubic_oracle(two_point):
    # kappa(th) = 0 reduces to (u-1)(u^3-u^2-u-1) = 0 with u = e^{th/2}
    sol = lundberg_root(Additive(two_point), ArrivalSpec(0.5))
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 3 - mid ** 2 - mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    theta_oracle = 2.0 * math.log(0.5 * (lo + hi))
    assert sol.theta_star == pytest.approx(theta_oracle, abs=1e-8)
    assert abs(sol.kappa_residual) < 1e-9


def test_antithetic_adjustment_is_root_at_doubled_rate(two_point):
    # the antithetic two-slot block drains 2 lambda per step: its root is
    # the pair-sum law's Lundberg root at rate 2 lambda, bit for bit
    anti = AntitheticPairing(DiscreteDistribution(np.array([0.0, 2.0]),
                                                  np.array([0.3, 0.7])))
    for lam in (1.05, 1.1, 1.3):      # pair sums in {2, 4}, mean 2.8
        root = lundberg_root(Additive(anti.pair_sum_law),
                             ArrivalSpec(2.0 * lam)).theta_star
        assert adjustment_coefficient(anti, ArrivalSpec(lam)) == root
    # the symmetric two-point pair sums to the constant 2: no root
    anti = AntitheticPairing(two_point)
    assert adjustment_coefficient(anti, ArrivalSpec(0.5)) is None
    with pytest.raises(NumericFailure):
        lundberg_root(Additive(anti.pair_sum_law), ArrivalSpec(1.0))


def test_lundberg_root_monotone_and_boundary(two_point):
    proc = Additive(two_point)
    roots = [lundberg_root(proc, ArrivalSpec(lam)).theta_star
             for lam in (0.2, 0.4, 0.6, 0.8, 0.95)]
    assert all(a > b for a, b in zip(roots, roots[1:]))
    assert roots[-1] < 0.2      # theta* -> 0 at the stability boundary
    with pytest.raises(UnstableSystemError):
        lundberg_root(proc, ArrivalSpec(1.0))
    with pytest.raises(NumericFailure):
        lundberg_root(Additive(DiscreteDistribution.point_mass(2.0)),
                      ArrivalSpec(1.0))


def test_lundberg_root_general_law_oracle():
    law = DiscreteDistribution(np.array([0.0, 1.0, 3.0]),
                               np.array([0.3, 0.4, 0.3]))
    for lam in (0.5, 0.9):
        sol = lundberg_root(Additive(law), ArrivalSpec(lam))
        oracle = lundberg_theta_oracle(law.support, law.mass, lam)
        assert sol.theta_star == pytest.approx(oracle, abs=1e-8)


def test_cramer_prefactors_two_point(two_point):
    theta = lundberg_root(Additive(two_point), ArrivalSpec(0.5)).theta_star
    law = two_point.affine(shift=0.5, scale=-1.0)
    c_minus, c_plus = cramer_prefactors(law, theta)
    # lattice walk is skip-free upward: C+ = 1 exactly
    assert c_plus == pytest.approx(1.0, abs=1e-12)
    assert c_minus == pytest.approx(math.exp(-0.5 * theta), abs=1e-12)
    assert c_minus <= c_plus


def test_delay_tail_deterministic_channel():
    proc = Additive(DiscreteDistribution.point_mass(2.0))
    lo, up = delay_tail(proc, ArrivalSpec(1.5), 3.0)
    assert lo.value == up.value == 0.0
    lo0, up0 = delay_tail(proc, ArrivalSpec(1.5), 0.0)
    assert lo0.value == up0.value == 1.0


def test_delay_tail_unstable_is_vacuous(two_point):
    lo, up = delay_tail(Additive(two_point), ArrivalSpec(1.0), 5.0)
    assert lo.value == up.value == 1.0
    assert "unstable" in up.notes


def test_delay_upper_log_linear_in_d(two_point):
    proc = Additive(two_point)
    arrival = ArrivalSpec(0.5)
    ds = np.arange(1.0, 11.0)
    ups = np.array([delay_tail(proc, arrival, d)[1].value for d in ds])
    theta = lundberg_root(proc, arrival).theta_star
    logs = np.log(ups)
    slope, intercept = np.polyfit(ds, logs, 1)
    resid = float(np.max(np.abs(logs - (slope * ds + intercept))))
    assert resid < 1e-9
    assert slope == pytest.approx(-theta * arrival.lam, abs=1e-9)
    assert np.all(np.diff(ups) < 0)


def test_delay_markov_single_state_equals_additive(two_point):
    kernel = MarkovKernel.from_destination_laws(("s",), np.array([[1.0]]),
                                                [two_point])
    arrival = ArrivalSpec(0.5)
    for d in (1.0, 5.0, 10.0):
        alo, aup = delay_tail(Additive(two_point), arrival, d)
        mlo, mup = delay_tail(MarkovAdditive(kernel), arrival, d)
        assert mlo.value == pytest.approx(alo.value, abs=1e-12)
        assert mup.value == pytest.approx(aup.value, abs=1e-12)
    for d, eps in ((10.0, 1e-2), (20.0, 1e-4)):
        add = delay_constrained_capacity(Additive(two_point), d, eps)
        mk = delay_constrained_capacity(MarkovAdditive(kernel), d, eps)
        assert mk.feasible and add.feasible
        for m, a in zip((mk.conservative, mk.optimistic, *mk.one_shot_window),
                        (add.conservative, add.optimistic,
                         *add.one_shot_window)):
            assert m == pytest.approx(a, rel=1e-12, abs=0.0)


def test_delay_markov_structure(ge_kernel):
    proc = MarkovAdditive(ge_kernel)
    arrival = ArrivalSpec(1.0)
    detail = delay_tail_markov_detail(proc, arrival, 0.0)
    assert detail.upper.value <= 1.0
    assert detail.lower.value <= detail.upper.value
    det10 = delay_tail_markov_detail(proc, arrival, 10.0)
    fixed = {s: delay_tail_markov_detail(MarkovAdditive(ge_kernel, s),
                                         arrival, 10.0)
             for s in ge_kernel.states}
    # good state strictly better off than bad state
    assert fixed["G"].upper.value < fixed["B"].upper.value
    # improved prefactors tighten the basic eigenvector pair
    assert det10.upper.value <= det10.basic_upper.value + 1e-15
    # stationary bounds are the pi-mixture of the fixed-start bounds
    pi = ge_kernel.stationary
    mix_up = sum(p * fixed[s].upper.value
                 for p, s in zip(pi, ge_kernel.states))
    assert det10.upper.value == pytest.approx(mix_up, abs=1e-12)


# (kernel, lambda) -> state -> ((lower, upper) at d = 0, 5, 20) from that
# fixed start, recorded from the per-state bounds that the stationary
# process's delay report carried
_FIXED_START_BOUNDS = {
    ("ge", 0.5): {
        "G": ((0.20013214628468468, 0.2433952687839463),
              (0.07522123466996497, 0.09148201810973883),
              (0.003994029530767069, 0.0048574299992227826)),
        "B": ((0.8222515880632634, 1.0),
              (0.3090496994694515, 0.37585783226930475),
              (0.016409643255278036, 0.019956961462281167))},
    ("ge", 1.0): {
        "G": ((0.5000000000000004, 0.5625000000000004),
              (0.27746447865332236, 0.31214753848498766),
              (0.04741541492852877, 0.053342341794594864)),
        "B": ((0.888888888888889, 1.0),
              (0.49327018427257274, 0.5549289573066443),
              (0.08429407098405108, 0.09483082985705746))},
    ("full", 0.8): {
        "a": ((0.15275462614124743, 1.0),
              (1.2704753107155686e-05, 8.317098753793549e-05),
              (7.309401267831292e-18, 4.785060493730983e-17)),
        "b": ((0.19611780823587877, 1.0),
              (1.6311311784753495e-05, 0.00010678113126126169),
              (9.384355763066122e-18, 6.143418369790453e-17))},
}


def test_fixed_start_bounds_pinned(ge_kernel, full_kernel):
    kernels = {"ge": ge_kernel, "full": full_kernel}
    for (name, lam), by_state in _FIXED_START_BOUNDS.items():
        kernel = kernels[name]
        stationary = delay_tails(MarkovAdditive(kernel), ArrivalSpec(lam),
                                 [0.0, 5.0, 20.0])
        fixed = {}
        for s, pairs in by_state.items():
            fixed[s] = delay_tails(MarkovAdditive(kernel, s),
                                   ArrivalSpec(lam), [0.0, 5.0, 20.0])
            assert [(b.lower.value, b.upper.value)
                    for b in fixed[s]] == list(pairs)
        # the stationary start is the pi-mixture of the fixed starts,
        # wherever no fixed-start bound is clipped at 1
        for k, bounds in enumerate(stationary):
            if any(fixed[s][k].upper.value == 1.0 for s in by_state):
                continue
            for side in ("lower", "upper"):
                mix = sum(p * getattr(fixed[s][k], side).value
                          for p, s in zip(kernel.stationary, kernel.states))
                assert getattr(bounds, side).value == pytest.approx(
                    mix, rel=1e-12)


def test_unknown_start_state_fails_on_construction(ge_kernel):
    with pytest.raises(ValidationError, match="unknown state 'X'"):
        MarkovAdditive(ge_kernel, "X")
    with pytest.raises(ValidationError, match="out of range"):
        MarkovAdditive(ge_kernel, 2)
    # a state index and its label give the same start
    assert delay_tail(MarkovAdditive(ge_kernel, 1), ArrivalSpec(1.0), 5.0) == \
        delay_tail(MarkovAdditive(ge_kernel, "B"), ArrivalSpec(1.0), 5.0)


def test_delay_markov_quick_sandwich(ge_kernel):
    arrival = ArrivalSpec(1.0)
    cfg = SimConfig(seed=23, runs=150_000, horizon=600)
    for init in ("G", "B"):
        proc = MarkovAdditive(ge_kernel, init)
        ests = empirical_delay_tails(proc, arrival, [5.0, 20.0], cfg)
        for d, est in zip((5.0, 20.0), ests):
            lo, up = delay_tail(proc, arrival, d)
            assert lo.value - 3 * est.stderr <= est.point <= up.value + 3 * est.stderr


def test_full_transition_kernel_sandwich(full_kernel):
    # per-transition increment laws (no destination compaction): the
    # overshoot-corrected pair must sandwich MC
    assert not full_kernel.by_destination
    proc = MarkovAdditive(full_kernel)
    arrival = ArrivalSpec(0.8)
    assert stability_margin(proc, arrival) > 0
    detail = delay_tail_markov_detail(proc, arrival, 6.0)
    assert "improved" in detail.upper.notes
    cfg = SimConfig(seed=47, runs=150_000, horizon=500)
    ests = empirical_delay_tails(proc, arrival, [2.0, 6.0], cfg)
    for d, est in zip((2.0, 6.0), ests):
        lo, up = delay_tail(proc, arrival, d)
        assert lo.value - 3 * est.stderr <= est.point <= up.value + 3 * est.stderr


def test_delay_comonotonic_closed_forms(two_point, unit_spec):
    ray = capacity_marginal(unit_spec, Rayleigh())
    proc = Comonotonic(ray)
    lam = ray.quantile(0.5)
    arrival = ArrivalSpec(lam)
    # d = 0 at finite horizon gives F_C(lambda)
    assert delay_tail_comonotonic(proc, arrival, 0.0, 50) == pytest.approx(
        ray.cdf(lam), abs=1e-12)
    # d >= t forces a nonpositive argument
    assert delay_tail_comonotonic(proc, arrival, 12.0, 10) == 0.0
    # lambda at the median: infinite-horizon tail is exactly 1/2
    assert delay_tail_comonotonic(proc, arrival, 7.0) == pytest.approx(
        0.5, abs=1e-8)


def test_backlog_delegates_bit_for_bit(two_point, ge_kernel):
    arrival = ArrivalSpec(0.5)
    proc = Additive(two_point)
    blo, bup = backlog_tail(proc, arrival, 5.0)
    dlo, dup = delay_tail(proc, arrival, 10.0)
    assert (blo.value, bup.value) == (dlo.value, dup.value)
    # doubling lambda halves the effective delay target
    arrival2 = ArrivalSpec(1.0)
    b2 = backlog_tail(proc, arrival2, 5.0)
    d2 = delay_tail(proc, arrival2, 5.0)
    assert b2[1].value == d2[1].value
    mproc = MarkovAdditive(ge_kernel)
    mb = backlog_tail(mproc, ArrivalSpec(1.0), 10.0)
    md = delay_tail(mproc, ArrivalSpec(1.0), 10.0)
    assert mb[1].value == md[1].value
    como = Comonotonic(two_point)
    assert backlog_tail(como, arrival, 2.5) == \
        delay_tail_comonotonic(como, arrival, 5.0)


def test_dcc_deterministic_channel():
    proc = Additive(DiscreteDistribution.point_mass(2.0))
    res = delay_constrained_capacity(proc, 5.0, 1e-3)
    assert res.conservative == pytest.approx(2.0, rel=1e-6)
    assert res.optimistic == pytest.approx(2.0, rel=1e-6)
    assert res.feasible


def test_dcc_vacuous_epsilon_limit(two_point):
    res = delay_constrained_capacity(Additive(two_point), 5.0, 0.999)
    assert res.conservative >= 0.93    # approaches E[C] = 1 from below
    assert res.conservative <= res.optimistic + 1e-9


def test_dcc_conservative_verified_by_simulation(two_point):
    d, eps = 20.0, 1e-3
    res = delay_constrained_capacity(Additive(two_point), d, eps)
    assert res.feasible
    assert res.conservative <= res.optimistic
    cfg = SimConfig(seed=29, runs=400_000, horizon=800)
    est = empirical_delay_tails(Additive(two_point),
                                ArrivalSpec(res.conservative), [d], cfg)[0]
    se_floor = math.sqrt(eps * (1 - eps) / cfg.runs)
    assert est.point <= eps + 3 * max(est.stderr, se_floor)
    # the fixed-theta one-shot window is reported alongside
    assert res.one_shot_window[0] <= res.one_shot_window[1] + 1e-12


def _delay_pair(process, lam, d):
    lo, up = delay_tail(process, ArrivalSpec(lam), d)
    return lo.value, up.value


def test_dcc_ends_are_the_largest_rates_meeting_epsilon(rayleigh_marginal,
                                                        full_kernel):
    # each end meets eps at the returned rate and misses it 1e-6 higher
    for proc, d, eps in ((Additive(rayleigh_marginal), 10.0, 1e-3),
                         (MarkovAdditive(full_kernel), 10.0, 0.01)):
        res = delay_constrained_capacity(proc, d, eps)
        assert res.feasible
        assert res.conservative <= res.optimistic < process_mean_rate(proc)
        for side, lam in ((1, res.conservative), (0, res.optimistic)):
            assert _delay_pair(proc, lam, d)[side] <= eps * (1.0 + 1e-9)
            assert _delay_pair(proc, lam + 1e-6, d)[side] > eps


def test_dcc_gilbert_elliott_infeasible(ge_kernel):
    proc = MarkovAdditive(ge_kernel)
    res = delay_constrained_capacity(proc, 10.0, 0.01)
    assert not res.feasible
    assert res.conservative == res.optimistic == 0.0
    # both bounds miss eps at every rate, down to the smallest ones
    for k in (1, 8, 20, 36):
        lo, up = _delay_pair(proc, process_mean_rate(proc) * 2.0 ** -k, 10.0)
        assert lo > 0.01 and up > 0.01


def test_dcc_validation():
    with pytest.raises(ValidationError):
        delay_constrained_capacity(Additive(DiscreteDistribution.point_mass(1.0)),
                                   5.0, 1.5)
    with pytest.raises(ValidationError):
        delay_constrained_capacity(Additive(DiscreteDistribution.point_mass(1.0)),
                                   0.0, 0.5)


@pytest.mark.parametrize("p_gb,p_bg", [(1e-3, 2e-3), (1e-4, 2e-4)])
def test_slowly_mixing_gilbert_elliott_delay(p_gb, p_bg):
    # capacities (2, 0) at lambda = 1: the walk lambda - C steps -1 into G
    # and +1 into B, so it is upward skip-free and optional stopping of
    # h(J_t) exp(theta* W_t) gives P(sup W >= L) = exp(-theta* L) / h(B)
    # from the stationary start (pi . h = 1)
    p = np.array([[1.0 - p_gb, p_gb], [p_bg, 1.0 - p_bg]])
    kernel = MarkovKernel.from_destination_laws(("G", "B"), p, [2.0, 0.0])
    lam, d = 1.0, 10.0

    def tilted(th):            # F[-th]: the mgf of C at -th, per destination
        return p * np.array([math.exp(-2.0 * th), 1.0])

    def log_rho(th):           # closed 2x2 spectral radius
        (a, b), (c, e) = tilted(th)
        return math.log(0.5 * (a + e + math.sqrt((a - e) ** 2 + 4.0 * b * c)))

    lo, hi = 1e-9, 1.0
    while hi * lam + log_rho(hi) <= 0:
        hi *= 2.0
    while lam * lo + log_rho(lo) >= 0:
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid * lam + log_rho(mid) < 0 else (lo, mid)
    theta = 0.5 * (lo + hi)
    (a, b), (c, e) = tilted(theta)
    rho = math.exp(log_rho(theta))
    h = np.array([b / (rho - a), 1.0])        # F h = rho h, h(B) = 1
    pi = np.array([p_bg, p_gb]) / (p_gb + p_bg)
    exact = math.exp(-theta * lam * d) * float(pi @ h)   # / h(B) after pi.h = 1

    lower, upper = delay_tail(MarkovAdditive(kernel), ArrivalSpec(lam), d)
    assert upper.theta_star == pytest.approx(theta, abs=1e-9)
    # the upper bound is exact here (C+ = 1/h(B)): allow rounding only
    assert lower.value <= exact * (1.0 + 1e-9)
    assert exact <= upper.value * (1.0 + 1e-9)


@pytest.mark.parametrize("margin, rel", [(1e-5, 1e-5), (1e-6, 1e-3)])
def test_lundberg_root_at_small_stability_margins(two_point, margin, rel):
    # min kappa is about -margin^2/2 (-5e-11, -5e-13): valid inputs that a
    # fixed -1e-10 noise floor on kappa used to reject as "margin too small"
    lam = 1.0 - margin
    sol = lundberg_root(Additive(two_point), ArrivalSpec(lam))
    assert abs(sol.kappa_residual) < 1e-9
    oracle = lundberg_theta_oracle(two_point.support, two_point.mass, lam)
    assert sol.theta_star == pytest.approx(oracle, rel=rel)
    lo, up = delay_tail(Additive(two_point), ArrivalSpec(lam), 10.0)
    assert 0.0 < lo.value <= up.value <= 1.0


def test_delay_tail_additive_cgf_call_count(two_point, monkeypatch):
    calls = []
    cgf = DiscreteDistribution.cgf

    def counted(self, theta):
        calls.append(theta)
        return cgf(self, theta)

    monkeypatch.setattr(DiscreteDistribution, "cgf", counted)
    lo, up = delay_tail(Additive(two_point), ArrivalSpec(0.4), 5.0)
    assert len(calls) <= 40
    assert up.diagnostics.evaluations == len(calls)
    assert lo.diagnostics is up.diagnostics


# delay_constrained_capacity outputs recorded before the tilt memo: the memo
# and the array prefactors must leave every bit of them unchanged
_DCC_PINNED = {
    "gilbert_elliott": (10.0, 0.01, 0.0, 0.0, (0.0, 0.0), False),
    "two_point": (10.0, 0.01, 0.6874740491524829, 0.7265512596745952,
                  (0.6187266442372347, 0.6874740491524829), True),
    "rayleigh": (10.0, 1e-3, 0.7054893235679045, 0.713733915321548,
                 (0.6674111588407459, 0.7054893235679045), True),
    "full_kernel": (10.0, 0.01, 1.204795545798047, 1.2196612222020757,
                    (1.084315991218242, 1.2047955457980468), True),
}


def _dcc_process(name, two_point, ge_kernel, full_kernel, rayleigh_marginal):
    return {"gilbert_elliott": MarkovAdditive(ge_kernel),
            "two_point": Additive(two_point),
            "rayleigh": Additive(rayleigh_marginal),
            "full_kernel": MarkovAdditive(full_kernel)}[name]


def _count_spectral(monkeypatch):
    calls = []

    def counted(process, theta):
        calls.append(theta)
        return _spectral(process, theta)
    monkeypatch.setattr(processes, "_spectral", counted)
    return calls


@pytest.mark.parametrize("name", sorted(_DCC_PINNED))
def test_dcc_outputs_pinned(name, two_point, ge_kernel, full_kernel,
                            rayleigh_marginal, monkeypatch):
    proc = _dcc_process(name, two_point, ge_kernel, full_kernel,
                        rayleigh_marginal)
    d, eps, *expected = _DCC_PINNED[name]
    calls = _count_spectral(monkeypatch)
    res = delay_constrained_capacity(proc, d, eps)
    assert (res.conservative, res.optimistic, res.one_shot_window,
            res.feasible) == tuple(expected)
    # one solve per distinct tilt, and the diagnostics count them
    assert len(calls) == len(set(calls)) == res.diagnostics.tilts
    ends = (res.diagnostics.conservative, res.diagnostics.optimistic)
    if res.feasible:
        for info in ends:
            assert info.evaluations > 0 and not info.at_edge
            assert info.bracket[0] < info.bracket[1]
    else:
        assert ends == (None, None)


def _record_tilts(monkeypatch, process):
    """The tilts a query solves: theta of each ``_spectral`` solve for a
    Markov process, (law, theta) of each cgf call for an Additive one (so
    the distinct hops of the end-to-end bound are told apart)."""
    calls = []
    if isinstance(process, MarkovAdditive):
        def counted(proc, theta):
            calls.append(theta)
            return _spectral(proc, theta)
        monkeypatch.setattr(processes, "_spectral", counted)
    else:
        law_type = type(process.marginal)
        cgf = law_type.cgf

        def counted(law, theta):
            calls.append((id(law), theta))
            return cgf(law, theta)
        monkeypatch.setattr(law_type, "cgf", counted)
    return calls


@pytest.mark.parametrize("name", sorted(_DCC_PINNED))
def test_each_query_solves_each_tilt_once(name, two_point, ge_kernel,
                                          full_kernel, rayleigh_marginal,
                                          monkeypatch):
    proc = _dcc_process(name, two_point, ge_kernel, full_kernel,
                        rayleigh_marginal)
    lam = 0.3 * process_mean_rate(proc)
    arrival = ArrivalSpec(lam)
    mean_sum = 8 * process_mean_rate(proc)
    queries = {
        "delay_tails": lambda: delay_tails(proc, arrival, [1.0, 5.0, 10.0]),
        "feedback_delays": lambda: feedback_delays(proc, arrival,
                                                   [1.0, 5.0, 10.0]),
        "cdf_bounds below the mean": lambda: cdf_bounds(proc, 8,
                                                        0.5 * mean_sum),
        "cdf_bounds above the mean": lambda: cdf_bounds(proc, 8,
                                                        1.25 * mean_sum),
        "delay_constrained_capacity":
            lambda: delay_constrained_capacity(proc, 10.0, 1e-2),
    }
    if isinstance(proc, Additive):
        queries["e2e_delay_bound"] = lambda: e2e_delay_bound(
            HopChain((proc, proc)), arrival, 10.0)
    if name == "two_point":
        # two distinct lattice hops, one of them twice: once per (hop, theta)
        other = Additive(DiscreteDistribution(np.array([0.5, 1.0, 3.0]),
                                              np.array([0.2, 0.5, 0.3])))
        queries["e2e_delay_bound, distinct hops"] = lambda: e2e_delay_bound(
            HopChain((proc, other, proc)), arrival, 10.0)
    calls = _record_tilts(monkeypatch, proc)
    for query, run in queries.items():
        calls.clear()
        run()
        assert calls and len(calls) == len(set(calls)), (query, calls)


def test_dcc_solve_counts(two_point, ge_kernel, monkeypatch):
    calls = _count_spectral(monkeypatch)
    delay_constrained_capacity(MarkovAdditive(ge_kernel), 10.0, 0.01)
    assert len(calls) <= 45            # 176 before the tilt memo
    calls.clear()
    res = delay_constrained_capacity(Additive(two_point), 10.0, 0.01)
    assert res.feasible
    assert len(calls) <= 14            # 24 before the tilt memo


def test_dcc_diagnostics_stay_out_of_equality(two_point):
    res = delay_constrained_capacity(Additive(two_point), 10.0, 0.01)
    assert res.diagnostics is not None
    bare = type(res)(res.conservative, res.optimistic, res.one_shot_window,
                     res.feasible)
    assert bare.diagnostics is None and bare == res


def test_delay_query_makes_one_ruin(monkeypatch):
    calls = []
    ruin = delay.ruin

    def counted(process, drain):
        calls.append(drain)
        return ruin(process, drain)
    monkeypatch.setattr(delay, "ruin", counted)
    doc = cli.load_scenario(str(REPO / "scenarios" / "gilbert_elliott.yaml"))
    doc["queries"] = [{"kind": "delay", "d_slots": [5, 10, 20]}]
    rows, _ = cli.run_command("delay", doc)
    assert len(rows) == 3 and len(calls) == 1
    # the same rows as one single-d call per d, which solves once each
    proc = cli.build_process(doc)
    for (_, row), d in zip(rows, (5.0, 10.0, 20.0)):
        detail = delay_tail_markov_detail(proc, ArrivalSpec(1.0), d)
        assert (row["delay_lower"], row["delay_upper"]) == (
            detail.lower.value, detail.upper.value)
    assert len(calls) == 1 + 3


def test_delay_tails_equal_single_d_calls(ge_kernel, two_point):
    for proc in (MarkovAdditive(ge_kernel, "B"), MarkovAdditive(ge_kernel),
                 Additive(two_point)):
        ds = [0.0, 1.0, 7.5]
        many = delay_tails(proc, ArrivalSpec(0.6), ds)
        one = [delay_tail_markov_detail(proc, ArrivalSpec(0.6), d)
               for d in ds]
        assert many == one
    with pytest.raises(ValidationError):
        delay_tails(Additive(two_point), ArrivalSpec(0.6), [1.0, -1.0])


_STEP = 0.5                           # lattice of the generated laws


@st.composite
def _lattice_law(draw):
    """(law, its positive-mass part): a law on the lattice 0.5 Z in [0, 8],
    zero-mass atoms allowed.  Both laws divide the same weights by their
    sum, so the part's masses equal the law's positive masses bit for bit."""
    ks = draw(st.lists(st.integers(0, 16), min_size=1, max_size=6,
                       unique=True))
    weights = draw(st.lists(st.integers(0, 5), min_size=len(ks),
                            max_size=len(ks)))
    if sum(weights) == 0:
        weights[0] = 1
    support = _STEP * np.array(sorted(ks), dtype=float)
    w = np.array(weights, dtype=float)
    law = DiscreteDistribution(support, w / w.sum())
    pos = w > 0
    return law, DiscreteDistribution(support[pos], w[pos] / w.sum())


def _process(laws, rows):
    """Additive for one law, a destination Markov kernel for more."""
    if len(laws) == 1:
        return Additive(laws[0])
    return MarkovAdditive(MarkovKernel.from_destination_laws(
        tuple("abc"[:len(laws)]), rows, laws))


@st.composite
def _prefactor_case(draw):
    """(process, its positive-mass twin, drain, theta): an Additive law or
    a destination Markov kernel, a drain on the lattice above every law's
    smallest positive-mass atom (often at an atom, so the walk has an atom
    at 0), and a tilt.  Lower drains are ruin's degenerate case, which
    never reaches the prefactors."""
    n = draw(st.integers(1, 3))
    pairs = [draw(_lattice_law()) for _ in range(n)]
    rows = np.array(draw(st.lists(st.lists(st.integers(1, 5), min_size=n,
                                           max_size=n),
                                  min_size=n, max_size=n)), dtype=float)
    rows /= rows.sum(axis=1, keepdims=True)
    low = max(pos.support_min for _, pos in pairs)
    if draw(st.booleans()):
        atoms = sorted({float(a) for law, _ in pairs for a in law.support
                        if a > low})
        drain = draw(st.sampled_from(atoms)) if atoms else low + _STEP
    else:
        drain = low + _STEP * draw(st.integers(1, 12))
    theta = draw(st.floats(0.01, 4.0))
    return (_process([law for law, _ in pairs], rows),
            _process([pos for _, pos in pairs], rows), drain, theta)


def _assert_same_bits(got, want):
    # hex compares every bit
    assert [float.hex(v) for v in got] == [float.hex(v) for v in want]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_prefactor_case())
def test_array_prefactors_equal_affine_route(case):
    # zero-mass atoms are never drawn: the prefactors are those of the
    # positive-mass laws, with no 0/0 ratio
    process, positive, drain, theta = case
    h = _spectral(process, -theta)[1]
    assert h is not None
    _assert_same_bits(delay._prefactors(process, drain, theta, h),
                      affine_prefactors(positive, drain, theta, h))


def test_array_prefactors_on_shipped_laws(full_kernel, mixed_kernel,
                                          rayleigh_marginal):
    # full-transition laws, interior and trailing zero-mass atoms, and a
    # 4096-atom discretised fading law
    for process, drain in ((MarkovAdditive(full_kernel), 1.2),
                           (MarkovAdditive(mixed_kernel), 1.5),
                           (MarkovAdditive(mixed_kernel), 2.0),
                           (Additive(rayleigh_marginal), 0.7)):
        for theta in (0.05, 0.7, 3.0):
            h = _spectral(process, -theta)[1]
            _assert_same_bits(delay._prefactors(process, drain, theta, h),
                              affine_prefactors(process, drain, theta, h))


def test_prefactors_count_a_law_with_a_zero_mass_bottom_atom():
    # the walk drain - B of law b has a zero-mass top atom, whose 0/0
    # ratio would drop law b from the maximum or keep it, by law order
    a = DiscreteDistribution.point_mass(0.0)
    b = DiscreteDistribution(np.array([0.0, 0.5]), np.array([0.0, 1.0]))
    b_pos = DiscreteDistribution.point_mass(0.5)
    transition = np.array([[0.3, 0.7], [0.6, 0.4]])
    for laws, positive_laws, j in (((a, b), (a, b_pos), 1),
                                   ((b, a), (b_pos, a), 0)):
        process = _process(laws, transition)
        h = _spectral(process, -1.0)[1]
        got = delay._prefactors(process, 1.0, 1.0, h)
        assert not any(math.isnan(v) for v in got)
        _assert_same_bits(got, affine_prefactors(
            _process(positive_laws, transition), 1.0, 1.0, h))
        # law b's walk is the point 0.5, whose ratio is 1: C_+ >= 1 / h_b
        assert got[1] >= 1.0 / h[j]


def test_zero_mass_bottom_atom_is_never_drawn():
    # a zero-mass atom below the law's support is never drawn: counted
    # as the floor, it sends the Lundberg root to NumericFailure and the
    # DCC to 0/0 prefactors
    zero = DiscreteDistribution(np.array([0.0, 1.0, 3.0]),
                                np.array([0.0, 0.5, 0.5]))
    pos = DiscreteDistribution(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
    additive = [Additive(law) for law in (zero, pos)]
    lo, up = delay_tail(additive[0], ArrivalSpec(0.9), 5.0)
    assert (lo.value, up.value) == (0.0, 0.0)
    assert up.notes == "degenerate: queue never builds"
    fb = [feedback_delay(p, ArrivalSpec(0.45), 5.0) for p in additive]
    assert fb[0] == fb[1] and fb[0].value == 0.0
    dcc = [delay_constrained_capacity(p, 5.0, 0.01) for p in additive]
    assert dcc[0] == dcc[1] and dcc[0].feasible
    assert dcc[0].conservative == pytest.approx(1.7479, abs=1e-4)
    # a destination kernel with the same law next to the point mass 2
    transition = np.array([[0.5, 0.5], [0.5, 0.5]])
    markov = [MarkovAdditive(MarkovKernel.from_destination_laws(
        ("x", "y"), transition, [law, 2.0])) for law in (zero, pos)]
    for lam in (0.9, 1.9):
        got, want = (delay_tail(p, ArrivalSpec(lam), 5.0) for p in markov)
        assert got == want
    assert got[1].theta_star is not None
    assert delay_tail(markov[0], ArrivalSpec(0.9), 5.0)[1].value == 0.0


def test_cramer_prefactors_keeps_its_checks(two_point):
    with pytest.raises(ValidationError):
        cramer_prefactors(two_point.affine(shift=1.0, scale=-1.0), 0.0)
    with pytest.raises(ValidationError):
        cramer_prefactors(DiscreteDistribution(np.array([-3.0, -1.0]),
                                               np.array([0.5, 0.5])), 1.0)


def test_dcc_whose_first_rate_is_the_floor():
    # the mean sits one rounding above the floor 1.0, so alpha(1) rounds to
    # the floor, where no law crosses the drain upward
    proc = MarkovAdditive(MarkovKernel.from_destination_laws(
        ("a", "b", "c"), np.array([[0.7, 0.2, 0.1],
                                   [1.8e-5, 0.9999806, 1.4e-6],
                                   [1.5e-19, 1.5e-19, 1.0]]), [1.5, 2.0, 1.0]))
    assert process_mean_rate(proc) == 1.0000000000000007
    res = delay_constrained_capacity(proc, 10.0, 0.01)
    assert (res.conservative, res.optimistic, res.one_shot_window,
            res.feasible) == (1.0, 1.0, (1.0, 1.0), True)
    assert res.diagnostics.tilts == 1


def test_near_reducible_delay_tails_fail_without_a_warning():
    # the tilts of the lone 1e-200 self-loop underflow F[theta] to a
    # subnormal Perron root whose eigenvector underflows to 0; the solve
    # fails on pi . h = 0 before it would divide by it
    proc = MarkovAdditive(MarkovKernel.from_destination_laws(
        ("a", "b", "c"), np.array([[1e-200, 1.0 - 1e-200, 0.0],
                                   [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
        [1.0, 2.0, 3.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match=r"pi \. h = 0\.0"):
            delay_tails(proc, ArrivalSpec(1.5), [1.0, 5.0, 10.0])


def test_dcc_constant_markov_channel():
    # both states carry 3.5 (or 0.3): the mean rounds above the capacity,
    # and the DCC is that capacity, from the CLI as from the library
    for cap in (3.5, 0.3):
        doc = cli.load_scenario(str(REPO / "scenarios" / "gilbert_elliott.yaml"))
        doc["process"]["markov"]["capacities_bits_per_slot"] = [cap, cap]
        doc["queries"] = [{"kind": "dcc", "d_slots": 10, "epsilon": 0.01}]
        rows, _ = cli.run_command("dcc", doc)
        (_, row), = rows
        assert row["lambda_conservative"] == row["lambda_optimistic"] == cap
        assert row["feasible"]
    # here the mean rounds below 3.5
    kernel = MarkovKernel.from_destination_laws(
        ("G", "B"), np.array([[0.99, 0.01], [0.02, 0.98]]), [3.5, 3.5])
    assert process_mean_rate(MarkovAdditive(kernel)) < 3.5
    res = delay_constrained_capacity(MarkovAdditive(kernel), 10.0, 0.01)
    assert (res.conservative, res.optimistic, res.one_shot_window,
            res.feasible) == (3.5, 3.5, (3.5, 3.5), True)
