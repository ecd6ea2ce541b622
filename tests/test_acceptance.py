"""Acceptance suite: one test per shipping criterion, at desk scale.

Every criterion prints a single PASS line (run with ``pytest -s``) and
enforces its stated tolerance and runtime budget.  Monte Carlo slack is
3 * max(SE of the estimate, binomial SE at the bound value), so rare-event
cells with empty counts are handled correctly.
"""

import math
import time

import numpy as np
from scipy import stats

from wnc import (Additive, AntitheticPairing, ArrivalSpec, ChannelSpec,
                 Comonotonic, HopChain, Lognormal, MarkovAdditive,
                 MarkovKernel, Nakagami, Rayleigh, Rice, Weibull,
                 capacity_marginal, certify_light_tail, delay_tail,
                 delay_tail_comonotonic, e2e_delay_bound, feedback_delay,
                 frechet_bounds, lundberg_root, mgf_matrix)
from wnc.delay import delay_tail_markov_detail
from wnc.distributions import DiscreteDistribution
from wnc.ordering import (SampleSet, adjustment_coefficient, cx_order,
                          stop_loss_curve)
from wnc.processes import _spectral
from wnc.simulate import (SimConfig, cumulative_capacity_samples,
                          empirical_delay_tails, feedback_queue, tandem_queue)

from conftest import (additive_union_delay_bound, assert_matrix_power_identity,
                      cdf_generic)

SPEC = ChannelSpec(1.0, 1.0)
TWO_POINT = DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
GE = MarkovKernel.from_destination_laws(
    ("G", "B"), np.array([[0.9, 0.1], [0.2, 0.8]]), [2.0, 0.0])


def report(number, label, elapsed, limit):
    print(f"\n[criterion {number:02d}] {label}: PASS ({elapsed:.1f}s "
          f"/ limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def slack3(est, bound):
    b = min(max(bound, 0.0), 1.0)
    return 3.0 * max(est.stderr, math.sqrt(b * (1 - b) / est.runs_used)) + 1e-12


def test_c01_light_tail_certificates():
    t0 = time.time()
    matrix = ([Rayleigh(), Rice(1.0, 0.5)]
              + [Nakagami(m) for m in (0.5, 1.0, 2.0, 4.0)]
              + [Weibull(1.0, k) for k in (0.5, 1.0, 2.0)]
              + [Lognormal(0.0, s) for s in (0.25, 1.0)])
    for model in matrix:
        m = capacity_marginal(SPEC, model)
        x_hi = max(10.0, 1.5 * m.quantile(1.0 - 1e-9))
        cert = certify_light_tail(SPEC, model, 0.0, x_hi, 256)
        assert cert.rate_b > 0.0
        assert cert.max_violation <= 0.0
    # Rayleigh at the largest closed-form rate: at least as tight as
    # the explicit pair (e^{1/gamma}, e ln2 / (W gamma))
    theta_paper = math.e * math.log(2.0)
    at_rate = certify_light_tail(SPEC, Rayleigh(), 0.0, 8.0, 512,
                                 rate=theta_paper)
    assert at_rate.prefactor_a <= math.e * (1.0 + 1e-9)
    searched = certify_light_tail(SPEC, Rayleigh(), 0.0, 8.0, 512)
    assert searched.rate_b >= theta_paper - 1e-6
    assert searched.prefactor_a <= math.e * (1.0 + 1e-9)
    report(1, "light-tail certificates", time.time() - t0, 10.0)


def test_c02_rayleigh_closed_form_vs_generic():
    t0 = time.time()
    m = capacity_marginal(SPEC, Rayleigh())
    xs = np.linspace(0.0, 8.0, 200)
    assert float(np.max(np.abs(m.cdf(xs) - cdf_generic(m, xs)))) < 1e-9
    report(2, "Rayleigh closed form vs transform path", time.time() - t0, 1.0)


def test_c03_lundberg_root_exactness():
    t0 = time.time()
    sol = lundberg_root(Additive(TWO_POINT), ArrivalSpec(0.5))
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 3 - mid ** 2 - mid - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    theta_oracle = 2.0 * math.log(0.5 * (lo + hi))
    assert abs(sol.theta_star - theta_oracle) < 1e-8
    report(3, "Lundberg root vs cubic oracle", time.time() - t0, 1.0)


def test_c04_additive_delay_sandwich():
    t0 = time.time()
    proc = Additive(TWO_POINT)
    d_grid = [1.0, 2.0, 5.0, 10.0, 20.0]
    horizons = {0.3: 500, 0.5: 700, 0.7: 1000}
    for lam, horizon in horizons.items():
        arrival = ArrivalSpec(lam)
        bounds = [delay_tail(proc, arrival, d) for d in d_grid]
        # doubling-horizon convergence gate for the lower-bound comparison
        gate = [empirical_delay_tails(proc, arrival, [d_grid[-1]],
                                      SimConfig(4040, 100_000, h, 0))[0]
                for h in (horizon // 2, horizon)]
        converged = abs(gate[0].point - gate[1].point) <= max(gate[1].stderr,
                                                              1e-6)
        ests = empirical_delay_tails(proc, arrival, d_grid,
                                     SimConfig(4041, 1_000_000, horizon, 0))
        for (lo, up), est in zip(bounds, ests):
            assert est.point <= up.value + slack3(est, up.value), \
                f"upper violated at lambda={lam}"
            if converged:
                assert est.point >= lo.value - slack3(est, lo.value), \
                    f"lower violated at lambda={lam}"
    report(4, "additive delay sandwich (1e6 runs)", time.time() - t0, 60.0)


def test_c05_markov_delay_sandwich_and_spectra():
    t0 = time.time()
    proc = MarkovAdditive(GE)
    # spectral checks: closed-form 2x2 eigenvalue and matrix-power identity
    for th in (0.35, -0.8, 1.1):
        m = mgf_matrix(GE, th)
        lam_closed = 0.5 * ((m[0, 0] + m[1, 1]) + math.sqrt(
            (m[0, 0] - m[1, 1]) ** 2 + 4.0 * m[0, 1] * m[1, 0]))
        kappa, _ = _spectral(proc, th)
        assert abs(math.exp(kappa) - lam_closed) < 1e-10
        assert_matrix_power_identity(GE, [(t, th) for t in range(1, 11)])
    d_grid = [5.0, 10.0, 20.0]
    horizons = {0.5: 400, 1.0: 700}
    pi = GE.stationary
    starts = {init: MarkovAdditive(GE, init) for init in GE.states}
    for lam, horizon in horizons.items():
        arrival = ArrivalSpec(lam)
        per_state = {}
        for idx, init in enumerate(GE.states):
            cfg = SimConfig(5050 + idx, 500_000, horizon, 0)
            per_state[init] = empirical_delay_tails(starts[init], arrival,
                                                    d_grid, cfg)
        for k, d in enumerate(d_grid):
            detail = delay_tail_markov_detail(proc, arrival, d)
            for init in GE.states:
                fixed = delay_tail_markov_detail(starts[init], arrival, d)
                lo, up = fixed.lower, fixed.upper
                est = per_state[init][k]
                assert est.point <= up.value + slack3(est, up.value)
                assert est.point >= lo.value - slack3(est, lo.value)
            # stationary mixture estimate vs the pi-mixed bounds
            mix_p = sum(p * per_state[s][k].point for p, s in zip(pi, GE.states))
            mix_se = math.sqrt(sum((p * per_state[s][k].stderr) ** 2
                                   for p, s in zip(pi, GE.states)))
            mix_est = type(per_state["G"][k])(mix_p, mix_se,
                                              per_state["G"][k].runs_used)
            assert mix_p <= detail.upper.value + slack3(mix_est,
                                                        detail.upper.value)
            assert mix_p >= detail.lower.value - slack3(mix_est,
                                                        detail.lower.value)
    report(5, "Markov sandwich + spectra (1e6 chains)", time.time() - t0, 60.0)


def test_c06_comonotonic_closed_forms():
    t0 = time.time()
    ray = capacity_marginal(SPEC, Rayleigh())
    proc = Comonotonic(ray)
    t = 7
    samples = cumulative_capacity_samples(proc, t, 100_000, seed=6060)
    ks = stats.kstest(samples, lambda x: ray.cdf(np.asarray(x) / t)).statistic
    critical = math.sqrt(math.log(2.0 / 0.001) / (2.0 * samples.size))
    assert ks < critical
    lam = ray.quantile(0.5)
    arrival = ArrivalSpec(lam)
    # analytic identity at infinite horizon, constant in d
    for d in (0.0, 3.0, 11.0):
        assert abs(delay_tail_comonotonic(proc, arrival, d)
                   - float(ray.cdf(lam))) < 1e-12
    ests = empirical_delay_tails(proc, arrival, [3.0, 7.0],
                                 SimConfig(6061, 100_000, 2000, 0))
    for est in ests:
        assert abs(est.point - ray.cdf(lam)) <= slack3(est, ray.cdf(lam))
    report(6, "comonotonic closed forms", time.time() - t0, 30.0)


def test_c07_frechet_envelope_contains_empirical():
    t0 = time.time()
    n = 512
    uniform = DiscreteDistribution((np.arange(n) + 0.5) / n, np.full(n, 1.0 / n))
    runs = 100_000
    for t in (2, 3, 4):
        sims = {
            "como": cumulative_capacity_samples(Comonotonic(uniform), t, runs,
                                                seed=700 + t),
            "indep": cumulative_capacity_samples(Additive(uniform), t, runs,
                                                 seed=710 + t),
            "anti": cumulative_capacity_samples(AntitheticPairing(uniform), t,
                                                runs, seed=720 + t),
        }
        for x in np.linspace(0.15 * t, 0.85 * t, 7):
            lo, up = frechet_bounds([uniform] * t, float(x))
            for name, samples in sims.items():
                p = float(np.mean(samples <= x))
                se = math.sqrt(max(p * (1 - p), 1e-9) / runs)
                assert lo - 3 * se <= p <= up + 3 * se, \
                    f"{name} escaped the envelope at t={t}, x={x:.3f}"
    report(7, "Frechet envelope vs three copulas", time.time() - t0, 60.0)


def test_c08_ordering_chain():
    t0 = time.time()
    # stop-loss verdicts on the triple
    probe_t, runs = 16, 200_000
    s_n = SampleSet(cumulative_capacity_samples(AntitheticPairing(TWO_POINT),
                                                probe_t, runs, seed=801), "S_N")
    s_i = SampleSet(cumulative_capacity_samples(Additive(TWO_POINT),
                                                probe_t, runs, seed=802), "S_perp")
    s_p = SampleSet(cumulative_capacity_samples(Comonotonic(TWO_POINT),
                                                probe_t, runs, seed=803), "S_P")
    assert cx_order(s_n, s_i).holds == "yes"
    assert cx_order(s_i, s_p).holds == "yes"
    # two-uniform stop-loss closed forms at 1e6 samples
    rng = np.random.default_rng(804)
    m = 1_000_000
    indep = SampleSet(rng.random(m) + rng.random(m))
    como = SampleSet(2.0 * rng.random(m))
    assert abs(stop_loss_curve(indep, np.array([1.0]))[0] - 1.0 / 6.0) < 1e-3
    assert abs(stop_loss_curve(como, np.array([1.0]))[0] - 0.25) < 1e-3
    # adjustment-coefficient ordering wherever roots exist
    arrival = ArrivalSpec(0.5)
    th_i = adjustment_coefficient(Additive(TWO_POINT), arrival)
    assert th_i is not None
    assert adjustment_coefficient(Comonotonic(TWO_POINT), arrival) is None
    asym = DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.3, 0.7]))
    th_n = adjustment_coefficient(AntitheticPairing(asym), ArrivalSpec(1.1))
    th_a = adjustment_coefficient(Additive(asym), ArrivalSpec(1.1))
    assert th_n is not None and th_a is not None and th_n >= th_a
    # strict-tail delay chain on d = 1..20 within 3 SE
    d_grid = list(range(1, 21))
    cfgs = [SimConfig(805 + k, 300_000, 600, 0) for k in range(3)]
    tails = [empirical_delay_tails(p, arrival, d_grid, c, strict=True)
             for p, c in zip((AntitheticPairing(TWO_POINT), Additive(TWO_POINT),
                              Comonotonic(TWO_POINT)), cfgs)]
    for en, ei, ep in zip(*tails):
        assert en.point <= ei.point + 3 * math.hypot(en.stderr, ei.stderr) + 1e-12
        assert ei.point <= ep.point + 3 * math.hypot(ei.stderr, ep.stderr) + 1e-12
    report(8, "ordering chain (cx, stop-loss, roots, MC)", time.time() - t0, 60.0)


def test_c09_feedback_bounds():
    t0 = time.time()
    # additive feedback: MC tails below the 2-lambda bound at every d
    proc = Additive(TWO_POINT)
    arrival = ArrivalSpec(0.25)
    d_grid = [1, 2, 5, 10, 20]
    ests = feedback_queue(proc, arrival, SimConfig(909, 300_000, 800, 0), d_grid)
    for d, est in zip(d_grid, ests):
        rep = feedback_delay(proc, arrival, float(d))
        assert est.point <= rep.value + slack3(est, rep.value)
        impr = feedback_delay(proc, arrival, float(d), improved=True)
        assert est.point <= impr.value + slack3(est, impr.value)
    # Markov feedback (Gilbert-Elliott at lambda = 0.4; 2*lambda < 4/3)
    mproc = MarkovAdditive(GE)
    marr = ArrivalSpec(0.4)
    mests = feedback_queue(mproc, marr, SimConfig(910, 300_000, 800, 0),
                           [5, 10, 20])
    for d, est in zip((5, 10, 20), mests):
        rep = feedback_delay(mproc, marr, float(d))
        assert est.point <= rep.value + slack3(est, rep.value)
        impr = feedback_delay(mproc, marr, float(d), improved=True)
        assert est.point <= impr.value + slack3(est, impr.value)
    # multiplier-1 feedback coincides bit-for-bit with the plain bound
    plain = delay_tail(proc, ArrivalSpec(0.5), 10.0)[1]
    fb1 = feedback_delay(proc, ArrivalSpec(0.5), 10.0,
                         multiplier=1.0, improved=True)
    assert (fb1.value, fb1.theta_star, fb1.prefactor) == \
        (plain.value, plain.theta_star, plain.prefactor)
    mplain = delay_tail(mproc, ArrivalSpec(1.0), 10.0)[1]
    mfb1 = feedback_delay(mproc, ArrivalSpec(1.0), 10.0,
                          multiplier=1.0, improved=True)
    assert (mfb1.value, mfb1.theta_star, mfb1.prefactor) == \
        (mplain.value, mplain.theta_star, mplain.prefactor)
    # shared-channel multi-hop bound invariant in N for fixed K
    reports = []
    for n in (1, 2, 4, 7):
        chain = HopChain((proc,) * n, 1, True)
        reports.append(feedback_delay(
            chain.hops[0], arrival, 10.0,
            multiplier=float(chain.multiplier + 1)))
    assert all(r == reports[0] for r in reports[1:])
    report(9, "feedback and multi-hop invariance", time.time() - t0, 60.0)


def test_c10_end_to_end_bound():
    t0 = time.time()
    proc = Additive(TWO_POINT)
    arrival = ArrivalSpec(0.2)
    chain = HopChain((proc, proc), 1, False)
    d_grid = [30, 40]
    ests = tandem_queue(chain, arrival, SimConfig(1010, 100_000, 1000, 0),
                        d_grid)
    for d, est in zip(d_grid, ests):
        rep = e2e_delay_bound(chain, arrival, float(d))
        assert rep.value < 1.0, "bound should be informative at this d"
        assert est.point <= rep.value + slack3(est, rep.value)
    # N = 1 equals the direct union-bound computation
    single = HopChain((proc,), 1, False)
    for th in (0.5, 0.9, 1.3):
        a = e2e_delay_bound(single, arrival, 30.0, th)
        b = additive_union_delay_bound(proc, arrival, 30.0, th, multiplier=1)
        assert abs(a.value - b) < 1e-12
    report(10, "end-to-end segmentation bound", time.time() - t0, 120.0)


def test_c11_reproducibility(tmp_path):
    t0 = time.time()
    from wnc.cli import main
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert main(["validate", "--scenario", "scenarios/default.yaml",
                 "--out", str(out1)]) == 0
    assert main(["validate", "--scenario", "scenarios/default.yaml",
                 "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    rows = b1.decode().strip().splitlines()[1:]
    assert all(line.rsplit(",", 1)[1] == "true" for line in rows)
    report(11, "validate reproducibility (byte-identical)", time.time() - t0,
           600.0)
