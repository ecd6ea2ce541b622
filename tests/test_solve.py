import math
from pathlib import Path

import pytest
from scipy.optimize import brentq, minimize_scalar

from wnc import (Additive, ArrivalSpec, HopChain, MarkovAdditive,
                 NumericFailure, cdf_bounds, delay_tail, e2e_delay_bound,
                 feedback_delay, solve)
from wnc.cli import build_process, load_scenario

ROOT_FUNCS = [
    lambda x: math.exp(0.7 * x) - 2.5,
    lambda x: x ** 3 - 1.3,
    lambda x: math.atan(x - 0.4) + 0.1 * x,
    lambda x: (x - 0.2) * abs(x - 0.2) ** 0.3,
]

MIN_FUNCS = [
    lambda x: (x - 0.3) ** 2 + 0.5 * abs(x),
    lambda x: math.cosh(1.7 * (x - 1.1)),
    lambda x: x,
    lambda x: -x,
    lambda x: abs(x - 0.5) ** 1.5 + (math.inf if x > 2.5 else 0.0),
]


@pytest.mark.parametrize("f", ROOT_FUNCS)
def test_root_matches_brentq_bit_for_bit(f):
    x, info = solve.root(f, -10.0, 11.0)
    assert x == brentq(f, -10.0, 11.0, xtol=1e-15, rtol=8.9e-16, maxiter=300)
    assert info.residual == f(x)
    assert info.bracket == (-10.0, 11.0)
    assert 2 < info.evaluations < 100


@pytest.mark.parametrize("f", MIN_FUNCS)
@pytest.mark.parametrize("xatol", [1e-5, 1e-10, 5e-12])
def test_minimize_matches_bounded_minimize_scalar_bit_for_bit(f, xatol):
    ref = minimize_scalar(f, bounds=(-4.0, 5.0), method="bounded",
                          options={"xatol": xatol})
    x, fx, info = solve.minimize(f, -4.0, 5.0, xatol)
    assert (x, fx) == (float(ref.x), float(ref.fun))
    assert info.evaluations == ref.nfev


def test_minimize_reports_an_edge_optimum():
    x, _, info = solve.minimize(lambda u: u, 0.0, 1.0, 1e-12)
    assert x < 1e-11 and info.at_edge
    x, _, info = solve.minimize(lambda u: (u - 0.5) ** 2, 0.0, 1.0, 1e-12)
    assert x == pytest.approx(0.5) and not info.at_edge
    assert info.residual < 1e-7


def test_root_rejects_a_bracket_without_sign_change():
    with pytest.raises(NumericFailure):
        solve.root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_positive_root_cases():
    def two_point(lam):
        return lambda th: lam * th + math.log(0.5 + 0.5 * math.exp(-2.0 * th))

    theta, info = solve.positive_root(two_point(0.4))
    assert two_point(0.4)(theta) == info.residual
    assert abs(info.residual) < 1e-15
    assert info.bracket == (1.0, 2.0)        # doubling: g(1) < 0 <= g(2)
    # root below 1: the lower bracket comes from the minimiser
    theta, info = solve.positive_root(two_point(0.95))
    assert 0.0 < info.bracket[0] < theta < info.bracket[1] == 1.0
    # g'(0) >= 0: no negative value, no root
    assert solve.positive_root(two_point(1.2))[0] is None
    # negative up to the cap
    theta, info = solve.positive_root(lambda th: -th)
    assert theta == math.inf and info.at_edge
    assert info.bracket == (solve.ROOT_CAP, solve.ROOT_CAP)


def test_minimize_convex_brackets_interior_and_edge_optima():
    x, fx, info = solve.minimize_convex(lambda t: (t - 300.0) ** 2)
    assert x == pytest.approx(300.0, rel=1e-7) and not info.at_edge
    assert info.bracket == (128.0, 512.0)
    # increasing: the floor itself, confirmed by one inner probe
    x, fx, info = solve.minimize_convex(lambda t: t)
    assert (x, fx) == (1e-4, 1e-4) and info.at_edge
    # decreasing: the cap
    x, fx, info = solve.minimize_convex(lambda t: -t)
    assert x == 65536.0 and info.at_edge
    # +inf past the domain end, seed outside it
    f = (lambda t: (t - 0.01) ** 2 if t < 0.05 else math.inf)
    x, _, _ = solve.minimize_convex(f)
    assert x == pytest.approx(0.01, rel=1e-6)
    with pytest.raises(NumericFailure):
        solve.minimize_convex(lambda t: math.inf)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _shipped(name):
    return build_process(load_scenario(str(SCENARIOS / f"{name}.yaml")))


def test_diagnostics_populated_and_interior_on_shipped_scenarios(two_point):
    """Every searched theta carries its SolveInfo; a bound strictly inside
    (0, 1) comes from an optimum inside its bracket.  A trivial bound (0 or
    1) has its optimum at theta -> 0 or at the cap, which is an edge."""
    reports = []
    proc = _shipped("default")
    arrival = ArrivalSpec(0.4)
    for x in (4.0, 8.0, 12.0):
        reports += cdf_bounds(proc, 8, x)
    for d in (1.0, 5.0, 20.0):
        reports += delay_tail(proc, arrival, d)
        reports.append(feedback_delay(proc, arrival, d))
        reports.append(e2e_delay_bound(HopChain((proc, proc)), arrival, d))
    ge = _shipped("gilbert_elliott")
    assert isinstance(ge, MarkovAdditive)
    for x in (8.0, 13.0, 18.0):
        reports += cdf_bounds(ge, 10, x)
    for d in (5.0, 10.0, 20.0):
        reports += delay_tail(ge, ArrivalSpec(1.0), d)
    interior = [r for r in reports if 0.0 < r.value < 1.0]
    assert len(interior) >= 15
    for r in reports:
        assert isinstance(r.diagnostics, solve.SolveInfo)
        assert r.diagnostics.evaluations > 0
    for r in interior:
        assert not r.diagnostics.at_edge, r
    # equality ignores the diagnostics
    lo, up = delay_tail(Additive(two_point), arrival, 5.0)
    assert up == type(up)(*[getattr(up, f) for f in
                            ("kind", "value", "theta_star", "prefactor",
                             "horizon", "notes")])
