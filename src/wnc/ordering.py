"""Empirical stochastic-order checks and adjustment-coefficient ordering.

Orders are decided on finite samples, so every verdict is three-valued
(yes / no / inconclusive) with an explicit statistical tolerance:

    st   F_X(x) >= F_Y(x) at the merged order statistics, within a
         Dvoretzky-Kiefer-Wolfowitz band at 99% confidence
    icx  stop-loss comparison E[(X-t)^+] <= E[(Y-t)^+] on a t-grid,
         with the DKW-implied tolerance (eps_X + eps_Y) * (max - t)^+
    cx   equal means plus the icx check in both directions

The adjustment-coefficient comparison tests the implication "convex-ordered
cumulative capacities have reverse-ordered adjustment coefficients": if
S_A <=_cx S_B then theta_B <= theta_A (larger dependence, heavier delay
tail, smaller decay rate).  The implication is only ever tested in that
direction; a missing root makes the check vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .delay import ArrivalSpec, lundberg_root
from .errors import NumericFailure, UnstableSystemError, ValidationError
from .processes import Additive, AntitheticPairing, Comonotonic
from .simulate import SimConfig, empirical_delay_tails

__all__ = [
    "SampleSet", "OrderVerdict", "st_order", "icx_order", "cx_order",
    "stop_loss_curve", "adjustment_coefficient", "adjustment_ordering",
    "delay_ordering_check", "AdjustmentOrdering", "DelayOrderingReport",
]


@dataclass(frozen=True)
class SampleSet:
    """Uniformly weighted empirical sample with a provenance label."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValidationError("values must be finite")
        v = np.sort(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    def dkw(self) -> float:
        """DKW half-width of the 99 % band: P(sup |F_n - F| > eps) <= 0.01."""
        return math.sqrt(math.log(2.0 / 0.01) / (2.0 * self.n))


@dataclass(frozen=True)
class OrderVerdict:
    relation: str                     # st | cx | icx
    holds: str                        # yes | no | inconclusive
    max_violation: float
    violation_location: Optional[float]
    tolerance_used: float
    reason: str = ""


def _verdict(relation, violations, tolerances, locations):
    violations = np.asarray(violations, dtype=float)
    tolerances = np.asarray(tolerances, dtype=float)
    worst = int(np.argmax(violations - tolerances))
    max_v = float(violations[worst])
    tol = float(tolerances[worst])
    if np.all(violations <= tolerances):
        holds = "yes"
        loc = None
    elif max_v > 3.0 * tol:
        holds = "no"
        loc = float(locations[worst])
    else:
        holds = "inconclusive"
        loc = float(locations[worst])
    return OrderVerdict(relation, holds, max_v, loc, tol)


def st_order(x: SampleSet, y: SampleSet) -> OrderVerdict:
    """Is X <=_st Y, i.e. F_X >= F_Y everywhere, within the DKW band."""
    grid = np.union1d(x.values, y.values)
    fx = np.searchsorted(x.values, grid, side="right") / x.n
    fy = np.searchsorted(y.values, grid, side="right") / y.n
    tolerance = x.dkw() + y.dkw()
    violations = fy - fx
    return _verdict("st", violations, np.full(grid.size, tolerance), grid)


def stop_loss_curve(sample: SampleSet, t_grid: np.ndarray) -> np.ndarray:
    """Exact empirical stop-loss E[(X - t)^+] at each t."""
    v = sample.values
    suffix = np.concatenate((np.cumsum(v[::-1])[::-1], [0.0]))
    idx = np.searchsorted(v, t_grid, side="right")
    above = v.size - idx
    return (suffix[idx] - t_grid * above) / v.size


def _lower_stop_loss(sample: SampleSet, t_grid: np.ndarray) -> np.ndarray:
    """E[(t - X)^+] at each t."""
    v = sample.values
    prefix = np.concatenate(([0.0], np.cumsum(v)))
    idx = np.searchsorted(v, t_grid, side="left")
    return (t_grid * idx - prefix[idx]) / v.size


def _pooled_grid(x: SampleSet, y: SampleSet) -> np.ndarray:
    lo = min(x.values[0], y.values[0])
    hi = max(x.values[-1], y.values[-1])
    if hi <= lo:
        return np.array([lo])
    return np.linspace(lo, hi, 512)


def icx_order(x: SampleSet, y: SampleSet) -> OrderVerdict:
    """Is X <=_icx Y: stop-loss transforms compared on a 512-point grid."""
    grid = _pooled_grid(x, y)
    slx = stop_loss_curve(x, grid)
    sly = stop_loss_curve(y, grid)
    hi = grid[-1]
    tolerances = (x.dkw() + y.dkw()) * np.maximum(hi - grid, 0.0) + 1e-12
    return _verdict("icx", slx - sly, tolerances, grid)


def cx_order(x: SampleSet, y: SampleSet) -> OrderVerdict:
    """Is X <=_cx Y: equal means, then icx in both directions."""
    mean_gap = abs(float(x.values.mean()) - float(y.values.mean()))
    mean_tol = 3.0 * (x.values.std(ddof=1) / math.sqrt(x.n)
                      + y.values.std(ddof=1) / math.sqrt(y.n)) + 1e-12
    if mean_gap > mean_tol:
        return OrderVerdict("cx", "no", mean_gap, None, mean_tol,
                            reason="means differ")
    grid = _pooled_grid(x, y)
    up = stop_loss_curve(x, grid) - stop_loss_curve(y, grid)
    down = _lower_stop_loss(x, grid) - _lower_stop_loss(y, grid)
    band = x.dkw() + y.dkw()
    tol_up = band * np.maximum(grid[-1] - grid, 0.0) + 1e-12
    tol_down = band * np.maximum(grid - grid[0], 0.0) + 1e-12
    violations = np.concatenate((up, down))
    tolerances = np.concatenate((tol_up, tol_down))
    locations = np.concatenate((grid, grid))
    return _verdict("cx", violations, tolerances, locations)


# ---------------------------------------------------------------------------
# adjustment coefficients


def adjustment_coefficient(process, arrival: ArrivalSpec) -> Optional[float]:
    """Positive Lundberg root of the process increment law, if it exists.

    Additive: root of log E[exp(theta (lambda - C))] = 0.  Markov-additive:
    root of theta lambda + log sp(F[-theta]) = 0.  Antithetic pairing: root
    on the two-slot block increment 2 lambda - (F^-1(U) + F^-1(1-U)).
    Comonotonic: the normalised limit kappa(theta) = theta (lambda - ess inf C)
    has no positive root unless the channel never queues; returns None.
    """
    if isinstance(process, Comonotonic):
        return None
    if isinstance(process, AntitheticPairing):
        # the antithetic block of two slots drains 2 lambda per step
        process = Additive(process.pair_sum_law)
        arrival = ArrivalSpec(2.0 * arrival.lam)
    try:
        return lundberg_root(process, arrival).theta_star
    except (UnstableSystemError, NumericFailure):
        return None


@dataclass(frozen=True)
class AdjustmentOrdering:
    theta_a: Optional[float]
    theta_b: Optional[float]
    cx_verdict: OrderVerdict
    consistent: bool
    note: str = ""


def adjustment_ordering(proc_a, proc_b, arrival: ArrivalSpec,
                        verdict: OrderVerdict) -> AdjustmentOrdering:
    """Check S_A <=_cx S_B  =>  theta_B <= theta_A.

    The antecedent is the caller's verdict, ``cx_order`` of samples of
    S_A and S_B; the check is one-directional and vacuously consistent
    when either root is missing.
    """
    theta_a = adjustment_coefficient(proc_a, arrival)
    theta_b = adjustment_coefficient(proc_b, arrival)
    if verdict.holds != "yes":
        return AdjustmentOrdering(theta_a, theta_b, verdict, True,
                                  "antecedent not established")
    if theta_a is None or theta_b is None:
        return AdjustmentOrdering(theta_a, theta_b, verdict, True,
                                  "no positive root: vacuously consistent")
    consistent = not (theta_b > theta_a + 1e-6)
    return AdjustmentOrdering(theta_a, theta_b, verdict, consistent)


# ---------------------------------------------------------------------------
# delay ordering across the dependence triple


def _strict_tails(procs, arrival: ArrivalSpec, d_grid, config: SimConfig):
    """Monte Carlo strict tails P(D > d) on d_grid of each process, the
    k-th drawn on seed config.seed + k."""
    return [empirical_delay_tails(p, arrival, d_grid,
                                  replace(config, seed=config.seed + k),
                                  strict=True)
            for k, p in enumerate(procs)]


@dataclass(frozen=True)
class DelayOrderingReport:
    d_grid: tuple
    tails_negative: tuple
    tails_independent: tuple
    tails_comonotonic: tuple
    chain_holds: bool
    dcc_independent: Optional[float]
    dcc_comonotonic: Optional[float]
    dcc_ordered: Optional[bool]


def delay_ordering_check(proc_n, proc_perp, proc_p, arrival: ArrivalSpec,
                         d_grid, config: SimConfig,
                         dcc_d: float = 10.0, dcc_eps: float = 1e-2
                         ) -> DelayOrderingReport:
    """Monte Carlo check of the delay-tail chain across the triple.

    The chain P(D_N > d) <= P(D_perp > d) <= P(D_P > d) is compared on the
    strict tails with 3 combined standard errors of slack (on lattice
    walks the closed tails P(D >= d) can break the chain by the boundary
    atom: at d = 1, lambda = 1/2 the two-point channel has independent
    tail exp(-theta/2) = 0.544 against the comonotonic 0.5).  The
    delay-constrained capacities are compared where computable.
    """
    ests = _strict_tails((proc_n, proc_perp, proc_p), arrival, d_grid, config)

    def leq(a, b):
        return a.point <= b.point + 3.0 * math.hypot(a.stderr, b.stderr) + 1e-12

    chain = all(leq(n_est, p_est) and leq(p_est, c_est)
                for n_est, p_est, c_est in zip(*ests))

    from .delay import delay_constrained_capacity
    dcc_perp = dcc_como = None
    if isinstance(proc_perp, Additive):
        try:
            dcc_perp = delay_constrained_capacity(proc_perp, dcc_d,
                                                  dcc_eps).conservative
        except (UnstableSystemError, NumericFailure):
            pass
    if isinstance(proc_p, Comonotonic):
        try:
            dcc_como = delay_constrained_capacity(proc_p, dcc_d,
                                                  dcc_eps).conservative
        except (UnstableSystemError, NumericFailure):
            pass
    ordered = None
    if dcc_perp is not None and dcc_como is not None:
        ordered = dcc_perp >= dcc_como - 1e-9
    return DelayOrderingReport(
        d_grid=tuple(d_grid),
        tails_negative=tuple(ests[0]),
        tails_independent=tuple(ests[1]),
        tails_comonotonic=tuple(ests[2]),
        chain_holds=chain,
        dcc_independent=dcc_perp,
        dcc_comonotonic=dcc_como,
        dcc_ordered=ordered)
