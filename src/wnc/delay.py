"""Delay and backlog tail bounds under constant fluid arrival.

With arrival A(t) = lambda*t and cumulative capacity S(t), the stationary
delay satisfies  P(D >= d) = P(sup_{t>=0} (lambda t - S(t)) >= lambda d),
a ruin probability for the random walk with increments lambda - C.  The
adjustment coefficient theta* solves the Lundberg equation kappa(theta)=0
for kappa(theta) = log E[exp(theta (lambda - C))], and

    C_- exp(-theta* lambda d)  <=  P(D >= d)  <=  C_+ exp(-theta* lambda d)

with the Cramer prefactors

    C_-/C_+ = inf/sup over x in [0, x0) of  P(Y >= x) / Int_[x,inf) e^{theta (y-x)} B(dy),

B the law of Y = lambda - C and x0 its supremum.  On purely atomic B both
extremes are attained at atom endpoints, so the scan evaluates them there
exactly.  Markov-additive channels replace kappa by the log Perron-
Frobenius eigenvalue of the tilted kernel, carry the eigenvector weight
h(J_i) for the initial state, and apply per-transition overshoot-corrected
Cramer prefactors (the bare eigenvector upper bound h(J_i)/min_j h_j is
reported separately).  Every bound here takes either process through one
path, its ``kernel``: an Additive process is the one-state Markov-additive
case, with kappa the marginal's cgf and h = (1,).

One solve per tilt per query, read from the query's ``processes._Tilts``;
the walk does not depend on d, so ``delay_tails`` answers a grid of d
from one ``ruin``.  The prefactor scan runs on the atom arrays of
drain - B_j directly (``_cramer``), without building a law per tilt; a
point mass takes the closed form ``_cramer_point``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import solve
from .distributions import _EXP_OVERFLOW, DiscreteDistribution
from .errors import NumericFailure, UnstableSystemError, ValidationError
from .processes import (BoundReport, Comonotonic, _kernel, _start_index,
                        _start_weight, _support_ends, _Tilts,
                        process_mean_rate)

_ROOT_TOL = 1e-9

__all__ = [
    "ArrivalSpec", "LundbergSolution", "Ruin", "stability_margin",
    "lundberg_root", "ruin", "delay_tail", "delay_tail_markov_detail",
    "delay_tails", "delay_tail_comonotonic", "backlog_tail",
    "delay_constrained_capacity", "cramer_prefactors",
]


@dataclass(frozen=True)
class ArrivalSpec:
    """Constant fluid arrival at rate lambda bits/slot."""

    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValidationError(f"lambda must be positive, got {self.lam!r}")


@dataclass(frozen=True)
class LundbergSolution:
    """The Lundberg root, its kappa residual and h, the right eigenvector
    at tilt -theta_star ((1,) for a one-state kernel), taken from the
    root search's own solve at that tilt."""

    theta_star: float
    kappa_residual: float
    h: Sequence[float] = field(compare=False)
    diagnostics: Optional[solve.SolveInfo] = field(default=None, compare=False)


def stability_margin(process, arrival: ArrivalSpec) -> float:
    """E[C] - lambda (stationary mean capacity minus the arrival rate)."""
    return process_mean_rate(process) - arrival.lam


# ---------------------------------------------------------------------------
# Lundberg roots


def _floor(process) -> float:
    """Smallest positive-mass atom any slot can produce (ess inf C)."""
    return min(float(law._pos_support[0]) for _, law in _kernel(process).entry_laws)


def lundberg_root(process, arrival: ArrivalSpec) -> LundbergSolution:
    """Positive root of kappa(theta) = theta lambda + kappa_C(-theta).

    kappa_C is the law's cgf for a one-state kernel (an Additive process)
    and the log Perron-Frobenius eigenvalue of F[-theta] for a larger one.
    A walk that drains m*lambda per step (the feedback channel, the
    antithetic two-slot block) is the one at rate ``ArrivalSpec(m*lambda)``.
    Requires a positive stability margin.
    """
    drain = arrival.lam
    if process_mean_rate(process) - drain <= 0:
        raise UnstableSystemError("no positive root: system unstable")
    if _floor(process) >= drain:
        # capacity never falls below the drain: the queue never builds
        raise NumericFailure("no positive root: capacity never below drain rate")

    tilts = _Tilts(process)

    def kappa(th):
        return th * drain + tilts[-th][0]

    theta, info = solve.positive_root(kappa)
    if theta is None:
        raise NumericFailure(
            "cannot bracket the Lundberg root: margin too small")
    if theta == math.inf:
        raise NumericFailure("no positive Lundberg root found")
    if abs(info.residual) > _ROOT_TOL:
        raise NumericFailure(
            f"Lundberg residual {info.residual:.3e} exceeds tolerance")
    return LundbergSolution(theta_star=theta, kappa_residual=info.residual,
                            h=tilts[-theta][1], diagnostics=info)


# ---------------------------------------------------------------------------
# Cramer prefactors (atom-exact)


def _cramer_point(y: float, theta: float):
    """``_cramer`` of the point mass at y > 0, at tilt theta > 0.

    The array expressions with one atom of mass 1.0: the tail is 1.0 and
    M(y) = e = exp(min(theta y, _EXP_OVERFLOW)) * 1.0, so the ratio at the
    left end 0 and at x = 0 is 1.0 * exp(0.0) / e = 1 / e, and the ratio at
    the atom is exp(theta y) / e >= 1, which the clip takes to 1.0.  Each
    dropped factor is an exact 1.0, and the exp is numpy's, so the bits
    are those of ``_cramer``.
    """
    return float(1.0 / np.exp(np.minimum(theta * y, _EXP_OVERFLOW))), 1.0


def _cramer(y: np.ndarray, m: np.ndarray, theta: float):
    """(C_-, C_+) of the atomic law with support y (increasing, y[-1] > 0)
    and masses m, at tilt theta > 0: the array kernel of cramer_prefactors.
    About a dozen numpy calls whatever the law's size; ``_prefactors``
    takes a point mass through ``_cramer_point`` instead."""
    # suffix structures over all atoms
    tail_geq = np.cumsum(m[::-1])[::-1]                  # P(Y >= y_k)
    expwt = np.exp(np.minimum(theta * y, _EXP_OVERFLOW)) * m
    mexp = np.cumsum(expwt[::-1])[::-1]                  # M(y_k)
    pos = np.nonzero(y > 0)[0]
    lefts = np.concatenate(([0.0], y[pos][:-1]))         # previous atom or 0
    # unclipped: at theta y > 709 a ratio is inf, which the clip below
    # takes to C_+ = 1.0 exactly; clipping the exp would move it off 1.0
    with np.errstate(over="ignore"):
        ratios_up = tail_geq[pos] * np.exp(theta * y[pos]) / mexp[pos]
        ratios_lo = tail_geq[pos] * np.exp(theta * lefts) / mexp[pos]
    # exact x = 0 point (includes any atom at 0)
    k0 = int(np.searchsorted(y, 0.0, side="left"))       # < y.size: y[-1] > 0
    r0 = tail_geq[k0] / mexp[k0]
    c_plus = float(max(np.max(ratios_up), r0))
    c_minus = float(min(np.min(ratios_lo), r0))
    return c_minus, min(c_plus, 1.0)


def cramer_prefactors(increment_law: DiscreteDistribution, theta: float):
    """(C_-, C_+) for a purely atomic increment law Y.

    Scans the ratio  P(Y >= x) / Int_[x,inf) e^{theta(y-x)} B(dy)  over
    x in [0, x0].  Between consecutive atoms the ratio is increasing in x,
    so the supremum is attained at atom points and the infimum at interval
    left endpoints; both are evaluated exactly (including the x = 0 point
    and the x0 atom itself).
    """
    if theta <= 0:
        raise ValidationError("theta must be positive")
    if increment_law.support_max <= 0:
        raise ValidationError("increment law has no positive part")
    return _cramer(increment_law.support, increment_law.mass, theta)


@dataclass(frozen=True)
class Ruin:
    """Ruin data of the walk with increments drain - C, or its degeneracy.

    theta_star is the Lundberg root, h the right eigenvector at tilt
    -theta_star ((1,) for a one-state kernel) and c_minus/c_plus the
    overshoot-corrected Cramer prefactors.
    """

    theta_star: Optional[float]
    h: Optional[Sequence[float]]
    c_minus: float
    c_plus: float
    degenerate: bool            # drain never exceeded: ruin probability 0
    unstable: bool              # nonpositive margin: ruin probability 1
    diagnostics: Optional[solve.SolveInfo] = field(default=None, compare=False)


def _prefactors(process, drain: float, theta: float, h):
    """(C_-, C_+) at tilt theta, h the eigenvector at -theta.

    inf and sup over the kernel's ``entry_laws`` B_j (into state j) of
    (1/h_j) P(Y >= x) / Int_[x,inf) e^{theta(y-x)} B(dy), Y ~ drain - B_j.
    With one state (h = (1,)) this is the plain Cramer pair.  Y's atoms
    are drain minus B_j's atoms of positive mass in reverse order, with
    their masses reversed and renormalised: the law that
    ``B_j.affine(drain, -1)`` builds, without its validation and its
    zero-mass atoms (which would scan 0/0).  Those masses depend on
    neither the drain nor the tilt, so each law keeps them
    (``_reversed_mass``); a law with one positive-mass atom takes the
    closed form ``_cramer_point``.
    """
    ratios = []
    for j, law in _kernel(process).entry_laws:
        if law._point is not None:
            y = drain - law._point
            if y <= 0:
                continue             # this law never crosses upward
            lo, up = _cramer_point(y, theta)
        else:
            y = drain - law._pos_support[::-1]
            if y[-1] <= 0:
                continue
            lo, up = _cramer(y, law._reversed_mass, theta)
        ratios.append((lo / h[j], up / h[j]))
    return min(r[0] for r in ratios), max(r[1] for r in ratios)


def ruin(process, drain: float) -> Ruin:
    """Lundberg root plus overshoot-corrected Cramer prefactors.

    The correction is essential for the lower bound: the bare eigenvector
    value h_i/max_j h_j is a lower prefactor only for skip-free kernels
    (zero overshoot at the crossing, e.g. destination-attached point
    masses); with general increment laws the crossing overshoot costs a
    factor of inf over transitions (i,j) and gaps x of
    (1/h_j) * P(Y >= x) / Int_[x,inf) e^{theta(y-x)} B_ij(dy),
    where B_ij is the walk-increment law drain - H_ij and h_j weights the
    post-crossing state.  The maximum of the same ratios tightens the
    upper bound.  An Additive process is the one-state case.
    """
    if _floor(process) >= drain:
        return Ruin(None, None, 0.0, 0.0, degenerate=True, unstable=False)
    if process_mean_rate(process) - drain <= 0:
        return Ruin(None, None, 1.0, 1.0, degenerate=False, unstable=True)
    sol = lundberg_root(process, ArrivalSpec(drain))
    c_minus, c_plus = _prefactors(process, drain, sol.theta_star, sol.h)
    return Ruin(sol.theta_star, sol.h, c_minus, c_plus, degenerate=False,
                unstable=False, diagnostics=sol.diagnostics)


@dataclass(frozen=True)
class MarkovDelayBounds:
    lower: BoundReport
    upper: BoundReport
    basic_upper: BoundReport
    theta_star: Optional[float]


def delay_tail_markov_detail(process, arrival: ArrivalSpec,
                             d: float) -> MarkovDelayBounds:
    """Delay bounds from the process's start, ``process.initial``.

    The primary pair uses the overshoot-corrected Cramer prefactors
    C_-+ h(J0) e^{-theta lambda d}, with h(J0) = 1 from the stationary
    start.  The eigenvector upper bound h(J0)/min_j h_j e^{-theta lambda d}
    is attached as basic_upper.  The bounds from a fixed state s are those
    of ``MarkovAdditive(kernel, s)``; the stationary ones are their
    pi-mixture.  An Additive process is the one-state case (h = (1,)).
    A degenerate or unstable walk reports prefactor 1.
    """
    return delay_tails(process, arrival, [d])[0]


def delay_tails(process, arrival: ArrivalSpec, d_values) -> list:
    """``delay_tail_markov_detail`` at each d of d_values.

    The walk does not depend on d, so one ``ruin`` solve (Lundberg root,
    eigenvector and Cramer prefactors) serves every d.
    """
    if any(d < 0 for d in d_values):
        raise ValidationError("d must be nonnegative")
    r = ruin(process, arrival.lam)
    return [_delay_bounds(process, r, arrival, d) for d in d_values]


def _delay_bounds(process, r: Ruin, arrival: ArrivalSpec,
                  d: float) -> MarkovDelayBounds:
    """delay_tail_markov_detail at one d from the walk's ruin data r."""
    level = arrival.lam * d

    def report(kind, value, pref, notes=""):
        return BoundReport(kind, min(1.0, max(0.0, value)), r.theta_star,
                           pref, math.inf, notes, r.diagnostics)

    if r.unstable or r.degenerate:
        v = 1.0 if r.unstable or d == 0 else 0.0
        notes = ("unstable: vacuous bound" if r.unstable
                 else "degenerate: queue never builds")
        pair = (report("delay_lower", v, 1.0, notes),
                report("delay_upper", v, 1.0, notes))
        return MarkovDelayBounds(*pair, pair[1], theta_star=None)

    h = r.h
    e = math.exp(-r.theta_star * level)
    hmin = float(min(h))
    w = _start_weight(h, _start_index(process))
    note = "eigenvector prefactor (exact only for skip-free kernels)"
    basic_upper = report("delay_upper", w / hmin * e, w / hmin, note)
    lower = report("delay_lower", r.c_minus * w * e, r.c_minus * w,
                   "improved prefactor")
    upper = report("delay_upper", r.c_plus * w * e, r.c_plus * w,
                   "improved prefactor")
    return MarkovDelayBounds(lower, upper, basic_upper,
                             theta_star=r.theta_star)


def delay_tail(process, arrival: ArrivalSpec, d: float):
    """(lower, upper) BoundReports on P(D >= d) from ``process.initial``.

    C_-+ h(J0) e^{-theta* lambda d}; h(J0) = 1 from the stationary start
    and for an Additive process.
    """
    detail = delay_tail_markov_detail(process, arrival, d)
    return detail.lower, detail.upper


# ---------------------------------------------------------------------------
# comonotonic delay, backlog identity, inversion


def delay_tail_comonotonic(process: Comonotonic, arrival: ArrivalSpec,
                           d: float, horizon_t: float = math.inf) -> float:
    """P(D(t) > d) = F_C(lambda - lambda d / t); F_C(lambda) at t = inf."""
    if d < 0:
        raise ValidationError("d must be nonnegative")
    if horizon_t != math.inf and horizon_t < 1:
        raise ValidationError("horizon must be >= 1 slot or infinite")
    lam = arrival.lam
    if math.isinf(horizon_t):
        return float(process.marginal.cdf(lam))
    arg = lam - lam * d / horizon_t
    if arg < 0:
        return 0.0
    return float(process.marginal.cdf(arg))


def backlog_tail(process, arrival: ArrivalSpec, x: float):
    """P(B > x) = P(D > x / lambda): delegates to the matching delay op."""
    if x < 0:
        raise ValidationError("x must be nonnegative")
    d = x / arrival.lam
    if isinstance(process, Comonotonic):
        return delay_tail_comonotonic(process, arrival, d)
    return delay_tail(process, arrival, d)


@dataclass(frozen=True)
class DCCDiagnostics:
    """How a delay-constrained-capacity search ended.

    conservative/optimistic hold the SolveInfo of each end's root search in
    theta (bracketing steps included in its evaluation count), or None
    where no root search ran: the end sits at the floor rate or no rate
    meets epsilon.  tilts counts the distinct theta solved: the size of
    the call's ``_Tilts`` memo, one spectral solve each.
    """

    conservative: Optional[solve.SolveInfo]
    optimistic: Optional[solve.SolveInfo]
    tilts: int


@dataclass(frozen=True)
class DelayConstrainedCapacity:
    """Arrival-rate window for the constraint P(D >= d) <= epsilon.

    conservative : largest rate whose *upper* delay bound meets epsilon
                   (guaranteed feasible)
    optimistic   : largest rate whose *lower* delay bound meets epsilon
                   (beyond it the true delay provably violates epsilon)
    one_shot_window : the fixed-theta inversion (-log(eps/C-)/(theta d),
                   -log(eps/C+)/(theta d)) with theta and C-+ taken at the
                   conservative rate, for comparison only: theta and C-+
                   themselves depend on lambda, which makes the one-shot
                   inversion circular; the effective-capacity root is the
                   fixed-point-correct answer
    diagnostics  : DCCDiagnostics of the theta search (None where none ran);
                   equality ignores it
    """

    conservative: float
    optimistic: float
    one_shot_window: tuple
    feasible: bool
    diagnostics: Optional[DCCDiagnostics] = field(default=None, compare=False)


# a DCC constraint that still fails at E[C] * 2^-46 is declared infeasible
_DCC_RATE_FLOOR = 2.0 ** -46


def delay_constrained_capacity(process, d: float, epsilon: float
                               ) -> DelayConstrainedCapacity:
    """Largest supportable arrival rate under a delay constraint.

    The search runs over the tilt theta rather than the rate.  At the
    effective capacity lambda = alpha(theta) = -kappa_C(-theta)/theta the
    Lundberg root is theta itself, so the delay bound at that rate is
    C(alpha(theta), theta) exp(kappa_C(-theta) d), and each end of the
    window is the single root in theta of

        log C(alpha(theta), theta) + kappa_C(-theta) d = log epsilon,

    with C = C_+ for the conservative end and C = C_- for the optimistic
    end (times h(J0) for a Markov channel started in a fixed state).
    Rates at or below ess inf C never build a queue and are always
    feasible; a constant channel, whose least and greatest capacity are
    one value, is feasible up to that value.

    One solve per tilt per query: the call's ``_Tilts`` and a memo of each
    theta's (C_-, C_+) let both ends share one doubling/halving bracket,
    and alpha(theta) reuses the solve.
    """
    if d <= 0:
        raise ValidationError("d must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("epsilon must be in (0,1)")
    if isinstance(process, Comonotonic):
        lam = process.marginal.quantile(epsilon)
        if lam <= 0:
            return DelayConstrainedCapacity(0.0, 0.0, (0.0, 0.0), False)
        return DelayConstrainedCapacity(lam, lam, (lam, lam), True)

    mean = process_mean_rate(process)
    floor = _floor(process)
    if floor == _support_ends(process)[1]:
        # constant channel: the capacity never falls below the drain
        return DelayConstrainedCapacity(floor, floor, (floor, floor), True)
    if floor >= mean:
        # the mean rounds down to the floor: no drain below it crosses
        return DelayConstrainedCapacity(mean, mean, (mean, mean), True)

    tilts = _Tilts(process)
    prefactors = {}     # theta -> (C_-, C_+) at the drain alpha(theta)

    def tilt(th):
        # kappa_C(-th), C-+ and the start weight h(J0)
        k, h, weight = tilts[-th]
        if h is None:
            raise NumericFailure(f"tilt {-th!r} lies outside the kernel's domain")
        if th not in prefactors:
            prefactors[th] = _prefactors(process, -k / th, th, h)
        return (k, *prefactors[th], weight)

    def rate(th):
        # -inf outside the domain, which ends the doubling
        return -tilts[-th][0] / th

    log_eps = math.log(epsilon)

    def largest_rate(side):
        """(theta, rate, (C_-, C_+), SolveInfo) at the root for C_- (side 0)
        or C_+ (side 1); theta and the SolveInfo are None when only rates at
        the floor qualify, and None is returned when no rate meets epsilon."""
        @solve._Counted
        def excess(th):
            k, c_minus, c_plus, weight = tilt(th)
            c = (c_minus, c_plus)[side] * weight
            return (math.log(c) if c > 0 else -math.inf) + k * d - log_eps

        # bracket with theta doubling (rate falling) or halving (rate rising);
        # no law crosses a drain at the floor, so no excess is taken there
        lo = hi = 1.0
        while rate(hi) > max(floor, _DCC_RATE_FLOOR * mean):
            if excess(hi) <= 0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            return (None, floor, None, None) if floor > 0 else None
        while excess(lo) <= 0:
            lo, hi = 0.5 * lo, lo
        th, info = solve.root(excess, lo, hi)
        k, c_minus, c_plus, _ = tilt(th)
        return th, -k / th, (c_minus, c_plus), solve.SolveInfo(
            info.bracket, excess.calls, info.residual, info.at_edge)

    upper = largest_rate(1)
    lower = largest_rate(0)
    optimistic = 0.0 if lower is None else lower[1]
    diagnostics = DCCDiagnostics(None if upper is None else upper[3],
                                 None if lower is None else lower[3],
                                 len(tilts))
    if upper is None:
        return DelayConstrainedCapacity(0.0, optimistic, (0.0, 0.0), False,
                                        diagnostics)
    theta, conservative, pref, _ = upper
    if theta is None:
        one_shot = (conservative, conservative)
    else:
        cm, cp = pref
        one_shot = (-math.log(epsilon / cm) / (theta * d) if cm > 0 else 0.0,
                    -math.log(epsilon / cp) / (theta * d))
    return DelayConstrainedCapacity(conservative, optimistic, one_shot, True,
                                    diagnostics)
