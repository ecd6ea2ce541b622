"""Self-interference and multi-hop analysis.

A channel whose output is fed back into itself offers the external flow at
least S(t) - A(t) of service (leftover service under blind scheduling plus
causality), so the delay obeys the delay bound of the walk 2*lambda - C,
read at the same level lambda*d: ``feedback_delays`` solves that walk with
``delay.ruin`` and assembles its reports with ``delay._delay_bounds``.
Multi-hop chains with K-hop interference reduce to S(t) - (2K-1) A(t) per
hop with K = min(K, N); a shared channel collapses to a single traversal.
The end-to-end bound sums factorised per-segment Chernoff terms over all
time segmentations; for additive hops that sum has the closed form
e^{-theta lambda d} prod_i 1/(1 - w_i), which is minimised over theta by
one bounded scalar search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import solve
from .delay import ArrivalSpec, _delay_bounds, ruin
from .errors import UnstableSystemError, ValidationError
from .processes import Additive, BoundReport, _Tilts, process_mean_rate

__all__ = ["HopChain", "feedback_delay", "feedback_delays",
           "e2e_delay_bound"]


@dataclass(frozen=True)
class HopChain:
    """Ordered hops with K-hop interference; K is capped at min(K, N)."""

    hops: tuple
    interference_k: int = 1
    shared_channel: bool = False

    def __post_init__(self):
        if len(self.hops) < 1:
            raise ValidationError("need at least one hop")
        if self.interference_k < 1:
            raise ValidationError("interference_k must be >= 1")
        object.__setattr__(self, "hops", tuple(self.hops))

    @property
    def effective_k(self) -> int:
        return min(self.interference_k, len(self.hops))

    @property
    def multiplier(self) -> int:
        """Worst-case interference charge 2K - 1 (K output, K-1 input)."""
        return 2 * self.effective_k - 1

    @property
    def queueing_hops(self) -> tuple:
        """The hops where traffic queues: on a shared channel one slot's
        capacity serves the whole chain, so only the first hop; otherwise
        every hop."""
        return self.hops[:1] if self.shared_channel else self.hops


# ---------------------------------------------------------------------------
# feedback delay bounds


def feedback_delay(process, arrival: ArrivalSpec, d: float,
                   multiplier: float = 2.0,
                   improved: bool = False) -> BoundReport:
    """Feedback delay bound: that of the walk m*lambda - C at level lambda*d.

    The default is the eigenvector pair's upper side h(J0)/min_j h(J_j),
    with J0 the process's start, ``process.initial`` (1 for an Additive
    process); ``improved=True`` gives the Cramer upper side C_+ h(J0).
    ``multiplier=1`` is the non-feedback upper bound itself.
    """
    pair = feedback_delays(process, arrival, [d], multiplier)[0]
    return pair[1] if improved else pair[0]


def feedback_delays(process, arrival: ArrivalSpec, d_values,
                    multiplier: float = 2.0) -> list:
    """(plain, improved) ``feedback_delay`` reports at each d of d_values.

    One ``ruin`` solve of the m*lambda - C walk serves every d, and
    ``delay._delay_bounds`` assembles both reports.
    """
    if any(d < 0 for d in d_values):
        raise ValidationError("d must be nonnegative")
    drain = multiplier * arrival.lam
    if process_mean_rate(process) - drain <= 0:
        raise UnstableSystemError(
            f"feedback-unstable: {multiplier:g}*lambda exceeds the mean capacity")
    r = ruin(process, drain)
    return [(b.basic_upper, b.upper)
            for b in (_delay_bounds(process, r, arrival, d) for d in d_values)]


# ---------------------------------------------------------------------------
# end-to-end segmentation bound


def e2e_delay_bound(chain: HopChain, arrival: ArrivalSpec, d: float,
                    theta: Optional[float] = None) -> BoundReport:
    """End-to-end delay bound for heterogeneous additive hops.

    P(D >= d) <= sum_t sum_{segmentations u} prod_i E[exp(-theta S_i*(seg_i))]
                 * exp(theta lambda (t - d)),

    with S_i* = S_i - (2K-1) A, over the chain's ``queueing_hops``: a shared
    channel is one traversal, so its bound is the one-hop bound at the
    chain's multiplier.  For additive hops the per-segment factor is
    exp(len * (kappa_i(-theta) + theta (2K-1) lambda)), so the inner sum is
    the complete homogeneous polynomial h_t in the weights
    w_i = exp(kappa_i(-theta) + theta (2K-1) lambda + theta lambda), and the
    outer sum has the closed form sum_t h_t(w) = prod_i 1/(1 - w_i).  The
    bound is min(1, e^{-theta lambda d} prod_i 1/(1 - w_i)); it diverges
    exactly when max_i w_i >= 1, which is reported as a verdict, not an
    exception.  ``theta=None`` minimises the bound over theta: its log is
    convex, so one bounded scalar search on (0, theta_max) finds the
    optimum, theta_max being the root of max_i log w_i = 0.
    """
    if d < 0:
        raise ValidationError("d must be nonnegative")
    hops = chain.queueing_hops
    if not all(isinstance(h, Additive) for h in hops):
        raise ValidationError("the end-to-end bound requires additive hops")
    # one _Tilts memo per distinct marginal: a chain may repeat one hop
    # object, and laws are unhashable, so hops are told apart by identity
    distinct = {id(h.marginal): h for h in hops}
    index = [list(distinct).index(id(h.marginal)) for h in hops]
    tilts = [_Tilts(hop) for hop in distinct.values()]
    lam = arrival.lam
    drain = (chain.multiplier + 1) * lam

    def log_w(th):
        return np.array([t[-th][0] for t in tilts])[index] + th * drain

    def log_bound(th):
        lw = log_w(th)
        if not np.all(lw < 0.0):
            return math.inf
        return -th * lam * d - float(np.sum(np.log(-np.expm1(lw))))

    info = None
    if theta is None:
        # log w_i(theta) is convex with slope drain - E[C_i] at 0: no theta
        # converges when some hop's mean capacity does not exceed the drain
        if min(hop.marginal.mean() for hop in distinct.values()) > drain:
            theta_max, info = solve.positive_root(
                lambda th: float(np.max(log_w(th))))
        else:
            theta_max = None
        if theta_max is None:
            return BoundReport("delay_upper", 1.0, None, 1.0, math.inf,
                               "bound diverges at every theta", info)
        # every hop's capacity above the drain: the bound decays in theta
        # forever, and the search runs below the root cap
        theta_max = min(theta_max, solve.ROOT_CAP)
        theta, log_value, info = solve.minimize(log_bound, 0.0, theta_max,
                                                1e-12 * theta_max)
    elif theta <= 0:
        raise ValidationError("theta must be positive")
    else:
        log_value = log_bound(theta)
    if log_value == math.inf:
        return BoundReport("delay_upper", 1.0, theta, 1.0, math.inf,
                           "bound diverges at this theta", info)
    return BoundReport("delay_upper", math.exp(min(log_value, 0.0)), theta,
                       1.0, math.inf, "", info)
