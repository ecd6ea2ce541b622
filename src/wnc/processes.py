"""Dependence-structure models of the cumulative capacity S(t) and its bounds.

Three process types cover the dependence spectrum:

    Comonotonic(marginal)      all slots driven by one uniform; S(t) = t*C
    Additive(marginal)         i.i.d. slots (product copula)
    MarkovAdditive(kernel)     increments modulated by a finite Markov chain

plus ``AntitheticPairing``, the negatively dependent construction used by
the ordering checks (consecutive slots are F^{-1}(U), F^{-1}(1-U)).

Bounds: the comonotonic closed form F_C(x/t), universal Frechet envelopes,
Chernoff bounds  1 - e^{t k(th) - th x} <= F_S(t)(x) <= e^{t k(-th) + th x}
for additive processes, and the Perron-Frobenius analogue with prefactor
h(J0)/min_j h(J_j) for Markov-additive processes.  ``_spectral`` turns a
tilt th into (kappa(th), h): log sp(F[th]) and its right eigenvector from
one ``perron_frobenius`` solve, or the marginal's cgf and h = (1,) for an
Additive process.  ``MarkovKernel`` says which law each transition carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import solve
from .distributions import _EXP_OVERFLOW, DiscreteDistribution
from .errors import NumericFailure, ValidationError

__all__ = [
    "Comonotonic", "Additive", "MarkovAdditive", "AntitheticPairing",
    "CapacityProcess", "MarkovKernel", "BoundReport",
    "comonotonic_cdf", "frechet_bounds", "cdf_bounds", "mgf_matrix",
    "perron_frobenius", "process_mean_rate",
]


# ---------------------------------------------------------------------------
# result record


@dataclass(frozen=True)
class BoundReport:
    """A computed bound value with its provenance.

    kind is one of cdf_lower / cdf_upper / delay_upper / delay_lower;
    value is always clipped to [0, 1].  diagnostics holds the SolveInfo of
    the search that found theta_star (None where no search ran); equality
    ignores it.
    """

    kind: str
    value: float
    theta_star: Optional[float]
    prefactor: float
    horizon: float
    notes: str = ""
    diagnostics: Optional[solve.SolveInfo] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("cdf_lower", "cdf_upper", "delay_upper",
                             "delay_lower"):
            raise ValidationError(f"unknown bound kind {self.kind!r}")
        if not (0.0 <= self.value <= 1.0):
            raise ValidationError(f"bound value must be in [0,1], got {self.value!r}")


# ---------------------------------------------------------------------------
# Markov kernel


@dataclass(frozen=True)
class MarkovKernel:
    """Finite-state Markov-additive kernel.

    transition is row-stochastic and must be irreducible and aperiodic;
    increments holds one DiscreteDistribution per transition.  In the
    compact destination mode (the default construction) H_ij depends only
    on the destination j.
    """

    states: tuple
    transition: np.ndarray
    increments: tuple            # matrix of DiscreteDistribution, row-major
    by_destination: bool = False

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        n = len(self.states)
        if n < 1 or p.shape != (n, n):
            raise ValidationError("transition must be an |E| x |E| matrix")
        if np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-12):
            raise ValidationError("transition rows must be probabilities summing to 1")
        reach = np.linalg.matrix_power((p > 0).astype(float) + np.eye(n), n)
        if np.any(reach <= 0):
            raise ValidationError("transition matrix must be irreducible")
        # aperiodicity on the zero pattern, where no tiny entry underflows:
        # P^m > 0 for every m >= (n - 1)^2 + 1 (Wielandt), so square that far
        q = p > 0
        for _ in range(((n - 1) ** 2).bit_length()):
            q = q @ q
        if not np.all(q):
            raise ValidationError("transition matrix must be aperiodic")
        rows = tuple(tuple(row) for row in self.increments)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValidationError("increments must be an |E| x |E| matrix of laws")
        for r in rows:
            for law in r:
                if not isinstance(law, DiscreteDistribution):
                    raise ValidationError("increment laws must be DiscreteDistribution")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "increments", rows)

    @staticmethod
    def from_destination_laws(states, transition, laws) -> "MarkovKernel":
        """Compact mode: the increment law depends only on the destination."""
        laws = [law if isinstance(law, DiscreteDistribution)
                else DiscreteDistribution.point_mass(float(law)) for law in laws]
        n = len(states)
        if len(laws) != n:
            raise ValidationError("need one increment law per state")
        rows = tuple(tuple(laws) for _ in range(n))
        return MarkovKernel(tuple(states), np.asarray(transition, float), rows,
                            by_destination=True)

    @cached_property
    def laws(self) -> tuple:
        """Distinct increment laws: one per destination, or one per transition."""
        if self.by_destination:
            return self.increments[0]
        return tuple(law for row in self.increments for law in row)

    @cached_property
    def law_index(self) -> np.ndarray:
        """|E| x |E| index into ``laws`` of the law transition i -> j carries."""
        n = len(self.states)
        if self.by_destination:
            return np.tile(np.arange(n), (n, 1))
        return np.arange(n * n).reshape(n, n)

    @cached_property
    def entry_laws(self) -> tuple:
        """(j, law) for each law a transition of positive probability
        carries into state j: each law once, in row-major order of the
        first transition that carries it (once per destination in the
        compact mode)."""
        pairs, seen = [], set()
        for (i, j), k in np.ndenumerate(self.law_index):
            if self.transition[i, j] > 0 and k not in seen:
                seen.add(k)
                pairs.append((j, self.laws[k]))
        return tuple(pairs)

    @cached_property
    def _possible_transitions(self) -> int:
        """The number of transitions of positive probability."""
        return int(np.count_nonzero(self.transition))

    @cached_property
    def stationary(self) -> np.ndarray:
        """Stationary law pi of the transition matrix (pi P = pi)."""
        n = len(self.states)
        a = np.vstack([self.transition.T - np.eye(n), np.ones(n)])
        b = np.concatenate([np.zeros(n), [1.0]])
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    def state_index(self, state) -> int:
        if isinstance(state, (int, np.integer)):
            if not 0 <= state < len(self.states):
                raise ValidationError(f"state index {state} out of range")
            return int(state)
        try:
            return self.states.index(state)
        except ValueError:
            raise ValidationError(f"unknown state {state!r}") from None

    def mean_rate(self) -> float:
        """Stationary mean increment sum_i pi_i sum_j p_ij E[Y | i->j]."""
        means = np.array([law.mean() for law in self.laws])[self.law_index]
        return float(self.stationary @ (self.transition * means).sum(axis=1))


def mgf_matrix(kernel: MarkovKernel, theta: float) -> np.ndarray:
    """Tilted kernel F[theta] with entries p_ij * E[exp(theta Y) | i->j].

    Equals the transition matrix exactly at theta = 0.  One mgf per law in
    ``kernel.laws``; an mgf that overflows leaves a non-finite entry.
    """
    if not math.isfinite(theta):
        raise ValidationError("theta must be finite")
    mgfs = [law.mgf(theta) for law in kernel.laws]
    tilted = np.array(mgfs)[kernel.law_index]
    if max(mgfs) < math.inf:            # np.errstate costs more than the product
        return kernel.transition * tilted
    with np.errstate(invalid="ignore"):     # p_ij = 0 times an overflowed mgf
        return kernel.transition * tilted


def _dominant_pair(m: np.ndarray):
    """Perron root of a nonnegative matrix and a nonnegative eigenvector.

    The 2x2 case [[a, b], [c, d]] uses the closed form, written so that no
    step cancels: with g = sqrt(bc) and s = hypot(a - d, 2g), the root is
    (a + d + s)/2, and the smaller of lam - a, lam - d is g^2 over the
    larger.  Larger matrices take the eigenvalue of largest real part from
    ``np.linalg.eig`` and the modulus of its eigenvector, then n power
    steps h <- M h / lam: eig is accurate only relative to the largest
    entry of h, and the steps restore the entries that are tiny relative
    to it (they add nonnegative terms, so nothing cancels).
    """
    n = m.shape[0]
    if n == 2:
        (a, b), (c, d) = m.tolist()
        g = math.sqrt(b) * math.sqrt(c)
        s = math.hypot(a - d, 2.0 * g)
        big = 0.5 * (abs(a - d) + s)
        small = 2.0 * g * (g / (abs(a - d) + s)) if big > 0 else 0.0
        lam_a, lam_d = (small, big) if a >= d else (big, small)
        # (b, lam - a) and (lam - d, c) both solve (M - lam) h = 0
        return 0.5 * (a + d + s), np.array([b, lam_a] if b > 0 else [lam_d, c])
    w, vecs = np.linalg.eig(m)
    k = int(np.argmax(w.real))
    lam = float(w[k].real)
    h = np.abs(vecs[:, k])
    if lam > 0:
        for _ in range(n):
            h = m @ h / lam
    return lam, h


def perron_frobenius(matrix: np.ndarray, stationary: np.ndarray):
    """(log lam, h): Perron root and right eigenvector of a nonnegative matrix.

    One dense eigen-solve; the Perron root is the eigenvalue of largest
    real part, so a periodic spectrum (eigenvalues +-rho) needs no special
    care.  h is normalised by pi . h = 1 with pi = ``stationary``.  The
    residual ||M h - lam h|| must stay below 1e-9 relative, else a
    NumericFailure is raised.  The zero pattern is not checked: entries of
    a tilted kernel may underflow (``MarkovKernel`` checks the transition's).
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ValidationError("matrix must be square")
    if not (m.min() >= 0.0 and m.max() < math.inf):     # NaN fails both
        raise ValidationError("matrix must be entrywise nonnegative and finite")
    lam, h = _dominant_pair(m)
    if not lam > 0:
        raise NumericFailure(f"Perron root {lam!r} is not positive")
    h = h / float(np.asarray(stationary, float) @ h)
    resid = abs(m @ h - lam * h).max() / abs(h).max()
    if resid > 1e-9 * max(lam, 1.0):
        raise NumericFailure(f"eigen residual {resid:.3e} exceeds tolerance")
    return math.log(lam), h


# ---------------------------------------------------------------------------
# process types


@dataclass(frozen=True)
class Comonotonic:
    """All slots are increasing functions of one common uniform."""

    marginal: object


@dataclass(frozen=True)
class Additive:
    """Independent identically distributed slot capacities."""

    marginal: object


@dataclass(frozen=True)
class MarkovAdditive:
    """Slot capacities modulated by a finite Markov chain."""

    kernel: MarkovKernel
    initial: object = "stationary"     # state label/index or "stationary"

    def __post_init__(self):
        _start_index(self)              # an unknown state fails here


@dataclass(frozen=True)
class AntitheticPairing:
    """Negatively dependent construction: slot pairs F^-1(U), F^-1(1-U).

    Not one of the three canonical structures; used by the ordering module
    and the simulation oracle as the negative-dependence reference.
    """

    marginal: object

    @cached_property
    def pair_sum_law(self) -> DiscreteDistribution:
        """Exact law of F^-1(U) + F^-1(1-U) on a fine probability grid."""
        m = self.marginal
        if isinstance(m, DiscreteDistribution):
            cuts = np.unique(np.concatenate((m._cum, 1.0 - m._cum, [0.0, 1.0])))
            cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
            mids = 0.5 * (cuts[:-1] + cuts[1:])
            lengths = np.diff(cuts)
            keep = lengths > 0
            mids, lengths = mids[keep], lengths[keep]
        else:
            n = 8192
            mids = (np.arange(n) + 0.5) / n
            lengths = np.full(n, 1.0 / n)
        vals = m._inverse_cdf(mids) + m._inverse_cdf(1.0 - mids)
        order = np.argsort(vals, kind="stable")
        vals, lengths = vals[order], lengths[order]
        uniq, inv = np.unique(vals, return_inverse=True)
        mass = np.zeros_like(uniq)
        np.add.at(mass, inv, lengths)
        return DiscreteDistribution(uniq, mass / mass.sum())


CapacityProcess = Union[Comonotonic, Additive, MarkovAdditive, AntitheticPairing]


def process_mean_rate(process) -> float:
    """Stationary mean capacity per slot."""
    if isinstance(process, MarkovAdditive):
        return process.kernel.mean_rate()
    if isinstance(process, (Comonotonic, Additive, AntitheticPairing)):
        return process.marginal.mean()
    raise ValidationError(f"process {type(process).__name__} has no single marginal")


# ---------------------------------------------------------------------------
# closed forms and envelopes


def comonotonic_cdf(process: Comonotonic, t: int, x: float) -> float:
    """F_S(t)(x) = F_C(x / t): identical comonotonic slots are a.s. equal."""
    if not isinstance(process, Comonotonic):
        raise ValidationError("comonotonic_cdf needs a Comonotonic process")
    if t < 1:
        raise ValidationError("t must be >= 1")
    if x < 0:
        raise ValidationError("x must be nonnegative")
    return float(process.marginal.cdf(x / t))


_ALLOCATION_BLOCK = 32          # rows of the allocation DP's table per pass


def _grid_allocation(fvals, grid, sign):
    """Exact DP for the best split of grid[-1] over t marginals on the grid.

    fvals[k] is F_k on the budget grid.  Maximises sign * sum_k F_k(u_k)
    over allocations with sum u_k = grid[-1]; ties go to the smallest
    share of the earlier marginal.  Returns the t grid shares.
    """
    # right to left: w[j] = best over marginals k.. with budget j.  Row j of
    # the window view reads w[j], w[j - 1], ..., w[0] and then the fill, so
    # cand[j, i] = fvals[k][i] + w[j - i]; shares i > j get the fill, which
    # never wins.  Each row's pick depends on that row alone, so the table
    # is built _ALLOCATION_BLOCK rows at a time, and rows below ``hi`` only
    # over the shares below ``hi``: the picks are those of the full table.
    n = grid.size
    fill = np.full(n - 1, -sign * np.inf)
    best = np.argmax if sign > 0 else np.argmin
    w = fvals[-1]
    choice = []
    for k in range(len(fvals) - 2, -1, -1):
        table = sliding_window_view(np.concatenate((w[::-1], fill)), n)[::-1]
        pick = np.empty(n, dtype=np.intp)
        w = np.empty(n)
        for lo in range(0, n, _ALLOCATION_BLOCK):
            hi = min(lo + _ALLOCATION_BLOCK, n)
            cand = fvals[k][:hi] + table[lo:hi, :hi]
            pick[lo:hi] = best(cand, axis=1)
            w[lo:hi] = cand[np.arange(hi - lo), pick[lo:hi]]
        choice.append(pick)
    choice.reverse()
    alloc = []
    j = n - 1
    for pick in choice:
        idx = pick[j]
        alloc.append(grid[idx])
        j -= idx
    alloc.append(grid[j])
    return alloc


# budget grid cells of the allocation DP, and pairwise polish passes after it
_FRECHET_BUDGET_CELLS = 256
_FRECHET_POLISH_PASSES = 2
# Slack of the hull certificate of ``frechet_bounds``.  The search's value
# is a float sum of t <= 8 cdf values, each at most 1, so it rounds by less
# than 1e-14; a computed cdf may fall by an ulp where it should rise, and
# its array and scalar forms may differ by an ulp; the hull's chords round
# too.  1e-9 exceeds each of these by orders of magnitude.
_HULL_MARGIN = 1e-9
# The search's shares sum to x only up to the rounding of its sums, below
# 1e-13 relative, so the majorant takes its last value this far past x.
_HULL_REACH = 2.0 ** -40


def _hull_at(a, b, p, sign):
    """Concave majorant (sign +1) or convex minorant (sign -1) of the points
    (a_k, b_k) at p, for sorted distinct a with a[0] < p < a[-1]: the best
    chord between a point left of p and one right of it, or a point at p."""
    left, right = np.searchsorted(a, p, "left"), np.searchsorted(a, p, "right")
    al, bl = a[:left, None], b[:left, None]
    chords = bl + (b[right:] - bl) * ((p - al) / (a[right:] - al))
    return sign * max(float(np.max(sign * chords)),
                      float(np.max(sign * b[left:right], initial=-np.inf)))


def _frechet_hulls(law, grid, f, t):
    """Jensen bounds (hi, lo) with lo <= sum_i F(u_i) <= hi for every split
    of x = grid[-1] into t shares u_i >= 0, from f = F(grid).

    On a cell [g_k, g_{k+1}], F(g_k) <= F <= F(g_{k+1}), as F is
    nondecreasing.  So the concave majorant G^ of the points
    (g_k, F(g_{k+1})), k < n - 1, and (x, F(x+)) lies above F on [0, x];
    it is nondecreasing, so held at its value at x it also covers
    [x, x+], with x+ = x (1 + _HULL_REACH).  The convex minorant G_ of
    (0, F(0)) and the points (g_{k+1}, F(g_k)) lies below F on [0, x].
    By Jensen, hi = t G^(x/t) and lo = t G_(x/t).
    """
    x = float(grid[-1])
    beyond = float(law.cdf(x + x * _HULL_REACH))
    hi = t * _hull_at(grid, np.append(f[1:], beyond), x / t, +1.0)
    lo = t * _hull_at(grid, np.concatenate((f[:1], f[:-1])), x / t, -1.0)
    return hi, lo


def frechet_bounds(marginals, x: float):
    """Frechet envelope on F_{sum}(x) from the marginals alone.

    lower = [ sup_{sum u_i = x} sum_i F_i(u_i) - (t-1) ]^+
    upper = [ inf_{sum u_i = x} sum_i F_i(u_i) ]_1

    This is the library's one bound for arbitrary dependence between the
    slots.  In tail form, 1 - lower = min(1, inf_{sum u_i = x} sum_i
    P(C_i > u_i)), the min-plus convolution of the marginal tails, bounds
    P(S > x) under every copula.

    The allocation search runs exact dynamic programming on a shared budget
    grid (u_i >= 0, sum exactly x) followed by pairwise polish passes,
    exact for two lattice marginals and a bounded scalar search otherwise.
    Every candidate evaluated is feasible, so the search under-estimates
    the sup and over-estimates the inf: the returned lower never exceeds
    the exact lower bound and the returned upper never falls below the
    exact upper bound.

    A split depends only on its two marginals, its budget and its side, so
    each is solved once per distinct (pair, budget, side) within a call:
    with t copies of one law, as the CLI passes, the polish re-meets the
    same splits many times.  The memo is local to the call.

    Before a side searches, a hull certificate tries to prove it trivial.
    When the t marginals are one object, ``_frechet_hulls`` bounds every
    split's sum between t G_(x/t) and t G^(x/t), from the budget-grid
    values the search reads anyway.  If t G^(x/t) <= t - 1 - _HULL_MARGIN,
    every allocation the search could return has a sum below t - 1, so
    lower is exactly 0.0; if t G_(x/t) >= 1 + _HULL_MARGIN, every sum is
    above 1, so upper is exactly 1.0.  A decided side returns that float
    and runs neither the DP nor the polish; the margin exceeds every
    rounding between the two computations, so the output bits are those
    of the search.  Mixed marginals, and equal laws passed as distinct
    objects, always search.
    """
    ms = list(marginals)
    t = len(ms)
    if t == 0:
        raise ValidationError("need at least one marginal")
    if not 1 <= t <= 8:
        raise ValidationError("allocation search supports 1 <= t <= 8 marginals")
    if x < 0:
        raise ValidationError("x must be nonnegative")
    if t == 1:
        f = float(ms[0].cdf(x))
        return f, f
    if x == 0.0:
        s = sum(float(m.cdf(0.0)) for m in ms)
        return max(0.0, s - (t - 1)), min(1.0, s)

    def alloc_value(alloc):
        return sum(float(m.cdf(u)) for m, u in zip(ms, alloc))

    splits = {}

    def best_split(i, j, budget, sign):
        key = (id(ms[i]), id(ms[j]), budget, sign)
        if key not in splits:
            splits[key] = solve_split(ms[i], ms[j], budget, sign)
        return splits[key]

    def solve_split(mi, mj, budget, sign):
        """Best u in [0, budget] for F_i(u) + F_j(budget - u), and its value.

        Two lattice laws give a piecewise-constant sum with breakpoints
        {0, budget}, the atoms of i and budget minus the atoms of j: the
        sup is attained at a breakpoint and each open piece takes its
        value at its midpoint, so evaluating both sets is exact.  Other
        marginals use the bounded minimiser.
        """
        if isinstance(mi, DiscreteDistribution) and isinstance(mj, DiscreteDistribution):
            pts = np.concatenate(([0.0, budget], mi.support, budget - mj.support))
            pts = np.unique(pts[(pts >= 0.0) & (pts <= budget)])
            us = np.concatenate((pts, 0.5 * (pts[:-1] + pts[1:])))
            vals = mi.cdf(us) + mj.cdf(budget - us)
            k = int(np.argmax(sign * vals))
            return float(us[k]), float(vals[k])

        def obj(u):
            return -sign * (float(mi.cdf(u)) + float(mj.cdf(budget - u)))

        u, val, _ = solve.minimize(obj, 0.0, budget, 1e-10 * max(x, 1.0))
        return u, -sign * val

    def polish(alloc, sign):
        alloc = list(alloc)
        for _ in range(_FRECHET_POLISH_PASSES):
            for i in range(t):
                for j in range(i + 1, t):
                    budget = alloc[i] + alloc[j]
                    if budget <= 0:
                        continue
                    cand, new = best_split(i, j, budget, sign)
                    old = (float(ms[i].cdf(alloc[i]))
                           + float(ms[j].cdf(budget - alloc[i])))
                    if sign * new > sign * old:
                        alloc[i], alloc[j] = cand, budget - cand
        return alloc

    def search(sign):
        return alloc_value(polish(_grid_allocation(fvals, grid, sign), sign))

    grid = np.linspace(0.0, x, _FRECHET_BUDGET_CELLS + 1)
    fvals = [np.asarray(m.cdf(grid), dtype=float) for m in ms]
    hi, lo = (_frechet_hulls(ms[0], grid, fvals[0], t)
              if all(m is ms[0] for m in ms) else (math.inf, -math.inf))
    lower = (0.0 if hi <= (t - 1) - _HULL_MARGIN
             else max(0.0, search(+1.0) - (t - 1)))
    upper = 1.0 if lo >= 1.0 + _HULL_MARGIN else min(1.0, search(-1.0))
    return lower, upper


# ---------------------------------------------------------------------------
# Chernoff machinery: an Additive process is the one-state Markov-additive one


def _nilpotent(m: np.ndarray) -> bool:
    """Whether the nonnegative matrix m has no cycle of positive entries.

    A 2x2 matrix [[a, b], [c, d]] is nilpotent exactly when a = d = 0 and
    bc = 0; a larger one when its zero pattern's n-th power vanishes.
    """
    n = m.shape[0]
    if n == 2:
        (a, b), (c, d) = m.tolist()
        return a == 0.0 and d == 0.0 and (b == 0.0 or c == 0.0)
    return not np.any(np.linalg.matrix_power((m > 0).astype(float), n))


def _spectral(process, theta: float):
    """(kappa(theta), h) from one solve; (inf, None) outside the domain.

    An Additive process is the one-state case: kappa is the marginal's cgf
    and h = (1,).  A Markov-additive process takes both from one
    Perron-Frobenius solve of F[theta].  Its tilt lies outside the domain
    when an mgf overflows, or when F[theta] has underflowed to a nilpotent
    matrix (no cycle of positive entries left, so no positive Perron root).
    The kernel is irreducible, so while every transition of positive
    probability keeps a positive entry in F[theta] the matrix has the
    transition's cycles; only when an entry has underflowed to 0 is the
    cycle test (``_nilpotent``) run.
    """
    if isinstance(process, Additive):
        return process.marginal.cgf(theta), (1.0,)
    if not isinstance(process, MarkovAdditive):
        raise ValidationError("Chernoff bounds need an Additive or MarkovAdditive process")
    kernel = process.kernel
    m = mgf_matrix(kernel, theta)
    if not m.max() < math.inf:          # an overflowed mgf, or p_ij = 0 times it
        return math.inf, None
    if np.count_nonzero(m) < kernel._possible_transitions and _nilpotent(m):
        return math.inf, None
    if m.shape[0] == 1:
        return math.log(m[0, 0]), np.ones(1)
    return perron_frobenius(m, kernel.stationary)


def _start_index(process) -> Optional[int]:
    """Index of ``process.initial``, or None for the stationary start.

    The one reading of ``MarkovAdditive.initial``: "stationary", or a
    state label or index.  None for an Additive process.
    """
    if not isinstance(process, MarkovAdditive):
        return None
    init = process.initial
    if isinstance(init, str) and init == "stationary":
        return None
    return process.kernel.state_index(init)


def _start_weight(h, start: Optional[int]) -> float:
    """h(J0) for a fixed start; 1 from the stationary start, as pi . h = 1."""
    return 1.0 if start is None else float(h[start])


def _tilt_terms(process):
    """theta -> (kappa(theta), prefactor h(J0)/min_j h(J_j)), one solve each."""
    start = _start_index(process)

    def terms(th):
        k, h = _spectral(process, th)
        if h is None:
            return k, 1.0
        return k, _start_weight(h, start) / float(min(h))
    return terms


def _trivial_side(exponent):
    """A Chernoff side whose exponent is >= 0 at every theta > 0.

    Its bound is 0 (lower) or 1 (upper) at every theta, so the exponent is
    evaluated once, at the floor of ``solve.minimize_convex``'s range, where
    that search would end: (theta, exponent, SolveInfo) as it returns them.
    """
    floor = solve.CONVEX_FLOOR
    return floor, exponent(floor), solve.SolveInfo((floor, floor), 1, 0.0, True)


def _support_ends(process):
    """(floor, top): the least and the greatest capacity a slot can carry.

    From the positive-mass atoms of a discrete marginal, or of every law on
    a transition of positive probability; a fading capacity has support
    (0, inf).
    """
    if isinstance(process, MarkovAdditive):
        laws = [law for _, law in process.kernel.entry_laws]
    elif not isinstance(process, Additive):
        raise ValidationError("Chernoff bounds need an Additive or MarkovAdditive process")
    elif isinstance(process.marginal, DiscreteDistribution):
        laws = [process.marginal]
    else:
        return process.marginal.support_min, process.marginal.support_max
    return (min(float(law._pos_support[0]) for law in laws),
            max(float(law._pos_support[-1]) for law in laws))


def _exact_end(process, t: int, x: float) -> Optional[float]:
    """F_S(t)(x) where the support decides it: 0 below t*floor, 1 from t*top.

    x is compared with the products exactly, in integers, as a float
    product can round across x; None inside the support.
    """
    floor, top = _support_ends(process)
    xn, xd = float(x).as_integer_ratio()

    def above(v):                       # x - t v, times a positive integer
        vn, vd = float(v).as_integer_ratio()
        return xn * vd - int(t) * vn * xd

    if above(floor) < 0:
        return 0.0
    if math.isfinite(top) and above(top) >= 0:
        return 1.0
    return None


def cdf_bounds(process, t: int, x: float):
    """Chernoff sandwich on F_S(t)(x) for an Additive or Markov-additive process.

    1 - pf(th) e^{t k(th) - th x} <= F_S(t)(x) <= pf(-th) e^{t k(-th) + th x},
    each side optimised over th > 0, with the prefactor pf = h(J0)/min_j h(J_j)
    (1 for an Additive process).  Returns (lower, upper) BoundReports with
    the optimising theta recorded.  Since k(th) >= th E[C] and pf >= 1, the
    lower side is 0 at x <= t E[C] and the upper side 1 at x >= t E[C]; such
    a side is evaluated at one theta only.  Each tilt is solved once.
    Below t times the least capacity a slot can carry F_S(t)(x) is exactly
    0, and from t times the greatest it is exactly 1: both sides return
    that value with no search (theta_star None, prefactor 1).
    """
    if t < 1:
        raise ValidationError("t must be >= 1")
    if x < 0:
        raise ValidationError("x must be nonnegative")
    exact = _exact_end(process, t, x)
    if exact is not None:
        return tuple(BoundReport(kind, exact, theta_star=None, prefactor=1.0,
                                 horizon=float(t), notes="exact: support end")
                     for kind in ("cdf_lower", "cdf_upper"))
    terms = lru_cache(maxsize=None)(_tilt_terms(process))

    # upper: min over th > 0 of pf(-th) * e^{t k(-th) + th x}
    def upper_exponent(th):
        k, pf = terms(-th)
        if not np.isfinite(k):
            return math.inf
        return t * k + th * x + math.log(pf)

    # lower: max over th > 0 of 1 - pf(th) e^{t k(th) - th x}
    def lower_exponent(th):
        k, pf = terms(th)
        if not np.isfinite(k):
            return math.inf
        return t * k - th * x + math.log(pf)

    mean_sum = t * process_mean_rate(process)
    th_up, e_up, info_up = (_trivial_side(upper_exponent) if x >= mean_sum
                            else solve.minimize_convex(upper_exponent))
    th_lo, e_lo, info_lo = (_trivial_side(lower_exponent) if x <= mean_sum
                            else solve.minimize_convex(lower_exponent))

    upper = BoundReport("cdf_upper", min(1.0, math.exp(min(e_up, _EXP_OVERFLOW))),
                        theta_star=th_up, prefactor=terms(-th_up)[1],
                        horizon=float(t), diagnostics=info_up)
    lower_val = min(1.0, max(0.0, -math.expm1(min(e_lo, _EXP_OVERFLOW))))
    lower = BoundReport("cdf_lower", lower_val, theta_star=th_lo,
                        prefactor=terms(th_lo)[1], horizon=float(t),
                        diagnostics=info_lo)
    return lower, upper
