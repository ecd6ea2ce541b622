"""Grid-based probability laws.

A ``DiscreteDistribution`` (support points + masses) is the common numeric
currency of the toolkit: CDFs, tails, quantiles, cumulant generating
functions, convolutions and the increment laws used by the ruin-theoretic
prefactors are all evaluated on it.  Continuous capacity laws are reduced
to this form by ``from_cdf`` (4096 cells spanning the [1e-9, 1-1e-9]
quantile range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

MASS_TOL = 1e-9
DEFAULT_GRID_N = 4096
_EXP_OVERFLOW = 700.0
_THRESHOLD_ATOMS = 4        # laws this small invert by threshold counts
_DRAW_SCALE = 2.0 ** 32     # a 32-bit draw is uniform on {0, ..., 2^32 - 1}

__all__ = ["DiscreteDistribution", "MASS_TOL", "DEFAULT_GRID_N"]


def _draw_thresholds(cum) -> np.ndarray:
    """32-bit draw thresholds T_k = round(cum_k 2^32) of cumulative masses.

    ``cum`` runs along its last axis and ends at (about) 1; that last entry
    is dropped, so a law of K atoms has K - 1 thresholds and a draw V,
    uniform on {0, ..., 2^32 - 1}, takes atom #{k : T_k <= V}.  The
    thresholds are uint64 because T_k = 2^32 (cum_k rounding to 1) is
    above every draw.  Rounding moves each cumulative mass by at most
    2^-33, so a draw's law is within total variation (K - 1) 2^-33 of the
    law itself, and a mass below 2^-33 may never be drawn.
    """
    return np.rint(np.asarray(cum, dtype=float)[..., :-1]
                   * _DRAW_SCALE).astype(np.uint64)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability law with finite support.

    support : strictly increasing 1-d array of real values
    mass    : nonnegative weights of the same length, summing to 1
              within ``MASS_TOL`` (renormalised exactly after validation)
    """

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        m = np.asarray(self.mass, dtype=float)
        if s.ndim != 1 or m.ndim != 1 or s.size != m.size or s.size == 0:
            raise ValidationError("support and mass must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(m))):
            raise ValidationError("support and mass must be finite")
        if s.size > 1 and not np.all(np.diff(s) > 0):
            raise ValidationError("support must be strictly increasing")
        if np.any(m < -MASS_TOL):
            raise ValidationError("mass must be nonnegative")
        total = float(m.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"mass must sum to 1 within {MASS_TOL}, got {total!r}")
        m = np.clip(m, 0.0, None) / np.clip(m, 0.0, None).sum()
        s = s.copy()
        s.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "mass", m)

    # -- cached cumulative structure ------------------------------------

    @cached_property
    def _cum(self) -> np.ndarray:
        c = np.cumsum(self.mass)
        c[-1] = 1.0
        return c

    @cached_property
    def _pos_support(self) -> np.ndarray:
        return self.support[self.mass > 0]

    @cached_property
    def _pos_mass(self) -> np.ndarray:
        return self.mass[self.mass > 0]

    @cached_property
    def _point(self):
        """The one positive-mass atom as a float, or None for more atoms."""
        return float(self._pos_support[0]) if self._pos_support.size == 1 else None

    @cached_property
    def _reversed_mass(self) -> np.ndarray:
        """Positive masses in reverse atom order, renormalised to sum 1.

        A contiguous copy, summed in the order this law's constructor sums
        its masses: the masses of ``self.affine(shift, -1)`` without its
        zero-mass atoms.
        """
        m = np.ascontiguousarray(self._pos_mass[::-1])
        return m / m.sum()

    @cached_property
    def _cdf_table(self) -> np.ndarray:
        # _cdf_table[k] = P(X <= x) for support[k-1] <= x < support[k]
        return np.concatenate(([0.0], self._cum))

    @cached_property
    def _tail_table(self) -> np.ndarray:
        # _tail_table[k] = P(X >= support[k]); suffix sums avoid 1-CDF cancellation
        return np.concatenate((np.cumsum(self.mass[::-1])[::-1], [0.0]))

    # -- basic functionals ----------------------------------------------

    def cdf(self, x):
        """P(X <= x), evaluated exactly on the atoms."""
        idx = np.searchsorted(self.support, np.asarray(x, dtype=float), side="right")
        out = self._cdf_table[idx]
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def tail(self, x):
        """P(X > x) via suffix sums (stable deep in the tail)."""
        idx = np.searchsorted(self.support, np.asarray(x, dtype=float), side="right")
        out = self._tail_table[idx]
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def quantile(self, p: float) -> float:
        """Generalised inverse inf{x : F(x) >= p} for p in (0, 1)."""
        if not 0.0 < p < 1.0:
            raise ValidationError(f"quantile level must be in (0,1), got {p!r}")
        return float(self._inverse_cdf(p))

    def _inverse_cdf(self, u):
        """Vectorised generalised inverse F^{-1}(u) for u in [0, 1].

        The atom index is #{k : cum_k < u}, the position that
        ``searchsorted(side="left")`` returns because cum[-1] = 1 >= u.
        """
        return self.support[np.searchsorted(self._cum, u, side="left")]

    @cached_property
    def _thresholds(self) -> np.ndarray:
        """The law's 32-bit draw thresholds T_k (read-only uint64)."""
        t = _draw_thresholds(self._cum)
        t.flags.writeable = False
        return t

    def _draw_index(self, v, index):
        """Atom index #{k : T_k <= v} of each 32-bit draw v.

        v is a uint64 array of integers in [0, 2^32), and index an intp
        array of its shape that receives the count on a law of at most
        ``_THRESHOLD_ATOMS`` atoms, one compare per threshold, which is
        cheaper than the binary search a larger law takes.
        """
        t = self._thresholds
        if t.size >= _THRESHOLD_ATOMS:
            return np.searchsorted(t, v, side="right")
        # a point mass has no threshold: 2^32 is above every draw
        np.greater_equal(v, t[0] if t.size else 1 << 32, out=index)
        for c in t[1:]:
            index += v >= c
        return index

    def mean(self) -> float:
        return float(self.support @ self.mass)

    def var(self) -> float:
        mu = self.mean()
        return float(((self.support - mu) ** 2) @ self.mass)

    def cgf(self, theta: float) -> float:
        """log E[exp(theta X)], exact on the atoms; 0 at theta = 0.

        With one positive-mass atom s the value is theta*s + 0.0, the bits
        of the general form: there the renormalised mass is exactly 1.0,
        a - top is 0.0, and log(1.0 * exp(0.0)) is 0.0, so the sum is
        top + 0.0 (which also turns a -0.0 product into 0.0).
        """
        if not math.isfinite(theta):
            raise ValidationError("theta must be finite")
        if theta == 0.0:
            return 0.0
        if self._point is not None:
            return float(theta * self._point) + 0.0
        a = theta * self._pos_support
        top = a.max()
        return float(top + np.log(self._pos_mass @ np.exp(a - top)))

    def mgf(self, theta: float) -> float:
        k = self.cgf(theta)
        return float(np.exp(k)) if k < _EXP_OVERFLOW else float("inf")

    # -- structure ------------------------------------------------------

    @property
    def support_min(self) -> float:
        return float(self.support[0])

    @property
    def support_max(self) -> float:
        return float(self.support[-1])

    def affine(self, shift: float = 0.0, scale: float = 1.0) -> "DiscreteDistribution":
        """Law of shift + scale*X (scale may be negative)."""
        if scale == 0.0:
            return DiscreteDistribution.point_mass(shift)
        s = shift + scale * self.support
        m = self.mass
        if scale < 0:
            s, m = s[::-1], m[::-1]
        return DiscreteDistribution(s, m)

    def convolve(self, other: "DiscreteDistribution") -> "DiscreteDistribution":
        """Law of the independent sum X + Y.

        Exact outer-sum when the product of supports is small; otherwise
        regridded onto 8192 uniform cells (mass preserving).
        """
        if self.support.size * other.support.size > 4_000_000:
            a = self.regrid(2048)
            b = other.regrid(2048)
        else:
            a, b = self, other
        sums = np.add.outer(a.support, b.support).ravel()
        wts = np.outer(a.mass, b.mass).ravel()
        uniq, inv = np.unique(sums, return_inverse=True)
        mass = np.zeros_like(uniq)
        np.add.at(mass, inv, wts)
        out = DiscreteDistribution(uniq, mass)
        if uniq.size > 8192:
            out = out.regrid(8192)
        return out

    def regrid(self, n: int) -> "DiscreteDistribution":
        """Bin the atoms onto an n-cell uniform grid over the support span."""
        if self.support.size <= n:
            return self
        lo, hi = self.support_min, self.support_max
        edges = np.linspace(lo, hi, n + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        idx = np.clip(np.searchsorted(edges, self.support, side="right") - 1, 0, n - 1)
        mass = np.zeros(n)
        np.add.at(mass, idx, self.mass)
        keep = mass > 0
        return DiscreteDistribution(centers[keep], mass[keep])

    def discretize(self) -> "DiscreteDistribution":
        """Already discrete; returns itself (protocol compatibility)."""
        return self

    # -- constructors ----------------------------------------------------

    @staticmethod
    def point_mass(c: float) -> "DiscreteDistribution":
        return DiscreteDistribution(np.array([float(c)]), np.array([1.0]))

    @staticmethod
    def from_cdf(cdf_fn, x_lo: float, x_hi: float) -> "DiscreteDistribution":
        """Discretise a continuous CDF onto a DEFAULT_GRID_N-node uniform grid.

        Nodes are cell centers; each node receives the CDF increment over
        its cell, with the two edge cells absorbing the clipped tails so
        the masses sum to 1 exactly.
        """
        if not x_lo < x_hi:
            raise ValidationError("x_lo must be < x_hi")
        nodes = np.linspace(x_lo, x_hi, DEFAULT_GRID_N)
        bounds = np.empty(DEFAULT_GRID_N + 1)
        bounds[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
        cvals = np.asarray(cdf_fn(bounds[1:-1]), dtype=float)
        cvals = np.concatenate(([0.0], cvals, [1.0]))
        mass = np.diff(cvals)
        mass = np.clip(mass, 0.0, None)
        keep = mass > 0
        return DiscreteDistribution(nodes[keep], mass[keep] / mass[keep].sum())
