"""Scalar solvers in the tilt theta: bracketed roots and bounded minima.

Every bound in wnc comes down to a one-dimensional problem.  The Lundberg
root, the feedback root, the delay-constrained-capacity root along alpha(theta)
and the end-to-end divergence point are roots; the Chernoff exponents, the
end-to-end theta and the Frechet splits are minima.  This module holds the
two searches they share, each returning its point with a ``SolveInfo``:

    root       Brent's bracketed root-finder (inverse quadratic
               interpolation safeguarded by bisection; Brent 1973, ch. 4)
    minimize   Brent's bounded minimiser (golden section plus parabolic
               interpolation; Brent 1973, ch. 5)

and two drivers for the convex problems of the tilt:

    positive_root      positive root of a convex g with g(0) = 0,
                       searched up to theta = ROOT_CAP
    minimize_convex    minimum of a convex function on [1e-4, 65536],
                       bracketed by doubling or halving first

The iterates of ``root`` and ``minimize`` follow the textbook algorithms
step for step, so they agree with the usual library implementations of
the same methods bit for bit (the tests check this).  Every search
evaluates its objective through a memo, so a point that a driver has
already evaluated (a bracket end, a probe) is not evaluated again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NumericFailure

__all__ = ["SolveInfo", "ROOT_CAP", "CONVEX_FLOOR", "root", "minimize",
           "positive_root", "minimize_convex"]

# positive_root reports math.inf when g < 0 at every theta up to this cap
ROOT_CAP = 2.0 ** 40
# the smallest theta minimize_convex evaluates; its range ends at _CONVEX_CAP
CONVEX_FLOOR = 1e-4

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_NEGATIVE = -2.0 ** -50       # clearly negative: below cgf rounding noise
_ROOT_XTOL, _ROOT_RTOL = 1e-15, 8.9e-16
_ROOT_MAXITER = 300
_MIN_MAXITER = 500
_POSITIVE_XATOL = 2.0 ** -60  # resolution of the search for g < 0 near 0
_CONVEX_XRTOL = 1e-12
_CONVEX_CAP = 65536.0


@dataclass(frozen=True)
class SolveInfo:
    """How a scalar search ended.

    bracket      (lo, hi), the interval the final search ran on
    evaluations  distinct points at which the objective was evaluated,
                 bracketing steps included
    residual     for a root, the function value at the returned point; for
                 a minimum, the width of the final interval of uncertainty
    at_edge      the returned point lies at an end of the bracket (within
                 the search tolerance): a root or optimum there may be
                 limited by the bracket rather than found inside it
    """

    bracket: tuple
    evaluations: int
    residual: float
    at_edge: bool


class _Counted:
    """f with a memo: each distinct point is evaluated once, and ``calls``
    counts the distinct points."""

    def __init__(self, f: Callable[[float], float]):
        self.f = f
        self.seen = {}

    @property
    def calls(self) -> int:
        return len(self.seen)

    def __call__(self, x: float) -> float:
        if x not in self.seen:
            self.seen[x] = float(self.f(x))
        return self.seen[x]


def root(f: Callable[[float], float], lo: float, hi: float):
    """Root of f in [lo, hi] by Brent's method: (x, SolveInfo).

    f(lo) and f(hi) must differ in sign (or one be zero).  Stops when the
    bracket is narrower than 1e-15 + 8.9e-16 |x| or f(x) == 0; raises
    NumericFailure on a bracket without a sign change or after 300 steps.
    """
    fc = _Counted(f)
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = fc(xpre), fc(xcur)

    def done(x, fx, at_edge):
        return x, SolveInfo((float(lo), float(hi)), fc.calls, fx, at_edge)

    if fpre == 0.0:
        return done(xpre, fpre, True)
    if fcur == 0.0:
        return done(xcur, fcur, True)
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericFailure(
            f"root bracket [{lo!r}, {hi!r}] has no sign change "
            f"(f = {fpre!r}, {fcur!r})")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (_ROOT_XTOL + _ROOT_RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            tol = 2.0 * delta
            return done(xcur, fcur, min(abs(xcur - lo), abs(hi - xcur)) <= tol)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fc(xcur)
    raise NumericFailure(
        f"root search did not converge in {_ROOT_MAXITER} steps")


def minimize(f: Callable[[float], float], lo: float, hi: float,
             xatol: float, stop_below: float = -math.inf):
    """Minimum of f on the open interval (lo, hi) by Brent's method.

    Returns (x, f(x), SolveInfo).  The ends themselves are never
    evaluated.  Converges when x is known to within sqrt(eps)|x| + xatol/3;
    ``stop_below`` ends the search at the first point whose value falls
    below it, and the search also ends after 500 evaluations.  f may return
    +inf or nan (outside its domain): such points lose every comparison
    and force golden-section steps.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise NumericFailure(f"invalid minimisation bracket [{lo!r}, {hi!r}]")
    fc = _Counted(f)
    a, b = float(lo), float(hi)
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = fc(x)
    step = prev = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a) and not fx < stop_below:
        golden = True
        if abs(prev) > tol1:
            # parabola through (x, fx), (w, fw), (v, fv)
            golden = False
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, prev = prev, step
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                step = (p + 0.0) / q
                u = x + step
                if u - a < tol2 or b - u < tol2:
                    step = tol1 if xm - x >= 0 else -tol1
            else:
                golden = True
        if golden:
            prev = (a - x) if x >= xm else (b - x)
            step = _GOLDEN * prev
        u = x + (1.0 if step >= 0 else -1.0) * max(abs(step), tol1)
        fu = fc(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if fc.calls >= _MIN_MAXITER:
            break
    at_edge = min(x - lo, hi - x) <= 2.0 * tol2
    return x, fx, SolveInfo((float(lo), float(hi)), fc.calls, b - a, at_edge)


def positive_root(g: Callable[[float], float]):
    """Positive root of a convex g with g(0) = 0: (root, SolveInfo).

    g < 0 exactly on (0, root).  The upper bracket is the first of
    theta = 1, 2, 4, ... with g >= 0.  The lower one is the last doubling
    step or, when g(1) >= 0 already, the first point the minimiser meets
    on its way to argmin g in (0, 1) where g is clearly negative, below
    -2^-50, which is above the rounding noise of a cgf near theta = 0.
    root is None when no such point exists (g'(0) >= 0, or a margin too
    small to resolve), and math.inf when g < 0 at every theta up to
    ROOT_CAP.
    """
    gc = _Counted(g)
    lo, hi = None, 1.0
    while True:
        ghi = gc(hi)
        if not ghi < 0.0:
            break
        if hi >= ROOT_CAP:
            return math.inf, SolveInfo((hi, hi), gc.calls, ghi, True)
        lo, hi = hi, 2.0 * hi
    if ghi == 0.0:
        return hi, SolveInfo((lo or 0.0, hi), gc.calls, 0.0, False)
    if lo is None:
        lo, glo, info = minimize(gc, 0.0, hi, _POSITIVE_XATOL,
                                 stop_below=_NEGATIVE)
        if not glo < _NEGATIVE:
            return None, SolveInfo(info.bracket, gc.calls, glo, True)
    x, info = root(gc, lo, hi)
    return x, SolveInfo((lo, hi), gc.calls, info.residual, info.at_edge)


def minimize_convex(f: Callable[[float], float]):
    """Minimum of a convex f on [1e-4, 65536]: (x, f(x), SolveInfo).

    f may be +inf past the end of its domain.  From theta = 1 (halved until
    f is finite) the search doubles while f falls, else halves while f
    falls, so by convexity [x/2, 2x], clipped to the range, brackets the
    minimiser.  When the best point so far is an end of the range, one
    probe a relative sqrt(eps) inside confirms it; otherwise Brent's
    minimiser runs on the bracket to 1e-12 relative to its upper end.  The
    best point evaluated is returned, so any function, convex or not, gets
    a value no worse than at the points the bracketing visited: for the
    Chernoff exponents, whose Markov prefactor need not be convex, every
    theta still gives a valid bound.
    """
    floor, cap = CONVEX_FLOOR, _CONVEX_CAP
    fm = _Counted(f)

    def best():
        return min((v, k) for k, v in fm.seen.items() if v < math.inf)

    x = 1.0
    while not fm(x) < math.inf:
        x *= 0.5
        if x < floor:
            raise NumericFailure("no finite value of the objective above "
                                 f"theta = {floor!r}")
    up = min(2.0 * x, cap)
    if fm(up) < fm(x):
        while fm(up) < fm(x) and up < cap:
            x, up = up, min(2.0 * up, cap)
        a, b = max(0.5 * x, floor), up
    else:
        while x > floor and fm(max(0.5 * x, floor)) < fm(x):
            x = max(0.5 * x, floor)
        a, b = max(0.5 * x, floor), min(2.0 * x, cap)
    fbest, xbest = best()
    if xbest in (floor, cap):
        # convexity: no lower value lies beyond a no-better inner probe
        inner = xbest * (1.0 + (_SQRT_EPS if xbest == floor else -_SQRT_EPS))
        if not fm(inner) < fbest:
            return xbest, fbest, SolveInfo((a, b), fm.calls,
                                           abs(xbest - inner), True)
    _, _, info = minimize(fm, a, b, _CONVEX_XRTOL * b)
    fbest, xbest = best()
    return xbest, fbest, SolveInfo((a, b), fm.calls, info.residual,
                                   info.at_edge)
