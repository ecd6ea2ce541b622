"""Reference values computed without the wnc package.

Each function here restates a quantity that wnc computes, from its
definition and with a different method, so the benchmark can check the
program's outputs against something the program did not produce:

* Lundberg roots by plain bisection on the increment cgf (a plain sum for
  atomic laws, ``scipy.integrate.quad`` on the closed-form Rayleigh
  capacity density) and, for Markov channels, on
  ``theta*lambda + log rho(F[-theta])`` with rho from ``numpy.linalg.eigvals``;
* exact laws of lattice walks by a (state, level) recursion: the CDF of
  S(t) and the probability that the walk lambda*t - S(t) reaches a level,
  over a finite horizon or until the remaining mass is below 1e-18;
* the closed-form end-to-end, feedback and delay-constrained-capacity
  values that the bounds reduce to.

Only numpy, scipy and the standard library are imported.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# roots


def positive_root(kappa, tol: float = 1e-15) -> float:
    """Positive root of a convex kappa with kappa(0) = 0 and kappa'(0) < 0."""
    hi = 1.0
    while not kappa(hi) > 0.0:
        hi *= 2.0
        if hi > 2.0 ** 60:
            raise ArithmeticError("no positive root")
    lo = hi / 2.0
    while not kappa(lo) < 0.0:
        lo /= 2.0
        if lo < 1e-300:
            raise ArithmeticError("cannot bracket the root")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if kappa(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# i.i.d. laws


def atomic_cgf(support, mass):
    """theta -> log E[exp(theta C)] for an atomic law, as a plain sum."""
    pairs = [(float(c), float(m)) for c, m in zip(support, mass) if m > 0]

    def cgf(theta):
        top = max(theta * c for c, _ in pairs)
        return top + math.log(sum(m * math.exp(theta * c - top)
                                  for c, m in pairs))
    return cgf


def rayleigh_density(x, bandwidth: float = 1.0, gamma: float = 1.0):
    """Density of C = W log2(1 + gamma |h|^2) with E|h|^2 = 1."""
    g = 2.0 ** (x / bandwidth)
    return LN2 / bandwidth * g / gamma * math.exp(-(g - 1.0) / gamma)


def rayleigh_tail(x, bandwidth: float = 1.0, gamma: float = 1.0):
    """P(C > x) = exp(-(2^(x/W) - 1) / gamma), elementwise."""
    x = np.asarray(x, dtype=float)
    return np.exp(-np.expm1(x / bandwidth * LN2) / gamma)


def rayleigh_cgf(bandwidth: float = 1.0, gamma: float = 1.0):
    """theta -> log E[exp(theta C)] by adaptive quadrature (theta <= 4)."""
    x_hi = bandwidth * math.log2(1.0 + 80.0 * gamma)   # e^{4x} tail below e^-50
    breaks = list(np.linspace(0.0, x_hi, 9)[1:-1])

    def cgf(theta):
        if theta == 0.0:
            return 0.0
        if theta > 4.0:
            raise ValueError("the quadrature range covers theta <= 4 only")
        val, _ = integrate.quad(
            lambda x: math.exp(theta * x) * rayleigh_density(x, bandwidth, gamma),
            0.0, x_hi, points=breaks, epsabs=0.0, epsrel=1e-13, limit=400)
        return math.log(val)
    return cgf


def drain_root(cgf, drain: float) -> float:
    """theta* of kappa(theta) = theta*drain + cgf_C(-theta)."""
    return positive_root(lambda th: th * drain + cgf(-th))


def binomial_cdf(t: int, x: float, low: float, high: float, p_high: float):
    """P(S(t) <= x) for S(t) a sum of t i.i.d. {low, high} slots."""
    total = 0.0
    for k in range(t + 1):
        if t * low + k * (high - low) <= x + 1e-12:
            total += math.comb(t, k) * p_high ** k * (1.0 - p_high) ** (t - k)
    return total


def rayleigh_sum_cdf(t: int, xs, step: float = 2e-4,
                     bandwidth: float = 1.0, gamma: float = 1.0):
    """P(S(t) <= x) for t i.i.d. Rayleigh slots by convolving cell masses.

    Cell masses are exact CDF increments; the sum of t cell indices is off
    the true sum by at most t cells, so the value is accurate to the
    probability of a t*step window (well below 1e-3 here).
    """
    x_hi = bandwidth * math.log2(1.0 + 60.0 * gamma)
    edges = np.arange(0.0, x_hi + step, step)
    cdf = 1.0 - rayleigh_tail(edges, bandwidth, gamma)
    cell = np.diff(cdf)
    n = cell.size * t
    size = 1 << (n - 1).bit_length()
    spec = np.fft.rfft(cell, size) ** t
    law = np.clip(np.fft.irfft(spec, size)[:n], 0.0, None)
    cum = np.cumsum(law)
    # cell k holds mass in [k*step, (k+1)*step); the t-fold index sum i
    # covers sums in [i*step, (i+t)*step)
    xs = np.asarray(xs, dtype=float)
    lower = cum[np.clip(np.floor(xs / step).astype(int) - t, 0, n - 1)]
    upper = cum[np.clip(np.floor(xs / step).astype(int), 0, n - 1)]
    return lower, upper


# ---------------------------------------------------------------------------
# Markov-modulated laws


def tilted_matrix(transition, laws, theta):
    """F[theta]_ij = p_ij E[exp(theta C_ij)]; laws[i][j] = (support, mass)."""
    n = len(transition)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            sup, mass = laws[i][j]
            out[i, j] = transition[i][j] * sum(
                m * math.exp(theta * c) for c, m in zip(sup, mass))
    return out


def spectral_radius(matrix) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def markov_drain_root(transition, laws, drain: float) -> float:
    """Root of theta*drain + log rho(F[-theta])."""
    return positive_root(
        lambda th: th * drain + math.log(spectral_radius(
            tilted_matrix(transition, laws, -th))))


def stationary_law(transition) -> np.ndarray:
    vals, vecs = np.linalg.eig(np.asarray(transition, float).T)
    v = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    return v / v.sum()


def perron_right_vector(matrix, pi) -> np.ndarray:
    """Right Perron vector h normalised by pi . h = 1."""
    vals, vecs = np.linalg.eig(matrix)
    h = np.real(vecs[:, int(np.argmax(np.real(vals)))])
    h = h if h.sum() > 0 else -h
    return h / float(np.asarray(pi) @ h)


def skip_free_ruin(transition, laws, drain: float, up_state: int, level: float):
    """P(sup walk >= level) from the stationary state, upward skip-free walks.

    When every upward step has the same size and lands in ``up_state``, the
    walk sits exactly on the level when it first reaches it, so optional
    stopping of h(J_t) exp(theta* W_t) gives the tail exactly:
    (pi . h) / h(up_state) * exp(-theta* level).
    """
    theta = markov_drain_root(transition, laws, drain)
    pi = stationary_law(transition)
    h = perron_right_vector(tilted_matrix(transition, laws, -theta), pi)
    return math.exp(-theta * level) / float(h[up_state])


# ---------------------------------------------------------------------------
# lattice recursions


def lattice_steps(transition, laws, drain: float, unit: float):
    """Walk steps as integers: steps[i][j] = [(k, p_ij P(drain - C = k unit))]."""
    n = len(transition)
    steps = []
    for i in range(n):
        row = []
        for j in range(n):
            sup, mass = laws[i][j]
            cell = []
            for c, m in zip(sup, mass):
                k = (drain - c) / unit
                if abs(k - round(k)) > 1e-9:
                    raise ValueError(f"increment {drain - c} is off the lattice")
                if transition[i][j] * m > 0:
                    cell.append((int(round(k)), transition[i][j] * m))
            row.append(cell)
        steps.append(row)
    return steps


def ruin_probability(steps, initial, level: int, horizon=None,
                     depth=None, tol: float = 1e-18) -> float:
    """P(max over t <= horizon of W_t >= level), W_0 = 0, J_0 ~ initial.

    ``steps`` as from ``lattice_steps``.  With a finite horizon, positions
    more than (largest up-step) * horizon below the level cannot reach it
    and are dropped exactly.  With ``horizon=None`` the caller gives the
    ``depth`` below which mass is dropped, and the recursion runs until the
    mass still alive is below ``tol``.
    """
    if level <= 0:
        return 1.0
    n = len(steps)
    up = max(k for row in steps for cell in row for k, _ in cell)
    if up <= 0:
        return 0.0
    if horizon is not None:
        depth = up * horizon
    size = int(depth) + level            # index x + depth for x in [-depth, level)
    live = np.zeros((n, size))
    live[:, depth] = np.asarray(initial, dtype=float)
    hit = 0.0
    t = 0
    while True:
        if horizon is not None and t >= horizon:
            break
        if horizon is None and live.sum() < tol:
            break
        new = np.zeros_like(live)
        for i in range(n):
            src = live[i]
            for j in range(n):
                for k, q in steps[i][j]:
                    if k >= 0:
                        # positions x >= level - k cross the level
                        cut = size - k
                        hit += q * float(src[cut:].sum())
                        new[j, k:] += q * src[:cut]
                    else:
                        new[j, :size + k] += q * src[-k:]
        live = new
        t += 1
    return hit


def lattice_cdf(transition, laws, initial, t: int, unit: float, xs):
    """P(S(t) <= x) for a Markov-modulated lattice capacity (S(0) = 0)."""
    n = len(transition)
    caps = []
    top = 0
    for i in range(n):
        row = []
        for j in range(n):
            sup, mass = laws[i][j]
            cell = []
            for c, m in zip(sup, mass):
                k = c / unit
                if abs(k - round(k)) > 1e-9 or k < 0:
                    raise ValueError(f"capacity {c} is off the lattice")
                if transition[i][j] * m > 0:
                    cell.append((int(round(k)), transition[i][j] * m))
                    top = max(top, int(round(k)))
            row.append(cell)
        caps.append(row)
    size = top * t + 1
    dist = np.zeros((n, size))
    dist[:, 0] = np.asarray(initial, dtype=float)
    for _ in range(t):
        new = np.zeros_like(dist)
        for i in range(n):
            for j in range(n):
                for k, q in caps[i][j]:
                    new[j, k:] += q * dist[i, :size - k]
        dist = new
    cum = np.cumsum(dist.sum(axis=0))
    out = []
    for x in xs:
        idx = int(math.floor(x / unit + 1e-9))
        out.append(0.0 if idx < 0 else float(cum[min(idx, size - 1)]))
    return out


# ---------------------------------------------------------------------------
# closed-form values the bounds reduce to


def e2e_value(hop_cgfs, lam: float, multiplier: int, d: float):
    """min over theta of exp(-theta lam d) prod_i 1/(1 - w_i(theta)).

    w_i = exp(kappa_i(-theta) + theta (2K-1) lam + theta lam).  The minimand
    is log-convex, so a bounded scalar search on (0, theta_max) finds it;
    theta_max is where the largest w_i reaches 1.  Returns (value, theta),
    with value capped at 1 and (1.0, None) when no theta converges.
    """
    def log_w(th):
        return [k(-th) + th * multiplier * lam + th * lam for k in hop_cgfs]

    def g(th):
        return max(log_w(th))

    if not g(1e-9) < 0.0:
        return 1.0, None
    theta_max = positive_root(g)

    def objective(th):
        return -th * lam * d - sum(math.log(-math.expm1(v)) for v in log_w(th))

    res = optimize.minimize_scalar(
        objective, bounds=(theta_max * 1e-9, theta_max * (1.0 - 1e-12)),
        method="bounded", options={"xatol": 1e-14 * theta_max})
    value = math.exp(float(res.fun))
    return min(1.0, value), float(res.x)


def cramer_plus(support, mass, theta: float) -> float:
    """C+ = sup over x in [0, x0) of P(Y >= x) / E[e^{theta(Y-x)}; Y >= x].

    Between atoms the ratio rises with x, so the supremum sits at an atom y
    of the positive part (or at x = 0); each candidate is a plain sum.
    """
    pairs = sorted(zip(map(float, support), map(float, mass)))
    cands = sorted({0.0} | {y for y, _ in pairs if y > 0})
    best = 0.0
    for x in cands:
        num = sum(m for y, m in pairs if y >= x)
        den = sum(m * math.exp(theta * (y - x)) for y, m in pairs if y >= x)
        if den > 0:
            best = max(best, num / den)
    return min(best, 1.0)


def stderr(p: float, runs: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / runs)
