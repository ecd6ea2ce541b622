from types import SimpleNamespace

import numpy as np
import pytest

from wnc import ChannelSpec, MarkovKernel, Rayleigh, capacity_marginal
from wnc.distributions import DiscreteDistribution


@pytest.fixture(scope="session")
def two_point():
    """C in {0, 2} equiprobable: the canonical desk channel."""
    return DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5]))


@pytest.fixture(scope="session")
def uniform_law():
    """512-atom surrogate of U(0, 1) capacity."""
    n = 512
    support = (np.arange(n) + 0.5) / n
    return DiscreteDistribution(support, np.full(n, 1.0 / n))


@pytest.fixture(scope="session")
def ge_kernel():
    """Gilbert-Elliott kernel: P = [[.9,.1],[.2,.8]], capacities (2, 0)."""
    return MarkovKernel.from_destination_laws(
        ("G", "B"), np.array([[0.9, 0.1], [0.2, 0.8]]), [2.0, 0.0])


@pytest.fixture(scope="session")
def full_kernel():
    """Per-transition increment laws (no destination compaction)."""
    laws = ((DiscreteDistribution(np.array([1.0, 3.0]), np.array([0.5, 0.5])),
             DiscreteDistribution.point_mass(0.5)),
            (DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.3, 0.7])),
             DiscreteDistribution.point_mass(1.0)))
    return MarkovKernel(("a", "b"), np.array([[0.7, 0.3], [0.4, 0.6]]), laws)


@pytest.fixture(scope="session")
def mixed_kernel():
    """Destination kernel whose laws hold 3, 1, 2 and 2 atoms, with an
    interior and a trailing zero-mass atom."""
    laws = [DiscreteDistribution(np.array([0.0, 1.0, 2.5]),
                                 np.array([0.4, 0.0, 0.6])),
            DiscreteDistribution.point_mass(1.5),
            DiscreteDistribution(np.array([0.5, 3.0]), np.array([0.7, 0.3])),
            DiscreteDistribution(np.array([1.0, 2.0]), np.array([1.0, 0.0]))]
    transition = np.array([[0.5, 0.2, 0.2, 0.1], [0.1, 0.6, 0.2, 0.1],
                           [0.3, 0.3, 0.3, 0.1], [0.25, 0.25, 0.25, 0.25]])
    return MarkovKernel.from_destination_laws(("a", "b", "c", "d"),
                                              transition, laws)


@pytest.fixture(scope="session")
def unit_spec():
    return ChannelSpec(1.0, 1.0)


@pytest.fixture(scope="session")
def rayleigh_marginal(unit_spec):
    return capacity_marginal(unit_spec, Rayleigh())


def exponential_tail_law(a, b):
    """Marginal with tail P(C > x) = min(1, a e^{-b x}) for x >= 0.

    The shape of a light-tail certificate.  Only ``cdf`` is defined, which
    is all ``frechet_bounds`` reads, so 1 - lower states the min-plus
    convolution of such tails.
    """
    def cdf(x):
        x = np.asarray(x, dtype=float)
        tail = np.minimum(1.0, a * np.exp(-b * np.maximum(x, 0.0)))
        return np.where(x < 0.0, 0.0, 1.0 - tail)
    return SimpleNamespace(cdf=cdf)


def lundberg_theta_oracle(support, mass, lam, tol=1e-13):
    """Independent bisection on log E[exp(th(lam - C))] = 0."""
    import math

    def kappa(th):
        return math.log(sum(m * math.exp(th * (lam - c))
                            for c, m in zip(support, mass)))

    hi = 1.0
    while kappa(hi) <= 0:
        hi *= 2
    lo = hi / 1024
    while kappa(lo) >= 0:
        lo /= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kappa(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def additive_union_delay_bound(process, arrival, d, theta, multiplier=1,
                               t_max=100_000, eps_tail=1e-12):
    """Single-hop union bound over the interference-reduced service.

    sum_t exp(t (kappa(-theta) + theta m lambda) + theta lambda (t - d)),
    the direct Chernoff sum for service S - m A with m = 2K - 1, summed term
    by term until 50 consecutive terms are negligible and closed with the
    geometric remainder.  Independent reference for the N = 1 end-to-end
    bound; returns the value capped at 1.
    """
    import math

    lam = arrival.lam
    log_ratio = (process.marginal.cgf(-theta) + theta * multiplier * lam
                 + theta * lam)
    if log_ratio >= 0:
        return 1.0
    ratio = math.exp(log_ratio)
    total = 0.0
    term = math.exp(-theta * lam * d)
    t = 0
    quiet = 0
    while t < t_max and quiet < 50:
        total += term
        term *= ratio
        if term < eps_tail * max(total, 1e-300):
            quiet += 1
        t += 1
    if ratio < 1.0:
        total += term / (1.0 - ratio)
    return min(1.0, total)


def enumerate_tilted(kernel, t, theta):
    """F_t[theta] by explicit path enumeration, independent of mgf_matrix."""
    n = len(kernel.states)
    tilts = np.array([[kernel.transition[i, j] * kernel.increments[i][j].mgf(theta)
                       for j in range(n)] for i in range(n)])
    out = np.zeros((n, n))
    stack = [(i, i, 1.0, 0) for i in range(n)]
    while stack:
        start, here, weight, depth = stack.pop()
        if depth == t:
            out[start, here] += weight
            continue
        for j in range(n):
            w = weight * tilts[here, j]
            if w != 0.0:
                stack.append((start, j, w, depth + 1))
    return out


def assert_matrix_power_identity(kernel, probes):
    """F_t[theta] = F[theta]^t for every (t, theta): paths vs matrix power."""
    from wnc import mgf_matrix

    for t, theta in probes:
        direct = enumerate_tilted(kernel, t, theta)
        powered = np.linalg.matrix_power(mgf_matrix(kernel, theta), t)
        scale = max(float(np.max(np.abs(powered))), 1.0)
        assert float(np.max(np.abs(direct - powered))) < 1e-8 * scale


def markov_sum_cdf(kernel, t, x):
    """Exact P(S(t) <= x) from the stationary start, J_0 ~ pi.

    Enumerates the (state, partial sum) pairs reached by every path of t
    transitions; paths that meet in a pair are merged.
    """
    law = {(i, 0.0): p for i, p in enumerate(kernel.stationary)}
    n = len(kernel.states)
    for _ in range(t):
        nxt = {}
        for (i, s), w in law.items():
            for j in range(n):
                inc = kernel.increments[i][j]
                for y, m in zip(inc.support, inc.mass):
                    key = (j, s + float(y))
                    nxt[key] = nxt.get(key, 0.0) + w * kernel.transition[i, j] * m
        law = nxt
    return sum(w for (_, s), w in law.items() if s <= x + 1e-12)


class _RiceOracle:
    """``stats.rice``, except that sf and ppf on the upper levels read the
    noncentral chi-square law of (H / sigma0)^2.  ``stats.rice`` takes its
    sf as 1 - cdf and inverts the cdf at every level, so in the upper tail
    both have only absolute accuracy."""

    def __init__(self, s, sigma0):
        from scipy import stats

        self._law = stats.rice(s / sigma0, scale=sigma0)
        self._ncx2 = stats.ncx2(2, (s / sigma0) ** 2)
        self._scale = sigma0

    def __getattr__(self, name):
        return getattr(self._law, name)

    def sf(self, r):
        return self._ncx2.sf(np.square(np.asarray(r) / self._scale))

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        upper = np.sqrt(self._ncx2.isf(1.0 - q)) * self._scale
        return np.where(q > 0.5, upper, self._law.ppf(q))


def scipy_gain_law(model):
    """The frozen ``scipy.stats`` law of a named gain model: the oracle the
    library's own gain functions are checked against."""
    import math

    from scipy import stats

    from wnc import Lognormal, Nakagami, Rayleigh, Rice, Weibull

    if isinstance(model, Rayleigh):
        return stats.rayleigh(scale=model.sigma)
    if isinstance(model, Rice):
        return _RiceOracle(model.s, model.sigma0)
    if isinstance(model, Nakagami):
        return stats.nakagami(model.m, scale=math.sqrt(model.omega))
    if isinstance(model, Weibull):
        # exp(-(r/l)^k) = exp(-c r^k) with l = c^(-1/k)
        return stats.weibull_min(model.k, scale=model.c ** (-1.0 / model.k))
    if isinstance(model, Lognormal):
        return stats.lognorm(model.sigma, scale=math.exp(model.mu))
    raise TypeError(f"no scipy.stats law for {model!r}")


def cdf_generic(marginal, x):
    """F_H(r(x)): a single channel's capacity CDF through the gain
    transform and the ``scipy.stats`` gain law, with no closed form."""
    assert not marginal.is_composite
    out = scipy_gain_law(marginal.model).cdf(marginal._gain_radius(x))
    return float(out) if np.ndim(x) == 0 else out


def fading_cgf_reference(marginal, theta):
    """Fading cgf with the nodes and log-density rebuilt on every call.

    The quadrature of FadingMarginal.cgf written out without any cache:
    Gauss-Legendre nodes over the gain slices, the gain law's log-density,
    and the divergence probe at the clip point, evaluated per call.
    """
    import math

    from wnc.distributions import _EXP_OVERFLOW

    if theta == 0.0:
        return 0.0
    if marginal.is_composite:
        parts = [fading_cgf_reference(p, theta) for p in marginal._parts]
        return math.inf if any(math.isinf(v) for v in parts) else float(sum(parts))
    gain = marginal.model

    def log_integrand(r):
        with np.errstate(divide="ignore"):
            return theta * marginal._capacity_of_gain(r) + gain.logpdf(r)

    r_hi = float(marginal._slices[-1])
    if theta > 0:
        eps = 1e-6 * r_hi
        probe = log_integrand(np.array([r_hi - eps, r_hi]))
        if probe[1] > probe[0]:
            return math.inf
    r, w = _reference_nodes(marginal)
    logs = log_integrand(r)
    m = float(np.max(logs))
    kappa = m + math.log(float(w @ np.exp(logs - m)))
    return kappa if kappa < _EXP_OVERFLOW else math.inf


def fading_moment_reference(marginal, k):
    """E[C^k] of a single-channel marginal by the uncached quadrature."""
    r, w = _reference_nodes(marginal)
    vals = marginal._capacity_of_gain(r) ** k * marginal.model.pdf(r)
    return float(w @ vals)


def _reference_nodes(marginal):
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(64)
    edges = marginal._slices
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    r = a[:, None] + half[:, None] * (nodes[None, :] + 1.0)
    w = half[:, None] * weights[None, :]
    return r.ravel(), w.ravel()


def frechet_allocation_loop(fvals, grid, sign):
    """Grid DP of the Frechet allocation search, one budget cell at a time.

    Reference for processes._grid_allocation: for every budget j it scans
    the shares i <= j of marginal k and keeps the first best of
    fvals[k][i] + w[j - i].
    """
    budget_cells = grid.size - 1
    t = len(fvals)
    w = fvals[-1].copy()
    choice = []
    for k in range(t - 2, -1, -1):
        new_w = np.empty_like(w)
        pick = np.empty(budget_cells + 1, dtype=int)
        for j in range(budget_cells + 1):
            cand = fvals[k][: j + 1] + w[j::-1]
            idx = int(np.argmax(sign * cand))
            new_w[j] = cand[idx]
            pick[j] = idx
        w = new_w
        choice.append(pick)
    choice.reverse()
    alloc = []
    j = budget_cells
    for k in range(t - 1):
        idx = choice[k][j]
        alloc.append(grid[idx])
        j -= idx
    alloc.append(grid[j])
    return alloc


def frechet_allocation_full_table(fvals, grid, sign):
    """Grid DP of the Frechet allocation search on the whole n x n table.

    Reference for processes._grid_allocation, which builds the same
    candidate table a block of rows at a time: one sliding-window view per
    marginal, cand[j, i] = fvals[k][i] + w[j - i], with the fill (which
    never wins) at shares i > j, and the first best of every row.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    n = grid.size
    fill = np.full(n - 1, -sign * np.inf)
    best = np.argmax if sign > 0 else np.argmin
    rows = np.arange(n)
    w = fvals[-1]
    choice = []
    for k in range(len(fvals) - 2, -1, -1):
        table = sliding_window_view(np.concatenate((w[::-1], fill)), n)[::-1]
        cand = fvals[k] + table
        pick = best(cand, axis=1)
        w = cand[rows, pick]
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


def theta_grid(kappa_fn, n=200, theta_seed=1.0, theta_floor=1e-4,
               theta_cap=65536.0):
    """Log-spaced grid over (theta_floor, theta_max) of the finite kappa domain.

    theta_max is located by doubling until kappa turns infinite (or the cap
    is reached).  With ``grid_exponent_min``, the 200-point Chernoff search
    that the library's bracketed search replaced; kept as its reference.
    """
    from wnc import NumericFailure

    hi = theta_seed
    if not np.isfinite(kappa_fn(hi)):
        while hi > theta_floor and not np.isfinite(kappa_fn(hi)):
            hi /= 2.0
        if hi <= theta_floor:
            raise NumericFailure("no exponential moment on the theta grid")
    else:
        while hi < theta_cap and np.isfinite(kappa_fn(hi * 2.0)):
            hi *= 2.0
    return np.geomspace(theta_floor, hi, n)


def grid_exponent_min(exponent_fn, grid):
    """(theta, value): grid minimum of an exponent, polished by
    ``minimize_scalar`` between the neighbouring grid points."""
    from scipy.optimize import minimize_scalar

    vals = np.array([exponent_fn(th) for th in grid])
    finite = np.isfinite(vals)
    assert np.any(finite)
    j = int(np.argmin(np.where(finite, vals, np.inf)))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]
    res = minimize_scalar(exponent_fn, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * max(hi, 1.0)})
    if vals[j] < float(res.fun):
        return float(grid[j]), float(vals[j])
    return float(res.x), float(res.fun)


def frechet_polish_reference(marginals, x, budget_cells=256, polish_passes=2):
    """Frechet envelope with the continuous ``minimize_scalar`` polish.

    The grid DP of the library followed by pairwise bounded scalar
    searches on every pair, as before the exact lattice polish.
    """
    from scipy.optimize import minimize_scalar

    from wnc.processes import _grid_allocation

    ms = list(marginals)
    t = len(ms)

    def polish(alloc, sign):
        alloc = list(alloc)
        for _ in range(polish_passes):
            for i in range(t):
                for j in range(i + 1, t):
                    budget = alloc[i] + alloc[j]
                    if budget <= 0:
                        continue

                    def obj(u, i=i, j=j, budget=budget):
                        return -sign * (float(ms[i].cdf(u))
                                        + float(ms[j].cdf(budget - u)))

                    res = minimize_scalar(obj, bounds=(0.0, budget),
                                          method="bounded",
                                          options={"xatol": 1e-10 * max(x, 1.0)})
                    cand = float(res.x)
                    if obj(cand) < obj(alloc[i]):
                        alloc[i], alloc[j] = cand, budget - cand
        return alloc

    grid = np.linspace(0.0, x, budget_cells + 1)
    fvals = [np.asarray(m.cdf(grid), dtype=float) for m in ms]
    sup_alloc = polish(_grid_allocation(fvals, grid, +1.0), +1.0)
    inf_alloc = polish(_grid_allocation(fvals, grid, -1.0), -1.0)

    def value(alloc):
        return sum(float(m.cdf(u)) for m, u in zip(ms, alloc))

    return max(0.0, value(sup_alloc) - (t - 1)), min(1.0, value(inf_alloc))


def word_halves_reference(rng, n):
    """Endless 32-bit draws as floats, n at a time: the low halves of a
    block of n ``random_raw`` words, then their high halves."""
    while True:
        high, low = np.divmod(rng.bit_generator.random_raw(n), 2 ** 32)
        yield low.astype(float)
        yield high.astype(float)


def draw_index_reference(cum, v):
    """#{k < K - 1 : round(cum_k 2^32) <= v} for cumulative masses cum."""
    return np.searchsorted(np.round(np.asarray(cum)[:-1] * 2.0 ** 32), v,
                           side="right")


def markov_slots_reference(process, rng, n):
    """Markov slot stream with one searchsorted per state and per law over
    a mask.

    Reference for the Markov branch of simulate._slots, which reads the
    same 32-bit draws: a stationary start inverts the low halves of a block
    of its own; per slot one draw picks the next state from the row's
    cumulative sums and, when some law has more than one atom, a second
    one inverts the law of each run's transition.
    """
    kernel = process.kernel
    k = len(kernel.states)
    cum_rows = np.cumsum(kernel.transition, axis=1)
    laws = kernel.laws
    atoms = np.array([law.support[0] for law in laws])
    random_laws = any(law.support.size > 1 for law in laws)
    init = process.initial
    if isinstance(init, str) and init == "stationary":
        states = draw_index_reference(np.cumsum(kernel.stationary),
                                      next(word_halves_reference(rng, n)))
    else:
        states = np.full(n, kernel.state_index(init), dtype=np.intp)
    draws = word_halves_reference(rng, n)
    while True:
        v = next(draws)
        nxt = np.zeros(n, dtype=np.intp)
        for i in range(k):
            mask = states == i
            nxt[mask] = draw_index_reference(cum_rows[i], v[mask])
        law_index = nxt if kernel.by_destination else states * k + nxt
        if random_laws:
            caps = np.empty(n)
            v = next(draws)
            for i, law in enumerate(laws):
                mask = law_index == i
                caps[mask] = law.support[draw_index_reference(law._cum,
                                                              v[mask])]
        else:
            caps = atoms[law_index]
        states = nxt
        yield caps


def affine_prefactors(process, drain, theta, h):
    """Reference for delay._prefactors: each entry law's walk increment
    drain - B_j built as a validated law through ``affine`` and scanned by
    the public ``cramer_prefactors``."""
    from wnc.delay import cramer_prefactors
    ratios = []
    for j, law in process.kernel.entry_laws:
        walk = law.affine(shift=drain, scale=-1.0)
        if walk.support_max <= 0:
            continue
        lo, up = cramer_prefactors(walk, theta)
        ratios.append((lo / h[j], up / h[j]))
    return min(r[0] for r in ratios), max(r[1] for r in ratios)


def cgf_reference(law, theta):
    """DiscreteDistribution.cgf in its array form for every law: the
    max-shifted log-sum-exp over the positive-mass atoms."""
    if theta == 0.0:
        return 0.0
    a = theta * law._pos_support
    top = a.max()
    return float(top + np.log(law._pos_mass @ np.exp(a - top)))


def entry_laws_reference(kernel):
    """(j, law) for each law on a transition of positive probability, each
    law once, scanning the law index on every call."""
    laws, seen = [], set()
    for (i, j), k in np.ndenumerate(kernel.law_index):
        if kernel.transition[i, j] > 0 and k not in seen:
            seen.add(k)
            laws.append((j, kernel.laws[k]))
    return laws


def irreducible_reference(pattern):
    """Irreducibility as first tested: the float matrix (P > 0) + I to the
    n-th power is positive.  It counts walks, so from about 143 dense
    states the count overflows (exact on the small patterns tests feed)."""
    n = pattern.shape[0]
    reach = np.linalg.matrix_power(pattern.astype(float) + np.eye(n), n)
    return not np.any(reach <= 0)


def aperiodic_reference(pattern):
    """Primitivity as first tested, for n >= 2 states: some float power
    P^m, m <= n^2, of the 0/1 pattern is positive."""
    n = pattern.shape[0]
    p = pattern.astype(float)
    q = p.copy()
    for _ in range(n * n):
        if np.all(q > 0):
            return True
        q = q @ p
    return False


def nilpotent_reference(m):
    """The first domain test of a tilted kernel: the closed form a = d = 0
    and bc = 0 for 2x2 [[a, b], [c, d]], else a zero n-th float power of
    the zero pattern."""
    n = m.shape[0]
    if n == 2:
        (a, b), (c, d) = m.tolist()
        return a == 0.0 and d == 0.0 and (b == 0.0 or c == 0.0)
    return not np.any(np.linalg.matrix_power((m > 0).astype(float), n))


def spectral_reference(process, theta):
    """(kappa(theta), h) of a Markov-additive process, or (inf, None)
    outside the domain, as first written: array cgfs, the tilted matrix
    from a fancy index, and the domain tested by a matrix power of the
    zero pattern on every tilt; then one dense Perron-Frobenius solve
    with its checks and residual gate.  Raises as that solve does."""
    import math

    from wnc import NumericFailure
    from wnc.distributions import _EXP_OVERFLOW
    from wnc.processes import _dominant_pair

    kernel = process.kernel
    ks = [cgf_reference(law, theta) for law in kernel.laws]
    mgfs = np.array([float(np.exp(k)) if k < _EXP_OVERFLOW else math.inf
                     for k in ks])
    with np.errstate(invalid="ignore"):
        m = kernel.transition * mgfs[kernel.law_index]
    n = m.shape[0]
    if (not np.all(np.isfinite(m))
            or not np.any(np.linalg.matrix_power((m > 0).astype(float), n))):
        return math.inf, None
    if n == 1:
        return math.log(m[0, 0]), np.ones(1)
    lam, h = _dominant_pair(m)
    if not lam > 0:
        raise NumericFailure(f"Perron root {lam!r} is not positive")
    h = h / float(np.asarray(kernel.stationary, float) @ h)
    resid = np.max(np.abs(m @ h - lam * h)) / np.max(np.abs(h))
    if resid > 1e-9 * max(lam, 1.0):
        raise NumericFailure(f"eigen residual {resid:.3e} exceeds tolerance")
    return math.log(lam), h


def cramer_reference(y, m, theta):
    """(C_-, C_+) of the atomic law with support y and masses m: the array
    scan of the ratio at every atom, every left end and x = 0."""
    from wnc.distributions import _EXP_OVERFLOW

    with np.errstate(over="ignore"):
        tail_geq = np.cumsum(m[::-1])[::-1]
        expwt = np.exp(np.minimum(theta * y, _EXP_OVERFLOW)) * m
        mexp = np.cumsum(expwt[::-1])[::-1]
        pos = np.nonzero(y > 0)[0]
        ratios_up = tail_geq[pos] * np.exp(theta * y[pos]) / mexp[pos]
        lefts = np.concatenate(([0.0], y[pos][:-1]))
        ratios_lo = tail_geq[pos] * np.exp(theta * lefts) / mexp[pos]
    k0 = int(np.searchsorted(y, 0.0, side="left"))
    r0 = tail_geq[k0] / mexp[k0]
    c_plus = float(max(np.max(ratios_up), r0))
    c_minus = float(min(np.min(ratios_lo), r0))
    return c_minus, min(c_plus, 1.0)


def prefactors_reference(process, drain, theta, h):
    """delay._prefactors with every law, point masses included, scanned by
    ``cramer_reference`` on masses reversed and renormalised per call."""
    ratios = []
    for j, law in entry_laws_reference(process.kernel):
        y = drain - law._pos_support[::-1]
        if y[-1] <= 0:
            continue
        m = np.ascontiguousarray(law._pos_mass[::-1])
        lo, up = cramer_reference(y, m / m.sum(), theta)
        ratios.append((lo / h[j], up / h[j]))
    return min(r[0] for r in ratios), max(r[1] for r in ratios)


def light_tail_reference(spec, model, x_lo, x_hi, grid_n=256):
    """(a, b, lowered) of ``certify_light_tail``, its rate found by a search.

    The predicate ``accepted(b)``: over the grid points with a positive
    tail, the first maximum of log tail(x) + b x is not the last point (a
    bounded law waives this) and does not exceed the cap.  The rate is the
    largest accepted b up to 64: doubling from 1e-8, then 60 bisection
    steps.  The caps, the cover and the lowering to b_cap are the
    library's, and ``lowered`` says whether that lowering ran.
    HeavyTailError when 1e-8 is not accepted.
    """
    import math

    from wnc import fading
    from wnc.distributions import _EXP_OVERFLOW
    from wnc.errors import HeavyTailError

    marginal = fading._as_marginal(spec, model)
    is_fading = isinstance(marginal, fading.FadingMarginal)
    grid = np.linspace(x_lo, x_hi, grid_n)
    tails = np.asarray(marginal.tail(grid), dtype=float)
    bounded = math.isfinite(marginal.support_max)
    log_cap = (_EXP_OVERFLOW if marginal.support_max <= x_hi
               else math.log(fading._PREFACTOR_CAP))

    def accepted(b):
        pos = tails > 0
        if not np.any(pos):
            return True
        scores = np.log(tails[pos]) + b * grid[pos]
        peak = int(np.argmax(scores))
        interior = peak < pos.sum() - 1 or bounded
        return interior and scores[peak] <= log_cap

    if not accepted(1e-8):
        raise HeavyTailError("heavy tail detected")
    lo, hi = 1e-8, 2e-8
    while accepted(hi):
        lo = hi
        if hi >= fading._RATE_CAP:
            break
        hi = min(hi * 2.0, fading._RATE_CAP)
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if accepted(mid):
                lo = mid
            else:
                hi = mid
    if not np.any(tails > 0):
        return 1e-300, lo, False
    cover = (fading._concave_cover if is_fading and marginal.log_concave_tail
             else fading._tail_cover)
    log_a, b_cap = cover(marginal._tail_values if is_fading else marginal.tail,
                         grid, tails, lo, log_cap)
    lowered = log_a > log_cap
    if lowered:
        lo, log_a = b_cap, log_cap
    return float(math.exp(log_a) * (1.0 + 1e-12)), lo, lowered
