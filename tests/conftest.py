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
def unit_spec():
    return ChannelSpec(1.0, 1.0)


@pytest.fixture(scope="session")
def rayleigh_marginal(unit_spec):
    return capacity_marginal(unit_spec, Rayleigh())


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
