"""Checks of the benchmark's own reference computations (no wnc involved)."""

import itertools
import math

import numpy as np
import pytest

import oracles as orc

TWO_POINT = [[([0.0, 2.0], [0.5, 0.5])]]
GE_P = [[0.9, 0.1], [0.2, 0.8]]
GE_LAWS = [[([2.0], [1.0]), ([0.0], [1.0])]] * 2
FK_P = [[0.7, 0.3], [0.4, 0.6]]
FK_LAWS = [[([1.0, 3.0], [0.5, 0.5]), ([0.5], [1.0])],
           [([0.0, 2.0], [0.3, 0.7]), ([1.0], [1.0])]]


def paths(transition, laws, initial, horizon):
    """Every (probability, capacity sequence) of a Markov-modulated channel."""
    n = len(transition)
    moves = [(i, j, c, transition[i][j] * m) for i in range(n) for j in range(n)
             for c, m in zip(*laws[i][j]) if transition[i][j] * m > 0]
    for i0 in range(n):
        if initial[i0] == 0:
            continue
        for seq in itertools.product(moves, repeat=horizon):
            state, prob, caps = i0, initial[i0], []
            for i, j, c, q in seq:
                if i != state:
                    prob = 0.0
                    break
                prob *= q
                caps.append(c)
                state = j
            if prob > 0:
                yield prob, caps


@pytest.mark.parametrize("transition, laws, lam, unit", [
    ([[1.0]], TWO_POINT, 0.4, 0.4),
    (GE_P, GE_LAWS, 1.0, 1.0),
    (FK_P, FK_LAWS, 0.8, 0.1),
])
def test_ruin_recursion_matches_path_enumeration(transition, laws, lam, unit):
    horizon = 6
    initial = orc.stationary_law(transition) if len(transition) > 1 else [1.0]
    steps = orc.lattice_steps(transition, laws, lam, unit)
    for level in (1, 2, 3, 5, 8, 16):
        brute = 0.0
        for prob, caps in paths(transition, laws, initial, horizon):
            walk = np.cumsum([lam - c for c in caps])
            if np.max(walk) >= level * unit - 1e-9:
                brute += prob
        got = orc.ruin_probability(steps, initial, level, horizon)
        assert got == pytest.approx(brute, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("transition, laws, unit", [
    ([[1.0]], TWO_POINT, 2.0),
    (GE_P, GE_LAWS, 1.0),
    (FK_P, FK_LAWS, 0.5),
])
def test_capacity_cdf_recursion_matches_path_enumeration(transition, laws, unit):
    t = 5
    initial = orc.stationary_law(transition) if len(transition) > 1 else [1.0]
    xs = [0.0, 1.0, 2.5, 4.0, 7.5, 10.0]
    brute = [0.0] * len(xs)
    for prob, caps in paths(transition, laws, initial, t):
        for k, x in enumerate(xs):
            if sum(caps) <= x + 1e-9:
                brute[k] += prob
    got = orc.lattice_cdf(transition, laws, initial, t, unit, xs)
    assert got == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_binomial_cdf_matches_recursion():
    xs = [0.0, 3.0, 8.0, 12.5, 16.0]
    rec = orc.lattice_cdf([[1.0]], TWO_POINT, [1.0], 8, 2.0, xs)
    assert [orc.binomial_cdf(8, x, 0.0, 2.0, 0.5) for x in xs] == pytest.approx(rec, rel=1e-13)


def closed_form_radius(m):
    tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))


@pytest.mark.parametrize("transition, laws, drain", [
    (GE_P, GE_LAWS, 1.0),
    ([[0.999, 0.001], [0.002, 0.998]], GE_LAWS, 1.0),
    (FK_P, FK_LAWS, 0.8),
])
def test_eigenvalue_root_matches_closed_two_by_two_form(transition, laws, drain):
    got = orc.markov_drain_root(transition, laws, drain)
    want = orc.positive_root(lambda th: th * drain + math.log(
        closed_form_radius(orc.tilted_matrix(transition, laws, -th))))
    assert got == pytest.approx(want, rel=1e-10)


def test_long_horizon_ruin_is_exact_for_skip_free_walks():
    # i.i.d. two-point at lambda = 0.4: upward steps of one lattice unit, so
    # the Lundberg bound exp(-theta* lambda d) is the exact tail
    theta = orc.drain_root(orc.atomic_cgf([0.0, 2.0], [0.5, 0.5]), 0.4)
    steps = orc.lattice_steps([[1.0]], TWO_POINT, 0.4, 0.4)
    depth = int(math.ceil(46.0 / (theta * 0.4)))
    for d in (1, 5, 20):
        exact = orc.ruin_probability(steps, [1.0], d, None, depth)
        assert exact == pytest.approx(math.exp(-theta * 0.4 * d), rel=1e-13)
    # Gilbert-Elliott: the recursion agrees with optional stopping
    steps = orc.lattice_steps(GE_P, GE_LAWS, 1.0, 1.0)
    theta = orc.markov_drain_root(GE_P, GE_LAWS, 1.0)
    pi = orc.stationary_law(GE_P)
    for d in (5, 20):
        exact = orc.ruin_probability(steps, pi, d, None, int(math.ceil(50.0 / theta)))
        assert exact == pytest.approx(orc.skip_free_ruin(GE_P, GE_LAWS, 1.0, 1, d), rel=1e-12)


def test_e2e_single_hop_is_the_geometric_sum():
    # one hop, K = 1: the value is min over theta of e^{-theta lam d} / (1 - w)
    cgf = orc.atomic_cgf([0.0, 2.0], [0.5, 0.5])
    lam, d = 0.2, 10.0
    value, theta = orc.e2e_value([cgf], lam, 1, d)
    grid = np.linspace(1e-3, 3.0, 30001)
    brute = min(math.exp(-t * lam * d) / (1.0 - math.exp(cgf(-t) + 2 * t * lam))
                for t in grid if cgf(-t) + 2 * t * lam < 0)
    assert value <= brute * (1 + 1e-12)
    assert value == pytest.approx(brute, rel=1e-6)
