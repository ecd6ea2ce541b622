import math
from itertools import islice

import numpy as np
import pytest
from scipy import stats

from wnc.distributions import DiscreteDistribution
from wnc.errors import ValidationError
from wnc.processes import Additive
from wnc.simulate import _slots


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        DiscreteDistribution(np.array([1.0, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        DiscreteDistribution(np.array([0.0, 1.0]), np.array([1.5, -0.5]))
    with pytest.raises(ValidationError):
        DiscreteDistribution(np.array([np.nan]), np.array([1.0]))


def test_cdf_tail_quantile(two_point):
    assert two_point.cdf(-0.1) == 0.0
    assert two_point.cdf(0.0) == 0.5
    assert two_point.cdf(1.9) == 0.5
    assert two_point.cdf(2.0) == 1.0
    assert two_point.tail(0.0) == 0.5
    assert two_point.tail(2.0) == 0.0
    assert two_point.quantile(0.25) == 0.0
    assert two_point.quantile(0.75) == 2.0
    with pytest.raises(ValidationError):
        two_point.quantile(0.0)


def test_tail_is_complement_of_cdf(uniform_law):
    xs = np.linspace(-0.2, 1.2, 57)
    np.testing.assert_allclose(uniform_law.tail(xs),
                               1.0 - uniform_law.cdf(xs), atol=1e-12)


def test_cgf_closed_forms(two_point):
    # two-point: log(0.5 + 0.5 e^{2 th}); point mass: th * c
    for th in (-1.3, -0.2, 0.4, 1.7):
        assert two_point.cgf(th) == pytest.approx(
            math.log(0.5 + 0.5 * math.exp(2 * th)), abs=1e-14)
    assert two_point.cgf(0.0) == 0.0
    pm = DiscreteDistribution.point_mass(3.5)
    assert pm.cgf(0.8) == pytest.approx(0.8 * 3.5, abs=1e-14)
    assert pm.mgf(300.0) == math.inf


def test_cgf_matches_reference_sum(uniform_law):
    # reference: max-shifted sum in math.fsum, over the positive-mass atoms
    def reference(law, th):
        pts = [(th * x, m) for x, m in zip(law.support, law.mass) if m > 0]
        top = max(a for a, _ in pts)
        return top + math.log(math.fsum(m * math.exp(a - top) for a, m in pts))

    gappy = DiscreteDistribution(np.array([-1.0, 0.5, 3.0, 7.0]),
                                 np.array([0.25, 0.0, 0.75, 0.0]))
    for law in (gappy, uniform_law):
        for th in (-600.0, -3.0, -1e-3, 2e-7, 0.9, 400.0):
            want = reference(law, th)
            assert law.cgf(th) == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_affine_flips_support(two_point):
    flipped = two_point.affine(shift=0.5, scale=-1.0)
    np.testing.assert_allclose(flipped.support, [-1.5, 0.5])
    assert flipped.mean() == pytest.approx(0.5 - two_point.mean())


def test_convolution_exact_on_atoms(two_point):
    s = two_point.convolve(two_point)
    np.testing.assert_allclose(s.support, [0.0, 2.0, 4.0])
    np.testing.assert_allclose(s.mass, [0.25, 0.5, 0.25])
    assert s.mean() == pytest.approx(2 * two_point.mean(), abs=1e-12)


def test_from_cdf_uniform_moments():
    law = DiscreteDistribution.from_cdf(lambda x: np.clip(x, 0, 1), 0.0, 1.0)
    assert law.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert law.mean() == pytest.approx(0.5, abs=1e-6)
    assert law.var() == pytest.approx(1.0 / 12.0, rel=1e-3)


def _oracle_draws(law, rng, n):
    """n draws of law: the first slot of the Monte Carlo oracle's stream."""
    return next(_slots(Additive(law), rng, n)).copy()


def test_sampling_reproducible_and_consistent(uniform_law):
    r1 = _oracle_draws(uniform_law, np.random.default_rng(7), 50_000)
    r2 = _oracle_draws(uniform_law, np.random.default_rng(7), 50_000)
    np.testing.assert_array_equal(r1, r2)
    assert r1.mean() == pytest.approx(0.5, abs=0.01)


def test_regrid_preserves_mass():
    n = 20_000
    law = DiscreteDistribution(np.linspace(0, 5, n), np.full(n, 1.0 / n))
    coarse = law.regrid(512)
    assert coarse.support.size <= 512
    assert coarse.mean() == pytest.approx(law.mean(), rel=1e-3)


_SMALL_LAWS = [
    ([1.5], [1.0]),
    ([0.0, 2.0], [0.5, 0.5]),
    ([0.0, 2.0], [1.0, 0.0]),                        # trailing zero mass
    ([0.0, 1.0, 2.5], [0.3, 0.0, 0.7]),              # interior zero mass
    ([0.0, 1.0, 2.0], [0.2, 0.3, 0.5]),
    ([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.0, 0.5]),    # zero mass first and inside
    ([0.0, 1.0, 2.0, 3.0], [0.6, 0.4, 0.0, 0.0]),    # two trailing zeros
    ([0.0, 1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.0, 0.3, 0.4]),
]


@pytest.mark.parametrize("support, mass", _SMALL_LAWS)
def test_threshold_inverse_equals_searchsorted(support, mass):
    law = DiscreteDistribution(np.array(support), np.array(mass))
    cum = law._cum
    edges = np.concatenate((cum, np.nextafter(cum, -1.0), np.nextafter(cum, 2.0)))
    u = np.concatenate(([0.0, 1.0], edges,
                        np.random.default_rng(5).random(100_000)))
    u = u[(u >= 0.0) & (u <= 1.0)]             # 1.0 is the antithetic 1 - 0
    want = law.support[np.searchsorted(cum, u, side="left")]
    np.testing.assert_array_equal(law._inverse_cdf(u), want)
    for p in np.concatenate((edges, [0.37])):
        if 0.0 < p < 1.0:
            expected = float(law.support[np.searchsorted(cum, p, side="left")])
            assert law.quantile(float(p)) == expected
            assert law._inverse_cdf(float(p)) == expected
            assert law._inverse_cdf(np.array(p)) == expected


def _draw_edges(law):
    """32-bit draws on and beside every threshold of a law, plus both ends."""
    t = np.round(law._cum[:-1] * 2.0 ** 32)
    v = np.concatenate(([0.0, 2.0 ** 32 - 1], t, t - 1, t + 1))
    return np.unique(v[(v >= 0) & (v < 2.0 ** 32)]).astype(np.uint64)


def _atoms_of_draws(law, v):
    return law.support[law._draw_index(v, np.empty(v.size, np.intp))]


@pytest.mark.parametrize("support, mass", _SMALL_LAWS)
def test_thresholds_round_the_cumulative_masses(support, mass):
    law = DiscreteDistribution(np.array(support), np.array(mass))
    t = law._thresholds
    assert t.dtype == np.uint64 and t.size == law.support.size - 1
    scaled = law._cum[:-1] * 2.0 ** 32          # exact: a power-of-two scale
    assert np.all(np.abs(t.astype(float) - scaled) <= 0.5)


def test_a_threshold_can_be_two_to_the_32():
    # cum_0 rounds to 1: the threshold is above every draw, so the atom
    # after it is never drawn, and a uint32 could not hold it
    for mass in ([1.0, 0.0], [1.0 - 2.0 ** -40, 2.0 ** -40]):
        law = DiscreteDistribution(np.array([0.0, 1.0]), np.array(mass))
        assert law._thresholds.tolist() == [2 ** 32]
        draws = _atoms_of_draws(law, _draw_edges(law))
        assert np.all(draws == 0.0)


@pytest.mark.parametrize("support, mass", _SMALL_LAWS + [
    (np.arange(6.0), [0.0, 0.2, 0.0, 0.3, 0.5, 0.0])])
def test_zero_mass_atoms_are_never_drawn(support, mass):
    law = DiscreteDistribution(np.array(support), np.array(mass))
    rng = np.random.default_rng(11)
    v = np.concatenate((_draw_edges(law),
                        rng.integers(0, 2 ** 32, 100_000, dtype=np.uint64)))
    drawn = np.unique(_atoms_of_draws(law, v))
    assert set(drawn) <= set(law.support[law.mass > 0])
    assert set(np.unique(_oracle_draws(law, rng, 10_001))) <= set(drawn)


@pytest.mark.parametrize("support, mass", _SMALL_LAWS + [
    (np.arange(6.0), [0.0, 0.2, 0.0, 0.3, 0.5, 0.0])])
def test_draw_index_counts_thresholds_at_or_below(support, mass):
    law = DiscreteDistribution(np.array(support), np.array(mass))
    v = np.concatenate((_draw_edges(law), np.random.default_rng(3).integers(
        0, 2 ** 32, 20_000, dtype=np.uint64)))
    t = [round(float(c) * 2 ** 32) for c in law._cum[:-1]]
    want = [law.support[sum(tk <= int(x) for tk in t)] for x in v]
    np.testing.assert_array_equal(_atoms_of_draws(law, v), want)


def test_three_atom_frequencies_match_the_masses():
    # two-sided binomial test of each atom's count in 2^22 draws: 16 slots
    # of 2^18 runs of the Monte Carlo oracle's stream
    law = DiscreteDistribution(np.arange(3.0), np.array([0.2, 0.3, 0.5]))
    slots = _slots(Additive(law), np.random.default_rng(17), 1 << 18)
    counts = sum(np.bincount(caps.astype(np.intp), minlength=3)
                 for caps in islice(slots, 16))
    for count, p in zip(counts, law.mass):
        assert stats.binomtest(int(count), 1 << 22, p).pvalue > 1e-6
