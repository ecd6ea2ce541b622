"""One Markov tilt, bit for bit: the tilt-invariant data built once per
kernel or per law, the one-atom closed forms and the domain test without a
matrix power give the outputs of the array formulation in ``conftest``."""

import math
from functools import cached_property

import numpy as np
import pytest

from wnc import (Additive, ArrivalSpec, MarkovAdditive, MarkovKernel,
                 NumericFailure, cdf_bounds, delay, delay_constrained_capacity,
                 mgf_matrix, processes)
from wnc.delay import delay_tails
from wnc.distributions import DiscreteDistribution
from wnc.processes import _spectral, _support_ends, process_mean_rate

from conftest import (cgf_reference, entry_laws_reference,
                      prefactors_reference, spectral_reference)

# ±theta from 1e-6 to 2^46, powers of two and points between them
_TILTS = sorted({s * f * 2.0 ** k for k in range(-20, 47)
                 for f in (1.0, 1.37) for s in (1.0, -1.0)} | {0.0})


def _ge(p_gb, p_bg):
    return MarkovKernel.from_destination_laws(
        ("G", "B"), np.array([[1 - p_gb, p_gb], [p_bg, 1 - p_bg]]),
        [2.0, 0.0])


def _channels():
    full = MarkovKernel(
        ("a", "b"), np.array([[0.7, 0.3], [0.4, 0.6]]),
        ((DiscreteDistribution(np.array([1.0, 3.0]), np.array([0.5, 0.5])),
          DiscreteDistribution.point_mass(0.5)),
         (DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.3, 0.7])),
          DiscreteDistribution.point_mass(1.0))))
    three = MarkovKernel.from_destination_laws(
        ("x", "y", "z"), np.array([[0.56, 0.01, 0.43], [0.05, 0.08, 0.87],
                                   [0.2, 0.3, 0.5]]), [2.0, 3.0, 4.0])
    tiny = MarkovKernel.from_destination_laws(
        ("u", "v"), np.array([[1e-12, 1.0 - 1e-12], [0.995, 0.005]]),
        [DiscreteDistribution(np.array([2.0, 3.0]), np.array([0.354, 0.646])),
         3.5])
    return {"gilbert_elliott": _ge(0.1, 0.2), "ge_slow_1e-3": _ge(1e-3, 2e-3),
            "ge_slow_1e-4": _ge(1e-4, 2e-4), "full_kernel": full,
            "three_state": three, "transition_1e-12": tiny}


CHANNELS = _channels()


def _hex(v):
    return float.hex(float(v))


def _outcome(fn, *args):
    """Bits of (kappa, h), or the exception type the solve raised."""
    try:
        k, h = fn(*args)
    except NumericFailure as exc:
        return type(exc)
    return _hex(k), None if h is None else [_hex(v) for v in h]


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_spectral_equals_array_reference_bit_for_bit(name):
    proc = MarkovAdditive(CHANNELS[name])
    outside = underflowed = 0
    for theta in _TILTS:
        got = _outcome(_spectral, proc, theta)
        assert got == _outcome(spectral_reference, proc, theta), theta
        outside += got == (_hex(math.inf), None)
        with np.errstate(invalid="ignore"):
            m = mgf_matrix(proc.kernel, theta)
        underflowed += (np.count_nonzero(m)
                        < np.count_nonzero(proc.kernel.transition))
    # the scan reaches tilts outside the domain (an mgf overflows or the
    # matrix turns nilpotent) and tilts where some entry has underflowed
    assert outside > 0 and underflowed > 0


def test_domain_decided_where_entries_underflow():
    # GE at -theta loses its G-column entries (e^{-2 theta}) above ~372:
    # the B self-loop keeps a cycle, so the tilt stays in the domain
    proc = MarkovAdditive(CHANNELS["gilbert_elliott"])
    m = mgf_matrix(proc.kernel, -400.0)
    assert np.count_nonzero(m) < 4
    assert _spectral(proc, -400.0)[0] == spectral_reference(proc, -400.0)[0]
    # the full kernel at +400 underflows to the nilpotent [[0, 0], [c, 0]]
    full = MarkovAdditive(CHANNELS["full_kernel"])
    assert _spectral(full, 400.0) == (math.inf, None)
    assert spectral_reference(full, 400.0) == (math.inf, None)


def _laws():
    laws = [law for k in CHANNELS.values() for law in k.laws]
    laws += [DiscreteDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5])),
             DiscreteDistribution(np.array([-1.5, 0.0, 4.0]),
                                  np.array([0.0, 1.0, 0.0])),
             DiscreteDistribution(np.array([0.0, 1.0, 2.5]),
                                  np.array([0.4, 0.0, 0.6])),
             DiscreteDistribution.point_mass(-0.7),
             DiscreteDistribution.point_mass(0.0),
             DiscreteDistribution.point_mass(1e-300)]
    return laws


def test_cgf_equals_array_reference_bit_for_bit():
    for law in _laws():
        for theta in _TILTS:
            assert _hex(law.cgf(theta)) == _hex(cgf_reference(law, theta)), (
                law, theta)


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_prefactors_equal_array_reference_bit_for_bit(name):
    proc = MarkovAdditive(CHANNELS[name])
    floor, _ = _support_ends(proc)
    mean = process_mean_rate(proc)
    checked = 0
    for drain in floor + (mean - floor) * np.array([1e-6, 0.05, 0.3, 0.5,
                                                    0.77, 0.999]):
        for theta in _TILTS:
            if theta <= 0:
                continue
            h = _spectral(proc, -theta)[1]
            if h is None:
                continue
            with np.errstate(over="raise"):     # the scan handles its own
                got = delay._prefactors(proc, float(drain), theta, h)
            want = prefactors_reference(proc, float(drain), theta, h)
            assert [_hex(v) for v in got] == [_hex(v) for v in want], (
                drain, theta)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_entry_laws_are_the_scanned_pairs(name):
    kernel = CHANNELS[name]
    want = entry_laws_reference(kernel)
    got = kernel.entry_laws
    assert [(j, id(law)) for j, law in got] == [(j, id(law)) for j, law in want]
    assert processes._entry_laws(MarkovAdditive(kernel)) is got


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_floor_is_the_support_end(name):
    proc = MarkovAdditive(CHANNELS[name])
    assert delay._floor(proc) == _support_ends(proc)[0]


def test_floor_of_an_additive_channel(two_point, rayleigh_marginal):
    lattice = Additive(two_point)
    assert delay._floor(lattice) == _support_ends(lattice)[0] == 0.0
    # the ruin floor reads the discretised law, whose least atom is the
    # 1e-9 quantile, against the fading support (0, inf); ROADMAP item 7
    # moves the fading floor to the support end and removes the difference
    fading = Additive(rayleigh_marginal)
    assert delay._floor(fading) > _support_ends(fading)[0] == 0.0


def test_ge_queries_build_entries_once(monkeypatch):
    kernel = _ge(0.1, 0.2)          # fresh: nothing cached yet
    proc = MarkovAdditive(kernel)
    built = []
    scan = MarkovKernel.entry_laws.func

    def counted(self):
        built.append(self)
        return scan(self)
    entries = cached_property(counted)
    entries.__set_name__(MarkovKernel, "entry_laws")
    monkeypatch.setattr(MarkovKernel, "entry_laws", entries)
    infeasible = delay_constrained_capacity(proc, 10.0, 0.01)
    assert not infeasible.feasible and infeasible.diagnostics.tilts >= 40
    assert delay_constrained_capacity(proc, 10.0, 0.3).feasible
    delay_tails(proc, ArrivalSpec(1.0), [5.0, 10.0, 20.0])
    cdf_bounds(proc, 10, 13.0)
    assert built == [kernel]
