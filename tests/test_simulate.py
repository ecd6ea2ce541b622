import hashlib
import math
from itertools import islice

import numpy as np
import pytest
from scipy import stats

from wnc import (Additive, AntitheticPairing, ArrivalSpec, ChannelSpec,
                 Comonotonic, FrequencySelective, HopChain, MarkovAdditive,
                 MarkovKernel, Nakagami, Rayleigh, ValidationError,
                 capacity_marginal)
from wnc.distributions import DiscreteDistribution
from wnc.processes import process_mean_rate
from wnc.simulate import (SimConfig, _slots, cumulative_capacity_samples,
                          empirical_delay_tails, feedback_queue, substream,
                          tandem_queue)

from conftest import markov_slots_reference


def sample_capacity_trace(process, horizon, stream):
    """One capacity trace of ``horizon`` slots, read off a one-run stream."""
    return np.array([caps[0] for caps in
                     islice(_slots(process, stream, 1), horizon)])


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(seed=1, runs=0, horizon=10)
    with pytest.raises(ValidationError):
        SimConfig(seed=1, runs=1, horizon=10, warmup=10)
    with pytest.raises(ValidationError):
        SimConfig(seed=-1, runs=1, horizon=10)
    cfg = SimConfig(seed=1, runs=1, horizon=100)
    assert cfg.warmup == 10 and cfg.window == 90


def test_trace_reproducible_and_structured(two_point, ge_kernel):
    proc = Additive(two_point)
    t1 = sample_capacity_trace(proc, 64, substream(9, 0))
    t2 = sample_capacity_trace(proc, 64, substream(9, 0))
    np.testing.assert_array_equal(t1, t2)
    como = sample_capacity_trace(Comonotonic(two_point), 64, substream(9, 1))
    assert np.all(como == como[0])
    pm = sample_capacity_trace(Additive(DiscreteDistribution.point_mass(1.5)),
                               16, substream(9, 2))
    assert np.all(pm == 1.5)
    mk = sample_capacity_trace(MarkovAdditive(ge_kernel), 64, substream(9, 3))
    assert set(np.unique(mk)) <= {0.0, 2.0}
    anti = sample_capacity_trace(AntitheticPairing(two_point), 64,
                                 substream(9, 4))
    np.testing.assert_allclose(anti[0::2] + anti[1::2], 2.0)


def test_single_state_markov_matches_iid(two_point):
    kernel = MarkovKernel.from_destination_laws(("s",), np.array([[1.0]]),
                                                [two_point])
    m = cumulative_capacity_samples(MarkovAdditive(kernel), 16, 50_000, seed=3)
    a = cumulative_capacity_samples(Additive(two_point), 16, 50_000, seed=4)
    # distributional equality at the 99.9% KS level
    stat = stats.ks_2samp(m, a).statistic
    critical = 1.9495 * math.sqrt(2.0 / 50_000)
    assert stat < critical


def test_empirical_delay_tail_basics(two_point):
    pm = Additive(DiscreteDistribution.point_mass(2.0))
    cfg = SimConfig(seed=5, runs=2_000, horizon=100)
    est, est0 = empirical_delay_tails(pm, ArrivalSpec(1.0), [3.0, 0.0], cfg)
    assert est.point == 0.0 and est.stderr == 0.0
    assert est0.point == 1.0     # P(D >= 0) = 1 by convention
    proc = Additive(two_point)
    est2, = empirical_delay_tails(proc, ArrivalSpec(0.5), [2.0], cfg)
    assert 0.0 <= est2.point <= 1.0
    assert est2.stderr == pytest.approx(
        math.sqrt(est2.point * (1 - est2.point) / cfg.runs), abs=1e-12)


def test_estimates_bit_reproducible(two_point, ge_kernel):
    cfg = SimConfig(seed=6, runs=30_000, horizon=200)
    for proc in (Additive(two_point), MarkovAdditive(ge_kernel),
                 Comonotonic(two_point), AntitheticPairing(two_point)):
        arr = ArrivalSpec(0.5)
        a = empirical_delay_tails(proc, arr, [1.0, 5.0], cfg)
        b = empirical_delay_tails(proc, arr, [1.0, 5.0], cfg)
        assert a == b
    f1 = feedback_queue(Additive(two_point), ArrivalSpec(0.25), cfg, [2, 5])
    f2 = feedback_queue(Additive(two_point), ArrivalSpec(0.25), cfg, [2, 5])
    assert f1 == f2


def test_comonotonic_cumulative_matches_closed_form(two_point, unit_spec):
    ray = capacity_marginal(unit_spec, Rayleigh())
    t = 7
    samples = cumulative_capacity_samples(Comonotonic(ray), t, 100_000, seed=8)
    stat = stats.kstest(samples, lambda x: ray.cdf(np.asarray(x) / t)).statistic
    critical = math.sqrt(math.log(2.0 / 0.001) / (2.0 * samples.size))
    assert stat < critical


def test_feedback_queue_sanity(two_point):
    # capacity floor above the doubled load: work clears in-slot, no delay
    floor = DiscreteDistribution(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    cfg = SimConfig(seed=10, runs=5_000, horizon=200)
    ests = feedback_queue(Additive(floor), ArrivalSpec(0.25), cfg, [1, 5])
    assert all(e.point == 0.0 for e in ests)
    proc = Additive(two_point)
    # 2*lambda above the mean: backlog grows linearly, tails go to 1
    unstable = feedback_queue(proc, ArrivalSpec(0.75),
                              SimConfig(seed=10, runs=2_000, horizon=400),
                              [5])[0]
    assert unstable.point > 0.95


def test_feedback_conservation_mirror(two_point):
    # explicit scalar mirror of the two-class recursion: departures never
    # exceed offered capacity or accumulated arrivals (debug-run invariant)
    rng = substream(123, 3, 0)
    caps = sample_capacity_trace(Additive(two_point), 300, rng)
    lam = 0.25
    b_flow = b_echo = dep_prev = 0.0
    cum_in_flow = cum_out_flow = 0.0
    for c in caps:
        b_echo += dep_prev
        dep_echo = min(b_echo, c)
        b_echo -= dep_echo
        b_flow += lam
        cum_in_flow += lam
        dep_flow = min(b_flow, c - dep_echo)
        b_flow -= dep_flow
        dep_prev = dep_flow
        cum_out_flow += dep_flow
        assert dep_echo + dep_flow <= c + 1e-12
        assert cum_out_flow <= cum_in_flow + 1e-12
        assert b_flow >= -1e-12 and b_echo >= -1e-12


def test_tandem_single_hop_matches_walk_estimator(two_point):
    proc = Additive(two_point)
    arrival = ArrivalSpec(0.5)
    chain = HopChain((proc,), 1, False)
    cfg = SimConfig(seed=12, runs=150_000, horizon=400)
    tq = tandem_queue(chain, arrival, cfg, [2, 5])
    walk = empirical_delay_tails(proc, arrival,
                                 [2, 5], SimConfig(seed=13, runs=150_000,
                                                   horizon=400, warmup=0),
                                 strict=True)
    for a, b in zip(tq, walk):
        assert abs(a.point - b.point) <= 3 * math.hypot(a.stderr, b.stderr) + 1e-3


def test_tandem_deterministic_hops_zero_delay():
    pm = DiscreteDistribution.point_mass(3.0)
    chain = HopChain((Additive(pm), Additive(pm)), 2, False)
    # effective capacity 3 - (2*2-2)*0.5 = 2 > lambda: no queueing
    cfg = SimConfig(seed=14, runs=2_000, horizon=100)
    ests = tandem_queue(chain, ArrivalSpec(0.5), cfg, [1, 3])
    assert all(e.point == 0.0 for e in ests)


def _stream_processes(two_point, ge_kernel, full_kernel, rayleigh_marginal):
    selective = capacity_marginal(ChannelSpec(1.0, 1.0), FrequencySelective((
        (ChannelSpec(1.0, 1.0), Rayleigh()),
        (ChannelSpec(0.5, 2.0), Nakagami(2.0)))))
    dest = MarkovKernel.from_destination_laws(
        ("a", "b", "c"),
        np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]),
        [DiscreteDistribution(np.array([0.0, 1.0, 2.0]),
                              np.array([0.2, 0.3, 0.5])),
         DiscreteDistribution.point_mass(0.5),
         DiscreteDistribution(np.array([1.0, 3.0]), np.array([0.5, 0.5]))])
    return {
        "additive_two_point": Additive(two_point),
        "additive_rayleigh": Additive(rayleigh_marginal),
        "comonotonic_two_point": Comonotonic(two_point),
        "comonotonic_selective": Comonotonic(selective),
        "antithetic_two_point": AntitheticPairing(two_point),
        "antithetic_rayleigh": AntitheticPairing(rayleigh_marginal),
        "ge_stationary": MarkovAdditive(ge_kernel),
        "ge_from_b": MarkovAdditive(ge_kernel, "B"),
        "destination_chain": MarkovAdditive(dest),
        "full_kernel": MarkovAdditive(full_kernel),
    }


class _ThresholdReplay:
    """Stand-in generator whose uniforms sit on and beside every threshold
    of a kernel (its cumulative transition sums and its laws' cumulative
    masses), shifted by one place per call."""

    def __init__(self, kernel):
        cums = np.concatenate([np.cumsum(kernel.transition, axis=1).ravel()]
                              + [law._cum for law in kernel.laws])
        u = np.concatenate(([0.0], cums, np.nextafter(cums, -1.0),
                            np.nextafter(cums, 2.0)))
        self.u = np.unique(u[u < 1.0])
        self.calls = 0

    def random(self, size=None, out=None):
        draw = np.roll(self.u, self.calls)
        self.calls += 1
        if out is None:
            return draw
        out[...] = draw
        return out


def test_markov_slots_match_masked_per_law_loop(full_kernel, mixed_kernel,
                                                ge_kernel):
    laws = mixed_kernel.laws
    full_mixed = MarkovKernel(
        ("a", "b", "c"), np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3],
                                   [0.3, 0.3, 0.4]]),
        [laws[:3], laws[1:], [laws[3], laws[0], laws[1]]])
    for kernel in (full_kernel, mixed_kernel, full_mixed, ge_kernel):
        n = _ThresholdReplay(kernel).u.size
        for proc in (MarkovAdditive(kernel),
                     MarkovAdditive(kernel, kernel.states[-1])):
            for rng, runs in ((lambda: substream(8, 1), 2_000),
                              (lambda: _ThresholdReplay(kernel), n)):
                # the stream refills one array per slot: copy each slot
                got = [caps.copy() for caps in
                       islice(_slots(proc, rng(), runs), 40)]
                want = list(islice(markov_slots_reference(
                    proc, rng(), runs), 40))
                np.testing.assert_array_equal(got, want)


def _digest(values) -> str:
    """Leading 16 hex digits of the SHA-256 of a float64 array or estimates."""
    if isinstance(values, list):
        values = [(e.point, e.stderr, e.runs_used) for e in values]
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


# Digests of the Monte Carlo streams; a change that alters a stream on
# purpose updates them and says so in CHANGES.md.
_STREAM_DIGESTS = {
    "additive_two_point/trace": "f8236e343604eafb",
    "additive_two_point/cumulative": "82ca51245b5ce3a8",
    "additive_two_point/delay": "c04cc9ccbd6f1fb7",
    "additive_two_point/feedback": "abca63c7094b9f8a",
    "additive_rayleigh/trace": "d07878378ce7ce2d",
    "additive_rayleigh/cumulative": "ef8644c07c09d8db",
    "additive_rayleigh/delay": "dad536f0132857e4",
    "additive_rayleigh/feedback": "85c664538349d9aa",
    "comonotonic_two_point/trace": "9e999ac83b8adf57",
    "comonotonic_two_point/cumulative": "1be27d9bb1dc9660",
    "comonotonic_two_point/delay": "96ac72b7cb02cd8d",
    "comonotonic_two_point/feedback": "66900e70869bde1c",
    "comonotonic_selective/trace": "5d0a308845fe0674",
    "comonotonic_selective/cumulative": "32f57bcec47a2a81",
    "comonotonic_selective/delay": "6c3c74fc29467d79",
    "comonotonic_selective/feedback": "b93d8e7b413ea9fc",
    "antithetic_two_point/trace": "fe3e46fd5fc969c2",
    "antithetic_two_point/cumulative": "5a963216f3a8ffb9",
    "antithetic_two_point/delay": "21c407f221dc981b",
    "antithetic_two_point/feedback": "680db70928e3aa01",
    "antithetic_rayleigh/trace": "8fb4d9c74b961cca",
    "antithetic_rayleigh/cumulative": "a938330696165e87",
    "antithetic_rayleigh/delay": "cdb185ca6afa7c7a",
    "antithetic_rayleigh/feedback": "7af5ce08940127b3",
    "ge_stationary/trace": "78c029aa28174289",
    "ge_stationary/cumulative": "c1e5e3b911b0ecd2",
    "ge_stationary/delay": "a91b8a5c463ca62e",
    "ge_stationary/feedback": "e804e9958313c7b0",
    "ge_from_b/trace": "085747f31fbfb00e",
    "ge_from_b/cumulative": "485fcac5745a8c55",
    "ge_from_b/delay": "77da6b3419f46712",
    "ge_from_b/feedback": "88576878a84657a1",
    "destination_chain/trace": "304eb8333d8f1b5c",
    "destination_chain/cumulative": "f5166a47009fc2a9",
    "destination_chain/delay": "11de1bbae292ed3a",
    "destination_chain/feedback": "97f79a8fd83ce085",
    "full_kernel/trace": "9f7990caa17d9e5f",
    "full_kernel/cumulative": "3242b9ea706aaa90",
    "full_kernel/delay": "7c2fbe55090c45dd",
    "full_kernel/feedback": "c1f1caaa1fb32405",
    "tandem/separate": "62ca235760f6648d",
    "tandem/shared": "fc6c9c1614eff8ad",
    "mixed_chain/trace": "e5dd9a8ca0b4c648",
    "mixed_chain/delay": "1143df030ed19d99",
}


def test_monte_carlo_streams_are_pinned(monkeypatch, two_point, ge_kernel,
                                        full_kernel, mixed_kernel,
                                        rayleigh_marginal):
    import wnc.simulate as sim
    monkeypatch.setattr(sim, "_BATCH", 512)     # three batches of 1500 runs
    cfg = SimConfig(seed=21, runs=1_500, horizon=60)
    got = {}
    for name, proc in _stream_processes(two_point, ge_kernel, full_kernel,
                                        rayleigh_marginal).items():
        rate = process_mean_rate(proc)
        got[f"{name}/trace"] = _digest(
            sample_capacity_trace(proc, 50, substream(21, 0)))
        got[f"{name}/cumulative"] = _digest(
            cumulative_capacity_samples(proc, 7, 1_500, seed=22))
        got[f"{name}/delay"] = _digest(empirical_delay_tails(
            proc, ArrivalSpec(0.8 * rate), [0.25, 1, 3], cfg))
        got[f"{name}/feedback"] = _digest(
            feedback_queue(proc, ArrivalSpec(0.4 * rate), cfg, [1, 2, 5]))
    separate = HopChain((Additive(two_point), Additive(rayleigh_marginal)),
                        2, False)
    got["tandem/separate"] = _digest(tandem_queue(
        separate, ArrivalSpec(0.3), cfg, [1, 2, 5]))
    got["tandem/shared"] = _digest(tandem_queue(
        HopChain((Additive(two_point),) * 3, 2, True), ArrivalSpec(0.3),
        cfg, [1, 2, 5]))
    mixed = MarkovAdditive(mixed_kernel)
    got["mixed_chain/trace"] = _digest(
        sample_capacity_trace(mixed, 50, substream(21, 0)))
    got["mixed_chain/delay"] = _digest(empirical_delay_tails(
        mixed, ArrivalSpec(0.8 * process_mean_rate(mixed)), [0.25, 1, 3], cfg))
    assert got == _STREAM_DIGESTS
