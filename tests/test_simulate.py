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
from wnc.simulate import (SimConfig, TailEstimate, _slots,
                          cumulative_capacity_samples, empirical_delay_tails,
                          feedback_queue, substream, tandem_queue)

from conftest import draw_index_reference, markov_slots_reference


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


@pytest.mark.parametrize("queue", ["feedback", "tandem"])
def test_departure_tails_read_a_fractional_delay_as_given(two_point, queue):
    # the level is lambda (T - d) at d as given: a delay of 2.5 slots lies
    # strictly between 2 and 3, where truncating it would read d = 2
    proc, arrival = Additive(two_point), ArrivalSpec(0.3)
    cfg = SimConfig(seed=1, runs=200_000, horizon=400, warmup=0)
    d_values = [2, 2.5, 3]
    if queue == "feedback":
        ests = feedback_queue(proc, arrival, cfg, d_values)
    else:
        ests = tandem_queue(HopChain((proc,), 1, False), arrival, cfg, d_values)
    at2, at_half, at3 = (e.point for e in ests)
    assert at2 > at_half > at3


def test_tandem_deterministic_hops_zero_delay():
    pm = DiscreteDistribution.point_mass(3.0)
    chain = HopChain((Additive(pm), Additive(pm)), 2, False)
    # effective capacity 3 - (2*2-2)*0.5 = 2 > lambda: no queueing
    cfg = SimConfig(seed=14, runs=2_000, horizon=100)
    ests = tandem_queue(chain, ArrivalSpec(0.5), cfg, [1, 3])
    assert all(e.point == 0.0 for e in ests)


def _tandem_reference(chain, lam, config, d_values, batch):
    """Tail estimates of a tandem with no interference load, one run and
    one hop at a time in Python floats: a hop serves min(backlog, C) of the
    capacity its stream draws (one stream per hop, or one shared by all)."""
    n_hops, horizon = len(chain.hops), config.horizon
    counts = [0] * len(d_values)
    for b, start in enumerate(range(0, config.runs, batch)):
        size = min(batch, config.runs - start)
        if chain.shared_channel:
            streams = [_slots(chain.hops[0], substream(config.seed, 4, b),
                              size)]
        else:
            streams = [_slots(hop, substream(config.seed, 4, b, i + 1), size)
                       for i, hop in enumerate(chain.hops)]
        caps = [[next(s).tolist() for s in streams] for _ in range(horizon)]
        for run in range(size):
            backlogs, total_out = [0.0] * n_hops, 0.0
            for slot in caps:
                flow = lam
                for i in range(n_hops):
                    backlogs[i] += flow
                    flow = min(backlogs[i], slot[min(i, len(slot) - 1)][run])
                    backlogs[i] -= flow
                total_out += flow
            for j, d in enumerate(d_values):
                counts[j] += lam * (horizon - d) > total_out + 1e-9
    return [TailEstimate.from_count(c, config.runs) for c in counts]


@pytest.mark.parametrize("shared", [False, True], ids=["separate", "shared"])
def test_tandem_without_interference_matches_plain_loop(monkeypatch, shared,
                                                        two_point,
                                                        rayleigh_marginal):
    # K = 1 charges no interference load, so each hop serves its capacity
    import wnc.simulate as sim
    monkeypatch.setattr(sim, "_BATCH", 128)     # three batches of 300 runs
    hops = (Additive(two_point), Additive(rayleigh_marginal),
            AntitheticPairing(two_point))
    chain = HopChain(hops[:1] * 3 if shared else hops, 1, shared)
    cfg = SimConfig(seed=31, runs=300, horizon=40)
    d_values = [1, 2, 5]
    assert (tandem_queue(chain, ArrivalSpec(0.6), cfg, d_values)
            == _tandem_reference(chain, 0.6, cfg, d_values, 128))


def test_rayleigh_streams_skip_the_ppf_chain(monkeypatch, rayleigh_marginal):
    import wnc.fading as fading
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((fading._ScaledGain, "ppf"),
                        (fading.FadingMarginal, "_capacity_of_gain")):
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    for cls in (Additive, AntitheticPairing, Comonotonic):
        for drain in (None, 1.5):
            slots = [caps.copy() for caps in islice(_slots(
                cls(rayleigh_marginal), substream(3, 1), 1_000, drain), 4)]
            assert np.all(np.isfinite(slots))
    assert calls == []
    # the stream is the inversion of the generator's uniforms
    u = substream(3, 1).random(1_000)
    np.testing.assert_array_max_ulp(
        next(_slots(Comonotonic(rayleigh_marginal), substream(3, 1), 1_000)),
        rayleigh_marginal._inverse_cdf(u), maxulp=8)
    assert calls


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
    """Stand-in generator whose 32-bit draws sit on and beside every
    threshold T_k of a kernel (its transition rows, its stationary law and
    its laws), in both halves of each word, shifted by one place per
    call."""

    def __init__(self, kernel):
        cums = [np.cumsum(row) for row in kernel.transition]
        cums += [np.cumsum(kernel.stationary)] + [law._cum
                                                  for law in kernel.laws]
        t = np.concatenate([np.round(c[:-1] * 2.0 ** 32) for c in cums])
        v = np.concatenate(([0.0, 2.0 ** 32 - 1], t, t - 1, t + 1))
        self.v = np.unique(v[(v >= 0) & (v < 2.0 ** 32)]).astype(np.uint64)
        self.calls = 0
        self.bit_generator = self

    def random_raw(self, size):
        assert size == self.v.size
        low = np.roll(self.v, self.calls)
        high = np.roll(self.v[::-1], self.calls)
        self.calls += 1
        return (high << np.uint64(32)) | low


def test_markov_slots_match_masked_per_law_loop(full_kernel, mixed_kernel,
                                                ge_kernel):
    laws = mixed_kernel.laws
    full_mixed = MarkovKernel(
        ("a", "b", "c"), np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3],
                                   [0.3, 0.3, 0.4]]),
        [laws[:3], laws[1:], [laws[3], laws[0], laws[1]]])
    # every state moves to "a" but with probability 1e-12: no transition
    # threshold is below 2^32, so the state draw has no row to compare
    near_certain = MarkovKernel.from_destination_laws(
        ("a", "b"), np.array([[1.0 - 1e-12, 1e-12], [1.0 - 1e-12, 1e-12]]),
        [laws[0], laws[2]])
    for kernel in (full_kernel, mixed_kernel, full_mixed, ge_kernel,
                   near_certain):
        n = _ThresholdReplay(kernel).v.size
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


def test_lattice_slots_read_low_then_high_halves():
    law = DiscreteDistribution(np.arange(3.0), np.array([0.2, 0.3, 0.5]))
    n = 1_000
    raw = substream(5, 1).bit_generator.random_raw(2 * n)
    halves = [raw[:n] & 0xFFFFFFFF, raw[:n] >> 32,
              raw[n:] & 0xFFFFFFFF, raw[n:] >> 32]
    want = [law.support[draw_index_reference(law._cum, v.astype(float))]
            for v in halves]
    additive = [caps.copy() for caps in
                islice(_slots(Additive(law), substream(5, 1), n), 4)]
    np.testing.assert_array_equal(additive, want)
    como = list(islice(_slots(Comonotonic(law), substream(5, 1), n), 3))
    np.testing.assert_array_equal(como, [want[0]] * 3)
    # antithetic: V, then its partner 2^32 - 1 - V, per half
    partner = [law.support[draw_index_reference(
        law._cum, (2 ** 32 - 1 - v).astype(float))] for v in halves]
    anti = [caps.copy() for caps in
            islice(_slots(AntitheticPairing(law), substream(5, 1), n), 8)]
    np.testing.assert_array_equal(anti, [x for pair in zip(want, partner)
                                         for x in pair])


def test_antithetic_pairs_sum_to_top_plus_bottom(two_point):
    # the two-point threshold is 2^31, and V < 2^31 iff 2^32 - 1 - V >= 2^31
    rng = substream(6, 2)
    slots = [caps.copy() for caps in
             islice(_slots(AntitheticPairing(two_point), rng, 20_000), 12)]
    sums = np.add(slots[0::2], slots[1::2])
    assert np.all(sums == 2.0)
    replay = _ThresholdReplay(MarkovKernel.from_destination_laws(
        ("s",), np.array([[1.0]]), [two_point]))
    slots = [caps.copy() for caps in islice(_slots(
        AntitheticPairing(two_point), replay, replay.v.size), 4)]
    assert np.all(np.add(slots[0], slots[1]) == 2.0) and replay.calls == 1


def test_gilbert_elliott_rows_match_their_frequencies(ge_kernel):
    # two-sided binomial test of P(next = G | state) on 2^22 draws per row
    for state, p_good in (("G", 0.9), ("B", 0.2)):
        proc = MarkovAdditive(ge_kernel, state)
        good = sum(int(np.count_nonzero(next(_slots(
            proc, substream(7, i), 1 << 18)) == 2.0)) for i in range(16))
        assert stats.binomtest(good, 1 << 22, p_good).pvalue > 1e-6


def test_wide_laws_take_the_binary_search(unit_spec):
    laws = [capacity_marginal(unit_spec, Rayleigh()).discretize(),
            capacity_marginal(unit_spec, Nakagami(2.0)).discretize()]
    assert min(law.support.size for law in laws) > 4000
    # a threshold of 2^32 (the last mass below 2^-33) on an odd law index:
    # its key law 2^32 + 2^32 must sort above the law's other keys
    tiny_last = DiscreteDistribution(np.arange(6.0), np.array(
        [0.2, 0.2, 0.2, 0.2, 0.2 - 1e-12, 1e-12]))
    assert tiny_last._thresholds[-1] == 2 ** 32
    for pair in (laws, [laws[0], tiny_last]):
        kernel = MarkovKernel.from_destination_laws(
            ("r", "n"), np.array([[0.6, 0.4], [0.3, 0.7]]), pair)
        for proc in (MarkovAdditive(kernel), MarkovAdditive(kernel, "n")):
            got = [caps.copy() for caps in
                   islice(_slots(proc, substream(9, 1), 3_000), 20)]
            want = list(islice(markov_slots_reference(
                proc, substream(9, 1), 3_000), 20))
            np.testing.assert_array_equal(got, want)
    # a state left with probability 1e-12 < 2^-33 is never left, so each
    # slot draws that state's law: its atom frequencies meet the law's cdf
    # within the DKW band at level 1e-6
    n = 1 << 18
    sticky = MarkovKernel.from_destination_laws(
        ("r", "n"), np.array([[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]]),
        laws)
    for state, law in zip("rn", laws):
        caps = next(_slots(MarkovAdditive(sticky, state), substream(9, 2), n))
        assert set(np.unique(caps)) <= set(law.support)
        empirical = np.searchsorted(np.sort(caps), law.support,
                                    side="right") / n
        band = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        assert np.max(np.abs(empirical - law.cdf(law.support))) < band


def _digest(values) -> str:
    """Leading 16 hex digits of the SHA-256 of a float64 array or estimates."""
    if isinstance(values, list):
        values = [(e.point, e.stderr, e.runs_used) for e in values]
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


# Digests of the Monte Carlo streams; a change that alters a stream on
# purpose updates them and says so in CHANGES.md.
_STREAM_DIGESTS = {
    "additive_two_point/trace": "fb0e9f0afda96837",
    "additive_two_point/cumulative": "5106d3c035f3376d",
    "additive_two_point/delay": "d22a704a90f4d65e",
    "additive_two_point/feedback": "1cc23cd3f7e8e6ab",
    "additive_rayleigh/trace": "04b93d58adb5d44c",
    "additive_rayleigh/cumulative": "43f0eedf14be3617",
    "additive_rayleigh/delay": "319fbcf20406db8a",
    "additive_rayleigh/feedback": "19bb1bd9edc02531",
    "comonotonic_two_point/trace": "7a12e561363385e9",
    "comonotonic_two_point/cumulative": "d3f2e0b15c39e1ca",
    "comonotonic_two_point/delay": "96e9e9792104b9de",
    "comonotonic_two_point/feedback": "325514940a9f0f7f",
    "comonotonic_selective/trace": "5d0a308845fe0674",
    "comonotonic_selective/cumulative": "32f57bcec47a2a81",
    "comonotonic_selective/delay": "6c3c74fc29467d79",
    "comonotonic_selective/feedback": "b93d8e7b413ea9fc",
    "antithetic_two_point/trace": "bb05476d72b5b9f0",
    "antithetic_two_point/cumulative": "0c61c7c1e8acb1ed",
    "antithetic_two_point/delay": "c153fc6479ca6829",
    "antithetic_two_point/feedback": "680db70928e3aa01",
    "antithetic_rayleigh/trace": "dbc72b0a59fe1f15",
    "antithetic_rayleigh/cumulative": "f92a5a196988fa84",
    "antithetic_rayleigh/delay": "cdb185ca6afa7c7a",
    "antithetic_rayleigh/feedback": "7af5ce08940127b3",
    "ge_stationary/trace": "26a14ac2768ed2b6",
    "ge_stationary/cumulative": "7aa4d7b2fd162b3a",
    "ge_stationary/delay": "dda7fde30bdd403d",
    "ge_stationary/feedback": "ba24a5884fdbd724",
    "ge_from_b/trace": "757bd9f370850780",
    "ge_from_b/cumulative": "0c633174feb2299e",
    "ge_from_b/delay": "170aa0210b3ea28c",
    "ge_from_b/feedback": "d20a5846b30f1c71",
    "destination_chain/trace": "bac0a74b520e64d0",
    "destination_chain/cumulative": "e38180ce187376b1",
    "destination_chain/delay": "ea3185aa28925c53",
    "destination_chain/feedback": "936ccb92c860ece0",
    "full_kernel/trace": "6417190ab2e19276",
    "full_kernel/cumulative": "be183b6d320913ac",
    "full_kernel/delay": "09957d5134070f23",
    "full_kernel/feedback": "ae9126f354e90542",
    "tandem/separate": "59aa6a8ee150b1bf",
    "tandem/shared": "c16d12d19da02f52",
    "mixed_chain/trace": "6d24b98f31a253cb",
    "mixed_chain/delay": "57e55704ddc40cee",
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
