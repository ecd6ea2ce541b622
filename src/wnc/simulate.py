"""Monte Carlo oracle: trace generation, queueing recursions, tail estimates.

Every estimator draws its slots from one stream, ``_slots``, for every
process type, and its runs in batches from one driver, ``_batches``: each
batch uses the counter-keyed substream (seed, key, batch) built on numpy
SeedSequence, so identical (seed, config, process) inputs reproduce
bit-identical outputs and batches could run concurrently.
``_tail_estimates`` turns the per-batch event counts into estimates.

A lattice stream (a discrete law, or any Markov process) draws 32-bit
integers V, two from each PCG64 word: the word's low half raw & 0xFFFFFFFF
and its high half raw >> 32, taken by arithmetic, so the stream does not
depend on byte order.  A law of K atoms takes atom #{k : T_k <= V} with
T_k = round(cum_k 2^32), which moves each cumulative mass by at most 2^-33:
a draw's law is within total variation (K - 1) 2^-33 of the law, a run of
D draws within D (K - 1) 2^-33, and a mass below 2^-33 may never be drawn.
``_slots`` gives the order in which slots consume the halves.  A fading
stream draws float64 uniforms: a Rayleigh slot inverts its uniform in
place by one closed form, W/ln 2 log1p(-2 sigma^2 gamma log1p(-U)), and
other laws draw their gains or invert through their ppf.  The estimator
loops write into buffers allocated once per batch.

The stationary delay event is evaluated per run as a truncated supremum:

    max over t in [0, horizon - warmup] of (lambda t - S(t))  >=  lambda d

which underestimates the infinite-horizon supremum.  That is the safe
direction against the analytic upper bounds; lower-bound comparisons
should first pass a doubling-horizon convergence check (successive
estimates within one standard error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .distributions import (_THRESHOLD_ATOMS, DiscreteDistribution,
                            _draw_thresholds)
from .errors import ValidationError
from .processes import (Additive, AntitheticPairing, Comonotonic,
                        MarkovAdditive, _start_index)

_BATCH = 1 << 18

__all__ = [
    "SimConfig", "TailEstimate", "substream",
    "empirical_delay_tails", "feedback_queue",
    "tandem_queue", "cumulative_capacity_samples",
]


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: seed, number of runs, horizon and warmup slots."""

    seed: int
    runs: int
    horizon: int
    warmup: int = -1          # -1: default to horizon // 10

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")
        if self.runs < 1:
            raise ValidationError("runs must be >= 1")
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        warmup = self.horizon // 10 if self.warmup < 0 else self.warmup
        if not 0 <= warmup < self.horizon:
            raise ValidationError("need 0 <= warmup < horizon")
        object.__setattr__(self, "warmup", warmup)

    @property
    def window(self) -> int:
        return self.horizon - self.warmup


@dataclass(frozen=True)
class TailEstimate:
    """Frequency estimate with its binomial standard error."""

    point: float
    stderr: float
    runs_used: int

    @staticmethod
    def from_count(count: int, runs: int) -> "TailEstimate":
        p = count / runs
        return TailEstimate(p, math.sqrt(p * (1.0 - p) / runs), runs)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key...)."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))))


def _batches(seed: int, key: int, runs: int):
    """(batch index, size, substream (seed, key, batch)) per batch of runs."""
    for batch, start in enumerate(range(0, runs, _BATCH)):
        yield batch, min(_BATCH, runs - start), substream(seed, key, batch)


def _tail_estimates(seed: int, key: int, runs: int, batch_counts):
    """TailEstimates of the counts batch_counts(batch, size, rng) summed."""
    counts = sum(batch_counts(*b) for b in _batches(seed, key, runs))
    return [TailEstimate.from_count(int(c), runs) for c in counts]


# ---------------------------------------------------------------------------
# the slot stream


def _slots(process, rng: np.random.Generator, n: int, drain=None):
    """Endless stream of length-n capacity vectors, one per slot.

    With ``drain`` each vector is drain - C, a delay walk's increment: a
    lattice stream subtracts once per atom and a fading stream in place,
    one float subtraction either way, so the values are those of
    drain - C computed per slot.

    A lattice stream (a process over a ``DiscreteDistribution``, and every
    Markov process) draws 32-bit integers V, uniform on {0, ..., 2^32 - 1},
    from ``_draws``: each PCG64 word serves two draws, and a law inverts a
    draw by ``DiscreteDistribution._draw_index``, atom #{k : T_k <= V}
    with T_k = round(cum_k 2^32).  Draws are taken in order, block by
    block: the n low halves (raw & 0xFFFFFFFF) of a block of n words, then
    its n high halves (raw >> 32), one draw per run each time.

    - Additive: slot 2j reads the low halves of block j, slot 2j + 1 its
      high halves.
    - Antithetic: each draw V serves a pair of slots, V then its partner
      2^32 - 1 - V: slots 4j, 4j + 1 from the low halves of block j, slots
      4j + 2, 4j + 3 from its high halves.
    - Comonotonic: every slot repeats the atom of the low half of block 0.
    - Markov: a stationary start takes the low halves of a block of its
      own.  Each slot then takes one draw for the next state and, when
      some increment law has more than one atom, a second one for the
      increment from the law of the transition (``kernel.laws[nxt]`` in
      destination mode, ``kernel.laws[state * |E| + nxt]`` for a full
      kernel).  So a one-draw slot takes half a word, and a two-draw slot
      one whole word: its state from the low half, its increment from the
      high half.  The counts are taken against tables stacked once per
      stream (every state's transition thresholds; every law's
      thresholds) and gathered by each run's key: one compare per table
      row when every law has at most ``_THRESHOLD_ATOMS`` atoms, otherwise
      one binary search of the keys law 2^32 + T_k for law 2^32 + V.

    Rounding moves each cumulative mass by at most 2^-33, so a draw of a
    K-atom law is within total variation (K - 1) 2^-33 of the law, and a
    run of D draws within D (K - 1) 2^-33 (4.2e-8 for a 360-slot
    two-point walk); a mass below 2^-33 may never be drawn.

    A fading stream draws float64 uniforms: additive slots are
    ``marginal._sample_into`` draws, a comonotonic stream repeats F^{-1}(U)
    for one uniform per run, and antithetic slots come in pairs F^{-1}(U),
    F^{-1}(1 - U).  A Rayleigh slot, of any of the three, is F^{-1} of one
    ``rng.random`` uniform drawn in place (``FadingMarginal._inverse_into``);
    other laws draw gains, or invert through their ppf.

    Consumers read each vector before drawing the next and never write
    into it: a comonotonic stream yields one array forever, and every
    other stream refills one array per slot.
    """
    if isinstance(process, MarkovAdditive):
        return _markov_slots(process, rng, n, drain)
    if not isinstance(process, (Additive, Comonotonic, AntitheticPairing)):
        raise ValidationError(f"unknown process type {type(process).__name__}")
    if isinstance(process.marginal, DiscreteDistribution):
        return _lattice_slots(process, rng, n, drain)
    return _fading_slots(process, rng, n, drain)


def _draws(rng: np.random.Generator, n: int):
    """Endless 32-bit draws, n at a time, as uint64 arrays: the low halves
    of a block of n PCG64 words, then its high halves.

    Each array is valid until the next draw.
    """
    random_raw = rng.bit_generator.random_raw
    low = np.empty(n, dtype=np.uint64)
    while True:
        raw = random_raw(n)
        yield np.bitwise_and(raw, 0xFFFFFFFF, out=low)
        yield np.right_shift(raw, 32, out=raw)
        del raw             # free the block before the next is drawn


def _lattice_slots(process, rng, n, drain):
    law = process.marginal
    atoms = law.support if drain is None else np.subtract(drain, law.support)
    count = law._draw_index
    if isinstance(process, Comonotonic):
        index = count(next(_draws(rng, n)), np.empty(n, dtype=np.intp))
        yield from repeat(atoms.take(index))
    draws = _draws(rng, n)
    caps, index = np.empty(n), np.empty(n, dtype=np.intp)
    if isinstance(process, AntitheticPairing):
        while True:
            v = next(draws)
            yield atoms.take(count(v, index), out=caps, mode="clip")
            partner = np.subtract(0xFFFFFFFF, v, out=v)
            yield atoms.take(count(partner, index), out=caps, mode="clip")
            del v, partner      # hold no draw across next(draws)
    while True:
        yield atoms.take(count(next(draws), index), out=caps, mode="clip")


def _fading_slots(process, rng, n, drain):
    marginal = process.marginal
    caps = np.empty(n)

    def shifted(values):
        return values if drain is None else np.subtract(drain, values,
                                                        out=values)

    if isinstance(process, Comonotonic):
        yield from repeat(shifted(marginal._inverse_into(
            rng.random(out=caps), caps)))
    if isinstance(process, AntitheticPairing):
        inverse = marginal._inverse_into
        u = np.empty(n)
        while True:
            yield shifted(inverse(rng.random(out=u), caps))
            yield shifted(inverse(np.subtract(1.0, u, out=u), caps))
    while True:
        yield shifted(marginal._sample_into(rng, caps))


def _markov_slots(process, rng, n, drain):
    kernel = process.kernel
    laws = kernel.laws
    k = len(kernel.states)
    width = max(law.support.size for law in laws)
    start = _start_index(process)
    if start is None:
        start_law = _draw_thresholds(np.cumsum(kernel.stationary))
        states = np.searchsorted(start_law, next(_draws(rng, n)),
                                 side="right")
    else:
        states = np.full(n, start, dtype=np.intp)
    draws = _draws(rng, n)
    # Column i of a threshold table belongs to key i (a state or a law),
    # and key i draws the count #{r : table[r, i] <= V}: the next state
    # from the state's transition thresholds, the atom from the law's.
    steps = _threshold_rows(_draw_thresholds(np.cumsum(kernel.transition,
                                                       axis=1)).T)
    nxt, caps = np.empty(n, dtype=np.intp), np.empty(n)
    # the consumer has read caps before it asks for the next slot, so the
    # gathered thresholds and the search keys use caps' memory until the
    # slot's atoms overwrite them
    gathered, below = caps.view(np.uint64), np.empty(n, dtype=bool)
    pair = None if kernel.by_destination else np.empty(n, dtype=np.intp)
    flat = np.empty(n, dtype=np.intp) if width > 1 else None
    if width == 1:                              # point masses: one draw
        atoms = np.array([law.support[0] for law in laws])
    elif width <= _THRESHOLD_ATOMS:
        table = np.full((width - 1, len(laws)), 1 << 32, dtype=np.uint64)
        atoms = np.zeros((len(laws), width))    # atom r of law i: i width + r
        for i, law in enumerate(laws):
            table[:law.support.size - 1, i] = law._thresholds
            atoms[i, :law.support.size] = law.support
        rows = _threshold_rows(table)
        atoms = atoms.ravel()
    else:
        # keys law 2^32 + T_k: a binary search for law 2^32 + V counts every
        # key of the laws before, plus #{k : T_k <= V}; a law has one atom
        # more than it has keys, so adding the law gives the atom's place
        keys = np.concatenate([(i << 32) + law._thresholds
                               for i, law in enumerate(laws)])
        atoms = np.concatenate([law.support for law in laws])
    if drain is not None:
        atoms = np.subtract(drain, atoms)

    def count(table_rows, column, v, out):
        # out += #{r : table_rows[r][column] <= v}; columns are in range,
        # and mode="clip" spares the buffered copy out= costs in "raise"
        for row in table_rows:
            row.take(column, out=gathered, mode="clip")
            np.less_equal(gathered, v, out=below)
            out += below

    def step(v):
        # nxt = #{r : steps[r][states] <= v}, the first row written directly
        if not steps:
            nxt.fill(0)
            return
        steps[0].take(states, out=gathered, mode="clip")
        np.less_equal(gathered, v, out=nxt)
        count(steps[1:], states, v, nxt)

    # no draw is held across next(draws), which frees each block of words
    while True:
        step(next(draws))
        law_index = nxt
        if pair is not None:
            law_index = np.multiply(states, k, out=pair)
            law_index += nxt
        if width == 1:
            atoms.take(law_index, out=caps, mode="clip")
        elif width <= _THRESHOLD_ATOMS:
            np.multiply(law_index, width, out=flat)
            count(rows, law_index, next(draws), flat)
            atoms.take(flat, out=caps, mode="clip")
        else:
            gathered[...] = law_index
            gathered <<= 32
            gathered += next(draws)
            np.add(np.searchsorted(keys, gathered, side="right"), law_index,
                   out=flat)
            atoms.take(flat, out=caps, mode="clip")
        states, nxt = nxt, states
        yield caps


def _threshold_rows(table):
    """Contiguous rows of a threshold table that some draw is at or above."""
    return [np.ascontiguousarray(row) for row in table if row.min() < 1 << 32]


# ---------------------------------------------------------------------------
# estimators


def empirical_delay_tails(process, arrival, d_values, config: SimConfig,
                          strict: bool = False):
    """TailEstimates of the stationary P(D >= d) for each d in d_values.

    ``strict=True`` estimates P(D > d) instead; on lattice-valued walks the
    two differ by the boundary atom, and the ordering-chain comparisons are
    stated for the strict tails.
    """
    lam = arrival.lam
    levels = np.asarray([lam * d for d in d_values], dtype=float)

    def counts(batch, size, rng):
        # per-run max over t <= window of (lam t - S(t)); the t = 0 term is 0
        w = np.zeros(size)
        sup = np.zeros(size)
        for step in islice(_slots(process, rng, size, lam), config.window):
            w += step
            np.maximum(sup, w, out=sup)
        if strict:
            return (sup[None, :] > levels[:, None] + 1e-9).sum(axis=1)
        return (sup[None, :] >= levels[:, None] - 1e-9).sum(axis=1)

    return _tail_estimates(config.seed, 1, config.runs, counts)


def cumulative_capacity_samples(process, t: int, runs: int,
                                seed: int) -> np.ndarray:
    """Independent samples of S(t)."""
    if t < 1:
        raise ValidationError("t must be >= 1")
    out = np.empty(runs)
    for batch, size, rng in _batches(seed, 2, runs):
        slots = _slots(process, rng, size)
        if isinstance(process, Comonotonic):
            s = t * next(slots)
        else:
            s = np.zeros(size)
            for caps in islice(slots, t):
                s += caps
        out[batch * _BATCH:batch * _BATCH + size] = s
    return out


def _departure_tails(config: SimConfig, key: int, lam: float, d_values,
                     departures):
    """Virtual-delay tails P(A(T - d) > A*(T)) at T = horizon.

    ``departures(batch, size, rng)`` returns each run's cumulative
    departures A*(T); A(T - d) = lambda (T - d).
    """
    horizon = config.horizon
    if max(d_values, default=0) >= horizon:
        raise ValidationError("d values must be below the horizon")
    levels = np.array([lam * (horizon - d) for d in d_values])

    def counts(batch, size, rng):
        out = departures(batch, size, rng)
        return (levels[:, None] > out[None, :] + 1e-9).sum(axis=1)

    return _tail_estimates(config.seed, key, config.runs, counts)


def feedback_queue(process, arrival, config: SimConfig, d_values):
    """Delay tail estimates for the self-interference feedback queue.

    The flow's own departures re-enter the channel once, one slot later
    (a(t) = lambda + dep_flow(t-1)); the fed-back copies are served first
    within a slot (the blind-scheduling worst case for the flow) and exit
    after their second pass.  The per-run event is the flow's virtual delay
    comparison  A(T - d) > A*(T)  at T = horizon, which estimates
    P(D > d) <= P(D >= d).
    """
    lam = arrival.lam

    def departures(batch, size, rng):
        b_flow = np.zeros(size)          # external-flow backlog
        b_echo = np.zeros(size)          # fed-back-copy backlog
        dep_flow = np.zeros(size)
        spare = np.empty(size)           # echo departures, then what is left
        for caps in islice(_slots(process, rng, size), config.horizon):
            b_echo += dep_flow
            np.minimum(b_echo, caps, out=spare)
            b_echo -= spare
            np.subtract(caps, spare, out=spare)
            b_flow += lam
            np.minimum(b_flow, spare, out=dep_flow)
            b_flow -= dep_flow
        # cumulative first-pass departures: what arrived less what is left
        return lam * config.horizon - b_flow

    return _departure_tails(config, 3, lam, d_values, departures)


def tandem_queue(chain, arrival, config: SimConfig, d_values):
    """End-to-end delay tail estimates for an N-hop tandem.

    Hop i's input is hop i-1's same-slot departures; each hop's capacity is
    reduced by the interference load (2 K_eff - 2) * lambda prescribed by
    the multi-hop service reduction.  Only ``chain.queueing_hops`` are
    simulated: on a shared channel one slot's capacity serves every hop,
    so the hops after the first pass their input on.  End-to-end delay is
    measured from external arrival (lambda t) to final-hop departure.
    """
    from .interference import HopChain
    if not isinstance(chain, HopChain):
        raise ValidationError("tandem_queue needs a HopChain")
    lam = arrival.lam
    hops = chain.queueing_hops
    extra = (2 * chain.effective_k - 2) * lam

    def departures(batch, size, rng):
        if chain.shared_channel:
            streams = [_slots(hops[0], rng, size)]
        else:
            streams = [_slots(hop, substream(config.seed, 4, batch, i + 1),
                              size) for i, hop in enumerate(hops)]
        backlogs = [np.zeros(size) for _ in hops]
        total_out = np.zeros(size)
        eff, dep = np.empty(size), np.empty(size)
        for _ in range(config.horizon):
            flow_in = lam
            for stream, backlog in zip(streams, backlogs):
                caps = next(stream)
                served = caps            # no load: caps >= 0 is served as is
                if extra:
                    served = np.subtract(caps, extra, out=eff)
                    np.maximum(eff, 0.0, out=eff)
                backlog += flow_in       # the hop's input joins its backlog
                np.minimum(backlog, served, out=dep)
                backlog -= dep
                flow_in = dep            # read by the next hop before dep is
            total_out += flow_in
        return total_out

    return _departure_tails(config, 4, lam, d_values, departures)
