"""Monte Carlo oracle: trace generation, queueing recursions, tail estimates.

Every estimator draws its slots from one stream, ``_slots``, for every
process type, and its runs in batches from one driver, ``_batches``: each
batch uses the counter-keyed substream (seed, key, batch) built on numpy
SeedSequence, so identical (seed, config, process) inputs reproduce
bit-identical outputs and batches could run concurrently.
``_tail_estimates`` turns the per-batch event counts into estimates.

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


def _slots(process, rng: np.random.Generator, n: int):
    """Endless stream of length-n capacity vectors, one per slot.

    Additive slots are fresh ``marginal.sample`` draws; a comonotonic
    stream repeats F^{-1}(U) for one uniform per run; antithetic slots come
    in pairs F^{-1}(U), F^{-1}(1 - U).  Each law inverts its uniform by
    its own ``_inverse_cdf``: the atom index #{k : cum_k < u}, counted by
    threshold compares on a lattice law of at most 4 atoms and binary
    searched otherwise.

    A Markov stream starts where ``processes._start_index`` says: in the
    state ``process.initial``, or drawn from the stationary law.  Per slot
    one uniform picks the next state and, when some increment law has more
    than one atom, a second one the increment from the law of the
    transition: ``kernel.laws[nxt]`` in destination mode,
    ``kernel.laws[state * |E| + nxt]`` for a full kernel.  Both draws are
    the same count #{k : cum_k < u}, taken against tables stacked once per
    stream (the cumulative transition sums of every state; the cumulative
    masses of every law, padded above 1) and gathered by each run's key;
    the atom is then one gather from the stacked supports.

    Consumers read each vector before drawing the next and never write
    into it: a comonotonic stream yields one array forever, and a Markov
    stream refills one array per slot.
    """
    if isinstance(process, Additive):
        marginal = process.marginal
        while True:
            yield np.asarray(marginal.sample(rng, n), dtype=float)
    elif isinstance(process, Comonotonic):
        yield from repeat(process.marginal._inverse_cdf(rng.random(n)))
    elif isinstance(process, AntitheticPairing):
        inverse = process.marginal._inverse_cdf
        u = np.empty(n)
        while True:
            yield inverse(rng.random(out=u))
            yield inverse(np.subtract(1.0, u, out=u))
    elif not isinstance(process, MarkovAdditive):
        raise ValidationError(f"unknown process type {type(process).__name__}")
    kernel = process.kernel
    laws = kernel.laws
    k = len(kernel.states)
    width = max(law.support.size for law in laws)
    # Column i of a threshold table belongs to key i (a state or a law) and
    # key i draws the count #{r : table[r, i] < u}: the next state from the
    # row's cumulative transition sums, the atom from the law's _cum[:-1].
    steps = _threshold_rows(np.cumsum(kernel.transition, axis=1).T)
    cums = np.full((width - 1, len(laws)), 2.0)  # pad 2.0: above every u
    atoms = np.zeros((len(laws), width))        # atom r of law i: i width + r
    for i, law in enumerate(laws):
        cums[:law.support.size - 1, i] = law._cum[:-1]
        atoms[i, :law.support.size] = law.support
    draws = _threshold_rows(cums)
    atoms = atoms.ravel()
    start = _start_index(process)
    if start is None:
        states = np.searchsorted(np.cumsum(kernel.stationary), rng.random(n),
                                 side="left")
    else:
        states = np.full(n, start, dtype=np.intp)
    u, gathered, below = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    nxt, caps = np.empty(n, dtype=np.intp), np.empty(n)
    pair = None if kernel.by_destination else np.empty(n, dtype=np.intp)
    flat = np.empty(n, dtype=np.intp) if width > 1 else None

    def count(rows, keys, out):
        # out += #{r : rows[r][keys] < u}; keys are in range, and mode="clip"
        # spares take the buffered copy that out= costs in mode="raise"
        for row in rows:
            row.take(keys, out=gathered, mode="clip")
            np.less(gathered, u, out=below)
            out += below

    while True:
        rng.random(out=u)
        nxt.fill(0)
        count(steps, states, nxt)
        law_index = nxt
        if pair is not None:
            law_index = np.multiply(states, k, out=pair)
            law_index += nxt
        if flat is None:                        # point masses: no second draw
            atoms.take(law_index, out=caps, mode="clip")
        else:
            rng.random(out=u)
            count(draws, law_index, np.multiply(law_index, width, out=flat))
            atoms.take(flat, out=caps, mode="clip")
        states, nxt = nxt, states
        yield caps


def _threshold_rows(table):
    """Contiguous rows of a threshold table that some u in [0, 1) is above."""
    return [np.ascontiguousarray(row) for row in table if row.min() < 1.0]


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
        step = np.empty(size)
        for caps in islice(_slots(process, rng, size), config.window):
            w += np.subtract(lam, caps, out=step)
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
    d_values = [int(d) for d in d_values]
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
        out_flow = np.zeros(size)        # cumulative first-pass departures
        for caps in islice(_slots(process, rng, size), config.horizon):
            b_echo += dep_flow
            dep_echo = np.minimum(b_echo, caps)
            b_echo -= dep_echo
            b_flow += lam
            dep_flow = np.minimum(b_flow, caps - dep_echo)
            b_flow -= dep_flow
            out_flow += dep_flow
        return out_flow

    return _departure_tails(config, 3, lam, d_values, departures)


def tandem_queue(chain, arrival, config: SimConfig, d_values):
    """End-to-end delay tail estimates for an N-hop tandem.

    Hop i's input is hop i-1's same-slot departures; each hop's capacity is
    reduced by the interference load (2 K_eff - 2) * lambda prescribed by
    the multi-hop service reduction.  End-to-end delay is measured from
    external arrival (lambda t) to final-hop departure.
    """
    from .interference import HopChain
    if not isinstance(chain, HopChain):
        raise ValidationError("tandem_queue needs a HopChain")
    lam = arrival.lam
    n_hops = len(chain.hops)
    extra = (2 * chain.effective_k - 2) * lam

    def departures(batch, size, rng):
        if chain.shared_channel:
            streams = [_slots(chain.hops[0], rng, size)]
        else:
            streams = [_slots(hop, substream(config.seed, 4, batch, i + 1),
                              size) for i, hop in enumerate(chain.hops)]
        backlogs = [np.zeros(size) for _ in range(n_hops)]
        total_out = np.zeros(size)
        for _ in range(config.horizon):
            flow_in = lam
            for i in range(n_hops):
                if i < len(streams):     # a shared stream serves every hop
                    caps = next(streams[i])
                eff = np.maximum(caps - extra, 0.0)
                avail = backlogs[i] + flow_in
                dep = np.minimum(avail, eff)
                backlogs[i] = avail - dep
                flow_in = dep
            total_out += flow_in
        return total_out

    return _departure_tails(config, 4, lam, d_values, departures)
