"""Monte Carlo oracle: trace generation, queueing recursions, tail estimates.

Every estimator draws from counter-keyed substreams (seed, batch index)
built on numpy SeedSequence, so identical (seed, config, process) inputs
reproduce bit-identical outputs and batches can run concurrently.

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

import numpy as np

from .distributions import DiscreteDistribution
from .errors import ValidationError
from .fading import FadingMarginal
from .processes import (Additive, AntitheticPairing, Comonotonic,
                        MarkovAdditive)

_BATCH = 1 << 18

__all__ = [
    "SimConfig", "TailEstimate", "substream", "sample_capacity_trace",
    "lindley_queue", "empirical_delay_tails", "feedback_queue",
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


def _batch_sizes(runs: int):
    start = 0
    while start < runs:
        size = min(_BATCH, runs - start)
        yield start // _BATCH, size
        start += size


# ---------------------------------------------------------------------------
# vectorised slot samplers


def _quantiles(marginal, u: np.ndarray) -> np.ndarray:
    if isinstance(marginal, DiscreteDistribution):
        return marginal.support[np.searchsorted(marginal._cum, u, side="left")]
    if isinstance(marginal, FadingMarginal):
        if marginal.is_composite:
            law = marginal.discretize()
            return law.support[np.searchsorted(law._cum, u, side="left")]
        return marginal._capacity_of_gain(marginal._gain.ppf(u))
    raise ValidationError(f"cannot invert marginal of type {type(marginal).__name__}")


def _slot_sampler(process, rng: np.random.Generator, n: int):
    """Yields one length-n capacity vector per slot."""
    if isinstance(process, Additive):
        marginal = process.marginal
        while True:
            yield np.asarray(marginal.sample(rng, n), dtype=float)
    elif isinstance(process, Comonotonic):
        c = _quantiles(process.marginal, rng.random(n))
        while True:
            yield c
    elif isinstance(process, AntitheticPairing):
        marginal = process.marginal
        while True:
            u = rng.random(n)
            yield _quantiles(marginal, u)
            yield _quantiles(marginal, 1.0 - u)
    else:
        raise ValidationError(f"unknown process type {type(process).__name__}")


class _MarkovSampler:
    """Vectorised chain stepper; exposes the running state vector."""

    def __init__(self, process: MarkovAdditive, rng, n, initial_state=None):
        self.kernel = process.kernel
        self.rng = rng
        cum_rows = np.cumsum(self.kernel.transition, axis=1)
        # one threshold column per destination; next state = #{j: u > cum[i, j]}
        self._thresholds = [np.ascontiguousarray(cum_rows[:, j])
                            for j in range(cum_rows.shape[1])]
        init = process.initial if initial_state is None else initial_state
        if isinstance(init, str) and init == "stationary":
            pi = self.kernel.stationary
            self.states = np.searchsorted(np.cumsum(pi), rng.random(n), side="left")
        else:
            self.states = np.full(n, self.kernel.state_index(init), dtype=np.intp)
        self._point_caps = self._point_mass_table()

    def _point_mass_table(self):
        if not self.kernel.by_destination:
            return None
        laws = [self.kernel.increments[0][j] for j in range(len(self.kernel.states))]
        if all(law.support.size == 1 for law in laws):
            return np.array([law.support[0] for law in laws])
        return None

    def step(self) -> np.ndarray:
        u = self.rng.random(self.states.size)
        nxt = np.zeros(self.states.size, dtype=np.intp)
        for column in self._thresholds:
            nxt += u > column.take(self.states)
        if self._point_caps is not None:
            caps = self._point_caps[nxt]
        elif self.kernel.by_destination:
            caps = np.empty(self.states.size)
            u2 = self.rng.random(self.states.size)
            for j in range(len(self.kernel.states)):
                mask = nxt == j
                if np.any(mask):
                    law = self.kernel.increments[0][j]
                    caps[mask] = law.support[
                        np.searchsorted(law._cum, u2[mask], side="left")]
        else:
            caps = np.empty(self.states.size)
            u2 = self.rng.random(self.states.size)
            for i in range(len(self.kernel.states)):
                for j in range(len(self.kernel.states)):
                    mask = (self.states == i) & (nxt == j)
                    if np.any(mask):
                        law = self.kernel.increments[i][j]
                        caps[mask] = law.support[
                            np.searchsorted(law._cum, u2[mask], side="left")]
        self.states = nxt
        return caps


def _capacity_steps(process, rng, n, slots, initial_state=None):
    """Iterator of slot capacity vectors for any process type."""
    if isinstance(process, MarkovAdditive):
        sampler = _MarkovSampler(process, rng, n, initial_state)
        for _ in range(slots):
            yield sampler.step()
    else:
        gen = _slot_sampler(process, rng, n)
        for _ in range(slots):
            yield next(gen)


# ---------------------------------------------------------------------------
# single-trace operations


def sample_capacity_trace(process, horizon: int, stream: np.random.Generator
                          ) -> np.ndarray:
    """One capacity trace of ``horizon`` slots.

    Comonotonic traces are constant at F^{-1}(U) for one uniform draw;
    additive traces are fresh i.i.d. draws; Markov traces follow the chain.
    Identical stream state reproduces the trace bit-exactly.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    out = np.empty(horizon)
    for t, caps in enumerate(_capacity_steps(process, stream, 1, horizon)):
        out[t] = caps[0]
    return out


def lindley_queue(arrival_rate: float, trace: np.ndarray):
    """Exact backlog recursion B(t+1) = [B(t) + lambda - C(t+1)]^+, B(0)=0.

    Returns (backlog, delay) paths of length len(trace)+1 with delay = B/lambda.
    """
    if arrival_rate <= 0:
        raise ValidationError("arrival rate must be positive")
    trace = np.asarray(trace, dtype=float)
    backlog = np.empty(trace.size + 1)
    backlog[0] = 0.0
    b = 0.0
    for t, c in enumerate(trace):
        b = max(b + arrival_rate - c, 0.0)
        backlog[t + 1] = b
    return backlog, backlog / arrival_rate


# ---------------------------------------------------------------------------
# stationary delay estimation


def _walk_sup_batch(process, lam, slots, rng, n, initial_state=None):
    """Per-run max over t <= slots of (lam t - S(t)); the t = 0 term is 0."""
    w = np.zeros(n)
    m = np.zeros(n)
    for caps in _capacity_steps(process, rng, n, slots, initial_state):
        w += lam - caps
        np.maximum(m, w, out=m)
    return m


def empirical_delay_tails(process, arrival, d_values, config: SimConfig,
                          initial_state=None, strict: bool = False):
    """TailEstimates of the stationary P(D >= d) for each d in d_values.

    ``strict=True`` estimates P(D > d) instead; on lattice-valued walks the
    two differ by the boundary atom, and the ordering-chain comparisons are
    stated for the strict tails.
    """
    lam = arrival.lam
    levels = np.asarray([lam * d for d in d_values], dtype=float)
    counts = np.zeros(levels.size, dtype=np.int64)
    for batch, size in _batch_sizes(config.runs):
        rng = substream(config.seed, 1, batch)
        sup = _walk_sup_batch(process, lam, config.window, rng, size,
                              initial_state)
        if strict:
            counts += (sup[None, :] > levels[:, None] + 1e-9).sum(axis=1)
        else:
            counts += (sup[None, :] >= levels[:, None] - 1e-9).sum(axis=1)
    return [TailEstimate.from_count(int(c), config.runs) for c in counts]


# ---------------------------------------------------------------------------
# cumulative-capacity sampling


def cumulative_capacity_samples(process, t: int, runs: int, seed: int,
                                initial_state=None) -> np.ndarray:
    """Independent samples of S(t)."""
    if t < 1:
        raise ValidationError("t must be >= 1")
    out = np.empty(runs)
    for batch, size in _batch_sizes(runs):
        rng = substream(seed, 2, batch)
        if isinstance(process, Comonotonic):
            s = t * _quantiles(process.marginal, rng.random(size))
        else:
            s = np.zeros(size)
            for caps in _capacity_steps(process, rng, size, t, initial_state):
                s += caps
        start = batch * _BATCH
        out[start:start + size] = s
    return out


# ---------------------------------------------------------------------------
# feedback and tandem queues


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
    d_values = [int(d) for d in d_values]
    horizon = config.horizon
    if max(d_values, default=0) >= horizon:
        raise ValidationError("d values must be below the horizon")
    counts = np.zeros(len(d_values), dtype=np.int64)
    levels = np.array([lam * (horizon - d) for d in d_values])
    for batch, size in _batch_sizes(config.runs):
        rng = substream(config.seed, 3, batch)
        b_flow = np.zeros(size)          # external-flow backlog
        b_echo = np.zeros(size)          # fed-back-copy backlog
        dep_flow_prev = np.zeros(size)
        out_flow = np.zeros(size)        # cumulative first-pass departures
        step = iter(_capacity_steps(process, rng, size, horizon))
        for _ in range(horizon):
            caps = next(step)
            b_echo += dep_flow_prev
            dep_echo = np.minimum(b_echo, caps)
            b_echo -= dep_echo
            b_flow += lam
            dep_flow = np.minimum(b_flow, caps - dep_echo)
            b_flow -= dep_flow
            dep_flow_prev = dep_flow
            out_flow += dep_flow
        counts += (levels[:, None] > out_flow[None, :] + 1e-9).sum(axis=1)
    return [TailEstimate.from_count(int(c), config.runs) for c in counts]


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
    d_values = [int(d) for d in d_values]
    horizon = config.horizon
    if max(d_values, default=0) >= horizon:
        raise ValidationError("d values must be below the horizon")
    n_hops = len(chain.hops)
    k_eff = min(chain.interference_k, n_hops)
    extra = (2 * k_eff - 2) * lam
    counts = np.zeros(len(d_values), dtype=np.int64)
    for batch, size in _batch_sizes(config.runs):
        rng = substream(config.seed, 4, batch)
        backlogs = [np.zeros(size) for _ in range(n_hops)]
        total_out = np.zeros(size)
        if chain.shared_channel:
            steps = [iter(_capacity_steps(chain.hops[0], rng, size, horizon))]
        else:
            steps = [iter(_capacity_steps(hop, substream(config.seed, 4, batch, i + 1),
                                          size, horizon))
                     for i, hop in enumerate(chain.hops)]
        levels = np.array([lam * (horizon - d) for d in d_values])
        for t in range(1, horizon + 1):
            if chain.shared_channel:
                shared_caps = next(steps[0])
            flow_in = np.full(size, lam)
            for i in range(n_hops):
                caps = shared_caps if chain.shared_channel else next(steps[i])
                eff = np.maximum(caps - extra, 0.0)
                avail = backlogs[i] + flow_in
                dep = np.minimum(avail, eff)
                backlogs[i] = avail - dep
                flow_in = dep
            total_out += flow_in
        counts += (levels[:, None] > total_out[None, :] + 1e-9).sum(axis=1)
    return [TailEstimate.from_count(int(c), config.runs) for c in counts]
