"""Parametric fading-gain models and the induced instantaneous-capacity law.

A flat-fading channel with bandwidth W and mean SNR gamma maps the random
gain envelope H onto the per-slot capacity

    C = W * log2(1 + gamma * H**2)            [bits/slot]

so every capacity functional reduces to a gain functional through
r(x) = sqrt((2**(x/W) - 1) / gamma).  The named gain laws are:

    Rayleigh(sigma)        E[H^2] = 2 sigma^2 (default sigma = 1/sqrt(2))
    Rice(s, sigma0)        LOS amplitude s, per-component variance sigma0^2
    Nakagami(m, omega)     H^2 ~ Gamma(m, omega/m), E[H^2] = omega
    Weibull(c, k)          tail P(H > r) = exp(-c r^k)
    Lognormal(mu, sigma)   log H ~ N(mu, sigma^2)

plus FrequencySelective, the independent sum of per-subchannel capacities.
Each named law is its own distribution object: cdf, sf, ppf, pdf and
logpdf of H.  Rayleigh and Weibull are pure numpy (log1p/expm1 forms);
Rice (noncentral chi-square), Nakagami (regularised gamma) and Lognormal
(normal integral) import ``scipy.special`` on their first evaluation, so a
Rayleigh, Weibull, Markov or discrete channel loads no scipy module.
All five named laws give light-tailed capacity; `certify_light_tail`
produces an explicit (a, b) pair with tail(x) <= a*exp(-b*x) on all of
the fit range [x_lo, x_hi], at the rate min(b_edge, b_top, 64) that its
grid gives in closed form.  Each law says whether its power H^2 has a
log-concave survival function (``power_sf_log_concave``); where it does,
the capacity log tail is concave and the certificate is cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .distributions import _EXP_OVERFLOW, DEFAULT_GRID_N, DiscreteDistribution
from .errors import HeavyTailError, NumericFailure, ValidationError

_GAIN_CLIP_Q = 1e-12          # gain domain clipped at the 1 - 1e-12 quantile
_RATE_CAP = 64.0              # largest certified exponential rate (per bit)
_PREFACTOR_CAP = math.e       # prefactor budget for the rate search
_COVER_TOL = 2.5e-10          # log slack of a certified cover over the sup
_COVER_CHUNK = 2048           # cells refined per tail evaluation
_RICE_UPPER_Q = 1.0 - 2.0 ** -6   # Rice ppf levels polished on the sf

__all__ = [
    "ChannelSpec", "Rayleigh", "Rice", "Nakagami", "Weibull", "Lognormal",
    "FrequencySelective", "FadingMarginal", "TailCertificate",
    "capacity_marginal", "certify_light_tail", "rayleigh_capacity_cdf",
]


def _special():
    """scipy.special, imported on the first call of a Rice, Nakagami or
    Lognormal gain function, so that no other channel loads scipy."""
    from scipy import special
    return special


def _require_positive(name, value):
    if not (np.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be a positive finite real, got {value!r}")


@dataclass(frozen=True)
class ChannelSpec:
    """Bandwidth W (Hz, unit slot duration) and dimensionless mean SNR gamma."""

    bandwidth_w: float
    snr_gamma: float

    def __post_init__(self):
        _require_positive("bandwidth_w", self.bandwidth_w)
        _require_positive("snr_gamma", self.snr_gamma)


class _ScaledGain:
    """Law of the gain H = scale * Z on [0, inf), from the law of Z.

    A law supplies ``_scale`` and, as functions of z = r / scale, the
    standard ``_cdf``, ``_sf``, ``_ppf`` and ``_logpdf`` (``_pdf`` defaults
    to exp of ``_logpdf``).  The formulas hold at r = 0 and r = inf and at
    q = 0 and q = 1, so no argument is masked; the ppf forms stay accurate
    at the 2^-50 and 1 - 2^-40 levels that ``FadingMarginal._slices`` reads.

    ``power_sf_log_concave`` says whether the power H^2 has a log-concave
    survival function; a law sets it only where that is proven.
    """

    power_sf_log_concave = False

    def cdf(self, r):
        with np.errstate(divide="ignore"):
            return self._cdf(self._z(r))

    def sf(self, r):
        with np.errstate(divide="ignore"):
            return self._sf(self._z(r))

    def ppf(self, q):
        with np.errstate(divide="ignore"):
            return self._ppf(np.asarray(q, dtype=float)) * self._scale

    def pdf(self, r):
        with np.errstate(divide="ignore"):
            return self._pdf(self._z(r)) / self._scale

    def logpdf(self, r):
        with np.errstate(divide="ignore"):
            return self._logpdf(self._z(r)) - np.log(self._scale)

    def _z(self, r):
        return np.asarray(r, dtype=float) / self._scale

    def _pdf(self, z):
        return np.exp(self._logpdf(z))


@dataclass(frozen=True)
class Rayleigh(_ScaledGain):
    sigma: float = 1.0 / math.sqrt(2.0)

    power_sf_log_concave = True       # H^2 is exponential

    def __post_init__(self):
        _require_positive("sigma", self.sigma)

    @property
    def _scale(self):
        return self.sigma

    def _cdf(self, z):
        return -np.expm1(-0.5 * z ** 2)

    def _sf(self, z):
        return np.exp(-0.5 * z * z)

    def _ppf(self, q):
        return np.sqrt(-2 * np.log1p(-q))

    def _logpdf(self, z):
        return np.log(z) - 0.5 * z * z


def _marcum_q1(b, z):
    """Q1(b, z) for z >= b + 2, as the series of positive terms
    exp(-(z - b)^2 / 2) sum_{k <= n} r^k ive(k, x), r = b / z, x = z b.
    Since ive(k, x) <= ive(0, x), the terms beyond n add less than
    r^(n + 1) / (1 - r) < 2^-56 of the sum at the largest r.  The terms come
    from the backward recurrence ive(k - 1) = ive(k + 1) + 2k/x ive(k),
    which is stable, started from ive at n and n + 1."""
    if b == 0.0:
        return np.exp(-0.5 * z * z)
    ive = _special().ive
    x, r = z * b, b / z
    r_max = float(r.max())
    n = math.ceil(math.log(2.0 ** -56 * (1.0 - r_max)) / math.log(r_max))
    above, term = ive(n + 1, x), ive(n, x)
    total = term
    for k in range(n, 0, -1):
        above, term = term, above + (2.0 * k / x) * term
        total = term + r * total
    return np.exp(-0.5 * (z - b) * (z - b)) * total


@dataclass(frozen=True)
class Rice(_ScaledGain):
    """H^2 / sigma0^2 is noncentral chi-square(2, (s / sigma0)^2); P(H > r)
    is the Marcum Q function Q1(s / sigma0, r / sigma0)."""

    s: float
    sigma0: float

    def __post_init__(self):
        if not (np.isfinite(self.s) and self.s >= 0):
            raise ValidationError(f"s must be a nonnegative finite real, got {self.s!r}")
        _require_positive("sigma0", self.sigma0)

    @property
    def _scale(self):
        return self.sigma0

    @property
    def _b(self):
        return self.s / self.sigma0

    def _cdf(self, z):
        return _special().chndtr(np.square(z), 2, np.square(self._b))

    def _sf(self, z):
        # beyond b + 2 the Marcum series keeps the tail's relative accuracy
        # far below 1e-16; up to there Q1 > 1/50 and 1 - cdf loses little
        z = np.asarray(z, dtype=float)
        out = np.atleast_1d(1.0 - self._cdf(z))
        flat = np.atleast_1d(z)
        far = (flat >= self._b + 2.0) & (flat < np.inf)
        if far.any():
            out[far] = _marcum_q1(self._b, flat[far])
        return out.reshape(z.shape)[()]

    def _ppf(self, q):
        z = np.atleast_1d(np.sqrt(_special().chndtrix(q, 2, np.square(self._b))))
        # chndtrix meets the cdf only to ~1e-15 absolute; on the upper
        # levels, two Newton steps on log sf meet the tail 1 - q relatively
        upper = np.flatnonzero((np.atleast_1d(q) > _RICE_UPPER_Q) & (z < np.inf))
        if upper.size:
            tail, zu = 1.0 - np.atleast_1d(q)[upper], z[upper]
            for _ in range(2):
                sf = self._sf(zu)
                zu = zu + np.log(sf / tail) * sf / self._pdf(zu)
            z[upper] = zu
        return z.reshape(np.shape(q))[()]

    def _pdf(self, z):
        # exp(-(z^2 + b^2) / 2) I0(z b) = exp(-(z - b)^2 / 2) i0e(z b)
        b = self._b
        return z * np.exp(-(z - b) * (z - b) / 2.0) * _special().i0e(z * b)

    def _logpdf(self, z):
        return np.log(self._pdf(z))

    def sample_gain(self, rng, size):
        return np.hypot(rng.normal(self.s, self.sigma0, size),
                        rng.normal(0.0, self.sigma0, size))


@dataclass(frozen=True)
class Nakagami(_ScaledGain):
    """H^2 ~ Gamma(m, omega / m): the gain is sqrt(omega) Z with m Z^2 ~ Gamma(m)."""

    m: float
    omega: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m >= 0.5):
            raise ValidationError(f"m must be >= 0.5, got {self.m!r}")
        _require_positive("omega", self.omega)

    @property
    def _scale(self):
        return math.sqrt(self.omega)

    @property
    def power_sf_log_concave(self):
        # a Gamma(m) survival function is log-concave exactly for m >= 1
        return self.m >= 1.0

    def _cdf(self, z):
        return _special().gammainc(self.m, self.m * z * z)

    def _sf(self, z):
        return _special().gammaincc(self.m, self.m * z * z)

    def _ppf(self, q):
        return np.sqrt(1.0 / self.m * _special().gammaincinv(self.m, q))

    def _logpdf(self, z):
        sc, m = _special(), self.m
        return (np.log(2) + sc.xlogy(m, m) - sc.gammaln(m)
                + sc.xlogy(2 * m - 1, z) - m * z ** 2)

    def sample_gain(self, rng, size):
        return np.sqrt(rng.gamma(self.m, self.omega / self.m, size))


@dataclass(frozen=True)
class Weibull(_ScaledGain):
    """Tail P(H > r) = exp(-c r^k): the gain is c^(-1/k) Z, P(Z > z) = exp(-z^k)."""

    c: float
    k: float

    def __post_init__(self):
        _require_positive("c", self.c)
        _require_positive("k", self.k)

    @property
    def _scale(self):
        return self.c ** (-1.0 / self.k)

    @property
    def power_sf_log_concave(self):
        # P(H^2 > p) = exp(-c p^(k/2)), log-concave exactly for k >= 2
        return self.k >= 2.0

    def _cdf(self, z):
        return -np.expm1(-z ** self.k)

    def _sf(self, z):
        return np.exp(-z ** self.k)

    def _ppf(self, q):
        return (-np.log1p(-q)) ** (1.0 / self.k)

    def _pdf(self, z):
        return self.k * z ** (self.k - 1) * np.exp(-z ** self.k)

    def _logpdf(self, z):
        # (k - 1) log z, read as 0 at k = 1 even where z = 0
        power = 0.0 if self.k == 1 else (self.k - 1) * np.log(z)
        return np.log(self.k) + power - z ** self.k

    def sample_gain(self, rng, size):
        return (rng.exponential(1.0, size) / self.c) ** (1.0 / self.k)


@dataclass(frozen=True)
class Lognormal(_ScaledGain):
    """log H ~ N(mu, sigma^2): the gain is e^mu Z with log Z ~ N(0, sigma^2)."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValidationError(f"mu must be finite, got {self.mu!r}")
        _require_positive("sigma", self.sigma)

    @property
    def _scale(self):
        return math.exp(self.mu)

    def _cdf(self, z):
        return _special().ndtr(np.log(z) / self.sigma)

    def _sf(self, z):
        return _special().ndtr(-(np.log(z) / self.sigma))

    def _ppf(self, q):
        return np.exp(self.sigma * _special().ndtri(q))

    def _logpdf(self, z):
        s = self.sigma
        with np.errstate(invalid="ignore"):
            return np.where(z != 0, -np.log(z) ** 2 / (2 * s ** 2)
                            - np.log(s * z * np.sqrt(2 * np.pi)), -np.inf)

    def sample_gain(self, rng, size):
        return rng.lognormal(self.mu, self.sigma, size)


@dataclass(frozen=True)
class FrequencySelective:
    """Parallel independent subchannels; capacity is the sum of the parts."""

    subchannels: tuple

    def __post_init__(self):
        if len(self.subchannels) < 1:
            raise ValidationError("FrequencySelective needs at least one subchannel")
        for spec, model in self.subchannels:
            if not isinstance(spec, ChannelSpec):
                raise ValidationError("subchannel entries must be (ChannelSpec, model)")
            if isinstance(model, FrequencySelective):
                raise ValidationError("nested FrequencySelective is not supported")


_SIMPLE_MODELS = (Rayleigh, Rice, Nakagami, Weibull, Lognormal)


@cache
def _legendre_rule():
    """The 64-point Gauss-Legendre rule on [-1, 1], built on first use."""
    nodes, weights = leggauss(64)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class FadingMarginal:
    """Instantaneous-capacity law of a (ChannelSpec, FadingModel) pair.

    Implements the capacity-law protocol shared with DiscreteDistribution:
    cdf / tail / quantile / cgf / mean / var / sample / discretize.
    """

    def __init__(self, spec: ChannelSpec, model):
        if isinstance(model, FrequencySelective):
            if len(model.subchannels) == 1:
                # a single subchannel is exactly that channel
                spec, model = model.subchannels[0]
                self._parts = None
            else:
                self._parts = [FadingMarginal(sub_spec, sub_model)
                               for sub_spec, sub_model in model.subchannels]
        elif isinstance(model, _SIMPLE_MODELS):
            self._parts = None
        else:
            raise ValidationError(f"unknown fading model {model!r}")
        self.spec = spec
        self.model = model

    # -- gain <-> capacity transforms (single channel) -------------------

    def _gain_radius(self, x):
        w, g = self.spec.bandwidth_w, self.spec.snr_gamma
        return np.sqrt(np.expm1(np.asarray(x, dtype=float) / w * math.log(2.0)) / g)

    def _capacity_of_gain(self, r):
        """W log2(1 + gamma r^2)."""
        w, g = self.spec.bandwidth_w, self.spec.snr_gamma
        return w * np.log1p(g * np.square(r)) / math.log(2.0)

    @property
    def is_composite(self) -> bool:
        return self._parts is not None

    @property
    def log_concave_tail(self) -> bool:
        """Whether log P(C > x) is concave: log P(H^2 > p) is concave and
        nonincreasing, and p = (2^(x/W) - 1) / gamma is convex in x."""
        return not self.is_composite and self.model.power_sf_log_concave

    @cached_property
    def _grid_law(self) -> DiscreteDistribution:
        """Discretised law; for composite models, the subchannel convolution."""
        if not self.is_composite:
            return DiscreteDistribution.from_cdf(
                self.cdf, self.quantile(1e-9), self.quantile(1.0 - 1e-9))
        # common uniform grid so the convolution stays on a lattice
        his = [p.quantile(1.0 - 1e-9) for p in self._parts]
        hi = sum(his)
        n = DEFAULT_GRID_N
        h = hi / n
        out = None
        for part, part_hi in zip(self._parts, his):
            k = max(int(math.ceil(part_hi / h)), 8)
            edges = h * np.arange(k + 1)
            cvals = np.concatenate((part.cdf(edges[1:-1]), [1.0]))
            mass = np.diff(np.concatenate(([0.0], cvals)))
            mass = np.clip(mass, 0.0, None)
            mass /= mass.sum()
            if out is None:
                out = mass
            else:
                out = np.convolve(out, mass)
        centers = h * (np.arange(out.size) + 0.5)
        keep = out > 0
        return DiscreteDistribution(centers[keep], out[keep] / out[keep].sum())

    # -- protocol ---------------------------------------------------------

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValidationError("capacity argument must be nonnegative")
        if self.is_composite:
            out = self._grid_law.cdf(x)
        elif isinstance(self.model, Rayleigh):
            out = rayleigh_capacity_cdf(self.spec, self.model, x)
        else:
            out = self.model.cdf(self._gain_radius(x))
        return float(out) if np.ndim(x) == 0 else out

    def tail(self, x):
        """P(C > x), computed from the gain survival function (no 1-CDF)."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValidationError("capacity argument must be nonnegative")
        out = self._tail_values(x)
        return float(out) if np.ndim(x) == 0 else out

    def _tail_values(self, x):
        """P(C > x) on a float array x >= 0, unchecked: the tail cover's
        refinement reads it once per chunk."""
        if self.is_composite:
            return self._grid_law.tail(x)
        return self.model.sf(self._gain_radius(x))

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise ValidationError(f"quantile level must be in (0,1), got {p!r}")
        return float(self._inverse_cdf(p))

    def _inverse_cdf(self, u):
        """Vectorised F^{-1}(u) for u in [0, 1); composite laws invert their grid."""
        if self.is_composite:
            return self._grid_law._inverse_cdf(u)
        return self._capacity_of_gain(self.model.ppf(u))

    def _inverse_into(self, u, out):
        """F^{-1}(u) for a float array u in [0, 1], written into out (which
        may be u).

        A Rayleigh power H^2 is 2 sigma^2 E with E = -log(1 - u) a standard
        exponential drawn by inversion, so its capacity is the closed form
        W/ln 2 log1p(-2 sigma^2 gamma log1p(-u)): five in-place passes and
        no temporary, within a few ulps of ``_inverse_cdf``.  Every other
        law writes ``_inverse_cdf(u)`` into out.
        """
        if self.is_composite or not isinstance(self.model, Rayleigh):
            out[...] = self._inverse_cdf(u)
            return out
        power = 2.0 * self.model.sigma ** 2 * self.spec.snr_gamma
        np.negative(u, out=out)
        with np.errstate(divide="ignore"):     # u = 1 gives C = inf
            np.log1p(out, out=out)
        out *= -power
        np.log1p(out, out=out)
        out *= self.spec.bandwidth_w / math.log(2.0)
        return out

    def cgf(self, theta: float) -> float:
        """log E[exp(theta C)] by composite Gauss-Legendre quadrature.

        The gain axis is partitioned into dyadic probability slices between
        the 1e-15 and 1 - 1e-12 gain quantiles, so node density follows the
        mass even when the pdf is singular at the origin (Weibull k < 1) or
        the law is extremely skewed (lognormal).  kappa(0) = 0 exactly.
        The nodes, C(r) and log f_H(r) at the nodes, and the divergence
        probe are built once per marginal, on the first call; each call
        then costs one exp and one dot over the nodes.  Returns +inf when
        the integrand is still growing at the clip point (no exponential
        moment) or kappa exceeds the exp overflow guard.
        """
        if not np.isfinite(theta):
            raise ValidationError("theta must be finite")
        if theta == 0.0:
            return 0.0
        if self.is_composite:
            parts = [p.cgf(theta) for p in self._parts]
            return math.inf if any(math.isinf(v) for v in parts) else float(sum(parts))
        return self._cgf_quadrature(theta)

    @cached_property
    def _slices(self):
        """Dyadic probability breakpoints mapped onto the gain axis."""
        left = 0.5 ** np.arange(50, 0, -1)       # 2^-50 ... 2^-1
        right = 1.0 - 0.5 ** np.arange(2, 41)    # 3/4 ... 1 - 2^-40
        qs = np.concatenate((left, right, [1.0 - _GAIN_CLIP_Q]))
        r = np.asarray(self.model.ppf(qs), dtype=float)
        r = np.concatenate(([max(float(self.model.ppf(1e-15)), 0.0)], r))
        keep = np.concatenate(([True], np.diff(r) > 0))
        return r[keep]

    @cached_property
    def _nodes(self):
        """Gauss-Legendre nodes r and weights w, 64 per slice.

        The 64-point rule on [-1, 1] is the same for every marginal, so
        ``_legendre_rule`` builds it once per process and each marginal
        only maps it onto its slices.
        """
        nodes, weights = _legendre_rule()
        edges = self._slices
        a, b = edges[:-1], edges[1:]
        half = 0.5 * (b - a)
        r = a[:, None] + half[:, None] * (nodes[None, :] + 1.0)
        w = half[:, None] * weights[None, :]
        return r.ravel(), w.ravel()

    def _capacity_and_logpdf(self, r):
        return self._capacity_of_gain(r), self.model.logpdf(r)

    @cached_property
    def _node_terms(self):
        """C(r) and log f_H(r) at the quadrature nodes (theta-free)."""
        return self._capacity_and_logpdf(self._nodes[0])

    @cached_property
    def _probe_terms(self):
        """C(r) and log f_H(r) at r_hi - 1e-6 r_hi and at the clip r_hi."""
        r_hi = float(self._slices[-1])
        eps = 1e-6 * r_hi
        return self._capacity_and_logpdf(np.array([r_hi - eps, r_hi]))

    def _cgf_quadrature(self, theta):
        if theta > 0:
            # integrand rising at the clip point means the true integral diverges
            cap, logpdf = self._probe_terms
            probe = theta * cap + logpdf
            if probe[1] > probe[0]:
                return math.inf
        cap, logpdf = self._node_terms
        logs = theta * cap + logpdf
        m = float(np.max(logs))
        total = float(self._nodes[1] @ np.exp(logs - m))
        kappa = m + math.log(total)
        return kappa if kappa < _EXP_OVERFLOW else math.inf

    def mean(self) -> float:
        return self._mean

    def var(self) -> float:
        return self._var

    @cached_property
    def _mean(self) -> float:
        """E[C] by the node quadrature, once per marginal."""
        if self.is_composite:
            return float(sum(p.mean() for p in self._parts))
        return self._moment(1)

    @cached_property
    def _var(self) -> float:
        """Var C by the node quadrature, once per marginal."""
        if self.is_composite:
            return float(sum(p.var() for p in self._parts))
        return self._moment(2) - self._mean ** 2

    def _moment(self, k):
        r, w = self._nodes
        vals = self._node_terms[0] ** k * self.model.pdf(r)
        return float(w @ vals)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        if self.is_composite:
            return sum(p.sample(rng, size) for p in self._parts)
        if isinstance(self.model, Rayleigh):
            out = self._sample_into(rng, np.empty(() if size is None else size))
            return out if size is not None else out[()]
        return self._capacity_of_gain(self.model.sample_gain(rng, size))

    def _sample_into(self, rng: np.random.Generator, out: np.ndarray):
        """``sample(rng, out.shape)`` written into out, bit for bit.

        A Rayleigh capacity is drawn in place, as ``_inverse_into`` of one
        ``rng.random`` uniform per slot; every other law fills out from
        ``sample``.
        """
        if self.is_composite or not isinstance(self.model, Rayleigh):
            out[...] = self.sample(rng, out.shape)
            return out
        return self._inverse_into(rng.random(out=out), out)

    def discretize(self) -> DiscreteDistribution:
        return self._grid_law

    @property
    def support_min(self) -> float:
        return 0.0

    @property
    def support_max(self) -> float:
        return math.inf

    def __repr__(self):
        return f"FadingMarginal({self.spec!r}, {self.model!r})"


def capacity_marginal(spec: ChannelSpec, model) -> FadingMarginal:
    """Capacity law object for a channel spec and fading model."""
    return FadingMarginal(spec, model)


def _as_marginal(spec, model):
    """Accept either a fading model (with spec) or a capacity law directly."""
    if isinstance(model, (DiscreteDistribution, FadingMarginal)):
        return model
    return FadingMarginal(spec, model)


def rayleigh_capacity_cdf(spec: ChannelSpec, model: Rayleigh, x):
    """Closed-form Rayleigh capacity CDF 1 - exp((1 - 2^(x/W)) / gamma_eff).

    gamma_eff = gamma * 2 sigma^2 reduces to the textbook form at the
    default unit-mean-square gain (sigma = 1/sqrt(2)).
    """
    g_eff = spec.snr_gamma * 2.0 * model.sigma ** 2
    x = np.asarray(x, dtype=float)
    out = -np.expm1(-np.expm1(x / spec.bandwidth_w * math.log(2.0)) / g_eff)
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class TailCertificate:
    """Certified exponential tail cover tail(x) <= a * exp(-b x) on fit_range.

    The cover holds on all of [x_lo, x_hi], not only at grid points;
    max_violation is the largest tail(x) - bound(x) over the fit grid.
    """

    prefactor_a: float
    rate_b: float
    fit_range: tuple
    max_violation: float


def _tail_cover(tail_values, grid, tails, rate_b: float, log_cap: float):
    """(log a, b_cap): tail(x) <= a e^{-b x} on the whole range at b = rate_b.

    On a cell [x_k, x_{k+1}] the nonincreasing tail is at most tail(x_k)
    and e^{b x} at most e^{b x_{k+1}}, so log tail(x_k) + b x_{k+1} covers
    the cell; the right end point covers itself.  Cells whose cover exceeds
    the best sampled value of log tail(x) + b x by more than _COVER_TOL are
    halved until none does, so log a exceeds the supremum over the range
    by at most _COVER_TOL.  The final cells cover the range at every rate;
    b_cap is the largest rate at which all of them stay within log_cap.
    This bound is only first-order tight, so cells near the supremum are
    halved ~28 times; it needs nothing but a nonincreasing tail, and so it
    is the cover of every law whose log tail is not known to be concave
    (``_concave_cover`` serves the others).

    Cells are refined depth first, _COVER_CHUNK at a time, to bound memory:
    a chunk's halves go on the stack as one entry, and the entry pushed
    last is checked next.  ``best`` rises as chunks are sampled, so this
    order decides which cells are halved, and hence the last bits of log a
    and b_cap.  ``tail_values`` reads the tail unchecked on a float array
    (every cell lies in the nonnegative fit range).
    """
    with np.errstate(divide="ignore"):
        logs = np.log(tails)
        best = float(np.max(logs + rate_b * grid))
        log_a = float(logs[-1] + rate_b * grid[-1])
        b_cap = float((log_cap - logs[-1]) / grid[-1])
        stack = [(grid[:-1], grid[1:], logs[:-1])]
        while stack:
            left, right, logs = stack.pop()
            env = logs + rate_b * right
            loose = env > best + _COVER_TOL
            halve = np.flatnonzero(loose)
            if halve.size < loose.size:
                # reduce over the settled cells by masking the others out,
                # which is cheaper than selecting the settled ones
                log_a = max(log_a, float(np.where(loose, -math.inf, env).max()))
                b_cap = min(b_cap, float(np.where(
                    loose, math.inf, (log_cap - logs) / right).min()))
            if halve.size == 0:
                continue
            left, right, logs = left.take(halve), right.take(halve), logs.take(halve)
            for i in range(0, left.size, _COVER_CHUNK):
                lo, hi = left[i:i + _COVER_CHUNK], right[i:i + _COVER_CHUNK]
                mid = 0.5 * (lo + hi)
                log_mid = np.log(tail_values(mid))
                best = max(best, float((log_mid + rate_b * mid).max()))
                stack.append((np.concatenate((lo, mid)), np.concatenate((mid, hi)),
                              np.concatenate((logs[i:i + _COVER_CHUNK], log_mid))))
    return log_a, b_cap


def _concave_cover(tail_values, grid, tails, rate_b: float, log_cap: float):
    """``_tail_cover`` for a tail whose log L = log tail(x) is concave.

    A concave L lies below each secant line extended beyond its cell.  On a
    cell [x_k, x_{k+1}], L is thus at most the lower of two lines: the left
    neighbour's secant extended to the right (on the first cell the constant
    L(x_k), as L is nonincreasing) and the right neighbour's secant extended
    to the left (none on the last cell).  So L + b x is at most its largest
    value at x_k, at x_{k+1} and where the lines cross, clipped into the
    cell; the lines do not depend on b, so the same three points give b_cap.
    That bound is second-order tight, and a loose cell settles after a few
    halvings, where the monotone bound L(x_k) + b x_{k+1} needs ~28.

    A cell keeps the monotone bound where that is within _COVER_TOL of the
    best sampled value, which settles every cell away from the supremum, and
    where any point its secants read has a subnormal or zero tail: there the
    computed L is not concave.  All loose cells are halved at once.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x, logs = grid, np.log(tails)
        tiny = np.finfo(float).tiny
        normal = tails >= tiny
        best = float(np.max(logs + rate_b * x))
        while True:
            left, right, l0, l1 = x[:-1], x[1:], logs[:-1], logs[1:]
            env = l0 + rate_b * right
            cap = (log_cap - l0) / right
            # the points x_{k-1} .. x_{k+2} that cell k's secants read
            read = np.concatenate(([True], normal, [True]))
            secant = ((env > best + _COVER_TOL) & read[:-3] & read[1:-2]
                      & read[2:-1] & read[3:])
            k = np.flatnonzero(secant)
            if k.size:
                h = right[k] - left[k]
                slope = np.diff(logs) / np.diff(x)
                s1 = np.where(k > 0, slope[k - 1], 0.0)
                last = k == slope.size - 1
                s2 = slope[np.minimum(k + 1, slope.size - 1)]
                # where the lines cross, as an offset from x_k; the lines
                # anchor on the cell's own ends, so each is exact there
                u = np.fmin(np.fmax((l1[k] - l0[k] - s2 * h) / (s1 - s2), 0.0), h)
                u[last] = h[last]
                top = np.where(last, l0[k] + s1 * h, np.minimum(
                    l0[k] + s1 * u, l1[k] + s2 * (u - h)))
                c = left[k] + u
                env[k] = np.maximum(np.maximum(l0[k] + rate_b * left[k],
                                               l1[k] + rate_b * right[k]),
                                    top + rate_b * c)
                cap[k] = np.minimum(np.minimum((log_cap - l0[k]) / left[k],
                                               (log_cap - l1[k]) / right[k]),
                                    (log_cap - top) / c)
            loose = np.flatnonzero(env > best + _COVER_TOL)
            if loose.size == 0:
                break
            mid = 0.5 * (left[loose] + right[loose])
            tail_mid = tail_values(mid)
            log_mid = np.log(tail_mid)
            best = max(best, float((log_mid + rate_b * mid).max()))
            x = np.insert(x, loose + 1, mid)
            logs = np.insert(logs, loose + 1, log_mid)
            normal = np.insert(normal, loose + 1, tail_mid >= tiny)
        log_a = max(float(env.max()), float(logs[-1] + rate_b * x[-1]))
        b_cap = min(float(cap.min()), float((log_cap - logs[-1]) / x[-1]))
    return log_a, b_cap


def certify_light_tail(spec: ChannelSpec, model, x_lo: float, x_hi: float,
                       grid_n: int = 256, rate: float | None = None
                       ) -> TailCertificate:
    """Certify tail(x) <= a e^{-b x} on [x_lo, x_hi] at the largest defensible b.

    Take the grid points with a positive tail, (x_k, l_k = log tail(x_k))
    for k = 0..m.  A rate b is defensible when some point before the last
    scores l_k + b x_k at least as high as the last, so that the grid
    prefactor is no pure extrapolation, b <= b_edge = max_{k<m} (l_k - l_m)
    / (x_m - x_k); and when no score exceeds the cap log e
    (``_PREFACTOR_CAP``), b <= b_top = min_{x_k>0} (log_cap - l_k) / x_k.
    The rate is min(b_edge, b_top, 64), in closed form.  A law with bounded
    support is light however flat its tail looks on the range, so it waives
    b_edge; if its support is exhausted inside the range, its cap is the
    overflow guard ``_EXP_OVERFLOW``.  With ``rate`` given, the
    certificate is fitted at that rate, uncapped.

    The certified prefactor covers the tail on all of [x_lo, x_hi], not
    only at the grid points.  Where the power H^2 of a single channel has a
    log-concave survival function (Rayleigh, Nakagami m >= 1, Weibull
    k >= 2), the capacity log tail is concave, as a concave nonincreasing
    function of the convex p = (2^(x/W) - 1) / gamma; its cover bounds
    each cell by secant lines (``_concave_cover``), which reads a few dozen
    tail values.  Every other law takes the monotone cover (``_tail_cover``).
    A searched rate is lowered, where needed, so that the certified
    prefactor stays within the cap.

    Raises HeavyTailError when the rate is below 1e-8; so does an unbounded
    law with fewer than two positive grid points, whose b_edge is -inf.
    """
    if not (0 <= x_lo < x_hi):
        raise ValidationError("need 0 <= x_lo < x_hi")
    if grid_n < 16:
        raise ValidationError("grid_n must be >= 16")
    marginal = _as_marginal(spec, model)
    fading = isinstance(marginal, FadingMarginal)
    tail_values = marginal._tail_values if fading else marginal.tail
    cover = (_concave_cover if fading and marginal.log_concave_tail
             else _tail_cover)
    grid = np.linspace(x_lo, x_hi, grid_n)
    tails = np.asarray(marginal.tail(grid), dtype=float)
    if np.any(~np.isfinite(tails)):
        raise NumericFailure("tail evaluation returned non-finite values")

    def make(b, log_cap=math.inf):
        if not np.any(tails > 0):
            a = 1e-300
        else:
            log_a, b_cap = cover(tail_values, grid, tails, b, log_cap)
            if log_a > log_cap:
                b, log_a = b_cap, log_cap
            if log_a > _EXP_OVERFLOW:   # only a given rate gets here
                return TailCertificate(math.inf, b, (x_lo, x_hi), -math.inf)
            a = float(math.exp(log_a) * (1.0 + 1e-12))
        violation = float(np.max(tails - a * np.exp(-b * grid)))
        return TailCertificate(a, b, (x_lo, x_hi), violation)

    if rate is not None:
        if rate <= 0:
            raise ValidationError("rate must be positive")
        return make(rate)

    # support exhausted in the range defends every rate up to overflow, but
    # a tail that merely underflows to zero inside the range does not
    exhausted = marginal.support_max <= x_hi
    log_cap = _EXP_OVERFLOW if exhausted else math.log(_PREFACTOR_CAP)
    x, logs = grid[tails > 0], np.log(tails[tails > 0])
    b_edge = math.inf
    if x.size and not math.isfinite(marginal.support_max):
        b_edge = float(np.max((logs[:-1] - logs[-1]) / (x[-1] - x[:-1]),
                              initial=-math.inf))
    top = x > 0
    b_top = float(np.min((log_cap - logs[top]) / x[top], initial=math.inf))
    b = min(b_edge, b_top, _RATE_CAP)
    if b < 1e-8:
        raise HeavyTailError(
            "no exponential rate above 1e-08 covers the tail on "
            f"[{x_lo}, {x_hi}]: heavy tail detected")
    return make(b, log_cap)
