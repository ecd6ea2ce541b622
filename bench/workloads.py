"""The benchmark's workloads: operations on wnc and the checks of their outputs.

An operation is one ``wnc.cli.main`` call on a scenario file written from a
template in ``scenarios/``, or, for the full-transition Markov kernel that
the scenario schema cannot express, the library calls the matching
subcommand would make.  The seed picks the query grids (x, d, p, theta)
and the Monte Carlo seeds; the channels, loads and Monte Carlo sizes are
fixed, so the work per round does not depend on the seed.

Every output is checked against ``oracles`` (computed without wnc).  A
Monte Carlo estimate "agrees" with an exact probability p when its count
is inside the central interval of Binomial(runs, p) that leaves 6.3e-5 of
mass outside, the exact form of a two-sided 4-standard-error test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml
from scipy import stats

import oracles as orc

HERE = os.path.dirname(os.path.abspath(__file__))
TEMPLATES = os.path.join(HERE, "scenarios")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("iid-bounds", "markov-bounds", "mc-oracle")
TAIL_MASS = 3.167e-5          # per side: P(|Z| > 4) / 2
REL = 1e-9

TWO_POINT = ([0.0, 2.0], [0.5, 0.5])
GE_P = [[0.9, 0.1], [0.2, 0.8]]
GE_LAWS = [[([2.0], [1.0]), ([0.0], [1.0])]] * 2
FK_P = [[0.7, 0.3], [0.4, 0.6]]
FK_LAWS = [[([1.0, 3.0], [0.5, 0.5]), ([0.5], [1.0])],
           [([0.0, 2.0], [0.3, 0.7]), ([1.0], [1.0])]]
FK_LAMBDA = 0.8


@dataclass
class Op:
    name: str
    kind: str                     # the wnc subcommand this operation is
    call: object                  # () -> result
    check: object                 # (result, notes) -> list of error strings
    run_slots: int = 0            # Monte Carlo run-slots per call
    known_failure: str = ""       # text of a failure kept on purpose


@dataclass
class Workload:
    name: str
    scenarios: list               # scenario files, loaded again by set-up
    library_channels: list        # set-up code for channels built in Python
    ops: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# helpers


def draw_ints(rng, lo, hi, k):
    return sorted(int(v) for v in rng.choice(np.arange(lo, hi + 1), k, replace=False))


def draw_floats(rng, lo, hi, k):
    return sorted(round(float(v), 3) for v in rng.uniform(lo, hi, k))


def instantiate(template, outdir, edit, rng):
    with open(os.path.join(TEMPLATES, template)) as fh:
        doc = yaml.safe_load(fh)
    edit(doc, rng)
    path = os.path.join(outdir, template)
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    return path, doc


def queries(doc, kind):
    return [q for q in doc["queries"] if q["kind"] == kind]


def cli_call(cli, command, path, outdir, tag="", fmt="csv"):
    """One ``wnc <command>`` run writing its table (and sidecar) to outdir.

    ``fmt="json"`` is used where a CSV row would not parse: the CSV writer
    does not quote fields, and validate's ``t=..,x=..`` parameters and
    order's ``cx(S_N, S_perp)`` labels contain commas.
    """
    out = os.path.join(outdir, f"{os.path.basename(path)[:-5]}.{command}{tag}.{fmt}")

    def call():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([command, "--scenario", path, "--out", out,
                           "--threads", "1", "--format", fmt])
        return {"rc": rc, "stderr": err.getvalue(), "csv": out, "fmt": fmt}
    return call


def read_rows(res):
    with open(res["csv"], newline="") as fh:
        if res["fmt"] == "json":
            return json.load(fh)
        rows = list(csv.DictReader(fh))
    for row in rows:
        for k, v in row.items():
            try:
                row[k] = float(v) if v != "" else None
            except ValueError:
                pass
    return rows


def cli_rows(res):
    if res["rc"] != 0:
        raise RuntimeError(f"exit code {res['rc']}: {res['stderr'].strip()}")
    return read_rows(res)


def close(a, b, rel=REL, abs_tol=1e-15):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def inside(lo, x, up, rel=REL, abs_tol=1e-12):
    """lo <= x <= up up to rounding."""
    return (lo is None or lo <= x * (1 + rel) + abs_tol) and \
           (up is None or x <= up * (1 + rel) + abs_tol)


def binom_agrees(estimate, runs, p):
    """Count estimate*runs is inside the central 1 - 6.3e-5 interval of Bin(runs, p)."""
    k = int(round(estimate * runs))
    p = min(max(p, 0.0), 1.0)
    return (stats.binom.sf(k - 1, runs, p) >= TAIL_MASS
            and stats.binom.cdf(k, runs, p) >= TAIL_MASS)


def binom_not_above(estimate, runs, p):
    """One-sided form: the count is not improbably high for probability p."""
    k = int(round(estimate * runs))
    return stats.binom.sf(k - 1, runs, min(max(p, 0.0), 1.0)) >= TAIL_MASS


def validate_verdict(lower, upper, est, stderr, runs):
    """The pass rule wnc validate states: 3 max(SE, binomial SE at the bound)."""
    def slack(bound):
        b = min(max(bound, 0.0), 1.0) if bound is not None else 0.0
        return 3.0 * max(stderr, math.sqrt(b * (1.0 - b) / runs)) + 1e-12
    return (lower is None or est >= lower - slack(lower)) and \
           (upper is None or est <= upper + slack(upper))


class Notes:
    """Per-round findings that are reported but do not fail an operation.

    false_alarms: 3-SE verdicts that contradict what the oracle confirms:
    validate rows with pass=false on a bound and an estimate that the exact
    values both confirm, and cx "no" verdicts from the mean test when the
    exact means are equal and the gap is within 4 standard errors.
    certificate_gap: largest relative shortfall of the Rayleigh tail
    certificate between its grid points.
    """

    def __init__(self):
        self.false_alarms = 0
        self.certificate_gap = None


# ---------------------------------------------------------------------------
# reference values shared by checks


class Refs:
    """Lazily computed oracle values, reused across rounds."""

    def __init__(self):
        self._cache = {}

    def get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # i.i.d. laws
    def two_point_theta(self, drain):
        return self.get(("tp_theta", drain),
                        lambda: orc.drain_root(orc.atomic_cgf(*TWO_POINT), drain))

    def rayleigh_theta(self, drain):
        return self.get(("ray_theta", drain),
                        lambda: orc.drain_root(orc.rayleigh_cgf(), drain))

    def two_point_ruin(self, lam, d, horizon=None, strict=False):
        unit = lam
        level = int(round(d)) + (1 if strict else 0)

        def compute():
            steps = orc.lattice_steps([[1.0]], [[TWO_POINT]], lam, unit)
            depth = None
            if horizon is None:
                depth = int(math.ceil(46.0 / (self.two_point_theta(lam) * unit)))
            return orc.ruin_probability(steps, [1.0], level, horizon, depth)
        return self.get(("tp_ruin", lam, level, horizon), compute)

    # Markov laws
    def markov_ruin(self, transition, laws, lam, unit, level, horizon=None):
        key = ("mk_ruin", json.dumps(transition), json.dumps(laws), lam, level, horizon)

        def compute():
            steps = orc.lattice_steps(transition, laws, lam, unit)
            pi = orc.stationary_law(transition)
            depth = None
            if horizon is None:
                theta = orc.markov_drain_root(transition, laws, lam)
                depth = int(math.ceil(50.0 / (theta * unit)))
            return orc.ruin_probability(steps, pi, level, horizon, depth)
        return self.get(key, compute)

    def markov_upper_delay(self, transition, laws, lam, d):
        """c_+ e^{-theta lam d}: overshoot-corrected prefactor, stationary start."""
        theta = orc.markov_drain_root(transition, laws, lam)
        pi = orc.stationary_law(transition)
        h = orc.perron_right_vector(orc.tilted_matrix(transition, laws, -theta), pi)
        c_plus = 0.0
        n = len(transition)
        for i in range(n):
            for j in range(n):
                sup, mass = laws[i][j]
                if transition[i][j] > 0 and max(lam - c for c in sup) > 0:
                    c_plus = max(c_plus, orc.cramer_plus(
                        [lam - c for c in sup], mass, theta) / h[j])
        return min(1.0, c_plus * math.exp(-theta * lam * d))


def markov_kappa(transition, laws, drain):
    return lambda th: th * drain + math.log(orc.spectral_radius(
        orc.tilted_matrix(transition, laws, -th)))


def two_point_upper_delay(lam, d):
    theta = orc.drain_root(orc.atomic_cgf(*TWO_POINT), lam)
    c_plus = orc.cramer_plus([lam - c for c in TWO_POINT[0]], TWO_POINT[1], theta)
    return min(1.0, c_plus * math.exp(-theta * lam * d))


def root_ok(kappa, theta):
    """theta is a root of the oracle's kappa within wnc's residual tolerance 1e-9."""
    return theta is not None and abs(kappa(theta)) <= 1e-9


def check_dcc(rows, upper_at, mean, errs):
    row = rows[0]
    lam_c, lam_o, eps = row["lambda_conservative"], row["lambda_optimistic"], row["epsilon"]
    if row["feasible"] != "true":
        # no rate meets eps: the bound must miss it down to the smallest rate probed
        if lam_c != 0.0 or any(upper_at(mean * 2.0 ** -k) <= eps for k in range(0, 48, 4)):
            errs.append("dcc: reported infeasible, yet a small rate meets eps")
        return
    if not upper_at(lam_c) <= eps * (1 + REL):
        errs.append(f"dcc: upper bound {upper_at(lam_c)!r} > eps at the returned rate")
    if not upper_at(lam_c + 1e-6) > eps:
        errs.append("dcc: a rate 1e-6 higher still meets eps")
    if not lam_c <= lam_o < mean:
        errs.append(f"dcc: order conservative {lam_c} <= optimistic {lam_o} < E[C] {mean} fails")


# ---------------------------------------------------------------------------
# iid-bounds


def build_iid(rng, outdir, cli, lib, refs):
    def edit_tp(doc, r):
        cap, bnd, dly, _, itf = doc["queries"]
        cap["x_grid_bits"] = draw_floats(r, 0.0, 2.0, len(cap["x_grid_bits"]))
        cap["theta_grid_per_bit"] = draw_floats(r, 0.1, 1.5, len(cap["theta_grid_per_bit"]))
        bnd["x_grid_bits"] = draw_floats(r, 2.0, 14.0, len(bnd["x_grid_bits"]))
        dly["d_slots"] = draw_ints(r, 1, 24, len(dly["d_slots"]))
        itf["d_slots"] = draw_ints(r, 2, 24, len(itf["d_slots"]))

    def edit_ray(doc, r):
        cap, bnd, dly, i2, i3 = doc["queries"]
        cap["x_grid_bits"] = draw_floats(r, 0.0, 5.0, 5)
        cap["p_grid"] = draw_floats(r, 0.005, 0.995, 3)
        cap["theta_grid_per_bit"] = (draw_floats(r, -3.0, -0.1, 2)
                                     + draw_floats(r, 0.1, 1.0, 1))
        bnd["x_grid_bits"] = draw_floats(r, 2.0, 10.0, len(bnd["x_grid_bits"]))
        dly["d_slots"] = draw_ints(r, 1, 15, len(dly["d_slots"]))
        i2["d_slots"] = draw_ints(r, 8, 14, 1)
        i3["d_slots"] = draw_ints(r, 16, 24, 1)

    tp_path, tp = instantiate("two_point.yaml", outdir, edit_tp, rng)
    ray_path, ray = instantiate("rayleigh.yaml", outdir, edit_ray, rng)
    tp_lam = tp["arrival"]["lambda_bits_per_slot"]
    ray_lam = ray["arrival"]["lambda_bits_per_slot"]
    tp_cgf = orc.atomic_cgf(*TWO_POINT)
    ray_cgf = orc.rayleigh_cgf()

    # -- two-point
    def chk_tp_capacity(res, notes):
        errs = []
        for row in cli_rows(res):
            if row.get("x_bits") is not None:
                x = row["x_bits"]
                cdf = orc.binomial_cdf(1, x, 0.0, 2.0, 0.5)
                if not (close(row["cdf"], cdf) and close(row["tail"], 1 - cdf)):
                    errs.append(f"capacity cdf/tail at x={x}")
            if row.get("theta_per_bit") is not None:
                if not close(row["cgf"], tp_cgf(row["theta_per_bit"]), 1e-12):
                    errs.append(f"capacity cgf at theta={row['theta_per_bit']}")
        return errs

    def chk_tp_bounds(res, notes):
        errs = []
        for row in cli_rows(res):
            t, x = int(row["t_slots"]), row["x_bits"]
            exact = orc.binomial_cdf(t, x, 0.0, 2.0, 0.5)
            if not inside(row["cdf_lower"], exact, row["cdf_upper"]):
                errs.append(f"bounds: Chernoff misses the exact CDF at x={x}")
            if not inside(row["frechet_lower"], exact, row["frechet_upper"]):
                errs.append(f"bounds: Frechet misses the exact CDF at x={x}")
        return errs

    def chk_tp_delay(res, notes):
        errs = []
        kappa = lambda th: th * tp_lam + tp_cgf(-th)
        for row in cli_rows(res):
            d = row["d_slots"]
            if not root_ok(kappa, row["theta_star"]):
                errs.append(f"delay: theta* {row['theta_star']!r} is not a root")
            exact = refs.two_point_ruin(tp_lam, d)
            if not inside(row["delay_lower"], exact, row["delay_upper"]):
                errs.append(f"delay: sandwich misses the exact tail at d={d}")
        return errs

    def chk_tp_dcc(res, notes):
        errs = []
        check_dcc(cli_rows(res), lambda lam: two_point_upper_delay(
            lam, queries(tp, "dcc")[0]["d_slots"]), 1.0, errs)
        return errs

    def chk_interference(lam, cgf, theta2_fn, n_e2e_rows):
        def chk(res, notes):
            errs = []
            rows = cli_rows(res)
            for row in rows:
                d = row["d_slots"]
                if row.get("feedback_upper") is not None:
                    want = min(1.0, math.exp(-theta2_fn() * lam * d))
                    if not close(row["feedback_upper"], want):
                        errs.append(f"feedback at d={d}: {row['feedback_upper']!r} vs {want!r}")
                if row.get("e2e_upper") is not None:
                    hops = int(row["hops"])
                    mult = 2 * min(int(row["interference_k"]), hops) - 1
                    want, _ = orc.e2e_value([cgf] * hops, lam, mult, d)
                    if not close(row["e2e_upper"], want):
                        errs.append(f"e2e ({hops} hops) at d={d}: {row['e2e_upper']!r} vs {want!r}")
            n_e2e = sum(1 for r in rows if r.get("e2e_upper") is not None)
            if n_e2e != n_e2e_rows:
                errs.append(f"interference: {n_e2e} e2e rows, expected {n_e2e_rows}")
            return errs
        return chk

    # -- Rayleigh
    def chk_ray_capacity(res, notes):
        errs = []
        rows = cli_rows(res)
        for row in rows:
            if row.get("x_bits") is not None:
                tail = float(orc.rayleigh_tail(row["x_bits"]))
                if not (abs(row["tail"] - tail) <= 1e-12 and abs(row["cdf"] - (1 - tail)) <= 1e-12):
                    errs.append(f"capacity cdf/tail at x={row['x_bits']}")
            if row.get("quantile_p") is not None:
                want = math.log2(1.0 - math.log1p(-row["quantile_p"]))
                if not close(row["quantile_bits"], want, 1e-9):
                    errs.append(f"capacity quantile at p={row['quantile_p']}")
            if row.get("theta_per_bit") is not None:
                th = row["theta_per_bit"]
                want = ray_cgf(th)
                if not close(row["cgf"], want, 1e-10, 1e-14):
                    errs.append(f"capacity cgf at theta={th}: {row['cgf']!r} vs {want!r}")
            if row.get("certificate_a") is not None:
                a, b = row["certificate_a"], row["certificate_b"]
                x_hi = queries(ray, "capacity")[0]["certify_x_hi_bits"]
                grid = np.linspace(0.0, x_hi, 256)
                tail = orc.rayleigh_tail(grid)
                if np.any(tail > a * np.exp(-b * grid) * (1 + 1e-12)):
                    errs.append("certificate does not cover the closed-form tail on its grid")
                fine = np.linspace(0.0, x_hi, 200001)
                notes.certificate_gap = float(np.max(orc.rayleigh_tail(fine)
                                                     / (a * np.exp(-b * fine))) - 1.0)
        return errs

    def chk_ray_bounds(res, notes):
        errs = []
        for row in cli_rows(res):
            t, x = int(row["t_slots"]), row["x_bits"]
            lo, up = orc.rayleigh_sum_cdf(t, [x])
            if not (row["cdf_lower"] <= up[0] + 1e-9 and lo[0] <= row["cdf_upper"] + 1e-9):
                errs.append(f"bounds: Chernoff misses the convolved CDF at x={x}")
            if not (row["frechet_lower"] <= up[0] + 1e-9 and lo[0] <= row["frechet_upper"] + 1e-9):
                errs.append(f"bounds: Frechet misses the convolved CDF at x={x}")
        return errs

    def chk_ray_delay(res, notes):
        errs = []
        theta = refs.rayleigh_theta(ray_lam)
        for row in cli_rows(res):
            d = row["d_slots"]
            if not root_ok(lambda th: th * ray_lam + ray_cgf(-th), row["theta_star"]):
                errs.append(f"delay: theta* {row['theta_star']!r} is not a root")
            # C+ <= 1, so the plain Lundberg value caps the upper bound
            if not (0.0 <= row["delay_lower"] <= row["delay_upper"]
                    <= math.exp(-theta * ray_lam * d) * (1 + 1e-8)):
                errs.append(f"delay: bounds out of order at d={d}")
        return errs

    ops = [
        Op("two_point.capacity", "capacity", cli_call(cli, "capacity", tp_path, outdir), chk_tp_capacity),
        Op("two_point.bounds", "bounds", cli_call(cli, "bounds", tp_path, outdir), chk_tp_bounds),
        Op("two_point.delay", "delay", cli_call(cli, "delay", tp_path, outdir), chk_tp_delay),
        Op("two_point.dcc", "dcc", cli_call(cli, "dcc", tp_path, outdir), chk_tp_dcc),
        Op("two_point.interference", "interference",
           cli_call(cli, "interference", tp_path, outdir),
           chk_interference(tp_lam, tp_cgf, lambda: refs.two_point_theta(2 * tp_lam),
                            len(queries(tp, "interference")[0]["d_slots"]))),
        Op("rayleigh.capacity", "capacity", cli_call(cli, "capacity", ray_path, outdir), chk_ray_capacity),
        Op("rayleigh.bounds", "bounds", cli_call(cli, "bounds", ray_path, outdir), chk_ray_bounds),
        Op("rayleigh.delay", "delay", cli_call(cli, "delay", ray_path, outdir), chk_ray_delay),
        Op("rayleigh.interference", "interference",
           cli_call(cli, "interference", ray_path, outdir),
           chk_interference(ray_lam, ray_cgf, lambda: refs.rayleigh_theta(2 * ray_lam), 2)),
    ]
    return Workload("iid-bounds", [tp_path, ray_path], [], ops)


# ---------------------------------------------------------------------------
# markov-bounds


def full_kernel(lib):
    dd = lib.DiscreteDistribution
    laws = tuple(tuple(dd(np.array(s, float), np.array(m, float)) for s, m in row)
                 for row in FK_LAWS)
    kernel = lib.MarkovKernel(("a", "b"), np.array(FK_P), laws)
    return lib.MarkovAdditive(kernel)


FULL_KERNEL_SETUP = """
laws = tuple(tuple(DiscreteDistribution(np.array(s, float), np.array(m, float))
                   for s, m in row) for row in %r)
MarkovAdditive(MarkovKernel(("a", "b"), np.array(%r), laws))
""" % (FK_LAWS, FK_P)


def build_markov(rng, outdir, cli, lib, refs):
    def edit_ge(doc, r):
        dly, bnd, _, itf = doc["queries"]
        dly["d_slots"] = draw_ints(r, 3, 24, 3)
        bnd["x_grid_bits"] = draw_floats(r, 6.0, 18.0, len(bnd["x_grid_bits"]))
        itf["d_slots"] = draw_ints(r, 3, 24, 3)

    def edit_slow(doc, r):
        doc["queries"][0]["d_slots"] = draw_ints(r, 5, 15, 1)

    ge_path, ge = instantiate("gilbert_elliott.yaml", outdir, edit_ge, rng)
    s3_path, s3 = instantiate("ge_slow_1e-3.yaml", outdir, edit_slow, rng)
    s4_path, s4 = instantiate("ge_slow_1e-4.yaml", outdir, edit_slow, rng)
    fk_d = draw_ints(rng, 1, 8, 2)
    lam = ge["arrival"]["lambda_bits_per_slot"]

    def laws_of(doc):
        mk = doc["process"]["markov"]
        return mk["transition"], [[([c], [1.0]) for c in mk["capacities_bits_per_slot"]]] * 2

    def chk_ge_bounds(res, notes):
        errs = []
        pi = orc.stationary_law(GE_P)
        for row in cli_rows(res):
            t, x = int(row["t_slots"]), row["x_bits"]
            exact = orc.lattice_cdf(GE_P, GE_LAWS, pi, t, 1.0, [x])[0]
            if not inside(row["cdf_lower"], exact, row["cdf_upper"]):
                errs.append(f"bounds: Chernoff misses the exact CDF at x={x}")
        return errs

    def chk_markov_delay(doc, exact_fn):
        transition, laws = laws_of(doc)

        def chk(res, notes):
            errs = []
            kappa = markov_kappa(transition, laws, lam)
            for row in cli_rows(res):
                d = row["d_slots"]
                if not root_ok(kappa, row["theta_star"]):
                    errs.append(f"delay: theta* {row['theta_star']!r} is not a root")
                exact = exact_fn(transition, laws, d)
                if not inside(row["delay_lower"], exact, row["delay_upper"]):
                    errs.append(f"delay: sandwich [{row['delay_lower']!r}, "
                                f"{row['delay_upper']!r}] misses the exact tail {exact!r} at d={d}")
            return errs
        return chk

    def ge_exact(transition, laws, d):
        return refs.markov_ruin(transition, laws, lam, 1.0, int(round(d)))

    def slow_exact(transition, laws, d):
        # upward skip-free: exact by optional stopping (recursion too long here)
        return refs.get(("skipfree", json.dumps(transition), d),
                        lambda: orc.skip_free_ruin(transition, laws, lam, 1, lam * d))

    def chk_ge_dcc(res, notes):
        errs = []
        q = queries(ge, "dcc")[0]
        check_dcc(cli_rows(res), lambda x: refs.markov_upper_delay(
            GE_P, GE_LAWS, x, q["d_slots"]), 4.0 / 3.0, errs)
        return errs

    def chk_ge_interference(res, notes):
        # 2 lambda is the mean capacity: every row must be an instability verdict
        errs = []
        for row in cli_rows(res):
            if row["feedback_upper"] is not None or "unstable" not in str(row.get("error")):
                errs.append(f"feedback at d={row['d_slots']}: no instability verdict")
        return errs

    fk = full_kernel(lib)

    def fk_delay():
        return [lib.delay.delay_tail_markov_detail(fk, lib.ArrivalSpec(FK_LAMBDA), float(d))
                for d in fk_d]

    def chk_fk_delay(res, notes):
        errs = []
        kappa = markov_kappa(FK_P, FK_LAWS, FK_LAMBDA)
        for d, det in zip(fk_d, res):
            if not root_ok(kappa, det.theta_star):
                errs.append(f"full kernel delay: theta* {det.theta_star!r} is not a root")
            exact = refs.markov_ruin(FK_P, FK_LAWS, FK_LAMBDA, 0.1, int(round(FK_LAMBDA * d / 0.1)))
            if not inside(det.lower.value, exact, det.upper.value):
                errs.append(f"full kernel delay: sandwich misses {exact!r} at d={d}")
        return errs

    ops = [
        Op("gilbert_elliott.bounds", "bounds", cli_call(cli, "bounds", ge_path, outdir), chk_ge_bounds),
        Op("gilbert_elliott.delay", "delay", cli_call(cli, "delay", ge_path, outdir),
           chk_markov_delay(ge, ge_exact)),
        Op("gilbert_elliott.dcc", "dcc", cli_call(cli, "dcc", ge_path, outdir), chk_ge_dcc),
        Op("gilbert_elliott.interference", "interference",
           cli_call(cli, "interference", ge_path, outdir), chk_ge_interference),
        Op("ge_slow_1e-3.delay", "delay", cli_call(cli, "delay", s3_path, outdir),
           chk_markov_delay(s3, slow_exact)),
        Op("ge_slow_1e-4.delay", "delay", cli_call(cli, "delay", s4_path, outdir),
           chk_markov_delay(s4, slow_exact),
           known_failure="power iteration did not converge"),
        Op("full_kernel.delay", "delay", fk_delay, chk_fk_delay),
    ]
    return Workload("markov-bounds", [ge_path, s3_path, s4_path], [FULL_KERNEL_SETUP], ops)


# ---------------------------------------------------------------------------
# mc-oracle


def window(doc):
    sim = doc["sim"]
    warm = sim.get("warmup_slots", sim["horizon_slots"] // 10)
    return sim["horizon_slots"] - warm


def build_mc(rng, outdir, cli, lib, refs):
    def edit(d_ranges):
        def apply(doc, r):
            doc["sim"]["seed"] = int(r.integers(1, 2 ** 31))
            for q, (lo, hi) in zip(doc["queries"], d_ranges):
                q["d_slots"] = draw_ints(r, lo, hi, len(q["d_slots"]))
        return apply

    tp_path, tp = instantiate("mc_two_point.yaml", outdir, edit([(1, 20), (1, 12), (1, 12)]), rng)
    ray_path, ray = instantiate("mc_rayleigh.yaml", outdir, edit([(1, 12), (1, 8), (1, 8)]), rng)
    ge_path, ge = instantiate("mc_gilbert_elliott.yaml", outdir, edit([(3, 20), (3, 20)]), rng)
    tan_path, tan = instantiate("mc_tandem.yaml", outdir, edit([(6, 14)]), rng)
    fk_seed = int(rng.integers(1, 2 ** 31))
    fk_d = draw_ints(rng, 1, 4, 2)
    fk_cfg = lib.SimConfig(seed=fk_seed, runs=20_000, horizon=400, warmup=40)

    def slots(doc, kind):
        sim = doc["sim"]
        n = 0
        for q in queries(doc, kind):
            if kind in ("simulate", "validate"):
                n += sim["runs"] * window(doc)
            if kind == "validate" and doc["process"]["kind"] == "additive":
                n += sim["runs"] * q.get("t_slots", 10) + sim["runs"] * sim["horizon_slots"]
            if kind == "order":
                runs = min(sim["runs"], 200_000)
                n += 3 * runs * q.get("probe_t_slots", 16) + 2 * runs * q.get("probe_t_slots", 16)
                n += 3 * sim["runs"] * window(doc)
            if kind == "interference" and q.get("validate_mc"):
                n += sim["runs"] * sim["horizon_slots"] * q.get("hops", 1)
        return n

    def lattice_exact(doc, d, horizon):
        lam = doc["arrival"]["lambda_bits_per_slot"]
        if doc["process"]["kind"] == "markov":
            return refs.markov_ruin(GE_P, GE_LAWS, lam, 1.0, int(round(lam * d)), horizon)
        return refs.two_point_ruin(lam, d, horizon)

    def chk_simulate(doc):
        lam = doc["arrival"]["lambda_bits_per_slot"]
        runs, win = doc["sim"]["runs"], window(doc)
        rayleigh = "fading" in doc.get("channel", {})

        def chk(res, notes):
            errs = []
            rows = cli_rows(res)
            if len(rows) != len(queries(doc, "simulate")[0]["d_slots"]):
                errs.append("simulate: wrong number of rows")
            for row in rows:
                d, est = row["d_slots"], row["mc_estimate"]
                if rayleigh:
                    cap = math.exp(-refs.rayleigh_theta(lam) * lam * d)
                    if not binom_not_above(est, runs, cap):
                        errs.append(f"simulate: estimate {est} above the Lundberg value {cap} at d={d}")
                elif not binom_agrees(est, runs, lattice_exact(doc, d, win)):
                    errs.append(f"simulate: estimate {est} vs exact {lattice_exact(doc, d, win)} at d={d}")
            return errs
        return chk

    def chk_validate(doc):
        lam = doc["arrival"]["lambda_bits_per_slot"]
        runs, win = doc["sim"]["runs"], window(doc)
        lattice = "fading" not in doc.get("channel", {})

        def row_ok(row):
            """Oracle verdict on one row: (bound right, estimate right)."""
            name, est = row["check"], row["estimate"]
            lo, up = row["lower"], row["upper"]
            param = dict(kv.split("=") for kv in row["parameter"].split(","))
            if name in ("additive_delay", "markov_delay"):
                d = float(param["d"])
                if lattice:
                    exact = lattice_exact(doc, d, None)
                    return inside(lo, exact, up), binom_agrees(est, runs, lattice_exact(doc, d, win))
                cap = math.exp(-refs.rayleigh_theta(lam) * lam * d)
                return lo <= up <= cap * (1 + 1e-8), binom_not_above(est, runs, up)
            if name == "additive_cdf":
                t, x = int(param["t"]), float(param["x"])
                if lattice:
                    exact = orc.binomial_cdf(t, x, 0.0, 2.0, 0.5)
                    return inside(lo, exact, up), binom_agrees(est, runs, exact)
                a, b = orc.rayleigh_sum_cdf(t, [x])
                return (lo <= b[0] + 1e-9 and a[0] <= up + 1e-9,
                        binom_not_above(est, runs, b[0]) and binom_not_above(1 - est, runs, 1 - a[0]))
            if name == "feedback_delay":
                return True, binom_not_above(est, runs, up)
            return False, False

        def chk(res, notes):
            errs = []
            rows = cli_rows(res)
            if not rows:
                errs.append("validate: no rows")
            for row in rows:
                bound_ok, est_ok = row_ok(row)
                label = f"validate {row['check']} {row['parameter']}"
                if not bound_ok:
                    errs.append(f"{label}: bound misses the exact value")
                if not est_ok:
                    errs.append(f"{label}: estimate {row['estimate']} disagrees with the exact value")
                passed = row["pass"] in (True, "true")
                if passed != validate_verdict(row["lower"], row["upper"], row["estimate"],
                                              row["stderr"], runs):
                    errs.append(f"{label}: pass flag differs from its own numbers")
                if not passed:
                    # a 3-SE test at a bound that is exact flags about 1 seed in 300
                    exact_known = lattice and row["check"] != "feedback_delay"
                    if exact_known and bound_ok and est_ok:
                        notes.false_alarms += 1
                    else:
                        errs.append(f"{label}: pass=false")
            return errs
        return chk

    def chk_validate_repeat(first_path):
        def chk(res, notes):
            if res["rc"] != 0:
                return [f"exit code {res['rc']}"]
            with open(first_path, "rb") as a, open(res["csv"], "rb") as b:
                return [] if a.read() == b.read() else ["validate: CSV differs between two runs with one seed"]
        return chk

    def chk_order(doc):
        lam = doc["arrival"]["lambda_bits_per_slot"]
        runs, win = doc["sim"]["runs"], window(doc)
        lattice = "fading" not in doc.get("channel", {})

        def chk(res, notes):
            errs = []
            rows = cli_rows(res)
            for row in rows:
                rel = row["relation"]
                if rel.startswith("cx("):
                    gap, tol = row["max_violation"], row["tolerance"]
                    # a "no" with gap <= 3 tol comes from the mean test (the
                    # stop-loss test needs > 3 tol); the exact means are equal
                    if row["holds"] == "no" and gap <= 4.0 / 3.0 * tol:
                        notes.false_alarms += 1
                    elif row["holds"] != "yes":
                        errs.append(f"order: {rel} verdict {row['holds']}")
                    continue
                d = float(rel.split("=")[1])
                tn, ti, tc = row["tail_negative"], row["tail_independent"], row["tail_comonotonic"]
                if lattice:
                    want = (0.0, refs.two_point_ruin(lam, d, win, strict=True), 0.5)
                    for name, est, p in zip(("negative", "independent", "comonotonic"), (tn, ti, tc), want):
                        if not binom_agrees(est, runs, p):
                            errs.append(f"order: {name} tail {est} vs exact {p} at d={d}")
                else:
                    for a, b in ((tn, ti), (ti, tc)):
                        se = math.sqrt(orc.stderr(a, runs) ** 2 + orc.stderr(b, runs) ** 2)
                        if a > b + 4.0 * se + 1e-12:
                            errs.append(f"order: delay chain broken at d={d}")
            return errs
        return chk

    def chk_tandem(res, notes):
        errs = []
        lam = tan["arrival"]["lambda_bits_per_slot"]
        theta2 = refs.rayleigh_theta(2 * lam)
        cgf = orc.rayleigh_cgf()
        for row in cli_rows(res):
            d = row["d_slots"]
            if row.get("feedback_upper") is not None:
                want = min(1.0, math.exp(-theta2 * lam * d))
                if not close(row["feedback_upper"], want):
                    errs.append(f"feedback at d={d}: {row['feedback_upper']!r} vs {want!r}")
            if row.get("e2e_upper") is not None:
                want, _ = orc.e2e_value([cgf] * int(row["hops"]), lam, 1, d)
                if not close(row["e2e_upper"], want):
                    errs.append(f"e2e at d={d}: {row['e2e_upper']!r} vs {want!r}")
                if not binom_not_above(row["mc_estimate"], tan["sim"]["runs"], row["e2e_upper"]):
                    errs.append(f"tandem estimate {row['mc_estimate']} above the e2e bound at d={d}")
        return errs

    fk = full_kernel(lib)
    fk_arrival = lib.ArrivalSpec(FK_LAMBDA)

    def fk_simulate():
        return lib.simulate.empirical_delay_tails(fk, fk_arrival, fk_d, fk_cfg)

    def chk_fk_simulate(res, notes):
        errs = []
        for d, est in zip(fk_d, res):
            p = refs.markov_ruin(FK_P, FK_LAWS, FK_LAMBDA, 0.1, int(round(FK_LAMBDA * d / 0.1)),
                                 fk_cfg.window)
            if not binom_agrees(est.point, est.runs_used, p):
                errs.append(f"full kernel simulate: {est.point} vs exact {p} at d={d}")
        return errs

    def fk_validate():
        ests = lib.simulate.empirical_delay_tails(fk, fk_arrival, fk_d, fk_cfg)
        return [(d, est, lib.delay.delay_tail_markov_detail(fk, fk_arrival, float(d)))
                for d, est in zip(fk_d, ests)]

    def chk_fk_validate(res, notes):
        errs = []
        for d, est, det in res:
            level = int(round(FK_LAMBDA * d / 0.1))
            exact = refs.markov_ruin(FK_P, FK_LAWS, FK_LAMBDA, 0.1, level)
            at_h = refs.markov_ruin(FK_P, FK_LAWS, FK_LAMBDA, 0.1, level, fk_cfg.window)
            if not inside(det.lower.value, exact, det.upper.value):
                errs.append(f"full kernel validate: bound misses {exact!r} at d={d}")
            if not binom_agrees(est.point, est.runs_used, at_h):
                errs.append(f"full kernel validate: estimate {est.point} vs exact {at_h} at d={d}")
        return errs

    ops = [
        Op("two_point.simulate", "simulate", cli_call(cli, "simulate", tp_path, outdir),
           chk_simulate(tp), slots(tp, "simulate")),
        Op("two_point.validate", "validate", cli_call(cli, "validate", tp_path, outdir, fmt="json"),
           chk_validate(tp), slots(tp, "validate")),
        Op("two_point.order", "order", cli_call(cli, "order", tp_path, outdir, fmt="json"),
           chk_order(tp), slots(tp, "order")),
        Op("rayleigh.simulate", "simulate", cli_call(cli, "simulate", ray_path, outdir),
           chk_simulate(ray), slots(ray, "simulate")),
        Op("rayleigh.validate", "validate", cli_call(cli, "validate", ray_path, outdir, fmt="json"),
           chk_validate(ray), slots(ray, "validate")),
        Op("rayleigh.order", "order", cli_call(cli, "order", ray_path, outdir, fmt="json"),
           chk_order(ray), slots(ray, "order")),
        Op("gilbert_elliott.simulate", "simulate", cli_call(cli, "simulate", ge_path, outdir),
           chk_simulate(ge), slots(ge, "simulate")),
        Op("gilbert_elliott.validate", "validate", cli_call(cli, "validate", ge_path, outdir),
           chk_validate(ge), slots(ge, "validate")),
        Op("gilbert_elliott.validate_again", "validate",
           cli_call(cli, "validate", ge_path, outdir, ".again"),
           chk_validate_repeat(os.path.join(outdir, "mc_gilbert_elliott.validate.csv")),
           slots(ge, "validate")),
        Op("full_kernel.simulate", "simulate", fk_simulate, chk_fk_simulate,
           fk_cfg.runs * fk_cfg.window),
        Op("full_kernel.validate", "validate", fk_validate, chk_fk_validate,
           fk_cfg.runs * fk_cfg.window),
        Op("tandem.interference", "simulate", cli_call(cli, "interference", tan_path, outdir),
           chk_tandem, slots(tan, "interference")),
    ]
    return Workload("mc-oracle", [tp_path, ray_path, ge_path, tan_path], [FULL_KERNEL_SETUP], ops)


BUILDERS = {"iid-bounds": build_iid, "markov-bounds": build_markov, "mc-oracle": build_mc}
