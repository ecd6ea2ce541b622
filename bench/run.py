#!/usr/bin/env python3
"""Benchmark of wnc: time-to-bound and Monte Carlo throughput.

    python3 bench/run.py --workload <iid-bounds|markov-bounds|mc-oracle>
                         --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout (the package is imported from
``src/``), in one single-threaded process.  The seed makes the inputs (see
``workloads.py``).  A run measures set-up, then repeats whole rounds of the
workload's operations until ``--seconds`` have passed, checks every output
against ``oracles.py``, prints one line per figure and, last, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` the rounds run with every public wnc function wrapped
(``spans.py``) and the metrics are the per-layer ones.  See README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_REPEATS = 3
LAYERS = ("cli", "distributions", "fading", "processes", "delay",
          "interference", "ordering", "simulate")

SETUP_CODE = r"""
import sys, time
t0 = time.perf_counter()
import numpy as np
import wnc
t1 = time.perf_counter()
from wnc import cli, MarkovAdditive, MarkovKernel
from wnc.distributions import DiscreteDistribution
paths, library = sys.argv[1], sys.argv[2]
for path in paths.split("\n") if paths else []:
    doc = cli.load_scenario(path)
    cli.build_process(doc)
    if "channel" in doc:
        law = cli.build_marginal(doc)
        law.discretize()
exec(library)
print(t1 - t0, time.perf_counter() - t0)
"""


def setup_once(workload):
    """One fresh interpreter: (import time, import + load + build time)."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, "\n".join(workload.scenarios),
         "\n".join(workload.library_channels)],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=True)
    import_s, total_s = map(float, out.stdout.split())
    return import_s, total_s


def median_setup(workload, setups):
    """Medians of (import, set-up) over at least SETUP_REPEATS samples."""
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(workload))
    return (statistics.median(i for i, _ in setups),
            statistics.median(t for _, t in setups))


def run_round(workload):
    """Run every operation once: [(op, seconds, result or exception)]."""
    out = []
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            res = op.call()
        except Exception as exc:      # counted as a failed operation
            res = exc
        out.append((op, time.perf_counter() - t0, res))
    return out


def check_round(results, notes):
    """(failed, unexpected) operation names for one round."""
    failed, unexpected = [], []
    for op, _, res in results:
        errs = []
        if isinstance(res, Exception):
            errs = [f"{type(res).__name__}: {res}"]
        else:
            try:
                errs = op.check(res, notes)
            except Exception as exc:
                errs = [f"{type(exc).__name__}: {exc}"]
        if errs:
            failed.append(op.name)
            if not (op.known_failure and all(op.known_failure in e for e in errs)):
                unexpected.append(op.name)
                for e in errs:
                    print(f"FAIL {op.name}: {e}")
    return failed, unexpected


def run_rounds(workload, seconds, setups):
    """Whole rounds until ``seconds`` have passed.  Unless ``setups`` is
    None, one set-up sample is appended to it before each round, so the
    samples spread over the run instead of sharing one moment of host load."""
    rounds = []
    start = time.perf_counter()
    while True:
        if setups is not None:
            setups.append(setup_once(workload))
        t0 = time.perf_counter()
        results = run_round(workload)
        rounds.append((time.perf_counter() - t0, results))
        if time.perf_counter() - start >= seconds:
            return rounds


def op_medians(rounds):
    """Median over rounds of each operation's time, in workload order."""
    ops = [op for op, _, _ in rounds[0][1]]
    return [(op, statistics.median(res[k][1] for _, res in rounds))
            for k, op in enumerate(ops)]


def end_to_end(rounds, setup_s, rss_mb):
    """Set-up, the wall time of a round with every operation at its median
    time, and the peak resident memory of this process."""
    med = op_medians(rounds)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(t for _, t in med), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def by_kind(rounds):
    """Time per subcommand and MC run-slots per second, from the op medians."""
    out = {}
    slots = secs = 0.0
    for op, t in op_medians(rounds):
        key = f"{op.kind}_s"
        out[key] = (out.get(key, (0.0, "s"))[0] + t, "s")
        if op.run_slots:
            slots += op.run_slots
            secs += t
    if secs:
        out["mc_run_slots_per_s"] = (slots / secs, "run-slots/s")
    return out


# ---------------------------------------------------------------------------
# traced run


def process_type(process):
    from wnc import MarkovAdditive
    from wnc.distributions import DiscreteDistribution
    if isinstance(process, MarkovAdditive):
        return "gilbert_elliott" if process.kernel.by_destination else "full_kernel"
    law = getattr(process, "marginal", None)
    return "two_point" if isinstance(law, DiscreteDistribution) else "rayleigh"


def mc_notes():
    """Run-slots and process type of each Monte Carlo entry point, from its args."""
    def delay_tails(process, arrival, d_values, config, *a, **k):
        return config.runs * config.window, process_type(process)

    def queue(process, arrival, config, d_values):
        return config.runs * config.horizon, process_type(process)

    def tandem(chain, arrival, config, d_values):
        return config.runs * config.horizon * len(chain.hops), process_type(chain.hops[0])

    def cumulative(process, t, runs, *a, **k):
        return runs * t, process_type(process)

    return {"simulate.empirical_delay_tails": delay_tails,
            "simulate.feedback_queue": queue,
            "simulate.tandem_queue": tandem,
            "simulate.cumulative_capacity_samples": cumulative}


def per_layer(tracer, import_s, overhead_s, n_rounds):
    s = tracer.summary()

    def calls(*names):
        return sum(s.get(n, {}).get("calls", 0) for n in names) / n_rounds

    def self_s(*names):
        return sum(s.get(n, {}).get("self_s", 0.0) for n in names) / n_rounds

    def total_s(*names):
        return sum(s.get(n, {}).get("total_s", 0.0) for n in names) / n_rounds

    ruin = ("delay.lundberg_root", "delay.additive_ruin", "delay.markov_ruin")
    dcc_calls = calls("delay.delay_constrained_capacity")
    ruin_in_dcc = sum(1 for name in ruin for i in tracer.spans_named(name)
                      if tracer.has_ancestor(i, "delay.delay_constrained_capacity"))
    run_slots = sum(n for n, _ in tracer.info.values())
    mc_s = sum(tracer.duration(i) for i in tracer.info)
    walk = {}
    for i, (n, kind) in tracer.info.items():
        if tracer.names[i] == "simulate.empirical_delay_tails":
            rec = walk.setdefault(kind, [0, 0.0])
            rec[0] += n
            rec[1] += tracer.duration(i)

    def ns_per(kind):
        n, t = walk.get(kind, (0, 0.0))
        return 1e9 * t / n if n else 0.0

    return {
        "import.wnc_s": (import_s, "s"),
        "cli.load_scenario_s": (self_s("cli.load_scenario"), "s"),
        "cli.emit_s": (total_s("cli.main") - total_s("cli.run_command")
                       - total_s("cli.load_scenario"), "s"),
        "distributions.cgf_calls": (calls("distributions.DiscreteDistribution.cgf"), "count"),
        "distributions.cgf_s": (self_s("distributions.DiscreteDistribution.cgf"), "s"),
        "distributions.sample_s": (self_s("distributions.DiscreteDistribution.sample"), "s"),
        "fading.cgf_calls": (calls("fading.FadingMarginal.cgf"), "count"),
        "fading.cgf_s": (self_s("fading.FadingMarginal.cgf", "fading.cgf"), "s"),
        "fading.quantile_calls": (calls("fading.FadingMarginal.quantile"), "count"),
        "fading.quantile_s": (self_s("fading.FadingMarginal.quantile",
                                     "fading.capacity_quantile"), "s"),
        "fading.sample_s": (self_s("fading.FadingMarginal.sample"), "s"),
        "processes.mgf_matrix_calls": (calls("processes.mgf_matrix"), "count"),
        "processes.perron_frobenius_calls": (calls("processes.perron_frobenius"), "count"),
        "processes.perron_frobenius_s": (self_s("processes.perron_frobenius"), "s"),
        "processes.cdf_bounds_s": (self_s("processes.additive_cdf_bounds",
                                          "processes.markov_cdf_bounds"), "s"),
        "processes.frechet_s": (self_s("processes.frechet_bounds"), "s"),
        "delay.ruin_calls": (calls(*ruin), "count"),
        "delay.ruin_s": (self_s(*ruin), "s"),
        "delay.cramer_s": (self_s("delay.cramer_prefactors"), "s"),
        "delay.ruin_calls_per_dcc": (ruin_in_dcc / (dcc_calls * n_rounds) if dcc_calls else 0.0,
                                     "calls/dcc"),
        "interference.e2e_calls": (calls("interference.e2e_delay_bound"), "count"),
        "interference.e2e_s": (self_s("interference.e2e_delay_bound"), "s"),
        "interference.feedback_s": (self_s("interference.feedback_delay_additive",
                                           "interference.feedback_delay_markov"), "s"),
        "ordering.cx_order_s": (self_s("ordering.cx_order"), "s"),
        "ordering.adjustment_s": (self_s("ordering.adjustment_ordering",
                                         "ordering.adjustment_coefficient"), "s"),
        "simulate.run_slots": (run_slots / n_rounds, "count"),
        "simulate.run_slots_per_s": (run_slots / mc_s if mc_s else 0.0, "run-slots/s"),
        "simulate.ns_per_run_slot.two_point": (ns_per("two_point"), "ns/run-slot"),
        "simulate.ns_per_run_slot.rayleigh": (ns_per("rayleigh"), "ns/run-slot"),
        "simulate.ns_per_run_slot.gilbert_elliott": (ns_per("gilbert_elliott"), "ns/run-slot"),
        "simulate.ns_per_run_slot.full_kernel": (ns_per("full_kernel"), "ns/run-slot"),
        "simulate.feedback_queue_s": (self_s("simulate.feedback_queue"), "s"),
        "simulate.tandem_queue_s": (self_s("simulate.tandem_queue"), "s"),
        "simulate.cumulative_samples_s": (self_s("simulate.cumulative_capacity_samples"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "wnc")):
        sys.exit(f"no wnc package under {SRC}")
    sys.path.insert(0, SRC)
    import numpy as np
    import wnc
    from wnc import cli

    outdir = os.path.join(wl.OUT, args.workload)
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng([args.seed, wl.WORKLOADS.index(args.workload)])
    refs = wl.Refs()
    workload = wl.BUILDERS[args.workload](rng, outdir, cli, wnc, refs)

    setups = []
    if args.trace == 0:
        rounds = run_rounds(workload, args.seconds, setups)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(rounds, median_setup(workload, setups)[1], rss_mb)
        extra = by_kind(rounds)
    else:
        from spans import Tracer
        import importlib
        modules = {layer: importlib.import_module(f"wnc.{layer}") for layer in LAYERS}
        tracer = Tracer(modules, mc_notes())
        plain, traced = [], []
        start = time.perf_counter()
        # untraced and traced rounds alternate, so both see the same host load
        while not traced or time.perf_counter() - start < args.seconds:
            plain += run_rounds(workload, 0, setups)
            tracer.install()
            try:
                traced += run_rounds(workload, 0, None)
            finally:
                tracer.uninstall()
        overhead = (statistics.median(w for w, _ in traced)
                    - statistics.median(w for w, _ in plain))
        metrics = per_layer(tracer, median_setup(workload, setups)[0], overhead,
                            len(traced))
        extra = {}
        rounds = plain + traced

    attempted = failed = 0
    unexpected = []
    false_alarms = 0
    cert_gap = None
    for _, results in rounds:
        notes = wl.Notes()
        f, u = check_round(results, notes)
        attempted += len(results)
        failed += len(f)
        unexpected += u
        false_alarms += notes.false_alarms
        cert_gap = notes.certificate_gap if notes.certificate_gap is not None else cert_gap

    for op, t in op_medians(rounds):
        print(f"op {op.name} ({op.kind}): {t:.4f} s")
    for name, (value, unit) in sorted(extra.items()):
        print(f"figure {name}: {value:.6g} {unit}")
    print(f"figure rounds: {len(rounds)}")
    print(f"figure false_alarms: {false_alarms} verdicts")
    if cert_gap is not None:
        print(f"figure certificate_fine_grid_shortfall: {cert_gap:.3e} relative")
    for name, (value, unit) in metrics.items():
        print(f"metric {name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
