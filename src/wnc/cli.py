"""Command-line front end.

Scenario files are YAML documents with explicit units in the key names
(bandwidth_hz, lambda_bits_per_slot, ...), schema-validated before any
computation; unknown keys are rejected.  They are parsed with libyaml where
PyYAML has it, and checked by ``_conforms``; jsonschema is imported only to
word the error for a document that ``_conforms`` rejects.  Results are
written as CSV tables with a header row (17 significant digits, lossless
round-trip) plus a sidecar .meta.json capturing inputs, seeds, package
version and derived quantities.  Exit codes: 0 success, 1 validation error,
2 numeric failure, 3 instability/divergence verdicts under --strict.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import numbers
import os
import sys

import numpy as np
import yaml

from . import __version__
from .delay import (ArrivalSpec, delay_constrained_capacity,
                    delay_tail_comonotonic, delay_tails, stability_margin)
from .distributions import DiscreteDistribution
from .errors import (HeavyTailError, NumericFailure, UnstableSystemError,
                     ValidationError)
from .fading import (ChannelSpec, FrequencySelective, Lognormal, Nakagami,
                     Rayleigh, Rice, Weibull, capacity_marginal,
                     certify_light_tail)
from .interference import HopChain, e2e_delay_bound, feedback_delays
from .ordering import SampleSet, _strict_tails, adjustment_ordering, cx_order
from .processes import (Additive, AntitheticPairing, Comonotonic,
                        MarkovAdditive, MarkovKernel, cdf_bounds,
                        comonotonic_cdf, frechet_bounds)
from .simulate import (SimConfig, TailEstimate, cumulative_capacity_samples,
                       empirical_delay_tails, feedback_queue, tandem_queue)

_COMMANDS = ("capacity", "bounds", "delay", "dcc", "order", "interference",
             "simulate", "validate")

_POS = {"type": "number", "exclusiveMinimum": 0}
_NUM = {"type": "number"}
_NUMS = {"type": "array", "items": _NUM, "minItems": 1}

_FADING_KINDS = {"rayleigh": Rayleigh, "rice": Rice, "nakagami": Nakagami,
                 "weibull": Weibull, "lognormal": Lognormal,
                 "frequency_selective": FrequencySelective}

# value schema of each fading model field, by field name
_FADING_FIELDS = {
    "sigma": _POS, "s": {"type": "number", "minimum": 0}, "sigma0": _POS,
    "m": {"type": "number", "minimum": 0.5}, "omega": _POS,
    "c": _POS, "k": _POS, "mu": _NUM,
    "subchannels": {"type": "array", "minItems": 1,
                    "items": {"$ref": "#/$defs/subchannel"}},
}


def _fading_kind_schema(kind, model):
    """Fields of ``kind``: the model's dataclass fields, required where
    they have no default."""
    fields = dataclasses.fields(model)
    return {
        "if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
        "then": {
            "additionalProperties": False,
            "required": [f.name for f in fields
                         if f.default is dataclasses.MISSING],
            "properties": {"kind": True,
                           **{f.name: _FADING_FIELDS[f.name] for f in fields}},
        },
    }


_FADING_DEFS = {
    "fading": {
        "type": "object", "required": ["kind"],
        "properties": {"kind": {"enum": list(_FADING_KINDS)}},
        "allOf": [_fading_kind_schema(kind, model)
                  for kind, model in _FADING_KINDS.items()],
    },
    "subchannel": {
        "type": "object", "additionalProperties": False,
        "required": ["fading"],
        "properties": {"bandwidth_hz": _POS, "snr_linear": _POS,
                       "fading": {"$ref": "#/$defs/fading"}},
    },
}

_SCHEMA = {
    "$defs": _FADING_DEFS,
    "type": "object", "additionalProperties": False,
    "required": ["process", "arrival", "sim"],
    "properties": {
        "channel": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "bandwidth_hz": _POS,
                "snr_linear": _POS,
                "fading": {"$ref": "#/$defs/fading"},
                "capacity_bits_per_slot": {
                    "type": "object", "additionalProperties": False,
                    "required": ["support", "mass"],
                    "properties": {"support": _NUMS, "mass": _NUMS},
                },
            },
            # no key that build_marginal would not read: a lattice law
            # reads no fading, and subchannels carry their own W and gamma
            "allOf": [
                {"if": {"required": ["capacity_bits_per_slot"]},
                 "then": {"properties": {"capacity_bits_per_slot": True},
                          "additionalProperties": False}},
                {"if": {"required": ["fading"], "properties": {"fading": {
                    "properties": {"kind": {"const": "frequency_selective"}}}}},
                 "then": {"properties": {"fading": True},
                          "additionalProperties": False}},
            ],
        },
        "process": {
            "type": "object", "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["comonotonic", "additive", "markov"]},
                "markov": {
                    "type": "object", "additionalProperties": False,
                    "required": ["states", "transition",
                                 "capacities_bits_per_slot"],
                    "properties": {
                        "states": {"type": "array", "minItems": 1,
                                   "items": {"type": "string"}},
                        "transition": {"type": "array"},
                        "capacities_bits_per_slot": {"type": "array"},
                        "initial": {"type": "string"},
                    },
                },
            },
        },
        "arrival": {
            "type": "object", "additionalProperties": False,
            "required": ["lambda_bits_per_slot"],
            "properties": {"lambda_bits_per_slot": _POS},
        },
        "sim": {
            "type": "object", "additionalProperties": False,
            "required": ["seed", "runs", "horizon_slots"],
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "runs": {"type": "integer", "minimum": 1},
                "horizon_slots": {"type": "integer", "minimum": 1},
                "warmup_slots": {"type": "integer", "minimum": 0},
            },
        },
        "queries": {"type": "array", "items": {"type": "object"}},
    },
}

_QUERY_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_COMMANDS)},
        "x_grid_bits": _NUMS,
        "theta_grid_per_bit": _NUMS,
        "p_grid": _NUMS,
        "t_slots": {"type": "integer", "minimum": 1},
        "d_slots": {"anyOf": [_NUM, _NUMS]},
        "epsilon": {"type": "number", "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1},
        "probe_t_slots": {"type": "integer", "minimum": 1},
        "hops": {"type": "integer", "minimum": 1},
        "interference_k": {"type": "integer", "minimum": 1},
        "shared_channel": {"type": "boolean"},
        "validate_mc": {"type": "boolean"},
        "certify_x_hi_bits": _POS,
    },
}


# libyaml's scanner and parser where PyYAML was built with it; the
# constructor and resolver are SafeLoader's either way
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            try:
                doc = yaml.load(fh, Loader=_YAML_LOADER)
            except yaml.YAMLError:
                # the pure-Python parser words the error, as it always has
                fh.seek(0)
                doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"scenario is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("scenario must be a mapping")
    if not (_conforms(_SCHEMA, doc, _SCHEMA)
            and all(_conforms(_QUERY_SCHEMA, q, _QUERY_SCHEMA)
                    for q in doc.get("queries", []))):
        _reject(doc)
    return doc


def _reject(doc):
    """Raise the ValidationError for a document ``_conforms`` rejected, with
    the message jsonschema words for it, which is imported only here."""
    doc_validator, query_validator = _validators()
    _check_schema(doc_validator, doc)
    for q in doc.get("queries", []):
        _check_schema(query_validator, q)
    raise ValidationError("scenario does not conform to its schema")


def _is_number(x):
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer()),
}


def _same(a, b):
    """JSON equality, as ``enum`` and ``const`` compare: True is not 1."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    return a == b


def _resolve(ref, root):
    if not ref.startswith("#/"):
        raise NotImplementedError(f"schema $ref {ref!r} is not local")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


# keyword -> check(value, instance, schema, root); each applies to the
# instance types the keyword constrains and passes any other instance
_KEYWORDS = {
    "$defs": lambda v, x, s, r: True,
    "type": lambda v, x, s, r: _TYPES[v](x),
    "enum": lambda v, x, s, r: any(_same(x, e) for e in v),
    "const": lambda v, x, s, r: _same(x, v),
    "required": lambda v, x, s, r: (not isinstance(x, dict)
                                    or all(k in x for k in v)),
    "properties": lambda v, x, s, r: (not isinstance(x, dict) or all(
        _conforms(sub, x[k], r) for k, sub in v.items() if k in x)),
    "additionalProperties": lambda v, x, s, r: (not isinstance(x, dict) or all(
        _conforms(v, x[k], r) for k in x if k not in s.get("properties", {}))),
    "items": lambda v, x, s, r: (not isinstance(x, list)
                                 or all(_conforms(v, i, r) for i in x)),
    "minItems": lambda v, x, s, r: not isinstance(x, list) or len(x) >= v,
    "minimum": lambda v, x, s, r: not _is_number(x) or not x < v,
    "exclusiveMinimum": lambda v, x, s, r: not _is_number(x) or not x <= v,
    "exclusiveMaximum": lambda v, x, s, r: not _is_number(x) or not x >= v,
    "anyOf": lambda v, x, s, r: any(_conforms(sub, x, r) for sub in v),
    "allOf": lambda v, x, s, r: all(_conforms(sub, x, r) for sub in v),
    "if": lambda v, x, s, r: (not _conforms(v, x, r)
                              or _conforms(s.get("then", True), x, r)),
    "then": lambda v, x, s, r: True,      # applied by "if"
    "$ref": lambda v, x, s, r: _conforms(_resolve(v, r), x, r),
}


def _conforms(schema, x, root) -> bool:
    """Whether ``x`` is valid under ``schema`` by JSON Schema Draft 2020-12,
    with ``root`` the schema that "$ref" resolves in.  It knows only the
    keywords of ``_SCHEMA`` and ``_QUERY_SCHEMA`` and raises on any other,
    so a schema edit cannot pass unchecked.  jsonschema is the oracle of
    this function in the tests, and words the errors of what it rejects."""
    if isinstance(schema, bool):
        return schema
    unknown = schema.keys() - _KEYWORDS.keys()
    if unknown:
        raise NotImplementedError(f"schema keywords {sorted(unknown)}")
    return all(_KEYWORDS[k](v, x, schema, root) for k, v in schema.items())


def _check_schema(validator, instance):
    """Raise the error jsonschema.validate would pick, as a ValidationError."""
    from jsonschema.exceptions import best_match
    exc = best_match(validator.iter_errors(instance))
    if exc is not None:
        path_str = ".".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ValidationError(f"scenario field {path_str}: {exc.message}") from exc


@functools.cache
def _validators():
    """Scenario and query validators.  The schemas are constants: the test
    suite checks them against their metaschema, so no process does."""
    from jsonschema.validators import validator_for
    return tuple(validator_for(schema)(schema)
                 for schema in (_SCHEMA, _QUERY_SCHEMA))


# ---------------------------------------------------------------------------
# scenario -> objects


def _build_fading(node: dict):
    kwargs = {k: v for k, v in node.items() if k != "kind"}
    if "subchannels" in kwargs:
        kwargs["subchannels"] = tuple(
            (ChannelSpec(sub.get("bandwidth_hz", 1.0), sub.get("snr_linear", 1.0)),
             _build_fading(sub["fading"])) for sub in kwargs["subchannels"])
    return _FADING_KINDS[node["kind"]](**kwargs)


def build_marginal(scenario: dict):
    channel = scenario.get("channel")
    if channel is None:
        raise ValidationError("scenario field channel: required for this query")
    if "capacity_bits_per_slot" in channel:
        law = channel["capacity_bits_per_slot"]
        return DiscreteDistribution(np.asarray(law["support"], float),
                                    np.asarray(law["mass"], float))
    if "fading" not in channel:
        raise ValidationError(
            "scenario field channel: needs fading or capacity_bits_per_slot")
    spec = ChannelSpec(channel.get("bandwidth_hz", 1.0),
                       channel.get("snr_linear", 1.0))
    return capacity_marginal(spec, _build_fading(channel["fading"]))


def build_process(scenario: dict):
    node = scenario["process"]
    kind = node["kind"]
    if kind == "markov":
        if "markov" not in node:
            raise ValidationError("scenario field process.markov: required")
        mk = node["markov"]
        kernel = MarkovKernel.from_destination_laws(
            tuple(mk["states"]), np.asarray(mk["transition"], float),
            [float(c) for c in mk["capacities_bits_per_slot"]])
        return MarkovAdditive(kernel, mk.get("initial", "stationary"))
    marginal = build_marginal(scenario)
    return Comonotonic(marginal) if kind == "comonotonic" else Additive(marginal)


def build_sim_config(scenario: dict, seed_override=None) -> SimConfig:
    sim = scenario["sim"]
    seed = sim["seed"] if seed_override is None else seed_override
    return SimConfig(seed=seed, runs=sim["runs"], horizon=sim["horizon_slots"],
                     warmup=sim.get("warmup_slots", -1))


# ---------------------------------------------------------------------------
# query runners (each returns a list of row dicts)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _run_capacity(scenario, query, arrival, config, meta):
    marginal = build_marginal(scenario)
    rows = []
    for x in query.get("x_grid_bits", [0.0, 1.0, 2.0]):
        rows.append({"x_bits": float(x), "cdf": float(marginal.cdf(x)),
                     "tail": float(marginal.tail(x))})
    for p in query.get("p_grid", []):
        rows.append({"quantile_p": float(p),
                     "quantile_bits": marginal.quantile(float(p))})
    for th in query.get("theta_grid_per_bit", []):
        rows.append({"theta_per_bit": float(th), "cgf": marginal.cgf(float(th))})
    if "certify_x_hi_bits" in query:
        cert = certify_light_tail(None, marginal, 0.0,
                                  query["certify_x_hi_bits"])
        rows.append({"certificate_a": cert.prefactor_a,
                     "certificate_b": cert.rate_b,
                     "certificate_violation": cert.max_violation})
    return rows


def _run_bounds(scenario, query, arrival, config, meta):
    process = build_process(scenario)
    t = query.get("t_slots", 10)
    rows = []
    for x in query.get("x_grid_bits", [1.0]):
        x = float(x)
        row = {"t_slots": t, "x_bits": x}
        if isinstance(process, Comonotonic):
            v = comonotonic_cdf(process, t, x)
            row.update(cdf_lower=v, cdf_upper=v, theta_lower=None,
                       theta_upper=None)
        else:
            lo, up = cdf_bounds(process, t, x)
            row.update(cdf_lower=lo.value, cdf_upper=up.value,
                       theta_lower=lo.theta_star, theta_upper=up.theta_star,
                       prefactor_lower=lo.prefactor, prefactor_upper=up.prefactor)
        if not isinstance(process, MarkovAdditive) and t <= 8:
            marginal = process.marginal
            f_lo, f_up = frechet_bounds([marginal] * t, x)
            row.update(frechet_lower=f_lo, frechet_upper=f_up)
        rows.append(row)
    return rows


def _run_delay(scenario, query, arrival, config, meta):
    process = build_process(scenario)
    rows = []
    d_values = query.get("d_slots", [1, 2, 5, 10])
    mc = (empirical_delay_tails(process, arrival, d_values, config)
          if query.get("validate_mc") else None)
    details = (None if isinstance(process, Comonotonic) else
               delay_tails(process, arrival, [float(d) for d in d_values]))
    for i, d in enumerate(d_values):
        d = float(d)
        row = {"d_slots": d}
        if isinstance(process, Comonotonic):
            row.update(delay_lower=None,
                       delay_upper=delay_tail_comonotonic(process, arrival, d),
                       theta_star=None, prefactor=None, horizon=math.inf)
        else:
            lo, up = details[i].lower, details[i].upper
            row.update(delay_lower=lo.value, delay_upper=up.value,
                       theta_star=up.theta_star, prefactor=up.prefactor)
            if isinstance(process, MarkovAdditive):
                row["basic_upper"] = details[i].basic_upper.value
            row["horizon"] = up.horizon
        if mc is not None:
            row.update(mc_estimate=mc[i].point, mc_stderr=mc[i].stderr)
        rows.append(row)
    meta["stability_margin"] = stability_margin(process, arrival)
    return rows


def _run_dcc(scenario, query, arrival, config, meta):
    process = build_process(scenario)
    d = query.get("d_slots", 10)
    d = float(d[0] if isinstance(d, (list, tuple)) else d)
    eps = float(query.get("epsilon", 1e-3))
    res = delay_constrained_capacity(process, d, eps)
    return [{"d_slots": d, "epsilon": eps,
             "lambda_conservative": res.conservative,
             "lambda_optimistic": res.optimistic,
             "one_shot_lower": res.one_shot_window[0],
             "one_shot_upper": res.one_shot_window[1],
             "feasible": res.feasible}]


def _run_order(scenario, query, arrival, config, meta):
    marginal = build_marginal(scenario)
    proc_n = AntitheticPairing(marginal)
    proc_perp = Additive(marginal)
    proc_p = Comonotonic(marginal)
    probe_t = query.get("probe_t_slots", 16)
    runs = min(config.runs, 200_000)
    sn = SampleSet(cumulative_capacity_samples(proc_n, probe_t, runs,
                                               config.seed), "S_N")
    sp = SampleSet(cumulative_capacity_samples(proc_perp, probe_t, runs,
                                               config.seed + 1), "S_perp")
    sc = SampleSet(cumulative_capacity_samples(proc_p, probe_t, runs,
                                               config.seed + 2), "S_P")
    v1 = cx_order(sn, sp)
    v2 = cx_order(sp, sc)
    adj = adjustment_ordering(proc_perp, proc_p, arrival, v2)
    meta["order_verdicts"] = {
        "cx_N_perp": v1.holds, "cx_perp_P": v2.holds,
        "theta_independent": adj.theta_a, "theta_comonotonic": adj.theta_b,
        "adjustment_consistent": adj.consistent}
    rows = [{"relation": "cx(S_N, S_perp)", "holds": v1.holds,
             "max_violation": v1.max_violation, "tolerance": v1.tolerance_used},
            {"relation": "cx(S_perp, S_P)", "holds": v2.holds,
             "max_violation": v2.max_violation, "tolerance": v2.tolerance_used}]
    d_values = query.get("d_slots")
    if d_values:
        tails = _strict_tails((proc_n, proc_perp, proc_p), arrival, d_values,
                              config)
        for i, d in enumerate(d_values):
            rows.append({"relation": f"delay_chain_d={d:g}",
                         "tail_negative": tails[0][i].point,
                         "tail_independent": tails[1][i].point,
                         "tail_comonotonic": tails[2][i].point})
    return rows


def _run_interference(scenario, query, arrival, config, meta):
    process = build_process(scenario)
    if isinstance(process, Comonotonic):
        raise ValidationError("scenario field process.kind: interference "
                              "needs an additive or markov process")
    d_values = query.get("d_slots", [1, 2, 5])
    rows = []
    try:
        reports = feedback_delays(process, arrival, [float(d) for d in d_values])
        error = None
    except UnstableSystemError as exc:
        error = str(exc)
    for i, d in enumerate(d_values):
        row = {"d_slots": float(d)}
        if error is None:
            rep, rep_impr = reports[i]
            row.update(feedback_upper=rep.value, theta_star=rep.theta_star,
                       prefactor=rep.prefactor, horizon=rep.horizon,
                       feedback_upper_improved=rep_impr.value)
        else:
            row.update(feedback_upper=None, error=error)
            meta.setdefault("verdicts", []).append(error)
        rows.append(row)
    n_hops = query.get("hops", 1)
    k = query.get("interference_k", 1)
    shared = query.get("shared_channel", False)
    if isinstance(process, Additive) and n_hops >= 1:
        chain = HopChain((process,) * n_hops, k, shared)
        meta["multihop_multiplier"] = chain.multiplier
        for d in d_values:
            rep = e2e_delay_bound(chain, arrival, float(d))
            row = {"d_slots": float(d), "e2e_upper": rep.value,
                   "e2e_theta": rep.theta_star, "hops": n_hops,
                   "interference_k": k}
            if "diverges" in rep.notes:
                row["error"] = rep.notes
                meta.setdefault("verdicts", []).append(rep.notes)
            rows.append(row)
        if query.get("validate_mc"):
            ests = tandem_queue(chain, arrival, config, d_values)
            for row, est in zip(rows[-len(d_values):], ests):
                row.update(mc_estimate=est.point, mc_stderr=est.stderr)
    return rows


def _run_simulate(scenario, query, arrival, config, meta):
    process = build_process(scenario)
    d_values = query.get("d_slots", [1, 2, 5, 10])
    ests = empirical_delay_tails(process, arrival, d_values, config)
    return [{"d_slots": float(d), "mc_estimate": e.point, "mc_stderr": e.stderr,
             "runs": e.runs_used}
            for d, e in zip(d_values, ests)]


def _run_validate(scenario, query, arrival, config, meta):
    """Bound-vs-Monte-Carlo matrix with one pass/fail row per check."""
    process = build_process(scenario)
    rows = []
    d_values = query.get("d_slots", [1, 2, 5, 10])

    def slack(est, bound):
        # binomial noise evaluated at the bound, never degenerate at p_hat = 0
        b = min(max(bound, 0.0), 1.0) if bound is not None else 0.0
        se_b = math.sqrt(b * (1.0 - b) / est.runs_used)
        return 3.0 * max(est.stderr, se_b) + 1e-12

    def check(name, parameter, lower, upper, est):
        ok = (lower is None or est.point >= lower - slack(est, lower)) and \
             (upper is None or est.point <= upper + slack(est, upper))
        rows.append({"check": name, "parameter": parameter,
                     "lower": lower, "upper": upper,
                     "estimate": est.point, "stderr": est.stderr,
                     "pass": bool(ok)})
        return ok

    ests = empirical_delay_tails(process, arrival, d_values, config)
    if isinstance(process, Comonotonic):
        for d, est in zip(d_values, ests):
            # the truncated-sup event equals the finite-horizon closed form
            v_t = delay_tail_comonotonic(process, arrival, float(d),
                                         horizon_t=config.window)
            v_inf = delay_tail_comonotonic(process, arrival, float(d))
            check("comonotonic_delay", f"d={d:g}", v_t, min(v_t, v_inf), est)
    else:
        name = ("markov_delay" if isinstance(process, MarkovAdditive)
                else "additive_delay")
        details = delay_tails(process, arrival, [float(d) for d in d_values])
        for d, est, detail in zip(d_values, ests, details):
            check(name, f"d={d:g}", detail.lower.value, detail.upper.value, est)
    if isinstance(process, Additive):
        t = query.get("t_slots", 10)
        xs = query.get("x_grid_bits") or [
            0.6 * t * arrival.lam, t * arrival.lam, 1.4 * t * arrival.lam]
        samples = cumulative_capacity_samples(process, t, config.runs,
                                              config.seed + 7)
        for x in xs:
            lo, up = cdf_bounds(process, t, float(x))
            count = int(np.count_nonzero(samples <= float(x)))
            est = TailEstimate.from_count(count, config.runs)
            check("additive_cdf", f"t={t},x={x:g}", lo.value, up.value, est)
        if stability_margin(process, ArrivalSpec(2 * arrival.lam),) > 0:
            fb = feedback_queue(process, arrival, config, d_values)
            reports = feedback_delays(process, arrival,
                                      [float(d) for d in d_values])
            for d, est, (rep, _) in zip(d_values, fb, reports):
                check("feedback_delay", f"d={d:g}", None, rep.value, est)
    meta["all_pass"] = all(r["pass"] for r in rows)
    return rows


_RUNNERS = {
    "capacity": _run_capacity, "bounds": _run_bounds, "delay": _run_delay,
    "dcc": _run_dcc, "order": _run_order, "interference": _run_interference,
    "simulate": _run_simulate, "validate": _run_validate,
}


# ---------------------------------------------------------------------------
# output assembly


def _rows_to_csv(rows) -> str:
    headers = []
    for _, row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["query_index"] + headers)
    for idx, row in rows:
        writer.writerow([str(idx)] + [_fmt(row.get(h)) for h in headers])
    return buf.getvalue()


def _rows_to_json(rows) -> str:
    payload = [{"query_index": idx, **row} for idx, row in rows]
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=True, default=str) + "\n"


def run_command(command: str, scenario: dict, seed_override=None,
                threads: int = 1):
    arrival = ArrivalSpec(scenario["arrival"]["lambda_bits_per_slot"])
    config = build_sim_config(scenario, seed_override)
    queries = [q for q in scenario.get("queries", []) if q["kind"] == command]
    if not queries:
        queries = [{"kind": command}]
    meta = {"command": command, "seed": config.seed,
            "package": f"wnc {__version__}",
            "lambda_bits_per_slot": arrival.lam}
    runner = _RUNNERS[command]

    def run_one(indexed):
        idx, query = indexed
        local_meta = {}
        out = runner(scenario, query, arrival, config, local_meta)
        return idx, out, local_meta

    indexed = list(enumerate(queries))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, indexed))   # in query order
    else:
        results = [run_one(item) for item in indexed]
    rows = []
    for idx, out, local_meta in results:
        for row in out:
            rows.append((idx, row))
        for key, val in local_meta.items():
            meta[f"q{idx}_{key}"] = val
    return rows, meta


@functools.cache
def _parser():
    """The argument parser, built once per process.  Building it is most of
    the allocation of a call, so a process that calls ``main`` many times
    would otherwise grow its heap with every call."""
    parser = argparse.ArgumentParser(
        prog="wnc",
        description="Wireless channel capacity bounds and their MC validation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True)
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.add_argument("--strict", action="store_true")
        p.add_argument("--threads", type=int)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _env_threads() -> int:
    value = os.environ.get("WNC_THREADS", "1")
    try:
        return int(value)
    except ValueError:
        raise ValidationError(
            f"WNC_THREADS must be an integer, got {value!r}") from None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # read at each call, as the parser is shared
        threads = _env_threads() if args.threads is None else args.threads
        scenario = load_scenario(args.scenario)
        rows, meta = run_command(args.command, scenario,
                                 seed_override=args.seed,
                                 threads=max(threads, 1))
        text = (_rows_to_csv(rows) if args.format == "csv"
                else _rows_to_json(rows))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            meta_doc = {"scenario": scenario, **meta}
            with open(args.out + ".meta.json", "w") as fh:
                json.dump(meta_doc, fh, indent=2, sort_keys=True, default=str)
                fh.write("\n")
        else:
            sys.stdout.write(text)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (NumericFailure, HeavyTailError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except UnstableSystemError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 3 if args.strict else 0

    if args.strict:
        # q<index>_verdicts entries count; q<index>_order_verdicts is a report
        own = [(k.partition("_")[2], v) for k, v in meta.items()]
        verdicts = [v for k, v in own if k == "verdicts"]
        if any(verdicts):
            print(f"strict: {verdicts}", file=sys.stderr)
            return 3
        if any(k == "all_pass" and v is False for k, v in own):
            print("strict: validation checks failed", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
