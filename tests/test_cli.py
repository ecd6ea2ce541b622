import copy
import csv
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wnc.cli import (_KEYWORDS, _QUERY_SCHEMA, _SCHEMA, _TYPES, _conforms,
                     _resolve, main)

BASE = {
    "channel": {"capacity_bits_per_slot": {"support": [0.0, 2.0],
                                           "mass": [0.5, 0.5]}},
    "process": {"kind": "additive"},
    "arrival": {"lambda_bits_per_slot": 0.4},
    "sim": {"seed": 7, "runs": 20000, "horizon_slots": 300,
            "warmup_slots": 30},
}


def write_scenario(tmp_path, doc, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_capacity_rayleigh_zero_row(tmp_path, capsys):
    doc = {
        "channel": {"bandwidth_hz": 1.0, "snr_linear": 1.0,
                    "fading": {"kind": "rayleigh"}},
        "process": {"kind": "additive"},
        "arrival": {"lambda_bits_per_slot": 0.4},
        "sim": {"seed": 1, "runs": 10, "horizon_slots": 10},
        "queries": [{"kind": "capacity", "x_grid_bits": [0.0]}],
    }
    path = write_scenario(tmp_path, doc)
    assert main(["capacity", "--scenario", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "query_index,x_bits,cdf,tail"
    assert out[1] == "0,0,0,1"


def test_capacity_certificate_on_discrete_channel(tmp_path, capsys):
    doc = dict(BASE, queries=[{"kind": "capacity", "x_grid_bits": [1.0],
                               "certify_x_hi_bits": 8.0}])
    assert main(["capacity", "--scenario", write_scenario(tmp_path, doc)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    certs = [r for r in rows if r["certificate_a"]]
    assert len(certs) == 1
    # the two-point tail 1/2 on [0, 2) and 0 above is covered at every rate
    a, b = float(certs[0]["certificate_a"]), float(certs[0]["certificate_b"])
    assert b > 0 and a * np.exp(-b * 2.0) >= 0.5
    assert float(certs[0]["certificate_violation"]) <= 0.0


def test_capacity_certificate_below_the_largest_atom(tmp_path, capsys):
    # the tail is flat at 1/2 on all of [0, 1.5]: a bounded law, not a
    # heavy one, so the rate is the largest one with a prefactor within e
    doc = dict(BASE, queries=[{"kind": "capacity", "x_grid_bits": [1.0],
                               "certify_x_hi_bits": 1.5}])
    assert main(["capacity", "--scenario", write_scenario(tmp_path, doc)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    (cert,) = [r for r in rows if r["certificate_a"]]
    a, b = float(cert["certificate_a"]), float(cert["certificate_b"])
    assert a <= np.e * (1.0 + 1e-9) and a * np.exp(-b * 1.5) >= 0.5
    assert b == pytest.approx((1.0 + np.log(2.0)) / 1.5, rel=1e-9)
    assert float(cert["certificate_violation"]) <= 0.0


def test_capacity_certificate_of_exhausted_support_is_finite(tmp_path, capsys):
    # the support ends at 12, inside [0, 13]: the rate rises until the
    # prefactor reaches e^700, not until it overflows
    doc = copy.deepcopy(BASE)
    doc["channel"]["capacity_bits_per_slot"]["support"] = [0.0, 12.0]
    doc["queries"] = [{"kind": "capacity", "x_grid_bits": [1.0],
                       "certify_x_hi_bits": 13.0}]
    assert main(["capacity", "--scenario", write_scenario(tmp_path, doc)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    (cert,) = [r for r in rows if r["certificate_a"]]
    assert float(cert["certificate_a"]) == pytest.approx(np.exp(700.0), rel=1e-9)
    assert float(cert["certificate_violation"]) <= 0.0


def test_threads_default_is_read_from_the_environment_at_each_call(
        tmp_path, monkeypatch):
    # the parser is built once per process; WNC_THREADS is not frozen in it
    import wnc.cli as cli

    seen = []
    real = cli.run_command

    def spy(command, scenario, seed_override=None, threads=1):
        seen.append(threads)
        return real(command, scenario, seed_override=seed_override, threads=1)

    monkeypatch.setattr(cli, "run_command", spy)
    doc = dict(BASE, queries=[{"kind": "capacity", "x_grid_bits": [1.0]}])
    argv = ["capacity", "--scenario", write_scenario(tmp_path, doc),
            "--out", str(tmp_path / "out.csv")]
    for env in ("3", "2"):
        monkeypatch.setenv("WNC_THREADS", env)
        assert cli.main(argv) == 0
    assert cli.main(argv + ["--threads", "5"]) == 0
    monkeypatch.delenv("WNC_THREADS")
    assert cli.main(argv) == 0
    assert seen == [3, 2, 5, 1]


def test_malformed_scenario_names_field(tmp_path, capsys):
    doc = {
        "channel": {"bandwidth_hz": 1.0, "snr_linear": -1.0,
                    "fading": {"kind": "rayleigh"}},
        "process": {"kind": "additive"},
        "arrival": {"lambda_bits_per_slot": 0.4},
        "sim": {"seed": 1, "runs": 10, "horizon_slots": 10},
    }
    path = write_scenario(tmp_path, doc)
    assert main(["capacity", "--scenario", path]) == 1
    err = capsys.readouterr().err
    assert "snr_linear" in err


def test_unknown_key_rejected(tmp_path, capsys):
    doc = dict(BASE)
    doc["unknown_section"] = {"a": 1}
    path = write_scenario(tmp_path, doc)
    assert main(["delay", "--scenario", path]) == 1
    assert "unknown_section" in capsys.readouterr().err


def test_missing_file_is_validation_error(capsys):
    assert main(["delay", "--scenario", "/nonexistent/scn.yaml"]) == 1


def test_delay_runs_and_writes_sidecar(tmp_path):
    doc = dict(BASE)
    doc["queries"] = [{"kind": "delay", "d_slots": [1, 5], "validate_mc": True}]
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert main(["delay", "--scenario", path, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("query_index,d_slots,delay_lower,delay_upper")
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert meta["command"] == "delay"
    assert meta["seed"] == 7
    assert "q0_stability_margin" in meta


def test_seed_override_changes_outputs(tmp_path):
    doc = dict(BASE)
    doc["queries"] = [{"kind": "simulate", "d_slots": [1, 2]}]
    path = write_scenario(tmp_path, doc)
    o1, o2, o3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["simulate", "--scenario", path, "--out", str(o1)]) == 0
    assert main(["simulate", "--scenario", path, "--out", str(o2)]) == 0
    assert main(["simulate", "--scenario", path, "--seed", "99",
                 "--out", str(o3)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    assert o1.read_bytes() != o3.read_bytes()


def _one_validation_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("validation error: "), err
    return err[0]


def test_negative_seed_override_is_a_validation_error(tmp_path, capsys):
    # the scenario schema rejects sim.seed < 0; --seed is checked alike
    doc = dict(BASE, queries=[{"kind": "simulate", "d_slots": [1]}])
    path = write_scenario(tmp_path, doc)
    assert main(["simulate", "--scenario", path, "--seed", "-5"]) == 1
    assert "seed" in _one_validation_line(capsys)


def test_non_integer_wnc_threads_is_a_validation_error(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setenv("WNC_THREADS", "abc")
    doc = dict(BASE, queries=[{"kind": "capacity", "x_grid_bits": [1.0]}])
    assert main(["capacity", "--scenario", write_scenario(tmp_path, doc)]) == 1
    assert "WNC_THREADS" in _one_validation_line(capsys)


def test_validate_passes_and_threads_deterministic(tmp_path):
    doc = dict(BASE)
    doc["queries"] = [{"kind": "validate", "d_slots": [1, 2, 5]}]
    path = write_scenario(tmp_path, doc)
    o1, o2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert main(["validate", "--scenario", path, "--out", str(o1)]) == 0
    assert main(["validate", "--scenario", path, "--threads", "4",
                 "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    rows = o1.read_text().strip().splitlines()[1:]
    assert rows, "validate emitted no rows"
    assert all(line.rsplit(",", 1)[1] == "true" for line in rows)


def test_json_output_format(tmp_path, capsys):
    doc = dict(BASE)
    doc["queries"] = [{"kind": "dcc", "d_slots": 10, "epsilon": 0.01}]
    path = write_scenario(tmp_path, doc)
    assert main(["dcc", "--scenario", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["query_index"] == 0
    assert payload[0]["feasible"] is True


def test_strict_flags_unstable_interference(tmp_path, capsys):
    doc = dict(BASE)
    doc["arrival"] = {"lambda_bits_per_slot": 0.9}   # 2*lambda > E[C]
    doc["queries"] = [{"kind": "interference", "d_slots": [2]}]
    path = write_scenario(tmp_path, doc)
    assert main(["interference", "--scenario", path]) == 0
    capsys.readouterr()
    assert main(["interference", "--scenario", path, "--strict"]) == 3


def test_strict_order_reports_are_not_verdicts(tmp_path, capsys):
    # the order runner's q0_order_verdicts sidecar entry is a report
    doc = dict(BASE, sim={"seed": 7, "runs": 2000, "horizon_slots": 50},
               queries=[{"kind": "order", "probe_t_slots": 4}])
    out = tmp_path / "order.csv"
    assert main(["order", "--scenario", write_scenario(tmp_path, doc),
                 "--out", str(out), "--strict"]) == 0
    assert "strict" not in capsys.readouterr().err
    meta = json.loads((tmp_path / "order.csv.meta.json").read_text())
    assert "q0_order_verdicts" in meta


@pytest.mark.parametrize("fading,field", [
    ({"kind": "rayleigh", "m": 3.0, "k": 9}, "'k', 'm' were unexpected"),
    ({"kind": "rice"}, "'s' is a required property"),
    ({"kind": "frequency_selective", "subchannels": [{"bandwidth_hz": 1.0}]},
     "'fading' is a required property"),
    ({"kind": "frequency_selective",
      "subchannels": [{"fading": {"kind": "weibull", "c": 1.0}}]},
     "subchannels.0.fading: 'k' is a required property"),
])
def test_fading_fields_checked_per_kind(tmp_path, capsys, fading, field):
    channel = {"fading": fading}
    if fading["kind"] != "frequency_selective":
        channel.update(bandwidth_hz=1.0, snr_linear=1.0)
    doc = dict(BASE, channel=channel)
    assert main(["capacity", "--scenario", write_scenario(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: scenario field channel.fading")
    assert field in err


def test_lattice_channel_rejects_the_fading_keys(tmp_path, capsys):
    # a capacity law is the whole channel: fading, W and gamma go unread
    channel = dict(BASE["channel"], fading={"kind": "rayleigh"},
                   bandwidth_hz=5.0, snr_linear=2.0)
    doc = dict(BASE, channel=channel)
    assert main(["capacity", "--scenario", write_scenario(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: scenario field channel:")
    assert "('bandwidth_hz', 'fading', 'snr_linear' were unexpected)" in err


@pytest.mark.parametrize("key", ["bandwidth_hz", "snr_linear"])
def test_frequency_selective_channel_rejects_channel_level_keys(
        tmp_path, capsys, key):
    # each subchannel carries its own W and gamma
    sub = [{"fading": {"kind": "rayleigh"}}, {"fading": {"kind": "rayleigh"}}]
    doc = dict(BASE, channel={key: 5.0, "fading": {
        "kind": "frequency_selective", "subchannels": sub}})
    assert main(["capacity", "--scenario", write_scenario(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: scenario field channel:")
    assert f"('{key}' was unexpected)" in err


def test_interference_on_a_comonotonic_channel_names_the_field(tmp_path,
                                                               capsys):
    doc = dict(BASE, process={"kind": "comonotonic"},
               queries=[{"kind": "interference", "d_slots": [2]}])
    path = write_scenario(tmp_path, doc)
    assert main(["interference", "--scenario", path]) == 1
    assert capsys.readouterr().err.startswith(
        "validation error: scenario field process.kind:")


def test_unresolvable_margin_is_numeric_failure(tmp_path, capsys):
    doc = dict(BASE)
    doc["arrival"] = {"lambda_bits_per_slot": 1.0 - 1e-12}
    doc["queries"] = [{"kind": "delay", "d_slots": [5]}]
    path = write_scenario(tmp_path, doc)
    assert main(["delay", "--scenario", path]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_markov_scenario_round_trip(tmp_path):
    doc = {
        "process": {"kind": "markov", "markov": {
            "states": ["G", "B"],
            "transition": [[0.9, 0.1], [0.2, 0.8]],
            "capacities_bits_per_slot": [2.0, 0.0],
            "initial": "stationary"}},
        "arrival": {"lambda_bits_per_slot": 1.0},
        "sim": {"seed": 3, "runs": 20000, "horizon_slots": 300},
        "queries": [{"kind": "delay", "d_slots": [5]},
                    {"kind": "bounds", "t_slots": 10, "x_grid_bits": [10.0]}],
    }
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "mk.csv"
    assert main(["delay", "--scenario", path, "--out", str(out)]) == 0
    assert main(["bounds", "--scenario", path, "--out", str(out)]) == 0


# CSV output of the Gilbert-Elliott scenario started in state B, with
# lambda 0.5, epsilon 0.2 and 2000 runs of 120 slots, recorded when each
# bound and estimator still took the start state as an override
_FIXED_START_CSV = {
    "bounds": """\
query_index,t_slots,x_bits,cdf_lower,cdf_upper,theta_lower,theta_upper,prefactor_lower,prefactor_upper
0,10,8,0,0.99638083866402793,0.0001,0.010833197468076381,1,1.0524672284519956
0,10,13,0,1,0.0001,0.0001,1,1.0004668274289448
0,10,18,0.25510840988652977,1,0.16154119741670531,0.0001,1,1.0004668274289448
""",
    "delay": """\
query_index,d_slots,delay_lower,delay_upper,theta_star,prefactor,basic_upper,horizon,mc_estimate,mc_stderr
0,5,0.30904969946945149,0.37585783226930475,0.39141772510358258,1,1,inf,0.379,0.010848018252197035
0,10,0.11615875010606813,0.1412691100781808,0.39141772510358258,1,0.5804102552362288,inf,0.14849999999999999,0.0079513442259783983
0,20,0.016409643255278036,0.019956961462281167,0.39141772510358258,1,0.081994040237471838,inf,0.024500000000000001,0.0034568591235397488
""",
    "dcc": """\
query_index,d_slots,epsilon,lambda_conservative,lambda_optimistic,one_shot_lower,one_shot_upper,feasible
0,10,0.20000000000000001,0.77517478742963131,0.86205659167613147,0.44560850559514187,0.52312598433810509,true
""",
    "interference": """\
query_index,d_slots,feedback_upper,theta_star,prefactor,horizon,feedback_upper_improved
0,5,1,0.11778303565638325,1.7777777777777766,inf,0.74493553902780352
0,10,0.98654036854514471,0.11778303565638325,1.7777777777777766,inf,0.55492895730664427
0,20,0.54745981805766963,0.11778303565638325,1.7777777777777766,inf,0.30794614765743938
""",
    "simulate": """\
query_index,d_slots,mc_estimate,mc_stderr,runs
0,2,0.67149999999999999,0.010502089077893026,2000
0,5,0.379,0.010848018252197035,2000
""",
    "validate": """\
query_index,check,parameter,lower,upper,estimate,stderr,pass
0,markov_delay,d=5,0.30904969946945149,0.37585783226930475,0.379,0.010848018252197035,true
0,markov_delay,d=10,0.11615875010606813,0.1412691100781808,0.14849999999999999,0.0079513442259783983,true
0,markov_delay,d=20,0.016409643255278036,0.019956961462281167,0.024500000000000001,0.0034568591235397488,true
""",
}


def test_fixed_start_markov_scenario(tmp_path, capsys):
    doc = yaml.safe_load((REPO / "scenarios" / "gilbert_elliott.yaml")
                         .read_text())
    doc["process"]["markov"]["initial"] = "B"
    doc["arrival"]["lambda_bits_per_slot"] = 0.5
    doc["sim"] = {"seed": 5, "runs": 2000, "horizon_slots": 120,
                  "warmup_slots": 12}
    doc["queries"][2]["epsilon"] = 0.2
    doc["queries"].append({"kind": "simulate", "d_slots": [2, 5]})
    path = write_scenario(tmp_path, doc)
    for command, text in _FIXED_START_CSV.items():
        assert main([command, "--scenario", path]) == 0
        assert capsys.readouterr().out.replace("\r\n", "\n") == text
    # an unknown start state fails on every command
    doc["process"]["markov"]["initial"] = "X"
    path = write_scenario(tmp_path, doc, "unknown.yaml")
    for command in _FIXED_START_CSV:
        assert main([command, "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == "validation error: unknown state 'X'\n"
        assert captured.out == ""


def test_dcc_whose_mean_rounds_to_the_floor(tmp_path, capsys):
    # alpha(1) rounds to the floor 1.0, where no law crosses the drain
    doc = yaml.safe_load((REPO / "scenarios" / "gilbert_elliott.yaml")
                         .read_text())
    doc["process"]["markov"].update(
        states=["a", "b", "c"], capacities_bits_per_slot=[1.5, 2.0, 1.0],
        transition=[[0.7, 0.2, 0.1], [1.8e-5, 0.9999806, 1.4e-6],
                    [1.5e-19, 1.5e-19, 1.0]])
    doc["queries"] = [{"kind": "dcc", "d_slots": 10, "epsilon": 0.01}]
    assert main(["dcc", "--scenario", write_scenario(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    (row,) = csv.DictReader(captured.out.splitlines())
    assert float(row["lambda_conservative"]) == 1.0
    assert float(row["lambda_optimistic"]) == 1.0
    assert row["feasible"] == "true"


def test_csv_rows_as_wide_as_header(tmp_path):
    # validate's additive_cdf parameters (t=8,x=4) and order's relations
    # (cx(S_N, S_perp)) contain commas and must come out quoted
    doc = dict(BASE)
    doc["queries"] = [{"kind": "validate", "d_slots": [2], "t_slots": 8,
                       "x_grid_bits": [4.0]},
                      {"kind": "order", "probe_t_slots": 8}]
    path = write_scenario(tmp_path, doc)
    for command, needle in (("validate", "t=8,x=4"),
                            ("order", "cx(S_N, S_perp)")):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--scenario", path, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows
        assert all(len(row) == len(header) for row in rows)
        assert any(needle in row for row in rows)


def test_scenario_schemas_are_valid_under_their_metaschema():
    # the CLI builds its validators without this check, once per process
    from jsonschema.validators import validator_for

    from wnc.cli import _QUERY_SCHEMA, _SCHEMA

    for schema in (_SCHEMA, _QUERY_SCHEMA):
        validator_for(schema).check_schema(schema)


def test_invalid_scenario_message_matches_jsonschema_validate(tmp_path):
    # the cached validators must pick the same error as jsonschema.validate
    import copy

    import jsonschema

    from wnc.cli import _QUERY_SCHEMA, _SCHEMA, load_scenario
    from wnc.errors import ValidationError

    bad_lambda = copy.deepcopy(BASE)
    bad_lambda["arrival"]["lambda_bits_per_slot"] = -1
    missing = copy.deepcopy(BASE)
    del missing["sim"]
    bad_query = dict(BASE, queries=[{"kind": "delay"},
                                    {"kind": "nonsense", "epsilon": 2}])
    for doc in (bad_lambda, missing, dict(BASE, extra=1), bad_query):
        try:
            jsonschema.validate(doc, _SCHEMA)
            for q in doc.get("queries", []):
                jsonschema.validate(q, _QUERY_SCHEMA)
        except jsonschema.ValidationError as exc:
            path = ".".join(str(p) for p in exc.absolute_path) or "(root)"
            want = f"scenario field {path}: {exc.message}"
        with pytest.raises(ValidationError) as err:
            load_scenario(write_scenario(tmp_path, doc))
        assert str(err.value) == want
    with pytest.raises(ValidationError, match="^scenario field arrival"
                       r"\.lambda_bits_per_slot: -1 is less than or equal "
                       "to the minimum of 0$"):
        load_scenario(write_scenario(tmp_path, bad_lambda))


_SCIPY_PROBE = r"""
import importlib
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import wnc
assert scipy_modules() == [], scipy_modules()
from wnc.cli import main
for i, arg in enumerate(sys.argv[1:]):
    cmd, path = arg.split("=", 1)
    if cmd == "import":
        importlib.import_module(path)
        continue
    assert main([cmd, "--scenario", path, "--out", f"{path}.{cmd}.{i}.csv"]) == 0
print(" ".join(scipy_modules()))
"""


REPO = Path(__file__).resolve().parents[1]


def _scipy_after(runs):
    """scipy modules loaded after ``import wnc`` and the given runs, in a
    fresh interpreter: each "command=scenario path" runs the CLI, and
    "import=module" imports that module."""
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE] + runs, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_markov_and_discrete_scenarios_load_no_scipy(tmp_path):
    """import wnc, then bounds/delay/dcc/interference on both shipped
    scenarios (Monte Carlo off): not one scipy module is loaded."""
    runs = []
    for name in ("gilbert_elliott", "default"):
        doc = yaml.safe_load((REPO / "scenarios" / f"{name}.yaml").read_text())
        for q in doc["queries"]:
            q.pop("validate_mc", None)
        path = write_scenario(tmp_path, doc, f"{name}.yaml")
        runs += [f"{cmd}={path}" for cmd in ("bounds", "delay", "dcc",
                                              "interference")]
    assert _scipy_after(runs) == []


def _fading_runs(tmp_path, fading):
    """capacity (with a tail certificate), bounds, delay and simulate on an
    additive channel with the given fading node."""
    doc = {
        "channel": {"bandwidth_hz": 1.0, "snr_linear": 1.0, "fading": fading},
        "process": {"kind": "additive"},
        "arrival": {"lambda_bits_per_slot": 0.4},
        "sim": {"seed": 1, "runs": 200, "horizon_slots": 20},
        "queries": [{"kind": "capacity", "x_grid_bits": [0.0, 1.0],
                     "certify_x_hi_bits": 8.0},
                    {"kind": "bounds", "t_slots": 4, "x_grid_bits": [1.0, 2.0]},
                    {"kind": "delay", "d_slots": [1, 5]},
                    {"kind": "simulate", "d_slots": [1, 5]}],
    }
    path = write_scenario(tmp_path, doc, f"{fading['kind']}.yaml")
    return [f"{cmd}={path}" for cmd in ("capacity", "bounds", "delay", "simulate")]


def test_rayleigh_and_weibull_commands_load_no_scipy(tmp_path):
    runs = (_fading_runs(tmp_path, {"kind": "rayleigh"})
            + _fading_runs(tmp_path, {"kind": "weibull", "c": 1.0, "k": 2.0}))
    assert _scipy_after(runs) == []


def test_rice_nakagami_and_lognormal_load_scipy_special_only(tmp_path):
    runs = (_fading_runs(tmp_path, {"kind": "rice", "s": 1.0, "sigma0": 0.5})
            + _fading_runs(tmp_path, {"kind": "nakagami", "m": 2.0})
            + _fading_runs(tmp_path, {"kind": "lognormal", "sigma": 0.5}))
    loaded = _scipy_after(runs)
    assert "scipy.special" in loaded
    assert loaded == _scipy_after(["import=scipy.special"])


def test_scipy_is_imported_in_the_source_only_as_the_lazy_special_import():
    src = sorted((REPO / "src" / "wnc").rglob("*.py"))
    hits = [(p.name, line.strip()) for p in src
            for line in p.read_text().splitlines()
            if re.match(r"\s*(from|import)\s+scipy\b", line)]
    assert hits == [("fading.py", "from scipy import special")]
    assert not any("scipy.stats" in p.read_text()
                   or "from scipy import stats" in p.read_text() for p in src)


# ---------------------------------------------------------------------------
# scenario loading: libyaml parsing, the schema evaluator, lazy jsonschema

SHIPPED = sorted([*(REPO / "scenarios").glob("*.yaml"),
                  *(REPO / "bench" / "scenarios").glob("*.yaml")])


def test_libyaml_and_python_loaders_give_equal_documents():
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    assert SHIPPED
    for path in SHIPPED:
        text = path.read_text()
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        assert fast == slow and repr(fast) == repr(slow), path.name


def test_malformed_yaml_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("process: {kind: additive\narrival: [1, 2\n")
    with open(path) as fh, pytest.raises(yaml.YAMLError) as exc:
        yaml.safe_load(fh)
    assert main(["delay", "--scenario", str(path)]) == 1
    # worded by the pure-Python parser, as before libyaml parsed scenarios
    assert capsys.readouterr().err == (
        f"validation error: scenario is not valid YAML: {exc.value}\n")


def test_document_the_evaluator_rejects_is_never_accepted(tmp_path,
                                                          monkeypatch):
    # were jsonschema to find no error, the document is still rejected
    import wnc.cli as cli

    monkeypatch.setattr(cli, "_conforms", lambda schema, x, root: False)
    with pytest.raises(cli.ValidationError,
                       match="^scenario does not conform to its schema$"):
        cli.load_scenario(write_scenario(tmp_path, BASE))


def _schema_nodes(schema, root):
    """Every subschema of ``schema``, ``$ref`` targets included once."""
    seen, stack = [], [schema]
    while stack:
        node = stack.pop()
        if isinstance(node, bool) or any(node is s for s in seen):
            continue
        seen.append(node)
        for key, value in node.items():
            if key in ("properties", "$defs"):
                stack += value.values()
            elif key in ("anyOf", "allOf"):
                stack += value
            elif key in ("items", "additionalProperties", "if", "then"):
                stack.append(value)
            elif key == "$ref":
                stack.append(_resolve(value, root))
    return seen


def test_schemas_use_only_keywords_the_evaluator_implements():
    for schema in (_SCHEMA, _QUERY_SCHEMA):
        nodes = _schema_nodes(schema, schema)
        assert len(nodes) > 10
        for node in nodes:
            assert node.keys() <= _KEYWORDS.keys(), node
            if "type" in node:
                assert node["type"] in _TYPES, node
    with pytest.raises(NotImplementedError, match="maxItems"):
        _conforms({"type": "array", "maxItems": 1}, [], {})
    with pytest.raises(NotImplementedError):
        _conforms({"$ref": "other.json#/x"}, 1, {})


def test_conforms_keeps_draft_2020_12_type_and_equality_rules():
    # a bool is no number, 3.0 is an integer, and enum/const tell True from 1
    from jsonschema import Draft202012Validator

    cases = [
        ({"type": "integer"}, [3, 3.0, -0.0, 3.5, True, float("inf"),
                               float("nan"), "3", None]),
        ({"type": "number"}, [1, 1.5, True, False, None, "1"]),
        ({"type": "boolean"}, [True, 0, 1.0]),
        ({"enum": [1, "a"]}, [1, 1.0, True, "a", "1"]),
        ({"enum": [True]}, [True, 1, 1.0]),
        ({"const": False}, [False, 0, 0.0, None]),
        ({"const": [1, True]}, [[1, True], [1.0, True], [1, 1], [True, True]]),
        ({"const": {"a": 0}}, [{"a": 0}, {"a": False}, {"a": 0.0}, {}]),
        ({"exclusiveMinimum": 0, "exclusiveMaximum": 1},
         [0, 0.0, -0.0, 1, 0.5, True, float("nan"), "0.5"]),
    ]
    for schema, instances in cases:
        oracle = Draft202012Validator(schema)
        for x in instances:
            assert _conforms(schema, x, schema) == oracle.is_valid(x), (schema, x)


@functools.cache
def _base_documents():
    docs = [yaml.safe_load(p.read_text()) for p in SHIPPED]
    docs.append(dict(BASE, queries=[
        {"kind": "dcc", "d_slots": 10, "epsilon": 0.5},
        {"kind": "delay", "d_slots": [1, 2.5], "validate_mc": True},
        {"kind": "capacity", "certify_x_hi_bits": 8.0, "p_grid": [0.5]}]))
    sub = [{"bandwidth_hz": 1.0, "snr_linear": 2.0,
            "fading": {"kind": "rice", "s": 1.0, "sigma0": 0.5}},
           {"fading": {"kind": "weibull", "c": 1.0, "k": 2.0}},
           {"fading": {"kind": "nakagami", "m": 2.0, "omega": 1.0}}]
    docs.append(dict(BASE, channel={"fading": {
        "kind": "frequency_selective", "subchannels": sub}}))
    for fading in ({"kind": "lognormal", "mu": 0.0, "sigma": 0.5},
                   {"kind": "rayleigh", "sigma": 1.0}):
        docs.append(dict(BASE, channel={"bandwidth_hz": 1.0, "snr_linear": 1.0,
                                        "fading": fading}))
    return tuple(docs)


@functools.cache
def _oracle(which):
    from jsonschema import Draft202012Validator

    return Draft202012Validator({"doc": _SCHEMA, "query": _QUERY_SCHEMA}[which])


_VALUES = [True, False, "x", "rice", None, 3.0, 3, 2.5, 0, 0.0, -1, -1.0, 1,
           1.0, 0.5, 1e-3, -0.5, float("inf"), float("nan"), [], {}, [0.5],
           [True], ["G"], [[0.5, 0.5]], {"kind": "rayleigh"}]
_KEYS = ["bogus", "kind", "s", "sigma0", "sigma", "m", "omega", "c", "k", "mu",
         "subchannels", "fading", "epsilon", "t_slots", "d_slots", "queries",
         "channel", "markov", "initial", "warmup_slots", "shared_channel"]


def _containers(node):
    """Every dict and list inside ``node``, itself included."""
    out = [node] if isinstance(node, (dict, list)) else []
    for child in (node.values() if isinstance(node, dict)
                  else node if isinstance(node, list) else ()):
        out += _containers(child)
    return out


# what a number or an integer may meet: the exclusiveMinimum, minimum and
# epsilon boundaries, integral floats, and bools, strings and None
_NUMBERS = [0, 0.0, -1, -1.0, 1, 1.0, 3.0, 0.5, True, False, None, "1"]


def _numbers(node):
    """(container, key) of every number inside ``node``, bools excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, child in items:
        if isinstance(child, (int, float)) and not isinstance(child, bool):
            out.append((node, key))
        out += _numbers(child)
    return out


def _mutate(draw, doc):
    op = draw(st.sampled_from(["drop", "add", "set", "kind", "number",
                               "epsilon"]))
    numbers = _numbers(doc)
    if op == "epsilon":
        # a dcc query's epsilon, bounded on both sides
        queries = doc.get("queries")
        numbers = [(q, "epsilon") for q in queries if isinstance(q, dict)
                   ] if isinstance(queries, list) else []
    if op in ("number", "epsilon") and numbers:
        node, key = draw(st.sampled_from(numbers))
        node[key] = draw(st.sampled_from(_NUMBERS))
        return
    node = draw(st.sampled_from(_containers(doc)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    value = copy.deepcopy(draw(st.sampled_from(_VALUES)))
    if op == "drop" and keys:
        del node[draw(st.sampled_from(keys))]
    elif op == "add" or not keys:
        if isinstance(node, dict):
            node[draw(st.sampled_from(_KEYS))] = value
        else:
            node.append(value)
    elif op == "kind" and isinstance(node, dict):
        # a fading or query node of another kind: fields missing or extra
        node["kind"] = draw(st.sampled_from(
            ["rayleigh", "rice", "nakagami", "weibull", "lognormal",
             "frequency_selective", "delay", "dcc", "additive", "markov"]))
    else:
        node[draw(st.sampled_from(keys))] = value


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_conforms_agrees_with_jsonschema(data):
    docs = _base_documents()
    doc = copy.deepcopy(docs[data.draw(st.integers(0, len(docs) - 1))])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data.draw, doc)
    for which, schema, instances in (
            ("doc", _SCHEMA, [doc]),
            ("query", _QUERY_SCHEMA, doc.get("queries") or [])):
        if not isinstance(instances, list):
            continue
        for x in instances:
            assert _conforms(schema, x, schema) == _oracle(which).is_valid(x), x


_LOAD_PROBE = r"""
import sys
from wnc import cli
from wnc.errors import ValidationError

*paths, bad, out = sys.argv[1:]
for path in paths:
    cli.load_scenario(path)
assert "jsonschema" not in sys.modules, "jsonschema loaded for valid scenarios"
assert cli.main(["bounds", "--scenario", paths[0], "--out", out]) == 0
assert not [m for m in sys.modules if m.startswith("concurrent.futures")]
try:
    cli.load_scenario(bad)
except ValidationError as exc:
    print(exc)
"""


def test_valid_scenarios_load_without_jsonschema(tmp_path):
    """Every shipped scenario loads in a fresh interpreter without importing
    jsonschema, a single-thread run imports no thread pool, and a rejected
    document still gets jsonschema's message."""
    bad = copy.deepcopy(BASE)
    bad["arrival"]["lambda_bits_per_slot"] = -1
    src = str(REPO / "src")
    env = {k: v for k, v in os.environ.items() if k != "WNC_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    gilbert = REPO / "scenarios" / "gilbert_elliott.yaml"
    paths = [str(gilbert)] + [str(p) for p in SHIPPED if p != gilbert]
    out = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, *paths,
         write_scenario(tmp_path, bad), str(tmp_path / "ge.csv")],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ("scenario field arrival.lambda_bits_per_slot: -1 is "
                          "less than or equal to the minimum of 0\n")
