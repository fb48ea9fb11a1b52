import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from rieszgauge import cli, report
from rieszgauge.config import SpecError, load_config, parse_value
from rieszgauge.values import Vector

REPO = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "docs" / "report.schema.json").read_text())


def run_cli(*args, timeout=300):
    return subprocess.run([sys.executable, "-m", "rieszgauge.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


def validated(stdout: str) -> dict:
    payload = json.loads(stdout)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_integrate_linear():
    proc = run_cli("integrate", "--f", "t", "--on", "[0,1]")
    assert proc.returncode == 0
    payload = validated(proc.stdout)
    assert payload["report"] == "certificate"
    assert payload["value"] == {"kind": "scalar", "value": 0.5}
    assert len(payload["probes"]) == 12


def test_integrate_constant_zero():
    proc = run_cli("integrate", "--f", "const:0")
    assert proc.returncode == 0
    payload = validated(proc.stdout)
    assert payload["value"]["value"] == 0.0


def test_integrate_counterexample_exits_2():
    proc = run_cli("integrate", "--f", "counterexample")
    assert proc.returncode == 2
    assert "not KH-integrable" in proc.stderr


def test_integrate_usage_error_exits_1():
    proc = run_cli("integrate", "--f", "nonsense")
    assert proc.returncode == 1
    assert "nonsense" in proc.stderr
    proc = run_cli("integrate")
    assert proc.returncode == 1


def test_integrate_non_finite_value_exits_1():
    for value in ("nan", "inf", "-inf"):
        proc = run_cli("integrate", "--f", f"const:{value}")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: value {value!r} is not finite"]


def test_integrate_bad_simple_bounds_exit_1():
    for spec in ("simple:0,nan,1", "simple:0.5,0.25,1"):
        proc = run_cli("integrate", "--f", spec)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "bad bounds in simple piece" in lines[0]


def test_overlapping_pieces_are_spec_errors():
    overlapping_set = ('simple:[{"set": [[0, 0.6]], "lo": 0, "hi": 1},'
                       ' {"set": [[0.5, 1]], "lo": 2, "hi": 3}]')
    for args, message in (
            (("integrate", "--f", "simple:0,0.6,1;0.5,1,2"),
             "error: bad simple integrand spec: simple pieces overlap on "
             "positive length"),
            (("phi", "--F", overlapping_set),
             "error: bad simple multifunction spec: simple multifunction "
             "pieces overlap on positive length")):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [message]


def test_c00_regulator_covers_the_support_of_m0(tmp_path):
    # the default regulator's base has ones on index 2 as well, where the
    # measure charges the integrand, so the jump can be certified
    ini = tmp_path / "run.ini"
    ini.write_text('[space]\nvalue_space = c00\nm0 = {"1": 1, "2": 2}\n')
    proc = run_cli("--config", str(ini), "integrate",
                   "--f", 'simple:0,0.5,{"2": 1}')
    assert proc.returncode == 0
    payload = validated(proc.stdout)
    assert payload["value"] == {"kind": "c00", "entries": {"2": 1.0}}


def test_parse_value_rejects_non_finite_coordinates():
    for text, space in (("NaN", "scalar"), ("[1, NaN]", "vector:2"),
                        ("[Infinity, 0]", "vector:2"),
                        ('{"3": -Infinity}', "c00")):
        with pytest.raises(SpecError, match="not finite"):
            parse_value(text, space)


def test_phi_constant_and_member():
    proc = run_cli("phi", "--F", "const:0,1", "--on", "[0,1]")
    assert proc.returncode == 0
    payload = validated(proc.stdout)
    assert payload["oracle"]["lo"]["value"] == 0.0
    assert payload["oracle"]["hi"]["value"] == 1.0

    proc = run_cli("phi", "--F", "const:0,1", "--member", "2.5")
    payload = validated(proc.stdout)
    assert payload["member"]["verdict"] is False
    assert "non-member" in proc.stderr

    proc = run_cli("phi", "--F", "const:0,1", "--member", "0.5")
    payload = validated(proc.stdout)
    assert payload["member"]["verdict"] is True


def test_phi_simple_two_piece():
    spec = ('simple:[{"set": [[0, 0.5]], "lo": 0, "hi": 1},'
            ' {"set": [[0.5, 1]], "lo": 2, "hi": 3}]')
    proc = run_cli("phi", "--F", spec)
    assert proc.returncode == 0
    payload = validated(proc.stdout)
    assert payload["oracle"]["lo"]["value"] == 1.0
    assert payload["oracle"]["hi"]["value"] == 2.0


def test_phi_unbounded_exits_3():
    proc = run_cli("phi", "--F", "interval:counterexample,counterexample")
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("unbounded multifunction: ")


def test_compare_two_piece():
    spec = ('simple:[{"set": [[0, 0.5]], "lo": 0, "hi": 1},'
            ' {"set": [[0.5, 1]], "lo": 2, "hi": 3}]')
    proc = run_cli("compare", "--F", spec)
    assert proc.returncode == 0
    payload = validated(proc.stdout)
    assert payload["passed"] is True
    assert payload["sumFormula"]["lo"]["value"] == 1.0
    assert payload["aumannHull"]["hi"]["value"] == 2.0


#: Sets that end 1e-14 short of the jump at 0.5, from either side, with the
#: exact piece sum of ``simple:0,0.5,1;0.5,1,2`` over each.
JUST_OFF_THE_JUMP = [
    pytest.param("[0.50000000000001,1]", 2.0 * (1.0 - 0.50000000000001),
                 id="right"),
    pytest.param("[0,0.49999999999999]", 1.0 * 0.49999999999999, id="left"),
]


@pytest.mark.parametrize("on, piece_sum", JUST_OFF_THE_JUMP)
def test_jump_just_outside_the_set_integrates(on, piece_sum):
    # a jump outside the set does not bend the integrand on it, so it is not
    # anchored; anchoring it left a sliver at the set's end that no fine
    # cell could cover (exit 2)
    proc = run_cli("integrate", "--f", "simple:0,0.5,1;0.5,1,2", "--on", on)
    assert proc.returncode == 0, proc.stderr
    payload = validated(proc.stdout)
    assert payload["value"] == {"kind": "scalar", "value": piece_sum}


@pytest.mark.parametrize("on, piece_sum", JUST_OFF_THE_JUMP)
def test_compare_with_a_jump_just_outside_the_set(on, piece_sum):
    # the lower end is the integrand above
    spec = ('simple:[{"set": [[0, 0.5]], "lo": 1, "hi": 2},'
            ' {"set": [[0.5, 1]], "lo": 2, "hi": 3}]')
    proc = run_cli("compare", "--F", spec, "--on", on)
    assert proc.returncode == 0, proc.stderr
    payload = validated(proc.stdout)
    assert payload["passed"] is True
    assert payload["sumFormula"]["lo"] == {"kind": "scalar",
                                           "value": piece_sum}


def test_counterexample_subcommand():
    proc = run_cli("counterexample", "--n-max", "8")
    assert proc.returncode == 0
    payload = validated(proc.stdout)
    assert payload["verdict"] == "UNBOUNDED"
    assert [e["n"] for e in payload["entries"]] == list(range(2, 9))


@pytest.mark.parametrize("n_max, message", [
    pytest.param("1", "error: --n-max must be at least 2", id="1"),
    # the run costs about n**3: on a 2-core box 400 took 12 s, 600 took 42 s
    pytest.param("201", "error: --n-max must be at most 200", id="201"),
])
def test_counterexample_n_max_out_of_range_exits_1(n_max, message):
    proc = run_cli("counterexample", "--n-max", n_max, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [message]


def test_suite_unknown_exits_1():
    proc = run_cli("suite", "bogus")
    assert proc.returncode == 1


def test_suite_counterexample_reports():
    proc = run_cli("suite", "counterexample", "--seed", "7")
    assert proc.returncode == 0
    payload = validated(proc.stdout)
    names = [p["name"] for s in payload["suites"] for p in s["properties"]]
    assert "family_unbounded" in names


def test_suite_measure_passes_under_c00():
    # regulator bases drawn by the suites cover the support of m0
    ini = REPO / "tests" / "golden" / "cli" / "c00.ini"
    proc = run_cli("--config", str(ini), "suite", "measure")
    assert proc.returncode == 0, proc.stderr
    assert validated(proc.stdout)["passed"] is True


def test_vector_and_c00_values_in_piece_specs():
    # pieces split at the commas outside [] and {}, so a piece value may be
    # a JSON vector or c00 object
    golden = REPO / "tests" / "golden" / "cli"
    proc = run_cli("--config", str(golden / "vector2.ini"), "phi",
                   "--F", "const:[0, 0],[1, 1]", "--member", "[0.5, 1]")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "member\n"
    assert validated(proc.stdout)["member"]["verdict"] is True
    proc = run_cli("--config", str(golden / "c00.ini"), "integrate", "--f",
                   'simple:0,0.5,{"1": 2, "2": 1};0.5,1,{"1": 1}')
    assert proc.returncode == 0, proc.stderr
    assert validated(proc.stdout)["value"] == {"kind": "c00",
                                               "entries": {"1": 1.5}}
    proc = run_cli("--config", str(golden / "vector2.ini"), "integrate",
                   "--f", "simple:0,0.5,[2, 1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1


def test_compact_json_flag():
    proc = run_cli("integrate", "--f", "const:1", "--json")
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 1
    validated(proc.stdout)


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("integrate", "--f", "const:1", "--out", str(target))
    assert proc.returncode == 0
    validated(target.read_text())


def test_vector_space_config(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[space]\nvalue_space = vector:2\nm0 = [1, 2]\n")
    proc = run_cli("--config", str(ini), "integrate", "--f", "const:[2, 4]")
    assert proc.returncode == 0
    payload = validated(proc.stdout)
    assert payload["value"] == {"kind": "vector", "values": [2.0, 8.0]}


def test_readme_config_example_loads_as_printed(tmp_path):
    # the ini block of the README, inline comments and all
    readme = (REPO / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    ini = tmp_path / "readme.ini"
    ini.write_text(block)
    config = load_config(str(ini))
    assert config.value_space == "vector:2"
    assert config.m0 == Vector([1.0, 2.0])
    assert config.seed == 42
    proc = run_cli("--config", str(ini), "integrate", "--f", "const:[2, 4]")
    assert proc.returncode == 0
    assert validated(proc.stdout)["value"] == {"kind": "vector",
                                               "values": [2.0, 8.0]}


@pytest.mark.parametrize("args", [
    ("integrate", "--f", "square", "--probes", "const:60"),
    ("integrate", "--f", "simple:0,0.5,1e300"),
    ("integrate", "--f", "simple:0,0.5,1e308", "--probes", "const:40"),
    # 0.5**1e6 underflows to a zero envelope
    ("integrate", "--f", "t", "--probes", "const:1000000"),
    ("integrate", "--f", "simple:0,0.5,1", "--probes", "const:1000000"),
])
def test_sub_resolution_gauges_exit_2(args):
    # gauges below float resolution used to hang (const:60), end in a
    # verdict on integrability (1e300) or in a traceback (1e308, whose tag
    # radius underflows to 0); the timeout turns a hang into a failure
    proc = run_cli(*args, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "float resolution" in proc.stderr
    assert "KH-integrable" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("form", ["square", "t"])
def test_gauges_too_small_to_sample_exit_2(form):
    # const:20 needs more than 2**20 partition pieces: square used to run
    # past 10 s, and t built a 2**21-cell partition for about 7 s
    proc = run_cli("integrate", "--f", form, "--probes", "const:20",
                   timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "more than 1048576 pieces" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_gauge_below_2e_5_is_sampled():
    # the random sampler's march used to count each cut as a depth level and
    # stop at 48 with "no fine cell for [0.9999786624672591, 1.0]"
    proc = run_cli("integrate", "--f", "square", "--probes", "const:15",
                   timeout=60)
    assert proc.returncode == 0, proc.stderr
    validated(proc.stdout)


def test_node_budget_ends_const_18_within_seconds():
    proc = run_cli("integrate", "--f", "square", "--probes", "const:18",
                   timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == ("error: a fine partition needs more than 1048576 "
                           "pieces: the gauge is too small to sample\n")


@pytest.mark.parametrize("key, value", [("max_depth", "3"),
                                        ("partition_samples", "8")])
def test_retired_config_keys_are_ignored(tmp_path, key, value):
    ini = tmp_path / "old.ini"
    ini.write_text(f"[run]\nseed = 7\n{key} = {value}\n")
    assert load_config(str(ini)) == load_config(None, {"seed": "7"})


def one_line_error(proc) -> bool:
    return (proc.returncode == 1 and proc.stderr.startswith("error: ")
            and len(proc.stderr.splitlines()) == 1)


def test_unwritable_out_path_exits_1(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run_cli("integrate", "--f", "t", "--out", str(target))
    assert one_line_error(proc), proc.stderr
    assert "No such file or directory" in proc.stderr


def test_closed_stdout_exits_1():
    # the read end is closed before the process starts, so every write to
    # stdout fails with a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rieszgauge.cli", "suite", "lattice",
             "--seed", "42"], stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=300)
    finally:
        os.close(write_end)
    assert one_line_error(proc), proc.stderr
    assert "standard output was closed" in proc.stderr


def test_config_without_section_header_exits_1(tmp_path):
    ini = tmp_path / "flat.ini"
    ini.write_text("value_space = scalar\n")
    proc = run_cli("--config", str(ini), "integrate", "--f", "t")
    assert one_line_error(proc), proc.stderr
    assert "no section headers" in proc.stderr


def test_probe_override():
    proc = run_cli("integrate", "--f", "t", "--probes", "const:3,identity")
    assert proc.returncode == 0
    payload = validated(proc.stdout)
    assert [p["phi"] for p in payload["probes"]] == ["const:3", "identity"]


def run_main(capsys, *argv):
    """Exit code, stdout and stderr lines of ``cli.main`` in process."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err.splitlines()


#: [-1, 1] on [0.25, 0.75]: the integral is [-0.5, 0.5], and the meet of the
#: standard envelopes is r = 2**-9, so the edges sit at -/+(0.5 + r).
JUMP_SET = 'simple:[{"set": [[0.25,0.75]], "lo": -1, "hi": 1}]'
R = 2.0 ** -9


def test_phi_point_beyond_the_lower_edge_is_a_non_member(capsys):
    # z + r = -0.500001975 < -0.5 = ∫lo: no gauge brings a set-sum within r
    code, out, err = run_main(capsys, "phi", "--F", JUMP_SET,
                              "--member", "-0.5019551")
    assert (code, err) == (0, ["non-member"])
    assert validated(out)["member"]["verdict"] is False


@pytest.mark.parametrize("edge", [-0.5 - R, 0.5 + R])
def test_phi_point_on_an_edge_exits_2_undecided(capsys, edge):
    code, out, err = run_main(capsys, "phi", "--F", JUMP_SET,
                              f"--member={edge!r}")
    assert (code, out, len(err)) == (2, "", 1)
    assert err[0].startswith("error: undecided membership: ")
    inward = -1.0 if edge > 0 else 1.0
    for shift, verdict in ((inward, "member"), (-inward, "non-member")):
        z = edge + shift * 0.01 * R
        code, out, err = run_main(capsys, "phi", "--F", JUMP_SET,
                                  f"--member={z!r}")
        assert (code, err) == (0, [verdict])


def test_phi_negative_member_in_exponent_notation(capsys):
    # argparse reads a bare "-1e-3" as an option; the documented form binds
    # it to --member
    code, out, err = run_main(capsys, "phi", "--F", "const:0,1",
                              "--member=-1e-3")
    assert (code, err) == (0, ["member"])
    assert validated(out)["member"]["point"]["value"] == -1e-3
    code, out, err = run_main(capsys, "phi", "--F", "const:0,1",
                              "--member=-3e-3")
    assert (code, err) == (0, ["non-member"])


#: A probe index beyond float range.
HUGE = "9" * 400


@pytest.mark.parametrize("command, exit_code", [
    (("integrate", "--f", "t"), 2),
    (("phi", "--F", "const:0,1", "--member", "0.5"), 0),
], ids=["integrate", "phi"])
@pytest.mark.parametrize("probe", [f"const:{HUGE}", f"affine:1:{HUGE}",
                                   f"affine:{HUGE}:0"],
                         ids=["const", "offset", "slope"])
def test_probe_beyond_float_range_ends_as_const_1e300(capsys, command,
                                                      exit_code, probe):
    # 0.5 to such a power underflows to 0.0, as 0.5**(10**300) does; its
    # conversion to float used to end in an OverflowError traceback
    code, out, err = run_main(capsys, *command, "--probes", probe)
    assert (code, len(err)) == (exit_code, 1)
    want = run_main(capsys, *command, "--probes", f"const:{10 ** 300}")
    assert (code, err) == (want[0], want[2])


@pytest.mark.parametrize("space, m0, message", [
    ("scalar", "0", "must be nonzero"),
    ("scalar", "-1", "must be nonnegative"),
    ("vector:2", "[-1, 1]", "must be nonnegative"),
    ("c00", "{}", "must be nonzero"),
])
def test_bad_m0_exits_1_with_one_line(tmp_path, capsys, space, m0, message):
    ini = tmp_path / "m0.ini"
    ini.write_text(f"[space]\nvalue_space = {space}\nm0 = {m0}\n")
    for command in (["integrate", "--f", "t"], ["suite", "lattice"]):
        code, out, err = run_main(capsys, "--config", str(ini), *command)
        assert (code, out) == (1, "")
        assert err == [f"error: bad m0 {m0!r}: the measure generator "
                       f"{message}"]


@pytest.mark.parametrize("base", ["inf", "nan", "-inf"])
def test_non_finite_regulator_base_exits_1(tmp_path, capsys, base):
    ini = tmp_path / "reg.ini"
    ini.write_text(f"[regulator]\nregulator = geometric:{base}:0.5:0.5\n")
    code, out, err = run_main(capsys, "--config", str(ini), "phi", "--F",
                              "const:0,1", "--member", "1e300")
    assert (code, out) == (1, "")
    assert err == [f"error: bad regulator spec 'geometric:{base}:0.5:0.5': "
                   f"geometric base must be finite"]


def test_a_suite_trial_that_raises_fails_its_property(tmp_path, capsys):
    # with a zero regulator every envelope is 0: membership at an edge is
    # undecided and no gauge certifies a varying integrand; the suite still
    # reports every property
    ini = tmp_path / "zero.ini"
    ini.write_text("[regulator]\nregulator = zero\n")
    code, out, err = run_main(capsys, "--config", str(ini), "suite",
                              "setvalued")
    assert (code, err) == (2, [])
    properties = validated(out)["suites"][0]["properties"]
    assert len(properties) == 8
    failed = {p["name"]: p["detail"] for p in properties if not p["passed"]}
    assert sorted(failed) == ["constant_oracle_and_membership",
                              "phi_closedness", "phi_convexity",
                              "single_valued_reduction"]
    assert failed["constant_oracle_and_membership"].startswith(
        "MembershipUndecided: undecided membership: ")
    assert failed["phi_convexity"] == (
        "GaugeConstructionFailed: an envelope that is zero or below float "
        "resolution cannot certify a varying integrand")


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; no call leaves anything in it
    # for the next: a usage error, a --json report, the same report pretty,
    # then a report under a config file
    golden = REPO / "tests" / "golden" / "cli"
    manifest = json.loads((golden / "cases.json").read_text())
    code, out, err = run_main(capsys, "integrate")
    assert (code, out) == (1, "")
    assert err[-1] == ("rieszgauge integrate: error: the following arguments "
                       "are required: --f")
    union = ["integrate", "--f", "simple:0,0.5,2;0.5,1,1",
             "--on", "[0,0.25]+[0.5,1]"]
    name = "default-integrate-simple-union-json"
    compact = (golden / f"{name}.stdout").read_text()
    assert run_main(capsys, *union, "--json")[:2] == (
        manifest[name]["exit"], compact)
    assert run_main(capsys, *union)[:2] == (
        0, report.dumps(json.loads(compact)))
    name = "vector2-integrate-t"
    assert run_main(capsys, "--config", str(golden / "vector2.ini"),
                    "integrate", "--f", "t", "--on", "[0,1]")[:2] == (
        manifest[name]["exit"], (golden / f"{name}.stdout").read_text())
    assert cli._build_parser() is cli._build_parser()
