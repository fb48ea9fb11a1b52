"""Quick-mode checks of the benchmark, with no timing gate.

Every workload runs its short operation list untraced and traced, passes
every correctness check, and reports each metric that ``BENCHMARK.json``
declares, with its unit.  A second traced run with the same seed repeats
every count exactly, and a checkout without the sources is refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SEED = "7"


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick():
    """One ``--quick`` run of every workload, untraced and traced."""
    return _last_json(_run("--quick", "--seed", SEED))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("mode,section", [("untraced", "end_to_end"),
                                          ("traced", "per_layer")])
def test_quick_run_is_correct_and_complete(quick, workload, mode, section):
    result = quick[workload][mode]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0


def test_end_to_end_metrics_are_never_zero(quick):
    for workload in WORKLOADS:
        for m in quick[workload]["untraced"]["metrics"].values():
            assert m["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(quick, workload):
    again = _last_json(_run("--quick", "--workload", workload, "--seed", SEED,
                            "--seconds", "1", "--trace", "1"))
    first = quick[workload]["traced"]["metrics"]
    for name, m in first.items():
        if m["unit"] in ("count", "bytes"):
            assert again["metrics"][name]["value"] == m["value"], name


def test_refused_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
