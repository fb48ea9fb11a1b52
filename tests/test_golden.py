"""Reports of the README's command forms and of ``suite all --seed 42``,
compared byte for byte with the goldens under ``tests/golden/cli``.

Each case runs in-process through ``cli.main`` under one of three configs:
the defaults (scalars), the README's ``vector:2`` config, and c00 with
``m0 = {"1": 1}``.  A case pins its exit code, its stdout and its stderr.
``tests/golden/README.md`` gives the command that regenerates the goldens.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from rieszgauge import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
MANIFEST = GOLDEN / "cases.json"

#: Config file per config name; None runs on the defaults.
CONFIGS = {"default": None, "vector2": "vector2.ini", "c00": "c00.ini"}


def _two_pieces(lo0, hi0, lo1, hi1):
    return (f'simple:[{{"set": [[0,0.5]], "lo": {lo0}, "hi": {hi0}}}, '
            f'{{"set": [[0.5,1]], "lo": {lo1}, "hi": {hi1}}}]')


TWO = {"default": _two_pieces(0, 1, 2, 3),
       "vector2": _two_pieces("[0, 0]", "[1, 1]", "[2, 2]", "[3, 3]"),
       "c00": _two_pieces('{"1": 0}', '{"1": 1}', '{"1": 2}', '{"1": 3}')}

CASES = {
    "default-integrate-t": ("default", ["integrate", "--f", "t", "--on", "[0,1]"]),
    "default-integrate-square-non-dyadic": (
        "default", ["integrate", "--f", "square", "--on", "[0.1,0.7]"]),
    "default-integrate-simple": (
        "default", ["integrate", "--f", "simple:0,0.5,2;0.5,1,1"]),
    "default-integrate-simple-union-json": (
        "default", ["integrate", "--f", "simple:0,0.5,2;0.5,1,1",
                    "--on", "[0,0.25]+[0.5,1]", "--json"]),
    "default-integrate-counterexample": (
        "default", ["integrate", "--f", "counterexample"]),
    "default-phi-const-member": (
        "default", ["phi", "--F", "const:0,1", "--member", "0.5"]),
    "default-phi-simple": ("default", ["phi", "--F", TWO["default"]]),
    "default-phi-interval-member": (
        "default", ["phi", "--F", "interval:neg_t,t", "--member", "0"]),
    "default-compare-simple": (
        "default", ["compare", "--F", TWO["default"], "--on", "[0,1]"]),
    "default-suite-all": ("default", ["suite", "all", "--seed", "42"]),
    "default-counterexample": ("default", ["counterexample", "--n-max", "20"]),

    "vector2-integrate-t": ("vector2", ["integrate", "--f", "t", "--on", "[0,1]"]),
    "vector2-integrate-square-union": (
        "vector2", ["integrate", "--f", "square", "--on", "[0,0.25]+[0.5,1]"]),
    "vector2-integrate-const": ("vector2", ["integrate", "--f", "const:[2, 4]"]),
    "vector2-integrate-simple": (
        "vector2", ["integrate", "--f", "simple:0,0.5,[2, 1];0.5,1,[1, 1]"]),
    "vector2-integrate-counterexample": (
        "vector2", ["integrate", "--f", "counterexample"]),
    "vector2-phi-interval-member": (
        "vector2", ["phi", "--F", "interval:neg_t,t", "--member", "[0.25, 0.5]"]),
    "vector2-phi-simple": ("vector2", ["phi", "--F", TWO["vector2"]]),
    "vector2-compare-simple": (
        "vector2", ["compare", "--F", TWO["vector2"], "--on", "[0,1]"]),

    "c00-integrate-t": ("c00", ["integrate", "--f", "t", "--on", "[0,1]"]),
    "c00-integrate-simple": (
        "c00", ["integrate", "--f", 'simple:0,0.5,{"1": 2};0.5,1,{"1": 1}']),
    "c00-integrate-counterexample": (
        "c00", ["integrate", "--f", "counterexample"]),
    "c00-phi-const-member": (
        "c00", ["phi", "--F", 'const:{"1": 0},{"1": 1}',
                "--member", '{"1": 0.5}']),
    "c00-phi-simple": ("c00", ["phi", "--F", TWO["c00"]]),
    "c00-compare-simple": ("c00", ["compare", "--F", TWO["c00"], "--on", "[0,1]"]),
}


def run_case(name: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one case, run through ``cli.main``."""
    config, args = CASES[name]
    argv = list(args)
    if CONFIGS[config] is not None:
        argv = ["--config", str(GOLDEN / CONFIGS[config])] + argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))[name]
    code, out, err = run_case(name)
    assert code == want["exit"]
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err == want["stderr"]


def test_manifest_lists_every_case():
    assert sorted(json.loads(MANIFEST.read_text(encoding="utf-8"))) == sorted(CASES)


def regenerate() -> None:
    """Rewrite every golden from the current program."""
    manifest = {}
    for name in sorted(CASES):
        code, out, err = run_case(name)
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode())
        manifest[name] = {"exit": code, "stderr": err}
        print(f"{name}: exit {code}, {len(out)} bytes", file=sys.__stdout__)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    regenerate()
