"""What the cheap suites draw and check, pinned by a digest.

A suite's report shows only verdicts and slacks, so it cannot tell whether a
refactor still checks the same data.  This test runs ``lattice``, ``measure``
and ``counterexample`` under the default, ``vector2.ini`` and ``c00.ini``
configs with seed 42 and hashes, in order, every ``random()`` and
``getrandbits()`` result and the name and arguments of every library
function called from ``rieszgauge.suites`` (results are left out).  The
digests are compared with ``tests/golden/suite_traces.json``;
``tests/golden/README.md`` gives the command that regenerates it.
"""

import hashlib
import json
import random
import re
import sys
import types
from pathlib import Path

import pytest

from rieszgauge import suites
from rieszgauge.config import load_config
from rieszgauge.domain import TaggedPartition

GOLDEN = Path(__file__).resolve().parent / "golden"
TRACES = GOLDEN / "suite_traces.json"
CONFIGS = {"default": None, "vector2": "vector2.ini", "c00": "c00.ini"}
SUITES = ("lattice", "measure", "counterexample")
_ADDR = re.compile(r"0x[0-9a-fA-F]+")


def _show(value) -> str:
    if isinstance(value, TaggedPartition):
        return f"TaggedPartition({value.triples!r})"
    return _ADDR.sub("0x", repr(value))


def trace(config_name: str, suite: str) -> dict:
    """Run one suite with every draw and library call fed to a digest."""
    digest = hashlib.sha256()
    counts = {"draws": 0, "calls": 0}

    def feed(kind, text):
        counts[kind] += 1
        digest.update(f"{text}\n".encode())

    draw, bits = random.Random.random, random.Random.getrandbits

    def traced_random(rng):
        x = draw(rng)
        feed("draws", f"random {x!r}")
        return x

    def traced_bits(rng, k):
        x = bits(rng, k)
        feed("draws", f"getrandbits {k} {x!r}")
        return x

    def wrap(name, fn):
        def traced(*args, **kwargs):
            shown = [_show(a) for a in args]
            shown += [f"{k}={_show(v)}" for k, v in sorted(kwargs.items())]
            feed("calls", f"{name}({', '.join(shown)})")
            return fn(*args, **kwargs)
        return traced

    library = {name: fn for name, fn in vars(suites).items()
               if isinstance(fn, types.FunctionType)
               and fn.__module__.startswith("rieszgauge.")
               and fn.__module__ != suites.__name__}
    ini = CONFIGS[config_name]
    config = load_config(None if ini is None else str(GOLDEN / "cli" / ini),
                         {"seed": "42"})
    random.Random.random, random.Random.getrandbits = traced_random, traced_bits
    for name, fn in library.items():
        setattr(suites, name, wrap(name, fn))
    try:
        (result,) = suites.run_suites([suite], config)
    finally:
        random.Random.random, random.Random.getrandbits = draw, bits
        for name, fn in library.items():
            setattr(suites, name, fn)
    return {"passed": result.passed, "sha256": digest.hexdigest(), **counts}


def _cases():
    return [f"{c}-{s}" for c in CONFIGS for s in SUITES]


@pytest.mark.parametrize("case", _cases())
def test_suite_trace_is_pinned(case):
    expected = json.loads(TRACES.read_text())[case]
    got = trace(*case.split("-"))
    assert got["passed"]
    assert got == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_suite_trace.py --regenerate")
    TRACES.write_text(json.dumps({case: trace(*case.split("-"))
                                  for case in _cases()}, indent=2) + "\n")
