"""The benchmark's three workloads: seeded operation lists and their checks.

Each workload is a list of rounds, and every round holds the same kinds of
operation in the same proportions, drawn from ``random.Random(f"{seed}:
{workload}:{round}")``.  An operation is one call into the program; its
check compares the result with a value from :mod:`reference`, computed apart
from the program, and returns ``None`` when the result is right or the
reason when it is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref
from rieszgauge import cli
from rieszgauge.domain import BorelSet, MeasureSpec
from rieszgauge.integrands import SimpleIntegrand, named_integrand
from rieszgauge.integrate import IntegralCertificate, kh_integrate
from rieszgauge.regulators import Geometric, standard_probes
from rieszgauge.setvalued import (ConstantSet, IntervalValued, OrderInterval,
                                  SimpleSet, phi_membership)
from rieszgauge.values import Scalar, SparseSeq, Vector

SCHEMA_PATH = (Path(__file__).resolve().parent.parent / "docs"
               / "report.schema.json")

PROBES = standard_probes()
ENVELOPES = ref.standard_envelopes()
#: A point beyond the integral interval by more than this, in one coordinate
#: of the measure's support, is not a member (unit regulator base).
NON_MEMBER_STEP = 2.5 * max(ENVELOPES.values()) + 1e-6

FORMS = ("t", "one_minus_t", "square")
BANDS = (("half_t", "t"), ("neg_t", "t"), ("neg_t", "square"), ("square", "t"))
WHOLE = [(0.0, 1.0)]
HALF = [(0.0, 0.5)]

#: Operations that fail on every run because of faults in the program; they
#: count as failed and leave ``correct`` true.
KNOWN_FAULTS = frozenset({"cli:integrate-nan", "cli:counterexample-nmax1"})


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def build(workload: str, seed: int, rounds: int,
          quick: bool) -> list[list[Op]]:
    """The operation list of a run, as ``rounds`` rounds."""
    builder = BUILDERS[workload]
    out = []
    for r in range(rounds):
        rng = random.Random(f"{seed}:{workload}:{r}")
        out.append(builder(rng, f"{seed}:{r}", r, quick))
    return out


def judge(op: Op, result) -> "str | None":
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    try:
        return op.check(result)
    except Exception as exc:  # a malformed result must not stop the run
        return f"check failed on the result: {type(exc).__name__}: {exc}"


def _pieces(rng, count: int, draw) -> list:
    """``count`` disjoint intervals on the 1/128 grid, each with a drawn
    payload."""
    pts = sorted(rng.sample(range(129), 2 * count))
    return [([(pts[2 * k] / 128, pts[2 * k + 1] / 128)], draw())
            for k in range(count)]


def _simple_values(rng, count: int) -> list:
    """Pieces with dyadic values, one of them +-16 so that every integrand has the
    same sup bound and hence anchored gauges of the same depth."""
    pieces = _pieces(rng, count, lambda: ref.dyadic(rng))
    j = rng.randrange(count)
    pieces[j] = (pieces[j][0], rng.choice((-16.0, 16.0)))
    return pieces


def _cycle(n: int, k: int) -> int:
    """1..k in turn: the piece and part counts cycle instead of being drawn,
    so that every seed gets the same mix of costs."""
    return 1 + n % k


def _borel(region) -> BorelSet:
    return BorelSet.from_pairs([list(c) for c in region])


# ---------------------------------------------------------------------------
# certify: scalar kh_integrate over the standard probes
# ---------------------------------------------------------------------------

SCALAR_SPEC = MeasureSpec(Scalar(1.0))
SCALAR_REG = Geometric(Scalar(1.0), 0.5, 0.5)


def _check_certificate(cert, expected: float, tol: float) -> "str | None":
    if not isinstance(cert, IntegralCertificate):
        return f"returned {type(cert).__name__}, not a certificate"
    got = cert.value.value
    if not abs(got - expected) <= tol:
        return f"value {got!r}, expected {expected!r} within {tol}"
    names = sorted(r.probe.describe() for r in cert.probe_reports)
    if names != sorted(ENVELOPES):
        return f"probes reported {names}"
    for r in cert.probe_reports:
        name = r.probe.describe()
        dev = r.max_deviation.sup_norm()
        if not dev <= ENVELOPES[name] + 1e-12:
            return f"deviation {dev!r} above the {name} envelope"
        if r.samples < 1:
            return f"probe {name} rests on no sample"
    return None


def _certify_round(rng, tag: str, r: int, quick: bool) -> list[Op]:
    ops = []
    per_round = 2 if quick else 14
    for i in range(per_round):
        pieces = _simple_values(rng, _cycle(r * per_round + i, 8))
        region = WHOLE
        f = SimpleIntegrand(tuple((_borel(part), Scalar(v))
                                  for part, v in pieces))
        expected = ref.piece_sum([(p, {0: v}) for p, v in pieces], region,
                                 {0: 1.0})[0]
        E, seed = _borel(region), f"{tag}:s{i}"
        ops.append(Op(
            "certify:simple",
            lambda f=f, E=E, seed=seed: kh_integrate(
                f, E, SCALAR_SPEC, SCALAR_REG, PROBES, seed=seed),
            lambda cert, x=expected: _check_certificate(cert, x, 1e-12)))
    for i in range(3 if quick else 6):
        name = FORMS[i % len(FORMS)]
        region = ref.union_of_length(rng, _cycle(r + i // 3, 3), 32)
        f = named_integrand(name, Scalar(1.0))
        expected = ref.form_integral(name, region)
        E, seed = _borel(region), f"{tag}:f{i}"
        ops.append(Op(
            "certify:form",
            lambda f=f, E=E, seed=seed: kh_integrate(
                f, E, SCALAR_SPEC, SCALAR_REG, PROBES, seed=seed),
            lambda cert, x=expected: _check_certificate(cert, x, 1e-9)))
    return ops


# ---------------------------------------------------------------------------
# membership: phi_membership in the vector:2 and c00 lattices
# ---------------------------------------------------------------------------

class Lattice:
    """A value lattice with its measure generator and unit regulator; points
    are dicts over ``coords``."""

    def __init__(self, name: str, coords: tuple, m0: dict, draw_coords: tuple):
        self.name = name
        self.coords = coords
        self.m0 = m0
        self.draw_coords = draw_coords
        self.unit = self.value({k: 1.0 for k in coords})
        self.spec = MeasureSpec(self.value(m0))
        self.reg = Geometric(self.unit, 0.5, 0.5)

    def value(self, d: dict):
        if self.name == "vector":
            return Vector([d.get(k, 0.0) for k in self.coords])
        return SparseSeq({k: x for k, x in d.items() if x != 0.0})

    def draw(self, rng) -> dict:
        if self.name == "vector":
            return {k: ref.dyadic(rng) for k in self.coords}
        keys = sorted(rng.sample(self.draw_coords,
                                 rng.randint(1, len(self.draw_coords))))
        return {k: ref.dyadic(rng) for k in keys}

    def interval(self, rng) -> tuple[dict, dict]:
        a, b = self.draw(rng), self.draw(rng)
        keys = sorted(set(a) | set(b))
        return ({k: min(a.get(k, 0.0), b.get(k, 0.0)) for k in keys},
                {k: max(a.get(k, 0.0), b.get(k, 0.0)) for k in keys})

    def order_interval(self, lo: dict, hi: dict) -> OrderInterval:
        return OrderInterval(self.value(lo), self.value(hi))


#: vector:2 with m0 = [1, 2] as in the README's config example, and c00 with
#: the same generator on indices 1 and 2 (values also draw index 3, which
#: the measure annihilates).
LATTICES = (Lattice("vector", (0, 1), {0: 1.0, 1: 2.0}, (0, 1)),
            Lattice("c00", (1, 2), {1: 1.0, 2: 2.0}, (1, 2, 3)))


def _point(rng, lo: dict, hi: dict, member: bool) -> dict:
    """A point inside the reference interval ``[lo, hi]``, whose keys are the
    coordinates of the measure's support, or one beyond it by more than
    ``NON_MEMBER_STEP`` in one of them."""
    if member:
        return ref.combine(lo, hi, rng.randint(1, 7) / 8.0)
    z = ref.combine(lo, hi, 0.5)
    k = rng.choice(sorted(lo))
    step = NON_MEMBER_STEP * (1.25 + 0.75 * rng.random())
    z[k] = hi[k] + step if rng.random() < 0.5 else lo[k] - step
    return z


def _verdict_op(kind, z, F, region, lat, member, seed) -> Op:
    zv, E = lat.value(z), _borel(region)

    def check(verdict):
        if verdict is not member:
            return (f"verdict {verdict!r} for a "
                    f"{'member' if member else 'non-member'}")
        return None
    return Op(kind,
              lambda: phi_membership(zv, F, E, lat.spec, lat.reg, PROBES,
                                     seed=seed),
              check)


def _membership_round(rng, tag: str, r: int, quick: bool) -> list[Op]:
    """One verdict of each cheap kind (simple or constant set, member or
    not, in each lattice), then band non-members in vector:2 and c00, then
    one band member, the lattice alternating by round.  The proportions put
    the median among the vector non-members and the 90th percentile among
    the c00 non-members."""
    ops = []
    cheap = [(lat, kind, member) for lat in LATTICES
             for kind in ("simple", "constant") for member in (True, False)]
    for i, (lat, kind, member) in enumerate(cheap[::3] if quick else cheap):
        region = ref.union(rng)
        if kind == "simple":
            pieces = _pieces(rng, _cycle(r + i, 5), lambda: lat.interval(rng))
            F = SimpleSet(tuple((_borel(part), lat.order_interval(lo, hi))
                                for part, (lo, hi) in pieces))
            lo = ref.piece_sum([(p, lo) for p, (lo, _) in pieces], region,
                               lat.m0)
            hi = ref.piece_sum([(p, hi) for p, (_, hi) in pieces], region,
                               lat.m0)
        else:
            clo, chi = lat.interval(rng)
            F = ConstantSet(lat.order_interval(clo, chi))
            ln = ref.length(region)
            lo = {k: clo.get(k, 0.0) * w * ln for k, w in lat.m0.items()}
            hi = {k: chi.get(k, 0.0) * w * ln for k, w in lat.m0.items()}
        z = _point(rng, lo, hi, member)
        ops.append(_verdict_op(f"membership:{kind}", z, F, region, lat,
                               member, f"{tag}:c{i}"))
    # Lipschitz bands, searching constant gauges up to level 13: non-members
    # on [0, 1/2] are rejected after the finest level; the member, the
    # midpoint of the integral over [0, 1], walks the whole level schedule
    bands = [(LATTICES[0], False, HALF)] * (1 if quick else 8)
    bands += [(LATTICES[1], False, HALF)] * (1 if quick else 7)
    bands.append((LATTICES[r % 2], True, WHOLE))
    for i, (lat, member, region) in enumerate(bands):
        lower, upper = BANDS[(i + r // 2) % len(BANDS)]
        F = IntervalValued(named_integrand(lower, lat.unit),
                           named_integrand(upper, lat.unit))
        lo = {k: ref.form_integral(lower, region) * w
              for k, w in lat.m0.items()}
        hi = {k: ref.form_integral(upper, region) * w
              for k, w in lat.m0.items()}
        z = ref.combine(lo, hi, 0.5) if member else _point(rng, lo, hi, False)
        kind = f"membership:band-{'member' if member else 'non-member'}"
        ops.append(_verdict_op(kind, z, F, region, lat, member, f"{tag}:b{i}"))
    return ops


# ---------------------------------------------------------------------------
# cli: the README's command forms, in-process through rieszgauge.cli.main
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliResult:
    code: object  # the exit code, or the exception that escaped main
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # judged by the check
            code = exc
    return CliResult(code, out.getvalue(), err.getvalue())


_VALIDATOR = []


def _report(res: CliResult, kind: str) -> "tuple[dict | None, str | None]":
    """The validated JSON report of a run that should exit 0."""
    if res.code != 0:
        return None, f"exit {res.code!r}, documented 0"
    if not _VALIDATOR:
        import jsonschema
        schema = json.loads(SCHEMA_PATH.read_text())
        _VALIDATOR.append(jsonschema.Draft7Validator(schema))
    payload = json.loads(res.stdout)
    errors = list(_VALIDATOR[0].iter_errors(payload))
    if errors:
        return None, f"report fails the schema: {errors[0].message}"
    if payload["report"] != kind:
        return None, f"report kind {payload['report']!r}, expected {kind!r}"
    return payload, None


def _scalar(v: dict) -> float:
    return v["value"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _set_arg(region) -> str:
    return "+".join(f"[{_fmt(lo)},{_fmt(hi)}]" for lo, hi in region)


def _flags(rng) -> list[str]:
    out = []
    if rng.random() < 0.5:
        out += ["--seed", str(rng.randrange(1000))]
    if rng.random() < 0.5:
        out.append("--json")
    return out


def _expect_certificate(expected: float, tol: float):
    def check(res):
        payload, err = _report(res, "certificate")
        if err:
            return err
        got = _scalar(payload["value"])
        if not abs(got - expected) <= tol:
            return f"value {got!r}, expected {expected!r} within {tol}"
        names = sorted(p["phi"] for p in payload["probes"])
        if names != sorted(ENVELOPES):
            return f"probes reported {names}"
        for p in payload["probes"]:
            if not p["maxDeviation"] <= ENVELOPES[p["phi"]] + 1e-12:
                return f"deviation above the {p['phi']} envelope"
        return None
    return check


def _expect_error(code: int):
    """A documented error exit with a one-line message and no report."""
    def check(res):
        if isinstance(res.code, BaseException):
            return (f"{type(res.code).__name__} escaped main: {res.code}; "
                    f"documented exit {code}")
        if res.code != code:
            return f"exit {res.code!r}, documented {code}"
        lines = res.stderr.strip().splitlines()
        if res.stdout or len(lines) != 1:
            return f"expected one message line, got {res.stderr!r}"
        return None
    return check


def _expect_oracle(lo: float, hi: float, tol: float, member=None):
    def check(res):
        payload, err = _report(res, "phi")
        if err:
            return err
        got = payload["oracle"]
        if not (abs(_scalar(got["lo"]) - lo) <= tol
                and abs(_scalar(got["hi"]) - hi) <= tol):
            return f"oracle {got}, expected [{lo!r}, {hi!r}]"
        if member is None:
            return None if "member" not in payload else "unasked verdict"
        verdict = payload.get("member", {}).get("verdict")
        if verdict is not member:
            return f"verdict {verdict!r}, expected {member}"
        return None
    return check


def _expect_comparison(lo: float, hi: float):
    def check(res):
        payload, err = _report(res, "comparison")
        if err:
            return err
        if payload["passed"] is not True:
            return "comparison did not pass"
        for key in ("sumFormula", "aumannHull", "phiOracle"):
            got = payload[key]
            tol = 1e-12 if key == "sumFormula" else 1e-9
            if not (abs(_scalar(got["lo"]) - lo) <= tol
                    and abs(_scalar(got["hi"]) - hi) <= tol):
                return f"{key} {got}, expected [{lo!r}, {hi!r}]"
        checks = payload["membershipChecks"]
        if not checks or not all(c["member"] for c in checks):
            return "a selection integral is not a member"
        return None
    return check


def _expect_unbounded(n_max: int):
    def check(res):
        payload, err = _report(res, "counterexample")
        if err:
            return err
        if payload["verdict"] != "UNBOUNDED":
            return f"verdict {payload['verdict']}"
        entries = payload["entries"]
        if [e["n"] for e in entries] != list(range(2, n_max + 1)):
            return "entries do not run over n = 2..n_max"
        for e in entries:
            if not (e["fine"] and e["dominated"]
                    and max(e["support"]) == e["n"]):
                return f"entry n={e['n']} is not fine, dominated, with top n"
        return None
    return check


def _simple_scalar_set(rng, count: int):
    """Pieces ``(part, lo, hi)`` of a simple scalar multifunction, one of
    them reaching 16."""
    out = [(part, min(a, b), max(a, b)) for part, (a, b) in _pieces(
        rng, count, lambda: (ref.dyadic(rng), ref.dyadic(rng)))]
    j = rng.randrange(count)
    out[j] = (out[j][0], out[j][1], 16.0)
    return out


def _simple_set_arg(pieces) -> str:
    return "simple:" + json.dumps([{"set": [list(c) for c in part],
                                    "lo": lo, "hi": hi}
                                   for part, lo, hi in pieces])


def _cli_round(rng, tag: str, r: int, quick: bool) -> list[Op]:
    """25 commands: 9 cheap ones (errors, constant and simple verdicts, the
    counterexample), 6 integrals of ``t`` and ``one_minus_t`` whose middle
    holds the median, 4 simple integrals and a band oracle above them, and
    5 comparisons (1..5 pieces) around the 90th percentile."""
    ops = []

    def add(kind, argv, check, flags=True):
        if flags:
            argv = argv + _flags(rng)
        ops.append(Op(f"cli:{kind}", lambda: call_cli(argv), check))

    for i in range(1 if quick else 4):
        pieces = _simple_values(rng, _cycle(4 * r + i, 8))
        spec = ";".join(f"{_fmt(p[0][0])},{_fmt(p[0][1])},{_fmt(v)}"
                        for p, v in pieces)
        expected = ref.piece_sum([(p, {0: v}) for p, v in pieces], WHOLE,
                                 {0: 1.0})[0]
        add("integrate-simple", ["integrate", "--f", f"simple:{spec}"],
            _expect_certificate(expected, 1e-12))
    for i in range(1 if quick else 6):
        name = FORMS[i % 2]
        region = ref.union_of_length(rng, _cycle(r + i, 3), 32)
        add("integrate-form",
            ["integrate", "--f", name, "--on", _set_arg(region)],
            _expect_certificate(ref.form_integral(name, region), 1e-9))
    add("integrate-counterexample", ["integrate", "--f", "counterexample"],
        lambda res: None if res.code == 2 else f"exit {res.code!r}, "
                                               f"documented 2")
    lo, hi = ref.union(rng, 1)[0]
    add("integrate-bad-set",
        ["integrate", "--f", rng.choice(FORMS), "--on", f"[{hi},{lo}]"],
        _expect_error(1))

    for member in ((True,) if quick else (True, False)):
        a, b = ref.dyadic(rng), ref.dyadic(rng)
        region = ref.union(rng)
        ln = ref.length(region)
        lo, hi = min(a, b) * ln, max(a, b) * ln
        z = _point(rng, {0: lo}, {0: hi}, member)[0]
        add("phi-constant",
            ["phi", "--F", f"const:{_fmt(min(a, b))},{_fmt(max(a, b))}",
             "--on", _set_arg(region), "--member", _fmt(z)],
            _expect_oracle(lo, hi, 1e-12, member))
    for member in ((False,) if quick else (True, False)):
        pieces = _simple_scalar_set(rng, _cycle(r + member, 5))
        region = ref.union(rng)
        lo = ref.piece_sum([(p, {0: x}) for p, x, _ in pieces], region,
                           {0: 1.0})[0]
        hi = ref.piece_sum([(p, {0: x}) for p, _, x in pieces], region,
                           {0: 1.0})[0]
        z = _point(rng, {0: lo}, {0: hi}, member)[0]
        add("phi-simple",
            ["phi", "--F", _simple_set_arg(pieces), "--on", _set_arg(region),
             "--member", _fmt(z)],
            _expect_oracle(lo, hi, 1e-12, member))
    lower, upper = BANDS[r % len(BANDS)]
    region = ref.union_of_length(rng, _cycle(r, 3), 32)
    add("phi-band",
        ["phi", "--F", f"interval:{lower},{upper}", "--on", _set_arg(region)],
        _expect_oracle(ref.form_integral(lower, region),
                       ref.form_integral(upper, region), 1e-9))
    for i in range(1 if quick else 5):
        pieces = _simple_scalar_set(rng, _cycle(i, 5))
        lo = ref.piece_sum([(p, {0: x}) for p, x, _ in pieces], WHOLE,
                           {0: 1.0})[0]
        hi = ref.piece_sum([(p, {0: x}) for p, _, x in pieces], WHOLE,
                           {0: 1.0})[0]
        add("compare", ["compare", "--F", _simple_set_arg(pieces), "--on",
                        "[0,1]"],
            _expect_comparison(lo, hi))
    n_max = 2 + r % 19
    add("counterexample",
        ["counterexample", "--n-max", str(n_max)], _expect_unbounded(n_max))
    # the two known faults: inputs that do not depend on the seed, and the
    # documented exit 1 with a one-line message
    add("integrate-nan", ["integrate", "--f", "const:nan"], _expect_error(1),
        flags=False)
    add("counterexample-nmax1", ["counterexample", "--n-max", "1"],
        _expect_error(1), flags=False)
    return ops


def report_bytes(results) -> int:
    """Bytes of JSON report written by the CLI operations among ``results``."""
    return sum(len(r.stdout.encode()) for r in results
               if isinstance(r, CliResult))


BUILDERS = {"certify": _certify_round, "membership": _membership_round,
            "cli": _cli_round}
