"""Acceptance criteria, one test per criterion.

Each test pins the stated tolerance, uses its own frozen seeds, and prints a
single PASS/FAIL line (run with ``pytest -v`` or ``-s`` to see them inline).
"""

import json
import subprocess
import sys
import time

from rieszgauge.aumann import comparison_simple
from rieszgauge.config import RunConfig
from rieszgauge.domain import (BorelSet, Gauge, is_fine, measure,
                               sigma_additivity_check)
from rieszgauge.integrate import (counterexample_partition,
                                  counterexample_unboundedness, kh_integrate)
from rieszgauge.regulators import (ShiftedMap, envelope, fremlin_combine,
                                   min_envelope, standard_probes)
from rieszgauge.setvalued import (ConstantSet, OrderInterval,
                                  dot_sum, phi_closedness_check,
                                  phi_convexity_check, phi_interval_oracle,
                                  phi_membership, phi_monotonicity_check,
                                  respects_global_bound, set_scale)
from rieszgauge.suites import (builtin_interval_multifunctions, rand_borel,
                               rand_geometric, rand_interval,
                               rand_simple_integrand, rand_simple_set,
                               rand_tiling, rand_value, seeded_rng)
from rieszgauge.values import Scalar, leq, mul, zero_like

CONFIG = RunConfig(seed=42)
SPEC = CONFIG.measure_spec()
REG = CONFIG.regulator
PROBES = standard_probes()
WHOLE = BorelSet.whole()

#: accepted set-valued members collected across the criteria, checked against
#: the global bound in criterion 8
ACCEPTED: list = []


def _report(number: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_linear_integrand_via_cli():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "rieszgauge.cli", "integrate", "--f", "t",
         "--on", "[0,1]"], capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - start
    ok = proc.returncode == 0
    payload = json.loads(proc.stdout)
    oracle = (1.0 ** 2 - 0.0 ** 2) / 2.0  # antiderivative of t
    ok &= abs(payload["value"]["value"] - oracle) <= 1e-9
    reported = {p["phi"] for p in payload["probes"]}
    ok &= reported == {p.describe() for p in PROBES}
    for entry in payload["probes"]:
        phi = next(p for p in PROBES if p.describe() == entry["phi"])
        ok &= entry["maxDeviation"] <= envelope(REG, phi).value + 1e-12
    ok &= elapsed < 1.0
    _report(1, f"CLI certifies integral of t as 0.5 +- 1e-9 for every "
               f"standard probe in {elapsed:.2f}s (< 1s)", ok)


def test_criterion_02_simple_integrands_exact():
    rng = seeded_rng(CONFIG, "acceptance:simple")
    start = time.monotonic()
    worst = 0.0
    for trial in range(100):
        f = rand_simple_integrand(rng, CONFIG, max_pieces=8)
        expected = mul(f.zero_value(), SPEC.m0)
        for part, v in f.pieces:
            expected = expected + mul(v, SPEC.m0.scale(part.length()))
        got = kh_integrate(f, WHOLE, SPEC, REG, PROBES,
                           seed=f"acc2:{trial}").value
        worst = max(worst, abs(got - expected).sup_norm())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(2, f"100 seeded simple integrands match the piece-sum to 1e-12 "
               f"(worst {worst:.2e}) in {elapsed:.2f}s (< 5s)", ok)


def test_criterion_03_counterexample_unbounded():
    start = time.monotonic()
    report = counterexample_unboundedness(20)
    ok = report.verdict == "UNBOUNDED"
    for entry in report.entries:
        ok &= entry.fine and entry.dominated and entry.lambda_n > 0.0
        ok &= max(entry.support) == entry.n
    # independent fineness recheck of one construction
    points = [1.0 / (20 + 1 - i) for i in range(1, 20)]
    delta = Gauge.constant(0.05, mandatory_tags=points)
    ok &= is_fine(counterexample_partition(20, delta), delta)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _report(3, f"spike sums dominate lambda_n * u_n for n=2..20 and the "
               f"family is UNBOUNDED in {elapsed:.2f}s (< 1s)", ok)


def test_criterion_04_constant_multifunction_oracle():
    rng = seeded_rng(CONFIG, "acceptance:costante")
    env_min = min_envelope(REG, PROBES)
    worst = 0.0
    ok = True
    for trial in range(50):
        C = rand_interval(rng, CONFIG)
        F = ConstantSet(C)
        region = rand_borel(rng)
        oracle = phi_interval_oracle(F, region, SPEC, REG, PROBES)
        expected = set_scale(C, measure(SPEC, region))
        worst = max(worst, (oracle.lo - expected.lo).sup_norm(),
                    (oracle.hi - expected.hi).sup_norm())
        for alpha in (0.0, 0.5, 1.0):
            z = oracle.lo.scale(1 - alpha) + oracle.hi.scale(alpha)
            inside = phi_membership(z, F, region, SPEC, REG, PROBES,
                                    seed=f"acc4:{trial}:{alpha}")
            ok &= inside
            if inside:
                ACCEPTED.append((z, F))
        step = env_min.scale(2.0) + Scalar(1e-9)
        ok &= not phi_membership(oracle.hi + step, F, region, SPEC, REG,
                                 PROBES, seed=f"acc4:{trial}:above")
        ok &= not phi_membership(oracle.lo - step, F, region, SPEC, REG,
                                 PROBES, seed=f"acc4:{trial}:below")
    ok &= worst <= 1e-12
    _report(4, f"50 seeded constant multifunctions: oracle equals the "
               f"endpoint product to 1e-12 (worst {worst:.2e}) and "
               f"membership resolves the grid within 2x the tightest "
               f"envelope", ok)


def test_criterion_05_simple_comparison():
    rng = seeded_rng(CONFIG, "acceptance:confronto")
    start = time.monotonic()
    worst = 0.0
    ok = True
    for trial in range(100):
        F = rand_simple_set(rng, CONFIG, max_pieces=5)
        region = rand_borel(rng)
        rep = comparison_simple(F, region, SPEC, REG, PROBES,
                                seed=f"acc5:{trial}")
        ok &= rep.passed
        worst = max(worst, rep.max_discrepancy)
        for point, flag in rep.membership_checks:
            ok &= flag
            if flag:
                ACCEPTED.append((point, F))
    elapsed = time.monotonic() - start
    ok &= worst <= 1e-9 and elapsed < 30.0
    _report(5, f"100 seeded simple multifunctions: piece-sum, selection "
               f"hull, and oracle agree to 1e-9 (worst {worst:.2e}) with "
               f"all selection points members, in {elapsed:.1f}s (< 30s)", ok)


def test_criterion_06_fremlin_domination():
    rng = seeded_rng(CONFIG, "acceptance:fremlin")
    violations = 0
    for _ in range(20):
        members = tuple(rand_geometric(rng, CONFIG)
                        for _ in range(rng.randint(1, 5)))
        u = abs(rand_value(rng, CONFIG, 0.5, 12.0))
        if u.is_zero():
            u = CONFIG.unit()
        combined = fremlin_combine(members, u)
        for phi in PROBES:
            rhs = envelope(combined, phi)
            partial = zero_like(u)
            for s in range(1, 51):
                if s <= len(members):
                    partial = partial + envelope(members[s - 1],
                                                 ShiftedMap(phi, s))
                if not leq(u.meet(partial), rhs, 1e-12):
                    violations += 1
    _report(6, f"20 seeded regulator families: the combination dominates "
               f"u meet the shifted envelope sums for every standard probe "
               f"and s <= 50 ({violations} violations)", violations == 0)


def test_criterion_07_sigma_additivity():
    dyadic = [BorelSet.from_pairs([[2.0 ** (-k), 2.0 ** (-k + 1)]])
              for k in range(1, 21)]
    ok = sigma_additivity_check(SPEC, dyadic, SPEC.m0.scale(2.0 ** (-20)))
    rng = seeded_rng(CONFIG, "acceptance:sigma")
    count = 0
    while count < 50:
        family = rand_tiling(rng, 6)
        if not family:
            continue
        count += 1
        ok &= sigma_additivity_check(SPEC, family, zero_like(SPEC.m0))
    _report(7, "sigma-additivity holds for the dyadic family with tail "
               "2^-20 and for 50 seeded finite disjoint families with "
               "tail 0", ok)


def test_criterion_08_phi_structure():
    rng = seeded_rng(CONFIG, "acceptance:structure")
    ramp_band, symmetric_ramp = builtin_interval_multifunctions(CONFIG)
    families = [ConstantSet(rand_interval(rng, CONFIG)),
                rand_simple_set(rng, CONFIG, max_pieces=3),
                ramp_band, symmetric_ramp]
    ok = True
    for i, F in enumerate(families):
        ok &= phi_convexity_check(F, WHOLE, SPEC, REG, PROBES, trials=2,
                                  seed=f"acc8:cv:{i}")
        ok &= phi_closedness_check(F, WHOLE, SPEC, REG, PROBES,
                                   seed=f"acc8:cl:{i}")
        oracle = phi_interval_oracle(F, WHOLE, SPEC, REG, PROBES,
                                     seed=f"acc8:or:{i}")
        for alpha in (0.0, 1.0):
            z = oracle.lo.scale(1 - alpha) + oracle.hi.scale(alpha)
            if phi_membership(z, F, WHOLE, SPEC, REG, PROBES,
                              seed=f"acc8:mb:{i}:{alpha}"):
                ACCEPTED.append((z, F))
    for trial in range(20):
        if rng.random() < 0.5:
            F = ConstantSet(rand_interval(rng, CONFIG, centered=True))
        else:
            F = rand_simple_set(rng, CONFIG, max_pieces=3, centered=True)
        b_set = rand_borel(rng)
        a_set = b_set.intersection(rand_borel(rng))
        ok &= phi_monotonicity_check(F, a_set, b_set, SPEC, REG, PROBES,
                                     seed=f"acc8:mn:{trial}")
    bound_ok = all(respects_global_bound(z, F, SPEC) for z, F in ACCEPTED)
    _report(8, f"convexity/closedness pass for constant, simple, and both "
               f"built-in interval multifunctions; monotonicity passes for "
               f"20 nested pairs; the global bound holds for all "
               f"{len(ACCEPTED)} accepted members", ok and bound_ok)


def test_criterion_09_dot_sum_and_lattice_exact():
    rng = seeded_rng(CONFIG, "acceptance:algebra")
    ok = True
    for _ in range(1000):
        a = rand_interval(rng, CONFIG)
        b = rand_interval(rng, CONFIG)
        c = rand_interval(rng, CONFIG)
        ok &= dot_sum([dot_sum([a, b]), c]) == dot_sum([a, dot_sum([b, c])])
        ok &= dot_sum([a, b]) == dot_sum([b, a])
        zero = OrderInterval.singleton(zero_like(a.lo))
        ok &= dot_sum([a, zero]) == a
        x = rand_value(rng, CONFIG)
        y = rand_value(rng, CONFIG)
        ok &= x.join(y) + x.meet(y) == x + y
        ok &= x.meet(x.join(y)) == x
        ok &= abs(mul(x, y)) == mul(abs(x), abs(y))
    _report(9, "1000 seeded trials of dot-sum associativity, commutativity, "
               "identity, and the lattice laws, all exact", ok)


def test_criterion_10_suite_determinism():
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "rieszgauge.cli", "suite", "all",
             "--seed", "42"], capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()[:500]
        runs.append(proc.stdout)
    ok = runs[0] == runs[1] and len(runs[0]) > 0
    payload = json.loads(runs[0])
    ok &= payload["passed"] is True
    _report(10, "suite all --seed 42 twice yields byte-identical JSON and "
                "all properties pass", ok)
