"""Seeded property suites behind the ``suite`` command.

Each suite runs the structural checks of one part of the library and reports
per-property trial counts and the worst slack observed (negative slack means
headroom; anything above zero fails).  Random data uses dyadic rationals so
the checks advertised as exact really are exact in floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .aumann import (Selection, aumann_integral, comparison_simple,
                     default_mixes, selection_is_valid)
from .config import RunConfig
from .domain import (BorelSet, Gauge, Interval, MeasureSpec, cousin_partition,
                     is_fine, measure, partition_borel, regularity_witness,
                     sigma_additivity_check)
from .errors import (EmptySelectionFamily, NotCertifiable, NotDisjoint)
from .integrands import (CounterexampleC00, PointwiseScalar, SCALAR_FORMS,
                         SimpleIntegrand)
from .integrate import (counterexample_unboundedness, integral_additivity_check,
                        kh_integrate, riemann_sum)
from .domain import TaggedPartition
from .regulators import (AffineMap, ConstantMap, ExponentialMap, Geometric,
                         IdentityMap, ShiftedMap, d_limit_check, envelope,
                         fremlin_combine, max_envelope, min_envelope,
                         regulator_entry)
from .setvalued import (ConstantSet, IntervalValued, OrderInterval, SimpleSet,
                        dot_sum, phi_closedness_check, phi_convexity_check,
                        phi_interval_oracle, phi_membership,
                        phi_monotonicity_check, respects_global_bound,
                        riemann_set_sum, set_scale, singleton_multifunction)
from .values import (ORDER_SLACK, Scalar, SparseSeq, Vector, leq,
                     max_coordinate, mul, zero_like)

SUITE_NAMES = ("lattice", "measure", "integral", "setvalued", "aumann",
               "counterexample")


@dataclass
class PropertyResult:
    name: str
    trials: int
    passed: bool
    worst_slack: float
    detail: str = ""


@dataclass
class SuiteResult:
    name: str
    properties: list[PropertyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def add(self, name, trials, passed, worst_slack=0.0, detail=""):
        self.properties.append(
            PropertyResult(name, trials, bool(passed), float(worst_slack),
                           detail))


# ---------------------------------------------------------------------------
# seeded generators (dyadic so exactness claims hold in floating point)
# ---------------------------------------------------------------------------

def _rng(config: RunConfig, label: str) -> random.Random:
    return random.Random(f"{config.seed}:{label}")


def _dyadic(rng, lo=-16.0, hi=16.0):
    return rng.randrange(int(lo * 256), int(hi * 256) + 1) / 256.0


def _rand_value(rng, config: RunConfig, lo=-16.0, hi=16.0):
    if config.value_space == "scalar":
        return Scalar(_dyadic(rng, lo, hi))
    if config.value_space.startswith("vector"):
        dim = len(config.unit().values)
        return Vector(_dyadic(rng, lo, hi) for _ in range(dim))
    return SparseSeq((rng.randint(1, 10), _dyadic(rng, lo, hi))
                     for _ in range(rng.randint(0, 3)))


def _grid_points(rng, count, cells=64):
    return sorted(rng.sample(range(cells + 1), count))


def _rand_borel(rng, max_comps=3) -> BorelSet:
    comps = rng.randint(1, max_comps)
    pts = _grid_points(rng, 2 * comps)
    return BorelSet.from_pairs(
        [[pts[2 * i] / 64.0, pts[2 * i + 1] / 64.0] for i in range(comps)])


def _rand_disjoint_pair(rng) -> tuple[BorelSet, BorelSet]:
    pts = [p / 64.0 for p in _grid_points(rng, 4)]
    return (BorelSet.from_pairs([[pts[0], pts[1]]]),
            BorelSet.from_pairs([[pts[2], pts[3]]]))


def _rand_tiling(rng, max_pieces, cells=128) -> list[BorelSet]:
    """Disjoint sets cut from a sorted breakpoint grid (gaps allowed)."""
    count = rng.randint(1, max_pieces)
    pts = [p / cells for p in _grid_points(rng, 2 * count, cells)]
    return [BorelSet.from_pairs([[pts[2 * i], pts[2 * i + 1]]])
            for i in range(count) if pts[2 * i + 1] > pts[2 * i]]


def _rand_simple_integrand(rng, config: RunConfig, max_pieces=8) -> SimpleIntegrand:
    pieces = []
    for part in _rand_tiling(rng, max_pieces):
        pieces.append((part, _rand_value(rng, config)))
    if not pieces:
        pieces.append((BorelSet.from_pairs([[0.0, 0.5]]),
                       _rand_value(rng, config)))
    return SimpleIntegrand(tuple(pieces))


def _rand_interval(rng, config: RunConfig, centered=False) -> OrderInterval:
    a = _rand_value(rng, config)
    b = _rand_value(rng, config)
    lo, hi = a.meet(b), a.join(b)
    if centered:
        spread = abs(lo).join(abs(hi))
        return OrderInterval(zero_like(spread) - spread, spread)
    return OrderInterval(lo, hi)


def _rand_simple_set(rng, config: RunConfig, max_pieces=5,
                     centered=False) -> SimpleSet:
    pieces = []
    for part in _rand_tiling(rng, max_pieces):
        pieces.append((part, _rand_interval(rng, config, centered)))
    if not pieces:
        pieces.append((BorelSet.from_pairs([[0.25, 0.75]]),
                       _rand_interval(rng, config, centered)))
    return SimpleSet(tuple(pieces))


def _rand_geometric(rng, config: RunConfig) -> Geometric:
    base = abs(_rand_value(rng, config, 0.25, 4.0))
    if base.is_zero():
        base = config.unit()
    row = rng.choice((0.25, 0.5, 0.75, 1.0))
    col = rng.choice((0.25, 0.5, 0.75, 0.9))
    return Geometric(base, row, col)


# ---------------------------------------------------------------------------
# lattice suite
# ---------------------------------------------------------------------------

def suite_lattice(config: RunConfig) -> SuiteResult:
    out = SuiteResult("lattice")
    probes = config.probes

    rng = _rng(config, "lattice_laws")
    worst = 0.0
    ok = True
    trials = 1000
    for _ in range(trials):
        a = _rand_value(rng, config)
        b = _rand_value(rng, config)
        w = _rand_value(rng, config)
        ok &= a.join(b) == b.join(a) and a.meet(b) == b.meet(a)
        ok &= a.meet(a.join(b)) == a
        ok &= leq(a, a.join(b)) and leq(b, a.join(b))
        ok &= leq(zero_like(a), abs(a))
        lhs = a.join(b) + a.meet(b)
        worst = max(worst, (lhs - (a + b)).sup_norm())
        ok &= lhs == a + b
        ok &= abs(mul(a, w)) == mul(abs(a), abs(w))
        ok &= abs(a.scale(2.5)) == abs(a).scale(2.5)
    out.add("lattice_laws", trials, ok, worst)

    rng = _rng(config, "antitone")
    ok = True
    worst = 0.0
    trials = 40
    for _ in range(trials):
        reg = _rand_geometric(rng, config)
        for i in range(1, 11):
            for j in range(1, 11):
                a, b = regulator_entry(reg, i, j), regulator_entry(reg, i, j + 1)
                ok &= leq(b, a, ORDER_SLACK)
                worst = max(worst, max_coordinate(b - a) - ORDER_SLACK)
    out.add("regulator_antitonicity", trials, ok, worst)

    rng = _rng(config, "envelope_enum")
    ok = True
    worst = 0.0
    trials = 40
    for _ in range(trials):
        reg = _rand_geometric(rng, config)
        phi = rng.choice(probes)
        env = envelope(reg, phi)
        brute = zero_like(env)
        for i in range(1, 201):
            brute = brute.join(regulator_entry(reg, i, phi.eval(i)))
        worst = max(worst, (brute - env).sup_norm() - ORDER_SLACK,
                    (env - brute).sup_norm() - ORDER_SLACK)
        ok &= leq(brute, env, ORDER_SLACK) and leq(env, brute, ORDER_SLACK)
    out.add("envelope_matches_enumeration", trials, ok, worst)

    rng = _rng(config, "env_monotone")
    pairs = [(ConstantMap(2), ConstantMap(5)),
             (ConstantMap(1), IdentityMap()),
             (IdentityMap(), AffineMap(2, 0)),
             (IdentityMap(), ExponentialMap()),
             (AffineMap(1, 4), AffineMap(2, 4))]
    ok = True
    worst = 0.0
    trials = 24
    for _ in range(trials):
        reg = _rand_geometric(rng, config)
        smaller, larger = rng.choice(pairs)
        lo_env = envelope(reg, larger)
        hi_env = envelope(reg, smaller)
        ok &= leq(lo_env, hi_env, ORDER_SLACK)
        worst = max(worst, max_coordinate(lo_env - hi_env) - ORDER_SLACK)
    out.add("envelope_monotone_in_probe", trials, ok, worst)

    rng = _rng(config, "weak_sigma")
    ok = True
    worst = 0.0
    trials = 30
    for _ in range(trials):
        reg = _rand_geometric(rng, config)
        prev = None
        for c in range(1, 16):
            env = envelope(reg, ConstantMap(c))
            cap = reg.base.scale(reg.row_scale * reg.col_scale ** c)
            ok &= leq(env, cap, ORDER_SLACK)
            worst = max(worst, max_coordinate(env - cap) - ORDER_SLACK)
            if prev is not None:
                ok &= leq(env, prev, ORDER_SLACK)
            prev = env
        ok &= envelope(reg, ConstantMap(60)).sup_norm() <= 0.9 ** 60 * (
            reg.base.sup_norm() + 1.0)
    out.add("weak_sigma_distributivity_witness", trials, ok, worst)

    rng = _rng(config, "fremlin")
    ok = True
    worst = 0.0
    trials = 5
    for _ in range(trials):
        members = tuple(_rand_geometric(rng, config)
                        for _ in range(rng.randint(1, 5)))
        u = abs(_rand_value(rng, config, 0.5, 12.0))
        if u.is_zero():
            u = config.unit()
        combined = fremlin_combine(members, u)
        for phi in probes:
            rhs = envelope(combined, phi)
            partial = zero_like(u)
            for s in range(1, 51):
                if s <= len(members):
                    partial = partial + envelope(
                        members[s - 1], ShiftedMap(phi, s))
                lhs = u.meet(partial)
                ok &= leq(lhs, rhs, ORDER_SLACK)
                worst = max(worst, max_coordinate(lhs - rhs) - ORDER_SLACK)
    out.add("fremlin_combination_dominates", trials, ok, worst)

    rng = _rng(config, "d_limit")
    ok = True
    trials = 12
    unit = config.unit()
    reg = config.regulator
    env_min = min_envelope(reg, probes)
    for _ in range(trials):
        r = _rand_value(rng, config)
        seq = [r + unit.scale(((-1) ** n) * 2.0 ** (-n)) for n in range(1, 61)]
        ok &= d_limit_check(seq, r, reg, probes)
        near = r + env_min.scale(0.9)
        far = r + env_min.scale(3.0) + unit.scale(1e-9)
        for candidate in (r, near, far):
            if d_limit_check(seq, candidate, reg, probes):
                gap = abs(candidate - r)
                ok &= leq(gap, env_min.scale(2.0), ORDER_SLACK)
        ok &= not d_limit_check([unit.scale(1.0 / n) for n in range(1, 101)],
                                unit.scale(0.5), reg, (ConstantMap(6),))
    out.add("d_limit_uniqueness", trials, ok)

    return out


# ---------------------------------------------------------------------------
# measure suite
# ---------------------------------------------------------------------------

def suite_measure(config: RunConfig) -> SuiteResult:
    out = SuiteResult("measure")
    spec = config.measure_spec()

    rng = _rng(config, "additivity")
    ok = True
    worst = 0.0
    trials = 200
    for _ in range(trials):
        a, b = _rand_disjoint_pair(rng)
        gap = measure(spec, a.union(b)) - (measure(spec, a) + measure(spec, b))
        worst = max(worst, abs(gap).sup_norm() - 1e-12)
        ok &= abs(gap).sup_norm() <= 1e-12
    out.add("measure_finitely_additive", trials, ok, worst)

    rng = _rng(config, "monotone")
    ok = True
    trials = 200
    for _ in range(trials):
        b = _rand_borel(rng)
        a = b.intersection(_rand_borel(rng))
        ok &= leq(measure(spec, a), measure(spec, b), ORDER_SLACK)
    out.add("measure_monotone", trials, ok)

    rng = _rng(config, "cousin")
    ok = True
    worst = 0.0
    trials = 25
    for _ in range(trials):
        kind = rng.randrange(3)
        if kind == 0:
            gauge = Gauge.constant(rng.uniform(0.05, 0.6))
        elif kind == 1:
            breaks = (0.0, rng.choice((0.25, 0.5, 0.75)), 1.0)
            gauge = Gauge.piecewise(
                breaks, (rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.3)))
        else:
            anchors = sorted(rng.uniform(0.05, 0.95)
                             for _ in range(rng.randint(1, 3)))
            gauge = Gauge.anchored(anchors, rng.uniform(0.004, 0.05))
        region = _rand_borel(rng)
        part = partition_borel(gauge, region, config.max_depth)
        ok &= is_fine(part, gauge)
        drift = abs(part.total_length() - region.length())
        worst = max(worst, drift - 1e-12)
        ok &= drift <= 1e-12 and part.covers(region)
    out.add("cousin_partition_roundtrip", trials, ok, worst)

    ok = True
    trials = 8
    rng = _rng(config, "cousin_reject")
    for _ in range(trials):
        gauge = Gauge.constant(rng.uniform(0.2, 0.5))
        part = cousin_partition(gauge, Interval(0.0, 1.0), config.max_depth)
        reach = max(max(tag - cell.lo, cell.hi - tag)
                    for cell, tag in part.items)
        tighter = Gauge.constant(reach * 0.9)
        ok &= not is_fine(part, tighter)
    out.add("fineness_rejects_tight_gauge", trials, ok)

    rng = _rng(config, "regularity")
    ok = True
    worst = 0.0
    trials = 40
    for _ in range(trials):
        region = _rand_borel(rng)
        reg = _rand_geometric(rng, config)
        phi = rng.choice(config.probes)
        inner, outer = regularity_witness(spec, region, reg, phi)
        ok &= region.contains_set(inner) and outer.contains_set(region)
        ok &= outer.is_open
        gap = measure(spec, outer) - measure(spec, inner)
        env = envelope(reg, phi)
        ok &= leq(gap, env, ORDER_SLACK)
        worst = max(worst, max_coordinate(gap - env) - ORDER_SLACK)
    out.add("regularity_witness_bound", trials, ok, worst)

    dyadic = [BorelSet.from_pairs([[2.0 ** (-k), 2.0 ** (-k + 1)]])
              for k in range(1, 21)]
    ok = sigma_additivity_check(spec, dyadic, spec.m0.scale(2.0 ** (-20)))
    rng = _rng(config, "sigma")
    trials = 30
    for _ in range(trials):
        family = _rand_tiling(rng, 6)
        if not family:
            continue
        ok &= sigma_additivity_check(spec, family, zero_like(spec.m0))
    try:
        sigma_additivity_check(
            spec,
            [BorelSet.from_pairs([[0.0, 0.6]]), BorelSet.from_pairs([[0.5, 1.0]])],
            zero_like(spec.m0))
        ok = False
    except NotDisjoint:
        pass
    out.add("sigma_additivity", trials + 1, ok)

    return out


# ---------------------------------------------------------------------------
# integral suite
# ---------------------------------------------------------------------------

def suite_integral(config: RunConfig) -> SuiteResult:
    out = SuiteResult("integral")
    spec = config.measure_spec()
    reg = config.regulator
    probes = config.probes
    whole = BorelSet.whole()
    kw = dict(samples=config.partition_samples, max_depth=config.max_depth)

    linear = PointwiseScalar(SCALAR_FORMS["t"], config.unit())
    cert = kh_integrate(linear, whole, spec, reg, probes,
                        seed=f"{config.seed}:lin", **kw)
    drift = (cert.value - mul(config.unit(), spec.m0).scale(0.5)).sup_norm()
    out.add("linear_integrand_value", 1, drift <= 1e-9, drift - 1e-9)

    rng = _rng(config, "simple_exact")
    ok = True
    worst = 0.0
    trials = 30
    for t in range(trials):
        f = _rand_simple_integrand(rng, config)
        expected = mul(f.zero_value(), spec.m0)
        for part, v in f.pieces:
            expected = expected + mul(v, spec.m0.scale(part.length()))
        got = kh_integrate(f, whole, spec, reg, probes,
                           seed=f"{config.seed}:simple:{t}", **kw).value
        drift = (got - expected).sup_norm()
        worst = max(worst, drift - 1e-12)
        ok &= drift <= 1e-12
    out.add("simple_integrand_exact", trials, ok, worst)

    rng = _rng(config, "addlin")
    ok = True
    trials = 10
    for t in range(trials):
        if rng.random() < 0.5:
            f = _rand_simple_integrand(rng, config, max_pieces=4)
        else:
            form = rng.choice(("t", "one_minus_t", "square"))
            f = PointwiseScalar(SCALAR_FORMS[form], config.unit(),
                                coeff=_dyadic(rng, 0.25, 3.0))
        a, b = _rand_disjoint_pair(rng)
        ok &= integral_additivity_check(f, a, b, spec, reg, probes,
                                        seed=f"{config.seed}:al:{t}", **kw)
    out.add("additivity_positivity_linearity", trials, ok)

    rng = _rng(config, "uniqueness")
    ok = True
    trials = 5
    cap = min_envelope(reg, probes).scale(2.0)
    for t in range(trials):
        f = _rand_simple_integrand(rng, config, max_pieces=4)
        one = kh_integrate(f, whole, spec, reg, probes,
                           seed=f"{config.seed}:u1:{t}", **kw).value
        two = kh_integrate(f, whole, spec, reg, probes,
                           seed=f"{config.seed}:u2:{t}", **kw).value
        ok &= leq(abs(one - two), cap, ORDER_SLACK)
    out.add("certificate_uniqueness", trials, ok)

    rng = _rng(config, "hereditary")
    ok = True
    trials = 5
    for t in range(trials):
        region = _rand_borel(rng, max_comps=3)
        f = _rand_simple_integrand(rng, config, max_pieces=3)
        kh_integrate(f, region, spec, reg, probes,
                     seed=f"{config.seed}:h:{t}", **kw)
        for comp in region.components:
            kh_integrate(f, BorelSet((comp,)), spec, reg, probes,
                         seed=f"{config.seed}:hc:{t}", **kw)
    out.add("hereditary_integrability", trials, ok)

    try:
        kh_integrate(CounterexampleC00(), whole, MeasureSpec(Scalar(1.0)),
                     reg, probes, **kw)
        out.add("counterexample_refused", 1, False)
    except NotCertifiable:
        out.add("counterexample_refused", 1, True)

    return out


# ---------------------------------------------------------------------------
# set-valued suite
# ---------------------------------------------------------------------------

def _builtin_interval_multifunctions(config: RunConfig):
    unit = config.unit()
    ramp_band = IntervalValued(
        PointwiseScalar(SCALAR_FORMS["half_t"], unit),
        PointwiseScalar(SCALAR_FORMS["t"], unit))
    symmetric_ramp = IntervalValued(
        PointwiseScalar(SCALAR_FORMS["neg_t"], unit),
        PointwiseScalar(SCALAR_FORMS["t"], unit))
    return ramp_band, symmetric_ramp


def suite_setvalued(config: RunConfig) -> SuiteResult:
    out = SuiteResult("setvalued")
    spec = config.measure_spec()
    reg = config.regulator
    probes = config.probes
    whole = BorelSet.whole()
    kw = dict(partition_samples=config.partition_samples,
              max_depth=config.max_depth)
    accepted: list[tuple] = []

    def member(z, F, region, tag) -> bool:
        ok = phi_membership(z, F, region, spec, reg, probes,
                            seed=f"{config.seed}:{tag}", **kw)
        if ok:
            accepted.append((z, F))
        return ok

    rng = _rng(config, "dot_sum")
    ok = True
    worst = 0.0
    trials = 1000
    for _ in range(trials):
        a = _rand_interval(rng, config)
        b = _rand_interval(rng, config)
        c = _rand_interval(rng, config)
        left = dot_sum([dot_sum([a, b]), c])
        right = dot_sum([a, dot_sum([b, c])])
        worst = max(worst, (left.lo - right.lo).sup_norm(),
                    (left.hi - right.hi).sup_norm())
        ok &= left == right
        ok &= dot_sum([a, b]) == dot_sum([b, a])
        zero = OrderInterval.singleton(zero_like(a.lo))
        ok &= dot_sum([a, zero]) == a
        ok &= leq(left.lo, left.hi)
    out.add("dot_sum_algebra", trials, ok, worst)

    rng = _rng(config, "commuta")
    ok = True
    worst = 0.0
    trials = 10
    for t in range(trials):
        F = _rand_simple_set(rng, config, max_pieces=4)
        per_piece = []
        items = []
        for part, _ in F.pieces:
            gauge = Gauge.constant(rng.uniform(0.05, 0.3))
            sub = partition_borel(gauge, part, config.max_depth)
            items.extend(sub.items)
            per_piece.append(riemann_set_sum(F, sub, spec))
        items.sort(key=lambda item: item[0].lo)
        whole_part = TaggedPartition(tuple(items))
        grouped = dot_sum(per_piece)
        direct = riemann_set_sum(F, whole_part, spec)
        drift = max((grouped.lo - direct.lo).sup_norm(),
                    (grouped.hi - direct.hi).sup_norm())
        worst = max(worst, drift - ORDER_SLACK)
        ok &= drift <= ORDER_SLACK
    out.add("per_piece_grouping_identity", trials, ok, worst)

    rng = _rng(config, "costante")
    ok = True
    worst = 0.0
    env_min = min_envelope(reg, probes)
    unit = config.unit()
    trials = 15
    for t in range(trials):
        C = _rand_interval(rng, config)
        F = ConstantSet(C)
        region = _rand_borel(rng)
        oracle = phi_interval_oracle(F, region, spec, reg, probes)
        expected = set_scale(C, measure(spec, region))
        drift = max((oracle.lo - expected.lo).sup_norm(),
                    (oracle.hi - expected.hi).sup_norm())
        worst = max(worst, drift - 1e-12)
        ok &= drift <= 1e-12
        for alpha in (0.0, 0.5, 1.0):
            z = oracle.lo.scale(1 - alpha) + oracle.hi.scale(alpha)
            ok &= member(z, F, region, f"cm:{t}:{alpha}")
        far = env_min.scale(2.0) + unit.scale(1e-9)
        ok &= not member(oracle.hi + far, F, region, f"co:{t}:hi")
        ok &= not member(oracle.lo - far, F, region, f"co:{t}:lo")
    out.add("constant_oracle_and_membership", trials, ok, worst)

    ramp_band, symmetric_ramp = _builtin_interval_multifunctions(config)
    rng = _rng(config, "structure")
    fams = [ConstantSet(_rand_interval(rng, config)),
            _rand_simple_set(rng, config, max_pieces=3),
            ramp_band, symmetric_ramp]
    ok = True
    for i, F in enumerate(fams):
        ok &= phi_convexity_check(F, whole, spec, reg, probes, trials=2,
                                  seed=f"{config.seed}:cv:{i}", **kw)
    out.add("phi_convexity", len(fams), ok)

    ok = True
    for i, F in enumerate(fams):
        ok &= phi_closedness_check(F, whole, spec, reg, probes,
                                   seed=f"{config.seed}:cl:{i}", **kw)
    out.add("phi_closedness", len(fams), ok)

    rng = _rng(config, "monotone")
    ok = True
    trials = 20
    for t in range(trials):
        if rng.random() < 0.5:
            F = ConstantSet(_rand_interval(rng, config, centered=True))
        else:
            F = _rand_simple_set(rng, config, max_pieces=3, centered=True)
        b_set = _rand_borel(rng)
        a_set = b_set.intersection(_rand_borel(rng))
        ok &= phi_monotonicity_check(F, a_set, b_set, spec, reg, probes,
                                     seed=f"{config.seed}:mn:{t}", **kw)
    out.add("phi_monotone_in_set", trials, ok)

    ok = True
    worst = 0.0
    for z, F in accepted:
        cap_ok = respects_global_bound(z, F, spec)
        cap = mul(F.bound(), spec.total())
        worst = max(worst, max_coordinate(abs(z) - cap) - ORDER_SLACK)
        ok &= cap_ok
    out.add("membership_respects_global_bound", len(accepted), ok, worst)

    ok = True
    trials = 3
    for t, name in enumerate(("t", "one_minus_t", "square")):
        f = PointwiseScalar(SCALAR_FORMS[name], config.unit())
        F = singleton_multifunction(f)
        value = kh_integrate(f, whole, spec, reg, probes,
                             samples=config.partition_samples,
                             seed=f"{config.seed}:sv:{t}",
                             max_depth=config.max_depth).value
        ok &= phi_membership(value, F, whole, spec, reg, probes,
                             seed=f"{config.seed}:svm:{t}", **kw)
        far = max_envelope(reg, probes).scale(3.0) + unit.scale(1e-6)
        ok &= not phi_membership(value + far, F, whole, spec, reg, probes,
                                 seed=f"{config.seed}:svf:{t}", **kw)
    out.add("single_valued_reduction", trials, ok)

    return out


# ---------------------------------------------------------------------------
# aumann suite
# ---------------------------------------------------------------------------

def suite_aumann(config: RunConfig) -> SuiteResult:
    out = SuiteResult("aumann")
    spec = config.measure_spec()
    reg = config.regulator
    probes = config.probes
    whole = BorelSet.whole()
    kw = dict(partition_samples=config.partition_samples,
              max_depth=config.max_depth)
    grid = [i / 32.0 for i in range(33)]

    rng = _rng(config, "sandwich")
    ok = True
    trials = 20
    ramp_band, symmetric_ramp = _builtin_interval_multifunctions(config)
    for t in range(trials):
        F = rng.choice((_rand_simple_set(rng, config, 3), ramp_band,
                        symmetric_ramp))
        mixes = default_mixes(F)
        mix = rng.choice(mixes)
        sel = Selection(F, ((BorelSet.whole(), float(mix)),)
                        if isinstance(mix, float) else tuple(mix))
        ok &= selection_is_valid(sel, grid)
    try:
        Selection(ConstantSet(_rand_interval(rng, config)),
                  ((BorelSet.whole(), 2.0),)).integrand()
        out.add("mix_range_rejected", 1, False)
    except ValueError:
        out.add("mix_range_rejected", 1, True)
    out.add("selection_sandwich", trials, ok)

    rng = _rng(config, "hull")
    ok = True
    worst = 0.0
    trials = 6
    for t in range(trials):
        F = _rand_simple_set(rng, config, 4)
        res = aumann_integral(F, whole, spec, reg, probes, mixes=(0.0, 1.0),
                              seed=f"{config.seed}:hull:{t}", **kw)
        oracle = phi_interval_oracle(F, whole, spec, reg, probes)
        drift = max((res.hull.lo - oracle.lo).sup_norm(),
                    (res.hull.hi - oracle.hi).sup_norm())
        worst = max(worst, drift - 1e-12)
        ok &= drift <= 1e-12
    for t, F in enumerate((ramp_band, symmetric_ramp)):
        res = aumann_integral(F, whole, spec, reg, probes, mixes=(0.0, 1.0),
                              seed=f"{config.seed}:hullIV:{t}", **kw)
        iv_oracle = phi_interval_oracle(F, whole, spec, reg, probes,
                                        seed=f"{config.seed}:hullOR:{t}", **kw)
        drift = max((res.hull.lo - iv_oracle.lo).sup_norm(),
                    (res.hull.hi - iv_oracle.hi).sup_norm())
        ok &= drift <= 1e-9
    out.add("hull_matches_oracle", trials + 2, ok, worst,
            detail="interval-valued agreement is observed, not asserted as a theorem")

    rng = _rng(config, "hull_monotone")
    ok = True
    trials = 4
    for t in range(trials):
        F = _rand_simple_set(rng, config, 3)
        small = aumann_integral(F, whole, spec, reg, probes, mixes=(0.0, 1.0),
                                seed=f"{config.seed}:hm:{t}", **kw).hull
        big = aumann_integral(F, whole, spec, reg, probes,
                              mixes=(0.0, 0.25, 0.5, 0.75, 1.0),
                              seed=f"{config.seed}:hm:{t}", **kw).hull
        ok &= leq(big.lo, small.lo, ORDER_SLACK) and leq(small.hi, big.hi,
                                                         ORDER_SLACK)
    out.add("hull_monotone_in_mixes", trials, ok)

    rng = _rng(config, "comparison")
    ok = True
    worst = 0.0
    trials = 10
    for t in range(trials):
        F = _rand_simple_set(rng, config, 5)
        region = _rand_borel(rng)
        rep = comparison_simple(F, region, spec, reg, probes,
                                seed=f"{config.seed}:cmp:{t}", **kw)
        ok &= rep.passed
        worst = max(worst, rep.max_discrepancy)
    out.add("simple_comparison_three_way", trials, ok, worst)

    rng = _rng(config, "empty_overlap")
    ok = True
    trials = 3
    for t in range(trials):
        F = SimpleSet(((BorelSet.from_pairs([[0.0, 0.25]]),
                        _rand_interval(rng, config)),))
        region = BorelSet.from_pairs([[0.5, 0.875]])
        rep = comparison_simple(F, region, spec, reg, probes,
                                seed=f"{config.seed}:eo:{t}", **kw)
        zero = mul(F.zero_value(), spec.m0)
        ok &= rep.passed
        ok &= (rep.sum_formula.lo - zero).is_zero(1e-12)
        ok &= (rep.sum_formula.hi - zero).is_zero(1e-12)
    out.add("disjoint_support_collapses_to_zero", trials, ok)

    try:
        aumann_integral(ramp_band, whole, spec, reg, probes, mixes=(), **kw)
        out.add("empty_mix_family_rejected", 1, False)
    except EmptySelectionFamily:
        out.add("empty_mix_family_rejected", 1, True)

    return out


# ---------------------------------------------------------------------------
# counterexample suite
# ---------------------------------------------------------------------------

def suite_counterexample(config: RunConfig) -> SuiteResult:
    out = SuiteResult("counterexample")
    report = counterexample_unboundedness(20, max_depth=config.max_depth)
    ok_fine = all(e.fine for e in report.entries)
    ok_dom = all(e.dominated and e.lambda_n > 0.0 for e in report.entries)
    ok_support = all(e.support == tuple(range(2, e.n + 1))
                     for e in report.entries)
    out.add("forced_partitions_fine", len(report.entries), ok_fine)
    out.add("sum_dominates_spike", len(report.entries), ok_dom)
    out.add("support_grows_with_n", len(report.entries), ok_support)
    out.add("family_unbounded", 1, report.verdict == "UNBOUNDED",
            detail=f"verdict={report.verdict}")

    # tags (128k + 17)/2048 are never reciprocals: 128k + 17 is an odd
    # divisor of no power of two
    spec = MeasureSpec(Scalar(1.0))
    items = tuple(
        (Interval(k / 8.0, (k + 1) / 8.0), k / 8.0 + 17.0 / 2048.0)
        for k in range(8))
    part = TaggedPartition(items)
    clean = all(
        CounterexampleC00().value_at(tag).is_zero()
        for _, tag in part.items)
    ok = clean and is_fine(part, Gauge.constant(0.25))
    total = riemann_sum(CounterexampleC00(), part, spec)
    out.add("vanishes_off_the_spikes", len(part.items), ok and total.is_zero())
    return out


# ---------------------------------------------------------------------------
# front door
# ---------------------------------------------------------------------------

def run_suites(names, config: RunConfig) -> list[SuiteResult]:
    chosen: list[str] = []
    for name in names:
        if name == "all":
            chosen.extend(SUITE_NAMES)
        elif name in SUITE_NAMES:
            chosen.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}")
    runners = {
        "lattice": suite_lattice,
        "measure": suite_measure,
        "integral": suite_integral,
        "setvalued": suite_setvalued,
        "aumann": suite_aumann,
        "counterexample": suite_counterexample,
    }
    return [runners[name](config) for name in chosen]
