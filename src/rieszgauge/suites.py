"""Seeded property suites behind the ``suite`` command.

Each suite runs the structural checks of one part of the library and reports
per-property trial counts and the worst slack observed (negative slack means
headroom; anything above zero fails).  Random data uses dyadic rationals so
the checks advertised as exact really are exact in floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .aumann import (aumann_integral, comparison_simple, default_mixes,
                     normalize_mix, selection, selection_is_valid)
from .config import RunConfig
from .domain import (BorelSet, Gauge, Interval, MeasureSpec, TaggedPartition,
                     cousin_partition, is_fine, measure, partition_borel,
                     regularity_witness, sigma_additivity_check)
from .errors import (EmptySelectionFamily, NotCertifiable, NotDisjoint,
                     RieszGaugeError)
from .integrands import (CounterexampleC00, PointwiseScalar, SCALAR_FORMS,
                         SimpleIntegrand)
from .integrate import (counterexample_unboundedness, integral_additivity_check,
                        kh_integrate, riemann_sum)
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

    def run(self, name, rng, trials, trial):
        """Add the property that ``trial(rng, t)`` checks for ``t`` in
        ``range(trials)``; each trial returns ``(held, slack)``.  A trial
        that raises a library error fails the property, whose detail names
        the error, and the suite goes on."""
        try:
            folded = _fold(trial(rng, t) for t in range(trials))
        except RieszGaugeError as exc:
            self.add(name, trials, False,
                     detail=f"{type(exc).__name__}: {exc}")
        else:
            self.add(name, trials, *folded)


def _fold(checks) -> tuple[bool, float]:
    """``(held, slack)`` over ``(held, slack)`` pairs: whether every check
    held, and the largest slack, floored at 0.0."""
    held, worst = True, 0.0
    for ok, slack in checks:
        held &= bool(ok)
        worst = max(worst, slack)
    return held, worst


def _below(cap, x) -> tuple[bool, float]:
    """``(held, slack)`` for ``x <= cap`` up to ``ORDER_SLACK``."""
    return leq(x, cap, ORDER_SLACK), max_coordinate(x - cap) - ORDER_SLACK


# ---------------------------------------------------------------------------
# seeded generators (dyadic so exactness claims hold in floating point)
# ---------------------------------------------------------------------------

def seeded_rng(config: RunConfig, label: str) -> random.Random:
    return random.Random(f"{config.seed}:{label}")


def _dyadic(rng, lo=-16.0, hi=16.0):
    return rng.randrange(int(lo * 256), int(hi * 256) + 1) / 256.0


def rand_value(rng, config: RunConfig, lo=-16.0, hi=16.0):
    if config.value_space == "scalar":
        return Scalar(_dyadic(rng, lo, hi))
    if config.value_space.startswith("vector"):
        dim = len(config.unit().values)
        return Vector(_dyadic(rng, lo, hi) for _ in range(dim))
    return SparseSeq((rng.randint(1, 10), _dyadic(rng, lo, hi))
                     for _ in range(rng.randint(0, 3)))


def _grid_points(rng, count, cells=64):
    return sorted(rng.sample(range(cells + 1), count))


def rand_borel(rng, max_comps=3) -> BorelSet:
    comps = rng.randint(1, max_comps)
    pts = _grid_points(rng, 2 * comps)
    return BorelSet.from_pairs(
        [[pts[2 * i] / 64.0, pts[2 * i + 1] / 64.0] for i in range(comps)])


def _rand_disjoint_pair(rng) -> tuple[BorelSet, BorelSet]:
    pts = [p / 64.0 for p in _grid_points(rng, 4)]
    return (BorelSet.from_pairs([[pts[0], pts[1]]]),
            BorelSet.from_pairs([[pts[2], pts[3]]]))


def rand_tiling(rng, max_pieces, cells=128) -> list[BorelSet]:
    """Disjoint sets cut from a sorted breakpoint grid (gaps allowed)."""
    count = rng.randint(1, max_pieces)
    pts = [p / cells for p in _grid_points(rng, 2 * count, cells)]
    return [BorelSet.from_pairs([[pts[2 * i], pts[2 * i + 1]]])
            for i in range(count) if pts[2 * i + 1] > pts[2 * i]]


def rand_simple_integrand(rng, config: RunConfig, max_pieces=8) -> SimpleIntegrand:
    pieces = []
    for part in rand_tiling(rng, max_pieces):
        pieces.append((part, rand_value(rng, config)))
    if not pieces:
        pieces.append((BorelSet.from_pairs([[0.0, 0.5]]),
                       rand_value(rng, config)))
    return SimpleIntegrand(tuple(pieces))


def rand_interval(rng, config: RunConfig, centered=False) -> OrderInterval:
    a = rand_value(rng, config)
    b = rand_value(rng, config)
    lo, hi = a.meet(b), a.join(b)
    if centered:
        spread = abs(lo).join(abs(hi))
        return OrderInterval(zero_like(spread) - spread, spread)
    return OrderInterval(lo, hi)


def rand_simple_set(rng, config: RunConfig, max_pieces=5,
                    centered=False) -> SimpleSet:
    pieces = []
    for part in rand_tiling(rng, max_pieces):
        pieces.append((part, rand_interval(rng, config, centered)))
    if not pieces:
        pieces.append((BorelSet.from_pairs([[0.25, 0.75]]),
                       rand_interval(rng, config, centered)))
    return SimpleSet(tuple(pieces))


def rand_geometric(rng, config: RunConfig) -> Geometric:
    """A geometric regulator whose base is at least 0.25 on every coordinate
    of :meth:`RunConfig.regulator_unit`, so that its envelopes are positive
    wherever the measure charges."""
    base = abs(rand_value(rng, config, 0.25, 4.0)).join(
        config.regulator_unit().scale(0.25))
    row = rng.choice((0.25, 0.5, 0.75, 1.0))
    col = rng.choice((0.25, 0.5, 0.75, 0.9))
    return Geometric(base, row, col)


def builtin_interval_multifunctions(config: RunConfig):
    unit = config.unit()
    ramp_band = IntervalValued(
        PointwiseScalar(SCALAR_FORMS["half_t"], unit),
        PointwiseScalar(SCALAR_FORMS["t"], unit))
    symmetric_ramp = IntervalValued(
        PointwiseScalar(SCALAR_FORMS["neg_t"], unit),
        PointwiseScalar(SCALAR_FORMS["t"], unit))
    return ramp_band, symmetric_ramp


# ---------------------------------------------------------------------------
# lattice suite
# ---------------------------------------------------------------------------

def suite_lattice(config: RunConfig) -> SuiteResult:
    out = SuiteResult("lattice")
    probes = config.probes

    def laws(rng, t):
        a, b, w = (rand_value(rng, config) for _ in range(3))
        lhs = a.join(b) + a.meet(b)
        held = all([a.join(b) == b.join(a), a.meet(b) == b.meet(a),
                    a.meet(a.join(b)) == a,
                    leq(a, a.join(b)), leq(b, a.join(b)),
                    leq(zero_like(a), abs(a)),
                    lhs == a + b,
                    abs(mul(a, w)) == mul(abs(a), abs(w)),
                    abs(a.scale(2.5)) == abs(a).scale(2.5)])
        return held, (lhs - (a + b)).sup_norm()
    out.run("lattice_laws", seeded_rng(config, "lattice_laws"), 1000, laws)

    def antitone(rng, t):
        reg = rand_geometric(rng, config)
        return _fold(_below(regulator_entry(reg, i, j),
                            regulator_entry(reg, i, j + 1))
                     for i in range(1, 11) for j in range(1, 11))
    out.run("regulator_antitonicity", seeded_rng(config, "antitone"), 40,
            antitone)

    def enumeration(rng, t):
        reg = rand_geometric(rng, config)
        phi = rng.choice(probes)
        env = envelope(reg, phi)
        brute = zero_like(env)
        for i in range(1, 201):
            brute = brute.join(regulator_entry(reg, i, phi.eval(i)))
        held = all([leq(brute, env, ORDER_SLACK),
                    leq(env, brute, ORDER_SLACK)])
        return held, max((brute - env).sup_norm() - ORDER_SLACK,
                         (env - brute).sup_norm() - ORDER_SLACK)
    out.run("envelope_matches_enumeration",
            seeded_rng(config, "envelope_enum"), 40, enumeration)

    pairs = [(ConstantMap(2), ConstantMap(5)),
             (ConstantMap(1), IdentityMap()),
             (IdentityMap(), AffineMap(2, 0)),
             (IdentityMap(), ExponentialMap()),
             (AffineMap(1, 4), AffineMap(2, 4))]

    def monotone(rng, t):
        reg = rand_geometric(rng, config)
        smaller, larger = rng.choice(pairs)
        lo_env = envelope(reg, larger)
        return _below(envelope(reg, smaller), lo_env)
    out.run("envelope_monotone_in_probe", seeded_rng(config, "env_monotone"),
            24, monotone)

    def weak_sigma(rng, t):
        reg = rand_geometric(rng, config)
        checks, prev = [], None
        for c in range(1, 16):
            env = envelope(reg, ConstantMap(c))
            cap = reg.base.scale(reg.row_scale * reg.col_scale ** c)
            checks.append(_below(cap, env))
            if prev is not None:
                checks.append((leq(env, prev, ORDER_SLACK), 0.0))
            prev = env
        checks.append((envelope(reg, ConstantMap(60)).sup_norm()
                       <= 0.9 ** 60 * (reg.base.sup_norm() + 1.0), 0.0))
        return _fold(checks)
    out.run("weak_sigma_distributivity_witness",
            seeded_rng(config, "weak_sigma"), 30, weak_sigma)

    def fremlin(rng, t):
        members = tuple(rand_geometric(rng, config)
                        for _ in range(rng.randint(1, 5)))
        u = abs(rand_value(rng, config, 0.5, 12.0))
        if u.is_zero():
            u = config.unit()
        combined = fremlin_combine(members, u)
        checks = []
        for phi in probes:
            rhs = envelope(combined, phi)
            partial = zero_like(u)
            for s in range(1, 51):
                if s <= len(members):
                    partial = partial + envelope(
                        members[s - 1], ShiftedMap(phi, s))
                checks.append(_below(rhs, u.meet(partial)))
        return _fold(checks)
    out.run("fremlin_combination_dominates", seeded_rng(config, "fremlin"), 5,
            fremlin)

    unit = config.unit()
    reg = config.regulator
    env_min = min_envelope(reg, probes)

    def d_limit(rng, t):
        r = rand_value(rng, config)
        seq = [r + unit.scale(((-1) ** n) * 2.0 ** (-n)) for n in range(1, 61)]
        checks = [d_limit_check(seq, r, reg, probes)]
        near = r + env_min.scale(0.9)
        far = r + env_min.scale(3.0) + unit.scale(1e-9)
        for candidate in (r, near, far):
            if d_limit_check(seq, candidate, reg, probes):
                gap = abs(candidate - r)
                checks.append(leq(gap, env_min.scale(2.0), ORDER_SLACK))
        checks.append(not d_limit_check(
            [unit.scale(1.0 / n) for n in range(1, 101)], unit.scale(0.5),
            reg, (ConstantMap(6),)))
        return all(checks), 0.0
    out.run("d_limit_uniqueness", seeded_rng(config, "d_limit"), 12, d_limit)

    return out


# ---------------------------------------------------------------------------
# measure suite
# ---------------------------------------------------------------------------

def suite_measure(config: RunConfig) -> SuiteResult:
    out = SuiteResult("measure")
    spec = config.measure_spec()

    def additive(rng, t):
        a, b = _rand_disjoint_pair(rng)
        gap = measure(spec, a.union(b)) - (measure(spec, a) + measure(spec, b))
        return abs(gap).sup_norm() <= 1e-12, abs(gap).sup_norm() - 1e-12
    out.run("measure_finitely_additive", seeded_rng(config, "additivity"),
            200, additive)

    def monotone(rng, t):
        b = rand_borel(rng)
        a = b.intersection(rand_borel(rng))
        return leq(measure(spec, a), measure(spec, b), ORDER_SLACK), 0.0
    out.run("measure_monotone", seeded_rng(config, "monotone"), 200, monotone)

    def cousin(rng, t):
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
        region = rand_borel(rng)
        part = partition_borel(gauge, region)
        drift = abs(part.total_length() - region.length())
        return all([is_fine(part, gauge), drift <= 1e-12,
                    part.covers(region)]), drift - 1e-12
    out.run("cousin_partition_roundtrip", seeded_rng(config, "cousin"), 25,
            cousin)

    def reject(rng, t):
        gauge = Gauge.constant(rng.uniform(0.2, 0.5))
        part = cousin_partition(gauge, Interval(0.0, 1.0))
        reach = max(max(tag - lo, hi - tag) for lo, hi, tag in part.triples)
        return not is_fine(part, Gauge.constant(reach * 0.9)), 0.0
    out.run("fineness_rejects_tight_gauge",
            seeded_rng(config, "cousin_reject"), 8, reject)

    def regularity(rng, t):
        region = rand_borel(rng)
        reg = rand_geometric(rng, config)
        phi = rng.choice(config.probes)
        inner, outer = regularity_witness(spec, region, reg, phi)
        gap = measure(spec, outer) - measure(spec, inner)
        bounded, slack = _below(envelope(reg, phi), gap)
        return all([region.contains_set(inner), outer.contains_set(region),
                    outer.is_open, bounded]), slack
    out.run("regularity_witness_bound", seeded_rng(config, "regularity"), 40,
            regularity)

    dyadic = [BorelSet.from_pairs([[2.0 ** (-k), 2.0 ** (-k + 1)]])
              for k in range(1, 21)]
    ok = sigma_additivity_check(spec, dyadic, spec.m0.scale(2.0 ** (-20)))
    rng = seeded_rng(config, "sigma")
    trials = 30
    for _ in range(trials):
        family = rand_tiling(rng, 6)
        if family:
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

    def value(f, region, tag):
        return kh_integrate(f, region, spec, reg, probes,
                            seed=f"{config.seed}:{tag}").value

    linear = PointwiseScalar(SCALAR_FORMS["t"], config.unit())
    drift = (value(linear, whole, "lin")
             - mul(config.unit(), spec.m0).scale(0.5)).sup_norm()
    out.add("linear_integrand_value", 1, drift <= 1e-9, drift - 1e-9)

    def simple_exact(rng, t):
        f = rand_simple_integrand(rng, config)
        expected = mul(f.zero_value(), spec.m0)
        for part, v in f.pieces:
            expected = expected + mul(v, spec.m0.scale(part.length()))
        drift = (value(f, whole, f"simple:{t}") - expected).sup_norm()
        return drift <= 1e-12, drift - 1e-12
    out.run("simple_integrand_exact", seeded_rng(config, "simple_exact"), 30,
            simple_exact)

    def additivity(rng, t):
        if rng.random() < 0.5:
            f = rand_simple_integrand(rng, config, max_pieces=4)
        else:
            form = rng.choice(("t", "one_minus_t", "square"))
            f = PointwiseScalar(SCALAR_FORMS[form], config.unit(),
                                coeff=_dyadic(rng, 0.25, 3.0))
        a, b = _rand_disjoint_pair(rng)
        return integral_additivity_check(f, a, b, spec, reg, probes,
                                         seed=f"{config.seed}:al:{t}"), 0.0
    out.run("additivity_positivity_linearity", seeded_rng(config, "addlin"),
            10, additivity)

    cap = min_envelope(reg, probes).scale(2.0)

    def uniqueness(rng, t):
        f = rand_simple_integrand(rng, config, max_pieces=4)
        one = value(f, whole, f"u1:{t}")
        two = value(f, whole, f"u2:{t}")
        return leq(abs(one - two), cap, ORDER_SLACK), 0.0
    out.run("certificate_uniqueness", seeded_rng(config, "uniqueness"), 5,
            uniqueness)

    def hereditary(rng, t):
        # kh_integrate raises NotCertifiable on a failure, which ends the run
        region = rand_borel(rng, max_comps=3)
        f = rand_simple_integrand(rng, config, max_pieces=3)
        value(f, region, f"h:{t}")
        for comp in region.components:
            value(f, BorelSet((comp,)), f"hc:{t}")
        return True, 0.0
    out.run("hereditary_integrability", seeded_rng(config, "hereditary"), 5,
            hereditary)

    try:
        kh_integrate(CounterexampleC00(), whole, MeasureSpec(Scalar(1.0)),
                     reg, probes)
        out.add("counterexample_refused", 1, False)
    except NotCertifiable:
        out.add("counterexample_refused", 1, True)

    return out


# ---------------------------------------------------------------------------
# set-valued suite
# ---------------------------------------------------------------------------

def suite_setvalued(config: RunConfig) -> SuiteResult:
    out = SuiteResult("setvalued")
    spec = config.measure_spec()
    reg = config.regulator
    probes = config.probes
    whole = BorelSet.whole()
    accepted: list[tuple] = []

    def member(z, F, region, tag) -> bool:
        ok = phi_membership(z, F, region, spec, reg, probes,
                            seed=f"{config.seed}:{tag}")
        if ok:
            accepted.append((z, F))
        return ok

    def algebra(rng, t):
        a, b, c = (rand_interval(rng, config) for _ in range(3))
        left = dot_sum([dot_sum([a, b]), c])
        right = dot_sum([a, dot_sum([b, c])])
        commutes = dot_sum([a, b]) == dot_sum([b, a])
        zero = OrderInterval.singleton(zero_like(a.lo))
        held = all([left == right, commutes, dot_sum([a, zero]) == a,
                    leq(left.lo, left.hi)])
        return held, max((left.lo - right.lo).sup_norm(),
                         (left.hi - right.hi).sup_norm())
    out.run("dot_sum_algebra", seeded_rng(config, "dot_sum"), 1000, algebra)

    def grouping(rng, t):
        F = rand_simple_set(rng, config, max_pieces=4)
        per_piece = []
        triples = []
        for part, _ in F.pieces:
            gauge = Gauge.constant(rng.uniform(0.05, 0.3))
            sub = partition_borel(gauge, part)
            triples.extend(sub.triples)
            per_piece.append(riemann_set_sum(F, sub, spec))
        triples.sort(key=lambda cell: cell[0])
        grouped = dot_sum(per_piece)
        direct = riemann_set_sum(F, TaggedPartition.from_triples(triples),
                                 spec)
        drift = max((grouped.lo - direct.lo).sup_norm(),
                    (grouped.hi - direct.hi).sup_norm())
        return drift <= ORDER_SLACK, drift - ORDER_SLACK
    out.run("per_piece_grouping_identity", seeded_rng(config, "commuta"), 10,
            grouping)

    unit = config.unit()
    env_min = min_envelope(reg, probes)

    def constant(rng, t):
        C = rand_interval(rng, config)
        F = ConstantSet(C)
        region = rand_borel(rng)
        oracle = phi_interval_oracle(F, region, spec, reg, probes)
        expected = set_scale(C, measure(spec, region))
        drift = max((oracle.lo - expected.lo).sup_norm(),
                    (oracle.hi - expected.hi).sup_norm())
        inside = [member(oracle.lo.scale(1 - alpha) + oracle.hi.scale(alpha),
                         F, region, f"cm:{t}:{alpha}")
                  for alpha in (0.0, 0.5, 1.0)]
        far = env_min.scale(2.0) + unit.scale(1e-9)
        held = all([drift <= 1e-12, *inside,
                    not member(oracle.hi + far, F, region, f"co:{t}:hi"),
                    not member(oracle.lo - far, F, region, f"co:{t}:lo")])
        return held, drift - 1e-12
    out.run("constant_oracle_and_membership", seeded_rng(config, "costante"),
            15, constant)

    ramp_band, symmetric_ramp = builtin_interval_multifunctions(config)
    rng = seeded_rng(config, "structure")
    fams = [ConstantSet(rand_interval(rng, config)),
            rand_simple_set(rng, config, max_pieces=3),
            ramp_band, symmetric_ramp]
    # these trials draw no random data, so they are handed no rng
    out.run("phi_convexity", None, len(fams), lambda _, i: (
        phi_convexity_check(fams[i], whole, spec, reg, probes, trials=2,
                            seed=f"{config.seed}:cv:{i}"), 0.0))
    out.run("phi_closedness", None, len(fams), lambda _, i: (
        phi_closedness_check(fams[i], whole, spec, reg, probes,
                             seed=f"{config.seed}:cl:{i}"), 0.0))

    def monotone(rng, t):
        if rng.random() < 0.5:
            F = ConstantSet(rand_interval(rng, config, centered=True))
        else:
            F = rand_simple_set(rng, config, max_pieces=3, centered=True)
        b_set = rand_borel(rng)
        a_set = b_set.intersection(rand_borel(rng))
        return phi_monotonicity_check(F, a_set, b_set, spec, reg, probes,
                                      seed=f"{config.seed}:mn:{t}"), 0.0
    out.run("phi_monotone_in_set", seeded_rng(config, "monotone"), 20,
            monotone)

    out.add("membership_respects_global_bound", len(accepted), *_fold(
        (respects_global_bound(z, F, spec),
         max_coordinate(abs(z) - mul(F.bound(), spec.total())) - ORDER_SLACK)
        for z, F in accepted))

    def single_valued(_, t):
        f = PointwiseScalar(SCALAR_FORMS[("t", "one_minus_t", "square")[t]],
                            config.unit())
        F = singleton_multifunction(f)
        value = kh_integrate(f, whole, spec, reg, probes,
                             seed=f"{config.seed}:sv:{t}").value
        inside = phi_membership(value, F, whole, spec, reg, probes,
                                seed=f"{config.seed}:svm:{t}")
        far = max_envelope(reg, probes).scale(3.0) + unit.scale(1e-6)
        outside = not phi_membership(value + far, F, whole, spec, reg,
                                     probes, seed=f"{config.seed}:svf:{t}")
        return inside and outside, 0.0
    out.run("single_valued_reduction", None, 3, single_valued)

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
    grid = [i / 32.0 for i in range(33)]

    def hull(F, mixes, tag):
        return aumann_integral(F, whole, spec, reg, probes, mixes=mixes,
                               seed=f"{config.seed}:{tag}").hull

    rng = seeded_rng(config, "sandwich")
    ok = True
    trials = 20
    ramp_band, symmetric_ramp = builtin_interval_multifunctions(config)
    for t in range(trials):
        F = rng.choice((rand_simple_set(rng, config, 3), ramp_band,
                        symmetric_ramp))
        mix = rng.choice(default_mixes(F))
        ok &= selection_is_valid(selection(F, normalize_mix(mix)), grid)
    try:
        selection(ConstantSet(rand_interval(rng, config)), normalize_mix(2.0))
        out.add("mix_range_rejected", 1, False)
    except ValueError:
        out.add("mix_range_rejected", 1, True)
    out.add("selection_sandwich", trials, ok)

    rng = seeded_rng(config, "hull")
    ok = True
    worst = 0.0
    trials = 6
    for t in range(trials):
        F = rand_simple_set(rng, config, 4)
        res = hull(F, (0.0, 1.0), f"hull:{t}")
        oracle = phi_interval_oracle(F, whole, spec, reg, probes)
        drift = max((res.lo - oracle.lo).sup_norm(),
                    (res.hi - oracle.hi).sup_norm())
        worst = max(worst, drift - 1e-12)
        ok &= drift <= 1e-12
    for t, F in enumerate((ramp_band, symmetric_ramp)):
        res = hull(F, (0.0, 1.0), f"hullIV:{t}")
        iv_oracle = phi_interval_oracle(F, whole, spec, reg, probes,
                                        seed=f"{config.seed}:hullOR:{t}")
        drift = max((res.lo - iv_oracle.lo).sup_norm(),
                    (res.hi - iv_oracle.hi).sup_norm())
        ok &= drift <= 1e-9
    out.add("hull_matches_oracle", trials + 2, ok, worst,
            detail="interval-valued agreement is observed, not asserted as a theorem")

    def hull_monotone(rng, t):
        F = rand_simple_set(rng, config, 3)
        small = hull(F, (0.0, 1.0), f"hm:{t}")
        big = hull(F, (0.0, 0.25, 0.5, 0.75, 1.0), f"hm:{t}")
        return all([leq(big.lo, small.lo, ORDER_SLACK),
                    leq(small.hi, big.hi, ORDER_SLACK)]), 0.0
    out.run("hull_monotone_in_mixes", seeded_rng(config, "hull_monotone"), 4,
            hull_monotone)

    def comparison(rng, t):
        F = rand_simple_set(rng, config, 5)
        region = rand_borel(rng)
        rep = comparison_simple(F, region, spec, reg, probes,
                                seed=f"{config.seed}:cmp:{t}")
        return rep.passed, rep.max_discrepancy
    out.run("simple_comparison_three_way", seeded_rng(config, "comparison"),
            10, comparison)

    def disjoint_support(rng, t):
        F = SimpleSet(((BorelSet.from_pairs([[0.0, 0.25]]),
                        rand_interval(rng, config)),))
        region = BorelSet.from_pairs([[0.5, 0.875]])
        rep = comparison_simple(F, region, spec, reg, probes,
                                seed=f"{config.seed}:eo:{t}")
        zero = mul(F.zero_value(), spec.m0)
        return all([rep.passed, (rep.sum_formula.lo - zero).is_zero(1e-12),
                    (rep.sum_formula.hi - zero).is_zero(1e-12)]), 0.0
    out.run("disjoint_support_collapses_to_zero",
            seeded_rng(config, "empty_overlap"), 3, disjoint_support)

    try:
        aumann_integral(ramp_band, whole, spec, reg, probes, mixes=())
        out.add("empty_mix_family_rejected", 1, False)
    except EmptySelectionFamily:
        out.add("empty_mix_family_rejected", 1, True)

    return out


# ---------------------------------------------------------------------------
# counterexample suite
# ---------------------------------------------------------------------------

def suite_counterexample(config: RunConfig) -> SuiteResult:
    out = SuiteResult("counterexample")
    report = counterexample_unboundedness(20)
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
    part = TaggedPartition.from_triples(
        (k / 8.0, (k + 1) / 8.0, k / 8.0 + 17.0 / 2048.0) for k in range(8))
    clean = all(CounterexampleC00().value_at(tag).is_zero()
                for _, _, tag in part.triples)
    fine = is_fine(part, Gauge.constant(0.25))
    total = riemann_sum(CounterexampleC00(), part, spec)
    out.add("vanishes_off_the_spikes", len(part),
            all([clean, fine, total.is_zero()]))
    return out


# ---------------------------------------------------------------------------
# front door
# ---------------------------------------------------------------------------

#: The suites in the order ``all`` runs them.
SUITES = {
    "lattice": suite_lattice,
    "measure": suite_measure,
    "integral": suite_integral,
    "setvalued": suite_setvalued,
    "aumann": suite_aumann,
    "counterexample": suite_counterexample,
}


def run_suites(names, config: RunConfig) -> list[SuiteResult]:
    for name in names:
        if name != "all" and name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    return [SUITES[s](config) for name in names
            for s in (SUITES if name == "all" else [name])]
