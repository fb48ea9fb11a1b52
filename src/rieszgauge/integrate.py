"""Certifying gauge integration of single-valued integrands.

An integral certificate pins a value ``I`` together with, for every probe, a
gauge under which every sampled fine partition keeps its Riemann sum within
the probe envelope of ``I``.  Certification stress-tests the canonical fine
partition plus seeded random fine refinements; the universal quantifier over
partitions is sampled, never enumerated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import cycle

from .domain import (SAMPLES, BorelSet, Gauge, Interval, MeasureSpec,
                     TaggedPartition, cousin_partition, is_fine,
                     iter_fine_partitions)
from .errors import (EmptyProbeSet, EnvelopeTooSmall, GaugeConstructionFailed,
                     NotCertifiable, NotDisjoint)
from .integrands import CounterexampleC00, Integrand
from .regulators import IndexMap, Regulator, envelope, min_envelope
from .values import (ORDER_SLACK, RieszValue, Scalar, SparseSeq, coordinates,
                     from_coordinates, leq, mul, zero_like)


def as_borel(E) -> BorelSet:
    if isinstance(E, BorelSet):
        return E
    if isinstance(E, Interval):
        return BorelSet((E,))
    raise ValueError(f"not a set over [0, 1]: {E!r}")


# ---------------------------------------------------------------------------
# Riemann sums
# ---------------------------------------------------------------------------

def riemann_sum(f: Integrand, part: TaggedPartition, spec: MeasureSpec) -> RieszValue:
    """The tagged sum ``sum_i f(tag_i) * mu(cell_i)``, taken in coordinates
    in cell order (see :func:`weighted_sums`)."""
    total, = weighted_sums(f, f.zero_value(), part, spec, 1,
                           lambda t: (f.value_at(t),))
    return total


#: Cells per column block of a sum, which bounds the columns held at once.
_BLOCK = 1024


def _coordinate_sum(family, like, keys, part: TaggedPartition, weights,
                    start) -> list[float]:
    """``start[k] + sum_i v(tag_i)[k] * (w[k] * length_i)`` for every
    coordinate ``k`` of ``family``'s values over ``keys``, with ``w`` the
    per-key ``weights`` repeated over the runs of ``start``, added in cell
    order as a lattice value would be; cells of length zero are dropped
    before their tag is evaluated.  One coordinate, as in every scalar
    Riemann sum, is added in one loop through the map that :meth:`compile`
    returns; more are folded one column at a time, per block of cells,
    through :meth:`columns`, which adds the same floats in the same order.
    A selection of two step functions builds that map once for all its sums,
    so a sum only reads it."""
    triples = part.triples
    if len(start) == 1:
        at = family.compile(like, keys)
        (acc,), (w,) = start, weights
        for lo, hi, tag in triples:
            ln = hi - lo
            if ln != 0.0:
                acc = acc + at(tag)[0] * (w * ln)
        return [acc]
    acc = list(start)
    for i in range(0, len(triples), _BLOCK):
        block = triples[i:i + _BLOCK]
        lengths = [hi - lo for lo, hi, _ in block if hi != lo]
        if not lengths:
            continue
        columns = family.columns(like, keys, [tag for lo, hi, tag in block
                                              if hi != lo])
        # once per key and block; 1.0 * length is the length itself
        scaled = [lengths if w == 1.0 else [w * ln for ln in lengths]
                  for w in weights]
        acc = [reduce(operator.add, map(operator.mul, col, wl), s)
               for col, wl, s in zip(columns, cycle(scaled), acc)]
    return acc


def weighted_sums(family, zero: RieszValue, part: TaggedPartition,
                  spec: MeasureSpec, copies: int, values_at) -> list[RieszValue]:
    """The Riemann sums of ``copies`` functions at once, for values in the
    lattice of ``zero``.

    ``family`` gives the floats of all ``copies`` values over ``keys``, one
    run of keys after another, through ``compile(like, keys)`` per tag or
    ``columns(like, keys, tags)`` per coordinate.  Scalars keep the formula
    ``(sum value * length) * m0``; other lattices add
    ``value * (m0 * length)`` per coordinate, starting from ``zero * m0``.
    A sequence under a scalar generator has no fixed keys: they are the
    supports that ``values_at(tag)`` reaches over the cells.
    """
    m0 = spec.m0
    if m0.broadcasts and zero.broadcasts:
        sums = _coordinate_sum(family, zero, (0,), part, (1.0,),
                               (0.0,) * copies)
        return [Scalar(s * m0.value) for s in sums]
    like = mul(zero, m0)
    # the generator's keys, or the lattice's own under a scalar generator;
    # the zero sequence has none, so a sequence then learns them
    keys = like.keys if m0.broadcasts else m0.keys
    if not keys:
        keys = tuple(sorted({k for lo, hi, tag in part.triples
                             if hi - lo != 0.0
                             for v in values_at(tag)
                             for k, _ in v.nonzero_coords()}))
    sums = _coordinate_sum(family, like, keys, part,
                           coordinates(m0, like, keys),
                           coordinates(like, like, keys) * copies)
    n = len(keys)
    return [from_coordinates(like, keys, sums[j * n:(j + 1) * n])
            for j in range(copies)]


# ---------------------------------------------------------------------------
# gauges and certificates
# ---------------------------------------------------------------------------

def certification_gauges(f: Integrand, E: BorelSet, spec: MeasureSpec,
                         envs) -> tuple[list[Gauge], Gauge]:
    """For every envelope in ``envs``, and then for their meet, a gauge under
    which every fine partition keeps the Riemann sum within that envelope of
    the integral.

    For a Lipschitz integrand the radius is the envelope's minimum over the
    active coordinates over (modulus * length * measure scale); jump points
    get pinned as mandatory tags with a radius sized against that minimum
    as well.  The integrand is read once, envelopes with the same minimum
    share one gauge, and the first envelope that cannot certify, in order,
    raises.
    """
    supb = f.sup_bound()
    active = mul(abs(supb), abs(spec.m0))
    if active.is_zero():
        free = Gauge.constant(2.0)
        return [free] * len(envs), free
    lam = f.lipschitz()
    if lam is None:
        raise GaugeConstructionFailed(
            "the integrand declares no modulus of integrability")
    keys = [k for k, _ in active.nonzero_coords()]
    length = E.length()
    scale_m = spec.m0.sup_norm()
    boundaries = tuple(p for p in f.boundary_points()
                       if E.contains_point(p))
    built: dict[float, Gauge] = {}

    def gauge(env: RieszValue) -> Gauge:
        env_min = min(env.coord(k) for k in keys)
        if env_min not in built:
            built[env_min] = _certification_gauge(env_min, lam, length,
                                                  scale_m, boundaries, supb)
        return built[env_min]
    gauges = [gauge(env) for env in envs]
    return gauges, gauge(reduce(lambda a, b: a.meet(b), envs))


def _certification_gauge(env_min: float, lam: float, length: float,
                         scale_m: float, boundaries, supb) -> Gauge:
    """The gauge of :func:`certification_gauges` for one envelope minimum."""
    interior = 2.0
    if lam > 0.0 and length > 0.0:
        if env_min <= 0.0:
            raise GaugeConstructionFailed(
                "an envelope that is zero or below float resolution cannot "
                "certify a varying integrand")
        interior = env_min / (lam * length * scale_m)
    if boundaries:
        if env_min <= 0.0:
            raise GaugeConstructionFailed(
                "an envelope that is zero or below float resolution cannot "
                "certify across jump points")
        if lam > 0.0:
            interior *= 0.5
        rho = env_min / (8.0 * len(boundaries) * supb.sup_norm() * scale_m)
        if rho == 0.0:
            raise EnvelopeTooSmall(
                "the jump-point radius underflows to 0 against the size of "
                "the integrand: the envelope is below float resolution")
        return Gauge.anchored(boundaries, min(rho, 0.25),
                              cap=min(interior, 0.25))
    return Gauge.constant(min(interior, 2.0))


@dataclass(frozen=True)
class ProbeReport:
    probe: IndexMap
    gauge: Gauge
    max_deviation: RieszValue
    samples: int


@dataclass(frozen=True)
class IntegralCertificate:
    value: RieszValue
    regulator: Regulator
    probe_reports: tuple[ProbeReport, ...]

    def __post_init__(self):
        for report in self.probe_reports:
            env = envelope(self.regulator, report.probe)
            if not leq(report.max_deviation, env, ORDER_SLACK):
                raise NotCertifiable(
                    f"deviation exceeds the envelope for probe "
                    f"{report.probe.describe()}")


def kh_integrate(f: Integrand, E, spec: MeasureSpec, reg: Regulator, probes,
                 *, seed="kh") -> IntegralCertificate:
    """Integrate ``f`` over ``E`` and certify the value against ``reg``.

    Every probe's gauge and the tightest one, for the meet of the probe
    envelopes, come from one read of the integrand's declared modulus, bound
    and jump points (see :func:`certification_gauges`).  The sampled fine
    partitions (canonical plus seeded random fine refinements of the
    tightest gauge, which are fine for every reported gauge) must all keep
    their Riemann sums within every probe envelope.
    """
    f.check_integrable()
    probes = tuple(probes)
    if not probes:
        raise EmptyProbeSet("no probes given")
    E = as_borel(E)
    value = f.integral(E, spec)
    gauges, tightest = certification_gauges(
        f, E, spec, [envelope(reg, p) for p in probes])
    worst = zero_like(value)
    count = 0
    if not E.is_empty():
        for part in iter_fine_partitions(tightest, E, SAMPLES, seed):
            dev = abs(riemann_sum(f, part, spec) - value)
            worst = worst.join(dev)
            count += 1
    reports = tuple(ProbeReport(p, g, worst, count)
                    for p, g in zip(probes, gauges))
    return IntegralCertificate(value, reg, reports)


def integral_additivity_check(f: Integrand, A, B, spec: MeasureSpec,
                              reg: Regulator, probes, *, seed="kh") -> bool:
    """Additivity over disjoint sets, positivity for nonnegative integrands,
    and scalar linearity, all within twice the tightest probe envelope."""
    A, B = as_borel(A), as_borel(B)
    if A.intersection(B).length() > ORDER_SLACK:
        raise NotDisjoint("additivity needs disjoint sets")
    both = kh_integrate(f, A.union(B), spec, reg, probes, seed=seed)
    only_a = kh_integrate(f, A, spec, reg, probes, seed=seed)
    only_b = kh_integrate(f, B, spec, reg, probes, seed=seed)
    tol = min_envelope(reg, probes).scale(2.0)
    ok = leq(abs(both.value - only_a.value - only_b.value), tol, ORDER_SLACK)
    if f.is_nonneg():
        ok = ok and leq(zero_like(both.value), both.value, ORDER_SLACK)
    scaled = kh_integrate(f.scaled(2.5), A.union(B), spec, reg, probes,
                          seed=seed)
    ok = ok and leq(abs(scaled.value - both.value.scale(2.5)), tol, ORDER_SLACK)
    return ok


# ---------------------------------------------------------------------------
# the non-integrable counterexample, run forward
# ---------------------------------------------------------------------------

#: The radius of the counterexample's gauges away from the points 1/k.
COUNTEREXAMPLE_RADIUS = 0.05

def _forced_points(n: int) -> list[float]:
    # 1/n < 1/(n-1) < ... < 1/2
    return [1.0 / (n + 1 - i) for i in range(1, n)]


def counterexample_partition(n: int, delta: Gauge) -> TaggedPartition:
    """A fine partition of [0, 1] that pins a cell strictly around each point
    1/2, 1/3, ..., 1/n, with the gaps filled by bisection.

    The forced cell at 1/k has half-width ``min(gauge there, neighbor gaps)/4``
    so the cells stay pairwise disjoint, strictly inside (0, 1), and strictly
    ordered.  Cells are laid down left to right: each gap's fill, then the
    forced cell that ends it.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    points = _forced_points(n)
    declared = set(delta.mandatory_tags)
    missing = [p for p in points if p not in declared]
    if missing:
        raise ValueError(f"gauge lacks mandatory tags at {missing}")
    keep = set(points)
    triples: list = []
    cursor = 0.0
    for idx, xi in enumerate(points):
        gap_left = xi - (points[idx - 1] if idx else 0.0)
        gap_right = (points[idx + 1] if idx + 1 < len(points) else 1.0) - xi
        h = min(delta.gamma(xi), gap_left, gap_right) / 4.0
        _fill_gap(delta, cursor, xi - h, keep, triples)
        triples.append((xi - h, xi + h, xi))
        cursor = xi + h
    _fill_gap(delta, cursor, 1.0, keep, triples)
    part = TaggedPartition.from_triples(triples)
    if not is_fine(part, delta):
        raise NotCertifiable("constructed partition failed the fineness check")
    return part


def _fill_gap(gauge: Gauge, lo: float, hi: float, keep: set, out: list):
    """Append the canonical fine cells of the gap [lo, hi], with tags nudged
    off the reciprocals, to ``out``; a gap of 1e-12 or less gets none."""
    if hi - lo > 1e-12:
        filled = cousin_partition(gauge, Interval(lo, hi))
        out.extend(_nudge_off_reciprocals(filled.triples, gauge, keep))


def _nudge_off_reciprocals(triples, gauge: Gauge, keep: set) -> list:
    """Move any fill tag that lands exactly on a reciprocal 1/m off it (while
    staying fine), so the spike function vanishes at every fill tag."""
    out = []
    for lo, hi, tag in triples:
        if tag > 0.0 and tag not in keep:
            m = round(1.0 / tag)
            if m >= 1 and 1.0 / m == tag:
                width = hi - lo
                for cand in (tag + width / 7.0, tag - width / 7.0,
                             tag + width / 13.0, tag - width / 13.0):
                    if (lo <= cand <= hi
                            and max(cand - lo, hi - cand) < gauge.gamma(cand)):
                        tag = cand
                        break
        out.append((lo, hi, tag))
    return out


@dataclass(frozen=True)
class CounterexampleEntry:
    n: int
    lambda_n: float
    fine: bool
    dominated: bool
    support: tuple[int, ...]


@dataclass(frozen=True)
class CounterexampleReport:
    entries: tuple[CounterexampleEntry, ...]
    verdict: str
    gauge_radius: float


def counterexample_unboundedness(n_max: int) -> CounterexampleReport:
    """Build the forced partitions for n = 2..n_max, check fineness and the
    lower bound ``lambda_n * u_n <= sum``, and report the support growth that
    rules out any common bound in the eventually-zero sequences."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    spec = MeasureSpec(Scalar(1.0))
    f = CounterexampleC00()
    entries = []
    frontier = 0
    growing = True
    for n in range(2, n_max + 1):
        points = _forced_points(n)
        delta = Gauge.constant(COUNTEREXAMPLE_RADIUS, mandatory_tags=points)
        part = counterexample_partition(n, delta)
        fine = is_fine(part, delta)
        total = riemann_sum(f, part, spec)
        lam = next(hi - lo for lo, hi, tag in part.triples
                   if tag == points[0])
        dominated = lam > 0.0 and leq(SparseSeq({n: lam}), total, ORDER_SLACK)
        support = total.support()
        top = max(support) if support else 0
        growing = growing and top > frontier
        frontier = max(frontier, top)
        entries.append(CounterexampleEntry(n, lam, fine, dominated, support))
    all_ok = all(e.fine and e.dominated for e in entries)
    verdict = "UNBOUNDED" if (all_ok and growing) else "INCONCLUSIVE"
    return CounterexampleReport(tuple(entries), verdict, COUNTEREXAMPLE_RADIUS)
