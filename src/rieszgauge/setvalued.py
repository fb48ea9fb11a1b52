"""The set-valued gauge integral over order intervals.

Value sets are order intervals [lo, hi] (nonempty, convex, bounded, closed).
The integral of a multifunction over a set is never materialized; it is
exposed as a membership test (a point is approximable, uniformly over sampled
fine partitions, by the interval Riemann set-sums) and as an interval oracle,
with the structural checks (convexity, closedness, boundedness, monotonicity)
tying the two together.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import reduce

from .domain import (SAMPLES, BorelSet, Gauge, MeasureSpec, TaggedPartition,
                     iter_fine_partitions)
from .errors import (EmptyFamily, EmptyProbeSet, NegativeScaleUnsupported,
                     PiecesOverlap, UnboundedMultifunction, ZeroNotInValues)
from .integrands import (_GRID, ConstantIntegrand, Integrand, SimpleIntegrand,
                         disjoint_lookup)
from .integrate import as_borel, kh_integrate, weighted_sums
from .regulators import Regulator, Scaled, SumPair, envelope, max_envelope
from .values import (ORDER_SLACK, RieszValue, SparseSeq, clamp, coordinates,
                     leq, mul, ones_like, zero_like)

_ORDER_MESSAGE = "an order interval needs lo <= hi"

#: The finest gauge-halving level a membership search may reach.
MAX_LEVEL = 20


@dataclass(frozen=True)
class OrderInterval:
    """The order interval [lo, hi]; a singleton when lo equals hi."""

    lo: RieszValue
    hi: RieszValue

    def __post_init__(self):
        if not leq(self.lo, self.hi):
            raise ValueError(_ORDER_MESSAGE)

    @classmethod
    def singleton(cls, v: RieszValue) -> "OrderInterval":
        return cls(v, v)

    def contains_value(self, z: RieszValue, slack: float = 0.0) -> bool:
        return leq(self.lo, z, slack) and leq(z, self.hi, slack)

    def coordinates(self, like: RieszValue, keys) -> tuple[float, ...]:
        """The floats of ``lo`` over ``keys`` followed by those of ``hi``."""
        return coordinates(self.lo, like, keys) + coordinates(self.hi, like, keys)


def neighborhood_contains(C: OrderInterval, r: RieszValue, z: RieszValue,
                          slack: float = 0.0) -> bool:
    """Whether some point of C lies within ``r`` of ``z``; exact for order
    intervals via componentwise clamping."""
    witness = clamp(z, C.lo, C.hi)
    return leq(abs(z - witness), r, slack)


def dot_sum(sets) -> OrderInterval:
    """Closed direct sum of order intervals: endpoints add, and the result is
    already closed and convex."""
    sets = tuple(sets)
    if not sets:
        raise EmptyFamily("dot_sum needs at least one set")
    lo = sets[0].lo
    hi = sets[0].hi
    for s in sets[1:]:
        lo = lo + s.lo
        hi = hi + s.hi
    return OrderInterval(lo, hi)


def set_scale(C: OrderInterval, m: RieszValue) -> OrderInterval:
    """Scale an order interval by a nonnegative lattice element."""
    if not leq(zero_like(m), m):
        raise NegativeScaleUnsupported("set scaling needs a nonnegative factor")
    return OrderInterval(mul(C.lo, m), mul(C.hi, m))


# ---------------------------------------------------------------------------
# multifunctions
# ---------------------------------------------------------------------------

class Multifunction:
    """Base class: a map from [0, 1] into order intervals, given by its lower
    and upper end integrands.  Each family sets ``lower`` and ``upper`` once,
    when it is built, and the value interval, the jump points, the bound,
    the modulus and the zero are read off them here."""

    lower: Integrand
    upper: Integrand

    #: Whether the end integrands integrate in closed form, so that the
    #: integral's interval is their exact integrals (see
    #: :func:`endpoint_integrals`) rather than certified ones.
    exact_ends = False

    def value_at(self, t: float) -> OrderInterval:
        return OrderInterval(self.lower.value_at(t), self.upper.value_at(t))

    def columns(self, like: RieszValue, keys: tuple, tags) -> list:
        """The value intervals at the nonempty list ``tags`` as one float
        column per key of the lower end followed by one per key of the upper
        end, from the ends' own columns; a tag whose interval has
        ``lo > hi`` raises ValueError as :class:`OrderInterval` does."""
        # the order is checked on every coordinate either end can reach, so
        # in a sequence space also where the measure vanishes
        n = len(keys)
        if isinstance(like, SparseSeq):
            try:
                bound = self.bound()
            except UnboundedMultifunction:
                value_at = self.value_at
                return list(zip(*(value_at(t).coordinates(like, keys)
                                  for t in tags)))
            keys = keys + tuple(k for k, _ in bound.nonzero_coords()
                                if k not in keys)
        lower = self.lower.columns(like, keys, tags)
        upper = self.upper.columns(like, keys, tags)
        for lo, hi in zip(lower, upper):
            if not all(map(operator.le, lo, hi)):
                raise ValueError(_ORDER_MESSAGE)
        return lower[:n] + upper[:n]

    def boundary_points(self) -> tuple[float, ...]:
        """The jump points of either end, sorted."""
        pts = set(self.lower.boundary_points())
        pts |= set(self.upper.boundary_points())
        return tuple(sorted(pts))

    def bound(self) -> RieszValue:
        """An L >= 0 with every value inside [-L, L], computed once per
        (frozen) instance; with no bound, every call raises."""
        memo = vars(self)
        if "_bound" not in memo:
            memo["_bound"] = self.lower.sup_bound().join(
                self.upper.sup_bound())
        return memo["_bound"]

    def interior_modulus(self) -> float:
        """Lipschitz modulus of the endpoint functions away from boundaries."""
        lams = (self.lower.lipschitz(), self.upper.lipschitz())
        if None in lams:
            raise UnboundedMultifunction(
                "endpoint integrands declare no modulus")
        return max(lams)

    def contains_zero(self) -> bool:
        raise NotImplementedError

    def zero_value(self) -> RieszValue:
        return self.lower.zero_value()

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantSet(Multifunction):
    value: OrderInterval
    exact_ends = True

    def __post_init__(self):
        object.__setattr__(self, "lower", ConstantIntegrand(self.value.lo))
        object.__setattr__(self, "upper", ConstantIntegrand(self.value.hi))

    def contains_zero(self):
        return self.value.contains_value(self.zero_value())

    def describe(self):
        return "constant set"


@dataclass(frozen=True)
class SimpleSet(Multifunction):
    """Value ``C_k`` on the set ``E_k`` and the zero singleton elsewhere."""

    pieces: tuple[tuple[BorelSet, OrderInterval], ...]
    exact_ends = True

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a simple multifunction needs at least one piece")
        object.__setattr__(self, "_lookup", disjoint_lookup(
            self.pieces, PiecesOverlap, "simple multifunction pieces"))
        object.__setattr__(self, "lower", SimpleIntegrand(
            tuple((s, C.lo) for s, C in self.pieces)))
        object.__setattr__(self, "upper", SimpleIntegrand(
            tuple((s, C.hi) for s, C in self.pieces)))

    def columns(self, like, keys, tags):
        # one lookup per tag, not one per end; every piece's interval was
        # checked when it was built
        zero = coordinates(self.zero_value(), like, keys)
        at = self._lookup.compile(lambda C: C.coordinates(like, keys), zero * 2)
        return list(zip(*map(at, tags)))

    def contains_zero(self):
        zero = self.zero_value()
        return all(C.contains_value(zero) for _, C in self.pieces)

    def describe(self):
        return f"simple set ({len(self.pieces)} pieces)"


@dataclass(frozen=True)
class IntervalValued(Multifunction):
    """Pointwise interval [lower(t), upper(t)] for two integrands whose
    ordering is verified on a grid and at every jump point."""

    lower: Integrand
    upper: Integrand

    def __post_init__(self):
        pts = set(_GRID) | set(self.boundary_points())
        for t in sorted(pts):
            if not leq(self.lower.value_at(t), self.upper.value_at(t),
                       ORDER_SLACK):
                raise ValueError(f"lower exceeds upper at t = {t}")

    def contains_zero(self):
        zero = self.zero_value()
        pts = set(_GRID) | set(self.boundary_points())
        return all(self.value_at(t).contains_value(zero, ORDER_SLACK)
                   for t in pts)

    def describe(self):
        return f"interval [{self.lower.describe()}, {self.upper.describe()}]"


def singleton_multifunction(f: Integrand) -> Multifunction:
    """The single-valued multifunction {f}."""
    return IntervalValued(f, f)


# ---------------------------------------------------------------------------
# Riemann set-sums and the integral
# ---------------------------------------------------------------------------

def riemann_set_sum(F: Multifunction, part: TaggedPartition,
                    spec: MeasureSpec) -> OrderInterval:
    """Dot-sum over cells of the value interval at the tag scaled by the cell
    measure, taken in coordinates and in cell order (see
    :func:`~rieszgauge.integrate.weighted_sums`).  For finite values it
    equals the dot-sum of the per-cell intervals bit for bit, and a tag whose
    value interval has ``lo > hi`` raises ValueError as that interval would.
    """
    ends = (F.lower, F.upper)
    lo, hi = weighted_sums(F, F.zero_value(), part, spec, 2,
                           lambda t: [f.value_at(t) for f in ends])
    return OrderInterval(lo, hi)


def _relevant_jumps(F: Multifunction, E: BorelSet) -> tuple[float, ...]:
    return tuple(p for p in F.boundary_points() if E.contains_point(p))


def _membership_gauge(F: Multifunction, E: BorelSet, level: int) -> Gauge:
    radius = 2.0 ** (-level)
    anchors = _relevant_jumps(F, E)
    if anchors and F.interior_modulus() == 0.0:
        return Gauge.anchored(anchors, radius)
    return Gauge.constant(radius, mandatory_tags=anchors)


def _level_schedule(F: Multifunction, E: BorelSet, spec: MeasureSpec,
                    env: RieszValue) -> list[int]:
    """Gauge-halving levels to search: a few coarse ones plus the level at
    which the set-sum wobble provably drops below the envelope.

    The wobble of a fine set-sum at tag radius r is bounded by
    ``(modulus * length + 4 * #jumps * bound) * scale * r``; multifunctions
    with no interior variation and no jumps have partition-independent sums,
    so only coarse levels are worth trying.
    """
    bound = F.bound()
    active = mul(bound.join(ones_like(bound).scale(1e-9)), abs(spec.m0))
    env_min = min((env.coord(k) for k, _ in active.nonzero_coords()),
                  default=float("inf"))
    lam = F.interior_modulus()
    nb = len(_relevant_jumps(F, E))
    scale_m = spec.m0.sup_norm()
    variation = (lam * E.length() + 4.0 * nb * bound.sup_norm()) * scale_m
    if variation <= 0.0:
        return [0, 2]
    # constant-radius gauges cost 2**level cells; anchored ones stay cheap
    cap = MAX_LEVEL if (lam == 0.0 and nb > 0) else 13
    if env_min <= 0.0 or not math.isfinite(env_min):
        pred = cap
    else:
        pred = max(0, math.ceil(math.log2(4.0 * variation / env_min)))
    pred = min(pred, cap)
    return sorted({0, 2, pred, min(pred + 2, cap), min(pred + 4, cap)})


def _gauge_search(z, F, E, spec, env, schedule, seed) -> bool:
    """Search the halving schedule for a gauge all of whose sampled fine
    partitions bring a set-sum within ``env`` of ``z``.

    A coarse gauge admits every finer partition as well, so partitions built
    at the schedule's finest level belong to every level's sample; they are
    checked once up front, which also rejects quickly when fine set-sums
    exclude the point.
    """
    def contained(part) -> bool:
        return neighborhood_contains(riemann_set_sum(F, part, spec), env, z,
                                     ORDER_SLACK)

    finest = max(schedule)
    fine_gauge = _membership_gauge(F, E, finest)
    if not all(contained(part) for part in
               iter_fine_partitions(fine_gauge, E, SAMPLES // 4,
                                    f"{seed}:fine")):
        return False
    for level in schedule:
        gauge = _membership_gauge(F, E, level)
        if all(contained(part) for part in
               iter_fine_partitions(gauge, E, SAMPLES, f"{seed}:L{level}")):
            return True
    return False


def phi_membership(z: RieszValue, F: Multifunction, E, spec: MeasureSpec,
                   reg: Regulator, probes, *, seed="phi") -> bool:
    """Membership in the set-valued integral: for every probe there must be a
    gauge (searched over a halving family pinned at the piece boundaries)
    under which every sampled fine partition's set-sum comes within the probe
    envelope of ``z``.

    Neighborhood containment is monotone in the radius, so one gauge that
    works for the meet of all probe envelopes settles every probe at once;
    only when that search fails are the probes tried individually.
    """
    E = as_borel(E)
    F.bound()  # raises UnboundedMultifunction when there is no common bound
    probes = tuple(probes)
    if not probes:
        raise EmptyProbeSet("no probes given")
    envs = [envelope(reg, phi) for phi in probes]
    env_meet = reduce(lambda a, b: a.meet(b), envs)
    if _gauge_search(z, F, E, spec, env_meet,
                     _level_schedule(F, E, spec, env_meet), seed):
        return True
    for env in sorted(envs, key=lambda e: e.sup_norm()):
        if env == env_meet:
            # the meet search above already exhausted exactly these radii
            return False
        if not _gauge_search(z, F, E, spec, env,
                             _level_schedule(F, E, spec, env), seed):
            return False
    return True


def endpoint_integrals(F: Multifunction, E: BorelSet,
                       spec: MeasureSpec) -> OrderInterval:
    """The interval between the closed-form integrals of the end integrands
    over ``E``; for a simple multifunction this is the endpoint-sum formula,
    the dot-sum of its value intervals scaled by the measure of each piece
    inside ``E``."""
    return OrderInterval(F.lower.integral(E, spec), F.upper.integral(E, spec))


def phi_interval_oracle(F: Multifunction, E, spec: MeasureSpec,
                        reg: Regulator, probes, *,
                        seed="oracle") -> OrderInterval:
    """A computable outer description of the set-valued integral: exact
    endpoint integrals for families with closed-form ends (constant and
    simple multifunctions), certified endpoint integrals for the others."""
    E = as_borel(E)
    if F.exact_ends:
        return endpoint_integrals(F, E, spec)
    lo = kh_integrate(F.lower, E, spec, reg, probes, seed=f"{seed}:lo").value
    hi = kh_integrate(F.upper, E, spec, reg, probes, seed=f"{seed}:hi").value
    return OrderInterval(lo, hi)


def _diagonal_point(C: OrderInterval, alpha: float) -> RieszValue:
    return C.lo.scale(1.0 - alpha) + C.hi.scale(alpha)


def phi_convexity_check(F: Multifunction, E, spec: MeasureSpec,
                        reg: Regulator, probes, trials: int = 3,
                        seed="cvx") -> bool:
    """Convex combinations of members stay members, tested with the doubled
    regulator that the convexity argument calls for."""
    E = as_borel(E)
    oracle = phi_interval_oracle(F, E, spec, reg, probes)
    doubled = Scaled(SumPair(reg, reg), 2.0)
    rng = random.Random(f"{seed}")
    for _ in range(trials):
        z1 = _diagonal_point(oracle, rng.random())
        z2 = _diagonal_point(oracle, rng.random())
        if not (phi_membership(z1, F, E, spec, reg, probes)
                and phi_membership(z2, F, E, spec, reg, probes)):
            return False
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            z = z1.scale(alpha) + z2.scale(1.0 - alpha)
            if not phi_membership(z, F, E, spec, doubled, probes):
                return False
    return True


def phi_closedness_check(F: Multifunction, E, spec: MeasureSpec,
                         reg: Regulator, probes, *, seed="phi") -> bool:
    """Membership agrees with the closed oracle interval on a grid straddling
    its boundary: endpoints are members, points beyond twice the largest probe
    envelope are not.  ``seed`` seeds the oracle and every membership."""
    E = as_borel(E)
    oracle = phi_interval_oracle(F, E, spec, reg, probes, seed=seed)
    for alpha in (0.0, 0.5, 1.0):
        if not phi_membership(_diagonal_point(oracle, alpha), F, E, spec,
                              reg, probes, seed=seed):
            return False
    emax = max_envelope(reg, probes)
    unit = ones_like(oracle.lo)
    step = emax.scale(2.5) + unit.scale(1e-6)
    for factor in (1.0, 2.0):
        above = oracle.hi + step.scale(factor)
        below = oracle.lo - step.scale(factor)
        if (phi_membership(above, F, E, spec, reg, probes, seed=seed)
                or phi_membership(below, F, E, spec, reg, probes, seed=seed)):
            return False
    return True


def phi_monotonicity_check(F: Multifunction, A, B, spec: MeasureSpec,
                           reg: Regulator, probes, seed="mono") -> bool:
    """For zero-containing values and A inside B, the integral over A sits
    inside the integral over B, tested at three seeded points of the first."""
    A, B = as_borel(A), as_borel(B)
    if not B.contains_set(A):
        raise ValueError("monotonicity needs A inside B")
    if not F.contains_zero():
        raise ZeroNotInValues("every value interval must contain zero")
    oracle_a = phi_interval_oracle(F, A, spec, reg, probes)
    oracle_b = phi_interval_oracle(F, B, spec, reg, probes)
    ok = (leq(oracle_b.lo, oracle_a.lo, ORDER_SLACK)
          and leq(oracle_a.hi, oracle_b.hi, ORDER_SLACK))
    rng = random.Random(f"{seed}")
    for _ in range(3):
        z = _diagonal_point(oracle_a, rng.random())
        ok = ok and phi_membership(z, F, B, spec, reg, probes)
    return ok


def respects_global_bound(z: RieszValue, F: Multifunction,
                          spec: MeasureSpec) -> bool:
    """The boundedness conclusion: accepted members stay within the bound of
    F times the measure of the whole domain."""
    cap = mul(F.bound(), spec.total())
    return leq(abs(z), cap, ORDER_SLACK)
