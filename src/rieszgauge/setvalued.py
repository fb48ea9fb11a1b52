"""The set-valued gauge integral over order intervals.

Value sets are order intervals [lo, hi] (nonempty, convex, bounded, closed).
The integral of a multifunction over a set is never materialized; it is
exposed as an interval oracle and as a membership test.  Since every set-sum
is the interval between the Riemann sums of the two end integrands, a point
is in the integral up to the envelope r exactly when it lies between the end
integrals widened by r; membership is decided from those integrals, and a
point within float rounding of an edge is reported undecided, never as a
verdict.  The structural checks (convexity, closedness, boundedness,
monotonicity) tie the oracle and the membership test together.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from .domain import BorelSet, MeasureSpec, TaggedPartition
from .errors import (EmptyFamily, MembershipUndecided,
                     NegativeScaleUnsupported, PiecesOverlap,
                     UnboundedMultifunction, ZeroNotInValues)
from .integrands import (_GRID, ConstantIntegrand, Integrand, SimpleIntegrand,
                         disjoint_lookup)
from .integrate import as_borel, kh_integrate, riemann_sum
from .regulators import Regulator, Scaled, SumPair, max_envelope, min_envelope
from .values import ORDER_SLACK, RieszValue, leq, mul, ones_like, zero_like

_ORDER_MESSAGE = "an order interval needs lo <= hi"


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
    when it is built, and the value interval, the jump points, the bound
    and the zero are read off them here."""

    lower: Integrand
    upper: Integrand

    #: Whether the end integrands integrate in closed form, so that the
    #: integral's interval is their exact integrals (see
    #: :func:`endpoint_integrals`) rather than certified ones.
    exact_ends = False

    def value_at(self, t: float) -> OrderInterval:
        return OrderInterval(self.lower.value_at(t), self.upper.value_at(t))

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
        disjoint_lookup(self.pieces, PiecesOverlap,
                        "simple multifunction pieces")
        object.__setattr__(self, "lower", SimpleIntegrand(
            tuple((s, C.lo) for s, C in self.pieces)))
        object.__setattr__(self, "upper", SimpleIntegrand(
            tuple((s, C.hi) for s, C in self.pieces)))

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
    measure.  Every value is an order interval and ``m0 >= 0``, so it is the
    interval between the Riemann sums of the two ends (see
    :func:`~rieszgauge.integrate.riemann_sum`), which for finite values
    equals the dot-sum of the per-cell intervals bit for bit.  A tag of a
    nonempty cell whose value interval has ``lo > hi`` raises ValueError as
    that interval would."""
    tags = [tag for lo, hi, tag in part.triples if hi != lo]
    try:
        # every coordinate either end can reach, so in a sequence space
        # also where the measure vanishes
        keys = tuple(k for k, _ in F.bound().nonzero_coords())
    except UnboundedMultifunction:
        for t in tags:
            F.value_at(t)
    else:
        like = F.zero_value()
        for lo, hi in zip(F.lower.columns(like, keys, tags),
                          F.upper.columns(like, keys, tags)):
            if not all(map(operator.le, lo, hi)):
                raise ValueError(_ORDER_MESSAGE)
    return OrderInterval(riemann_sum(F.lower, part, spec),
                         riemann_sum(F.upper, part, spec))


def endpoint_integrals(F: Multifunction, E: BorelSet,
                       spec: MeasureSpec) -> OrderInterval:
    """The interval between the closed-form integrals of the end integrands
    over ``E``; for a simple multifunction this is the endpoint-sum formula,
    the dot-sum of its value intervals scaled by the measure of each piece
    inside ``E``."""
    return OrderInterval(F.lower.integral(E, spec), F.upper.integral(E, spec))


def phi_membership(z: RieszValue, F: Multifunction, E, spec: MeasureSpec,
                   reg: Regulator, probes, *, seed="phi") -> bool:
    """Membership in the set-valued integral, decided from its end integrals.

    Every value set is an order interval and ``m0 >= 0``, so a set-sum is the
    interval [S_lo(P), S_hi(P)], and its r-neighbourhood holds ``z`` exactly
    when S_lo(P) - r <= z <= S_hi(P) + r.  Both ends are gauge integrable, so
    by Henstock's lemma ``z`` is within r of the fine set-sums of some gauge
    exactly when ∫lo - r <= z <= ∫hi + r in every coordinate: a gap inside
    both edges is witnessed by the meet of the two ends' certification gauges
    at those gaps, and a gap outside an edge defeats every gauge.  The test
    is coordinatewise and monotone in r, so the meet r of the probe
    envelopes settles every probe at once.

    Each coordinate k is compared with the band
    ``ORDER_SLACK * max(|∫lo_k|, |∫hi_k|, |z_k|, r_k)``.  ``z`` is a member
    when in every coordinate it lies at least the band inside both edges,
    and a non-member when in some coordinate it lies more than the band
    outside one; otherwise floats cannot tell, and
    :class:`MembershipUndecided` is raised.  The band is zero only where the
    edges and ``z`` are exact zeros (a sequence key the measure annihilates),
    so such a coordinate is decided.  Nothing is sampled: ``seed`` is unused,
    and kept so that callers may still pass it.
    """
    E = as_borel(E)
    F.bound()  # raises UnboundedMultifunction when there is no common bound
    r = min_envelope(reg, probes)
    ends = endpoint_integrals(F, E, spec)
    band = abs(ends.lo).join(abs(ends.hi)).join(abs(z)).join(r).scale(
        ORDER_SLACK)
    lo_edge, hi_edge = ends.lo - r, ends.hi + r
    if leq(lo_edge + band, z) and leq(z, hi_edge - band):
        return True
    if not (leq(lo_edge - band, z) and leq(z, hi_edge + band)):
        return False
    raise MembershipUndecided(
        f"undecided membership: {z!r} lies within {band!r} of an edge of "
        f"[{lo_edge!r}, {hi_edge!r}], the integral widened by the envelope")


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
