"""The unit-interval domain: Borel sets as finite interval unions, positive
lattice-valued measures, gauges, and constructive fine tagged partitions.

The domain is fixed to T = [0, 1] with the absolute-difference metric.  Borel
sets are finite unions of closed subintervals kept in a unique normal form;
measures are ``length * m0`` for a fixed nonnegative generator ``m0``.
"""

from __future__ import annotations

import bisect as _bisect
import random
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

from .errors import DepthExceeded, EnvelopeTooSmall, NotDisjoint
from .regulators import ConstantMap, Geometric, IndexMap, Regulator, envelope
from .values import ORDER_SLACK, RieszValue, leq, zero_like

_EPS = 1e-12

#: The slope of anchored gauges; below 1, so that no fine cell can straddle
#: an anchor it is not tagged at.
ANCHORED_KAPPA = 0.9


@dataclass(frozen=True)
class Interval:
    """A closed subinterval of [0, 1]; degenerate intervals are allowed."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]")

    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, t: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= t <= self.hi + tol


class BorelSet:
    """A finite union of pairwise non-overlapping closed intervals, sorted and
    merged into a unique normal form.  ``is_open`` flags that the set stands
    for the relatively open version of the same union (open at every endpoint
    except 0 and 1)."""

    __slots__ = ("components", "is_open")

    def __init__(self, components=(), is_open: bool = False):
        merged: list[list[float]] = []
        for c in sorted(components, key=lambda c: (c.lo, c.hi)):
            if merged and c.lo <= merged[-1][1]:
                if c.hi > merged[-1][1]:
                    merged[-1][1] = c.hi
            else:
                merged.append([c.lo, c.hi])
        self.components = tuple(Interval(lo, hi) for lo, hi in merged)
        self.is_open = is_open

    @classmethod
    def from_pairs(cls, pairs, is_open: bool = False) -> "BorelSet":
        return cls((Interval(float(a), float(b)) for a, b in pairs), is_open)

    @classmethod
    def empty(cls, is_open: bool = False) -> "BorelSet":
        return cls((), is_open)

    @classmethod
    def whole(cls) -> "BorelSet":
        return cls((Interval(0.0, 1.0),))

    def to_pairs(self) -> list[list[float]]:
        return [[c.lo, c.hi] for c in self.components]

    def is_empty(self) -> bool:
        return not self.components

    def length(self) -> float:
        return sum(c.length() for c in self.components)

    def contains_point(self, t: float, tol: float = 0.0) -> bool:
        return any(c.contains(t, tol) for c in self.components)

    def contains_set(self, other: "BorelSet", tol: float = _EPS) -> bool:
        """Closure containment: every component of ``other`` sits inside some
        component of ``self`` (endpoint contact allowed)."""
        return all(
            any(c.lo - tol <= o.lo and o.hi <= c.hi + tol for c in self.components)
            for o in other.components)

    def union(self, other: "BorelSet") -> "BorelSet":
        return BorelSet(self.components + other.components)

    def intersection(self, other: "BorelSet") -> "BorelSet":
        out = []
        for a in self.components:
            for b in other.components:
                lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
                if hi - lo > 0.0:
                    out.append(Interval(lo, hi))
        return BorelSet(out)

    def difference(self, other: "BorelSet") -> "BorelSet":
        out = []
        for a in self.components:
            cuts = [a]
            for b in other.components:
                nxt = []
                for piece in cuts:
                    if b.hi <= piece.lo or b.lo >= piece.hi:
                        nxt.append(piece)
                        continue
                    if b.lo > piece.lo:
                        nxt.append(Interval(piece.lo, b.lo))
                    if b.hi < piece.hi:
                        nxt.append(Interval(b.hi, piece.hi))
                cuts = nxt
            out.extend(p for p in cuts if p.length() > 0.0)
        return BorelSet(out)

    def boundary_points(self) -> tuple[float, ...]:
        pts: list[float] = []
        for c in self.components:
            pts.extend((c.lo, c.hi))
        return tuple(sorted(set(pts)))

    def __eq__(self, other):
        return (isinstance(other, BorelSet)
                and self.components == other.components
                and self.is_open == other.is_open)

    def __hash__(self):
        return hash((self.components, self.is_open))

    def __repr__(self):
        tag = "open " if self.is_open else ""
        return f"BorelSet({tag}{self.to_pairs()!r})"


def overlap_length(a: BorelSet, b: BorelSet) -> float:
    return a.intersection(b).length()


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureSpec:
    """The measure ``E -> length(E) * m0`` for a fixed generator ``m0 >= 0``,
    which is positive, finitely additive, and regular by construction."""

    m0: RieszValue

    def __post_init__(self):
        if not leq(zero_like(self.m0), self.m0):
            raise ValueError("the measure generator must be nonnegative")
        if self.m0.is_zero():
            raise ValueError("the measure generator must be nonzero")

    def of_length(self, length: float) -> RieszValue:
        return self.m0.scale(length)

    def total(self) -> RieszValue:
        """The measure of the whole domain [0, 1]."""
        return self.m0


def measure(spec: MeasureSpec, E: BorelSet) -> RieszValue:
    """The measure of a Borel set: its total length times the generator."""
    return spec.of_length(E.length())


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantRadius:
    value: float

    def __post_init__(self):
        if self.value <= 0.0:
            raise ValueError("gauge radii must be positive")

    def compile(self) -> Callable[[float], float]:
        """The radius as a function of the point."""
        value = self.value
        return lambda t: value

    def describe(self):
        return {"kind": "constant", "radius": self.value}


@dataclass(frozen=True)
class PiecewiseRadius:
    """Piecewise-constant radius on a finite grid 0 = b0 < ... < bm = 1;
    ``values[k]`` applies on [b_k, b_{k+1})."""

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breaks) != len(self.values) + 1:
            raise ValueError("need one more break than values")
        if self.breaks[0] != 0.0 or self.breaks[-1] != 1.0:
            raise ValueError("the grid must span [0, 1]")
        if any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breaks must increase")
        if any(v <= 0.0 for v in self.values):
            raise ValueError("gauge radii must be positive")

    def compile(self) -> Callable[[float], float]:
        """The radius as a function of the point."""
        breaks, values = self.breaks, self.values
        last = len(values) - 1
        bisect_right = _bisect.bisect_right

        def at(t):
            k = bisect_right(breaks, t) - 1
            return values[min(max(k, 0), last)]
        return at

    def describe(self):
        return {"kind": "piecewise", "breaks": list(self.breaks),
                "values": list(self.values)}


@dataclass(frozen=True)
class AnchoredRadius:
    """Radius ``min(cap, kappa * distance to the nearest anchor)``, with a
    declared positive exception radius at each anchor itself."""

    anchors: tuple[float, ...]
    anchor_radii: tuple[float, ...]
    kappa: float
    cap: float

    def __post_init__(self):
        if not self.anchors or len(self.anchors) != len(self.anchor_radii):
            raise ValueError("anchors and their radii must pair up")
        if any(a >= b for a, b in zip(self.anchors, self.anchors[1:])):
            raise ValueError("anchors must be sorted and distinct")
        if any(r <= 0.0 for r in self.anchor_radii) or self.cap <= 0.0:
            raise ValueError("gauge radii must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1) so cells stay on one "
                             "side of the anchors they are not tagged at")

    def at(self, t: float) -> float:
        """The radius at ``t``; the reference definition for :meth:`compile`."""
        anchors = self.anchors
        i = _bisect.bisect_left(anchors, t)
        if i < len(anchors) and anchors[i] == t:
            return self.anchor_radii[i]
        best = anchors[i] - t if i < len(anchors) else t - anchors[i - 1]
        if 0 < i < len(anchors):
            left = t - anchors[i - 1]
            if left < best:
                best = left
        return min(self.cap, self.kappa * best)

    def compile(self) -> Callable[[float], float]:
        """:meth:`at` as a closure over local floats, returning the same
        float at every point."""
        anchors, radii = self.anchors, self.anchor_radii
        kappa, cap = self.kappa, self.cap
        n = len(anchors)
        bisect_left = _bisect.bisect_left

        def at(t):
            i = bisect_left(anchors, t)
            if i == n:
                best = t - anchors[-1]
            else:
                right = anchors[i]
                if right == t:
                    return radii[i]
                best = right - t
                if i and t - anchors[i - 1] < best:
                    best = t - anchors[i - 1]
            r = kappa * best
            return r if r < cap else cap
        return at

    def describe(self):
        return {"kind": "anchored", "anchors": list(self.anchors),
                "anchor_radii": list(self.anchor_radii),
                "kappa": self.kappa, "cap": self.cap}


@dataclass(frozen=True)
class Gauge:
    """A strictly positive radius function with declared mandatory tags and a
    positive floor away from them."""

    radius: ConstantRadius | PiecewiseRadius | AnchoredRadius
    mandatory_tags: tuple[float, ...] = ()
    floor_on_remainder: float = 0.0
    #: the radius at a point, compiled once; the hottest call in the
    #: partition builders
    gamma: Callable[[float], float] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.floor_on_remainder <= 0.0:
            raise ValueError("the remainder floor must be positive")
        object.__setattr__(self, "gamma", self.radius.compile())
        for p in self.mandatory_tags:
            if not 0.0 <= p <= 1.0:
                raise ValueError("mandatory tags must lie in [0, 1]")
            if self.gamma(p) <= 0.0:
                raise ValueError("the gauge must be positive at its tags")

    @classmethod
    def constant(cls, value: float, mandatory_tags=()) -> "Gauge":
        return cls(ConstantRadius(value), tuple(sorted(mandatory_tags)), value)

    @classmethod
    def piecewise(cls, breaks, values, mandatory_tags=()) -> "Gauge":
        return cls(PiecewiseRadius(tuple(breaks), tuple(values)),
                   tuple(sorted(mandatory_tags)), min(values))

    @classmethod
    def anchored(cls, anchors, tag_radius: float, cap: float = 0.25) -> "Gauge":
        """A gauge that pins cells around each anchor (radius ``tag_radius``
        there) and relaxes linearly, with slope :data:`ANCHORED_KAPPA`, with
        the distance from them."""
        anchors = tuple(sorted(set(anchors)))
        radii = (tag_radius,) * len(anchors)
        floor = ANCHORED_KAPPA * tag_radius / 8.0
        return cls(AnchoredRadius(anchors, radii, ANCHORED_KAPPA, cap),
                   anchors, floor)

    def describe(self):
        return {"radius": self.radius.describe(),
                "mandatory_tags": list(self.mandatory_tags),
                "floor": self.floor_on_remainder}


# ---------------------------------------------------------------------------
# tagged partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaggedPartition:
    """A finite family of (cell, tag) pairs with tags inside their cells and
    cells overlapping at most at endpoints."""

    items: tuple[tuple[Interval, float], ...]

    def __post_init__(self):
        prev_hi = None
        for cell, tag in self.items:
            lo, hi = cell.lo, cell.hi
            if not lo - _EPS <= tag <= hi + _EPS:
                raise ValueError(f"tag {tag} outside its cell [{lo}, {hi}]")
            if prev_hi is not None and lo < prev_hi - _EPS:
                raise ValueError("cells overlap on positive length")
            prev_hi = hi

    def cells(self):
        return tuple(cell for cell, _ in self.items)

    def total_length(self) -> float:
        return sum(cell.length() for cell, _ in self.items)

    def covers(self, E: BorelSet, tol: float = 1e-9) -> bool:
        """True when the cells tile ``E`` up to endpoints."""
        covered = BorelSet(self.cells())
        return (abs(self.total_length() - E.length()) <= tol
                and covered.contains_set(E, tol)
                and E.contains_set(covered, tol))

    def to_triples(self) -> list[list[float]]:
        return [[cell.lo, cell.hi, tag] for cell, tag in self.items]

    def __len__(self):
        return len(self.items)


def is_fine(part: TaggedPartition, gauge: Gauge) -> bool:
    """Strict fineness: every cell lies inside the open ball around its tag."""
    for cell, tag in part.items:
        reach = max(tag - cell.lo, cell.hi - tag)
        if not reach < gauge.gamma(tag):
            return False
    return True


def _carve_mandatory(gauge: Gauge, piece: Interval, shrink=None):
    """Cells pinned at each mandatory tag inside ``piece``; returns the cells
    and the leftover gaps."""
    tags = sorted(p for p in gauge.mandatory_tags
                  if piece.lo <= p <= piece.hi)
    cells: list[tuple[Interval, float]] = []
    for idx, p in enumerate(tags):
        h = gauge.gamma(p) / 2.0
        if idx > 0:
            h = min(h, (p - tags[idx - 1]) / 4.0)
        if idx + 1 < len(tags):
            h = min(h, (tags[idx + 1] - p) / 4.0)
        if shrink is not None:
            h *= shrink(p)
        cells.append((Interval(max(piece.lo, p - h), min(piece.hi, p + h)), p))
    gaps = []
    cursor = piece.lo
    for cell, _ in cells:
        if cell.lo - cursor > _EPS:
            gaps.append(Interval(cursor, cell.lo))
        cursor = cell.hi
    if piece.hi - cursor > _EPS:
        gaps.append(Interval(cursor, piece.hi))
    return cells, gaps


def _fill_canonical(gauge: Gauge, a: float, b: float, depth: int,
                    max_depth: int, out: list):
    """Bisect [a, b] until each piece fits the ball of one of its midpoint,
    right, or left endpoint (preferred in that order)."""
    if b - a <= _EPS:
        return
    for tag in (0.5 * (a + b), b, a):
        if max(tag - a, b - tag) < gauge.gamma(tag):
            out.append((Interval(a, b), tag))
            return
    if depth >= max_depth:
        raise DepthExceeded(
            f"no fine cell for [{a}, {b}] within depth {max_depth}; "
            "the gauge floor declaration looks wrong")
    mid = 0.5 * (a + b)
    _fill_canonical(gauge, a, mid, depth + 1, max_depth, out)
    _fill_canonical(gauge, mid, b, depth + 1, max_depth, out)


def cousin_partition(gauge: Gauge, E: Interval, max_depth: int = 48) -> TaggedPartition:
    """A deterministic fine tagged partition of one interval.

    Mandatory tags get carved out first, each as the tag of a cell of
    half-width below the gauge there; the remaining closed pieces are
    bisected until they fit, which terminates because the gauge has a
    positive floor away from the mandatory tags.
    """
    if E.length() <= 0.0:
        return TaggedPartition(((E, E.lo),))
    cells, gaps = _carve_mandatory(gauge, E)
    out = list(cells)
    for gap in gaps:
        _fill_canonical(gauge, gap.lo, gap.hi, 0, max_depth, out)
    out.sort(key=lambda item: item[0].lo)
    return TaggedPartition(tuple(out))


def partition_borel(gauge: Gauge, E: BorelSet, max_depth: int = 48) -> TaggedPartition:
    """Concatenated fine partitions of every component of a Borel set."""
    items: list[tuple[Interval, float]] = []
    for comp in E.components:
        items.extend(cousin_partition(gauge, comp, max_depth).items)
    return TaggedPartition(tuple(items))


def _fill_random(gamma, lo: float, hi: float, rng: random.Random,
                 max_depth: int, split_budget: int, out: list) -> int:
    """Append seeded random fine cells tiling [lo, hi] to ``out`` and return
    the split budget left over.

    Each piece draws a random tag, then falls back to its midpoint, right and
    left endpoint; a piece that fits is split anyway now and then while the
    budget lasts, and a piece that does not fit is cut at a length sized to
    the gauge at its friendlier endpoint.  Pieces are visited depth first,
    left piece first, and the radii already known at a piece's endpoints
    travel down to its halves.  ``rng.uniform(x, y)`` is spelled out as the
    ``x + (y - x) * rng.random()`` it evaluates.
    """
    draw = rng.random
    stack = [(lo, hi, 0, None, None)]
    pop, push = stack.pop, stack.append
    while stack:
        a, b, depth, ga, gb = pop()
        width = b - a
        if width <= _EPS:
            continue
        tag = a + width * (0.25 + (0.75 - 0.25) * draw())
        gt = gamma(tag)
        if tag - a < gt and b - tag < gt:
            accepted = tag
        else:
            tag = a + 0.5 * width
            accepted = None
            if 0.5 * width < gamma(tag):
                accepted = tag
            else:
                if gb is None:
                    gb = gamma(b)
                if width < gb:
                    accepted = b
                else:
                    if ga is None:
                        ga = gamma(a)
                    if width < ga:
                        accepted = a
        if accepted is not None:
            if not (split_budget > 0 and depth < max_depth - 4
                    and draw() < 0.45):
                out.append((Interval(a, b), accepted))
                continue
            split_budget -= 1
            cut = a + width * (0.35 + (0.65 - 0.35) * draw())
        else:
            if depth >= max_depth:
                raise DepthExceeded(
                    f"no fine cell for [{a}, {b}] within depth {max_depth}")
            # march toward the region that forces small cells: carve off a
            # piece sized to the gauge at the friendlier endpoint so it
            # accepts at once
            if ga is None:
                ga = gamma(a)
            if gb is None:
                gb = gamma(b)
            # min(max(step, 0.2 * width), 0.7 * width), without the calls
            step = 0.9 * (ga if ga >= gb else gb) * (0.8 + (1.0 - 0.8) * draw())
            if step < 0.2 * width:
                step = 0.2 * width
            if step > 0.7 * width:
                step = 0.7 * width
            cut = a + step if ga >= gb else b - step
        push((cut, b, depth + 1, None, gb))
        push((a, cut, depth + 1, ga, None))
    return split_budget


def _random_fine_partition(gauge: Gauge, E: BorelSet, rng: random.Random,
                           max_depth: int, split_budget: int) -> TaggedPartition:
    items: list[tuple[Interval, float]] = []
    for comp in E.components:
        if comp.length() <= 0.0:
            items.append((comp, comp.lo))
            continue
        cells, gaps = _carve_mandatory(
            gauge, comp, shrink=lambda p: rng.uniform(0.5, 0.999))
        items.extend(cells)
        for gap in gaps:
            split_budget = _fill_random(gauge.gamma, gap.lo, gap.hi, rng,
                                        max_depth, split_budget, items)
    items.sort(key=lambda item: item[0].lo)
    return TaggedPartition(tuple(items))


def iter_fine_partitions(gauge: Gauge, E: BorelSet, count: int, seed,
                         max_depth: int = 48):
    """Lazily yield the canonical fine partition and seeded random fine
    perturbations.

    Perturbations randomize split points, tags, and carve widths, and a
    fraction of them refine several levels deeper so the sample mixes scales.
    """
    yield partition_borel(gauge, E, max_depth)
    for s in range(max(0, count - 1)):
        rng = random.Random(f"{seed}:{s}")
        budget = 10 if s % 3 == 2 else 2
        yield _random_fine_partition(gauge, E, rng, max_depth, budget)


# ---------------------------------------------------------------------------
# regularity and sigma-additivity
# ---------------------------------------------------------------------------

def _active_budget(env: RieszValue, m0: RieszValue) -> float:
    """Largest total length that may separate the inner compact from the outer
    open witness: min over m0's support of env / m0."""
    budget = float("inf")
    for key, w in m0.nonzero_coords():
        budget = min(budget, env.coord(key) / w)
    return budget


def regularity_witness(spec: MeasureSpec, E: BorelSet, reg: Regulator,
                       phi: IndexMap) -> tuple[BorelSet, BorelSet]:
    """A compact inner and relatively open outer witness for ``E`` whose gap
    measure is below the probe envelope.

    Components shrink inward and grow outward by a margin sized against the
    envelope; the outer set is clamped to [0, 1] and flagged open.
    """
    if E.is_empty():
        return BorelSet.empty(), BorelSet.empty(is_open=True)
    env = envelope(reg, phi)
    budget = _active_budget(env, spec.m0)
    if not budget > 0.0:
        raise EnvelopeTooSmall(
            "the probe envelope vanishes on an active coordinate")
    n = len(E.components)
    eps = min(budget / (5.0 * n), 0.2)
    for _ in range(80):
        inner = [Interval(c.lo + eps, c.hi - eps)
                 for c in E.components if c.length() > 2.0 * eps]
        outer = [Interval(max(0.0, c.lo - eps), min(1.0, c.hi + eps))
                 for c in E.components]
        K = BorelSet(inner)
        U = BorelSet(outer, is_open=True)
        gap = spec.of_length(U.length() - K.length())
        if leq(gap, env, ORDER_SLACK):
            return K, U
        eps *= 0.5
        if eps <= 0.0:
            break
    raise EnvelopeTooSmall("no positive margin meets the envelope bound")


def sigma_additivity_check(spec: MeasureSpec, family, tail_bound: RieszValue,
                           slack: float = ORDER_SLACK) -> bool:
    """Two-sided additivity check for a finite disjoint family, with an
    explicit tail allowance for truncations of infinite families.

    Also exercises the inner compact exhaustion: witnesses at shrinking
    envelopes must approach the measure of the union from inside.
    """
    family = tuple(family)
    for i, a in enumerate(family):
        for b in family[i + 1:]:
            if overlap_length(a, b) > slack:
                raise NotDisjoint("family members overlap on positive length")
    union = reduce(lambda x, y: x.union(y), family, BorelSet.empty())
    total = measure(spec, union)
    partial = zero_like(spec.m0)
    for a in family:
        partial = partial + measure(spec, a)
    ok = (leq(total, partial + tail_bound, slack)
          and leq(partial, total + tail_bound, slack))
    if union.is_empty():
        return ok
    reg = Geometric(spec.m0, 1.0, 0.5)
    prev = None
    for c in (2, 4, 6):
        K, _ = regularity_witness(spec, union, reg, ConstantMap(c))
        mu_k = measure(spec, K)
        ok = ok and leq(mu_k, total, slack)
        ok = ok and leq(total - mu_k, envelope(reg, ConstantMap(c)), slack)
        if prev is not None:
            ok = ok and leq(prev, mu_k, slack)
        prev = mu_k
    return ok
