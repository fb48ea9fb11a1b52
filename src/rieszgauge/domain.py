"""The unit-interval domain: Borel sets as finite interval unions, positive
lattice-valued measures, gauges, and constructive fine tagged partitions.

The domain is fixed to T = [0, 1] with the absolute-difference metric.  Borel
sets are finite unions of closed subintervals kept in a unique normal form;
measures are ``length * m0`` for a fixed nonnegative generator ``m0``.
"""

from __future__ import annotations

import bisect as _bisect
import math
import random
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, NamedTuple

from .errors import DepthExceeded, EnvelopeTooSmall, NotDisjoint
from .regulators import ConstantMap, Geometric, IndexMap, Regulator, envelope
from .values import ORDER_SLACK, RieszValue, leq, zero_like

_EPS = 1e-12

#: The most pieces the fills of one partition may visit, counting each
#: piece a split makes; a gauge that needs more is too small to sample.
NODE_BUDGET = 2 ** 20

#: Fine partitions sampled per gauge: the canonical one and seeded random ones.
SAMPLES = 32

#: A random fill splits a piece that already fits only at depths below this.
_SPLIT_DEPTH = 44

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

    def contains_point(self, t: float) -> bool:
        return any(c.lo <= t <= c.hi for c in self.components)

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

    def on_gap(self, lo: float, hi: float) -> float:
        """The radius on [lo, hi], as the float it is everywhere."""
        return self.value

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

    def on_gap(self, lo: float, hi: float) -> None:
        """None: on [lo, hi] the gauge's compiled radius serves."""
        return None

    def describe(self):
        return {"kind": "piecewise", "breaks": list(self.breaks),
                "values": list(self.values)}


class Tent(NamedTuple):
    """An anchored radius on a gap between two neighbouring anchors,
    ``min(cap, kappa * distance to the nearer of left and right)``, where a
    missing neighbour is an infinite one, which never wins.  The random and
    canonical walks read the four floats and evaluate it inline; a call
    returns the same float."""

    left: float
    right: float
    kappa: float
    cap: float

    def __call__(self, t: float) -> float:
        best = self.right - t
        if t - self.left < best:
            best = t - self.left
        r = self.kappa * best
        return r if r < self.cap else self.cap


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

    def on_gap(self, lo: float, hi: float) -> "Tent | None":
        """:meth:`compile` on [lo, hi] as data: the :class:`Tent` of the
        anchors next to [lo, hi], which are the nearest ones at every point
        there when it holds no anchor.  None when an anchor lies in
        [lo, hi]."""
        anchors = self.anchors
        i = _bisect.bisect_left(anchors, lo)
        if i < len(anchors) and anchors[i] <= hi:
            return None
        return Tent(anchors[i - 1] if i else -math.inf,
                    anchors[i] if i < len(anchors) else math.inf,
                    self.kappa, self.cap)

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
        if self.floor_on_remainder <= _EPS:
            raise EnvelopeTooSmall(
                f"gauge floor {self.floor_on_remainder:g} is below float "
                f"resolution: partition cells narrower than {_EPS:g} "
                "cannot be cut")
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

    def on_gap(self, lo: float, hi: float):
        """The radius on [lo, hi], a stretch free of mandatory tags, as the
        walks read it: a float where it is constant and a :class:`Tent`
        between two anchors, both evaluated without a call, otherwise
        :attr:`gamma`.  Each returns what :attr:`gamma` returns there."""
        radius = self.radius.on_gap(lo, hi)
        return self.gamma if radius is None else radius

    def describe(self):
        return {"radius": self.radius.describe(),
                "mandatory_tags": list(self.mandatory_tags),
                "floor": self.floor_on_remainder}


# ---------------------------------------------------------------------------
# tagged partitions
# ---------------------------------------------------------------------------

class TaggedPartition:
    """A finite family of tagged cells, held as flat ``(lo, hi, tag)`` float
    triples in cell order.  Every construction checks ``0 <= lo <= hi <= 1``,
    each tag inside its cell, and that cells overlap at most at endpoints."""

    __slots__ = ("triples",)

    def __init__(self, items=()):
        """The partition of ``(Interval, tag)`` pairs."""
        self.triples = _checked(tuple((cell.lo, cell.hi, tag)
                                      for cell, tag in items))

    @classmethod
    def from_triples(cls, triples) -> "TaggedPartition":
        """The partition of ``(lo, hi, tag)`` triples, checked the same way."""
        part = cls.__new__(cls)
        part.triples = _checked(tuple(triples))
        return part

    @property
    def items(self) -> tuple[tuple[Interval, float], ...]:
        """The ``(Interval, tag)`` pairs, built on demand."""
        return tuple((Interval(lo, hi), tag) for lo, hi, tag in self.triples)

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi, _ in self.triples)

    def covers(self, E: BorelSet) -> bool:
        """True when the cells tile ``E`` up to endpoints, within 1e-9."""
        tol = 1e-9
        covered = BorelSet(Interval(lo, hi) for lo, hi, _ in self.triples)
        return (abs(self.total_length() - E.length()) <= tol
                and covered.contains_set(E, tol)
                and E.contains_set(covered, tol))

    def to_triples(self) -> list[list[float]]:
        return [list(cell) for cell in self.triples]

    def __len__(self):
        return len(self.triples)


def _checked(triples: tuple) -> tuple:
    """``triples``, once every cell has passed the partition's checks."""
    prev_hi = -math.inf
    for lo, hi, tag in triples:
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
        if not lo - _EPS <= tag <= hi + _EPS:
            raise ValueError(f"tag {tag} outside its cell [{lo}, {hi}]")
        if lo < prev_hi - _EPS:
            raise ValueError("cells overlap on positive length")
        prev_hi = hi
    return triples


def is_fine(part: TaggedPartition, gauge: Gauge) -> bool:
    """Strict fineness: every cell lies inside the open ball around its tag."""
    gamma = gauge.gamma
    for lo, hi, tag in part.triples:
        reach = max(tag - lo, hi - tag)
        if not reach < gamma(tag):
            return False
    return True


def _carve_plan(gauge: Gauge, lo: float, hi: float) -> list:
    """The mandatory tags inside [lo, hi], in order, each paired with the
    half-width of its cell before any shrink: half the radius there, and at
    most a quarter of the way to each neighbouring tag."""
    tags = sorted(p for p in gauge.mandatory_tags if lo <= p <= hi)
    plan = []
    for idx, p in enumerate(tags):
        h = gauge.gamma(p) / 2.0
        if idx > 0:
            h = min(h, (p - tags[idx - 1]) / 4.0)
        if idx + 1 < len(tags):
            h = min(h, (tags[idx + 1] - p) / 4.0)
        plan.append((p, h))
    return plan


def _carve(plan: list, lo: float, hi: float, shrink=None) -> list:
    """The cells pinned at the tags of ``plan`` and the gaps left between
    them in [lo, hi], in order: a cell is a ``(lo, hi, tag)`` triple and a
    gap a ``(lo, hi)`` pair.  ``shrink(tag)`` scales a half-width; it is
    called for every cell, in order, before the list is returned."""
    pieces = []
    cursor = lo
    for p, h in plan:
        if shrink is not None:
            h *= shrink(p)
        cell = (max(lo, p - h), min(hi, p + h), p)
        if cell[0] > cursor:
            pieces.append((cursor, cell[0]))
        pieces.append(cell)
        cursor = cell[1]
    if hi > cursor:
        pieces.append((cursor, hi))
    return pieces


def _carve_mandatory(gauge: Gauge, lo: float, hi: float, shrink=None) -> list:
    """:func:`_carve` of [lo, hi] from its :func:`_carve_plan`."""
    return _carve(_carve_plan(gauge, lo, hi), lo, hi, shrink)


def _sliver(radius, a: float, b: float, tag: float) -> tuple:
    """The one cell of [a, b], too narrow to cut, tagged at ``tag``; raise
    DepthExceeded unless it is fine there.  ``radius`` is a float or a
    function of the point."""
    r = radius(tag) if callable(radius) else radius
    if not max(tag - a, b - tag) < r:
        raise DepthExceeded(
            f"[{a}, {b}] is below float resolution and not fine at its tag "
            f"{tag}; the gauge floor declaration looks wrong")
    return (a, b, tag)


def _fill_canonical(radius, lo: float, hi: float, nodes: int,
                    out: list) -> int:
    """Bisect [lo, hi], depth first and left piece first, until each piece
    fits the ball of its midpoint, right or left endpoint (preferred in that
    order); append the cells to ``out`` and return what is left of the node
    budget ``nodes``.  ``radius`` is that of :meth:`Gauge.on_gap`, read as
    :func:`_fill_random` reads it, and the radius at a midpoint travels down
    to the halves as an endpoint's.  A piece of width at most ``_EPS`` is a
    :func:`_sliver` cell tagged at its midpoint, which every piece of [0, 1]
    becomes by depth 40."""
    tent = isinstance(radius, Tent)
    gamma = None if tent or not callable(radius) else radius
    if tent:
        left, right, kappa, cap = radius
    ends = (radius(lo), radius(hi)) if callable(radius) else (radius, radius)
    stack = [(lo, hi, *ends)]
    pop, push = stack.pop, stack.append
    while stack:
        a, b, ga, gb = pop()
        mid = 0.5 * (a + b)
        if b - a <= _EPS:
            out.append(_sliver(radius, a, b, mid))
            continue
        if tent:                            # Tent.__call__, inline
            d, e = mid - left, right - mid
            gm = kappa * (d if d < e else e)
            gm = gm if gm < cap else cap
        else:
            gm = radius if gamma is None else gamma(mid)
        # a float radius that misses the midpoint misses both endpoints,
        # since rounding is monotone: fl(b - a) >= fl(mid - a), fl(b - mid)
        if mid - a < gm and b - mid < gm:
            out.append((a, b, mid))
        elif b - a < gb:
            out.append((a, b, b))
        elif b - a < ga:
            out.append((a, b, a))
        else:
            nodes -= 2
            if nodes < 0:
                raise _over_budget()
            push((mid, b, gm, gb))
            push((a, mid, ga, gm))
    return nodes


def _over_budget() -> EnvelopeTooSmall:
    return EnvelopeTooSmall(
        f"a fine partition needs more than {NODE_BUDGET} pieces: the gauge "
        "is too small to sample")


def _component_pieces(gauge: Gauge, lo: float, hi: float, plan: list,
                      shrink=None) -> list:
    """The pieces of :func:`_carve` for the component [lo, hi] and its
    ``plan``.  A component no wider than ``_EPS`` is one :func:`_sliver`
    cell instead, tagged at its first mandatory tag if it holds one and
    otherwise at its midpoint."""
    if hi - lo <= 0.0:
        return [(lo, hi, lo)]
    pieces = _carve(plan, lo, hi, shrink)
    if hi - lo > _EPS:
        return pieces
    tag = plan[0][0] if plan else 0.5 * (lo + hi)
    return [_sliver(gauge.gamma, lo, hi, tag)]


def cousin_partition(gauge: Gauge, E: Interval) -> TaggedPartition:
    """A deterministic fine tagged partition of one interval.

    Mandatory tags get carved out first, each as the tag of a cell of
    half-width below the gauge there; the remaining closed pieces are
    bisected until they fit, which terminates because the gauge has a
    positive floor away from the mandatory tags.
    """
    return partition_borel(gauge, BorelSet((E,)))


def partition_borel(gauge: Gauge, E: BorelSet) -> TaggedPartition:
    """Concatenated fine partitions of every component of a Borel set."""
    return _fine_partition(gauge, _carve_plans(gauge, E))


def _fill_random(radius, lo: float, hi: float, rng: random.Random,
                 split_budget: int, nodes: int, out: list) -> tuple[int, int]:
    """Append seeded random fine cells tiling [lo, hi] to ``out`` and return
    the split budget and the node budget left over.

    Each piece draws a random tag, then falls back to its midpoint, right and
    left endpoint; a piece that fits is split anyway now and then, at depths
    below ``_SPLIT_DEPTH`` while the split budget lasts, and a piece that
    does not fit is cut at a length sized to the gauge at its friendlier
    endpoint.  Pieces are visited depth first, left piece first: the walk
    goes on with the left piece in place and stacks the right one, and the
    radius at each cut, evaluated as it is made, travels down to both halves
    as an endpoint's.  ``radius`` is that of :meth:`Gauge.on_gap`; this walk
    and :func:`_fill_canonical` evaluate a float or a :class:`Tent` inline,
    with the float operations of a call, and call :attr:`Gauge.gamma`
    otherwise.  ``rng.uniform(x, y)`` is spelled out as the
    ``x + (y - x) * rng.random()`` it evaluates.  A piece of width at most
    ``_EPS`` is a :func:`_sliver` cell tagged at its midpoint.
    """
    draw = rng.random
    tent = isinstance(radius, Tent)
    gamma = None if tent or not callable(radius) else radius
    if tent:
        left, right, kappa, cap = radius
    ga, gb = (radius(lo), radius(hi)) if callable(radius) else (radius, radius)
    a, b, depth = lo, hi, 0
    stack: list = []
    pop, push = stack.pop, stack.append
    while True:
        width = b - a
        if width <= _EPS:
            out.append(_sliver(radius, a, b, 0.5 * (a + b)))
        else:
            tag = a + width * (0.25 + (0.75 - 0.25) * draw())
            if tent:                        # Tent.__call__, inline
                d, e = tag - left, right - tag
                gt = kappa * (d if d < e else e)
                gt = gt if gt < cap else cap
            else:
                gt = radius if gamma is None else gamma(tag)
            if not (tag - a < gt and b - tag < gt):
                tag = a + 0.5 * width
                if tent:
                    d, e = tag - left, right - tag
                    gt = kappa * (d if d < e else e)
                    gt = gt if gt < cap else cap
                else:
                    gt = radius if gamma is None else gamma(tag)
                if not (tag - a < gt and b - tag < gt):
                    tag = b if width < gb else a if width < ga else None
            if tag is None or (split_budget > 0 and depth < _SPLIT_DEPTH
                               and draw() < 0.45):
                if tag is None:
                    # march toward the region that forces small cells: carve
                    # off a piece sized to the gauge at the friendlier
                    # endpoint so it accepts at once; the clamps spell out
                    # min(max(step, 0.2 * width), 0.7 * width)
                    step = 0.9 * (ga if ga >= gb else gb) * (
                        0.8 + (1.0 - 0.8) * draw())
                    if step < 0.2 * width:
                        step = 0.2 * width
                    if step > 0.7 * width:
                        step = 0.7 * width
                    cut = a + step if ga >= gb else b - step
                else:
                    split_budget -= 1
                    cut = a + width * (0.35 + (0.65 - 0.35) * draw())
                nodes -= 2
                if nodes < 0:
                    raise _over_budget()
                if tent:
                    d, e = cut - left, right - cut
                    gc = kappa * (d if d < e else e)
                    gc = gc if gc < cap else cap
                else:
                    gc = radius if gamma is None else gamma(cut)
                depth += 1
                push((cut, b, depth, gc, gb))
                b, gb = cut, gc
                continue
            out.append((a, b, tag))
        if not stack:
            return split_budget, nodes
        a, b, depth, ga, gb = pop()


def _carve_plans(gauge: Gauge, E: BorelSet) -> list:
    """Each component of ``E`` with its :func:`_carve_plan`."""
    return [(c.lo, c.hi, _carve_plan(gauge, c.lo, c.hi))
            for c in E.components]


def _fine_partition(gauge: Gauge, plans: list, rng=None,
                    split_budget: int = 0) -> TaggedPartition:
    """The canonical fine partition of the components of ``plans``, or with
    ``rng`` a seeded random one: each component's carved cells, with their
    shrinks drawn before any fill, and random fills of the gaps between
    them, in cell order."""
    out: list = []
    nodes = NODE_BUDGET
    shrink = None if rng is None else lambda p: rng.uniform(0.5, 0.999)
    for lo, hi, plan in plans:
        for piece in _component_pieces(gauge, lo, hi, plan, shrink):
            if len(piece) == 3:
                out.append(piece)
            elif rng is None:
                nodes = _fill_canonical(gauge.on_gap(*piece), *piece, nodes,
                                        out)
            else:
                split_budget, nodes = _fill_random(
                    gauge.on_gap(*piece), *piece, rng, split_budget, nodes,
                    out)
    return TaggedPartition.from_triples(out)


def _random_fine_partition(gauge: Gauge, E: BorelSet, rng: random.Random,
                           split_budget: int) -> TaggedPartition:
    """A seeded random fine partition of ``E``."""
    return _fine_partition(gauge, _carve_plans(gauge, E), rng, split_budget)


def iter_fine_partitions(gauge: Gauge, E: BorelSet, count: int, seed):
    """Lazily yield the canonical fine partition and seeded random fine
    perturbations, all carved from one plan of the mandatory tags.

    Perturbations randomize split points, tags, and carve widths, and a
    fraction of them refine several levels deeper so the sample mixes scales.
    """
    plans = _carve_plans(gauge, E)
    yield _fine_partition(gauge, plans)
    for s in range(max(0, count - 1)):
        rng = random.Random(f"{seed}:{s}")
        budget = 10 if s % 3 == 2 else 2
        yield _fine_partition(gauge, plans, rng, budget)


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


def sigma_additivity_check(spec: MeasureSpec, family,
                           tail_bound: RieszValue) -> bool:
    """Two-sided additivity check for a finite disjoint family, with an
    explicit tail allowance for truncations of infinite families.

    Also exercises the inner compact exhaustion: witnesses at shrinking
    envelopes must approach the measure of the union from inside.
    """
    family = tuple(family)
    for i, a in enumerate(family):
        for b in family[i + 1:]:
            if a.intersection(b).length() > ORDER_SLACK:
                raise NotDisjoint("family members overlap on positive length")
    union = reduce(lambda x, y: x.union(y), family, BorelSet.empty())
    total = measure(spec, union)
    partial = zero_like(spec.m0)
    for a in family:
        partial = partial + measure(spec, a)
    ok = (leq(total, partial + tail_bound, ORDER_SLACK)
          and leq(partial, total + tail_bound, ORDER_SLACK))
    if union.is_empty():
        return ok
    reg = Geometric(spec.m0, 1.0, 0.5)
    prev = None
    for c in (2, 4, 6):
        K, _ = regularity_witness(spec, union, reg, ConstantMap(c))
        mu_k = measure(spec, K)
        ok = ok and leq(mu_k, total, ORDER_SLACK)
        ok = ok and leq(total - mu_k, envelope(reg, ConstantMap(c)),
                        ORDER_SLACK)
        if prev is not None:
            ok = ok and leq(prev, mu_k, ORDER_SLACK)
        prev = mu_k
    return ok
