"""Integrand families the certifying integrator accepts.

Constants, simple (piecewise-constant) functions, scalar formulas with a
declared Lipschitz modulus times a fixed lattice direction, convex mixes of a
lower/upper pair (used for selections), and the eventually-zero-sequence
counterexample that takes the n-th unit sequence at the points 1/n.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

from .domain import BorelSet, MeasureSpec, measure
from .errors import NotCertifiable, NotDisjoint, UnboundedMultifunction
from .values import RieszValue, SparseSeq, coordinates, leq, mul, zero_like

#: A tag mapped to float coordinates over a fixed key tuple (see
#: :func:`rieszgauge.values.coordinates`).
CoordinateMap = Callable[[float], tuple[float, ...]]

_GRID = tuple(i / 64.0 for i in range(65))


@dataclass(frozen=True)
class ScalarForm:
    """A named real formula on [0, 1] carrying its Lipschitz constant."""

    name: str
    fn: Callable[[float], float]
    lipschitz: float

    def range_bound(self) -> float:
        coarse = max(abs(self.fn(t)) for t in _GRID)
        return coarse + self.lipschitz / (2 * (len(_GRID) - 1))


def _midpoint_refined(fn, a: float, b: float) -> float:
    """Composite midpoint estimates at three resolutions, extrapolated twice;
    exact for polynomials up to degree five."""
    if b - a <= 0.0:
        return 0.0
    sums = []
    for n in (64, 128, 256):
        h = (b - a) / n
        sums.append(sum(fn(a + (i + 0.5) * h) for i in range(n)) * h)
    r1 = (4.0 * sums[1] - sums[0]) / 3.0
    r2 = (4.0 * sums[2] - sums[1]) / 3.0
    return (16.0 * r2 - r1) / 15.0


SCALAR_FORMS: dict[str, ScalarForm] = {
    form.name: form for form in (
        ScalarForm("t", lambda t: t, 1.0),
        ScalarForm("one_minus_t", lambda t: 1.0 - t, 1.0),
        ScalarForm("half_t", lambda t: 0.5 * t, 0.5),
        ScalarForm("neg_t", lambda t: -t, 1.0),
        ScalarForm("square", lambda t: t * t, 2.0),
    )
}


def step_function(ends, at_end: dict, in_gap: list):
    """A point mapped to ``at_end[t]`` at one of the sorted ``ends``, and
    otherwise to the entry of ``in_gap`` for the gap of ``ends`` that holds
    it: below the first end, between two consecutive ends, or above the
    last.  A point costs one dict probe and at most one bisection."""
    bisect_right = _bisect.bisect_right
    in_a_gap = object()

    def at(t):
        v = at_end.get(t, in_a_gap)
        if v is in_a_gap:
            v = in_gap[bisect_right(ends, t)]
        return v
    return at


def tabulate(fn, ends):
    """``fn`` as a :func:`step_function`, for an ``fn`` that is constant
    between consecutive points of the sorted ``ends``: evaluated once at
    each end and once inside each gap, the outer gaps one unit beyond the
    outer ends, so that every point gets the floats ``fn`` gives there."""
    ends = list(ends)
    if not ends:
        return step_function(ends, {}, [fn(0.0)])
    samples = [ends[0] - 1.0]
    samples += [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
    samples.append(ends[-1] + 1.0)
    return step_function(ends, {t: fn(t) for t in ends}, list(map(fn, samples)))


class PieceLookup:
    """Point lookup over disjoint pieces of the unit interval.

    Non-degenerate components cannot nest, so at most the two latest-starting
    rows can contain a point; single-point components may sit inside other
    pieces.  Ties at shared endpoints go to the earliest declared piece.
    Between two consecutive component endpoints the answer cannot change, so
    it is found once per endpoint and once per gap when the lookup is built;
    a point then costs one dict probe and one bisection.
    """

    __slots__ = ("get", "_payloads", "_ends", "_at_end", "_in_gap")

    def __init__(self, pieces):
        rows = []
        points: dict[float, int] = {}
        self._payloads = []
        for idx, (part, payload) in enumerate(pieces):
            self._payloads.append(payload)
            for comp in part.components:
                if comp.lo == comp.hi:
                    points.setdefault(comp.lo, idx)
                else:
                    rows.append((comp.lo, comp.hi, idx))
        rows.sort()
        lows = [row[0] for row in rows]
        off = len(self._payloads)

        def scan(t):
            i = _bisect.bisect_right(lows, t)
            best = points.get(t, off)
            for lo, hi, idx in rows[max(0, i - 2):i]:
                if lo <= t <= hi and idx < best:
                    best = idx
            return best
        ends = sorted({x for row in rows for x in row[:2]} | set(points))
        self._ends = ends
        self._at_end = {t: scan(t) for t in ends}
        self._in_gap = ([off] + [scan(0.5 * (a + b))
                                 for a, b in zip(ends, ends[1:])] + [off])
        #: The payload of the piece holding a point, None off every piece.
        self.get = self.compile(lambda payload: payload, None)

    def compile(self, convert, off_pieces):
        """A point mapped to ``convert`` of the payload of the piece holding
        it, and to ``off_pieces`` off every piece; ``convert`` runs once per
        piece."""
        table = [convert(p) for p in self._payloads] + [off_pieces]
        return step_function(self._ends,
                             {t: table[i] for t, i in self._at_end.items()},
                             [table[i] for i in self._in_gap])


def disjoint_lookup(pieces, error: type[Exception], what: str) -> PieceLookup:
    """The lookup over ``pieces``, which must not overlap on positive length;
    an overlap raises ``error`` naming the pieces ``what``."""
    for i, (a, _) in enumerate(pieces):
        for b, _ in pieces[i + 1:]:
            if a.intersection(b).length() > 1e-12:
                raise error(f"{what} overlap on positive length")
    return PieceLookup(pieces)


def piece_boundaries(pieces) -> tuple[float, ...]:
    """The sorted endpoints of the components of every piece."""
    pts: set[float] = set()
    for part, _ in pieces:
        pts.update(part.boundary_points())
    return tuple(sorted(pts))


class Integrand:
    """Base class; every integrand evaluates pointwise and reports the data a
    gauge construction needs (jump locations, in-piece modulus, a bound)."""

    def value_at(self, t: float) -> RieszValue:
        raise NotImplementedError

    def compile(self, like: RieszValue, keys: tuple) -> CoordinateMap:
        """The value at a tag as floats over ``keys`` in the lattice of
        ``like``.  A Riemann sum asks for it at least once, and a selection
        of two step functions builds it once for all its sums (see
        :meth:`SelectionIntegrand.compile`).  Every bounded family overrides
        it, and a subclass that changes a family's ``value_at`` must change
        this too; this default reads :meth:`value_at` and serves only
        :class:`CounterexampleC00`, whose values have no fixed keys."""
        value_at = self.value_at
        return lambda t: coordinates(value_at(t), like, keys)

    def columns(self, like: RieszValue, keys: tuple, tags) -> list:
        """The values at the list ``tags`` as one float column per key:
        :meth:`compile` at each tag, transposed, so none for no tag."""
        return list(zip(*map(self.compile(like, keys), tags)))

    def zero_value(self) -> RieszValue:
        """Zero of the integrand's value lattice."""
        raise NotImplementedError

    def check_integrable(self) -> None:
        """Raise NotCertifiable when the family is known not to be gauge
        integrable; the certifying integrator asks before anything else."""

    def integral(self, E: BorelSet, spec: MeasureSpec) -> RieszValue:
        """The integral over ``E`` by the family's closed form."""
        raise NotCertifiable(f"unsupported integrand {type(self).__name__}")

    def boundary_points(self) -> tuple[float, ...]:
        return ()

    def lipschitz(self) -> float | None:
        """Modulus away from the boundary points; None when there is none."""
        raise NotImplementedError

    def sup_bound(self) -> RieszValue:
        """A value dominating |f(t)| on all of [0, 1]."""
        raise NotImplementedError

    def scaled(self, alpha: float) -> "Integrand":
        raise NotImplementedError

    def is_nonneg(self) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantIntegrand(Integrand):
    value: RieszValue

    def value_at(self, t):
        return self.value

    def compile(self, like, keys):
        c = coordinates(self.value, like, keys)
        return lambda t: c

    def columns(self, like, keys, tags):
        n = len(tags)
        return [[x] * n for x in coordinates(self.value, like, keys)]

    def zero_value(self):
        return zero_like(self.value)

    def integral(self, E, spec):
        return mul(self.value, measure(spec, E))

    def lipschitz(self):
        return 0.0

    def sup_bound(self):
        return abs(self.value)

    def scaled(self, alpha):
        return ConstantIntegrand(self.value.scale(alpha))

    def is_nonneg(self):
        return leq(zero_like(self.value), self.value)

    def describe(self):
        return f"const:{self.value!r}"


@dataclass(frozen=True)
class SimpleIntegrand(Integrand):
    """Piecewise constant: value ``v_k`` on the set ``E_k``, zero elsewhere.
    Pieces must not overlap on positive length; at shared endpoints the
    earliest piece wins (a length-zero convention)."""

    pieces: tuple[tuple[BorelSet, RieszValue], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a simple integrand needs at least one piece")
        object.__setattr__(self, "_lookup", disjoint_lookup(
            self.pieces, NotDisjoint, "simple pieces"))
        object.__setattr__(self, "_zero", zero_like(self.pieces[0][1]))

    def value_at(self, t):
        v = self._lookup.get(t)
        return v if v is not None else self._zero

    def compile(self, like, keys):
        return self._lookup.compile(lambda v: coordinates(v, like, keys),
                                    coordinates(self._zero, like, keys))

    def zero_value(self):
        return self._zero

    def integral(self, E, spec):
        total = mul(self._zero, spec.m0)
        for part, v in self.pieces:
            total = total + mul(v, measure(spec, part.intersection(E)))
        return total

    def boundary_points(self):
        return piece_boundaries(self.pieces)

    def lipschitz(self):
        return 0.0

    def sup_bound(self):
        return reduce(lambda a, b: a.join(b),
                      (abs(v) for _, v in self.pieces), self.zero_value())

    def scaled(self, alpha):
        return SimpleIntegrand(tuple((s, v.scale(alpha)) for s, v in self.pieces))

    def is_nonneg(self):
        zero = self.zero_value()
        return all(leq(zero, v) for _, v in self.pieces)

    def describe(self):
        return f"simple:{len(self.pieces)} pieces"


@dataclass(frozen=True)
class PointwiseScalar(Integrand):
    """``coeff * form(t)`` times a fixed direction in the value lattice."""

    form: ScalarForm
    direction: RieszValue
    coeff: float = 1.0

    def value_at(self, t):
        return self.direction.scale(self.coeff * self.form.fn(t))

    def compile(self, like, keys):
        fn, coeff = self.form.fn, self.coeff
        direction = coordinates(self.direction, like, keys)
        if len(direction) == 1:
            # one coordinate, as in every scalar sum: a tuple display costs
            # a fraction of a comprehension
            d, = direction
            return lambda t: (d * (coeff * fn(t)),)

        def at(t):
            s = coeff * fn(t)
            return tuple([x * s for x in direction])
        return at

    def columns(self, like, keys, tags):
        fn, coeff = self.form.fn, self.coeff
        scales = [coeff * fn(t) for t in tags]
        return [[x * s for s in scales]
                for x in coordinates(self.direction, like, keys)]

    def zero_value(self):
        return zero_like(self.direction)

    def integral(self, E, spec):
        s = self.coeff * sum(_midpoint_refined(self.form.fn, c.lo, c.hi)
                             for c in E.components)
        return mul(self.direction, spec.m0).scale(s)

    def lipschitz(self):
        return abs(self.coeff) * self.form.lipschitz * self.direction.sup_norm()

    def sup_bound(self):
        return abs(self.direction).scale(abs(self.coeff) * self.form.range_bound())

    def scaled(self, alpha):
        return PointwiseScalar(self.form, self.direction, self.coeff * alpha)

    def is_nonneg(self):
        lo = min(self.coeff * self.form.fn(t) for t in _GRID)
        return lo >= -1e-12 and leq(zero_like(self.direction), self.direction)

    def describe(self):
        return f"{self.form.name}*{self.coeff}"


#: The families whose values change only at their boundary points.
_STEP_FAMILIES = (ConstantIntegrand, SimpleIntegrand)


@dataclass(frozen=True)
class SelectionIntegrand(Integrand):
    """Convex mix ``(1 - lam(t)) * lower(t) + lam(t) * upper(t)`` for a simple
    mixing function ``lam`` with values in [0, 1] (zero off its pieces)."""

    lower: Integrand
    upper: Integrand
    mix: tuple[tuple[BorelSet, float], ...]

    def __post_init__(self):
        for part, lam in self.mix:
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"mix value {lam} outside [0, 1]")
        lookup = disjoint_lookup(self.mix, NotDisjoint, "mix pieces")
        object.__setattr__(self, "_mix_at", lookup.compile(lambda lam: lam, 0.0))

    def mix_at(self, t: float) -> float:
        """The mix value of the earliest piece holding ``t``; 0 off them."""
        return self._mix_at(t)

    def value_at(self, t):
        lam = self.mix_at(t)
        return (self.lower.value_at(t).scale(1.0 - lam)
                + self.upper.value_at(t).scale(lam))

    def compile(self, like, keys):
        """``x * (1.0 - lam) + y * lam`` over the ends' floats: the float
        expression that :meth:`value_at`'s scales and add evaluate.  With
        two step-function ends the mix is constant between its boundary
        points, so it is tabulated there (see :func:`tabulate`), once per
        selection and lattice."""
        if not (isinstance(self.lower, _STEP_FAMILIES)
                and isinstance(self.upper, _STEP_FAMILIES)):
            return self._mixed(like, keys)
        tables = vars(self).setdefault("_tables", {})
        key = (like, keys)
        if key not in tables:
            tables[key] = tabulate(self._mixed(like, keys),
                                   self.boundary_points())
        return tables[key]

    def _mixed(self, like, keys) -> CoordinateMap:
        lower = self.lower.compile(like, keys)
        upper = self.upper.compile(like, keys)
        mix_at = self._mix_at
        if len(keys) == 1:
            def at(t):
                lam = mix_at(t)
                return (lower(t)[0] * (1.0 - lam) + upper(t)[0] * lam,)
            return at

        def at(t):
            lam = mix_at(t)
            return tuple([x * (1.0 - lam) + y * lam
                          for x, y in zip(lower(t), upper(t))])
        return at

    def zero_value(self):
        return self.lower.zero_value()

    def integral(self, E, spec):
        """The mix splits ``E`` by its pieces, and each end integrates over
        each part by its own closed form."""
        total = mul(self.zero_value(), spec.m0)
        rest = E
        for part, lam in self.mix:
            sub = part.intersection(E)
            rest = rest.difference(part)
            if sub.is_empty():
                continue
            total = total + self.lower.integral(sub, spec).scale(1.0 - lam)
            total = total + self.upper.integral(sub, spec).scale(lam)
        if not rest.is_empty():
            total = total + self.lower.integral(rest, spec)
        return total

    def boundary_points(self):
        pts = set(self.lower.boundary_points()) | set(self.upper.boundary_points())
        pts.update(piece_boundaries(self.mix))
        return tuple(sorted(pts))

    def lipschitz(self):
        lams = (self.lower.lipschitz(), self.upper.lipschitz())
        if None in lams:
            return None
        return max(lams)

    def sup_bound(self):
        return self.lower.sup_bound().join(self.upper.sup_bound())

    def scaled(self, alpha):
        return SelectionIntegrand(self.lower.scaled(alpha),
                                  self.upper.scaled(alpha), self.mix)

    def is_nonneg(self):
        return self.lower.is_nonneg() and self.upper.is_nonneg()

    def describe(self):
        return f"mix({self.lower.describe()},{self.upper.describe()})"


@dataclass(frozen=True)
class CounterexampleC00(Integrand):
    """Takes the n-th unit sequence at t = 1/n and zero everywhere else.
    Bounded nowhere as a family in the eventually-zero sequences, hence
    refused by the certifying integrator."""

    def value_at(self, t):
        # below about 5.6e-309, 1 / t overflows: no 1 / n is that small
        if t > 0.0 and math.isfinite(1.0 / t):
            n = round(1.0 / t)
            if n >= 1 and 1.0 / n == t:
                return SparseSeq({n: 1.0})
        return SparseSeq()

    def zero_value(self):
        return SparseSeq()

    def check_integrable(self):
        raise NotCertifiable(
            "the unit-sequence spike function is not gauge integrable; "
            "its fine Riemann sums have unbounded support")

    def integral(self, E, spec):
        self.check_integrable()

    def lipschitz(self):
        return None

    def sup_bound(self):
        raise UnboundedMultifunction(
            "the unit-sequence spike family has no common bound")

    def scaled(self, alpha):
        raise UnboundedMultifunction(
            "the counterexample integrand does not support scaling")

    def is_nonneg(self):
        return True

    def describe(self):
        return "counterexample"


def named_integrand(name: str, direction: RieszValue) -> Integrand:
    """Resolve a built-in integrand name against a value-lattice direction."""
    if name == "counterexample":
        return CounterexampleC00()
    if name in SCALAR_FORMS:
        return PointwiseScalar(SCALAR_FORMS[name], direction)
    raise ValueError(f"unknown integrand {name!r}")
