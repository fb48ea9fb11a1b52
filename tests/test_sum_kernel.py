"""The coordinate kernel behind ``riemann_sum`` and ``riemann_set_sum``
against the per-cell lattice loops it replaced, kept here as the reference:
every sum must agree bit for bit, and every tag whose value interval is out
of order must still raise."""

import bisect
import math

import pytest
from hypothesis import given, settings, strategies as st
from conftest import examples

from rieszgauge import integrands
from rieszgauge.aumann import aumann_integral, default_mixes
from rieszgauge.domain import (BorelSet, Gauge, Interval, MeasureSpec,
                               TaggedPartition, iter_fine_partitions)
from rieszgauge.integrands import (SCALAR_FORMS, ConstantIntegrand,
                                   CounterexampleC00, Integrand, PieceLookup,
                                   PointwiseScalar, ScalarForm,
                                   SelectionIntegrand, SimpleIntegrand)
from rieszgauge.integrate import kh_integrate, riemann_sum
from rieszgauge.regulators import Geometric, standard_probes
from rieszgauge.setvalued import (ConstantSet, IntervalValued, OrderInterval,
                                  SimpleSet, riemann_set_sum,
                                  singleton_multifunction)
from rieszgauge.values import (Scalar, SparseSeq, Vector, coordinates, mul,
                               zero_like)


# ---------------------------------------------------------------------------
# the reference: one lattice value per cell, added in cell order
# ---------------------------------------------------------------------------

def reference_riemann_sum(f, part, spec):
    if isinstance(spec.m0, Scalar) and isinstance(f.zero_value(), Scalar):
        total = 0.0
        for cell, tag in part.items:
            ln = cell.hi - cell.lo
            if ln != 0.0:
                total += f.value_at(tag).value * ln
        return Scalar(total * spec.m0.value)
    total = mul(f.zero_value(), spec.m0)
    for cell, tag in part.items:
        ln = cell.length()
        if ln == 0.0:
            continue
        total = total + mul(f.value_at(tag), spec.of_length(ln))
    return total


def reference_riemann_set_sum(F, part, spec):
    if isinstance(spec.m0, Scalar) and isinstance(F.zero_value(), Scalar):
        lo = 0.0
        hi = 0.0
        for cell, tag in part.items:
            ln = cell.hi - cell.lo
            if ln != 0.0:
                C = F.value_at(tag)
                lo += C.lo.value * ln
                hi += C.hi.value * ln
        s = spec.m0.value
        return OrderInterval(Scalar(lo * s), Scalar(hi * s))
    zero = mul(F.zero_value(), spec.m0)
    lo = zero
    hi = zero
    for cell, tag in part.items:
        ln = cell.length()
        if ln == 0.0:
            continue
        C = F.value_at(tag)
        w = spec.of_length(ln)
        lo = lo + mul(C.lo, w)
        hi = hi + mul(C.hi, w)
    return OrderInterval(lo, hi)


def reference_lookup(pieces, t):
    """The piece lookup as a scan of the two latest-starting components and
    the single points, earliest piece first on ties."""
    rows = sorted((c.lo, c.hi, idx) for idx, (part, _) in enumerate(pieces)
                  for c in part.components if c.lo != c.hi)
    points = {}
    for idx, (part, _) in enumerate(pieces):
        for c in part.components:
            if c.lo == c.hi:
                points.setdefault(c.lo, idx)
    i = bisect.bisect_right([row[0] for row in rows], t)
    best = points.get(t)
    for lo, hi, idx in rows[max(0, i - 2):i]:
        if lo <= t <= hi and (best is None or idx < best):
            best = idx
    return None if best is None else pieces[best][1]


def assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# lattices: values in c00 also reach index 3, which the generator annihilates
# ---------------------------------------------------------------------------

LATTICES = {
    "scalar": (Scalar(1.5), 1, lambda xs: Scalar(xs[0])),
    "vector:2": (Vector([1.0, 2.0]), 2, Vector),
    # a signed zero in the generator makes the start, zero * m0, a -0.0
    "vector:3": (Vector([0.75, 2.0, -0.0]), 3, Vector),
    "c00": (SparseSeq({1: 1.0, 2: 2.0}), 3,
            lambda xs: SparseSeq(zip((1, 3, 2), xs))),
    "c00 under a scalar generator": (Scalar(0.625), 3,
                                     lambda xs: SparseSeq(zip((1, 3, 2), xs))),
}

coordinate = st.floats(-8.0, 8.0)

#: Form pairs with the first below the second on [0, 1].
ORDERED_FORMS = [("neg_t", "t"), ("neg_t", "half_t"), ("half_t", "t"),
                 ("square", "t"), ("neg_t", "square"), ("neg_t", "one_minus_t"),
                 ("t", "t")]


class Draws:
    """Values, intervals, integrands and multifunctions of one lattice,
    drawn through ``draw``."""

    def __init__(self, draw, name):
        self.draw = draw
        m0, self.width, self.make = LATTICES[name]
        self.spec = MeasureSpec(m0)

    def floats(self, elements):
        return self.draw(st.lists(elements, min_size=self.width,
                                  max_size=self.width))

    def value(self, nonneg=False):
        return self.make(self.floats(st.floats(0.0, 8.0) if nonneg
                                     else coordinate))

    def interval(self):
        a = self.floats(coordinate)
        gaps = self.floats(st.floats(0.0, 4.0))
        return OrderInterval(self.make(a),
                             self.make([x + g for x, g in zip(a, gaps)]))

    def pieces(self, payload):
        cuts = sorted(set(self.draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                             max_size=6))))
        out = tuple((BorelSet.from_pairs([[a, b]]), payload())
                    for a, b in zip(cuts[::2], cuts[1::2]))
        return out or ((BorelSet.whole(), payload()),)

    def integrand(self, kinds=("form", "simple", "constant", "selection")):
        kind = self.draw(st.sampled_from(kinds))
        if kind == "form":
            name = self.draw(st.sampled_from(sorted(SCALAR_FORMS)))
            return PointwiseScalar(SCALAR_FORMS[name], self.value(),
                                   self.draw(coordinate))
        if kind == "simple":
            return SimpleIntegrand(self.pieces(self.value))
        if kind == "constant":
            return ConstantIntegrand(self.value())
        return self.selection(self.value(nonneg=True))

    def selection(self, direction):
        mix = self.pieces(lambda: self.draw(st.floats(0.0, 1.0)))
        return SelectionIntegrand(
            PointwiseScalar(SCALAR_FORMS["neg_t"], direction),
            PointwiseScalar(SCALAR_FORMS["t"], direction), mix)

    def multifunction(self):
        kind = self.draw(st.sampled_from(["forms", "form and selection",
                                          "simple", "constant", "singleton"]))
        direction = self.value(nonneg=True)
        if kind == "forms":
            lower, upper = self.draw(st.sampled_from(ORDERED_FORMS))
            coeff = self.draw(st.floats(0.0, 4.0))
            return IntervalValued(
                PointwiseScalar(SCALAR_FORMS[lower], direction, coeff),
                PointwiseScalar(SCALAR_FORMS[upper], direction, coeff))
        if kind == "form and selection":
            return IntervalValued(
                PointwiseScalar(SCALAR_FORMS["neg_t"], direction),
                self.selection(direction))
        if kind == "simple":
            return SimpleSet(self.pieces(self.interval))
        if kind == "constant":
            return ConstantSet(self.interval())
        return singleton_multifunction(self.integrand())

    def partitions(self):
        radius = self.draw(st.floats(0.02, 0.5))
        spikes = self.draw(st.lists(st.integers(2, 12), max_size=3,
                                    unique=True))
        gauge = Gauge.constant(radius,
                               mandatory_tags=[1.0 / n for n in spikes])
        cuts = sorted(self.draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                         max_size=4)))
        region = BorelSet.from_pairs([[cuts[i], cuts[i + 1]]
                                      for i in range(0, len(cuts) - 1, 2)])
        seed = self.draw(st.integers(0, 10 ** 6))
        yield from iter_fine_partitions(gauge, region, 3, seed)
        yield from self.edge_partitions()

    def edge_partitions(self):
        """No cell, one cell, and cells of length zero among others."""
        yield TaggedPartition()
        lo, hi = sorted(self.draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                           max_size=2)))
        yield TaggedPartition.from_triples([(lo, hi, 0.5 * (lo + hi))])
        grid = st.sampled_from([0.0, 0.125, 1.0 / 3.0, 0.5, 1.0])
        ends = sorted(self.draw(st.lists(grid | st.floats(0.0, 1.0),
                                         min_size=2, max_size=8)))
        yield TaggedPartition.from_triples(
            (a, b, self.draw(st.sampled_from([a, b, 0.5 * (a + b)])))
            for a, b in zip(ends, ends[1:]))


lattice_names = st.sampled_from(sorted(LATTICES))


@settings(max_examples=examples(100), deadline=None)
@given(st.data(), lattice_names)
def test_riemann_sum_matches_cell_by_cell_reference(data, name):
    d = Draws(data.draw, name)
    fs = [d.integrand()]
    if name.startswith("c00"):
        fs.append(CounterexampleC00())
    for part in d.partitions():
        for f in fs:
            assert_same(riemann_sum(f, part, d.spec),
                        reference_riemann_sum(f, part, d.spec))


@settings(max_examples=examples(100), deadline=None)
@given(st.data(), lattice_names)
def test_riemann_set_sum_matches_cell_by_cell_reference(data, name):
    d = Draws(data.draw, name)
    Fs = [d.multifunction()]
    if name.startswith("c00"):
        Fs.append(singleton_multifunction(CounterexampleC00()))
    for part in d.partitions():
        for F in Fs:
            assert_same(riemann_set_sum(F, part, d.spec),
                        reference_riemann_set_sum(F, part, d.spec))


def every_family(name):
    """One integrand and one multifunction of each family in the lattice
    ``name``, with signed and zero coordinates."""
    m0, width, make = LATTICES[name]

    def value(*xs):
        return make([xs[k % len(xs)] for k in range(width)])
    left, right = (BorelSet.from_pairs([[0.0, 0.5]]),
                   BorelSet.from_pairs([[0.5, 1.0], [0.25, 0.25]]))
    form = PointwiseScalar(SCALAR_FORMS["square"], value(1.5, -2.0, 0.25),
                           -0.5)
    simple = SimpleIntegrand(((left, value(1.0, -3.0, 0.0)),
                              (right, value(-0.0, 2.5))))
    mix = SelectionIntegrand(
        PointwiseScalar(SCALAR_FORMS["neg_t"], value(1.0, 0.5, 2.0)),
        PointwiseScalar(SCALAR_FORMS["t"], value(1.0, 0.5, 2.0)),
        ((left, 0.25),))
    band = IntervalValued(
        PointwiseScalar(SCALAR_FORMS["neg_t"], value(0.5, 1.0, 0.0)),
        PointwiseScalar(SCALAR_FORMS["one_minus_t"], value(0.5, 1.0, 0.0)))
    interval = OrderInterval(value(-1.0, 0.5, -0.0), value(2.0, 0.75, 0.0))
    integrands = [form, simple, ConstantIntegrand(value(0.25, -1.0, 2.0)),
                  mix]
    multifunctions = [band, IntervalValued(mix.lower, mix),
                      SimpleSet(((left, interval),)), ConstantSet(interval),
                      singleton_multifunction(simple)]
    return MeasureSpec(m0), integrands, multifunctions


FIXED_PARTITIONS = [
    TaggedPartition(),
    TaggedPartition.from_triples([(0.25, 0.75, 0.5)]),
    TaggedPartition.from_triples([(0.0, 0.0, 0.0), (0.0, 0.25, 0.25),
                                  (0.25, 0.25, 0.25), (0.25, 1.0, 0.5),
                                  (1.0, 1.0, 1.0)]),
    # more cells than one column block holds
    *iter_fine_partitions(Gauge.constant(4e-4, mandatory_tags=[1.0 / 3.0]),
                          BorelSet.from_pairs([[0.0, 0.4], [0.5, 1.0]]), 2,
                          "every-family"),
]


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_every_family_through_the_kernel(name):
    spec, integrands, multifunctions = every_family(name)
    for part in FIXED_PARTITIONS:
        for f in integrands:
            assert_same(riemann_sum(f, part, spec),
                        reference_riemann_sum(f, part, spec))
        for F in multifunctions:
            assert_same(riemann_set_sum(F, part, spec),
                        reference_riemann_set_sum(F, part, spec))


@settings(max_examples=examples(200), deadline=None)
@given(st.lists(st.lists(st.integers(0, 16), min_size=1, max_size=6),
                min_size=1, max_size=5),
       st.lists(st.floats(-0.25, 1.25), max_size=8))
def test_piece_lookup_matches_scan(cut_lists, extra):
    # components on the 1/16 grid share endpoints and include single points;
    # pieces may touch, and a later piece may hold a point inside an earlier one
    pieces = []
    for k, cuts in enumerate(cut_lists):
        cuts = sorted(cuts)
        pairs = [[cuts[i] / 16, cuts[i + 1] / 16]
                 for i in range(0, len(cuts) - 1, 2)] or [[cuts[0] / 16] * 2]
        pieces.append((BorelSet.from_pairs(pairs), k))
    lookup = PieceLookup(pieces)
    # a selection's mix takes the pieces that overlap no earlier one, and
    # its lookup must agree with the scan for the earliest piece holding t
    mix = []
    for part, k in pieces:
        if all(part.intersection(other).length() == 0.0 for other, _ in mix):
            mix.append((part, (k + 1) / 8))
    mix_at = SelectionIntegrand(ConstantIntegrand(Scalar(0.0)),
                                ConstantIntegrand(Scalar(1.0)),
                                tuple(mix)).mix_at
    ends = sorted({x for part, _ in pieces for c in part.components
                   for x in (c.lo, c.hi)})
    probes = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])] + extra
    for t in probes + [math.nextafter(t, 2.0) for t in ends]:
        assert lookup.get(t) == reference_lookup(pieces, t)
        assert mix_at(t) == next(
            (lam for part, lam in mix if part.contains_point(t)), 0.0)


# ---------------------------------------------------------------------------
# the per-tag order check
# ---------------------------------------------------------------------------

#: sin(64 pi t) is zero up to rounding on the 1/64 grid that IntervalValued
#: checks, and crosses zero between its points.
SIN64 = ScalarForm("sin64", lambda t: math.sin(64.0 * math.pi * t),
                   64.0 * math.pi)


def crossing(unit):
    return IntervalValued(PointwiseScalar(SIN64, unit),
                          ConstantIntegrand(zero_like(unit)))


CROSSINGS = [
    (MeasureSpec(Scalar(1.0)), Scalar(1.0)),
    (MeasureSpec(Vector([1.0, 2.0])), Vector([0.0, 1.0])),
    (MeasureSpec(SparseSeq({1: 1.0, 2: 2.0})), SparseSeq({1: 1.0})),
    # on index 3 the measure vanishes, yet the interval is still out of order
    (MeasureSpec(SparseSeq({1: 1.0, 2: 2.0})), SparseSeq({3: 1.0})),
]


@pytest.mark.parametrize("spec,unit", CROSSINGS)
def test_out_of_order_tag_raises(spec, unit):
    F = crossing(unit)
    inside = TaggedPartition(((Interval(0.0, 0.5), 3.0 / 128.0),
                              (Interval(0.5, 1.0), 0.5 + 1.0 / 128.0)))
    with pytest.raises(ValueError, match="lo <= hi"):
        riemann_set_sum(F, inside, spec)
    sampled = iter_fine_partitions(Gauge.constant(1.0 / 256), BorelSet.whole(),
                                   2, "cross")
    for part in sampled:
        with pytest.raises(ValueError, match="lo <= hi"):
            riemann_set_sum(F, part, spec)


@pytest.mark.parametrize("spec,unit", CROSSINGS)
def test_in_order_tags_and_empty_cells_do_not_raise(spec, unit):
    F = crossing(unit)
    # sin(64 pi t) is 0 at 0 and -1 at 3/128; the crossing tag 1/128 sits
    # on an empty cell, which is never evaluated
    part = TaggedPartition(((Interval(0.0, 1.0 / 128.0), 0.0),
                            (Interval(1.0 / 128.0, 1.0 / 128.0), 1.0 / 128.0),
                            (Interval(1.0 / 128.0, 1.0), 3.0 / 128.0)))
    assert_same(riemann_set_sum(F, part, spec),
                reference_riemann_set_sum(F, part, spec))


def test_counterexample_at_a_subnormal_tag():
    # 1 / 5e-324 overflows to infinity, and the value there used to raise
    # OverflowError instead of reading zero
    part = TaggedPartition.from_triples([(0.0, 1e-300, 5e-324),
                                         (1e-300, 1.0, 0.5)])
    spec = MeasureSpec(Scalar(1.0))
    f = CounterexampleC00()
    assert f.value_at(5e-324) == SparseSeq()
    assert_same(riemann_sum(f, part, spec),
                reference_riemann_sum(f, part, spec))


# ---------------------------------------------------------------------------
# selections: compiled floats against the lattice value, tag by tag
# ---------------------------------------------------------------------------

#: The alternating 0/1 mix over a uniform grid of 16 cells that
#: ``aumann.default_mixes`` draws.
GRID_MIX = tuple((BorelSet.from_pairs([[i / 16, (i + 1) / 16]]), float(i % 2))
                 for i in range(16))


def like_and_keys(f, spec):
    """The lattice and keys that :func:`weighted_sums` compiles ``f`` for,
    with every index a c00 value here reaches under a scalar generator."""
    zero = f.zero_value()
    if isinstance(spec.m0, Scalar) and isinstance(zero, Scalar):
        return zero, (0,)
    like = mul(zero, spec.m0)
    if isinstance(like, Vector):
        return like, tuple(range(like.dim))
    if isinstance(spec.m0, SparseSeq):
        return like, spec.m0.support()
    return like, (1, 2, 3)


class SelectionDraws(Draws):

    def end(self):
        return self.integrand(kinds=("form", "simple", "constant"))

    def mix(self):
        lam = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
        kind = self.draw(st.sampled_from(["constant", "grid", "pieces"]))
        if kind == "constant":
            return ((BorelSet.whole(), self.draw(lam)),)
        if kind == "grid":
            return GRID_MIX
        return self.pieces(lambda: self.draw(lam))

    def tags(self, f):
        """Every end, the floats just below and just above it, and a few
        drawn points: a step table must change exactly at the ends."""
        ends = list(f.boundary_points())
        drawn = self.draw(st.lists(st.floats(0.0, 1.0), max_size=8))
        return (ends + [math.nextafter(t, -1.0) for t in ends]
                + [math.nextafter(t, 2.0) for t in ends] + drawn)

    def endpoint_partition(self, f):
        """Cells between consecutive piece endpoints, each tagged at one of
        its ends."""
        ends = sorted({0.0, 1.0, *f.boundary_points()})
        return TaggedPartition.from_triples(
            (a, b, self.draw(st.sampled_from([a, b])))
            for a, b in zip(ends, ends[1:]))


selection_lattices = st.sampled_from(["scalar", "vector:2", "c00",
                                      "c00 under a scalar generator"])


@settings(max_examples=examples(150), deadline=None)
@given(st.data(), selection_lattices)
def test_selection_compile_matches_value_at(data, name):
    d = SelectionDraws(data.draw, name)
    f = SelectionIntegrand(d.end(), d.end(), d.mix())
    like, keys = like_and_keys(f, d.spec)
    at = f.compile(like, keys)
    for t in d.tags(f):
        assert at(t) == coordinates(f.value_at(t), like, keys)
    for part in [d.endpoint_partition(f), *d.partitions()]:
        assert (repr(riemann_sum(f, part, d.spec))
                == repr(reference_riemann_sum(f, part, d.spec)))


# ---------------------------------------------------------------------------
# work: no family with a closed form goes tag by tag through value_at
# ---------------------------------------------------------------------------

def test_aumann_integral_evaluates_no_selection_tag_by_tag(monkeypatch):
    calls = []
    value_at = SelectionIntegrand.value_at

    def counted(self, t):
        calls.append(t)
        return value_at(self, t)
    monkeypatch.setattr(SelectionIntegrand, "value_at", counted)
    F = SimpleSet(((BorelSet.from_pairs([[0.0, 0.5]]),
                    OrderInterval(Scalar(0.0), Scalar(1.0))),
                   (BorelSet.from_pairs([[0.5, 1.0]]),
                    OrderInterval(Scalar(2.0), Scalar(3.0)))))
    res = aumann_integral(F, BorelSet.whole(), MeasureSpec(Scalar(1.0)),
                          Geometric(Scalar(1.0), 0.5, 0.5), standard_probes(),
                          default_mixes(F))
    assert len(res.points) == len(default_mixes(F))
    assert calls == []


@pytest.mark.parametrize("name", ["scalar", "vector:2", "c00"])
def test_a_step_selection_compiles_its_ends_once_per_certificate(
        monkeypatch, name):
    """The 32 sums of one certificate share the selection's step table, so
    each end is compiled once, not once per sum."""
    calls = []
    compile_ = SimpleIntegrand.compile

    def counted(self, like, keys):
        calls.append(self)
        return compile_(self, like, keys)
    monkeypatch.setattr(SimpleIntegrand, "compile", counted)
    m0, width, make = LATTICES[name]

    def end(left, right):
        return SimpleIntegrand(
            ((BorelSet.from_pairs([[0.0, 0.5]]), make([left] * width)),
             (BorelSet.from_pairs([[0.5, 1.0]]), make([right] * width))))
    f = SelectionIntegrand(end(0.0, 2.0), end(1.0, 3.0), GRID_MIX)
    cert = kh_integrate(f, BorelSet.whole(), MeasureSpec(m0),
                        Geometric(make([1.0] * width), 0.5, 0.5),
                        standard_probes())
    assert cert.probe_reports[0].samples == 32
    assert [sum(c is e for c in calls) for e in (f.lower, f.upper)] == [1, 1]
    assert len(calls) == 2


def test_every_bounded_family_compiles():
    families = [cls for cls in vars(integrands).values()
                if isinstance(cls, type) and issubclass(cls, Integrand)
                and cls is not Integrand]
    assert SelectionIntegrand in families
    assert [cls for cls in families if "compile" not in vars(cls)] == [
        CounterexampleC00]
