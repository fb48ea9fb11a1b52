"""The partition builders' walks: the canonical bisection against the
recursive walk it replaced, and the random walk against its form before
the gap radius became data and the carve a plan, both kept here as
references; the node budget
that stops a gauge too small to sample; slivers too narrow to cut, which
become one cell or raise; and gauges and sets at float resolution, which
tile or raise."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rieszgauge import domain
from rieszgauge.domain import (ANCHORED_KAPPA, AnchoredRadius, BorelSet,
                               ConstantRadius, Gauge, Interval,
                               _carve_mandatory,
                               _random_fine_partition,
                               cousin_partition, is_fine,
                               iter_fine_partitions, partition_borel)
from rieszgauge.errors import DepthExceeded, EnvelopeTooSmall

_EPS = 1e-12


# ---------------------------------------------------------------------------
# the reference: the recursive canonical walk
# ---------------------------------------------------------------------------

def reference_sliver(radius, a, b, tag):
    r = radius(tag) if callable(radius) else radius
    if not max(tag - a, b - tag) < r:
        raise DepthExceeded(
            f"[{a}, {b}] is below float resolution and not fine at its tag "
            f"{tag}; the gauge floor declaration looks wrong")
    return (a, b, tag)


def reference_fill(radius, a, b, depth, max_depth, out):
    if b - a <= _EPS:
        out.append(reference_sliver(radius, a, b, 0.5 * (a + b)))
        return
    gamma = radius if callable(radius) else None
    for tag in (0.5 * (a + b), b, a):
        if max(tag - a, b - tag) < (radius if gamma is None else gamma(tag)):
            out.append((a, b, tag))
            return
    if depth >= max_depth:
        raise DepthExceeded(
            f"no fine cell for [{a}, {b}] within depth {max_depth}; "
            "the gauge floor declaration looks wrong")
    mid = 0.5 * (a + b)
    reference_fill(radius, a, mid, depth + 1, max_depth, out)
    reference_fill(radius, mid, b, depth + 1, max_depth, out)


def reference_cousin(gauge, lo, hi, max_depth):
    if hi - lo <= 0.0:
        return [(lo, hi, lo)]
    if hi - lo <= _EPS:
        # a component too narrow to cut is one cell (see below), which the
        # recursive walk never saw
        tags = sorted(p for p in gauge.mandatory_tags if lo <= p <= hi)
        tag = tags[0] if tags else 0.5 * (lo + hi)
        return [reference_sliver(gauge.gamma, lo, hi, tag)]
    out = []
    for piece in _carve_mandatory(gauge, lo, hi):
        if len(piece) == 3:
            out.append(piece)
        else:
            reference_fill(gauge.on_gap(*piece), *piece, 0, max_depth, out)
    return out


def reference_fill_random(radius, lo, hi, rng, split_budget, nodes, out):
    draw = rng.random
    gamma = radius if callable(radius) else None
    known = radius if gamma is None else None
    stack = [(lo, hi, 0, known, known)]
    pop, push = stack.pop, stack.append
    while stack:
        a, b, depth, ga, gb = pop()
        width = b - a
        if width <= _EPS:
            out.append(reference_sliver(radius, a, b, 0.5 * (a + b)))
            continue
        tag = a + width * (0.25 + (0.75 - 0.25) * draw())
        gt = radius if gamma is None else gamma(tag)
        if tag - a < gt and b - tag < gt:
            accepted = tag
        else:
            tag = a + 0.5 * width
            accepted = None
            gt = radius if gamma is None else gamma(tag)
            if tag - a < gt and b - tag < gt:
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
            if not (split_budget > 0 and depth < domain._SPLIT_DEPTH
                    and draw() < 0.45):
                out.append((a, b, accepted))
                continue
            split_budget -= 1
            cut = a + width * (0.35 + (0.65 - 0.35) * draw())
        else:
            if ga is None:
                ga = gamma(a)
            if gb is None:
                gb = gamma(b)
            step = 0.9 * (ga if ga >= gb else gb) * (0.8 + (1.0 - 0.8) * draw())
            if step < 0.2 * width:
                step = 0.2 * width
            if step > 0.7 * width:
                step = 0.7 * width
            cut = a + step if ga >= gb else b - step
        nodes -= 2
        if nodes < 0:
            raise EnvelopeTooSmall(
                f"a fine partition needs more than {domain.NODE_BUDGET} "
                "pieces: the gauge is too small to sample")
        push((cut, b, depth + 1, known, gb))
        push((a, cut, depth + 1, ga, known))
    return split_budget, nodes


def reference_carve(gauge, lo, hi, shrink):
    tags = sorted(p for p in gauge.mandatory_tags if lo <= p <= hi)
    cells = []
    for idx, p in enumerate(tags):
        h = gauge.gamma(p) / 2.0
        if idx > 0:
            h = min(h, (p - tags[idx - 1]) / 4.0)
        if idx + 1 < len(tags):
            h = min(h, (tags[idx + 1] - p) / 4.0)
        h *= shrink(p)
        cells.append((max(lo, p - h), min(hi, p + h), p))
    pieces = []
    cursor = lo
    for cell in cells:
        if cell[0] > cursor:
            pieces.append((cursor, cell[0]))
        pieces.append(cell)
        cursor = cell[1]
    if hi > cursor:
        pieces.append((cursor, hi))
    return pieces


def reference_random(gauge, E, rng, split_budget):
    """A random partition, its carve made afresh: shrinks drawn first."""
    out = []
    nodes = domain.NODE_BUDGET
    for comp in E.components:
        lo, hi = comp.lo, comp.hi
        if hi - lo <= 0.0:
            out.append((lo, hi, lo))
            continue
        pieces = reference_carve(gauge, lo, hi,
                                 lambda p: rng.uniform(0.5, 0.999))
        if hi - lo <= _EPS:
            tags = sorted(p for p in gauge.mandatory_tags if lo <= p <= hi)
            tag = tags[0] if tags else 0.5 * (lo + hi)
            out.append(reference_sliver(gauge.gamma, lo, hi, tag))
            continue
        for piece in pieces:
            if len(piece) == 3:
                out.append(piece)
            else:
                split_budget, nodes = reference_fill_random(
                    gauge.on_gap(*piece), *piece, rng, split_budget, nodes,
                    out)
    return tuple(out)


def reference_partitions(gauge, E, count, seed):
    """What iter_fine_partitions yields, as tuples of triples."""
    canonical = []
    for comp in E.components:
        canonical += reference_cousin(gauge, comp.lo, comp.hi, 48)
    parts = [tuple(canonical)]
    for s in range(max(0, count - 1)):
        rng = random.Random(f"{seed}:{s}")
        parts.append(reference_random(gauge, E, rng,
                                      10 if s % 3 == 2 else 2))
    return parts


def outcome(build):
    """The triples ``build()`` returns, or the type and message it raises."""
    try:
        return build()
    except (DepthExceeded, EnvelopeTooSmall) as exc:
        return (type(exc), str(exc))


unit = st.floats(0.0, 1.0)


@st.composite
def gauges(draw):
    kind = draw(st.sampled_from(["constant", "piecewise", "anchored"]))
    if kind == "constant":
        tags = draw(st.lists(unit, max_size=3))
        return Gauge.constant(draw(st.floats(1e-3, 0.6)), mandatory_tags=tags)
    if kind == "piecewise":
        breaks = sorted(set(draw(st.lists(st.floats(0.01, 0.99),
                                          max_size=4))))
        values = draw(st.lists(st.floats(1e-3, 0.6), min_size=len(breaks) + 1,
                               max_size=len(breaks) + 1))
        return Gauge.piecewise([0.0, *breaks, 1.0], values,
                               mandatory_tags=draw(st.lists(unit, max_size=2)))
    anchors = draw(st.lists(unit, min_size=1, max_size=5))
    return Gauge.anchored(anchors, draw(st.floats(1e-6, 0.1)),
                          cap=draw(st.sampled_from([0.25, 0.01])))


@settings(max_examples=300, deadline=None)
@given(gauges(), st.tuples(unit, unit).map(sorted))
def test_canonical_walk_matches_recursive_reference(gauge, ends):
    # the walk has no depth cap: at depth 40 every piece of [0, 1] is a
    # sliver, so the reference's cap of 48 is never reached
    lo, hi = ends
    got = outcome(lambda: cousin_partition(gauge, Interval(lo, hi)).triples)
    want = outcome(lambda: tuple(reference_cousin(gauge, lo, hi, 48)))
    assert got == want


def test_canonical_walk_raises_as_the_reference_does():
    # a sliver that is not fine at its midpoint, under a wrong floor
    gauge = Gauge(ConstantRadius(1e-13), (), 1e-3)
    with pytest.raises(DepthExceeded, match="below float resolution") as got:
        cousin_partition(gauge, Interval(0.0, 1e-9))
    with pytest.raises(DepthExceeded) as want:
        reference_cousin(gauge, 0.0, 1e-9, 48)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the node budget
# ---------------------------------------------------------------------------

def test_node_budget_bounds_the_canonical_walk(monkeypatch):
    # 2**k cells of [0, 1] cost 2**(k + 1) - 2 pieces below the whole
    monkeypatch.setattr(domain, "NODE_BUDGET", 62)
    whole = Interval(0.0, 1.0)
    assert len(cousin_partition(Gauge.constant(0.75 / 32), whole)) == 32
    with pytest.raises(EnvelopeTooSmall, match="more than 62 pieces"):
        cousin_partition(Gauge.constant(0.75 / 64), whole)
    # the budget is per partition, shared by its components
    halves = BorelSet.from_pairs([[0.0, 0.5], [0.5, 1.0]])
    with pytest.raises(EnvelopeTooSmall, match="more than 62 pieces"):
        partition_borel(Gauge.constant(0.75 / 64), halves)


def test_node_budget_bounds_the_random_walk(monkeypatch):
    gauge = Gauge.constant(0.01)
    whole = BorelSet.whole()
    assert is_fine(_random_fine_partition(gauge, whole, random.Random(3), 2),
                   gauge)
    monkeypatch.setattr(domain, "NODE_BUDGET", 16)
    with pytest.raises(EnvelopeTooSmall, match="more than 16 pieces"):
        _random_fine_partition(gauge, whole, random.Random(3), 2)


def test_node_budget_stops_a_wrong_floor():
    # the floor says 1e-3, the radius is 1e-11: bisection would run to
    # depth 37, about 2**37 pieces
    gauge = Gauge(ConstantRadius(1e-11), (), 1e-3)
    with pytest.raises(EnvelopeTooSmall, match=f"{domain.NODE_BUDGET} pieces"):
        cousin_partition(gauge, Interval(0.0, 1.0))


# ---------------------------------------------------------------------------
# components too narrow to cut
# ---------------------------------------------------------------------------

SLIVER = [0.5, 0.5 + 1e-13]


@pytest.mark.parametrize("pairs", [[SLIVER], [[0.1, 0.4], SLIVER]])
def test_sliver_component_is_one_cell(pairs):
    # both builders used to return no cell for the sliver (covers False)
    E = BorelSet.from_pairs(pairs)
    gauge = Gauge.constant(0.1)
    mid = 0.5 * (SLIVER[0] + SLIVER[1])
    canonical = partition_borel(gauge, E)
    assert canonical.triples[-1] == (*SLIVER, mid)
    assert canonical.covers(E) and is_fine(canonical, gauge)
    for s in range(4):
        sampled = _random_fine_partition(gauge, E, random.Random(s), 10)
        assert sampled.triples[-1] == (*SLIVER, mid)
        assert sampled.covers(E) and is_fine(sampled, gauge)


def test_sliver_component_keeps_its_mandatory_tag_and_draws():
    tag = SLIVER[0] + 4e-14
    wide = [0.6, 0.9]
    gauge = Gauge.constant(0.1, mandatory_tags=[tag])
    E = BorelSet.from_pairs([SLIVER, wide])
    assert partition_borel(gauge, E).triples[0] == (*SLIVER, tag)
    for s in range(4):
        sampled = _random_fine_partition(gauge, E, random.Random(s), 10)
        assert sampled.triples[0] == (*SLIVER, tag)
        # the carve still draws its shrink for the tag, so the wide
        # component gets the cells it would get after that one draw
        rng = random.Random(s)
        rng.uniform(0.5, 0.999)
        rest = _random_fine_partition(gauge, BorelSet.from_pairs([wide]),
                                      rng, 10)
        assert sampled.triples[1:] == rest.triples


def test_sliver_component_raises_when_not_fine():
    gauge = Gauge(ConstantRadius(1e-14), (), 1e-3)
    E = BorelSet.from_pairs([SLIVER])
    with pytest.raises(DepthExceeded, match="below float resolution"):
        partition_borel(gauge, E)
    with pytest.raises(DepthExceeded, match="below float resolution"):
        _random_fine_partition(gauge, E, random.Random(0), 10)


def tiles(part, pairs) -> bool:
    """True when the cells of ``part``, in order, run end to end across each
    ``[lo, hi]`` of ``pairs`` and nowhere else: exactly, with no tolerance."""
    runs: list = []
    for lo, hi, _ in part.triples:
        if runs and runs[-1][1] == lo:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    return runs == [list(p) for p in pairs]


def test_split_slivers_stay_cells():
    # a split of a piece 2.5e-12 wide leaves slivers that are fine; 66 of
    # these 200 partitions used to drop one (17 of them every cell), and
    # covers accepted 49 of the 66
    gauge = Gauge.constant(0.1)
    lo, hi = 0.5, 0.5 + 2.5e-12
    E = BorelSet.from_pairs([[lo, hi]])
    for part in iter_fine_partitions(gauge, E, 200, "sl"):
        assert tiles(part, [(lo, hi)]) and is_fine(part, gauge)


def test_carved_gap_sliver_is_a_cell():
    # the gap between the component's left end and the cell carved at the
    # tag is 5e-13 wide; it used to be dropped without a cell
    tag = 0.35 + 5e-13
    gauge = Gauge.constant(0.1, mandatory_tags=[tag])
    E = BorelSet.from_pairs([[0.3, 0.5]])
    part = partition_borel(gauge, E)
    gap = (0.3, tag - 0.05)
    assert 0.0 < gap[1] - gap[0] <= _EPS
    assert part.triples[0] == (*gap, 0.5 * (gap[0] + gap[1]))
    assert tiles(part, [(0.3, 0.5)]) and is_fine(part, gauge)


# ---------------------------------------------------------------------------
# gauges and sets at float resolution
# ---------------------------------------------------------------------------

#: Radii from just above the 1e-12 floor up to 1e-9.
tiny = st.floats(_EPS, 1e-9, exclude_min=True)


@st.composite
def tiny_components(draw):
    """A component from 0 to 1e-9 wide, anywhere in [0, 1] or ending at 1."""
    width = draw(st.floats(0.0, 1e-9))
    if draw(st.booleans()):
        return (1.0 - width, 1.0)
    lo = draw(unit)
    return (lo, min(lo + width, 1.0))


@st.composite
def tiny_cases(draw):
    """A set of one to three tiny components and a constant or anchored
    gauge at float resolution, its tags in and around the components."""
    E = BorelSet.from_pairs(draw(st.lists(tiny_components(), min_size=1,
                                          max_size=3)))
    comp = st.sampled_from(E.components)
    near = st.builds(
        lambda c, at, off: min(1.0, max(0.0, c.lo + at * (c.hi - c.lo) + off)),
        comp, st.floats(0.0, 1.0), st.floats(-1e-9, 1e-9))
    tags = draw(st.lists(near, max_size=3))
    if draw(st.booleans()):
        return Gauge.constant(draw(tiny), mandatory_tags=tags), E
    # the floor of an anchored gauge is kappa / 8 times its tag radius
    tag_radius = draw(st.floats(1.001 * 8.0 * _EPS / ANCHORED_KAPPA, 1e-9))
    return Gauge.anchored(tags or [draw(near)], tag_radius,
                          cap=draw(tiny)), E


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tiny_cases(), st.integers(0, 2 ** 32))
@example(case=(Gauge.anchored([1.0], 8.897777777777776e-12,
                              cap=2.26017616017315e-12),
               BorelSet.from_pairs([[0.5, 0.5000000007555341], [1.0, 1.0]])),
         seed=0)             # its 7th partition had a midpoint cell not fine
def test_builders_at_float_resolution_tile_or_raise(case, seed):
    # covers would not do: its 1e-9 tolerance accepts an empty partition
    # of a set 1e-9 wide.  The first partition is that of partition_borel.
    gauge, E = case
    try:
        for part in iter_fine_partitions(gauge, E, 8, seed):
            assert is_fine(part, gauge) and tiles(part, E.to_pairs())
    except (EnvelopeTooSmall, DepthExceeded):
        pass


# ---------------------------------------------------------------------------
# the random walk against its reference
# ---------------------------------------------------------------------------

@st.composite
def walk_gauges(draw):
    """:func:`gauges`, and anchored radii whose anchors are not all
    mandatory tags, so that some gaps hold an anchor and are walked by
    calls of ``gauge.gamma``."""
    if draw(st.booleans()):
        return draw(gauges())
    anchors = sorted(set(draw(st.lists(unit, min_size=1, max_size=4))))
    radius = AnchoredRadius(tuple(anchors), (draw(st.floats(1e-6, 0.1)),)
                            * len(anchors), ANCHORED_KAPPA,
                            draw(st.sampled_from([0.25, 0.01])))
    tags = [a for a in anchors if draw(st.booleans())]
    return Gauge(radius, tuple(tags), 1e-3)


@st.composite
def walk_sets(draw):
    """One to three components, some of them at float resolution."""
    pairs = draw(st.lists(st.one_of(st.tuples(unit, unit).map(sorted),
                                    tiny_components()),
                          min_size=1, max_size=3))
    return BorelSet.from_pairs(pairs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walk_gauges(), walk_sets(), st.integers(1, 32),
       st.sampled_from([2, 10]), st.integers(0, 2 ** 32))
def test_random_walk_matches_reference(gauge, E, count, budget, seed):
    got = outcome(lambda: [part.triples for part in
                           iter_fine_partitions(gauge, E, count, seed)])
    want = outcome(lambda: reference_partitions(gauge, E, count, seed))
    assert got == want
    got = outcome(lambda: _random_fine_partition(
        gauge, E, random.Random(seed), budget).triples)
    want = outcome(lambda: reference_random(gauge, E, random.Random(seed),
                                            budget))
    assert got == want


def test_sampling_carves_once_per_call():
    # the mandatory tags' cells are planned once for all the partitions of
    # one call; every gap between them is a tent, which takes no call
    def calls(count):
        gauge = Gauge.anchored([0.25, 0.5, 0.75], 1e-4)
        gamma, n = gauge.gamma, [0]

        def counted(t):
            n[0] += 1
            return gamma(t)
        object.__setattr__(gauge, "gamma", counted)
        for _ in iter_fine_partitions(gauge, BorelSet.whole(), count, "n"):
            pass
        return n[0]
    assert calls(32) == calls(2)
