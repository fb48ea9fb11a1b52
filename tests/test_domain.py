import hashlib
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rieszgauge.domain import (ANCHORED_KAPPA, AnchoredRadius, BorelSet,
                               ConstantRadius, Gauge, Interval, MeasureSpec,
                               TaggedPartition, _random_fine_partition,
                               cousin_partition, is_fine, iter_fine_partitions,
                               measure, partition_borel, regularity_witness,
                               sigma_additivity_check)
from rieszgauge.errors import (DepthExceeded, EnvelopeTooSmall, NotDisjoint)
from rieszgauge.regulators import ConstantMap, Geometric, envelope
from rieszgauge.values import Scalar, Vector, leq, zero_like

SPEC = MeasureSpec(Scalar(1.0))
GOLDEN = Path(__file__).resolve().parent / "golden"


grid_sets = st.lists(
    st.tuples(st.integers(0, 64), st.integers(0, 64)).map(sorted),
    max_size=5).map(lambda pairs: BorelSet.from_pairs(
        [[lo / 64.0, hi / 64.0] for lo, hi in pairs]))


@settings(max_examples=300, deadline=None)
@given(grid_sets)
def test_borel_normal_form(a):
    comps = a.components
    assert all(c.lo <= c.hi for c in comps)
    assert all(c.hi < d.lo for c, d in zip(comps, comps[1:]))
    assert BorelSet(a.components) == a


@settings(max_examples=300, deadline=None)
@given(grid_sets, grid_sets)
def test_borel_union_and_intersection_commute(a, b):
    assert a.union(b) == b.union(a)
    assert a.intersection(b) == b.intersection(a)


@settings(max_examples=300, deadline=None)
@given(grid_sets, grid_sets)
def test_borel_length_splits_exactly(a, b):
    # dyadic endpoints keep every length and sum exact
    assert a.length() == a.intersection(b).length() + a.difference(b).length()


def test_borel_normalization_is_canonical():
    a = BorelSet.from_pairs([[0.5, 1.0], [0.0, 0.25], [0.25, 0.5]])
    assert a.to_pairs() == [[0.0, 1.0]]
    b = BorelSet.from_pairs([[0.0, 0.3], [0.2, 0.4]])
    assert b.to_pairs() == [[0.0, 0.4]]


def test_borel_set_algebra():
    a = BorelSet.from_pairs([[0.0, 0.5]])
    b = BorelSet.from_pairs([[0.25, 1.0]])
    assert a.intersection(b).to_pairs() == [[0.25, 0.5]]
    assert a.union(b).to_pairs() == [[0.0, 1.0]]
    assert a.difference(b).to_pairs() == [[0.0, 0.25]]
    assert BorelSet.whole().difference(a).to_pairs() == [[0.5, 1.0]]
    assert b.contains_set(BorelSet.from_pairs([[0.3, 0.9]]))
    assert not a.contains_set(b)


def test_measure_examples():
    assert measure(SPEC, BorelSet.from_pairs([[0.0, 0.5]])) == Scalar(0.5)
    assert measure(SPEC, BorelSet.empty()) == Scalar(0.0)
    vec = MeasureSpec(Vector([1.0, 2.0]))
    merged = BorelSet.from_pairs([[0.0, 0.25], [0.25, 0.5]])
    assert measure(vec, merged) == Vector([0.5, 1.0])


def test_measure_additive_and_monotone():
    rng = random.Random("measure")
    for _ in range(100):
        pts = sorted(rng.randrange(65) / 64.0 for _ in range(4))
        a = BorelSet.from_pairs([[pts[0], pts[1]]])
        b = BorelSet.from_pairs([[pts[2], pts[3]]])
        total = measure(SPEC, a.union(b))
        assert abs(total - (measure(SPEC, a) + measure(SPEC, b))).is_zero(1e-12)
        assert leq(measure(SPEC, a.intersection(b)), measure(SPEC, a))


def test_cousin_whole_interval_fits():
    part = cousin_partition(Gauge.constant(2.0), Interval(0.0, 1.0))
    assert part.to_triples() == [[0.0, 1.0, 0.5]]


def test_cousin_bisects_once_for_radius_03():
    gauge = Gauge.constant(0.3)
    part = cousin_partition(gauge, Interval(0.0, 1.0))
    assert part.to_triples() == [[0.0, 0.5, 0.25], [0.5, 1.0, 0.75]]
    assert is_fine(part, gauge)


def test_cousin_pins_mandatory_tag():
    gauge = Gauge.piecewise((0.0, 0.05, 1.0), (0.01, 1.0), mandatory_tags=[0.0])
    part = cousin_partition(gauge, Interval(0.0, 1.0))
    first_cell, first_tag = part.items[0]
    assert first_tag == 0.0
    assert first_cell.lo == 0.0 and first_cell.hi < 0.01
    assert is_fine(part, gauge)


def test_is_fine_is_strict():
    part = TaggedPartition(((Interval(0.0, 1.0), 0.5),))
    assert is_fine(part, Gauge.constant(2.0))
    assert not is_fine(part, Gauge.constant(0.4))
    assert not is_fine(part, Gauge.constant(0.5))  # reach equals the radius


def test_cousin_roundtrip_random_gauges():
    rng = random.Random("roundtrip")
    for trial in range(20):
        kind = trial % 3
        if kind == 0:
            gauge = Gauge.constant(rng.uniform(0.03, 0.6))
        elif kind == 1:
            gauge = Gauge.piecewise((0.0, 0.5, 1.0),
                                    (rng.uniform(0.02, 0.2),
                                     rng.uniform(0.02, 0.2)))
        else:
            gauge = Gauge.anchored([rng.uniform(0.2, 0.8)],
                                   rng.uniform(0.005, 0.05))
        region = BorelSet.from_pairs([[0.0, 0.375], [0.5, 1.0]])
        part = partition_borel(gauge, region)
        assert is_fine(part, gauge)
        assert abs(part.total_length() - region.length()) <= 1e-12
        assert part.covers(region)


def test_random_perturbations_stay_fine():
    gauge = Gauge.anchored([0.25, 0.75], 0.01)
    region = BorelSet.whole()
    for part in iter_fine_partitions(gauge, region, 12, seed="perturb"):
        assert is_fine(part, gauge)
        assert abs(part.total_length() - 1.0) <= 1e-12


def test_random_perturbations_are_pinned():
    # the golden cells pin the order of the sampler's random draws: any
    # reordering moves them, even when every partition stays fine
    golden = GOLDEN / "perturb_anchored_partitions.json"
    gauge = Gauge.anchored([0.25, 0.75], 0.01)
    got = [part.to_triples() for part in
           iter_fine_partitions(gauge, BorelSet.whole(), 4, seed="perturb")]
    assert got == json.loads(golden.read_text())


def _sampled_partition_cases():
    """Gauges of every radius kind against sets of 1..4 components on the
    1/128 grid: constant radii, piecewise radii with a mandatory tag, and
    anchored radii with 1..10 anchors, some on the grid where they touch
    component ends and carved cells."""
    rng = random.Random("sampled-partitions")
    for trial in range(300):
        n = 1 + trial % 4
        pts = sorted(rng.randrange(129) / 128.0 for _ in range(2 * n))
        E = BorelSet.from_pairs(zip(pts[0::2], pts[1::2]))
        kind = trial % 3
        if kind == 0:
            radius = (0.3, 0.05, 1.0 / 256.0, 1e-3)[trial // 3 % 4]
            gauge = Gauge.constant(radius)
        elif kind == 1:
            b = rng.randrange(1, 128) / 128.0
            values = (rng.uniform(0.01, 0.1), rng.uniform(0.01, 0.1))
            gauge = Gauge.piecewise(
                (0.0, b, 1.0), values,
                mandatory_tags=[rng.choice((b, rng.random(), pts[0]))])
        else:
            k = 1 + trial // 3 % 10
            anchors = [rng.randrange(129) / 128.0 if rng.random() < 0.5
                       else rng.random() for _ in range(k)]
            gauge = Gauge.anchored(anchors, (1e-3, 1e-5, 1e-7)[trial // 3 % 3],
                                   cap=(0.25, 0.01)[trial // 6 % 2])
        yield gauge, E, f"sampled:{trial}"


def _sampled_partitions_digest() -> dict:
    h = hashlib.sha256()
    partitions = cells = 0
    for gauge, E, seed in _sampled_partition_cases():
        for k, part in enumerate(iter_fine_partitions(gauge, E, 8, seed)):
            assert is_fine(part, gauge), (seed, k)
            h.update(json.dumps(part.to_triples()).encode() + b"\n")
            partitions += 1
            cells += len(part)
    return {"sha256": h.hexdigest(), "partitions": partitions, "cells": cells}


def test_sampled_partitions_are_pinned():
    # every partition the samplers build, canonical and random, over all
    # three radius kinds, bit for bit; the digest also requires each to be
    # fine for its gauge
    golden = json.loads((GOLDEN / "sampled_partitions.json").read_text())
    assert _sampled_partitions_digest() == golden


@pytest.mark.parametrize("anchors", [(0.4,), (0.1, 0.25, 0.6, 0.9)])
def test_compiled_anchored_radius_matches_reference(anchors):
    radius = AnchoredRadius(anchors, tuple(0.01 * (k + 1) for k in
                                           range(len(anchors))), 0.9, 0.2)
    gauge = Gauge(radius, anchors, 1e-3)
    halfway = [0.5 * (a + b) for a, b in zip(anchors, anchors[1:])]
    beyond = [0.5 * anchors[0], 0.5 * (anchors[-1] + 1.0)]
    near = [math.nextafter(a, side) for a in anchors for side in (0.0, 1.0)]
    rng = random.Random("compiled-radius")
    points = ([0.0, 1.0, *anchors, *halfway, *beyond, *near]
              + [rng.random() for _ in range(200)])
    compiled = radius.compile()
    for t in points:
        assert compiled(t) == radius.at(t), t
        assert gauge.gamma(t) == radius.at(t), t


def test_random_sampler_marches_to_small_constant_gauges():
    # the march cuts about 2e5 cells off [0, 1]; it used to count each cut
    # as a depth level and raise DepthExceeded at 48 for radii below 1e-5
    gauge = Gauge.constant(5e-6)
    whole = BorelSet.whole()
    for part in iter_fine_partitions(gauge, whole, 2, seed="deep"):
        assert is_fine(part, gauge) and part.covers(whole)


def test_node_budget_signals_a_gauge_too_small_to_sample():
    gauge = Gauge(radius=Gauge.constant(1e-9).radius, mandatory_tags=(),
                  floor_on_remainder=1e-9)
    with pytest.raises(EnvelopeTooSmall, match="pieces"):
        cousin_partition(gauge, Interval(0.0, 1.0))


def test_partition_rejects_overlap_and_stray_tags():
    with pytest.raises(ValueError):
        TaggedPartition(((Interval(0.0, 0.6), 0.5), (Interval(0.5, 1.0), 0.7)))
    with pytest.raises(ValueError):
        TaggedPartition(((Interval(0.0, 0.5), 0.7),))


@pytest.mark.parametrize("triples, message", [
    ([(-0.25, 0.5, 0.25)], "0 <= lo <= hi <= 1"),
    ([(0.5, 1.25, 0.75)], "0 <= lo <= hi <= 1"),
    ([(0.75, 0.5, 0.6)], "0 <= lo <= hi <= 1"),
    ([(math.nan, 0.5, 0.25)], "0 <= lo <= hi <= 1"),
    ([(0.0, 0.5, 0.7)], "outside its cell"),
    ([(0.0, 0.5, 0.25), (0.5, 1.0, 0.25)], "outside its cell"),
    ([(0.0, 0.6, 0.5), (0.5, 1.0, 0.7)], "overlap"),
])
def test_flat_partition_rejects_bad_cells(triples, message):
    with pytest.raises(ValueError, match=message):
        TaggedPartition.from_triples(triples)


def test_flat_partition_public_views():
    part = TaggedPartition.from_triples([(0.0, 0.5, 0.25), (0.5, 1.0, 1.0)])
    assert part.items == ((Interval(0.0, 0.5), 0.25),
                          (Interval(0.5, 1.0), 1.0))
    assert TaggedPartition(part.items).triples == part.triples
    assert len(part) == 2 and part.total_length() == 1.0


@settings(max_examples=300, deadline=None)
@given(anchors=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10,
                        unique=True).map(sorted),
       slot=st.integers(0, 10),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
       touch=st.sampled_from([None, "lo", "hi"]),
       cap=st.sampled_from([0.25, 0.01]),
       points=st.lists(st.floats(0.0, 1.0), max_size=20))
@example(anchors=[0.5], slot=0, ends=[0.25, 0.75], touch=None, cap=0.25,
         points=[0.5])                      # before the first anchor
@example(anchors=[0.25, 0.5], slot=2, ends=[0.25, 1.0], touch=None,
         cap=0.01, points=[0.5])            # after the last anchor
@example(anchors=[0.25, 0.5], slot=1, ends=[0.25, 0.75], touch="hi",
         cap=0.25, points=[0.5])            # an end on an anchor
def test_gap_radius_matches_reference(anchors, slot, ends, touch, cap, points):
    # the radius of a gap that holds no anchor is a Tent, which calls
    # without a search; where an anchor touches the gap, gauge.gamma serves
    radius = AnchoredRadius(tuple(anchors), (1e-3,) * len(anchors),
                            ANCHORED_KAPPA, cap)
    gauge = Gauge(radius, tuple(anchors), 1e-4)
    bounds = [0.0, *anchors, 1.0]
    k = slot % (len(bounds) - 1)
    left, right = bounds[k], bounds[k + 1]
    lo, hi = (left + (right - left) * u for u in ends)
    if touch == "lo":
        lo = left
    if touch == "hi":
        hi = right
    at = gauge.on_gap(lo, hi)
    if any(lo <= a <= hi for a in anchors):
        assert at is gauge.gamma
    else:
        assert at is not gauge.gamma
    for t in [lo, hi, *(lo + (hi - lo) * p for p in points)]:
        assert at(t) == radius.at(t), t


@pytest.mark.parametrize("floor", [1e-12, 1e-13, 1e-300])
def test_sub_resolution_gauges_raise(floor):
    with pytest.raises(EnvelopeTooSmall, match="float resolution"):
        Gauge.constant(floor)
    with pytest.raises(EnvelopeTooSmall, match="float resolution"):
        Gauge.anchored([0.5], floor)


def test_sub_resolution_cousin_partition_raises():
    # it used to return no cells, and is_fine said True
    with pytest.raises(EnvelopeTooSmall, match="float resolution"):
        cousin_partition(Gauge.constant(1e-13), Interval(0, 1e-9))


def test_sub_resolution_sliver_raises_when_not_fine():
    # a wrong floor declaration gets past the gauge's own check; the
    # builders used to drop every sliver, returning no cells (is_fine True,
    # covers False), and now raise on the first one that is not fine
    gauge = Gauge(ConstantRadius(1e-13), (), 1e-3)
    E = BorelSet.from_pairs([[0.0, 1e-9]])
    with pytest.raises(DepthExceeded, match="below float resolution"):
        cousin_partition(gauge, Interval(0.0, 1e-9))
    for s in range(6):
        with pytest.raises(DepthExceeded, match="below float resolution"):
            _random_fine_partition(gauge, E, random.Random(f"sliver:{s}"),
                                   10)


def test_regularity_witness_bookkeeping_example():
    # envelope 0.1 against length margin 0.02 on each side
    reg = Geometric(Scalar(1.0), 1.0, 0.1)
    region = BorelSet.from_pairs([[0.25, 0.5]])
    inner, outer = regularity_witness(SPEC, region, reg, ConstantMap(1))
    assert inner.to_pairs() == [[0.27, 0.48]]
    assert outer.to_pairs() == [[0.23, 0.52]]
    assert outer.is_open
    gap = measure(SPEC, outer) - measure(SPEC, inner)
    assert leq(gap, envelope(reg, ConstantMap(1)), 1e-12)


def test_regularity_witness_edges():
    reg = Geometric(Scalar(1.0), 1.0, 0.1)
    inner, outer = regularity_witness(SPEC, BorelSet.empty(), reg, ConstantMap(1))
    assert inner.is_empty() and outer.is_empty()
    inner, outer = regularity_witness(SPEC, BorelSet.whole(), reg, ConstantMap(1))
    assert outer.to_pairs() == [[0.0, 1.0]] and outer.is_open
    assert inner.components[0].lo > 0.0 and inner.components[0].hi < 1.0
    with pytest.raises(EnvelopeTooSmall):
        regularity_witness(SPEC, BorelSet.from_pairs([[0.2, 0.2]]),
                           Geometric(Scalar(0.0), 0.5, 0.5), ConstantMap(1))


def test_sigma_additivity_cases():
    halves = [BorelSet.from_pairs([[0.0, 0.5]]), BorelSet.from_pairs([[0.5, 1.0]])]
    assert sigma_additivity_check(SPEC, halves, Scalar(0.0))
    dyadic = [BorelSet.from_pairs([[2.0 ** (-k), 2.0 ** (-k + 1)]])
              for k in range(1, 21)]
    assert sigma_additivity_check(SPEC, dyadic, Scalar(2.0 ** (-20)))
    with pytest.raises(NotDisjoint):
        sigma_additivity_check(
            SPEC,
            [BorelSet.from_pairs([[0.0, 0.6]]), BorelSet.from_pairs([[0.5, 1.0]])],
            Scalar(0.0))


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec(Scalar(0.0))
    with pytest.raises(ValueError):
        MeasureSpec(Scalar(-1.0))
    assert zero_like(MeasureSpec(Vector([0.0, 2.0])).m0) == Vector([0.0, 0.0])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_domain.py --regenerate")
    (GOLDEN / "sampled_partitions.json").write_text(
        json.dumps(_sampled_partitions_digest(), indent=2) + "\n")
