import random

import pytest
from hypothesis import given, strategies as st

from rieszgauge.config import load_config
from rieszgauge.domain import BorelSet, Gauge, MeasureSpec, partition_borel
from rieszgauge.errors import (EmptyFamily, NegativeScaleUnsupported,
                               PiecesOverlap, UnboundedMultifunction,
                               ZeroNotInValues)
from rieszgauge.integrands import (CounterexampleC00, PieceLookup,
                                   PointwiseScalar, SCALAR_FORMS,
                                   piece_boundaries)
from rieszgauge.integrate import kh_integrate
from rieszgauge.regulators import (Geometric, max_envelope, min_envelope,
                                   standard_probes)
from rieszgauge.setvalued import (ConstantSet, IntervalValued, OrderInterval,
                                  SimpleSet, dot_sum,
                                  phi_closedness_check, phi_convexity_check,
                                  phi_interval_oracle, phi_membership,
                                  phi_monotonicity_check,
                                  respects_global_bound, riemann_set_sum,
                                  set_scale, singleton_multifunction)
from rieszgauge.suites import rand_interval, rand_simple_set
from rieszgauge.values import Scalar, leq, mul, zero_like

SPEC = MeasureSpec(Scalar(1.0))
REG = Geometric(Scalar(1.0), 0.5, 0.5)
PROBES = standard_probes()
WHOLE = BorelSet.whole()

TWO_PIECE = SimpleSet(((BorelSet.from_pairs([[0.0, 0.5]]),
                        OrderInterval(Scalar(0.0), Scalar(1.0))),
                       (BorelSet.from_pairs([[0.5, 1.0]]),
                        OrderInterval(Scalar(2.0), Scalar(3.0)))))


def interval(lo, hi):
    return OrderInterval(Scalar(lo), Scalar(hi))


def test_dot_sum_examples():
    assert dot_sum([interval(0, 1), interval(2, 3)]) == interval(2, 4)
    assert dot_sum([interval(-1, 2), interval(0, 0)]) == interval(-1, 2)
    assert dot_sum([interval(0, 1)] * 3) == interval(0, 3)
    with pytest.raises(EmptyFamily):
        dot_sum([])


def test_set_scale_examples():
    assert set_scale(interval(1, 2), Scalar(0.5)) == interval(0.5, 1)
    assert set_scale(interval(1, 2), Scalar(0.0)) == interval(0, 0)
    assert set_scale(interval(3, 3), Scalar(2.0)) == interval(6, 6)
    with pytest.raises(NegativeScaleUnsupported):
        set_scale(interval(0, 1), Scalar(-1.0))


dyadic = st.integers(-2048, 2048).map(lambda k: k / 256.0)


@st.composite
def intervals(draw):
    a = draw(dyadic)
    b = draw(dyadic)
    return interval(min(a, b), max(a, b))


@given(intervals(), intervals(), intervals())
def test_dot_sum_algebra(a, b, c):
    assert dot_sum([dot_sum([a, b]), c]) == dot_sum([a, dot_sum([b, c])])
    assert dot_sum([a, b]) == dot_sum([b, a])
    assert dot_sum([a, interval(0, 0)]) == a
    total = dot_sum([a, b, c])
    assert leq(total.lo, total.hi)


def test_riemann_set_sum_constant_is_partition_free():
    F = ConstantSet(interval(0, 1))
    for radius in (0.6, 0.21):
        part = partition_borel(Gauge.constant(radius), WHOLE)
        total = riemann_set_sum(F, part, SPEC)
        assert abs(total.lo - Scalar(0.0)).is_zero(1e-12)
        assert abs(total.hi - Scalar(1.0)).is_zero(1e-12)


def test_riemann_set_sum_singleton_matches_point_sum():
    f = PointwiseScalar(SCALAR_FORMS["t"], Scalar(1.0))
    F = singleton_multifunction(f)
    part = partition_borel(Gauge.constant(0.3), WHOLE)
    total = riemann_set_sum(F, part, SPEC)
    from rieszgauge.integrate import riemann_sum
    point = riemann_sum(f, part, SPEC)
    assert total.lo == point and total.hi == point


def test_per_piece_grouping_identity():
    items = []
    per_piece = []
    for part_set, _ in TWO_PIECE.pieces:
        sub = partition_borel(Gauge.constant(0.2), part_set)
        items.extend(sub.items)
        per_piece.append(riemann_set_sum(TWO_PIECE, sub, SPEC))
    from rieszgauge.domain import TaggedPartition
    combined = riemann_set_sum(TWO_PIECE, TaggedPartition(tuple(sorted(
        items, key=lambda item: item[0].lo))), SPEC)
    grouped = dot_sum(per_piece)
    assert abs(combined.lo - grouped.lo).is_zero(1e-12)
    assert abs(combined.hi - grouped.hi).is_zero(1e-12)


def test_simple_set_rejects_overlap():
    with pytest.raises(PiecesOverlap):
        SimpleSet(((BorelSet.from_pairs([[0.0, 0.6]]), interval(0, 1)),
                   (BorelSet.from_pairs([[0.5, 1.0]]), interval(0, 1))))


def test_oracle_constant_and_simple():
    F = ConstantSet(interval(2, 5))
    region = BorelSet.from_pairs([[0.0, 0.5]])
    assert phi_interval_oracle(F, region, SPEC, REG, PROBES) == interval(1.0, 2.5)
    assert phi_interval_oracle(TWO_PIECE, WHOLE, SPEC, REG, PROBES) == interval(1, 2)


def test_oracle_singleton_integrand():
    f = PointwiseScalar(SCALAR_FORMS["t"], Scalar(1.0))
    oracle = phi_interval_oracle(singleton_multifunction(f), WHOLE, SPEC, REG,
                                 PROBES)
    assert abs(oracle.lo - Scalar(0.5)).is_zero(1e-9)
    assert abs(oracle.hi - Scalar(0.5)).is_zero(1e-9)


def test_membership_inside_and_outside():
    F = ConstantSet(interval(0, 1))
    assert phi_membership(Scalar(0.5), F, WHOLE, SPEC, REG, PROBES)
    assert phi_membership(Scalar(1.0), F, WHOLE, SPEC, REG, PROBES)
    far = Scalar(1.0) + min_envelope(REG, PROBES).scale(2.0) + Scalar(1e-9)
    assert not phi_membership(far, F, WHOLE, SPEC, REG, PROBES)
    assert phi_membership(Scalar(1.5), TWO_PIECE, WHOLE, SPEC, REG, PROBES)
    assert not phi_membership(Scalar(2.5), TWO_PIECE, WHOLE, SPEC, REG, PROBES)


def test_membership_rejects_unbounded_multifunction():
    F = singleton_multifunction(CounterexampleC00())
    with pytest.raises(UnboundedMultifunction):
        phi_membership(Scalar(0.0), F, WHOLE, SPEC, REG, PROBES)
    # no bound is remembered: the second call raises as well
    for _ in range(2):
        with pytest.raises(UnboundedMultifunction):
            F.bound()


def test_bound_is_computed_once_per_instance():
    F = IntervalValued(PointwiseScalar(SCALAR_FORMS["neg_t"], Scalar(1.0)),
                       PointwiseScalar(SCALAR_FORMS["t"], Scalar(2.0)))
    first = F.bound()
    assert F.bound() is first
    assert first == F.lower.sup_bound().join(F.upper.sup_bound())
    # the memo is no field: equality and hashing ignore it
    twin = IntervalValued(F.lower, F.upper)
    assert twin == F and hash(twin) == hash(F)


def test_membership_coarse_gauges_cannot_smuggle_outsiders():
    # a single wide-valued piece: coarse sums overshoot the oracle, fine ones
    # pin it down; the search must not accept points only coarse sums reach
    F = SimpleSet(((BorelSet.from_pairs([[0.4921875, 0.90625]]),
                    interval(-15.25390625, 15.71484375)),))
    oracle = phi_interval_oracle(F, WHOLE, SPEC, REG, PROBES)
    emax = max_envelope(REG, PROBES)
    outside = oracle.hi + emax.scale(2.5) + Scalar(1e-6)
    assert not phi_membership(outside, F, WHOLE, SPEC, REG, PROBES)
    assert phi_membership(oracle.hi, F, WHOLE, SPEC, REG, PROBES)


def test_single_valued_reduction():
    f = PointwiseScalar(SCALAR_FORMS["t"], Scalar(1.0))
    F = singleton_multifunction(f)
    value = kh_integrate(f, WHOLE, SPEC, REG, PROBES).value
    assert phi_membership(value, F, WHOLE, SPEC, REG, PROBES)
    far = value + max_envelope(REG, PROBES).scale(3.0) + Scalar(1e-6)
    assert not phi_membership(far, F, WHOLE, SPEC, REG, PROBES)


def test_structure_checks():
    fams = [ConstantSet(interval(0, 1)), TWO_PIECE,
            IntervalValued(PointwiseScalar(SCALAR_FORMS["half_t"], Scalar(1.0)),
                           PointwiseScalar(SCALAR_FORMS["t"], Scalar(1.0))),
            IntervalValued(PointwiseScalar(SCALAR_FORMS["neg_t"], Scalar(1.0)),
                           PointwiseScalar(SCALAR_FORMS["t"], Scalar(1.0)))]
    for F in fams:
        assert phi_convexity_check(F, WHOLE, SPEC, REG, PROBES, trials=1)
        assert phi_closedness_check(F, WHOLE, SPEC, REG, PROBES)


def test_monotonicity_check():
    F = ConstantSet(interval(-1, 1))
    a = BorelSet.from_pairs([[0.0, 0.5]])
    assert phi_monotonicity_check(F, a, WHOLE, SPEC, REG, PROBES)
    assert phi_monotonicity_check(F, a, a, SPEC, REG, PROBES)
    with pytest.raises(ZeroNotInValues):
        phi_monotonicity_check(ConstantSet(interval(1, 2)), a, WHOLE, SPEC,
                               REG, PROBES)


def test_membership_respects_global_bound():
    F = TWO_PIECE
    cap = mul(F.bound(), SPEC.total())
    for z in (Scalar(1.0), Scalar(1.5), Scalar(2.0)):
        if phi_membership(z, F, WHOLE, SPEC, REG, PROBES):
            assert respects_global_bound(z, F, SPEC)
            assert leq(abs(z), cap, 1e-12)


def test_interval_valued_requires_pointwise_order():
    with pytest.raises(ValueError):
        IntervalValued(PointwiseScalar(SCALAR_FORMS["t"], Scalar(1.0)),
                       PointwiseScalar(SCALAR_FORMS["half_t"], Scalar(1.0)))


# ConstantSet's and SimpleSet's own formulas for the methods that
# Multifunction now derives from the end integrands, kept as the reference.

def _constant_reference(F):
    C = F.value
    return {"value_at": lambda t: C,
            "bound": abs(C.lo).join(abs(C.hi)),
            "boundary_points": (),
            "zero_value": zero_like(C.lo)}


def _simple_reference(F):
    zero = zero_like(F.pieces[0][1].lo)
    lookup = PieceLookup(F.pieces)
    bound = zero
    for _, C in F.pieces:
        bound = bound.join(abs(C.lo)).join(abs(C.hi))

    def value_at(t):
        C = lookup.get(t)
        return C if C is not None else OrderInterval.singleton(zero)
    return {"value_at": value_at,
            "bound": bound,
            "boundary_points": piece_boundaries(F.pieces),
            "zero_value": zero}


def _touching_simple_set(rng, config, centered):
    """Pieces that share their endpoints, where the earliest piece wins."""
    cuts = sorted(rng.sample(range(129), rng.randint(2, 6)))
    return SimpleSet(tuple(
        (BorelSet.from_pairs([[a / 128.0, b / 128.0]]),
         rand_interval(rng, config, centered))
        for a, b in zip(cuts, cuts[1:])))


@pytest.mark.parametrize("space", ["scalar", "vector:2", "c00"])
def test_derived_methods_match_family_formulas(space):
    config = load_config(None, {"value_space": space})
    rng = random.Random(f"derived:{space}")
    grid = [i / 128.0 for i in range(129)]
    for _ in range(200):
        centered = rng.random() < 0.5
        kind = rng.random()
        if kind < 1 / 3:
            F = ConstantSet(rand_interval(rng, config, centered))
            ref = _constant_reference(F)
        else:
            if kind < 2 / 3:
                F = rand_simple_set(rng, config, 5, centered)
            else:
                F = _touching_simple_set(rng, config, centered)
            ref = _simple_reference(F)
        assert F.lower is F.lower and F.upper is F.upper
        for name in ("bound", "boundary_points", "zero_value"):
            assert repr(getattr(F, name)()) == repr(ref[name]), name
        for t in (*ref["boundary_points"], *grid):
            assert repr(F.value_at(t)) == repr(ref["value_at"](t)), t
