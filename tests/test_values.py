import pytest
from hypothesis import given, strategies as st

from rieszgauge.errors import DimensionMismatch, MixedVariant
from rieszgauge.values import (Scalar, SparseSeq, Vector, clamp, leq,
                               max_coordinate, mul, ones_like, zero_like)


def test_join_scalars_total_order():
    assert Scalar(2).join(Scalar(3)) == Scalar(3)
    assert Scalar(2).meet(Scalar(3)) == Scalar(2)


def test_abs_vector_componentwise():
    assert abs(Vector([-1, 2])) == Vector([1, 2])


def test_sparse_cancellation_prunes_zero():
    total = SparseSeq({3: 1.0}) + SparseSeq({3: -1.0})
    assert total == SparseSeq()
    assert total.support() == ()


def test_leq_examples():
    assert leq(Vector([1, 2]), Vector([2, 2]))
    assert not leq(Vector([1, 2]), Vector([2, 1]))
    assert leq(SparseSeq(), SparseSeq({1: 1.0}))


def test_mixed_variant_rejected():
    with pytest.raises(MixedVariant):
        Scalar(1).join(Vector([1]))
    with pytest.raises(DimensionMismatch):
        Vector([1, 2]) + Vector([1, 2, 3])


def test_scalar_broadcast_product():
    assert mul(SparseSeq({4: 2.0}), Scalar(0.5)) == SparseSeq({4: 1.0})
    assert mul(Scalar(3.0), Vector([1, 2])) == Vector([3, 6])
    assert mul(Vector([1, 2]), Vector([0.5, 4])) == Vector([0.5, 8])


def test_sparse_join_sees_implicit_zeros():
    # join with the zero sequence clips negative entries away
    assert SparseSeq({2: -3.0}).join(SparseSeq()) == SparseSeq()
    assert SparseSeq({2: -3.0}).meet(SparseSeq()) == SparseSeq({2: -3.0})


def test_clamp_and_helpers():
    assert clamp(Scalar(5), Scalar(0), Scalar(1)) == Scalar(1)
    assert zero_like(Vector([1, 2])) == Vector([0, 0])
    assert ones_like(SparseSeq({7: 2.0})) == SparseSeq({7: 1.0})
    assert ones_like(SparseSeq()) == SparseSeq({1: 1.0})
    assert max_coordinate(Vector([-2.0, -1.0])) == -1.0
    assert max_coordinate(SparseSeq({3: -5.0})) == 0.0


dyadic = st.integers(-4096, 4096).map(lambda k: k / 256.0)


def values(draw_kind, xs):
    if draw_kind == "scalar":
        return Scalar(xs[0])
    if draw_kind == "vector":
        return Vector(xs[:3])
    return SparseSeq((i + 1, x) for i, x in enumerate(xs[:3]))


@st.composite
def value_pairs(draw):
    kind = draw(st.sampled_from(["scalar", "vector", "sparse"]))
    xs = draw(st.lists(dyadic, min_size=3, max_size=3))
    ys = draw(st.lists(dyadic, min_size=3, max_size=3))
    return values(kind, xs), values(kind, ys)


@given(value_pairs())
def test_lattice_laws(pair):
    a, b = pair
    assert a.join(b) == b.join(a)
    assert a.meet(a.join(b)) == a
    assert leq(a, a.join(b)) and leq(b, a.join(b))
    assert leq(zero_like(a), abs(a))
    assert a.join(b) + a.meet(b) == a + b


@given(value_pairs())
def test_abs_multiplicative(pair):
    a, b = pair
    assert abs(mul(a, b)) == mul(abs(a), abs(b))
