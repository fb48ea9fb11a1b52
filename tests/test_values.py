import ast
from pathlib import Path

import lattice_reference as ref
import pytest
from hypothesis import given, settings, strategies as st
from conftest import examples

from rieszgauge import values as new
from rieszgauge.errors import DimensionMismatch, MixedVariant
from rieszgauge.values import (Scalar, SparseSeq, Vector, leq,
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
    assert Scalar(5).join(Scalar(0)).meet(Scalar(1)) == Scalar(1)
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


# ---------------------------------------------------------------------------
# differential test against the three classes the one value class replaced
# ---------------------------------------------------------------------------

#: Finite operands up to 1e150, so that no sum or product overflows, with
#: signed zeros, subnormals and small dyadics for ties and cancellation.
FLOATS = st.one_of(
    st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.0, -1.0, 0.5, -2.0]))

OPS = {
    "join": lambda m, a, b, p: a.join(b),
    "meet": lambda m, a, b, p: a.meet(b),
    "add": lambda m, a, b, p: a + b,
    "sub": lambda m, a, b, p: a - b,
    "neg": lambda m, a, b, p: -a,
    "abs": lambda m, a, b, p: abs(a),
    "scale": lambda m, a, b, p: a.scale(p),
    "mul": lambda m, a, b, p: m.mul(a, b),
    "leq": lambda m, a, b, p: m.leq(a, b, p),
    "sup_norm": lambda m, a, b, p: a.sup_norm(),
    "nonzero_coords": lambda m, a, b, p: list(a.nonzero_coords()),
    "coord": lambda m, a, b, p: a.coord(p),
    "coordinates": lambda m, a, b, p: m.coordinates(a, b, p),
    "zero_like": lambda m, a, b, p: m.zero_like(a),
    "ones_like": lambda m, a, b, p: m.ones_like(a),
    "max_coordinate": lambda m, a, b, p: m.max_coordinate(a),
}


@st.composite
def raw_values(draw, space):
    """A value's variant and data; most lie in ``space``, so that binary
    operations meet both matching and mixed operands."""
    space = draw(st.sampled_from([space] * 3 + ["scalar", "vector",
                                                "sequence"]))
    kind, _, dim = space.partition(":")
    if kind == "scalar":
        return kind, draw(FLOATS)
    if kind == "vector":
        size = int(dim) if dim else draw(st.integers(1, 3))
        return kind, draw(st.lists(FLOATS, min_size=size, max_size=size))
    return kind, draw(st.dictionaries(st.integers(1, 5), FLOATS, max_size=4))


def build(module, raw):
    kind, data = raw
    return {"scalar": module.Scalar, "vector": module.Vector,
            "sequence": module.SparseSeq}[kind](data)


def outcome(module, name, a, b, p):
    try:
        return "value", OPS[name](module, a, b, p)
    except Exception as exc:  # the exceptions themselves are compared
        return "raised", (type(exc), str(exc))


def param(name, like, x, key, keys):
    """The operation's parameter: a scale factor, an order slack, a key, or
    the keys that ``coordinates`` reads in the lattice of ``like``."""
    if name == "scale":
        return x
    if name == "leq":
        return (0.0, new.ORDER_SLACK, 1.0)[key % 3]
    if name == "coord":
        return key
    if name == "coordinates":
        return tuple(range(like.dim)) if isinstance(like, ref.Vector) else keys
    return None


def bounded(v) -> bool:
    return all(abs(x) <= 1e150 for _, x in v.nonzero_coords())


@settings(max_examples=examples(400), deadline=None)
@given(st.sampled_from(["scalar", "vector:1", "vector:2", "vector:3",
                        "sequence"]).flatmap(
           lambda space: st.lists(raw_values(space), min_size=2, max_size=5)),
       st.lists(st.tuples(st.sampled_from(sorted(OPS)), st.integers(0, 59),
                          st.integers(0, 59), FLOATS, st.integers(-1, 6),
                          st.sets(st.integers(0, 6)).map(sorted).map(tuple)),
                min_size=1, max_size=12))
def test_one_value_class_matches_the_three_reference_classes(raws, program):
    refs = [build(ref, raw) for raw in raws]
    news = [build(new, raw) for raw in raws]
    for name, i, j, x, key, keys in program:
        i, j = i % len(refs), j % len(refs)
        p = param(name, refs[j], x, key, keys)
        kind, want = outcome(ref, name, refs[i], refs[j], p)
        got_kind, got = outcome(new, name, news[i], news[j], p)
        assert (got_kind, repr(got)) == (kind, repr(want)), name
        if kind == "value" and isinstance(want, ref.RieszValue):
            for r, n in zip(refs, news):
                assert (got == n) == (want == r) == (n == got)
                if got == n:
                    assert hash(got) == hash(n)
            if bounded(want):
                refs.append(want)
                news.append(got)


# ---------------------------------------------------------------------------
# the value format is decided in one module
# ---------------------------------------------------------------------------

VARIANTS = {"Scalar", "Vector", "SparseSeq"}


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def variant_tests(source: str) -> list:
    """Lines that test a value's variant: ``isinstance(..., V)`` or
    ``type(...) is V`` (also ``is not``, ``==``, ``!=``) for a variant V."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and _names(node.args[1]) & VARIANTS):
            found.append(node.lineno)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            typed = any(isinstance(o, ast.Call) and isinstance(o.func, ast.Name)
                        and o.func.id == "type" for o in operands)
            if typed and set().union(*map(_names, operands)) & VARIANTS:
                found.append(node.lineno)
    return found


def test_only_values_tests_the_variant():
    package = Path(new.__file__).parent
    assert variant_tests((package / "values.py").read_text())
    found = {path.name: variant_tests(path.read_text())
             for path in sorted(package.glob("*.py"))
             if path.name != "values.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
