"""The three lattice classes that ``rieszgauge.values`` replaced with one,
kept unchanged as the reference for the differential test in
``test_values.py``: one class per variant, each writing every lattice
operation itself.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from rieszgauge.errors import DimensionMismatch, MixedVariant


class RieszValue:
    """An element of one of the supported value lattices."""

    __slots__ = ()

    def join(self, other: "RieszValue") -> "RieszValue":
        raise NotImplementedError

    def meet(self, other: "RieszValue") -> "RieszValue":
        raise NotImplementedError

    def __add__(self, other: "RieszValue") -> "RieszValue":
        raise NotImplementedError

    def __sub__(self, other: "RieszValue") -> "RieszValue":
        raise NotImplementedError

    def __abs__(self) -> "RieszValue":
        raise NotImplementedError

    def __neg__(self) -> "RieszValue":
        raise NotImplementedError

    def scale(self, s: float) -> "RieszValue":
        raise NotImplementedError

    def hadamard(self, other: "RieszValue") -> "RieszValue":
        """Componentwise product within one variant."""
        raise NotImplementedError

    def leq(self, other: "RieszValue", slack: float = 0.0) -> bool:
        raise NotImplementedError

    def sup_norm(self) -> float:
        """Largest absolute coordinate (0 for the empty sparse sequence)."""
        raise NotImplementedError

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.sup_norm() <= tol

    def nonzero_coords(self) -> Iterator[tuple[object, float]]:
        """(key, value) pairs of the coordinates that are stored/nonzero."""
        raise NotImplementedError

    def coord(self, key: object) -> float:
        raise NotImplementedError


class Scalar(RieszValue):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise MixedVariant(
                f"scalar combined with {type(other).__name__}")

    def join(self, other):
        self._check(other)
        return Scalar(self.value if self.value >= other.value else other.value)

    def meet(self, other):
        self._check(other)
        return Scalar(self.value if self.value <= other.value else other.value)

    def __add__(self, other):
        self._check(other)
        return Scalar(self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.value - other.value)

    def __abs__(self):
        return Scalar(abs(self.value))

    def __neg__(self):
        return Scalar(-self.value)

    def scale(self, s):
        return Scalar(self.value * s)

    def hadamard(self, other):
        self._check(other)
        return Scalar(self.value * other.value)

    def leq(self, other, slack=0.0):
        self._check(other)
        return self.value <= other.value + slack

    def sup_norm(self):
        return abs(self.value)

    def nonzero_coords(self):
        if self.value != 0.0:
            yield (0, self.value)

    def coord(self, key):
        return self.value

    def __eq__(self, other):
        return isinstance(other, Scalar) and self.value == other.value

    def __hash__(self):
        return hash(("scalar", self.value))

    def __repr__(self):
        return f"Scalar({self.value!r})"


class Vector(RieszValue):
    __slots__ = ("values",)

    def __init__(self, values: Iterable[float]):
        self.values = tuple(float(v) for v in values)
        if not self.values:
            raise DimensionMismatch("a vector needs at least one coordinate")

    def _check(self, other):
        if not isinstance(other, Vector):
            raise MixedVariant(
                f"vector combined with {type(other).__name__}")
        if len(other.values) != len(self.values):
            raise DimensionMismatch(
                f"dimension {len(self.values)} vs {len(other.values)}")

    @property
    def dim(self) -> int:
        return len(self.values)

    def join(self, other):
        self._check(other)
        return Vector(x if x >= y else y for x, y in zip(self.values, other.values))

    def meet(self, other):
        self._check(other)
        return Vector(x if x <= y else y for x, y in zip(self.values, other.values))

    def __add__(self, other):
        self._check(other)
        return Vector(x + y for x, y in zip(self.values, other.values))

    def __sub__(self, other):
        self._check(other)
        return Vector(x - y for x, y in zip(self.values, other.values))

    def __abs__(self):
        return Vector(abs(x) for x in self.values)

    def __neg__(self):
        return Vector(-x for x in self.values)

    def scale(self, s):
        return Vector(x * s for x in self.values)

    def hadamard(self, other):
        self._check(other)
        return Vector(x * y for x, y in zip(self.values, other.values))

    def leq(self, other, slack=0.0):
        self._check(other)
        return all(x <= y + slack for x, y in zip(self.values, other.values))

    def sup_norm(self):
        return max(abs(x) for x in self.values)

    def nonzero_coords(self):
        for k, v in enumerate(self.values):
            if v != 0.0:
                yield (k, v)

    def coord(self, key):
        return self.values[key]

    def __eq__(self, other):
        return isinstance(other, Vector) and self.values == other.values

    def __hash__(self):
        return hash(("vector", self.values))

    def __repr__(self):
        return f"Vector({list(self.values)!r})"


class SparseSeq(RieszValue):
    """A finitely supported sequence; indices start at 1, zeros are pruned."""

    __slots__ = ("items",)

    def __init__(self, entries: Mapping[int, float] | Iterable[tuple[int, float]] = ()):
        if isinstance(entries, Mapping):
            entries = entries.items()
        acc: dict[int, float] = {}
        for k, v in entries:
            k = int(k)
            if k < 1:
                raise ValueError("sequence indices are positive integers")
            acc[k] = acc.get(k, 0.0) + float(v)
        self.items = tuple(sorted((k, v) for k, v in acc.items() if v != 0.0))

    def _check(self, other):
        if not isinstance(other, SparseSeq):
            raise MixedVariant(
                f"sparse sequence combined with {type(other).__name__}")

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.items)

    def as_dict(self) -> dict[int, float]:
        return dict(self.items)

    def _union_zip(self, other, fn):
        self._check(other)
        a, b = self.as_dict(), other.as_dict()
        keys = set(a) | set(b)
        return SparseSeq((k, fn(a.get(k, 0.0), b.get(k, 0.0))) for k in keys)

    def join(self, other):
        return self._union_zip(other, max)

    def meet(self, other):
        return self._union_zip(other, min)

    def __add__(self, other):
        return self._union_zip(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._union_zip(other, lambda x, y: x - y)

    def __abs__(self):
        return SparseSeq((k, abs(v)) for k, v in self.items)

    def __neg__(self):
        return SparseSeq((k, -v) for k, v in self.items)

    def scale(self, s):
        return SparseSeq((k, v * s) for k, v in self.items)

    def hadamard(self, other):
        self._check(other)
        b = other.as_dict()
        return SparseSeq((k, v * b[k]) for k, v in self.items if k in b)

    def leq(self, other, slack=0.0):
        self._check(other)
        a, b = self.as_dict(), other.as_dict()
        return all(a.get(k, 0.0) <= b.get(k, 0.0) + slack
                   for k in set(a) | set(b))

    def sup_norm(self):
        return max((abs(v) for _, v in self.items), default=0.0)

    def nonzero_coords(self):
        yield from self.items

    def coord(self, key):
        return self.as_dict().get(key, 0.0)

    def __eq__(self, other):
        return isinstance(other, SparseSeq) and self.items == other.items

    def __hash__(self):
        return hash(("sparse", self.items))

    def __repr__(self):
        return f"SparseSeq({self.as_dict()!r})"


def mul(a: RieszValue, b: RieszValue) -> RieszValue:
    """Product of two values: componentwise within one variant, with scalars
    broadcasting over vectors and sparse sequences."""
    if isinstance(a, Scalar):
        return b.scale(a.value)
    if isinstance(b, Scalar):
        return a.scale(b.value)
    return a.hadamard(b)


def leq(a: RieszValue, b: RieszValue, slack: float = 0.0) -> bool:
    """Componentwise order test ``a <= b`` with absolute slack."""
    return a.leq(b, slack)


def coordinates(v: RieszValue, like: RieszValue, keys) -> tuple[float, ...]:
    """The floats of ``v`` over ``keys`` in the lattice of ``like``: vector
    indices, or sequence indices that read 0 off the support.  A scalar
    broadcasts over every key, as in :func:`mul`; any other variant must
    match ``like``."""
    if isinstance(v, Scalar):
        return (v.value,) * len(keys)
    like._check(v)
    if isinstance(v, Vector):
        return v.values
    entries = dict(v.items)
    return tuple(entries.get(k, 0.0) for k in keys)


def from_coordinates(like: RieszValue, keys, coords) -> RieszValue:
    """The vector or sequence of ``like``'s lattice with ``coords`` over
    ``keys``; the inverse of :func:`coordinates`."""
    if isinstance(like, Vector):
        return Vector(coords)
    return SparseSeq(zip(keys, coords))


def zero_like(v: RieszValue) -> RieszValue:
    if isinstance(v, Scalar):
        return Scalar(0.0)
    if isinstance(v, Vector):
        return Vector((0.0,) * v.dim)
    return SparseSeq()


def ones_like(v: RieszValue) -> RieszValue:
    """All-ones element of v's lattice; for sparse sequences, ones on v's
    support (index 1 when the support is empty)."""
    if isinstance(v, Scalar):
        return Scalar(1.0)
    if isinstance(v, Vector):
        return Vector((1.0,) * v.dim)
    support = v.support() or (1,)
    return SparseSeq((k, 1.0) for k in support)


def max_coordinate(v: RieszValue) -> float:
    """Largest (signed) coordinate; sparse sequences include their implicit
    zeros, so the result is at least 0 for them."""
    if isinstance(v, Scalar):
        return v.value
    if isinstance(v, Vector):
        return max(v.values)
    return max(0.0, max((x for _, x in v.items), default=0.0))
