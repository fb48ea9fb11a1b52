"""Concrete value lattices, held as floats over keys.

Three lattices are supported: real scalars, real vectors of a fixed dimension
with the componentwise order, and finitely supported sequences (eventually
zero, indexed from 1) with the pointwise order.  Each is a coordinatewise
lattice, so one class holds every value as a key tuple and a float tuple and
writes each operation once.  A scalar is the key 0 and broadcasts over every
key (see :func:`mul`); a vector's keys are ``0..n-1``; a sequence's keys are
its sorted nonzero support, and any other index reads as 0.0.  The class is
the variant: :class:`Scalar`, :class:`Vector` and :class:`SparseSeq` only
construct, and derived values skip them.  Values are immutable.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from typing import Iterable, Iterator

from .errors import DimensionMismatch, MixedVariant

#: Default absolute slack for order comparisons that tolerate rounding.
ORDER_SLACK = 1e-12


class RieszValue:
    """A lattice element: ``values[i]`` is its coordinate at ``keys[i]``."""

    __slots__ = ("keys", "values")

    def _derive(self, keys: tuple, values: tuple) -> "RieszValue":
        """A value of this variant with ``values`` over ``keys``, built
        without the constructor; a sequence drops its zero entries."""
        if 0.0 in values and type(self) is SparseSeq:
            kept = [(k, x) for k, x in zip(keys, values) if x != 0.0]
            keys = tuple(k for k, _ in kept)
            values = tuple(x for _, x in kept)
        v = object.__new__(type(self))
        v.keys = keys
        v.values = values
        return v

    def _check(self, other) -> None:
        """Raise for another variant, and for a vector of another dimension."""
        if type(other) is not type(self):
            raise MixedVariant(
                f"{_NOUNS[type(self)]} combined with {type(other).__name__}")
        if type(self) is Vector and self.keys != other.keys:
            raise DimensionMismatch(
                f"dimension {len(self.values)} vs {len(other.values)}")

    def _pairs(self, other) -> tuple[tuple, tuple, tuple]:
        """Shared keys and both float tuples over them; two sequences share
        their key union, reading 0.0 off each support."""
        keys = self.keys
        if type(other) is type(self) and (keys is other.keys
                                          or keys == other.keys):
            return keys, self.values, other.values
        self._check(other)  # only two sequences may differ in keys
        a = dict(zip(keys, self.values))
        b = dict(zip(other.keys, other.values))
        keys = tuple(sorted(a.keys() | b.keys()))
        return (keys, tuple([a.get(k, 0.0) for k in keys]),
                tuple([b.get(k, 0.0) for k in keys]))

    def _zip(self, other, fn) -> "RieszValue":
        keys, xs, ys = self._pairs(other)
        return self._derive(keys, tuple(map(fn, xs, ys)))

    def join(self, other: "RieszValue") -> "RieszValue":
        return self._zip(other, max)

    def meet(self, other: "RieszValue") -> "RieszValue":
        return self._zip(other, min)

    def __add__(self, other: "RieszValue") -> "RieszValue":
        return self._zip(other, operator.add)

    def __sub__(self, other: "RieszValue") -> "RieszValue":
        return self._zip(other, operator.sub)

    def __abs__(self) -> "RieszValue":
        return self._derive(self.keys, tuple(map(abs, self.values)))

    def __neg__(self) -> "RieszValue":
        return self._derive(self.keys, tuple(map(operator.neg, self.values)))

    def scale(self, s: float) -> "RieszValue":
        return self._derive(self.keys, tuple([x * s for x in self.values]))

    def leq(self, other: "RieszValue", slack: float = 0.0) -> bool:
        _, xs, ys = self._pairs(other)
        return all(map(operator.le, xs, [y + slack for y in ys]))

    def sup_norm(self) -> float:
        """Largest absolute coordinate (0 for the empty sparse sequence)."""
        return max(map(abs, self.values), default=0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.sup_norm() <= tol

    def nonzero_coords(self) -> Iterator[tuple[object, float]]:
        """(key, value) pairs of the coordinates that are nonzero."""
        for k, x in zip(self.keys, self.values):
            if x != 0.0:
                yield k, x

    def coord(self, key: object) -> float:
        """A scalar's float at every key; 0.0 off a sequence's support."""
        if type(self) is Scalar:
            return self.values[0]
        if type(self) is Vector:
            return self.values[key]
        return dict(zip(self.keys, self.values)).get(key, 0.0)

    @property
    def broadcasts(self) -> bool:
        """Whether this is a scalar, which acts on every key alike."""
        return type(self) is Scalar

    @property
    def value(self) -> float:
        """A scalar's float."""
        return self.values[0]

    @property
    def dim(self) -> int:
        return len(self.values)

    def support(self) -> tuple:
        """The keys; for a sequence, its sorted nonzero support."""
        return self.keys

    def to_json(self) -> dict:
        """The report encoding of the value, tagged by its lattice."""
        if type(self) is Scalar:
            return {"kind": "scalar", "value": self.values[0]}
        if type(self) is Vector:
            return {"kind": "vector", "values": list(self.values)}
        return {"kind": "c00",
                "entries": {str(k): x for k, x in zip(self.keys, self.values)}}

    def __eq__(self, other):
        return (type(other) is type(self) and self.keys == other.keys
                and self.values == other.values)

    def __hash__(self):
        return hash((type(self).__name__, self.keys, self.values))


class Scalar(RieszValue):
    __slots__ = ()

    def __init__(self, value: float):
        self.keys = (0,)
        self.values = (float(value),)

    def __repr__(self):
        return f"Scalar({self.values[0]!r})"


class Vector(RieszValue):
    __slots__ = ()

    def __init__(self, values: Iterable[float]):
        self.values = tuple(float(v) for v in values)
        if not self.values:
            raise DimensionMismatch("a vector needs at least one coordinate")
        self.keys = tuple(range(len(self.values)))

    def __repr__(self):
        return f"Vector({list(self.values)!r})"


class SparseSeq(RieszValue):
    """A finitely supported sequence; indices start at 1, zeros are pruned."""

    __slots__ = ()

    def __init__(self, entries: Mapping[int, float] | Iterable[tuple[int, float]] = ()):
        if isinstance(entries, Mapping):
            entries = entries.items()
        acc: dict[int, float] = {}
        for k, v in entries:
            k = int(k)
            if k < 1:
                raise ValueError("sequence indices are positive integers")
            acc[k] = acc.get(k, 0.0) + float(v)
        self.keys = tuple(sorted(k for k, v in acc.items() if v != 0.0))
        self.values = tuple(acc[k] for k in self.keys)

    def __repr__(self):
        return f"SparseSeq({dict(zip(self.keys, self.values))!r})"


#: How a variant names itself when combined with another.
_NOUNS = {Scalar: "scalar", Vector: "vector", SparseSeq: "sparse sequence"}


def mul(a: RieszValue, b: RieszValue) -> RieszValue:
    """Product of two values: componentwise within one variant, with scalars
    broadcasting over vectors and sparse sequences."""
    if type(a) is Scalar:
        return b.scale(a.values[0])
    if type(b) is Scalar:
        return a.scale(b.values[0])
    return a._zip(b, operator.mul)


def leq(a: RieszValue, b: RieszValue, slack: float = 0.0) -> bool:
    """Componentwise order test ``a <= b`` with absolute slack."""
    return a.leq(b, slack)


def coordinates(v: RieszValue, like: RieszValue, keys) -> tuple[float, ...]:
    """The floats of ``v`` over ``keys`` of the lattice of ``like``, reading
    0.0 off a sequence's support; a scalar broadcasts over every key, as in
    :func:`mul`, and any other variant must match ``like``."""
    if type(v) is Scalar:
        return v.values * len(keys)
    like._check(v)
    if v.keys == keys:
        return v.values
    entries = dict(zip(v.keys, v.values))
    return tuple([entries.get(k, 0.0) for k in keys])


def from_coordinates(like: RieszValue, keys, coords) -> RieszValue:
    """The value of ``like``'s lattice with the floats ``coords`` over the
    sorted ``keys``; the inverse of :func:`coordinates`."""
    return like._derive(tuple(keys), tuple(coords))


def zero_like(v: RieszValue) -> RieszValue:
    return v._derive(v.keys, (0.0,) * len(v.keys))


def ones_like(v: RieszValue) -> RieszValue:
    """All-ones element of v's lattice; for sparse sequences, ones on v's
    support (index 1 when the support is empty)."""
    keys = v.keys or (1,)
    return v._derive(keys, (1.0,) * len(keys))


def max_coordinate(v: RieszValue) -> float:
    """Largest signed coordinate, counting a sequence's implicit zeros."""
    if type(v) is SparseSeq:
        return max((0.0,) + v.values)
    return max(v.values)
