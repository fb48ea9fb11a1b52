"""Regulators (double sequences controlling convergence) and index-map probes.

A regulator is a nonnegative double sequence ``a[i][j]``, nonincreasing in
``j`` with column infimum zero, represented here by closed-form families so
that the envelope ``sup_i a[i][phi(i)]`` is computable.  Index maps stand in
for the (uncountable) space of probe functions.  Every index map must be
nondecreasing: the envelope and combination routines rely on it, and a
geometric regulator reads its envelope off the first row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce

from .errors import EmptyFamily, EmptyProbeSet, NonComputableEnvelope
from .values import ORDER_SLACK, RieszValue, leq, zero_like


# ---------------------------------------------------------------------------
# index maps
# ---------------------------------------------------------------------------

class IndexMap:
    """A map from positive integers to positive integers.

    Every index map is nondecreasing, ``eval(i) <= eval(i + 1)``; each
    built-in one is, a shift keeps it so, and the envelopes assume it."""

    def eval(self, i: int) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<IndexMap {self.describe()}>"


@dataclass(frozen=True)
class ConstantMap(IndexMap):
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("constant index maps take positive values")

    def eval(self, i):
        return self.c

    def describe(self):
        return f"const:{self.c}"


@dataclass(frozen=True)
class IdentityMap(IndexMap):
    def eval(self, i):
        return i

    def describe(self):
        return "identity"


@dataclass(frozen=True)
class AffineMap(IndexMap):
    slope: int
    offset: int

    def __post_init__(self):
        if self.slope < 1 or self.offset < 0:
            raise ValueError("affine index maps need slope >= 1, offset >= 0")

    def eval(self, i):
        return self.slope * i + self.offset

    def describe(self):
        return f"affine:{self.slope}:{self.offset}"


@dataclass(frozen=True)
class ExponentialMap(IndexMap):
    def eval(self, i):
        return 2 ** i

    def describe(self):
        return "exp"


@dataclass(frozen=True)
class ShiftedMap(IndexMap):
    inner: IndexMap
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("shift must be nonnegative")

    def eval(self, i):
        return self.inner.eval(i + self.k)

    def describe(self):
        return f"shift:{self.k}:{self.inner.describe()}"


def standard_probes() -> tuple[IndexMap, ...]:
    """The configurable default probe set used for all quantified checks."""
    probes: list[IndexMap] = [ConstantMap(c) for c in range(1, 9)]
    probes += [IdentityMap(), AffineMap(2, 0), AffineMap(1, 4), ExponentialMap()]
    return tuple(probes)


# ---------------------------------------------------------------------------
# regulators
# ---------------------------------------------------------------------------

class Regulator:
    """Base class for closed-form regulator families."""

    def entry(self, i: int, j: int) -> RieszValue:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def envelope(self, phi: IndexMap) -> RieszValue:
        """The envelope ``sup_i a[i][phi(i)]`` (see :func:`envelope`)."""
        raise NonComputableEnvelope(
            f"unsupported regulator {type(self).__name__}")


def _pow(base: float, exponent: int) -> float:
    # base in (0, 1]; guard huge exponents (exponential probes) against
    # overflow in the int->float conversion.  Below 1, |log base| >= 1.1e-16,
    # so an exponent beyond float range underflows to exactly 0.0.
    if base == 1.0:
        return 1.0
    if exponent > 8000:
        if exponent > sys.float_info.max:
            return 0.0
        log = exponent * math.log(base)
        return math.exp(log) if log > -745.0 else 0.0
    return base ** exponent


@dataclass(frozen=True)
class Geometric(Regulator):
    """Entries ``row_scale**i * col_scale**j * base``."""

    base: RieszValue
    row_scale: float
    col_scale: float

    def __post_init__(self):
        if not all(math.isfinite(x) for _, x in self.base.nonzero_coords()):
            raise ValueError("geometric base must be finite")
        if not leq(zero_like(self.base), self.base):
            raise ValueError("geometric base must be nonnegative")
        if not 0.0 < self.row_scale <= 1.0:
            raise ValueError("row_scale must lie in (0, 1]")
        if not 0.0 < self.col_scale < 1.0:
            raise ValueError("col_scale must lie in (0, 1)")

    def entry(self, i, j):
        return self.base.scale(_pow(self.row_scale, i) * _pow(self.col_scale, j))

    def describe(self):
        return {"kind": "geometric", "row_scale": self.row_scale,
                "col_scale": self.col_scale}

    def envelope(self, phi):
        # both factors are nonincreasing in i for a nondecreasing phi, so
        # the first row holds the supremum
        return self.base.scale(_pow(self.row_scale, 1)
                               * _pow(self.col_scale, phi.eval(1)))


@dataclass(frozen=True)
class FiniteMatrix(Regulator):
    """Explicit entries for ``i <= N``; rows extend by their last column for
    large ``j`` and vanish for ``i > N``.  The last column must be zero so the
    column infimum is zero."""

    rows: tuple[tuple[RieszValue, ...], ...]

    def __post_init__(self):
        if not self.rows or any(not row for row in self.rows):
            raise ValueError("matrix regulators need at least one entry")
        width = len(self.rows[0])
        zero = zero_like(self.rows[0][0])
        for row in self.rows:
            if len(row) != width:
                raise ValueError("matrix rows must share one width")
            for a, b in zip(row, row[1:]):
                if not leq(b, a):
                    raise ValueError("matrix rows must be nonincreasing in j")
            if not leq(zero, row[-1]) or not leq(row[-1], zero):
                raise ValueError("the last matrix column must be zero")
            if not leq(zero, row[0]):
                raise ValueError("matrix entries must be nonnegative")

    def entry(self, i, j):
        if i > len(self.rows):
            return zero_like(self.rows[0][0])
        row = self.rows[i - 1]
        return row[j - 1] if j <= len(row) else row[-1]

    def describe(self):
        return {"kind": "finite_matrix", "rows": len(self.rows)}

    def envelope(self, phi):
        out = zero_like(self.rows[0][0])
        for i in range(1, len(self.rows) + 1):
            out = out.join(self.entry(i, phi.eval(i)))
        return out


@dataclass(frozen=True)
class Scaled(Regulator):
    inner: Regulator
    factor: float

    def __post_init__(self):
        if self.factor < 0.0:
            raise ValueError("regulators scale by nonnegative factors")

    def entry(self, i, j):
        return self.inner.entry(i, j).scale(self.factor)

    def describe(self):
        return {"kind": "scaled", "factor": self.factor,
                "inner": self.inner.describe()}

    def envelope(self, phi):
        return self.inner.envelope(phi).scale(self.factor)


@dataclass(frozen=True)
class SumPair(Regulator):
    left: Regulator
    right: Regulator

    def entry(self, i, j):
        return self.left.entry(i, j) + self.right.entry(i, j)

    def describe(self):
        return {"kind": "sum", "left": self.left.describe(),
                "right": self.right.describe()}

    def envelope(self, phi):
        return self.left.envelope(phi) + self.right.envelope(phi)


@dataclass(frozen=True)
class FremlinCombination(Regulator):
    """Entrywise sum of a finite family, capped at a fixed element.

    Entries are ``cap meet (sum_k member_k[i][j])``, which stays nonincreasing
    in ``j`` with column infimum zero.  Its envelope is reported as the
    computable upper bound ``cap meet (sum_k envelope_k(phi))``, which is
    tight for geometric members and dominates the shifted partial sums
    ``cap meet sum_{k<=s} envelope_k(phi shifted by k)`` for every
    nondecreasing probe, because shifting a nondecreasing probe can only
    shrink a member's envelope.
    """

    members: tuple[Regulator, ...]
    cap: RieszValue

    def entry(self, i, j):
        total = self.members[0].entry(i, j)
        for member in self.members[1:]:
            total = total + member.entry(i, j)
        return self.cap.meet(total)

    def describe(self):
        return {"kind": "fremlin", "members": [m.describe() for m in self.members]}

    def envelope(self, phi):
        total = self.members[0].envelope(phi)
        for member in self.members[1:]:
            total = total + member.envelope(phi)
        return self.cap.meet(total)


def zero_regulator(like: RieszValue) -> Regulator:
    """The identically-zero regulator over the lattice of ``like``."""
    return FiniteMatrix(((zero_like(like),),))


def regulator_entry(reg: Regulator, i: int, j: int) -> RieszValue:
    """The entry ``a[i][j]`` of a regulator; indices start at 1."""
    if i < 1 or j < 1:
        raise ValueError("regulator indices start at 1")
    return reg.entry(i, j)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def envelope(reg: Regulator, phi: IndexMap) -> RieszValue:
    """The envelope ``sup_i a[i][phi(i)]``, computed by the regulator's family.

    Exact for geometric and finite-matrix regulators under the supported
    (nondecreasing) index maps; for sums and capped combinations the result is
    a computable upper bound that is tight for geometric leaves.

    Memoized per probe on the regulator itself: regulators are frozen and
    lattice values immutable, so each pair is computed once.  A probe that
    cannot be hashed is computed every time.
    """
    memo = vars(reg).setdefault("_envelopes", {})
    try:
        env = memo.get(phi)
    except TypeError:
        return reg.envelope(phi)
    if env is None:
        env = memo[phi] = reg.envelope(phi)
    return env


def min_envelope(reg: Regulator, probes) -> RieszValue:
    """Componentwise meet of the envelopes over a probe set."""
    probes = tuple(probes)
    if not probes:
        raise EmptyProbeSet("no probes given")
    return reduce(lambda a, b: a.meet(b), (envelope(reg, p) for p in probes))


def max_envelope(reg: Regulator, probes) -> RieszValue:
    """Componentwise join of the envelopes over a probe set."""
    probes = tuple(probes)
    if not probes:
        raise EmptyProbeSet("no probes given")
    return reduce(lambda a, b: a.join(b), (envelope(reg, p) for p in probes))


# ---------------------------------------------------------------------------
# combination and limit certification
# ---------------------------------------------------------------------------

def fremlin_combine(regs, u: RieszValue) -> Regulator:
    """Combine finitely many regulators into one that dominates, below the
    bound ``u``, every truncated sum of their shifted envelopes:

        u meet sum_{k<=s} envelope(regs[k], i -> phi(i+k))
            <= envelope(result, phi)

    for every nondecreasing probe ``phi`` and every ``s``.
    """
    regs = tuple(regs)
    if not regs:
        raise EmptyFamily("cannot combine an empty regulator family")
    if not leq(zero_like(u), u):
        raise ValueError("the combination bound must be nonnegative")
    return FremlinCombination(regs, u)


def d_limit_check(seq, r: RieszValue, reg: Regulator, probes) -> bool:
    """Certify ``r`` as the regulator-controlled limit of a finite sequence.

    True iff for every probe there is an index from which every later listed
    term satisfies ``|r_n - r| <= envelope(reg, probe)``.
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("the sequence must be nonempty")
    probes = tuple(probes)
    if not probes:
        raise EmptyProbeSet("no probes given")
    for phi in probes:
        env = envelope(reg, phi)
        last_bad = -1
        for idx, rn in enumerate(seq):
            if not leq(abs(rn - r), env, ORDER_SLACK):
                last_bad = idx
        if last_bad == len(seq) - 1:
            return False
    return True
