"""Selection integrals and the comparison with the set-valued integral.

A selection picks, via a simple [0, 1]-valued mixing function, one point of
the multifunction's value interval at every t; its integral is a point of the
Aumann integral.  For simple multifunctions the endpoint-sum formula, the
hull of the endpoint selections, and the interval oracle of the set-valued
integral must all agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import BorelSet, MeasureSpec
from .errors import EmptySelectionFamily, PiecesOverlap
from .integrands import SelectionIntegrand
from .integrate import as_borel, kh_integrate
from .regulators import Regulator, min_envelope
from .setvalued import (Multifunction, OrderInterval, SimpleSet,
                        endpoint_integrals, phi_interval_oracle, phi_membership)
from .values import ORDER_SLACK, RieszValue, leq

MixSpec = float | tuple[tuple[BorelSet, float], ...]

#: Cells of the uniform grid that the alternating default mix runs over.
_MIX_CELLS = 16


def normalize_mix(mix: MixSpec) -> tuple[tuple[BorelSet, float], ...]:
    if isinstance(mix, (int, float)):
        return ((BorelSet.whole(), float(mix)),)
    return tuple(mix)


def selection(F: Multifunction,
              mix: tuple[tuple[BorelSet, float], ...]) -> SelectionIntegrand:
    """The single-valued pick ``(1 - lam(t)) * lower(t) + lam(t) * upper(t)``
    from a multifunction, for a simple mixing function with values in [0, 1]
    (zero off its pieces, so the pick is the lower endpoint there)."""
    return SelectionIntegrand(F.lower, F.upper, mix)


def selection_is_valid(f: SelectionIntegrand, grid) -> bool:
    """Pointwise sandwich check on a grid plus every jump point."""
    grid = tuple(grid)
    if not grid:
        raise ValueError("the verification grid must be nonempty")
    points = set(grid) | set(f.boundary_points())
    return all(
        leq(f.lower.value_at(t), f.value_at(t), ORDER_SLACK)
        and leq(f.value_at(t), f.upper.value_at(t), ORDER_SLACK)
        for t in points)


@dataclass(frozen=True)
class AumannResult:
    points: tuple[RieszValue, ...]
    hull: OrderInterval


def default_mixes(F: Multifunction) -> tuple[MixSpec, ...]:
    """Constant mixes at the five standard levels, an alternating 0/1 mix on a
    uniform grid, and the indicator mix of each piece of the multifunction."""
    mixes: list[MixSpec] = [0.0, 0.25, 0.5, 0.75, 1.0]
    grid = [i / _MIX_CELLS for i in range(_MIX_CELLS + 1)]
    alternating = tuple(
        (BorelSet.from_pairs([[grid[i], grid[i + 1]]]), float(i % 2))
        for i in range(_MIX_CELLS))
    mixes.append(alternating)
    for p in F.boundary_points():
        if 0.0 < p < 1.0:
            mixes.append(((BorelSet.from_pairs([[0.0, p]]), 1.0),))
    return tuple(mixes)


def aumann_integral(F: Multifunction, A, spec: MeasureSpec, reg: Regulator,
                    probes, mixes, *, seed="aumann") -> AumannResult:
    """Integrate every selection in the mix family and return the point set
    with its interval hull (which has the lower/upper endpoint integrals as
    its ends whenever the constant mixes 0 and 1 are present)."""
    A = as_borel(A)
    mixes = tuple(mixes)
    if not mixes:
        raise EmptySelectionFamily("no selection mixes given")
    points = []
    for idx, mix in enumerate(mixes):
        f = selection(F, normalize_mix(mix))
        points.append(kh_integrate(f, A, spec, reg, probes,
                                   seed=f"{seed}:{idx}").value)
    points.sort(key=repr)
    lo = points[0]
    hi = points[0]
    for p in points[1:]:
        lo = lo.meet(p)
        hi = hi.join(p)
    return AumannResult(tuple(points), OrderInterval(lo, hi))


@dataclass(frozen=True)
class ComparisonReport:
    sum_formula: OrderInterval
    aumann_hull: OrderInterval
    phi_oracle: OrderInterval
    max_discrepancy: float
    membership_checks: tuple[tuple[RieszValue, bool], ...]
    passed: bool


def comparison_simple(F: SimpleSet, A, spec: MeasureSpec, reg: Regulator,
                      probes, *, seed="compare") -> ComparisonReport:
    """For a simple multifunction, compare the endpoint-sum formula, the hull
    of the endpoint selections, and the interval oracle, and check that every
    selection integral passes membership in the set-valued integral."""
    if not isinstance(F, SimpleSet):
        raise PiecesOverlap("the comparison needs a simple multifunction")
    A = as_borel(A)
    sum_formula = endpoint_integrals(F, A, spec)
    aum = aumann_integral(F, A, spec, reg, probes, mixes=(0.0, 1.0),
                          seed=f"{seed}:aumann")
    oracle = phi_interval_oracle(F, A, spec, reg, probes,
                                 seed=f"{seed}:oracle")
    tol = min_envelope(reg, probes).scale(2.0)

    def close(left: OrderInterval, right: OrderInterval) -> bool:
        return (leq(abs(left.lo - right.lo), tol, ORDER_SLACK)
                and leq(abs(left.hi - right.hi), tol, ORDER_SLACK))

    agree = (close(sum_formula, aum.hull) and close(sum_formula, oracle)
             and close(aum.hull, oracle))
    disc = 0.0
    for left, right in ((sum_formula, aum.hull), (sum_formula, oracle),
                        (aum.hull, oracle)):
        disc = max(disc, (left.lo - right.lo).sup_norm(),
                   (left.hi - right.hi).sup_norm())
    checks = tuple(
        (p, phi_membership(p, F, A, spec, reg, probes,
                           seed=f"{seed}:member:{i}"))
        for i, p in enumerate(aum.points))
    passed = agree and all(flag for _, flag in checks)
    return ComparisonReport(sum_formula, aum.hull, oracle, disc, checks, passed)
