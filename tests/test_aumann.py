import pytest

from rieszgauge.aumann import (aumann_integral, comparison_simple,
                               default_mixes, selection, selection_is_valid)
from rieszgauge.domain import BorelSet, MeasureSpec
from rieszgauge.errors import EmptySelectionFamily
from rieszgauge.integrands import PointwiseScalar, SCALAR_FORMS
from rieszgauge.regulators import Geometric, standard_probes
from rieszgauge.setvalued import (ConstantSet, IntervalValued, OrderInterval,
                                  SimpleSet, phi_interval_oracle,
                                  phi_membership)
from rieszgauge.values import Scalar

SPEC = MeasureSpec(Scalar(1.0))
REG = Geometric(Scalar(1.0), 0.5, 0.5)
PROBES = standard_probes()
WHOLE = BorelSet.whole()
GRID = [i / 32.0 for i in range(33)]

TWO_PIECE = SimpleSet(((BorelSet.from_pairs([[0.0, 0.5]]),
                        OrderInterval(Scalar(0.0), Scalar(1.0))),
                       (BorelSet.from_pairs([[0.5, 1.0]]),
                        OrderInterval(Scalar(2.0), Scalar(3.0)))))


def test_selection_endpoints_are_valid():
    F = ConstantSet(OrderInterval(Scalar(0.0), Scalar(1.0)))
    for lam in (0.0, 1.0, 0.25):
        assert selection_is_valid(selection(F, ((WHOLE, lam),)), GRID)


def test_selection_out_of_range_mix_rejected():
    F = ConstantSet(OrderInterval(Scalar(0.0), Scalar(1.0)))
    with pytest.raises(ValueError):
        selection(F, ((WHOLE, 2.0),))


def test_aumann_constant_band():
    F = ConstantSet(OrderInterval(Scalar(0.0), Scalar(1.0)))
    res = aumann_integral(F, WHOLE, SPEC, REG, PROBES, mixes=(0.0, 0.5, 1.0))
    got = sorted(p.value for p in res.points)
    assert got == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)
    assert res.hull.lo == Scalar(0.0) and res.hull.hi == Scalar(1.0)


def test_aumann_singleton_collapses():
    f = PointwiseScalar(SCALAR_FORMS["t"], Scalar(1.0))
    F = IntervalValued(f, f)
    res = aumann_integral(F, WHOLE, SPEC, REG, PROBES, mixes=(0.0, 1.0))
    assert abs(res.hull.lo - Scalar(0.5)).is_zero(1e-9)
    assert abs(res.hull.hi - Scalar(0.5)).is_zero(1e-9)


def test_aumann_two_piece_endpoint_mixes():
    res = aumann_integral(TWO_PIECE, WHOLE, SPEC, REG, PROBES, mixes=(0.0, 1.0))
    got = sorted(p.value for p in res.points)
    assert got == pytest.approx([1.0, 2.0], abs=1e-12)
    assert res.hull.lo == Scalar(1.0) and res.hull.hi == Scalar(2.0)
    with pytest.raises(EmptySelectionFamily):
        aumann_integral(TWO_PIECE, WHOLE, SPEC, REG, PROBES, mixes=())


def test_default_mixes_cover_the_endpoints():
    mixes = default_mixes(TWO_PIECE)
    assert 0.0 in mixes and 1.0 in mixes
    res = aumann_integral(TWO_PIECE, WHOLE, SPEC, REG, PROBES, mixes=mixes)
    assert res.hull.lo == Scalar(1.0) and res.hull.hi == Scalar(2.0)
    small = aumann_integral(TWO_PIECE, WHOLE, SPEC, REG, PROBES,
                            mixes=(0.0, 1.0))
    assert small.hull.lo.value >= res.hull.lo.value - 1e-12
    assert small.hull.hi.value <= res.hull.hi.value + 1e-12


def test_comparison_hand_example():
    rep = comparison_simple(TWO_PIECE, WHOLE, SPEC, REG, PROBES)
    assert rep.passed
    for got in (rep.sum_formula, rep.aumann_hull, rep.phi_oracle):
        assert abs(got.lo - Scalar(1.0)).is_zero(1e-9)
        assert abs(got.hi - Scalar(2.0)).is_zero(1e-9)
    assert rep.max_discrepancy <= 1e-9
    assert all(flag for _, flag in rep.membership_checks)


def test_comparison_half_domain():
    # one-piece multifunction seen through a smaller window
    F = SimpleSet(((WHOLE, OrderInterval(Scalar(2.0), Scalar(4.0))),))
    region = BorelSet.from_pairs([[0.0, 0.5]])
    rep = comparison_simple(F, region, SPEC, REG, PROBES)
    assert rep.passed
    assert abs(rep.phi_oracle.lo - Scalar(1.0)).is_zero(1e-9)
    assert abs(rep.phi_oracle.hi - Scalar(2.0)).is_zero(1e-9)


def test_comparison_disjoint_window_collapses_to_zero():
    F = SimpleSet(((BorelSet.from_pairs([[0.0, 0.25]]),
                    OrderInterval(Scalar(1.0), Scalar(2.0))),))
    region = BorelSet.from_pairs([[0.5, 1.0]])
    rep = comparison_simple(F, region, SPEC, REG, PROBES)
    assert rep.passed
    assert rep.sum_formula.lo == Scalar(0.0)
    assert rep.sum_formula.hi == Scalar(0.0)


def test_aumann_points_pass_membership():
    res = aumann_integral(TWO_PIECE, WHOLE, SPEC, REG, PROBES,
                          mixes=(0.0, 0.5, 1.0))
    for p in res.points:
        assert phi_membership(p, TWO_PIECE, WHOLE, SPEC, REG, PROBES)


def test_hull_between_oracle_for_interval_valued():
    F = IntervalValued(PointwiseScalar(SCALAR_FORMS["neg_t"], Scalar(1.0)),
                       PointwiseScalar(SCALAR_FORMS["t"], Scalar(1.0)))
    res = aumann_integral(F, WHOLE, SPEC, REG, PROBES, mixes=(0.0, 1.0))
    oracle = phi_interval_oracle(F, WHOLE, SPEC, REG, PROBES)
    assert abs(res.hull.lo - oracle.lo).is_zero(1e-9)
    assert abs(res.hull.hi - oracle.hi).is_zero(1e-9)
