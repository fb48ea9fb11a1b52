import random
from functools import reduce

import pytest

from rieszgauge.domain import (BorelSet, Gauge, Interval, MeasureSpec,
                               TaggedPartition, is_fine)
from rieszgauge.errors import (GaugeConstructionFailed, NotCertifiable,
                               NotDisjoint)
from rieszgauge.integrands import (ConstantIntegrand, CounterexampleC00,
                                   PointwiseScalar, SCALAR_FORMS,
                                   SelectionIntegrand, SimpleIntegrand)
from rieszgauge.integrate import (certification_gauges,
                                  counterexample_partition,
                                  counterexample_unboundedness,
                                  integral_additivity_check, kh_integrate,
                                  riemann_sum)
from rieszgauge.regulators import (Geometric, envelope, min_envelope,
                                   standard_probes, zero_regulator)
from rieszgauge.values import Scalar, SparseSeq, leq

SPEC = MeasureSpec(Scalar(1.0))
REG = Geometric(Scalar(1.0), 0.5, 0.5)
PROBES = standard_probes()
WHOLE = BorelSet.whole()

LINEAR = PointwiseScalar(SCALAR_FORMS["t"], Scalar(1.0))
SIMPLE = SimpleIntegrand(((BorelSet.from_pairs([[0.0, 0.5]]), Scalar(2.0)),
                          (BorelSet.from_pairs([[0.5, 1.0]]), Scalar(1.0))))

#: A mix of a linear lower end and the two-step upper end: jump points and
#: a modulus, so its gauges halve the interior radius.
SELECTION = SelectionIntegrand(LINEAR, SIMPLE,
                               ((BorelSet.from_pairs([[0.25, 0.75]]), 0.5),))


def antiderivative_t(a, b):
    return (b * b - a * a) / 2.0


def uniform_midpoint_partition(cells):
    h = 1.0 / cells
    return TaggedPartition(tuple(
        (Interval(k * h, (k + 1) * h), (k + 0.5) * h) for k in range(cells)))


def test_riemann_sum_constant_everywhere():
    for cells in (1, 4, 7):
        part = uniform_midpoint_partition(cells)
        assert abs(riemann_sum(ConstantIntegrand(Scalar(3.0)), part, SPEC)
                   - Scalar(3.0)).is_zero(1e-12)


def test_riemann_sum_midpoint_exact_for_linear():
    part = uniform_midpoint_partition(4)
    assert riemann_sum(LINEAR, part, SPEC) == Scalar(0.5)


def test_riemann_sum_spike_function_vanishes_off_reciprocals():
    # tags (128k + 17)/2048 are never of the form 1/m
    items = tuple((Interval(k / 8.0, (k + 1) / 8.0), k / 8.0 + 17.0 / 2048.0)
                  for k in range(8))
    part = TaggedPartition(items)
    assert riemann_sum(CounterexampleC00(), part, SPEC) == SparseSeq()


def test_kh_linear_against_antiderivative_oracle():
    cert = kh_integrate(LINEAR, WHOLE, SPEC, REG, PROBES, seed="lin")
    assert abs(cert.value - Scalar(antiderivative_t(0.0, 1.0))).is_zero(1e-9)
    for report in cert.probe_reports:
        assert leq(report.max_deviation, envelope(REG, report.probe), 1e-12)


def test_kh_linear_on_subsets_additive():
    a = BorelSet.from_pairs([[0.0, 0.5]])
    b = BorelSet.from_pairs([[0.5, 1.0]])
    ia = kh_integrate(LINEAR, a, SPEC, REG, PROBES).value
    ib = kh_integrate(LINEAR, b, SPEC, REG, PROBES).value
    assert abs(ia - Scalar(antiderivative_t(0.0, 0.5))).is_zero(1e-9)
    assert abs(ib - Scalar(antiderivative_t(0.5, 1.0))).is_zero(1e-9)
    assert integral_additivity_check(LINEAR, a, b, SPEC, REG, PROBES)


def test_kh_square_against_antiderivative_oracle():
    square = PointwiseScalar(SCALAR_FORMS["square"], Scalar(1.0))
    cert = kh_integrate(square, WHOLE, SPEC, REG, PROBES)
    assert abs(cert.value - Scalar(1.0 / 3.0)).is_zero(1e-9)


def test_kh_simple_exact():
    cert = kh_integrate(SIMPLE, WHOLE, SPEC, REG, PROBES)
    assert abs(cert.value - Scalar(1.5)).is_zero(1e-12)


def test_kh_constant_zero_with_zero_regulator():
    cert = kh_integrate(ConstantIntegrand(Scalar(0.0)), WHOLE, SPEC,
                        zero_regulator(Scalar(1.0)), PROBES)
    assert cert.value == Scalar(0.0)


def test_kh_simple_zero_regulator_cannot_cross_jumps():
    with pytest.raises(GaugeConstructionFailed):
        kh_integrate(SIMPLE, WHOLE, SPEC, zero_regulator(Scalar(1.0)), PROBES)


@pytest.mark.parametrize("f", [LINEAR, SIMPLE, SELECTION],
                         ids=["linear", "simple", "selection"])
def test_probes_with_one_envelope_minimum_share_one_gauge(f):
    envs = [envelope(REG, p) for p in PROBES]
    gauges, tightest = certification_gauges(f, WHOLE, SPEC, envs)
    assert len({id(g) for g in [*gauges, tightest]}) == 8
    meet = reduce(lambda a, b: a.meet(b), envs)
    for env, gauge in zip([*envs, meet], [*gauges, tightest]):
        # the gauge that envelope gets alone
        assert certification_gauges(f, WHOLE, SPEC, [env]) == ([gauge], gauge)


def test_kh_refuses_the_counterexample():
    with pytest.raises(NotCertifiable):
        kh_integrate(CounterexampleC00(), WHOLE, SPEC, REG, PROBES)


def test_additivity_check_rejects_overlap():
    with pytest.raises(NotDisjoint):
        integral_additivity_check(
            LINEAR, BorelSet.from_pairs([[0.0, 0.6]]),
            BorelSet.from_pairs([[0.5, 1.0]]), SPEC, REG, PROBES)


def test_selection_integrand_decomposes_linearly():
    mix = ((BorelSet.from_pairs([[0.0, 0.5]]), 1.0),)
    sel = SelectionIntegrand(ConstantIntegrand(Scalar(0.0)),
                             ConstantIntegrand(Scalar(2.0)), mix)
    cert = kh_integrate(sel, WHOLE, SPEC, REG, PROBES)
    assert abs(cert.value - Scalar(1.0)).is_zero(1e-12)


def forced_points(n):
    return [1.0 / (n + 1 - i) for i in range(1, n)]


def test_counterexample_partition_small_cases():
    for n in (2, 3):
        pts = forced_points(n)
        delta = Gauge.constant(0.05, mandatory_tags=pts)
        part = counterexample_partition(n, delta)
        assert is_fine(part, delta)
        forced = [(cell, tag) for cell, tag in part.items if tag in pts]
        assert len(forced) == n - 1
        for cell, tag in forced:
            assert cell.lo < tag < cell.hi
            assert cell.length() < delta.gamma(tag)
        # the forced cells stay strictly inside (0, 1) and strictly ordered
        assert forced[0][0].lo > 0.0 and forced[-1][0].hi < 1.0
        for (c1, _), (c2, _) in zip(forced, forced[1:]):
            assert c1.hi < c2.lo


def test_counterexample_partition_fine_up_to_20():
    for n in range(2, 21):
        pts = forced_points(n)
        delta = Gauge.constant(0.05, mandatory_tags=pts)
        assert is_fine(counterexample_partition(n, delta), delta)


def test_counterexample_partition_needs_declared_tags():
    with pytest.raises(ValueError):
        counterexample_partition(3, Gauge.constant(0.05))


def test_counterexample_sum_structure():
    report = counterexample_unboundedness(20)
    assert report.verdict == "UNBOUNDED"
    by_n = {e.n: e for e in report.entries}
    assert by_n[2].support == (2,)
    assert 5 in by_n[5].support
    for e in report.entries:
        assert e.fine and e.dominated and e.lambda_n > 0.0
        assert e.support == tuple(range(2, e.n + 1))
    # the spike sum dominates lambda_n at the n-th coordinate
    n = 6
    pts = forced_points(n)
    delta = Gauge.constant(0.05, mandatory_tags=pts)
    part = counterexample_partition(n, delta)
    total = riemann_sum(CounterexampleC00(), part, SPEC)
    lam = next(cell.length() for cell, tag in part.items if tag == pts[0])
    assert leq(SparseSeq({n: lam}), total, 1e-12)


def test_certificate_uniqueness_band():
    rng = random.Random("uniq")
    tol = min_envelope(REG, PROBES).scale(2.0)
    for trial in range(3):
        one = kh_integrate(SIMPLE, WHOLE, SPEC, REG, PROBES,
                           seed=f"a{trial}").value
        two = kh_integrate(SIMPLE, WHOLE, SPEC, REG, PROBES,
                           seed=f"b{rng.random()}").value
        assert leq(abs(one - two), tol, 1e-12)
