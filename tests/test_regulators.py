from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st
from conftest import examples

from rieszgauge.errors import EmptyFamily, EmptyProbeSet
from rieszgauge.regulators import (AffineMap, ConstantMap, ExponentialMap,
                                   FiniteMatrix, Geometric, IdentityMap,
                                   IndexMap,
                                   Scaled, ShiftedMap, SumPair, d_limit_check,
                                   envelope, fremlin_combine, min_envelope,
                                   _pow, regulator_entry, standard_probes,
                                   zero_regulator)
from rieszgauge.values import Scalar, SparseSeq, Vector, leq, zero_like

GEO = Geometric(Scalar(1.0), 0.5, 0.5)


def brute_envelope(reg, phi, rows=200):
    out = zero_like(regulator_entry(reg, 1, 1))
    for i in range(1, rows + 1):
        out = out.join(regulator_entry(reg, i, phi.eval(i)))
    return out


def test_entry_examples():
    assert regulator_entry(GEO, 1, 1) == Scalar(0.25)
    zero = zero_regulator(Scalar(1.0))
    assert regulator_entry(Scaled(zero, 5.0), 3, 7) == Scalar(0.0)
    fm = FiniteMatrix(((Scalar(3.0), Scalar(0.0)),))
    assert regulator_entry(fm, 1, 5) == Scalar(0.0)
    assert regulator_entry(fm, 1, 1) == Scalar(3.0)
    assert regulator_entry(fm, 4, 1) == Scalar(0.0)


def test_finite_matrix_validation():
    with pytest.raises(ValueError):
        FiniteMatrix(((Scalar(1.0), Scalar(2.0), Scalar(0.0)),))  # not antitone
    with pytest.raises(ValueError):
        FiniteMatrix(((Scalar(1.0), Scalar(0.5)),))  # last column nonzero


def test_envelope_examples():
    # maximum over rows sits at i=1 for nondecreasing probes
    assert envelope(GEO, IdentityMap()) == Scalar(0.25)
    assert envelope(zero_regulator(Scalar(1.0)), IdentityMap()) == Scalar(0.0)
    assert envelope(Geometric(Scalar(1.0), 1.0, 0.5), ConstantMap(3)) == Scalar(0.125)


@pytest.mark.parametrize("phi", standard_probes(), ids=lambda p: p.describe())
def test_envelope_matches_enumeration(phi):
    for reg in (GEO, Geometric(Vector([1.0, 2.0]), 1.0, 0.75),
                FiniteMatrix(((Scalar(3.0), Scalar(1.0), Scalar(0.0)),
                              (Scalar(2.0), Scalar(2.0), Scalar(0.0)),
                              (Scalar(0.5), Scalar(0.25), Scalar(0.0))))):
        env = envelope(reg, phi)
        brute = brute_envelope(reg, phi)
        assert leq(brute, env, 1e-12) and leq(env, brute, 1e-12)


def test_envelope_sum_and_scale_upper_bounds():
    pair = SumPair(GEO, Geometric(Scalar(2.0), 1.0, 0.25))
    phi = IdentityMap()
    assert leq(brute_envelope(pair, phi), envelope(pair, phi), 1e-12)
    scaled = Scaled(GEO, 3.0)
    assert envelope(scaled, phi) == Scalar(0.75)


def test_antitone_in_columns():
    for reg in (GEO, SumPair(GEO, Scaled(GEO, 2.0))):
        for i in range(1, 9):
            for j in range(1, 9):
                assert leq(regulator_entry(reg, i, j + 1),
                           regulator_entry(reg, i, j))


def test_weak_sigma_distributivity_witness():
    prev = None
    for c in range(1, 30):
        env = envelope(GEO, ConstantMap(c))
        assert leq(env, Scalar(0.5 * 0.5 ** c), 1e-15)
        if prev is not None:
            assert leq(env, prev)
        prev = env


def test_huge_exponential_columns_underflow_cleanly():
    assert envelope(GEO, ShiftedMap(ExponentialMap(), 50)) == Scalar(0.0)


def scan_envelope(reg, phi, rows=64):
    """The row scan that ``Geometric.envelope`` ran before its closed form:
    the largest coefficient over the first ``rows`` rows, for a probe that
    must be nondecreasing there."""
    best = 0.0
    prev_col = None
    for i in range(1, rows + 1):
        j = phi.eval(i)
        assert prev_col is None or j >= prev_col
        prev_col = j
        coeff = _pow(reg.row_scale, i) * _pow(reg.col_scale, j)
        if coeff > best:
            best = coeff
    return reg.base.scale(best)


#: Exponents that cross ``_pow``'s switch to logarithms at 8,000.
EXPONENTS = st.one_of(st.integers(1, 40), st.integers(7_900, 8_100),
                      st.integers(1, 10 ** 6))


def index_maps():
    leaves = st.one_of(
        st.builds(ConstantMap, EXPONENTS),
        st.builds(AffineMap, st.integers(1, 200), st.integers(0, 8_100)),
        st.just(IdentityMap()), st.just(ExponentialMap()))
    return st.one_of(leaves, st.builds(ShiftedMap, leaves, EXPONENTS))


SCALES = st.one_of(st.sampled_from([0.5, 0.9, 1e-300, 1.0 - 2 ** -52]),
                   st.floats(1e-300, 1.0))


BASES = st.sampled_from([Scalar(1.0), Scalar(3.5), Vector([1.0, 2.0]),
                         SparseSeq({1: 1.0, 4: 0.25})])


@settings(max_examples=examples(300), deadline=None)
@given(BASES, SCALES, SCALES.filter(lambda c: c < 1.0), index_maps())
def test_geometric_envelope_is_its_first_row(base, row, col, phi):
    reg = Geometric(base, row, col)
    assert repr(reg.envelope(phi)) == repr(scan_envelope(reg, phi))


def test_fremlin_combination_dominates():
    regs = [GEO, GEO, GEO]
    u = Scalar(10.0)
    combined = fremlin_combine(regs, u)
    phi = IdentityMap()
    # left side by the envelope oracle: sum of shifted member envelopes
    partial = zero_like(u)
    for k, reg in enumerate(regs, start=1):
        partial = partial + envelope(reg, ShiftedMap(phi, k))
    lhs = u.meet(partial)
    assert lhs == Scalar(7.0 / 32.0)
    assert leq(lhs, envelope(combined, phi), 1e-12)
    for probe in standard_probes():
        acc = zero_like(u)
        for s in range(1, 51):
            if s <= len(regs):
                acc = acc + envelope(regs[s - 1], ShiftedMap(probe, s))
            assert leq(u.meet(acc), envelope(combined, probe), 1e-12)


def test_fremlin_trivial_cases():
    zero = zero_regulator(Scalar(1.0))
    assert envelope(fremlin_combine([zero], Scalar(5.0)), IdentityMap()).is_zero()
    assert envelope(fremlin_combine([GEO], Scalar(0.0)), IdentityMap()).is_zero()
    with pytest.raises(EmptyFamily):
        fremlin_combine([], Scalar(1.0))


def test_fremlin_entries_stay_a_regulator():
    combined = fremlin_combine([GEO, Geometric(Scalar(2.0), 1.0, 0.9)],
                               Scalar(3.0))
    for i in range(1, 8):
        for j in range(1, 8):
            entry = regulator_entry(combined, i, j)
            assert leq(zero_like(entry), entry)
            assert leq(regulator_entry(combined, i, j + 1), entry)
            assert leq(entry, Scalar(3.0), 1e-12)


def test_d_limit_constant_sequence_zero_regulator():
    r = Scalar(4.0)
    assert d_limit_check([r] * 10, r, zero_regulator(r), standard_probes())


def test_d_limit_reciprocal_sequence():
    reg = Geometric(Scalar(1.0), 1.0, 0.5)
    seq = [Scalar(1.0 / n) for n in range(1, 101)]
    probes = [ConstantMap(c) for c in range(1, 7)] + [IdentityMap()]
    assert d_limit_check(seq, Scalar(0.0), reg, probes)
    # |1/100 - 0.5| exceeds the tightest envelope 2**-6 at the tail
    assert not d_limit_check(seq, Scalar(0.5), reg, [ConstantMap(6)])
    with pytest.raises(EmptyProbeSet):
        d_limit_check(seq, Scalar(0.0), reg, [])


def test_d_limit_uniqueness_band():
    reg = GEO
    probes = standard_probes()
    env_min = min_envelope(reg, probes)
    r = Scalar(2.0)
    seq = [r + Scalar(((-1) ** n) * 2.0 ** (-n)) for n in range(1, 61)]
    for candidate in (r, r + env_min.scale(0.9), r + env_min.scale(3.0)):
        if d_limit_check(seq, candidate, reg, probes):
            assert leq(abs(candidate - r), env_min.scale(2.0), 1e-12)


def test_probe_maps_evaluate_positively():
    for phi in standard_probes() + (AffineMap(3, 2), ShiftedMap(IdentityMap(), 4)):
        for i in range(1, 20):
            assert phi.eval(i) >= 1
            assert phi.eval(i + 1) >= phi.eval(i)


@dataclass
class _UnhashableConstant(IndexMap):
    # a non-frozen dataclass: equality without a hash
    c: int

    def eval(self, i):
        return self.c


def test_envelope_is_memoized_on_the_regulator():
    reg = Geometric(Scalar(1.0), 0.5, 0.5)
    first = envelope(reg, ConstantMap(3))
    assert envelope(reg, ConstantMap(3)) is first
    assert first == brute_envelope(reg, ConstantMap(3))
    # the memo is no field: equality, hashing and repr stay the family's
    twin = Geometric(Scalar(1.0), 0.5, 0.5)
    assert reg == twin and hash(reg) == hash(twin) and repr(reg) == repr(twin)
    assert envelope(twin, ConstantMap(3)) == first
    assert envelope(reg, _UnhashableConstant(3)) == first
