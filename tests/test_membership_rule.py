"""Membership decided from the end integrals, against the sampled search it
replaced.

``search_membership`` is the gauge search that ``phi_membership`` used to run:
a halving schedule of gauges pinned at the jump points, each tested on
sampled fine partitions.  It is kept here as the reference.  Away from the
edges of [∫lo - r, ∫hi + r] the two must agree; on an edge only the rule
knows that floats cannot decide, and it says so.
"""

import math
import random
from functools import reduce

import pytest

from rieszgauge.config import load_config
from rieszgauge.domain import (SAMPLES, BorelSet, Gauge, MeasureSpec,
                               iter_fine_partitions)
from rieszgauge.errors import MembershipUndecided
from rieszgauge.regulators import Geometric, envelope, standard_probes
from rieszgauge.setvalued import (ConstantSet, OrderInterval,
                                  endpoint_integrals, phi_membership,
                                  riemann_set_sum)
from rieszgauge.suites import (builtin_interval_multifunctions, rand_borel,
                               rand_interval, rand_simple_set)
from rieszgauge.values import (ORDER_SLACK, Scalar, SparseSeq, Vector, leq,
                               mul, ones_like)

PROBES = standard_probes()

# ---------------------------------------------------------------------------
# the reference: the sampled gauge search
# ---------------------------------------------------------------------------

#: The finest gauge-halving level the search may reach.
MAX_LEVEL = 20


def neighborhood_contains(C, r, z, slack=0.0):
    """Whether some point of the order interval C lies within ``r`` of
    ``z``; exact, via the componentwise clamp of ``z`` onto C."""
    witness = z.join(C.lo).meet(C.hi)
    return leq(abs(z - witness), r, slack)


def test_neighborhood_examples():
    def interval(lo, hi):
        return OrderInterval(Scalar(lo), Scalar(hi))
    assert neighborhood_contains(interval(0, 1), Scalar(0.5), Scalar(1.4))
    assert not neighborhood_contains(interval(0, 1), Scalar(0.5), Scalar(1.6))
    assert neighborhood_contains(interval(0, 0), Scalar(0.0), Scalar(0.0))


def _interior_modulus(F) -> float:
    return max(F.lower.lipschitz(), F.upper.lipschitz())


def _relevant_jumps(F, E):
    return tuple(p for p in F.boundary_points() if E.contains_point(p))


def _membership_gauge(F, E, level):
    radius = 2.0 ** (-level)
    anchors = _relevant_jumps(F, E)
    if anchors and _interior_modulus(F) == 0.0:
        return Gauge.anchored(anchors, radius)
    return Gauge.constant(radius, mandatory_tags=anchors)


def _level_schedule(F, E, spec, env):
    """A few coarse levels plus the level at which the set-sum wobble,
    ``(modulus * length + 4 * #jumps * bound) * scale * radius``, provably
    drops below the envelope."""
    bound = F.bound()
    active = mul(bound.join(ones_like(bound).scale(1e-9)), abs(spec.m0))
    env_min = min((env.coord(k) for k, _ in active.nonzero_coords()),
                  default=float("inf"))
    lam = _interior_modulus(F)
    nb = len(_relevant_jumps(F, E))
    variation = ((lam * E.length() + 4.0 * nb * bound.sup_norm())
                 * spec.m0.sup_norm())
    if variation <= 0.0:
        return [0, 2]
    cap = MAX_LEVEL if (lam == 0.0 and nb > 0) else 13
    if env_min <= 0.0 or not math.isfinite(env_min):
        pred = cap
    else:
        pred = max(0, math.ceil(math.log2(4.0 * variation / env_min)))
    pred = min(pred, cap)
    return sorted({0, 2, pred, min(pred + 2, cap), min(pred + 4, cap)})


def _gauge_search(z, F, E, spec, env, schedule, seed):
    def contained(part):
        return neighborhood_contains(riemann_set_sum(F, part, spec), env, z,
                                     ORDER_SLACK)

    fine_gauge = _membership_gauge(F, E, max(schedule))
    if not all(contained(part) for part in
               iter_fine_partitions(fine_gauge, E, SAMPLES // 4,
                                    f"{seed}:fine")):
        return False
    for level in schedule:
        gauge = _membership_gauge(F, E, level)
        if all(contained(part) for part in
               iter_fine_partitions(gauge, E, SAMPLES, f"{seed}:L{level}")):
            return True
    return False


def search_membership(z, F, E, spec, reg, probes, seed="phi"):
    """For every probe, a gauge of the halving schedule under which every
    sampled fine partition's set-sum comes within the envelope of ``z``."""
    envs = [envelope(reg, phi) for phi in probes]
    env_meet = reduce(lambda a, b: a.meet(b), envs)
    if _gauge_search(z, F, E, spec, env_meet,
                     _level_schedule(F, E, spec, env_meet), seed):
        return True
    for env in sorted(envs, key=lambda e: e.sup_norm()):
        if env == env_meet:
            return False
        if not _gauge_search(z, F, E, spec, env,
                             _level_schedule(F, E, spec, env), seed):
            return False
    return True


# ---------------------------------------------------------------------------
# points at a chosen distance from the edges
# ---------------------------------------------------------------------------

def _value(like, coords: dict):
    if isinstance(like, Scalar):
        return Scalar(coords.get(0, 0.0))
    if isinstance(like, Vector):
        return Vector([coords.get(k, 0.0) for k in range(like.dim)])
    return SparseSeq(coords)


def _point(rng, ends: OrderInterval, r, fraction_of_r):
    """A point whose every coordinate charged by ``r`` is inside both edges
    of [lo - r, hi + r] by at least ``fraction_of_r * r``, or beyond one edge
    by that much, the other coordinates sitting between the end integrals;
    and whether it is a member."""
    coords = {}
    member = True
    keys = {k for v in (ends.lo, ends.hi, r) for k, _ in v.nonzero_coords()}
    for k in sorted(keys):
        lo, hi, rk = ends.lo.coord(k), ends.hi.coord(k), r.coord(k)
        if rk == 0.0:
            coords[k] = lo + rng.random() * (hi - lo)
            continue
        gap = rk * rng.choice((fraction_of_r, 3 * fraction_of_r, 0.3, 1.5))
        side = rng.random()
        if side < 0.2:
            coords[k] = lo - rk - gap
            member = False
        elif side < 0.4:
            coords[k] = hi + rk + gap
            member = False
        else:
            u = rng.choice((0.0, 1.0, rng.random()))
            coords[k] = (lo - rk + fraction_of_r * rk
                         + u * (hi - lo + (2 - 2 * fraction_of_r) * rk))
    return _value(ends.lo, coords), member


def _families(rng, config):
    ramps = builtin_interval_multifunctions(config)
    while True:
        kind = rng.random()
        if kind < 0.45:
            yield rand_simple_set(rng, config, max_pieces=3)
        elif kind < 0.9:
            yield ConstantSet(rand_interval(rng, config))
        else:
            yield rng.choice(ramps)


CONFIGS = {"scalar": {"value_space": "scalar"},
           "vector:2": {"value_space": "vector:2", "m0": "[1, 2]"},
           "c00": {"value_space": "c00", "m0": '{"1": 1, "2": 2}'}}


@pytest.mark.parametrize("space", sorted(CONFIGS))
def test_rule_agrees_with_the_search_away_from_the_edges(space):
    config = load_config(None, CONFIGS[space])
    spec, reg = config.measure_spec(), config.regulator
    r = reduce(lambda a, b: a.meet(b), (envelope(reg, p) for p in PROBES))
    rng = random.Random(f"membership-rule:{space}")
    families = _families(rng, config)
    verdicts = set()
    for trial in range(200):
        F, E = next(families), rand_borel(rng)
        ends = endpoint_integrals(F, E, spec)
        z, member = _point(rng, ends, r, 0.01)
        rule = phi_membership(z, F, E, spec, reg, PROBES)
        assert rule is member, (trial, F, E, z)
        assert search_membership(z, F, E, spec, reg, PROBES,
                                 seed=f"ref:{trial}") is rule, (trial, F, E, z)
        verdicts.add(rule)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the edge band
# ---------------------------------------------------------------------------

SPEC = MeasureSpec(Scalar(1.0))
REG = Geometric(Scalar(1.0), 0.5, 0.5)
R = 2.0 ** -9  # the meet of the standard probes' envelopes under REG
WHOLE = BorelSet.whole()


def test_meet_envelope_of_the_standard_probes():
    assert reduce(lambda a, b: a.meet(b),
                  (envelope(REG, p) for p in PROBES)) == Scalar(R)


def test_the_band_is_relative_to_the_magnitudes():
    big = ConstantSet(OrderInterval(Scalar(1e6), Scalar(2e6)))
    edge = 1e6 - R
    band = ORDER_SLACK * 2e6
    for z in (edge - 0.5 * band, edge, edge + 0.5 * band):
        with pytest.raises(MembershipUndecided):
            phi_membership(Scalar(z), big, WHOLE, SPEC, REG, PROBES)
    assert phi_membership(Scalar(edge + 2 * band), big, WHOLE, SPEC, REG,
                          PROBES)
    assert not phi_membership(Scalar(edge - 2 * band), big, WHOLE, SPEC, REG,
                              PROBES)


def test_an_edge_undecided_in_one_coordinate_loses_to_one_outside():
    config = load_config(None, CONFIGS["vector:2"])
    spec, reg = config.measure_spec(), config.regulator
    F = ConstantSet(OrderInterval(Vector([0.0, 0.0]), Vector([1.0, 1.0])))
    on_edge = -R
    # coordinate 1 is integrated against m0 = 2, so its upper edge is 2 + R
    with pytest.raises(MembershipUndecided):
        phi_membership(Vector([on_edge, 1.0]), F, WHOLE, spec, reg, PROBES)
    assert not phi_membership(Vector([on_edge, 3.0]), F, WHOLE, spec, reg,
                              PROBES)


def test_coordinates_the_measure_annihilates_are_decided():
    # m0 charges indices 1 and 2; index 3 integrates to exactly zero and its
    # envelope is zero, so a point that is zero there sits on both edges
    config = load_config(None, CONFIGS["c00"])
    spec, reg = config.measure_spec(), config.regulator
    F = ConstantSet(OrderInterval(SparseSeq({3: -1.0}), SparseSeq({3: 1.0})))
    assert phi_membership(SparseSeq(), F, WHOLE, spec, reg, PROBES)
    assert phi_membership(SparseSeq({1: 0.5 * R}), F, WHOLE, spec, reg,
                          PROBES)
    assert not phi_membership(SparseSeq({3: 1e-300}), F, WHOLE, spec, reg,
                              PROBES)
