"""Gauges and constructive fine partitions.

A gauge assigns every point a strictly positive radius; a tagged partition
is fine for it when each cell sits inside the open ball around its tag.
Fine partitions always exist and are built here by bisection, with declared
mandatory tags carved out first — the gauge may dip as low as it likes at
those points, as long as it stays above a positive floor elsewhere.
"""

from rieszgauge import BorelSet, Gauge, Interval, cousin_partition, is_fine
from rieszgauge.domain import iter_fine_partitions, partition_borel

wide = Gauge.constant(2.0)
print("radius 2 swallows [0,1] whole:",
      cousin_partition(wide, Interval(0.0, 1.0)).to_triples())

snug = Gauge.constant(0.3)
part = cousin_partition(snug, Interval(0.0, 1.0))
print("radius 0.3 needs one split:   ", part.to_triples())
print("fine for 0.3?", is_fine(part, snug),
      " fine for 0.2?", is_fine(part, Gauge.constant(0.2)))

# a mandatory tag pins its own cell no matter how small the gauge is there
pinned = Gauge.piecewise((0.0, 0.05, 1.0), (0.001, 0.4), mandatory_tags=[0.0])
part = cousin_partition(pinned, Interval(0.0, 1.0))
cell, tag = part.items[0]
print(f"\npinned first cell [{cell.lo}, {cell.hi:.6f}] tagged {tag}")
print("whole partition fine?", is_fine(part, pinned), f"({len(part)} cells)")

# anchored gauges shrink linearly toward declared points, so cells pile up
# only near the anchors
anchored = Gauge.anchored([0.5], tag_radius=1e-4)
part = cousin_partition(anchored, Interval(0.0, 1.0))
tiny = [c for c, _ in part.items if c.length() < 1e-3]
print(f"\nanchored at 0.5: {len(part)} cells, {len(tiny)} of them tiny "
      f"near the anchor")

# randomized fine perturbations mix scales but never break fineness
region = BorelSet.from_pairs([[0.0, 0.4], [0.6, 1.0]])
sampled = list(iter_fine_partitions(snug, region, 8, seed="demo"))
print("\nsampled partition sizes over a two-piece set:",
      [len(p) for p in sampled])
print("all fine:", all(is_fine(p, snug) for p in sampled))
assert partition_borel(snug, region).covers(region)
