"""The traced run: per-layer self time and work counts, measured from outside.

Self time comes from ``cProfile``, grouped by the module that defines each
function.  A function outside the package (a builtin, the standard library,
a dataclass-generated method) has its time split over its callers in
proportion to the time each caller spent in it, up to the first package
module.  Counts come from the profiler's exact call counts of public
functions and methods, and from three wrappers that this module installs
for the traced pass only: around ``iter_fine_partitions`` (partitions and
cells sampled), ``riemann_sum`` and ``riemann_set_sum`` (sums and cells
summed).  The program's sources are not touched.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from collections import Counter, defaultdict

import rieszgauge
from rieszgauge import domain, integrands, integrate, regulators, setvalued
from rieszgauge.values import Scalar, SparseSeq, Vector

#: Package modules by layer; ``cli`` takes the front end's three modules.
LAYERS = {"domain": "domain", "values": "values", "regulators": "regulators",
          "integrands": "integrands", "integrate": "integrate",
          "setvalued": "setvalued", "aumann": "aumann", "cli": "cli",
          "config": "cli", "report": "cli"}

PACKAGE_DIR = os.path.dirname(os.path.abspath(rieszgauge.__file__)) + os.sep
BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: The per-layer metrics and their units, in report order.
METRICS = {
    "domain.self_s": "s", "domain.partitions": "count",
    "domain.cells": "count", "domain.radius_evals": "count",
    "domain.ns_per_cell": "ns",
    "values.self_s": "s", "values.allocs": "count",
    "regulators.self_s": "s", "regulators.envelope_calls": "count",
    "integrands.self_s": "s", "integrands.point_evals": "count",
    "integrate.self_s": "s", "integrate.riemann_sums": "count",
    "integrate.sum_ns_per_cell": "ns",
    "setvalued.self_s": "s", "setvalued.set_sums": "count",
    "setvalued.sum_ns_per_cell": "ns",
    "setvalued.partitions_per_verdict": "ratio",
    "aumann.self_s": "s", "aumann.selections": "count",
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "trace.untraced_s": "s", "trace.traced_s": "s", "trace.overhead": "ratio",
}


def _key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _layer(filename: str) -> "str | None":
    """The layer a source file belongs to; ``"bench"`` for the benchmark's
    own files, which end the attribution; None for anything else."""
    if filename.startswith(PACKAGE_DIR):
        return LAYERS.get(filename[len(PACKAGE_DIR):-3])
    if filename.startswith(BENCH_DIR):
        return "bench"
    return None


def _gamma_keys() -> set:
    """The compiled radius functions that ``Gauge.gamma`` is bound to."""
    gauges = (domain.Gauge.constant(1.0),
              domain.Gauge.piecewise([0.0, 1.0], [1.0]),
              domain.Gauge.anchored([0.5], 0.1))
    return {_key(g.gamma) for g in gauges}


def _point_eval_keys() -> set:
    return {_key(cls.value_at) for cls in vars(integrands).values()
            if isinstance(cls, type) and issubclass(cls, integrands.Integrand)
            and "value_at" in vars(cls) and cls is not integrands.Integrand}


class Tracer:
    """Profiles and counts one pass of operations: ``with Tracer() as t:``."""

    def __init__(self):
        self.counts = Counter()
        self.profile = cProfile.Profile()
        self._patched = []

    # -- the three counting wrappers ---------------------------------------

    def _wrap_partitions(self, orig):
        counts = self.counts

        def iter_fine_partitions(*args, **kw):
            for part in orig(*args, **kw):
                counts["partitions"] += 1
                counts["cells"] += len(part)
                yield part
        return iter_fine_partitions

    def _wrap_sum(self, orig, name):
        counts = self.counts

        def wrapped(F, part, spec):
            counts[name] += 1
            counts[name + "_cells"] += len(part)
            return orig(F, part, spec)
        return wrapped

    def _patch(self, orig, replacement):
        """Rebind ``orig`` to ``replacement`` in every package module that
        holds it, so calls through imported names are wrapped too."""
        for name, module in list(sys.modules.items()):
            if name != "rieszgauge" and not name.startswith("rieszgauge."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, orig))

    def __enter__(self):
        self._patch(domain.iter_fine_partitions,
                    self._wrap_partitions(domain.iter_fine_partitions))
        self._patch(integrate.riemann_sum,
                    self._wrap_sum(integrate.riemann_sum, "sums"))
        self._patch(setvalued.riemann_set_sum,
                    self._wrap_sum(setvalued.riemann_set_sum, "set_sums"))
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()
        return False

    # -- the metrics ------------------------------------------------------

    def metrics(self) -> dict:
        stats = pstats.Stats(self.profile).stats
        self_s = _self_times(stats)

        def calls(keys) -> int:
            return sum(stats[k][1] for k in keys if k in stats)

        def cumulative(fn) -> float:
            k = _key(fn)
            return stats[k][3] if k in stats else 0.0

        def per(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        kh = stats.get(_key(integrate.kh_integrate))
        selections = sum(v[0] for caller, v in kh[4].items()
                         if _layer(caller[0]) == "aumann") if kh else 0
        out = {f"{layer}.self_s": self_s.get(layer, 0.0)
               for layer in sorted(set(LAYERS.values()))}
        out.update({
            "domain.partitions": c["partitions"],
            "domain.cells": c["cells"],
            "domain.radius_evals": calls(_gamma_keys()),
            "domain.ns_per_cell": per(self_s.get("domain", 0.0) * 1e9,
                                      c["cells"]),
            "values.allocs": calls({_key(cls.__init__)
                                    for cls in (Scalar, Vector, SparseSeq)}),
            "regulators.envelope_calls": calls({_key(regulators.envelope)}),
            "integrands.point_evals": calls(_point_eval_keys()),
            "integrate.riemann_sums": c["sums"],
            "integrate.sum_ns_per_cell": per(
                cumulative(integrate.riemann_sum) * 1e9, c["sums_cells"]),
            "setvalued.set_sums": c["set_sums"],
            "setvalued.sum_ns_per_cell": per(
                cumulative(setvalued.riemann_set_sum) * 1e9,
                c["set_sums_cells"]),
            "setvalued.partitions_per_verdict": per(
                c["set_sums"], calls({_key(setvalued.phi_membership)})),
            "aumann.selections": selections,
        })
        return out


def _self_times(stats) -> dict:
    """Seconds of own time per layer."""
    memo: dict = {}

    def shares(key, visiting) -> dict:
        layer = _layer(key[0])
        if layer is not None:
            return {layer: 1.0}
        if key in memo:
            return memo[key]
        if key in visiting:
            return {}
        callers = stats[key][4]
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: v[0] for c, v in callers.items()}
            total = sum(weights.values())
        out = defaultdict(float)
        visiting.add(key)
        for caller, w in weights.items():
            for layer, share in shares(caller, visiting).items():
                out[layer] += share * w / total
        visiting.discard(key)
        memo[key] = out
        return out

    totals = defaultdict(float)
    for key, (_, _, tt, _, _) in stats.items():
        for layer, share in shares(key, set()).items():
            totals[layer] += tt * share
    return totals
