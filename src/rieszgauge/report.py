"""Deterministic JSON encoding of values, certificates, and run reports.

Every report kind emitted by the command-line front end validates against the
schema shipped at ``docs/report.schema.json``.  Encoding is byte-deterministic
for a fixed configuration and seed: keys are sorted and no volatile data
(timestamps, paths, machine info) is ever included.
"""

from __future__ import annotations

import json

from .aumann import ComparisonReport
from .domain import BorelSet
from .integrate import CounterexampleReport, IntegralCertificate
from .setvalued import OrderInterval


def interval_to_json(C: OrderInterval) -> dict:
    return {"lo": C.lo.to_json(), "hi": C.hi.to_json()}


def certificate_to_json(cert: IntegralCertificate) -> dict:
    return {
        "report": "certificate",
        "value": cert.value.to_json(),
        "regulator": cert.regulator.describe(),
        "probes": [
            {
                "phi": r.probe.describe(),
                "gauge": r.gauge.describe(),
                "maxDeviation": r.max_deviation.sup_norm(),
                "samples": r.samples,
            }
            for r in cert.probe_reports
        ],
    }


def phi_to_json(oracle: OrderInterval, E: BorelSet, description: str,
                member=None) -> dict:
    out = {
        "report": "phi",
        "multifunction": description,
        "set": E.to_pairs(),
        "oracle": interval_to_json(oracle),
    }
    if member is not None:
        point, verdict = member
        out["member"] = {"point": point.to_json(), "verdict": verdict}
    return out


def comparison_to_json(rep: ComparisonReport) -> dict:
    return {
        "report": "comparison",
        "sumFormula": interval_to_json(rep.sum_formula),
        "aumannHull": interval_to_json(rep.aumann_hull),
        "phiOracle": interval_to_json(rep.phi_oracle),
        "maxDiscrepancy": rep.max_discrepancy,
        "membershipChecks": [
            {"point": p.to_json(), "member": flag}
            for p, flag in rep.membership_checks
        ],
        "passed": rep.passed,
    }


def counterexample_to_json(rep: CounterexampleReport) -> dict:
    return {
        "report": "counterexample",
        "gaugeRadius": rep.gauge_radius,
        "verdict": rep.verdict,
        "entries": [
            {
                "n": e.n,
                "lambda": e.lambda_n,
                "fine": e.fine,
                "dominated": e.dominated,
                "support": list(e.support),
            }
            for e in rep.entries
        ],
    }


def suite_to_json(results) -> dict:
    suites = []
    for res in results:
        suites.append({
            "suite": res.name,
            "passed": res.passed,
            "properties": [
                {
                    "name": p.name,
                    "trials": p.trials,
                    "passed": p.passed,
                    "worstSlack": p.worst_slack,
                    "detail": p.detail,
                }
                for p in res.properties
            ],
        })
    return {
        "report": "suite",
        "passed": all(r.passed for r in results),
        "suites": suites,
    }


def dumps(payload: dict, compact: bool = False) -> str:
    if compact:
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
