"""Command-line front end.

Subcommands: ``integrate``, ``phi``, ``compare``, ``suite``,
``counterexample``.  Every command emits a JSON report (pretty by default,
compact with ``--json``) that validates against ``docs/report.schema.json``.
Output is plain text only, so NO_COLOR needs no special handling.

Exit codes: 0 success, 1 usage or spec error, 2 certification failure, a
failed suite/comparison or undecided membership, 3 unbounded multifunction.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import report
from .aumann import comparison_simple
from .config import (SpecError, load_config, parse_integrand,
                     parse_multifunction, parse_set, parse_value)
from .errors import NotCertifiable, RieszGaugeError, UnboundedMultifunction
from .integrate import counterexample_unboundedness, kh_integrate
from .setvalued import SimpleSet, phi_interval_oracle, phi_membership
from .suites import run_suites

#: The largest ``counterexample --n-max``: the run costs about n**3, since the
#: sum for each n carries n sequence keys over O(n) cells.
N_MAX = 200


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which is reserved for
    # certification failures here)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(parser, suppress: bool):
    # shared flags work both before and after the subcommand; the child
    # copies suppress their defaults so they never clobber the parent's
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", metavar="PATH", default=default,
                        help="INI config file (see README)")
    parser.add_argument("--seed", type=int, default=default,
                        help="override the run seed")
    parser.add_argument("--probes", metavar="LIST", default=default,
                        help="probe set, e.g. 'std' or 'const:3,identity'")
    parser.add_argument("--out", metavar="PATH", default=default,
                        help="write the JSON report here instead of stdout")
    parser.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="compact single-line JSON output")


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="rieszgauge",
                     description="gauge integration over concrete value "
                                 "lattices, with set-valued and selection "
                                 "integrals")
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_int = sub.add_parser("integrate", parents=[common],
                           help="certify a single-valued integral")
    p_int.add_argument("--f", required=True, metavar="SPEC",
                       help="integrand: const:<v>, t, one_minus_t, half_t, "
                            "neg_t, square, simple:lo,hi,v;..., counterexample")
    p_int.add_argument("--on", default="[0,1]", metavar="SET",
                       help="set to integrate over, e.g. [0,1] or "
                            "[0,0.25]+[0.5,1]")

    p_phi = sub.add_parser("phi", parents=[common],
                           help="set-valued integral oracle/membership")
    p_phi.add_argument("--F", required=True, metavar="SPEC",
                       help="multifunction: const:<lo>,<hi>, simple:<json>, "
                            "interval:<lower>,<upper>")
    p_phi.add_argument("--on", default="[0,1]", metavar="SET")
    p_phi.add_argument("--member", metavar="VALUE",
                       help="also test membership of this value; give a "
                            "negative one as --member=<value>, since "
                            "-1e-3 alone reads as an option")

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="endpoint-sum vs selection hull vs oracle "
                                "for a simple multifunction")
    p_cmp.add_argument("--F", required=True, metavar="SPEC")
    p_cmp.add_argument("--on", default="[0,1]", metavar="SET")

    p_suite = sub.add_parser("suite", parents=[common],
                             help="run property suites")
    p_suite.add_argument("names", nargs="+", metavar="SUITE",
                         help="lattice, measure, integral, setvalued, "
                              "aumann, counterexample, or all")

    p_cx = sub.add_parser("counterexample", parents=[common],
                          help="run the non-integrable spike construction")
    p_cx.add_argument("--n-max", type=int, default=20,
                      help=f"largest n of the spike family, 2 to {N_MAX} "
                           f"(default 20)")
    return parser


def _emit(payload: dict, args) -> None:
    text = report.dumps(payload, compact=args.json)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _run(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.probes is not None:
        overrides["probes"] = args.probes
    config = load_config(args.config, overrides)
    spec = config.measure_spec()

    if args.command == "integrate":
        f = parse_integrand(args.f, config)
        region = parse_set(args.on)
        try:
            cert = kh_integrate(f, region, spec, config.regulator,
                                config.probes, seed=f"{config.seed}:cli")
        except NotCertifiable as exc:
            print(f"not KH-integrable: {exc}", file=sys.stderr)
            return 2
        _emit(report.certificate_to_json(cert), args)
        return 0

    if args.command == "phi":
        F = parse_multifunction(args.F, config)
        region = parse_set(args.on)
        F.bound()
        oracle = phi_interval_oracle(F, region, spec, config.regulator,
                                     config.probes, seed=f"{config.seed}:cli")
        member = None
        if args.member is not None:
            z = parse_value(args.member, config.value_space)
            verdict = phi_membership(z, F, region, spec, config.regulator,
                                     config.probes, seed=f"{config.seed}:cli")
            member = (z, verdict)
            print("member" if verdict else "non-member", file=sys.stderr)
        _emit(report.phi_to_json(oracle, region, F.describe(), member), args)
        return 0

    if args.command == "compare":
        F = parse_multifunction(args.F, config)
        if not isinstance(F, SimpleSet):
            raise SpecError("compare needs a simple multifunction (--F)")
        region = parse_set(args.on)
        rep = comparison_simple(F, region, spec, config.regulator,
                                config.probes, seed=f"{config.seed}:cli")
        _emit(report.comparison_to_json(rep), args)
        return 0 if rep.passed else 2

    if args.command == "suite":
        try:
            results = run_suites(args.names, config)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _emit(report.suite_to_json(results), args)
        return 0 if all(r.passed for r in results) else 2

    if args.command == "counterexample":
        if args.n_max < 2:
            raise SpecError("--n-max must be at least 2")
        if args.n_max > N_MAX:
            raise SpecError(f"--n-max must be at most {N_MAX}")
        rep = counterexample_unboundedness(args.n_max)
        _emit(report.counterexample_to_json(rep), args)
        return 0 if rep.verdict == "UNBOUNDED" else 2

    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _run(args)
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 1
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnboundedMultifunction as exc:
        print(f"unbounded multifunction: {exc}", file=sys.stderr)
        return 3
    except RieszGaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
