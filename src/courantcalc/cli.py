"""Command-line front end: load JSON inputs, run suites, emit reports.

Exit codes: 0 when every check passes, 1 on check failures, 2 on malformed
or unreadable input files, 3 on semantic precondition failures (bad shapes,
gates), 4 on an internal error.
Reports are deterministic: identical configurations produce byte-identical
JSON output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cochain as co
from . import dorfman as dc
from . import linalg
from .algebroid import algebroid_from_json, verify_axioms
from .battery import Battery
from .cohomology import PointComplex
from .report import PreconditionError, Report, run_check
from .scalar import ParseError

__all__ = ["main"]


def _non_negative_int(text):
    """An argparse type: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="courantcalc",
        description="exact verification and computation for Courant "
                    "algebroids and Dorfman connections")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--battery-degree", type=_non_negative_int, default=2,
                       help="monomial degree cap for battery sections")
        p.add_argument("--extras", type=_non_negative_int, default=3,
                       help="number of seeded random battery elements")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("-o", "--output", default=None,
                       help="write the report (or built object) to a file")

    p = sub.add_parser("verify-algebroid", help="check the structure axioms")
    p.add_argument("algebroid")
    common(p)

    p = sub.add_parser("cartan", help="check the commutation-relation suite")
    p.add_argument("algebroid")
    common(p)

    p = sub.add_parser("connection-build", help="construct a connection")
    p.add_argument("algebroid")
    p.add_argument("predual")
    common(p)

    p = sub.add_parser("connection-verify", help="check the connection axioms")
    p.add_argument("algebroid")
    p.add_argument("predual")
    p.add_argument("connection")
    common(p)

    p = sub.add_parser("curvature", help="check the curvature laws")
    p.add_argument("algebroid")
    p.add_argument("predual")
    p.add_argument("connection")
    common(p)

    p = sub.add_parser("bianchi", help="check both Bianchi components")
    p.add_argument("algebroid")
    p.add_argument("predual")
    p.add_argument("connection")
    common(p)

    p = sub.add_parser("bott", help="quotient connection of a Dirac frame")
    p.add_argument("algebroid")
    p.add_argument("dirac")
    common(p)

    p = sub.add_parser("cohomology", help="betti numbers over a point")
    p.add_argument("algebroid")
    common(p)

    p = sub.add_parser("predual-diagnose", help="pairing rank bookkeeping")
    p.add_argument("algebroid")
    p.add_argument("predual")
    common(p)
    return parser


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply") from None


def _battery(alg, args):
    return Battery(alg, degree=args.battery_degree, extras=args.extras,
                   seed=args.seed)


def _config(args, alg, battery):
    # every argument of the command but the ones that shape the output, and
    # the battery's size for the commands that build their battery here
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("command", "format", "output") and v is not None}
    cfg["base_dimension"] = alg.n
    cfg["rank"] = alg.rank
    if battery is not None:
        cfg["battery_sections"] = len(battery.sections)
        cfg["battery_functions"] = len(battery.functions)
    return cfg


def cmd_verify_algebroid(args):
    alg = algebroid_from_json(_load_json(args.algebroid))
    battery = _battery(alg, args)
    report = verify_axioms(alg, battery)
    return report, _config(args, alg, battery), None


def cmd_cartan(args):
    alg = algebroid_from_json(_load_json(args.algebroid))
    battery = _battery(alg, args)
    report = co.cartan_suite(alg, battery)
    return report, _config(args, alg, battery), None


def _load_connection_inputs(args, need_connection=True):
    alg = algebroid_from_json(_load_json(args.algebroid))
    bundle = dc.predual_from_json(alg, _load_json(args.predual))
    conn = None
    if need_connection:
        conn = dc.connection_from_json(bundle, _load_json(args.connection))
    return alg, bundle, conn


def cmd_connection_build(args):
    alg, bundle, _ = _load_connection_inputs(args, need_connection=False)
    battery = _battery(alg, args)
    # the report is that of the constructor's self-test: verified once
    conn, report = dc.build_connection(bundle, battery)
    payload = dc.connection_to_json(conn)
    return report, _config(args, alg, battery), ("connection", payload)


def _connection_check(check):
    """The command running the check of that name in ``dorfman`` on the
    loaded connection, looked up when it runs: a wrapper put on the module
    attribute is the one called."""
    def command(args):
        alg, _, conn = _load_connection_inputs(args)
        battery = _battery(alg, args)
        report = getattr(dc, check)(conn, battery)
        return report, _config(args, alg, battery), None
    return command


def cmd_bott(args):
    alg = algebroid_from_json(_load_json(args.algebroid))
    sections = dc.dirac_from_json(alg, _load_json(args.dirac))
    _, _, report = dc.bott_connection(alg, sections,
                                      battery_degree=args.battery_degree,
                                      extras=args.extras, seed=args.seed)
    return report, _config(args, alg, None), None


def cmd_cohomology(args):
    alg = algebroid_from_json(_load_json(args.algebroid))
    pc = PointComplex(alg)
    report = Report("point cohomology")
    # one tuple per entry of the product d_{p+1} d_p, rows and columns from 1
    run_check(report, "differential-squares-to-zero",
              ((p, i, j, row, pc.differential_matrix(p))
               for p in range(pc.rank - 1)
               for i, row in enumerate(pc.differential_matrix(p + 1))
               for j in range(pc.dimension(p))),
              lambda p, i, j, row, m: (
                  sum(row[t] * m[t][j] for t in range(len(m))), 0),
              lambda p, i, j, row, m: f"p={p}, row {i + 1}, column {j + 1}")
    # b_p = dim - rank d_p - rank d_{p-1} is negative when the ranks exceed
    # what a complex allows, as they can when d^2 is not zero
    run_check(report, "betti-numbers-nonnegative",
              ((p,) for p in range(pc.rank + 1)),
              lambda p: (max(0, -pc.betti(p)), 0),
              lambda p: f"p={p}")
    payload = {"table": pc.table()}
    return report, _config(args, alg, None), ("cohomology", payload)


def cmd_predual_diagnose(args):
    alg, bundle, _ = _load_connection_inputs(args, need_connection=False)
    diag = dc.predual_diagnose(bundle)
    report = Report("predual diagnosis")
    # row rank equals column rank: a second elimination, on the transpose
    p_rank = diag["pairing_rank"]
    t_rank = linalg.rank(linalg.mat_transpose(bundle.pairing_matrix))
    ok = p_rank == t_rank
    report.add("pairing-rank-computed", ok, 1,
               None if ok else f"pairing matrix ({bundle.rank} x {alg.rank})",
               None if ok else f"rank {p_rank} != rank of transpose {t_rank}")
    return report, _config(args, alg, None), ("diagnosis", diag)


COMMANDS = {
    "verify-algebroid": cmd_verify_algebroid,
    "cartan": cmd_cartan,
    "connection-build": cmd_connection_build,
    "connection-verify": _connection_check("verify_connection"),
    "curvature": _connection_check("curvature_laws"),
    "bianchi": _connection_check("bianchi_check"),
    "bott": cmd_bott,
    "cohomology": cmd_cohomology,
    "predual-diagnose": cmd_predual_diagnose,
}


def _render(args, report, config, payload):
    doc = {"command": args.command, "config": config,
           "passed": report.passed,
           "checks": [c.to_dict() for c in report.checks]}
    if payload is not None:
        key, value = payload
        doc[key] = value
    if args.format == "json":
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    lines = [f"command: {args.command}"]
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        line = f"[{mark}] {c.name} ({c.checked} tuples)"
        if not c.passed:
            if c.witness:
                line += f"\n       witness: {c.witness}"
            if c.residual:
                line += f"\n       residual: {c.residual}"
        lines.append(line)
    if payload is not None:
        key, value = payload
        if key == "cohomology":
            lines.append("p  dim  rank_d  betti")
            for row in value["table"]:
                lines.append(f"{row['p']:<3}{row['dim']:<5}"
                             f"{row['rank_d']:<8}{row['betti']}")
        elif key == "diagnosis":
            for k in sorted(value):
                lines.append(f"{k}: {value[k]}")
        elif key == "connection":
            lines.append(f"gamma entries: {len(value['gamma'])} nonzero rows")
    lines.append("result: " + ("all checks passed" if report.passed
                               else "checks FAILED"))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, config, payload = COMMANDS[args.command](args)
        text = _render(args, report, config, payload)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                if args.command == "connection-build" and payload is not None:
                    json.dump(payload[1], handle, sort_keys=True, indent=1)
                    handle.write("\n")
                else:
                    handle.write(text)
    except (json.JSONDecodeError, UnicodeDecodeError, ParseError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except PreconditionError as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return 3
    except Exception as exc:
        # a fault of the program, never to be confused with a failed check
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 4
    if not args.output or args.command == "connection-build":
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
