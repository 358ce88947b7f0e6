"""Command-line interface: analyze codes, compute weights, search witnesses,
take duals and closures, and drive the verification harness.

Exit codes: 0 success, 1 usage or input error, 2 verification failure,
3 inapplicable request (e.g. exhaustive verification over Q).
The environment variable RANKWEIGHT_WORKERS overrides the verify worker
count (default: available parallelism, the CPUs this process may run on).
"""

from __future__ import annotations

import argparse
import json
import sys

from .documents import (
    document_from_code,
    parse_code_file,
    render_code_document,
    tower_to_json,
)
from .errors import (
    BadR,
    EquivalenceViolation,
    InfiniteField,
    InternalInvariantError,
    ParseError,
    RankWeightError,
    SearchExhausted,
)
from .fields import format_element
from .ranksupport import (
    LinearCode,
    closure,
    dual,
    is_extended,
    is_rank_degenerate,
    rank_support_code,
    restriction,
)
from .verify import THEOREMS, TowerTask, VerifyPlan, resolve_workers, run_verify, standard_plan, summary_to_text
from .weights import STRATEGIES, find_witness, weight_report


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract wants 1
        raise _UsageError(message)


def _rows(space):
    return [[format_element(x) for x in row] for row in space.rows]


def emit_report(report: dict, fmt: str) -> str:
    """Render a report dict as JSON (stable key order) or aligned text."""
    if fmt == "json":
        return json.dumps(report, indent=2)
    return _report_text(report)


def _format_value(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        if all(isinstance(r, list) for r in value):
            return "; ".join("(" + ", ".join(str(x) for x in r) + ")" for r in value) or "(empty)"
        return "(" + ", ".join(str(x) for x in value) + ")"
    if isinstance(value, dict):
        return json.dumps(value)
    return str(value)


def _report_text(report: dict) -> str:
    lines = []
    for key, value in report.items():
        if key == "hierarchy":
            lines.append("hierarchy:")
            header = f"  {'r':>3} {'dRr':>5} {'Mr':>5} {'OSr':>5} {'Dr':>5}"
            lines.append(header)
            for row in value:
                cells = [row.get(c) for c in ("r", "dRr", "Mr", "OSr", "Dr")]
                text = f"  {cells[0]:>3} " + " ".join(
                    f"{('-' if c is None else c):>5}" for c in cells[1:]
                )
                if row.get("reason"):
                    text += f"   ({row['reason']})"
                lines.append(text)
        else:
            lines.append(f"{key}: {_format_value(value)}")
    return "\n".join(lines)


def _load(args) -> LinearCode:
    """The code of the document named on the command line."""
    with open(args.file, "r", encoding="utf-8") as fh:
        return parse_code_file(fh.read()).to_code()


def _header(code: LinearCode) -> dict:
    """The tower/n/dim block that opens every report."""
    return {"tower": tower_to_json(code.tower), "n": code.length, "dim": code.dim}


def cmd_analyze(args) -> int:
    code = _load(args)
    report = _header(code)
    report["rank_support"] = _rows(rank_support_code(code).space)
    report["restriction"] = _rows(restriction(code).space)
    report["dual"] = _rows(dual(code).space)
    report["closure"] = _rows(closure(code).space)
    report["degenerate"] = is_rank_degenerate(code)
    report["extended"] = is_extended(code)
    print(emit_report(report, args.format))
    return 0


def cmd_weights(args) -> int:
    code = _load(args)
    report = _header(code)
    if args.r is not None and not 1 <= args.r <= code.dim:
        raise BadR(f"--r {args.r} outside 1..dim C = {code.dim}")
    report.update(weight_report(code, witness_seed=args.seed, r=args.r))
    print(emit_report(report, args.format))
    return 0


def cmd_witness(args) -> int:
    code = _load(args)
    report = _header(code)
    status = "found"
    witness = None
    try:
        witness = find_witness(code, strategy=args.strategy, seed=args.seed)
        if witness is None:
            status = "none_exists"
    except SearchExhausted as e:
        status = f"undecided: {e}"
    report["strategy"] = args.strategy
    report["status"] = status
    report["witness"] = None if witness is None else [format_element(x) for x in witness]
    print(emit_report(report, args.format))
    return 0


def _emit_code(transformed) -> int:
    print(render_code_document(document_from_code(transformed)))
    return 0


def cmd_dual(args) -> int:
    return _emit_code(dual(_load(args)))


def cmd_closure(args) -> int:
    return _emit_code(closure(_load(args)))


def _parse_csv_modulus(text: str):
    """CSV coefficients as element strings over the base, such as '3', '-1/2' or 'u+1',
    which ``documents.build_tower`` reads in the element grammar."""
    return tuple(part.strip() for part in text.split(","))


def cmd_verify(args) -> int:
    # a plan with no codes would pass vacuously
    for flag, value in (("--max-n", args.max_n), ("--random", args.random)):
        if value is not None and value < 1:
            raise _UsageError(f"{flag} must be at least 1, got {value}")
    workers = resolve_workers()
    if args.char is None:
        for name in ("ext_modulus", "base_degree", "base_modulus"):  # flags of a tower that --char names
            if getattr(args, name) is not None:
                raise _UsageError(f"--{name.replace('_', '-')} requires --char")
        towers = standard_plan().towers
        if args.max_n is not None:
            for t in towers:
                t.max_n = min(t.max_n, args.max_n)
    else:
        if args.ext_modulus is None:
            raise _UsageError("--char requires --ext-modulus")
        base_modulus = None
        if args.base_modulus is not None:
            base_modulus = tuple(int(c) for c in args.base_modulus.split(","))
        task = TowerTask(
            characteristic=args.char,
            extension_modulus=_parse_csv_modulus(args.ext_modulus),
            base_degree=1 if args.base_degree is None else args.base_degree,
            base_modulus=base_modulus,
            max_n=args.max_n if args.max_n is not None else 2,
        )
        towers = [task]
    source = {} if args.random is None else {"source": "random", "random_count": args.random}
    plan = VerifyPlan(towers, theorem=args.theorem, seed=args.seed, workers=workers, force=args.force, **source)
    summary = run_verify(plan)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(summary_to_text(summary))
    return 0 if summary["ok"] else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="rankweight", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("analyze", help="rank support, restriction, dual, closure, flags")
    p.add_argument("file")
    add_format(p)

    p = sub.add_parser("weights", help="rank distance and the four generalized weights")
    p.add_argument("file")
    p.add_argument("--r", type=int, default=None, help="report a single row r")
    p.add_argument("--seed", type=int, default=0, help="seed for the witness search")
    add_format(p)

    p = sub.add_parser("witness", help="find a codeword with the support of the code")
    p.add_argument("file")
    p.add_argument("--strategy", choices=STRATEGIES, default="auto")
    p.add_argument("--seed", type=int, default=0, help="seed for the random search")
    add_format(p)

    p = sub.add_parser("dual", help="emit the dual code as a code document")
    p.add_argument("file")

    p = sub.add_parser("closure", help="emit the generalized closure as a code document")
    p.add_argument("file")

    p = sub.add_parser("verify", help="run theorem verification suites")
    p.add_argument("--char", type=int, default=None, help="tower characteristic (0 for Q)")
    p.add_argument("--base-degree", type=int, default=None)
    p.add_argument("--base-modulus", default=None, help="CSV over GF(p), low to high")
    p.add_argument(
        "--ext-modulus",
        default=None,
        help="CSV over the base, low to high; use --ext-modulus=-2,0,0,1 for a leading minus",
    )
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--theorem", choices=THEOREMS, default="all")
    p.add_argument("--random", type=int, default=None, metavar="COUNT")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true", help="override the resource guards")
    add_format(p)
    return parser


_PARSER = None  # the grammar, built by the first main() call


def main(argv=None) -> int:
    """Run one command and return its exit code; callable any number of times.

    The argument grammar is built by the first call and reused.  Each call
    looks its ``cmd_<command>`` handler up by name, so a handler rebound on
    this module is honoured.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return globals()["cmd_" + args.command](args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InfiniteField as e:
        print(f"inapplicable: {e}", file=sys.stderr)
        return 3
    except (EquivalenceViolation, InternalInvariantError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 2
    except (ParseError, RankWeightError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
