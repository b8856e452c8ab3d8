"""Command-line front end.

Single-case commands emit one JSON object; sweeps emit JSON-lines plus a
CSV summary next to --out.  Identical invocations produce identical bytes
unless --timestamp is given (and even then the timestamp goes to stderr).

Exit codes: 0 success, 1 a VIOLATION verdict, a failed bound or a broken
invariant (InvariantError), 2 invalid flags or configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .cayley import ExactBudgetExceeded, GraphKind, make_graph
from .charsum import epsilon_star, half_circle_points, katz_bound_check, unit_root
from .ff import DEFAULT_CAP, InvariantError, build_field
from .verify import (
    SweepConfig,
    conjecture_r,
    make_case,
    report_lines,
    summary_csv,
    sweep,
    verify_case,
    verify_conjecture_case,
)

ENV_CAP = "CAYLEY_CLIQUE_CAP"


def _resolve_cap(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_CAP)
    if env is None:
        return DEFAULT_CAP
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{ENV_CAP} must be an integer, got {env!r}") from None


# --------------------------------------------------------------------------
# output plumbing

def _text_lines(doc: dict, prefix: str = "") -> list[str]:
    lines: list[str] = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.extend(_text_lines(value, f"{prefix}{key}."))
        elif isinstance(value, (list, tuple)) or value is None:
            lines.append(f"{prefix}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _write(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _emit(doc: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    elif args.format == "text":
        _write("\n".join(_text_lines(doc)) + "\n", args.out)
    else:
        raise ValueError("--format csv is only available for the sweep command")


def _stamp(args: argparse.Namespace) -> None:
    if args.timestamp:
        print(f"# generated {datetime.now(timezone.utc).isoformat()}", file=sys.stderr)


# --------------------------------------------------------------------------
# command handlers

def _cmd_field(args: argparse.Namespace) -> int:
    table = build_field(args.p, args.s, cap=args.cap)
    _emit(table.to_json(), args)
    return 0


def _cmd_graph_info(args: argparse.Namespace) -> int:
    table = build_field(args.p, args.s * args.n, cap=args.cap)
    graph = make_graph(table, GraphKind.from_name(args.kind, args.d))
    _emit(graph.to_json(), args)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    case = make_case(args.p, args.s, args.n, args.d, args.kind)
    report = verify_case(case, cap=args.cap, exact_budget=args.exact_budget)
    _emit(report.to_json(), args)
    return 1 if report.verdict == "VIOLATION" else 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    q = args.p**args.s
    r = conjecture_r(q, args.d)
    if r is None:
        # No qualifying subfield: reported, not fatal.
        _emit({"q": q, "d": args.d, "r": None, "verdict": "no_qualifying_r"}, args)
        return 0
    report = verify_conjecture_case(q, args.d, cap=args.cap)
    _emit({"q": q, "d": args.d, "r": r, "report": report.to_json()}, args)
    return 1 if report.verdict == "VIOLATION" else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    kinds = ("paley", "peisert") if args.kind == "both" else (args.kind,)
    config = SweepConfig(
        max_order=args.max_order,
        n_min=args.n_min,
        n_max=args.n_max,
        d_max=args.d_max,
        max_base=args.max_base,
        kinds=kinds,
        workers=args.workers,
        cap=args.cap,
        exact_budget=args.exact_budget,
    )
    reports = sweep(config)
    violations = sum(1 for r in reports if r.verdict == "VIOLATION")
    _stamp(args)
    if args.out is not None:
        args.out.write_text(report_lines(reports))
        csv_path = args.out.with_suffix(".csv")
        csv_path.write_text(summary_csv(reports))
        print(f"{len(reports)} reports -> {args.out} (summary {csv_path}), {violations} violations")
    elif args.format == "csv":
        sys.stdout.write(summary_csv(reports))
    elif args.format == "text":
        for r in reports:
            c = r.case
            size = "" if r.extended_clique_size is None else f" extended={r.extended_clique_size}"
            print(f"p={c.p} s={c.s} n={c.n} d={c.d} kind={c.kind.name} verdict={r.verdict}{size}")
    else:
        sys.stdout.write(report_lines(reports))
    return 1 if violations else 0


def _cmd_katz(args: argparse.Namespace) -> int:
    table = build_field(args.p, args.s * args.n, cap=args.cap)
    report = katz_bound_check(table, args.s, args.d)
    _emit(report.to_json(), args)
    return 0 if report.bound_satisfied else 1


def _cmd_epsilon(args: argparse.Namespace) -> int:
    if args.d < 2 or args.d % 2 != 0:
        raise ValueError(f"--d must be even and >= 2, got {args.d}")
    j = list(range(args.d // 2))
    result = epsilon_star([unit_root(args.d, k) for k in j])
    doc = {
        "d": args.d,
        "J": j,
        "epsilon_star": result.epsilon_star,
        "weights": list(result.weights),
        "paper_bound": math.pi / args.d - math.pi / args.d**2,
        "analytic": math.sin(math.pi / args.d),
    }
    _emit(doc, args)
    return 0


def _cmd_clique_extend(args: argparse.Namespace) -> int:
    table = build_field(args.p, args.s * args.n, cap=args.cap)
    graph = make_graph(table, GraphKind.from_name(args.kind, args.d))
    subfield = table.subfield_elements(args.s)
    report = graph.extend_to_maximal_clique(subfield, args.strategy, args.exact_budget)
    _emit(report.to_json(), args)
    return 0


_HANDLERS = {
    "field": _cmd_field,
    "graph-info": _cmd_graph_info,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
    "sweep": _cmd_sweep,
    "katz": _cmd_katz,
    "epsilon": _cmd_epsilon,
    "clique-extend": _cmd_clique_extend,
}


# --------------------------------------------------------------------------
# parser

def _add_output_flags(sp: argparse.ArgumentParser, formats=("json", "text")) -> None:
    sp.add_argument("--format", choices=formats, default="json", help="output format")
    sp.add_argument("--out", type=Path, default=None, help="write to this path instead of stdout")
    sp.add_argument("--cap", type=int, default=None,
                    help=f"field-size cap (default 2^24; env {ENV_CAP})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-cliques",
        description="Exact Paley/Peisert graph construction and subfield-clique verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="build GF(p^s) and print modulus and generator")
    sp.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    sp.add_argument("--s", type=int, required=True, help="extension degree")
    _add_output_flags(sp)

    def graph_flags(sp: argparse.ArgumentParser, n_required: bool) -> None:
        sp.add_argument("--p", type=int, required=True, help="odd prime characteristic")
        sp.add_argument("--s", type=int, required=True, help="base subfield degree over F_p")
        sp.add_argument("--n", type=int, required=n_required, default=None if n_required else 1,
                        help="extension degree over the base subfield")
        sp.add_argument("--d", type=int, required=True, help="residue-class order")
        sp.add_argument("--kind", choices=("paley", "peisert"), default="paley")

    sp = sub.add_parser("graph-info", help="connection-set parameters of GP/GP* on GF(p^(s*n))")
    graph_flags(sp, n_required=False)
    _add_output_flags(sp)

    sp = sub.add_parser("verify", help="full verdict for one (p, s, n, d, kind) case")
    graph_flags(sp, n_required=True)
    sp.add_argument("--exact-budget", type=int, default=2000,
                    help="max common-neighbor count for exact extension")
    _add_output_flags(sp)

    sp = sub.add_parser("conjecture", help="predicted maximal subfield r for GP(p^s, d), then verify")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    _add_output_flags(sp)

    sp = sub.add_parser("sweep", help="verify every admissible case with q^n <= --max-order")
    sp.add_argument("--max-order", type=int, required=True)
    sp.add_argument("--n-min", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--d-max", type=int, default=None)
    sp.add_argument("--max-base", type=int, default=None, help="only bases q = p^s up to this")
    sp.add_argument("--kind", choices=("paley", "peisert", "both"), default="both")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--exact-budget", type=int, default=2000)
    sp.add_argument("--timestamp", action="store_true", help="log a timestamp line to stderr")
    _add_output_flags(sp, formats=("json", "csv", "text"))

    sp = sub.add_parser("katz", help="character-sum bound over GF(p^(s*n)) with base degree s")
    graph_flags(sp, n_required=True)
    _add_output_flags(sp)

    sp = sub.add_parser("epsilon", help="epsilon* of the half-circle root-of-unity set for even d")
    sp.add_argument("--d", type=int, required=True, help="even residue-class order")
    _add_output_flags(sp)

    sp = sub.add_parser("clique-extend", help="extend the base subfield to a maximal clique")
    graph_flags(sp, n_required=True)
    sp.add_argument("--strategy", choices=("exact", "greedy"), default="exact")
    sp.add_argument("--exact-budget", type=int, default=2000)
    _add_output_flags(sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        args.cap = _resolve_cap(args.cap)
        return _HANDLERS[args.command](args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ExactBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
