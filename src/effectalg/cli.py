"""The `ea` command-line front end.

stdout carries exactly one JSON document per run, for every exit code; all
human-readable text goes to stderr.  Exit codes: 0 success, 1 a check or
verification failed, 2 malformed input, 3 cap or node budget exceeded.
Identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .algebra import atoms, has_obstruction_atom, load_algebra, make_simplicial
from .errors import CapExceeded, InvalidTableAlgebra, NodeBudgetExceeded, count_text
from .maps import DEFAULT_MATRIX_CAP, count_subunital, enumerate_subunital
from .operations import (
    Operation,
    check_axioms,
    meet_boolean,
    op_from_json,
    sigma_universal,
    tau_perm,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_OP_CAP,
    SearchResult,
    count_s1s2,
    enumerate_s1s2,
    enumerate_s1sk,
)
from .verify import run_suite


class _Parser(argparse.ArgumentParser):
    """argparse that never writes anything but JSON to stdout."""

    def error(self, message):
        print(json.dumps({"error": "malformed_input", "message": message}))
        self.print_usage(sys.stderr)
        raise SystemExit(2)

    def print_help(self, file=None):
        super().print_help(file or sys.stderr)


def _shape(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated integer list"
        ) from None
    return parts


def non_negative_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=non_negative_int, default=argparse.SUPPRESS,
                        help="worker cap; accepted for compatibility, compute is "
                             "single-threaded and output is identical regardless")
    common.add_argument("--node-budget", type=non_negative_int, dest="node_budget",
                        default=argparse.SUPPRESS,
                        help="search node budget (default 10^7)")

    parser = _Parser(prog="ea", description="finite effect-algebra workbench")
    parser.add_argument("--threads", type=non_negative_int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--node-budget", type=non_negative_int, dest="node_budget",
                        default=DEFAULT_NODE_BUDGET, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="subcommand")

    p = sub.add_parser("algebra", parents=[common],
                       help="describe an algebra: elements, atoms, obstruction flag")
    p.add_argument("--u", type=_shape, help="box shape, comma-separated")
    p.add_argument("--file", help="algebra JSON file (validated on load)")
    p.add_argument("--json", action="store_true", help="include the element list")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("matrices", parents=[common],
                       help="count or list (u,v)-subunital matrices")
    p.add_argument("--u", type=_shape, required=True)
    p.add_argument("--v", type=_shape)
    p.add_argument("--count-only", action="store_true", dest="count_only")
    p.add_argument("--cap", type=non_negative_int, default=DEFAULT_MATRIX_CAP)
    p.set_defaults(func=cmd_matrices)

    p = sub.add_parser("count", parents=[common],
                       help="count operations by closed formula")
    p.add_argument("--u", type=_shape, required=True)
    p.add_argument("--axioms", required=True, choices=["s1s2"])
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", parents=[common],
                       help="enumerate operations passing an axiom prefix")
    p.add_argument("--u", type=_shape, required=True)
    p.add_argument("--axioms", required=True,
                   choices=["s1s2", "s1s3", "s1s4", "s1s5"])
    p.add_argument("--count-only", action="store_true", dest="count_only")
    p.add_argument("--cap", type=non_negative_int, default=DEFAULT_OP_CAP)
    p.add_argument("--out", help="also write the result JSON to this path")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check", parents=[common],
                       help="check an operation against axioms S1..S<upto>")
    p.add_argument("--algebra", dest="algebra_path", help="algebra JSON file")
    p.add_argument("--u", type=_shape, help="box shape")
    p.add_argument("--op", required=True,
                   help="operation JSON file, or sigma | meet | tau:<perm>")
    p.add_argument("--upto", type=int, required=True, choices=[1, 2, 3, 4, 5])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", parents=[common],
                       help="run the built-in reference-result suite")
    p.add_argument("--suite", required=True, choices=["paper"])
    p.add_argument("--json", action="store_true", help="include per-row results")
    p.set_defaults(func=cmd_verify)

    return parser


def _load_cli_algebra(args):
    if (args.u is None) == (args.file is None):
        raise ValueError("give exactly one of --u or --file")
    if args.u is not None:
        return make_simplicial(args.u)
    return load_algebra(args.file)


def cmd_algebra(args) -> int:
    alg = _load_cli_algebra(args)
    recs = atoms(alg)
    out = {
        "algebra": alg.to_json(),
        "size": alg.size,
        "atoms": [{"atom": alg.element_json(rec.atom), "ord": rec.ord} for rec in recs],
        "obstruction": has_obstruction_atom(alg),
        "valid": True,
    }
    if args.json:
        out["elements"] = list(map(alg.element_json, alg.elements()))
    _note(f"{alg.noun} with {alg.size} elements, {len(recs)} atoms, obstruction atom "
          + ("present" if out["obstruction"] else "absent"))
    _emit(out)
    return 0


def cmd_matrices(args) -> int:
    u = args.u
    v = args.v if args.v is not None else u
    total = count_subunital(u, v)
    out = {"u": list(u), "v": list(v), "count": str(total)}
    if not args.count_only:
        out["matrices"] = [M.to_json() for M in enumerate_subunital(u, v, cap=args.cap)]
    _note(f"{total} subunital matrices for u={list(u)}, v={list(v)}")
    _emit(out)
    return 0


def cmd_count(args) -> int:
    total = count_text(count_s1s2(args.u))
    _note(f"{total} operations satisfying S1+S2 on the box {list(args.u)}")
    _emit({
        "u": list(args.u),
        "axioms": "s1s2",
        "count": total,
        "certificate": "formula",
    })
    return 0


def cmd_enumerate(args) -> int:
    u = args.u
    if args.axioms == "s1s2":
        if args.count_only:
            res = SearchResult(u=u, k=2, count=count_s1s2(u),
                               certificate="formula", operations=None)
        else:
            ops = list(enumerate_s1s2(u, cap=args.cap))
            res = SearchResult(u=u, k=2, count=len(ops),
                               certificate="exhaustive", operations=ops)
    else:
        k = int(args.axioms[-1])
        cap = 0 if args.count_only else args.cap
        res = enumerate_s1sk(u, k, cap=cap, node_budget=args.node_budget)
        if args.count_only:
            res = res._replace(operations=None)
    payload = res.to_json()
    text = json.dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    _note(f"{res.count} operations passing {args.axioms} on {list(u)} "
          f"({res.certificate})")
    print(text)
    return 0


def _resolve_operation(args) -> Operation:
    base = None
    if args.algebra_path is not None and args.u is not None:
        raise ValueError("give at most one of --algebra and --u")
    if args.algebra_path is not None:
        base = load_algebra(args.algebra_path)
    elif args.u is not None:
        base = make_simplicial(args.u)

    name = args.op
    if name == "sigma" or name == "meet" or name.startswith("tau:"):
        if base is None:
            raise ValueError(f"the named operation {name!r} needs --algebra or --u")
        # each constructor refuses an operation that is not defined on base
        # (ValueError) before a box over the sum-table limit (CapExceeded)
        if name == "sigma":
            return sigma_universal(base)
        if name == "meet":
            return meet_boolean(base)
        perm = tuple(int(p) for p in name.split(":", 1)[1].split(","))
        return tau_perm(base, perm)

    with open(name, "r", encoding="utf-8") as fh:
        op = op_from_json(json.load(fh))
    if base is not None and op.algebra.to_json() != base.to_json():
        raise ValueError("the operation file's algebra disagrees with --algebra/--u")
    return op


def cmd_check(args) -> int:
    op = _resolve_operation(args)
    rep = check_axioms(op, args.upto)
    for axiom in sorted(rep.results):
        w = rep.results[axiom]
        _note(f"{axiom.upper()}: " + ("PASS" if w is None else f"FAIL at {w}"))
    _emit(rep.to_json())
    return 0 if rep.all_pass else 1


def cmd_verify(args) -> int:
    report = run_suite(node_budget=args.node_budget)
    width = max(len(r.name) for r in report.rows)
    for r in report.rows:
        _note(f"[{r.status:<9}] C{r.criterion:>2} {r.name:<{width}}  "
              f"expected: {r.expected}  actual: {r.actual}")
    tally = report.tally()
    _note(f"{tally['passed']} passed, {tally['failed']} failed, "
          f"{tally['undecided']} undecided")
    payload = report.to_json()
    if not args.json:
        payload.pop("rows")
    _emit(payload)
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except CapExceeded as exc:
        out = {"error": "cap_exceeded"}
        if exc.count is not None:
            out["count"] = str(exc.count)
        _emit(out)
        _note(str(exc))
        return 3
    except NodeBudgetExceeded as exc:
        out = {"error": "node_budget_exceeded"}
        if exc.nodes is not None:
            out["nodes"] = exc.nodes
        _emit(out)
        _note(str(exc))
        return 3
    except InvalidTableAlgebra as exc:
        _emit({"error": "invalid_algebra", "report": exc.report.to_json()})
        _note(str(exc))
        return 1
    # json.load recurses once per nesting level, so a deeply nested file
    # raises RecursionError; the library's own recursion is shallow
    except (ValueError, KeyError, OSError, json.JSONDecodeError, RecursionError) as exc:
        _emit({"error": "malformed_input", "message": str(exc)})
        _note(str(exc))
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
