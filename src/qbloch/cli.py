"""Command-line surface: expand, coeff, table, verify.

The verify suites and their checks live in qbloch.verify; this module parses
arguments, applies budgets and formats the results.  Each _cmd_* handler
returns (exit code, header args, json data, tsv rows) and writes nothing;
main renders that and writes the text once.

Output is deterministic and machine-readable.  TSV starts with a header line
"# <command> <args> <version>"; JSON is one object {"meta": ..., "data": ...}.
Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error,
3 resource budget exceeded, 4 the --out file could not be written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import sys

from . import __version__
from .classify import Budget, build_s_table, build_shat_table
from .closed_form import a_coeff, b_coeff
from .errors import BudgetError, OutputError, UsageError
from .fseries import F_backsolve
from .pentagonal import pnt_terms
from .series import pochhammer
from .verify import SUITES

_INDEX_RE = re.compile(r"[0-9]+")
#: The most decimal digits a coeff index may have.
_MAX_DIGITS = 10_000


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=int, default=None,
                        help="truncation order when not given positionally")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility and validated (>= 1), "
                             "otherwise ignored: every command runs in one process")
    common.add_argument("--format", choices=("tsv", "json"), default="tsv",
                        help="output format (default tsv)")
    common.add_argument("--budget-order", type=int, default=None,
                        help="max truncation order the run may use")
    common.add_argument("--budget-enum", type=int, default=None,
                        help="max n the brute-force enumerations may visit")
    common.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="qbloch",
        description="Exact expansion, classification and coefficient queries "
                    "for pentagonal-structured q-series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", parents=[common],
                              help="print nonzero coefficients of a series")
    p_expand.add_argument("target", choices=("pnt", "q2inf", "q3inf", "poch", "f"))
    p_expand.add_argument("params", nargs="*", type=int,
                          help="poch/f take an index first; last value is the "
                               "order unless --order is used")

    p_coeff = sub.add_parser("coeff", parents=[common],
                             help="closed-form coefficient at an arbitrary index")
    p_coeff.add_argument("which", choices=("a", "b"))
    p_coeff.add_argument("index", help="non-negative decimal numeral, any length")

    p_table = sub.add_parser("table", parents=[common],
                             help="max-coefficient classification tables")
    p_table.add_argument("kind", choices=("S", "Shat"))
    p_table.add_argument("limit", type=int)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite; exit 1 on failure")
    p_verify.add_argument("suite", choices=tuple(SUITES))
    return parser


def _make_budget(args) -> Budget:
    for flag, value in (("--budget-order", args.budget_order),
                        ("--budget-enum", args.budget_enum)):
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be >= 0, got {value}")
    base = Budget()
    return Budget(
        max_order=args.budget_order if args.budget_order is not None else base.max_order,
        max_enum=args.budget_enum if args.budget_enum is not None else base.max_enum)


def _render(args, header_args, data, rows) -> str:
    """The command's output text.  rows: tsv lines as tuples of one length,
    each cell printed by str(); data: json payload."""
    if args.format == "json":
        doc = {"meta": {"command": args.command,
                        "args": [str(a) for a in header_args],
                        "version": __version__},
               "data": data}
        return json.dumps(doc) + "\n"
    head = " ".join(str(a) for a in header_args)
    text = [f"# {args.command} {head} {__version__}\n"]
    if rows:
        line = "\t".join(["%s"] * len(rows[0])) + "\n"
        text += [line % row for row in rows]
    return "".join(text)


def _resolve_order(args, tail_params) -> int:
    if tail_params:
        if args.order is not None and args.order != tail_params[0]:
            raise UsageError(f"conflicting orders: {tail_params[0]} positionally "
                             f"and {args.order} via --order")
        return tail_params[0]
    if args.order is not None:
        return args.order
    raise UsageError("no truncation order given (positionally or via --order)")


def _cmd_expand(args, budget) -> tuple:
    params = list(args.params)
    if args.target in ("poch", "f"):
        if not params:
            raise UsageError(f"target {args.target!r} needs an index parameter")
        idx, params = params[0], params[1:]
    else:
        idx = None
    if len(params) > 1:
        raise UsageError(f"too many positional values: {params}")
    order = _resolve_order(args, params)
    if order < 0:
        raise UsageError(f"order must be >= 0, got {order}")
    budget.require_order(order, f"expand {args.target}")

    if args.target == "pnt":
        pairs = pnt_terms(order)
    elif args.target == "q2inf":
        pairs = pochhammer(2, 1, None, order).nonzero_items()
    elif args.target == "q3inf":
        pairs = pochhammer(3, 1, None, order).nonzero_items()
    elif args.target == "poch":
        if idx < 0:
            raise UsageError(f"poch index must be >= 0, got {idx}")
        pairs = pochhammer(1, 1, idx, order).nonzero_items()
    else:
        pairs = F_backsolve(idx, order).nonzero_items()

    header = [args.target] + ([idx] if idx is not None else []) + [order]
    # tuples encode as JSON arrays
    return 0, header, {"order": order, "coefficients": pairs}, pairs


def _cmd_coeff(args, budget) -> tuple:
    if not _INDEX_RE.fullmatch(args.index):
        raise UsageError(f"index must be a decimal numeral, got {args.index!r}")
    # int() of the index and str() of the answer raise past the interpreter's
    # int/str conversion limit (0 there means none)
    convertible = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    limit = min(_MAX_DIGITS, convertible) if convertible else _MAX_DIGITS
    if len(args.index) > limit:
        raise BudgetError(f"index has {len(args.index)} digits, at most {limit} "
                          "are allowed (the digit budget or the interpreter's "
                          "int conversion limit, whichever is lower)")
    n = int(args.index)
    answer = a_coeff(n) if args.which == "a" else b_coeff(n)
    block = answer.block
    # 10^L > 2^(3L): a bound of at most 3L bits has fewer than L+1 digits
    if (convertible and block.upper.bit_length() > 3 * convertible
            and block.upper >= 10 ** convertible):
        raise BudgetError(f"the block holding the index ends past {convertible} "
                          "digits, the interpreter's int conversion limit")
    data = {"index": n, "value": answer.value, "case": answer.case_tag,
            "block": {"n": block.n, "family": block.family,
                      "lower": block.lower, "upper": block.upper,
                      "upper_closed": block.upper_closed}}
    rows = [(answer.value, answer.case_tag, block.n, block.family,
             block.lower, block.upper)]
    return 0, [args.which, args.index], data, rows


def _cmd_table(args, budget) -> tuple:
    if args.limit < 1:
        raise UsageError(f"limit must be >= 1, got {args.limit}")
    if args.kind == "S":
        table = build_s_table(args.limit, budget=budget)
    else:
        table = build_shat_table(args.limit, budget=budget)
    rows = [(h, ",".join(str(m) for m in members), cutoff)
            for h, (members, cutoff) in sorted(table.rows.items())]
    data = {"kind": table.kind, "horizon": table.horizon,
            "rows": [{"h": h, "members": list(members), "cutoff": cutoff}
                     for h, (members, cutoff) in sorted(table.rows.items())]}
    return 0, [args.kind, args.limit], data, rows


def _cmd_verify(args, budget) -> tuple:
    rows = [(name, "pass" if passed else "fail", detail)
            for name, passed, detail in SUITES[args.suite](budget)]
    data = [{"check": name, "result": result, "detail": detail}
            for name, result, detail in rows]
    code = 0 if all(result == "pass" for _name, result, _detail in rows) else 1
    return code, [args.suite], data, rows


def _output_error(path, exc) -> OutputError:
    return OutputError(f"cannot write {path}: {exc.strerror or exc}")


def _write_out(path, run) -> int:
    """Run run(), which returns (code, text), and write text to the --out
    target.

    The target is opened before run() starts, so one that cannot be
    written fails before any work, and nothing is written until run() has
    returned, so only errors of the file itself (open, write, close, mode,
    replace) become OutputError.  A regular file (or a path not there yet)
    is written as a fresh file beside the symlink-resolved target, given
    the old file's mode and moved onto it only when the text is written,
    so an error leaves neither a partial file nor the temporary one.  A
    pipe or device such as /dev/stdout cannot be replaced and is written in
    place.
    """
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = path if in_place else os.path.realpath(path)
    tmp = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w" if in_place else "x", encoding="utf-8")
    except OSError as exc:
        raise _output_error(path, exc) from exc
    try:
        code, text = run()
        try:
            fh.write(text)
            fh.close()
            if not in_place:
                if os.path.isfile(target):
                    shutil.copymode(target, tmp)
                os.replace(tmp, target)
        except OSError as exc:
            raise _output_error(path, exc) from exc
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        if not in_place:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        budget = _make_budget(args)
        if args.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        handler = {"expand": _cmd_expand, "coeff": _cmd_coeff,
                   "table": _cmd_table, "verify": _cmd_verify}[args.command]

        def run():
            code, header_args, data, rows = handler(args, budget)
            return code, _render(args, header_args, data, rows)

        if args.out is not None:
            return _write_out(args.out, run)
        code, text = run()
        sys.stdout.write(text)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
