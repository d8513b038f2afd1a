"""Command-line surface: expand, coeff, table, verify.

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
from .classify import (Budget, build_s_table, build_shat_table,
                       conjecture_scan, eden_class, shat_bound, window_sweep)
from .closed_form import a_coeff, b_coeff
from .errors import BudgetError, OutputError, UsageError
from .fseries import (F_backsolve, F_direct, NoCorrectionError, correction,
                      eden_series, f1_base_identity_check,
                      one_mod_k_identity_check, recurrence_check, tail_split)
from .oracle import (count_distinct_table, distinct_partitions, eden_count,
                     eden_signed_sum, one_mod_k_signed_sum,
                     signed_distinct_sum, signed_distinct_table)
from .pentagonal import pnt_series
from .series import TruncSeries, pochhammer

_INDEX_RE = re.compile(r"[0-9]+")


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
    p_verify.add_argument("suite", choices=("identities", "oracle", "corrections",
                                            "windows", "conjecture"))
    return parser


def _make_budget(args) -> Budget:
    for flag, value in (("--budget-order", args.budget_order),
                        ("--budget-enum", args.budget_enum)):
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be >= 0, got {value}")
    base = Budget()
    return Budget(
        max_order=args.budget_order if args.budget_order is not None else base.max_order,
        max_digits=base.max_digits,
        max_enum=args.budget_enum if args.budget_enum is not None else base.max_enum)


def _emit(args, header_args, data, rows, out_stream) -> None:
    """rows: tsv lines as tuples of one length, each cell printed by str();
    data: json payload."""
    if args.format == "json":
        doc = {"meta": {"command": args.command,
                        "args": [str(a) for a in header_args],
                        "version": __version__},
               "data": data}
        out_stream.write(json.dumps(doc) + "\n")
    else:
        head = " ".join(str(a) for a in header_args)
        out_stream.write(f"# {args.command} {head} {__version__}\n")
        if rows:
            line = "\t".join(["%s"] * len(rows[0])) + "\n"
            out_stream.write("".join([line % row for row in rows]))


def _resolve_order(args, tail_params) -> int:
    if tail_params:
        if args.order is not None and args.order != tail_params[0]:
            raise UsageError(f"conflicting orders: {tail_params[0]} positionally "
                             f"and {args.order} via --order")
        return tail_params[0]
    if args.order is not None:
        return args.order
    raise UsageError("no truncation order given (positionally or via --order)")


def _cmd_expand(args, budget, out_stream) -> int:
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
        series = pnt_series(order)
    elif args.target == "q2inf":
        series = pochhammer(2, 1, None, order)
    elif args.target == "q3inf":
        series = pochhammer(3, 1, None, order)
    elif args.target == "poch":
        if idx < 0:
            raise UsageError(f"poch index must be >= 0, got {idx}")
        series = pochhammer(1, 1, idx, order)
    else:
        series = F_backsolve(idx, order)

    header = [args.target] + ([idx] if idx is not None else []) + [order]
    pairs = series.nonzero_items()
    data = None
    if args.format == "json":
        data = {"order": order, "coefficients": [[e, c] for e, c in pairs]}
    _emit(args, header, data, pairs, out_stream)
    return 0


def _cmd_coeff(args, budget, out_stream) -> int:
    if not _INDEX_RE.fullmatch(args.index):
        raise UsageError(f"index must be a decimal numeral, got {args.index!r}")
    # int() of the index and str() of the answer raise past the interpreter's
    # int/str conversion limit (0 there means none)
    convertible = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    limit = min(budget.max_digits, convertible) if convertible else budget.max_digits
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
    _emit(args, [args.which, args.index], data, rows, out_stream)
    return 0


def _cmd_table(args, budget, out_stream) -> int:
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
    _emit(args, [args.kind, args.limit], data, rows, out_stream)
    return 0


def _check(name, ok, detail="") -> tuple:
    return (name, "pass" if ok else "fail", detail)


def _suite_identities(budget) -> list:
    # the largest order built below: the tail splits at 500 (the base
    # identity at M = 30 reaches 496, the recurrences 143)
    budget.require_order(500, "verify identities")
    checks = []
    ok = all(recurrence_check(k, M) for k in range(1, 5) for M in (1, 3, 7, 12))
    checks.append(_check("finite-recurrence k<=4 M<=12", ok))
    ok = all(one_mod_k_identity_check(k, M) for k in range(1, 5) for M in (0, 2, 5, 8))
    checks.append(_check("one-mod-k-sum k<=4 M<=8", ok))
    ok = all(f1_base_identity_check(M) for M in (0, 10, 30))
    checks.append(_check("base-identity M<=30", ok))
    ok = all(F_backsolve(k, 300) == F_direct(k, None, 300) for k in range(1, 7))
    checks.append(_check("backsolve-vs-direct k<=6 N=300", ok))
    ok = True
    for k in range(2, 7):
        split = tail_split(k, 500)
        ok = ok and split.reconstruct(500) == F_direct(k, None, 500)
    checks.append(_check("tail-split-reconstruct k<=6 N=500", ok))
    return checks


def _suite_oracle(budget) -> list:
    # fixed sizes, order 300 and enumerations to n = 40 (the Eden sums): a
    # smaller budget is refused before any work, never shrinks a check under
    # its name
    budget.require_order(300, "verify oracle")
    limit = budget.max_enum
    if 40 > limit:
        raise BudgetError(f"verify oracle needs enumeration to n=40 > budget {limit}")
    checks = []
    ok = True
    for mp in (1, 2, 3):
        table = signed_distinct_table(36, mp)
        ok = ok and all(signed_distinct_sum(n, mp, limit) == table[n]
                        for n in range(37))
    checks.append(_check("signed-enum-vs-table n<=36", ok))

    ok = (signed_distinct_table(300, 1) == pnt_series(300).coeffs
          and signed_distinct_table(300, 2) == pochhammer(2, 1, None, 300).coeffs
          and signed_distinct_table(300, 3) == pochhammer(3, 1, None, 300).coeffs)
    checks.append(_check("signed-table-vs-products n<=300", ok))

    ok = eden_count(2, 2, 2, limit) == 1
    for k in (1, 2, 3):
        ref = eden_series(k, 40)
        ok = ok and all(eden_signed_sum(k, n, limit) == ref.coeff(n)
                        for n in range(1, 41))
    checks.append(_check("eden-signed-vs-series k<=3 n<=40", ok))

    ok = True
    for k in (1, 2, 3):
        for M in (0, 2, 5):
            l_max = k * M + 1
            rhs = TruncSeries.one(30) - pochhammer(1, k, M + 1, 30)
            ok = ok and all(one_mod_k_signed_sum(k, n, l_max, limit) == rhs.coeff(n)
                            for n in range(31))
    checks.append(_check("one-mod-k-enum-vs-poly k<=3 M<=5", ok))

    counts = count_distinct_table(30)
    ok = all(sum(1 for _ in distinct_partitions(n)) == counts[n]
             for n in range(31))
    checks.append(_check("enumeration-exhaustive n<=30", ok))
    return checks


def _suite_corrections(budget) -> list:
    corrected = {k: max(shat_bound(k), 500) for k in (1, 2, 3, 4, 6)}
    uncorrectable = (5, 7, 8, 9, 10, 11, 12)
    budget.require_order(max(*corrected.values(), *map(shat_bound, uncorrectable)),
                         "verify corrections")
    checks = []
    for k, horizon in corrected.items():
        corr = correction(k).poly
        diff = F_direct(k, None, horizon) - TruncSeries(list(corr.coeffs), horizon)
        checks.append(_check(f"correction k={k} BP-to-{horizon}",
                             diff.is_bloch_polya()))
    for k in uncorrectable:
        try:
            correction(k)
            checks.append(_check(f"correction k={k} none-exists", False,
                                 "a correction was returned"))
            continue
        except NoCorrectionError:
            pass
        record = eden_class(k, budget)
        checks.append(_check(f"correction k={k} none-exists", record.h >= 2,
                             f"max |coeff| {record.h} at q^{record.witness}"))
    return checks


def _suite_windows(budget) -> list:
    checks = []
    records = window_sweep(22, 200, budget)
    ok = all(r.ok for r in records if r.m <= 69 and r.m != 42)
    checks.append(_check("window 22<=m<=69 in [2,12]", ok))
    checks.append(_check("window m=42 value 2 at q^51", records[42 - 22].ok))
    upper = [r for r in records if r.m > 69]
    checks.append(_check("window 69<m<=200 in [2,6]", all(r.ok for r in upper)))

    b69 = b_coeff(69).value
    pnt = pnt_series(469)
    ok = all(r.value == pnt.coeff(r.exponent) + a_coeff(r.m + 69).value + b69
             for r in upper)
    checks.append(_check("three-term-window 69<m<=200", ok))
    return checks


def _suite_conjecture(budget) -> list:
    report = conjecture_scan(8, budget=budget)
    checks = [_check("scan-label EMPIRICAL", report.label == "EMPIRICAL")]
    for name, value in (("rows-singleton h>16", report.singleton_above_16),
                        ("members-increasing h>16", report.increasing_above_16),
                        ("union-consecutive h>5", report.consecutive_union_above_5)):
        if value is None:
            checks.append(_check(name, True, "vacuous: no counterexample, no evidence"))
        else:
            checks.append(_check(name, value))
    union = report.union
    consec = union == tuple(range(len(union)))
    checks.append(_check("union-through-8", consec,
                         f"{{0..{len(union) - 1}}}" if consec else str(union)))
    return checks


_SUITES = {
    "identities": _suite_identities,
    "oracle": _suite_oracle,
    "corrections": _suite_corrections,
    "windows": _suite_windows,
    "conjecture": _suite_conjecture,
}


def _cmd_verify(args, budget, out_stream) -> int:
    checks = _SUITES[args.suite](budget)
    data = [{"check": name, "result": result, "detail": detail}
            for name, result, detail in checks]
    _emit(args, [args.suite], data, checks, out_stream)
    return 0 if all(result == "pass" for _name, result, _d in checks) else 1


class _OutFile:
    """The --out file as a handler sees it: an OSError from write() becomes
    OutputError, so one raised by the computation itself still passes
    through unchanged."""

    def __init__(self, fh, path):
        self._fh = fh
        self._path = path

    def write(self, text):
        try:
            return self._fh.write(text)
        except OSError as exc:
            raise _output_error(self._path, exc) from exc


def _output_error(path, exc) -> OutputError:
    return OutputError(f"cannot write {path}: {exc.strerror or exc}")


def _write_out(path, write) -> int:
    """Run write(fh) against the --out target.

    A regular file (or a path not there yet) is written as a fresh file
    beside the symlink-resolved target, given the old file's mode and moved
    onto it only when write returns, so an error leaves neither a partial
    file nor the temporary one.  A pipe or device such as /dev/stdout cannot
    be replaced and is written in place.  Only errors of the file itself
    (open, write, close, mode, replace) become OutputError.
    """
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = path if in_place else os.path.realpath(path)
    tmp = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w" if in_place else "x", encoding="utf-8")
    except OSError as exc:
        raise _output_error(path, exc) from exc
    try:
        code = write(_OutFile(fh, path))
        try:
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
        if args.out is not None:
            return _write_out(args.out, lambda fh: handler(args, budget, fh))
        return handler(args, budget, sys.stdout)
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
