"""The verify suites: the paper's results checked along independent paths.

Each suite takes a Budget and returns its checks in order as plain (name,
passed, detail) tuples, passed a bool; the CLI only formats them.  A suite
refuses a budget below its fixed sizes before any work and never shrinks a
check under its name.  SUITES is the one list of suites, in CLI order.

A suite reads each series from its builder (fseries.F_backsolve, not the
defining sum).  The reference sum fseries.F_direct appears only in
checks that compare a builder with it, all of them in the identities suite.

Library functions are called through their modules (fseries.F_direct), never
from-imported: the layer tracer in perfbench/tracing.py replaces functions
only in the traced layers' namespaces and the package's, so a from-import
here would hide these calls from the per-layer metrics.
"""

from __future__ import annotations

from . import classify, closed_form, fseries, oracle, pentagonal, series
from .errors import BudgetError


def _suite_identities(budget) -> list:
    # the largest order built below: the tail splits at 500 (the base
    # identity at M = 30 reaches 496, the recurrences 143)
    budget.require_order(500, "verify identities")
    checks = []
    ok = all(fseries.recurrence_check(k, M) for k in range(1, 5) for M in (1, 3, 7, 12))
    checks.append(("finite-recurrence k<=4 M<=12", ok, ""))
    ok = all(fseries.one_mod_k_identity_check(k, M)
             for k in range(1, 5) for M in (0, 2, 5, 8))
    checks.append(("one-mod-k-sum k<=4 M<=8", ok, ""))
    ok = all(fseries.f1_base_identity_check(M) for M in (0, 10, 30))
    checks.append(("base-identity M<=30", ok, ""))
    # one reference sum per k: below q^301 the order-500 sum is the order-300
    # one, as its terms past q^300 add nothing there
    direct = {k: fseries.F_direct(k, None, 500) for k in range(2, 7)}
    ok = (fseries.F_backsolve(1, 300) == fseries.F_direct(1, None, 300)
          and all(fseries.F_backsolve(k, 300).coeffs == direct[k].coeffs[:301]
                  for k in range(2, 7)))
    checks.append(("backsolve-vs-direct k<=6 N=300", ok, ""))
    ok = all(fseries.tail_split(k, 500).reconstruct(500) == direct[k]
             for k in range(2, 7))
    checks.append(("tail-split-reconstruct k<=6 N=500", ok, ""))
    return checks


def _suite_oracle(budget) -> list:
    # fixed sizes, order 300 and enumerations to n = 40 (the Eden sums)
    budget.require_order(300, "verify oracle")
    limit = budget.max_enum
    if 40 > limit:
        raise BudgetError(f"verify oracle needs enumeration to n=40 > budget {limit}")
    checks = []
    mps = (1, 2, 3)
    ok = all(oracle.signed_distinct_sums(36, mp, limit) == table
             for mp, table in zip(mps, oracle.signed_distinct_tables(36, mps)))
    checks.append(("signed-enum-vs-table n<=36", ok, ""))

    t1, t2, t3 = oracle.signed_distinct_tables(300, mps)
    ok = (t1 == pentagonal.pnt_series(300).coeffs
          and t2 == series.pochhammer(2, 1, None, 300).coeffs
          and t3 == series.pochhammer(3, 1, None, 300).coeffs)
    checks.append(("signed-table-vs-products n<=300", ok, ""))

    ok = oracle.eden_count(2, 2, 2, limit) == 1
    for k in (1, 2, 3):
        ok = ok and (oracle.eden_signed_sums(k, 40, limit)[1:]
                     == fseries.eden_series(k, 40).coeffs[1:])
    checks.append(("eden-signed-vs-series k<=3 n<=40", ok, ""))

    ok = True
    for k in (1, 2, 3):
        for M in (0, 2, 5):
            rhs = series.TruncSeries.one(30) - series.pochhammer(1, k, M + 1, 30)
            ok = ok and (oracle.one_mod_k_signed_sums(k, 30, k * M + 1, limit)
                         == rhs.coeffs)
    checks.append(("one-mod-k-enum-vs-poly k<=3 M<=5", ok, ""))

    counts = oracle.count_distinct_table(30)
    ok = all(sum(1 for _ in oracle.distinct_partitions(n)) == counts[n]
             for n in range(31))
    checks.append(("enumeration-exhaustive n<=30", ok, ""))
    return checks


def _suite_corrections(budget) -> list:
    corrected = {k: max(classify.shat_bound(k), 500) for k in (1, 2, 3, 4, 6)}
    uncorrectable = (5, 7, 8, 9, 10, 11, 12)
    budget.require_order(max(*corrected.values(),
                             *map(classify.shat_bound, uncorrectable)),
                         "verify corrections")
    checks = []
    for k, horizon in corrected.items():
        # F_k from its builder, F_backsolve; tests/test_fseries.py
        # test_backsolve_matches_direct ties it to F_direct at these orders
        corr = fseries.correction(k).poly
        diff = (fseries.F_backsolve(k, horizon)
                - series.TruncSeries(corr.coeffs, horizon))
        checks.append((f"correction k={k} BP-to-{horizon}", diff.is_bloch_polya(), ""))
    for k in uncorrectable:
        try:
            fseries.correction(k)
            checks.append((f"correction k={k} none-exists", False,
                           "a correction was returned"))
            continue
        except fseries.NoCorrectionError:
            pass
        record = classify.eden_class(k, budget)
        checks.append((f"correction k={k} none-exists", record.h >= 2,
                       f"max |coeff| {record.h} at q^{record.witness}"))
    return checks


def _suite_windows(budget) -> list:
    checks = []
    records = classify.window_sweep(22, 200, budget)
    ok = all(r.ok for r in records if r.m <= 69 and r.m != 42)
    checks.append(("window 22<=m<=69 in [2,12]", ok, ""))
    checks.append(("window m=42 value 2 at q^51", records[42 - 22].ok, ""))
    upper = [r for r in records if r.m > 69]
    checks.append(("window 69<m<=200 in [2,6]", all(r.ok for r in upper), ""))

    b69 = closed_form.b_coeff(69).value
    pnt = pentagonal.pnt_series(469)
    ok = all(r.value == pnt.coeff(r.exponent)
             + closed_form.a_coeff(r.m + 69).value + b69 for r in upper)
    checks.append(("three-term-window 69<m<=200", ok, ""))
    return checks


def _suite_conjecture(budget) -> list:
    report = classify.conjecture_scan(8, budget=budget)
    checks = [("scan-label EMPIRICAL", report.label == "EMPIRICAL", "")]
    for name, value in (("rows-singleton h>16", report.singleton_above_16),
                        ("members-increasing h>16", report.increasing_above_16),
                        ("union-consecutive h>5", report.consecutive_union_above_5)):
        if value is None:
            checks.append((name, True, "vacuous: no counterexample, no evidence"))
        else:
            checks.append((name, value, ""))
    union = report.union
    consec = union == tuple(range(len(union)))
    checks.append(("union-through-8", consec,
                   f"{{0..{len(union) - 1}}}" if consec else str(union)))
    return checks


SUITES = {
    "identities": _suite_identities,
    "oracle": _suite_oracle,
    "corrections": _suite_corrections,
    "windows": _suite_windows,
    "conjecture": _suite_conjecture,
}
