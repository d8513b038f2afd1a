"""Max-coefficient classification for (q;q)_m and F_k.

S_h collects the m with max |coefficient of (q;q)_m| equal to h; every m past
the cut-off (h+2)(6h+17) provably exceeds h, so a finite sweep settles each
row.  Shat_h does the same for F_k, scanned up to the sufficient bound
(k-1)(3k^3-3k^2+10k-8)/8.  The window checks certify the inequalities that
make the S cut-offs work, and conjecture_scan reports (empirically, never as
proof) on the observed shape of the S_h rows.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field

from .errors import BudgetError, UsageError
from .fseries import F_backsolve
from .pentagonal import p1
from .series import TruncSeries, _mul_one_minus, pochhammer


@dataclass(frozen=True)
class Budget:
    """Hard resource limits; exceeding one raises BudgetError, never truncates.

    max_order caps any truncation order or full polynomial degree; max_digits
    caps the decimal length of coefficient-query indices; max_enum and
    max_enum_eden cap the brute-force enumeration weights.
    """

    max_order: int = 250_000
    max_digits: int = 10_000
    max_enum: int = 300
    max_enum_eden: int = 100


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class ClassRecord:
    """Where one subject lands: h is its max absolute coefficient, witness the
    smallest exponent attaining h, bound_used the last exponent examined."""

    kind: str  # 'poch' for (q;q)_m, 'eden' for F_k
    index: int
    h: int
    witness: int
    bound_used: int


@dataclass(frozen=True)
class HTable:
    """Rows h -> (members, cutoff).  kind 'S' classifies (q;q)_m with the
    window cut-offs; kind 'Shat' classifies F_k with the scan horizon K
    standing in as every row's cutoff.  horizon is the last subject index
    the sweep examined."""

    kind: str
    rows: dict = field(default_factory=dict)
    horizon: int = 0

    def members(self, h: int):
        return self.rows[h][0] if h in self.rows else ()


def s_cutoff(h: int) -> int:
    """Past this m, max |coeff of (q;q)_m| > h.  Equals p1(2h+5) - 1."""
    if h < 1:
        raise UsageError(f"h must be >= 1, got {h}")
    return (h + 2) * (6 * h + 17)


def shat_bound(k: int) -> int:
    """Scanning F_k to this exponent suffices to classify it: the bound
    covers the head polynomial and one full shifted copy of (q;q)_{k-1},
    which is what the tail repeats.  Equals p1(k(k-1)/2 + 1) - k."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    return (k - 1) * (3 * k ** 3 - 3 * k ** 2 + 10 * k - 8) // 8


def _poch_budget_gate(order: int, budget: Budget, what: str) -> None:
    if order > budget.max_order:
        raise BudgetError(
            f"{what} needs expansion order {order} > budget {budget.max_order} "
            f"(roughly {8 * (order + 1)} bytes of coefficients)")


def poch_class(m: int, budget: Budget = DEFAULT_BUDGET) -> ClassRecord:
    """Classify (q;q)_m by its max absolute coefficient over the full polynomial."""
    if m < 0:
        raise UsageError(f"m must be >= 0, got {m}")
    bound = m * (m + 1) // 2
    _poch_budget_gate(bound, budget, f"poch_class({m})")
    h, witness = pochhammer(1, 1, m, bound).max_abs()
    return ClassRecord(kind='poch', index=m, h=h, witness=witness, bound_used=bound)


def eden_class(k: int, budget: Budget = DEFAULT_BUDGET) -> ClassRecord:
    """Classify F_k by its max absolute coefficient over [0, shat_bound(k)]."""
    bound = shat_bound(k)
    _poch_budget_gate(bound, budget, f"eden_class({k})")
    h, witness = F_backsolve(k, bound).max_abs()
    return ClassRecord(kind='eden', index=k, h=h, witness=witness, bound_used=bound)


def _scan_poch_range(lo: int, hi: int):
    """Worker: (m, h, witness) for each m in [lo, hi], carrying (q;q)_m
    across the range with one in-place binomial multiply per step."""
    coeffs = [1]
    out = []
    for m in range(hi + 1):
        if m:
            coeffs.extend([0] * m)
            _mul_one_minus(coeffs, m)
        if m >= lo:
            out.append((m, *_height(coeffs)))
    return out


def _height(coeffs: list):
    """(max |c|, smallest exponent attaining it) of an (anti)palindromic
    polynomial, read from its first half without building new coefficients.
    The half-copy must not outlive the call: it would keep the old
    coefficients alive through the next in-place multiply."""
    first_half = coeffs[:(len(coeffs) + 1) // 2]
    high, low = max(first_half), min(first_half)
    best = max(high, -low)
    return best, min(first_half.index(v) for v in (high, low) if abs(v) == best)


def _scan_eden_one(k: int):
    bound = shat_bound(k)
    h, witness = F_backsolve(k, bound).max_abs()
    return (k, h, witness, bound)


def _range_chunks(last: int, workers: int):
    """Contiguous [lo, hi] chunks of 0..last with equal worst-case cost.

    A chunk pays lo^3/6 to rebuild its starting polynomial and about twice
    that rate to sweep (multiply plus coefficient scan), so its cost is
    (2 hi^3 - lo^3)/6.  Equalizing gives boundaries hi_i^3 = (2 - 2^(1-i)) c;
    the prefix rebuilds cap the parallel speedup at 2x regardless of workers.
    """
    base = last ** 3 / (2 - 2 ** (1 - workers))
    bounds = sorted({round((base * (2 - 2 ** -i)) ** (1 / 3))
                     for i in range(workers)})
    bounds[-1] = last
    chunks, lo = [], 0
    for b in bounds:
        if b >= lo:
            chunks.append((lo, b))
            lo = b + 1
    return chunks


def _pool_size(workers: int) -> int:
    """Validated worker count, capped at the CPU count: more processes than
    cores only add startup cost, and a huge count must not fork that many."""
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def build_s_table(H: int, budget: Budget = DEFAULT_BUDGET, workers: int = 1) -> HTable:
    """All rows S_1 .. S_H, each with its cut-off, by sweeping m up to
    s_cutoff(H).  Workers (at most one per CPU) split the sweep into
    contiguous m-ranges and the merge is by subject index, so the result is
    worker-count independent."""
    if H < 1:
        raise UsageError(f"H must be >= 1, got {H}")
    workers = _pool_size(workers)
    horizon = s_cutoff(H)
    _poch_budget_gate(horizon * (horizon + 1) // 2, budget, f"build_s_table({H})")
    if workers == 1:
        results = _scan_poch_range(0, horizon)
    else:
        results = []
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_scan_poch_range, lo, hi)
                       for lo, hi in _range_chunks(horizon, workers)]
            for fut in futures:
                results.extend(fut.result())
    results.sort()
    rows = {h: ([], s_cutoff(h)) for h in range(1, H + 1)}
    for m, h, _witness in results:
        if h <= H:
            rows[h][0].append(m)
    rows = {h: (tuple(members), cutoff) for h, (members, cutoff) in rows.items()}
    return HTable(kind='S', rows=rows, horizon=horizon)


def build_shat_table(K: int, budget: Budget = DEFAULT_BUDGET, workers: int = 1) -> HTable:
    """Rows Shat_1 .. Shat_K from eden_class(k) for k <= K.  Every k lands in
    some row (empirically h(k) <= k); empty rows are kept so restrictions of
    the full table stay recognizable.  The scan horizon K fills the cutoff
    slot, no per-row window bound exists for F_k."""
    if K < 1:
        raise UsageError(f"K must be >= 1, got {K}")
    workers = _pool_size(workers)
    _poch_budget_gate(shat_bound(K), budget, f"build_shat_table({K})")
    if workers == 1:
        results = [_scan_eden_one(k) for k in range(1, K + 1)]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_scan_eden_one, k) for k in range(1, K + 1)]
            results = [fut.result() for fut in futures]
    results.sort()
    top = max(K, max(h for _k, h, _w, _b in results))
    rows = {h: ([], K) for h in range(1, top + 1)}
    for k, h, _witness, _bound in results:
        rows[h][0].append(k)
    rows = {h: (tuple(members), cutoff) for h, (members, cutoff) in rows.items()}
    return HTable(kind='Shat', rows=rows, horizon=K)


@dataclass(frozen=True)
class WindowRecord:
    """One coefficient-window evaluation: the coefficient of q^exponent in
    (q;q)_{m-1} must land in [lo, hi]."""

    m: int
    exponent: int
    value: int
    lo: int
    hi: int
    ok: bool


def window_detail(m: int, budget: Budget = DEFAULT_BUDGET) -> WindowRecord:
    """The applicable window inequality for m, evaluated exactly.

    For m > 69 the coefficient of q^(2m+69) in (q;q)_{m-1} sits in [2,6]; for
    22 <= m <= 69 except 42 it sits in [2,12]; m = 42 is handled by the
    single value check at q^51 in (q;q)_41, where the generic window fails.
    """
    if m < 22:
        raise UsageError(f"window inequalities start at m=22, got {m}")
    if m == 42:
        exponent, lo, hi = 51, 2, 2
    elif m <= 69:
        exponent, lo, hi = 2 * m + 69, 2, 12
    else:
        exponent, lo, hi = 2 * m + 69, 2, 6
    _poch_budget_gate(exponent, budget, f"window_detail({m})")
    value = pochhammer(1, 1, m - 1, exponent).coeff(exponent)
    return WindowRecord(m=m, exponent=exponent, value=value, lo=lo, hi=hi,
                        ok=lo <= value <= hi)


def window_check(m: int, budget: Budget = DEFAULT_BUDGET) -> bool:
    """True iff the window inequality applicable to m holds."""
    return window_detail(m, budget).ok


@dataclass(frozen=True)
class ConjectureReport:
    """Empirical observations over the computed S-rows; never a proof.

    Each clause is True/False over its applicable h-range, or None when the
    range is empty (vacuous: no counterexample, no evidence).
    """

    h_max: int
    label: str
    singleton_above_16: bool
    increasing_above_16: bool
    consecutive_union_above_5: bool
    union: tuple
    notes: tuple


def conjecture_scan(H: int, budget: Budget = DEFAULT_BUDGET, workers: int = 1) -> ConjectureReport:
    """Scan S_1..S_H and report on three observed patterns: rows with h > 16
    hold at most one member; their members increase with h; and for h > 5 the
    union of the first h rows is a consecutive block starting at 0."""
    table = build_s_table(H, budget=budget, workers=workers)
    notes = []

    singleton = None
    increasing = None
    tall = [(h, table.rows[h][0]) for h in range(17, H + 1)]
    if not tall:
        notes.append("h>16 clauses vacuous for H={}: no counterexample, no evidence".format(H))
    else:
        singleton = all(len(members) <= 1 for _h, members in tall)
        picks = [members[0] for _h, members in tall if members]
        increasing = all(x < y for x, y in zip(picks, picks[1:]))

    consecutive = None
    if H <= 5:
        notes.append("consecutive-union clause vacuous for H={}: it applies to h>5".format(H))
    else:
        consecutive = True
        running = set()
        for h in range(1, H + 1):
            running.update(table.rows[h][0])
            if h > 5 and running != set(range(len(running))):
                consecutive = False
                notes.append("union through h={} is not consecutive".format(h))
                break

    union = set()
    for h in range(1, H + 1):
        union.update(table.rows[h][0])
    return ConjectureReport(h_max=H, label="EMPIRICAL",
                            singleton_above_16=singleton,
                            increasing_above_16=increasing,
                            consecutive_union_above_5=consecutive,
                            union=tuple(sorted(union)), notes=tuple(notes))
