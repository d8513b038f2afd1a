"""Max-coefficient classification for (q;q)_m and F_k.

S_h collects the m with max |coefficient of (q;q)_m| equal to h; every m past
the cut-off (h+2)(6h+17) provably exceeds h, so a finite sweep settles each
row.  The sweep is witness first: one exact coefficient above H in a short
truncation of (q;q)_m rules m out, and only the m left over are expanded in
full.  Shat_h does the same for F_k, scanned up to the sufficient bound
(k-1)(3k^3-3k^2+10k-8)/8.  Both sweeps run in one process.  The window
checks certify the inequalities that make the S cut-offs work, and
conjecture_scan reports (empirically, never as proof) on the observed shape
of the S_h rows.
"""

from __future__ import annotations

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
    the sweep examined.  For kind 'S', certificates[m] (m <= horizon) is the
    exponent that settles m: |coefficient| > H there for a non-member, the
    smallest exponent attaining the height for a member; kind 'Shat'
    leaves it empty."""

    kind: str
    rows: dict = field(default_factory=dict)
    horizon: int = 0
    certificates: tuple = ()

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


def _check_workers(workers: int) -> None:
    """Validate the worker count.  Both sweeps run in this process whatever
    the count, so it changes neither the result nor the work done."""
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")


def _witness_sweep(H: int, horizon: int):
    """(m, t) for m = 0..horizon, where t is the smallest exponent with
    |coefficient of q^t in (q;q)_m| > H, or None when none shows below the
    truncation.

    (q;q)_m is carried modulo q^(T+1), T = 4*horizon, and only to its exact
    degree below that.  Truncation leaves every kept coefficient exact, so a
    t found here certifies that m is no member of S_1..S_H.
    """
    T = 4 * horizon
    coeffs = [1]
    degree = 0
    for m in range(horizon + 1):
        if m:
            degree += m
            coeffs.extend([0] * (min(T, degree) + 1 - len(coeffs)))
            _mul_one_minus(coeffs, m)
        witness = None
        if max(coeffs) > H or min(coeffs) < -H:
            witness = next(t for t, c in enumerate(coeffs) if not -H <= c <= H)
        yield m, witness


def build_s_table(H: int, budget: Budget = DEFAULT_BUDGET, workers: int = 1) -> HTable:
    """All rows S_1 .. S_H, each with its cut-off, by sweeping m up to
    s_cutoff(H).

    Witness first: an m whose truncated (q;q)_m already shows a coefficient
    above H is settled by that exponent; only the others (in practice the
    members) are classified in full by poch_class.  certificates[m] is the
    exponent that settles m: the truncated witness, or poch_class's witness.
    workers is validated and otherwise ignored.
    """
    if H < 1:
        raise UsageError(f"H must be >= 1, got {H}")
    _check_workers(workers)
    horizon = s_cutoff(H)
    _poch_budget_gate(horizon * (horizon + 1) // 2, budget, f"build_s_table({H})")
    rows = {h: ([], s_cutoff(h)) for h in range(1, H + 1)}
    certificates = []
    for m, witness in _witness_sweep(H, horizon):
        if witness is None:
            record = poch_class(m, budget)
            witness = record.witness
            if record.h <= H:
                rows[record.h][0].append(m)
        certificates.append(witness)
    rows = {h: (tuple(members), cutoff) for h, (members, cutoff) in rows.items()}
    return HTable(kind='S', rows=rows, horizon=horizon,
                  certificates=tuple(certificates))


def build_shat_table(K: int, budget: Budget = DEFAULT_BUDGET, workers: int = 1) -> HTable:
    """Rows Shat_1 .. Shat_K from eden_class(k) for k <= K.  Every k lands in
    some row (empirically h(k) <= k); empty rows are kept so restrictions of
    the full table stay recognizable.  The scan horizon K fills the cutoff
    slot, no per-row window bound exists for F_k.  workers is validated and
    otherwise ignored."""
    if K < 1:
        raise UsageError(f"K must be >= 1, got {K}")
    _check_workers(workers)
    _poch_budget_gate(shat_bound(K), budget, f"build_shat_table({K})")
    heights = [eden_class(k, budget).h for k in range(1, K + 1)]
    rows = {h: ([], K) for h in range(1, max(K, *heights) + 1)}
    for k, h in enumerate(heights, start=1):
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


def _window(m: int):
    """(exponent, lo, hi) of the window inequality that applies to m."""
    if m == 42:
        return 51, 2, 2
    return 2 * m + 69, 2, (12 if m <= 69 else 6)


def window_sweep(first: int, last: int, budget: Budget = DEFAULT_BUDGET) -> list:
    """The WindowRecord of each m in first..last, in order, read from one
    (q;q)_(m-1) carried across the range with one in-place binomial
    multiply per step.

    For m > 69 the coefficient of q^(2m+69) in (q;q)_{m-1} sits in [2,6]; for
    22 <= m <= 69 except 42 it sits in [2,12]; m = 42 is handled by the
    single value check at q^51 in (q;q)_41, where the generic window fails.
    """
    if first < 22:
        raise UsageError(f"window inequalities start at m=22, got {first}")
    windows = {m: _window(m) for m in range(first, last + 1)}
    top = max((exponent for exponent, _lo, _hi in windows.values()), default=0)
    _poch_budget_gate(top, budget, f"window_sweep({first}, {last})")
    coeffs = [1] + [0] * top
    records = []
    for m in range(1, last + 1):
        if m > 1:
            _mul_one_minus(coeffs, m - 1)
        if m in windows:
            exponent, lo, hi = windows[m]
            value = coeffs[exponent]
            records.append(WindowRecord(m=m, exponent=exponent, value=value,
                                        lo=lo, hi=hi, ok=lo <= value <= hi))
    return records


def window_detail(m: int, budget: Budget = DEFAULT_BUDGET) -> WindowRecord:
    """The applicable window inequality for m, evaluated exactly: the one-m
    case of window_sweep."""
    return window_sweep(m, m, budget)[0]


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
