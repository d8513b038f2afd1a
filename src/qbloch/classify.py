"""Max-coefficient classification for (q;q)_m and F_k.

S_h collects the m with max |coefficient of (q;q)_m| equal to h; every m past
the cut-off (h+2)(6h+17) provably exceeds h, so a finite sweep settles each
row.  The sweep has two stages.  A fixed ladder of single coefficients below
q^(7(m+1)), read at random from the tails (q^j;q)_inf, j <= 7, built once
(since (q;q)_m = sum_k q^(k(m+1)) (q^(k+1);q)_inf), rules m out as soon as
one exceeds H; every m the ladder leaves is expanded in full.
Shat_h classifies F_k the same way by height, scanned up to the sufficient
bound (k-1)(3k^3-3k^2+10k-8)/8.  The window checks certify the inequalities
that make the S cut-offs work, reading their coefficients from tails the
same way, and conjecture_scan reports (empirically, never as proof) on the
observed shape of the S_h rows.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BudgetError, UsageError
from .fseries import F_backsolve
from .oracle import ENUM_LIMIT
from .series import _tail_coeff, _tails, pochhammer


class Budget(namedtuple("Budget", "max_order max_enum", defaults=(250_000, ENUM_LIMIT))):
    """Hard resource limits; exceeding one raises BudgetError, never truncates.

    max_order caps any truncation order or full polynomial degree (default
    250,000); max_enum caps the weight n of every brute-force enumeration,
    the Eden counts included (default ENUM_LIMIT).
    """

    __slots__ = ()

    def require_order(self, order: int, what: str) -> None:
        """Raise BudgetError if `what` needs a truncation order or full
        degree past max_order; callers ask before they start the work."""
        if order > self.max_order:
            raise BudgetError(
                f"{what} needs expansion order {order} > budget {self.max_order}")


DEFAULT_BUDGET = Budget()


class ClassRecord(namedtuple("ClassRecord", "kind index h witness bound_used")):
    """Where one subject lands: kind is 'poch' for (q;q)_m and 'eden' for
    F_k, index is m or k, h is its max absolute coefficient, witness the
    smallest exponent attaining h, bound_used the last exponent examined."""

    __slots__ = ()


class HTable(namedtuple("HTable", "kind rows horizon certificates", defaults=(0, ()))):
    """rows maps each h to (members, cutoff).  kind 'S' classifies (q;q)_m
    with the window cut-offs; kind 'Shat' classifies F_k with the scan
    horizon K standing in as every row's cutoff.  horizon is the last
    subject index the sweep examined.  For kind 'S', certificates[m]
    (m <= horizon) is the exponent that settles m: for a non-member the
    ladder settles, the rung where |coefficient| > H (an exact witness, not
    necessarily the smallest one); for every m the ladder leaves, member or
    not, poch_class's witness, the smallest exponent attaining its height.
    Kind 'Shat' leaves it empty."""

    __slots__ = ()

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


def poch_class(m: int, budget: Budget = DEFAULT_BUDGET) -> ClassRecord:
    """Classify (q;q)_m by its max absolute coefficient over the full polynomial."""
    if m < 0:
        raise UsageError(f"m must be >= 0, got {m}")
    bound = m * (m + 1) // 2
    budget.require_order(bound, f"poch_class({m})")
    h, witness = pochhammer(1, 1, m, bound).max_abs()
    return ClassRecord(kind='poch', index=m, h=h, witness=witness, bound_used=bound)


def eden_class(k: int, budget: Budget = DEFAULT_BUDGET) -> ClassRecord:
    """Classify F_k by its max absolute coefficient over [0, shat_bound(k)]."""
    bound = shat_bound(k)
    budget.require_order(bound, f"eden_class({k})")
    h, witness = F_backsolve(k, bound).max_abs()
    return ClassRecord(kind='eden', index=k, h=h, witness=witness, bound_used=bound)


#: The S sweep's ladder reads (q;q)_m below q^(_WINDOWS*(m+1)), from the
#: tails (q^j;q)_inf, j <= _WINDOWS.
_WINDOWS = 7


def _s_witness(tails: list, m: int, H: int):
    """An exponent where (q;q)_m has a coefficient outside [-H, H], read
    exactly from the tails, or None if no rung of the ladder finds one.

    The ladder is 16 single coefficients: offsets s-1, s/2, s/4 and 3s/4
    into windows [js, (j+1)s) for j = 3, 5, 6 and 4, where the values run
    largest; the first rung, q^(4s-1), grows like m/8 and alone settles
    most large m.  An m that no rung settles is left to poch_class.
    """
    s = m + 1
    for offset in (s - 1, s // 2, s // 4, 3 * s // 4):
        for j in (3, 5, 6, 4):
            t = j * s + offset
            if not -H <= _tail_coeff(tails, s, t) <= H:
                return t
    return None


def build_s_table(H: int, budget: Budget = DEFAULT_BUDGET) -> HTable:
    """All rows S_1 .. S_H, each with its cut-off, by sweeping m up to
    s_cutoff(H).

    Witness first: with s = m + 1, (q;q)_m = sum_k q^(ks) (q^(k+1);q)_inf,
    so below q^(7s) each coefficient is a sum of at most 7 entries of the
    tails (q^j;q)_inf, j <= 7, built once for the whole sweep.  Every such
    coefficient is exact, so one of them outside [-H, H] settles m as a
    non-member: the sweep reads a ladder of 16 single coefficients (see
    _s_witness).  Every m the ladder leaves, the members and a few
    non-members (44 of the 79 at H = 74, none above m = 102), is
    classified in full by poch_class.  certificates[m] is the exponent that
    settles m: the rung found in the tails, or poch_class's witness.

    The budget is asked for the order the sweep expands, the tails' top
    exponent 7(s_cutoff(H) + 1) - 1; each full classification is gated
    again by poch_class.
    """
    if H < 1:
        raise UsageError(f"H must be >= 1, got {H}")
    horizon = s_cutoff(H)
    budget.require_order(_WINDOWS * (horizon + 1) - 1, f"build_s_table({H})")
    rows = {h: ([], s_cutoff(h)) for h in range(1, H + 1)}
    certificates = []
    tails = list(_tails([(_WINDOWS - j) * (horizon + 1) for j in range(_WINDOWS)]))
    for m in range(horizon + 1):
        witness = _s_witness(tails, m, H)
        if witness is None:
            record = poch_class(m, budget)
            if record.h <= H:
                rows[record.h][0].append(m)
            witness = record.witness
        certificates.append(witness)
    rows = {h: (tuple(members), cutoff) for h, (members, cutoff) in rows.items()}
    return HTable(kind='S', rows=rows, horizon=horizon,
                  certificates=tuple(certificates))


def build_shat_table(K: int, budget: Budget = DEFAULT_BUDGET) -> HTable:
    """Rows Shat_1 .. Shat_max(K, h) from eden_class(k) for k <= K, h the
    largest height seen.  Every k lands in some row: h(k) <= k holds up to
    k = 21, but h(22) = 24 and h(25) = 37, so rows can run past K.  Empty
    rows are kept so restrictions of the full table stay recognizable.  The
    cutoff slot holds the scan horizon K."""
    if K < 1:
        raise UsageError(f"K must be >= 1, got {K}")
    budget.require_order(shat_bound(K), f"build_shat_table({K})")
    heights = [eden_class(k, budget).h for k in range(1, K + 1)]
    rows = {h: ([], K) for h in range(1, max(K, *heights) + 1)}
    for k, h in enumerate(heights, start=1):
        rows[h][0].append(k)
    rows = {h: (tuple(members), cutoff) for h, (members, cutoff) in rows.items()}
    return HTable(kind='Shat', rows=rows, horizon=K)


class WindowRecord(namedtuple("WindowRecord", "m exponent value lo hi ok")):
    """One coefficient-window evaluation: the coefficient of q^exponent in
    (q;q)_{m-1}, value, must land in [lo, hi]; ok says whether it does."""

    __slots__ = ()


def _window(m: int):
    """(exponent, lo, hi) of the window inequality that applies to m."""
    if m == 42:
        return 51, 2, 2
    return 2 * m + 69, 2, (12 if m <= 69 else 6)


def window_sweep(first: int, last: int, budget: Budget = DEFAULT_BUDGET) -> list:
    """The WindowRecord of each m in first..last, in order.  Each window
    coefficient is read from the tails (q^j;q)_inf, built once to the top
    exponent: the coefficient of q^e in (q;q)_(m-1) is the sum over j <= e/m
    of the coefficient of q^(e-jm) in (q^(j+1);q)_inf, at most 6 terms for
    m >= 22.

    For m > 69 the coefficient of q^(2m+69) in (q;q)_{m-1} sits in [2,6]; for
    22 <= m <= 69 except 42 it sits in [2,12]; m = 42 is handled by the
    single value check at q^51 in (q;q)_41, where the generic window fails.
    """
    if first < 22:
        raise UsageError(f"window inequalities start at m=22, got {first}")
    windows = {m: _window(m) for m in range(first, last + 1)}
    if not windows:
        return []
    top = max(exponent for exponent, _lo, _hi in windows.values())
    budget.require_order(top, f"window_sweep({first}, {last})")
    depth = max(exponent // m for m, (exponent, _lo, _hi) in windows.items()) + 1
    tails = list(_tails([top + 1] * depth))
    records = []
    for m, (exponent, lo, hi) in windows.items():
        value = _tail_coeff(tails, m, exponent)
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


class ConjectureReport(namedtuple(
        "ConjectureReport", "h_max label singleton_above_16 increasing_above_16 "
                            "consecutive_union_above_5 union notes")):
    """Empirical observations over the computed S-rows S_1..S_h_max; never a
    proof, and label says so ('EMPIRICAL').

    Each clause (singleton_above_16, increasing_above_16,
    consecutive_union_above_5) is True/False over its applicable h-range, or
    None when the range is empty (vacuous: no counterexample, no evidence).
    union is the sorted tuple of every member of those rows; notes is a
    tuple of lines on vacuous clauses and on where the union breaks.
    """

    __slots__ = ()


def conjecture_scan(H: int, budget: Budget = DEFAULT_BUDGET) -> ConjectureReport:
    """Scan S_1..S_H and report on three observed patterns: rows with h > 16
    hold at most one member; their members increase with h; and for h > 5 the
    union of the first h rows is a consecutive block starting at 0."""
    table = build_s_table(H, budget=budget)
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
    union = set()
    for h in range(1, H + 1):
        union.update(table.rows[h][0])
        if consecutive and h > 5 and union != set(range(len(union))):
            consecutive = False
            notes.append("union through h={} is not consecutive".format(h))
    return ConjectureReport(h_max=H, label="EMPIRICAL",
                            singleton_above_16=singleton,
                            increasing_above_16=increasing,
                            consecutive_union_above_5=consecutive,
                            union=tuple(sorted(union)), notes=tuple(notes))
