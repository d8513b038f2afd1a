"""Brute-force partition enumeration, the ground truth everything else is
checked against.

Nothing here touches the series machinery: sums are computed by recursive
descent over partitions with distinctness enforced structurally, and the only
cross-checks inside the module are plain dynamic-programming tables.  The
signed sums share one walk, _signed_parts, which adds (-1)^nu for every
distinct-part set whose weight lies in a window [lo, hi].  Parts are tried
largest first, a part that would carry the weight past hi is never tried,
and the loop stops once the parts still admissible together fall short of
lo.  A window [0, N] cuts nothing: every call is a partition of weight <= N,
each reached exactly once, so the all-weights entry points make one call per
partition.  A single weight [n, n] is a pruned descent.  Parts from 1 upward
can sum to every value up to their total, so with min_part 1 every call
leads to at least one partition of n.  Other part sets leave gaps (parts
>= 2 never sum to 1), and a remainder in a gap costs a few calls that find
nothing.  Either way costs grow like the number of partitions, so every
entry point takes a hard enumeration limit.  The walk is an enumeration
only: it keeps no memo and no table.
"""

from __future__ import annotations

from operator import add, sub

from .errors import BudgetError, UsageError

#: Default caps. Distinct-part partitions of 300 number around 10^11; a walk
#: over all weights <= N makes one call per partition, and one for a single
#: weight n at most 5 per partition of n (n <= 80), so calls near the cap are
#: still hours of work.  The caps bound what the oracle will attempt at all.
ENUM_LIMIT = 300
ENUM_LIMIT_EDEN = 100


def distinct_partitions(n: int, min_part: int = 1):
    """Yield every distinct-part partition of n with parts >= min_part, as
    decreasing tuples, largest-part-first order."""
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")
    if min_part < 1:
        raise UsageError(f"min_part must be >= 1, got {min_part}")
    base = min_part * (min_part - 1) // 2

    def rec(rem, cap, acc):
        if rem == 0:
            yield tuple(acc)
            return
        for p in range(min(rem, cap), min_part - 1, -1):
            if rem - p > p * (p - 1) // 2 - base:
                break  # parts min_part..p-1 together fall short
            acc.append(p)
            yield from rec(rem - p, p - 1, acc)
            acc.pop()

    yield from rec(n, n, [])


def _check_budget(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise BudgetError(f"{what}: n={n} exceeds the enumeration limit {limit}")


def _signed_parts(tally: list, rem: int, span: int, cap: int, step: int, low: int,
                  sign: int) -> None:
    """Walk the sets of nu distinct parts taken from cap, cap - step,
    cap - 2*step, ... and >= low, of weight w <= rem, adding sign * (-1)^nu
    to tally[rem - w] for each set with rem - w <= span: the window of
    weights [rem - span, rem], tallied down from its top.  The loop stops at
    the first part p whose remainder to the window's bottom, rem - span - p,
    exceeds the sum of every admissible part below p: a smaller p only
    widens that gap."""
    if rem <= span:
        tally[rem] += sign
        if rem == 0:
            return
    # largest admissible part <= rem
    p = cap if cap < rem else rem - (rem - cap) % step
    t = (p - low) // step  # admissible parts below p
    below = t * p - step * t * (t + 1) // 2  # their sum
    short = rem - span
    sign = -sign
    while p >= low and short - p <= below:
        nxt = p - step
        _signed_parts(tally, rem - p, span, nxt, step, low, sign)
        below -= nxt
        p = nxt


def signed_distinct_sum(n: int, min_part: int, limit: int = ENUM_LIMIT) -> int:
    """Sum of (-1)^nu over distinct-part partitions of n with smallest part
    >= min_part, by exhaustive descent (cost ~ the number of such partitions;
    see ENUM_LIMIT).  min_part 1, 2, 3 reproduce, coefficient by coefficient,
    (q;q)_inf, (q^2;q)_inf and (q^3;q)_inf."""
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")
    if min_part < 1:
        raise UsageError(f"min_part must be >= 1, got {min_part}")
    _check_budget(n, limit, "signed_distinct_sum")
    tally = [0]
    _signed_parts(tally, n, 0, n, 1, min_part, 1)
    return tally[0]


def signed_distinct_sums(N: int, min_part: int, limit: int = ENUM_LIMIT) -> list:
    """signed_distinct_sum(n, min_part) for every n <= N, from one walk over
    the window [0, N]: one call per partition of weight <= N."""
    if N < 0:
        raise UsageError(f"N must be >= 0, got {N}")
    if min_part < 1:
        raise UsageError(f"min_part must be >= 1, got {min_part}")
    _check_budget(N, limit, "signed_distinct_sums")
    tally = [0] * (N + 1)
    _signed_parts(tally, N, N, N, 1, min_part, 1)
    return tally[::-1]


def _product_tables(N: int, min_parts, op) -> list:
    """Coefficients to q^N of prod_{j >= mp} (1 op q^j), one table for each
    mp in min_parts, from one sweep.  Each factor is one 0/1 update,
    c[i] op= c[i - j] for i >= j, read from a copy.  The factors go in from
    j = N downward, so the sweep passes through each mp's product on its way
    to the smallest, and a copy is taken there."""
    if N < 0:
        raise UsageError(f"N must be >= 0, got {N}")
    for mp in min_parts:
        if mp < 1:
            raise UsageError(f"min_part must be >= 1, got {mp}")
    c = [1] + [0] * N
    tables = {}
    done = N + 1  # the factors j >= done are in
    for mp in sorted(set(min_parts), reverse=True):
        for j in range(done - 1, mp - 1, -1):
            c[j:] = map(op, c[j:], c[:N + 1 - j])
        done = min(done, mp)
        tables[mp] = c[:]
    return [tables[mp] for mp in min_parts]


def signed_distinct_table(N: int, min_part: int) -> list:
    """All of signed_distinct_sum(0..N, min_part) at once, by the product
    dynamic program over (1 - q^j): fast, and an independent implementation
    the term-by-term enumeration is tested against."""
    return _product_tables(N, (min_part,), sub)[0]


def signed_distinct_tables(N: int, min_parts) -> list:
    """signed_distinct_table(N, mp) for each mp in min_parts, in that order,
    from one sweep."""
    return _product_tables(N, min_parts, sub)


def count_distinct_table(N: int, min_part: int = 1) -> list:
    """Unsigned companion of signed_distinct_table: the number of
    distinct-part partitions of each n <= N."""
    return _product_tables(N, (min_part,), add)[0]


def eden_count(k: int, n: int, m: int, limit: int = ENUM_LIMIT_EDEN) -> int:
    """The number of partitions of n into exactly m parts where the largest
    part appears exactly k times and the remaining parts are distinct (and
    below the largest).  The all-largest partition, m = k, counts."""
    if k < 1 or n < 1 or m < 1:
        raise UsageError(f"eden_count needs k, n, m >= 1, got k={k} n={n} m={m}")
    _check_budget(n, limit, "eden_count")
    if m < k:
        return 0

    def count_exact(rem, parts_left, cap):
        if parts_left == 0:
            return 1 if rem == 0 else 0
        # parts_left distinct parts in [1, cap] need at least 1+2+...+parts_left
        if cap < parts_left or rem < parts_left * (parts_left + 1) // 2:
            return 0
        r = parts_left - 1
        total = 0
        for p in range(min(rem, cap), parts_left - 1, -1):
            if rem - p > r * (p - 1) - r * (r - 1) // 2:
                break  # the r largest distinct parts below p fall short
            total += count_exact(rem - p, r, p - 1)
        return total

    total = 0
    for largest in range(1, n // k + 1):
        total += count_exact(n - k * largest, m - k, largest - 1)
    return total


def _eden_walk(k: int, n: int, span: int) -> list:
    """Sum over m of (-1)^m eden_count(k, w, m) for each weight w in
    [n - span, n], at index n - w, in one sweep over the largest part."""
    sign_k = -1 if k % 2 else 1  # m = k + nu(rest): (-1)^m is (-1)^k (-1)^nu
    tally = [0] * (span + 1)
    for largest in range(1, n // k + 1):
        _signed_parts(tally, n - k * largest, span, largest - 1, 1, 1, sign_k)
    return tally


def eden_signed_sum(k: int, n: int, limit: int = ENUM_LIMIT_EDEN) -> int:
    """Sum over m of (-1)^m eden_count(k, n, m), in one sweep over the
    largest part instead of one enumeration per m."""
    if k < 1 or n < 1:
        raise UsageError(f"eden_signed_sum needs k, n >= 1, got k={k} n={n}")
    _check_budget(n, limit, "eden_signed_sum")
    return _eden_walk(k, n, 0)[0]


def eden_signed_sums(k: int, N: int, limit: int = ENUM_LIMIT_EDEN) -> list:
    """eden_signed_sum(k, n) for every n <= N, 0 at n = 0, from one walk
    per largest part over all weights: one call per partition counted."""
    if k < 1 or N < 0:
        raise UsageError(f"eden_signed_sums needs k >= 1, N >= 0, got k={k} N={N}")
    _check_budget(N, limit, "eden_signed_sums")
    return _eden_walk(k, N, N)[::-1]


def one_mod_k_signed_sums(k: int, N: int, l_max: int, limit: int = ENUM_LIMIT) -> list:
    """Sum of (-1)^(nu+1) over non-empty distinct-part partitions of each
    n <= N with every part congruent to 1 mod k and largest part <= l_max,
    from one walk over the window [0, N]: one call per partition of weight
    <= N."""
    if k < 1 or N < 0 or l_max < 1:
        raise UsageError("one_mod_k_signed_sums needs k >= 1, n >= 0, l_max >= 1, "
                         f"got k={k} n={N} l_max={l_max}")
    _check_budget(N, limit, "one_mod_k_signed_sums")
    top = l_max - (l_max - 1) % k  # the largest admissible part
    tally = [0] * (N + 1)
    _signed_parts(tally, N, N, top, k, 1, -1)
    tally[N] = 0  # the empty partition is left out
    return tally[::-1]
