"""Brute-force partition enumeration, the ground truth everything else is
checked against.

Nothing here touches the series machinery: sums are computed by recursive
descent over partitions with distinctness enforced structurally, and the only
cross-checks inside the module are plain dynamic-programming tables.  Costs
grow like the number of distinct-part partitions, so every entry point takes
a hard enumeration limit.
"""

from __future__ import annotations

from .errors import BudgetError, UsageError

#: Default caps. Distinct-part partitions of 300 number around 10^11; the
#: recursion visits each once, so calls near the cap are hours of work.  The
#: caps bound what the oracle will attempt at all.
ENUM_LIMIT = 300
ENUM_LIMIT_EDEN = 100


def distinct_partitions(n: int, min_part: int = 1):
    """Yield every distinct-part partition of n with parts >= min_part, as
    decreasing tuples, largest-part-first order."""
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")

    def rec(rem, cap, acc):
        if rem == 0:
            yield tuple(acc)
            return
        for p in range(min(rem, cap), min_part - 1, -1):
            acc.append(p)
            yield from rec(rem - p, p - 1, acc)
            acc.pop()

    yield from rec(n, n, [])


def _check_budget(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise BudgetError(f"{what}: n={n} exceeds the enumeration limit {limit}")


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

    def rec(rem, cap):
        total = 1 if rem == 0 else 0
        for p in range(min(rem, cap), min_part - 1, -1):
            total -= rec(rem - p, p - 1)
        return total

    return rec(n, n)


def signed_distinct_table(N: int, min_part: int) -> list:
    """All of signed_distinct_sum(0..N, min_part) at once, by the product
    dynamic program over (1 - q^j): fast, and an independent implementation
    the term-by-term enumeration is tested against."""
    if N < 0:
        raise UsageError(f"N must be >= 0, got {N}")
    if min_part < 1:
        raise UsageError(f"min_part must be >= 1, got {min_part}")
    c = [1] + [0] * N
    for j in range(min_part, N + 1):
        for i in range(N, j - 1, -1):
            c[i] -= c[i - j]
    return c


def count_distinct_table(N: int, min_part: int = 1) -> list:
    """Unsigned companion of signed_distinct_table: the number of
    distinct-part partitions of each n <= N."""
    if N < 0:
        raise UsageError(f"N must be >= 0, got {N}")
    c = [1] + [0] * N
    for j in range(min_part, N + 1):
        for i in range(N, j - 1, -1):
            c[i] += c[i - j]
    return c


def _signed_capped(rem: int, cap: int) -> int:
    """Sum of (-1)^nu over distinct-part partitions of rem with parts in
    [1, cap]."""
    total = 1 if rem == 0 else 0
    for p in range(min(rem, cap), 0, -1):
        total -= _signed_capped(rem - p, p - 1)
    return total


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
        return sum(count_exact(rem - p, parts_left - 1, p - 1)
                   for p in range(min(rem, cap), parts_left - 1, -1))

    total = 0
    for largest in range(1, n // k + 1):
        total += count_exact(n - k * largest, m - k, largest - 1)
    return total


def eden_signed_sum(k: int, n: int, limit: int = ENUM_LIMIT_EDEN) -> int:
    """Sum over m of (-1)^m eden_count(k, n, m), in one sweep over the
    largest part instead of one enumeration per m."""
    if k < 1 or n < 1:
        raise UsageError(f"eden_signed_sum needs k, n >= 1, got k={k} n={n}")
    _check_budget(n, limit, "eden_signed_sum")
    sign_k = -1 if k % 2 else 1
    total = 0
    for largest in range(1, n // k + 1):
        # m = k + nu(rest), so (-1)^m factors through (-1)^nu
        total += sign_k * _signed_capped(n - k * largest, largest - 1)
    return total


def one_mod_k_signed_sum(k: int, n: int, l_max: int, limit: int = ENUM_LIMIT) -> int:
    """Sum of (-1)^(nu+1) over non-empty distinct-part partitions of n with
    every part congruent to 1 mod k and largest part <= l_max."""
    if k < 1 or n < 0 or l_max < 1:
        raise UsageError(f"one_mod_k_signed_sum needs k >= 1, n >= 0, l_max >= 1")
    _check_budget(n, limit, "one_mod_k_signed_sum")
    if n == 0:
        return 0

    def rec(rem, cap):
        total = 1 if rem == 0 else 0
        p = min(rem, cap)
        p -= (p - 1) % k  # largest value <= p that is 1 mod k
        while p >= 1:
            total -= rec(rem - p, p - 1)
            p -= k
        return total

    return -rec(n, l_max)
