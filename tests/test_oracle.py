"""The enumeration oracle against closed forms and generating functions."""

import sys
from operator import add, sub

import pytest

from qbloch import oracle
from qbloch.closed_form import a_coeff, b_coeff
from qbloch.errors import BudgetError, UsageError
from qbloch.fseries import eden_series
from qbloch.oracle import (count_distinct_table, distinct_partitions, eden_count,
                           eden_signed_sum, eden_signed_sums, one_mod_k_signed_sum,
                           one_mod_k_signed_sums, signed_distinct_sum,
                           signed_distinct_sums, signed_distinct_table,
                           signed_distinct_tables)
from qbloch.pentagonal import pnt_series
from qbloch.series import TruncSeries, pochhammer


def upward_table(N, min_part, op):
    """The product table with its factors taken from j = min_part upward,
    one sweep per min_part: the values the downward sweep must reproduce."""
    c = [1] + [0] * N
    for j in range(min_part, N + 1):
        c[j:] = map(op, c[j:], c[:N + 1 - j])
    return c


def test_distinct_partition_generator():
    got = sorted(distinct_partitions(6))
    assert got == [(3, 2, 1), (4, 2), (5, 1), (6,)]
    assert list(distinct_partitions(0)) == [()]
    assert sorted(distinct_partitions(7, min_part=2)) == [(4, 3), (5, 2), (7,)]
    for parts in distinct_partitions(15):
        assert all(x > y for x, y in zip(parts, parts[1:])), parts
        assert sum(parts) == 15 and all(p >= 1 for p in parts), parts


def test_enumeration_is_exhaustive():
    for mp in (1, 2, 3):
        counts = count_distinct_table(40, mp)
        assert counts == upward_table(40, mp, add), mp
        for n in range(41):
            assert sum(1 for _ in distinct_partitions(n, mp)) == counts[n], (n, mp)
    # l_max 61 and 91: above n for small n, below it for large n, so the
    # descent starts both at the remainder and at the cap
    N, M = 120, 30
    for k in (2, 3):
        rhs = TruncSeries.one(N) - pochhammer(1, k, M + 1, N)
        for n in range(N + 1):
            assert one_mod_k_signed_sum(k, n, k * M + 1) == rhs.coeff(n), (k, n)
        assert one_mod_k_signed_sums(k, N, k * M + 1) == rhs.coeffs, k


def test_pruned_descent_calls_per_partition(monkeypatch):
    """A perf guard, not a timer: the shared descent makes at most a few
    calls per partition it reaches (an unpruned descent makes 8 to 11)."""
    calls = 0
    descend = oracle._signed_parts

    def counted(*args):
        nonlocal calls
        calls += 1
        return descend(*args)

    monkeypatch.setattr(oracle, "_signed_parts", counted)
    for n in (40, 60, 80):
        for mp in (1, 2, 3):
            calls = 0
            assert signed_distinct_sum(n, mp) == signed_distinct_table(n, mp)[n]
            assert calls <= 5 * count_distinct_table(n, mp)[n], (n, mp, calls)


def test_all_weights_walk_calls_once_per_partition(monkeypatch):
    """A perf guard, not a timer: the walk over the window [0, N] cuts
    nothing, so each call is one partition of weight <= N, and the
    recursion goes through the module-level _signed_parts."""
    calls = 0
    descend = oracle._signed_parts

    def counted(*args):
        nonlocal calls
        calls += 1
        return descend(*args)

    monkeypatch.setattr(oracle, "_signed_parts", counted)
    for N in (36, 60):
        for mp in (1, 2, 3):
            calls = 0
            assert signed_distinct_sums(N, mp) == signed_distinct_table(N, mp)
            assert calls == sum(count_distinct_table(N, mp)), (N, mp, calls)


def test_eden_count_calls_per_partition():
    """A perf guard, not a timer: summed over m, eden_count's inner descent
    makes a few calls per partition it counts (unpruned, 18 to 21)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "count_exact":
            calls += 1

    for k, n in ((1, 60), (2, 60)):
        calls = 0
        sys.setprofile(profile)
        try:
            counts = [eden_count(k, n, m) for m in range(1, n + 1)]
        finally:
            sys.setprofile(None)
        assert sum((-1) ** m * c for m, c in enumerate(counts, 1)) == eden_signed_sum(k, n)
        assert calls <= 8 * sum(counts), (k, n, calls, sum(counts))


def test_small_signed_examples():
    assert signed_distinct_sum(0, 1) == 1
    assert signed_distinct_sum(0, 7) == 1
    assert signed_distinct_sum(7, 2) == 1   # a_7 = +1
    assert signed_distinct_sum(11, 3) == 2  # b_11 = 2


def test_signed_enumeration_matches_tables():
    mps = (1, 2, 3, 5)
    tables = signed_distinct_tables(60, mps)
    for mp, snapshot in zip(mps, tables):
        table = signed_distinct_table(60, mp)
        assert snapshot == table == upward_table(60, mp, sub), mp
        for n in range(61):
            assert signed_distinct_sum(n, mp) == table[n], (n, mp)
        assert signed_distinct_sums(60, mp) == table, mp
    # snapshots come back in the order asked, repeats and parts past N too
    assert signed_distinct_tables(7, (3, 9, 1, 3)) == [
        upward_table(7, mp, sub) for mp in (3, 9, 1, 3)]
    assert signed_distinct_tables(0, (1, 2)) == [[1], [1]]


def test_signed_tables_match_series_expansions():
    N = 300
    assert signed_distinct_table(N, 1) == pnt_series(N).coeffs
    assert signed_distinct_table(N, 2) == pochhammer(2, 1, None, N).coeffs
    assert signed_distinct_table(N, 3) == pochhammer(3, 1, None, N).coeffs


def test_signed_enumeration_matches_closed_forms():
    for n in range(61):
        assert signed_distinct_sum(n, 2) == a_coeff(n).value
        assert signed_distinct_sum(n, 3) == b_coeff(n).value


def test_eden_count_smallest_cases():
    assert eden_count(2, 2, 2) == 1          # (1,1)
    assert eden_count(1, 1, 1) == 1          # (1)
    assert eden_count(2, 4, 2) == 1          # (2,2)
    assert eden_count(2, 4, 3) == 0          # (1,1,2) would repeat a non-largest
    assert eden_count(1, 3, 2) == 1          # (2,1)
    assert eden_count(3, 7, 4) == 1          # (2,2,2,1)
    assert eden_count(2, 100, 1) == 0        # m < k


def test_eden_count_vs_single_sweep():
    for k in (1, 2, 3):
        for n in range(1, 31):
            total = sum((-1) ** m * eden_count(k, n, m) for m in range(1, n + 1))
            assert total == eden_signed_sum(k, n)


def test_eden_sums_reproduce_series():
    for k in (1, 2, 3):
        ref = eden_series(k, 50)
        for n in range(1, 51):
            assert eden_signed_sum(k, n) == ref.coeff(n), (k, n)
        sums = eden_signed_sums(k, 60)
        assert sums[0] == 0 and sums[1:] == eden_series(k, 60).coeffs[1:], k


def test_one_mod_k_signed_sums():
    assert one_mod_k_signed_sum(3, 1, 10) == 1
    assert one_mod_k_signed_sum(3, 0, 10) == 0
    for k in (1, 2, 3, 5):
        for M in (0, 2, 5, 10):
            N = 60
            rhs = TruncSeries.one(N) - pochhammer(1, k, M + 1, N)
            for n in range(N + 1):
                assert one_mod_k_signed_sum(k, n, k * M + 1) == rhs.coeff(n)


def test_budget_errors():
    with pytest.raises(BudgetError):
        signed_distinct_sum(301, 1)
    with pytest.raises(BudgetError):
        eden_count(2, 101, 3)
    with pytest.raises(BudgetError):
        eden_signed_sum(1, 101)
    with pytest.raises(BudgetError):
        one_mod_k_signed_sum(2, 301, 5)
    assert signed_distinct_sum(30, 1, limit=30) == pnt_series(30).coeff(30)
    with pytest.raises(BudgetError):
        signed_distinct_sum(31, 1, limit=30)
    with pytest.raises(BudgetError):
        signed_distinct_sums(301, 1)
    with pytest.raises(BudgetError):
        eden_signed_sums(1, 101)
    with pytest.raises(BudgetError):
        one_mod_k_signed_sums(2, 301, 5)
    assert signed_distinct_sums(30, 1, limit=30) == pnt_series(30).coeffs
    with pytest.raises(BudgetError):
        signed_distinct_sums(31, 1, limit=30)


def test_argument_errors():
    with pytest.raises(UsageError):
        signed_distinct_sum(-1, 1)
    with pytest.raises(UsageError):
        signed_distinct_sum(5, 0)
    with pytest.raises(UsageError):
        eden_count(0, 5, 2)
    with pytest.raises(UsageError, match="got k=2 n=5 l_max=0"):
        one_mod_k_signed_sum(2, 5, 0)
    with pytest.raises(UsageError, match="got k=0 n=5 l_max=3"):
        one_mod_k_signed_sum(0, 5, 3)
    with pytest.raises(UsageError, match="min_part must be >= 1, got 0"):
        count_distinct_table(5, 0)
    with pytest.raises(UsageError, match="min_part must be >= 1, got 0"):
        list(distinct_partitions(5, 0))
    with pytest.raises(UsageError):
        signed_distinct_table(5, 0)
    with pytest.raises(UsageError, match="min_part must be >= 1, got 0"):
        signed_distinct_tables(5, (2, 0))
    with pytest.raises(UsageError, match="N must be >= 0, got -1"):
        signed_distinct_sums(-1, 1)
    with pytest.raises(UsageError, match="min_part must be >= 1, got 0"):
        signed_distinct_sums(5, 0)
    with pytest.raises(UsageError, match="got k=0 N=5"):
        eden_signed_sums(0, 5)
    with pytest.raises(UsageError, match="got k=1 N=-1"):
        eden_signed_sums(1, -1)
    with pytest.raises(UsageError, match="got k=2 n=5 l_max=0"):
        one_mod_k_signed_sums(2, 5, 0)
    with pytest.raises(UsageError, match="got k=2 n=-1 l_max=3"):
        one_mod_k_signed_sums(2, -1, 3)


def test_all_weights_inputs_checked_before_any_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("walked before the inputs were checked")
    monkeypatch.setattr(oracle, "_signed_parts", refuse)
    for call, error in ((lambda: signed_distinct_sums(301, 1), BudgetError),
                        (lambda: signed_distinct_sums(5, 0), UsageError),
                        (lambda: eden_signed_sums(2, 101), BudgetError),
                        (lambda: eden_signed_sums(0, 5), UsageError),
                        (lambda: one_mod_k_signed_sums(3, 301, 10), BudgetError),
                        (lambda: one_mod_k_signed_sums(3, 30, 0), UsageError)):
        with pytest.raises(error):
            call()
