"""The enumeration oracle against closed forms and generating functions."""

import pytest

from qbloch.closed_form import a_coeff, b_coeff
from qbloch.errors import BudgetError, UsageError
from qbloch.fseries import eden_series
from qbloch.oracle import (count_distinct_table, distinct_partitions, eden_count,
                           eden_signed_sum, one_mod_k_signed_sum,
                           signed_distinct_sum, signed_distinct_table)
from qbloch.pentagonal import pnt_series
from qbloch.series import TruncSeries, pochhammer


def test_distinct_partition_generator():
    got = sorted(distinct_partitions(6))
    assert got == [(3, 2, 1), (4, 2), (5, 1), (6,)]
    assert list(distinct_partitions(0)) == [()]
    assert sorted(distinct_partitions(7, min_part=2)) == [(4, 3), (5, 2), (7,)]
    for parts in distinct_partitions(15):
        assert all(x > y for x, y in zip(parts, parts[1:])), parts
        assert sum(parts) == 15 and all(p >= 1 for p in parts), parts


def test_enumeration_is_exhaustive():
    counts = count_distinct_table(40)
    for n in range(41):
        assert sum(1 for _ in distinct_partitions(n)) == counts[n]


def test_small_signed_examples():
    assert signed_distinct_sum(0, 1) == 1
    assert signed_distinct_sum(0, 7) == 1
    assert signed_distinct_sum(7, 2) == 1   # a_7 = +1
    assert signed_distinct_sum(11, 3) == 2  # b_11 = 2


def test_signed_enumeration_matches_tables():
    for mp in (1, 2, 3, 5):
        table = signed_distinct_table(60, mp)
        for n in range(61):
            assert signed_distinct_sum(n, mp) == table[n], (n, mp)


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


def test_argument_errors():
    with pytest.raises(UsageError):
        signed_distinct_sum(-1, 1)
    with pytest.raises(UsageError):
        signed_distinct_sum(5, 0)
    with pytest.raises(UsageError):
        eden_count(0, 5, 2)
    with pytest.raises(UsageError):
        one_mod_k_signed_sum(2, 5, 0)
