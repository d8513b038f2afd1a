"""Closed-form coefficient access for (q^2;q)_inf and (q^3;q)_inf."""

import random

import pytest

from qbloch.closed_form import a_coeff, b_coeff, first_appearance
from qbloch.errors import UsageError
from qbloch.pentagonal import p1, p2, pnt_series

N_EXPAND = 20000


@pytest.fixture(scope="module")
def expansions():
    pnt = pnt_series(N_EXPAND)
    q2 = pnt.div_binomial(1)
    q3 = q2.div_binomial(2)
    return q2.coeffs, q3.coeffs


def test_a_series_displayed_prefix(expansions):
    q2, _ = expansions
    shown = [1, 0, -1, -1, -1, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, -1]
    assert q2[:16] == shown
    assert [a_coeff(j).value for j in range(16)] == shown


def test_b_series_first_appearance_values(expansions):
    _, q3 = expansions
    for size, idx in ((2, 11), (3, 34), (4, 69), (5, 116), (6, 175), (7, 246)):
        assert q3[idx] == size
        assert b_coeff(idx).value == size
        # nothing of that magnitude earlier
        assert all(abs(c) < size for c in q3[:idx])


def test_first_appearance_matches_scan():
    assert [first_appearance(c) for c in range(2, 8)] == [11, 34, 69, 116, 175, 246]
    for c in range(2, 41):
        idx = first_appearance(c)
        assert b_coeff(idx).value == c
        # previous exponent in the same crest is smaller in magnitude
        assert abs(b_coeff(idx - 1).value) < c
    with pytest.raises(UsageError):
        first_appearance(0)


def test_closed_forms_match_expansion(expansions):
    q2, q3 = expansions
    for j in range(N_EXPAND + 1):
        assert a_coeff(j).value == q2[j]
    for i in range(N_EXPAND + 1):
        assert b_coeff(i).value == q3[i]


def test_a_run_structure(expansions):
    # run n starts at p2(n-1), holds 2n-1 copies of (-1)^(n+1), then n zeros
    q2, _ = expansions
    predicted = []
    n = 1
    while len(predicted) < N_EXPAND + 1:
        predicted.extend([(-1) ** (n + 1)] * (2 * n - 1))
        predicted.extend([0] * n)
        n += 1
    assert predicted[:N_EXPAND + 1] == q2[:N_EXPAND + 1]
    for n in range(1, 1000):
        start = p2(n - 1)
        sign = (-1) ** (n + 1)
        assert a_coeff(start).value == sign
        assert a_coeff(start + 2 * n - 2).value == sign
        if n > 1:
            assert a_coeff(start - 1).value == 0


def test_interval_sum_is_minus_one(expansions):
    # over I_n = [p2(2n), p1(2n+2)-1], each parity class of indices sums to -1
    q2, _ = expansions
    n = 0
    while p1(2 * n + 2) <= N_EXPAND:
        for r in (0, 1):
            total = sum(q2[j] for j in range(p2(2 * n), p1(2 * n + 2))
                        if j % 2 == r)
            assert total == -1, (n, r)
        n += 1
    for n in (100, 371, 1000):
        for r in (0, 1):
            total = sum(a_coeff(j).value for j in range(p2(2 * n), p1(2 * n + 2))
                        if j % 2 == r)
            assert total == -1, (n, r)


def test_b_is_strided_partial_sum_of_a(expansions):
    q2, q3 = expansions
    for i in range(0, 10000, 7):
        assert q3[i] == sum(q2[i - 2 * j] for j in range(i // 2 + 1))


def test_worked_large_example():
    i = 10 ** 100
    ans = b_coeff(i)
    assert ans.block.n == 40824829046386301636621401245098189866099124677611
    assert ans.case_tag == "rise"
    assert ans.value == -19888090251390639910818356938628130689602741018379


def test_b_branches_cover_every_index():
    tags = set()
    for i in range(0, 4000):
        tags.add(b_coeff(i).case_tag)
    assert tags == {"low-plateau", "rise", "crest-high", "crest-low", "fall"}


def test_a_values_stay_small_on_random_big_indices():
    rng = random.Random(31415)
    for _ in range(100000):
        j = rng.randrange(10 ** rng.randint(1, 60))
        assert a_coeff(j).value in (-1, 0, 1)


def test_negative_index_rejected():
    with pytest.raises(UsageError):
        a_coeff(-1)
    with pytest.raises(UsageError):
        b_coeff(-1)


def test_fall_near_a_googol_matches_the_docstring():
    # fall is n - ceil((i - p2(2n+1))/2) on [p2(2n+1)-1, p1(2n+2)-3]; the
    # ceiling is taken here from divmod, apart from b_coeff's own arithmetic
    n = b_coeff(10 ** 100).block.n
    start, end = p2(2 * n + 1) - 1, p1(2 * n + 2) - 3
    middle = (start + end) // 2
    for i in (start, start + 1, start + 2, middle, middle + 1, end - 1, end):
        quotient, remainder = divmod(i - p2(2 * n + 1), 2)
        answer = b_coeff(i)
        assert (answer.case_tag, answer.block.n) == ("fall", n), i
        assert answer.value == n - (quotient + (remainder > 0)), i
