"""Acceptance gate: one test per end-to-end criterion, run with -v for one
pass/fail line each.  Every expected number here is an exact integer; the
timed criteria assert their wall-clock bounds after the exact checks."""

import random
import time

import pytest

from qbloch.classify import (build_s_table, conjecture_scan, eden_class,
                             shat_bound, window_check, window_detail)
from qbloch.cli import main
from qbloch.closed_form import a_coeff, b_coeff, first_appearance
from qbloch.fseries import (F_backsolve, F_direct, NoCorrectionError,
                            correction, eden_series, f1_base_identity_check,
                            one_mod_k_identity_check, recurrence_check,
                            tail_split)
from qbloch.oracle import (eden_count, eden_signed_sum, signed_distinct_sum,
                           signed_distinct_table)
from qbloch.pentagonal import locate_block_a, locate_block_b, p1, pnt_series
from qbloch.series import TruncSeries, pochhammer, qq_poly


def test_01_huge_index_coefficient_under_one_second():
    """b at index 10^100: exact value and block, in under a second."""
    i = 10 ** 100
    t0 = time.perf_counter()
    answer = b_coeff(i)
    elapsed = time.perf_counter() - t0
    assert answer.value == -19888090251390639910818356938628130689602741018379
    assert answer.block.n == 40824829046386301636621401245098189866099124677611
    assert elapsed < 1.0


def test_02_closed_forms_match_expansions_to_100000():
    """a and b closed forms equal the truncated products at every index
    up to 10^5, in under a minute."""
    N = 100_000
    t0 = time.perf_counter()
    q2 = pnt_series(N).div_binomial(1)
    q3 = q2.div_binomial(2)
    av, bv = q2.coeffs, q3.coeffs
    for n in range(N + 1):
        assert a_coeff(n).value == av[n], n
        assert b_coeff(n).value == bv[n], n
    assert time.perf_counter() - t0 < 60.0


def test_03_first_appearance_of_each_magnitude():
    assert [first_appearance(c) for c in range(2, 8)] == [11, 34, 69, 116, 175, 246]


def test_04_max_coefficient_table_through_height_five():
    """The table of m grouped by max |coefficient| of (q;q)_m, heights 1..5,
    with the exact per-height cutoffs, in under ten minutes."""
    t0 = time.perf_counter()
    table = build_s_table(5)
    elapsed = time.perf_counter() - t0
    assert table.horizon == 329
    assert table.rows == {
        1: ((0, 1, 2, 3, 5), 69),
        2: ((4, 6, 7, 8, 9, 11), 116),
        3: ((10, 13, 14), 175),
        4: ((12, 15), 246),
        5: ((17,), 329),
    }
    assert elapsed < 600.0


def test_05_eden_heights_through_fifteen():
    """Max |coefficient| of F_k for k = 1..15, each scanned to its bound,
    in under five minutes."""
    expected = [1, 1, 2, 2, 3, 2, 4, 3, 4, 6, 7, 6, 8, 7, 8]
    t0 = time.perf_counter()
    for k, h in zip(range(1, 16), expected):
        record = eden_class(k)
        assert (record.h, record.bound_used) == (h, shat_bound(k)), k
    elapsed = time.perf_counter() - t0
    assert shat_bound(15) == 16786
    assert elapsed < 300.0


def test_06_product_sign_gate_and_windows():
    """(q;q)_m has all coefficients in {-1,0,1} exactly for m in {0,1,2,3,5}
    among m <= 69; the window inequality holds for every m in (69, 200] and
    for the m = 42 single-value check."""
    flat = {m for m in range(70) if qq_poly(m).is_bloch_polya()}
    assert flat == {0, 1, 2, 3, 5}
    assert all(window_check(m) for m in range(70, 201))
    rec = window_detail(42)
    assert (rec.exponent, rec.value, rec.ok) == (51, 2, True)


def test_07_eden_corrections():
    """F_1, F_2 stay in {-1,0,1}; subtracting the stored corrections keeps
    F_3, F_4, F_6 there up to 33, 76, 370; F_5 admits no correction, leaving
    {-1,0,1} with the displayed -2 q^21 and +3 q^30 among its witnesses."""
    for k in (1, 2):
        assert F_direct(k, None, shat_bound(k)).is_bloch_polya()
        assert correction(k).poly == TruncSeries.zero(0)
    for k, horizon in ((3, 33), (4, 76), (6, 370)):
        corr = correction(k).poly
        diff = F_direct(k, None, horizon) - TruncSeries(list(corr.coeffs), horizon)
        assert diff.is_bloch_polya(), k

    f5 = F_direct(5, None, shat_bound(5))
    assert not f5.is_bloch_polya()
    assert f5.coeff(21) == -2
    assert f5.coeff(30) == 3
    # the displayed witnesses are not quite the earliest ones:
    assert f5.max_abs(upto=19) == (1, 0)
    assert f5.coeff(20) == 2
    assert all(abs(f5.coeff(n)) < 3 for n in range(25))
    assert f5.coeff(25) == 3
    with pytest.raises(NoCorrectionError):
        correction(5)


def test_08_identity_grids():
    """The finite recurrence on (k, M) in [1,10]x[1,50]; the one-mod-k sum
    for k <= 8, M <= 30; the base identity for M <= 50; direct-vs-backsolved
    agreement for k <= 8 at order 2000; and the three-term window decomposition
    for m in (69, 200] -- all exact, in under two minutes."""
    t0 = time.perf_counter()
    assert all(recurrence_check(k, M)
               for k in range(1, 11) for M in range(1, 51))
    assert all(one_mod_k_identity_check(k, M)
               for k in range(1, 9) for M in range(0, 31))
    assert all(f1_base_identity_check(M) for M in range(0, 51))
    for k in range(1, 9):
        assert F_backsolve(k, 2000) == F_direct(k, None, 2000), k
    b69 = b_coeff(69).value
    pnt = pnt_series(469)
    for m in range(70, 201):
        e = 2 * m + 69
        direct = pochhammer(1, 1, m - 1, e).coeff(e)
        assert direct == pnt.coeff(e) + a_coeff(m + 69).value + b69, m
    assert time.perf_counter() - t0 < 120.0


def test_09_enumeration_equivalence_and_tail_splits():
    """Signed distinct-part sums reproduce the three coefficient sequences
    for all n <= 200 (term-by-term enumeration cross-checked to n <= 100,
    the independent table implementation carrying the rest); Eden counts
    reproduce (-q)^k F_k for k <= 3, n <= 80; and the head-plus-tail
    reconstructions for k in {3,4,5,6} are exact with the stated starts."""
    N, ENUM_CAP = 200, 100
    pnt = pnt_series(N)
    refs = {1: pnt.coeffs, 2: pnt.div_binomial(1).coeffs,
            3: pnt.div_binomial(1).div_binomial(2).coeffs}
    for mp, ref in refs.items():
        table = signed_distinct_table(N, mp)
        assert table == ref
        for n in range(ENUM_CAP + 1):
            assert signed_distinct_sum(n, mp) == table[n], (n, mp)
    for n in range(N + 1):
        assert refs[2][n] == a_coeff(n).value
        assert refs[3][n] == b_coeff(n).value

    for k in (1, 2, 3):
        ref = eden_series(k, 80)
        for n in range(1, 81):
            assert eden_signed_sum(k, n) == ref.coeff(n), (k, n)
        for n in range(1, 41):
            alternating = sum((-1) ** m * eden_count(k, n, m)
                              for m in range(1, n + 1))
            assert alternating == ref.coeff(n), (k, n)

    # tail starts, in both coordinate systems: raw first pentagonal index,
    # and after the q^(k(k+1)/2) shift
    starts = {3: (22, 16), 4: (70, 60), 5: (176, 161), 6: (376, 355)}
    for k, (raw, shifted) in starts.items():
        split = tail_split(k, 600)
        assert p1(split.tail_start_n) == raw
        assert p1(split.tail_start_n) - split.shift == shifted
        tail = split.tail(600)
        assert next(iter(tail.nonzero_items()))[0] == shifted
        assert split.reconstruct(600) == F_direct(k, None, 600), k
    assert {p1(tail_split(k, 600).tail_start_n) for k in (3, 4)} == {22, 70}
    assert {p1(tail_split(k, 600).tail_start_n) - tail_split(k, 600).shift
            for k in (5, 6)} == {161, 355}


def test_10_randomized_properties_and_determinism(capsys):
    """Ring and round-trip laws on >= 1000 randomized cases; block location
    round-trips on 10^6 random indices up to 10^100; byte-identical table
    output from any --workers value."""
    rng = random.Random(20260819)

    def rand_series(order):
        return TruncSeries([rng.randint(-9, 9) for _ in range(order + 1)], order)

    cases = 0
    for _ in range(150):
        n = rng.randint(0, 64)
        a, b, c = rand_series(n), rand_series(n), rand_series(n)
        one, zero = TruncSeries.one(n), TruncSeries.zero(n)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a + zero == a
        assert a - a == zero
        d = rng.randint(1, 6)
        assert a.mul_binomial(d, -1).div_binomial(d) == a
        assert a.div_binomial(d).mul_binomial(d, -1) == a
        cases += 10
    assert cases >= 1000

    top = 10 ** 100
    for locate in (locate_block_a, locate_block_b):
        for _ in range(500_000):
            i = rng.randrange(top)
            blk = locate(i)
            assert blk.contains(i), (locate.__name__, i)

    for argv in (["table", "S", "3"], ["table", "Shat", "8"]):
        outs = []
        for workers in ("1", "4"):
            assert main(argv + ["--workers", workers]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].startswith(f"# table {argv[1]} ")
        assert outs[1] == outs[0]


def test_11_conjecture_scan_reports_empirical_only():
    """The conjecture scan runs and labels its findings as empirical
    observations; nothing here asserts the conjecture itself."""
    report = conjecture_scan(8)
    assert report.label == "EMPIRICAL"
    assert report.h_max == 8
    assert isinstance(report.union, tuple)
    assert report.notes
