"""Pentagonal families and exact block location."""

import random
import tracemalloc

import pytest

from qbloch.errors import UsageError
from qbloch.pentagonal import (PentaBlock, _pentagonal_floor, locate_block_a,
                               locate_block_b, p1, p2, pentagonal_index, pnt_series,
                               pnt_terms)
from qbloch.series import pochhammer


def test_family_values():
    assert [p1(n) for n in range(8)] == [0, 1, 5, 12, 22, 35, 51, 70]
    assert [p2(n) for n in range(8)] == [0, 2, 7, 15, 26, 40, 57, 77]


def test_pnt_series_equals_product():
    N = 10 ** 4
    assert pnt_series(N) == pochhammer(1, 1, None, N)


def test_pnt_series_holds_one_dense_list():
    # 250001 list slots take 1.9 MiB; a second copy of them would pass 2.5
    pnt_series(10)
    tracemalloc.start()
    try:
        series = pnt_series(250_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.nonzero_items() == pnt_terms(250_000)
    assert peak < 2.5 * 2 ** 20


def test_pnt_terms_are_the_theorem_support_in_order():
    for N in (*range(60), 100, 1000, 2000):
        terms = pnt_terms(N)
        exponents = [e for e, _c in terms]
        assert all(a < b for a, b in zip(exponents, exponents[1:])), N
        assert exponents == [e for e in range(N + 1) if pentagonal_index(e) is not None]
        for e, c in terms:
            n, _family = pentagonal_index(e)
            assert c == (-1) ** n, (N, e)
    assert pnt_terms(-1) == []


def test_pnt_series_is_filled_from_its_terms():
    for N in range(301):
        assert pnt_series(N).nonzero_items() == pnt_terms(N), N


def test_pentagonal_index_round_trip():
    for n in range(1, 2000):
        assert pentagonal_index(p1(n)) == (n, 1)
        assert pentagonal_index(p2(n)) == (n, 2)
    assert pentagonal_index(0) == (0, 1)
    support = {p1(n) for n in range(300)} | {p2(n) for n in range(300)}
    for e in range(p1(299)):
        got = pentagonal_index(e)
        assert (got is not None) == (e in support)


def test_pentagonal_floor_is_the_last_term_up_to_x():
    for x in range(20_001):
        terms = pnt_terms(x)
        n, family = _pentagonal_floor(x)
        assert terms[-1] == ((p1 if family == 1 else p2)(n), (-1) ** n), x
        assert 2 * n + (family == 2) == len(terms), x
    assert _pentagonal_floor(0) == (0, 2)


def _locate_by_bisection(pred) -> int:
    # reference for the exact locator _pentagonal_floor: the largest n >= 0
    # with pred(n), for monotone pred true at 0, by doubling then binary
    # search, no isqrt
    assert pred(0)
    hi = 1
    while pred(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_pentagonal_floor_against_bisection():
    rng = random.Random(24)
    for _ in range(2000):
        n = rng.randrange(1, 10 ** rng.randint(1, 60))
        for x in (p1(n) - 1, p1(n), p2(n) - 1, p2(n)):
            top = _locate_by_bisection(lambda m: p1(m) <= x)
            family = 2 if p2(top) <= x else 1
            assert _pentagonal_floor(x) == (top, family), x


def test_block_location_against_bisection():
    rng = random.Random(20240817)
    for _ in range(1500):
        digits = rng.randint(1, 100)
        j = rng.randrange(10 ** digits)
        blk = locate_block_a(j)
        ref = _locate_by_bisection(lambda n: p2(2 * n) <= j)
        assert blk.n == ref
        i = rng.randrange(10 ** digits)
        blk = locate_block_b(i)
        ref = _locate_by_bisection(lambda n: p1(2 * n) - 2 <= i)
        assert blk.n == ref


def test_block_contains_and_tiling():
    rng = random.Random(8877)
    for _ in range(20000):
        j = rng.randrange(10 ** rng.randint(1, 30))
        blk = locate_block_a(j)
        assert blk.contains(j)
        assert blk.lower <= j < blk.upper
        i = rng.randrange(10 ** rng.randint(1, 30))
        blk = locate_block_b(i)
        assert blk.contains(i)
        assert blk.lower <= i <= blk.upper


def test_blocks_tile_the_axis():
    # consecutive a-blocks share their boundary exactly
    blk = locate_block_a(0)
    for _ in range(500):
        nxt = locate_block_a(blk.upper)
        assert nxt.lower == blk.upper
        assert nxt.n == blk.n + 1
        blk = nxt
    blk = locate_block_b(0)
    for _ in range(500):
        nxt = locate_block_b(blk.upper + 1)
        assert nxt.lower == blk.upper + 1
        assert nxt.n == blk.n + 1
        blk = nxt


def test_b_block_lower_clamped_at_zero():
    blk = locate_block_b(0)
    assert blk.n == 0
    assert blk.lower == 0  # p1(0)-2 would be negative


def test_block_families_partition_each_block():
    for n in range(1, 60):
        a_lo, a_hi = p2(2 * n), p2(2 * n + 2)
        fams = [locate_block_a(j).family for j in range(a_lo, a_hi)]
        assert fams == (["plus-run"] * (p1(2 * n + 1) - p2(2 * n))
                        + ["zero-gap"] * (p2(2 * n + 1) - p1(2 * n + 1))
                        + ["minus-run"] * (p1(2 * n + 2) - p2(2 * n + 1))
                        + ["zero-tail"] * (p2(2 * n + 2) - p1(2 * n + 2)))


def test_negative_index_rejected():
    with pytest.raises(UsageError):
        locate_block_a(-1)
    with pytest.raises(UsageError):
        locate_block_b(-5)
    assert pentagonal_index(-2) is None  # negative exponents are not pentagonal


def test_huge_index_block():
    n = 10 ** 100
    blk = locate_block_b(n)
    assert blk.n == 40824829046386301636621401245098189866099124677611
    assert blk.contains(n)
    assert blk.kind == "b"
