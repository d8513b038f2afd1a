"""The F_k family: direct sums, recurrences, tail splits, corrections."""

import functools
import hashlib
import random
from operator import add, sub

import pytest

from qbloch import fseries
from qbloch.classify import shat_bound
from qbloch.errors import UsageError
from qbloch.fseries import (CorrectionPoly, NoCorrectionError, F_backsolve,
                            F_direct, correction, eden_series,
                            f1_base_identity_check, one_mod_k_identity_check,
                            pentagonal_tail, recurrence_check, tail_split)
from qbloch.pentagonal import p1, p2, pnt_series
from qbloch.series import TruncSeries, _mul_one_minus, qq_poly

# heads and first tail terms in F_k coordinates (the shifted forms divided
# through by q^(k(k+1)/2))
P3_ITEMS = [(0, 1), (3, 1), (4, -1), (6, 1), (7, -1), (8, -1), (9, 2),
            (10, -1), (11, -1), (12, 1)]
P4_ITEMS = [(0, 1), (4, 1), (5, -1), (8, 1), (9, -1), (10, -1), (11, 1),
            (12, 1), (13, -1), (14, -1), (16, 2), (18, -2), (20, 1), (21, 1),
            (22, -1), (25, -1), (26, 1), (27, 1), (29, -1), (30, -2), (31, 2),
            (32, 1), (34, -1), (35, -1), (36, 1), (41, 1), (42, -1), (43, -1),
            (45, 1), (46, 1), (48, -1), (49, -1), (51, 1), (52, 1), (53, -1)]
T3_HEAD = [(16, -1), (20, -1), (29, 1), (34, 1), (45, -1)]
T4_HEAD = [(60, -1), (67, -1), (82, 1), (90, 1), (107, -1)]
T5_HEAD = [(161, 1), (172, 1), (195, -1), (207, -1)]
T6_HEAD = [(355, 1), (371, 1), (404, -1), (421, -1)]


def test_f1_is_one_minus_pnt_shifted():
    N = 200
    lhs = F_direct(1, None, N).shift(1)
    assert lhs == TruncSeries.one(N) - pnt_series(N)


def test_direct_respects_M():
    full = F_direct(2, None, 30)
    assert F_direct(2, 15, 30) == full  # j > 15 contributes beyond order 30
    assert F_direct(2, 3, 30) != full


@functools.lru_cache(maxsize=None)
def naive_q_factorial(j, N):
    # independent reference: (q;q)_j modulo q^(N+1), one full-length pass per
    # factor, no trimming and no degree tracking
    coeffs = [1] + [0] * N
    for d in range(1, min(j, N) + 1):
        for t in range(N, d - 1, -1):
            coeffs[t] -= coeffs[t - d]
    return tuple(coeffs)


def test_direct_against_a_sum_of_naive_products():
    # F_{k,M} = sum_{j <= M} q^(kj) (q;q)_j with every term built on its own,
    # at orders below, at and past k and at every cut M
    for k in range(1, 7):
        for M in (None, 0, 1, 3, 7):
            for N in (0, k - 1, k, 40, 120):
                ref = [0] * (N + 1)
                j = 0
                while k * j <= N and (M is None or j <= M):
                    prod = naive_q_factorial(j, N)
                    for t in range(k * j, N + 1):
                        ref[t] += prod[t - k * j]
                    j += 1
                got = F_direct(k, M, N)
                assert got.order == N
                assert got.coeffs == ref, (k, M, N)


def test_recurrence_small_grid():
    for k in range(1, 6):
        for M in range(1, 11):
            assert recurrence_check(k, M)


def test_one_mod_k_and_base_identities():
    for k in range(1, 6):
        for M in range(0, 9):
            assert one_mod_k_identity_check(k, M)
    for M in range(0, 21):
        assert f1_base_identity_check(M)


def test_backsolve_matches_direct():
    # covers every F_k (k = 1, 2, 3, 4, 6) that verify corrections builds
    # with F_backsolve at order 500
    for k in range(1, 7):
        assert F_backsolve(k, 500) == F_direct(k, None, 500)


def test_tail_split_shapes():
    for k, deg in ((3, 12), (4, 53), (5, 150), (6, 339)):
        split = tail_split(k, 600)
        assert split.tail_start_n == k * (k - 1) // 2 + 1
        assert split.shift == k * (k + 1) // 2
        assert split.P.degree() == deg
        assert split.tail_factor == qq_poly(k - 1)
        assert split.reconstruct(600) == F_direct(k, None, 600)


def test_tail_split_golden_heads():
    assert tail_split(3, 600).P.nonzero_items() == P3_ITEMS
    assert tail_split(4, 600).P.nonzero_items() == P4_ITEMS
    assert pentagonal_tail(3, 50).nonzero_items() == T3_HEAD
    assert pentagonal_tail(4, 110).nonzero_items() == T4_HEAD
    assert pentagonal_tail(5, 210).nonzero_items() == T5_HEAD
    assert pentagonal_tail(6, 425).nonzero_items() == T6_HEAD


def test_tail_terms_sit_on_shifted_pentagonal_numbers():
    for k in (3, 4, 5, 6):
        split = tail_split(k, 600)
        ns, shift = split.tail_start_n, split.shift
        tail = pentagonal_tail(k, 600)
        expect = {}
        n = ns
        while p1(n) - shift <= 600:
            sign = (-1) ** (n + k)
            expect[p1(n) - shift] = sign
            if p2(n) - shift <= 600:
                expect[p2(n) - shift] = sign
            n += 1
        assert dict(tail.nonzero_items()) == expect


def test_reconstruct_at_every_order_up_to_the_head():
    # orders below deg (q;q)_{k-1} = k(k-1)/2 included, where the factor
    # does not fit the order of the product
    for k in range(2, 7):
        split = tail_split(k, 500)
        full = F_direct(k, None, 500).coeffs
        for N in range(501):
            assert split.reconstruct(N) == TruncSeries(full[:N + 1], N), (k, N)


def test_tail_split_builds_the_factor_once(monkeypatch):
    # the head, the stored tail_factor and reconstruct share one (q;q)_{k-1}
    calls = []

    def counted(m):
        calls.append(m)
        return qq_poly(m)

    monkeypatch.setattr(fseries, "qq_poly", counted)
    split = tail_split(6, 500)
    assert split.reconstruct(500) == F_direct(6, None, 500)
    assert calls == [5]


def test_tail_split_argument_checks():
    with pytest.raises(UsageError):
        tail_split(1, 100)
    with pytest.raises(UsageError):
        tail_split(6, 100)  # too short to expose two tail terms
    split = tail_split(3, 300)
    with pytest.raises(UsageError):
        split.reconstruct(400)


def test_corrections_verbatim():
    assert correction(1).poly == TruncSeries.zero(0)
    assert correction(2).poly == TruncSeries.zero(0)
    assert dict(correction(3).poly.nonzero_items()) == {9: 1}
    assert dict(correction(4).poly.nonzero_items()) == {16: 1, 18: -1, 30: -1, 31: 1}
    f6 = dict(correction(6).poly.nonzero_items())
    assert len(f6) == 24
    assert f6[29] == 1 and f6[281] == -1 and f6[110] == -1 and f6[57] == 1
    assert sum(f6.values()) == 2  # 13 coefficients +1, 11 coefficients -1
    for k in (5, 7, 13):
        with pytest.raises(NoCorrectionError):
            correction(k)
    with pytest.raises(UsageError):
        correction(0)
    # a correction exists exactly where (q;q)_{k-1} has height 1
    for k in range(1, 41):
        if qq_poly(k - 1).max_abs()[0] >= 2:
            with pytest.raises(NoCorrectionError):
                correction(k)
        else:
            assert isinstance(correction(k), CorrectionPoly), k


def test_correction_is_derived_from_the_factor_height(monkeypatch):
    # (q;q)_5 given a coefficient -2 at q^1: copies of it in the tail would
    # leave {-1, 0, 1} beyond any degree, so correction(6) must raise
    def raised(m):
        factor = qq_poly(m)
        if m != 5:
            return factor
        coeffs = list(factor.coeffs)
        coeffs[1] *= 2
        return TruncSeries(coeffs, factor.order)

    monkeypatch.setattr(fseries, "qq_poly", raised)
    with pytest.raises(NoCorrectionError, match=r"h\(\(q;q\)_5\) = 2 at q\^1,"):
        correction(6)


def test_clamped_head_leaves_the_factor_height():
    # past its head F_k is non-overlapping copies of +-(q;q)_{k-1}, so
    # clamping the head to [-h, h], h the height of (q;q)_{k-1}, leaves F_k
    # at height exactly h to shat_bound(k), which covers one full copy; at
    # h = 1 that clamp excess is the correction
    for k in range(1, 31):
        h = qq_poly(k - 1).max_abs()[0]
        N = shat_bound(k)
        ns = k * (k - 1) // 2 + 1
        shift = k * (k + 1) // 2
        head = tail_split(k, p1(ns + 2) - shift).P.coeffs[:N + 1] if k > 1 else []
        excess = TruncSeries([c - h if c > h else c + h if c < -h else 0 for c in head], N)
        assert (F_backsolve(k, N) - excess).max_abs()[0] == h, k
        if k <= 10:
            assert (F_direct(k, None, N) - excess).max_abs()[0] == h, k
        if h == 1:
            assert excess == TruncSeries(correction(k).poly.coeffs, N), k


def test_corrected_series_are_bloch_polya():
    for k in (1, 2, 3, 4, 6):
        corr = correction(k).poly
        diff = F_direct(k, None, 500) - TruncSeries(list(corr.coeffs), 500)
        assert diff.is_bloch_polya()


def correction_text(k):
    # the order and coefficients of correction(k), or its exact refusal
    try:
        poly = correction(k).poly
    except NoCorrectionError as err:
        return f"{k}\t{err}\n"
    return f"{k}\t{poly.order}\t{poly.coeffs}\n"


#: SHA-256 of correction_text(k) for 1 <= k <= 40, recorded from the
#: correction that collected the clamp excess in a dict of exponents.
CORRECTIONS_SHA256 = "54a80bb3abadeaa745f1b2296cfcf0ffa4e4932e480aa1f5d28a03229587ea04"

#: SHA-256 of the lists P, tail(3000) and reconstruct(3000) of
#: tail_split(k, 3000), recorded from the builders that passed the head
#: and the tail between them as TruncSeries.
TAIL_SPLIT_SHA256 = {
    2: "9df61a36fe02e7828742bcf0181e2d92d8a482027ece5efaf9d0a7fdd68066b6",
    3: "17808eb16f41955e669fa61e00a2c6ccc171db1ee0cd945c8f7e25e19a514c0a",
    4: "8a6bca25be455bdac701ed805145323801d300e8a7f6ba5f60cb74e63f554a89",
    5: "cf4f984b18105a8cde41bcdb6561e9a5ca5900dd0e1696eb5b9305adb98a5e00",
    6: "1746fbbfd5f680d1394e6fc828bebab67e68a4db3ded733c5e06e1d2e3fb1747",
    7: "4af65d77f8642721a55fa1a8fcac8b6776e246864b5ab4a0c846af4996412629",
    8: "7084d18005656a3176543e6182c1b38b433e6186d53d59283a74543637d42458",
    9: "1261766612d5acaaa4b12b60dba661d8d1ead4f730d428b55430d26d9fa9e48c",
}


def test_corrections_to_40_are_pinned():
    text = "".join(correction_text(k) for k in range(1, 41))
    assert hashlib.sha256(text.encode()).hexdigest() == CORRECTIONS_SHA256


@pytest.mark.parametrize("k", sorted(TAIL_SPLIT_SHA256))
def test_tail_splits_are_pinned(k):
    split = tail_split(k, 3000)
    text = f"{split.P.coeffs}\t{split.tail(3000).coeffs}\t{split.reconstruct(3000).coeffs}"
    assert hashlib.sha256(text.encode()).hexdigest() == TAIL_SPLIT_SHA256[k]


def test_f5_fails_exactly_as_displayed():
    f5 = F_direct(5, None, 200)
    assert f5.coeff(21) == -2
    assert f5.coeff(30) == 3
    assert not f5.is_bloch_polya()
    # computed firsts: magnitude 2 appears at 20, magnitude 3 at 25
    assert f5.max_abs(upto=19) == (1, 0)
    assert f5.coeff(20) == 2
    assert all(abs(f5.coeff(e)) < 3 for e in range(25))
    assert f5.coeff(25) == 3
    p5 = tail_split(5, 600).P
    lo = min(c for c in p5.coeffs if c)
    hi = max(c for c in p5.coeffs if c)
    assert (lo, hi) == (-2, 3)


def test_non_correctable_tails_repeat_big_coefficients():
    # for k=5 and k>=7 the tail repeats shifted copies of (q;q)_{k-1},
    # which has a coefficient of magnitude >= 2; check the first two copies
    for k in (5, 7, 8, 9, 10, 11, 12):
        factor = qq_poly(k - 1)
        assert factor.max_abs()[0] >= 2
        ns = k * (k - 1) // 2 + 1
        shift = k * (k + 1) // 2
        N = p1(ns + 2) - shift
        f = F_direct(k, None, N)
        head_deg = tail_split(k, N).P.degree()
        sign = (-1) ** (ns + k)
        for start in (p1(ns) - shift, p2(ns) - shift):
            assert start > head_deg
            for d in range(factor.order + 1):
                assert f.coeff(start + d) == sign * factor.coeff(d)


def test_eden_series_signs():
    for k in (1, 2, 3):
        base = F_direct(k, None, 40).shift(k)
        expect = -base if k % 2 else base
        assert eden_series(k, 40) == expect
    assert eden_series(1, 10).coeff(0) == 0
    assert eden_series(1, 10).coeff(1) == -1


def test_eden_series_past_its_order_is_zero():
    # (-q)^k F_k starts at q^k; every order below k reads zero, including
    # N + 1 < k < 2(N + 1), where the shift once sliced from the far end
    for k, N in ((10, 3), (4, 3), (5, 3), (10, 5), (10, 8), (10, 9)):
        assert eden_series(k, N) == TruncSeries.zero(N), (k, N)


def tail_by_families(k, N):
    # the tail term by term: (-1)^(n+k) at p1(n) - shift and p2(n) - shift
    # for every n from the split index on
    ns = k * (k - 1) // 2 + 1
    shift = k * (k + 1) // 2
    coeffs = [0] * (N + 1)
    n = ns
    while p1(n) - shift <= N:
        for e in (p1(n) - shift, p2(n) - shift):
            if e <= N:
                coeffs[e] += (-1) ** (n + k)
        n += 1
    return TruncSeries(coeffs, N)


def test_pentagonal_tail_against_the_families():
    for k in range(1, 41):
        for N in (0, 1, 5, 50, 500, 3000):
            assert pentagonal_tail(k, N) == tail_by_families(k, N), (k, N)


def test_argument_validation():
    with pytest.raises(UsageError):
        F_direct(0, None, 10)
    with pytest.raises(UsageError):
        F_direct(2, -1, 10)
    with pytest.raises(UsageError):
        eden_series(0, 10)
    with pytest.raises(UsageError, match="got -5"):
        F_backsolve(1, -5)
    with pytest.raises(UsageError):
        pentagonal_tail(0, 5)
    assert isinstance(correction(3), CorrectionPoly)


def test_backsolve_matches_direct_around_the_prefactor():
    # orders below, at and above the q^(k(k+1)/2) prefactor the backsolved
    # form divides out
    for k in range(1, 13):
        shift = k * (k + 1) // 2
        for N in (0, 1, shift - 1, shift, shift + 1, 2 * shift + 7, 400):
            if N < 0:
                continue
            reference = F_direct(k, None, N)
            assert fseries._backsolved(k, N) == reference.coeffs, (k, N)
            assert F_backsolve(k, N) == reference, (k, N)
    with pytest.raises(UsageError):
        F_backsolve(0, 10)


def backsolved_by_binomials(k, N):
    # the backsolved representation built in full: the pentagonal series
    # times k-1 binomials, its finite terms cancelled below q^shift
    shift = k * (k + 1) // 2
    tail = pnt_series(N + shift).coeffs
    for d in range(1, k):
        _mul_one_minus(tail, d)
    sign = 1 if k % 2 == 0 else -1
    low = [sign * c for c in tail[:shift]]
    term = [1]
    for i in range(k):
        if i > 0:
            term.extend([0] * (k - i))
            _mul_one_minus(term, k - i)
        lo = (k - 1 - i) * (k - i) // 2
        hi = lo + len(term)
        low[lo:hi] = map(add if i % 2 == 0 else sub, low[lo:hi], term)
    if any(low):
        raise RuntimeError(
            f"backsolve for k={k} left nonzero coefficients below q^{shift}")
    return TruncSeries(tail[shift:] if sign == 1 else [-c for c in tail[shift:]], N)


def test_backsolve_matches_the_binomial_construction():
    for k in (13, 20, 25, 30):
        N = shat_bound(k)
        assert fseries._backsolved(k, N) == backsolved_by_binomials(k, N).coeffs, k


def test_backsolve_takes_the_slices_for_small_k(monkeypatch):
    # the orders the Shat classification reads and the f targets of the
    # expand benchmark are cheaper as slices of (q;q)_{k-1}
    def refuse(*args):
        raise AssertionError(f"direct sum taken for {args}")

    monkeypatch.setattr(fseries, "_partial_sums", refuse)
    for k in range(3, 31):
        assert F_backsolve(k, shat_bound(k)).order == shat_bound(k)
    for k, N in ((1, 4000), (3, 4000), (8, 5000)):
        assert F_backsolve(k, N).order == N


def test_backsolve_takes_the_direct_sum_for_large_k(monkeypatch):
    # past k ~ sqrt(N) the defining sum has few terms; the backsolved form
    # would build (q;q)_{k-1}, of degree k(k-1)/2, and is never entered
    cases = [(100_000, 10), (2000, 100), (150, 4000)]
    expected = [F_direct(k, None, N) for k, N in cases]
    assert fseries._backsolved(150, 4000) == expected[2].coeffs

    def refuse(k, N):
        raise AssertionError(f"backsolved route taken for k={k}, N={N}")

    monkeypatch.setattr(fseries, "_backsolved", refuse)
    assert [F_backsolve(k, N) for k, N in cases] == expected
    assert F_backsolve(100_000, 10).coeffs == [1] + [0] * 10


def partial_sums_by_full_carry(k, M, N, first=0, step=1):
    # the defining sum with (q;q^step)_j carried at full length N + 1 from
    # the start and cut per term, every zero past its degree multiplied too
    out = [0] * (N + 1)
    prod = [1] + [0] * N
    j = 0
    while first + k * j <= N and (M is None or j <= M):
        base = first + k * j
        del prod[N + 1 - base:]
        if j > 0:
            _mul_one_minus(prod, 1 + (j - 1) * step)
        out[base:] = map(add, out[base:], prod)
        j += 1
    return out


def test_partial_sums_against_the_full_length_carry():
    # random (k, M, N, first, step) with step 1 or k, plus the edges M = 0,
    # N = 0 and N < first, where the sum is N + 1 zeros; the route's carry,
    # which only F_backsolve takes (M = None, first = 0, step = 1), on the
    # same (k, N)
    rng = random.Random(25)
    cases = [(k, M, N, first, step)
             for k in (1, 2, 5) for M in (None, 0, 3) for N in (0, 1, 4)
             for first in (0, 1, 6) for step in {1, k}]
    for _ in range(1500):
        k = rng.randint(1, 16)
        cases.append((k, rng.choice([None, 0, rng.randint(0, 40)]), rng.randint(0, 250),
                      rng.randint(0, 30), rng.choice([1, k])))
    for k, M, N, first, step in cases:
        got = fseries._nested_sum(k, M, N, first, step)
        assert got == partial_sums_by_full_carry(k, M, N, first, step), (k, M, N, first, step)
        if N < first:
            assert got == [0] * (N + 1)
    for k, N in {(k, N) for k, _M, N, _first, _step in cases}:
        assert fseries._partial_sums(k, N) == partial_sums_by_full_carry(k, None, N), (k, N)


def test_direct_rewrites_one_region_per_term(monkeypatch):
    # term j of the Horner form multiplies the region of G_(j+1) by
    # (1 - q^(1+j)): N - k - (k+1)j coefficients past its q^(1+j)
    rewritten = []

    def counted(coeffs, d, lo=0):
        rewritten.append(max(0, len(coeffs) - lo - d))
        _mul_one_minus(coeffs, d, lo)

    monkeypatch.setattr(fseries, "_mul_one_minus", counted)
    for k, N, expected in ((1, 300, 22_500), (2, 500, 41_583), (6, 500, 17_679)):
        rewritten.clear()
        F_direct(k, None, N)
        assert sum(rewritten) == expected == sum(
            max(0, N - k - (k + 1) * j) for j in range(N + 1)), (k, N)


def test_backsolve_takes_the_sum_past_the_priced_tie(monkeypatch):
    # the sum adds N + 1 - kj coefficients for term j and is priced so; at
    # these pairs, past k^2 = 0.65 N, it beats the slices of (q;q)_{k-1}
    cases = [(173, 30310), (229, 53241), (90, 10000)]
    expected = [TruncSeries(partial_sums_by_full_carry(k, None, N), N) for k, N in cases]

    def refuse(k, N):
        raise AssertionError(f"backsolved route taken for k={k}, N={N}")

    monkeypatch.setattr(fseries, "_backsolved", refuse)
    assert [F_backsolve(k, N) for k, N in cases] == expected
