"""Ring laws and exact-arithmetic behavior of TruncSeries."""

import random

import pytest

from qbloch.errors import UsageError
from qbloch import series
from qbloch.cli import main
from qbloch.series import (TruncSeries, _carried_products, _tail_coeff, _tails,
                           pochhammer, qq_poly)


def random_series(rng, order, density=0.5, bound=9):
    coeffs = [rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(order + 1)]
    return TruncSeries(coeffs, order)


def naive_product(a, b):
    # independent reference: plain double loop, no sparsity tricks
    n = a.order
    out = [0] * (n + 1)
    for i, x in enumerate(a.coeffs):
        for j in range(n + 1 - i):
            out[i + j] += x * b.coeffs[j]
    return TruncSeries(out, n)


def test_ring_laws_randomized():
    rng = random.Random(987123)
    cases = 0
    for _ in range(150):
        order = rng.randint(0, 128)
        a = random_series(rng, order)
        b = random_series(rng, order)
        c = random_series(rng, order)
        one = TruncSeries.one(order)
        zero = TruncSeries.zero(order)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a and a * zero == zero
        assert a - b == a + (-b)
        assert a + zero == a
        cases += 8
    assert cases >= 1000


def test_mul_against_naive_reference():
    rng = random.Random(55331)
    for _ in range(60):
        order = rng.randint(1, 512)
        a = random_series(rng, order, density=rng.uniform(0.05, 0.9))
        b = random_series(rng, order, density=rng.uniform(0.05, 0.9))
        assert a * b == naive_product(a, b)


def test_binomial_round_trips():
    rng = random.Random(4242)
    for _ in range(200):
        order = rng.randint(1, 96)
        a = random_series(rng, order)
        d = rng.randint(1, order)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        # mul_binomial is exactly multiplication by 1 + c q^d
        binom = TruncSeries([1] + [0] * (d - 1) + [c], order)
        assert a.mul_binomial(d, c) == a * binom
        # dividing by 1 - q^d inverts multiplying by it, both ways
        assert a.mul_binomial(d, -1).div_binomial(d) == a
        assert a.div_binomial(d).mul_binomial(d, -1) == a


def test_shift_and_degree():
    s = TruncSeries([1, 0, -2, 0, 5], 4)
    assert s.shift(2).coeffs == [0, 0, 1, 0, -2]
    assert s.degree() == 4
    assert TruncSeries.zero(7).degree() == -1
    a = TruncSeries([0, 3, 0, 0], 3)
    b = TruncSeries([0, 0, -1, 0], 3)
    assert (a * b).degree() == 3  # 3*q * -q^2


def test_shift_past_the_order_truncates_to_zero():
    rng = random.Random(7)
    for order in (0, 1, 5, 12):
        s = random_series(rng, order)
        for e in range(order + 4):
            # q^e * s, term by term, cut at the order
            naive = [0] * (order + 1)
            for t, c in enumerate(s.coeffs):
                if t + e <= order:
                    naive[t + e] = c
            assert s.shift(e) == TruncSeries(naive, order), (order, e)
    assert TruncSeries([1, 2, 3, 4, 5, 6]).shift(7) == TruncSeries.zero(5)


def test_dense_readers_match_their_plain_definitions():
    rng = random.Random(11)
    for order in (0, 1, 3, 7, 40, 300):
        for density in (0.0, 0.1, 0.5, 1.0):
            s = random_series(rng, order, density)
            coeffs = s.coeffs
            items = [(t, coeffs[t]) for t in range(len(coeffs)) if coeffs[t]]
            assert s.nonzero_items() == items
            head = ", ".join(f"{v}*q^{t}" for t, v in items[:6])
            more = "" if len(items) <= 6 else ", ..."
            assert repr(s) == f"TruncSeries({head or '0'}{more}; order={order})"
            for upto in range(order + 1):
                best = max(abs(v) for v in coeffs[:upto + 1])
                witness = min(t for t in range(upto + 1) if abs(coeffs[t]) == best)
                assert s.max_abs(upto) == (best, witness), (order, upto)
                assert s.is_bloch_polya(upto) == (best <= 1), (order, upto)


def test_known_pochhammer_polynomials():
    q4 = qq_poly(4)
    assert q4.coeffs == [1, -1, -1, 0, 0, 2, 0, 0, -1, -1, 1]
    q5 = qq_poly(5)
    expect = {0: 1, 1: -1, 2: -1, 5: 1, 6: 1, 7: 1, 8: -1, 9: -1, 10: -1,
              13: 1, 14: 1, 15: -1}
    assert dict(q5.nonzero_items()) == expect
    assert q5.order == 15
    assert q4.max_abs() == (2, 5)
    assert not q4.is_bloch_polya()
    assert q5.is_bloch_polya()


def test_pochhammer_argument_checks():
    with pytest.raises(UsageError):
        pochhammer(0, 1, None, 10)
    with pytest.raises(UsageError):
        pochhammer(1, 0, None, 10)
    with pytest.raises(UsageError):
        pochhammer(1, 1, -1, 10)
    assert pochhammer(1, 1, 0, 5) == TruncSeries.one(5)


def test_infinite_product_stops_at_order():
    # factors with exponent beyond N cannot change the truncation
    assert pochhammer(3, 1, None, 12) == pochhammer(3, 1, 10, 12)


def test_divided_path_matches_literal_product():
    # (q^2;q)_inf = (q;q)_inf / (1-q), (q^3;q)_inf further / (1-q^2)
    from qbloch.pentagonal import pnt_series
    N = 400
    pnt = pnt_series(N)
    assert pnt.div_binomial(1) == pochhammer(2, 1, None, N)
    assert pnt.div_binomial(1).div_binomial(2) == pochhammer(3, 1, None, N)


def test_order_mismatch_rejected():
    a = TruncSeries([1, 2], 1)
    b = TruncSeries([1, 2, 3], 2)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(UsageError):
            op()


def test_coeff_bounds_and_eq():
    s = TruncSeries([4, 0, -1], 2)
    assert s.coeff(0) == 4 and s.coeff(2) == -1
    with pytest.raises(UsageError):
        s.coeff(3)
    with pytest.raises(UsageError):
        s.coeff(-1)
    assert s != TruncSeries([4, 0, -1, 0], 3)  # same values, different order


def test_constructor_validation():
    with pytest.raises(UsageError):
        TruncSeries([], None)
    with pytest.raises(UsageError):
        TruncSeries([1, 2, 3], 1)  # more coefficients than the order allows
    with pytest.raises(UsageError):
        TruncSeries([1], -1)
    padded = TruncSeries([1], 3)
    assert padded.coeffs == [1, 0, 0, 0]


def test_max_abs_variants():
    s = TruncSeries([0, -3, 2, 3], 3)
    assert s.max_abs() == (3, 1)  # smallest witness wins
    assert s.max_abs(upto=2) == (3, 1)
    assert s.max_abs(upto=0) == (0, 0)
    assert TruncSeries.zero(5).max_abs() == (0, 0)
    assert s.is_bloch_polya(upto=0)
    assert not s.is_bloch_polya()


def naive_pochhammer(start, step, L, N):
    # independent reference: every factor is one full-length pass, with no
    # degree tracking, no division and no mirroring
    coeffs = [1] + [0] * N
    i, d = 0, start
    while (L is None or i < L) and d <= N:
        for t in range(N, d - 1, -1):
            coeffs[t] -= coeffs[t - d]
        i += 1
        d += step
    return coeffs


def test_pochhammer_against_naive_reference_randomized():
    rng = random.Random(20260418)
    for _ in range(400):
        start = rng.randint(1, 12)
        step = rng.randint(1, 4)
        L = rng.choice([None, 0, rng.randint(1, 4), rng.randint(1, 25)])
        if L is None:
            N = rng.randint(0, 300)
        else:
            full = L * start + step * L * (L - 1) // 2
            N = rng.randint(0, full + 5)
        got = pochhammer(start, step, L, N)
        assert got.order == N
        assert got.coeffs == naive_pochhammer(start, step, L, N), (start, step, L, N)


def test_pochhammer_mirror_boundaries():
    # orders around half the full degree D and around D itself, for an even
    # and an odd number of factors, with even and odd D
    for start, step, L in ((1, 1, 12), (1, 1, 13), (2, 3, 9), (3, 2, 10), (1, 1, 1), (5, 1, 2)):
        D = L * start + step * L * (L - 1) // 2
        for N in (D // 2 - 1, D // 2, D // 2 + 1, D - 1, D, D + 1):
            if N < 0:
                continue
            assert pochhammer(start, step, L, N).coeffs == \
                naive_pochhammer(start, step, L, N), (start, step, L, N)


def test_infinite_products_on_both_routes():
    # (q^s;q)_inf divides (q;q)_inf when s is small against N and multiplies
    # the factors in when s is close to N; both must equal the reference
    for start in (1, 2, 3, 7, 30, 55, 60, 61, 62):
        for N in (0, 1, 60, 61):
            assert pochhammer(start, 1, None, N).coeffs == \
                naive_pochhammer(start, 1, None, N), (start, N)
    assert pochhammer(3, 1, None, 2000).coeffs == naive_pochhammer(3, 1, None, 2000)


def test_pochhammer_rejects_negative_order():
    with pytest.raises(UsageError):
        pochhammer(1, 1, 3, -1)


def carried_pochhammer(m, N):
    # the factor-by-factor route, carried to order N with no mirroring
    for coeffs in _carried_products(1, 1, m, N):
        pass
    return coeffs + [0] * (N + 1 - len(coeffs))


def test_carried_products_honour_a_reader_cut():
    # a reader that shortens the shared list sees the uncut products on the
    # kept prefix, and the list never grows back past the cut
    rng = random.Random(25)
    for start, step, L, T in ((1, 1, 30, 200), (1, 3, 12, 150), (2, 1, 20, 60),
                              (1, 1, 8, 10), (4, 4, 9, 0)):
        uncut = [list(coeffs) for coeffs in _carried_products(start, step, L, T)]
        cut = None
        for i, coeffs in enumerate(_carried_products(start, step, L, T)):
            assert coeffs == uncut[i][:cut], (start, step, L, T, i)
            if len(coeffs) > 1 and rng.random() < 0.3:
                cut = rng.randint(1, len(coeffs) - 1)
                del coeffs[cut:]
        assert i == len(uncut) - 1


def test_q_factorial_against_naive_and_carried_routes():
    # (q;q)_m is built from (q;q)_inf and its tail; both references
    # multiply the m factors in, one with no degree tracking at all
    for m in range(61):
        D = m * (m + 1) // 2
        for N in (0, 1, m, m + 1, 2 * m + 2, D // 2 - 1, D // 2, D // 2 + 1, D, D + 3):
            if N < 0:
                continue
            got = pochhammer(1, 1, m, N)
            assert got.order == N
            assert got.coeffs == naive_pochhammer(1, 1, m, N), (m, N)
            assert got.coeffs == carried_pochhammer(m, N), (m, N)


def test_q_factorial_300_at_full_degree():
    # the benchmark's `expand poch 300 45150`
    assert pochhammer(1, 1, 300, 45150).coeffs == carried_pochhammer(300, 45150)


def test_expand_poch_never_carries_the_factors(monkeypatch, capsys):
    expected = TruncSeries(naive_pochhammer(1, 1, 150, 11325), 11325).nonzero_items()

    def refuse(*_args):
        raise AssertionError("the carried route was taken")

    monkeypatch.setattr(series, "_carried_products", refuse)
    assert main(["expand", "poch", "150", "11325"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [tuple(map(int, line.split("\t"))) for line in lines[1:]] == expected


def test_tails_read_every_q_factorial_below_seven_windows():
    # (q;q)_m = sum_k q^(k(m+1)) (q^(k+1);q)_inf read from seven tails one
    # coefficient at a time against the factor-by-factor reference; the
    # reads run past the degree, where every sum must be 0
    top = 60
    tails = list(_tails([(7 - j) * (top + 1) for j in range(7)]))
    for m in range(top + 1):
        s = m + 1
        ref = naive_pochhammer(1, 1, m, 7 * s - 1)
        for t in range(7 * s):
            assert _tail_coeff(tails, s, t) == ref[t], (m, t)

