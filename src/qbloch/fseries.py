"""The Eden family F_{k,M}(q) = sum of q^(kj) (q;q)_j for j <= M, and its limit F_k.

Covers direct expansion, the finite recurrence between consecutive k, the
parts-1-mod-k identity, the backsolved representation through (q;q)_infinity,
tail-splitting into head-polynomial-plus-pentagonal-tail form, and the finite
correction polynomials that repair F_k to coefficients in {-1,0,1} where that
is possible (k = 1, 2, 3, 4, 6 and no other k).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .errors import UsageError
from .pentagonal import p1, p2, pnt_series
from .series import TruncSeries, _mul_one_minus, pochhammer, qq_poly


class NoCorrectionError(Exception):
    """Raised for k where no polynomial correction to {-1,0,1} coefficients exists."""


#: Finite corrections, exponent -> coefficient.  k=1,2 need none; for k=5 and
#: k >= 7 none exists because shifted copies of (q;q)_{k-1} recur in the tail
#: with coefficients of magnitude >= 2.
_CORRECTIONS = {
    1: {},
    2: {},
    3: {9: 1},
    4: {16: 1, 18: -1, 30: -1, 31: 1},
    6: {29: 1, 32: -1, 36: 1, 38: -1, 43: 1, 45: -1, 50: 1, 56: -1, 57: 1,
        58: 1, 62: -1, 63: -1, 64: 1, 71: 1, 80: -1, 81: -1, 84: 1, 85: 1,
        106: 1, 110: -1, 239: -1, 241: 1, 280: 1, 281: -1},
}


def F_direct(k: int, M, N: int) -> TruncSeries:
    """F_{k,M}(q) modulo q^(N+1); M=None takes the limit (j stops at N//k).

    The reference expansion of the defining sum, O(N^2 / k) work.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if M is not None and M < 0:
        raise UsageError(f"M must be >= 0, got {M}")
    return TruncSeries(_partial_sums(k, M, N), N)


def _partial_sums(k: int, M, N: int, first: int = 0, step: int = 1) -> list:
    """Coefficients to q^N of sum_{j <= M} q^(first+kj) (q;q^step)_j.

    (q;q^step)_j is carried in one list across j.  Step j cuts it to the
    coefficients still read, multiplies it by (1 - q^(1+(j-1)step)) in
    place and adds it into the sum from q^(first+kj) on: about 2(N - kj)
    updates for each of the N//k + 1 terms.
    """
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


def recurrence_check(k: int, M: int, N=None) -> bool:
    """Exact polynomial identity between consecutive k:

        q^(k+1) F_{k+1,M} == 1 + (q^k - 1) F_{k,M} - q^(k(M+1)) (q;q)_{M+1}

    Both sides have degree k(M+1) + (M+1)(M+2)/2; N defaults to it and a
    smaller explicit N is a usage error.
    """
    if k < 1 or M < 1:
        raise UsageError("recurrence_check needs k >= 1 and M >= 1")
    need = k * (M + 1) + (M + 1) * (M + 2) // 2
    if N is None:
        N = need
    elif N < need:
        raise UsageError(f"order {N} below the identity degree {need}")
    lhs = F_direct(k + 1, M, N).shift(k + 1)
    f_km = F_direct(k, M, N)
    rhs = TruncSeries.one(N) + f_km.shift(k) - f_km
    rhs = rhs - pochhammer(1, 1, M + 1, N).shift(k * (M + 1))
    return lhs == rhs


def one_mod_k_identity_check(k: int, M: int) -> bool:
    """Exact identity for parts congruent 1 mod k:

        sum_{j=0}^{M} q^(kj+1) (q;q^k)_j == 1 - (q;q^k)_{M+1}
    """
    if k < 1 or M < 0:
        raise UsageError("one_mod_k_identity_check needs k >= 1 and M >= 0")
    N = (M + 1) + k * M * (M + 1) // 2
    lhs = TruncSeries(_partial_sums(k, M, N, 1, k), N)
    return lhs == TruncSeries.one(N) - pochhammer(1, k, M + 1, N)


def f1_base_identity_check(M: int) -> bool:
    """Exact base identity q F_{1,M} == 1 - (q;q)_{M+1}."""
    if M < 0:
        raise UsageError(f"M must be >= 0, got {M}")
    N = (M + 1) * (M + 2) // 2
    lhs = F_direct(1, M, N).shift(1)
    rhs = TruncSeries.one(N) - pochhammer(1, 1, M + 1, N)
    return lhs == rhs


def F_backsolve(k: int, N: int) -> TruncSeries:
    """F_k(q) modulo q^(N+1) by the cheaper of two exact routes.

    While k(k+1)/2 is small against N this is the backsolved representation
    (_backsolved), O(k(N + k^2)) work.  For larger k the defining sum has
    only N//k + 1 terms and costs less; it is taken then, so the work never
    exceeds O(N^1.5) whatever k is.  Must agree with F_direct.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    shift = k * (k + 1) // 2
    # coefficient updates per route: k passes over N + shift coefficients
    # plus the finite terms, against N//k + 1 terms of about N each, which
    # were measured to cost about 3:2 per update
    if 3 * (N // k + 1) * (N + 1) < 2 * k * (N + 2 * shift):
        return TruncSeries(_partial_sums(k, None, N), N)
    return _backsolved(k, N)


def _backsolved(k: int, N: int) -> TruncSeries:
    """F_k(q) modulo q^(N+1) through the backsolved representation

        q^(k(k+1)/2) F_k = sum_{i=0}^{k-1} (-1)^i (q^(k-i);q)_i q^((k-1-i)(k-i)/2)
                           + (-1)^k (q;q)_{k-1} (q;q)_infinity

    divided by the q^(k(k+1)/2) prefactor.  The tail is the pentagonal
    expansion times k-1 binomials, O(k(N + k^2)) work.  Every finite term
    has degree k(k-1)/2, below the prefactor, so the terms only have to
    cancel the tail there; a leftover is an error.  They are built one from
    the next, (q^(k-i);q)_i = (1 - q^(k-i)) (q^(k-i+1);q)_(i-1), O(k^3).
    """
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


@dataclass(frozen=True)
class TailSplit:
    """F_k split as P(q) + (q;q)_{k-1} * T(q) with a pure pentagonal tail.

    T = sum over n >= tail_start_n of (-1)^(n+k) (q^(p1(n)-shift) + q^(p2(n)-shift)),
    shift = k(k+1)/2, and tail_start_n = k(k-1)/2 + 1 is the least n whose
    pentagonal gaps exceed deg (q;q)_{k-1}, so the shifted factor copies in
    the tail never overlap.
    """

    k: int
    P: TruncSeries
    tail_factor: TruncSeries
    tail_start_n: int
    shift: int

    def tail(self, N: int) -> TruncSeries:
        return pentagonal_tail(self.k, N)

    def reconstruct(self, N: int) -> TruncSeries:
        """P + tail_factor * T at order N; must reproduce F_direct exactly.
        P is built from F_backsolve, so that comparison checks two
        independent constructions."""
        if N > self.P.order:
            raise UsageError(f"order {N} exceeds the stored head order {self.P.order}")
        factor = TruncSeries(list(self.tail_factor.coeffs), N)
        head = TruncSeries(self.P.coeffs[:N + 1], N)
        return head + factor * pentagonal_tail(self.k, N)


def pentagonal_tail(k: int, N: int) -> TruncSeries:
    """The signed pentagonal tail T(q) of the k-th split, truncated at N."""
    ns = k * (k - 1) // 2 + 1
    shift = k * (k + 1) // 2
    coeffs = [0] * (N + 1)
    n = ns
    while p1(n) - shift <= N:
        s = 1 if (n + k) % 2 == 0 else -1
        e = p1(n) - shift
        coeffs[e] += s
        e = p2(n) - shift
        if e <= N:
            coeffs[e] += s
        n += 1
    return TruncSeries(coeffs, N)


def tail_split(k: int, N: int) -> TailSplit:
    """Split F_k at the pentagonal index where gaps outgrow deg (q;q)_{k-1}.

    Needs k >= 2 and N large enough to see at least two tail terms.
    """
    if k < 2:
        raise UsageError(f"tail_split needs k >= 2, got {k}")
    ns = k * (k - 1) // 2 + 1
    shift = k * (k + 1) // 2
    if N < p1(ns + 2) - shift:
        raise UsageError(
            f"order {N} too small; need at least {p1(ns + 2) - shift} "
            f"to expose two tail terms for k={k}")
    factor_full = qq_poly(k - 1)
    factor_n = TruncSeries(list(factor_full.coeffs), N)
    head = F_backsolve(k, N) - factor_n * pentagonal_tail(k, N)
    first_tail_exp = p1(ns) - shift
    if head.degree() >= first_tail_exp:
        raise RuntimeError(
            f"tail split for k={k} left head terms at or past q^{first_tail_exp}")
    return TailSplit(k=k, P=head, tail_factor=factor_full,
                     tail_start_n=ns, shift=shift)


@dataclass(frozen=True)
class CorrectionPoly:
    """Finite polynomial f with F_k - f of Bloch-Polya type."""

    k: int
    poly: TruncSeries


def correction(k: int) -> CorrectionPoly:
    """The correction polynomial for k in {1,2,3,4,6}; k=1,2 get the zero poly.

    For k=5 and k >= 7 no finite correction exists: the tail of F_k repeats
    shifted copies of (q;q)_{k-1}, whose coefficients leave {-1,0,1}, beyond
    any fixed degree.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if k not in _CORRECTIONS:
        raise NoCorrectionError(
            f"no polynomial correction exists for k={k}: magnitude >= 2 "
            f"coefficients recur in the tail beyond any fixed degree")
    terms = _CORRECTIONS[k]
    if not terms:
        return CorrectionPoly(k=k, poly=TruncSeries.zero(0))
    order = max(terms)
    coeffs = [0] * (order + 1)
    for e, c in terms.items():
        coeffs[e] = c
    return CorrectionPoly(k=k, poly=TruncSeries(coeffs, order))


def eden_series(k: int, N: int) -> TruncSeries:
    """(-q)^k F_k(q) truncated at N, the exact form the signed partition
    counts with repeated largest part reproduce."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    shifted = F_backsolve(k, N).shift(k)
    return shifted if k % 2 == 0 else -shifted
