"""The Eden family F_{k,M}(q) = sum of q^(kj) (q;q)_j for j <= M, and its limit F_k.

Covers direct expansion, the finite recurrence between consecutive k, the
parts-1-mod-k identity, the backsolved representation through (q;q)_infinity,
tail-splitting into head-polynomial-plus-pentagonal-tail form, and the finite
correction polynomials that repair F_k to coefficients in {-1,0,1} where that
is possible.  Past its head F_k is non-overlapping copies of +-(q;q)_{k-1},
so a correction exists iff (q;q)_{k-1} has height 1, that is, iff
k - 1 is in S_1 = {0, 1, 2, 3, 5}.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub

from .errors import UsageError
from .pentagonal import _pentagonal_floor, p1, pnt_terms
from .series import TruncSeries, _carried_products, _mul_one_minus, pochhammer, qq_poly


class NoCorrectionError(Exception):
    """Raised for k where no polynomial correction to {-1,0,1} coefficients exists."""


def F_direct(k: int, M, N: int) -> TruncSeries:
    """F_{k,M}(q) modulo q^(N+1); M=None takes the limit (j stops at N//k).

    The reference expansion of the defining sum, in Horner form
    (_nested_sum): about N^2/(2(k+1)) coefficient updates, and no loop in
    common with F_backsolve's routes.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if M is not None and M < 0:
        raise UsageError(f"M must be >= 0, got {M}")
    return TruncSeries(_nested_sum(k, M, N), N)


def _nested_sum(k: int, M, N: int, first: int = 0, step: int = 1) -> list:
    """Coefficients to q^N of sum_{j <= M} q^(first+kj) (q;q^step)_j, in Horner form

        G_J = 1,  G_j = 1 + q^k (1 - q^(1+step*j)) G_(j+1),  sum = q^first G_0,

    with J = (N - first)//k, or M if that is smaller (no terms if N < first).
    G_j lives in place at out[first + kj:], so the shift by q^k costs
    nothing: step j multiplies the region of G_(j+1) by one binomial,
    max(0, N - first - k - (k+step)j) updates, and places the 1 below it.
    No product is held.
    """
    out = [0] * (N + 1)
    if N < first:
        return out
    J = (N - first) // k if M is None else min((N - first) // k, M)
    out[first + k * J] = 1
    for j in range(J - 1, -1, -1):
        base = first + k * j
        _mul_one_minus(out, 1 + step * j, base + k)
        out[base] = 1
    return out


def _partial_sums(k: int, N: int) -> list:
    """Coefficients to q^N of F_k = sum_j q^(kj) (q;q)_j, F_backsolve's sum route.

    Term j <= N//k adds N + 1 - kj coefficients of (q;q)_j read from
    series._carried_products, cut to them, so each product is multiplied
    only to its degree.  Its carry stops at a factor past q^N, whose term
    lies past q^N too.
    """
    out = [0] * (N + 1)
    terms = N // k
    for j, prod in zip(range(terms + 1), _carried_products(1, 1, terms, N)):
        base = k * j
        del prod[N + 1 - base:]
        out[base:base + len(prod)] = map(add, out[base:base + len(prod)], prod)
    return out


def recurrence_check(k: int, M: int) -> bool:
    """Exact polynomial identity between consecutive k:

        q^(k+1) F_{k+1,M} == 1 + (q^k - 1) F_{k,M} - q^(k(M+1)) (q;q)_{M+1}

    compared at its degree N = k(M+1) + (M+1)(M+2)/2, where both sides end.
    """
    if k < 1 or M < 1:
        raise UsageError("recurrence_check needs k >= 1 and M >= 1")
    N = k * (M + 1) + (M + 1) * (M + 2) // 2
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
    lhs = TruncSeries(_nested_sum(k, M, N, 1, k), N)
    return lhs == TruncSeries.one(N) - pochhammer(1, k, M + 1, N)


def f1_base_identity_check(M: int) -> bool:
    """Exact base identity q F_{1,M} == 1 - (q;q)_{M+1}."""
    if M < 0:
        raise UsageError(f"M must be >= 0, got {M}")
    # parts 1 mod 1 are all parts: the k = 1 case, term for term
    return one_mod_k_identity_check(1, M)


def F_backsolve(k: int, N: int) -> TruncSeries:
    """F_k(q) modulo q^(N+1) by the cheaper of two exact routes.

    While (q;q)_{k-1} is small against N this is the backsolved
    representation (_backsolved): about sqrt(N + k^2) slices of k^2/2
    coefficients.  From about k^2 = 0.65 N on the defining sum, N//k + 1
    terms of N + 1 - kj coefficients, costs less; it is taken then, so the
    work never exceeds O(N^1.5) whatever k is.  Must agree with F_direct.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if N < 0:
        raise UsageError(f"order must be non-negative, got {N}")
    degree = k * (k - 1) // 2
    half = degree // 2
    # coefficient updates per route, from each builder's loop bounds: the
    # 2n + (family == 2) slices _backsolved adds, one per pentagonal term to
    # q^(N + shift), plus (q;q)_{k-1} built to half its degree
    # (series._qq_horner), against N + 1 - kj for each term j <= N//k of the sum
    n, family = _pentagonal_floor(N + degree + k)
    slices = (2 * n + (family == 2)) * (min(degree, N) + 1)
    terms = N // k + 1
    if terms * (N + 1) - k * terms * (terms - 1) // 2 < slices + half // k * half // 2:
        return TruncSeries(_partial_sums(k, N), N)
    return _backsolved(k, N)


def _backsolved(k: int, N: int, lo: int = 0, factor=None) -> TruncSeries:
    """F_k(q) modulo q^(N+1) through the backsolved representation

        q^(k(k+1)/2) F_k = sum_{i=0}^{k-1} (-1)^i (q^(k-i);q)_i q^((k-1-i)(k-i)/2)
                           + (-1)^k (q;q)_{k-1} (q;q)_infinity

    divided by the q^(k(k+1)/2) prefactor.  Every finite term has degree at
    most k(k-1)/2, below the prefactor, so only the product is read: one slice
    add of +-factor for each pentagonal term (e, c) with e <= N + shift,
    about sqrt(8(N + shift)/3) slices of min(k(k-1)/2, N) + 1 coefficients.
    factor is the coefficient list of (q;q)_{k-1}, built here unless the
    caller holds it; factor [1] places the bare signed terms (pentagonal_tail).
    Only the terms with e >= lo are added, so TailSplit.reconstruct and
    pentagonal_tail take the tail alone; _split_head's order ends the head.
    This is the only loop that places shifted copies of pentagonal terms.
    """
    shift = k * (k + 1) // 2
    if factor is None:
        factor = qq_poly(k - 1).coeffs
    sign = -1 if k % 2 else 1
    out = [0] * (N + 1)
    for e, c in pnt_terms(N + shift):
        t = e - shift  # factor[a:b] lands on out[t + a:t + b], inside 0..N
        a, b = max(-t, 0), min(len(factor), N + 1 - t)
        if e >= lo and a < b:
            out[t + a:t + b] = map(add if c == sign else sub, out[t + a:t + b], factor[a:b])
    return TruncSeries(out, N)


class TailSplit(namedtuple("TailSplit", "k P tail_factor tail_start_n shift")):
    """F_k split as P(q) + (q;q)_{k-1} * T(q) with a pure pentagonal tail.

    T = sum over n >= tail_start_n of (-1)^(n+k) (q^(p1(n)-shift) + q^(p2(n)-shift)),
    shift = k(k+1)/2, and tail_start_n = k(k-1)/2 + 1 is the least n whose
    pentagonal gaps exceed deg (q;q)_{k-1}, so the shifted factor copies in
    the tail never overlap; P is _split_head's, padded with zeros, and
    tail_factor is (q;q)_{k-1}; both are TruncSeries.
    """

    __slots__ = ()

    def tail(self, N: int) -> TruncSeries:
        return pentagonal_tail(self.k, N)

    def reconstruct(self, N: int) -> TruncSeries:
        """P + tail_factor * T at any order N up to P.order: P plus the
        slices of +-tail_factor, the stored (q;q)_{k-1}, for the pentagonal
        terms from p1(tail_start_n) on (_backsolved).  Must reproduce
        F_direct exactly, which shares no code with that builder."""
        if N > self.P.order:
            raise UsageError(f"order {N} exceeds the stored head order {self.P.order}")
        head = TruncSeries(self.P.coeffs[:N + 1], N)
        return head + _backsolved(self.k, N, lo=p1(self.tail_start_n),
                                  factor=self.tail_factor.coeffs)


def pentagonal_tail(k: int, N: int) -> TruncSeries:
    """The signed pentagonal tail T(q) of the k-th split, truncated at N:
    the terms of (q;q)_inf from p1(ns) on, times (-1)^k, shifted down by
    q^shift; _backsolved with the factor 1 in place of (q;q)_{k-1}."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    return _backsolved(k, N, lo=p1(k * (k - 1) // 2 + 1), factor=[1])


def _split_head(k: int, factor: list) -> list:
    """The head P of F_k's split, k >= 2, to its own order p1(ns) - shift - 1:
    the backsolved terms below p1(ns) with factor, the caller's (q;q)_{k-1}.
    Their copies end inside that order, as p1(ns) - p2(ns-1) = 2ns - 1
    exceeds the factor's degree ns - 1.  The one builder of the head."""
    return _backsolved(k, p1(k * (k - 1) // 2 + 1) - k * (k + 1) // 2 - 1,
                       factor=factor).coeffs


def tail_split(k: int, N: int) -> TailSplit:
    """Split F_k at the pentagonal index where gaps outgrow deg (q;q)_{k-1}.

    The head P is _split_head's polynomial padded to order N.  (q;q)_{k-1}
    is built once, for P, and stored as tail_factor for reconstruct.  Needs
    k >= 2 and N large enough to see at least two tail terms.
    """
    if k < 2:
        raise UsageError(f"tail_split needs k >= 2, got {k}")
    ns = k * (k - 1) // 2 + 1
    shift = k * (k + 1) // 2
    if N < p1(ns + 2) - shift:
        raise UsageError(
            f"order {N} too small; need at least {p1(ns + 2) - shift} "
            f"to expose two tail terms for k={k}")
    factor = qq_poly(k - 1)
    return TailSplit(k=k, P=TruncSeries(_split_head(k, factor.coeffs), N),
                     tail_factor=factor, tail_start_n=ns, shift=shift)


class CorrectionPoly(namedtuple("CorrectionPoly", "k poly")):
    """Finite polynomial f with F_k - f of Bloch-Polya type: the clamp excess
    of the tail_split head, c - sign(c) at every coefficient c with |c| > 1.
    It is the correction with the least support; poly holds f as a
    TruncSeries of its own degree."""

    __slots__ = ()


def correction(k: int) -> CorrectionPoly:
    """The correction of F_k, the clamp of _split_head; k = 1, 2 get the zero poly.

    A correction exists iff k - 1 is in S_1 = {0, 1, 2, 3, 5}: past its head
    F_k repeats non-overlapping copies of +-(q;q)_{k-1} forever, so the head
    alone can be repaired iff (q;q)_{k-1} has height 1.  Otherwise
    NoCorrectionError names that height and its smallest witness exponent.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    factor = qq_poly(k - 1)
    height, witness = factor.max_abs()
    if height >= 2:
        raise NoCorrectionError(
            f"no polynomial correction exists for k={k}: h((q;q)_{k - 1}) = {height} "
            f"at q^{witness}, and the tail repeats its copies beyond any fixed degree")
    # the head of the split; empty for k = 1
    terms = {}
    if k > 1:
        terms = {e: c - (1 if c > 0 else -1)
                 for e, c in enumerate(_split_head(k, factor.coeffs)) if abs(c) > 1}
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
