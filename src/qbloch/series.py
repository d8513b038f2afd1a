"""Exact truncated power series over Python integers.

A TruncSeries holds the coefficients of a formal power series in q modulo
q^(N+1) for a fixed truncation order N.  All arithmetic is exact: every
stored coefficient equals the true integer coefficient of the corresponding
formal series.  Python ints never overflow, so coefficients with hundreds
of decimal digits are fine.
"""

from __future__ import annotations

from itertools import accumulate, compress, repeat
from operator import getitem, sub

from .errors import UsageError


#: Coefficients rewritten per slice assignment in _mul_one_minus.
_BLOCK = 4096


def _mul_one_minus(coeffs: list, d: int, lo: int = 0) -> None:
    """In place: coeffs[lo:] *= (1 - q^d), truncated to the same length.

    The region coeffs[lo:] is a series of its own, coeffs[lo] its constant
    term: its len(coeffs) - lo - d coefficients past q^d are rewritten, and
    nothing below lo is read or written.  Blocks are rewritten from the top
    down and each is read in full before it is written, so every subtrahend
    is still an old coefficient.  The block size bounds how many new
    coefficients exist beside the old ones.
    """
    hi = len(coeffs)
    while hi > lo + d:
        start = max(lo + d, hi - _BLOCK)
        coeffs[start:hi] = map(sub, coeffs[start:hi], coeffs[start - d:hi - d])
        hi = start


def _div_one_minus(coeffs: list, d: int) -> None:
    """In place: coeffs /= (1 - q^d), one running sum per residue class mod d."""
    for r in range(min(d, len(coeffs))):
        coeffs[r::d] = accumulate(coeffs[r::d])


class TruncSeries:
    """A formal power series truncated at a fixed order, exact integer coefficients.

    coeffs[t] is the coefficient of q^t; len(coeffs) == order + 1.
    Instances are treated as immutable after construction.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise UsageError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise UsageError(f"order must be non-negative, got {order}")
        if len(coeffs) > order + 1:
            raise UsageError(
                f"{len(coeffs)} coefficients do not fit order {order}")
        coeffs.extend(repeat(0, order + 1 - len(coeffs)))
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([1], order)

    def _check_same_order(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise UsageError(
                f"order mismatch: {self.order} vs {other.order}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_same_order(other)
        return TruncSeries([a + b for a, b in zip(self.coeffs, other.coeffs)],
                           self.order)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_same_order(other)
        return TruncSeries([a - b for a, b in zip(self.coeffs, other.coeffs)],
                           self.order)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-a for a in self.coeffs], self.order)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """Cauchy product truncated at the common order.  Schoolbook: each
        nonzero term q^i of self visits the N + 1 - i coefficients of other
        it meets, O(N^2) in the worst case.  No library path multiplies two
        series; products of binomials go through _mul_one_minus."""
        self._check_same_order(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(n + 1 - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
        return TruncSeries(out, n)

    def mul_binomial(self, d: int, c: int) -> "TruncSeries":
        """Multiply by (1 + c*q^d) in one pass.  Requires d >= 1."""
        if d < 1:
            raise UsageError(f"binomial exponent must be >= 1, got {d}")
        coeffs = self.coeffs
        # the zip stops at the shorter operand, which is exactly the truncation
        return TruncSeries(coeffs[:d] + [a + c * b for a, b in zip(coeffs[d:], coeffs)],
                           self.order)

    def div_binomial(self, d: int) -> "TruncSeries":
        """Divide by (1 - q^d); always well defined on truncated series."""
        if d < 1:
            raise UsageError(f"binomial exponent must be >= 1, got {d}")
        out = list(self.coeffs)
        _div_one_minus(out, d)
        return TruncSeries(out, self.order)

    def shift(self, e: int) -> "TruncSeries":
        """Multiply by q^e (e >= 0), truncating at the order."""
        if e < 0:
            raise UsageError("shift exponent must be non-negative")
        if e == 0:
            return self
        keep = max(0, self.order + 1 - e)
        return TruncSeries([0] * (self.order + 1 - keep) + self.coeffs[:keep], self.order)

    def coeff(self, t: int):
        """The exact coefficient of q^t; t beyond the order is a usage error."""
        if not 0 <= t <= self.order:
            raise UsageError(f"index {t} outside truncation order {self.order}")
        return self.coeffs[t]

    def _upto(self, upto) -> int:
        """upto, defaulting to the order; outside [0, order] a usage error."""
        if upto is None:
            return self.order
        if not 0 <= upto <= self.order:
            raise UsageError(f"index {upto} outside truncation order {self.order}")
        return upto

    def max_abs(self, upto=None):
        """Largest |coefficient| on [0, upto] and the smallest exponent attaining it.

        Returns (0, 0) for the zero series.
        """
        head = self.coeffs[:self._upto(upto) + 1]
        top, bottom = max(head), -min(head)
        if top > bottom:
            return top, head.index(top)
        if bottom > top:
            return bottom, head.index(-bottom)
        return top, min(head.index(top), head.index(-top))

    def is_bloch_polya(self, upto=None) -> bool:
        """True iff every coefficient on [0, upto] lies in {-1, 0, 1}."""
        return all(-1 <= v <= 1 for v in self.coeffs[:self._upto(upto) + 1])

    def degree(self) -> int:
        """Largest exponent with a nonzero coefficient, or -1 for the zero series."""
        for t in range(self.order, -1, -1):
            if self.coeffs[t]:
                return t
        return -1

    def nonzero_items(self):
        """(exponent, coefficient) pairs for nonzero coefficients, ascending."""
        return list(compress(enumerate(self.coeffs), self.coeffs))

    def __repr__(self) -> str:
        items = self.nonzero_items()
        head = ", ".join(f"{v}*q^{t}" for t, v in items[:6])
        more = "" if len(items) <= 6 else ", ..."
        return f"TruncSeries({head or '0'}{more}; order={self.order})"


def pochhammer(start: int, step: int, L, N: int) -> TruncSeries:
    """Product of (1 - q^(start + step*i)) for i < L, truncated at order N.

    L=None means the infinite product; factors whose exponent exceeds N are
    1 modulo q^(N+1) and are skipped.  pochhammer(1, 1, m, N) is the finite
    q-factorial with m factors; pochhammer(k, 1, None, N) is the infinite
    product starting at q^k.

    (q^s;q)_inf is built as (q;q)_inf / (q;q)_(s-1), the last of the
    tails _tails yields: the pentagonal expansion followed by s-1 stride
    divisions, O(sN) work, unless multiplying in the factors q^s..q^N
    directly costs less.  (q;q)_m is built from (q;q)_inf and its tail
    (_qq_horner).  Every other product carries its partial product only to
    its exact degree.  A finite product of full degree D read past D//2 is
    computed to D//2 and the rest is filled from its symmetry
    c_(D-t) = (-1)^L c_t.
    """
    if start < 1:
        raise UsageError(f"start must be >= 1, got {start}")
    if step < 1:
        raise UsageError(f"step must be >= 1, got {step}")
    if L is not None and L < 0:
        raise UsageError(f"length must be >= 0, got {L}")
    if N < 0:
        raise UsageError(f"order must be non-negative, got {N}")
    if L is None:
        if step == 1:
            divisions = min(start - 1, N)
            direct = max(0, N - start + 1)
            if divisions * (N + 1) <= direct * (direct + 1) // 2:
                for coeffs in _tails([N + 1] * (divisions + 1)):
                    pass
                return TruncSeries(coeffs, N)
        # the finite product of the factors up to q^N agrees with the
        # infinite one below q^(N+1)
        L = 0 if start > N else (N - start) // step + 1
    full = L * start + step * L * (L - 1) // 2
    T = min(N, full // 2)
    if start == step == 1:
        coeffs = _qq_horner(L, T)
    else:
        for coeffs in _carried_products(start, step, L, T):
            pass
        coeffs.extend([0] * (T + 1 - len(coeffs)))
    if N > T:
        top = min(N, full)
        mirrored = coeffs[full - top:full - T][::-1]
        coeffs += mirrored if L % 2 == 0 else [-c for c in mirrored]
    return TruncSeries(coeffs, N)


def _carried_products(start: int, step: int, L: int, T: int):
    """The product of the first i factors (1 - q^(start + step*j)), j < i,
    modulo q^(T+1), yielded for i = 0, 1, ..., L.

    The coefficients live in one list, multiplied in place and at most
    min(T, degree so far) + 1 long; every yield is that list, read it
    before advancing.  A reader may shorten it, never lengthen it: it is
    extended only while it holds the whole product, so a cut stays and
    later yields are exact on the kept prefix.  The sweep ends at the
    first factor past q^T, which cannot reach the kept coefficients.
    """
    coeffs = [1]
    degree = 0
    yield coeffs
    for d in range(start, start + step * L, step):
        if d > T:
            return
        if len(coeffs) == degree + 1:
            coeffs.extend([0] * (min(T, degree + d) - degree))
        degree += d
        _mul_one_minus(coeffs, d)
        yield coeffs


def _qq_horner(m: int, T: int) -> list:
    """(q;q)_m modulo q^(T+1), as a list of T + 1 coefficients, from

        (q;q)_m = (q;q)_inf / (q^s;q)_inf,  s = m + 1.

    1/(q^s;q)_inf = sum_k q^(ks) / (q;q)_k counts partitions into k parts
    >= s, and only k <= K = T // s reach q^T.  With P = (q;q)_inf, in
    Horner form

        (q;q)_m = P + q^s/(1-q) (P + q^s/(1-q^2) (... (P + q^s/(1-q^K) P))).

    The innermost P is read below q^(T+1-Ks) only, so it is laid out by
    pnt_series(T - Ks); each step k = K..1 divides by (1 - q^k), shifts by q^s and
    adds the O(sqrt T) terms of P, pnt_terms(T): one pass over
    T + 1 - (k-1)s coefficients, about K*T/2 updates in all.  pochhammer
    reads at most half the degree, T <= m(m+1)/4, so K <= m/4; carrying
    the m factors costs about m*T/2.
    """
    from .pentagonal import pnt_series, pnt_terms  # pentagonal imports this module
    s = m + 1
    K = T // s
    terms = pnt_terms(T)
    coeffs = pnt_series(T - K * s).coeffs
    for k in range(K, 0, -1):
        _div_one_minus(coeffs, k)
        coeffs[:0] = [0] * s
        top = len(coeffs) - 1
        for e, c in terms:
            if e > top:
                break
            coeffs[e] += c
    return coeffs


def _tails(lengths):
    """Yield the tails E_(j+1) = (q^(j+1);q)_inf for j < len(lengths), in
    order, E_(j+1) as a fresh list of its first lengths[j] coefficients;
    lengths must not increase.

    E_1 is the pentagonal series (q;q)_inf and E_(j+1) = E_j / (1 - q^j),
    one stride division of a copy cut to the next length, so the last tail
    is (q;q)_inf / (q;q)_j.  Together they give random access to (q;q)_m
    through

        (q;q)_m = (q;q)_inf * sum_k q^(ks) / (q;q)_k = sum_k q^(ks) E_(k+1),

    with s = m + 1: see _tail_coeff, which reads list(_tails(...)) for the
    S sweep's ladder and for window_sweep.
    """
    from .pentagonal import pnt_series  # pentagonal imports this module
    coeffs = pnt_series(lengths[0] - 1).coeffs
    yield coeffs
    for j in range(1, len(lengths)):
        coeffs = coeffs[:lengths[j]]
        _div_one_minus(coeffs, j)
        yield coeffs


def _tail_coeff(tails: list, s: int, t: int) -> int:
    """The coefficient of q^t in (q;q)_(s-1), exactly, from _tails:
    sum_(i <= t/s) E_(i+1)[t - is], at most t/s + 1 terms, E_(i+1) read
    below (t/s - i + 1)s.

    t // s < len(tails) must hold: map stops at the shorter of tails and
    the exponents t, t - s, ..., so a missing tail would drop its term
    instead of failing.
    """
    return sum(map(getitem, tails, range(t, -1, -s)))


def qq_poly(m: int) -> TruncSeries:
    """The full polynomial (q;q)_m, at its exact degree m(m+1)/2."""
    if m < 0:
        raise UsageError(f"m must be >= 0, got {m}")
    return pochhammer(1, 1, m, m * (m + 1) // 2)
