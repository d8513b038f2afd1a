"""Closed-form coefficient queries for (q^2;q)_infinity and (q^3;q)_infinity.

Both formulas locate the queried exponent inside a pentagonal block and read
the coefficient off the sub-interval, so a single query costs O(polylog) in
the index and works unchanged at 10^100 scale.  The (q^2;q) coefficients a_j
always lie in {-1, 0, 1}; the (q^3;q) coefficients b_i are unbounded and are
returned exactly.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import UsageError
from .pentagonal import locate_block_a, locate_block_b, p1, p2


class CoeffAnswer(namedtuple("CoeffAnswer", "value block case_tag")):
    """An exact coefficient together with the block and branch that produced it:
    value is the coefficient, block the PentaBlock holding the index and
    case_tag the family of the sub-interval the index fell into."""

    __slots__ = ()


def a_coeff(j: int) -> CoeffAnswer:
    """Coefficient of q^j in (q^2;q)_infinity.

    +1 on [p2(2n), p1(2n+1)), -1 on [p2(2n+1), p1(2n+2)), 0 on the two gaps.
    """
    block = locate_block_a(j)
    if block.family == "plus-run":
        value = 1
    elif block.family == "minus-run":
        value = -1
    else:
        value = 0
    return CoeffAnswer(value=value, block=block, case_tag=block.family)


def b_coeff(i: int) -> CoeffAnswer:
    """Coefficient of q^i in (q^3;q)_infinity, exact at any index size.

    Within the block p1(2n)-2 <= i <= p1(2n+2)-3 the value is:
      low-plateau   -n                                 on [p1(2n)-2, p2(2n)-1]
      rise          1 - n + floor((i - p2(2n))/2)      on [p2(2n), p1(2n+1)-2]
      crest-high    1 + n    (i matching p2(2n) mod 2) on [p1(2n+1)-1, p2(2n+1)-2]
      crest-low     n        (opposite parity)         on the same interval
      fall          n - ceil((i - p2(2n+1))/2)         on [p2(2n+1)-1, p1(2n+2)-3]
    """
    block = locate_block_b(i)
    n = block.n
    family = block.family
    if family == "low-plateau":
        value = -n
    elif family == "rise":
        value = 1 - n + (i - p2(2 * n)) // 2
    elif family == "crest-high":
        value = 1 + n
    elif family == "crest-low":
        value = n
    else:
        value = n + (p2(2 * n + 1) - i) // 2
    return CoeffAnswer(value=value, block=block, case_tag=family)


def first_appearance(c: int) -> int:
    """Smallest index i with |b_i| = c, by walking the block structure.

    Block n contributes magnitudes up to n+1 (attained only on its crest),
    so every block before n = c-1 is skipped outright.  In block n = c-1
    the crest starts at p1(2n+1)-1, and that start always matches the
    required parity because p1(2n+1) - p2(2n) = 4n+1 is odd; all other
    sub-intervals of that block stay below magnitude c.
    """
    if c < 1:
        raise UsageError(f"coefficient size must be >= 1, got {c}")
    n = c - 1
    i = p1(2 * n + 1) - 1
    answer = b_coeff(i)
    if abs(answer.value) != c:
        raise AssertionError(
            f"block walk landed on |b_{i}| = {abs(answer.value)}, wanted {c}")
    return i
