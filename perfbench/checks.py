"""Output checkers for the benchmark, independent of the code being timed.

Nothing here imports qbloch.  Every expected value is rebuilt from the
pentagonal number theorem, from plain product expansions, or from an
identity the method must satisfy, so a wrong answer from the program cannot
also be the reference.  Each checker raises CheckError with a reason.

Long indices are parsed and compared without int(str) on more than 4300
digits, so the checker never needs sys.set_int_max_str_digits, which would
hide the program's own conversion limit.
"""

from __future__ import annotations

import json
from math import isqrt

#: Modulus for polynomial point evaluation (the Mersenne prime 2^61 - 1).
PRIME = (1 << 61) - 1
#: Indices up to this bound are also checked against a product expansion.
SMALL_INDEX = 1000


class CheckError(AssertionError):
    """An output that disagrees with the independent computation."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# --- exact integer helpers -------------------------------------------------

def parse_int(text: str) -> int:
    """Decimal numeral to int, in 1000-digit chunks (no digit limit)."""
    neg = text.startswith("-")
    digits = text[1:] if neg else text
    require(digits.isdigit() and digits.isascii(), f"not an integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if neg else value


def p1(n):
    return n * (3 * n - 1) // 2


def p2(n):
    return n * (3 * n + 1) // 2


def euler_coeff(t: int) -> int:
    """Coefficient of q^t in (q;q)_inf by the pentagonal number theorem."""
    if t < 0:
        return 0
    disc = 24 * t + 1
    r = isqrt(disc)
    if r * r != disc:
        return 0
    if r % 6 == 5:
        n = (r + 1) // 6
    elif r % 6 == 1:
        n = (r - 1) // 6
    else:
        return 0
    return -1 if n % 2 else 1


def euler_dense(N: int) -> list:
    """(q;q)_inf mod q^(N+1), filled from the two pentagonal families."""
    out = [0] * (N + 1)
    n = 0
    while p1(n) <= N:
        sign = -1 if n % 2 else 1
        out[p1(n)] += sign
        if n and p2(n) <= N:
            out[p2(n)] += sign
        n += 1
    return out


def times_one_minus(coeffs: list, d: int, length: int) -> list:
    """coeffs * (1 - q^d), extended or truncated to `length` terms."""
    src = coeffs[:length] + [0] * (length - len(coeffs))
    out = list(src)
    for t in range(d, length):
        out[t] -= src[t - d]
    return out


def product(exponents, length: int) -> list:
    """prod (1 - q^d) over the exponents, truncated to `length` terms."""
    out = [1] + [0] * (length - 1)
    for d in exponents:
        if d < length:
            out = times_one_minus(out, d, length)
    return out


def qq_full(m: int) -> list:
    """(q;q)_m at its full degree m(m+1)/2."""
    return product(range(1, m + 1), m * (m + 1) // 2 + 1)


def sparse_times(poly: list, sparse: list, length: int) -> list:
    """poly * sparse (given as (exponent, coeff) pairs), truncated."""
    out = [0] * length
    for e, c in sparse:
        for i, a in enumerate(poly[:max(0, length - e)]):
            if a:
                out[e + i] += c * a
    return out


def eden_backsolve(k: int, N: int) -> list:
    """F_k mod q^(N+1) from the backsolved identity

        q^(k(k+1)/2) F_k = sum_{i<k} (-1)^i (q^(k-i);q)_i q^((k-1-i)(k-i)/2)
                           + (-1)^k (q;q)_{k-1} (q;q)_inf

    built from small finite products and the pentagonal support of
    (q;q)_inf; k = 1 reduces to q F_1 = 1 - (q;q)_inf.
    """
    if k == 1:
        euler = euler_dense(N + 1)
        return [-c for c in euler[1:]]
    shift = k * (k + 1) // 2
    length = N + shift + 1
    rhs = [0] * length
    for i in range(k):
        term = product(range(k - i, k), length)
        offset = (k - 1 - i) * (k - i) // 2
        sign = -1 if i % 2 else 1
        for t, c in enumerate(term[:max(0, length - offset)]):
            rhs[t + offset] += sign * c
    euler = euler_dense(length - 1)
    sparse = [(e, c) for e, c in enumerate(euler) if c]
    tail = sparse_times(qq_full(k - 1), sparse, length)
    sign = -1 if k % 2 else 1
    for t in range(length):
        rhs[t] += sign * tail[t]
    require(not any(rhs[:shift]), f"backsolve for k={k} left low terms")
    return rhs[shift:]


def shat_bound(k: int) -> int:
    return (k - 1) * (3 * k ** 3 - 3 * k ** 2 + 10 * k - 8) // 8


def s_cutoff(h: int) -> int:
    return (h + 2) * (6 * h + 17)


# --- parsing ---------------------------------------------------------------

def split_output(args, fmt: str, text: str):
    """(json document or None, tsv data rows) after checking the header.

    args are the command's positional words, e.g. ["expand", "pnt", "30"].
    """
    lines = text.splitlines()
    if fmt == "json":
        require(len(lines) == 1, "json output is not one line")
        doc = json.loads(lines[0], parse_int=parse_int)
        meta = doc["meta"]
        require([meta["command"]] + meta["args"] == args, f"meta does not echo {args}")
        return doc, None
    require(lines and lines[0].startswith("# "), "missing '# ' header")
    require(lines[0][2:].split(" ")[:-1] == args, f"header {lines[0]!r} does not echo {args}")
    return None, [line.split("\t") for line in lines[1:]]


def expand_coeffs(args, fmt: str, text: str) -> list:
    """Dense coefficient list of an expand output, checking its form."""
    doc, rows = split_output(args, fmt, text)
    order = int(args[-1])
    if doc is not None:
        require(doc["data"]["order"] == order, "json order is not the requested one")
        pairs = [(e, c) for e, c in doc["data"]["coefficients"]]
    else:
        pairs = [(int(e), parse_int(c)) for e, c in rows]
    dense = [0] * (order + 1)
    last = -1
    for e, c in pairs:
        require(last < e <= order, f"exponent {e} out of order or range")
        require(c != 0, f"zero coefficient printed at q^{e}")
        dense[e] = c
        last = e
    return dense


# --- expand ----------------------------------------------------------------

def check_expand(args, fmt: str, text: str, point: int) -> None:
    """args: ["expand", target, (index,) order]; point seeds the modular check."""
    target = args[1]
    s = expand_coeffs(args, fmt, text)
    N = len(s) - 1
    if target == "pnt":
        require(s == euler_dense(N), "pnt differs from the pentagonal number theorem")
    elif target in ("q2inf", "q3inf"):
        back = times_one_minus(s, 1, N + 1)
        if target == "q3inf":
            back = times_one_minus(back, 2, N + 1)
        require(back == euler_dense(N), f"(q;q)_1-multiple of {target} is not (q;q)_inf")
    elif target == "poch":
        check_poch(int(args[2]), s, point)
    elif target == "f":
        k = int(args[2])
        require(s == eden_backsolve(k, N), f"F_{k} violates the backsolved identity")
    else:
        raise CheckError(f"unknown expand target {target!r}")


def check_poch(m: int, s: list, point: int) -> None:
    N = len(s) - 1
    degree = m * (m + 1) // 2
    low = min(m, N)
    require(s[:low + 1] == euler_dense(low), f"(q;q)_{m} differs from (q;q)_inf below q^{m + 1}")
    if N >= degree:
        require(not any(s[degree + 1:]), f"(q;q)_{m} has terms past its degree")
        sign = -1 if m % 2 else 1
        require(all(s[t] == sign * s[degree - t] for t in range(degree + 1)),
                f"(q;q)_{m} lacks its palindromic symmetry")
        x = point % PRIME
        value = 0
        for c in reversed(s[:degree + 1]):
            value = (value * x + c) % PRIME
        expected = 1
        for i in range(1, m + 1):
            expected = expected * (1 - pow(x, i, PRIME)) % PRIME
        require(value == expected, f"(q;q)_{m} at x={x} differs from its factors mod p")
    else:
        # Divide out every factor modulo the prime: only 1 may remain.
        rest = [c % PRIME for c in s]
        for d in range(1, m + 1):
            for t in range(d, N + 1):
                rest[t] = (rest[t] + rest[t - d]) % PRIME
        require(rest == [1] + [0] * N, f"(q;q)_{m} truncated at {N} is not the product")


# --- coeff -----------------------------------------------------------------

def block_a(j: int):
    n = (isqrt(24 * j + 1) - 1) // 12
    while 6 * (n + 1) ** 2 + (n + 1) <= j:
        n += 1
    while n > 0 and 6 * n * n + n > j:
        n -= 1
    if j < p1(2 * n + 1):
        family, value = "plus-run", 1
    elif j < p2(2 * n + 1):
        family, value = "zero-gap", 0
    elif j < p1(2 * n + 2):
        family, value = "minus-run", -1
    else:
        family, value = "zero-tail", 0
    return value, (n, family, p2(2 * n), p2(2 * n + 2), False)


def block_b(i: int):
    n = (isqrt(24 * i + 49) + 1) // 12
    while 6 * (n + 1) ** 2 - (n + 1) - 2 <= i:
        n += 1
    while n > 0 and 6 * n * n - n - 2 > i:
        n -= 1
    base = p2(2 * n)
    if i <= base - 1:
        family, value = "low-plateau", -n
    elif i <= p1(2 * n + 1) - 2:
        family, value = "rise", 1 - n + (i - base) // 2
    elif i <= p2(2 * n + 1) - 2:
        high = (i - base) % 2 == 0
        family, value = ("crest-high", n + 1) if high else ("crest-low", n)
    else:
        family, value = "fall", n - (i - p2(2 * n + 1) + 1) // 2
    return value, (n, family, max(p1(2 * n) - 2, 0), p1(2 * n + 2) - 3, True)


def parse_coeff(args, fmt: str, text: str):
    """(value, (n, family, lower, upper, upper_closed)) of a coeff output."""
    doc, rows = split_output(args, fmt, text)
    if doc is not None:
        data = doc["data"]
        block = data["block"]
        require(data["case"] == block["family"], "case and family disagree")
        return data["value"], (block["n"], block["family"], block["lower"],
                               block["upper"], block["upper_closed"])
    require(len(rows) == 1 and len(rows[0]) == 6, "coeff row is not six fields")
    value, case, n, family, lower, upper = rows[0]
    require(case == family, "case and family disagree")
    return parse_int(value), (parse_int(n), family, parse_int(lower), parse_int(upper),
                              args[1] == "b")


class SmallProducts:
    """(q^2;q)_inf and (q^3;q)_inf to SMALL_INDEX by direct product."""

    def __init__(self):
        length = SMALL_INDEX + 1
        self.a = product(range(2, length), length)
        self.b = product(range(3, length), length)


def check_coeff(args, fmt: str, text: str, small: SmallProducts) -> int:
    """Check one coeff answer; returns the value for the cross-relations."""
    which, index = args[1], parse_int(args[2])
    value, block = parse_coeff(args, fmt, text)
    want_value, want_block = (block_a if which == "a" else block_b)(index)
    n, family, lower, upper, closed = block
    require(lower <= index and (index <= upper if closed else index < upper),
            f"block [{lower}, {upper}] does not contain the index")
    require(block == want_block, f"block {n} {family} is not the one holding the index")
    require(value == want_value, f"value {value} disagrees with the {family} formula")
    if index <= SMALL_INDEX:
        table = small.a if which == "a" else small.b
        require(value == table[index], "value disagrees with the product expansion")
    return value


def check_coeff_group(j: int, values: dict) -> None:
    """values maps (which, index) -> value for indices j, j-1, j-2."""
    require(values[("a", j)] == values[("b", j)] - values[("b", j - 2)],
            f"a_j != b_j - b_(j-2) at j={j}")
    for t in (j, j - 1):
        require(values[("a", t)] - values[("a", t - 1)] == euler_coeff(t),
                f"a_t - a_(t-1) is not the (q;q)_inf coefficient at t={t}")


# --- tables ----------------------------------------------------------------

def parse_table(args, fmt: str, text: str) -> dict:
    """h -> (members tuple, cutoff)."""
    doc, rows = split_output(args, fmt, text)
    if doc is not None:
        return {r["h"]: (tuple(r["members"]), r["cutoff"]) for r in doc["data"]["rows"]}
    out = {}
    for h, members, cutoff in rows:
        out[int(h)] = (tuple(int(m) for m in members.split(",") if m), int(cutoff))
    return out


class Heights:
    """Max |coefficient| of (q;q)_m and of F_k, cached per run."""

    def __init__(self):
        self.poch = {}
        self.eden = {}

    def poch_height(self, m: int) -> int:
        if m not in self.poch:
            self.poch[m] = max(abs(c) for c in qq_full(m))
        return self.poch[m]

    def poch_exceeds(self, m: int, H: int, horizon: int) -> bool:
        """True iff (q;q)_m has a coefficient above H; a coefficient of a
        truncation is already exact, so it serves as a witness."""
        cut = min(m * (m + 1) // 2, 4 * horizon) + 1
        if max(abs(c) for c in product(range(1, m + 1), cut)) > H:
            return True
        return self.poch_height(m) > H

    def eden_height(self, k: int) -> int:
        if k not in self.eden:
            self.eden[k] = max(abs(c) for c in eden_backsolve(k, shat_bound(k)))
        return self.eden[k]


def check_s_table(args, fmt: str, text: str, heights: Heights, sample) -> None:
    """sample: callable(candidates) -> the seeded non-members to certify."""
    H = int(args[2])
    rows = parse_table(args, fmt, text)
    horizon = s_cutoff(H)
    require(sorted(rows) == list(range(1, H + 1)), f"rows are not 1..{H}")
    seen = set()
    for h, (members, cutoff) in rows.items():
        require(cutoff == s_cutoff(h), f"row {h} cutoff {cutoff}")
        require(list(members) == sorted(set(members)), f"row {h} not increasing")
        for m in members:
            require(m not in seen and 0 <= m <= horizon, f"member {m} misplaced")
            seen.add(m)
            require(heights.poch_height(m) == h, f"(q;q)_{m} does not have height {h}")
    others = [m for m in range(horizon + 1) if m not in seen]
    for m in sample(others):
        require(heights.poch_exceeds(m, H, horizon),
                f"(q;q)_{m} is missing from the table but has height <= {H}")


def check_shat_table(args, fmt: str, text: str, heights: Heights) -> None:
    K = int(args[2])
    rows = parse_table(args, fmt, text)
    placed = {}
    for h, (members, cutoff) in rows.items():
        require(cutoff == K, f"row {h} cutoff {cutoff} is not the horizon {K}")
        for k in members:
            require(k not in placed, f"F_{k} listed twice")
            placed[k] = h
    require(sorted(placed) == list(range(1, K + 1)), f"subjects are not 1..{K}")
    top = max(K, max(placed.values()))
    require(sorted(rows) == list(range(1, top + 1)), f"rows are not 1..{top}")
    for k, h in placed.items():
        require(heights.eden_height(k) == h, f"F_{k} does not have height {h}")


# --- verify ----------------------------------------------------------------

def check_verify(args, fmt: str, text: str) -> None:
    _doc, rows = split_output(args, fmt, text)
    require(rows, f"verify {args[1]} printed no checks")
    for row in rows:
        require(len(row) == 3 and row[1] == "pass", f"check {row[0]!r} did not pass")
