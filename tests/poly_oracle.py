"""The per-bit GF(2)[D] arithmetic, kept as the reference for `eaqconv.poly`.

This is the arithmetic `poly.py` used before its word-level division, its
set-bit multiplication and its `RationalPoly` fast paths: `bits_mul` steps
through every bit position of the shorter factor, `bits_divmod` through every
bit position of the dividend, `bits_gcd` runs the Euclidean algorithm with no shortcut,
`reverse` and `exponents` visit every coefficient position, and
`RationalPoly` normalises every result from scratch (push the denominator's
unit into the numerator, then cancel the gcd), `divmod_width` removes
one quotient term at a time with a `LaurentPoly` add and multiply, and
`series_expand` builds the inverse series of the denominator one
coefficient at a time, then multiplies and clips per exponent.
`parse_poly` adds one `LaurentPoly` per term, `parse_rational` scans
every cell for a top-level '/', and `format_poly` writes each term's text
afresh.  It reuses `LaurentPoly` for storage,
addition, multiplication and shifts, and `_strip_parens`, which the
differential tests do not replace; `LaurentPoly` products run
`poly._bits_mul`, which `bits_mul` is the reference for.
"""

from __future__ import annotations

from eaqconv.errors import PolyParseError
from eaqconv.poly import LaurentPoly, _strip_parens


def bits_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[D] coefficient masks."""
    if a < b:
        a, b = b, a
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def bits_divmod(a: int, b: int) -> tuple[int, int]:
    """Ordinary GF(2)[D] division of coefficient masks, b != 0."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    m = a.bit_length() - 1
    n = b.bit_length() - 1
    if m < n:
        return 0, a
    q = 0
    b <<= m - n
    for i in range(m - n + 1):
        q <<= 1
        if (a >> (m - i)) & 1:
            a ^= b
            q ^= 1
        b >>= 1
    return q, a


def bits_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, bits_divmod(a, b)[1]
    return a


def exponents(p: LaurentPoly) -> list[int]:
    return [p.low + i for i in range(p.bits.bit_length()) if (p.bits >> i) & 1]


def reverse(p: LaurentPoly) -> LaurentPoly:
    """Substitute D^-1 for D (time reversal)."""
    if p.bits == 0:
        return p
    n = p.bits.bit_length()
    rev = 0
    b = p.bits
    for _ in range(n):
        rev = (rev << 1) | (b & 1)
        b >>= 1
    return LaurentPoly(rev, -(p.low + n - 1))


class RationalPoly:
    """num/den normalised on every construction, as `eaqconv.poly` once did."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = LaurentPoly.one()):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = LaurentPoly.zero(), LaurentPoly.one()
        else:
            # push the denominator's unit into the numerator, then cancel
            den_df, dk = den.delay_free()
            num = num.shift(-dk)
            g = bits_gcd(num.bits, den_df.bits)
            if g != 1:
                num = LaurentPoly(bits_divmod(num.bits, g)[0], num.low)
                den_df = LaurentPoly(bits_divmod(den_df.bits, g)[0], 0)
            den = den_df
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: RationalPoly) -> RationalPoly:
        return RationalPoly(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: RationalPoly) -> RationalPoly:
        return RationalPoly(self.num * other.num, self.den * other.den)

    def inverse(self) -> RationalPoly:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalPoly(self.den, self.num)

    def __truediv__(self, other: RationalPoly) -> RationalPoly:
        return self * other.inverse()

    def shift(self, k: int) -> RationalPoly:
        """Multiply by D^k."""
        return RationalPoly(self.num.shift(k), self.den)

    def reverse(self) -> RationalPoly:
        return RationalPoly(reverse(self.num), reverse(self.den))


def divmod_width(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Laurent division a = q*b + r with width(r) < width(b), one LaurentPoly add and multiply per quotient term."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    q, r = LaurentPoly.zero(), a
    bw = b.width
    while not r.is_zero() and r.width >= bw:
        t = LaurentPoly.term(r.deg - b.deg)
        q = q + t
        r = r + t * b
    return q, r


def series_expand(r: RationalPoly, lo: int, hi: int) -> LaurentPoly:
    """Truncate the ascending formal power series of r to exponents [lo, hi].

    The expansion direction is ascending powers of D (plain long division);
    the denominator's nonzero constant term makes the series well defined.
    """
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
    if r.is_zero():
        return LaurentPoly.zero()
    num, den = r.num, r.den
    start = num.low  # series del equals del(num) since den(0) = 1
    if start > hi:
        return LaurentPoly.zero()
    length = hi - start + 1
    # inverse series of den up to `length` coefficients
    dbits = den.bits
    ddeg = dbits.bit_length() - 1
    inv = [0] * length
    for t in range(length):
        acc = 1 if t == 0 else 0
        for j in range(1, min(t, ddeg) + 1):
            if (dbits >> j) & 1:
                acc ^= inv[t - j]
        inv[t] = acc
    inv_bits = 0
    for t, bit in enumerate(inv):
        if bit:
            inv_bits |= 1 << t
    prod = bits_mul(num.bits, inv_bits)
    series = LaurentPoly(prod, start)
    # clip to [lo, hi]
    out = 0
    for k in series.exponents():
        if lo <= k <= hi:
            out |= 1 << (k - lo)
    return LaurentPoly(out, lo)


def parse_poly(text: str) -> LaurentPoly:
    """The 'terms joined by +' grammar, one LaurentPoly sum per term."""
    s = "".join(text.split())
    if not s:
        raise PolyParseError("empty polynomial")
    if s == "0":
        return LaurentPoly.zero()
    p = LaurentPoly.zero()
    for term in s.split("+"):
        if term == "1":
            p = p + LaurentPoly.one()
        elif term == "D":
            p = p + LaurentPoly.term(1)
        elif term.startswith("D^"):
            try:
                k = int(term[2:])
            except ValueError:
                raise PolyParseError(f"bad exponent in term {term!r}") from None
            p = p + LaurentPoly.term(k)
        else:
            raise PolyParseError(f"bad term {term!r}")
    return p


def format_poly(p: LaurentPoly) -> str:
    """Terms joined by '+', each term's text formed on the spot, over the per-bit `exponents`."""
    if p.is_zero():
        return "0"
    return "+".join(["1" if k == 0 else "D" if k == 1 else f"D^{k}" for k in exponents(p)])


def parse_rational(text: str) -> RationalPoly:
    """'f', 'f/g', or the same with parenthesized sides; every cell is scanned for a top-level '/'."""
    s = "".join(text.split())
    depth = 0
    slash = -1
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            slash = i
            break
    if slash < 0:
        return RationalPoly(parse_poly(_strip_parens(s)))
    num = parse_poly(_strip_parens(s[:slash]))
    den = parse_poly(_strip_parens(s[slash + 1:]))
    if den.is_zero():
        raise PolyParseError("zero denominator")
    return RationalPoly(num, den)
