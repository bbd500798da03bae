"""Exact arithmetic for binary Laurent polynomials and rational functions in D.

A Laurent polynomial over GF(2) is stored as a bit-packed integer together
with the exponent of its lowest-order term: ``bits`` b_0..b_m with offset
``low`` encode b_0 D^low + b_1 D^(low+1) + ... + b_m D^(low+m).  Canonical
form keeps bit 0 set (and Python ints have no leading zeros), so both ends
are trimmed and equality/hashing are O(1).  The zero polynomial is the
unique pair (0, 0); `LaurentPoly.zero()`, a product with a zero factor and
the replay's unpacked rows all give the one shared object `ZERO`, so a
zero entry costs no object of its own.  Sharing is exact, as a
LaurentPoly is immutable and compares by value.

A rational function is a pair num/den of Laurent polynomials with den != 0,
gcd(num, den) = 1 and den normalized to lowest exponent 0 with nonzero
constant term; every unit D^k is pushed into the numerator.  This keeps
denominators inside GF(2)[D] so the Euclidean algorithm stays ordinary.
The form is unique; `canonical_pair` brings a pair to it, as matrix text
parses (`parse_fraction`) and after each operation of a RationalPoly.

Text grammar: terms joined by '+', each term '1', 'D' or 'D^k' with integer
k, negative allowed and |k| <= MAX_EXPONENT, e.g. '1+D^2' or 'D^-1+1+D'.
Parsing and printing round-trip exactly.  Printing looks each term's text up in `_TERMS`, a
process-wide table of the text of D^k by exponent k, made on first use.
"""

from __future__ import annotations

from itertools import compress

from .errors import PolyParseError


def _bits_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[D] coefficient masks: one shift and XOR per set bit of the sparser one."""
    if a.bit_count() < b.bit_count():
        a, b = b, a
    c = 0
    while b:
        low = b & -b
        c ^= a << (low.bit_length() - 1)
        b ^= low
    return c


def _bits_divmod(a: int, b: int) -> tuple[int, int]:
    """Ordinary GF(2)[D] division of coefficient masks, b != 0; one shift-and-XOR per quotient term."""
    if b == 1:
        return a, 0
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    n = b.bit_length()
    q = 0
    while (s := a.bit_length() - n) >= 0:
        a ^= b << s
        q |= 1 << s
    return q, a


def _bits_gcd(a: int, b: int) -> int:
    if a == 1 or b == 1:
        return 1
    while b:
        a, b = b, _bits_divmod(a, b)[1]
    return a


class LaurentPoly:
    """A binary Laurent polynomial in the delay variable D."""

    __slots__ = ("bits", "low")

    def __init__(self, bits: int = 0, low: int = 0):
        if bits < 0:
            raise ValueError("coefficient mask must be nonnegative")
        if not bits & 1:
            if bits:
                shift = (bits & -bits).bit_length() - 1
                bits >>= shift
                low += shift
            else:
                low = 0
        _set_bits(self, bits)
        _set_low(self, low)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls(1, 0)

    @classmethod
    def term(cls, k: int) -> LaurentPoly:
        """The monomial D^k."""
        return cls(1, k)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.bits == 0

    def __bool__(self) -> bool:
        return self.bits != 0

    @property
    def deg(self) -> int:
        """Highest exponent.  Undefined on the zero polynomial."""
        if self.bits == 0:
            raise ValueError("deg is undefined on the zero polynomial")
        return self.low + self.bits.bit_length() - 1

    @property
    def dell(self) -> int:
        """Lowest exponent.  Undefined on the zero polynomial."""
        if self.bits == 0:
            raise ValueError("del is undefined on the zero polynomial")
        return self.low

    @property
    def width(self) -> int:
        """deg - del; the span of the support."""
        if self.bits == 0:
            raise ValueError("width is undefined on the zero polynomial")
        return self.bits.bit_length() - 1

    def coeff(self, k: int) -> int:
        if self.bits == 0 or k < self.low:
            return 0
        return (self.bits >> (k - self.low)) & 1

    def exponents(self) -> list[int]:
        """The exponents of the nonzero terms, ascending: one scan of the reversed binary string."""
        s = bin(self.bits)[:1:-1]
        return list(compress(range(self.low, self.low + len(s)), map("1".__eq__, s)))

    def weight(self) -> int:
        return bin(self.bits).count("1")

    def delay_free(self) -> tuple[LaurentPoly, int]:
        """Split off the unit: self = D^k * p with del(p) = 0; returns (p, k)."""
        return LaurentPoly(self.bits, 0), self.low

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if self.bits == 0:
            return other
        if other.bits == 0:
            return self
        low = min(self.low, other.low)
        return LaurentPoly((self.bits << (self.low - low)) ^ (other.bits << (other.low - low)), low)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if self.bits == 0 or other.bits == 0:
            return ZERO
        return LaurentPoly(_bits_mul(self.bits, other.bits), self.low + other.low)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by D^k."""
        if self.bits == 0:
            return self
        return LaurentPoly(self.bits, self.low + k)

    def reverse(self) -> LaurentPoly:
        """Substitute D^-1 for D (time reversal)."""
        if self.bits == 0:
            return self
        n = self.bits.bit_length()
        return LaurentPoly(int(bin(self.bits)[:1:-1], 2), -(self.low + n - 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.bits == other.bits and self.low == other.low

    def __hash__(self) -> int:
        return hash((self.bits, self.low))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


# the slots' own setters, which bypass the __setattr__ that keeps LaurentPoly immutable
_set_bits = LaurentPoly.bits.__set__
_set_low = LaurentPoly.low.__set__

ZERO = LaurentPoly(0, 0)
ONE = LaurentPoly.one()
D = LaurentPoly.term(1)


def divmod_shifted(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Divide a by b after factoring out the common shift: a = q*b + r.

    Both operands are shifted by D^-v with v = min(del a, del b) so the
    division happens in GF(2)[D]; deg r < deg b there.  The quotient is
    unchanged by the common shift and the remainder is shifted back.
    A zero b raises ZeroDivisionError from `_bits_divmod`.
    """
    v = min(a.low, b.low)
    qb, rb = _bits_divmod(a.bits << (a.low - v), b.bits << (b.low - v))
    return LaurentPoly(qb, 0), LaurentPoly(rb, v)


def divmod_width(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Laurent division by repeated leading-term elimination: a = q*b + r.

    The remainder satisfies width(r) < width(b) (or r = 0), which makes
    (deg - del) a Euclidean function on the Laurent ring.  Each step XORs
    b, aligned to the remainder's leading term, into the remainder's mask;
    the aligned copy never reaches below the remainder's lowest term, so
    the remainder stays on a's exponent range and the quotient's terms are
    distinct.  At most width(a) - width(b) + 1 steps.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    bw = b.bits.bit_length() - 1
    r, q = a.bits, 0
    while r and (s := r.bit_length() - 1 - bw) >= (r & -r).bit_length() - 1:
        r ^= b.bits << s
        q |= 1 << s
    return LaurentPoly(q, a.low - b.low), LaurentPoly(r, a.low)


def gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Canonical GF(2)[D] gcd after shifting both inputs to lowest exponent 0."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return LaurentPoly(_bits_gcd(a.bits, b.bits), 0)


def common_denominator(pairs: list) -> tuple[LaurentPoly, list[LaurentPoly]]:
    """Entries given as (num, den) pairs, each den in GF(2)[D] with constant term 1, over one denominator.

    Returns (m, nums) with num/den = nums[i]/m, m the lcm of the dens, the
    least m that clears them all.  (m, nums) is in lowest terms when each pair is.
    """
    m = ONE
    for _, d in pairs:
        if d.bits != 1 and d != m:
            g = gcd(m, d)
            q, _ = divmod_shifted(m, g)
            m = q * d
    if m.bits == 1:
        return m, [n for n, _ in pairs]
    return m, [n if d == m else n * divmod_shifted(m, d)[0] for n, d in pairs]


def lowest_terms(den: LaurentPoly, nums):
    """The row nums/den with den and every numerator divided by their common factor: (den, nums).

    den lies in GF(2)[D] with constant term 1, so no power of D divides it
    and the common factor is the GF(2)[D] gcd of den and the numerators'
    delay-free parts.  An all-zero row ends with den 1.  nums comes back
    as it was when nothing cancels.
    """
    g = den.bits
    for e in nums:
        if g == 1:
            return den, nums
        g = _bits_gcd(g, e.bits)
    if g == 1:
        return den, nums
    return LaurentPoly(_bits_divmod(den.bits, g)[0]), [LaurentPoly(_bits_divmod(e.bits, g)[0], e.low) for e in nums]


def primitive_part(entries: list[LaurentPoly]) -> list[LaurentPoly]:
    """Laurent entries divided by their gcd in the Laurent ring.

    The gcd is the GF(2)[D] gcd of the delay-free parts times D^l, l the
    lowest exponent, so the result has lowest exponent 0 and coprime
    entries.  Two rows that differ by a nonzero rational factor have the
    same primitive part (Gauss's lemma).  A zero row is returned as it is.
    """
    g, low = 0, None
    for e in entries:
        if e.bits:
            g = _bits_gcd(g, e.bits)
            low = e.low if low is None else min(low, e.low)
    if low is None or (g == 1 and low == 0):
        return entries
    return [LaurentPoly(_bits_divmod(e.bits, g)[0], e.low - low) if e.bits else e for e in entries]


def divides(a: LaurentPoly, b: LaurentPoly) -> bool:
    """a | b over the Laurent ring (powers of D are units)."""
    if a.is_zero():
        return b.is_zero()
    return _bits_divmod(b.bits, a.bits)[1] == 0


def canonical_pair(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """num/den in its unique form (num, den): den's unit D^k pushed into num, then the common factor cancelled."""
    if den.bits != 1 or den.low:  # a denominator of exactly 1 is canonical as it is
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        den, k = den.delay_free()
        den, (num,) = lowest_terms(den, (num.shift(-k),))
    return num, den


class RationalPoly:
    """A rational function num/den of binary Laurent polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        num, den = canonical_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    @classmethod
    def zero(cls) -> RationalPoly:
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> RationalPoly:
        return cls(LaurentPoly.one())

    @classmethod
    def of(cls, p) -> RationalPoly:
        if isinstance(p, RationalPoly):
            return p
        return cls(p)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.bits == 1

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
        return RationalPoly(self.num.reverse(), self.den.reverse())

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return format_rational(self.num, self.den)

    def __repr__(self) -> str:
        return f"RationalPoly({str(self)!r})"


def _bits_reverse(a: int, n: int) -> int:
    """The low n coefficient bits of a in reverse order."""
    return int(format(a & ((1 << n) - 1), f"0{n}b")[::-1], 2) if n else 0


def series_expand(r: RationalPoly | tuple[LaurentPoly, LaurentPoly], lo: int, hi: int) -> LaurentPoly:
    """Truncate the ascending formal power series of r to exponents [lo, hi].

    r is a RationalPoly or a (num, den) pair with den in GF(2)[D] and
    constant term 1; the pair need not be in lowest terms, since the series
    of num/den does not depend on it.
    The expansion direction is ascending powers of D (plain long division);
    the denominator's nonzero constant term makes the series well defined.
    The series starts at the numerator's lowest exponent, and its first n
    coefficients are s with num = s*den + D^n t, deg t < deg den = m.
    Reversed, that is D^m rev_n(num) = rev_n(s) rev(den) + rev_m(t), so
    rev_n(s) is a quotient of ordinary GF(2)[D] division.
    """
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
    num, den = (r.num, r.den) if isinstance(r, RationalPoly) else r
    start = num.low
    if num.is_zero() or start > hi:
        return LaurentPoly.zero()
    n = hi - start + 1
    m = den.bits.bit_length() - 1
    q, _ = _bits_divmod(_bits_reverse(num.bits, n) << m, _bits_reverse(den.bits, m + 1))
    cut = max(lo - start, 0)
    return LaurentPoly(_bits_reverse(q, n) >> cut, start + cut)


# -- text grammar ----------------------------------------------------------


# |k| of an input term D^k is at most this.  A term's mask has |k| bits, so a
# typo such as D^10000000000000 must be a parse error, not a MemoryError.
MAX_EXPONENT = 10**6


def parse_poly(text: str) -> LaurentPoly:
    """Parse the 'terms joined by +' grammar, e.g. '1+D^2' or 'D^-1+1+D'.

    Each term's exponent is read in order, and the terms' bits are XORed
    into one mask, so a repeated term cancels ('1+1' is 0).  An exponent
    beyond MAX_EXPONENT in absolute value is rejected before any mask is
    formed.
    """
    s = "".join(text.split())
    if not s:
        raise PolyParseError("empty polynomial")
    if s == "0":
        return LaurentPoly.zero()
    exps = []
    for term in s.split("+"):
        if term == "1":
            exps.append(0)
        elif term == "D":
            exps.append(1)
        elif term.startswith("D^") and term.isascii() and "_" not in term:  # int() reads '1_0' and non-ASCII digits
            try:
                k = int(term[2:])
            except ValueError:
                raise PolyParseError(f"bad exponent in term {term!r}") from None
            if abs(k) > MAX_EXPONENT:
                raise PolyParseError(f"exponent in term {term!r} is beyond the bound |k| <= {MAX_EXPONENT}")
            exps.append(k)
        else:
            raise PolyParseError(f"bad term {term!r}")
    low = min(exps)
    bits = 0
    for k in exps:
        bits ^= 1 << (k - low)
    return LaurentPoly(bits, low)


class _TermText(dict):
    """The text of the term D^k by exponent k, each made on first use and kept for the process."""

    def __missing__(self, k: int) -> str:
        text = self[k] = "1" if k == 0 else "D" if k == 1 else f"D^{k}"
        return text


_TERMS = _TermText()


def format_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    return "+".join(map(_TERMS.__getitem__, p.exponents()))


def parse_fraction(text: str) -> tuple[LaurentPoly, LaurentPoly]:
    """Parse 'f', 'f/g', or the same with parenthesized sides, to its `canonical_pair` (num, den)."""
    s = "".join(text.split())
    if "/" in s:
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "/" and depth == 0:
                num, den = parse_poly(_strip_parens(s[:i])), parse_poly(_strip_parens(s[i + 1:]))
                if den.is_zero():
                    raise PolyParseError("zero denominator")
                return canonical_pair(num, den)
    return parse_poly(_strip_parens(s)), ONE


def parse_rational(text: str) -> RationalPoly:
    """`parse_fraction` as a RationalPoly."""
    return RationalPoly(*parse_fraction(text))


def _strip_parens(s: str) -> str:
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    return s
        s = s[1:-1]
    return s


def format_rational(num: LaurentPoly, den: LaurentPoly) -> str:
    """num/den as text, in lowest terms; den lies in GF(2)[D] with constant term 1."""
    if den.bits != 1:
        den, (num,) = lowest_terms(den, (num,))
    text = format_poly(num)
    if den.bits == 1:
        return text
    if "+" in text:
        text = f"({text})"
    return f"{text}/({format_poly(den)})"
