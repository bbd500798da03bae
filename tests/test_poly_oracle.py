"""Differential test: GF(2)(D) arithmetic against its per-bit reference.

`tests/poly_oracle.py` keeps the per-bit division, gcd, `reverse` and
`exponents`, the per-position carry-less product, the per-term Laurent
`divmod_width` and the `RationalPoly` that normalises every result.
Seeded pairs of masks up to 300 bits, dense, sparse and one of each, go
through both products.  Seeded random masks up to 512 bits (and
pairs with a planted common factor) go through both divisions and gcds,
Laurent polynomials on such masks through `reverse`, `exponents` and
`format_poly`, seeded Laurent pairs through `divmod_width`, and seeded
rational operands of four kinds (zero, denominator 1, a shared
denominator, distinct denominators, all with negative `low` allowed)
through `+`, `*`, `/`, `shift` and `reverse`.  Every result must equal the
reference exactly and be in canonical form.  Seeded rational functions, with windows below, over
and above the series' first exponent, go through `series_expand`.  Seeded
cells, valid and malformed (empty, bad terms, bad exponents, repeated and
negative exponents, parentheses, 'f/g' with zero denominators), go through
`parse_poly` and `parse_rational` against the per-term parser: both must
give the same result, or raise `PolyParseError` with the same message.
Seeded Laurent polynomials with exponents from -400 to 400 and widths up to
600 go through `format_poly` against the per-term formatter, and each text
parses back to its polynomial.
"""

from __future__ import annotations

import random

import pytest

import poly_oracle as oracle
from eaqconv import poly
from eaqconv.errors import PolyParseError
from eaqconv.poly import LaurentPoly, RationalPoly, format_poly

CASES = 400
KINDS = ("zero", "den1", "shared", "distinct")


def _mask(rng, max_bits=512):
    return rng.getrandbits(rng.randint(0, max_bits))


def _laurent(rng, max_bits=40):
    return LaurentPoly(_mask(rng, max_bits), rng.randint(-12, 12))


def _denominator(rng):
    return LaurentPoly(_mask(rng, 8) << 1 | 1, rng.randint(-4, 4))  # nonzero; unit pushed out on construction


def _assert_canonical(r):
    assert type(r) is RationalPoly
    num, den = r.num, r.den
    assert num.bits & 1 or (num.bits, num.low) == (0, 0)
    assert den.bits & 1 and den.low == 0
    if num.is_zero():
        assert den.bits == 1
    else:
        assert oracle.bits_gcd(num.bits, den.bits) == 1
    assert r.is_polynomial() == (den == LaurentPoly.one())


def _pair(rng, kind):
    """(num, den) inputs for two operands of the given kind."""
    if kind == "zero":
        return (LaurentPoly.zero(), _denominator(rng)), (_laurent(rng), _denominator(rng))
    if kind == "den1":
        return (_laurent(rng), LaurentPoly.one()), (_laurent(rng), LaurentPoly.one())
    if kind == "shared":
        d = _denominator(rng)
        return (_laurent(rng), d), (_laurent(rng), d)
    return (_laurent(rng), _denominator(rng)), (_laurent(rng), _denominator(rng))


def _both(num, den):
    fast, ref = RationalPoly(num, den), oracle.RationalPoly(num, den)
    assert (fast.num, fast.den) == (ref.num, ref.den)
    _assert_canonical(fast)
    return fast, ref


def _same(fast_op, ref_op):
    """Run both; they must raise the same exception or agree on a canonical result."""
    try:
        ref = ref_op()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fast_op()
        return
    fast = fast_op()
    assert (fast.num, fast.den) == (ref.num, ref.den)
    _assert_canonical(fast)


@pytest.mark.parametrize("seed", range(3))
def test_divmod_and_gcd_match_per_bit_reference(seed):
    rng = random.Random(seed)
    for _ in range(CASES):
        a, b = _mask(rng), _mask(rng) or 1
        assert poly._bits_divmod(a, b) == oracle.bits_divmod(a, b)
        assert poly._bits_gcd(a, b) == oracle.bits_gcd(a, b)
        assert poly._bits_gcd(b, a) == oracle.bits_gcd(b, a)
        g = _mask(rng, 64) | 1
        x, y = poly._bits_mul(a, g), poly._bits_mul(b, g)
        assert poly._bits_gcd(x, y) == oracle.bits_gcd(x, y)
        assert poly._bits_divmod(x, g) == (a, 0)
    for a in (0, 1, 2, 3, (1 << 511) | 1):
        assert poly._bits_gcd(a, 1) == poly._bits_gcd(1, a) == 1
        assert poly._bits_divmod(a, 1) == (a, 0)
    with pytest.raises(ZeroDivisionError):
        poly._bits_divmod(5, 0)


def _sparse(rng, max_bits):
    """A mask of up to max_bits bits with at most four set."""
    return sum(1 << rng.randrange(max_bits) for _ in range(rng.randint(0, 4)))


@pytest.mark.parametrize("seed", range(3))
def test_product_matches_per_position_reference(seed):
    rng = random.Random(f"mul/{seed}")
    for _ in range(3 * CASES):
        a = _mask(rng, 300) if rng.random() < 0.7 else _sparse(rng, 300)
        b = _mask(rng, 300) if rng.random() < 0.7 else _sparse(rng, 300)
        assert poly._bits_mul(a, b) == poly._bits_mul(b, a) == oracle.bits_mul(a, b)
    for a in (0, 1, 2, (1 << 299) | 1):
        assert poly._bits_mul(a, 0) == 0 and poly._bits_mul(a, 1) == a


def test_a_sparse_square_is_its_terms_squared():
    """(1 + D^N)^2 = 1 + D^2N over GF(2); one shift per set bit makes it cheap at N = 10^5."""
    n = 10**5
    assert poly._bits_mul((1 << n) | 1, (1 << n) | 1) == (1 << 2 * n) | 1


@pytest.mark.parametrize("seed", range(3))
def test_laurent_division_helpers_match_reference(seed):
    rng = random.Random(100 + seed)
    for _ in range(CASES):
        a, b = _laurent(rng, 200), _laurent(rng, 200)
        if not b.is_zero():
            v = min(a.low, b.low) if a else 0
            qb, rb = oracle.bits_divmod(a.bits << (a.low - v), b.bits << (b.low - v)) if a else (0, 0)
            assert poly.divmod_shifted(a, b) == (LaurentPoly(qb, 0), LaurentPoly(rb, v))
        if a or b:
            assert poly.gcd(a, b) == LaurentPoly(oracle.bits_gcd(a.bits, b.bits), 0)
        if a:
            assert poly.divides(a, b) == (oracle.bits_divmod(b.bits, a.bits)[1] == 0)


@pytest.mark.parametrize("seed", range(3))
def test_divmod_width_matches_per_term_reference(seed):
    rng = random.Random(300 + seed)
    for _ in range(CASES):
        a, b = LaurentPoly(_mask(rng, 200), rng.randint(-60, 60)), _laurent(rng, rng.choice((3, 12, 60)))
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                poly.divmod_width(a, b)
            continue
        q, r = poly.divmod_width(a, b)
        assert (q, r) == oracle.divmod_width(a, b)
        assert q * b + r == a and (r.is_zero() or r.width < b.width)


@pytest.mark.parametrize("seed", range(3))
def test_reverse_and_exponents_match_reference(seed):
    rng = random.Random(200 + seed)
    for _ in range(CASES):
        p = LaurentPoly(_mask(rng), rng.randint(-600, 600))
        assert p.reverse() == oracle.reverse(p)
        assert p.exponents() == oracle.exponents(p)
        assert format_poly(p) == oracle.format_poly(p)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(2))
def test_rational_ops_match_normalising_reference(kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    shared = 0
    for _ in range(CASES):
        (an, ad), (bn, bd) = _pair(rng, kind)
        if rng.random() < 0.5:
            an, ad, bn, bd = bn, bd, an, ad
        a, ra = _both(an, ad)
        b, rb = _both(bn, bd)
        shared += a.den == b.den != LaurentPoly.one()
        for x, rx, y, ry in ((a, ra, b, rb), (a, ra, a, ra)):
            _same(lambda: x + y, lambda: rx + ry)
            _same(lambda: x * y, lambda: rx * ry)
            _same(lambda: x / y, lambda: rx / ry)
        k = rng.randint(-20, 20)
        _same(lambda: a.shift(k), lambda: ra.shift(k))
        _same(lambda: a.reverse(), lambda: ra.reverse())
        _same(lambda: a.inverse(), lambda: ra.inverse())
    if kind == "shared":
        assert shared >= CASES // 5  # a/d + b/d with d != 1 after cancelling


@pytest.mark.parametrize("seed", range(3))
def test_series_expand_matches_per_bit_reference(seed):
    rng = random.Random(f"series/{seed}")
    for _ in range(CASES):
        den = rng.choice((LaurentPoly.one(), _denominator(rng), LaurentPoly(_mask(rng, 80) << 1 | 1)))
        r = RationalPoly(_laurent(rng, rng.choice((8, 40, 200))), den)
        lo = rng.randint(-40, 40)
        hi = lo + rng.randint(-2, 300)
        if lo > hi:
            with pytest.raises(ValueError):
                poly.series_expand(r, lo, hi)
            continue
        assert poly.series_expand(r, lo, hi) == oracle.series_expand(r, lo, hi)


_BAD_TERMS = ("Q", "D^x", "D^", "2", "0", "D^1.5", "d", "", "D^--1", "1D")


def _sum(rng):
    """Terms joined by '+', with spaces; repeats, negative exponents and now and then a bad term."""
    terms = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.06:
            terms.append(rng.choice(_BAD_TERMS))
        elif roll < 0.2 and terms:
            terms.append(rng.choice(terms))
        else:
            k = rng.randint(-9, 9)
            terms.append("1" if k == 0 else "D" if k == 1 and rng.random() < 0.5 else f"D^{k}")
    if rng.random() < 0.03:
        return rng.choice(("", "  ", "0"))
    return rng.choice(("+", " + ", "+ ")).join(terms)


def _cell(rng):
    """A matrix cell: a sum, or f/g, either side in parentheses now and then."""
    def side():
        s = _sum(rng)
        return f"({s})" if rng.random() < 0.3 else s

    if rng.random() < 0.4:
        return side()
    den = rng.choice(("0", "1+1")) if rng.random() < 0.1 else side()
    return f"{side()}/{den}"


def _same_parse(parse, reference, text):
    """Both parsers give equal results, or raise PolyParseError with the same message; True on an error."""
    try:
        want = reference(text)
    except PolyParseError as exc:
        with pytest.raises(PolyParseError) as got:
            parse(text)
        assert str(got.value) == str(exc), text
        return True
    got = parse(text)
    if isinstance(want, LaurentPoly):
        assert got == want, text
    else:
        assert (got.num, got.den) == (want.num, want.den), text
    return False


@pytest.mark.parametrize("seed", range(3))
def test_parser_matches_per_term_reference(seed):
    rng = random.Random(f"parse/{seed}")
    errors = 0
    for _ in range(CASES):
        errors += _same_parse(poly.parse_poly, oracle.parse_poly, _sum(rng))
        errors += _same_parse(poly.parse_rational, oracle.parse_rational, _cell(rng))
    assert CASES // 10 <= errors <= CASES


def test_format_matches_per_term_reference():
    rng = random.Random("format")
    fixed = [LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.term(1), LaurentPoly.term(-1)]
    fixed += [LaurentPoly.term(k) for k in (-400, -10, 2, 10, 400)] + [LaurentPoly((1 << 601) - 1, -400)]
    cases = list(fixed)
    while len(cases) < 2000:
        width = rng.randint(0, 600)
        bits = (1 << width | rng.getrandbits(width) << 1 | 1) if width else 1
        cases.append(LaurentPoly(bits, rng.randint(-400, 400 - width)))
    for p in cases:
        text = format_poly(p)
        assert text == oracle.format_poly(p)
        assert poly.parse_poly(text) == p
