"""Laurent polynomial and rational function arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from eaqconv.poly import (
    divides,
    D,
    ONE,
    ZERO,
    MAX_EXPONENT,
    LaurentPoly,
    RationalPoly,
    divmod_shifted,
    format_poly,
    format_rational,
    gcd,
    parse_poly,
    parse_rational,
    series_expand,
)
from eaqconv.poly import parse_poly as P
from eaqconv.errors import PolyParseError


laurents = st.builds(LaurentPoly, st.integers(min_value=0, max_value=0xFFFF), st.integers(min_value=-6, max_value=6))
nonzero_laurents = laurents.filter(bool)


# -- add / mul / reverse ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(laurents)
def test_zero_is_one_shared_object(p):
    assert LaurentPoly.zero() is ZERO and ZERO == LaurentPoly(0, 7)
    assert ZERO * p is ZERO and p * ZERO is ZERO


def test_laurent_poly_is_immutable_and_canonical():
    p = LaurentPoly(6, 0)
    assert p == LaurentPoly(3, 1)
    assert (p.bits, p.low) == (3, 1)
    for name in ("bits", "low"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1)
    assert (p.bits, p.low) == (3, 1)
    assert (LaurentPoly(0, 5).bits, LaurentPoly(0, 5).low) == (0, 0)
    with pytest.raises(ValueError):
        LaurentPoly(-1, 0)


def test_add_characteristic_two():
    assert P("1+D") + P("1+D") == ZERO


def test_add_coefficientwise_xor():
    # (1+D^2) + (1+D+D^2) = D by hand: matching 1 and D^2 cancel
    assert P("1+D^2") + P("1+D+D^2") == D


def test_add_identity():
    f = P("D^-1+1+D^3")
    assert ZERO + f == f
    assert f + ZERO == f


def test_reverse_golden():
    assert P("1+D+D^3").reverse() == P("D^-3+D^-1+1")


def test_mul_cross_terms_cancel():
    # (1+D)(1+D^-1) = 1 + D^-1 + D + 1 = D^-1 + D
    assert P("1+D") * P("1+D^-1") == P("D^-1+D")


def test_reverse_zero():
    assert ZERO.reverse() == ZERO


def test_reverse_involution_and_automorphism():
    a, b = P("1+D^2+D^5"), P("D^-2+D")
    assert a.reverse().reverse() == a
    assert (a * b).reverse() == a.reverse() * b.reverse()


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a == ZERO
    assert a * b == b * a


@given(laurents, laurents)
def test_reverse_is_ring_automorphism(a, b):
    assert (a + b).reverse() == a.reverse() + b.reverse()
    assert (a * b).reverse() == a.reverse() * b.reverse()
    assert a.reverse().reverse() == a


# -- deg / del / gcd --------------------------------------------------------


def test_deg_del_golden():
    f = P("1+D+D^3")
    assert f.deg == 3
    assert f.dell == 0
    assert f.deg - f.dell + 1 == 4


def test_deg_del_zero_signal():
    with pytest.raises(ValueError):
        ZERO.deg
    with pytest.raises(ValueError):
        ZERO.dell
    assert P("D^-1+D^2").width == 3
    with pytest.raises(ValueError, match="width is undefined"):
        ZERO.width


def test_gcd_self():
    f = P("D^-1+D")
    assert gcd(f, f) == P("1+D^2")  # shifted to lowest exponent 0


def test_gcd_golden():
    # 1+D^2 = (1+D)^2 over GF(2)
    assert gcd(P("1+D^2"), P("1+D")) == P("1+D")


def test_gcd_both_zero():
    with pytest.raises(ValueError):
        gcd(ZERO, ZERO)


@given(nonzero_laurents, nonzero_laurents)
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    assert divides(g, a) and divides(g, b)


@given(laurents, nonzero_laurents)
def test_divmod_shifted_identity(a, b):
    q, r = divmod_shifted(a, b)
    assert q * b + r == a
    if not r.is_zero():
        va = min(a.low, b.low) if not a.is_zero() else b.low
        assert r.deg - va < b.deg - va + 1  # deg r < deg b in the common frame


@pytest.mark.parametrize("a", ["0", "1", "D^-2+D"])
def test_divmod_shifted_by_zero_raises(a):
    with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
        divmod_shifted(P(a), ZERO)


def test_zero_divides_only_zero():
    assert divides(ZERO, ZERO)
    assert not divides(ZERO, ONE) and not divides(ZERO, P("D^-1+D"))
    assert divides(P("1+D"), ZERO)


# -- rational normalization --------------------------------------------------


def test_rational_normal_form():
    r = RationalPoly(P("D+D^2"), P("D^2+D^3"))
    assert r == RationalPoly(P("D^-1"))
    assert r.num == P("D^-1") and r.den == ONE


def test_rational_gcd_reduced():
    r = RationalPoly(P("1+D^2"), P("1+D"))  # (1+D)^2/(1+D)
    assert r.num == P("1+D") and r.den == ONE


def test_rational_poly_is_immutable():
    r = RationalPoly(P("1+D"), P("1+D+D^2"))
    for name in ("num", "den"):
        with pytest.raises(AttributeError, match="RationalPoly is immutable"):
            setattr(r, name, ONE)
    assert (r.num, r.den) == (P("1+D"), P("1+D+D^2"))


def test_rational_zero_den_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalPoly(ONE, ZERO)


@given(laurents, nonzero_laurents, laurents, nonzero_laurents)
def test_rational_field_ops(an, ad, bn, bd):
    a, b = RationalPoly(an, ad), RationalPoly(bn, bd)
    assert a + a == RationalPoly.zero()
    assert (a + b) + a == b
    if not a.is_zero():
        assert a * a.inverse() == RationalPoly.one()


@given(laurents, nonzero_laurents, st.integers(min_value=-8, max_value=8))
def test_rational_shift_is_multiplication_by_unit(num, den, k):
    r = RationalPoly(num, den)
    assert r.shift(k) == RationalPoly(LaurentPoly.term(k)) * r


# -- series expansion ---------------------------------------------------------


def test_series_repeating_fraction():
    r = RationalPoly(ONE, P("1+D"))
    assert series_expand(r, 0, 4) == P("1+D+D^2+D^3+D^4")


def test_series_long_division_golden():
    r = RationalPoly(ONE, P("1+D+D^3"))
    assert series_expand(r, 0, 11) == P("1+D+D^2+D^4+D^7+D^8+D^9+D^11")


def test_series_polynomial_case():
    f = P("D^-2+1+D^3")
    assert series_expand(RationalPoly(f), f.dell, f.deg) == f


def test_series_empty_window():
    with pytest.raises(ValueError):
        series_expand(RationalPoly.one(), 3, 2)


@given(laurents, nonzero_laurents)
@settings(max_examples=200)
def test_series_division_check_window(num, den):
    """series(r, lo, hi) * den - num has no terms with exponent in [lo, hi - deg den].

    The window must cover the start of the series (lo <= del num), otherwise
    the clipped head leaves residuals by construction.
    """
    den_df = LaurentPoly(den.bits, 0)
    r = RationalPoly(num, den_df)
    lo = -4 if r.is_zero() else min(-4, r.num.dell)
    hi = lo + 16
    s = series_expand(r, lo, hi)
    diff = s * r.den + r.num
    top = hi - r.den.deg
    for k in diff.exponents():
        assert not (lo <= k <= top), f"residual term D^{k} inside checked window"


# -- text grammar -------------------------------------------------------------


def test_parse_print_goldens():
    assert format_poly(P("D^-1+1+D")) == "D^-1+1+D"
    assert format_poly(ZERO) == "0"
    assert parse_poly("  1 + D^2 ") == P("1+D^2")


def test_parse_rejects_garbage():
    with pytest.raises(PolyParseError):
        parse_poly("1+Q")
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("D^x")


@pytest.mark.parametrize("text", ["D^1_0", "1+D^1_0", "D^\u0663", "D^-\u0663", "D^", "D^-", "D^--1", "D^+1"])
def test_parse_rejects_exponents_outside_the_grammar(text):
    """An exponent is an optional '-' and ASCII digits, nothing else that int() reads."""
    with pytest.raises(PolyParseError, match="bad (exponent|term)"):
        parse_poly(text)


@pytest.mark.parametrize("text", ["D^1000001", "1+D^-1000001", "1+D^10000000000000", "D^-10000000000000+D"])
def test_parse_rejects_exponents_beyond_the_bound(text):
    """|k| of a term D^k is at most MAX_EXPONENT; a larger one is named before any mask is formed."""
    with pytest.raises(PolyParseError, match=r"beyond the bound \|k\| <= 1000000"):
        parse_poly(text)


def test_parse_accepts_exponents_at_the_bound():
    assert MAX_EXPONENT == 10**6
    assert parse_poly(f"D^{MAX_EXPONENT}+1+D^-{MAX_EXPONENT}").exponents() == [-MAX_EXPONENT, 0, MAX_EXPONENT]


def test_parse_accepts_signed_ascii_exponents():
    assert parse_poly("D^-0") == parse_poly("1")
    assert parse_poly("D^12") == LaurentPoly.term(12)
    assert parse_poly("D^-12+D^007") == LaurentPoly.term(-12) + LaurentPoly.term(7)


@given(laurents)
def test_poly_text_round_trip(p):
    assert parse_poly(format_poly(p)) == p


@given(laurents, nonzero_laurents)
def test_rational_text_round_trip(n, d):
    r = RationalPoly(n, d)
    assert parse_rational(format_rational(r.num, r.den)) == r
    assert parse_rational(str(r)) == r


def test_rational_format_goldens():
    assert format_rational(ONE, P("1+D+D^2")) == "1/(1+D+D^2)"
    assert format_rational(P("1+D"), P("1+D+D^2")) == "(1+D)/(1+D+D^2)"
    assert format_rational(P("1+D"), ONE) == "1+D"
    assert str(RationalPoly(P("1+D"), P("1+D+D^2"))) == "(1+D)/(1+D+D^2)"
    assert repr(RationalPoly(ONE, P("1+D"))) == "RationalPoly('1/(1+D)')"


def test_rational_format_reduces_the_pair():
    assert format_rational(P("1+D^2"), P("1+D^3")) == "(1+D)/(1+D+D^2)"
    assert format_rational(P("D^-1+D"), P("1+D")) == "D^-1+1"
    assert format_rational(ZERO, P("1+D")) == "0"
