"""P2B encoding, shifted symplectic product, brute-force commutation oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from eaqconv.errors import DimensionMismatch
from eaqconv.pauli import CheckRow, shifted_symplectic
from eaqconv.poly import LaurentPoly, RationalPoly, parse_poly, parse_rational
from pauli_stream import PauliFrameStream, b2p, commute_oracle, format_stream, p2b, parse_stream


def row(zs, xs):
    return CheckRow(tuple(parse_rational(e) for e in zs), tuple(parse_rational(e) for e in xs))


# the rate-1/3 convolutional stabilizer generators used as the running example
GEN1 = parse_stream("XXX|XZY")
GEN2 = parse_stream("ZZZ|ZYX")
ROW1 = row(["0", "D", "D"], ["1+D", "1", "1+D"])
ROW2 = row(["1+D", "1+D", "1"], ["0", "D", "D"])


def test_p2b_rate_third_generator_one():
    assert p2b(GEN1) == ROW1


def test_p2b_rate_third_generator_two():
    assert p2b(GEN2) == ROW2


def test_p2b_identity_stream():
    assert p2b(PauliFrameStream.identity(3)) == row(["0"] * 3, ["0"] * 3)


def test_stream_trimming_canonical():
    s = PauliFrameStream(2, ("II", "XZ", "II"))
    assert s.frames == ("XZ",)
    assert s.start_frame == 1
    assert s.weight() == 2


def test_b2p_round_trip_on_generators():
    assert b2p(ROW1, 0, 1) == GEN1
    assert b2p(ROW2, 0, 1) == GEN2


def test_b2p_zero_row():
    s = b2p(row(["0"], ["0"]), 0, 3)
    assert s.weight() == 0


def test_b2p_repeating_fraction():
    r = row(["0"], ["1/(1+D)"])
    s = b2p(r, 0, 5)
    assert format_stream(s) == "X|X|X|X|X|X"


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10_000))
def test_b2p_p2b_identity_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    frames = tuple("".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(rng.randint(1, 4)))
    s = PauliFrameStream(n, frames, rng.randint(-2, 2))
    r = p2b(s)
    if s.frames:
        assert b2p(r, s.start_frame, s.start_frame + len(s.frames) - 1) == s
    # weight agrees with the number of nonzero bit positions
    bit_weight = sum(
        len(set((e.num.exponents() if not e.is_zero() else [])) | set(f.num.exponents() if not f.is_zero() else []))
        for e, f in zip(r.z, r.x)
    )
    assert s.weight() == bit_weight


# -- shifted symplectic product ----------------------------------------------


def test_symplectic_vanishes_for_rate_third_pairs():
    zero = RationalPoly.zero()
    assert shifted_symplectic(ROW1, ROW2) == zero
    assert shifted_symplectic(ROW1, ROW1) == zero
    assert shifted_symplectic(ROW2, ROW2) == zero


def test_symplectic_single_qubit_anticommute():
    h1 = row(["0"], ["1"])  # X
    h2 = row(["1"], ["0"])  # Z
    assert shifted_symplectic(h1, h2) == RationalPoly.one()


def test_check_row_halves_must_match():
    with pytest.raises(DimensionMismatch, match="z and x halves differ in length"):
        CheckRow((RationalPoly(parse_poly("1")),), ())


def test_symplectic_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        shifted_symplectic(row(["0"], ["1"]), ROW1)


def _random_row(rng, n, maxdeg=2):
    def rp():
        return RationalPoly(LaurentPoly(rng.randrange(0, 1 << (maxdeg + 1)), rng.randint(-1, 1)))

    return CheckRow(tuple(rp() for _ in range(n)), tuple(rp() for _ in range(n)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_symplectic_time_reversal_antisymmetry(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    h1, h2 = _random_row(rng, n), _random_row(rng, n)
    assert shifted_symplectic(h1, h2) == shifted_symplectic(h2, h1).reverse()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_symplectic_coefficients_count_shift_anticommutations(seed):
    """Coefficient of D^l equals the anticommutation parity of h2 vs the nl-shift of h1."""
    rng = random.Random(seed)
    n = rng.randint(1, 2)
    h1, h2 = _random_row(rng, n), _random_row(rng, n)
    prod = shifted_symplectic(h1, h2)
    assert prod.is_polynomial()
    s1, s2 = b2p(h1, -8, 8), b2p(h2, -8, 8)
    for l in range(-3, 4):
        count = 0
        for t in range(-12, 13):
            for q in range(n):
                a = s1.shifted(l).letter(t, q)
                b = s2.letter(t, q)
                if a != "I" and b != "I" and a != b:
                    count += 1
        assert prod.num.coeff(l) == count % 2, f"shift {l}"


# -- commutation oracle ---------------------------------------------------------


def test_oracle_rate_third_rows_commute():
    assert commute_oracle(ROW1, ROW2, 4)
    assert commute_oracle(ROW1, ROW1, 4)


def test_oracle_x_vs_z_same_qubit():
    assert not commute_oracle(row(["0"], ["1"]), row(["1"], ["0"]), 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_agrees_with_symplectic(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 2)
    h1, h2 = _random_row(rng, n), _random_row(rng, n)
    prod = shifted_symplectic(h1, h2)
    assert commute_oracle(h1, h2, 5) == prod.is_zero()


# -- text form --------------------------------------------------------------------


def test_stream_text_round_trip():
    s = parse_stream("XXX|XZY")
    assert format_stream(s) == "XXX|XZY"
    assert parse_stream(format_stream(GEN2)) == GEN2
