"""The construction's guards: each raises its typed error on the state it checks.

No admitted input reaches these lines (`scripts/corpus_traffic.py` lists
them), so each test builds the state a guard refuses: a malformed input
pair, a hand-made reduction or check matrix, or a classified record whose
finish is broken by a patched block reduction, a wrong count or a wrong
class tag, handed to the private class builder.  A guard
must name what it found, as a typed `EaqconvError`, rather than let a
later step fail with a bare exception or print a wrong code.
"""

from __future__ import annotations

import pytest

from eaqconv import construct
from eaqconv.construct import CLASS1, CLASS2_SPECIAL, _monomial_offset, _power_diagonal, _Reduction, decompose_general
from eaqconv.errors import InternalError, NotDelayFree, ValidationError
from eaqconv.gates import Circuit, QuantumCheckMatrix
from eaqconv.poly import ONE, ZERO, LaurentPoly
from eaqconv.polymat import parse_matrix
from support import golden_pairs

D = LaurentPoly(1, 1)
ONE_PLUS_D = LaurentPoly(0b11)


def _record(h1: str, h2: str):
    return decompose_general(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2)))


def _golden(name: str):
    return _record(*next((h1, h2) for pid, h1, h2 in golden_pairs() if pid == name))


def test_validation_names_each_malformed_input():
    """A shape, a rational entry, a negative exponent and a column count, each named in its message."""
    h = parse_matrix("1+D^2, 1+D+D^2")
    cases = [
        (parse_matrix("1, 0\n0, 1"), h, ValidationError, "H1 must have 1 <= rows < cols, got 2x2"),
        (parse_matrix("1/(1+D), 1"), h, ValidationError, "H1 has rational entries"),
        (h, parse_matrix("D^-1, 1"), NotDelayFree, "H2 is not delay-free: entry D^-1 has a negative exponent"),
        (h, parse_matrix("1, D, 0"), ValidationError, "column counts differ: 2 vs 3"),
    ]
    for h1, h2, error, message in cases:
        with pytest.raises(error) as info:
            construct.validate_inputs(h1, h2)
        assert str(info.value) == message


def test_power_diagonal_names_the_first_entry_that_is_no_power_of_d():
    grid = [[D, ZERO], [ZERO, ONE_PLUS_D]]
    assert _power_diagonal(grid, 0, 0, 1, "{}") == [D]
    with pytest.raises(InternalError, match=r"^factor 1\+D is not a power of D$"):
        _power_diagonal(grid, 0, 0, 2, "factor {} is not a power of D")


def test_play_keeps_the_f_diagonal_by_gates_or_raises():
    """A row addition on the E block is followed by the column gate that keeps the F diagonal's power of D.

    Block rows 0 and 1 have F diagonal entries D (column 1) and 1 (column
    2).  Row 0 += row 1 adds 1 at (0, 2), which D^-1 times column 1 takes
    away again.  With a diagonal entry that is no power of D, the play
    raises instead.
    """
    red = _Reduction([[ONE, D, ZERO], [ZERO, ZERO, ONE]], [[ONE, ONE, ONE]])
    red.play([("row_add", 1, 0, 1, 0)], "z", 0, 0, gamma_f_col0=1, note="kept")
    assert red.z[:2] == [[ONE, D, ZERO], [ZERO, ZERO, ONE]]
    assert [(g.kind, g.note) for g in Circuit.from_strings(red.strings)] == [("CNOT", "kept")]
    red.z[0][1] = ONE_PLUS_D
    with pytest.raises(InternalError, match="F-block diagonal lost its power-of-D form"):
        red.play([("row_add", 1, 0, 1, 0)], "z", 0, 0, gamma_f_col0=1)


def test_monomial_offset_reads_only_a_lone_power_of_d():
    """The offset of a decoded logical row is k only for D^k alone on its own side and column."""
    qcm = QuantumCheckMatrix(parse_matrix("D^2, 0\n1+D, 0\nD, 1\nD, 0\n1/(1+D), 0"),
                             parse_matrix("0, 0\n0, 0\n0, 0\n0, D\n0, 0"))
    assert [_monomial_offset(qcm, r, 0, "z") for r in range(5)] == [2, None, None, None, None]
    assert _monomial_offset(qcm, 3, 1, "x") is None


def test_class1_finish_raises_when_the_ancilla_cross_block_loses_rank(monkeypatch):
    reduce_block = construct._reduce_block
    monkeypatch.setattr(construct, "_reduce_block", lambda *args, **play: reduce_block(*args, **play) - 1)
    record = _golden("n4d2-4")  # class 1 with one ancilla cross row
    with pytest.raises(InternalError, match="ancilla cross block lost rank"):
        construct._build_class1(record)


def test_class2_finish_guards_raise(monkeypatch):
    """A wrong unit-factor count, an ancilla cross block that loses rank, and an L block left unreduced."""
    record = _golden("n4d2-3")
    record.s += 1
    with pytest.raises(InternalError, match=r"^unit-factor count 1 disagrees with s=2$"):
        construct._build_class2(record)

    reduce_block = construct._reduce_block

    def lossy(red, side, row0, col0, shape, **play):
        rank = reduce_block(red, side, row0, col0, shape, **play)
        return rank - 1 if play["note"] == "F3-block" else rank

    def no_l(red, side, row0, col0, shape, **play):
        return 0 if play["note"] == "L-block" else reduce_block(red, side, row0, col0, shape, **play)

    with monkeypatch.context() as patch:
        patch.setattr(construct, "_reduce_block", lossy)
        record = _record("D^2, 1, 0; 1+D, D+D^2, D^2", "D, D^2, 1+D+D^2")  # class 2 with one ancilla cross row
        with pytest.raises(InternalError, match="ancilla cross block lost rank"):
            construct._build_class2(record)
    with monkeypatch.context() as patch:
        patch.setattr(construct, "_reduce_block", no_l)
        record = _record("0, 1, 0, D+D^2; 1+D^2, D, D^2, D+D^2",
                         "1+D, 0, 1+D, 1+D+D^2; 1+D+D^2, 1+D^2, D+D^2, D")  # class 2 with c - s = 2
        with pytest.raises(InternalError, match="failed to reach lower-triangular form"):
            construct._build_class2(record)


def test_power_of_d_guards_raise_internal_errors(monkeypatch):
    """A finish whose diagonal is no power of D raises InternalError with the guard's message.

    A fresh record reaches its own class's finish, where the diagonals are
    powers of D; here a record of another class, or an F diagonal broken
    after the E block's reduction, trips the guard.
    """
    record = _record("1, 1+D", "1, 1+D")  # special, with the invariant factor 1+D+D^2
    record.class_tag = CLASS1
    with pytest.raises(InternalError, match=r"^invariant factor 1\+D\+D\^2 of E is not a power of D$"):
        construct._build_class1(record)
    record = _record("1+D, 1+D^2, 1+D+D^2", "1+D, 1+D^2, 1+D+D^2")  # class 2, not special
    record.class_tag = CLASS2_SPECIAL
    with pytest.raises(InternalError, match="^special-case cross factor is not a power of D$"):
        construct._build_class2(record)

    reduce_block = construct._reduce_block

    def broken_f(red, side, row0, col0, shape, **play):
        rank = reduce_block(red, side, row0, col0, shape, **play)
        red.z[row0][play["gamma_f_col0"]] = ONE_PLUS_D
        return rank

    monkeypatch.setattr(construct, "_reduce_block", broken_f)
    with pytest.raises(InternalError, match="^special-case F diagonal lost its power-of-D form$"):
        construct._build_class2(_record("1, 1+D", "1, 1+D"))
