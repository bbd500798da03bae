"""The construction pipeline: validation, classification, both worked examples."""

from __future__ import annotations

import json
import random
from functools import cache
from pathlib import Path

import pytest

from eaqconv.errors import (
    CatastrophicInput,
    ClassMismatch,
    NotDelayFree,
    RankDeficient,
    ValidationError,
)
from eaqconv.construct import (
    CLASS1,
    CLASS2,
    CLASS2_SPECIAL,
    build_class1,
    build_class2,
    build_code,
    classify,
    code_params,
    decompose_general,
    validate_inputs,
)
from eaqconv.gates import format_circuit
from eaqconv.poly import LaurentPoly, RationalPoly, parse_poly
from eaqconv.polymat import (
    PolyMatrix,
    SmithEngine,
    format_matrix,
    invariant_factors,
    laurent_grid,
    parse_matrix,
    replay,
)
from smith_oracle import GridHooks, smith_form
from support import corpus_items, ebit_count, submatrix, zx_concat
from verify_oracle import is_commuting, rank, row_space_equal

H_EX1 = parse_matrix("1+D^2, 1+D+D^2")
H_EX2 = parse_matrix("1, 1+D")
H_GEN2 = parse_matrix("1+D, 1+D^2, 1+D+D^2")


def stacked(h1, h2):
    """The desired quantum check matrix [[H1|0],[0|H2]] as one wide matrix."""
    n = h1.cols
    zero = [RationalPoly.zero()] * n
    rows = [list(r) + zero for r in h1.entries] + [zero + list(r) for r in h2.entries]
    return PolyMatrix(rows)


# -- validation ------------------------------------------------------------------


def test_validate_accepts_worked_examples():
    validate_inputs(H_EX1, H_EX1)
    validate_inputs(H_EX2, H_EX2)


def test_validate_rejects_catastrophic():
    with pytest.raises(CatastrophicInput) as err:
        validate_inputs(parse_matrix("1+D, 1+D"), H_EX1)
    assert str(err.value.factor) == "1+D"


def test_validate_rejects_pure_delay():
    with pytest.raises(NotDelayFree):
        validate_inputs(parse_matrix("D, D+D^2"), H_EX1)
    with pytest.raises(NotDelayFree):
        validate_inputs(parse_matrix("D^-1, 1"), H_EX1)


def test_validate_rejects_rank_deficient():
    with pytest.raises(RankDeficient):
        validate_inputs(parse_matrix("1, 1, 0\n1, 1, 0"), parse_matrix("1, 0, 0"))


def test_validate_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        validate_inputs(parse_matrix("1, D"), parse_matrix("1, 0, 0"))
    with pytest.raises(ValidationError):
        validate_inputs(parse_matrix("1, 0\n0, 1"), parse_matrix("1, 0"))


def _admitted_pairs():
    with open(Path(__file__).parent / "golden" / "random_codes.json", encoding="utf-8") as fh:
        codes = json.load(fh)["codes"]
    pairs = [(c["h1"], c["h2"]) for c in codes]
    return pairs + [("1+D^2, 1+D+D^2", "1+D^2, 1+D+D^2"), ("1, 1+D", "1, 1+D")]


@pytest.mark.parametrize("h1_text, h2_text", _admitted_pairs())
def test_validate_returns_a_row_basis_of_h1(h1_text, h2_text):
    """The construction starts its top block from these rows instead of reducing H1 again.

    They are the first rows(H1) rows of the witness B of the Smith oracle's
    H1 = A [I 0] B, so they span H1's row space and reduce to [I 0] again.
    The bottom block replays H2's log, which takes H2 to [I 0] exactly.
    """
    h1, h2 = (parse_matrix(t.replace(";", "\n")) for t in (h1_text, h2_text))
    g1, g2, basis, h2_ops = validate_inputs(h1, h2)
    reduced = GridHooks(g2)
    replay(h2_ops, reduced)
    assert reduced.w == [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(h2.cols)]
                         for i in range(h2.rows)]
    assert (g1, g2) == (laurent_grid(h1), laurent_grid(h2))
    s = smith_form(h1)
    assert s.reconstruct(h1.rows, h1.cols) == h1
    assert basis == laurent_grid(submatrix(s.b, range(h1.rows), range(h1.cols)))
    assert row_space_equal(PolyMatrix(basis), h1)
    assert invariant_factors(basis) == ((LaurentPoly.one(),) * h1.rows, (0,) * h1.rows)


# -- ebit count --------------------------------------------------------------------


def test_ebit_count_goldens():
    assert ebit_count(H_EX1, H_EX1) == 1
    assert ebit_count(H_EX2, H_EX2) == 1
    assert ebit_count(parse_matrix("1, 0"), parse_matrix("0, 1")) == 0


# -- classification -----------------------------------------------------------------


def test_classify_first_example():
    tag, record = classify(H_EX1, H_EX1)
    assert tag == CLASS1
    assert record.c == 1 and record.s == 1
    assert [str(g) for g in record.product_factors] == ["1"]


def test_classify_second_example():
    tag, record = classify(H_EX2, H_EX2)
    assert tag == CLASS2_SPECIAL
    assert record.c == 1 and record.s == 0
    assert [str(g) for g in record.product_factors] == ["1+D+D^2"]
    assert record.f_massaged == laurent_grid(parse_matrix("1"))


def test_classify_general_second_class():
    tag, record = classify(H_GEN2, H_GEN2)
    assert tag == CLASS2
    assert [str(g) for g in record.product_factors] == ["1+D+D^2"]


def test_class_builders_reject_wrong_class():
    _, rec1 = classify(H_EX1, H_EX1)
    with pytest.raises(ClassMismatch):
        build_class2(rec1)
    _, rec2 = classify(H_EX2, H_EX2)
    with pytest.raises(ClassMismatch):
        build_class1(rec2)


# -- general decomposition ------------------------------------------------------------


def test_decompose_first_example():
    record = decompose_general(H_EX1, H_EX1)
    assert record.e_mat == laurent_grid(parse_matrix("1"))  # E carries the unit product
    assert len(record.f_mat) == 1 and len(record.f_mat[0]) == 1


def test_decompose_second_example():
    record = decompose_general(H_EX2, H_EX2)
    assert record.e_mat == laurent_grid(parse_matrix("D^-1+1+D"))
    assert record.f_massaged == laurent_grid(parse_matrix("1"))


def test_decompose_orthogonal_pair():
    record = decompose_general(parse_matrix("1, 0"), parse_matrix("0, 1"))
    assert not any(e for row in record.e_mat for e in row)
    assert record.c == 0


def test_rank_of_cross_block_equals_ebit_count():
    for h1, h2 in ((H_EX1, H_EX1), (H_EX2, H_EX2), (H_GEN2, H_GEN2)):
        record = decompose_general(h1, h2)
        assert rank(PolyMatrix(record.e_mat)) == record.c


@cache
def _corpus_pairs():
    """The distinct admitted pairs of both benchmark corpora."""
    pairs = []
    for texts in dict.fromkeys((it["h1"], it["h2"]) for it in corpus_items()):
        h1, h2 = (parse_matrix(t.replace(";", "\n")) for t in texts)
        try:
            validate_inputs(h1, h2)
        except ValidationError:
            continue
        pairs.append((h1, h2))
    return pairs


def _diagonal(grid):
    """The nonzero diagonal of a grid that must be diagonal with its nonzero entries first."""
    assert not any(e for i, row in enumerate(grid) for j, e in enumerate(row) if i != j)
    diag = [grid[t][t] for t in range(min(len(grid), len(grid[0])))]
    nonzero = sum(1 for e in diag if e)
    assert all(diag[:nonzero])
    return diag[:nonzero]


def test_the_finish_starts_no_smith_run_on_a_block_the_classification_reduced(monkeypatch):
    """The class-1 E block and the special F block are each reduced once, by the classification.

    The finish replays the logs of those runs instead of starting the
    engine on the same block again.
    """
    started = []
    init = SmithEngine.__init__

    def recorded(self, block):
        started.append([list(row) for row in block])
        init(self, block)

    monkeypatch.setattr(SmithEngine, "__init__", recorded)
    repeats = []
    for h1, h2 in _corpus_pairs():
        tag, record = classify(h1, h2)
        reduced = {CLASS1: record.e_mat, CLASS2_SPECIAL: record.f_massaged}.get(tag)
        started.clear()
        (build_class1 if tag == CLASS1 else build_class2)(record)
        if reduced in started:
            repeats.append((tag, format_matrix(h1), format_matrix(h2)))
    assert repeats == []


def test_the_records_logs_diagonalize_the_blocks_they_reduced():
    """Replayed on their blocks, the record's logs give the diagonals the finish relies on.

    E's log leaves c nonzero diagonal entries whose delay-free parts are the
    recorded factors, each a power of D in class 1.  The massaged F's log of
    a special code leaves n - k1 diagonal entries, each a power of D.
    """
    for h1, h2 in _corpus_pairs():
        record = decompose_general(h1, h2)
        e = GridHooks(record.e_mat)
        replay(record.e_ops, e)
        diag = _diagonal(e.w)
        assert tuple(g.delay_free()[0] for g in diag) == record.product_factors
        if record.class_tag == CLASS1:
            assert all(g.weight() == 1 for g in diag)
        if record.class_tag == CLASS2_SPECIAL:
            f = GridHooks(record.f_massaged)
            replay(record.f_ops, f)
            diag = _diagonal(f.w)
            assert len(diag) == record.n - record.k1 and all(g.weight() == 1 for g in diag)


# -- first worked example, display by display -------------------------------------------


def _strip(text):
    return parse_matrix(text)


def test_example1_full_reproduction():
    spec = build_code(H_EX1, H_EX1, want_trace=True)
    assert spec.class_tag == CLASS1
    assert (spec.n, spec.k, spec.c) == (2, 1, 1)
    assert spec.encoder.is_finite_depth() and spec.decoder.is_finite_depth()

    # the published intermediate stabilizers, checked after each display step
    displays = {
        2: ("1, 1, 0\n0, 0, 0", "0, 0, 0\n1, 1, D+D^2"),
        4: ("1, 0, 0\n0, 1, D+D^2", "0, 1, 0\n1, 0, 0"),
        5: ("1, 0, 0\n0, D, D+D^2", "0, 1, D\n1, 0, 0"),
        6: ("1, 0, 0\n0, D, 1+D+D^2", "0, 1+D^2, D\n1, 0, 0"),
        7: ("1, 0, 0\n0, 1+D^2, 1+D+D^2", "0, 1+D^2, 1+D+D^2\n1, 0, 0"),
    }
    # trace[0] is the unencoded stream; trace[g] is the state after gate g
    assert spec.encode_trace[0].state.z == _strip("1, 1, 0\n0, 0, 0")
    assert spec.encode_trace[0].state.x == _strip("0, 0, 0\n1, 1, 0")
    for idx, (z, x) in displays.items():
        assert spec.encode_trace[idx].state.z == _strip(z), f"display after gate {idx}"
        assert spec.encode_trace[idx].state.x == _strip(x), f"display after gate {idx}"
    # the final presentation swaps the rows
    assert spec.final_stabilizer.z == _strip("0, 1+D^2, 1+D+D^2\n1, 0, 0")
    assert spec.final_stabilizer.x == _strip("1, 0, 0\n0, 1+D^2, 1+D+D^2")


def test_example1_parameters_and_rates():
    spec = build_code(H_EX1, H_EX1)
    params = code_params(spec)
    assert (params["n"], params["k"], params["c"]) == (2, 1, 1)
    assert str(params["entanglement_assisted_rate"]) == "1/2"
    assert tuple(str(r) for r in params["tradeoff_rate"]) == ("1/2", "1/2")
    assert str(params["catalytic_rate"]) == "0"


def test_example1_commutes_and_matches_input_row_space():
    spec = build_code(H_EX1, H_EX1)
    assert is_commuting(spec.final_stabilizer)
    assert row_space_equal(zx_concat(spec.final_stabilizer.alice_part()), stacked(H_EX1, H_EX1))


def test_example1_decoder_is_exact_inverse():
    spec = build_code(H_EX1, H_EX1)
    assert tuple(spec.decoder.gates) == tuple(reversed(spec.encoder.gates))
    state = spec.encoder.apply(spec.bare)
    assert spec.decoder.apply(state) == spec.bare


# -- second worked example, display by display ---------------------------------------


def test_example2_full_reproduction():
    spec = build_code(H_EX2, H_EX2, want_trace=True)
    assert spec.class_tag == CLASS2_SPECIAL
    assert (spec.n, spec.k, spec.c, spec.s) == (2, 1, 1, 0)
    infs = [g for g in spec.encoder.gates if g.kind == "INF"]
    assert len(infs) == 1
    assert str(infs[0].f) == "1+D+D^2"
    assert spec.decoder.is_finite_depth()

    # reduction displays: standard-form manipulations of the check matrix
    red = spec.record.reduction.trace
    states = {step.label: step.state for step in red}
    sf = states["standard form"]
    assert sf.z == _strip("D^-1+1+D, 1+D\n0, 0")
    assert sf.x == _strip("0, 0\n1, 0")
    nf = states["normalized standard form"]
    assert nf.z == _strip("1+D+D^2, 1\n0, 0")
    assert nf.x == _strip("0, 0\n1, 0")
    # the mid-normalization displays
    seq = [(step.label, step.state) for step in red]
    i_open = next(i for i, (lab, _) in enumerate(seq) if lab == "H 2" and i > 3)
    after_h = seq[i_open][1]
    assert after_h.x == _strip("D^-1+1+D, 1+D\n0, 0")
    after_cnot = seq[i_open + 1][1]
    assert after_cnot.x == _strip("D^-1+1+D, D^-1\n0, 0")

    # encoding displays
    enc = spec.encode_trace
    assert enc[0].state.z == _strip("1, 1, 0\n0, 0, 0")
    assert enc[0].state.info.x == _strip("0, 0, 1\n0, 0, 0")
    assert enc[2].state.z == _strip("1, 0, 0\n0, 1, 0")
    assert enc[2].state.x == _strip("0, 1, 1\n1, 0, 0")
    assert enc[2].state.info.z == _strip("0, 0, 0\n0, 1, 1")
    # after the infinite-depth operation and the Hadamard pair
    assert enc[5].state.z == _strip("1, 1, 1/(1+D+D^2)\n0, 0, 0")
    assert enc[5].state.x == _strip("0, 0, 0\n1, 1, 0")
    assert enc[5].state.info.z == _strip("0, 0, 1/(1+D+D^2)\n0, 0, 0")
    assert enc[5].state.info.x == _strip("0, 0, 0\n0, 1, D^-2+D^-1+1")
    # final stabilizer after undoing the standard-form operations
    fin = spec.final_stabilizer
    assert fin.z == _strip("D^-1, 1/(1+D+D^2), (1+D)/(1+D+D^2)\n0, 0, 0")
    assert fin.x == _strip("0, 0, 0\n1, 1, 1+D")
    # the re-encoded logical operators; the published display misprints the
    # middle Z entry ((D^-1+D^-2)/(1+D+D^2) breaks the commutation relations)
    assert fin.info.z == _strip("0, (D^-1+1)/(1+D+D^2), 1/(1+D+D^2)\n0, 0, 0")
    assert fin.info.x == _strip("0, 0, 0\n0, D^-2+D^-1, D^-1")


def test_example2_decode_displays():
    spec = build_code(H_EX2, H_EX2, want_trace=True)
    dec = spec.decode_trace
    states = [step.state for step in dec]
    # after the finite-depth operations the receiver sees the mid-encoding state
    mid_state_z = _strip("1, 1, 1/(1+D+D^2)\n0, 0, 0")
    hit = next(s for s in states if s.z == mid_state_z)
    assert hit.x == _strip("0, 0, 0\n1, 1, 0")
    assert hit.info.z == _strip("0, 0, 1/(1+D+D^2)\n0, 0, 0")
    # the decoded end state: logical operators act on the second sender qubit;
    # the second stabilizer row stays an X on the receiver's qubit (the
    # published display prints a zero row, but gates cannot annihilate a row)
    final = states[-1]
    assert final.x == _strip("0, 0, 1/(1+D+D^2)\n1, 0, 0")
    assert not any(e for row in final.zn for e in row)
    assert final.info.x == _strip("0, 1, 0\n0, 0, 0")
    assert final.info.z == _strip("0, 0, 0\n0, 1, 0")
    assert spec.decoded_cols == (0,)
    assert spec.decoded_offsets == (0,)


def test_example2_measurable_stabilizer():
    spec = build_code(H_EX2, H_EX2)
    meas = spec.measurable_stabilizer
    assert meas.is_polynomial()
    assert [str(m) for m in spec.measurement_multipliers] == ["1+D+D^2", "1"]
    # scaled back to finite weight, the first row reads D^-1+1+D, 1, 1+D
    assert meas.z.entries[0] == parse_matrix("D^-1+1+D, 1, 1+D").entries[0]


def test_example2_commutes_and_matches_input_row_space():
    spec = build_code(H_EX2, H_EX2)
    assert is_commuting(spec.final_stabilizer)
    assert row_space_equal(zx_concat(spec.final_stabilizer.alice_part()), stacked(H_EX2, H_EX2))


# -- degenerate and general cases ---------------------------------------------------


def test_orthogonal_pair_builds_plain_css():
    spec = build_code(parse_matrix("1, 0"), parse_matrix("0, 1"))
    assert spec.class_tag == CLASS1
    assert (spec.n, spec.k, spec.c) == (2, 0, 0)
    assert spec.final_stabilizer.bob_cols == 0
    assert is_commuting(spec.final_stabilizer)
    assert str(spec.rates.catalytic) == "0"


def test_general_class2_build():
    spec = build_code(H_GEN2, H_GEN2, want_trace=False)
    assert spec.class_tag == CLASS2
    assert (spec.n, spec.k, spec.c, spec.s) == (3, 2, 1, 0)
    assert not spec.encoder.is_finite_depth()
    assert spec.decoder.is_finite_depth()
    infs = [g for g in spec.encoder.gates if g.kind == "INF"]
    assert len(infs) == 1 and infs[0].time_reversed
    assert is_commuting(spec.final_stabilizer)
    assert row_space_equal(zx_concat(spec.final_stabilizer.alice_part()), stacked(H_GEN2, H_GEN2))
    assert None not in spec.decoded_offsets


# -- parameter law on random pairs --------------------------------------------


def _random_valid_pair(rng, n_max=4):
    while True:
        n = rng.randint(2, n_max)
        r1, r2 = rng.randint(1, n - 1), rng.randint(1, n - 1)
        h1 = PolyMatrix([[RationalPoly(LaurentPoly(rng.randrange(0, 8), 0)) for _ in range(n)] for _ in range(r1)])
        h2 = PolyMatrix([[RationalPoly(LaurentPoly(rng.randrange(0, 8), 0)) for _ in range(n)] for _ in range(r2)])
        try:
            validate_inputs(h1, h2)
        except ValidationError:
            continue
        return h1, h2, ebit_count(h1, h2)


def test_parameter_law_random_pairs():
    rng = random.Random(20260810)
    for _ in range(12):
        h1, h2, c = _random_valid_pair(rng)
        spec = build_code(h1, h2)
        n, k1, k2 = h1.cols, h1.cols - h1.rows, h2.cols - h2.rows
        assert spec.c == c
        assert spec.final_stabilizer.bob_cols == c
        assert spec.k == k1 + k2 - n + c
        assert spec.k >= 0  # guaranteed by the rank inequality
        assert len(spec.logical_cols) == spec.k
        assert is_commuting(spec.final_stabilizer)
        assert row_space_equal(zx_concat(spec.final_stabilizer.alice_part()), stacked(h1, h2))
        if spec.class_tag == CLASS1:
            assert spec.encoder.is_finite_depth()
        assert spec.decoder.is_finite_depth()
        # the bare stabilizer never touches the information columns
        for q in spec.logical_cols:
            col = spec.bare.bob_cols + q
            assert all(spec.bare.z.entries[r][col].is_zero() for r in range(spec.bare.rows))
            assert all(spec.bare.x.entries[r][col].is_zero() for r in range(spec.bare.rows))
