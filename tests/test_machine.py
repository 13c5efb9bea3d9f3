"""Machine simulator, corpus behavior, tableau witnesses, the row codec."""

from fractions import Fraction

import pytest
from oracles import LEFT3, field_pos, moves_left, seq_get_total, witness_to_tableau

from forge import acc, nepo
from forge.codec import bit_at, encode_seq, set_length
from forge.errors import LayoutError, MachineFormatError
from forge.evaluate import Assignment
from forge.machine import (ComputationTableau, Configuration, PolyBound,
                           TableauLayout, TMDescription, accepts,
                           corpus_machine, decode_row, encode_row,
                           initial_configuration, parse_tm, run, step,
                           tableau_to_witness)

P_N_PLUS_2 = PolyBound((2, 1))


def all_inputs(max_len: int):
    yield ""
    for n in range(1, max_len + 1):
        for mask in range(1 << n):
            yield format(mask, f"0{n}b")


# --- step / run ---


def test_step_scan1_examples():
    tm = corpus_machine("scan1")
    c = initial_configuration("00", 2)
    nxt = step(tm, c)
    assert (nxt.head, nxt.state, [b for b, _ in nxt.cells]) == (1, 1, [0, 0])
    c1 = initial_configuration("10", 2)
    nxt1 = step(tm, c1)
    assert (nxt1.head, nxt1.state, [b for b, _ in nxt1.cells]) == (0, 2, [1, 0])


def test_step_composes_with_run():
    tm = corpus_machine("parity")
    c = initial_configuration("1101", 6)
    assert run(tm, "1101", 2, 6).rows[2] == step(tm, step(tm, c))


def test_run_scan1_examples():
    t = run(corpus_machine("scan1"), "01", 2, 4)
    assert t.rows[2].cells[1] == (1, 2)
    t2 = run(corpus_machine("scan1"), "00", 4, 4)
    assert all(row.state != 2 for row in t2.rows)
    t3 = run(corpus_machine("zeros"), "", 0, 1)
    assert len(t3.rows) == 1
    assert (t3.rows[0].head, t3.rows[0].state) == (0, 1)


def test_run_rejects_narrow_tape():
    with pytest.raises(LayoutError):
        run(corpus_machine("scan1"), "0101", 3, 3)


def test_left_and_right_clamping():
    # a machine that always moves left stays on cell 0
    tm = parse_tm("states 1\n1 0 -> 1 0 1\n1 1 -> 1 1 1\n")
    t = run(tm, "10", 3, 2)
    assert all(row.head == 0 for row in t.rows)
    # parity stops advancing at the last cell rather than walking off
    t2 = run(corpus_machine("parity"), "1", 5, 3)
    assert [row.head for row in t2.rows] == [0, 1, 2, 2, 2, 2]
    assert not moves_left(t2)
    # LEFT3 on "0110" comes back from cell 3 to cell 2, an unclamped left move
    t3 = run(LEFT3, "0110", 8, 4)
    assert [row.head for row in t3.rows] == [0, 0, 0, 1, 2, 3, 2, 2, 3]
    assert moves_left(t3)


def test_single_head_and_frame_invariants():
    for name in ("scan1", "parity", "zeros"):
        tm = corpus_machine(name)
        for bits in all_inputs(4):
            t = run(tm, bits, len(bits) + 2, len(bits) + 2 or 1)
            for row in t.rows:
                assert sum(1 for _, m in row.cells if m) == 1
            for prev, cur in zip(t.rows, t.rows[1:]):
                for i, (pc, cc) in enumerate(zip(prev.cells, cur.cells)):
                    if i != prev.head:
                        assert pc[0] == cc[0]


def test_configuration_invariant_enforced():
    with pytest.raises(ValueError):
        Configuration(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Configuration(((0, 0), (1, 0)))


# --- acceptance against behavioral oracles ---


def test_accepts_scan1_examples():
    tm = corpus_machine("scan1")
    assert accepts(tm, "001", P_N_PLUS_2)
    assert not accepts(tm, "000", P_N_PLUS_2)
    assert not accepts(tm, "", P_N_PLUS_2)


ORACLES = {
    "scan1": lambda bits: "1" in bits,
    "parity": lambda bits: bits.count("1") % 2 == 1,
    "zeros": lambda bits: "1" not in bits,
}


def test_corpus_machines_match_behavior_oracles():
    for name, oracle in ORACLES.items():
        tm = corpus_machine(name)
        for bits in all_inputs(6):
            assert accepts(tm, bits, P_N_PLUS_2) == oracle(bits), (name, bits)


def test_accepts_larger_polynomial_budget():
    # a looser bound must not flip any verdict on these machines
    loose = PolyBound((5, 2))
    for name, oracle in ORACLES.items():
        tm = corpus_machine(name)
        for bits in all_inputs(4):
            assert accepts(tm, bits, loose) == oracle(bits)


# --- polynomial bounds ---


def test_poly_bound_eval():
    assert P_N_PLUS_2.eval(3) == 5
    assert PolyBound((1, 0, 2)).eval(3) == 19
    assert PolyBound((4,), constant=True).eval(100) == 4


def test_poly_bound_validation():
    with pytest.raises(ValueError):
        PolyBound((3,))
    with pytest.raises(ValueError):
        PolyBound((1, -1))
    with pytest.raises(ValueError):
        PolyBound(())


# --- layout and witnesses ---


def test_witness_roundtrip():
    for name in ("scan1", "parity", "zeros"):
        tm = corpus_machine(name)
        for bits in ("", "1", "0110", "10101"):
            t = run(tm, bits, len(bits) + 2, len(bits) + 2)
            w = tableau_to_witness(t)
            layout = TableauLayout(t.width, len(t.rows) - 1, t.state_bits)
            assert len(w) == layout.total_bits
            assert witness_to_tableau(w, layout) == t


def test_witness_layout_fields():
    tm = corpus_machine("scan1")
    t = run(tm, "1", 1, 2)
    w = tableau_to_witness(t)
    layout = TableauLayout(2, 1, tm.state_bits)
    # row 0, cell 0 carries bit 1 and mark 1 (= binary 10 over low-first fields)
    assert w[field_pos(layout, 0, 0, 0)] == "1"
    assert w[field_pos(layout, 0, 0, 1)] == "1"
    assert w[field_pos(layout, 0, 0, 2)] == "0"
    # row 1: scan1 saw the 1 and locked into state 2 without moving
    assert w[field_pos(layout, 1, 0, 1)] == "0"
    assert w[field_pos(layout, 1, 0, 2)] == "1"


# --- the row codec against the decoders it replaced ---
#
# Until the row codec, acc.string_to_config, nepo's _Emitter._bits_to_config
# and machine.witness_to_tableau each decoded rows on their own, and
# machine.tableau_to_witness placed every bit through TableauLayout.pos,
# whose arithmetic is oracles.field_pos.
# These copies of them are the references the one codec must reproduce.


def ref_string_to_config(s: str, tm: TMDescription) -> Configuration:
    fields = 1 + tm.state_bits
    n = set_length(s)
    if n < 1 or (n - 1) % fields:
        raise LayoutError(f"length {n} does not fit {fields}-bit cells plus sentinel")
    cells = []
    for base in range(0, n - 1, fields):
        bit = 1 if bit_at(s, base) else 0
        mark = 0
        for f in range(tm.state_bits):
            if bit_at(s, base + 1 + f):
                mark |= 1 << f
        if mark > tm.k:
            raise LayoutError(f"cell at bit {base} marks nonexistent state {mark}")
        cells.append((bit, mark))
    return Configuration(tuple(cells))


def ref_bits_to_config(bit, width: int, tm: TMDescription) -> Configuration | None:
    fields = 1 + tm.state_bits
    cells = []
    for z in range(width):
        mark = 0
        for f in range(tm.state_bits):
            mark |= bit(z * fields + 1 + f) << f
        if mark > tm.k:
            return None
        cells.append((bit(z * fields), mark))
    try:
        return Configuration(tuple(cells))
    except ValueError:
        return None


def ref_witness_to_tableau(bits: str, layout: TableauLayout) -> ComputationTableau:
    rows = []
    for t in range(layout.steps + 1):
        cells = []
        for i in range(layout.width):
            bit = 1 if bit_at(bits, field_pos(layout, t, i, 0)) else 0
            mark = 0
            for f in range(layout.state_bits):
                if bit_at(bits, field_pos(layout, t, i, 1 + f)):
                    mark |= 1 << f
            cells.append((bit, mark))
        rows.append(Configuration(tuple(cells)))
    return ComputationTableau(tuple(rows), layout.width, layout.state_bits)


def ref_tableau_to_witness(tableau: ComputationTableau) -> str:
    layout = TableauLayout(tableau.width, len(tableau.rows) - 1, tableau.state_bits)
    bits = ["0"] * layout.total_bits
    for t, row in enumerate(tableau.rows):
        for i, (bit, mark) in enumerate(row.cells):
            bits[field_pos(layout, t, i, 0)] = str(bit)
            for f in range(tableau.state_bits):
                bits[field_pos(layout, t, i, 1 + f)] = str((mark >> f) & 1)
    return "".join(bits)


def outcome(fn, *args):
    """What a decoder gives: its value, or the class of the error it raises."""
    try:
        return fn(*args)
    except (LayoutError, ValueError) as e:
        return type(e)


ONE_STATE = parse_tm("states 1\n1 0 -> 1 1 2\n1 1 -> 1 0 2\n")
CODEC_MACHINES = [corpus_machine(name) for name in ("scan1", "parity", "zeros")] + [ONE_STATE]


def patterns(n: int):
    """Every string of n bits, as lists of 0 and 1."""
    for mask in range(1 << n):
        yield [mask >> p & 1 for p in range(n)]


def row_emitter(tm: TMDescription, width: int) -> nepo._Emitter:
    """An emitter whose readers take rows of `width` cells; no bounds give a
    one-cell tape, so the width is set after construction."""
    em = nepo._Emitter(tm, nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=1, m=4))
    em.width, em.row_bits = width, width * em.fields
    return em


def test_config_strings_decode_as_before():
    # every string up to three cells plus a sentinel, aligned or not
    for tm in CODEC_MACHINES:
        fields = 1 + tm.state_bits
        seen = set()
        for n in range(3 * fields + 2):
            for bits in patterns(n):
                s = "".join(map(str, bits))
                got = outcome(acc.string_to_config, s, tm)
                assert got == outcome(ref_string_to_config, s, tm), (tm, s)
                seen.add(got if isinstance(got, type) else Configuration)
        assert seen == {Configuration, LayoutError, ValueError}


def test_nepo_row_readers_decode_as_before():
    for tm in CODEC_MACHINES:
        for width in (1, 2, 3):
            em = row_emitter(tm, width)
            _, from_string, _ = em.config_string_source("I")
            _, from_code, _ = em.row_source("con", 0)
            _, from_grid, _ = em.row_source("comp", "t")
            for bits in patterns(em.row_bits):
                s = "".join(map(str, bits)) + "1"
                want = ref_bits_to_config(lambda p: int(bit_at(s, p)), width, tm)
                assert from_string(Assignment(strs={"I": s})) == want
                code = encode_seq(bits)
                want = ref_bits_to_config(lambda p: seq_get_total(code, p), width, tm)
                assert from_code(Assignment(nums={"con": code})) == want
                # the row sits between two rows of ones in a three-row grid
                grid = encode_seq([1] * em.row_bits + bits + [1] * em.row_bits)
                for t in (0, 1, 2):
                    want = ref_bits_to_config(
                        lambda p: seq_get_total(grid, t * em.row_bits + p), width, tm)
                    assert from_grid(Assignment(nums={"comp": grid, "t": t})) == want


def test_one_row_witnesses_decode_as_before():
    for tm in CODEC_MACHINES:
        fields = 1 + tm.state_bits
        for width in (1, 2, 3):
            layout = TableauLayout(width, 0, tm.state_bits)
            for bits in patterns(width * fields):
                w = "".join(map(str, bits))
                want = outcome(ref_witness_to_tableau, w, layout)
                assert outcome(witness_to_tableau, w, layout) == want
                if isinstance(want, ComputationTableau):
                    assert encode_row(want.rows[0], tm.state_bits) == w
                    assert decode_row(bits, tm.state_bits, (1 << tm.state_bits) - 1) == \
                        want.rows[0]


def test_witnesses_are_unchanged_on_the_corpus_runs():
    for name in ("scan1", "parity", "zeros"):
        tm = corpus_machine(name)
        for bits in ("", "1", "0110", "10101"):
            t = run(tm, bits, len(bits) + 2, len(bits) + 2)
            assert tableau_to_witness(t) == ref_tableau_to_witness(t)
        t = run(tm, "1", 1, 2)
        assert tableau_to_witness(t) == ref_tableau_to_witness(t)
        for bits in all_inputs(4):
            t = run(tm, bits, len(bits) + 2, len(bits) + 2 or 1)
            assert tableau_to_witness(t) == ref_tableau_to_witness(t)


# --- text format ---


def test_parse_tm_roundtrips_scan1():
    tm = corpus_machine("scan1")
    assert tm.k == 2
    assert tm.delta[(1, 0)] == (1, 0, 2)
    assert tm.delta[(1, 1)] == (2, 1, 0)
    assert tm.delta[(2, 0)] == (2, 0, 0)
    assert tm.delta[(2, 1)] == (2, 1, 0)


def test_parse_tm_errors():
    with pytest.raises(MachineFormatError):
        parse_tm("1 0 -> 1 0 2\n")  # missing header
    with pytest.raises(MachineFormatError):
        parse_tm("states 2\n1 0 -> 1 0 2\n")  # partial delta
    with pytest.raises(MachineFormatError):
        parse_tm("states 1\n1 0 -> 1 0 0\n1 0 -> 1 0 1\n1 1 -> 1 1 0\n")
    with pytest.raises(MachineFormatError):
        parse_tm("states 1\n1 0 -> 1 0 7\n1 1 -> 1 1 0\n")
    with pytest.raises(MachineFormatError):
        parse_tm("states 1\n1 0 -> 2 0 0\n1 1 -> 1 1 0\n")
    with pytest.raises(MachineFormatError):
        parse_tm("states x\n")


def test_unknown_corpus_name():
    with pytest.raises(MachineFormatError):
        corpus_machine("nope")


def test_state_bits():
    assert corpus_machine("scan1").state_bits == 2
    one_state = parse_tm("states 1\n1 0 -> 1 0 0\n1 1 -> 1 1 0\n")
    assert one_state.state_bits == 1
    big = TMDescription(4, {(q, b): (1, b, 0) for q in range(1, 5) for b in (0, 1)})
    assert big.state_bits == 3
