"""Acceptance and reachability compilers against the simulator oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from oracles import (BIT_TM, LEFT3, all_strings, cell_code, config_to_string,
                     eval_reach_level, field_pos, moves_left, record_compile_roots,
                     walk_formula, walk_term)

from forge import acc, nepo
from forge.codec import encode_seq, mask_to_bits, set_length
from forge.errors import LayoutError
from forge.evaluate import Assignment, FiniteSlice, eval_formula
from forge.formulas import (Memb, NVar, Plus, SeqAt, Times, classify, const_term,
                            free_vars)
from forge.machine import (Configuration, PolyBound, TableauLayout, accepts,
                           corpus_machine, initial_configuration, parse_tm, run,
                           run_from, tableau_to_witness)

P = PolyBound((2, 1))  # n + 2

P1 = PolyBound((1,), constant=True)

STAY_TM = parse_tm("states 1\n1 0 -> 1 0 0\n1 1 -> 1 1 0\n")


def test_compile_acc_shape():
    f = acc.compile_acc(corpus_machine("scan1"), P)
    assert str(classify(f)) == "SigmaB(1)"
    nums, strs = free_vars(f)
    assert nums == set()
    assert strs == {"X"}


@pytest.mark.parametrize("xvar", ["W", "x", "1X", "", "X-1", "X Y"])
def test_acc_rejects_bad_input_names(xvar):
    # W would be captured by the witness binder exS W; the others do not parse back
    tm = corpus_machine("scan1")
    for build in (acc.acc_matrix, acc.acc_witness_bound, acc.compile_acc):
        with pytest.raises(ValueError, match="uppercase identifier other than W"):
            build(tm, P, xvar)
    assert free_vars(acc.compile_acc(tm, P, "In_1")) == (set(), {"In_1"})


def test_eval_acc_pinned_examples():
    tm = corpus_machine("scan1")
    assert acc.eval_acc(tm, P, "10")
    assert not acc.eval_acc(tm, P, "00")


def test_eval_acc_depends_only_on_the_set():
    tm = corpus_machine("parity")
    assert acc.eval_acc(tm, P, "1") == acc.eval_acc(tm, P, "10")
    assert acc.eval_acc(tm, P, "011") == acc.eval_acc(tm, P, "0110")


def test_acc_matches_simulator_on_corpus():
    for name in ("scan1", "parity", "zeros"):
        tm = corpus_machine(name)
        for x in all_strings(6):
            assert acc.eval_acc(tm, P, x) == accepts(tm, x, P), (name, x)


def test_acc_matches_simulator_on_left_moves():
    # no corpus machine moves left, so LEFT3 is the one witness of that branch
    moved = 0
    for coeffs in ((2, 1), (1, 1, 1), (0, 0, 1)):
        p = PolyBound(coeffs)
        for x in filter(None, all_strings(4)):  # (0, 0, 1) lays out no run of ""
            layout = acc.acc_layout(LEFT3, p, len(x))
            moved += moves_left(run(LEFT3, x, layout.steps, layout.width))
            assert acc.eval_acc(LEFT3, p, x) == accepts(LEFT3, x, p), (coeffs, x)
    assert moved


def test_check_witness_pinned_examples():
    tm = corpus_machine("scan1")
    w = tableau_to_witness(run(tm, "1", 3, 3))
    assert acc.check_witness(tm, P, "1", w)
    assert not acc.check_witness(tm, P, "1", "0" * len(w))
    # clearing the final head mark breaks the accepting clause
    layout = acc.acc_layout(tm, P, 1)
    pos = field_pos(layout, 3, run(tm, "1", 3, 3).rows[3].head, 2)
    edited = w[:pos] + "0" + w[pos + 1:]
    assert not acc.check_witness(tm, P, "1", edited)


def test_check_witness_requires_full_layout():
    tm = corpus_machine("scan1")
    with pytest.raises(LayoutError):
        acc.check_witness(tm, P, "1", "101")


def test_witness_rejects_every_single_bit_flip():
    for name, x in (("scan1", "01"), ("parity", "11"), ("zeros", "1")):
        tm = corpus_machine(name)
        layout = acc.acc_layout(tm, P, set_length(x))
        w = tableau_to_witness(run(tm, x, layout.steps, layout.width))
        assert acc.check_witness(tm, P, x, w) == accepts(tm, x, P)
        for pos in range(layout.total_bits):
            flipped = w[:pos] + ("0" if w[pos] == "1" else "1") + w[pos + 1:]
            assert not acc.check_witness(tm, P, x, flipped), (name, x, pos)


def test_witness_uniqueness_micro_exhaustive():
    """Sweep every candidate string: the matrix has one model iff accepted.

    This is the property that justifies settling the existential with the
    simulator's tableau instead of enumerating strings at real sizes.
    """
    cases = [(BIT_TM, P1, "1", True), (BIT_TM, P1, "", False),
             (STAY_TM, P1, "1", True), (STAY_TM, P1, "", True)]
    for tm, p, x, expect in cases:
        layout = acc.acc_layout(tm, p, set_length(x))
        hits = []
        for mask in range(1 << layout.total_bits):
            w = mask_to_bits(mask).ljust(layout.total_bits, "0")
            if acc.check_witness(tm, p, x, w):
                hits.append(mask)
        assert len(hits) == (1 if expect else 0), (x, hits)
        if expect:
            sim = tableau_to_witness(run(tm, x, layout.steps, layout.width))
            assert hits[0] == int(sim[::-1] or "0", 2)


def walked_witness(tm, p, x, w):
    """check_witness as the tree walker decides it: acc_matrix rebuilt and
    walked at every call, over the same slice."""
    layout = acc.acc_layout(tm, p, set_length(x))
    s = FiniteSlice(num_bound=layout.total_bits + layout.steps + 2, str_width=0)
    return walk_formula(acc.acc_matrix(tm, p), s, Assignment(strs={"X": x, "W": w}))


def flips(w):
    return [w[:pos] + ("0" if w[pos] == "1" else "1") + w[pos + 1:] for pos in range(len(w))]


@pytest.mark.parametrize("name", ["scan1", "parity", "zeros"])
def test_compiled_witness_check_matches_walker(name):
    """The memoised compiled matrix gives the walker's verdict at the
    simulator witness and at every single-bit flip of it, and a witness one
    bit short is still refused before any evaluation."""
    tm = corpus_machine(name)
    for p in (P, PolyBound((1, 1))):
        for x in ("1", "01", "110", "1011"):
            layout = acc.acc_layout(tm, p, set_length(x))
            w = tableau_to_witness(run(tm, x, layout.steps, layout.width))
            for cand in [w, *flips(w)]:
                assert acc.check_witness(tm, p, x, cand) == walked_witness(tm, p, x, cand), \
                    (name, p, x, cand)
            with pytest.raises(LayoutError, match=f"witness has {len(w) - 1} bits, "
                                                  f"layout needs {len(w)}"):
                acc.check_witness(tm, p, x, w[:-1])


def test_witness_matrix_compiles_once_per_machine_and_poly(monkeypatch):
    compiles = record_compile_roots(monkeypatch)
    acc._matrix.cache_clear()
    tm = corpus_machine("scan1")
    for x in all_strings(4):
        assert acc.eval_acc(tm, P, x) == accepts(tm, x, P), x
    assert len(compiles) == 1
    # a separately parsed equal machine shares the entry
    assert acc.eval_acc(corpus_machine("scan1"), P, "01")
    assert len(compiles) == 1
    acc.eval_acc(tm, PolyBound((1, 1)), "01")
    assert len(compiles) == 2
    # the reach matrix of the same machine and poly is another kind
    y = config_to_string(run(tm, "01", 0, 2).rows[0], tm.state_bits)
    for z in (y, "1" + y[1:]):
        acc.eval_reach(tm, P, y, z)
    assert len(compiles) == 3


def test_a_machine_one_rule_apart_gets_its_own_matrix(monkeypatch):
    compiles = record_compile_roots(monkeypatch)
    acc._matrix.cache_clear()
    scan1 = corpus_machine("scan1")
    # scan1 with (1, 1) left in state 1: it never reaches the accepting state
    stuck = parse_tm("states 2\n1 0 -> 1 0 2\n1 1 -> 1 1 0\n2 0 -> 2 0 0\n2 1 -> 2 1 0\n")
    verdicts = {}
    for tm in (scan1, stuck, scan1, stuck):
        verdicts[tm.delta[1, 1]] = [acc.eval_acc(tm, P, x) for x in all_strings(3)]
        assert verdicts[tm.delta[1, 1]] == [accepts(tm, x, P) for x in all_strings(3)]
    assert len(compiles) == 2
    assert any(verdicts[2, 1, 0]) and not any(verdicts[1, 1, 0])


def test_full_existential_eval_matches_certificate_micro():
    total = acc.acc_layout(BIT_TM, P1, 1).total_bits
    s = FiniteSlice(num_bound=total + 4, str_width=total)
    for x in ("", "1"):
        honest = eval_formula(acc.compile_acc(BIT_TM, P1), s,
                              Assignment(strs={"X": x}))
        assert honest == acc.eval_acc(BIT_TM, P1, x)
        assert honest == accepts(BIT_TM, x, P1)


# --- reachability ---


def test_reach_shape():
    f = acc.compile_reach(corpus_machine("scan1"), P)
    assert str(classify(f)) == "SigmaB(1)"
    assert free_vars(f) == (set(), {"Y", "Z"})


def test_config_string_roundtrip():
    tm = corpus_machine("parity")
    conf = run(tm, "101", 2, 4).rows[2]
    s = config_to_string(conf, tm.state_bits)
    assert acc.string_to_config(s, tm) == conf
    assert set_length(s) == 4 * 3 + 1


def test_string_to_config_rejects_garbage():
    tm = corpus_machine("parity")
    with pytest.raises(LayoutError):
        acc.string_to_config("11", tm)  # not cell-aligned
    with pytest.raises(ValueError):
        acc.string_to_config("0000001", tm)  # aligned but headless
    with pytest.raises(LayoutError):
        acc.string_to_config("0111", tm)  # mark 3 exceeds 2 states


def test_eval_reach_simulator_rows():
    tm = corpus_machine("parity")
    start = run(tm, "1101", 0, 5).rows[0]
    y = config_to_string(start, tm.state_bits)
    steps = P.eval(set_length(y))
    target = run_from(tm, start, steps).rows[-1]
    z = config_to_string(target, tm.state_bits)
    assert acc.eval_reach(tm, P, y, z)
    wrong = run_from(tm, start, steps - 1).rows[-1]
    if wrong != target:
        assert not acc.eval_reach(
            tm, P, y, config_to_string(wrong, tm.state_bits))


def test_eval_reach_stay_fixed_point():
    y = config_to_string(Configuration(((1, 1), (0, 0))), STAY_TM.state_bits)
    assert acc.eval_reach(STAY_TM, P, y, y)


def test_eval_reach_rejects_corrupt_target():
    tm = corpus_machine("scan1")
    start = run(tm, "001", 0, 4).rows[0]
    y = config_to_string(start, tm.state_bits)
    steps = P.eval(set_length(y))
    z = config_to_string(run_from(tm, start, steps).rows[-1], tm.state_bits)
    for pos in range(len(z) - 1):  # leave the sentinel alone
        corrupt = z[:pos] + ("0" if z[pos] == "1" else "1") + z[pos + 1:]
        assert not acc.eval_reach(tm, P, y, corrupt), pos


def test_reach_composes_along_corpus_traces():
    tm = corpus_machine("zeros")
    start = run(tm, "0000", 0, 6).rows[0]
    y0 = config_to_string(start, tm.state_bits)
    steps = P.eval(set_length(y0))
    mid_conf = run_from(tm, start, steps).rows[-1]
    far_conf = run_from(tm, start, 2 * steps).rows[-1]
    y1 = config_to_string(mid_conf, tm.state_bits)
    y2 = config_to_string(far_conf, tm.state_bits)
    assert acc.eval_reach(tm, P, y0, y1)
    assert acc.eval_reach(tm, P, y1, y2)
    assert run_from(tm, start, 2 * steps).rows[-1] == far_conf


def reach_cases():
    """(machine, start configuration) of the reach tests above."""
    return [(corpus_machine("parity"), run(corpus_machine("parity"), "1101", 0, 5).rows[0]),
            (STAY_TM, Configuration(((1, 1), (0, 0)))),
            (corpus_machine("scan1"), run(corpus_machine("scan1"), "001", 0, 4).rows[0]),
            (corpus_machine("zeros"), run(corpus_machine("zeros"), "0000", 0, 6).rows[0])]


def test_compiled_reach_check_matches_walker():
    for tm, start in reach_cases():
        y = config_to_string(start, tm.state_bits)
        steps = P.eval(set_length(y))
        w = tableau_to_witness(run_from(tm, start, steps))
        z = config_to_string(run_from(tm, start, steps).rows[-1], tm.state_bits)
        total = TableauLayout(len(start.cells), steps, tm.state_bits).total_bits
        assert len(w) == total
        s = FiniteSlice(num_bound=total + steps + 2, str_width=0)
        walker = acc.reach_matrix(tm, P)
        for cand in [w, *flips(w)]:
            walked = walk_formula(walker, s, Assignment(strs={"Y": y, "Z": z, "W": cand}))
            assert acc.check_reach_witness(tm, P, y, z, cand) == walked, (y, cand)
        assert acc.check_reach_witness(tm, P, y, z, w)
        with pytest.raises(LayoutError, match=f"witness has {total - 1} bits, "
                                              f"layout needs {total}"):
            acc.check_reach_witness(tm, P, y, z, w[:total - 1])


def test_full_reach_eval_matches_certificate_micro():
    # width-1 tapes: 4 valid start configurations, every target string swept
    tm = BIT_TM
    p = P1
    for bit in (0, 1):
        for mark in (1, 2):
            start = Configuration(((bit, mark),))
            y = config_to_string(start, tm.state_bits)
            total = (p.eval(set_length(y)) + 1) * set_length(y)
            s = FiniteSlice(num_bound=total + 4, str_width=total)
            for zmask in range(1 << set_length(y)):
                z = mask_to_bits(zmask)
                honest = eval_formula(acc.compile_reach(tm, p), s,
                                      Assignment(strs={"Y": y, "Z": z}))
                assert honest == acc.eval_reach(tm, p, y, z), (y, z)


def test_reach_rejects_a_target_longer_than_y():
    # Z is one configuration string: the same length as Y, not a longer set
    for tm, start in reach_cases():
        y = config_to_string(start, tm.state_bits)
        z = config_to_string(run_from(tm, start, P.eval(set_length(y))).rows[-1],
                             tm.state_bits)
        for tail in ("", "1", "01", "0001", "1" * 20):
            assert acc.eval_reach(tm, P, y, z + tail) == (tail == ""), (y, tail)


def test_reach_rejects_a_headless_y():
    """A Y whose one row carries no head mark is no configuration: the honest
    compile_reach is false on it, as nepo's Reach is at every level, while
    eval_reach, which decodes Y before it runs, raises; the one place where
    the two sides of acc differ."""
    tm = corpus_machine("scan1")
    y = "0001"  # one cell: tape 0, mark 0, then the sentinel
    honest = eval_formula(acc.compile_reach(tm, P1), FiniteSlice(12, 8),
                          Assignment(strs={"Y": y, "Z": y}))
    assert honest is False
    with pytest.raises(ValueError, match="exactly one head, found 0"):
        acc.eval_reach(tm, P1, y, y)
    b = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=4)
    headless = "0" * (b.width * (1 + tm.state_bits)) + "1"
    for level in range(b.d + 1):
        art = nepo.reach_artifact(tm, b, level)
        for cell in itertools.product((0, 1), range(1 << tm.state_bits)):
            assert not eval_reach_level(art, headless, 1, 0, cell_code(*cell)), (level, cell)


def test_reach_rejects_a_y_marking_a_state_past_k():
    """A Y whose one cell carries head mark 3, a state scan1 (k = 2) lacks,
    is no configuration: the honest compile_reach, sweeping every W, is
    false on it for every Z below 2^5, at t = 0 and 1 and both tape bits,
    while eval_reach, which decodes Y before it runs, raises LayoutError.
    VALIDITY is the clause that rules these out: with it dropped from
    acc._shared_clauses, in a copy of the code, this sweep accepts 18 of
    its 128 cases.  The sweep also runs the kept lengths (|W| in the reach
    matrix) while exS W binds a new W at each candidate."""
    tm = corpus_machine("scan1")
    checked = 0
    for t, bit in itertools.product((0, 1), "01"):
        p = PolyBound((t,), constant=True)
        y = bit + "11" + "1"  # tape bit, mark 3 low bit first, sentinel
        f, total = acc.compile_reach(tm, p), (t + 1) * len(y)
        s = FiniteSlice(num_bound=total + 4, str_width=total)
        for zmask in range(1 << 5):
            z = mask_to_bits(zmask)
            assert not eval_formula(f, s, Assignment(strs={"Y": y, "Z": z})), (t, y, z)
            with pytest.raises(LayoutError, match="marks nonexistent state 3"):
                acc.eval_reach(tm, p, y, z)
            checked += 1
    assert checked == 128


def with_cell(z, tm, i, bit, mark):
    """Configuration string z with cell i replaced by (bit, mark)."""
    fields = 1 + tm.state_bits
    block = str(bit) + "".join(str(mark >> f & 1) for f in range(tm.state_bits))
    return z[:i * fields] + block + z[(i + 1) * fields:]


def reach_agreements(name, tm, b, starts, changes) -> int:
    """For each level of b, start and row p1 <= span, acc.eval_reach at the
    constant bound t = p1 * span^level and nepo's Reach at that level accept
    the run's configuration after t steps, cell by cell, and both reject each
    single-cell change (p2, (bit, mark)) that changes(row) gives; returns the
    number of (level, start, p1) cases."""
    agreed = 0
    for level in range(b.d + 1):
        art = nepo.reach_artifact(tm, b, level)
        for start in starts:
            y = config_to_string(start, tm.state_bits)
            for p1 in range(b.span + 1):
                t = p1 * b.span ** level
                p = PolyBound((t,), constant=True)
                row = run_from(tm, start, t).rows[-1]
                z = config_to_string(row, tm.state_bits)
                case = (name, b.m, level, y, p1)
                assert acc.eval_reach(tm, p, y, z), case
                for p2, cell in enumerate(row.cells):
                    assert eval_reach_level(art, y, p1, p2, cell_code(*cell)), case
                for p2, other in changes(row):
                    assert not acc.eval_reach(tm, p, y, with_cell(z, tm, p2, *other)), \
                        (case, p2, other)
                    assert not eval_reach_level(art, y, p1, p2, cell_code(*other)), \
                        (case, p2, other)
                agreed += 1
    return agreed


def test_reach_agrees_with_nepo_and_the_simulator():
    """Nepomnjascij in miniature: the Sigma^B_1 reach formula (acc's, at the
    constant step bound t) and the Delta^B_0 one (nepo's Reach at the level
    whose rows are span^level steps apart, row p1) both accept the run's
    configuration after t = p1 * span^level steps, and both reject every
    single-cell change of it."""
    agreed = 0
    for m, inputs in ((4, ("1", "01", "011")), (8, ("1", "01", "011", "0110"))):
        b = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=m)
        for name in ("scan1", "parity"):
            tm = corpus_machine(name)
            cells = list(itertools.product((0, 1), range(1 << tm.state_bits)))
            starts = [initial_configuration(x, b.width) for x in inputs]
            agreed += reach_agreements(name, tm, b, starts, lambda row: [
                (p2, other) for p2, cell in enumerate(row.cells)
                for other in cells if other != cell])
    assert agreed == 108


def test_reach_agrees_with_nepo_from_any_start():
    """As above, from non-initial starts and on LEFT3 too: the head on each
    cell in each state 1..k over the all-0, all-1 and alternating tapes,
    with one seeded single-cell change per case."""
    rng = random.Random(0)
    agreed = 0
    for m in (4, 8):
        b = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=m)
        w = b.width
        tapes = ((0,) * w, (1,) * w, tuple(i % 2 for i in range(w)))
        for name, tm in (("scan1", corpus_machine("scan1")),
                         ("parity", corpus_machine("parity")), ("left3", LEFT3)):
            cells = list(itertools.product((0, 1), range(1 << tm.state_bits)))
            starts = [Configuration(tuple((bit, q if i == h else 0)
                                          for i, bit in enumerate(tape)))
                      for tape in tapes for h in range(w) for q in range(1, tm.k + 1)]

            def one_change(row):
                p2 = rng.randrange(w)
                return [(p2, rng.choice([c for c in cells if c != row.cells[p2]]))]

            agreed += reach_agreements(name, tm, b, starts, one_change)
    assert agreed == 1134


def test_honest_reach_sweep_agrees_with_eval_reach():
    """compile_reach decided by sweeping every witness string, with no
    simulator run, gives eval_reach's verdict and the simulator's on the
    true target and on each bit flip of it below |Y| + 2, which reaches
    past the sentinel."""
    checked = 0
    for name in ("scan1", "parity"):
        tm = corpus_machine(name)
        for t in (0, 1, 2):
            p = PolyBound((t,), constant=True)
            for bit, mark in itertools.product((0, 1), range(1, tm.k + 1)):
                start = Configuration(((bit, mark),))
                y = config_to_string(start, tm.state_bits)
                z = config_to_string(run_from(tm, start, t).rows[-1], tm.state_bits)
                total = (t + 1) * set_length(y)  # compile_reach's bound on W
                s = FiniteSlice(num_bound=total + 4, str_width=total)
                for cand in [z, *flips(z.ljust(set_length(y) + 2, "0"))]:
                    honest = eval_formula(acc.compile_reach(tm, p), s,
                                          Assignment(strs={"Y": y, "Z": cand}))
                    assert honest == acc.eval_reach(tm, p, y, cand) == (cand == z), \
                        (name, t, y, cand)
                    checked += 1
    assert checked == 168


def test_reach_witness_is_unique_micro():
    """Sweep every W below compile_reach's bound: at width 1 the reach
    matrix has exactly one model per start and step count, the simulator's
    tableau.  The |W| conjunct is what rules out the same tableau with
    bits set past its last row."""
    for tm in (BIT_TM, corpus_machine("scan1"), corpus_machine("parity")):
        for t in (0, 1):
            p = PolyBound((t,), constant=True)
            for bit, mark in itertools.product((0, 1), range(1, tm.k + 1)):
                start = Configuration(((bit, mark),))
                y = config_to_string(start, tm.state_bits)
                z = config_to_string(run_from(tm, start, t).rows[-1], tm.state_bits)
                bound = (t + 1) * set_length(y)
                hits = [mask for mask in range(1 << bound) if acc.check_reach_witness(
                    tm, p, y, z, mask_to_bits(mask).ljust(bound, "0"))]
                sim = tableau_to_witness(run_from(tm, start, t))
                assert hits == [int(sim[::-1], 2)], (tm, t, y, hits)


def test_poly_term_matches_eval():
    from forge.formulas import NVar
    for coeffs, flag in (((2, 1), False), ((0, 0, 3), False), ((7,), True)):
        p = PolyBound(coeffs, flag)
        t = acc.poly_term(p, NVar("n"))
        for n in range(6):
            got = walk_term(t, Assignment(nums={"n": n}))
            assert got == p.eval(n)


# --- the shared tableau ---


@pytest.mark.parametrize("kind", ["string", "code"])
def test_single_head_shapes_agree_micro(kind):
    """acc's pairwise SINGLE-HEAD and nepo's lone-mark SINGLE-HEAD, built on
    one Tableau of one row and width 3, agree with each other and with a
    head count under every mark assignment, over string and code cells."""
    tm = corpus_machine("scan1")
    fields = 1 + tm.state_bits

    def cell(t, i, f):
        pos = Plus(Times(t, const_term(3 * fields)),
                   Plus(Times(i, const_term(fields)), const_term(f)))
        return Memb(pos, "W") if kind == "string" else SeqAt(NVar("comp"), pos)

    names = itertools.count()
    tab = acc.Tableau(tm, cell, steps=0, width=3,
                      fresh=lambda base: f"{base}{next(names)}")
    pairwise, lone = acc.single_head(tab), nepo.single_head(tab)
    s = FiniteSlice(num_bound=4, str_width=0)
    verdicts = set()
    for marks in itertools.product(range(1 << tm.state_bits), repeat=3):
        bits = "".join("0" + "".join(str((m >> f) & 1) for f in range(tm.state_bits))
                       for m in marks)  # tape bit 0, then the mark low bit first
        env = (Assignment(strs={"W": bits}) if kind == "string" else
               Assignment(nums={"comp": encode_seq([int(b) for b in bits])}))
        verdict = sum(m > 0 for m in marks) <= 1
        assert eval_formula(pairwise, s, env) == verdict, marks
        assert eval_formula(lone, s, env) == verdict, marks
        verdicts.add(verdict)
    assert verdicts == {True, False}
