"""Divide-and-conquer reachability compiler.

The micro-scale cases here are the evidence that certificate evaluation is
honest: with a one-state machine on a two-cell tape the computation-code
quantifier is small enough to sweep outright, so certified and brute-force
results can be compared, and the uniqueness of the computation code can be
counted exhaustively.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from oracles import (BIT_TM, LEFT3, all_strings, cell_code, collect_quantifier_bounds,
                     config_to_string, eval_reach_level, grid_read, moves_left, radix_digits,
                     read_outcome, record_compile_roots, role_free_names, seq_get_total,
                     walk_formula, walk_term)

from forge import nepo
from forge.codec import encode_seq
from forge.errors import BudgetError, UnboundVariableError
from forge.evaluate import Assignment, FiniteSlice, eval_formula
from forge.formulas import (AlN, EqNum, EqStr, ExN, NVar, One, SeqAt, classify, const_term,
                            formula_size, free_vars)
from forge.machine import (CORPUS, PolyBound, accepts, corpus_machine,
                           initial_configuration, parse_tm, run, run_from)
from forge.sexpr import parse_formula, print_formula

# one state, toggles the scanned bit, marches right and sticks at the edge
TOGGLE = parse_tm("states 1\n1 0 -> 1 1 2\n1 1 -> 1 0 2\n")

MICRO = nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=1, m=4)  # width 2, span 2, d 1
MID = nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=2, m=16, d=1)  # width 16, span 1
FULL = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=64)  # width 16, span 4, d 2


def config_str(tm, conf):
    return config_to_string(conf, tm.state_bits)


def sim_cell(tm, start, steps, z):
    return run_from(tm, start, steps).rows[-1].cells[z]


def cells_for(tm, start, steps, z):
    """Canonical, bit-corrupted, and mark-corrupted codes for one cell."""
    bit, mark = sim_cell(tm, start, steps, z)
    good = cell_code(bit, mark)
    return good, cell_code(1 - bit, mark), cell_code(bit, mark ^ 1)


def test_bound_arithmetic():
    assert (MICRO.n, MICRO.width, MICRO.span, MICRO.d) == (4, 2, 2, 1)
    assert MICRO.last_row == 3
    assert (MID.width, MID.span, MID.last_row) == (16, 1, 0)
    assert (FULL.width, FULL.span, FULL.d, FULL.last_row) == (16, 4, 2, 63)


def test_bound_exactness():
    # ceil(n**(num/den)) is exact: width**den >= n**num > (width-1)**den
    for b in (MICRO, MID, FULL):
        num, den = b.eps.numerator, b.eps.denominator
        assert b.width ** den >= b.n ** num
        assert (b.width - 1) ** den < b.n ** num


def test_bound_validation():
    with pytest.raises(ValueError):
        nepo.NepoBounds(c=1, eps=Fraction(2, 3), k=2, m=4)  # above 1/k
    with pytest.raises(ValueError):
        nepo.NepoBounds(c=1, eps=Fraction(0), k=1, m=4)
    with pytest.raises(ValueError):
        nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=1, m=1)
    with pytest.raises(ValueError, match="depth must be non-negative"):
        nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=1, m=4, d=-1)
    with pytest.raises(BudgetError):
        nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=2, m=16)  # span 1, no depth fits
    b = nepo.NepoBounds(c=0, eps=Fraction(1, 2), k=2, m=16)
    assert b.d == 0


def test_radix_digits_unique_exhaustively():
    for b in (MICRO, FULL):
        for i in range(b.last_row + 1):
            digits = radix_digits(i, b)
            assert len(digits) == b.d + 1
            assert all(0 <= r < b.span for r in digits)
            assert sum(r * b.span ** level for level, r in enumerate(digits)) == i
        # every digit tuple hits a distinct row, so decompositions are unique
        seen = set()
        for i in range(b.last_row + 1):
            seen.add(radix_digits(i, b))
        assert len(seen) == b.last_row + 1
    with pytest.raises(ValueError):
        radix_digits(FULL.last_row + 1, FULL)


def test_shapes_and_classification():
    f0 = nepo.reach_artifact(TOGGLE, MICRO, 0).formula.body
    assert str(classify(f0)) == "SigmaB(0)"
    assert free_vars(f0) == ({"p1", "p2", "cell", "comp"}, {"I"})

    f1 = nepo.compile_Reach(TOGGLE, MICRO, 1)
    assert str(classify(f1)) == "SigmaB(0)"
    assert free_vars(f1) == ({"p1", "p2", "cell"}, {"I"})

    cp = nepo.cell_artifact(TOGGLE, MICRO).formula
    assert str(classify(cp)) == "SigmaB(0)"
    assert free_vars(cp) == ({"i", "j", "cell"}, {"X"})

    af = nepo.compile_acceptance_sigma0(BIT_TM, MICRO)
    assert str(classify(af)) == "SigmaB(0)"
    assert free_vars(af) == (set(), {"X"})


def test_reach_level0_is_wrapped_reach0():
    art = nepo.reach_artifact(TOGGLE, MICRO, 0)
    expected = ExN("comp", const_term(art.slice.num_bound), art.formula.body)
    assert nepo.compile_Reach(TOGGLE, MICRO, 0) == art.formula == expected


def test_reach_level_cap():
    with pytest.raises(ValueError):
        nepo.compile_Reach(TOGGLE, MICRO, MICRO.d + 1)


def test_number_sized_bounds():
    for tm, b in ((TOGGLE, MICRO), (corpus_machine("scan1"), MID),
                  (corpus_machine("parity"), FULL)):
        for art in (nepo.reach_artifact(tm, b, b.d), nepo.cell_artifact(tm, b),
                    nepo.acceptance_artifact(tm, b)):
            for bound in collect_quantifier_bounds(art.formula):
                assert walk_term(bound, Assignment()) <= art.slice.num_bound


MICRO_STARTS = [initial_configuration("1", 2), initial_configuration("01", 2)]


def test_certified_matches_honest_eval_level0():
    """Full sweep of the computation-code quantifier agrees with certificates."""
    art = nepo.reach_artifact(TOGGLE, MICRO, 0)
    honest = nepo.compile_Reach(TOGGLE, MICRO, 0)
    s = art.slice
    for start in MICRO_STARTS:
        i_str = config_str(TOGGLE, start)
        for p1 in (0, 2):
            for p2 in (0, 1):
                good, bad_bit, _ = cells_for(TOGGLE, start, p1, p2)
                for cell in (good, bad_bit):
                    env = Assignment(nums={"p1": p1, "p2": p2, "cell": cell},
                                     strs={"I": i_str})
                    want = eval_formula(honest, s, Assignment(dict(env.nums), dict(env.strs)))
                    assert art.evaluate(env) == want
                    assert want == (cell == good)
    # an unbound string raises the honest evaluator's error, not a KeyError
    with pytest.raises(UnboundVariableError):
        nepo.NepoArtifact(EqStr("X", "Y"), {}, s).evaluate(Assignment())


def test_artifact_compiles_once_at_first_evaluate(monkeypatch):
    """Three artifacts evaluated in turn, with eval_formula calls on other
    formulas between them (the alternation of the certify and witness
    benchmarks), compile once each, at their first evaluate."""
    compiles = record_compile_roots(monkeypatch)
    levels = (1, 0, 1)
    arts = [nepo.reach_artifact(TOGGLE, MICRO, level) for level in levels]
    assert compiles == []
    i_str = config_str(TOGGLE, MICRO_STARTS[0])
    for _ in range(3):
        for art, level in zip(arts, levels):
            good, bad_bit, _ = cells_for(TOGGLE, MICRO_STARTS[0], 2 * MICRO.span ** level, 1)
            assert [eval_reach_level(art, i_str, 2, 1, c) for c in (good, bad_bit)] \
                == [True, False]
            env = Assignment(nums={"p1": 2, "p2": 1, "cell": good}, strs={"I": i_str})
            assert art.evaluate(env, roles_override={}, s=art.slice)
            assert eval_formula(EqStr("I", "I"), art.slice, env)
    assert [sum(f is art.formula for f in compiles) for art in arts] == [1, 1, 1]
    assert len(compiles) == 3 + 9  # and one per formula between them


def test_a_role_callback_that_evaluates_the_same_artifact_gets_the_honest_verdict():
    """The callback evaluates the artifact again, with other roles.  Sharing
    the outer evaluation's compile would hand it the inner run's memoized
    verdicts, whose keys hold no roles, and y = 1 would read the inner False."""
    f = AlN("y", One(), ExN("a", const_term(3), EqNum(NVar("a"), NVar("y"))))
    art = nepo.NepoArtifact(f, {"a": lambda e: e.nums["y"]}, FiniteSlice(8, 0))
    inner = []

    def witness(e: Assignment) -> int:
        inner.append(art.evaluate(Assignment(), {"a": lambda _: 0}))
        return e.nums["y"]

    want = walk_formula(f, art.slice, Assignment())
    for _ in range(2):  # the second outer call runs the kept compile
        inner.clear()
        assert art.evaluate(Assignment(), {"a": witness}) is want is True
        assert inner == [False, False]


def test_comp_uniqueness_exhaustive():
    """At most one code satisfies the level-0 body; exactly one when true."""
    art = nepo.reach_artifact(TOGGLE, MICRO, 0)
    body, s = art.formula.body, art.slice
    start = MICRO_STARTS[0]
    i_str = config_str(TOGGLE, start)
    good, bad_bit, _ = cells_for(TOGGLE, start, 2, 1)
    for cell, expect in ((good, 1), (bad_bit, 0)):
        hits = 0
        env = Assignment(nums={"p1": 2, "p2": 1, "cell": cell}, strs={"I": i_str})
        for comp in range(s.num_bound + 1):
            env.nums["comp"] = comp
            if eval_formula(body, s, env):
                hits += 1
        assert hits == expect, (cell, hits)


def test_every_certify_grid_read_is_one_closure():
    """Every SeqAt of the acceptance formulas at FULL (the certify benchmark's
    bounds) compiles to the one-closure read, so an emitter change that
    loses the affine index shape fails here, not only in the benchmark."""
    for name in CORPUS:
        stack, reads = [nepo.acceptance_artifact(corpus_machine(name), FULL).formula], []
        while stack:
            node = stack.pop()
            if type(node) is SeqAt:
                reads.append(node)
            stack += [v for fd in dataclasses.fields(node)
                      if dataclasses.is_dataclass(v := getattr(node, fd.name))]
        assert len(reads) > 150 and all(grid_read(t) for t in reads), name


def test_row_reads_are_lenient_reads():
    em = nepo._Emitter(TOGGLE, MICRO)
    n = em.row_bits
    certify = em.roles[em.exists_con("comp", "digit", lambda con: EqStr("X", "X")).var]
    rng = random.Random(7)
    codes = [encode_seq([rng.randrange(2) for _ in range(em.grid_bits)]),
             encode_seq([rng.randrange(2) for _ in range(n + 1)]),  # short
             encode_seq([3, 0, 1, 12] * n),  # wider than the callbacks write
             0, 77, -1]
    for code in codes:
        for t in (-1, 0, 1, 2, 5):
            want = read_outcome(lambda: [seq_get_total(code, t * n + p) for p in range(n)])
            got = read_outcome(lambda: list(em._row_bits(code, t)))
            assert got == want, (code, t)
            if type(want) is list:  # exists_con's certificate is encode_seq's
                assert certify(Assignment({"comp": code, "digit": t})) == encode_seq(want)


def test_reach_levels_match_simulator_micro():
    for level in (0, 1):
        art = nepo.reach_artifact(TOGGLE, MICRO, level)
        stride = MICRO.span ** level
        for start in MICRO_STARTS:
            i_str = config_str(TOGGLE, start)
            for p1 in range(MICRO.span + 1):
                for p2 in range(MICRO.width):
                    good, bad_bit, bad_mark = cells_for(TOGGLE, start, p1 * stride, p2)
                    assert eval_reach_level(art, i_str, p1, p2, good)
                    assert not eval_reach_level(art, i_str, p1, p2, bad_bit)
                    assert not eval_reach_level(art, i_str, p1, p2, bad_mark)


def test_reach_rejects_invalid_start_config():
    art = nepo.reach_artifact(TOGGLE, MICRO, 0)
    good = cell_code(1, 1)
    # headless, double-headed, and wrong-length strings all fail
    for bogus in ("0000" + "1", "0101" + "1", "01" + "1"):
        assert not eval_reach_level(art, bogus, 0, 0, good)


def test_corrupted_certificate_is_rejected():
    """A flipped bit in a sub-grid certificate falsifies the level-1 formula."""
    art = nepo.reach_artifact(TOGGLE, MICRO, 1)
    sub_comps = [name for name in art.roles if name.startswith("comp") and name != "comp"]
    assert sub_comps
    start = MICRO_STARTS[0]
    i_str = config_str(TOGGLE, start)
    good, _, _ = cells_for(TOGGLE, start, MICRO.span, 1)
    env = Assignment(nums={"p1": MICRO.span, "p2": 1, "cell": good},
                     strs={"I": i_str})
    assert art.evaluate(Assignment(dict(env.nums), dict(env.strs)))
    for name in sub_comps:
        honest_cb = art.roles[name]
        override = {name: lambda e, cb=honest_cb: cb(e) ^ (1 << 40)}
        # no verdict or certificate outlives its run
        runs = [art.evaluate(Assignment(dict(env.nums), dict(env.strs)), roles_override=o)
                for o in (override, None, override)]
        assert runs == [False, True, False]


class Reading(dict):
    """A dict that adds each name read from it to the set `read`."""

    def __init__(self, items, read: set):
        super().__init__(items)
        self.read = read

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)

    def __contains__(self, name):
        self.read.add(name)
        return super().__contains__(name)


def micro_runs(tm):
    """Each artifact of tm at MICRO, with assignments that reach its roles."""
    starts = {x: initial_configuration(x, MICRO.width) for x in all_strings(2)}
    for level in range(MICRO.d + 1):
        stride = MICRO.span ** level
        yield nepo.reach_artifact(tm, MICRO, level), [
            Assignment(nums={"p1": p1, "p2": p2,
                             "cell": cells_for(tm, start, p1 * stride, p2)[0]},
                       strs={"I": config_str(tm, start)})
            for start in starts.values()
            for p1 in range(MICRO.span + 1) for p2 in range(MICRO.width)]
    yield nepo.cell_artifact(tm, MICRO), [
        Assignment(nums={"i": i, "j": j, "cell": cells_for(tm, start, i, j)[0]},
                   strs={"X": x})
        for x, start in starts.items()
        for i in range(MICRO.last_row + 1) for j in range(MICRO.width)]
    yield nepo.acceptance_artifact(tm, MICRO), [
        Assignment(strs={"X": x}) for x in all_strings(3)]


def test_certificate_callbacks_read_only_their_binders_free_names():
    """The contract the verdict memo rests on (see the evaluate module
    docstring): a callback reads only names free in its binder's body, other
    than the binder's own.  The walker runs every callback call, memo or
    not."""
    for name in CORPUS:
        tm = corpus_machine(name)
        for art, envs in micro_runs(tm):
            free = role_free_names(art.formula, art.roles)
            read = {var: set() for var in art.roles}

            def recording(var, callback):
                def run(env):
                    return callback(Assignment(Reading(env.nums, read[var]),
                                               Reading(env.strs, read[var])))
                return run

            roles = {var: recording(var, cb) for var, cb in art.roles.items()}
            for env in envs:
                walk_formula(art.formula, art.slice, env, roles)
            assert set(free) == set(art.roles)
            for var, names in read.items():
                # every callback ran, and read only its binder's free names
                assert names and names <= {*free[var][0], *free[var][1]}, (name, var)


def test_grid_certificates_are_shared_by_every_evaluate(monkeypatch):
    """The grid callbacks of an artifact share one memo of certificate
    codes, keyed by stride and start configuration, which every evaluate
    call shares: each (stride, start) is simulated once, the con path and
    the row path share codes, and only reaching _CERTIFICATE_CAP codes
    empties the memo."""
    runs = []

    def counting_run_from(tm, start, steps):
        runs.append((steps, start))
        return run_from(tm, start, steps)

    monkeypatch.setattr(nepo, "run_from", counting_run_from)
    tm = corpus_machine("parity")
    art = nepo.acceptance_artifact(tm, FULL)
    budget = PolyBound((FULL.m ** FULL.c,), constant=True)
    calls = []
    counted = {v: lambda e, cb=cb: calls.append(1) or cb(e)
               for v, cb in art.roles.items() if v.startswith("comp")}
    simulated = []
    for x in ("0110", "1", "0110"):
        before = len(runs)
        assert art.evaluate(Assignment(strs={"X": x}), counted) == accepts(tm, x, budget)
        simulated.append(len(runs) - before)
    assert len(runs) == len(set(runs))  # each (stride, start) at most once
    assert len(calls) > len(runs)  # some codes came from the memo
    assert simulated[0] > 0 and simulated[2] == 0  # "0110" again simulates nothing
    monkeypatch.setattr(nepo, "_CERTIFICATE_CAP", 2)
    runs.clear()
    art = nepo.acceptance_artifact(tm, FULL)
    for _ in range(2):
        assert not art.evaluate(Assignment(strs={"X": "0110"}))
    assert len(runs) > len(set(runs))  # the full memo was emptied


def test_reach_levels_match_simulator_mid_scale():
    tm = corpus_machine("parity")
    art0 = nepo.reach_artifact(tm, MID, 0)
    art1 = nepo.reach_artifact(tm, MID, 1)
    start = initial_configuration("10110", MID.width)
    i_str = config_str(tm, start)
    for p1 in range(MID.span + 1):
        for p2 in range(0, MID.width, 3):
            good, bad_bit, _ = cells_for(tm, start, p1, p2)
            for art in (art0, art1):
                assert eval_reach_level(art, i_str, p1, p2, good)
                assert not eval_reach_level(art, i_str, p1, p2, bad_bit)


def test_cell_predicate_micro():
    # INIT reads X only below width, so an X one bit wider than the grid
    # ("111", "001", "010") has the cells of the run on its first width bits
    for tm in (TOGGLE, corpus_machine("parity")):
        art = nepo.cell_artifact(tm, MICRO)
        for x in ("1", "01", "111", "001", "010"):
            start = initial_configuration(x[:MICRO.width], MICRO.width)
            for i in range(MICRO.last_row + 1):
                for j in range(MICRO.width):
                    good, bad_bit, _ = cells_for(tm, start, i, j)
                    env = Assignment(nums={"i": i, "j": j, "cell": good}, strs={"X": x})
                    assert art.evaluate(env), (x, i, j)
                    env.nums["cell"] = bad_bit
                    assert not art.evaluate(env), (x, i, j)


def test_cell_predicate_is_functional_over_every_code():
    """The cell predicate defines each cell: at every (i, j) exactly one code
    cell_code(bit, mark) holds, and it is the simulator's cell."""
    b = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=4)
    assert (b.width, b.last_row) == (3, 3)
    for tm in (*map(corpus_machine, ("scan1", "parity", "zeros")), LEFT3):
        art = nepo.cell_artifact(tm, b)
        codes = {cell_code(bit, mark): (bit, mark)
                 for bit in (0, 1) for mark in range(1 << tm.state_bits)}
        for x in ("1", "01", "11", "001", "011", "101", "111"):
            rows = run_from(tm, initial_configuration(x, b.width), b.last_row).rows
            for i in range(b.last_row + 1):
                for j in range(b.width):
                    held = [cell for code, cell in codes.items()
                            if art.evaluate(Assignment(nums={"i": i, "j": j, "cell": code},
                                                       strs={"X": x}))]
                    assert held == [rows[i].cells[j]], (x, i, j)


def test_cell_predicate_row_zero_is_initial_config():
    art = nepo.cell_artifact(TOGGLE, MICRO)
    x = "01"
    conf = initial_configuration(x, MICRO.width)
    for j, (bit, mark) in enumerate(conf.cells):
        env = Assignment(nums={"i": 0, "j": j,
                               "cell": cell_code(bit, mark)},
                         strs={"X": x})
        assert art.evaluate(env)


def test_cell_predicate_full_scale_spot_check():
    tm = corpus_machine("scan1")
    art = nepo.cell_artifact(tm, FULL)
    start = initial_configuration("10", FULL.width)
    good, bad_bit, _ = cells_for(tm, start, 1, 0)
    env = Assignment(nums={"i": 1, "j": 0, "cell": good}, strs={"X": "10"})
    assert art.evaluate(env)
    env.nums["cell"] = bad_bit
    assert not art.evaluate(env)


def test_acceptance_micro_matches_simulator():
    b = nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=1, m=4)
    art = nepo.acceptance_artifact(BIT_TM, b)
    budget = PolyBound((BIT_TM.k ** 0 * 4,), constant=True)  # m**c steps
    for x in all_strings(2):
        got = nepo.eval_acceptance(art, x)
        assert got == accepts(BIT_TM, x, budget), x


@pytest.mark.parametrize("m", [4, 8, 16])
def test_acceptance_matches_simulator_on_left_moves(m):
    b = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=m)
    art = nepo.acceptance_artifact(LEFT3, b)
    moved = 0
    for x in all_strings(b.width):
        tableau = run(LEFT3, x, b.last_row, b.width)
        moved += moves_left(tableau)
        assert nepo.eval_acceptance(art, x) == (tableau.rows[-1].state == LEFT3.k), x
    assert moved


def test_acceptance_rejects_oversized_input():
    art = nepo.acceptance_artifact(BIT_TM, MICRO)
    assert not nepo.eval_acceptance(art, "101")  # three bits, two-cell tape


def test_acceptance_full_scale_smoke():
    tm = corpus_machine("scan1")
    art = nepo.acceptance_artifact(tm, FULL)
    assert nepo.eval_acceptance(art, "101")
    assert not nepo.eval_acceptance(art, "")


def test_formula_size_examples():
    from forge.formulas import Leq, Zero, One
    assert formula_size(Leq(Zero(), One())) == 3
    sizes = [formula_size(nepo.compile_Reach(corpus_machine("scan1"), FULL, level))
             for level in range(FULL.d + 1)]
    assert sizes[0] < sizes[1] < sizes[2]


def test_acceptance_at_m1024_prints_and_sizes():
    # every constant is one Const leaf, so neither the compiler nor the
    # printer nor the size count recurses once per bit of a wide constant
    b = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=1024)
    phi = nepo.compile_acceptance_sigma0(corpus_machine("parity"), b)
    assert formula_size(phi) == 102_708
    assert print_formula(phi).startswith("(and (leq (len X) ")


@pytest.mark.parametrize("m", [256, 320, 1024])
def test_nepo_text_reads_back_as_the_same_tree(m):
    # m = 256 holds a 991-bit constant: its printed spelling reads back as one
    # Const leaf, so the reparse is the compiled tree, not its expansion
    b = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=m)
    budget = PolyBound((b.m ** b.c,), constant=True)
    for name in ("scan1", "parity", "zeros"):
        tm = corpus_machine(name)
        art = nepo.acceptance_artifact(tm, b)
        for f in (art.formula, nepo.compile_Reach(tm, b, 0), nepo.compile_Reach(tm, b, b.d),
                  nepo.cell_artifact(tm, b).formula):
            assert parse_formula(print_formula(f)) == f, (name, m)
        if m == 256:
            parsed = nepo.NepoArtifact(parse_formula(print_formula(art.formula)),
                                       art.roles, art.slice)
            for x in ("", "1", "0110", "10111"):
                assert nepo.eval_acceptance(parsed, x) == accepts(tm, x, budget), (name, x)


def test_size_report():
    report = nepo.size_report(TOGGLE, MICRO)
    assert set(report["sizes"]) == {"level0", "level1", "acceptance"}
    assert not report["over_cap"]
    assert nepo.size_report(TOGGLE, MICRO, node_cap=10)["over_cap"]
