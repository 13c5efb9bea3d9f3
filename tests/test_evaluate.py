"""Finite-slice evaluation, comprehension, and monotone tree values."""

import dataclasses
import gc
import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from oracles import node_value_depth_bound, walk_formula, walk_term
from test_formulas import gen_formula

from forge import acc, evaluate, nepo, sexpr
from forge import formulas as F
from forge.codec import bit_at, encode_seq, mask_to_bits, sets_equal
from forge.errors import (ClassError, SliceExceededError, SortMismatchError,
                          UnboundVariableError)
from forge.evaluate import (Assignment, FiniteSlice, MonotoneTree, check_mfv,
                            compile_formula, comprehension_witness,
                            eval_formula, mfv_witness, node_value,
                            node_value_instrumented, term_reader)
from forge.formulas import formula_size
from forge.machine import corpus_machine, initial_configuration, parse_tm
from forge.sexpr import parse_formula

S8 = FiniteSlice(num_bound=8, str_width=8)


def ev(text: str, nums=None, strs=None, s: FiniteSlice = S8) -> bool:
    env = Assignment(dict(nums or {}), dict(strs or {}))
    return eval_formula(parse_formula(text), s, env)


# --- plain evaluation ---


def test_eval_pinned_examples():
    assert ev("(leq 1 (+ 1 1))")
    assert ev("(exN x (+ 1 1) (= (+ x x) (* (+ 1 1) 1)))")
    assert ev("(alS X (+ 1 1) (leq (len X) (+ 1 1)))")


def test_eval_bounds_inclusive():
    assert ev("(exN x (+ 1 1) (= x (+ 1 1)))")
    assert not ev("(exN x 1 (= x (+ 1 1)))")
    assert ev("(exS X 1 (= (len X) 1))")


def test_eval_connectives():
    assert ev("(imp (leq 1 0) (leq 1 0))")
    assert not ev("(imp (leq 0 0) (leq 1 0))")
    assert ev("(not (leq 1 0))")
    assert ev("(or (leq 1 0) (leq 0 1))")
    assert not ev("(and (leq 0 1) (leq 1 0))")


def test_eval_set_semantics():
    assert ev("(= (len X) (+ 1 (+ 1 1)))", strs={"X": "0110"})
    assert ev("(seteq X Y)", strs={"X": "011", "Y": "0110"})
    assert not ev("(in (* (+ 1 1) (+ 1 1)) X)", strs={"X": "011"})
    assert ev("(in 1 X)", strs={"X": "011"})
    assert ev("(= (len X) 0)", strs={"X": "000"})


def test_eval_string_sweep_covers_all_sets():
    # an existential finds each of the 8 subsets of [0,3)
    for mask in range(8):
        target = mask_to_bits(mask)
        body = []
        for i in range(3):
            lit = f"(in {'(+ 1 1)' if i == 2 else str(i)} W)"
            body.append(lit if bit_at(target, i) else f"(not {lit})")
        text = f"(exS W (+ 1 (+ 1 1)) (and (leq 0 0) {' '.join(body)}))"
        assert ev(text)


def test_eval_term_values_unbounded():
    # term values may exceed num_bound; only quantifier bounds are checked
    big = "(* (+ 1 1) (* (+ 1 1) (* (+ 1 1) (* (+ 1 1) (+ 1 1)))))"
    assert ev(f"(leq (+ 1 1) {big})")


def test_eval_slice_errors():
    with pytest.raises(SliceExceededError):
        ev("(exN x (* (+ 1 1) (* (+ 1 1) (* (+ 1 1) (+ 1 1)))) (leq x x))")
    with pytest.raises(SliceExceededError):
        ev("(exS X (+ 1 1) (leq 0 (len X)))", s=FiniteSlice(8, 1))
    with pytest.raises(UnboundVariableError):
        ev("(leq x 1)")
    with pytest.raises(UnboundVariableError):
        ev("(in 0 X)")
    with pytest.raises(SortMismatchError):
        term_reader()(F.Len("x"), Assignment(nums={"x": 1}))


def test_eval_seq_terms():
    code = encode_seq([4, 9])
    env = Assignment(nums={"s": code})
    read = term_reader()
    assert read(F.SeqAt(F.NVar("s"), F.One()), env) == 9
    assert read(F.SeqLen(F.NVar("s")), env) == 2
    assert read(F.SeqAt(F.NVar("s"), F.const_term(7)), env) == 0


def test_term_reader_holds_what_it_read():
    # each term is a temporary, freed after its read unless the reader holds
    # it: the next one may then take its id and get its closure from the memo
    read = term_reader()
    env = Assignment(nums={"x": 1})
    assert [read(F.Plus(F.NVar("x"), F.Const(k)), env) for k in range(2, 50)] \
        == list(range(3, 51))


def test_eval_restores_environment():
    env = Assignment(nums={"x": 5}, strs={"X": "1"})
    f = parse_formula("(and (exN y 1 (leq y x)) (exS Y 1 (seteq Y X)))")
    # binder names collide with nothing here, but shadowing must restore too
    g = F.ExN("x", F.One(), F.Leq(F.NVar("x"), F.One()))
    assert eval_formula(f, S8, env)
    assert eval_formula(g, S8, env)
    assert env.nums == {"x": 5}
    assert env.strs == {"X": "1"}
    assert "y" not in env.nums and "Y" not in env.strs


# --- generated corpus: alpha and slice invariance ---


def gen_closed(rng: random.Random, depth: int, counter: list[int],
               nvars: list[str], svars: list[str]) -> F.Formula:
    def term(d: int) -> F.NumTerm:
        if d <= 0 or rng.random() < 0.5:
            base: list[F.NumTerm] = [F.Zero(), F.One()]
            base += [F.NVar(v) for v in nvars]
            base += [F.Len(v) for v in svars]
            return rng.choice(base)
        make = F.Plus if rng.random() < 0.7 else F.Times
        return make(term(d - 1), term(d - 1))

    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return F.Leq(term(1), term(1))
        if kind == 1:
            return F.EqNum(term(1), term(1))
        if svars:
            return F.Memb(term(1), rng.choice(svars))
        return F.EqNum(term(1), term(1))
    roll = rng.randrange(8)
    if roll < 4:
        make = [F.And, F.Or, F.Imp][roll % 3]
        return make(gen_closed(rng, depth - 1, counter, nvars, svars),
                    gen_closed(rng, depth - 1, counter, nvars, svars))
    if roll == 4:
        return F.Not(gen_closed(rng, depth - 1, counter, nvars, svars))
    counter[0] += 1
    bound = F.Plus(F.One(), F.One()) if rng.random() < 0.7 else F.One()
    if roll in (5, 6):
        v = f"n{counter[0]}"
        return (F.ExN if roll == 5 else F.AlN)(
            v, bound, gen_closed(rng, depth - 1, counter, nvars + [v], svars))
    v = f"N{counter[0]}"
    make = F.ExS if rng.random() < 0.5 else F.AlS
    return make(v, bound, gen_closed(rng, depth - 1, counter, nvars, svars + [v]))


def rename_binders(f: F.Formula, counter: list[int]) -> F.Formula:
    def rt(t: F.NumTerm, m: dict[str, str]) -> F.NumTerm:
        tt = type(t)
        if tt is F.NVar:
            return F.NVar(m.get(t.name, t.name))
        if tt in (F.Plus, F.Times):
            return tt(rt(t.left, m), rt(t.right, m))
        if tt is F.Len:
            return F.Len(m.get(t.svar, t.svar))
        if tt is F.SeqAt:
            return F.SeqAt(rt(t.seq, m), rt(t.index, m))
        if tt is F.SeqLen:
            return F.SeqLen(rt(t.seq, m))
        return t

    def rf(g: F.Formula, m: dict[str, str]) -> F.Formula:
        tg = type(g)
        if tg in (F.EqNum, F.Leq):
            return tg(rt(g.left, m), rt(g.right, m))
        if tg is F.EqStr:
            return F.EqStr(m.get(g.left, g.left), m.get(g.right, g.right))
        if tg is F.Memb:
            return F.Memb(rt(g.index, m), m.get(g.svar, g.svar))
        if tg in (F.And, F.Or, F.Imp):
            return tg(rf(g.left, m), rf(g.right, m))
        if tg is F.Not:
            return F.Not(rf(g.body, m))
        counter[0] += 1
        fresh = (f"r{counter[0]}" if tg in (F.ExN, F.AlN) else f"R{counter[0]}")
        return tg(fresh, rt(g.bound, m), rf(g.body, m | {g.var: fresh}))

    return rf(f, {})


def closed_corpus(n: int = 120) -> list[F.Formula]:
    rng = random.Random(99)
    return [gen_closed(rng, 3, [0], [], []) for _ in range(n)]


def test_eval_alpha_invariant():
    s = FiniteSlice(4, 4)
    for f in closed_corpus():
        g = rename_binders(f, [0])
        assert eval_formula(f, s) == eval_formula(g, s)


def test_eval_num_bound_enlargement_invariant():
    for f in closed_corpus(60):
        small = eval_formula(f, FiniteSlice(3, 4))
        for nb in (5, 17, 1000):
            assert eval_formula(f, FiniteSlice(nb, 4)) == small


# --- comprehension ---


def test_comprehension_pinned_examples():
    phi = parse_formula("(leq z 1)")
    assert comprehension_witness(phi, 3, S8) == "110"
    false_phi = parse_formula("(leq 1 0)")
    assert sets_equal(comprehension_witness(false_phi, 3, S8, var="z"), "")
    true_phi = parse_formula("(leq 0 0)")
    assert comprehension_witness(true_phi, 2, S8, var="z") == "11"


def test_comprehension_uses_environment():
    phi = parse_formula("(in z X)")
    env = Assignment(strs={"X": "0101"})
    assert comprehension_witness(phi, 6, S8, env) == "010100"


def test_comprehension_rejects_string_quantifiers():
    phi = parse_formula("(exS W 1 (in z W))")
    with pytest.raises(ClassError):
        comprehension_witness(phi, 2, S8)


def test_comprehension_satisfies_its_axiom_instance():
    # X(z) <-> phi(z) for all z < y, checked by the evaluator itself
    texts = ["(leq z (+ 1 1))", "(exN u z (= (+ u u) z))",
             "(and (in z X) (not (= z (+ 1 1))))"]
    y = 6
    for text in texts:
        phi = parse_formula(text)
        env = Assignment(strs={"X": "011011"})
        w = comprehension_witness(phi, y, S8, env)
        env.strs["W"] = w
        inst = F.AlN("z", F.const_term(y - 1),
                     F.And(F.Imp(F.Memb(F.NVar("z"), "W"), phi),
                           F.Imp(phi, F.Memb(F.NVar("z"), "W"))))
        assert eval_formula(inst, S8, env)


def test_comprehension_variable_inference():
    phi = parse_formula("(leq z x)")
    env = Assignment(nums={"x": 1})
    assert comprehension_witness(phi, 3, S8, env) == "110"
    with pytest.raises(ValueError):
        comprehension_witness(phi, 3, S8)  # two candidates


# --- monotone trees ---


def level_eval(t: MonotoneTree, inputs: str) -> list[int]:
    """Oracle: bottom-up table of node values, independent of the recursion."""
    vals = [0] * (2 * t.a)
    for x in range(t.a, 2 * t.a):
        vals[x] = 1 if inputs[x - t.a] == "1" else 0
    for x in range(t.a - 1, 0, -1):
        if t.gates[x] == "1":
            vals[x] = vals[2 * x] & vals[2 * x + 1]
        else:
            vals[x] = vals[2 * x] | vals[2 * x + 1]
    return vals


def test_node_value_frozen_example():
    t = MonotoneTree("0100", 4)
    assert node_value(t, "1001", 1) == 1
    assert node_value(t, "0000", 1) == 0


def test_node_value_positions_beyond_tree():
    t = MonotoneTree("0100", 4)
    assert node_value(t, "1111", 8) == 0
    assert node_value(t, "1111", 97) == 0
    with pytest.raises(IndexError):
        node_value(t, "1111", 0)


def test_node_value_matches_level_oracle():
    rng = random.Random(7)
    for a in (1, 2, 4, 8):
        if a <= 4:
            gate_sets = [format(g, f"0{a}b") for g in range(1 << a)]
        else:
            gate_sets = ["".join(rng.choice("01") for _ in range(a))
                         for _ in range(100)]
        for gates in gate_sets:
            t = MonotoneTree(gates, a)
            for mask in range(1 << a):
                inputs = format(mask, f"0{a}b")
                vals = level_eval(t, inputs)
                if a <= 4:
                    positions = range(1, 2 * t.a)
                else:
                    positions = [1, rng.randrange(1, 2 * a), rng.randrange(1, 2 * a)]
                for x in positions:
                    got, depth_used = node_value_instrumented(t, inputs, x)
                    assert got == vals[x]
                    assert depth_used <= node_value_depth_bound(t)


def test_mfv_witness_examples():
    t = MonotoneTree("01", 2)
    y = mfv_witness(t, "11")
    assert bit_at(y, 1) and bit_at(y, 2) and bit_at(y, 3)
    assert not bit_at(mfv_witness(t, "10"), 1)
    leaf = MonotoneTree("0", 1)
    assert bit_at(mfv_witness(leaf, "1"), 1)
    assert not bit_at(mfv_witness(leaf, "0"), 1)


def test_mfv_witness_padding_bit():
    t = MonotoneTree("01", 2)
    assert mfv_witness(t, "00")[0] == "1"


def test_check_mfv_accepts_witness_and_rejects_flips():
    rng = random.Random(3)
    for a in (1, 2, 4, 8):
        gates = "".join(rng.choice("01") for _ in range(a))
        t = MonotoneTree(gates, a)
        for _ in range(6):
            inputs = "".join(rng.choice("01") for _ in range(a))
            y = mfv_witness(t, inputs)
            assert check_mfv(t, inputs, y)
            for pos in range(len(y)):
                flipped = y[:pos] + ("0" if y[pos] == "1" else "1") + y[pos + 1:]
                assert not check_mfv(t, inputs, flipped)


def test_check_mfv_rejects_leaf_disagreement():
    t = MonotoneTree("01", 2)
    y = mfv_witness(t, "10")
    assert not check_mfv(t, "01", y)


def test_mfv_size_mismatch():
    t = MonotoneTree("01", 2)
    with pytest.raises(ValueError):
        mfv_witness(t, "101")
    with pytest.raises(ValueError):
        node_value(t, "1", 1)


def test_tree_validation():
    with pytest.raises(ValueError):
        MonotoneTree("010", 3)
    with pytest.raises(ValueError):
        MonotoneTree("01", 4)
    with pytest.raises(ValueError):
        MonotoneTree("0x", 2)


# --- compiled evaluation against the walker ---


def outcome(fn):
    """fn()'s bool, or the class of the error it raised."""
    try:
        return fn()
    except (UnboundVariableError, SortMismatchError, SliceExceededError, TypeError) as e:
        return type(e)


class Bogus:
    """A node of no known type, in term or formula position."""


def poison(rng: random.Random, f: F.Formula, rate: float = 0.06) -> F.Formula:
    """f with a few leaves replaced by nodes the evaluators must reject when,
    and only when, evaluation reaches them."""
    def term(t):
        if rng.random() < rate:
            return rng.choice([F.NVar("Z"), F.NVar(5), F.Len("w"), Bogus()])
        if type(t) in (F.Plus, F.Times, F.SeqAt, F.SeqLen):
            return dataclasses.replace(t, **{fd.name: term(getattr(t, fd.name))
                                             for fd in dataclasses.fields(t)})
        return t

    def name(svar):
        return "w" if rng.random() < 4 * rate else svar

    def formula(g):
        tg = type(g)
        if rng.random() < rate / 2:
            return Bogus()
        if tg in (F.EqNum, F.Leq):
            return tg(term(g.left), term(g.right))
        if tg is F.Memb:
            return F.Memb(term(g.index), name(g.svar))
        if tg is F.EqStr:
            return F.EqStr(name(g.left), name(g.right))
        if tg in (F.And, F.Or, F.Imp):
            return tg(formula(g.left), formula(g.right))
        if tg is F.Not:
            return F.Not(formula(g.body))
        if tg in F.QUANTIFIERS:
            return tg(g.var, term(g.bound), formula(g.body))
        return g

    return formula(f)


DIFF_SLICES = [FiniteSlice(2, 0), FiniteSlice(5, 2), FiniteSlice(9, 3)]


def diff_envs(rng: random.Random) -> list[Assignment]:
    """Assignments over x, y, X, Y, some of them leaving a name unbound."""
    out = []
    for _ in range(3):
        nums = {v: rng.randrange(12) for v in ("x", "y") if rng.random() < 0.85}
        strs = {v: "".join(rng.choice("01") for _ in range(rng.randrange(5)))
                for v in ("X", "Y") if rng.random() < 0.85}
        out.append(Assignment(nums, strs))
    return out


def agree(f: F.Formula, s: FiniteSlice, env: Assignment, roles=None):
    """The compiled outcome on one case, after checking that the oracle
    walker agrees and that each leaves env as it found it."""
    compiled = compile_formula(f)
    before = env.copy()
    got = outcome(lambda: compiled(s, env, roles))
    assert env == before
    want = outcome(lambda: walk_formula(f, s, env, roles))
    assert env == before
    assert got == want, (f, s, env)
    return got


def test_compiled_matches_walker_on_generated_formulas():
    rng = random.Random(20261018)
    seen = Counter()
    for seed in range(120):
        g = random.Random(seed)
        f = gen_formula(g, 4, [0], ["x", "y"], ["X", "Y"], consts=True)
        if seed % 2:
            f = poison(g, f)
        for s in DIFF_SLICES:
            for env in diff_envs(rng):
                got = agree(f, s, env)
                seen[got if isinstance(got, bool) else got.__name__] += 1
    # the corpus reaches every outcome, so a mismatch in any has a chance to show
    assert set(seen) == {True, False, "UnboundVariableError", "SortMismatchError",
                         "SliceExceededError", "TypeError"}, seen
    assert min(seen.values()) >= 50 and seen[True] + seen[False] > 400, seen


def test_compiled_folds_and_short_circuits_like_the_walker():
    x, u, one, two = F.NVar("x"), F.NVar("u"), F.One(), F.const_term(2)
    unbound, sort = UnboundVariableError, SortMismatchError
    env = Assignment(nums={"x": 3})
    cases = [
        # a closed subterm folds to its value, the open one is read at run time
        (F.EqNum(F.Plus(F.Times(two, F.const_term(5)), one), F.const_term(11)), True),
        (F.EqNum(F.Plus(F.Times(x, two), F.Times(two, two)), F.const_term(10)), True),
        (F.EqNum(F.SeqAt(F.const_term(encode_seq([4, 9])), one), F.const_term(9)), True),
        (F.EqNum(F.SeqLen(F.const_term(encode_seq([4, 9, 1]))), F.const_term(3)), True),
        # a chain stops at its first deciding part, before an error after it
        (F.land([F.TRUE, F.FALSE, F.Leq(u, one)]), False),
        (F.lor([F.FALSE, F.TRUE, F.Memb(x, "w")]), True),
        (F.Imp(F.FALSE, Bogus()), True),
        # and reaches an error before it
        (F.land([F.TRUE, F.Leq(u, one), F.FALSE]), unbound),
        (F.lor([F.FALSE, F.Memb(x, "w"), F.TRUE]), sort),
        # the left operand is read first
        (F.EqNum(u, F.Len("w")), unbound),
        (F.EqNum(F.Len("w"), u), sort),
        (F.EqStr("U", "w"), unbound),
        (F.EqStr("w", "U"), sort),
        (F.EqNum(F.Plus(F.Times(F.Len("w"), two), u), one), sort),
        (F.EqNum(F.SeqAt(u, F.Plus(F.Len("w"), one)), one), unbound),
        # binders restore, also when their body raises
        (F.ExN("x", two, F.Leq(F.NVar("x"), F.Zero())), True),
        (F.ExN("z", two, F.Leq(u, F.NVar("z"))), unbound),
        (F.ExS("Y", two, F.Memb(one, "Y")), True),
    ]
    assert [agree(f, S8, env) for f, _ in cases] == [want for _, want in cases]
    assert env == Assignment(nums={"x": 3})


def test_compiled_matches_walker_with_certificate_roles():
    toggle = parse_tm("states 1\n1 0 -> 1 1 2\n1 1 -> 1 0 2\n")
    micro = nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=1, m=4)
    tight = FiniteSlice(micro.width, 4)  # below the grid-code bound
    verdicts = Counter()
    for level in (0, 1):
        art = nepo.reach_artifact(toggle, micro, level)
        sub = sorted(art.roles)
        overrides = [None,
                     {sub[-1]: lambda e, cb=art.roles[sub[-1]]: cb(e) ^ 4},
                     {sub[0]: lambda e: art.slice.num_bound + 1}]
        for x in ("1", "01"):
            i_str = acc.config_to_string(initial_configuration(x, 2), toggle.state_bits)
            for p1 in range(micro.span + 1):
                for cell in range(6):
                    env = Assignment(nums={"p1": p1, "p2": 1, "cell": cell},
                                     strs={"I": i_str})
                    for override in overrides:
                        roles = {**art.roles, **(override or {})}
                        got = agree(art.formula, art.slice, env, roles)
                        assert art.evaluate(env, override) == got
                        verdicts[got] += 1
                    assert agree(art.formula, tight, env, art.roles) is SliceExceededError
                    with pytest.raises(SliceExceededError):
                        art.evaluate(env, s=tight)
    assert verdicts[True] and verdicts[False]
    # a role value past the bound falsifies the binder even where the body
    # would hold, and only ExN binders take roles
    c = F.NVar("c")
    assert agree(F.ExN("c", F.const_term(3), F.EqNum(c, F.const_term(5))), S8,
                 Assignment(), {"c": lambda e: 5}) is False
    assert agree(F.AlN("c", F.const_term(3), F.Leq(c, F.const_term(3))), S8,
                 Assignment(), {"c": lambda e: 9}) is True


X = F.NVar("x")
NODE_SAMPLES = {
    F.Zero: F.Zero(), F.One: F.One(), F.Const: F.Const(6), F.NVar: X,
    F.Plus: F.Plus(X, F.One()), F.Times: F.Times(F.const_term(3), X),
    F.Len: F.Len("X"), F.SeqAt: F.SeqAt(F.const_term(encode_seq([4, 9, 2])), F.One()),
    F.SeqLen: F.SeqLen(F.NVar("c")),
    F.EqNum: F.EqNum(X, F.const_term(3)), F.Leq: F.Leq(X, F.One()),
    F.EqStr: F.EqStr("X", "Y"), F.Memb: F.Memb(F.One(), "X"),
    F.And: F.And(F.TRUE, F.TRUE), F.Or: F.Or(F.FALSE, F.TRUE), F.Not: F.Not(F.FALSE),
    F.Imp: F.Imp(F.TRUE, F.FALSE),
    F.ExN: F.ExN("z", X, F.EqNum(F.NVar("z"), F.const_term(2))),
    F.AlN: F.AlN("z", X, F.Leq(F.NVar("z"), X)),
    F.ExS: F.ExS("Z", F.const_term(2), F.EqStr("Z", "X")),
    F.AlS: F.AlS("Z", F.const_term(2), F.Leq(F.Len("Z"), F.const_term(2))),
}


def test_both_evaluators_cover_every_node_type():
    node_types = {c for c in vars(F).values() if isinstance(c, type)
                  and issubclass(c, (F.NumTerm, F.Formula))
                  and c not in (F.NumTerm, F.Formula)}
    # a new node type needs a sample here, and then both evaluators must take it
    assert node_types == set(NODE_SAMPLES)
    env = Assignment(nums={"x": 3, "c": encode_seq([1, 1, 0, 1])},
                     strs={"X": "0101", "Y": "01010"})
    for node in NODE_SAMPLES.values():
        if isinstance(node, F.NumTerm):
            node = F.EqNum(node, F.const_term(walk_term(node, env)))
        assert isinstance(agree(node, S8, env), bool), node
    for bogus in (F.Leq(Bogus(), F.One()), Bogus()):
        assert agree(bogus, S8, env) is TypeError


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@contextmanager
def frame_budget(frames: int):
    """Allow only `frames` Python frames above the caller's."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def levels_of(f: F.Formula) -> tuple[dict[int, int], int]:
    """The level of each formula node of f by identity, 1 at the root, and
    the greatest level of any term."""
    levels, term_levels, stack = {}, 0, [(f, 1)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, F.Formula):
            levels[id(node)] = max(levels.get(id(node), 0), d)
        else:
            term_levels = max(term_levels, d)
        stack += [(getattr(node, fd.name), d + 1) for fd in dataclasses.fields(node)
                  if isinstance(getattr(node, fd.name), (F.NumTerm, F.Formula))]
    return levels, term_levels


class Reached(Exception):
    """Ends a run at the first watched node it evaluates."""


@contextmanager
def watching(nodes: set[int], stop: bool):
    """Record the value of each run of a node whose id is in nodes, and with
    stop end the run there.  Nodes compile when evaluation first reaches
    them, so the watch sits on the compiler."""
    ran = []
    formula = evaluate._Compiler.formula

    def compile_watched(self, f):
        out = formula(self, f)
        if id(f) not in nodes:
            return out

        def run(r):
            ran.append(out(r))
            if stop:
                raise Reached
            return ran[-1]
        return run

    evaluate._Compiler.formula = compile_watched
    try:
        yield ran
    finally:
        evaluate._Compiler.formula = formula


def test_compiled_depth_costs_one_frame_per_level():
    levels = sexpr.MAX_DEPTH
    nots = "(not " * (levels - 1) + "(leq 0 1)" + ")" * (levels - 1)
    chain = "(leq 1 1)"
    for k in range(levels - 1):
        # each left part is true under and, false under or, so the run goes on
        chain = f"({'and' if k % 2 else 'or'} (leq {(k + 1) % 2} 0) {chain})"
    for text, want in ((nots, levels % 2 == 1), (chain, True)):
        f = parse_formula(text)
        depth_of, _ = levels_of(f)
        assert max(depth_of.values()) == levels
        deepest = {n for n, d in depth_of.items() if d == levels}
        with watching(deepest, stop=False) as ran, frame_budget(levels + 25):
            assert eval_formula(f, S8) == want
        assert len(ran) == len(deepest)  # each node of the deepest level ran


def test_compile_acceptance_at_m1024_in_one_frame_per_level():
    b = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=1024)
    art = nepo.acceptance_artifact(corpus_machine("parity"), b)
    phi = art.formula
    depth_of, term_levels = levels_of(phi)
    levels = max(depth_of.values())
    assert F.depth(phi) == 20 and formula_size(phi) == 102_708 and levels == 32
    # a full evaluation takes seconds at this m, so the run ends at the first
    # node of the deepest level it evaluates
    deepest = {n for n, d in depth_of.items() if d == levels}
    with watching(deepest, stop=True) as ran:
        with frame_budget(levels + term_levels + 25), pytest.raises(Reached):
            eval_formula(phi, art.slice, Assignment(strs={"X": "0110"}), art.roles)
    assert len(ran) == 1


def test_no_compile_outlives_eval_formula():
    f = F.land([F.Leq(X, F.const_term(k)) for k in range(50)]
               + [F.ExS("Y", F.One(), F.Not(F.Memb(F.Zero(), "Y")))])

    def compilers():
        return [o for o in gc.get_objects() if type(o) is evaluate._Compiler]

    gc.collect()
    kept = compilers()  # those of compile_formula results still in use
    gc.disable()
    try:
        # without the cycle collector only reference counts free the compile
        assert eval_formula(f, S8, Assignment(nums={"x": 0}))
        assert comprehension_witness(F.Leq(X, F.One()), 3, S8, var="x") == "110"
        assert compilers() == kept
    finally:
        gc.enable()


def record_compiles(monkeypatch) -> list:
    """The formula nodes compiled from here on, in order: under lazy compile,
    the nodes evaluation reaches."""
    compiled = []
    formula = evaluate._Compiler.formula
    monkeypatch.setattr(evaluate._Compiler, "formula",
                        lambda self, f: compiled.append(f) or formula(self, f))
    return compiled


def test_evaluation_compiles_only_what_it_reaches(monkeypatch):
    compiled = record_compiles(monkeypatch)
    low = F.Leq(X, F.Zero())
    chain = F.land([low, F.Leq(X, F.One()), F.Not(F.Leq(X, X))])
    some = F.ExN("y", F.One(), F.Leq(F.NVar("y"), X))
    f = F.Or(chain, some)
    # x = 1: the chain stops at its first part, and the sweep at y = 0
    assert eval_formula(f, S8, Assignment(nums={"x": 1}))
    assert compiled == [f, chain, low, some, some.body]


def test_every_node_kind_reaches_the_compiler(monkeypatch):
    # one evaluator: no tree walker to hand a node to
    assert not {"_eval", "eval_term", "_walk", "_Walk", "_num_lookup", "_str_lookup",
                "_quant_bound"} & set(vars(evaluate))
    compiled = record_compiles(monkeypatch)
    env = Assignment(nums={"x": 3}, strs={"X": "01", "Y": "010"})
    kinds = [F.EqStr("X", "Y"), F.ExS("Z", F.One(), F.Memb(F.Zero(), "Z")),
             F.AlS("Z", F.One(), F.EqStr("Z", "X")), F.Leq(X, F.Len("x")),
             F.Memb(F.One(), "x"), F.EqNum(F.NVar("Z"), X), F.EqNum(F.NVar(5), X),
             F.ExN("X", F.One(), F.Memb(F.Zero(), "X")), Bogus(), F.Leq(Bogus(), X)]
    for node in kinds:
        compiled.clear()
        assert agree(node, S8, env) == outcome(lambda: eval_formula(node, S8, env))
        assert compiled[0] is node
