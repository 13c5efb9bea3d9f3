"""Finite-slice evaluation: the compiled evaluator against the tree walker."""

import ast
import dataclasses
import gc
import itertools
import random
import re
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import (config_to_string, grid_read, grid_reads, one_function, read_outcome,
                     role_free_names, seq_len_total, walk_formula, walk_term)
from test_formulas import gen_formula, gen_term

from forge import acc, codec, evaluate, machine, nepo, proofs, sexpr
from forge import formulas as F
from forge.codec import bit_at, encode_seq, mask_to_bits
from forge.errors import SliceExceededError, SortMismatchError, UnboundVariableError
from forge.evaluate import Assignment, FiniteSlice, eval_formula
from forge.formulas import formula_size
from forge.machine import (PolyBound, accepts, corpus_machine, initial_configuration,
                           parse_tm, tableau_to_witness)
from forge.reflect import compile_proof_check, encode_formula, encode_proof
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
        eval_formula(F.EqNum(F.Len("x"), F.One()), S8, Assignment(nums={"x": 1}))


def test_entry_points_turn_every_key_error_into_unbound_variable_error():
    # the compiled closures let a KeyError through, a role callback's too;
    # the walker turns a role callback's into the same error
    def no_key(_env):
        raise KeyError

    f = F.ExN("c", F.const_term(2), F.Leq(F.NVar("c"), F.const_term(2)))
    cases = [(lambda e: e.nums["q"], "number variable q is unbound"),
             (lambda e: e.strs["Q"], "string variable Q is unbound"),
             (lambda e: {}[3], "unbound key 3"), (no_key, "unbound key None")]
    for callback, text in cases:
        for evaluator in (eval_formula, walk_formula):
            with pytest.raises(UnboundVariableError) as caught:
                evaluator(f, S8, Assignment(), {"c": callback})
            assert str(caught.value) == text
    with pytest.raises(UnboundVariableError, match="^number variable y is unbound$"):
        eval_formula(F.EqNum(F.Times(F.NVar("y"), F.NVar("y")), F.One()), S8, Assignment())


def test_eval_seq_terms():
    code = encode_seq([4, 9])
    env = Assignment(nums={"s": code})
    for t, value in ((F.SeqAt(F.NVar("s"), F.One()), 9), (F.SeqLen(F.NVar("s")), 2),
                     (F.SeqAt(F.NVar("s"), F.const_term(7)), 0)):
        assert eval_formula(F.EqNum(t, F.const_term(value)), S8, env)


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


# --- compiled evaluation against the walker ---


def outcome(fn):
    """fn()'s bool, or the class of the error it raised."""
    try:
        return fn()
    except (UnboundVariableError, SortMismatchError, SliceExceededError, TypeError) as e:
        return type(e)


def said(fn):
    """fn()'s value, or the class and text of the error it raised."""
    try:
        return fn()
    except (UnboundVariableError, SortMismatchError, SliceExceededError, TypeError,
            ValueError, IndexError) as e:
        return type(e), str(e)


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
    """eval_formula's outcome on one case, after checking that the oracle
    walker agrees and that each leaves env as it found it."""
    before = Assignment(dict(env.nums), dict(env.strs))
    got = outcome(lambda: eval_formula(f, s, env, roles))
    assert env == before
    want = outcome(lambda: walk_formula(f, s, env, roles))
    assert env == before
    assert got == want, (f, s, env)
    return got


def agrees_with_the_walker(f: F.Formula, s: FiniteSlice, env: Assignment, roles=None):
    """Check that eval_formula gives walk_formula's value, or error class
    and text (said), and that each leaves env as it found it."""
    before = Assignment(dict(env.nums), dict(env.strs))
    got = said(lambda: eval_formula(f, s, env, roles))
    assert env == before
    assert got == said(lambda: walk_formula(f, s, env, roles)), (f, env)
    assert env == before


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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 9),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_compiled_matches_walker_on_drawn_formulas(seed, depth, num_bound,
                                                   str_width, env_seed):
    """The drawn form of the seeded corpus above: the compiled function
    agrees with the walker, and eval_formula says what the walker says,
    error text included."""
    g = random.Random(seed)
    f = gen_formula(g, depth, [0], ["x", "y"], ["X", "Y"], consts=True)
    if seed % 2:
        f = poison(g, f)
    s = FiniteSlice(num_bound, str_width)
    for env in diff_envs(random.Random(env_seed)):
        agree(f, s, env)
        assert said(lambda: eval_formula(f, s, env)) == said(lambda: walk_formula(f, s, env))


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


def test_comparisons_read_like_the_walker_in_every_operand_shape():
    """EqNum and Leq over every pair of operand shapes (constant, name, sum,
    length, ill-sorted length) read the left operand first, and compile
    to one generated function with both terms written into it, or to a
    constant verdict when both fold.  Times reads its left operand first in
    every shape too."""
    operands = [F.const_term(3), X, F.NVar("u"), F.NVar("v"), F.Plus(X, F.One()),
                F.Len("w"), F.Len("Y"), F.const_term(4)]
    env = Assignment(nums={"x": 3}, strs={"W": "0110"})
    seen = Counter()
    for left in operands:
        for right in operands:
            product = F.EqNum(F.Times(left, right), X)
            assert read_outcome(lambda: eval_formula(product, S8, env)) \
                == read_outcome(lambda: walk_formula(product, S8, env)), product
            for node in (F.EqNum(left, right), F.Leq(left, right)):
                got = read_outcome(lambda: eval_formula(node, S8, env))
                assert got == read_outcome(lambda: walk_formula(node, S8, env)), node
                seen[got if type(got) is bool else got[0].__name__] += 1
                run = evaluate._Compiler(node).root
                folds = type(left) is type(right) is F.Const
                assert run in (evaluate._true, evaluate._false) if folds else one_function(run), node
    assert set(seen) == {True, False, "UnboundVariableError", "SortMismatchError"}


def test_compiled_matches_walker_with_certificate_roles():
    toggle = parse_tm("states 1\n1 0 -> 1 1 2\n1 1 -> 1 0 2\n")
    # halts at once on a 1, so its sub-grids repeat and a level-2 run meets
    # some memo key twice
    halting = parse_tm("states 2\n1 0 -> 1 0 0\n1 1 -> 2 1 0\n2 0 -> 2 0 0\n2 1 -> 2 1 0\n")
    micro = nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=1, m=4)
    deep = nepo.NepoBounds(c=2, eps=Fraction(1, 2), k=1, m=4)  # micro's grids, d 3
    tight = FiniteSlice(micro.width, 4)  # below the grid-code bound
    verdicts, calls, repeats = Counter(), [], 0

    def counting(var, callback):
        """callback, recording each call with its binder's memo key."""
        nums, strs = free[var]

        def run(e):
            calls.append((var, tuple(map(e.nums.get, nums)), tuple(map(e.strs.get, strs))))
            return callback(e)
        return run

    for tm, b, level in ((toggle, micro, 0), (toggle, micro, 1), (halting, deep, 2)):
        art = nepo.reach_artifact(tm, b, level)
        free = role_free_names(art.formula, art.roles)
        sub = sorted(art.roles)
        overrides = [None,
                     {sub[-1]: lambda e, cb=art.roles[sub[-1]]: cb(e) ^ 4},
                     {sub[0]: lambda e: art.slice.num_bound + 1}]
        for x in ("1", "01"):
            i_str = config_to_string(initial_configuration(x, 2), tm.state_bits)
            for p1 in range(b.span + 1):
                for cell in range(6):
                    env = Assignment(nums={"p1": p1, "p2": 1, "cell": cell},
                                     strs={"I": i_str})
                    for override in overrides:
                        roles = {**art.roles, **(override or {})}
                        got = agree(art.formula, art.slice, env, roles)
                        assert art.evaluate(env, override) == got
                        verdicts[got] += 1
                        # a run settles each binder once per memo key, and
                        # meets the keys the walker meets
                        counted = {v: counting(v, cb) for v, cb in roles.items()}
                        calls.clear()
                        walk_formula(art.formula, art.slice, env, counted)
                        walked = calls[:]
                        calls.clear()
                        assert art.evaluate(env, counted) == got
                        assert len(calls) == len(set(calls)) and set(calls) == set(walked)
                        repeats += len(walked) - len(calls)
                    assert agree(art.formula, tight, env, art.roles) is SliceExceededError
                    with pytest.raises(SliceExceededError):
                        art.evaluate(env, s=tight)
    assert verdicts[True] and verdicts[False]
    assert repeats > 0  # the walker settled some binder twice for one key
    # a role value past the bound falsifies the binder even where the body
    # would hold, and only ExN binders take roles
    c = F.NVar("c")
    assert agree(F.ExN("c", F.const_term(3), F.EqNum(c, F.const_term(5))), S8,
                 Assignment(), {"c": lambda e: 5}) is False
    assert agree(F.AlN("c", F.const_term(3), F.Leq(c, F.const_term(3))), S8,
                 Assignment(), {"c": lambda e: 9}) is True


def test_memoized_binder_raises_where_the_walker_does():
    """The memo key reads the binder's free names with .get: a name left
    unbound behind a short-circuit is part of the key, and raises only
    where the body reaches it."""
    c, u = F.NVar("c"), F.NVar("u")
    settle = F.ExN("c", F.const_term(3), F.Or(F.EqNum(X, F.Zero()), F.EqNum(c, u)))
    f = F.AlN("y", F.One(), settle)  # y is not free in the binder's body
    calls = []
    roles = {"c": lambda e: calls.append(1) or 2}
    seen = []
    for nums in ({"x": 0}, {"x": 1}, {"x": 1, "u": 2}, {"x": 1, "u": 3}, {"x": 0}, {"x": 1}):
        env = Assignment(nums=nums)
        want = read_outcome(lambda: walk_formula(f, S8, env, roles))
        calls.clear()
        assert read_outcome(lambda: eval_formula(f, S8, env, roles)) == want, nums
        assert len(calls) == 1  # y = 1 reuses y = 0's verdict, or y = 0 raised
        seen.append(want)
    assert seen == [True, (UnboundVariableError, "number variable u is unbound"),
                    True, False, True, seen[1]]
    # a node of unknown type in the body (free_vars rejects it) keeps the
    # binder from memoizing, and raises only where the body reaches it
    odd = F.ExN("c", F.const_term(3), F.Or(F.EqNum(X, F.Zero()), Bogus()))
    assert [agree(odd, S8, Assignment(nums={"x": x}), roles) for x in (0, 1, 0)] \
        == [True, TypeError, True]


def test_verdict_table_holds_one_runs_verdicts(monkeypatch):
    f = F.AlN("y", F.const_term(6), F.ExN("c", F.const_term(3),
                                          F.Leq(F.NVar("c"), F.NVar("y"))))
    assert eval_formula(f, S8, Assignment(), {"c": lambda e: 0})
    compiled = evaluate._kept[id(f)][1]
    verdicts = compiled.verdicts
    # the outer sweep's body has no free name but its own, so it memoizes too,
    # after the ExN it swept
    outer = (compiled.formulas[id(f.body)], False, "y", 6, (), ())
    assert list(verdicts.values()) == [True] * 8  # one per value of y, and y's
    assert list(verdicts)[-1] == outer and verdicts[outer] is True
    assert eval_formula(f, S8, Assignment(), {"c": lambda e: 2}) is False
    assert list(verdicts.items())[1:] == [(outer, False)]  # y = 0 only, then y's
    monkeypatch.setattr(evaluate, "_TABLE_CAP", 2)
    assert eval_formula(f, S8, Assignment(), {"c": lambda e: 0})
    # y = 6 and y's, the cap having emptied it at y = 2, 4 and 6
    assert len(verdicts) == 2 and verdicts[outer] is True


def memoizes(f: F.Formula, roles) -> bool:
    """Whether the number binder f memoizes its verdicts in a run under
    roles: a role settles it, or each number name free in its body but its
    own has a role."""
    try:
        nums, _ = F.free_vars(f.body)
    except TypeError:
        return False
    return bool(roles) and (type(f) is F.ExN and f.var in roles
                            or nums - {f.var} <= roles.keys())


def settlement_key(f: F.Formula, s: FiniteSlice, env: Assignment) -> tuple | None:
    """The walker's settlement of the number binder f at env as a memo key:
    (body node, exists, variable, bound value, values of the body's other
    free number names, then string names, in sorted order), or None when
    the bound passes num_bound."""
    b, (nums, strs) = walk_term(f.bound, env), F.free_vars(f.body)
    return (id(f.body), type(f) is F.ExN, f.var, b,
            tuple(env.nums.get(n) for n in sorted(nums - {f.var})),
            tuple(env.strs.get(n) for n in sorted(strs))) if b <= s.num_bound else None


class Stores(dict):
    """A verdict table that logs the key of every store."""

    def __init__(self):
        super().__init__()
        self.log = []

    def __setitem__(self, key, value):
        self.log.append(key)
        super().__setitem__(key, value)


MEMO_CASES = ["drawn", "shared", "short-circuit", "past num_bound", "no role"]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MEMO_CASES), st.integers(1, 3),
       st.integers(3, 9))
def test_memoized_sweeps_match_the_walker(seed, case, n, num_bound):
    """Sweeps AlN/ExN z whose free number names (c, and d, a role name no
    binder binds) all have roles, inside an ExN c whose role gives y % 3, so
    that the outer AlN y repeats them, give the walker's value or error,
    class and text.  Each number binder that memoizes stores one verdict per
    distinct key at which the walker settles it and the settlement
    completes, its body node in the key read as the function it compiles
    to, and no other binder stores any; the role callbacks run once
    per distinct key, at the keys the walker meets.  Cases: an AlN and an
    ExN over one body node and variable, whose entries stay apart; d read
    behind a short-circuit; a bound c + k past num_bound at c = 2; a sweep
    reading y, which has no role, and so does not memoize."""
    g = random.Random(seed)
    y, c, z = F.NVar("y"), F.NVar("c"), F.NVar("z")
    calls, walked = [], []

    def atom(names):
        a, b = (g.choice([F.NVar(v) for v in names] + [F.One(), F.const_term(2)]) for _ in "ab")
        return g.choice([F.Leq(a, b), F.EqNum(a, b), F.Memb(F.Plus(a, b), "X"),
                         F.Leq(F.Plus(a, b), F.const_term(g.randrange(6)))])

    def body(names, depth):
        if depth == 0 or g.random() < 0.3:
            return atom(names)
        if g.random() < 0.2:  # an inner sweep, which reads z and so does not memoize
            return g.choice([F.AlN, F.ExN])("w", F.const_term(g.randrange(4)),
                                            body(["w", "z", "c"], depth - 1))
        if g.random() < 0.2:
            return F.Not(body(names, depth - 1))
        return g.choice([F.And, F.Or, F.Imp])(body(names, depth - 1), body(names, depth - 1))

    def sweep(b=None, bound=None):
        return g.choice([F.AlN, F.ExN])("z", bound or F.const_term(g.randrange(num_bound + 1)),
                                        b or body(["z", "c", "c"] + ["d"] * (g.random() < 0.2), 2))

    parts = [sweep() for _ in range(n)]
    b, bound = body(["z", "c"], 2), F.const_term(g.randrange(num_bound + 1))
    ex, al = F.ExN("z", bound, b), F.AlN("z", bound, b)
    spoilt = {"drawn": None,
              "shared": F.Or(F.Not(ex), F.Not(al)),  # al runs where ex holds
              "short-circuit": sweep(F.Or(F.Leq(z, c), F.Leq(F.NVar("d"), z))),
              "past num_bound": sweep(bound=F.Plus(c, F.const_term(num_bound - 1))),
              "no role": sweep(F.Or(body(["z", "c"], 1), F.Leq(y, z)))}[case]
    if spoilt is not None:
        parts.insert(g.randrange(1, n + 1), spoilt)
    # the first part runs at every y the outer loop reaches, so it repeats
    parts[0] = F.Or(parts[0], F.Not(parts[0]))
    settle = F.ExN("c", F.const_term(2), F.land([F.Leq(F.Zero(), y), *parts]))
    f = F.AlN("y", F.const_term(g.randrange(3, num_bound + 1)),
              F.Or(settle, F.Leq(y, F.const_term(g.randrange(num_bound + 1)))))
    roles = {"c": lambda e: calls.append(("c", e.nums["y"])) or e.nums["y"] % 3,
             "d": lambda e: 1}
    binders = [h for h in distinct_binders(f) if type(h) in (F.AlN, F.ExN)]
    memo = {id(h): memoizes(h, roles) for h in binders}
    assert memo[id(parts[0].left)]
    if case in ("short-circuit", "no role"):
        assert memo[id(spoilt)] is (case == "short-circuit")
    s = FiniteSlice(num_bound, 0)
    x = "".join(g.choice("01") for _ in range(g.randrange(8))) if g.random() < 0.9 else None
    env = Assignment(nums={"z": 7} if g.random() < 0.5 else {},
                     strs={} if x is None else {"X": x})
    agrees_with_the_walker(f, s, env, roles)

    def recording(h, s, env, roles):
        key = settlement_key(h, s, env) if memo.get(id(h)) else None
        out = walk(h, s, env, roles)
        if key is not None:
            walked.append(key)
        return out

    walk = oracles._walk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_walk", recording)
        want = said(lambda: walk_formula(f, s, env, roles))
    called, calls[:] = calls[:], []
    compiled = evaluate._Compiler(f)
    compiled.verdicts = stores = Stores()
    assert said(lambda: compiled.run(s, env, roles)) == want
    assert len(calls) == len(set(calls)) and set(calls) == set(called)
    assert len(stores.log) == len(set(stores.log))  # one settlement per key
    stored = Counter(k[:3] for k in stores.log)
    # binders whose bodies compile to one function (equal sources) share entries
    shared = {(compiled.formulas.get(k[0]),) + k[1:] for k in walked}
    for h in binders:
        at = compiled.formulas.get(id(h.body)), type(h) is F.ExN, h.var
        keys = {k for k in shared if k[:3] == at}
        assert stored[at] == (len(keys) if memo[id(h)] else 0), (case, h)
    if want is True:  # y reached 3, where c is 0 again, so parts[0] ran twice
        assert len(walked) > len(set(walked))


def test_repeated_evaluation_leaves_no_cycles():
    """A compile and its closures form no cycle, memoized verdicts
    included, of a role binder and of a sweep over a role name: 50 more
    calls leave the cycle collector no more to find than one call does, and
    no key holds a binder's own closure."""
    y, c = F.NVar("y"), F.NVar("c")
    sweep = F.AlN("y", c, F.Leq(y, c))  # c, its one free name, has a role
    roles = {"c": lambda e: 2}
    for f, key in ((F.AlN("y", F.One(), F.ExN("c", F.const_term(3), F.Leq(y, c))), None),
                   (F.ExN("c", F.const_term(3), F.And(F.Leq(c, F.const_term(3)), sweep)),
                    (sweep.body, False, "y", 2, (2,), ()))):
        gc.collect()
        gc.disable()
        try:
            assert eval_formula(f, S8, Assignment(), roles)
            once = gc.collect()
            for _ in range(50):
                assert eval_formula(f, S8, Assignment(), roles)
            assert gc.collect() <= once
        finally:
            gc.enable()
        compiled = evaluate._kept[id(f)][1]
        verdicts, closures = compiled.verdicts, compiled.formulas
        if key is not None:
            assert verdicts[(closures[id(key[0])], *key[1:])] is True
        for h in distinct_binders(f):
            own, body = closures[id(h)], closures[id(h.body)]
            assert all(own not in k for k in verdicts if k[0] is body)


X = F.NVar("x")
NODE_SAMPLES = {
    F.Const: F.Const(6), F.NVar: X,
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


def fused_root(f: F.Formula) -> F.Formula:
    """The first node of f, following Not bodies and right parts, that
    compiles as one fused clause."""
    while not evaluate._fuses(f):
        f = f.body if type(f) is F.Not else f.right
    return f


def compiled_nodes(f: F.Formula) -> list[F.Formula]:
    """The nodes of f that compile as nodes of their own, each once: the
    root, the parts of an And/Or chain, the children of a Not, Imp or binder
    that does not fuse, and nothing inside a fused clause."""
    out, seen, stack = [], set(), [f]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        out.append(g)
        tg = type(g)
        if tg in (F.And, F.Or, F.Not, F.Imp) and evaluate._fuses(g):
            continue
        if tg in (F.And, F.Or):
            while type(g) is tg:
                stack.append(g.left)
                g = g.right
            stack.append(g)
        elif tg is F.Imp:
            stack += [g.left, g.right]
        elif tg in (F.Not, F.ExN, F.AlN, F.ExS, F.AlS):
            stack.append(g.body)
    return out


def test_compiled_depth_costs_one_frame_per_level():
    """Nested Nots and alternating Or/And chains sexpr.MAX_DEPTH levels deep
    run one frame per level down to the first node within _CLAUSE_CAP,
    which compiles with everything under it into one generated function
    (the Not _CLAUSE_CAP levels from the bottom, the chain 7 levels from
    it), in one frame per level of the clause."""
    levels, cap = sexpr.MAX_DEPTH, evaluate._CLAUSE_CAP
    # atoms read x, bound to 0, so that no clause folds
    nots = "(not " * (levels - 1) + "(leq x 1)" + ")" * (levels - 1)
    chain = "(leq x x)"
    for k in range(levels - 1):
        # each left part is true under and, false under or, so the run goes on
        chain = f"({'and' if k % 2 else 'or'} {'(leq x 0)' if k % 2 else '(leq 1 x)'} {chain})"
    for text, want, fused_at in ((nots, levels % 2 == 1, levels - cap + 1),
                                 (chain, True, levels - (cap - 1) // 2)):
        f = parse_formula(text)
        depth_of, _ = levels_of(f)
        assert max(depth_of.values()) == levels
        root = fused_root(f)
        assert depth_of[id(root)] == fused_at
        with watching({id(root)}, stop=False) as ran, frame_budget(levels + 25):
            assert eval_formula(f, S8, Assignment({"x": 0})) == want
        assert len(ran) == 1  # the fused clause ran
        compiler = evaluate._kept[id(f)][1]
        assert one_function(compiler.formulas[id(root)])
        # nothing under the fused clause compiled on its own
        assert max(depth_of[n] for n in compiler.formulas) == fused_at


def test_compile_acceptance_at_m1024_in_one_frame_per_level():
    b = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=1024)
    art = nepo.acceptance_artifact(corpus_machine("parity"), b)
    phi = art.formula
    depth_of, term_levels = levels_of(phi)
    levels = max(depth_of.values())
    assert formula_size(phi) == 102_708 and levels == 32
    # the deepest nodes that compile on their own sit 4 levels up, and
    # each is one fused clause
    compiled = compiled_nodes(phi)
    deepest_level = max(depth_of[id(n)] for n in compiled)
    deepest = {id(n) for n in compiled if depth_of[id(n)] == deepest_level}
    assert deepest_level == levels - 4
    # a full evaluation takes seconds at this m, so the run ends at the first
    # node of the deepest compiled level it evaluates
    with watching(deepest, stop=True) as ran:
        with frame_budget(levels + term_levels + 25), pytest.raises(Reached):
            eval_formula(phi, art.slice, Assignment(strs={"X": "0110"}), art.roles)
    assert len(ran) == 1
    compiler = next(c for g, c in evaluate._kept.values() if g is phi)
    reached = deepest & compiler.formulas.keys()
    assert reached and all(one_function(compiler.formulas[n]) for n in reached)


def test_eval_formula_keeps_only_its_last_32_compiles():
    first = F.land([F.Leq(X, F.const_term(k)) for k in range(50)]
                   + [F.ExS("Y", F.One(), F.Not(F.Memb(F.Zero(), "Y")))])
    fs = [first] + [F.Leq(X, F.const_term(k)) for k in range(32)]

    def compilers():
        return [o for o in gc.get_objects() if type(o) is evaluate._Compiler]

    gc.collect()
    kept = compilers()  # those eval_formula keeps, and any a test still holds
    gc.disable()
    try:
        # without the cycle collector only reference counts free a compile
        for f in fs:
            assert eval_formula(f, S8, Assignment(nums={"x": 0}))
        alive = compilers()
        assert not [c for c in alive if id(first) in c.formulas]
        new = [c for c in alive if c not in kept]
        assert len(new) == 32
        assert [sum(id(f) in c.formulas for c in new) for f in fs[1:]] == [1] * 32
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
    # past _CLAUSE_CAP nodes, so the chain compiles part by part
    chain = F.land([low, F.Leq(X, F.One())]
                   + [F.Not(F.Leq(X, F.const_term(k))) for k in range(evaluate._CLAUSE_CAP // 3)])
    assert not evaluate._fuses(chain)
    some = F.ExN("y", F.One(), F.Leq(F.NVar("y"), X))
    f = F.Or(chain, some)
    # x = 1: the chain stops at its first part, and the sweep at y = 0
    assert eval_formula(f, S8, Assignment(nums={"x": 1}))
    assert compiled == [f, chain, low, some, some.body]


def test_a_kept_compile_compiles_only_what_no_earlier_call_reached(monkeypatch):
    compiled = record_compiles(monkeypatch)
    y = F.NVar("y")
    # a binder beside below, so that the Or compiles part by part
    below, above = F.Leq(y, X), F.ExN("z", F.Zero(), F.Leq(X, y))
    f = F.AlN("y", F.const_term(3), F.Or(below, above))
    assert eval_formula(f, S8, Assignment(nums={"x": 5}))
    assert compiled == [f, f.body, below]
    assert eval_formula(f, FiniteSlice(3, 0), Assignment(nums={"x": 5}))
    assert len(compiled) == 3  # the same formula at another slice compiles nothing
    assert eval_formula(f, S8, Assignment(nums={"x": 0}))
    assert compiled[3:] == [above, above.body]
    assert eval_formula(f, S8, Assignment(nums={"x": 0}))
    assert len(compiled) == 5


def record_terms(monkeypatch) -> list:
    """The compound terms compiled from here on, in order."""
    compiled = []
    term = evaluate._Compiler.term
    monkeypatch.setattr(evaluate._Compiler, "term",
                        lambda self, t: compiled.append(t) or term(self, t))
    return compiled


def test_a_fused_clause_compiles_whole_when_first_reached(monkeypatch):
    """A clause within _CLAUSE_CAP compiles at its first reach, whole, into
    one generated function: past a true part of an Or chain it compiles
    nothing, none of its terms included, and a binder beside a reached
    clause compiles when, and only when, evaluation reaches it."""
    compiled, terms = record_compiles(monkeypatch), record_terms(monkeypatch)
    y, z = F.NVar("y"), F.NVar("z")
    hit = F.Leq(X, F.One())
    clause = F.And(F.Leq(F.Times(X, TWO), y), F.Not(F.Memb(F.Plus(X, F.One()), "X")))
    some = F.ExN("z", F.One(), F.EqNum(F.Plus(z, y), X))
    f = F.Or(hit, F.Or(clause, some))
    mine = {id(t) for t in (clause.left.left, clause.left.right, clause.right.body.index)}
    env = Assignment({"x": 1, "y": 9}, {"X": "0000"})
    assert eval_formula(f, S8, env)  # the Or stops at hit
    assert compiled == [f, hit] and not mine & set(map(id, terms))
    env.nums["x"] = 3
    assert eval_formula(f, S8, env)  # the clause holds
    assert compiled[2:] == [clause] and mine <= set(map(id, terms))
    assert one_function(evaluate._kept[id(f)][1].formulas[id(clause)])
    env.nums["y"] = 2
    assert eval_formula(f, S8, env)  # the clause fails, and some is reached and holds
    assert compiled[3:] == [some, some.body]
    g = F.And(clause, some)
    compiled.clear()
    assert eval_formula(g, S8, env) is False
    assert compiled == [g, clause]  # the clause fails first
    env.nums["y"] = 6
    assert eval_formula(g, S8, env) is False
    assert compiled[2:] == [some, some.body]


SEQ_AT = F.SeqAt(F.NVar("s"), F.NVar("i"))
# atoms for fused clauses: a grid read on either side, a Memb, a folded
# atom, an EqStr, and three poisons: an ill-sorted name, a node of unknown
# type and a name no assignment binds
CLAUSE_LEAVES = [F.EqNum(SEQ_AT, F.Zero()), F.Leq(X, F.SeqAt(F.NVar("s"), F.Plus(F.NVar("i"), X))),
                 F.Memb(F.Plus(X, F.NVar("i")), "X"), F.Leq(F.One(), F.Zero()), F.EqStr("X", "Y"),
                 F.Leq(F.NVar("Z"), X), Bogus(), F.EqNum(F.NVar("u"), X),
                 F.Leq(X, F.const_term(3)), F.Leq(F.Times(X, X), F.Plus(X, F.Times(X, X)))]
# grid reads on an empty row, at the row's length, at a negative index, of
# a negative code with its index unbound and bound, of an unbound code with
# its index unbound, and inside the row (None: unbound)
CLAUSE_CODES = [(encode_seq([]), 0), (encode_seq([1, 0, 1]), 3), (encode_seq([1, 0, 1]), -1),
                (-5, None), (-5, 1), (None, None), (encode_seq([0, 1, 1]), 1)]


def clause_of(g: random.Random, n: int) -> F.Formula:
    """A random quantifier-free formula of exactly n nodes over CLAUSE_LEAVES."""
    if n == 1:
        return g.choice(CLAUSE_LEAVES)
    if n == 2 or g.random() < 0.2:
        return F.Not(clause_of(g, n - 1))
    left = g.randrange(1, n - 1)
    return g.choice([F.And, F.Or, F.Imp])(clause_of(g, left), clause_of(g, n - 1 - left))


def test_clauses_at_the_cap_agree_with_the_walker():
    """Clauses of _CLAUSE_CAP - 1 and _CLAUSE_CAP nodes fuse into one
    function and one of _CLAUSE_CAP + 1 does not; each gives the walker's
    value or first error, class and text, on grid reads at every edge, the
    poisons included."""
    cap, seen = evaluate._CLAUSE_CAP, Counter()
    for n in (cap - 1, cap, cap + 1):
        for seed in range(40):
            f = clause_of(random.Random(seed * 100 + n), n)
            assert evaluate._fuses(f) is (n <= cap)
            for (code, j), x in itertools.product(CLAUSE_CODES, (0, 2)):
                nums = {n: v for n, v in (("x", x), ("s", code), ("i", j)) if v is not None}
                env = Assignment(nums, {"X": "0110", "Y": "011"})
                agrees_with_the_walker(f, S8, env)
                got = said(lambda: eval_formula(f, S8, env))
                seen[got if type(got) is bool else got[0].__name__] += 1
            root = evaluate._kept[id(f)][1].root
            if n <= cap:
                assert one_function(root) or root in (evaluate._true, evaluate._false), f
            else:
                assert oracles.generated_source(root) is None, f
    assert set(seen) == {True, False, "ValueError", "IndexError", "UnboundVariableError",
                         "SortMismatchError", "TypeError"}, seen


def test_a_call_from_a_role_callback_compiles_its_own_copy():
    """A role callback evaluates the same formula at another slice and with
    other roles.  Sharing the outer run's compile would hand the outer run
    the inner run's memoized verdicts, whose keys hold neither slice nor
    roles, and y = 1 would read the inner True."""
    y, c = F.NVar("y"), F.NVar("c")
    f = F.AlN("y", F.One(), F.ExN("c", F.const_term(3), F.EqNum(c, y)))
    inner_slice, inner_roles = FiniteSlice(3, 0), {"c": lambda e: e.nums["y"]}
    inner = []

    def witness(e: Assignment) -> int:
        inner.append(eval_formula(f, inner_slice, Assignment(), inner_roles))
        return 2 * e.nums["y"]  # right at y = 0 only

    want = walk_formula(f, S8, Assignment(), {"c": lambda e: 2 * e.nums["y"]})
    want_inner = walk_formula(f, inner_slice, Assignment(), inner_roles)
    for _ in range(2):  # the second outer call runs the kept compile
        inner.clear()
        assert eval_formula(f, S8, Assignment(), {"c": witness}) is want is False
        assert inner == [want_inner] * 2 == [True, True]


class Role:
    """A role callback, c = x, that a weak reference can watch."""

    def __call__(self, e: Assignment) -> int:
        return e.nums["x"]


def test_a_kept_compile_holds_nothing_of_its_last_call():
    """The compile eval_formula keeps lets go of a call's roles when the
    call returns or raises, and the next call runs it as before."""
    c, b = F.NVar("c"), F.NVar("b")
    # the role binder runs first, then the sweep bound is read
    f = F.And(F.ExN("c", F.const_term(3), F.EqNum(c, X)),
              F.AlN("y", b, F.Leq(F.NVar("y"), b)))

    def call(nums: dict):
        """f's outcome with a fresh role, and a weak reference to the role."""
        role = Role()
        return outcome(lambda: eval_formula(f, S8, Assignment(nums), {"c": role})), \
            weakref.ref(role)

    for nums, want in (({"x": 1, "b": 2}, True), ({"x": 1, "b": 9}, SliceExceededError)):
        got, role = call(nums)
        assert got is want
        assert evaluate._kept[id(f)][0] is f
        gc.collect()
        assert role() is None
        env = Assignment({"x": 2, "b": 3})
        assert eval_formula(f, S8, env, {"c": Role()}) \
            is walk_formula(f, S8, env, {"c": Role()}) is True
        env = Assignment({"x": 4, "b": 3})
        assert eval_formula(f, S8, env, {"c": Role()}) \
            is walk_formula(f, S8, env, {"c": Role()}) is False


# an Or chain past _CLAUSE_CAP nodes, so that a Not, Imp or And over it
# compiles it as a child of its own, on its first run
BODY = F.lor([F.Leq(X, F.const_term(5 + k)) for k in range(evaluate._CLAUSE_CAP // 2 + 1)])


@pytest.mark.parametrize("f", [F.Not(BODY), F.Imp(F.TRUE, BODY), F.And(F.TRUE, BODY),
                               F.AlN("y", F.One(), BODY), F.ExS("Y", F.One(), BODY)])
def test_a_compile_that_raises_is_retried_at_the_next_call(monkeypatch, f):
    """A child compile that raises (a RecursionError, say) leaves the kept
    compile able to run: the next call compiles that child again."""
    assert not evaluate._fuses(f)
    formula = evaluate._Compiler.formula
    failed = []

    def flaky(self, g):
        if g is BODY and not failed:
            failed.append(g)
            raise RecursionError
        return formula(self, g)

    monkeypatch.setattr(evaluate._Compiler, "formula", flaky)
    env = Assignment(nums={"x": 3})
    with pytest.raises(RecursionError):
        eval_formula(f, S8, env)
    assert next(reversed(evaluate._kept.values()))[0] is f
    assert eval_formula(f, S8, env) == walk_formula(f, S8, env)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_a_kept_formula_agrees_with_the_walker_at_every_call(seed, depth, env_seed):
    g = random.Random(seed)
    f = gen_formula(g, depth, [0], ["x", "y"], ["X", "Y"], consts=True)
    if seed % 2:
        f = poison(g, f)
    rng = random.Random(env_seed)
    for _ in range(3):
        for s in DIFF_SLICES:
            for env in diff_envs(rng):
                assert said(lambda: eval_formula(f, s, env)) \
                    == said(lambda: walk_formula(f, s, env)), (f, s, env)
                assert next(reversed(evaluate._kept.values()))[0] is f


def test_equal_sums_and_products_share_one_closure():
    """Equal sums and products compile to one fragment.  Every term built
    here stays alive as long as the compiler, as the identity memo's
    soundness needs: a node freed while the compiler lives could give its
    id to a later one."""
    compiler, built = evaluate._Compiler(F.TRUE), []
    y = F.NVar("y")
    make = [lambda: F.Plus(F.Times(X, y), F.One()), lambda: F.Times(F.Plus(X, y), X),
            lambda: F.Plus(F.Times(F.const_term(3), X), F.Plus(y, F.One()))]
    for build in make:
        a, b = build(), build()
        built += a, b
        assert a == b and a is not b
        assert not evaluate._is_const(compiler.term(a)) and compiler.term(a) is compiler.term(b)
    # an ill-sorted name compiles to a fresh error closure, which no sum shares
    bad = [F.Plus(F.NVar("Z"), X), F.Plus(F.NVar("Z"), X)]
    assert compiler.term(bad[0]) is not compiler.term(bad[1])
    assert compiler.term(F.NVar("Z")) is not compiler.term(F.NVar("Z"))
    env = Assignment(nums={"x": 2, "y": 3})
    pair = F.EqNum(make[0](), make[0]())
    assert agree(pair, S8, env) is True
    assert said(lambda: eval_formula(F.Leq(bad[0], bad[1]), S8, env)) \
        == (SortMismatchError, "Z is not a number variable")


def test_every_node_kind_reaches_the_compiler(monkeypatch):
    # one evaluator: no tree walker to hand a node to
    assert not {"_eval", "eval_term", "_walk", "_Walk", "_num_lookup", "_str_lookup",
                "_quant_bound", "compile_formula", "Compiled", "_Run"} & set(vars(evaluate))
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


def test_memb_matches_the_walker_on_every_index_shape():
    """Memb over a constant, a name, a sum, a product and a grid read index
    gives the walker's value or error, class and text on indices that are
    negative, inside or past the string, the empty string, and unbound or
    ill-sorted names; an unbound string is reported before an unbound index.
    Each compiles to one generated function with its index written in, the
    grid read written in place on the code's name."""
    i = F.NVar("i")
    indices = [F.Zero(), F.One(), F.const_term(3), F.const_term(9), i, F.NVar("Z"),
               F.Plus(i, F.One()), F.Times(i, F.const_term(2)), F.SeqAt(F.NVar("n"), i),
               F.SeqAt(F.NVar("n"), F.Times(F.Plus(i, F.One()), F.const_term(2)))]
    shapes = set()
    for index in indices:
        f = F.Memb(index, "X")
        compiler = evaluate._Compiler(f)
        shapes.add(type(compiler.term(index)).__name__)
        assert one_function(compiler.root), f
        assert grid_reads(compiler.root, compiler) == ([True] if type(index) is F.SeqAt else [])
        for x in ["", "0", "1", "101", "0110", "111", None]:
            for j in [-3, -1, 0, 1, 2, 3, 5, 9, None]:
                nums = {} if j is None else {"i": j, "n": encode_seq([1, 0, 1]) if j else -5}
                env = Assignment(nums, {} if x is None else {"X": x})
                assert said(lambda: eval_formula(f, S8, env)) \
                    == said(lambda: walk_formula(f, S8, env)), (f, env)
    assert shapes == {"int", "_Frag"}
    assert said(lambda: eval_formula(F.Memb(i, "X"), S8, Assignment())) \
        == (UnboundVariableError, "string variable X is unbound")


# --- grid reads: written in place over the run's table of decoded codes ---


SEQ, I, J, K = F.NVar("s"), F.NVar("i"), F.NVar("j"), F.NVar("k")
TWO, THREE = F.const_term(2), F.const_term(3)
DEEP = I
for _ in range(40):  # past _DEPTH_CAP
    DEEP = F.Plus(DEEP, F.One())
# (term, compiles to a grid read written in place on a name, its index written
# into its atom)
READS = [
    (F.SeqAt(SEQ, F.Plus(F.Times(F.Plus(F.Times(I, TWO), J), THREE), F.One())), True),
    (F.SeqAt(SEQ, F.Times(F.Plus(TWO, I), THREE)), True),
    (F.SeqAt(SEQ, F.Plus(F.Times(J, F.Zero()), I)), True),  # j is still read
    (F.SeqAt(SEQ, F.Plus(I, F.Times(TWO, I))), True),
    (F.SeqAt(SEQ, F.Plus(F.Plus(F.Times(I, THREE), J), K)), True),
    (F.SeqAt(SEQ, THREE), True),
    (F.SeqAt(SEQ, F.Times(I, J)), True),
    (F.SeqAt(SEQ, DEEP), False),  # its index a function of its own
    (F.SeqAt(F.Plus(SEQ, F.Zero()), I), False),
    (F.SeqAt(SEQ, F.Plus(F.NVar("Z"), I)), True),  # ill-sorted index name
    (F.SeqAt(F.NVar("S"), I), False),  # ill-sorted sequence name
    (F.SeqAt(SEQ, F.SeqLen(SEQ)), True),
    (F.SeqLen(SEQ), False),
    (F.SeqLen(F.Plus(SEQ, F.Zero())), False),  # a closure operand
    (F.SeqAt(F.const_term(encode_seq([5, 300, 7])), F.One()), False),  # folds
    (F.SeqLen(F.const_term(encode_seq([5, 300, 7]))), False),  # folds
]
CODES = [encode_seq([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]),  # bytes row
         encode_seq([5, 300, 7, 2]),                      # tuple row
         0, 77, -5, None]


def read_envs():
    for code in CODES:
        for i in (-1, 0, 1, 2, None):
            for j in (0, 1, 4, None):
                nums = {"s": code, "i": i, "j": j, "k": 2}
                yield Assignment({n: v for n, v in nums.items() if v is not None})


def test_grid_reads_agree_with_the_walker():
    seen = Counter()
    for t, fast in READS:
        assert grid_read(t) == fast, t
        atom = F.EqNum(t, F.One())
        for env in read_envs():
            got = read_outcome(lambda: walk_term(t, env))
            if type(got) is int:  # the atom that holds t at got reads got
                assert eval_formula(F.EqNum(t, F.const_term(got)), S8, env), (t, env)
            assert read_outcome(lambda: eval_formula(atom, S8, env)) \
                == read_outcome(lambda: walk_formula(atom, S8, env))
            if fast:
                seen[got if type(got) is int else got[0].__name__] += 1
    # in-range reads of both row types, reads past the code, and every error
    assert {0, 1, 5, 300, 7, "ValueError", "IndexError", "UnboundVariableError"} \
        <= set(seen), seen
    assert read_outcome(lambda: eval_formula(F.EqNum(READS[0][0], F.One()), S8,
                                             Assignment({"s": 1}))) \
        == (UnboundVariableError, "number variable i is unbound")


def test_grid_read_table_holds_one_runs_codes(monkeypatch):
    f = F.EqNum(F.SeqAt(SEQ, I), F.One())
    a, b = encode_seq([1, 0]), encode_seq([0, 1])
    assert eval_formula(f, S8, Assignment({"s": a, "i": 0}))
    codes = evaluate._kept[id(f)][1].codes
    assert eval_formula(f, S8, Assignment({"s": a, "i": 2})) is False
    assert list(codes) == [a]
    assert eval_formula(f, S8, Assignment({"s": b, "i": 1}))
    assert list(codes) == [b]
    # a sweep over more codes than the table takes keeps at most _TABLE_CAP
    monkeypatch.setattr(evaluate, "_TABLE_CAP", 4)
    sweep = F.ExN("s", F.const_term(40), F.EqNum(F.SeqAt(SEQ, F.Zero()), TWO))
    assert not eval_formula(sweep, FiniteSlice(40, 0))
    assert 0 < len(evaluate._kept[id(sweep)][1].codes) <= 4


# --- generated functions: each atom's whole term tree written into one function ---


class EvilStr(str):
    """A str whose repr is code, which must never reach a generated source."""

    def __repr__(self):
        return "__import__('os').getpid()"


class EvilInt(int):
    """An int whose repr is code, as EvilStr."""

    def __repr__(self):
        return "__import__('os').getpid()"


HOSTILE_NUMS = ["a'] + __import__('os').getpid() + nums['a", 'b"\\\n', "c\0_0", "d{0}%s\r",
                "nums", "strs", "s", "i", "r", "len", "_0", EvilStr("evil")]
HOSTILE_STRS = ["X'] or True or strs['", 'Y"\\\n\0', "Strs", EvilStr("Evil")]
# the identifiers a generated source may name: its dicts, the Memb locals,
# the run, the one builtin it may call, its operands, and the temporaries of
# grid reads and of terms computed once
GENERATED_NAMES = re.compile(r"nums|strs|r|s|i|len|_\d+|_[rjct]\d+")


def generated_sources_are_clean(fn, names) -> None:
    """Check that fn's generated source names only GENERATED_NAMES, reads
    only the run's dicts as attributes, and holds no constant but ints and
    the given names (and the bit '1')."""
    source = oracles.generated_source(fn)
    if source is None:
        return
    for g in ast.walk(ast.parse(source)):
        if type(g) is ast.Name:
            assert GENERATED_NAMES.fullmatch(g.id), (g.id, source)
        elif type(g) is ast.Constant:
            assert type(g.value) is int or g.value in names or g.value == "1", source
        elif type(g) is ast.Attribute:  # the run's dicts
            assert g.value.id == "r" and g.attr in ("nums", "strs"), source


def test_hostile_names_stay_keys():
    """Number and string names holding quotes, backslashes, newlines, NUL,
    braces and Python code, and names that are str subclasses, give the
    walker's value or error, class and text in EqNum, Leq, Memb, a grid
    read, a binder's bound and a guarded scanned sweep, each name bound and
    unbound; no generated source holds anything of a name but its repr."""
    seen = Counter()
    for a, b, x in zip(HOSTILE_NUMS, HOSTILE_NUMS[1:] + HOSTILE_NUMS[:1],
                       itertools.cycle(HOSTILE_STRS)):
        na, nb = F.NVar(a), F.NVar(b)
        formulas = [
            F.EqNum(F.Plus(na, F.One()), F.Times(nb, F.const_term(EvilInt(3)))),
            F.Leq(na, F.Len(x)),
            F.Memb(F.Plus(na, nb), x),
            F.EqNum(F.SeqAt(na, F.Plus(F.Times(nb, TWO), F.One())), F.One()),
            F.ExN("v", nb, F.EqNum(F.NVar("v"), F.Plus(na, F.One()))),
            F.AlN(a, nb, F.Imp(F.Leq(F.Plus(na, F.One()), F.Len(x)), F.Memb(na, x))),
        ]
        for f, bound in itertools.product(formulas, itertools.product((False, True), repeat=3)):
            nums = {n: v for n, v, on in ((a, 5, bound[0]), (b, 2, bound[1])) if on}
            env = Assignment(nums, {x: "0111111111"} if bound[2] else {})
            agrees_with_the_walker(f, S8, env)
            got = said(lambda: eval_formula(f, S8, env))
            seen[got if type(got) is bool else got[0].__name__] += 1
        for f in formulas:
            compiler = evaluate._kept[id(f)][1]  # its last run bound every name
            for fn in oracles.generated_functions(compiler.formulas.values()):
                generated_sources_are_clean(fn, {a, b, x, "v"})
    assert set(seen) == {True, False, "UnboundVariableError", "SortMismatchError", "TypeError"}


def test_wide_constants_are_operands_not_literals():
    """A constant too wide for a literal (int's str conversion refuses one
    past 4,300 digits) is an operand: a sum over it, a product, a Memb
    index and a factor of a grid read's index agree with the walker, and
    every generated source stays short."""
    c = F.const_term(2**20000 + 1)
    x, seq = F.NVar("x"), F.NVar("s")
    formulas = [F.EqNum(F.Plus(x, c), F.Plus(c, x)), F.Leq(F.Times(x, c), c),
                F.Memb(F.Plus(x, c), "X"),
                F.EqNum(F.SeqAt(seq, F.Plus(F.Times(x, c), F.One())), F.Zero())]
    for env in (Assignment({"x": 3, "s": 1 << 40}, {"X": "01"}), Assignment({"x": 0, "s": 1}),
                Assignment()):
        for f in formulas:
            agrees_with_the_walker(f, S8, env)
    assert eval_formula(formulas[0], S8, Assignment({"x": 3})) is True
    compiler = evaluate._Compiler(F.land(formulas))
    assert grid_reads(compiler.formula(formulas[3]), compiler) == [True]
    for f in formulas:
        assert one_function(compiler.formula(f))
        assert len(oracles.generated_source(compiler.formula(f))) < 300, f


def test_a_sum_an_atom_computes_twice_is_computed_once():
    """A sum an atom computes twice (reflect's side width nf + nf*ns*6, as
    equal trees of distinct nodes) binds a temporary where it is first
    computed, and the second reads it; each atom of a clause computes its
    own, so a sum computed once in each of two atoms takes no temporary,
    and none is read in an atom that did not bind it.  Values and errors
    are the walker's."""
    nf, ns = F.NVar("nf"), F.NVar("ns")

    def side():
        return F.Plus(nf, F.Times(nf, F.Times(ns, F.const_term(6))))
    atom = F.Memb(F.Plus(F.Times(TWO, side()), side()), "X")
    clause = F.And(F.Leq(side(), X), F.Or(F.Not(atom), F.EqNum(side(), side())))
    for f, temps in ((atom, ["_t0"]), (clause, ["_t0", "_t0"])):
        tree = ast.parse(oracles.generated_source(evaluate._Compiler(f).root))
        bound = [g.target.id for g in ast.walk(tree) if type(g) is ast.NamedExpr
                 and g.target.id.startswith("_t")]
        read = Counter(g.id for g in ast.walk(tree) if type(g) is ast.Name
                       and type(g.ctx) is ast.Load and g.id.startswith("_t"))
        assert sorted(bound) == temps and read == Counter(temps), ast.unparse(tree)
        for nums in ({"nf": 2, "ns": 1, "x": 40}, {"nf": 0, "ns": 3, "x": 0}, {"ns": 1, "x": 9},
                     {"nf": 1, "x": 9}):
            for x in ("", "0" * 30 + "1" * 30):
                agrees_with_the_walker(f, S8, Assignment(nums, {"X": x}))


def test_deep_and_shared_terms_stay_within_what_python_parses():
    """A term 300 sums deep either way, and one whose tree doubles a shared
    sum 16 times (65,536 leaves), agree with the walker; the parts past
    _DEPTH_CAP or _TEXT_CAP become calls, so no generated source nests
    deeper or grows longer than a few caps."""
    x = F.NVar("x")
    left = right = shared = x
    for _ in range(300):
        left, right = F.Plus(left, F.One()), F.Plus(F.One(), right)
    for _ in range(16):
        shared = F.Plus(shared, shared)
    formulas = [F.EqNum(left, right), F.Leq(shared, left), F.Memb(F.Plus(shared, x), "X"),
                F.ExN("v", F.Times(left, F.Zero()), F.Leq(F.NVar("v"), shared))]
    for env in (Assignment({"x": 1}, {"X": "1" * 70}), Assignment({"x": 0})):
        for f in formulas:
            agrees_with_the_walker(f, FiniteSlice(400, 8), env)
    compiler = evaluate._Compiler(F.land(formulas))
    sources = list(map(oracles.generated_source,
                       oracles.generated_functions(map(compiler.formula, formulas))))
    assert len(sources) > 8
    assert all(len(s) < 3 * evaluate._TEXT_CAP for s in sources)
    nesting = [max(itertools.accumulate({"(": 1, ")": -1}.get(c, 0) for c in s)) for s in sources]
    assert max(nesting) < 3 * evaluate._DEPTH_CAP


def test_generated_sources_parse_as_python_3_10():
    """pyproject.toml allows Python 3.10: after evaluating the corpus
    formulas of reflect, acc and nepo, every source in the code table
    parses under 3.10's grammar."""
    pi = dict(proofs.corpus_proofs())["corpus03.pk"]
    p, x = encode_proof(pi), encode_formula(proofs.proof_target(pi))
    n = max(len(p), len(x))
    assert eval_formula(compile_proof_check("frege", slot_cap=19), FiniteSlice(n, n),
                        Assignment(strs={"P": p, "X": x})) in (True, False)
    tm, poly = corpus_machine("scan1"), PolyBound((2, 1))
    layout = acc.acc_layout(tm, poly, 3)
    w = tableau_to_witness(machine.run(tm, "101", layout.steps, layout.width))
    assert acc.check_witness(tm, poly, "101", w) == accepts(tm, "101", poly)
    bounds = nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=1, m=4)
    assert nepo.eval_acceptance(nepo.acceptance_artifact(tm, bounds), "1") in (True, False)
    assert len(evaluate._generated) > 50
    for key in list(evaluate._generated):
        ast.parse(evaluate._source(key), feature_version=(3, 10))


def test_seq_len_reads_the_header_without_decoding(monkeypatch):
    decoded = []
    seq_fields = codec.seq_fields
    monkeypatch.setattr(codec, "seq_fields", lambda code: decoded.append(code) or seq_fields(code))
    rng, codes = random.Random(17), set()
    while len(codes) < 1000:
        codes.add(rng.getrandbits(rng.randrange(1, 400)))
    atom = F.EqNum(F.SeqLen(SEQ), TWO)
    for code in codes:
        env = Assignment({"s": code})
        assert eval_formula(F.EqNum(F.SeqLen(SEQ), F.const_term(seq_len_total(code))), S8, env)
        assert eval_formula(atom, S8, env) == (seq_len_total(code) == 2)
    assert decoded == []


# --- lengths: a Len keeps its last value ---


LX, LY = F.Len("X"), F.Len("Y")
LENGTH_STRS = ["", "01", "0110", "1011", "0000"]


def length_envs(names=("X", "Y"), strs=(None, *LENGTH_STRS)):
    """Assignments binding x, and each of names to one of strs or, for
    None, to nothing."""
    for values in itertools.product(strs, repeat=len(names)):
        for x in (0, 2, 4):
            yield Assignment({"x": x}, {n: v for n, v in zip(names, values) if v is not None})


def counting_set_length(monkeypatch) -> list:
    """Wrap evaluate's codec.set_length; the list gets each string it measures."""
    measured, set_length = [], codec.set_length
    monkeypatch.setattr(codec, "set_length", lambda s: measured.append(s) or set_length(s))
    return measured


def test_a_length_term_shared_in_and_out_of_a_binder_agrees_with_the_walker():
    """One Len node, and one sum over it, read outside a string binder over
    their own string, inside it at every value, and outside it again."""
    poly = F.Plus(F.Times(LY, LY), F.One())
    for q, bound in itertools.product((F.ExS, F.AlS), (F.One(), TWO, LX)):
        inner = F.Or(F.Leq(poly, X), F.EqNum(LY, TWO))
        f = F.And(F.Leq(LY, X), F.And(q("Y", bound, inner), F.Leq(X, poly)))
        for env in length_envs():
            for s in DIFF_SLICES:
                agrees_with_the_walker(f, s, env)


def test_a_sum_of_lengths_reports_the_first_unbound_string():
    """(term, the names bound, the name reported unbound)"""
    cases = [(F.Plus(LX, LY), ("X",), "Y"), (F.Plus(LX, LY), ("Y",), "X"),
             (F.Plus(LX, LY), (), "X"), (F.Times(F.Plus(LY, TWO), F.Plus(LX, LY)), ("X",), "Y")]
    for term, bound, missing in cases:
        f = F.Leq(term, X)
        for env in length_envs(bound, LENGTH_STRS):
            agrees_with_the_walker(f, S8, env)
            assert said(lambda: eval_formula(f, S8, env)) \
                == (UnboundVariableError, f"string variable {missing} is unbound")
        for env in length_envs():
            agrees_with_the_walker(f, S8, env)


def test_an_ill_sorted_length_raises_only_where_it_is_reached():
    bad = F.Len("w")
    f = F.Or(F.Leq(X, TWO), F.EqNum(F.Plus(bad, LX), F.Times(LX, TWO)))
    seen = set()
    for env in length_envs(("X",)):
        agrees_with_the_walker(f, S8, env)
        seen.add(said(lambda: eval_formula(f, S8, env)))
    assert seen == {True, (SortMismatchError, "w is not a string variable")}


def test_a_kept_length_term_computes_once_per_string_object(monkeypatch):
    """A kept compile's Len measures X again only when X is bound to
    another object: a different string, or an equal but distinct one, however
    often the term reads it."""
    measured = counting_set_length(monkeypatch)
    y = F.NVar("y")
    width = F.Plus(F.Times(LX, F.Plus(LX, TWO)), F.One())  # |X|^2 + 2|X| + 1
    f = F.AlN("y", F.const_term(6), F.Imp(F.Leq(y, width), F.Leq(y, X)))
    a, b, c = "".join(["01", "1"]), "".join(["1", "0"]), "".join(["1", "0"])
    assert b == c and b is not c
    for x, want, n in ((a, False, 1), (b, True, 1), (c, True, 1), (c, True, 0)):
        env = Assignment({"x": 5}, {"X": x})
        measured.clear()
        assert eval_formula(f, S8, env) is want
        assert evaluate._kept[id(f)][0] is f
        assert len(measured) == n and all(s is x for s in measured), (x, measured)
        agrees_with_the_walker(f, S8, env)


def test_a_witness_check_measures_its_input_once(monkeypatch):
    """acc's matrix reads every bit of W at t * p(|X|) * fields + ...;
    p(|X|) reads one Len, which keeps its value, so one check on a fresh
    input measures X once (466 times per check, on average over a seed-1
    witness pass, before Len kept its value), and a second check on the same
    string object not at all."""
    tm, p = corpus_machine("scan1"), PolyBound((2, 1))
    measured = counting_set_length(monkeypatch)
    for bits in ("1011", "0101", "111", "11", "1101"):
        x = "".join(bits)  # a fresh object
        layout = acc.acc_layout(tm, p, len(x))
        w = tableau_to_witness(machine.run(tm, x, layout.steps, layout.width))
        flipped = w[:-1] + ("1" if w[-1] == "0" else "0")
        measured.clear()
        assert acc.check_witness(tm, p, x, w) == accepts(tm, x, p)
        assert measured == [x] and measured[0] is x
        assert acc.check_witness(tm, p, x, flipped) is False
        assert measured == [x]


# --- guarded sweeps: a forall_lt binder sweeps only below its limit ---


def compiled_kind(f: F.Formula) -> str:
    """The closure factory a formula node compiles through, such as _quant,
    or "guarded" for a _quant closure given a limit to sweep under."""
    run = evaluate._Compiler(f).root
    cells = dict(zip(run.__code__.co_freevars, run.__closure__ or ()))
    if "limit" in cells and cells["limit"].cell_contents is not None:
        return "guarded"
    return run.__qualname__.split(".")[0]


GATED = [Bogus(), F.Leq(F.NVar("u"), F.One()), F.Memb(F.One(), "w")]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["v", "x", "V"]),
       st.sampled_from(["drawn", "0", "past", "unbound", "ill-sorted",
                        "negative code", "v free"]),
       st.sampled_from(["drawn", "in range", "past num_bound", "negative"]), st.booleans(),
       st.sampled_from(["B", "C", None]), st.integers(1, 12))
def test_guarded_sweeps_match_the_walker(seed, v, limit, sweep, chain, gated, num_bound):
    """AlN(v, S, Imp(lt(v, L), B)) and AlN(v, S, Imp(And(lt(v, L), C), B))
    give the walker's value or error, class and text: L may be 0, past
    S + 1, unbound, ill-sorted or a read of a negative code; S may pass
    num_bound or be negative; B or C may be false, or reach a node that
    raises, only for v > k.  The guarded sweep serves exactly the binders
    whose v is a number name not free in L; the others keep _quant."""
    g = random.Random(seed)
    nvars, svars = ["x", "y", v], ["X", "Y"]

    def part():
        f = gen_formula(g, g.randrange(2), [0], nvars, svars, consts=6)
        return poison(g, f) if g.random() < 0.25 else f

    lim = {"drawn": lambda: gen_term(g, 2, nvars, svars, 6),
           "0": F.Zero, "past": lambda: F.const_term(num_bound + 3),
           "unbound": lambda: F.NVar("u"), "ill-sorted": lambda: F.NVar("Z"),
           "negative code": lambda: F.SeqAt(F.NVar("n"), F.One()),
           "v free": lambda: F.Plus(gen_term(g, 1, nvars, svars, 6), F.NVar(v))}[limit]()
    bound = {"drawn": lambda: gen_term(g, 2, ["x", "y"], svars, 6),
             "in range": lambda: F.const_term(g.randrange(num_bound + 1)),
             "past num_bound": lambda: F.const_term(num_bound + 1 + g.randrange(3)),
             "negative": lambda: F.NVar("m")}[sweep]()
    b, c = part(), part()
    if gated:
        k = F.const_term(g.randrange(4))
        low = F.Leq(F.NVar(v), k)  # false for v > k; under the Or, v > k raises
        hit = g.choice([low, F.Or(low, g.choice(GATED))])
        b, c = (hit, c) if gated == "B" or not chain else (b, hit)
    guard = F.lt(F.NVar(v), lim)
    f = F.AlN(v, bound, F.Imp(F.And(guard, c) if chain else guard, b))
    fast = v != "V" and v not in F.free_vars(F.Leq(lim, lim))[0]
    assert compiled_kind(f) == ("guarded" if fast else "_quant"), f
    assert limit != "v free" or not fast
    s = FiniteSlice(num_bound, 3)
    for env in diff_envs(random.Random(seed)):
        env.nums.update(n=-5, m=-2)  # a negative code, and an empty sweep
        if g.random() < 0.5:
            env.nums[v] = 7  # the binder restores an outer value
        agrees_with_the_walker(f, s, env)


OFFSETS = [None, F.Zero(), F.One(), F.const_term(2), F.const_term(5)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3),
       st.sampled_from(["drawn", "0", "past", "unbound", "ill-sorted", "negative code"]),
       st.sampled_from(["drawn", "in range", "past num_bound", "negative"]),
       st.sampled_from([None, "other L", "not an Imp", "v free"]), st.integers(1, 12))
def test_guarded_chains_match_the_walker(seed, n, limit, sweep, spoil, num_bound):
    """AlN(v, S, B) with B a right-nested And chain of n Imps, each guarded
    by lt(v + k, L) or And(lt(v + k, L), C) for k absent, 0, 1 or a Const,
    gives the walker's value or error, class and text: L may be 0, past
    S + 1, unbound, ill-sorted or a read of a negative code; S may pass
    num_bound or be negative; a body or C may be false, or reach a node
    that raises, only for v > k.  One part with another L, a part that is no
    Imp, or v free in L keeps the binder on _quant."""
    g = random.Random(seed)
    nvars, svars = ["x", "y", "v"], ["X", "Y"]

    def formula():
        f = gen_formula(g, g.randrange(2), [0], nvars, svars, consts=6)
        if g.random() < 0.3:
            low = F.Leq(F.NVar("v"), F.const_term(g.randrange(4)))
            f = g.choice([low, F.Or(low, g.choice(GATED))])  # false, or raises, for v > k
        return poison(g, f) if g.random() < 0.2 else f

    lim = {"drawn": lambda: gen_term(g, 2, ["x", "y"], svars, 6),
           "0": F.Zero, "past": lambda: F.const_term(num_bound + 3),
           "unbound": lambda: F.NVar("u"), "ill-sorted": lambda: F.NVar("Z"),
           "negative code": lambda: F.SeqAt(F.NVar("n"), F.One())}[limit]()
    bound = {"drawn": lambda: gen_term(g, 2, ["x", "y"], svars, 6),
             "in range": lambda: F.const_term(g.randrange(num_bound + 1)),
             "past num_bound": lambda: F.const_term(num_bound + 1 + g.randrange(3)),
             "negative": lambda: F.NVar("m")}[sweep]()
    if spoil == "v free":
        lim = F.Plus(lim, F.NVar("v"))
    n = max(n, 2) if spoil == "other L" else n
    spoilt = g.randrange(n)
    parts = []
    for i in range(n):
        k = g.choice(OFFSETS)
        t = F.NVar("v") if k is None else F.Plus(F.NVar("v"), k)
        guard = F.lt(t, F.Plus(lim, F.One()) if spoil == "other L" and i == spoilt else lim)
        if g.random() < 0.5:
            guard = F.And(guard, formula())
        part = F.Imp(guard, formula())
        parts.append(F.Not(part) if spoil == "not an Imp" and i == spoilt else part)
    f = F.AlN("v", bound, F.land(parts))
    assert compiled_kind(f) == ("_quant" if spoil else "guarded"), f
    s = FiniteSlice(num_bound, 3)
    for env in diff_envs(random.Random(seed)):
        env.nums.update(n=-5, m=-2)  # a negative code, and an empty sweep
        if g.random() < 0.5:
            env.nums["v"] = 7  # the binder restores an outer value
        agrees_with_the_walker(f, s, env)


def distinct_binders(f: F.Formula) -> list[F.Formula]:
    """The quantifier nodes of f, each node object once."""
    seen, stack = {}, [f]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen[id(g)] = g
        if type(g) in (F.And, F.Or, F.Imp):
            stack += [g.left, g.right]
        elif type(g) is F.Not or type(g) in F.QUANTIFIERS:
            stack.append(g.body)
    return [g for g in seen.values() if type(g) in F.QUANTIFIERS]


def forall_lt_shaped(f: F.Formula) -> str | None:
    """"plain" when f is forall_lt's AlN(v, S, Imp(lt(v, L), B)) with v not
    free in L, "chain" when lt(v, L) is instead the first part of an And
    guard, "extended" when the body is a right-nested And chain of such Imps
    or a guard reads lt(v + k, L) for a constant k, all with one L, else
    None; read by node equality with formulas.lt."""
    if type(f) is not F.AlN:
        return None
    parts, g = [], f.body
    while type(g) is F.And:
        parts, g = parts + [g.left], g.right
    limits, v = set(), F.NVar(f.var)
    for imp in parts + [g]:
        if type(imp) is not F.Imp:
            return None
        guard = imp.left
        first = guard.left if type(guard) is F.And else guard
        if type(first) is not F.Leq or type(first.left) is not F.Plus:
            return None
        t = first.left.left
        if t != v and not (type(t) is F.Plus and t.left == v
                           and type(t.right) is F.Const):
            return None
        if first != F.lt(t, first.right):
            return None
        limits.add(first.right)
        shape = "extended" if t != v else "chain" if type(guard) is F.And else "plain"
    if len(limits) != 1 or f.var in F.free_vars(F.Leq(*limits, *limits))[0]:
        return None
    return "extended" if parts else shape


# --- bit runs, first-zero and set-bit pins: a scan finds where a sweep can stop ---


def compiled_scan(f: F.Formula):
    """The narrowing (evaluate._Compiler.scan) of the closure f compiles to,
    or None."""
    run = evaluate._Compiler(f).root
    cells = dict(zip(run.__code__.co_freevars, run.__closure__ or ()))
    return cells["scan"].cell_contents if "scan" in cells else None


SCAN_KINDS = {(False, False, False): "ones", (False, True, False): "zeros",
              (True, False, False): "first zero", (False, True, True): "set bit"}


def scan_kind(f: F.Formula) -> str | None:
    """"ones" or "zeros" for a binder the compiler scans as a run of 1 bits
    or of 0 bits, "first zero" or "set bit" for an ExN it scans as a
    first-zero or a set-bit pin, else None: read from the scan's shape, whether
    it keeps the first value only, the bit it looks for and whether it has
    an L."""
    scan = compiled_scan(f)
    if scan is None:
        return None
    cells = {name: c.cell_contents for name, c in zip(scan.__code__.co_freevars, scan.__closure__)}
    return SCAN_KINDS[cells["first"], cells["one"], cells["limit"] is not None]


def spine(t: F.NumTerm) -> list[F.NumTerm]:
    """The summands of t's Plus spine, left to right."""
    return spine(t.left) + spine(t.right) if type(t) is F.Plus else [t]


def others(t: F.NumTerm, v: str) -> list[F.NumTerm] | None:
    """The summands of t other than NVar(v), when v is one summand of t and
    free in no other, else None."""
    rest = [s for s in spine(t) if s != F.NVar(v)]
    if len(rest) != len(spine(t)) - 1 or v in F.free_vars(F.land([F.EqNum(s, s) for s in rest]))[0]:
        return None
    return rest


def bit_run_shaped(f: F.Formula) -> str | None:
    """"ones" or "zeros" when f is forall_lt(v, S, L, B) with B (in t X) or
    (not (in t X)), X a string name and t a sum with v one summand (others),
    else None; read by node equality with formulas.forall_lt."""
    if forall_lt_shaped(f) != "plain" or type(f.body.left) is F.And:
        return None
    b = f.body.right
    bit = b.body if type(b) is F.Not else b
    if (type(bit) is not F.Memb or type(bit.svar) is not str or not F.is_str_name(bit.svar)
            or others(bit.index, f.var) is None):
        return None
    return "ones" if bit is b else "zeros"


def first_zero_shaped(f: F.Formula) -> str | None:
    """"first zero" when f is ExN(v, S, And chain) whose parts are Leq(c, v)
    for a constant c, Not(Memb(t, X)) with t a sum with v one summand, Plus/Times
    comparisons over v, Len(X), constants and t's names, and then the bit
    run forall_lt(j, S, v, Memb(t', X)), t' t with j for v, v not free in S;
    else None."""
    if type(f) is not F.ExN:
        return None
    parts, g = [], f.body
    while type(g) is F.And:
        parts, g = parts + [g.left], g.right
    parts.append(g)
    v = F.NVar(f.var)
    runs = [i for i, p in enumerate(parts) if i >= 2 and type(p) is F.AlN]
    if (not runs or type(parts[0]) is not F.Leq or parts[0].right != v
            or type(parts[0].left) is not F.Const
            or type(parts[1]) is not F.Not or type(parts[1].body) is not F.Memb):
        return None
    t, x, run = parts[1].body.index, parts[1].body.svar, parts[runs[0]]
    nums, strs = F.free_vars(F.EqNum(t, t))
    names = {F.NVar(n) for n in nums if F.is_num_name(n)} | {
        F.Len(s) for s in strs | {x} if type(s) is str and F.is_str_name(s)}
    for p in parts[2:runs[0]]:
        if type(p) not in (F.EqNum, F.Leq):
            return None
        stack = [p.left, p.right]
        while stack:
            s = stack.pop()
            if type(s) in (F.Plus, F.Times):
                stack += [s.left, s.right]
            elif type(s) is not F.Const and s not in names:
                return None
    u = others(t, f.var)
    if (bit_run_shaped(run) != "ones" or run.bound != f.bound or run.body.left.right != v
            or run.body.right.svar != x or f.var in F.free_vars(F.EqNum(f.bound, f.bound))[0]
            or u is None or u != others(run.body.right.index, run.var)):
        return None
    return "first zero"


def set_bit_shaped(f: F.Formula) -> str | None:
    """"set bit" when f is ExN(v, S, And chain), v a number name, whose
    first part is Memb(t, X), X a string name and t a sum with v one summand
    (others), and whose second is lt(v, L) with v not free in L; else None;
    read by node equality with formulas.lt."""
    if (type(f) is not F.ExN or type(f.body) is not F.And or type(f.var) is not str
            or not F.is_num_name(f.var)):
        return None
    bit, rest = f.body.left, f.body.right
    second = rest.left if type(rest) is F.And else rest
    if (type(bit) is not F.Memb or type(bit.svar) is not str or not F.is_str_name(bit.svar)
            or others(bit.index, f.var) is None or type(second) is not F.Leq
            or second != F.lt(F.NVar(f.var), second.right)
            or f.var in F.free_vars(F.EqNum(second.right, second.right))[0]):
        return None
    return "set bit"


RUN_OFFSETS = ["drawn", "none", "length", "negative", "past the text", "unbound",
               "ill-sorted", "negative code"]


def run_offset(g: random.Random, kind: str) -> F.NumTerm | None:
    """u for a bit at v + u: a drawn term, none, the length of X, -2 or -5,
    a position past every text, an unbound or ill-sorted name, or a
    read of a negative code."""
    return {"drawn": lambda: gen_term(g, 2, ["x", "y"], ["X", "Y"], 6), "none": lambda: None,
            "length": lambda: F.Len("X"), "negative": lambda: F.NVar(g.choice("mn")),
            "past the text": lambda: F.const_term(12 + g.randrange(3)),
            "unbound": lambda: F.NVar("u"), "ill-sorted": lambda: F.NVar("Z"),
            "negative code": lambda: F.SeqAt(F.NVar("n"), F.One())}[kind]()


def offset_by(arrangement: int, v: F.NumTerm, u: F.NumTerm | None) -> F.NumTerm:
    """v + u as a Plus spine with v at one of three places."""
    if u is None:
        return v
    return [F.Plus(v, u), F.Plus(u, v), F.Plus(F.One(), F.Plus(u, v))][arrangement]


def run_envs(rng: random.Random, ones: bool) -> list[Assignment]:
    """Assignments over x and y, negative ones among them, and X and Y up to
    10 bits long, leaning to 1 bits when ones; some leave a name unbound."""
    out = []
    for _ in range(6):
        nums = {v: rng.randrange(-3, 9) for v in ("x", "y") if rng.random() < 0.9}
        lean = 0.85 if ones else 0.15
        strs = {s: "".join("1" if rng.random() < lean else "0" for _ in range(rng.randrange(11)))
                for s in ("X", "Y") if rng.random() < 0.9}
        out.append(Assignment({**nums, "n": -5, "m": -2}, strs))
    return out


SWEEPS = ["drawn", "in range", "past num_bound", "negative"]


def sweep_bound(g: random.Random, kind: str, num_bound: int) -> F.NumTerm:
    return {"drawn": lambda: gen_term(g, 2, ["x", "y"], ["X", "Y"], 6),
            "in range": lambda: F.const_term(g.randrange(num_bound + 1)),
            "past num_bound": lambda: F.const_term(num_bound + 1 + g.randrange(3)),
            "negative": lambda: F.NVar("m")}[kind]()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["X", "unbound", "ill-sorted"]),
       st.sampled_from(["drawn", "0", "past", "unbound", "v free"]), st.sampled_from(SWEEPS),
       st.sampled_from([None] * 3 + ["2v", "v in u", "extra conjunct", "v + 1"]),
       st.integers(1, 12))
def test_bit_runs_match_the_walker(seed, svar, limit, sweep, spoil, num_bound):
    """AlN(v, S, Imp(lt(v, L), B)), B Memb(v + u, X) or its Not, gives the
    walker's value or error, class and text, for u each of RUN_OFFSETS: X
    may be unbound or ill-sorted; L may be 0, past S + 1 or unbound; S may
    pass num_bound or be negative.  The binder scans exactly when it is a
    guarded sweep with X a string name; a coefficient 2 on v, v free in u, a
    guard with a second conjunct or lt(v + 1, L) keeps the guarded sweep,
    and v free in L keeps _quant."""
    g = random.Random(seed)
    v = F.NVar("v")
    x = {"X": "X", "unbound": "W", "ill-sorted": "x"}[svar]
    lim = {"drawn": lambda: gen_term(g, 2, ["x", "y"], ["X", "Y"], 6), "0": F.Zero,
           "past": lambda: F.const_term(num_bound + 3), "unbound": lambda: F.NVar("w"),
           "v free": lambda: F.Plus(F.NVar("x"), v)}[limit]()
    guard = F.lt(F.Plus(v, F.One()) if spoil == "v + 1" else v, lim)
    if spoil == "extra conjunct":
        guard = F.And(guard, gen_formula(g, 1, [0], ["x", "y", "v"], ["X", "Y"], consts=6))
    bound, s = sweep_bound(g, sweep, num_bound), FiniteSlice(num_bound, 3)
    guarded = limit != "v free"
    for ones in (True, False):
        for offset in RUN_OFFSETS:
            u = run_offset(g, offset)
            if spoil == "v in u":
                u = F.Times(v, F.One()) if u is None else F.Plus(u, F.Times(v, F.One()))
            t = offset_by(g.randrange(3), F.Times(F.const_term(2), v) if spoil == "2v" else v, u)
            bit = F.Memb(t, x) if ones else F.Not(F.Memb(t, x))
            f = F.AlN("v", bound, F.Imp(guard, bit))
            want = None if spoil or svar == "ill-sorted" or not guarded else (
                "ones" if ones else "zeros")
            assert (compiled_kind(f), scan_kind(f)) == ("guarded" if guarded else "_quant",
                                                        want), f
            assert bit_run_shaped(f) == want, f
            for env in run_envs(g, ones):
                if g.random() < 0.5:
                    env.nums["v"] = 7  # the binder restores an outer value
                agrees_with_the_walker(f, s, env)


def arith(g: random.Random, d: int, leaves: list[F.NumTerm]) -> F.NumTerm:
    """A term of depth at most d over leaves and small constants, built by
    Plus and Times."""
    if d <= 0 or g.random() < 0.4:
        return g.choice(leaves + [F.Zero(), F.One(), F.const_term(g.randrange(2, 6))])
    return g.choice([F.Plus, F.Times])(arith(g, d - 1, leaves), arith(g, d - 1, leaves))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["X", "unbound", "ill-sorted"]),
       st.sampled_from(SWEEPS), st.integers(0, 3), st.integers(0, 2),
       st.sampled_from([None] * 4 + ["2v", "v in u", "other u", "other bound", "v in S",
                                    "SeqAt part", "extra conjunct"]),
       st.booleans(), st.integers(1, 12))
def test_first_zero_pins_match_the_walker(seed, svar, sweep, low, middle, spoil, role,
                                          num_bound):
    """ExN(v, S, Leq(c, v) & Not(Memb(v + u, X)) & middle & forall_lt(j, S, v,
    Memb(j + u, X)) & rest) gives the walker's value or error, class and
    text, with or without a role on v, for u each of RUN_OFFSETS: X may be
    unbound or ill-sorted; S may pass num_bound, be negative or fall below
    c; the middle comparisons over v, Len(X), u's names and constants, and
    rest, may be false, and rest may raise.  The binder scans exactly when X
    is a string name and nothing below spoils it: a coefficient 2 on v, v
    free in u, another u or another bound in the run, v free in S, a middle
    part reading a SeqAt of a negative code, or a run guard with a second
    conjunct keep _quant."""
    g = random.Random(seed)
    v, j = F.NVar("v"), F.NVar("j")
    x = {"X": "X", "unbound": "W", "ill-sorted": "x"}[svar]
    scaled = (lambda w: F.Times(F.const_term(2), w)) if spoil == "2v" else (lambda w: w)
    bound = sweep_bound(g, sweep, num_bound)
    if spoil == "v in S":
        bound = F.Plus(bound, F.Times(v, F.Zero()))
    guard = F.lt(j, v)
    if spoil == "extra conjunct":
        guard = F.And(guard, gen_formula(g, 1, [0], ["x", "y", "j"], ["X", "Y"], consts=6))
    want = "first zero" if not spoil and svar != "ill-sorted" else None
    roles = {"v": lambda e: e.nums["y"] % 5} if role else None
    s = FiniteSlice(num_bound, 3)
    for offset in RUN_OFFSETS:
        u = uj = run_offset(g, offset)
        if spoil == "v in u":
            u = uj = F.Times(v, F.One()) if u is None else F.Plus(u, F.Times(v, F.One()))
        if spoil == "other u":
            uj = F.One() if u is None else F.Plus(u, F.One())
        arrangement = g.randrange(3)
        t, tj = offset_by(arrangement, scaled(v), u), offset_by(arrangement, scaled(j), uj)
        nums, strs = F.free_vars(F.EqNum(u, u)) if u is not None else (set(), set())
        leaves = [v] + [F.NVar(n) for n in sorted(nums) if F.is_num_name(n)] + [
            F.Len(s) for s in sorted(strs | {x}) if F.is_str_name(s)]
        parts = [g.choice([F.EqNum, F.Leq])(arith(g, 2, leaves), arith(g, 2, leaves))
                 for _ in range(middle)]
        if spoil == "SeqAt part":
            parts.insert(g.randrange(middle + 1), F.EqNum(F.SeqAt(F.NVar("n"), v), F.Zero()))
        run = F.AlN("j", F.Plus(bound, F.One()) if spoil == "other bound" else bound,
                    F.Imp(guard, F.Memb(tj, x)))
        rest = gen_formula(g, g.randrange(3), [0], ["x", "y", "v"], ["X", "Y"], consts=6)
        rest = poison(g, rest) if g.random() < 0.25 else rest
        f = F.ExN("v", bound, F.land([F.Leq(F.const_term(low), v), F.Not(F.Memb(t, x)),
                                      *parts, run, rest]))
        assert (compiled_kind(f), scan_kind(f), first_zero_shaped(f)) == ("_quant", want, want), f
        for env in run_envs(g, True):
            if g.random() < 0.5:
                env.nums["v"] = 7  # the binder restores an outer value
            agrees_with_the_walker(f, s, env, roles)


def hot_envs(rng: random.Random) -> list[Assignment]:
    """Assignments over x and y, negative ones among them, and X and Y up to
    10 bits long with no, one, two or any number of 1 bits; some leave a
    name unbound."""
    out = []
    for ones in (0, 1, 2, None, None):
        nums = {v: rng.randrange(-3, 9) for v in ("x", "y") if rng.random() < 0.9}
        strs = {}
        for name in ("X", "Y"):
            n = rng.randrange(11)
            at = rng.sample(range(n), min(n, rng.randrange(n + 1) if ones is None else ones))
            if rng.random() < 0.9:
                strs[name] = "".join("1" if i in at else "0" for i in range(n))
        out.append(Assignment({**nums, "n": -5, "m": -2}, strs))
    return out


def scan_values(f: F.Formula, s: FiniteSlice, env: Assignment) -> tuple[list[int], list[int]]:
    """The values the compiled scan of f leaves its sweep under env, the
    first alone for a bit run, whose sweep stops there, and the values the
    walker says it must leave, S being f's bound as the walker reads it: for
    a bit run, the first v below S + 1 and L at which its literal fails, or
    none; for a set-bit pin, each v <= S at which its Memb and lt hold; for
    a first-zero pin, v*, the first v whose bit is not 1, when c <= v* <= S,
    else none, but for v* < c the first such v from c, at which the walker
    finds the body false."""
    kind, bound = scan_kind(f), walk_term(f.bound, env)
    values = range(bound + 1)

    def holds(g: F.Formula, v: int) -> bool:
        return walk_formula(g, s, Assignment({**env.nums, f.var: v}, env.strs))

    if kind in ("ones", "zeros"):
        values = range(min(bound + 1, walk_term(f.body.left.right, env)))
        want = [v for v in values if not holds(f.body.right, v)][:1]
    elif kind == "set bit":
        lt = f.body.right.left if type(f.body.right) is F.And else f.body.right
        want = [v for v in values if holds(F.And(f.body.left, lt), v)]
    else:
        c, zero = walk_term(f.body.left.left, env), f.body.right.left
        want = [v for v in values[c:] if holds(zero, v)][:1]
        if want:
            vstar = next(v for v in itertools.count() if holds(zero, v))
            assert want == [vstar] or vstar < c and not holds(f.body, want[0]), (f, env)
    got = compiled_scan(f)(SimpleNamespace(nums=dict(env.nums), strs=env.strs), values)
    return list(itertools.islice(got, 1 if kind in ("ones", "zeros") else None)), want


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["X", "unbound", "ill-sorted"]),
       st.sampled_from(["drawn", "0", "small", "past", "unbound", "negative", "v free"]),
       st.sampled_from(SWEEPS),
       st.sampled_from([None] * 4 + ["Memb second", "lt third", "2v", "v in u", "v + 1"]),
       st.booleans(), st.booleans(), st.integers(1, 12))
def test_set_bit_pins_match_the_walker(seed, svar, limit, sweep, spoil, hot, role, num_bound):
    """ExN(v, S, Memb(v + u, X) & lt(v, L) & rest) gives the walker's value
    or error, class and text, with or without a role on v that may read an
    unbound y, for u each of RUN_OFFSETS, on fields with no, one, two or
    more set bits: X may be unbound or ill-sorted; L may be 0, small enough
    that the first set bit is at or past it, past S + 1, unbound or
    negative; S may pass num_bound or be negative; rest may be false or
    raise, and may open with _one_hot's others, false at two set bits.
    Where the walker gives a value, the scan leaves exactly the v <= S at
    which the Memb and the lt hold.  The binder scans exactly when X is a
    string name and nothing spoils it: the Memb second, the lt third, a
    coefficient 2 on v, v free in u, v free in L, or lt(v + 1, L) keep
    _quant."""
    g = random.Random(seed)
    v, j = F.NVar("v"), F.NVar("j")
    x = {"X": "X", "unbound": "W", "ill-sorted": "x"}[svar]
    lim = {"drawn": lambda: gen_term(g, 2, ["x", "y"], ["X", "Y"], 6), "0": F.Zero,
           "small": lambda: F.const_term(g.randrange(1, 3)),
           "past": lambda: F.const_term(num_bound + 3), "unbound": lambda: F.NVar("w"),
           "negative": lambda: F.NVar("m"), "v free": lambda: F.Plus(F.NVar("x"), v)}[limit]()
    lt = F.lt(F.Plus(v, F.One()) if spoil == "v + 1" else v, lim)
    bound, s = sweep_bound(g, sweep, num_bound), FiniteSlice(num_bound, 3)
    scaled = (lambda w: F.Times(F.const_term(2), w)) if spoil == "2v" else (lambda w: w)
    want = None if spoil or svar == "ill-sorted" or limit == "v free" else "set bit"
    roles = {"v": lambda e: e.nums["y"] % 5} if role else None
    for offset in RUN_OFFSETS:
        u = run_offset(g, offset)
        if spoil == "v in u":
            u = F.Times(v, F.One()) if u is None else F.Plus(u, F.Times(v, F.One()))
        arrangement = g.randrange(3)
        t, tj = offset_by(arrangement, scaled(v), u), offset_by(arrangement, scaled(j), u)
        rest = gen_formula(g, g.randrange(3), [0], ["x", "y", "v"], ["X", "Y"], consts=6)
        rest = poison(g, rest) if g.random() < 0.25 else rest
        if hot:
            rest = F.And(F.AlN("j", bound, F.Imp(F.And(F.lt(j, lim), F.Not(F.EqNum(j, v))),
                                                 F.Not(F.Memb(tj, x)))), rest)
        parts = [F.Memb(t, x), lt, rest]
        if spoil == "Memb second":
            parts[:2] = parts[1::-1]
        if spoil == "lt third":
            parts.insert(1, F.Leq(F.NVar("x"), F.NVar("y")))  # may be false or raise
        f = F.ExN("v", bound, F.land(parts))
        assert (compiled_kind(f), scan_kind(f), set_bit_shaped(f)) == ("_quant", want, want), f
        for env in hot_envs(g):
            if g.random() < 0.5:
                env.nums["v"] = 7  # the binder restores an outer value
            agrees_with_the_walker(f, s, env, roles)
            if want and type(said(lambda: walk_formula(f, s, env))) is bool:
                got, expected = scan_values(f, s, env)
                assert got == expected, (f, env)


def short_string_cases(c: int, spoil: str | None = None) -> tuple[F.Formula, F.Formula]:
    """A first-zero pin at leading constant c, with a middle part and a rest
    that reads y, and the run of 1s inside it, each spoilt as named: a
    coefficient 2 on v, v free in u, another bound for the run, a middle
    SeqAt part, or a run guard with a second conjunct."""
    v, j, x = F.NVar("v"), F.NVar("j"), "X"
    u = F.Plus(F.NVar("u"), F.Times(v, F.Zero())) if spoil == "v in u" else F.NVar("u")
    scaled = (lambda w: F.Times(F.const_term(2), w)) if spoil == "2v" else (lambda w: w)
    guard = F.lt(j, v)
    if spoil == "extra conjunct":
        guard = F.And(guard, F.Leq(j, F.NVar("y")))
    middle = (F.EqNum(F.SeqAt(F.NVar("u"), v), F.Zero()) if spoil == "SeqAt part"
              else F.Leq(v, F.Plus(F.Len(x), F.One())))
    bound = F.Plus(F.NVar("s"), F.One()) if spoil == "other bound" else F.NVar("s")
    run = F.AlN("j", bound, F.Imp(guard, F.Memb(F.Plus(scaled(j), u), x)))
    return F.ExN("v", F.NVar("s"), F.land([
        F.Leq(F.const_term(c), v), F.Not(F.Memb(F.Plus(scaled(v), u), x)), middle, run,
        F.Leq(F.NVar("y"), v)])), run


def one_hot_case(spoil: str | None = None) -> F.Formula:
    """A set-bit pin on the l-bit field of X at u, in _one_hot's shape: the
    Memb, lt(v, l), the others binder and a rest that reads y, spoilt as
    named: Memb second, lt third, a coefficient 2 on v, v free in u, or
    lt(v + 1, l)."""
    v, j, x, lim = F.NVar("v"), F.NVar("j"), "X", F.NVar("l")
    u = F.Plus(F.NVar("u"), F.Times(v, F.Zero())) if spoil == "v in u" else F.NVar("u")
    scaled = (lambda w: F.Times(F.const_term(2), w)) if spoil == "2v" else (lambda w: w)
    others = F.AlN("j", F.NVar("s"), F.Imp(F.And(F.lt(j, lim), F.Not(F.EqNum(j, v))),
                                           F.Not(F.Memb(F.Plus(u, scaled(j)), x))))
    parts = [F.Memb(F.Plus(u, scaled(v)), x),
             F.lt(F.Plus(v, F.One()) if spoil == "v + 1" else v, lim), others,
             F.Leq(F.NVar("y"), v)]
    if spoil == "Memb second":
        parts[:2] = parts[1::-1]
    if spoil == "lt third":
        parts[1:3] = parts[2:0:-1]
    return F.ExN("v", F.NVar("s"), F.land(parts))


def test_positions_read_bits_as_memb_does():
    """_positions leaves, in order, exactly the v of a range whose bit at
    base + v, read as Memb reads it, is 1 (one) or is not: on every string
    of at most 6 bits, base from -4 to 8 and every range from -2 to 9,
    empty ones and ones that end below 0 included."""
    texts = ["".join(bits) for n in range(7) for bits in itertools.product("01", repeat=n)]
    ranges = [range(a, b) for a in range(-2, 10) for b in range(-2, 10)]
    for text, base, one in itertools.product(texts, range(-4, 9), (True, False)):
        for values in ranges:
            got = itertools.islice(evaluate._positions(text, base, values, one), len(values) + 1)
            want = [v for v in values if bit_at(text, base + v) == one]
            assert list(got) == want, (text, base, values, one)


def test_scans_match_the_walker_on_every_short_string():
    """Bit runs of 1s and of 0s, first-zero pins and set-bit pins give the
    walker's value or error on every X of at most 5 bits, unbound X
    included, at offsets u below 0, inside and past the text, limits L from
    0 past S + 1 (and unbound for set-bit pins), bounds S from negative to
    past num_bound, c from 0 to 2,
    and a role on v or none; each spoilt pin keeps _quant and agrees as
    well, and where the walker gives a value each scan leaves exactly the
    values scan_values asks of its shape."""
    v, u, x = F.NVar("v"), F.NVar("u"), "X"
    runs = [F.forall_lt("v", F.NVar("s"), F.NVar("l"), bit)
            for bit in (F.Memb(F.Plus(u, v), x), F.Not(F.Memb(F.Plus(v, u), x)))]
    pins = [short_string_cases(c)[0] for c in range(3)]
    spoilt = [short_string_cases(1, spoil) for spoil in (
        "2v", "v in u", "other bound", "SeqAt part", "extra conjunct")]
    hots = [one_hot_case(spoil) for spoil in (
        None, "Memb second", "lt third", "2v", "v in u", "v + 1")]
    assert [scan_kind(f) for f in runs + pins] == ["ones", "zeros"] + ["first zero"] * 3
    assert [(scan_kind(f), scan_kind(run)) for f, run in spoilt] == [
        (None, None), (None, "ones"), (None, "ones"), (None, "ones"), (None, None)]
    assert [scan_kind(f) for f in hots] == ["set bit"] + [None] * 5
    texts = [None] + ["".join(bits) for n in range(6) for bits in itertools.product("01", repeat=n)]
    s, scanned = FiniteSlice(7, 0), {id(f) for f in pins + runs + hots[:1]}

    def agrees(f: F.Formula, env: Assignment, roles=None):
        agrees_with_the_walker(f, s, env, roles)
        if id(f) in scanned and type(said(lambda: walk_formula(f, s, env))) is bool:
            got, want = scan_values(f, s, env)
            assert got == want, (f, env)

    pins += [f for f, _ in spoilt]
    for text, at, bound, roles in itertools.product(
            texts, (-3, -1, 0, 1, 3, 6), (-2, 0, 1, 3, 7, 8),
            (None, {"v": lambda e: e.nums["u"] % 3})):
        strs = {} if text is None else {"X": text}
        for f in pins:
            agrees(f, Assignment({"u": at, "s": bound, "y": 2}, strs), roles)
        for f, limit in itertools.product(hots, (0, 2, 9, None)):
            env = Assignment({"u": at, "s": bound, "y": 2}, strs)
            if limit is not None:
                env.nums["l"] = limit
            agrees(f, env, roles)
        for f, limit in itertools.product(runs, (0, 2, 9)) if roles is None else ():
            agrees(f, Assignment({"u": at, "s": bound, "l": limit}, strs))


def test_proof_check_agrees_with_the_walker_at_header_flips():
    """eval_formula equals walk_formula on the cap-19 proof check at the
    corpus01 proof, at every flip of its header bits (the unary nl, nf and
    ns the first-zero pins scan) and at seeded flips past them."""
    f = compile_proof_check("frege", slot_cap=19)
    pi = dict(proofs.corpus_proofs())["corpus01.pk"]
    p, x = encode_proof(pi), encode_formula(proofs.proof_target(pi))
    nl = p.index("0", 2) - 2
    nf = p.index("0", 3 + nl) - 3 - nl
    ns = p.index("0", 4 + nl + nf) - 4 - nl - nf
    head = 5 + nl + nf + ns
    ats = [None, *range(head), *random.Random(29).sample(range(head, len(p)), 24)]
    verdicts = Counter()
    for at in ats:
        bits = p if at is None else p[:at] + "10"[int(p[at])] + p[at + 1:]
        n = max(len(bits), len(x))
        s = FiniteSlice(n, n)
        env = Assignment(strs={"P": bits, "X": x})
        verdicts[eval_formula(f, s, env)] += 1
        agrees_with_the_walker(f, s, env)
    assert verdicts[True] >= 1 and verdicts[False] >= head


def test_proof_check_agrees_with_the_walker_at_one_hot_flips():
    """eval_formula equals walk_formula on the cap-19 proof check at the
    corpus03 proof, which has a cut, and at flips of the one-hot fields the
    set-bit pins scan: each bit of the cut line's cut position and each set
    bit of its premise references, and a seeded sample of the other bits of
    every line's fields (all 144 flips cost the walker about 18 s)."""
    f = compile_proof_check("frege", slot_cap=19)
    pi = dict(proofs.corpus_proofs())["corpus03.pk"]
    p, x = encode_proof(pi), encode_formula(proofs.proof_target(pi))
    nl = p.index("0", 2) - 2
    nf = p.index("0", 3 + nl) - 3 - nl
    ns = p.index("0", 4 + nl + nf) - 4 - nl - nf
    side = nf + nf * ns * 6  # the presence bits and records of one side
    block = 2 * side + 6 + nf + 2 * nl
    fields = {}
    for line in range(nl):
        cut = 5 + nl + nf + ns + line * block + 2 * side + 4
        fields[line] = [*range(cut, cut + nf), *range(cut + nf + 2, cut + nf + 2 + 2 * nl)]
    (cut_line,) = [i for i, ln in enumerate(pi.lines) if ln.rule == "cut"]
    cut_bits = fields[cut_line][:nf]
    hot = [at for at in fields[cut_line][nf:] if p[at] == "1"]
    assert len(hot) == 2  # pa and pb
    rest = sorted({at for ats in fields.values() for at in ats} - {*cut_bits, *hot})
    verdicts = Counter()
    for at in [None, *cut_bits, *hot, *random.Random(30).sample(rest, 12)]:
        bits = p if at is None else p[:at] + "10"[int(p[at])] + p[at + 1:]
        n = max(len(bits), len(x))
        s = FiniteSlice(n, n)
        env = Assignment(strs={"P": bits, "X": x})
        verdicts[eval_formula(f, s, env)] += 1
        agrees_with_the_walker(f, s, env)
    assert verdicts[True] == 1 and verdicts[False] == nf + 2 + 12


def test_guarded_sweep_serves_the_forall_lt_binders():
    """Over the distinct binder nodes of the reflect benchmark's
    proof-check formula (each node object once, as the compiler's memo
    sees them), the guarded sweep takes exactly the forall_lt-shaped AlN
    binders: 83 with a plain guard, 13 whose guard is an And chain
    (reflect._with_premise's others) and 19 of the extended shape
    (reflect._tail_map's three guarded Imps among them), 115 of 116 AlN.
    42 of the plain ones scan as bit runs, 23 of 1 bits and 19 of 0 bits
    (reflect._clear, _count_is and the header pins), and 3 of the 24 ExN
    (nl, nf and ns) scan as first-zero pins and 13 (reflect._one_hot's pa,
    pb and cc) as set-bit pins, each exactly where the test's own reading
    finds that shape.  reflect._endsequent_is's padding binder, whose lt is
    its guard's second conjunct, and the other 8 ExN keep _quant.  Every
    forall_lt binder of acc's matrices takes the guarded sweep, and neither
    they nor nepo's acceptance formula scan."""
    seen, hot = Counter(), Counter()
    for q in distinct_binders(compile_proof_check("frege", slot_cap=19)):
        kind, shape, scan = compiled_kind(q), forall_lt_shaped(q), scan_kind(q)
        assert (kind == "guarded") == (shape is not None), q
        assert scan == (bit_run_shaped(q) or first_zero_shaped(q) or set_bit_shaped(q)), q
        seen[type(q).__name__, kind, shape, scan] += 1
        hot[q.var] += scan == "set bit"
    assert seen == {("AlN", "guarded", "plain", None): 41,
                    ("AlN", "guarded", "plain", "ones"): 23,
                    ("AlN", "guarded", "plain", "zeros"): 19,
                    ("AlN", "guarded", "chain", None): 13,
                    ("AlN", "guarded", "extended", None): 19, ("AlN", "_quant", None, None): 1,
                    ("ExN", "_quant", None, "first zero"): 3,
                    ("ExN", "_quant", None, "set bit"): 13, ("ExN", "_quant", None, None): 8}
    assert +hot == {"pa": 9, "pb": 3, "cc": 1}
    tm, p = corpus_machine("parity"), PolyBound((2, 1))
    for matrix in (acc.acc_matrix(tm, p), acc.reach_matrix(tm, p)):
        kinds = Counter((compiled_kind(q), forall_lt_shaped(q)) for q in distinct_binders(matrix)
                        if type(q) is F.AlN)
        assert kinds[("guarded", "plain")] > 0 and set(kinds) <= {
            ("guarded", "plain"), ("_quant", None)}, kinds
        assert not any(map(scan_kind, distinct_binders(matrix)))
    bounds = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=64)
    acceptance = nepo.acceptance_artifact(tm, bounds).formula
    assert not any(map(scan_kind, distinct_binders(acceptance)))
