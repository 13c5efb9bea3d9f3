"""Formula AST: parsing, printing, classification, depth, substitution."""

import random

import pytest
from oracles import walk_term

from forge import formulas as F
from forge import sexpr
from forge.errors import (CaptureError, DuplicateBindingError, ForgeError,
                          ParseError, SortMismatchError)
from forge.evaluate import Assignment, FiniteSlice, eval_formula


def atom(k: int = 0) -> F.Formula:
    return F.Leq(F.const_term(k), F.One())


# --- parsing ---


def test_parse_leq_example():
    assert sexpr.parse_formula("(leq 0 1)") == F.Leq(F.Zero(), F.One())


def test_parse_quantified_example():
    got = sexpr.parse_formula("(alN z (len X) (or (memb z X) (not (memb z X))))")
    want = F.AlN("z", F.Len("X"),
                 F.Or(F.Memb(F.NVar("z"), "X"), F.Not(F.Memb(F.NVar("z"), "X"))))
    assert got == want
    assert got == sexpr.parse_formula("(alN z (len X) (or (in z X) (not (in z X))))")


def test_parse_truncated_input():
    with pytest.raises(ParseError):
        sexpr.parse_formula("(exN x")


def test_parse_positions():
    with pytest.raises(ParseError) as e:
        sexpr.parse_formula("(and (leq 0 1)\n  (leq 0 ()))")
    assert e.value.line == 2


def test_parse_nesting_cap():
    def deep(k):  # k nested lists: k-1 negations around an atom
        return "(not " * (k - 1) + "(leq 0 1)" + ")" * (k - 1)
    text = deep(sexpr.MAX_DEPTH)
    assert sexpr.print_formula(sexpr.parse_formula(text)) == text
    with pytest.raises(ParseError) as e:
        sexpr.parse_formula(deep(sexpr.MAX_DEPTH + 1))
    assert (e.value.line, e.value.column) == (1, 5 * sexpr.MAX_DEPTH + 1)

    def flat(k, last="(leq 0 1)"):  # k arguments: the last two nest k deep once folded
        return "(and" + " (leq 0 1)" * (k - 1) + f" {last})"
    reprint = sexpr.print_formula(sexpr.parse_formula(flat(sexpr.MAX_DEPTH)))
    assert sexpr.print_formula(sexpr.parse_formula(reprint)) == reprint
    arg_col = 4 + 10 * (sexpr.MAX_DEPTH - 1) + 2  # column of the argument at the cap
    for text, col in ((flat(sexpr.MAX_DEPTH + 1), arg_col),
                      (flat(sexpr.MAX_DEPTH, "(leq (+ 0 0) 1)"), arg_col + 5)):
        with pytest.raises(ParseError) as e:
            sexpr.parse_formula(text)
        assert (e.value.line, e.value.column) == (1, col)


def test_parse_comments_and_whitespace():
    text = "; tautology\n(or (leq 0 1)  ; left\n    (leq 1 0))\n"
    assert sexpr.parse_formula(text) == F.Or(F.Leq(F.Zero(), F.One()),
                                             F.Leq(F.One(), F.Zero()))


def test_parse_nary_fold():
    got = sexpr.parse_formula("(and (leq 0 0) (leq 0 1) (leq 1 1))")
    a, b, c = F.Leq(F.Zero(), F.Zero()), F.Leq(F.Zero(), F.One()), F.Leq(F.One(), F.One())
    assert got == F.And(a, F.And(b, c))


def test_parse_sort_mismatches():
    for bad in ["(in x y)", "(leq X 0)", "(exN X 1 (leq 0 0))",
                "(exS x 1 (leq 0 0))", "(seteq X y)", "(= (len x) 0)"]:
        with pytest.raises(SortMismatchError):
            sexpr.parse_formula(bad)


def test_parse_rejects_rebinding_on_a_path():
    with pytest.raises(DuplicateBindingError):
        sexpr.parse_formula("(exN x 1 (exN x 1 (leq x 0)))")
    with pytest.raises(DuplicateBindingError):
        sexpr.parse_formula("(exS W 1 (and (leq 0 0) (alS W 1 (seteq W W))))")


def test_parse_renames_sibling_binders():
    got = sexpr.parse_formula("(and (exN x 1 (leq x 0)) (exN x 1 (leq x 1)))")
    left = F.ExN("x", F.One(), F.Leq(F.NVar("x"), F.Zero()))
    right = F.ExN("x_2", F.One(), F.Leq(F.NVar("x_2"), F.One()))
    assert got == F.And(left, right)


def test_parse_rename_avoids_existing_names():
    got = sexpr.parse_formula(
        "(and (leq x_2 1) (and (exN x 1 (leq x 0)) (exN x 1 (leq x 1))))")
    assert isinstance(got.right.right, F.ExN)
    assert got.right.right.var == "x_3"


def test_parse_seq_terms():
    got = sexpr.parse_formula("(= (seq s 0) (seqlen s))")
    assert got == F.EqNum(F.SeqAt(F.NVar("s"), F.Zero()), F.SeqLen(F.NVar("s")))


def test_roundtrip_handmade():
    texts = [
        "(leq 0 1)",
        "(alN z (len X) (or (in z X) (not (in z X))))",
        "(imp (seteq X Y) (and (in 0 X) (in 0 Y)))",
        "(exS W (* (len X) (len X)) (alN t (len X) (in (+ t 1) W)))",
        "(= (seq s (+ x 1)) (seqlen s))",
    ]
    for t in texts:
        f = sexpr.parse_formula(t)
        assert sexpr.parse_formula(sexpr.print_formula(f)) == f


# --- a small generator used by the property tests ---


def gen_formula(rng: random.Random, depth_budget: int, counter: list[int],
                nvars: list[str], svars: list[str], consts: int = 0) -> F.Formula:
    """Random formula; with `consts`, leaves include constants up to it."""
    def gen_term(d: int) -> F.NumTerm:
        roll = rng.random()
        if d <= 0 or roll < 0.35:
            choices: list[F.NumTerm] = [F.Zero(), F.One()]
            if consts:
                choices += [F.const_term(rng.randrange(2, 6)),
                            F.const_term(rng.randrange(consts + 1))]
            choices += [F.NVar(v) for v in nvars]
            choices += [F.Len(s) for s in svars]
            return rng.choice(choices)
        if roll < 0.6:
            return F.Plus(gen_term(d - 1), gen_term(d - 1))
        if roll < 0.85:
            return F.Times(gen_term(d - 1), gen_term(d - 1))
        return F.SeqAt(gen_term(d - 1), gen_term(d - 1))

    if depth_budget <= 0 or rng.random() < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            return F.EqNum(gen_term(1), gen_term(1))
        if kind == 1:
            return F.Leq(gen_term(1), gen_term(1))
        if kind == 2 and len(svars) >= 2:
            return F.EqStr(rng.choice(svars), rng.choice(svars))
        if svars:
            return F.Memb(gen_term(1), rng.choice(svars))
        return F.Leq(gen_term(1), gen_term(1))
    kind = rng.randrange(8)
    if kind in (0, 1, 2, 3):
        make = [F.And, F.Or, F.Imp, lambda a, b: F.Not(a)][kind]
        a = gen_formula(rng, depth_budget - 1, counter, nvars, svars, consts)
        b = gen_formula(rng, depth_budget - 1, counter, nvars, svars, consts)
        return make(a, b) if kind != 3 else F.Not(a)
    counter[0] += 1
    bound = gen_term(1)
    if kind in (4, 5):
        v = f"q{counter[0]}"
        body = gen_formula(rng, depth_budget - 1, counter, nvars + [v], svars, consts)
        return (F.ExN if kind == 4 else F.AlN)(v, bound, body)
    v = f"Q{counter[0]}"
    body = gen_formula(rng, depth_budget - 1, counter, nvars, svars + [v], consts)
    return (F.ExS if kind == 6 else F.AlS)(v, bound, body)


def corpus(n: int = 150) -> list[F.Formula]:
    rng = random.Random(20260814)
    return [gen_formula(rng, 4, [0], ["x", "y"], ["X"]) for _ in range(n)]


def test_roundtrip_generated_corpus():
    for f in corpus():
        assert sexpr.parse_formula(sexpr.print_formula(f)) == f


# --- classification ---


def sb(i):
    return F.QuantClass("sigma", i)


def pb(i):
    return F.QuantClass("pi", i)


def test_classify_pinned_examples():
    f = sexpr.parse_formula("(alN z (len X) (or (in z X) (not (in z X))))")
    assert F.classify(f) == sb(0)
    assert F.classify(sexpr.parse_formula("(leq 0 1)")) == sb(0)
    g = sexpr.parse_formula("(exS W (len X) (alN t (len W) (in t X)))")
    assert F.classify(g) == sb(1)


def test_classify_alternations():
    inner = "(in 0 X)"
    ex1 = f"(exS A 1 {inner})"
    al1 = f"(alS B 1 {inner})"
    assert F.classify(sexpr.parse_formula(ex1)) == sb(1)
    assert F.classify(sexpr.parse_formula(al1)) == pb(1)
    assert F.classify(sexpr.parse_formula(f"(exS C 1 {al1})")) == sb(2)
    assert F.classify(sexpr.parse_formula(f"(alS C 1 {ex1})")) == pb(2)
    assert F.classify(sexpr.parse_formula(f"(exS C 1 {ex1})")) == sb(1)
    assert F.classify(sexpr.parse_formula(f"(not {ex1})")) == pb(1)
    # a sigma-1 next to a pi-1 needs level 2; ties report sigma
    assert F.classify(sexpr.parse_formula(f"(or {ex1} {al1})")) == sb(2)
    # implication rescopes its antecedent
    assert F.classify(sexpr.parse_formula(f"(imp {ex1} (leq 0 1))")) == pb(1)
    assert F.classify(sexpr.parse_formula(f"(imp {al1} (leq 0 1))")) == sb(1)


def test_classify_number_quantifiers_transparent():
    f = sexpr.parse_formula("(exN x 1 (alN y 1 (exS W 1 (in x W))))")
    assert F.classify(f) == sb(1)


def test_classify_reflection_shape():
    text = ("(alS X (+ 1 1) (imp (in 0 X) "
            "(alS P (+ 1 1) (imp (in 0 P) (alS Z (+ 1 1) (in 0 Z))))))")
    assert F.classify(sexpr.parse_formula(text)) == pb(1)


def test_classify_monotone_under_conjunction():
    fs = corpus(80)
    for f, g in zip(fs, reversed(fs)):
        both = F.classify(F.And(f, g)).level
        assert both >= max(F.classify(f).level, F.classify(g).level)


def test_classify_level_zero_iff_no_string_quantifier():
    for f in corpus():
        has_sq = "exS" in sexpr.print_formula(f) or "alS" in sexpr.print_formula(f)
        assert (F.classify(f).level == 0) == (not has_sq)


# --- depth ---


def test_depth_pinned_examples():
    a, b, c = atom(0), atom(1), atom(2)
    assert F.depth(a) == 0
    assert F.depth(F.And(F.Or(a, b), c)) == 2
    assert F.depth(F.And(F.And(a, b), c)) == 1


def test_depth_merges_runs():
    a = atom()
    assert F.depth(F.Not(F.Not(a))) == 1
    assert F.depth(F.land([a] * 10)) == 1
    assert F.depth(F.lor([F.land([a, a]), F.land([a, a])])) == 2
    f = F.ExN("x", F.One(), F.ExN("y", F.One(), atom()))
    assert F.depth(f) == 1
    assert F.depth(F.AlN("z", F.One(), f)) == 2


def test_depth_properties_on_corpus():
    for f in corpus(80):
        d = F.depth(f)
        assert F.depth(F.Not(f)) <= d + 1
        assert F.depth(F.And(f, f)) >= d
        assert F.depth(F.Or(f, f)) >= d


# --- substitution ---


def test_substitute_pinned_examples():
    leq_x1 = F.Leq(F.NVar("x"), F.One())
    assert F.substitute(leq_x1, "x", F.Zero()) == F.Leq(F.Zero(), F.One())
    bound = F.ExN("x", F.One(), leq_x1)
    assert F.substitute(bound, "x", F.Zero()) == bound
    f = F.Leq(F.NVar("x"), F.NVar("y"))
    got = F.substitute(f, "x", F.Plus(F.NVar("y"), F.One()))
    assert got == F.Leq(F.Plus(F.NVar("y"), F.One()), F.NVar("y"))


def test_substitute_into_bound_term_of_shadowing_binder():
    f = F.ExN("x", F.Plus(F.NVar("x"), F.One()), F.Leq(F.NVar("x"), F.Zero()))
    got = F.substitute(f, "x", F.One())
    assert got == F.ExN("x", F.Plus(F.One(), F.One()), F.Leq(F.NVar("x"), F.Zero()))


def test_substitute_capture_raises():
    f = F.ExN("y", F.One(), F.Leq(F.NVar("x"), F.NVar("y")))
    with pytest.raises(CaptureError):
        F.substitute(f, "x", F.NVar("y"))
    f2 = F.ExS("X", F.One(), F.Memb(F.NVar("t"), "X"))
    with pytest.raises(CaptureError):
        F.substitute(f2, "t", F.Len("X"))


def test_substitute_on_parsed_formulas_never_captures():
    # parse-time renaming gives unique binder names, so substituting any
    # fresh-variable-free term for a free variable is total
    for f in corpus(60):
        nums, _ = F.free_vars(f)
        for v in nums:
            F.substitute(f, v, F.Plus(F.One(), F.One()))


# --- helpers ---


def expansion(n: int) -> F.NumTerm:
    """Binary expansion of n over {0, 1, +, *}, node by node: the spelling
    a `Const` prints as, sizes as and parses back as."""
    if n < 2:
        return F.One() if n else F.Zero()
    doubled = F.Times(F.Plus(F.One(), F.One()), expansion(n // 2))
    return F.Plus(doubled, F.One()) if n % 2 else doubled


def test_const_term_values_and_size():
    env = Assignment()
    for n in list(range(260)) + [511, 512, 1023, 10**6, 2**300 + 1]:
        t, ref = F.const_term(n), expansion(n)
        assert type(t) is ({0: F.Zero, 1: F.One}.get(n, F.Const)), n
        assert sexpr.print_term(t) == sexpr.print_term(ref), n
        assert F.term_size(t) == F.term_size(ref), n
        assert walk_term(t, env) == walk_term(ref, env) == n
    assert F.term_size(F.const_term(10**9)) < 250
    with pytest.raises(ValueError):
        F.const_term(-1)
    for bad in (0, 1, -1):
        with pytest.raises(ValueError):
            F.Const(bad)


def test_const_spellings_agree_on_generated_formulas():
    """A formula holding Const leaves and its reparse, which spells each one
    as its expansion, print alike, size alike and evaluate alike."""
    rng = random.Random(20261018)
    s = FiniteSlice(6, 2)
    checked = 0
    for _ in range(200):
        f = gen_formula(rng, 3, [0], ["x", "y"], ["X"], consts=2**40)
        text = sexpr.print_formula(f)
        g = sexpr.parse_formula(text)
        assert sexpr.print_formula(g) == text
        assert F.formula_size(g) == F.formula_size(f)
        for x, y, bits in ((0, 1, "1"), (3, 5, "011"), (2**40, 6, "")):
            env = Assignment({"x": x, "y": y}, {"X": bits})
            got = outcome(f, s, env)
            assert outcome(g, s, env) == got, text
            checked += got in (True, False)
    assert checked > 300  # most runs evaluate rather than leave the slice


def outcome(f: F.Formula, s: FiniteSlice, env: Assignment) -> bool | type:
    try:
        return eval_formula(f, s, env)
    except ForgeError as e:
        return type(e)


def test_free_vars():
    f = sexpr.parse_formula("(exN x (len X) (and (leq x y) (in x Y)))")
    nums, strs = F.free_vars(f)
    assert nums == {"y"}
    assert strs == {"X", "Y"}


def test_formula_size_counts_nodes():
    f = F.And(atom(), atom())
    assert F.formula_size(f) == 1 + 2 * F.formula_size(atom())
    assert F.formula_size(F.Leq(F.Zero(), F.One())) == 3


def test_builders():
    a, b = atom(0), atom(1)
    assert F.land([]) == F.TRUE
    assert F.lor([]) == F.FALSE
    assert F.land([a]) == a
    assert F.land([a, b]) == F.And(a, b)
    assert F.lor([a, b, a]) == F.Or(a, F.Or(b, a))
    assert F.lt(F.Zero(), F.One()) == F.Leq(F.Plus(F.Zero(), F.One()), F.One())
