"""Formula AST: parsing and the parser's binder renaming, printing,
classification, depth and size."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ref_read_all, walk_term

from forge import formulas as F
from forge import sexpr
from forge.acc import compile_acc, compile_reach
from forge.errors import DuplicateBindingError, ForgeError, ParseError, SortMismatchError
from forge.evaluate import Assignment, FiniteSlice, eval_formula
from forge.machine import CORPUS, PolyBound, corpus_machine
from forge.nepo import NepoBounds, compile_acceptance_sigma0, compile_Reach
from forge.prop import node_to_prop
from forge.reflect import compile_proof_check


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
    # a comment's parentheses are not tokens, \r is not a line end and a
    # tab is one column
    text = "; a (comment) with ( and )\r\n(and (leq 0 1)\t; ) (\r\n\t (frob 0 1))\r\n"
    with pytest.raises(ParseError) as e:
        sexpr.parse_formula(text)
    assert str(e.value) == "3:4: unknown formula operator frob"


def read_prop(text: str):
    return node_to_prop(sexpr.read_one(text))


# The reader, a malformed text and the error it raises at the offending list:
# an arity, an unknown operator, an atom or empty list where a formula goes.
MALFORMED = [
    (sexpr.parse_formula, "(leq (+ 1) 0)", "1:6: (+ t t) takes two arguments"),
    (sexpr.parse_formula, "(leq (len) 0)", "1:6: (len X) takes one argument"),
    (sexpr.parse_formula, "(leq (seq 1) 0)", "1:6: (seq t t) takes two arguments"),
    (sexpr.parse_formula, "(leq (seqlen) 0)", "1:6: (seqlen t) takes one argument"),
    (sexpr.parse_formula, "(leq (foo 1) 0)", "1:7: unknown term operator foo"),
    (sexpr.parse_formula, "(not x)", "1:6: expected a formula, got an atom"),
    (sexpr.parse_formula, "(not ())", "1:6: expected a formula operator"),
    (sexpr.parse_formula, "(= 1)", "1:1: (= t t) takes two arguments"),
    (sexpr.parse_formula, "(seteq X)", "1:1: (seteq X Y) takes two arguments"),
    (sexpr.parse_formula, "(memb 0 X X)", "1:1: (in t X) takes two arguments"),
    (sexpr.parse_formula, "(not)", "1:1: (not f) takes one argument"),
    (sexpr.parse_formula, "(imp (leq 0 0))", "1:1: (imp f f ...) takes at least two arguments"),
    (sexpr.parse_formula, "(exN x 1)", "1:1: (exN v t f) takes three arguments"),
    (sexpr.parse_formula, "(foo)", "1:2: unknown formula operator foo"),
    # a constant's spelling, one token, raises where no term goes what its lists raise
    (sexpr.parse_formula, "(and (leq 0 1) (* (+ 1 1) 1))", "1:17: unknown formula operator *"),
    (sexpr.parse_formula, "(not (+ (* (+ 1 1) 1) 1))", "1:7: unknown formula operator +"),
    (sexpr.parse_formula, "(leq ((* (+ 1 1) 1) 1) 0)", "1:6: expected a term operator"),
    (sexpr.parse_formula, "((* (+ 1 1) 1) 1)", "1:1: expected a formula operator"),
    (sexpr.parse_formula, "(exN (* (+ 1 1) 1) 1 (leq 0 0))", "1:6: expected number-variable name"),
    (sexpr.parse_formula, "(leq (len (* (+ 1 1) 1)) 0)", "1:11: expected string-variable name"),
    (read_prop, "(pnot x)", "1:7: expected a propositional formula, got an atom"),
    (read_prop, "(pnot ())", "1:7: expected a propositional operator"),
    (read_prop, "(pv z)", "1:1: (pv name index) takes a name and an index"),
    (read_prop, "(pnot)", "1:1: (pnot f) takes one argument"),
    # a constant's spelling is one atom in prop text too
    (read_prop, "(pnot (* (+ 1 1) 1))", "1:7: expected a propositional formula, got an atom"),
    (read_prop, "(pv (* (+ 1 1) 1) 0)", "1:1: (pv name index) takes a name and an index"),
]


@pytest.mark.parametrize("read, text, message", MALFORMED,
                         ids=[text for _, text, _ in MALFORMED])
def test_malformed_lists_are_rejected_where_they_stand(read, text, message):
    with pytest.raises(ParseError) as e:
        read(text)
    assert str(e.value) == message


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
    cases = [
        ("(and (leq x_2 1) (and (exN x 1 (leq x 0)) (exN x 1 (leq x 1))))",
         "(and (leq x_2 1) (and (exN x 1 (leq x 0)) (exN x_3 1 (leq x_3 1))))"),
        # a name written after the collision is avoided too
        ("(and (exN x 1 (leq x 0)) (and (exN x 1 (leq x 1)) (leq x_2 1)))",
         "(and (exN x 1 (leq x 0)) (and (exN x_3 1 (leq x_3 1)) (leq x_2 1)))"),
        # a name written only in a comment is not
        ("(and (exN x 1 (leq x 0)) (exN x 1 (leq x 1))) ; x_2",
         "(and (exN x 1 (leq x 0)) (exN x_2 1 (leq x_2 1)))"),
    ]
    for text, reprint in cases:
        assert sexpr.print_formula(sexpr.parse_formula(text)) == reprint, text


def _read_outcome(read, source, line, col):
    """(text, line, col) of every node read, in preorder, or the error."""
    try:
        todo = list(reversed(read(source, line, col)))
    except ParseError as e:
        return type(e), str(e), e.line, e.column
    out = []
    while todo:  # a loop, since the trees nest up to MAX_DEPTH deep
        node = todo.pop()
        out.append((node.text, node.line, node.col))
        if node.items is not None:
            out.append(len(node.items))
            todo.extend(reversed(node.items))
    return out


# \x0b and \x0c are atom characters to the reader, though str.split splits on them
_PIECES = st.sampled_from(["(", ")", ";", "\n", "\r", "\t", " ", "\x0b", "\x0c",
                           "a", "X", "1", "x_2", "(* (+ 1 1) ", "(+ (* (+ 1 1) ",
                           ") 1)", "x"])
_SOURCES = st.lists(_PIECES, max_size=40).map("".join)


def _nested(depth):
    return st.builds(lambda pre, mid, post: pre + "(" * depth + mid + ")" * depth + post,
                     _SOURCES, _SOURCES, _SOURCES)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_SOURCES, _nested(sexpr.MAX_DEPTH), _nested(sexpr.MAX_DEPTH + 1)),
       st.integers(1, 60), st.integers(1, 60))
@example("(" * sexpr.MAX_DEPTH + ")" * sexpr.MAX_DEPTH, 1, 1)
@example("(" * (sexpr.MAX_DEPTH + 1) + ")" * (sexpr.MAX_DEPTH + 1), 3, 7)
@example("(" * 5000 + "a" + ")" * 5000, 1, 1)
@example("a ; (\n) (b\r\n\t(", 4, 4)
@example("(* (+ 1 1) (+ (* (+ 1 1) 1)) (* (+ 1 1) 1))", 1, 1)
def test_read_all_matches_the_reference_reader(source, line, col):
    """read_all reads what the two-pass reference reader reads, at the same
    positions, from any start line and column (parse_proof starts each proof
    line past its label), and raises the same error where it does.  Neither
    caps list nesting, so the cases past MAX_DEPTH read alike too."""
    assert _read_outcome(sexpr.read_all, source, line, col) == \
        _read_outcome(ref_read_all, source, line, col)


def test_positions_are_found_only_for_an_error(monkeypatch):
    """Parsing a printed formula computes no token position; a malformed
    text builds its table of token starts once, for the error it raises."""
    tables = []
    token_starts = sexpr._token_starts
    monkeypatch.setattr(sexpr, "_token_starts",
                        lambda *a: tables.append(1) or token_starts(*a))
    bounds = NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=64)
    text = sexpr.print_formula(compile_acceptance_sigma0(corpus_machine("scan1"), bounds))
    sexpr.parse_formula(text)
    assert tables == []
    at = text.rfind("(in ")
    with pytest.raises(ParseError) as e:
        sexpr.parse_formula(text[:at] + "(on " + text[at + 4:])
    assert str(e.value) == "1:3597: unknown formula operator on"
    assert len(tables) == 1


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


def gen_term(rng: random.Random, d: int, nvars: list[str], svars: list[str],
             consts: int = 0) -> F.NumTerm:
    """Random term of depth at most d over nvars and the lengths of svars;
    with `consts`, leaves include constants up to it."""
    roll = rng.random()
    if d <= 0 or roll < 0.35:
        choices: list[F.NumTerm] = [F.Zero(), F.One()]
        if consts:
            choices += [F.const_term(rng.randrange(2, 6)),
                        F.const_term(rng.randrange(consts + 1))]
        choices += [F.NVar(v) for v in nvars]
        choices += [F.Len(s) for s in svars]
        return rng.choice(choices)
    sub = [gen_term(rng, d - 1, nvars, svars, consts) for _ in range(2)]
    if roll < 0.6:
        return F.Plus(*sub)
    if roll < 0.85:
        return F.Times(*sub)
    return F.SeqAt(*sub)


def gen_formula(rng: random.Random, depth_budget: int, counter: list[int],
                nvars: list[str], svars: list[str], consts: int = 0) -> F.Formula:
    """Random formula; with `consts`, leaves include constants up to it."""
    def term(d: int) -> F.NumTerm:
        return gen_term(rng, d, nvars, svars, consts)

    if depth_budget <= 0 or rng.random() < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            return F.EqNum(term(1), term(1))
        if kind == 1:
            return F.Leq(term(1), term(1))
        if kind == 2 and len(svars) >= 2:
            return F.EqStr(rng.choice(svars), rng.choice(svars))
        if svars:
            return F.Memb(term(1), rng.choice(svars))
        return F.Leq(term(1), term(1))
    kind = rng.randrange(8)
    if kind in (0, 1, 2, 3):
        make = [F.And, F.Or, F.Imp, lambda a, b: F.Not(a)][kind]
        a = gen_formula(rng, depth_budget - 1, counter, nvars, svars, consts)
        b = gen_formula(rng, depth_budget - 1, counter, nvars, svars, consts)
        return make(a, b) if kind != 3 else F.Not(a)
    counter[0] += 1
    bound = term(1)
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


# --- binder renaming ---


def binder_names(f: F.Formula) -> list[str]:
    """The variable of every binder in f, one entry per binder."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        tg = type(g)
        if tg in F.QUANTIFIERS:
            out.append(g.var)
            stack.append(g.body)
        elif tg in (F.And, F.Or, F.Imp):
            stack += (g.left, g.right)
        elif tg is F.Not:
            stack.append(g.body)
    return out


def compiled_formulas():
    p = PolyBound((2, 1))
    for name in CORPUS:
        tm = corpus_machine(name)
        yield compile_acc(tm, p)
        yield compile_reach(tm, p)
        for m in (4, 8, 16, 32):
            b = NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=m)
            yield compile_acceptance_sigma0(tm, b)
            yield compile_Reach(tm, b, 0)
    yield compile_proof_check("frege", slot_cap=1)


def test_parsed_formulas_bind_pairwise_distinct_names():
    # the compilers reuse binder names across sibling branches, and the
    # parser renames them apart, so no name is bound twice in the parse
    reused = 0
    for f in [*compiled_formulas(), *corpus(60)]:
        names = binder_names(sexpr.parse_formula(sexpr.print_formula(f)))
        assert len(names) == len(set(names)), sexpr.print_formula(f)[:200]
        given = binder_names(f)
        reused += len(set(given)) < len(given)
    assert reused >= 7  # acc, reach and the proof checker repeat names


# --- helpers ---


def expansion(n: int) -> F.NumTerm:
    """Binary expansion of n over {0, 1, +, *}, node by node: the spelling
    a `Const` prints as and sizes as, which parses back as that `Const`."""
    if n < 2:
        return F.One() if n else F.Zero()
    doubled = F.Times(F.Plus(F.One(), F.One()), expansion(n // 2))
    return F.Plus(doubled, F.One()) if n % 2 else doubled


def test_const_term_values_and_size():
    env = Assignment()
    for n in list(range(260)) + [511, 512, 1023, 10**6, 2**300 + 1]:
        t, ref = F.const_term(n), expansion(n)
        assert type(t) is F.Const and t.value == n, n
        assert sexpr.print_term(t) == sexpr.print_term(ref), n
        assert F.formula_size(t) == F.formula_size(ref), n
        assert walk_term(t, env) == walk_term(ref, env) == n
    assert F.formula_size(F.const_term(10**9)) < 250
    for bad in (-1, -2**70):
        with pytest.raises(ValueError, match="terms denote non-negative numbers"):
            F.const_term(bad)
    # 0 and 1 are Const leaves too, each one shared object
    assert F.Zero() is F.Zero() == F.Const(0) and F.One() is F.One() == F.Const(1)


def test_only_the_printed_constant_spelling_folds():
    for n in list(range(1024)) + [2**300 + 1, 2**990 + 12345]:
        got = sexpr.parse_formula(f"(= t {sexpr.print_term(F.Const(n))})")
        assert got == F.EqNum(F.NVar("t"), F.Const(n)), n
    assert sexpr.parse_formula("(= t 1)").right is F.One()
    for spelling in ("(+ 1 1)", "(* (+ 1 1) 0)", "(* (+ 1 0) 1)", "(+ (* (+ 1 1) 1) 0)",
                     "(* 1 (+ 1 1))", "(* (+ 1 1) x)", "(* (+ 1 1) (+ 1 1))"):
        text = f"(= t {spelling})"
        got = sexpr.parse_formula(text)
        assert type(got.right) in (F.Plus, F.Times), spelling
        assert sexpr.print_formula(got) == text
    # the same lists with other whitespace read as lists, of the same value
    # and reprint
    got = sexpr.parse_formula("(= t (+ (* (+ 1 1)  (* (+ 1 1) 1)) 1))")
    assert got.right == F.Plus(F.Times(F.Plus(F.One(), F.One()), F.Const(2)), F.One())
    assert sexpr.print_formula(got) == f"(= t {sexpr.print_term(F.Const(5))})"
    # a constant below a spelling that breaks off still folds
    two, c = F.Plus(F.One(), F.One()), F.Const(2**40 + 3)
    for term in (F.Times(two, F.Plus(c, F.Zero())), F.Times(two, F.Times(two, F.SeqLen(c))),
                 F.Plus(F.Times(F.Plus(F.One(), F.Zero()), c), F.One())):
        f = F.EqNum(F.NVar("t"), term)
        assert sexpr.parse_formula(sexpr.print_formula(f)) == f
    # the outer list of a constant counts one level where it stands; its
    # spine, 302 lists deep here, does not count
    wide = sexpr.print_term(F.Const(2**300 + 1))

    def nested(k):  # the constant's outer list sits k deep
        return "(not " * (k - 2) + f"(= t {wide})" + ")" * (k - 2)
    assert sexpr.print_formula(sexpr.parse_formula(nested(sexpr.MAX_DEPTH))) == \
        nested(sexpr.MAX_DEPTH)
    with pytest.raises(ParseError) as e:
        sexpr.parse_formula(nested(sexpr.MAX_DEPTH + 1))
    assert (e.value.line, e.value.column) == (1, 5 * (sexpr.MAX_DEPTH - 1) + 6)


def test_a_broken_constant_spine_is_walked_once():
    # 10,000 segments of a spelling whose innermost 1 is x: the token pattern
    # takes them in one match, which stops at the x, so reading them costs
    # one pass; none of them folds, and the parse stops where the lists pass
    # the cap: at the (+ 1 1) of segment 899, 901 lists deep
    wide = sexpr.print_term(F.Const(2**10000))
    at = wide.rfind("(+ 1 1) 1)")
    text = f"(= t {wide[:at]}(+ 1 1) x{wide[at + 9:]})"
    assert sexpr._TOKEN.match(text, 5).end() == text.index("x")
    assert sexpr._tokens(text) == sexpr._PLAIN.findall(text)
    with pytest.raises(ParseError, match="nest deeper than") as e:
        sexpr.parse_formula(text)
    assert (e.value.line, e.value.column) == (1, 5 + 11 * 898 + 4)


_SEGMENT = re.compile(r"\((?:\* \(\+ 1 1\)|\+ \(\* \(\+ 1 1\)) ")


def _mutant(rng: random.Random, text: str) -> str:
    """text with one character deleted, or a parenthesis, an atom or two
    spaces inserted, or a constant's spelling put where a formula or an
    operator goes."""
    kind = rng.randrange(8)
    if kind < 5:
        at = rng.randrange(len(text) + 1)
        if kind == 0:
            return text[:at] + text[at + 1:]
        return text[:at] + ("(", ")", rng.choice(("x", "1", "X", "not")), "  ")[kind - 1] + text[at:]
    start = rng.choice([m.start() for m in _SEGMENT.finditer(text)])
    end, depth = start, 0  # the spelling is the list that opens at start
    while True:
        depth += {"(": 1, ")": -1}.get(text[end], 0)
        end += 1
        if not depth:
            break
    spelling = text[start:end]
    if kind == 5:  # in place, so (not ...) stands where a term goes
        return f"{text[:start]}(not {spelling}){text[end:]}"
    if kind == 6:  # as an operator
        at = rng.choice([m.start() for m in re.finditer(r"\(", text)]) + 1
        return f"{text[:at]}{spelling} {text[at:]}"
    at = rng.choice([m.end() for m in re.finditer(r"\((?:and|or) ", text)])
    return f"{text[:at]}(not {spelling}) {text[at:]}"  # as a formula


def test_parse_outcomes_of_mutated_formulas_are_pinned():
    """The reprint, or the error's type, message, line and column, of 600
    seeded mutants of printed nepo and acc formulas.  The digest is the one
    a reader that reads a spelling as lists and folds them after gives, so
    making the spelling one token moved no outcome."""
    texts = [sexpr.print_formula(compile_acceptance_sigma0(
        corpus_machine("scan1"), NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=4)))]
    texts += [sexpr.print_formula(compile_acc(corpus_machine(name), PolyBound((2, 1))))
              for name in CORPUS]
    rng = random.Random(20261021)
    digest = hashlib.sha256()
    for i in range(600):
        try:
            out = sexpr.print_formula(sexpr.parse_formula(_mutant(rng, texts[i % len(texts)])))
        except ForgeError as e:
            out = f"{type(e).__name__} {e} {getattr(e, 'line', '')} {getattr(e, 'column', '')}"
        digest.update(out.encode() + b"\0")
    assert digest.hexdigest() == "025d17651eaff27e906c9242ad02d0d15f381d3f24d34491df93570e680f3738"


def test_const_spellings_agree_on_generated_formulas():
    """A formula holding Const leaves and its reparse, which holds the same
    Const leaves, print alike, size alike and evaluate alike."""
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
    assert F.free_vars(sexpr.parse_formula("(alS Y 1 (seteq X Y))")) == (set(), {"X"})


def test_formula_size_counts_nodes():
    f = F.And(atom(), atom())
    assert F.formula_size(f) == 1 + 2 * F.formula_size(atom())
    assert F.formula_size(F.Leq(F.Zero(), F.One())) == 3


def test_walkers_take_long_chains():
    # size, classify and print walk a right-nested And/Or chain in a loop,
    # not one frame per link
    a = atom(5)
    text = sexpr.print_formula(a)
    chain = F.land([a] * 5000)
    assert F.formula_size(chain) == 4999 + 5000 * F.formula_size(a)
    assert F.classify(chain) == sb(0)
    assert sexpr.print_formula(chain) == f"(and {text} " * 4999 + text + ")" * 4999
    mixed = a
    for k in range(4999):
        mixed = (F.And if k % 2 else F.Or)(a, mixed)
    opens = "".join(f"({'and' if k % 2 else 'or'} {text} " for k in reversed(range(4999)))
    assert sexpr.print_formula(mixed) == opens + text + ")" * 4999
    assert F.formula_size(mixed) == F.formula_size(chain)
    ex = F.ExS("W", F.One(), F.Memb(F.Zero(), "W"))
    al = F.AlS("W", F.One(), F.Memb(F.Zero(), "W"))
    assert F.classify(F.lor([a] * 4999 + [ex])) == sb(1)
    assert F.classify(F.land([al] + [a] * 4999)) == pb(1)
    assert F.classify(F.land([a, al] * 2500 + [F.Or(ex, a)])) == sb(2)


def test_builders():
    a, b = atom(0), atom(1)
    assert F.land([]) == F.TRUE
    assert F.lor([]) == F.FALSE
    assert F.land([a]) == a
    assert F.land([a, b]) == F.And(a, b)
    assert F.lor([a, b, a]) == F.Or(a, F.Or(b, a))
    assert F.lt(F.Zero(), F.One()) == F.Leq(F.Plus(F.Zero(), F.One()), F.One())
