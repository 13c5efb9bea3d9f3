"""Propositional translation and tautology checking."""

import random

import pytest
from hypothesis import given, strategies as st
from oracles import holds_for_all, walk_formula
from test_formulas import gen_formula

from forge.errors import (BudgetError, ClassError, ParseError, SliceExceededError,
                          UnboundVariableError)
from forge.evaluate import Assignment, FiniteSlice, eval_formula
from forge.formulas import (TRUE, AlN, And, EqNum, EqStr, ExN, ExS, Imp, Len, Leq,
                            Memb, Not, NVar, One, Or, Zero, classify, const_term, lt)
from forge.prop import (PAnd, PConst, PNot, POr, PVar, SizeProfile, eval_prop,
                        node_to_prop, pand, pnot, por, prop_depth, prop_size,
                        prop_to_sexpr, prop_vars, taut_check, translate)
from forge.sexpr import parse_formula, read_one

X, Z = "X", NVar("z")


def for_len(n: int) -> SizeProfile:
    return SizeProfile(lengths={"X": n})


def test_smart_constructors():
    v, w = PVar("X", 0), PVar("X", 1)
    for join, node, other, unit in ((pand, PAnd, POr, 1), (por, POr, PAnd, 0)):
        assert join([]) == PConst(unit)
        assert join([v, PConst(unit)]) == v
        assert join([v, PConst(1 - unit)]) == PConst(1 - unit)
        assert join([node((v, w)), v]) == node((v, w, v))
        assert join([other((v, w)), v]) == node((other((v, w)), v))
    assert pnot(pnot(v)) == v
    assert pnot(PConst(0)) == PConst(1)


def test_every_position_decided_or_free():
    n = 4
    sizes = for_len(n)
    assert translate(Memb(const_term(n - 1), X), sizes) == PConst(1)
    assert translate(Memb(const_term(n), X), sizes) == PConst(0)
    assert translate(Memb(const_term(0), X), sizes) == PVar(X, 0)
    assert translate(Memb(Zero(), X), for_len(0)) == PConst(0)


def test_number_only_atom_is_constant():
    assert translate(Leq(Len(X), Len(X)), for_len(5)) == PConst(1)
    assert translate(EqNum(Len(X), const_term(3)), for_len(5)) == PConst(0)


def test_bounded_universal_is_tautology():
    # every position is set or unset
    body = Imp(lt(Z, Len(X)), Or(Memb(Z, X), Not(Memb(Z, X))))
    phi = AlN("z", Len(X), body)
    p = translate(phi, for_len(3))
    assert taut_check(p)
    assert holds_for_all(phi, 3)


def test_empty_existential_collapses():
    phi = ExN("z", Len(X), And(lt(Z, Len(X)), Memb(Z, X)))
    assert translate(phi, for_len(0)) == PConst(0)


def test_string_equality_cases():
    refl = translate(EqStr(X, X), for_len(3))
    assert taut_check(refl)
    sizes = SizeProfile(lengths={"X": 3, "Y": 4})
    assert translate(EqStr("X", "Y"), sizes) == PConst(0)
    same = translate(EqStr("X", "Y"), SizeProfile(lengths={"X": 2, "Y": 2}))
    assert not taut_check(same)
    assert eval_prop(same, {("X", 0): 1, ("Y", 0): 1})
    assert not eval_prop(same, {("X", 0): 1, ("Y", 0): 0})


ADEQUACY_CASES = [
    AlN("z", Len(X), Imp(lt(Z, Len(X)), Or(Memb(Z, X), Not(Memb(Z, X))))),
    ExN("z", Len(X), And(lt(Z, Len(X)), Memb(Z, X))),
    Imp(Memb(Zero(), X), ExN("z", Len(X), Memb(Z, X))),
    AlN("z", Len(X), Or(Memb(Z, X), lt(Z, Len(X)))),
    EqStr(X, X),
]


@pytest.mark.parametrize("phi", ADEQUACY_CASES)
@pytest.mark.parametrize("n", range(6))
def test_translation_adequacy(phi, n):
    assert taut_check(translate(phi, for_len(n))) == holds_for_all(phi, n)


def test_translate_commutes_with_eval_formula():
    # the image at exact lengths, read under a string's bits, is the verdict
    # eval_formula gives on the string of those bits and that length
    rng = random.Random(20261019)
    formulas = []
    while len(formulas) < 200:
        f = gen_formula(rng, 4, [0], ["x", "y"], ["X", "Y"])
        if classify(f).level == 0:
            formulas.append(f)
    varying = 0
    for f in formulas:
        for _ in range(4):
            lengths = {"X": rng.randrange(5), "Y": rng.randrange(5)}
            values = {"x": rng.randrange(3), "y": rng.randrange(3)}
            try:
                image = translate(f, SizeProfile(lengths, values), num_bound=12)
            except SliceExceededError:
                continue
            varying += type(image) is not PConst
            names = [(s, i) for s, n in lengths.items() for i in range(n - 1)]
            for mask in range(1 << len(names)):
                bits = {nm: (mask >> k) & 1 for k, nm in enumerate(names)}
                strs = {s: "".join(str(bits[s, i]) for i in range(n - 1)) + "1" if n else ""
                        for s, n in lengths.items()}
                env = Assignment(dict(values), strs)
                assert eval_formula(f, FiniteSlice(12, 0), env) == eval_prop(image, bits)
    assert varying >= 100


def test_number_values_from_profile():
    phi = Memb(NVar("i"), X)
    sizes = SizeProfile(lengths={"X": 4}, values={"i": 1})
    assert translate(phi, sizes) == PVar(X, 1)
    with pytest.raises(Exception):
        translate(phi, for_len(4))  # i unbound


@pytest.mark.parametrize("phi", [
    Memb(NVar("j"), X), Leq(NVar("Y"), One()), EqNum(Len("i"), One()),
    EqNum(Len("Y"), One()), Leq(One(), NVar(5)), ExN("z", NVar("j"), TRUE),
    Memb(Zero(), "i"), EqStr("i", "X"), EqStr(5, "X")])
def test_translate_raises_the_oracle_error_on_a_bad_name(phi):
    # unbound, of the other sort or not a str: the oracle walker's error type
    with pytest.raises(Exception) as want:
        walk_formula(phi, FiniteSlice(8, 4), Assignment({"i": 1}, {"X": "0001"}))
    with pytest.raises(want.type):
        translate(phi, SizeProfile(lengths={"X": 4}, values={"i": 1}))


def test_translate_rejects_string_quantifier():
    with pytest.raises(ClassError):
        translate(ExS("Y", One(), EqStr("Y", "Y")), SizeProfile())
    # also below a connective, and an unknown node anywhere
    with pytest.raises(ClassError):
        translate(And(TRUE, ExS("Y", One(), EqStr("Y", "Y"))), SizeProfile())
    with pytest.raises(TypeError):
        translate(And(TRUE, object()), SizeProfile())


def test_translate_expansion_cap():
    phi = ExN("z", const_term(100), EqNum(Z, Z))
    with pytest.raises(SliceExceededError):
        translate(phi, SizeProfile(), num_bound=50)


def test_taut_check_basics():
    v = PVar("p", 0)
    assert taut_check(por([v, pnot(v)]))
    assert not taut_check(pand([v, pnot(v)]))
    assert taut_check(PConst(1))
    assert not taut_check(PConst(0))


def test_taut_check_variable_cap():
    wide = POr(tuple(PVar("p", i) for i in range(21)))
    with pytest.raises(BudgetError):
        taut_check(wide)
    assert not taut_check(wide, var_cap=21)


def test_depth_examples():
    lits = (PVar("p", 0), PNot(PVar("p", 1)), PVar("p", 2))
    assert prop_depth(PVar("p", 0)) == 1
    assert prop_depth(PNot(PVar("p", 0))) == 1
    assert prop_depth(PAnd(lits)) == 2
    assert prop_depth(PAnd((POr(lits), POr(lits)))) == 3
    assert prop_depth(PAnd((PAnd(lits), PVar("q", 0)))) == 2  # same kind merges
    assert prop_depth(PNot(PAnd(lits))) == 3


def test_growing_family_depth_stabilizes():
    # Sentences whose image grows with n cannot have constant depth starting
    # at n = 1: with a single free string of length 1 every position is the
    # pinned top bit, so the image folds to a constant (depth 1).  From n = 3
    # on the shape settles and the depth stays fixed while size keeps growing.
    excluded_middle = AlN("z", Len(X), Or(Memb(Z, X), Not(Memb(Z, X))))
    all_set = AlN("z", Len(X), Imp(lt(Z, Len(X)), Memb(Z, X)))
    for phi in (excluded_middle, all_set):
        images = [translate(phi, for_len(n)) for n in range(1, 9)]
        assert images[0] == PConst(1)
        depths = [prop_depth(p) for p in images[2:]]
        assert len(set(depths)) == 1
        sizes = [prop_size(p) for p in images[2:]]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]


def test_size_counts_nodes():
    p = PAnd((PVar("p", 0), PNot(PVar("p", 1))))
    assert prop_size(p) == 4
    assert prop_size(PConst(0)) == 1


def test_vars_sorted_unique():
    p = POr((PVar("b", 1), PVar("a", 2), PNot(PVar("b", 1))))
    assert prop_vars(p) == [("a", 2), ("b", 1)]


def test_translate_names_a_string_with_no_length():
    for text in ("(in 0 Y)", "(seteq X Y)", "(seteq Y X)"):
        with pytest.raises(UnboundVariableError, match="string parameter Y has no length"):
            translate(parse_formula(text), SizeProfile(lengths={"X": 2}))


def test_sexpr_roundtrip_fixed():
    p = PAnd((POr((PVar("X", 0), PNot(PVar("X", 1)))), PConst(1)))
    assert node_to_prop(read_one(prop_to_sexpr(p))) == p
    assert prop_to_sexpr(PVar("X", 3)) == "(pv X 3)"
    assert prop_to_sexpr(PConst(0)) == "(pc 0)"


def test_sexpr_parse_errors():
    for bad in ["(pq 1)", "(pc 2)", "(pv X 3) junk", "(pand (pc 1)", ""]:
        with pytest.raises(ParseError):
            node_to_prop(read_one(bad))


def _props(depth: int, min_args: int = 1):
    leaf = st.one_of(
        st.builds(PConst, st.integers(0, 1)),
        st.builds(PVar, st.sampled_from(["p", "q"]), st.integers(0, 3)))
    if depth == 0:
        return leaf
    sub = _props(depth - 1, min_args)
    args = st.lists(sub, min_size=min_args, max_size=3)
    return st.one_of(
        leaf,
        st.builds(PNot, sub),
        st.builds(lambda xs: PAnd(tuple(xs)), args),
        st.builds(lambda xs: POr(tuple(xs)), args))


@given(_props(3))
def test_sexpr_roundtrip_random(p):
    assert node_to_prop(read_one(prop_to_sexpr(p))) == p


@given(_props(3))
def test_taut_iff_no_countermodel(p):
    names = prop_vars(p)
    models = []
    for mask in range(1 << len(names)):
        env = {nm: (mask >> i) & 1 for i, nm in enumerate(names)}
        models.append(eval_prop(p, env))
    assert taut_check(p) == all(models)


# --- the walkers against their recursive definitions ---


def ref_eval(p, env):
    if type(p) is PConst:
        return bool(p.bit)
    if type(p) is PVar:
        return bool(env[(p.name, p.index)])
    if type(p) is PNot:
        return not ref_eval(p.arg, env)
    if type(p) is PAnd:
        return all(ref_eval(a, env) for a in p.args)
    return any(ref_eval(a, env) for a in p.args)


def ref_kind_depth(p):
    if type(p) in (PConst, PVar):
        return "leaf", 1
    if type(p) is PNot:
        kind, d = ref_kind_depth(p.arg)
        return "not", d if kind in ("not", "leaf") else d + 1
    label = "and" if type(p) is PAnd else "or"
    best = 1
    for a in p.args:
        kind, d = ref_kind_depth(a)
        best = max(best, d if kind == label else d + 1)
    return label, best


def ref_size(p):
    if type(p) in (PConst, PVar):
        return 1
    if type(p) is PNot:
        return 1 + ref_size(p.arg)
    return 1 + sum(ref_size(a) for a in p.args)


def ref_sexpr(p):
    if type(p) is PConst:
        return f"(pc {p.bit})"
    if type(p) is PVar:
        return f"(pv {p.name} {p.index})"
    if type(p) is PNot:
        return f"(pnot {ref_sexpr(p.arg)})"
    head = "pand" if type(p) is PAnd else "por"
    return f"({head} {' '.join(ref_sexpr(a) for a in p.args)})"


@given(_props(4, min_args=0), st.integers(0, 255))
def test_walkers_match_recursive_reference(p, mask):
    assert prop_size(p) == ref_size(p)
    assert prop_depth(p) == ref_kind_depth(p)[1]
    assert prop_to_sexpr(p) == ref_sexpr(p)
    full = {(nm, i): (mask >> (4 * (nm == "q") + i)) & 1 for nm in "pq" for i in range(4)}
    assert eval_prop(p, full) == ref_eval(p, full)
    # with variables missing, both stop at the same point or both raise
    partial = {k: v for k, v in full.items() if k[0] == "p"}
    try:
        want = ref_eval(p, partial)
    except KeyError:
        with pytest.raises(KeyError):
            eval_prop(p, partial)
    else:
        assert eval_prop(p, partial) == want


def test_walkers_take_any_depth():
    """A 6000-deep chain, far past the recursion limit, in every walker."""
    p = PVar("p", 0)
    for k in range(3000):
        p = PAnd((PVar("p", 1), PNot(p))) if k % 2 else POr((PNot(p), PVar("p", 2)))
    assert prop_size(p) == 1 + 3000 * 3
    assert prop_depth(p) == 2 * 3000  # two levels a step, less one: (pnot p0) adds none
    text = prop_to_sexpr(p)
    assert text.count("(") == prop_size(p) and text.startswith("(pand (pv p 1) (pnot (por")
    env = {("p", 0): 0, ("p", 1): 1, ("p", 2): 0}
    # under env each pair (pand p1 (pnot (por (pnot q) p2))) has the value of q
    assert eval_prop(p, env) is False
    assert eval_prop(p, {**env, ("p", 0): 1}) is True
