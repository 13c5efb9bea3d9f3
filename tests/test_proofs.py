"""Sequent-calculus proof checking."""

import hashlib
import random

import pytest
from oracles import proof_mutations, sequent_formula, soundness_sweep

from forge.errors import MalformedProofError, ParseError
from forge.prop import MAX_PROP_DEPTH, PAnd, PNot, POr, PVar, taut_check
from forge.proofs import (RULE_SHAPES, RULES, Proof, ProofLine, Sequent,
                          _rule_holds, check_depth_frege, check_frege,
                          corpus_proofs, parse_proof, proof_target,
                          proof_to_text, system_depth)

P = PVar("z", 0)
EM = POr((PNot(P), P))  # excluded middle


def line(left, right, rule, *prems, cut=0):
    return ProofLine(Sequent(tuple(left), tuple(right)), rule,
                     tuple(p - 1 for p in prems), cut)


EM_PROOF = Proof((
    line([P], [P], "axiom"),
    line([], [PNot(P), P], "not-right", 1),
    line([], [EM], "or-right", 2),
))


def test_excluded_middle_proof():
    assert check_frege(EM_PROOF, EM)


def test_rule_tag_mismatch_is_invalid():
    bad = Proof((EM_PROOF.lines[0],
                 ProofLine(EM_PROOF.lines[1].sequent, "and-right", (0,)),
                 EM_PROOF.lines[2]))
    assert not check_frege(bad, EM)


def test_empty_proof_rejected():
    assert not check_frege(Proof(()), EM)


def test_endsequent_must_match_target():
    assert not check_frege(EM_PROOF, P)
    shortened = Proof(EM_PROOF.lines[:2])
    assert not check_frege(shortened, EM)


def test_dangling_premise_is_malformed():
    bad = Proof((line([P], [P], "axiom"),
                 line([], [PNot(P), P], "not-right", 3)))
    with pytest.raises(MalformedProofError):
        check_frege(bad, EM)
    selfref = Proof((line([P], [P], "weak-left", 1),))
    with pytest.raises(MalformedProofError):
        check_frege(selfref, P)


def test_unknown_rule_is_malformed():
    bad = Proof((line([P], [P], "modus-ponens"),))
    with pytest.raises(MalformedProofError):
        check_frege(bad, P)


def test_axiom_shape():
    assert not check_frege(Proof((line([P], [P, P], "axiom"),)), P)
    assert not check_frege(Proof((
        line([P], [P], "axiom"),
        line([P], [P], "axiom", 1),  # axioms take no premises
        line([], [EM], "or-right", 2))), EM)


def test_arity_mismatches_rejected():
    two = PAnd((P, PVar("z", 1)))
    assert not check_frege(Proof((
        line([P], [P], "axiom"),
        line([P], [two], "and-right", 1),  # needs one premise per conjunct
    )), two)
    assert not check_frege(Proof((
        line([P], [P], "axiom"),
        line([P], [P, P], "weak-right"),
    )), P)


def test_cut_requires_matching_contexts():
    _, pi = [c for c in corpus_proofs() if c[0] == "corpus03.pk"][0]
    target = proof_target(pi)
    assert check_frege(pi, target)
    cut_line = pi.lines[-1]
    assert cut_line.rule == "cut"
    wrong = ProofLine(cut_line.sequent, "cut", cut_line.premises, cut_index=0)
    assert not check_frege(Proof(pi.lines[:-1] + (wrong,)), target)
    oob = ProofLine(cut_line.sequent, "cut", cut_line.premises, cut_index=9)
    assert not check_frege(Proof(pi.lines[:-1] + (oob,)), target)


def test_corpus_text_roundtrip():
    for name, pi in corpus_proofs():
        assert parse_proof(proof_to_text(pi)) == pi, name


def test_depth_frege_examples():
    assert check_depth_frege(EM_PROOF, EM, 2)
    assert not check_depth_frege(EM_PROOF, EM, 1)
    assert not check_depth_frege(EM_PROOF, EM, 0)


def test_depth_monotone_over_corpus():
    for name, pi in corpus_proofs():
        target = proof_target(pi)
        verdicts = [check_depth_frege(pi, target, d) for d in range(1, 5)]
        assert verdicts == sorted(verdicts), name
        assert verdicts[-1], name  # corpus depths never exceed 4


def test_deep_cut_formula_counts_toward_depth():
    deep = PNot(PAnd((P, PVar("z", 1))))  # depth 3, above the endsequent's 2
    pi = Proof(EM_PROOF.lines + (
        line([], [EM, deep], "weak-right", 3),
        line([deep], [EM], "weak-left", 3),
        line([], [EM], "cut", 4, 5, cut=1),
    ))
    assert check_frege(pi, EM)
    assert check_depth_frege(pi, EM, 3)
    assert not check_depth_frege(pi, EM, 2)


def test_depth_frege_implies_frege():
    for name, pi in corpus_proofs():
        target = proof_target(pi)
        for d in range(1, 5):
            if check_depth_frege(pi, target, d):
                assert check_frege(pi, target), name


def test_forged_proof_never_reaches_taut_stage():
    contradiction = PAnd((P, PNot(P)))
    forged = Proof((line([], [contradiction], "axiom"),))
    report = soundness_sweep("frege", 12, [forged])
    assert report["accepted"] == 0
    assert report["failures"] == []


def test_depth_frege_sweep():
    corpus = [pi for _, pi in corpus_proofs()]
    report = soundness_sweep(("depth-frege", 2), 12, corpus)
    assert 0 < report["accepted"] < 10
    assert report["failures"] == []
    assert soundness_sweep(("depth-frege", 0), 12, corpus)["accepted"] == 0
    assert system_depth("frege") is None
    assert system_depth(("depth-frege", 0)) == 0
    for bad in ["resolution", ("depth-frege", -1), ("depth-frege", 2.0),
                ("depth-frege", True)]:
        with pytest.raises(ValueError):
            system_depth(bad)


def test_every_corpus_line_is_a_tautological_sequent():
    # the rules are sound line by line, not only at the endsequent
    corpus = corpus_proofs()
    lines = [(name, i, ln) for name, pi in corpus for i, ln in enumerate(pi.lines, 1)]
    assert len(lines) > len(corpus)
    for name, i, ln in lines:
        assert taut_check(sequent_formula(ln.sequent)), (name, i)
    assert not taut_check(sequent_formula(Sequent((P,), (PVar("z", 1),))))


def test_parse_errors():
    good = "1: (seq ((pv z 0)) ((pv z 0))) axiom\n"
    for bad, line, col in [
        ("2: (seq () ()) axiom\n", 1, 1),                 # labels must start at 1
        (good + "3: (seq () ()) weak-left 1\n", 2, 1),    # and stay sequential
        (good + "  3: (seq () ()) axiom\n", 2, 3),
        ("1: (seq ((pv z 0)) ((pv z 0))) frobnicate\n", 1, 32),
        ("1: (seq ((pv z 0)) ((pv z 0))) axiom zero\n", 1, 38),
        ("1: (seq ((pv z 0))) axiom\n", 1, 4),
        ("1: (seq ((pv z 0)) ((pv z 0)) axiom\n", 1, 4),
        ("1: (seq ((pv z 0)) ((pv z 0))) cut:x 1 1\n", 1, 32),
        ("x: (seq () ()) axiom\n", 1, 1),
        ("\u00b2: (seq () ()) axiom\n", 1, 1),           # a digit, not decimal
        ("1: (seq ((pv z 0)) ((pv z 0))) axiom \u00b2\n", 1, 38),
        (good + "2: (seq ((pv z 0)) ((pq z 0))) axiom\n", 2, 22),
        (good + "2: (seq ((pv z 0)) ((pv z x))) axiom\n", 2, 27),
        (good + "2: (seq ((pv z 0)) ((pv z 0)))\n", 2, 31),   # no rule tag
        # a constant's spelling is one atom: no rule tag, no variable name
        ("1: (seq ((pv z 0)) ((pv z 0))) (* (+ 1 1) 1)\n", 1, 32),
        (good + "2: (seq ((pv (* (+ 1 1) 1) 0)) ()) axiom\n", 2, 10),
        # read from column 5, past "\t 2:", after a comment holding parentheses
        (good.replace("\n", " ; (x) y)\r\n") + "\t 2:\t(seq ((pv z 0))\t((pq z 0))) axiom\r\n",
         2, 24),
    ]:
        with pytest.raises(ParseError) as e:
            parse_proof(bad)
        assert (e.value.line, e.value.column) == (line, col), bad
    assert len(parse_proof(good + "# comment\n\n").lines) == 1
    assert parse_proof(good.replace("axiom", "axiom ; no premises")) == parse_proof(good)


def test_nesting_cap():
    def em(k):  # the excluded-middle proof; its deepest formula nests k deep
        a = "(pnot " * (k - 3) + "(pv z 0)" + ")" * (k - 3)
        return (f"1: (seq ({a}) ({a})) axiom\n"
                f"2: (seq () ((pnot {a}) {a})) not-right 1\n"
                f"3: (seq () ((por (pnot {a}) {a}))) or-right 2\n")
    pi = parse_proof(em(MAX_PROP_DEPTH))
    target = proof_target(pi)
    assert check_frege(pi, target)
    assert check_depth_frege(pi, target, MAX_PROP_DEPTH)
    text = em(MAX_PROP_DEPTH + 1)
    with pytest.raises(ParseError) as e:
        parse_proof(text)
    assert (e.value.line, e.value.column) == (3, text.splitlines()[2].index("(pv") + 1)


def test_rules_catalog():
    assert len(RULES) == 10
    assert tuple(RULE_SHAPES) == RULES
    for family, side, conn in RULE_SHAPES.values():
        assert family in ("axiom", "weak", "not", "merge", "split", "cut")
        assert (side is None) == (family in ("axiom", "cut"))
        assert (conn is None) == (family in ("axiom", "weak", "cut"))
    assert "cut" in RULES and "axiom" in RULES


# --- verdict pin ---
#
# A seeded sweep of single-line verdicts: small conclusions over POOL, and
# premise lists built from each conclusion by undoing one rule (drop a
# formula, move a negation's argument across, unfold a connective into one
# premise or into one premise per child, cut a formula in), half of them then
# disturbed by one random edit.  Every candidate is judged under all ten
# tags.  The corpus adds each real line with its real premises under every
# tag, and check_frege on every corpus proof and its mutations.

Q = PVar("z", 1)
POOL = (P, Q, PNot(P), PNot(Q), PAnd((P, Q)), POr((P, Q)), PNot(PAnd((P, Q))),
        POr((Q, PNot(P))), PAnd((P, P, Q)))
VERDICT_DIGEST = "eb1e61b5a12caf7164f761614c96b7d03766fd7c36cda4db9e9d4b024c428dc7"


def _oriented(side, principal, other):
    return Sequent(principal, other) if side == 0 else Sequent(other, principal)


def _undone(c):
    """Premise lists from which one rule step could yield the conclusion c."""
    out = []
    for side in (0, 1):
        cp, co = (c.left, c.right) if side == 0 else (c.right, c.left)
        for at, f in enumerate(cp):
            rest = cp[:at] + cp[at + 1:]
            out.append([_oriented(side, rest, co)])
            if type(f) is PNot:
                out.append([_oriented(side, rest, co + (f.arg,))])
            if type(f) in (PAnd, POr):
                out.append([_oriented(side, rest + f.args, co)])
                out.append([_oriented(side, rest + (a,), co) for a in f.args])
    return out


def _disturbed(rng, prems):
    prems = list(prems)
    if not prems:
        return [Sequent((rng.choice(POOL),), ())]
    k = rng.randrange(len(prems))
    s = prems[k]
    edit = rng.randrange(4)
    if edit == 0:
        s = Sequent(s.left + (rng.choice(POOL),), s.right)
    elif edit == 1:
        s = Sequent(s.left, s.right[1:])
    elif edit == 2:
        s = Sequent(s.right, s.left)
    else:
        prems.append(s)
    prems[k] = s
    return prems


def _verdicts():
    rng = random.Random(20130)
    out = []
    for _ in range(1500):
        if rng.random() < 0.1:
            f = rng.choice(POOL)
            c = Sequent((f,), (f,))
        else:
            c = Sequent(tuple(rng.choice(POOL) for _ in range(rng.randrange(4))),
                        tuple(rng.choice(POOL) for _ in range(rng.randrange(4))))
        a = rng.choice(POOL)
        cands = _undone(c) + [[], [Sequent(c.left, c.right + (a,)),
                                  Sequent(c.left + (a,), c.right)]]
        for prems in cands:
            cut = len(c.right) if len(prems) == 2 else rng.randrange(3)
            if rng.random() < 0.5:
                prems = _disturbed(rng, prems)
            for rule in RULES:
                out.append((rule, _rule_holds(ProofLine(c, rule, (), cut), prems)))
    for _, pi in corpus_proofs():
        for ln in pi.lines:
            prems = [pi.lines[p].sequent for p in ln.premises]
            for rule in RULES:
                out.append((rule, _rule_holds(ProofLine(ln.sequent, rule, ln.premises,
                                                        ln.cut_index), prems)))
        target = proof_target(pi)
        out.append(("check_frege", check_frege(pi, target)))
        for _, bad in proof_mutations(pi):
            out.append(("check_frege", check_frege(bad, target)))
    return out


def test_rule_verdict_digest():
    verdicts = _verdicts()
    bits = "".join("1" if v else "0" for _, v in verdicts)
    assert hashlib.sha256(bits.encode()).hexdigest() == VERDICT_DIGEST
    for rule in RULES:
        seen = {v for r, v in verdicts if r == rule}
        assert seen == {True, False}, rule
