"""Sequent-calculus proof checking."""

import pytest

from forge.errors import MalformedProofError, ParseError
from forge.prop import PAnd, PNot, POr, PVar, taut_check
from forge.proofs import (Proof, ProofLine, RULES, Sequent, check_depth_frege,
                          check_frege, corpus_proofs, parse_proof,
                          proof_mutations, proof_target, proof_to_text,
                          sequent_formula, soundness_sweep)
from forge.sexpr import MAX_DEPTH

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


def test_corpus_all_valid_and_sound():
    corpus = corpus_proofs()
    assert len(corpus) == 10
    for name, pi in corpus:
        target = proof_target(pi)
        assert target is not None, name
        assert check_frege(pi, target), name
        assert taut_check(target), name
    report = soundness_sweep("frege", 12, [pi for _, pi in corpus])
    assert report["accepted"] == 10
    assert report["failures"] == []


def test_corpus_text_roundtrip():
    for name, pi in corpus_proofs():
        assert parse_proof(proof_to_text(pi)) == pi, name


def test_every_mutation_rejected():
    for name, pi in corpus_proofs():
        target = proof_target(pi)
        for desc, mut in proof_mutations(pi):
            try:
                ok = check_frege(mut, target)
            except MalformedProofError:
                ok = False
            assert not ok, f"{name}: {desc}"


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
    with pytest.raises(ValueError):
        soundness_sweep("resolution", 12, corpus)


def test_sequent_formula_reading():
    q = PVar("z", 1)
    s = Sequent((P,), (q,))
    assert sequent_formula(s) == POr((PNot(P), q))
    assert sequent_formula(Sequent((), (q,))) == q


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
    ]:
        with pytest.raises(ParseError) as e:
            parse_proof(bad)
        assert (e.value.line, e.value.column) == (line, col), bad
    assert len(parse_proof(good + "# comment\n\n").lines) == 1
    assert parse_proof(good.replace("axiom", "axiom ; no premises")) == parse_proof(good)


def test_nesting_cap():
    def deep(k):  # the seq list and a side list take two of the k levels
        f = "(pnot " * (k - 3) + "(pv z 0)" + ")" * (k - 3)
        return f"1: (seq ({f}) ({f})) axiom\n"
    assert len(parse_proof(deep(MAX_DEPTH)).lines) == 1
    with pytest.raises(ParseError) as e:
        parse_proof(deep(MAX_DEPTH + 1))
    assert e.value.line == 1


def test_rules_catalog():
    assert len(RULES) == 10
    assert "cut" in RULES and "axiom" in RULES
