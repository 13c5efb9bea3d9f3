"""Bit-string encodings and the checker formulas that read them."""

import hashlib
import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st
from oracles import proof_mutations, soundness_sweep

from forge.codec import bit_at, mask_to_bits
from forge.errors import DecodeError, EncodeError
from forge.evaluate import Assignment, FiniteSlice, eval_formula
from forge.formulas import Formula, classify, free_vars
from forge.machine import PolyBound
from forge.proofs import (RULES, Proof, ProofLine, Sequent, check_frege,
                          corpus_proofs, proof_target)
from forge.prop import (PAnd, PConst, PNot, POr, PVar, SizeProfile, eval_prop,
                        prop_to_sexpr, translate)
from forge.reflect import (NODE_WIDTH, compile_formula_wf, compile_proof_check,
                           compile_sat, decode_formula, decode_proof,
                           encode_formula, encode_proof, reflection_instance)

Z0, Z1, Z7 = PVar("z", 0), PVar("z", 1), PVar("z", 7)

# Not a proof system: every function that takes one must raise ValueError.
BAD_SYSTEMS = ["resolution", 7, ("depth-frege", -1), ("depth-frege", "2"),
               ("depth-frege", 2.0), ("depth-frege", True), ("depth-frege",),
               ("frege", 2)]

SAMPLE_FORMULAS = [
    PConst(0),
    PConst(1),
    Z0,
    PNot(Z0),
    POr((PNot(Z0), Z0)),
    PAnd((Z0, PAnd((Z1, Z7)))),
    PNot(PAnd((POr((Z0, Z1)), Z1))),
]

# strict spine form: principal formulas first, contexts in premise order
STRICT_CORPUS = {"corpus01.pk", "corpus03.pk", "corpus05.pk",
                 "corpus06.pk", "corpus07.pk", "corpus09.pk"}


def _axiom_proof() -> Proof:
    return Proof((ProofLine(Sequent((Z0,), (Z0,)), "axiom"),))


# --- formula encoding ---


def test_version_is_pinned():
    assert encode_formula(Z0).startswith("10")
    assert encode_proof(_axiom_proof()).startswith("10")


@pytest.mark.parametrize("p", SAMPLE_FORMULAS)
def test_formula_roundtrip(p):
    enc = encode_formula(p)
    assert decode_formula(enc) == p
    assert enc.endswith("1") and len(enc) % 6 == 3


def test_formula_roundtrip_corpus_targets():
    for name, pi in corpus_proofs():
        target = proof_target(pi)
        assert decode_formula(encode_formula(target)) == target, name


def test_encode_binarizes_wide_connectives():
    wide = PAnd((Z0, Z1, Z7))
    assert decode_formula(encode_formula(wide)) == PAnd((Z0, PAnd((Z1, Z7))))


def test_encode_formula_rejects_foreign_shapes():
    with pytest.raises(EncodeError):
        encode_formula(PVar("x", 0))
    with pytest.raises(EncodeError):
        encode_formula(PVar("z", 8))
    deep = Z0
    for _ in range(14):
        deep = PNot(deep)
    with pytest.raises(EncodeError):
        encode_formula(deep)


def test_decode_formula_rejects_framing_violations():
    enc = encode_formula(POr((PNot(Z0), Z0)))
    bad = [
        "",
        "1",
        enc[:-1],                        # length off the node grid
        "01" + enc[2:],                  # version
        enc[:-1] + "0",                  # terminator
        enc[:2] + "011000" + enc[8:],    # tag 6
        enc[:2] + "111000" + enc[8:],    # tag 7
        enc[:2] + "100100" + enc[8:],    # payload on a constant
        "10" + "101000" + "1",           # negation child out of range
        enc.replace("1", "2", 1),        # non-bit character
    ]
    for s in bad:
        with pytest.raises(DecodeError):
            decode_formula(s)


@st.composite
def _encodable(draw, depth=3):
    leaf = st.sampled_from([PConst(0), PConst(1)] +
                           [PVar("z", v) for v in range(8)])
    node = st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(lambda a, b: PAnd((a, b)), sub, sub),
            st.builds(lambda a, b: POr((a, b)), sub, sub),
            st.builds(PNot, sub)),
        max_leaves=depth)
    return draw(node)


@given(_encodable())
def test_formula_roundtrip_random(p):
    assert decode_formula(encode_formula(p)) == p


# --- proof encoding ---


def test_proof_roundtrip_corpus():
    for name, pi in corpus_proofs():
        assert decode_proof(encode_proof(pi)) == pi, name


def test_proof_encodings_prefix_free():
    encs = [encode_proof(pi) for _, pi in corpus_proofs()]
    for a in encs:
        for b in encs:
            assert a == b or not a.startswith(b)


def test_minimal_proof_frame_width():
    # one line, one formula per side, one node slot: nothing fits below this
    assert len(encode_proof(_axiom_proof())) == 32


def test_encode_proof_rejects_unframeable_shapes():
    line = _axiom_proof().lines[0]
    with pytest.raises(EncodeError):
        encode_proof(Proof(()))
    with pytest.raises(EncodeError):
        encode_proof(Proof((ProofLine(line.sequent, "modus-ponens"),)))
    with pytest.raises(EncodeError):
        encode_proof(Proof((ProofLine(line.sequent, "axiom", (0, 1, 2)),)))
    with pytest.raises(EncodeError):
        encode_proof(Proof((ProofLine(line.sequent, "weak-left", (5,)),)))
    with pytest.raises(EncodeError):
        encode_proof(Proof((ProofLine(line.sequent, "axiom", (), 1),)))


def _flip(s: str, at: int) -> str:
    return s[:at] + ("1" if s[at] == "0" else "0") + s[at + 1:]


def _hot_field(enc: str, line: int, field: str) -> tuple[int, int]:
    """(offset, width) of one-hot field "cut", "pa" or "pb" of a line of
    the proof string enc, by the layout arithmetic of the module docstring."""
    nl, nf, ns = (len(ones) for ones in enc[2:].split("0")[:3])
    side = nf * (1 + ns * NODE_WIDTH)
    cut = 2 + nl + nf + ns + 3 + line * (2 * side + 6 + nf + 2 * nl) + 2 * side + 4
    return {"cut": (cut, nf), "pa": (cut + nf + 2, nl), "pb": (cut + nf + 2 + nl, nl)}[field]


def _hot_flip(enc: str, line: int, field: str, at: int) -> str:
    off, width = _hot_field(enc, line, field)
    assert at < width
    return _flip(enc, off + at)


def test_decode_proof_rejects_field_violations():
    enc = encode_proof(_axiom_proof())
    # layout: version 0..2, unary header 2..8, presence 8, left record
    # 9..15, presence 15, right record 16..22, rule 22..26, cut 26..27,
    # premise counts 27..29, premise one-hots 29..31, terminator 31
    cases = {
        "version": _flip(enc, 0),
        "rule tag 15": enc[:22] + "1111" + enc[26:],
        "cut bit without cut rule": _flip(enc, 26),
        "premise count not monotone": _flip(enc, 28),
        "bits in unused premise slot": _flip(enc, 29),
        "junk beyond the frame": enc + "01",
        "terminator": enc[:-1] + "0",
        "empty proof": "10" + "0" + "10" + "10" + "1",
        "zero field capacity in header": "10" + "10" + "0" + "10" + "1",
    }
    # line 1 of corpus01, an axiom whose left side leaves a record absent,
    # in a proof the checker formula accepts
    pi = dict(corpus_proofs())["corpus01.pk"]
    good = encode_proof(pi)
    nl, ns, nf = (len(ones) for ones in good[2:].split("0")[:3])
    line1 = 2 + nl + ns + nf + 3
    rule = line1 + 2 * ns * (1 + nf * NODE_WIDTH)
    counts = rule + 4 + ns
    cut_tag = format(RULES.index("cut"), "04b")[::-1]  # low bit first
    rejects = {
        "nonzero bits in an absent record": _flip(good, line1 + ns + nf * NODE_WIDTH),
        "cut position is not a one-hot": good[:rule] + cut_tag + good[rule + 4:],
        "premise reference is not a one-hot": good[:counts] + "10" + good[counts + 2:],
    }
    for label, bad in cases.items():
        with pytest.raises(DecodeError):
            decode_proof(bad)
        assert decode_proof(enc) == _axiom_proof(), label  # flip was local
    for message, bad in rejects.items():
        with pytest.raises(DecodeError, match=message):
            decode_proof(bad)
    # the checker formula rejects every string the decoder rejects
    prf = compile_proof_check("frege", slot_cap=4)
    xenc = encode_formula(proof_target(pi))
    assert _accepts(prf, good, xenc)
    for label, bad in {**cases, **rejects}.items():
        assert not _accepts(prf, bad, xenc), label
    # each one-hot field two-hot, clear while used and set while unused, on
    # corpus03: line 7 is a cut at 1 from lines 3 and 6, line 1 has one
    # premise and line 0 none
    pi = dict(corpus_proofs())["corpus03.pk"]
    good = encode_proof(pi)
    assert [_hot_field(good, 7, f) for f in ("cut", "pa", "pb")] == [
        (991, 2), (995, 8), (1003, 8)]
    assert good[991:] == "01" "11" "00010000" "00000010" "1"
    not_hot, unused = "premise reference is not a one-hot", "bits in an unused premise slot"
    one_hots = {
        ("cut", "two-hot"): (_hot_flip(good, 7, "cut", 0), "cut position is not a one-hot"),
        ("cut", "clear"): (_hot_flip(good, 7, "cut", 1), "cut position is not a one-hot"),
        ("cut", "unused"): (_hot_flip(good, 0, "cut", 0), "cut bits on a non-cut line"),
        ("pa", "two-hot"): (_hot_flip(good, 7, "pa", 0), not_hot),
        ("pa", "clear"): (_hot_flip(good, 7, "pa", 3), not_hot),
        ("pa", "unused"): (_hot_flip(good, 0, "pa", 0), unused),
        ("pb", "two-hot"): (_hot_flip(good, 7, "pb", 0), not_hot),
        ("pb", "clear"): (_hot_flip(good, 7, "pb", 6), not_hot),
        ("pb", "unused"): (_hot_flip(good, 1, "pb", 0), unused),
    }
    xenc = encode_formula(proof_target(pi))
    assert _accepts(prf, good, xenc)
    for label, (bad, message) in one_hots.items():
        with pytest.raises(DecodeError, match=message):
            decode_proof(bad)
        assert not _accepts(prf, bad, xenc), label
    with pytest.raises(EncodeError, match="cut index exceeds side capacity"):
        encode_proof(Proof(_axiom_proof().lines + (
            ProofLine(Sequent((), (Z0,)), "cut", (0, 0), cut_index=5),)))


def test_decode_proof_rejects_every_truncation():
    enc = encode_proof(dict(corpus_proofs())["corpus01.pk"])
    for cut in range(len(enc)):
        with pytest.raises(DecodeError):
            decode_proof(enc[:cut])


def test_decode_proof_rejects_loose_presence_bits():
    # two formulas on a side so the presence field is wide enough to gap
    pi = dict(corpus_proofs())["corpus01.pk"]
    enc = encode_proof(pi)
    # header: version 2 + (3+1) + (2+1) + (4+1) = 14; line 1 (not-right)
    # has an empty left side, so its left presence bits sit at 14 + 114.
    base = 14 + 114
    gapped = _flip(enc, base + 1)
    with pytest.raises(DecodeError):
        decode_proof(gapped)


# --- the well-formedness formula ---


def _wf_oracle(x: str) -> bool:
    if len(x) < 9 or (len(x) - 3) % 6:
        return False
    if x[0] != "1" or x[1] == "1" or x[-1] != "1":
        return False
    s = (len(x) - 3) // 6
    for i in range(1, s + 1):
        rec = x[2 + (i - 1) * 6:2 + i * 6]
        tag = int(rec[:3][::-1], 2)
        payload = int(rec[3:][::-1], 2)
        if tag > 5 or (tag != 2 and payload):
            return False
        if tag == 5 and 2 * i > s:
            return False
        if tag in (3, 4) and 2 * i + 1 > s:
            return False
    return True


def test_wf_formula_matches_oracle_below_12():
    fla = compile_formula_wf()
    assert str(classify(fla)) == "SigmaB(0)"
    assert free_vars(fla) == (set(), {"X"})
    sl = FiniteSlice(12, 12)
    hits = []
    for mask in range(1 << 12):
        x = mask_to_bits(mask)
        got = eval_formula(fla, sl, Assignment(strs={"X": x}))
        assert got == _wf_oracle(x), x
        if got:
            hits.append(x)
    single_slot = [PConst(0), PConst(1)] + [PVar("z", v) for v in range(8)]
    assert sorted(hits) == sorted(encode_formula(p) for p in single_slot)


def test_wf_formula_accepts_corpus_targets():
    fla = compile_formula_wf()
    for name, pi in corpus_proofs():
        enc = encode_formula(proof_target(pi))
        sl = FiniteSlice(len(enc), len(enc))
        assert eval_formula(fla, sl, Assignment(strs={"X": enc})), name


# --- the satisfaction formula ---


@lru_cache(maxsize=None)
def _sat(cap: int) -> Formula:
    """compile_sat(cap), built once per cap, so that eval_formula's kept
    compile of it serves every example with that cap."""
    return compile_sat(cap)


def _sat_holds(p, zmask: int) -> bool:
    enc = encode_formula(p)
    sat = _sat((len(enc) - 3) // 6)
    sl = FiniteSlice(max(8, len(enc)), 8)
    zs = mask_to_bits(zmask)
    return eval_formula(sat, sl, Assignment(strs={"Z": zs, "X": enc}))


@pytest.mark.parametrize("p", SAMPLE_FORMULAS)
def test_sat_matches_prop_semantics(p):
    # _sat_holds for every zmask, with the formula and slice built once
    enc = encode_formula(p)
    sat = compile_sat((len(enc) - 3) // 6)
    sl = FiniteSlice(max(8, len(enc)), 8)
    for zmask in range(256):
        zs = mask_to_bits(zmask)
        want = eval_prop(p, {("z", v): bit_at(zs, v) for v in range(8)})
        assert eval_formula(sat, sl, Assignment(strs={"Z": zs, "X": enc})) == want, (p, zs)


@given(_encodable(), st.integers(0, 255))
def test_sat_matches_prop_semantics_random(p, zmask):
    zs = mask_to_bits(zmask)
    want = eval_prop(p, {("z", v): bit_at(zs, v) for v in range(8)})
    assert _sat_holds(p, zmask) == want


def test_sat_is_quantifier_free():
    sat = compile_sat(4)
    assert str(classify(sat)) == "SigmaB(0)"
    assert free_vars(sat) == (set(), {"X", "Z"})


def test_sat_slot_cap_truncates():
    enc = encode_formula(PAnd((Z0, Z1)))  # needs three slots
    sat = compile_sat(1)
    sl = FiniteSlice(len(enc), 8)
    env = Assignment(strs={"Z": "11", "X": enc})
    assert not eval_formula(sat, sl, env)
    with pytest.raises(ValueError):
        compile_sat(0)


# --- the proof-validity formula ---


def _accepts(prf, penc: str, xenc: str) -> bool:
    n = max(len(penc), len(xenc))
    return eval_formula(prf, FiniteSlice(n, n),
                        Assignment(strs={"P": penc, "X": xenc}))


def test_proof_check_shape():
    prf = compile_proof_check("frege", slot_cap=4)
    assert str(classify(prf)) == "SigmaB(0)"
    assert free_vars(prf) == (set(), {"P", "X"})
    with pytest.raises(ValueError):
        compile_proof_check("frege", slot_cap=0)


def test_proof_check_accepts_strict_corpus():
    prf = compile_proof_check("frege", slot_cap=19)
    verdicts = {}
    for name, pi in corpus_proofs():
        verdicts[name] = _accepts(prf, encode_proof(pi),
                                  encode_formula(proof_target(pi)))
    assert {n for n, v in verdicts.items() if v} == STRICT_CORPUS


def test_proof_check_never_outruns_python_checker():
    prf = compile_proof_check("frege", slot_cap=19)
    for name, pi in corpus_proofs():
        if _accepts(prf, encode_proof(pi), encode_formula(proof_target(pi))):
            assert check_frege(pi, proof_target(pi)), name


def test_proof_check_rejects_bit_flips():
    pi = dict(corpus_proofs())["corpus01.pk"]
    penc = encode_proof(pi)
    xenc = encode_formula(proof_target(pi))
    prf = compile_proof_check("frege", slot_cap=4)
    assert _accepts(prf, penc, xenc)
    rng = random.Random(0)
    spots = set(rng.sample(range(len(penc)), 60)) | {0, 1, 2, len(penc) - 1}
    for at in spots:
        assert not _accepts(prf, _flip(penc, at), xenc), at


def test_proof_check_rejects_encodable_mutations():
    pi = dict(corpus_proofs())["corpus01.pk"]
    xenc = encode_formula(proof_target(pi))
    prf = compile_proof_check("frege", slot_cap=4)
    tried = 0
    for label, mut in proof_mutations(pi):
        try:
            menc = encode_proof(mut)
        except EncodeError:
            continue
        tried += 1
        assert not _accepts(prf, menc, xenc), label
    assert tried >= 5


def test_proof_check_rejects_wrong_target():
    corpus = dict(corpus_proofs())
    pi = corpus["corpus01.pk"]
    other = encode_formula(proof_target(corpus["corpus08.pk"]))
    prf = compile_proof_check("frege", slot_cap=4)
    assert not _accepts(prf, encode_proof(pi), other)


@pytest.mark.parametrize("plen", [8, 16])
def test_proof_check_image_is_eval_formula_below_frame_minimum(plen):
    # translate stops at the first part that settles a connective or a sweep,
    # which is what keeps this image cheap; it is a constant, and it must be
    # the value eval_formula gives at exact-length strings of these sizes
    prf = compile_proof_check("frege", slot_cap=1)
    img = translate(prf, SizeProfile(lengths={"P": plen, "X": 4}))
    assert type(img) is PConst
    rng = random.Random(plen)
    for _ in range(3):
        penc = "".join(rng.choice("01") for _ in range(plen - 1)) + "1"
        xenc = "".join(rng.choice("01") for _ in range(3)) + "1"
        assert _accepts(prf, penc, xenc) == bool(img.bit)


def test_proof_check_image_at_the_smallest_proof_length():
    prf = compile_proof_check("frege", slot_cap=1)
    penc, xenc = encode_proof(_axiom_proof()), encode_formula(PConst(1))
    img = translate(prf, SizeProfile(lengths={"P": len(penc), "X": len(xenc)}))
    assert type(img) is not PConst  # 32 bits fit one axiom line
    # the encoding and its flips below the top bit, which exact length pins
    for i in range(-1, len(penc) - 1):
        p = penc if i < 0 else penc[:i] + "10"[int(penc[i])] + penc[i + 1:]
        bits = {("P", j): int(b) for j, b in enumerate(p)}
        bits.update({("X", j): int(b) for j, b in enumerate(xenc)})
        assert eval_prop(img, bits) == _accepts(prf, p, xenc)


# sha256 prefixes of prop_to_sexpr(translate(...)), recorded before term reads
# in translate went through the compiler: a change to how translate reads
# terms must leave every image byte for byte as it was
SAT_IMAGES = {1: "0a512954883f4087", 2: "2ea21d8198504552", 3: "303af46880c88988",
              4: "3fe019ce9810738e", 5: "9792526d0cca6d90", 6: "087f04efd7ca0e52",
              7: "72b6975982616652", 8: "24ab775226b1b7d1"}
PROOF_CHECK_IMAGES = {8: "f5b152b0f2af86dc", 16: "f5b152b0f2af86dc", 32: "b89a6871b5913750"}


def image_digest(p) -> str:
    return hashlib.sha256(prop_to_sexpr(p).encode()).hexdigest()[:16]


def test_translate_images_are_pinned():
    for cap, digest in SAT_IMAGES.items():
        sizes = SizeProfile(lengths={"X": 2 + cap * NODE_WIDTH, "Z": 8})
        assert image_digest(translate(compile_sat(cap), sizes)) == digest, cap
    prf = compile_proof_check("frege", slot_cap=1)
    xlen = len(encode_formula(PConst(1)))
    for plen, digest in PROOF_CHECK_IMAGES.items():
        img = translate(prf, SizeProfile(lengths={"P": plen, "X": 4 if plen < 32 else xlen}))
        assert image_digest(img) == digest, plen


def test_proof_check_vacuous_below_frame_minimum():
    prf = compile_proof_check("frege", slot_cap=2)
    xenc = encode_formula(PConst(1))
    sl = FiniteSlice(12, 12)
    for mask in range(1 << 12):
        env = Assignment(strs={"P": mask_to_bits(mask), "X": xenc})
        assert not eval_formula(prf, sl, env)


def test_depth_variant_bounds_record_depth():
    # corpus06 packs nodes down to heap slot 19, depth 5
    corpus = dict(corpus_proofs())
    deep = corpus["corpus06.pk"]
    penc = encode_proof(deep)
    xenc = encode_formula(proof_target(deep))
    assert _accepts(compile_proof_check(("depth-frege", 5), slot_cap=19),
                    penc, xenc)
    assert not _accepts(compile_proof_check(("depth-frege", 4), slot_cap=19),
                        penc, xenc)
    shallow = corpus["corpus01.pk"]
    assert _accepts(compile_proof_check(("depth-frege", 3), slot_cap=4),
                    encode_proof(shallow),
                    encode_formula(proof_target(shallow)))


# --- reflection instances ---


def test_reflection_honest_is_true_below_12():
    inst = reflection_instance("frege", PolyBound((12,), constant=True), 0)
    assert str(classify(inst)) == "PiB(1)"
    assert free_vars(inst) == (set(), set())
    assert eval_formula(inst, FiniteSlice(12, 12), Assignment())


def test_reflection_broken_is_false_below_12():
    inst = reflection_instance("frege", PolyBound((12,), constant=True), 0,
                               checker="broken")
    assert str(classify(inst)) == "PiB(1)"
    assert not eval_formula(inst, FiniteSlice(12, 12), Assignment())


def test_reflection_depth_system_matches_frege_on_empty_slice():
    inst = reflection_instance(("depth-frege", 2),
                               PolyBound((12,), constant=True), 0)
    assert eval_formula(inst, FiniteSlice(12, 12), Assignment())


def test_reflection_scales_with_argument():
    t = PolyBound((0, 3))
    inst = reflection_instance("frege", t, 4)
    assert eval_formula(inst, FiniteSlice(12, 12), Assignment())


def test_reflection_validates_arguments():
    t = PolyBound((12,), constant=True)
    corpus = [pi for _, pi in corpus_proofs()]
    for bad in BAD_SYSTEMS:
        for call in (lambda: soundness_sweep(bad, 12, corpus),
                     lambda: compile_proof_check(bad, slot_cap=1),
                     lambda: reflection_instance(bad, t, 0)):
            with pytest.raises(ValueError):
                call()
    with pytest.raises(ValueError):
        reflection_instance("frege", t, 0, checker="weird")
