"""Bit-string encodings of formulas and proofs, and the checker formulas
that read them.

Layout version 1.  Everything is little-endian: bit i of a string is the
truth of membership at index i.

Formula strings::

    "10"  version prefix
    s node records of 6 bits each (3 tag bits, 3 payload bits)
    "1"   terminator, so the set length pins the record count

Nodes live in an implicit binary heap: slot 1 is the root, slot i has
children 2i and 2i+1 (a negation uses only 2i).  Tags: 0 false constant,
1 true constant, 2 variable (payload is the index), 3 conjunction,
4 disjunction, 5 negation; 6 and 7 are invalid.  Only binary connectives
and variables named "z" with index below 8 are encodable.

Proof strings::

    "10"                      version prefix
    L ones, "0"               line count, unary
    ms ones, "0"              side capacity, unary
    mS ones, "0"              record slot count, unary
    L line blocks             see below
    "1"                       terminator

Each line block packs, in order: ms left presence bits (prefix-closed),
ms left records of mS*6 bits, the same for the right side, a 4-bit rule
tag, an ms-bit cut-position one-hot, 2 premise-count bits, and two L-bit
premise one-hots.  Absent records and unused one-hots are all zero.

The checker formulas quantify the three geometry numbers, locate every
field by term arithmetic over them, and verify one rule branch per line.
They use only number quantifiers, so they classify as SigmaB(0).  They read
fixed string names, the ones reflection_instance binds: X for the formula,
P for the proof and Z for the assignment.
"""

from .errors import DecodeError, EncodeError
from .formulas import (FALSE, TRUE, AlN, AlS, And, EqNum, ExN, Formula, Imp,
                       Len, Leq, Memb, Not, NumTerm, NVar, One, Or, Plus,
                       Times, Zero, const_term, fold_right, forall_lt, iff,
                       land, lor, lt)
from .machine import PolyBound
from .proofs import (LEFT, RIGHT, RULE_SHAPES, RULES, Proof, ProofLine, Sequent,
                     system_depth)
from .prop import PAnd, PConst, PNot, POr, PropFormula, PVar

__all__ = [
    "NODE_WIDTH", "VAR_LIMIT", "SLOT_LIMIT",
    "encode_formula", "decode_formula", "encode_proof", "decode_proof",
    "compile_formula_wf", "compile_sat", "compile_proof_check",
    "reflection_instance",
]

NODE_WIDTH = 6
TAG_FALSE, TAG_TRUE, TAG_VAR, TAG_AND, TAG_OR, TAG_NOT = range(6)
_TAG_OF = {PAnd: TAG_AND, POr: TAG_OR, PNot: TAG_NOT}
VAR_NAME = "z"
VAR_LIMIT = 8          # payload bits
SLOT_LIMIT = 1 << 12   # heap indices explode with depth; fail loudly


# --- python-side packing ---


def _le_bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")[::-1]


def _from_le(bits: str) -> int:
    return int(bits[::-1] or "0", 2)


def _check_bits(bits: str) -> None:
    if any(c not in "01" for c in bits):
        raise DecodeError("encoding must be a string over 0 and 1")


def _binarize(p: PropFormula) -> PropFormula:
    """Right-fold n-ary connectives down to the binary encodable shape."""
    k = type(p)
    if k is PAnd or k is POr:
        return fold_right(lambda a, b: k((a, b)), [_binarize(a) for a in p.args],
                          PConst(1 if k is PAnd else 0))
    if k is PNot:
        return PNot(_binarize(p.arg))
    return p


def _slot_map(p: PropFormula) -> dict[int, PropFormula]:
    slots: dict[int, PropFormula] = {}

    def walk(q: PropFormula, i: int) -> None:
        if i > SLOT_LIMIT:
            raise EncodeError("formula too deep for the heap layout")
        slots[i] = q
        k = type(q)
        if k is PNot:
            walk(q.arg, 2 * i)
        elif k is PAnd or k is POr:
            walk(q.args[0], 2 * i)
            walk(q.args[1], 2 * i + 1)

    walk(p, 1)
    return slots


def _node_code(q: PropFormula) -> tuple[int, int]:
    k = type(q)
    if k is PConst:
        return (TAG_TRUE if q.bit else TAG_FALSE, 0)
    if k is PVar:
        if q.name != VAR_NAME:
            raise EncodeError(f"only variables named {VAR_NAME!r} are encodable")
        if not 0 <= q.index < VAR_LIMIT:
            raise EncodeError(f"variable index {q.index} out of payload range")
        return (TAG_VAR, q.index)
    return (_TAG_OF[k], 0)


def _record_chunk(slots: dict[int, PropFormula], width: int) -> str:
    parts = []
    for i in range(1, width + 1):
        if i in slots:
            tag, payload = _node_code(slots[i])
            parts.append(_le_bits(tag, 3) + _le_bits(payload, 3))
        else:
            parts.append("000000")
    return "".join(parts)


def encode_formula(p: PropFormula) -> str:
    """Pack a formula into its heap bit string."""
    slots = _slot_map(_binarize(p))
    return "10" + _record_chunk(slots, max(slots)) + "1"


def _read_node(bits: str, base: int, nslots: int, slot: int) -> PropFormula:
    if slot > nslots:
        raise DecodeError(f"child slot {slot} beyond the record")
    off = base + (slot - 1) * NODE_WIDTH
    tag = _from_le(bits[off:off + 3])
    payload = _from_le(bits[off + 3:off + 6])
    if tag == TAG_VAR:
        return PVar(VAR_NAME, payload)
    if payload:
        raise DecodeError(f"nonzero payload on tag {tag}")
    if tag in (TAG_FALSE, TAG_TRUE):
        return PConst(tag)
    if tag == TAG_NOT:
        return PNot(_read_node(bits, base, nslots, 2 * slot))
    if tag in (TAG_AND, TAG_OR):
        ctor = PAnd if tag == TAG_AND else POr
        return ctor((_read_node(bits, base, nslots, 2 * slot),
                     _read_node(bits, base, nslots, 2 * slot + 1)))
    raise DecodeError(f"invalid node tag {tag}")


def decode_formula(bits: str) -> PropFormula:
    """Inverse of encode_formula; rejects anything off the layout."""
    _check_bits(bits)
    if len(bits) < 3 + NODE_WIDTH or (len(bits) - 3) % NODE_WIDTH:
        raise DecodeError("length does not fit the node layout")
    if not bits.startswith("10"):
        raise DecodeError("unsupported version prefix")
    if bits[-1] != "1":
        raise DecodeError("missing terminator bit")
    return _read_node(bits, 2, (len(bits) - 3) // NODE_WIDTH, 1)


def _hot_bits(n: int, at: int | None) -> str:
    """n zero bits, except bit `at` when a position is given."""
    return "".join("1" if i == at else "0" for i in range(n))


def encode_proof(pi: Proof) -> str:
    """Pack a proof into its framed bit string."""
    if not pi.lines:
        raise EncodeError("cannot encode an empty proof")
    nlines = len(pi.lines)
    shaped: list[tuple[list[dict], list[dict]]] = []
    cap_side = 1
    cap_slot = 1
    for ln in pi.lines:
        if ln.rule not in RULES:
            raise EncodeError(f"unknown rule tag {ln.rule!r}")
        if len(ln.premises) > 2:
            raise EncodeError("more than two premise references")
        for p in ln.premises:
            if not 0 <= p < nlines:
                raise EncodeError(f"premise reference {p} out of range")
        if ln.rule != "cut" and ln.cut_index:
            raise EncodeError("cut index on a non-cut line")
        sides = []
        for side in (ln.sequent.left, ln.sequent.right):
            maps = [_slot_map(_binarize(f)) for f in side]
            cap_side = max(cap_side, len(maps))
            cap_slot = max(cap_slot, max((max(m) for m in maps), default=1))
            sides.append(maps)
        shaped.append(tuple(sides))
    for ln in pi.lines:
        if ln.rule == "cut" and not 0 <= ln.cut_index < cap_side:
            raise EncodeError("cut index exceeds side capacity")

    rec_w = cap_slot * NODE_WIDTH
    out = ["10", "1" * nlines + "0", "1" * cap_side + "0", "1" * cap_slot + "0"]
    for ln, (left, right) in zip(pi.lines, shaped):
        for maps in (left, right):
            out.append("1" * len(maps) + "0" * (cap_side - len(maps)))
            for j in range(cap_side):
                out.append(_record_chunk(maps[j], cap_slot) if j < len(maps)
                           else "0" * rec_w)
        out.append(_le_bits(RULES.index(ln.rule), 4))
        out.append(_hot_bits(cap_side, ln.cut_index if ln.rule == "cut" else None))
        out.append("1" * len(ln.premises) + "0" * (2 - len(ln.premises)))
        out += [_hot_bits(nlines, p) for p in (*ln.premises, None, None)[:2]]
    out.append("1")
    return "".join(out)


def decode_proof(bits: str) -> Proof:
    """Inverse of encode_proof; DecodeError on any framing violation."""
    _check_bits(bits)
    pos = 0

    def take(n: int, what: str) -> str:
        nonlocal pos
        if pos + n > len(bits):
            raise DecodeError(f"truncated while reading {what}")
        seg = bits[pos:pos + n]
        pos += n
        return seg

    def unary(what: str) -> int:
        n = 0
        while take(1, what) == "1":
            n += 1
        return n

    def hot(n: int, what: str, used: bool, unused: str) -> int:
        """The set bit of an n-bit one-hot field; 0 when unused, and all clear."""
        at = [i for i, c in enumerate(take(n, what)) if c == "1"]
        if used and len(at) != 1:
            raise DecodeError(f"{what} is not a one-hot")
        if not used and at:
            raise DecodeError(unused)
        return at[0] if used else 0

    if take(2, "version prefix") != "10":
        raise DecodeError("unsupported version prefix")
    nlines = unary("line count")
    cap_side = unary("side capacity")
    cap_slot = unary("record slot count")
    if not nlines:
        raise DecodeError("empty proof")
    if not cap_side or not cap_slot:
        raise DecodeError("zero field capacity in header")
    rec_w = cap_slot * NODE_WIDTH
    block = 2 * (cap_side + cap_side * rec_w) + 6 + cap_side + 2 * nlines
    if len(bits) != pos + nlines * block + 1:
        raise DecodeError("length does not match the header geometry")
    if bits[-1] != "1":
        raise DecodeError("missing terminator bit")

    lines = []
    for _ in range(nlines):
        sides = []
        for name in ("left", "right"):
            pres = take(cap_side, f"{name} presence bits")
            count = len(pres) - len(pres.lstrip("1"))
            if pres != "1" * count + "0" * (cap_side - count):
                raise DecodeError(f"{name} presence bits not prefix-closed")
            fs = []
            for j in range(cap_side):
                seg = take(rec_w, f"{name} record")
                if j < count:
                    fs.append(_read_node(seg, 0, cap_slot, 1))
                elif "1" in seg:
                    raise DecodeError("nonzero bits in an absent record")
            sides.append(tuple(fs))
        tag = _from_le(take(4, "rule tag"))
        if tag >= len(RULES):
            raise DecodeError(f"invalid rule tag {tag}")
        rule = RULES[tag]
        cut_index = hot(cap_side, "cut position", rule == "cut",
                        "cut bits on a non-cut line")
        counts = take(2, "premise count bits")
        if counts == "01":
            raise DecodeError("premise count bits not monotone")
        nprem = counts.count("1")
        premises = tuple(hot(nlines, "premise reference", k < nprem,
                             "bits in an unused premise slot") for k in range(2))
        lines.append(ProofLine(Sequent(*sides), rule, premises[:nprem], cut_index))
    take(1, "terminator")
    return Proof(tuple(lines))


# --- checker formulas ---


def _sh(base: NumTerm, k: int) -> NumTerm:
    return base if k == 0 else Plus(base, const_term(k))


def _pattern(svar: str, base: NumTerm, value: int, width: int) -> Formula:
    parts = []
    for w in range(width):
        m = Memb(_sh(base, w), svar)
        parts.append(m if value >> w & 1 else Not(m))
    return land(parts)


def compile_formula_wf() -> Formula:
    """Layout validity of the packed formula X, one local check per slot."""
    X = "X"
    s = NVar("fs")
    base = Plus(const_term(2), Times(NVar("j"), const_term(NODE_WIDTH)))
    bit = lambda k: Memb(_sh(base, k), X)
    payload_zero = land([Not(bit(3)), Not(bit(4)), Not(bit(5))])
    first_child = Plus(Times(const_term(2), NVar("j")), const_term(2))
    local = land([
        Not(And(bit(1), bit(2))),
        Imp(And(Not(bit(1)), Not(bit(2))), payload_zero),
        Imp(_pattern(X, base, TAG_AND, 3),
            And(payload_zero, Leq(_sh(first_child, 1), s))),
        Imp(_pattern(X, base, TAG_OR, 3),
            And(payload_zero, Leq(_sh(first_child, 1), s))),
        Imp(_pattern(X, base, TAG_NOT, 3),
            And(payload_zero, Leq(first_child, s))),
    ])
    return ExN("fs", Len(X), land([
        EqNum(Len(X), Plus(Times(s, const_term(NODE_WIDTH)), const_term(3))),
        Leq(One(), s),
        Memb(Zero(), X),
        Not(Memb(One(), X)),
        forall_lt("j", Len(X), s, local),
    ]))


def compile_sat(slot_cap: int = 1) -> Formula:
    """Truth of the packed formula X under the assignment string Z.

    The heap recursion is unrolled over constant slot indices, so the
    result is quantifier free.  Slots beyond slot_cap read as false.
    """
    if slot_cap < 1:
        raise ValueError("slot_cap must be at least 1")

    def node(i: int) -> Formula:
        if i > slot_cap:
            return FALSE
        base = const_term(2 + (i - 1) * NODE_WIDTH)
        var_case = lor([And(_pattern("X", _sh(base, 3), v, 3),
                            Memb(const_term(v), "Z"))
                        for v in range(VAR_LIMIT)])
        return lor([
            _pattern("X", base, TAG_TRUE, NODE_WIDTH),
            And(_pattern("X", base, TAG_VAR, 3), var_case),
            And(_pattern("X", base, TAG_AND, NODE_WIDTH),
                And(node(2 * i), node(2 * i + 1))),
            And(_pattern("X", base, TAG_OR, NODE_WIDTH),
                Or(node(2 * i), node(2 * i + 1))),
            And(_pattern("X", base, TAG_NOT, NODE_WIDTH),
                Not(node(2 * i))),
        ])

    return node(1)


def _graft(slot: int, child: int) -> int:
    """Heap index of a premise-record slot inside the conclusion subtree."""
    top = 1 << (slot.bit_length() - 1)
    return child * top + (slot - top)


class _ProofGeom:
    """Field positions of the packed proof P, as terms over the quantified
    geometry numbers nl (lines), nf (side capacity), ns (record slots).
    Every sweep runs to the one bound term `sweep`, |P|."""

    def __init__(self, slot_cap: int):
        self.cap = slot_cap
        self.sweep = Len("P")
        self.nl, self.nf, self.ns = NVar("nl"), NVar("nf"), NVar("ns")
        self.rw = Times(self.ns, const_term(NODE_WIDTH))
        self.sw = Plus(self.nf, Times(self.nf, self.rw))
        self.block = Plus(Times(const_term(2), self.sw),
                          Plus(const_term(6),
                               Plus(self.nf, Times(const_term(2), self.nl))))
        self.hdr = Plus(const_term(5), Plus(self.nl, Plus(self.nf, self.ns)))

    def bit(self, pos: NumTerm) -> Formula:
        return Memb(pos, "P")

    def line_base(self, line: NumTerm) -> NumTerm:
        return Plus(self.hdr, Times(line, self.block))

    def pres(self, line: NumTerm, side: int, j: NumTerm) -> Formula:
        off = j if side == LEFT else Plus(self.sw, j)
        return self.bit(Plus(self.line_base(line), off))

    def rec_base(self, line: NumTerm, side: int, j: NumTerm) -> NumTerm:
        off = Plus(self.nf, Times(j, self.rw))
        if side == RIGHT:
            off = Plus(self.sw, off)
        return Plus(self.line_base(line), off)

    def rec_bit(self, line: NumTerm, side: int, j: NumTerm,
                off: int | NumTerm) -> Formula:
        o = const_term(off) if isinstance(off, int) else off
        return self.bit(Plus(self.rec_base(line, side, j), o))

    def slot_clear(self, line: NumTerm, side: int, j: NumTerm, k: int) -> Formula:
        """Heap slot k of record j holds no node: its six bits are all zero."""
        return land([Not(self.rec_bit(line, side, j, (k - 1) * NODE_WIDTH + m))
                     for m in range(NODE_WIDTH)])

    def rule_base(self, line: NumTerm) -> NumTerm:
        return Plus(self.line_base(line), Times(const_term(2), self.sw))

    def cut_base(self, line: NumTerm) -> NumTerm:
        return Plus(self.rule_base(line), const_term(4))

    def pcount_base(self, line: NumTerm) -> NumTerm:
        return Plus(self.cut_base(line), self.nf)

    def onehot_base(self, line: NumTerm, k: int) -> NumTerm:
        base = Plus(self.pcount_base(line), const_term(2))
        return base if k == 0 else Plus(base, self.nl)


def _rec_eq(g: _ProofGeom, lc, sc, jc, lp, sp, jp) -> Formula:
    b = NVar("b")
    return forall_lt("b", g.sweep, g.rw,
                     iff(g.rec_bit(lc, sc, jc, b), g.rec_bit(lp, sp, jp, b)))


def _node_is(g: _ProofGeom, line, side, j, tag: int) -> Formula:
    return _pattern("P", g.rec_base(line, side, j), tag, NODE_WIDTH)


def _sub_eq(g: _ProofGeom, lc, sc, jc, child: int, lp, sp, jp) -> Formula:
    """Premise record jp equals the child subtree of conclusion record jc.

    Unrolled over constant heap indices up to the structural slot cap;
    premise slots whose image falls outside the record must be empty.
    """
    parts = []
    for k in range(1, g.cap + 1):
        img = _graft(k, child)
        here = Leq(const_term(k), g.ns)
        eq = land([iff(g.rec_bit(lc, sc, jc, (img - 1) * NODE_WIDTH + m),
                       g.rec_bit(lp, sp, jp, (k - 1) * NODE_WIDTH + m))
                   for m in range(NODE_WIDTH)])
        parts.append(Imp(And(here, Leq(const_term(img), g.ns)), eq))
        parts.append(Imp(And(here, lt(g.ns, const_term(img))),
                         g.slot_clear(lp, sp, jp, k)))
    return land(parts)


def _count_is(g: _ProofGeom, line, side, n: NumTerm) -> Formula:
    return land([
        Leq(n, g.nf),
        forall_lt("j", g.sweep, n, g.pres(line, side, NVar("j"))),
        Imp(lt(n, g.nf), Not(g.pres(line, side, n))),
    ])


def _tail_map(g: _ProofGeom, lc, sc, fc: int, lp, sp, fp: int) -> Formula:
    """Conclusion side from position fc is exactly premise side from fp."""
    j = NVar("j")
    ci, pi = _sh(j, fc), _sh(j, fp)
    c_in, p_in = lt(ci, g.nf), lt(pi, g.nf)
    same = And(iff(g.pres(lc, sc, ci), g.pres(lp, sp, pi)),
               Imp(g.pres(lc, sc, ci), _rec_eq(g, lc, sc, ci, lp, sp, pi)))
    return AlN("j", g.sweep, land([
        Imp(And(c_in, p_in), same),
        Imp(And(c_in, Not(p_in)), Not(g.pres(lc, sc, ci))),
        Imp(And(p_in, Not(c_in)), Not(g.pres(lp, sp, pi))),
    ]))


def _seg_eq(g: _ProofGeom, lc, sc, fc: int, lp, sp, fp: int, n: NumTerm) -> Formula:
    j = NVar("j")
    return forall_lt("j", g.sweep, n,
                     _rec_eq(g, lc, sc, _sh(j, fc), lp, sp, _sh(j, fp)))


def _tag_is(g: _ProofGeom, line, rule: str) -> Formula:
    return _pattern("P", g.rule_base(line), RULES.index(rule), 4)


def _pcount_is(g: _ProofGeom, line, n: int) -> Formula:
    b0 = g.bit(g.pcount_base(line))
    b1 = g.bit(_sh(g.pcount_base(line), 1))
    return And(b0 if n >= 1 else Not(b0), b1 if n >= 2 else Not(b1))


def _clear(g: _ProofGeom, var: str, base: NumTerm, limit: NumTerm) -> Formula:
    """The limit-bit field at base is all zero."""
    return forall_lt(var, g.sweep, limit, Not(g.bit(Plus(base, NVar(var)))))


def _one_hot(g: _ProofGeom, var: str, base: NumTerm, limit: NumTerm,
             below: NumTerm, rest: Formula) -> Formula:
    """Bind var to the one set bit, below `below`, of the limit-bit field at base."""
    v, u = NVar(var), NVar("u")
    others = AlN("u", g.sweep, Imp(And(lt(u, limit), Not(EqNum(u, v))),
                                    Not(g.bit(Plus(base, u)))))
    return ExN(var, g.sweep, land([g.bit(Plus(base, v)), lt(v, below), others, rest]))


def _with_premise(g: _ProofGeom, line, k: int, var: str, body) -> Formula:
    """Bind var to the unique earlier line the k-th one-hot points at."""
    return _one_hot(g, var, g.onehot_base(line, k), g.nl, line, body(NVar(var)))


def _premised(g: _ProofGeom, line, rule: str, n: int, body) -> Formula:
    """A line of `rule` with n premises, framed as decode_proof reads it: the
    rule tag, the premise count, every premise one-hot k >= n clear and the
    cut position clear unless the rule is cut.  body() gives the axiom's
    other conjuncts, body(pa) or body(pa, pb) the formula over the premises."""
    frame = [_tag_is(g, line, rule), _pcount_is(g, line, n),
             *[_clear(g, "u", g.onehot_base(line, k), g.nl) for k in range(n, 2)]]
    if rule != "cut":
        frame.append(_clear(g, "j", g.cut_base(line), g.nf))
    if n == 0:
        return land(frame + body())
    first = body if n == 1 else lambda pa: _with_premise(
        g, line, 1, "pb", lambda pb: body(pa, pb))
    return land([*frame, _with_premise(g, line, 0, "pa", first)])


def _branch_axiom(g: _ProofGeom, line, rule: str, side, tag) -> Formula:
    return _premised(g, line, rule, 0, lambda: [
        _count_is(g, line, LEFT, One()), _count_is(g, line, RIGHT, One()),
        _rec_eq(g, line, LEFT, Zero(), line, RIGHT, Zero()),
    ])


def _branch_weak(g: _ProofGeom, line, rule: str, side: int, tag) -> Formula:
    """One formula enters at either end of the weakened side."""
    def body(p):
        e = NVar("e")
        at_front = And(g.pres(line, side, Zero()),
                       _tail_map(g, line, side, 1, p, side, 0))
        at_back = ExN("e", g.sweep, land([
            _count_is(g, p, side, e),
            _count_is(g, line, side, Plus(e, One())),
            _seg_eq(g, line, side, 0, p, side, 0, e),
        ]))
        return And(Or(at_front, at_back),
                   _tail_map(g, line, 1 - side, 0, p, 1 - side, 0))

    return _premised(g, line, rule, 1, body)


def _branch_not(g: _ProofGeom, line, rule: str, side: int, tag: int) -> Formula:
    other = 1 - side

    def body(p):
        e = NVar("e")
        moved = land([
            _count_is(g, line, other, e),
            _count_is(g, p, other, Plus(e, One())),
            _seg_eq(g, line, other, 0, p, other, 0, e),
            _sub_eq(g, line, side, Zero(), 2, p, other, e),
        ])
        return land([
            _node_is(g, line, side, Zero(), tag),
            g.pres(line, side, Zero()),
            _tail_map(g, line, side, 1, p, side, 0),
            ExN("e", g.sweep, moved),
        ])

    return _premised(g, line, rule, 1, body)


def _branch_merge(g: _ProofGeom, line, rule: str, side: int, tag: int) -> Formula:
    """Both children join one premise side."""
    def body(p):
        return land([
            _node_is(g, line, side, Zero(), tag),
            g.pres(line, side, Zero()),
            g.pres(p, side, Zero()),
            g.pres(p, side, One()),
            _sub_eq(g, line, side, Zero(), 2, p, side, Zero()),
            _sub_eq(g, line, side, Zero(), 3, p, side, One()),
            _tail_map(g, line, side, 1, p, side, 2),
            _tail_map(g, line, 1 - side, 0, p, 1 - side, 0),
        ])

    return _premised(g, line, rule, 1, body)


def _branch_split(g: _ProofGeom, line, rule: str, side: int, tag: int) -> Formula:
    """One premise per child, context copied."""
    def body(pa, pb):
        e = NVar("e")
        per_child = []
        for child, p in ((2, pa), (3, pb)):
            per_child += [
                _count_is(g, p, side, Plus(e, One())),
                _seg_eq(g, line, side, 1, p, side, 0, e),
                _sub_eq(g, line, side, Zero(), child, p, side, e),
                _tail_map(g, line, 1 - side, 0, p, 1 - side, 0),
            ]
        return land([
            _node_is(g, line, side, Zero(), tag),
            g.pres(line, side, Zero()),
            ExN("e", g.sweep,
                land([_count_is(g, line, side, Plus(e, One()))] + per_child)),
        ])

    return _premised(g, line, rule, 2, body)


def _branch_cut(g: _ProofGeom, line, rule: str, side, tag) -> Formula:
    def body(pa, pb):
        c = NVar("cc")
        return _one_hot(g, "cc", g.cut_base(line), g.nf, g.nf, land([
            _count_is(g, line, RIGHT, c),
            _count_is(g, pa, RIGHT, Plus(c, One())),
            _seg_eq(g, line, RIGHT, 0, pa, RIGHT, 0, c),
            _tail_map(g, line, LEFT, 0, pa, LEFT, 0),
            g.pres(pb, LEFT, Zero()),
            _tail_map(g, line, LEFT, 0, pb, LEFT, 1),
            _tail_map(g, line, RIGHT, 0, pb, RIGHT, 0),
            _rec_eq(g, pa, RIGHT, c, pb, LEFT, Zero()),
        ]))

    return _premised(g, line, rule, 2, body)


_BRANCHES = {"axiom": _branch_axiom, "weak": _branch_weak, "not": _branch_not,
             "merge": _branch_merge, "split": _branch_split, "cut": _branch_cut}


def _branch(g: _ProofGeom, line, rule: str) -> Formula:
    """The rule's branch, built from its family, side and connective."""
    family, side, conn = RULE_SHAPES[rule]
    return _BRANCHES[family](g, line, rule, side, _TAG_OF.get(conn))


def _prefix_closed(g: _ProofGeom, line, side: int) -> Formula:
    j = NVar("j")
    return AlN("j", g.sweep,
               Imp(And(lt(_sh(j, 1), g.nf), g.pres(line, side, _sh(j, 1))),
                   g.pres(line, side, j)))


def _absent_zero(g: _ProofGeom, line, side: int) -> Formula:
    j = NVar("j")
    blank = _clear(g, "b", g.rec_base(line, side, j), g.rw)
    return forall_lt("j", g.sweep, g.nf, Imp(Not(g.pres(line, side, j)), blank))


def _endsequent_is(g: _ProofGeom) -> Formula:
    """Last line is (empty => target), matching the standalone encoding."""
    le, sx, b = NVar("le"), NVar("sx"), NVar("b")
    width = Times(sx, const_term(NODE_WIDTH))
    content = forall_lt("b", g.sweep, width,
                        iff(Memb(Plus(const_term(2), b), "X"),
                            g.rec_bit(le, RIGHT, Zero(), b)))
    padding = AlN("b", g.sweep,
                  Imp(And(Leq(width, b), lt(b, g.rw)),
                      Not(g.rec_bit(le, RIGHT, Zero(), b))))
    target = ExN("sx", Len("X"), land([
        EqNum(Len("X"), Plus(width, const_term(3))),
        Leq(sx, g.ns),
        content,
        padding,
    ]))
    return ExN("le", g.sweep, land([
        EqNum(Plus(le, One()), g.nl),
        _count_is(g, le, LEFT, Zero()),
        _count_is(g, le, RIGHT, One()),
        target,
    ]))


def _depth_cap(g: _ProofGeom, depth: int) -> Formula:
    """No record in the proof occupies a heap slot at depth above d."""
    first_deep = 1 << depth
    if first_deep > g.cap:
        return TRUE
    line, j = NVar("l"), NVar("j")
    per_side = []
    for side in (LEFT, RIGHT):
        deep = land([Imp(Leq(const_term(k), g.ns), g.slot_clear(line, side, j, k))
                     for k in range(first_deep, g.cap + 1)])
        per_side.append(forall_lt("j", g.sweep, g.nf,
                                  Imp(g.pres(line, side, j), deep)))
    return forall_lt("l", g.sweep, g.nl, land(per_side))


def compile_proof_check(system, slot_cap: int = 8) -> Formula:
    """Validity of the packed proof P with the packed target X as endsequent.

    Quantifies the header geometry, re-reads every framing field, and
    requires one rule branch per line with premises strictly earlier.
    Record slot counts above slot_cap are rejected outright, which keeps
    the constant-index subtree unrolling exhaustive.
    """
    depth = system_depth(system)
    if slot_cap < 1:
        raise ValueError("slot_cap must be at least 1")
    g = _ProofGeom(slot_cap)
    line = NVar("l")
    branches = lor([_branch(g, line, rule) for rule in RULES])
    lines_ok = forall_lt("l", g.sweep, g.nl, land([
        _prefix_closed(g, line, LEFT), _prefix_closed(g, line, RIGHT),
        _absent_zero(g, line, LEFT), _absent_zero(g, line, RIGHT),
        branches,
    ]))
    body = [
        Leq(One(), g.ns),
        Not(g.bit(Plus(const_term(4), Plus(g.nl, Plus(g.nf, g.ns))))),
        EqNum(Len("P"), Plus(g.hdr, Plus(Times(g.nl, g.block), One()))),
        Leq(g.ns, const_term(slot_cap)),
        forall_lt("j", g.sweep, g.ns,
                  g.bit(Plus(const_term(4), Plus(g.nl, Plus(g.nf, NVar("j")))))),
        lines_ok,
        _endsequent_is(g),
    ]
    if depth is not None:
        body.append(_depth_cap(g, depth))
    with_ns = ExN("ns", g.sweep, land(body))
    with_nf = ExN("nf", g.sweep, land([
        Leq(One(), g.nf),
        Not(g.bit(Plus(const_term(3), Plus(g.nl, g.nf)))),
        forall_lt("j", g.sweep, g.nf,
                  g.bit(Plus(const_term(3), Plus(g.nl, NVar("j"))))),
        with_ns,
    ]))
    with_nl = ExN("nl", g.sweep, land([
        Leq(One(), g.nl),
        Not(g.bit(_sh(g.nl, 2))),
        forall_lt("j", g.sweep, g.nl, g.bit(_sh(NVar("j"), 2))),
        with_nf,
    ]))
    return land([Memb(Zero(), "P"), Not(Memb(One(), "P")), with_nl])


def reflection_instance(system, t: PolyBound, x: int,
                        checker: str = "honest") -> Formula:
    """All provable targets below the bound are true everywhere below it.

    The quantifiers nest as target, proof, assignment, with the layout
    and validity checks as guards, so evaluation only sweeps proofs for
    well-formed targets.  The broken checker accepts every proof string,
    which turns the claim false as soon as a well-formed non-tautology
    fits under the bound.
    """
    if checker not in ("honest", "broken"):
        raise ValueError(f"unknown checker variant {checker!r}")
    system_depth(system)
    bound = const_term(t.eval(x))
    slot_cap = max(1, t.eval(x) // NODE_WIDTH)
    fla = compile_formula_wf()
    sat = compile_sat(slot_cap)
    prf = (compile_proof_check(system, slot_cap)
           if checker == "honest" else EqNum(Len("P"), Len("P")))
    return AlS("X", bound,
               Imp(fla, AlS("P", bound,
                            Imp(prf, AlS("Z", bound, sat)))))
