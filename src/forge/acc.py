"""Compile machine acceptance and reachability into bounded formulas.

compile_acc(tm, p) emits an existential formula over one free string X: a
witness string W holds a full computation tableau (layout as in machine.py,
stride = tape width times the per-cell field count) and the matrix pins W
down row by row:

  INIT        row 0 is X padded, head on cell 0 in state 1
  FRAME       bits away from the head carry over unchanged
  TRANS       one unrolled clause per machine rule, with both tape ends
              clamped and left moves expressed through a predecessor
              variable (the term language has no subtraction)
  VALIDITY    no head mark exceeds the state count
  SINGLE-HEAD at most one marked cell per row
  ACCEPT      some cell of the last row carries the accepting state

Because the machine is deterministic, these clauses admit exactly one
witness per accepted input and none otherwise; tests sweep every candidate
string at micro scale to confirm it.  That uniqueness is what lets the
package evaluate the existential by checking the simulator's own tableau
instead of enumerating strings.

compile_reach(tm, p) keeps the middle clauses but pins row 0 and row
p(|Y|) to free configuration strings Y and Z.  A configuration string is
one tableau row followed by a sentinel 1 bit, so its length is determined
by the tape width and rows can be addressed with stride |Y|.

String lengths follow set semantics everywhere: the input length seen by
the compiled formula is one past the highest 1 bit of X.
"""

from __future__ import annotations

from typing import Callable

from .codec import bit_at, set_length, trim
from .errors import LayoutError
from .evaluate import Assignment, FiniteSlice, eval_formula
from .formulas import (AlN, And, EqNum, ExN, ExS, Formula, Imp, Len, Memb,
                       Not, NumTerm, NVar, One, Or, Plus, Times, Zero,
                       const_term, land, lt)
from .machine import (MOVE_LEFT, MOVE_RIGHT, Configuration, PolyBound,
                      TableauLayout, TMDescription, run, run_from,
                      tableau_to_witness)


def poly_term(p: PolyBound, var: NumTerm) -> NumTerm:
    """Horner form of p applied to var."""
    acc = const_term(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = Plus(const_term(c), Times(var, acc))
    return acc


def iff(a: Formula, b: Formula) -> Formula:
    return And(Imp(a, b), Imp(b, a))


def forall_below(var: str, bound: NumTerm, body: Formula) -> Formula:
    """All values strictly below bound (inclusive binder plus guard)."""
    return AlN(var, bound, Imp(lt(NVar(var), bound), body))


class _MatrixEmitter:
    """Shared clause builder for the ACC and REACH matrices.

    cell_bound is the quantifier bound for cell indices; cell_guard cuts
    that range down to the real cells.  For ACC the guard is i < width,
    for REACH it is "the whole field block of cell i fits left of the
    sentinel".  Rule clauses detect the right tape edge as the guard
    failing at i+1, which keeps both settings clamp-consistent with the
    simulator.
    """

    def __init__(self, tm: TMDescription, wvar: str, stride: NumTerm,
                 steps: NumTerm, cell_bound: NumTerm,
                 cell_guard: Callable[[NumTerm], Formula]):
        self.tm = tm
        self.wvar = wvar
        self.stride = stride
        self.steps = steps
        self.cell_bound = cell_bound
        self.cell_guard = cell_guard
        self.fields = 1 + tm.state_bits

    def pos(self, t: NumTerm, i: NumTerm, f: int) -> NumTerm:
        cell = Times(i, const_term(self.fields))
        return Plus(Times(t, self.stride), Plus(cell, const_term(f)))

    def w_at(self, t: NumTerm, i: NumTerm, f: int) -> Formula:
        return Memb(self.pos(t, i, f), self.wvar)

    def bit_is(self, t: NumTerm, i: NumTerm, b: int) -> Formula:
        at = self.w_at(t, i, 0)
        return at if b else Not(at)

    def mark_is(self, t: NumTerm, i: NumTerm, value: int) -> Formula:
        parts = []
        for f in range(self.tm.state_bits):
            at = self.w_at(t, i, 1 + f)
            parts.append(at if (value >> f) & 1 else Not(at))
        return land(parts)

    def marked(self, t: NumTerm, i: NumTerm) -> Formula:
        return Not(self.mark_is(t, i, 0))

    def each_cell(self, var: str, body: Formula) -> Formula:
        v = NVar(var)
        return AlN(var, self.cell_bound, Imp(self.cell_guard(v), body))

    def some_cell(self, var: str, body: Formula) -> Formula:
        v = NVar(var)
        return ExN(var, self.cell_bound, And(self.cell_guard(v), body))

    def frame(self) -> Formula:
        t, i = NVar("t"), NVar("i")
        keep = iff(self.w_at(Plus(t, One()), i, 0), self.w_at(t, i, 0))
        body = Imp(self.mark_is(t, i, 0), keep)
        return forall_below("t", self.steps, self.each_cell("i", body))

    def transitions(self) -> Formula:
        t, i = NVar("t"), NVar("i")
        succ = Plus(t, One())
        rules = []
        for (q, b) in sorted(self.tm.delta):
            q2, b2, move = self.tm.delta[(q, b)]
            fire = And(self.mark_is(t, i, q), self.bit_is(t, i, b))
            writes = self.bit_is(succ, i, b2)
            if move == MOVE_LEFT:
                at_edge = And(EqNum(i, Zero()), self.mark_is(succ, i, q2))
                inward = ExN("u", self.cell_bound,
                             And(EqNum(Plus(NVar("u"), One()), i),
                                 self.mark_is(succ, NVar("u"), q2)))
                lands = Or(at_edge, inward)
            elif move == MOVE_RIGHT:
                nxt = Plus(i, One())
                at_edge = And(Not(self.cell_guard(nxt)), self.mark_is(succ, i, q2))
                inward = And(self.cell_guard(nxt), self.mark_is(succ, nxt, q2))
                lands = Or(at_edge, inward)
            else:
                lands = self.mark_is(succ, i, q2)
            rules.append(Imp(fire, And(writes, lands)))
        return forall_below("t", self.steps, self.each_cell("i", land(rules)))

    def validity(self) -> Formula:
        bad = list(range(self.tm.k + 1, 1 << self.tm.state_bits))
        if not bad:
            return land([])
        t, i = NVar("t"), NVar("i")
        body = land([Not(self.mark_is(t, i, v)) for v in bad])
        return AlN("t", self.steps, self.each_cell("i", body))

    def single_head(self) -> Formula:
        t, i, j = NVar("t"), NVar("i"), NVar("j")
        clash = And(self.marked(t, i), self.marked(t, j))
        body = self.each_cell("i", self.each_cell("j",
                                                  Imp(Not(EqNum(i, j)), Not(clash))))
        return AlN("t", self.steps, body)

    def shared_clauses(self) -> list[Formula]:
        return [self.frame(), self.transitions(), self.validity(),
                self.single_head()]


def _acc_emitter(tm: TMDescription, p: PolyBound, xvar: str) -> _MatrixEmitter:
    width = poly_term(p, Len(xvar))
    stride = Times(width, const_term(1 + tm.state_bits))
    return _MatrixEmitter(tm, "W", stride, steps=width, cell_bound=width,
                          cell_guard=lambda v: lt(v, width))


def acc_matrix(tm: TMDescription, p: PolyBound, xvar: str = "X") -> Formula:
    """The string-quantifier-free body of the acceptance formula."""
    e = _acc_emitter(tm, p, xvar)
    i = NVar("i")
    row0 = Zero()
    init = e.each_cell("i", land([
        iff(e.w_at(row0, i, 0), Memb(i, xvar)),
        Imp(EqNum(i, Zero()), e.mark_is(row0, i, 1)),
        Imp(Not(EqNum(i, Zero())), e.mark_is(row0, i, 0)),
    ]))
    accept = e.some_cell("i", e.mark_is(e.steps, i, tm.k))
    return land([init, *e.shared_clauses(), accept])


def acc_witness_bound(tm: TMDescription, p: PolyBound, xvar: str = "X") -> NumTerm:
    e = _acc_emitter(tm, p, xvar)
    return Times(Plus(e.steps, One()), e.stride)


def compile_acc(tm: TMDescription, p: PolyBound, xvar: str = "X") -> Formula:
    """Existential tableau formula: the machine accepts the set xvar."""
    return ExS("W", acc_witness_bound(tm, p, xvar), acc_matrix(tm, p, xvar))


def acc_layout(tm: TMDescription, p: PolyBound, n: int) -> TableauLayout:
    """Concrete witness layout for inputs of (set) length n."""
    m = p.eval(n)
    if m < max(n, 1):
        raise LayoutError(f"time bound {m} cannot hold an input of length {n}")
    return TableauLayout(width=m, steps=m, state_bits=tm.state_bits)


def _eval_slice(total_bits: int, step_bound: int) -> FiniteSlice:
    return FiniteSlice(num_bound=total_bits + step_bound + 2, str_width=0)


def check_witness(tm: TMDescription, p: PolyBound, x: str, w: str) -> bool:
    """Evaluate the acceptance matrix at a concrete witness string."""
    layout = acc_layout(tm, p, set_length(x))
    if len(w) < layout.total_bits:
        raise LayoutError(
            f"witness has {len(w)} bits, layout needs {layout.total_bits}")
    env = Assignment(strs={"X": x, "W": w})
    s = _eval_slice(layout.total_bits, layout.steps)
    return eval_formula(acc_matrix(tm, p), s, env)


def eval_acc(tm: TMDescription, p: PolyBound, x: str) -> bool:
    """Decide the compiled acceptance formula on input set x.

    The matrix admits at most the simulator's tableau as witness, so the
    existential is settled by checking that single candidate.
    """
    layout = acc_layout(tm, p, set_length(x))
    tableau = run(tm, trim(x), layout.steps, layout.width)
    return check_witness(tm, p, x, tableau_to_witness(tableau))


# --- reachability between explicit configurations ---


def config_to_string(conf: Configuration, state_bits: int) -> str:
    """One tableau row flattened, plus a sentinel 1 pinning the length."""
    bits = []
    for bit, mark in conf.cells:
        bits.append(str(bit))
        for f in range(state_bits):
            bits.append(str((mark >> f) & 1))
    bits.append("1")
    return "".join(bits)


def string_to_config(s: str, tm: TMDescription) -> Configuration:
    fields = 1 + tm.state_bits
    n = set_length(s)
    if n < 1 or (n - 1) % fields:
        raise LayoutError(f"length {n} does not fit {fields}-bit cells plus sentinel")
    cells = []
    for base in range(0, n - 1, fields):
        bit = 1 if bit_at(s, base) else 0
        mark = 0
        for f in range(tm.state_bits):
            if bit_at(s, base + 1 + f):
                mark |= 1 << f
        if mark > tm.k:
            raise LayoutError(f"cell at bit {base} marks nonexistent state {mark}")
        cells.append((bit, mark))
    return Configuration(tuple(cells))


def _reach_emitter(tm: TMDescription, p: PolyBound, yvar: str) -> _MatrixEmitter:
    fields = const_term(1 + tm.state_bits)
    size = Len(yvar)

    def fits(v: NumTerm) -> Formula:
        return lt(Plus(Times(v, fields), fields), size)

    return _MatrixEmitter(tm, "W", stride=size, steps=poly_term(p, size),
                          cell_bound=size, cell_guard=fits)


def reach_matrix(tm: TMDescription, p: PolyBound, yvar: str = "Y",
                 zvar: str = "Z") -> Formula:
    e = _reach_emitter(tm, p, yvar)
    size = Len(yvar)
    j, t = NVar("j"), NVar("t")
    boundary0 = forall_below("j", size, iff(Memb(j, e.wvar), Memb(j, yvar)))
    boundary_end = forall_below(
        "j", size,
        iff(Memb(Plus(Times(e.steps, size), j), e.wvar), Memb(j, zvar)))
    sentinels = AlN("t", e.steps, ExN(
        "s", size,
        And(EqNum(Plus(NVar("s"), One()), size),
            Memb(Plus(Times(t, size), NVar("s")), e.wvar))))
    return land([boundary0, boundary_end, sentinels, *e.shared_clauses()])


def reach_witness_bound(tm: TMDescription, p: PolyBound, yvar: str = "Y") -> NumTerm:
    return Times(Plus(poly_term(p, Len(yvar)), One()), Len(yvar))


def compile_reach(tm: TMDescription, p: PolyBound, yvar: str = "Y",
                  zvar: str = "Z") -> Formula:
    """Configuration zvar is reached from yvar after p(|yvar|) steps."""
    return ExS("W", reach_witness_bound(tm, p, yvar),
               reach_matrix(tm, p, yvar, zvar))


def reach_witness(tm: TMDescription, start: Configuration, steps: int) -> str:
    rows = run_from(tm, start, steps).rows
    return "".join(config_to_string(r, tm.state_bits) for r in rows)


def check_reach_witness(tm: TMDescription, p: PolyBound, y: str, z: str,
                        w: str) -> bool:
    stride = set_length(y)
    steps = p.eval(stride)
    total = (steps + 1) * stride
    if len(w) < total:
        raise LayoutError(f"witness has {len(w)} bits, layout needs {total}")
    env = Assignment(strs={"Y": y, "Z": z, "W": w})
    return eval_formula(reach_matrix(tm, p), _eval_slice(total, steps), env)


def eval_reach(tm: TMDescription, p: PolyBound, y: str, z: str) -> bool:
    """Decide the compiled reachability formula on configuration strings.

    y must decode to a well-formed configuration; the deterministic run
    from it is the only candidate witness, mirroring eval_acc.
    """
    start = string_to_config(y, tm)
    steps = p.eval(set_length(y))
    w = reach_witness(tm, start, steps)
    return check_reach_witness(tm, p, y, z, w)
