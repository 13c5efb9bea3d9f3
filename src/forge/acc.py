"""Compile machine acceptance and reachability into bounded formulas.

compile_acc(tm, p) emits an existential formula over one free string X: a
witness string W holds a full computation tableau (the rows of
machine.tableau_to_witness, stride = tape width times the per-cell field
count) and the matrix pins W down row by row:

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
one tableau row, written and read by machine.encode_row and decode_row,
followed by a sentinel 1 bit, so its length is determined by the tape width
and rows can be addressed with stride |Y|.

`Tableau` is the one place the FRAME, TRANS and VALIDITY clauses (and the
mark tests SINGLE-HEAD is written with) are built, for both this module and
nepo: it reads cells through a cell(t, i, field) accessor, here a bit of W,
in nepo a field of a number-coded grid.

String lengths follow set semantics everywhere: the input length seen by
the compiled formula is one past the highest 1 bit of X.

check_witness and check_reach_witness evaluate their matrix through
evaluate.compile_formula, compiled at the first check of a machine and
polynomial and kept in a small bounded memo keyed by the machine's content
(TMDescription holds a dict, so it is not hashable itself).  A handful of
matrices serve every check of a sweep, so each compiles once rather than
at every check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .codec import set_length, trim
from .errors import LayoutError
from .evaluate import Assignment, Compiled, FiniteSlice, compile_formula
from .formulas import (TRUE, AlN, And, EqNum, ExN, ExS, Formula, Imp, Len,
                       Memb, Not, NumTerm, NVar, One, Or, Plus, Times, Zero,
                       const_term, land, lt)
from .machine import (MOVE_LEFT, MOVE_RIGHT, Configuration, PolyBound,
                      TableauLayout, TMDescription, decode_row, encode_row,
                      run, run_from, tableau_to_witness)
from .sexpr import is_str_ident


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


Row = int | NumTerm
Cell = Formula | NumTerm


def holds(cell: Cell, bit: int) -> Formula:
    """A formula cell is asserted or denied; a term cell is compared with bit."""
    if isinstance(cell, NumTerm):
        return EqNum(cell, const_term(bit))
    return cell if bit else Not(cell)


# acc names each binder by its role alone; sibling clauses reuse the names
_FIXED_NAMES = {"t": "t", "z": "i", "u": "u"}.get


class Tableau:
    """The local step conditions of one run grid, built here and only here.

    cell(t, i, f) reads field f of cell i in row t: in acc the formula
    Memb(pos, "W") on a witness string, in nepo the term SeqAt(comp, pos) on
    a grid code, compared with 0 and 1.  Int steps and width fix the grid's
    shape: binders run to the exact last row and cell, unguarded.  Term
    steps and width are measured on a free string: binders run to the term,
    cut down by lt or, for cells, by `inside`.  A rule sees the right tape
    edge as that cut failing at i+1 (lt against an int width), which keeps
    every setting clamp-consistent with the simulator.  fresh names the
    binders from the bases t (row), z (cell) and u (left neighbour).
    """

    def __init__(self, tm: TMDescription, cell: Callable[[Row, Row, int], Cell],
                 steps: int | NumTerm, width: int | NumTerm,
                 inside: Callable[[NumTerm], Formula] | None = None,
                 fresh: Callable[[str], str] = _FIXED_NAMES):
        self.tm, self.cell, self.steps, self.fresh = tm, cell, steps, fresh
        if isinstance(width, int):
            self.cell_bound, self.cell_guard = const_term(width - 1), None
            self.edge_guard = lambda v: lt(v, const_term(width))
        else:
            self.cell_bound = width
            self.cell_guard = self.edge_guard = inside or (lambda v: lt(v, width))

    def mark_is(self, t: Row, i: Row, mark: int) -> Formula:
        return land([holds(self.cell(t, i, 1 + f), (mark >> f) & 1)
                     for f in range(self.tm.state_bits)])

    def marked(self, t: Row, i: Row) -> Formula:
        return Not(self.mark_is(t, i, 0))

    def each_row(self, var: str, body: Formula) -> Formula:
        steps = self.steps
        return AlN(var, const_term(steps) if isinstance(steps, int) else steps, body)

    def each_step(self, var: str, body: Formula) -> Formula:
        """body for every row that has a successor row."""
        if isinstance(self.steps, int):
            return AlN(var, const_term(self.steps - 1), body)
        return forall_below(var, self.steps, body)

    def each_cell(self, var: str, body: Formula) -> Formula:
        if self.cell_guard is not None:
            body = Imp(self.cell_guard(NVar(var)), body)
        return AlN(var, self.cell_bound, body)

    def some_cell(self, var: str, body: Formula) -> Formula:
        if self.cell_guard is not None:
            body = And(self.cell_guard(NVar(var)), body)
        return ExN(var, self.cell_bound, body)

    def frame(self) -> Formula:
        """Tape bits away from the head carry over unchanged."""
        tvar, ivar = self.fresh("t"), self.fresh("z")
        t, i = NVar(tvar), NVar(ivar)
        now, nxt = self.cell(t, i, 0), self.cell(Plus(t, One()), i, 0)
        keep = EqNum(nxt, now) if isinstance(now, NumTerm) else iff(nxt, now)
        return self.each_step(tvar, self.each_cell(ivar, Imp(self.mark_is(t, i, 0), keep)))

    def transitions(self) -> Formula:
        """One clause per machine rule; see TRANS in the module docstring."""
        tvar, ivar = self.fresh("t"), self.fresh("z")
        t, i = NVar(tvar), NVar(ivar)
        succ, nxt = Plus(t, One()), Plus(i, One())
        rules = []
        for (q, b), (q2, b2, move) in sorted(self.tm.delta.items()):
            if move == MOVE_LEFT:
                uvar = self.fresh("u")
                u = NVar(uvar)
                lands = Or(And(EqNum(i, Zero()), self.mark_is(succ, i, q2)),
                           ExN(uvar, self.cell_bound,
                               And(EqNum(Plus(u, One()), i), self.mark_is(succ, u, q2))))
            elif move == MOVE_RIGHT:
                lands = Or(And(Not(self.edge_guard(nxt)), self.mark_is(succ, i, q2)),
                           And(self.edge_guard(nxt), self.mark_is(succ, nxt, q2)))
            else:
                lands = self.mark_is(succ, i, q2)
            fire = And(self.mark_is(t, i, q), holds(self.cell(t, i, 0), b))
            rules.append(Imp(fire, And(holds(self.cell(succ, i, 0), b2), lands)))
        return self.each_step(tvar, self.each_cell(ivar, land(rules)))

    def validity(self) -> Formula | None:
        """No head mark names a state past k; None when every mark is a state."""
        bad = range(self.tm.k + 1, 1 << self.tm.state_bits)
        if not bad:
            return None
        tvar, ivar = self.fresh("t"), self.fresh("z")
        t, i = NVar(tvar), NVar(ivar)
        bans = land([Not(self.mark_is(t, i, v)) for v in bad])
        return self.each_row(tvar, self.each_cell(ivar, bans))


def single_head(tab: Tableau) -> Formula:
    """At most one marked cell per row: no two distinct cells both marked."""
    t, i, j = NVar("t"), NVar("i"), NVar("j")
    clash = And(tab.marked(t, i), tab.marked(t, j))
    return tab.each_row("t", tab.each_cell("i", tab.each_cell(
        "j", Imp(Not(EqNum(i, j)), Not(clash)))))


def _shared_clauses(tab: Tableau) -> list[Formula]:
    """acc's step clauses; an empty VALIDITY stays in as TRUE."""
    return [tab.frame(), tab.transitions(), tab.validity() or TRUE, single_head(tab)]


def _witness_cells(tm: TMDescription, stride: NumTerm) -> Callable[[Row, Row, int], Cell]:
    """Cells of the witness string W, one tableau row every stride bits."""
    fields = 1 + tm.state_bits

    def cell(t: NumTerm, i: NumTerm, f: int) -> Formula:
        return Memb(Plus(Times(t, stride), Plus(Times(i, const_term(fields)),
                                                const_term(f))), "W")
    return cell


def check_input_name(xvar: str) -> None:
    """ValueError unless xvar parses back as a string name and the witness
    binder exS W does not capture it."""
    if not is_str_ident(xvar) or xvar == "W":
        raise ValueError("need an uppercase identifier other than W")


def _input_width(p: PolyBound, xvar: str) -> NumTerm:
    """p(|xvar|), the tape width and step count, for a checked input name."""
    check_input_name(xvar)
    return poly_term(p, Len(xvar))


def acc_matrix(tm: TMDescription, p: PolyBound, xvar: str = "X") -> Formula:
    """The string-quantifier-free body of the acceptance formula."""
    width = _input_width(p, xvar)  # also the step count
    stride = Times(width, const_term(1 + tm.state_bits))
    tab = Tableau(tm, _witness_cells(tm, stride), width, width)
    i = NVar("i")
    row0 = Zero()
    init = tab.each_cell("i", land([
        iff(tab.cell(row0, i, 0), Memb(i, xvar)),
        Imp(EqNum(i, Zero()), tab.mark_is(row0, i, 1)),
        Imp(Not(EqNum(i, Zero())), tab.mark_is(row0, i, 0)),
    ]))
    accept = tab.some_cell("i", tab.mark_is(tab.steps, i, tm.k))
    return land([init, *_shared_clauses(tab), accept])


def acc_witness_bound(tm: TMDescription, p: PolyBound, xvar: str = "X") -> NumTerm:
    width = _input_width(p, xvar)  # also the step count
    return Times(Plus(width, One()), Times(width, const_term(1 + tm.state_bits)))


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


@lru_cache(maxsize=32)
def _compiled(matrix: Callable[[TMDescription, PolyBound], Formula], k: int,
              rules: tuple, p: PolyBound) -> Compiled:
    return compile_formula(matrix(TMDescription(k, dict(rules)), p))


def _compiled_matrix(matrix: Callable[[TMDescription, PolyBound], Formula],
                     tm: TMDescription, p: PolyBound) -> Compiled:
    """matrix(tm, p) compiled once per matrix kind, machine content and p."""
    return _compiled(matrix, tm.k, tuple(sorted(tm.delta.items())), p)


def check_witness(tm: TMDescription, p: PolyBound, x: str, w: str) -> bool:
    """Evaluate the acceptance matrix at a concrete witness string."""
    layout = acc_layout(tm, p, set_length(x))
    if len(w) < layout.total_bits:
        raise LayoutError(
            f"witness has {len(w)} bits, layout needs {layout.total_bits}")
    env = Assignment(strs={"X": x, "W": w})
    s = _eval_slice(layout.total_bits, layout.steps)
    return _compiled_matrix(acc_matrix, tm, p)(s, env)


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
    """One tableau row encoded, plus a sentinel 1 pinning the length."""
    return encode_row(conf, state_bits) + "1"


def string_to_config(s: str, tm: TMDescription) -> Configuration:
    fields = 1 + tm.state_bits
    n = set_length(s)
    if n < 1 or (n - 1) % fields:
        raise LayoutError(f"length {n} does not fit {fields}-bit cells plus sentinel")
    return decode_row([1 if c == "1" else 0 for c in s[:n - 1]], tm.state_bits, tm.k)


def reach_matrix(tm: TMDescription, p: PolyBound) -> Formula:
    fields = const_term(1 + tm.state_bits)
    size = Len("Y")

    def fits(v: NumTerm) -> Formula:
        """The whole field block of cell v lies left of the sentinel."""
        return lt(Plus(Times(v, fields), fields), size)

    tab = Tableau(tm, _witness_cells(tm, size), poly_term(p, size), size, inside=fits)
    j, t = NVar("j"), NVar("t")
    boundary0 = forall_below("j", size, iff(Memb(j, "W"), Memb(j, "Y")))
    boundary_end = forall_below(
        "j", size,
        iff(Memb(Plus(Times(tab.steps, size), j), "W"), Memb(j, "Z")))
    sentinels = tab.each_row("t", ExN(
        "s", size,
        And(EqNum(Plus(NVar("s"), One()), size),
            Memb(Plus(Times(t, size), NVar("s")), "W"))))
    return land([boundary0, boundary_end, sentinels, *_shared_clauses(tab)])


def reach_witness_bound(tm: TMDescription, p: PolyBound) -> NumTerm:
    return Times(Plus(poly_term(p, Len("Y")), One()), Len("Y"))


def compile_reach(tm: TMDescription, p: PolyBound) -> Formula:
    """Configuration Z is reached from Y after p(|Y|) steps."""
    return ExS("W", reach_witness_bound(tm, p), reach_matrix(tm, p))


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
    return _compiled_matrix(reach_matrix, tm, p)(_eval_slice(total, steps), env)


def eval_reach(tm: TMDescription, p: PolyBound, y: str, z: str) -> bool:
    """Decide the compiled reachability formula on configuration strings.

    y must decode to a well-formed configuration; the deterministic run
    from it is the only candidate witness, mirroring eval_acc.
    """
    start = string_to_config(y, tm)
    steps = p.eval(set_length(y))
    w = reach_witness(tm, start, steps)
    return check_reach_witness(tm, p, y, z, w)
