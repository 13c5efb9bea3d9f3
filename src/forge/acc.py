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
p(|Y|) to free configuration strings Y and Z: one row in encode_row's
layout plus a sentinel 1 bit, so |Y| fixes the tape width w, which the
formula binds once.  Row 0 must carry a head (Tableau.has_head, which nepo
asks of its level-0 grids too), so a headless Y reaches nothing.  W is laid
out exactly as for acceptance; |Z| = |Y| and a tight bound on |W| keep Z
and the witness unique.

`Tableau` is the one place the FRAME, TRANS and VALIDITY clauses (and the
mark tests SINGLE-HEAD is written with) are built, for both this module and
nepo: it reads cells through a cell(t, i, field) accessor, here a bit of W,
in nepo a field of a number-coded grid.

String lengths follow set semantics everywhere: the input length seen by
the compiled formula is one past the highest 1 bit of X.

check_witness and check_reach_witness share one helper: it checks the
witness length against a TableauLayout and evaluates the matrix with
evaluate.eval_formula, which keeps its compile, building it once per matrix
kind, machine and polynomial in a small bounded memo keyed by the machine's
content (TMDescription holds a dict, so it is not hashable itself).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .codec import set_length, trim
from .errors import LayoutError
from .evaluate import Assignment, FiniteSlice, eval_formula
from .formulas import (TRUE, AlN, And, EqNum, ExN, ExS, Formula, Imp, Len,
                       Leq, Memb, Not, NumTerm, NVar, One, Or, Plus, Times,
                       Zero, const_term, forall_lt, iff, land, lt)
from .machine import (MOVE_LEFT, MOVE_RIGHT, Configuration, PolyBound,
                      TableauLayout, TMDescription, decode_row, run, run_from,
                      tableau_to_witness)
from .sexpr import is_str_ident


def poly_term(p: PolyBound, var: NumTerm) -> NumTerm:
    """Horner form of p applied to var."""
    acc = const_term(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = Plus(const_term(c), Times(var, acc))
    return acc


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
    steps and width leave it open: binders run to the term, cut down by lt.
    A rule sees the right tape edge as that cut failing at i+1 (lt against
    an int width), which keeps every setting clamp-consistent with the
    simulator.  fresh names the binders from the bases t (row), z (cell)
    and u (left neighbour).
    """

    def __init__(self, tm: TMDescription, cell: Callable[[Row, Row, int], Cell],
                 steps: int | NumTerm, width: int | NumTerm,
                 fresh: Callable[[str], str] = _FIXED_NAMES):
        self.tm, self.cell, self.steps, self.fresh = tm, cell, steps, fresh
        if isinstance(width, int):
            self.cell_bound, self.cell_guard = const_term(width - 1), None
            self.edge_guard = lambda v: lt(v, const_term(width))
        else:
            self.cell_bound = width
            self.cell_guard = self.edge_guard = lambda v: lt(v, width)

    def mark_is(self, t: Row, i: Row, mark: int) -> Formula:
        return land([holds(self.cell(t, i, 1 + f), (mark >> f) & 1)
                     for f in range(self.tm.state_bits)])

    def marked(self, t: Row, i: Row) -> Formula:
        return Not(self.mark_is(t, i, 0))

    def has_head(self, t: Row) -> Formula:
        """Some cell of row t carries a head mark."""
        ivar = self.fresh("z")
        return self.some_cell(ivar, self.marked(t, NVar(ivar)))

    def accepts(self, t: Row) -> Formula:
        """Some cell of row t carries the accepting state (ACCEPT)."""
        ivar = self.fresh("z")
        return self.some_cell(ivar, self.mark_is(t, NVar(ivar), self.tm.k))

    def each_row(self, var: str, body: Formula) -> Formula:
        steps = self.steps
        return AlN(var, const_term(steps) if isinstance(steps, int) else steps, body)

    def each_step(self, var: str, body: Formula) -> Formula:
        """body for every row that has a successor row."""
        if isinstance(self.steps, int):
            return AlN(var, const_term(self.steps - 1), body)
        return forall_lt(var, self.steps, self.steps, body)

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
    return land([init, *_shared_clauses(tab), tab.accepts(tab.steps)])


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


@lru_cache(maxsize=32)
def _matrix(matrix: Callable[[TMDescription, PolyBound], Formula], k: int,
            rules: tuple, p: PolyBound) -> Formula:
    """matrix(TMDescription(k, dict(rules)), p), built once per matrix kind,
    machine and p, so that eval_formula's kept compile serves every check."""
    return matrix(TMDescription(k, dict(rules)), p)


def _check(matrix: Callable[[TMDescription, PolyBound], Formula], tm: TMDescription,
           p: PolyBound, layout: TableauLayout, strs: dict[str, str]) -> bool:
    """Evaluate the memoized matrix at strs, whose witness W must fill layout."""
    w = strs["W"]
    if len(w) < layout.total_bits:
        raise LayoutError(f"witness has {len(w)} bits, layout needs {layout.total_bits}")
    s = FiniteSlice(num_bound=layout.total_bits + layout.steps + 2, str_width=0)
    f = _matrix(matrix, tm.k, tuple(sorted(tm.delta.items())), p)
    return eval_formula(f, s, Assignment(strs=strs))


def check_witness(tm: TMDescription, p: PolyBound, x: str, w: str) -> bool:
    """Evaluate the acceptance matrix at a concrete witness string."""
    layout = acc_layout(tm, p, set_length(x))
    return _check(acc_matrix, tm, p, layout, {"X": x, "W": w})


def eval_acc(tm: TMDescription, p: PolyBound, x: str) -> bool:
    """Decide the compiled acceptance formula on input set x.

    The matrix admits at most the simulator's tableau as witness, so the
    existential is settled by checking that single candidate.
    """
    layout = acc_layout(tm, p, set_length(x))
    tableau = run(tm, trim(x), layout.steps, layout.width)
    return check_witness(tm, p, x, tableau_to_witness(tableau))


# --- reachability between explicit configurations ---


def string_to_config(s: str, tm: TMDescription) -> Configuration:
    fields = 1 + tm.state_bits
    n = set_length(s)
    if n < 1 or (n - 1) % fields:
        raise LayoutError(f"length {n} does not fit {fields}-bit cells plus sentinel")
    return decode_row([1 if c == "1" else 0 for c in s[:n - 1]], tm.state_bits, tm.k)


def reach_matrix(tm: TMDescription, p: PolyBound) -> Formula:
    """W is a tableau of tape width w from row Y to row Z, where Y and Z are
    configuration strings of w cells and a sentinel 1."""
    size, w = Len("Y"), NVar("w")
    stride = Times(w, const_term(1 + tm.state_bits))
    tab = Tableau(tm, _witness_cells(tm, stride), poly_term(p, size), w)
    j = NVar("j")
    row0 = forall_lt("j", stride, stride, iff(Memb(j, "W"), Memb(j, "Y")))
    last = forall_lt("j", stride, stride,
                     iff(Memb(Plus(Times(tab.steps, stride), j), "W"), Memb(j, "Z")))
    return ExN("w", size, land([
        EqNum(size, Plus(stride, One())), EqNum(Len("Z"), size),
        Leq(Len("W"), Times(Plus(tab.steps, One()), stride)),
        row0, tab.has_head(Zero()), last, *_shared_clauses(tab)]))


def compile_reach(tm: TMDescription, p: PolyBound) -> Formula:
    """Configuration Z is reached from Y after p(|Y|) steps."""
    bound = Times(Plus(poly_term(p, Len("Y")), One()), Len("Y"))
    return ExS("W", bound, reach_matrix(tm, p))


def check_reach_witness(tm: TMDescription, p: PolyBound, y: str, z: str,
                        w: str) -> bool:
    """Evaluate the reach matrix at a concrete witness string."""
    layout = TableauLayout(width=len(string_to_config(y, tm).cells),
                           steps=p.eval(set_length(y)), state_bits=tm.state_bits)
    return _check(reach_matrix, tm, p, layout, {"Y": y, "Z": z, "W": w})


def eval_reach(tm: TMDescription, p: PolyBound, y: str, z: str) -> bool:
    """Decide the compiled reachability formula on configuration strings.

    y must decode to a well-formed configuration; the deterministic run
    from it is the only candidate witness, mirroring eval_acc.
    """
    tableau = run_from(tm, string_to_config(y, tm), p.eval(set_length(y)))
    return check_reach_witness(tm, p, y, z, tableau_to_witness(tableau))
