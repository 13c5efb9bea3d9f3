"""Divide-and-conquer reachability compiled into number-quantified formulas.

A machine running within a polynomial step budget but small space admits an
acceptance formula with no string quantifiers at all: the computation grid is
small enough to live inside a single number.  Each recursion level splits the
run into `span` chunks, stores one configuration row per chunk boundary in a
width-1 sequence code, and delegates chunk verification to the level below.
Level 0 checks single machine steps directly, with the FRAME, TRANS and
VALIDITY clauses that acc.Tableau builds over the grid code's cells.

Honest evaluation of the emitted formulas would sweep astronomically large
number quantifiers (a grid code has hundreds of bits), so each artifact also
carries certificate roles: selected existential variables get callbacks that
compute the unique admissible value from the machine simulator, and the
artifact's formula, compiled once by evaluate.compile_formula, sweeps only the
small quantifiers (see the soundness note in the evaluate module docstring).
The equivalence of the two evaluation modes rests on the grid clauses pinning
the witness uniquely, which the test suite checks exhaustively at miniature
scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .acc import Tableau, holds, iff
from .codec import bit_at, encode_seq, seq_code_bound, seq_get_total, set_length, trim
from .errors import BudgetError
from .evaluate import Assignment, Compiled, FiniteSlice, Roles, compile_formula
from .formulas import (AlN, AlS, And, EqNum, ExN, ExS, Formula, Imp,
                       Len, Leq, Memb, Not, NumTerm, NVar, One, Or, Plus,
                       SeqAt, SeqLen, Times, const_term, formula_size, land)
from .machine import (ComputationTableau, Configuration, TMDescription,
                      initial_configuration, run_from, tableau_to_witness)

__all__ = [
    "NepoBounds", "NepoArtifact", "compile_reach0", "compile_Reach",
    "compile_cell_predicate", "compile_acceptance_sigma0", "formula_size",
    "size_report", "reach_artifact", "cell_artifact", "acceptance_artifact",
    "nepo_slice", "cell_code", "radix_digits",
    "eval_reach_level", "eval_acceptance", "collect_quantifier_bounds",
]


def _iceil_root(x: int, r: int) -> int:
    """Least y >= 0 with y**r >= x, by exact integer bisection."""
    if x <= 1:
        return max(x, 0)
    lo, hi = 1, 2
    while hi ** r < x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** r >= x:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _ceil_pow(n: int, e: Fraction) -> int:
    """Exact ceiling of n**e for n >= 1 and rational e."""
    if e <= 0:
        return 1
    return _iceil_root(n ** e.numerator, e.denominator)


@dataclass(frozen=True, slots=True)
class NepoBounds:
    """Scale parameters: time m**c, space roughly (m**k)**eps, depth d.

    d defaults to the least depth whose chunk budget covers m**c steps;
    passing it explicitly skips that derivation (useful when the space
    exponent leaves only one configuration row per chunk).
    """

    c: int
    eps: Fraction
    k: int
    m: int
    d: int = -1

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.m < 2 or self.k < 1 or self.c < 0:
            raise ValueError("need m >= 2, k >= 1, c >= 0")
        if not 0 < self.eps <= Fraction(1, self.k):
            raise ValueError("space exponent must lie in (0, 1/k]")
        if self.d == -1:
            object.__setattr__(self, "d", self._derive_depth())
        elif self.d < 0:
            raise ValueError("depth must be non-negative")

    def _derive_depth(self) -> int:
        target = self.m ** self.c
        if self.span == 1:
            if target == 1:
                return 0
            raise BudgetError(
                "chunk count 1 can never cover the step budget; pass d explicitly")
        d = 0
        while self.span ** (d + 1) < target:
            d += 1
        return d

    @property
    def n(self) -> int:
        return self.m ** self.k

    @property
    def width(self) -> int:
        """Tape cells available to the compiled grids."""
        return _ceil_pow(self.n, self.eps)

    @property
    def span(self) -> int:
        """Configuration rows per grid chunk: ceil(n ** ((1 - k*eps)/k))."""
        return _ceil_pow(self.n, (1 - self.k * self.eps) / Fraction(self.k))

    @property
    def last_row(self) -> int:
        """Largest virtual tableau row the radix digits can address."""
        return self.span ** (self.d + 1) - 1


def radix_digits(i: int, b: NepoBounds) -> tuple[int, ...]:
    """Digits (low level first) of i in base b.span, one per level."""
    if not 0 <= i <= b.last_row:
        raise ValueError(f"row {i} outside [0, {b.last_row}]")
    digits = []
    for _ in range(b.d + 1):
        i, r = divmod(i, b.span)
        digits.append(r)
    return tuple(digits)


def cell_code(bit: int, mark: int) -> int:
    """Canonical number for a (bit, head-mark) cell; fields read by position."""
    return encode_seq([bit, mark])


# --- term plumbing ---


def _term(x: int | NumTerm) -> NumTerm:
    return const_term(x) if isinstance(x, int) else x


def _mul(t: int | NumTerm, m: int) -> int | NumTerm:
    if isinstance(t, int):
        return t * m
    return t if m == 1 else Times(t, const_term(m))


def _add(a: int | NumTerm, b: int | NumTerm) -> int | NumTerm:
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if isinstance(a, int) and a == 0:
        return b
    if isinstance(b, int) and b == 0:
        return a
    return Plus(_term(a), _term(b))


_Source = tuple[Callable[[int | NumTerm, int], "NumTerm | Formula"],
                Callable[[Assignment], Configuration | None],
                Formula | None]


@dataclass(frozen=True, eq=False, slots=True)
class NepoArtifact:
    """A compiled formula plus the certificate callbacks for its existentials."""

    formula: Formula
    roles: Roles
    slice: FiniteSlice
    _compiled: Compiled | None = field(default=None, init=False, repr=False)

    def evaluate(self, env: Assignment, roles_override: Roles | None = None,
                 s: FiniteSlice | None = None) -> bool:
        """eval_formula of the formula with these roles, through the formula
        compiled at the first call and kept for the artifact's lifetime."""
        if self._compiled is None:
            object.__setattr__(self, "_compiled", compile_formula(self.formula))
        roles = self.roles if roles_override is None else {**self.roles, **roles_override}
        return self._compiled(s or self.slice, env, roles)


class _Emitter:
    """Shared state for one compilation: geometry, fresh names, role table."""

    def __init__(self, tm: TMDescription, b: NepoBounds):
        self.tm = tm
        self.b = b
        self.width = b.width
        self.span = b.span
        self.sb = tm.state_bits
        self.fields = 1 + self.sb
        self.row_bits = self.width * self.fields
        self.grid_bits = (self.span + 1) * self.row_bits
        self.comp_bound = seq_code_bound(self.grid_bits, 1)
        self.con_bound = seq_code_bound(self.row_bits, 1)
        self.used = {"I", "X", "i", "j", "p1", "p2", "cell", "comp"}
        self.roles: Roles = {}

    def fresh(self, base: str) -> str:
        name = base
        n = 1
        while name in self.used:
            n += 1
            name = f"{base}{n}"
        self.used.add(name)
        return name

    # --- grid geometry as terms ---

    def pos(self, t: int | NumTerm, z: int | NumTerm, f: int) -> NumTerm:
        cell = _add(_mul(t, self.width), z)
        return _term(_add(_mul(cell, self.fields), f))

    def cells(self, comp: str) -> Callable[[int | NumTerm, int | NumTerm, int], NumTerm]:
        """Reader of grid code comp: field f of cell z in row t."""
        return lambda t, z, f: SeqAt(NVar(comp), self.pos(t, z, f))

    def tableau(self, comp: str) -> Tableau:
        return Tableau(self.tm, self.cells(comp), self.span, self.width, fresh=self.fresh)

    def mark_sum(self, comp: str, t, z) -> NumTerm:
        """The head mark of a cell as a weighted sum of its mark bits."""
        cell = self.cells(comp)
        total: int | NumTerm = 0
        for f in range(self.sb):
            total = _add(total, _mul(cell(t, z, 1 + f), 1 << f))
        return _term(total)

    # --- initial-row sources ---

    def config_string_source(self, svar: str) -> _Source:
        def sym(z, f):
            return Memb(self.pos(0, z, f), svar)

        def read(env: Assignment) -> Configuration | None:
            s = env.strs.get(svar, "")
            if set_length(s) != self.row_bits + 1:
                return None
            return self._bits_to_config(lambda p: int(bit_at(s, p)))

        pin = EqNum(Len(svar), const_term(self.row_bits + 1))
        return sym, read, pin

    def input_string_source(self, svar: str) -> _Source:
        def sym(z, f):
            if f == 0:
                return Memb(_term(z), svar)
            if f == 1:
                return EqNum(_term(z), const_term(0))
            return Leq(One(), const_term(0))

        def read(env: Assignment) -> Configuration | None:
            x = trim(env.strs.get(svar, ""))
            if len(x) > self.width:
                return None
            return initial_configuration(x, self.width)

        return sym, read, None

    def con_source(self, con: str) -> _Source:
        def sym(z, f):
            return self.cells(con)(0, z, f)

        def read(env: Assignment) -> Configuration | None:
            v = env.nums[con]
            return self._bits_to_config(lambda p: seq_get_total(v, p))

        return sym, read, None

    def row_source(self, comp: str, tvar: str) -> _Source:
        def sym(z, f):
            return self.cells(comp)(NVar(tvar), z, f)

        def read(env: Assignment) -> Configuration | None:
            v = env.nums[comp]
            base = env.nums[tvar] * self.row_bits
            return self._bits_to_config(lambda p: seq_get_total(v, base + p))

        return sym, read, None

    def _bits_to_config(self, bit: Callable[[int], int]) -> Configuration | None:
        cells = []
        for z in range(self.width):
            mark = 0
            for f in range(self.sb):
                mark |= bit(z * self.fields + 1 + f) << f
            if mark > self.tm.k:
                return None
            cells.append((bit(z * self.fields), mark))
        try:
            return Configuration(tuple(cells))
        except ValueError:
            return None

    # --- grid clauses ---

    def grid(self, level: int, comp: str, source: _Source) -> Formula:
        sym, _read, pin = source
        tab = self.tableau(comp)
        parts = [EqNum(SeqLen(NVar(comp)), const_term(self.grid_bits))]
        if pin is not None:
            parts.append(pin)
        parts.append(self._init(tab, sym))
        if level == 0:
            zvar = self.fresh("z")
            has_head = tab.some_cell(zvar, tab.marked(0, NVar(zvar)))
            parts += [has_head, tab.transitions(), tab.frame(), single_head(tab)]
            validity = tab.validity()
            if validity is not None:
                parts.append(validity)
        else:
            tvar = self.fresh("t")
            sub = self.exists_grid(
                level - 1, self.row_source(comp, tvar),
                lambda name: [self._same_row(name, self.span, comp, _add(NVar(tvar), 1))])
            parts.append(AlN(tvar, const_term(self.span - 1), sub))
        return land(parts)

    def exists_grid(self, level: int, source: _Source,
                    extra: Callable[[str], list[Formula]] | None = None,
                    name: str | None = None) -> Formula:
        comp = name or self.fresh("comp")
        body = [self.grid(level, comp, source)]
        if extra is not None:
            body += extra(comp)
        self.roles[comp] = self._grid_callback(level, source[1])
        return ExN(comp, const_term(self.comp_bound), land(body))

    def _grid_callback(self, level: int, read) -> Callable[[Assignment], int]:
        stride = self.span ** level

        def callback(env: Assignment) -> int:
            start = read(env)
            if start is None:
                return 0
            tableau = run_from(self.tm, start, self.span * stride)
            rows = tableau.rows[::stride]
            bits = tableau_to_witness(
                ComputationTableau(tuple(rows), self.width, self.sb))
            return encode_seq([int(ch) for ch in bits])

        return callback

    def _init(self, tab: Tableau, sym) -> Formula:
        zvar = self.fresh("z")
        z = NVar(zvar)
        conjs = []
        for f in range(self.fields):
            want, have = sym(z, f), tab.cell(0, z, f)
            if isinstance(want, NumTerm):
                conjs.append(EqNum(have, want))
            else:
                conjs.append(iff(holds(have, 1), want))
        return tab.each_cell(zvar, land(conjs))

    def _same_row(self, a: str, row_a, b: str, row_b) -> Formula:
        """Row row_a of grid code a equals row row_b of grid code b."""
        zvar = self.fresh("z")
        z = NVar(zvar)
        here, there = self.tableau(a), self.cells(b)
        return here.each_cell(zvar, land([EqNum(here.cell(row_a, z, f), there(row_b, z, f))
                                          for f in range(self.fields)]))

    def query(self, comp: str, row: NumTerm, col: NumTerm, cellvar: str) -> Formula:
        cell = NVar(cellvar)
        return And(
            EqNum(SeqAt(cell, const_term(0)), self.cells(comp)(row, col, 0)),
            EqNum(SeqAt(cell, const_term(1)), self.mark_sum(comp, row, col)))

    def exists_con(self, comp: str, digit: str,
                   inner: Callable[[str], Formula]) -> Formula:
        con = self.fresh("con")
        pin = And(EqNum(SeqLen(NVar(con)), const_term(self.row_bits)),
                  self._same_row(con, 0, comp, NVar(digit)))

        def callback(env: Assignment) -> int:
            v = env.nums[comp]
            base = env.nums[digit] * self.row_bits
            bits = [seq_get_total(v, base + p) for p in range(self.row_bits)]
            return encode_seq(bits)

        self.roles[con] = callback
        return ExN(con, const_term(self.con_bound),
                   And(pin, inner(con)))


def single_head(tab: Tableau) -> Formula:
    """At most one marked cell per row: a marked cell z is the only one."""
    tvar, zvar, ovar = tab.fresh("t"), tab.fresh("z"), tab.fresh("z")
    t, z, o = NVar(tvar), NVar(zvar), NVar(ovar)
    lone = Imp(tab.marked(t, z),
               tab.each_cell(ovar, Or(EqNum(o, z), Not(tab.marked(t, o)))))
    return tab.each_row(tvar, tab.each_cell(zvar, lone))


def _reach_emitter(tm: TMDescription, b: NepoBounds, level: int) -> _Emitter:
    if level > b.d:
        raise ValueError(f"level {level} exceeds recursion depth {b.d}")
    if level < 0:
        raise ValueError("level must be non-negative")
    return _Emitter(tm, b)


def compile_reach0(tm: TMDescription, b: NepoBounds) -> Formula:
    """Level-0 grid relation with the computation code left free.

    Free variables: I (configuration string), p1, p2, cell, comp.
    """
    em = _Emitter(tm, b)
    grid = em.grid(0, "comp", em.config_string_source("I"))
    return And(grid, em.query("comp", NVar("p1"), NVar("p2"), "cell"))


def reach_artifact(tm: TMDescription, b: NepoBounds, level: int) -> NepoArtifact:
    em = _reach_emitter(tm, b, level)
    f = em.exists_grid(
        level, em.config_string_source("I"),
        lambda comp: [em.query(comp, NVar("p1"), NVar("p2"), "cell")],
        name="comp")
    return NepoArtifact(f, em.roles, nepo_slice(tm, b))


def compile_Reach(tm: TMDescription, b: NepoBounds, level: int) -> Formula:
    """Reachability closed over the computation: exists comp, grid and query."""
    return reach_artifact(tm, b, level).formula


def _cell_chain(em: _Emitter, i_term: NumTerm, source: _Source,
                final: Callable[[str, str], Formula]) -> Formula:
    """Digits, radix equation, and the level-by-level configuration hand-off.

    final(comp0, digit0) supplies the innermost clause over the level-0 grid.
    """
    b = em.b
    digits = [em.fresh(f"r{level}") for level in range(b.d + 1)]
    total: int | NumTerm = 0
    for level, name in enumerate(digits):
        total = _add(total, _mul(NVar(name), b.span ** level))
    radix = EqNum(i_term, _term(total))

    def build(level: int, src: _Source) -> Formula:
        if level == 0:
            return em.exists_grid(0, src, lambda c: [final(c, digits[0])])
        return em.exists_grid(
            level, src,
            lambda c: [em.exists_con(
                c, digits[level],
                lambda con: build(level - 1, em.con_source(con)))])

    body = And(radix, build(b.d, source))
    for name in reversed(digits):
        body = ExN(name, const_term(b.span - 1), body)
    return body


def cell_artifact(tm: TMDescription, b: NepoBounds) -> NepoArtifact:
    em = _Emitter(tm, b)
    f = _cell_chain(
        em, NVar("i"), em.input_string_source("X"),
        lambda comp, digit: em.query(comp, NVar(digit), NVar("j"), "cell"))
    return NepoArtifact(f, em.roles, nepo_slice(tm, b))


def compile_cell_predicate(tm: TMDescription, b: NepoBounds) -> Formula:
    """Virtual tableau cell (i, j) of the run on X, addressed by radix digits.

    Free variables: X, i, j, cell.
    """
    return cell_artifact(tm, b).formula


def acceptance_artifact(tm: TMDescription, b: NepoBounds) -> NepoArtifact:
    em = _Emitter(tm, b)

    def accepting(comp: str, digit: str) -> Formula:
        tab = em.tableau(comp)
        zvar = em.fresh("z")
        return tab.some_cell(zvar, tab.mark_is(NVar(digit), NVar(zvar), tm.k))

    fits = Leq(Len("X"), const_term(b.width))
    chain = _cell_chain(em, const_term(b.last_row),
                        em.input_string_source("X"), accepting)
    return NepoArtifact(And(fits, chain), em.roles, nepo_slice(tm, b))


def compile_acceptance_sigma0(tm: TMDescription, b: NepoBounds) -> Formula:
    """Acceptance with number quantifiers only: accepting state in the last
    addressable virtual row."""
    return acceptance_artifact(tm, b).formula


def nepo_slice(tm: TMDescription, b: NepoBounds) -> FiniteSlice:
    em = _Emitter(tm, b)
    return FiniteSlice(em.comp_bound, em.row_bits + 1)


def eval_reach_level(artifact: NepoArtifact, config: str, p1: int, p2: int,
                     cell: int) -> bool:
    return artifact.evaluate(Assignment(
        nums={"p1": p1, "p2": p2, "cell": cell}, strs={"I": config}))


def eval_acceptance(artifact: NepoArtifact, x: str) -> bool:
    return artifact.evaluate(Assignment(strs={"X": x}))


# --- reporting and inspection ---


def collect_quantifier_bounds(f: Formula) -> list[NumTerm]:
    out: list[NumTerm] = []
    stack = [f]
    while stack:
        g = stack.pop()
        tg = type(g)
        if tg in (ExN, AlN, ExS, AlS):
            out.append(g.bound)
            stack.append(g.body)
        elif tg in (And, Or, Imp):
            stack += [g.left, g.right]
        elif tg is Not:
            stack.append(g.body)
    return out


def size_report(tm: TMDescription, b: NepoBounds, node_cap: int = 500_000) -> dict:
    """Node counts of every artifact for these bounds, with a cap warning."""
    sizes = {f"level{level}": formula_size(compile_Reach(tm, b, level))
             for level in range(b.d + 1)}
    sizes["acceptance"] = formula_size(compile_acceptance_sigma0(tm, b))
    return {
        "sizes": sizes,
        "node_cap": node_cap,
        "over_cap": any(v > node_cap for v in sizes.values()),
    }
