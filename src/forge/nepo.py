"""Divide-and-conquer reachability compiled into number-quantified formulas.

A machine running within a polynomial step budget but small space admits an
acceptance formula with no string quantifiers at all: the computation grid is
small enough to live inside a single number.  Each recursion level splits the
run into `span` chunks, stores one configuration row per chunk boundary in a
width-1 sequence code, and delegates chunk verification to the level below.
The bits of each row are machine's row layout: the callbacks write rows with
machine.encode_row, and the readers of a start row (a configuration string,
a configuration code or a grid row) decode it with machine.decode_row.
Level 0 checks single machine steps directly, with the FRAME, TRANS and
VALIDITY clauses that acc.Tableau builds over the grid code's cells.

Honest evaluation of the emitted formulas would sweep astronomically large
number quantifiers (a grid code has hundreds of bits), so each artifact also
carries certificate roles: selected existential variables get callbacks that
compute the unique admissible value from the machine simulator, and the
artifact's formula, whose compile evaluate.eval_formula keeps, sweeps only the
small quantifiers (see the soundness note in the evaluate module docstring).
The grid callbacks of one artifact share a memo of certificate codes: a
grid's code depends only on its stride (machine steps per row) and its start
configuration, so the memo maps that pair to the code, every evaluation of
the artifact shares it, and the grid a con callback starts shares its code
with the sub-grid at the same row.  It is emptied only on reaching
_CERTIFICATE_CAP codes.
The equivalence of the two evaluation modes rests on the grid clauses pinning
the witness uniquely, which the test suite checks exhaustively at miniature
scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .acc import Tableau, holds
from .codec import (encode_bits, encode_seq, seq_code_bound, seq_fields,
                    set_length, trim)
from .errors import BudgetError, LayoutError
from .evaluate import Assignment, FiniteSlice, Roles, eval_formula
from .formulas import (FALSE, AlN, And, EqNum, ExN, Formula, Imp, Len, Leq,
                       Memb, Not, NumTerm, NVar, Or, Plus, SeqAt, SeqLen, Times,
                       const_term, formula_size, iff, land)
from .machine import (Configuration, TMDescription, decode_row, encode_row,
                      initial_configuration, run_from)

__all__ = [
    "NepoBounds", "NepoArtifact", "compile_Reach", "compile_acceptance_sigma0",
    "size_report", "reach_artifact", "cell_artifact", "acceptance_artifact",
    "eval_acceptance",
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
    d: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.m < 2 or self.k < 1 or self.c < 0:
            raise ValueError("need m >= 2, k >= 1, c >= 0")
        if not 0 < self.eps <= Fraction(1, self.k):
            raise ValueError("space exponent must lie in (0, 1/k]")
        if self.d is None:
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


_CERTIFICATE_CAP = 4096  # codes per memo

_Source = tuple[Callable[[int | NumTerm, int], "NumTerm | Formula"],
                Callable[[Assignment], Configuration | None],
                Formula | None]


@dataclass(frozen=True, eq=False, slots=True)
class NepoArtifact:
    """A compiled formula plus the certificate callbacks for its existentials."""

    formula: Formula
    roles: Roles
    slice: FiniteSlice

    def evaluate(self, env: Assignment, roles_override: Roles | None = None,
                 s: FiniteSlice | None = None) -> bool:
        """eval_formula of the formula, at s or the slice, with these roles."""
        roles = self.roles if roles_override is None else {**self.roles, **roles_override}
        return eval_formula(self.formula, s or self.slice, env, roles)


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
        self.certificates: dict[tuple[int, Configuration], int] = {}

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
            return self._decode([1 if c == "1" else 0 for c in s[:self.row_bits]])

        pin = EqNum(Len(svar), const_term(self.row_bits + 1))
        return sym, read, pin

    def input_string_source(self, svar: str) -> _Source:
        def sym(z, f):
            if f == 0:
                return Memb(_term(z), svar)
            if f == 1:
                return EqNum(_term(z), const_term(0))
            return FALSE

        def read(env: Assignment) -> Configuration:
            # INIT reads only the cells below width, so the rest of X is free
            return initial_configuration(trim(env.strs.get(svar, ""))[:self.width],
                                         self.width)

        return sym, read, None

    def row_source(self, code: str, row: int | str) -> _Source:
        """Row `row` of grid code `code`: 0, or the name of a row variable."""
        t = row if row == 0 else NVar(row)

        def sym(z, f):
            return self.cells(code)(t, z, f)

        def read(env: Assignment) -> Configuration | None:
            return self._decode(self._row_bits(env.nums[code],
                                               env.nums[row] if row else 0))

        return sym, read, None

    def _row_bits(self, code: int, t: int) -> Sequence[int]:
        """Row t of grid code `code`, read through seq_fields: the low 5
        bits hold the width, the fields sit under a sentinel top bit, and
        fields past the last read 0; a negative code or row raises."""
        fields = seq_fields(code)
        if t < 0:
            raise IndexError("sequence positions are non-negative")
        base = t * self.row_bits
        row = fields[base:base + self.row_bits]
        if len(row) < self.row_bits:
            row = list(row) + [0] * (self.row_bits - len(row))
        return row

    def _decode(self, bits: Sequence[int]) -> Configuration | None:
        """The row bits encode, or None (so the callback yields 0) when they
        encode no configuration of this machine."""
        try:
            return decode_row(bits, self.sb, self.tm.k)
        except (LayoutError, ValueError):
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
            parts += [tab.has_head(0), tab.transitions(), tab.frame(), single_head(tab)]
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
                    extra: Callable[[str], list[Formula]],
                    name: str | None = None) -> Formula:
        comp = name or self.fresh("comp")
        body = [self.grid(level, comp, source), *extra(comp)]
        self.roles[comp] = self._grid_callback(level, source[1])
        return ExN(comp, const_term(self.comp_bound), land(body))

    def _grid_callback(self, level: int, read) -> Callable[[Assignment], int]:
        stride = self.span ** level
        memo = self.certificates

        def callback(env: Assignment) -> int:
            start = read(env)
            if start is None:
                return 0
            code = memo.get((stride, start))
            if code is None:
                if len(memo) >= _CERTIFICATE_CAP:
                    memo.clear()
                rows = run_from(self.tm, start, self.span * stride).rows[::stride]
                code = encode_bits("".join(encode_row(row, self.sb) for row in rows))
                memo[stride, start] = code
            return code

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
            row = self._row_bits(env.nums[comp], env.nums[digit])
            if max(row) > 1:  # only a code wider than the callbacks write
                return encode_seq(row)
            return encode_bits("".join(map(str, row)))

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


def _artifact(em: _Emitter, f: Formula) -> NepoArtifact:
    """The artifact of f, with em's roles."""
    return NepoArtifact(f, em.roles, FiniteSlice(em.comp_bound, em.row_bits + 1))


def reach_artifact(tm: TMDescription, b: NepoBounds, level: int) -> NepoArtifact:
    if level > b.d:
        raise ValueError(f"level {level} exceeds recursion depth {b.d}")
    if level < 0:
        raise ValueError("level must be non-negative")
    em = _Emitter(tm, b)
    f = em.exists_grid(
        level, em.config_string_source("I"),
        lambda comp: [em.query(comp, NVar("p1"), NVar("p2"), "cell")],
        name="comp")
    return _artifact(em, f)


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
                lambda con: build(level - 1, em.row_source(con, 0)))])

    body = And(radix, build(b.d, source))
    for name in reversed(digits):
        body = ExN(name, const_term(b.span - 1), body)
    return body


def cell_artifact(tm: TMDescription, b: NepoBounds) -> NepoArtifact:
    """Virtual tableau cell (i, j) of the run on X, addressed by radix digits.

    Free variables: X, i, j, cell.
    """
    em = _Emitter(tm, b)
    f = _cell_chain(
        em, NVar("i"), em.input_string_source("X"),
        lambda comp, digit: em.query(comp, NVar(digit), NVar("j"), "cell"))
    return _artifact(em, f)


def acceptance_artifact(tm: TMDescription, b: NepoBounds) -> NepoArtifact:
    em = _Emitter(tm, b)
    fits = Leq(Len("X"), const_term(b.width))
    chain = _cell_chain(em, const_term(b.last_row), em.input_string_source("X"),
                        lambda comp, digit: em.tableau(comp).accepts(NVar(digit)))
    return _artifact(em, And(fits, chain))


def compile_acceptance_sigma0(tm: TMDescription, b: NepoBounds) -> Formula:
    """Acceptance with number quantifiers only: accepting state in the last
    addressable virtual row."""
    return acceptance_artifact(tm, b).formula


def eval_acceptance(artifact: NepoArtifact, x: str) -> bool:
    return artifact.evaluate(Assignment(strs={"X": x}))


# --- reporting ---


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
