"""AST for bounded two-sorted formulas plus structural operations.

Terms are number-valued:
  Const(n)       a constant n >= 0 as one leaf;
  NVar           a number variable;
  Plus, Times    sum and product;
  Len            the length of a string variable;
  SeqAt, SeqLen  element access and element count over number codes.
Zero() and One() are the shared leaves Const(0) and Const(1), and
const_term is Const.  A `Const` of 2 or more stands for the binary
expansion of n over {0, 1, +, *}, where 2m is (* (+ 1 1) m) and 2m + 1 is
(+ (* (+ 1 1) m) 1): it prints as that expansion and is sized as that
expansion, so the text language has no numerals beyond 0 and 1, and a
printed `Const` parses back as the same `Const`.
The sequence primitives stand in for a fixed definable coding of short
sequences by numbers, which the rest of the toolchain treats as part of the
base language.

Formulas: number equality and order, string extensional equality, string
membership X(t), the connectives and/or/not/imp, and bounded quantifiers of
both sorts.  Every quantifier carries an inclusive bound term.

Naming discipline: number variables start with a lowercase letter, string
variables with an uppercase letter.
"""

from __future__ import annotations

from dataclasses import dataclass


# --- terms ---


class NumTerm:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(NumTerm):
    """The constant `value` (at least 0) as a single leaf."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("terms denote non-negative numbers")


const_term = Const
_ZERO, _ONE = Const(0), Const(1)


def Zero() -> Const:
    return _ZERO


def One() -> Const:
    return _ONE


@dataclass(frozen=True, slots=True)
class NVar(NumTerm):
    name: str


@dataclass(frozen=True, slots=True)
class Plus(NumTerm):
    left: NumTerm
    right: NumTerm


@dataclass(frozen=True, slots=True)
class Times(NumTerm):
    left: NumTerm
    right: NumTerm


@dataclass(frozen=True, slots=True)
class Len(NumTerm):
    svar: str


@dataclass(frozen=True, slots=True)
class SeqAt(NumTerm):
    """Element of the sequence coded by `seq` at position `index`."""

    seq: NumTerm
    index: NumTerm


@dataclass(frozen=True, slots=True)
class SeqLen(NumTerm):
    """Element count of the sequence coded by `seq`."""

    seq: NumTerm


# --- formulas ---


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class EqNum(Formula):
    left: NumTerm
    right: NumTerm


@dataclass(frozen=True, slots=True)
class Leq(Formula):
    left: NumTerm
    right: NumTerm


@dataclass(frozen=True, slots=True)
class EqStr(Formula):
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class Memb(Formula):
    index: NumTerm
    svar: str


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class ExN(Formula):
    var: str
    bound: NumTerm
    body: Formula


@dataclass(frozen=True, slots=True)
class AlN(Formula):
    var: str
    bound: NumTerm
    body: Formula


@dataclass(frozen=True, slots=True)
class ExS(Formula):
    var: str
    bound: NumTerm
    body: Formula


@dataclass(frozen=True, slots=True)
class AlS(Formula):
    var: str
    bound: NumTerm
    body: Formula


NUM_QUANTIFIERS = (ExN, AlN)
STR_QUANTIFIERS = (ExS, AlS)
QUANTIFIERS = NUM_QUANTIFIERS + STR_QUANTIFIERS


@dataclass(frozen=True, slots=True)
class QuantClass:
    """Position in the string-quantifier alternation hierarchy."""

    kind: str  # "sigma" or "pi"
    level: int

    def __post_init__(self):
        if self.kind not in ("sigma", "pi"):
            raise ValueError("kind must be sigma or pi")
        if self.level < 0:
            raise ValueError("level must be non-negative")

    def __str__(self) -> str:
        return f"{'Sigma' if self.kind == 'sigma' else 'Pi'}B({self.level})"


def is_num_name(name: str) -> bool:
    return bool(name) and name[0].islower()


def is_str_name(name: str) -> bool:
    return bool(name) and name[0].isupper()


# --- variable bookkeeping ---


def term_vars(t: NumTerm, nums: set[str], strs: set[str]) -> None:
    """Add the number variables of t to nums and its string variables to strs."""
    stack = [t]
    while stack:
        u = stack.pop()
        tu = type(u)
        if tu is NVar:
            nums.add(u.name)
        elif tu is Len:
            strs.add(u.svar)
        elif tu in (Plus, Times):
            stack += (u.left, u.right)
        elif tu is SeqAt:
            stack += (u.seq, u.index)
        elif tu is SeqLen:
            stack.append(u.seq)


def free_vars(f: Formula) -> tuple[set[str], set[str]]:
    """Free (number, string) variable names of f.  Iterative, and it leaves
    no reference cycle behind, so that evaluation can call it per compile."""
    nums: set[str] = set()
    strs: set[str] = set()
    stack: list[tuple[Formula, frozenset[str], frozenset[str]]] = [
        (f, frozenset(), frozenset())]
    while stack:
        g, bound_n, bound_s = stack.pop()
        tg = type(g)
        terms: tuple = ()
        if tg in (EqNum, Leq):
            terms = (g.left, g.right)
        elif tg is EqStr:
            strs.update({g.left, g.right} - bound_s)
        elif tg is Memb:
            terms = (g.index,)
            strs.update({g.svar} - bound_s)
        elif tg in (And, Or, Imp):
            stack += [(g.right, bound_n, bound_s), (g.left, bound_n, bound_s)]
        elif tg is Not:
            stack.append((g.body, bound_n, bound_s))
        elif tg in NUM_QUANTIFIERS:
            terms = (g.bound,)
            stack.append((g.body, bound_n | {g.var}, bound_s))
        elif tg in STR_QUANTIFIERS:
            terms = (g.bound,)
            stack.append((g.body, bound_n, bound_s | {g.var}))
        else:
            raise TypeError(f"not a formula: {g!r}")
        for t in terms:
            ns: set[str] = set()
            ss: set[str] = set()
            term_vars(t, ns, ss)
            nums.update(ns - bound_n)
            strs.update(ss - bound_s)
    return nums, strs


# --- classification ---


def classify(f: Formula) -> QuantClass:
    """Smallest hierarchy class, counting string-quantifier alternations.

    Number quantifiers are transparent; a formula with no string quantifier
    sits at level 0 and is reported on the sigma side.
    """
    s, p = _levels(f)
    if s == 0 and p == 0:
        return QuantClass("sigma", 0)
    if s <= p:
        return QuantClass("sigma", s)
    return QuantClass("pi", p)


def _levels(f: Formula) -> tuple[int, int]:
    """(least sigma level, least pi level) of f.  A right-nested And/Or
    chain is walked in a loop, so it takes one frame, not one per link."""
    s = p = 0
    while (tf := type(f)) is And or tf is Or:
        ls, lp = _levels(f.left)
        s, p = max(s, ls), max(p, lp)
        f = f.right
    if tf in (EqNum, Leq, EqStr, Memb):
        return s, p
    if tf is Imp:
        ls, lp = _levels(f.left)
        rs, rp = _levels(f.right)
        ts, tp = max(lp, rs), max(ls, rp)
    elif tf is Not:
        tp, ts = _levels(f.body)
    elif tf in NUM_QUANTIFIERS:
        ts, tp = _levels(f.body)
    elif tf is ExS:
        ts = max(1, _levels(f.body)[0])
        tp = ts + 1
    elif tf is AlS:
        tp = max(1, _levels(f.body)[1])
        ts = tp + 1
    else:
        raise TypeError(f"not a formula: {f!r}")
    return max(s, ts), max(p, tp)


# --- size ---


def formula_size(f: Formula | NumTerm) -> int:
    """Node count of a formula or a term, over all its subformulas and terms,
    a `Const` counted as its binary expansion.  A right-nested And/Or chain
    is walked in a loop, so it takes one frame, not one per link."""
    tf = type(f)
    if tf is Const:
        # 0 and 1 are leaves; above them the expansion: (* (+ 1 1) .) per bit
        # below the top, (+ . 1) per set one
        n = f.value
        return 1 + 4 * (n.bit_length() - 1) + 2 * (n.bit_count() - 1) if n > 1 else 1
    if tf is NVar or tf is Len:
        return 1
    if tf in (Plus, Times):
        return 1 + formula_size(f.left) + formula_size(f.right)
    n = 0
    while tf is And or tf is Or:
        n += 1 + formula_size(f.left)
        f = f.right
        tf = type(f)
    if tf in (EqNum, Leq, Imp):
        return n + 1 + formula_size(f.left) + formula_size(f.right)
    if tf in QUANTIFIERS:
        return n + 2 + formula_size(f.bound) + formula_size(f.body)
    if tf is Memb:
        return n + 2 + formula_size(f.index)
    if tf is Not:
        return n + 1 + formula_size(f.body)
    if tf is SeqAt:
        return 1 + formula_size(f.seq) + formula_size(f.index)
    if tf is SeqLen:
        return 1 + formula_size(f.seq)
    if tf is EqStr:
        return n + 3
    raise TypeError(f"not a formula or term: {f!r}")


# --- builders used by the compilers ---

TRUE = Leq(Zero(), Zero())
FALSE = Leq(One(), Zero())


def fold_right(make, parts, empty):
    """make(p1, make(p2, ... make(pn-1, pn))) over the list parts, or empty."""
    if not parts:
        return empty
    acc = parts[-1]
    for g in reversed(parts[:-1]):
        acc = make(g, acc)
    return acc


def land(parts: list[Formula]) -> Formula:
    """Right-nested conjunction; empty list is the true constant."""
    return fold_right(And, parts, TRUE)


def lor(parts: list[Formula]) -> Formula:
    """Right-nested disjunction; empty list is the false constant."""
    return fold_right(Or, parts, FALSE)


def lt(a: NumTerm, b: NumTerm) -> Formula:
    """a < b over naturals."""
    return Leq(Plus(a, One()), b)


def iff(a: Formula, b: Formula) -> Formula:
    return And(Imp(a, b), Imp(b, a))


def forall_lt(var: str, sweep: NumTerm, limit: NumTerm, body: Formula) -> Formula:
    """body for each var below limit, var sweeping 0..sweep inclusive."""
    return AlN(var, sweep, Imp(lt(NVar(var), limit), body))
