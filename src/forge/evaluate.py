"""Brute-force evaluation of formulas over a finite slice.

Numbers range over [0, num_bound]; every quantifier bound must land in that
range.  String quantifiers enumerate all sets over positions [0, bound), so
their bounds must additionally stay within str_width to keep the sweep
finite.  Term values themselves are unbounded big integers.

Strings are read as sets of positions: the length of a string is one past
its largest element, membership beyond the text is false, and equality
ignores trailing zeros.

One evaluator.  A formula runs as nested closures (Feeley and Lapalme,
"Using closures for code generation", 1987): a quantifier runs as a
closure, and every other node as one function generated as Python source.
A clause (an atom, or a quantifier-free And, Or, Not or Imp of at most
_CLAUSE_CAP formula nodes) is written whole, terms and grid reads included:
closed subterms fold to numbers, and variable sorts are checked when a node
compiles.  A larger connective, or one over a binder, is written the same
way, but each of its direct parts is a call of that part's own function.
A node compiles the first time evaluation reaches it: a quantifier keeps
its body, and a larger connective each part, until evaluation first gets
there, and a clause compiles whole, its terms with it.  A node evaluation
must reject (a name of the wrong sort or not a str, a node of unknown type)
compiles to a closure that raises when it is reached, called from the
generated function when it is a term or a part of a clause, so an error
shows where, and only where, evaluation reaches it.
A read of a name the assignment does not bind raises KeyError there, and
_Compiler.run turns it into UnboundVariableError.  A KeyError a role
callback raises comes out the same way.  A subformula or term shared by
several parents compiles once per compile; a shared term's text is written
into each parent's function.

eval_formula is the one place compiles are kept: those of the last _KEPT
formulas it evaluated, for the whole process, matched by identity, the
least recently used dropped first.  So a caller that evaluates one formula
many times (reflect's proof check) or a few in turn (nepo artifacts, acc's
witness checks) compiles each once, and each run compiles only what no
earlier run reached.  A compile is one _Compiler, which carries the state
of its current run.  A call takes its compile out of the table while it
runs, so no compile has two runs at once: a nested call on the same formula
(from a role callback) compiles its own copy.  prop.translate runs a
subclass of _Compiler whose closures build images instead of verdicts.

The compile memos are keyed by node identity.  That is sound because a
compiled node keeps every node it may still compile alive: the memo's keys
name nodes that were alive, beside every node still to compile, when the
compile began, so no node still to compile can share an id with a key.
eval_formula holds each formula it keeps the compile of, so no later
formula can take its id.  A clause compiles its whole tree at once, so no
term, and no node within a clause, waits to compile.  Sums and products are
memoized by structure as well (see "compiled terms" below).

Certificate roles: evaluation optionally takes a map from variable names to
callbacks.  An ExN binder whose variable has a role is not swept; its
callback computes a value from the current assignment, the binder is false
if that value exceeds the bound, and otherwise the body is evaluated once
with the value bound.  This is sound, and agrees with honest evaluation,
only when each callback produces the only admissible value: the one value
below the bound, if any, that can satisfy the body.  Compilers that attach
roles (nepo) must emit clauses that pin their witnesses uniquely.  A
callback must also read only its binder's free variables: names free in the
binder's body other than the binder's own.  Then, within one run, the
verdict of a number binder that a role settles, or whose body's other free
number names all have roles, is a function of the bound's value and the
values of its body's other free names, and a run settles each such binder
once per such key (see "compiled formulas" below).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice, takewhile
from types import FunctionType
from typing import Callable

from . import codec
from .errors import SliceExceededError, SortMismatchError, UnboundVariableError
from .formulas import (AlN, AlS, And, Const, EqNum, EqStr, ExN, ExS, Formula,
                       Imp, Len, Leq, Memb, Not, NumTerm, NVar, One, Or, Plus,
                       SeqAt, SeqLen, Times, free_vars, is_num_name, is_str_name,
                       term_vars)


@dataclass(frozen=True, slots=True)
class FiniteSlice:
    """Evaluation window: numbers in [0, num_bound], strings below str_width."""

    num_bound: int
    str_width: int

    def __post_init__(self):
        if self.num_bound < 1:
            raise ValueError("num_bound must be at least 1")
        if self.str_width < 0:
            raise ValueError("str_width must be non-negative")


@dataclass(slots=True)
class Assignment:
    nums: dict[str, int] = field(default_factory=dict)
    strs: dict[str, str] = field(default_factory=dict)


Roles = dict[str, Callable[[Assignment], int]]


_KEPT = 32  # compiles eval_formula keeps
_kept: dict[int, tuple[Formula, _Compiler]] = {}  # id(f) -> (f, compile), least recently used first


def eval_formula(f: Formula, s: FiniteSlice, env: Assignment | None = None,
                 roles: Roles | None = None) -> bool:
    """Truth of f in the slice; quantifier bounds are inclusive.

    roles settles the listed ExN binders by callback instead of a sweep; see
    the module docstring for when that is sound.  f compiles as far as this
    evaluation reaches, and the compile is kept while f is among the _KEPT
    formulas last evaluated: the next call on f, at any slice, assignment or
    roles, runs it again and compiles only what no earlier run reached.  A
    call made while another runs f (from a role callback) compiles f anew.
    """
    kept = _kept.pop(id(f), None)  # no nested call shares this run's compile
    compiler = _Compiler(f) if kept is None else kept[1]
    try:
        return compiler.run(s, env, roles)
    finally:
        _kept[id(f)] = f, compiler
        if len(_kept) > _KEPT:
            del _kept[next(iter(_kept))]


# --- the compiler ---
#
# A compiled formula is a closure (r) -> bool, r the _Compiler that runs it,
# which carries the run's assignment, slice and roles; any node's but a
# quantifier's is a generated function (see "compiled terms" and "compiled
# formulas").  Variable reads index the assignment's dicts directly and let
# the KeyError of an unbound name propagate; only _Compiler.run turns it into
# UnboundVariableError.  Closures never hold the compiler: each run hands it
# to the root, and through it to the first run of a quantifier or a part
# still waiting to compile, so a compile and its closures form no cycle and
# go as soon as eval_formula's table drops them.  A grid read holds the
# compiler's table of codes, through its get and its reader, not the
# compiler.


def _error(kind: type[Exception], message: str):
    """A closure, in term or formula position, that raises kind(message)
    each time it runs."""
    def run(*_):
        raise kind(message)
    return run


def _name(name, num: bool):
    """name when it is a str of the wanted sort, else a closure raising the
    sort check's error."""
    if type(name) is not str:
        return _error(TypeError, f"variable name {name!r} is not a str")
    if is_num_name(name) if num else is_str_name(name):
        return name
    return _error(SortMismatchError,
                  f"{name} is not a {'number' if num else 'string'} variable")


def _unbound(e: KeyError) -> UnboundVariableError:
    """The error for e, a KeyError from a read of an unbound name or from a
    role callback, whose key may name no variable."""
    name = e.args[0] if e.args else None
    if type(name) is not str:
        return UnboundVariableError(f"unbound key {name!r}")
    sort = "number" if is_num_name(name) else "string"
    return UnboundVariableError(f"{sort} variable {name} is unbound")


def _true(_run):
    return True


def _false(_run):
    return False


class _Compiler:
    """A compile of one formula, the root, and the state of its current run.

    Memos by node identity, for terms and for formulas (sound while the
    closures keep alive every node they may still compile; see the module
    docstring), and for Plus and Times also by structure: keyed by the node's
    type and each compiled operand, a constant or a fragment's text and
    operands, so equal sums and products share one fragment.

    term compiles a whole term in one frame per level; formula compiles one
    node in one frame, its child formulas waiting for their first reach, or a
    clause whole, in one frame per level of the clause (boolean).  Leaf terms
    compile to a constant or a name's read and skip the memo.  A run takes one
    frame per formula level above the clauses, an And or Or chain one however
    long, and one per clause.  codes is the table of decoded sequence codes
    that a grid read looks up in place and fills through read, and verdicts
    the table of verdicts that number binders memoize; each run starts both
    empty.  run puts what the closures read besides the formula's structure
    (the assignment, its dicts, the slice and the roles) on the compiler, and
    drops it when the run ends, so a kept compile holds none of it after its
    last call.  A Len keeps the last string it read (see "compiled terms"),
    as the verdict table's keys keep string values, but never the
    assignment, its dicts or the roles.
    """

    __slots__ = ("terms", "formulas", "codes", "read", "verdicts", "root",
                 "nums", "strs", "env", "slice", "roles")

    def __init__(self, f: Formula):
        self.terms: dict[int | tuple, object] = {}
        self.formulas: dict[int, Callable[[_Compiler], bool]] = {}
        self.codes: dict[int, bytes | tuple[int, ...]] = {}
        self.read = _reader(self.codes)
        self.verdicts: dict[tuple, bool] = {}
        self.root = self.formula(f)

    def run(self, s: FiniteSlice, env: Assignment | None, roles: Roles | None) -> bool:
        """The root's verdict at s under env and roles."""
        if env is None:
            env = Assignment()
        self.codes.clear()
        self.verdicts.clear()
        self.nums, self.strs, self.env, self.slice, self.roles = env.nums, env.strs, env, s, roles
        try:
            return self.root(self)
        except KeyError as e:
            raise _unbound(e) from None
        finally:
            self.nums = self.strs = self.env = self.slice = self.roles = None

    def term(self, t: NumTerm):
        """t as a constant or a fragment (see "compiled terms")."""
        tt = type(t)
        if tt is NVar:
            name = _name(t.name, True)
            return _call(name) if callable(name) else _num(name)
        if tt is Const:
            return t.value
        out = self.terms.get(id(t))
        if out is not None:
            return out
        if tt is Plus or tt is Times:
            a, b = self.term(t.left), self.term(t.right)
            key = (tt, a if type(a) is not _Frag else a[:2],
                   b if type(b) is not _Frag else b[:2])
            out = self.terms.get(key)
            if out is None:
                if _is_const(a) and _is_const(b):
                    out = a + b if tt is Plus else a * b
                elif tt is Times and (a == 1 or b == 1):  # a factor of 1
                    out = b if a == 1 else a
                else:
                    out = _join(" + " if tt is Plus else " * ", (_inline(a), _inline(b)))
                self.terms[key] = out
        elif tt is Len:
            svar = _name(t.svar, False)
            out = _call(svar if callable(svar) else _len(svar))
        elif tt is SeqAt:
            seq, index = self.term(t.seq), self.term(t.index)
            if _is_const(seq) and _is_const(index):
                out = codec.field_at(codec.seq_fields(seq), index)
            else:
                out = _grid(self.codes.get, self.read, _inline(seq), _inline(index))
        elif tt is SeqLen:
            seq = self.term(t.seq)
            out = codec.seq_len(seq) if _is_const(seq) else _called(codec.seq_len, _inline(seq))
        else:
            out = _call(_error(TypeError, f"not a term: {t!r}"))
        self.terms[id(t)] = out
        return out

    def number(self, t: NumTerm) -> Callable:
        """t compiled to one function (nums, strs) -> its value."""
        return _function(self.term(t))

    def formula(self, f: Formula) -> Callable[[_Compiler], bool]:
        out = self.formulas.get(id(f))
        if out is not None:
            return out
        tf = type(f)
        if tf is AlN and (limit := _limit(f)) is not None:
            out = _quant(False, False, f.var, self.number(f.bound), f.body, self.number(limit),
                         self.scan(f))
        elif tf is ExN or tf is AlN or tf is ExS or tf is AlS:
            out = _quant(tf is ExN or tf is ExS, tf is ExS or tf is AlS, f.var,
                         self.number(f.bound), f.body, scan=self.scan(f) if tf is ExN else None)
        else:
            out = self.clause(f)
        self.formulas[id(f)] = out
        return out

    def clause(self, f: Formula) -> Callable[[_Compiler], bool]:
        """f, any node but a binder, as one function (see "compiled
        formulas"): written whole when it fuses, else with each direct part
        a call that compiles the part at its first reach; _true or _false
        when it folds, and the closure itself when it is one call of a
        closure."""
        out = self.boolean(f, not _fuses(f))
        if _is_const(out):
            return _true if out else _false
        if out[0] == _TEST:
            return out[1][0]
        loads = "".join(f" {d} = r.{d}\n" for d in ("nums", "strs") if d in out[0])
        return _generate("_clause(r", out, loads + " return ")

    def boolean(self, f: Formula, lazy: bool = False):
        """f, a formula of a fused clause, as a folded truth value or a
        fragment over r, nums and strs, written in the tree's order; with
        lazy, f's direct parts are _later calls instead."""
        tf = type(f)
        if tf is EqNum or tf is Leq:
            a, b = self.term(f.left), self.term(f.right)
            if _is_const(a) and _is_const(b):
                return a <= b if tf is Leq else a == b
            return _join(" <= " if tf is Leq else " == ", (_inline(a), _inline(b)))
        if tf is Memb:
            svar = _name(f.svar, False)  # read before the index
            if callable(svar):
                return _test(svar)
            i = _inline(self.term(f.index))
            return _Frag((f"(len(s := strs[{svar!r}]) > (i := " + i[0] + ") >= 0 and s[i] == '1')",
                          i[1], i[2] + 2))
        part = _later if lazy else self.boolean
        if tf is And or tf is Or:
            parts, g = [], f
            while type(g) is tf:
                parts.append(part(g.left))
                g = g.right
            parts.append(part(g))
            return _connect(tf is And, parts)
        if tf is Not:
            body = part(f.body)
            return not body if _is_const(body) else _Frag(
                ("(not " + body[0] + ")", body[1], body[2] + 1))
        if tf is Imp:
            left = part(f.left)
            left = not left if _is_const(left) else _Frag(("not " + left[0], left[1], left[2]))
            return _connect(False, [left, part(f.right)])
        if tf is EqStr:
            return _test(_eq_str(_name(f.left, False), _name(f.right, False)))
        return _test(_error(TypeError, f"not a formula: {f!r}"))

    def scan(self, f: Formula):
        """None when f has no _bit_literal shape; else the narrowing of its
        sweep, one closure for every shape: given the values to sweep, it
        reads X and t at the first value from low and gives an iterator over
        those whose bit is 1 (one) or is not, the first alone when first,
        and those below L, read at the first, when there is an L (see
        "compiled formulas")."""
        shape = _bit_literal(f)
        if shape is None:
            return None
        low, t, svar, one, limit, first = shape
        var, index = f.var, self.number(t)
        if limit is not None:
            limit = self.number(limit)

        def narrow(r, values):
            values = values[low:]
            if not values:
                return values
            s = r.strs[svar]  # read before the index, as the Memb reads them
            v = r.nums[var] = values.start
            out = _positions(s, index(r.nums, r.strs) - v, values, one)
            if limit is None or (v := next(out, None)) is None:
                return islice(out, 1) if first else out
            # L is read at the first value kept, as the body reads it
            return takewhile(limit(r.nums, r.strs).__gt__, chain((v,), out))
        return narrow


# --- compiled terms ---
#
# A compiled term is a folded constant or a fragment (_Frag): (text, operands,
# depth), the text a Python expression over nums and strs, the run's number
# and string dicts, with each NUL in it standing for the next of its operands,
# and depth its nesting.  Each builder writes its fragment out once, from its
# parts' texts.  A constant is written as its literal when it is an int of at
# most _INT_BITS bits and is an operand otherwise, so the text never holds a
# wide literal (which int's str conversion limit can refuse) or a value that
# is not an exact int; a number name is written nums['name'], the repr of an
# exact str; a sum, a product or a read writes its parts in the tree's order,
# so Python reads them left to right as the tree does, and a subterm written
# twice is computed twice.  Anything else is an operand call, _0(nums, strs):
# a Len's closure (below) and an ill-sorted name's or an unknown node's
# _error, which raises where it is read.  No other data enters the text, so a
# name holding quotes, backslashes or code stays a string key.  A part deeper
# than _DEPTH_CAP or longer than _TEXT_CAP (a term tree sharing subterms can
# double its text at each level) is an operand call of its own function
# instead, which keeps every text within what Python parses.  Constants are
# natural numbers, on which every term operation is total, so folding never
# raises, and a constant operand may be read anywhere.  A product with a
# constant factor 1 is its other factor (acc writes p(|X|) with one).
#
# Each clause (see "compiled formulas") becomes one function of the run from
# its whole tree, and each binder's bound and limit and each scan's index
# one function (nums, strs) (_function), or the closure itself when the
# term is one operand call.  _generate writes the function's text, a NUL
# for each operand, and looks it up in _generated, where each distinct text
# compiles once per process, the table cleared when it reaches _TABLE_CAP;
# only a text not found there is numbered, its operands named _0, _1, ...
# in order (_source), and compiled.  The operands become the defaults of
# those names (FunctionType); a function without operands is shared as it
# is.  On the proof-check formula of the reflect benchmark an atom reads
# bits at positions such as nf + nf*ns*6, which took 3 to 8 nested closures
# before; one function per atom took reflect from a median 386.5 to 547.9
# ops/s (p90 5.30 to 3.35 ms) over 10 perfbench pairs on a 2-vCPU host,
# certify from 117.9 to 141.0 and witness from 1,880 to 2,367 over 5, at
# the cost of compiling each source once per process.  Numbering only a
# text not yet compiled took a compile of a grid-read atom,
# (= (seq s (+ (* x 3) y)) 1), whose text holds operands, from 12.2 to
# 10.3 us (timeit, best of 7, the same host).  Each builder writing its
# fragment out once, with no walk for repeated subterms, then took that
# atom's compile from 11.8 to 11.1 us, (leq (+ (* x 3) y) (+ y 1)) from 11.4
# to 10.6 us, a guarded bit-run binder with its body from 29.7 to 24.8 us
# and a Memb whose index holds nf + nf*ns*6 twice from 29.8 to 18.4 us
# (timeit, best of 7, medians of 3 alternating runs on a 2-vCPU host).
# Binding such a repeat to a temporary ran that Memb in 356 ns against 393,
# and warm reflect passes at a median 643.6 ops/s against 634.9 (p90 2.58
# against 2.66 ms, 5 pairs), but cost a cold seed-1 reflect pass 0.43 s
# against 0.35 s, so a repeat is computed where it is written.
#
# Plus and Times are also memoized by structure, keyed by (type, compiled
# left, compiled right): constants compare by value and fragments by text
# and operands, so two equal sums compile to one fragment, which reads what
# each would read in the same order.  An ill-sorted name compiles to a
# fresh _error closure each time, so no term over one is shared.  One
# seed-1 pass of the reflect benchmark compiles 8,225 identity-distinct
# compound terms but only 832 distinct structures (816 sums, 16 products).
# Since eval_formula keeps its compile across the pass, that compile ends
# up holding the union of what every op reached: 2.4 MB under tracemalloc
# (2.9 MB when terms were closures), beside the 685 distinct sources, of
# 691,038 characters of text, that the pass leaves in _generated.
#
# A Len's value is a function of the object its name is bound to.  It
# compiles to a closure (_len) that keeps, in its own cell, the string it
# last read and its length, and measures again only when the name is bound
# to another object.  This is exact.  A str is immutable, and the reference
# the cell keeps stops its id from being reused, so a kept string still has
# the length it had; a value that is not a str is never kept.  An ExS or
# AlS binds a new object at each value, so a Len under it measures at each.
# The closure starts from _UNREAD, not None, to which a name may be bound;
# an unbound name raises KeyError, and a run that raises keeps nothing.
# acc's matrix reads every bit of W at t * p(|X|) * fields + i * fields + f:
# a warm seed-1 pass of the witness benchmark (648 checks over 72 input
# strings) measured a string 302,173 times before Len kept its value and 72
# times after.  A sum or product over Len is written like any other,
# calling the closure as an operand.
#
# SeqAt is written in place (_grid), as
#   (_rD[_jD] if len(_rD := get(_cD := code, ())) > (_jD := index) >= 0
#    else read(_cD, _jD))
# with get the get of the compiler's table of decoded codes and read its
# reader (_reader), both operands, and D the read's depth: a read nested in
# its code or index is shallower, so their temporaries never clash, and
# equal trees still give equal texts.  It reads the code, then the index,
# then the row.  A row the table holds, at an index inside it, is read with
# no call; a code not in the table (get gives the empty tuple) or an index
# outside its row goes to read, which decodes through the table
# (codec.seq_fields, the one decoder of codes: the low 5 bits give the field
# width, the fields sit under a sentinel top bit, and a read past the last
# gives 0), keyed by the code's value, so each code decodes once per run, a
# negative code raising ValueError only once its index is read.  A certify
# run reads its 2 to 8 distinct codes about 8.8K times (16K before sweeps
# over role variables memoized their verdicts); a warm seed-1 pass called
# read 953,490 times before grid reads were written in place and 567 after.
# The table is emptied at the start of each run, so it holds only the
# current run's codes, and when it reaches _TABLE_CAP of them, which bounds
# a sweep over codes.  SeqLen never decodes: codec.seq_len gives the element
# count from the header arithmetic alone, and touches no table.  Constant
# operands fold through seq_fields and seq_len.


class _Frag(tuple):
    """A compiled term that is not a constant, or a clause's part that does
    not fold: (text, operands, depth), each NUL in the text standing for the
    next operand (see "compiled terms")."""

    __slots__ = ()


_TABLE_CAP = 4096  # entries per table
_INT_BITS = 64  # widest int constant written as a literal
_DEPTH_CAP = 32  # deepest fragment written into another
_TEXT_CAP = 2048  # longest fragment written into another
_CLAUSE_CAP = 24  # most formula nodes of a clause fused into one function
_generated: dict[str, FunctionType] = {}  # text with NULs -> its function, without operands


def _is_const(a) -> bool:
    return type(a) is not _Frag


def _leaf(value) -> _Frag:
    """The constant value as a fragment."""
    if type(value) is int and value.bit_length() <= _INT_BITS:
        return _Frag((repr(value), (), 0))
    return _Frag(("\0", (value,), 0))


def _num(name: str) -> _Frag:
    """A read of the number variable name, an exact str, as a fragment."""
    return _Frag((f"nums[{name!r}]", (), 0))


_CALL = "\0(nums, strs)"  # the text of a call of a closure (nums, strs) -> int


def _call(fn) -> _Frag:
    """A call of fn, a closure (nums, strs) -> int, as a fragment."""
    return _Frag((_CALL, (fn,), 0))


def _called(fn, a: _Frag) -> _Frag:
    """A call of the operand fn on the fragment a, as a fragment."""
    return _Frag(("\0(" + a[0] + ")", (fn,) + a[1], a[2] + 1))


def _join(sep: str, parts) -> _Frag:
    """parts, fragments, written in order with sep between them, within
    parentheses: a sum, a product, a comparison or an And or Or chain."""
    texts, operands, depths = zip(*parts)
    return _Frag(("(" + sep.join(texts) + ")", sum(operands, ()), max(depths) + 1))


def _grid(get, read, code: _Frag, index: _Frag) -> _Frag:
    """SeqAt of code at index, written in place: an element of the row get
    finds for the code, read, else a call of read; its temporaries are named
    by its depth, which no read nested in it shares."""
    d = max(code[2] + 3, index[2] + 2)
    text = (f"(_r{d}[_j{d}] if len(_r{d} := \0(_c{d} := " + code[0] + f", ())) > (_j{d} := "
            + index[0] + f") >= 0 else \0(_c{d}, _j{d}))")
    return _Frag((text, (get,) + code[1] + index[1] + (read,), d))


def _inline(a) -> _Frag:
    """The compiled term a as a fragment to write into a larger one: a call
    of its function when it is too deep or too long to write."""
    if type(a) is not _Frag:
        return _leaf(a)
    if a[2] < _DEPTH_CAP and len(a[0]) < _TEXT_CAP:
        return a
    return _call(_function(a))


def _function(a) -> Callable:
    """The compiled term a as one function (nums, strs) -> its value: the
    closure itself when a is a call of one."""
    if _is_const(a):
        a = _leaf(a)
    elif a[0] == _CALL:
        return a[1][0]
    return _generate("_term(nums, strs", a, " return ")


def _generate(head: str, frag: _Frag, before: str):
    """The function def head, its parameters then _0, _1, ... for frag's
    operands, whose body is before and frag's text.  Each distinct source
    compiles once per process, into _generated, looked up by its text before
    the operands are numbered; the operands become the defaults of those
    names, and a function without operands is shared by every compile that
    writes its source."""
    text, operands = frag[:2]
    key = f"def {head}):\n{before}{text}\n"
    out = _generated.get(key)
    if out is None:
        if len(_generated) >= _TABLE_CAP:
            _generated.clear()
        code = compile(_source(key), "<forge>", "exec").co_consts[0]
        out = _generated[key] = FunctionType(code, _SCOPE)
    return FunctionType(out.__code__, _SCOPE, None, operands) if operands else out


_SCOPE = {"__builtins__": {}, "len": len}  # the one global a generated function reads


def _source(key: str) -> str:
    """The source a _generated key stands for: each NUL the next operand,
    _0, _1, ..., added to the parameters."""
    pieces = key.split("\0")
    params = "".join(f", _{i}" for i in range(len(pieces) - 1))
    return pieces[0].replace("):\n", params + "):\n", 1) + "".join(
        f"_{i}{piece}" for i, piece in enumerate(pieces[1:]))


def _reader(codes: dict):
    """SeqAt of a code at an index, through the decoded-code table codes."""
    def read(code, j):
        row = codes.get(code)
        if row is None:
            if len(codes) >= _TABLE_CAP:
                codes.clear()
            row = codes[code] = codec.seq_fields(code)  # ValueError if negative
        return row[j] if 0 <= j < len(row) else codec.field_at(row, j)
    return read


_UNREAD = object()  # what a Len closure has read before its first run


def _len(svar: str):
    """Len of the string named svar, as a closure that keeps the last
    object it read there and its length, and measures again only when svar
    is bound to another object (see "compiled terms")."""
    last, value = _UNREAD, None

    def run(nums, strs):
        nonlocal last, value
        s = strs[svar]
        if s is not last:
            value = codec.set_length(s)
            last = s if type(s) is str else _UNREAD
        return value
    return run


# --- compiled formulas ---
#
# A quantifier's closure holds its body node until its first run, which
# compiles it through the compiler that runs it and keeps the compiled body
# in its place; a larger connective's parts wait the same way (below).
#
# A number binder memoizes its verdicts in the compiler's verdicts table when,
# at its first run, the run has roles and a role settles it (an ExN whose
# variable has one) or each number name free in its body but its own has one,
# as nepo's level-0 clauses over a grid code do.  The key is (compiled body,
# exists, variable, bound value, values of the body's other free number names,
# then string names): looked up once the bound is checked, stored once the
# role or the sweep settles, never on a raise.  Within one run the slice and
# roles are fixed: the table is emptied at the start of each run, and when it
# reaches _TABLE_CAP verdicts.  The body (the compiled body and exists: an AlN
# and an ExN over one body never share an entry), with a guarded sweep's limit
# or a scan, reads names free in it, which are in the key, and names it binds,
# whose values follow from those; a callback reads only its binder's free
# names (see "Certificate roles"), each bound inside the body or free in it.
# So the verdict is a function of the key.  The values are read with .get, so
# an unbound name is part of the key and raises only where the body reaches
# it.  The key holds no closure of the binder's own, so the compile still
# forms no cycle.  A binder first run without roles never memoizes.  Role
# binders alone, with nepo's certificate memo and one EqNum/Leq closure per
# operand shape, took certify from a median 32.3 to 60.8 ops/s over 10
# perfbench pairs on a 2-vCPU host.  Sweeps took one seed-1 certify pass (108
# runs) from 6,640 level-0 clause settlements to 2,785 and from 1.77M grid
# reads to 0.95M, and certify from a median 59.4 to 102.5 ops/s over 10 pairs.
#
# An AlN binder of forall_lt's shape, (alN v S (imp G B)) with G lt(v, L) or
# an And chain whose first part is lt(v, L), v a number name and not free in
# L (_limit), compiles to a guarded sweep: _quant, given the compiled L,
# reads and checks S as for any binder, then reads L once and runs the
# compiled Imp for v below both S + 1 and L.  This agrees exactly with the
# plain sweep.  L does not depend on v, and the run's assignment is the same
# at every iteration but for v, so L has one value, or one error, for the
# whole sweep.  The plain sweep's v = 0 iteration runs whenever S >= 0 and
# reads L in the guard before anything else, so an error from L comes out at
# the same point; a negative S, which only the assignment can give, sweeps
# nothing and reads no L.  For v >= L the guard's Leq, and with it the And,
# is false first, so the plain sweep never reaches B or the later conjuncts
# there, and skipping them hides no error.  Children still compile on first
# reach.  acc's forall_lt(v, b, b, ...) takes the same closure and skips
# v = b.
#
# The same holds of a body that is a right-nested And chain of such Imps,
# each guard reading lt(v + k, L) instead, k a Const, so k >= 0, and
# every part's L the same term (reflect's _tail_map).  For
# v >= L each part's first Leq(v + k + 1, L) is false, having read only v
# and L, so each Imp is true, the chain is true, and nothing past a guard
# is reached.  The plain sweep's v = 0 iteration first reads part 1's
# v + k + 1, which cannot fail, and then L, so an error from L still comes
# out at the same point; _limit hands _quant part 1's L.
#
# A bit literal is (in t X) or (not (in t X)), X a string name and t a Plus
# spine with the summand v once and v free in none of the others, u.  Three
# number binders of v can be settled only at values whose bit X[t] is 1, or
# is not (_bit_literal):
# - a bit run, a guarded sweep of one Imp whose guard is exactly lt(v, L)
#   and whose B is a bit literal: false only where B fails;
# - a set-bit pin, (exN v S B), B an And chain opening with (in t X) and
#   then exactly lt(v, L), v not free in L: true only where the bit is 1;
# - a first-zero pin, (exN v S B), B an And chain of (leq c v) for a
#   constant c, (not (in t X)), EqNum and Leq parts over sums, products,
#   constants, lengths and names reading only v, X and names of u, each of
#   its sort, and the bit run (alN j S (imp (lt j v) (in j + u X))), v not
#   free in S: true only at v >= c where the bit is not 1.
# _Compiler.scan sweeps those values alone, in order, from values[low:]
# (low is c for a first-zero pin, else 0), found by str.find (_positions),
# and the body runs in full at each.  This agrees exactly with the plain
# sweep.  Below low the Leq is false having read only v.  With no value
# from low, no guard or Leq holds, or there is no iteration, so the plain
# sweep reaches no literal, and the scan reads nothing.  Otherwise the scan
# binds v to the first value and reads X, then t, as the plain sweep's
# first iteration there reads them in the literal, after a guard or a Leq
# that holds, or first, so an unbound X, or a name of u unbound or
# ill-sorted, raises there and only there; an ill-sorted X is not this
# shape and keeps _quant, whose Memb raises before its index.  Every later
# iteration reads X and u again, with the same values, so none can raise,
# and t is base + v exactly: Plus adds integers.  A position below 0 or at
# or past len(X) reads as Memb reads it, never a 1.  At a skipped value the
# literal settles nothing (B holds, or the chain is false) having read only
# v, X, u and a guard's L, which the guarded sweep read already.  A role on
# v settles the binder before any scan.  Two steps remain.
#
# A set-bit pin reads L at its first value, and keeps the values below L.
# The plain sweep first reads L there, in the lt after a Memb that holds,
# having read v + 1, which cannot fail, so an error from L comes out at the
# same point, and with no 1 neither reads L.  L does not depend on v, so it
# keeps that value; at a set bit at or past L the Memb is true and the lt
# false, both reading only values already read.
#
# A first-zero pin keeps its first value only.  Let v* be the first position
# at or after base not holding a 1, less base.  At a value v > v* the chain
# is false at a middle part, which reads only bound names of their sort and
# cannot raise, or at the bit run: its S has the value it had outside, v not
# being free in it and j bound only after it, so it passes the slice check,
# its reads cannot raise, and its run covers v* < v.  So the first value is
# v* when c <= v* <= S, and none holds or raises otherwise.
#
# On the proof-check formula of the reflect benchmark 115 of 116 AlN binders
# take the guarded sweep; the one left is _endsequent_is's padding, whose lt
# is its guard's second conjunct.  The one-Imp shape (96 binders) took
# reflect from a median 18.1 to 23.4 ops/s (p90 93.1 to 61.1 ms) over 10
# perfbench pairs on a 2-vCPU host; the chains, with one Memb closure per
# index shape, took it from 22.8 to 31.8 (p90 65.2 to 46.3 ms) over 12
# pairs, and cut the body runs of one seed-1 pass from 2.22M to 1.35M.
# Running B directly under a plain guard, whose Leq must hold below L, was
# 4% faster in ops/s but lost p90 in 7 pairs of 7, so the guard still runs.
# By shape, 58 binders scan: 42 bit runs, 23 of 1 bits and 19 of 0 bits
# (reflect's _clear, _count_is and the header pins), 3 first-zero pins of
# the 24 ExN (nl, nf, ns) and 13 set-bit pins (_one_hot's pa 9, pb 3, cc 1).
# They took that pass from 1.354M body runs to 49K, and reflect from a
# median 42.7 to 378.5 ops/s over 10 perfbench pairs each on a 2-vCPU
# host; a first-zero pin keeping every value costs 535K body runs.  e (26K)
# and b (19K) fit no shape: e's chain opens with Leq(e, nf), b's B is an
# iff.  acc's and nepo's formulas have no bit literal to scan.
#
# A clause is an atom (EqNum, Leq, Memb) or an And, Or, Not or Imp of at
# most _CLAUSE_CAP formula nodes, counted with multiplicity, no binder among
# them (_fuses).  It compiles whole, at its first reach, to one function
# (_Compiler.clause) that loads the run's dicts and returns the clause's
# tree written as one expression (_Compiler.boolean): an And or Or chain as
# (a and b and ...) or (a or b or ...), Not as (not a), Imp as (not a or b),
# EqNum and Leq as (s == t) and (s <= t), the left term first, and Memb as
# (len(s := strs['X']) > (i := t) >= 0 and s[i] == '1'), which reads the
# string, its length (a str's, which cannot raise) and then the index, and
# tests the bit as codec.bit_at does.  Any other node, an EqStr or the
# _error of an ill-sorted string name or an unknown node, is an operand
# call _0(r).  Python's and, or and not settle from the left as the
# connectives do, so the clause reads what they read, in the same order, and
# raises the same first error.  An atom whose terms fold is written as the
# literal True or False and the text keeps every part, so it reads every
# name the clause reads, and binders whose bodies share one function, having
# one text, key their verdicts alike (_memo_names sorts the names); a clause
# that folds whole is _true or _false.  A larger And, Or, Not or Imp, or one
# over a binder, is written the same way, a chain flattened as in a clause,
# but each of its direct parts is a lazy call (_later),
#   (_0[0] or _1(r, _2))(r)
# with _0 and _2 one list [function, node], the function None until its
# first run, and _1 _fill, which compiles the node (a clause, say) through
# the compiler that runs it, puts its function in the list and returns it.
# So each part compiles at its first reach (an Imp's right part only once
# its left part holds), a compile that raises leaves None in the list and
# runs again at the next reach, and after the first run the function calls
# the part's function directly, one frame per formula level.  One _fill
# serves every part: with a closure of its own per part, the compiles a
# seed-1 reflect pass leaves held 0.44 MB more under tracemalloc (5.71 MB
# against 5.33).  That pass compiles 342 connectives this way, 210 of them
# quantifier-free; one of certify compiles 72, and one of witness 26.
# Inside a clause nothing waits: a part past a short circuit compiles with
# the rest, its terms too, which is what the cap bounds.  Over a warm seed-1
# certify pass (108 ops) the clauses took the connective closures' runs from
# 1.03M (619K And/Or chains, 233K Imp, 178K Not) to 92K and the reader's
# calls from 953K to 567.  The cap was chosen by the best of 3 warm seed-1
# passes at each size on a 2-vCPU host (the parent ran certify in 0.383 s,
# witness in 0.131 s and reflect in 0.088 s, reflect at 28.3 MB ru_maxrss):
#   cap       4      8      16     24     32     64
#   certify   0.302  0.263  0.254  0.250  0.251  0.246 s
#   witness   0.114  0.096  0.090  0.082  0.083  0.082 s
#   reflect   0.083  0.077  0.077  0.076  0.079  0.073 s
#   reflect   28.7   28.4   28.4   29.0   28.9   33.4 MB
# Past 24 little runs faster, and reflect's memory grows with the parts of
# its clauses that it compiles and never reaches.  At 24, over alternating
# perfbench pairs on that host, certify went from a median 147.4 to 217.9
# ops/s (10 pairs, p90 8.44 to 5.55 ms), witness from 2,512 to 3,847 and
# reflect from 589.9 to 651.2 (5 pairs each, reflect at 30.2 to 31.2 MB).


_TEST = "\0(r)"  # the text of a call of a formula closure (r) -> bool


def _test(fn) -> _Frag:
    """A call of fn, a formula closure, as a fragment of a clause."""
    return _Frag((_TEST, (fn,), 0))


def _connect(conj: bool, parts: list):
    """An And (conj) or Or chain over a clause's parts, each a truth value
    or a fragment: a truth value when every part folds, else every part
    written in order, a folded one as its literal, so the text still reads
    every name the chain reads."""
    if all(map(_is_const, parts)):
        return all(parts) if conj else any(parts)
    return _join(" and " if conj else " or ",
                 [p if type(p) is _Frag else _Frag((repr(p), (), 0)) for p in parts])


def _fuses(f: Formula) -> bool:
    """Whether f is a clause to fuse: at most _CLAUSE_CAP formula nodes,
    counted with multiplicity, none a binder."""
    n, stack = 0, [f]
    while stack:
        g = stack.pop()
        n += 1
        tg = type(g)
        if n > _CLAUSE_CAP or tg is ExN or tg is AlN or tg is ExS or tg is AlS:
            return False
        if tg is And or tg is Or or tg is Imp:
            stack += (g.left, g.right)
        elif tg is Not:
            stack.append(g.body)
    return True


def _later(node: Formula) -> _Frag:
    """A call of node's function, as a part of a connective that does not
    fuse: read from a list [function, node], which holds None in place of
    the function until _fill's compile of node returns, so a compile that
    raises runs again at the next reach (see "compiled formulas")."""
    cell = [None, node]
    return _Frag(("(\0[0] or \0(r, \0))(r)", (cell, _fill, cell), 0))


def _fill(r, cell: list):
    """The function of cell's node, compiled through r and kept in cell."""
    cell[0] = out = r.formula(cell[1])
    return out


def _eq_str(left, right) -> Callable[[_Compiler], bool]:
    return lambda r: codec.sets_equal(
        *[r.strs[n] if type(n) is str else n() for n in (left, right)])


def _quant(exists: bool, strings: bool, var: str, bound, body,
           limit=None, scan=None) -> Callable[[_Compiler], bool]:
    """A number quantifier sweeps 0..bound; a string quantifier sweeps every
    set below bound, which must stay within str_width.  An AlN of a _limit
    shape, given its compiled limit, reads limit once and sweeps only
    var < limit.  A binder given a scan (_Compiler.scan, for a bit literal)
    sweeps only the values it leaves, when no role settles it.  A number
    binder may memoize its verdicts (see "compiled formulas")."""
    memo = False  # until the first run; then None, or the body's other free names

    def run(r):
        nonlocal body, memo
        if memo is False:  # memo is set last, so a compile that raises is retried
            names = None if strings or not r.roles else _memo_names(body, var, exists, r.roles)
            body = r.formula(body)
            memo = names
        b = bound(r.nums, r.strs)
        if b > r.slice.num_bound:
            raise SliceExceededError(
                f"quantifier bound {b} exceeds num_bound {r.slice.num_bound}")
        if strings:
            if b > r.slice.str_width:
                raise SliceExceededError(
                    f"string bound {b} exceeds str_width {r.slice.str_width}")
            env, values = r.strs, map(codec.mask_to_bits, range(1 << b))
        else:
            env, values = r.nums, range(b + 1)
            if limit is not None and b >= 0:
                values = range(min(b + 1, limit(env, r.strs)))
        if memo is not None:
            key = (body, exists, var, b, tuple(map(r.nums.get, memo[0])),
                   tuple(map(r.strs.get, memo[1])))
            verdict = r.verdicts.get(key)
            if verdict is not None:
                return verdict
        prev = env.get(var)
        try:
            if exists and not strings and r.roles and var in r.roles:
                v = r.roles[var](r.env)
                verdict = v <= b
                if verdict:
                    env[var] = v
                    verdict = body(r)
            else:
                if scan is not None:
                    values = scan(r, values)
                for v in values:
                    env[var] = v
                    if body(r) == exists:
                        verdict = exists
                        break
                else:
                    verdict = not exists
        finally:
            if prev is None:
                env.pop(var, None)
            else:
                env[var] = prev
        if memo is not None:
            if len(r.verdicts) >= _TABLE_CAP:
                r.verdicts.clear()
            r.verdicts[key] = verdict
        return verdict
    return run


def _positions(s: str, base: int, values: range, one: bool):
    """Each v in values, in order, whose bit of s at base + v, read as Memb
    reads it (never a 1 below 0 or past the text), is 1 (one) or is not."""
    p, stop = base + values.start, base + values.stop
    if one:
        p = max(p, 0)
        # p < stop first: str.find reads a negative end from the text's end
        while p < stop and (p := s.find("1", p, stop)) >= 0:
            yield p - base
            p += 1
        return
    while p < stop:
        if 0 <= p < len(s) and s[p] == "1":
            p = s.find("0", p, stop)  # 0 <= p < stop
            if p < 0:
                p = len(s)  # the rest of the text holds 1s
                continue
        yield p - base
        p += 1


def _limit(f: AlN) -> NumTerm | None:
    """L when f is (alN v S B), B an Imp or a right-nested And chain of Imps,
    each guarded by lt(t, L) or an And chain whose first part is lt(t, L),
    with t v or v + k for a constant k, the same L in every part, and v a
    number name not free in L; else None."""
    v, rest, limit = f.var, f.body, None
    if type(v) is not str or not is_num_name(v):
        return None
    while rest is not None:
        imp, rest = (rest.left, rest.right) if type(rest) is And else (rest, None)
        if type(imp) is not Imp:
            return None
        lt = imp.left.left if type(imp.left) is And else imp.left
        if type(lt) is not Leq or type(lt.left) is not Plus or lt.left.right != One():
            return None
        t = lt.left.left
        if type(t) is Plus and type(t.right) is Const:
            t = t.left
        if type(t) is not NVar or t.name != v:
            return None
        if limit is None:
            limit = lt.right  # the first part's L, which the plain sweep reads
        elif lt.right != limit:
            return None
    names = _term_names([limit])  # L's part of free_vars
    return None if names is None or v in names[0] else limit


def _bit_literal(f: Formula) -> tuple[int, NumTerm, str, bool, NumTerm | None, bool] | None:
    """(low, t, X, one, L, first) when f is a bit run, a set-bit pin or a
    first-zero pin (see "compiled formulas") over the bit literal (in t X) or
    (not (in t X)), its body settling it only at values from low whose bit
    is 1 (one) or is not, below L if any, and at the first of them if
    first; else None."""
    v, g, parts = f.var, f.body, []
    if type(f) is AlN and type(g) is Imp:
        parts = [g.left, g.right]
    elif type(f) is ExN:
        while type(g) is And:
            parts.append(g.left)
            g = g.right
        parts.append(g)
    if type(v) is not str or not is_num_name(v) or len(parts) < 2:
        return None
    first = type(f) is ExN and type(parts[0]) is not Memb  # a first-zero pin
    head, literal = parts[1::-1] if type(f) is ExN and not first else parts[:2]
    if type(head) is not Leq:
        return None
    if first and (type(head.left) is not Const or head.right != NVar(v)
                  or type(literal) is not Not):
        return None
    if not first and (head.left != Plus(NVar(v), One())
                      or (names := _term_names([head.right])) is None or v in names[0]):
        return None
    bit = literal.body if type(literal) is Not else literal
    if (type(bit) is not Memb or type(bit.svar) is not str or not is_str_name(bit.svar)
            or (u := _offset(bit.index, v)) is None):
        return None
    t, x = bit.index, bit.svar
    if not first:  # one: the bit at which an ExN's literal holds, or an AlN's fails
        return (0, t, x, (type(literal) is Not) == (type(f) is AlN),
                head.right if type(f) is ExN else None, False)
    nums, strs = _term_names([t])  # not None, as u's are not
    for part in parts[2:]:
        if type(part) is AlN:
            break
        if type(part) not in (EqNum, Leq) or not _reads_only(part, nums, strs | {x}):
            return None
    else:
        return None
    run, names = _bit_literal(part), _term_names([f.bound])
    if (run is None or part.body.left.right != NVar(v) or run[2:] != (x, False, None, False)
            or _offset(run[1], part.var) != u or part.bound != f.bound
            or names is None or v in names[0]):
        return None
    return head.left.value, t, x, False, None, True


def _offset(t: NumTerm, v: str) -> list | None:
    """u, the summands of the Plus spine t other than its one summand
    NVar(v), when v is not free in them; else None."""
    leaves, stack = [], [t]
    while stack:
        g = stack.pop()
        if type(g) is Plus:
            stack += (g.right, g.left)
        else:
            leaves.append(g)
    at = [i for i, g in enumerate(leaves) if type(g) is NVar and g.name == v]
    if len(at) != 1:
        return None
    u = leaves[:at[0]] + leaves[at[0] + 1:]
    names = _term_names(u)
    return None if names is None or v in names[0] else u


def _term_names(terms) -> tuple[set, set] | None:
    """The (number, string) names the terms read, or None for an unhashable
    name."""
    nums: set = set()
    strs: set = set()
    try:
        for t in terms:
            term_vars(t, nums, strs)
    except TypeError:
        return None
    return nums, strs


def _reads_only(f: EqNum | Leq, nums: set, strs: set) -> bool:
    """Whether f's terms are built of Plus, Times, constants, number names
    in nums and lengths of string names in strs, each of its sort."""
    stack = [f.left, f.right]
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is Plus or tt is Times:
            stack += (t.left, t.right)
        elif tt is NVar or tt is Len:
            name = t.name if tt is NVar else t.svar
            if type(name) is not str or name not in (nums if tt is NVar else strs) or not (
                    is_num_name(name) if tt is NVar else is_str_name(name)):
                return False
        elif tt is not Const:
            return False
    return True


def _memo_names(body: Formula, var: str, exists: bool,
                roles: Roles) -> tuple[tuple, tuple] | None:
    """The free (number, string) names of the number binder of var over body
    other than var, when it memoizes under roles: a role settles it, or each
    of those number names has a role.  Else None, as when free_vars rejects
    the body."""
    try:
        nums, strs = free_vars(body)
    except TypeError:  # a node of unknown type, or an unhashable name
        return None
    nums.discard(var)
    if not (exists and var in roles) and not nums <= roles.keys():
        return None
    # in one order, so binders whose bodies share one generated function key alike
    return tuple(sorted(nums, key=repr)), tuple(sorted(strs, key=repr))
