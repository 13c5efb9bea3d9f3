"""Brute-force evaluation of formulas over a finite slice.

Numbers range over [0, num_bound]; every quantifier bound must land in that
range.  String quantifiers enumerate all sets over positions [0, bound), so
their bounds must additionally stay within str_width to keep the sweep
finite.  Term values themselves are unbounded big integers.

Strings are read as sets of positions: the length of a string is one past
its largest element, membership beyond the text is false, and equality
ignores trailing zeros.

One evaluator.  A formula runs as nested closures (Feeley and Lapalme,
"Using closures for code generation", 1987): closed subterms fold to
numbers, variable sorts are checked when a node compiles, and And/Or chains
run as loops.  A node compiles the first time evaluation reaches it: a
connective or quantifier closure keeps its child formulas and compiles them
on its first run (an And/Or chain, each part when its loop first gets
there), and an atom compiles its terms when the atom compiles.
A node evaluation must reject (a name of the wrong sort or not a str, a
node of unknown type) compiles to a closure that raises when it is reached,
so an error shows where, and only where, evaluation reaches it.  A read of
a name the assignment does not bind raises KeyError there, and the two entry
points turn it into UnboundVariableError: the function compile_formula
returns (behind eval_formula, nepo artifacts and acc's witness checks) and
term_reader's read.  A KeyError a role callback raises comes out the same
way.  A subformula or term shared by several parents compiles once per
compile.

eval_formula keeps the compile of the last formula it evaluated, in one
slot for the whole process, matched by identity, so a caller that evaluates
one formula many times (reflect's proof check, a sweep over assignments)
compiles it once; a call on another formula drops it.  compile_formula keeps its compile for callers that
evaluate several formulas in turn: nepo artifacts, and acc's witness checks
in a bounded memo per matrix kind, machine and polynomial.  Either way each
run compiles only what no earlier run reached.  term_reader reads terms the
same way for prop.translate.

The compile memos are keyed by node identity.  That is sound because a
closure keeps every node it may still compile alive: the memo's keys name
nodes that were alive, beside every node still to compile, when the compile
began, so no node still to compile can share an id with a key.
term_reader, whose callers pass terms one at a time, holds every term it
has read for the same reason, and eval_formula holds the formula it keeps
the compile of, so no later formula can take its id.  Sums and products are
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
binder's verdict is a function of the bound's value and those names'
values, and a run settles each binder once per such key (see "compiled
formulas" below).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from . import codec
from .errors import SliceExceededError, SortMismatchError, UnboundVariableError
from .formulas import (AlN, AlS, And, Const, EqNum, EqStr, ExN, ExS, Formula,
                       Imp, Len, Leq, Memb, Not, NumTerm, NVar, One, Or, Plus,
                       SeqAt, SeqLen, Times, Zero, free_vars, is_num_name,
                       is_str_name, term_vars)


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
Compiled = Callable[[FiniteSlice, Assignment | None, Roles | None], bool]


_last: tuple[Formula, Compiled] | None = None  # eval_formula's kept compile


def eval_formula(f: Formula, s: FiniteSlice, env: Assignment | None = None,
                 roles: Roles | None = None) -> bool:
    """Truth of f in the slice; quantifier bounds are inclusive.

    roles settles the listed ExN binders by callback instead of a sweep; see
    the module docstring for when that is sound.  f compiles as far as this
    evaluation reaches, and the compile is kept until a call on another
    formula returns: the next call on f, at any slice, assignment or roles,
    runs it again and compiles only what no earlier run reached.  A call
    made while another runs f (from a role callback) compiles f anew.
    """
    global _last
    run = _last[1] if _last is not None and _last[0] is f else None
    _last = None  # no nested call shares this run's tables; an old compile goes now
    if run is None:
        run = compile_formula(f)
    try:
        return run(s, env, roles)
    finally:
        _last = f, run


def compile_formula(f: Formula) -> Compiled:
    """f as a function (s, env=None, roles=None) -> bool equal to
    eval_formula(f, s, env, roles).

    Each node compiles the first time a run reaches it and stays compiled
    for the life of the returned function.  Compiling a node takes one
    Python frame (plus one per level of its terms), and a run takes one per
    formula level, And and Or chains running as loops.
    """
    compiler = _Compiler()
    root = compiler.formula(f)

    def run(s: FiniteSlice, env: Assignment | None = None,
            roles: Roles | None = None) -> bool:
        compiler.codes.clear()
        compiler.verdicts.clear()
        try:
            return root(_Run(env, s, roles, compiler))
        except KeyError as e:
            raise _unbound(e) from None

    return run


def term_reader() -> Callable[[NumTerm, Assignment], int]:
    """A function (t, env) -> the value of t under env, raising what
    evaluation raises on an atom that holds t.  Each term object compiles
    once per reader, at its first read."""
    term = _Compiler().term
    held = {}  # every term read, so that no later term can take its id

    def read(t: NumTerm, env: Assignment) -> int:
        held[id(t)] = t
        try:
            return _value(term(t), env.nums, env.strs)
        except KeyError as e:
            raise _unbound(e) from None

    return read


# --- the compiler ---
#
# A compiled formula is a closure (run) -> bool over a _Run.  Variable reads
# index the assignment's dicts directly and let the KeyError of an unbound
# name propagate; only compile_formula's run and term_reader's read turn it
# into UnboundVariableError.  Closures never hold the compiler: the _Run
# carries it to the first run of a closure whose children still wait to
# compile, so a compile and its closures form no cycle and go as soon as the
# caller drops them.


class _Run:
    """What one call of a compiled formula reads besides its structure."""

    __slots__ = ("nums", "strs", "env", "slice", "roles", "compiler")

    def __init__(self, env: Assignment | None, s: FiniteSlice, roles: Roles | None,
                 compiler: "_Compiler"):
        if env is None:
            env = Assignment()
        self.nums = env.nums
        self.strs = env.strs
        self.env = env
        self.slice = s
        self.roles = roles
        self.compiler = compiler


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
    """Memos by node identity, for terms and for formulas (sound while the
    closures keep alive every node they may still compile; see the module
    docstring), and for Plus and Times also by structure: keyed by the node's
    type and its compiled operands, so equal sums and products share one
    closure.

    term compiles a whole term in one frame per level; formula compiles one
    node in one frame, its child formulas waiting for the node's first run.
    Leaf terms compile to a constant or a name and skip the memo.  codes is
    the table of decoded sequence codes that SeqAt reads through, and
    verdicts the table of verdicts that role binders settle; a
    compile_formula run starts both empty.
    """

    __slots__ = ("terms", "formulas", "codes", "verdicts")

    def __init__(self):
        self.terms: dict[int | tuple, object] = {}
        self.formulas: dict[int, Callable[[_Run], bool]] = {}
        self.codes: dict[int, bytes | tuple[int, ...]] = {}
        self.verdicts: dict[tuple, bool] = {}

    def term(self, t: NumTerm):
        tt = type(t)
        if tt is NVar:
            return _name(t.name, True)
        if tt is Const:
            return t.value
        if tt is Zero:
            return 0
        if tt is One:
            return 1
        out = self.terms.get(id(t))
        if out is not None:
            return out
        if tt is Plus or tt is Times:
            key = tt, self.term(t.left), self.term(t.right)
            out = self.terms.get(key)
            if out is None:
                out = self.terms[key] = (_plus if tt is Plus else _times)(*key[1:])
        elif tt is Len:
            svar = _name(t.svar, False)
            out = svar if callable(svar) else _len(svar)
        elif tt is SeqAt:
            seq, index = self.term(t.seq), _affine(t.index)
            if type(seq) is str and index is not None:
                out = _seq_read(seq, *index, self.codes)
            else:
                out = _seq_at(seq, self.term(t.index), self.codes)
        elif tt is SeqLen:
            out = _seq_len(self.term(t.seq))
        else:
            out = _error(TypeError, f"not a term: {t!r}")
        self.terms[id(t)] = out
        return out

    def formula(self, f: Formula) -> Callable[[_Run], bool]:
        out = self.formulas.get(id(f))
        if out is not None:
            return out
        tf = type(f)
        if tf is EqNum or tf is Leq:
            out = _compare(tf is Leq, self.term(f.left), self.term(f.right))
        elif tf is Memb:
            svar = _name(f.svar, False)  # read before the index
            out = svar if callable(svar) else _memb(svar, self.term(f.index))
        elif tf is EqStr:
            out = _eq_str(_name(f.left, False), _name(f.right, False))
        elif tf is And or tf is Or:
            parts, g = [], f
            while type(g) is tf:
                parts.append(g.left)
                g = g.right
            parts.append(g)
            out = _chain(tf is And, parts)
        elif tf is Not:
            out = _not(f.body)
        elif tf is Imp:
            out = _imp(f.left, f.right)
        elif tf is AlN and (limit := _limit(f)) is not None:
            out = _quant(False, False, f.var, self.term(f.bound), f.body,
                         self.term(limit))
        elif tf is ExN or tf is AlN or tf is ExS or tf is AlS:
            out = _quant(tf is ExN or tf is ExS, tf is ExS or tf is AlS, f.var,
                         self.term(f.bound), f.body)
        else:
            out = _error(TypeError, f"not a formula: {f!r}")
        self.formulas[id(f)] = out
        return out


# --- compiled terms ---
#
# A compiled term is a folded constant, a str (the name of a number variable,
# read straight from nums by its parent) or a closure (nums, strs) -> int.
# Plus gets one closure per operand shape, holding just its two operands:
# on the proof-check formula of the reflect benchmark that takes 7% less
# memory to compile than one closure reading both operands through _value.
# Times gets one for each shape that one seed-1 block of every benchmark
# workload compiled: closure times closure (61 times), closure times
# constant (785), name times closure (1523) and name times constant (145).
# A closure or a name times a name never occurred there, and shares one
# closure that reads its left operand through _value.  Constants are natural
# numbers, on which every term operation is total, so folding never raises,
# and a constant operand may be read after the other.
#
# Plus and Times are also memoized by structure, keyed by (type, compiled
# left, compiled right): names and constants compare by value and closures
# by identity, so two equal sums compile to one closure, which reads what
# each would read in the same order.  An ill-sorted name compiles to a fresh
# _error closure each time, so no term over one is shared.  One seed-1 pass
# of the reflect benchmark compiles 8,467 identity-distinct compound terms
# but only 833 distinct structures (815 sums, 16 products, 2 Len).  Since
# eval_formula keeps its compile across the pass, that compile ends up
# holding the union of what every op reached: 5.0 MB under tracemalloc with
# identity memos alone, 2.9 MB with this one, against a 3.1 MB peak when
# every call compiled afresh.
#
# SeqAt reads codes through the compiler's table of decoded codes
# (codec.seq_fields, the one decoder of codes: the low 5 bits give the field
# width, the fields sit under a sentinel top bit, and a read past the last
# gives 0), keyed by the code's value, so each code decodes once per run.
# A certify run reads its 2 to 8 distinct codes about 16K times.  The table
# is emptied at the start of each run, so it holds only the current run's
# codes, and when it reaches _TABLE_CAP of them, which bounds a sweep over
# codes.  SeqLen never decodes: codec.seq_len gives the element count from
# the header arithmetic alone, and touches no table.  Constant operands fold
# through seq_fields and seq_len.
#
# A grid read, SeqAt of a number variable at an index that folds to
# c0 + k1*v1 + k2*v2 + ... over number variables (every read nepo emits),
# compiles to one closure that reads the variables in the order the
# Plus/Times closures would, so the first unbound name it reports is
# theirs; with nepo's width-1 encoder the table took certify from a median
# 16.0 to 27.3 ops/s over 10 perfbench pairs on a 2-vCPU host.  Any other
# SeqAt reads its code, then its index, and only then decodes.


def _is_const(a) -> bool:
    return type(a) is not str and not callable(a)


def _value(a, nums, strs):
    if type(a) is str:
        return nums[a]
    return a(nums, strs) if callable(a) else a


def _plus(a, b):
    if _is_const(a):
        if _is_const(b):
            return a + b
        a, b = b, a  # a constant neither raises nor reads, so it may go last
    if callable(a):
        if callable(b):
            return lambda nums, strs: a(nums, strs) + b(nums, strs)
        if type(b) is str:
            return lambda nums, strs: a(nums, strs) + nums[b]
        return lambda nums, strs: a(nums, strs) + b
    if callable(b):
        return lambda nums, strs: nums[a] + b(nums, strs)
    if type(b) is str:
        return lambda nums, strs: nums[a] + nums[b]
    return lambda nums, strs: nums[a] + b


def _times(a, b):
    if _is_const(a):
        if _is_const(b):
            return a * b
        a, b = b, a  # as in _plus
    if callable(a):
        if callable(b):
            return lambda nums, strs: a(nums, strs) * b(nums, strs)
        if _is_const(b):
            return lambda nums, strs: a(nums, strs) * b
    elif callable(b):
        return lambda nums, strs: nums[a] * b(nums, strs)
    elif _is_const(b):
        return lambda nums, strs: nums[a] * b
    return lambda nums, strs: _value(a, nums, strs) * nums[b]


_TABLE_CAP = 4096  # codes per table


def _affine(t) -> tuple[int, dict[str, int]] | None:
    """t as (c0, {name: k}) with t = c0 + sum of k * name, the names in the
    order a read of t meets them, or None when t has another shape or an
    ill-sorted name."""
    tt = type(t)
    if tt is NVar:
        name = t.name
        return (0, {name: 1}) if type(name) is str and is_num_name(name) else None
    if tt is Const:
        return t.value, {}
    if tt is Zero or tt is One:
        return int(tt is One), {}
    if tt is not Plus and tt is not Times:
        return None
    left, right = _affine(t.left), _affine(t.right)
    if left is None or right is None:
        return None
    (c, ks), (d, ls) = left, right
    if tt is Plus:
        for name, k in ls.items():
            ks[name] = ks.get(name, 0) + k
        return c + d, ks
    if ks and ls:
        return None
    # a name scaled to 0 is still read, so that it can still be unbound
    return c * d, {name: k * d for name, k in ks.items()} or {
        name: c * k for name, k in ls.items()}


def _fields(codes: dict, code: int) -> bytes | tuple[int, ...]:
    """codec.seq_fields(code) through the decoded-code table codes."""
    row = codes.get(code)
    if row is None:
        if len(codes) >= _TABLE_CAP:
            codes.clear()
        row = codes[code] = codec.seq_fields(code)  # ValueError if negative
    return row


def _seq_read(seq: str, c0: int, coeffs: dict[str, int], codes: dict):
    """SeqAt(seq, c0 + sum of k * name over coeffs) as one closure over the
    decoded-code table codes."""
    names = tuple(coeffs.items())

    def read(nums, strs):
        code = nums[seq]
        j = c0
        for v, k in names:
            j += k * nums[v]
        row = codes.get(code)
        if row is None:
            row = _fields(codes, code)
        return row[j] if 0 <= j < len(row) else codec.field_at(row, j)
    return read


def _seq_at(seq, index, codes: dict):
    if _is_const(seq) and _is_const(index):
        return codec.field_at(codec.seq_fields(seq), index)

    def read(nums, strs):
        code, j = _value(seq, nums, strs), _value(index, nums, strs)
        return codec.field_at(_fields(codes, code), j)
    return read


def _seq_len(seq):
    if _is_const(seq):
        return codec.seq_len(seq)
    return lambda nums, strs: codec.seq_len(_value(seq, nums, strs))


def _len(svar: str):
    return lambda nums, strs: codec.set_length(strs[svar])


# --- compiled formulas ---
#
# A closure with child formulas holds the child nodes until its first run,
# which compiles them through the run's compiler and keeps the closures in
# their place.
#
# An ExN binder whose first run settles it by a role takes, at that run, the
# free names of its body other than its own, and from then on memoizes each
# verdict it settles by a role in the compiler's verdicts table, keyed by
# (compiled body, variable, bound value, values of those names).  The values
# are read with .get, so an unbound name is part of the key and raises only
# where the body reaches it.  The run's slice and roles are not in the key:
# the table is emptied at the start of each run, and when it reaches
# _TABLE_CAP verdicts.  The key holds no closure of the binder's own, so the
# compile still forms no cycle.  A binder whose first run had no role never
# memoizes; sweeps never do.  A certify acceptance run settles role
# binders 29 times for 20 distinct keys, and each repeat saves a callback
# and the check of a whole sub-grid.  With nepo's certificate memo and the
# EqNum/Leq closures below, this took certify from a median 32.3 to 60.8
# ops/s over 10 perfbench pairs on a 2-vCPU host.
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
# each guard reading lt(v + k, L) instead, k Zero, One or a Const, so
# k >= 0, and every part's L the same term (reflect's _tail_map).  For
# v >= L each part's first Leq(v + k + 1, L) is false, having read only v
# and L, so each Imp is true, the chain is true, and nothing past a guard
# is reached.  The plain sweep's v = 0 iteration first reads part 1's
# v + k + 1, which cannot fail, and then L, so an error from L still comes
# out at the same point; _limit hands _quant part 1's L.
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
#
# EqNum and Leq get one closure per operand shape that evaluation meets
# often.  Over one seed-1 pass, certify's comparisons are 77% closure
# against constant, 16% closure against closure and 6.5% name against name;
# reflect's are 72% closure against name, 17% closure against closure, 5.5%
# name against constant and 4% closure against constant.  A name against a
# name or a closure (0.2% of reflect's) reads its right operand through
# _value: that left certify and reflect unchanged over 8 perfbench pairs
# each, while also routing name against constant there lost reflect all 8
# (median 20.60 to 20.46 ops/s).
#
# Memb gets one closure per index shape (closure, name, constant), each
# reading the string before the index and testing the bit inline, with no
# _value or codec.bit_at call: it is the reflect formula's most frequent
# atom, 1.35M runs over one seed-1 pass of the benchmark's 100 ops.


def _compare(leq: bool, a, b) -> Callable[[_Run], bool]:
    """EqNum, or Leq when leq, over two compiled terms, reading the left
    operand first."""
    if _is_const(a) and _is_const(b):
        return _true if (a <= b if leq else a == b) else _false
    test = operator.le if leq else operator.eq
    if _is_const(a):  # as in _plus, with the test turned round
        a, b, test = b, a, operator.ge if leq else operator.eq
    if callable(a):
        if callable(b):
            return lambda r: test(a(r.nums, r.strs), b(r.nums, r.strs))
        if type(b) is str:
            return lambda r: test(a(r.nums, r.strs), r.nums[b])
        return lambda r: test(a(r.nums, r.strs), b)
    if _is_const(b):
        return lambda r: test(r.nums[a], b)
    return lambda r: test(r.nums[a], _value(b, r.nums, r.strs))


def _memb(svar: str, index) -> Callable[[_Run], bool]:
    """codec.bit_at of the string named svar at a compiled index, one closure
    per index shape, reading the string first."""
    if callable(index):
        def run(r):
            s, i = r.strs[svar], index(r.nums, r.strs)
            return 0 <= i < len(s) and s[i] == "1"
    elif type(index) is str:
        def run(r):
            s, i = r.strs[svar], r.nums[index]
            return 0 <= i < len(s) and s[i] == "1"
    else:
        def run(r):
            s = r.strs[svar]
            return 0 <= index < len(s) and s[index] == "1"
    return run


def _eq_str(left, right) -> Callable[[_Run], bool]:
    return lambda r: codec.sets_equal(
        *[r.strs[n] if type(n) is str else n() for n in (left, right)])


def _chain(conj: bool, parts: list) -> Callable[[_Run], bool]:
    """An And (conj) or Or chain over parts, a list of nodes in which each
    part is replaced by its closure the first time the loop reaches it."""
    ready, n = 0, len(parts)

    def run(r):
        nonlocal ready
        if ready < n:
            for i in range(n):
                if i == ready:
                    parts[i] = r.compiler.formula(parts[i])
                    ready += 1
                if bool(parts[i](r)) is not conj:
                    return not conj
            return conj
        if conj:
            for part in parts:
                if not part(r):
                    return False
            return True
        for part in parts:
            if part(r):
                return True
        return False
    return run


def _not(body) -> Callable[[_Run], bool]:
    compiled = False

    def run(r):
        nonlocal body, compiled
        if not compiled:
            body, compiled = r.compiler.formula(body), True
        return not body(r)
    return run


def _imp(left, right) -> Callable[[_Run], bool]:
    compiled = False

    def run(r):
        nonlocal left, right, compiled
        if not compiled:
            left, right = r.compiler.formula(left), r.compiler.formula(right)
            compiled = True
        return not left(r) or right(r)
    return run


def _quant(exists: bool, strings: bool, var: str, bound, body,
           limit=None) -> Callable[[_Run], bool]:
    """A number quantifier sweeps 0..bound; a string quantifier sweeps every
    set below bound, which must stay within str_width.  An AlN of a _limit
    shape, given its compiled limit, reads limit once and sweeps only
    var < limit."""
    memo = False  # until the first run; then None, or the body's other free names

    def run(r):
        nonlocal body, memo
        if memo is False:  # memo is set last, so a compile that raises is retried
            names = (_memo_names(body, var)
                     if exists and not strings and r.roles and var in r.roles else None)
            body = r.compiler.formula(body)
            memo = names
        b = _value(bound, r.nums, r.strs)
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
                values = range(min(b + 1, _value(limit, env, r.strs)))
        prev = env.get(var)
        try:
            if exists and not strings and r.roles and var in r.roles:
                verdicts, key = r.compiler.verdicts, None
                if memo is not None:
                    key = (body, var, b, tuple(map(r.nums.get, memo[0])),
                           tuple(map(r.strs.get, memo[1])))
                    verdict = verdicts.get(key)
                    if verdict is not None:
                        return verdict
                v = r.roles[var](r.env)
                verdict = v <= b
                if verdict:
                    env[var] = v
                    verdict = body(r)
                if key is not None:
                    if len(verdicts) >= _TABLE_CAP:
                        verdicts.clear()
                    verdicts[key] = verdict
                return verdict
            for v in values:
                env[var] = v
                if body(r) == exists:
                    return exists
        finally:
            if prev is None:
                env.pop(var, None)
            else:
                env[var] = prev
        return not exists
    return run


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
        if type(lt) is not Leq or type(lt.left) is not Plus or type(lt.left.right) is not One:
            return None
        t = lt.left.left
        if type(t) is Plus and type(t.right) in (Zero, One, Const):
            t = t.left
        if type(t) is not NVar or t.name != v:
            return None
        if limit is None:
            limit = lt.right  # the first part's L, which the plain sweep reads
        elif lt.right != limit:
            return None
    names: set = set()
    try:
        term_vars(limit, names, set())  # L's part of free_vars
    except TypeError:  # an unhashable name
        return None
    return None if v in names else limit


def _memo_names(body: Formula, var: str) -> tuple[tuple, tuple] | None:
    """The free (number, string) names of body other than var, or None, so
    that the binder does not memoize, when free_vars rejects the body."""
    try:
        nums, strs = free_vars(body)
    except TypeError:  # a node of unknown type, or an unhashable name
        return None
    nums.discard(var)
    return tuple(nums), tuple(strs)


# --- monotone heap-layout trees ---


@dataclass(frozen=True, slots=True)
class MonotoneTree:
    """Complete binary tree in heap layout over gate bits.

    gates has one bit per position 0..a-1; position 0 is padding, position
    x in [1, a) is an AND node when gates[x] is '1' and an OR node
    otherwise.  Children of x sit at 2x and 2x+1; inputs occupy positions
    [a, 2a).
    """

    gates: str
    a: int

    def __post_init__(self):
        if self.a < 1 or self.a & (self.a - 1):
            raise ValueError("leaf count a must be a power of two")
        if len(self.gates) != self.a:
            raise ValueError(f"need {self.a} gate bits, got {len(self.gates)}")
        if set(self.gates) - {"0", "1"}:
            raise ValueError("gate bits must be 0 or 1")


def node_value_instrumented(t: MonotoneTree, inputs: str, i: int) -> tuple[int, int]:
    """(value of node i, maximal recursion depth reached)."""
    if len(inputs) != t.a:
        raise ValueError(f"need {t.a} input bits, got {len(inputs)}")
    if i < 1:
        raise IndexError(f"no node {i}: the root is node 1")
    deepest = 0

    def rec(x: int, d: int) -> int:
        nonlocal deepest
        deepest = max(deepest, d)
        if x >= 2 * t.a:
            return 0
        if x >= t.a:
            return 1 if inputs[x - t.a] == "1" else 0
        left = rec(2 * x, d + 1)
        right = rec(2 * x + 1, d + 1)
        return (left & right) if t.gates[x] == "1" else (left | right)

    return rec(i, 1), deepest


def node_value(t: MonotoneTree, inputs: str, i: int) -> int:
    """Value of node i; positions at or beyond 2a read as constant 0."""
    return node_value_instrumented(t, inputs, i)[0]


def mfv_witness(t: MonotoneTree, inputs: str) -> str:
    """Evaluation table for the whole tree, one bit per heap position.

    Position 0 is pinned to 1, leaves copy the inputs, and each inner
    position holds its node's value, so the formula value sits at bit 1.
    """
    if len(inputs) != t.a:
        raise ValueError(f"need {t.a} input bits, got {len(inputs)}")
    bits = ["1"]
    for x in range(1, 2 * t.a):
        bits.append("1" if node_value(t, inputs, x) else "0")
    return "".join(bits)


def check_mfv(t: MonotoneTree, inputs: str, table: str) -> bool:
    """Do the local evaluation constraints accept this table?"""
    if not codec.bit_at(table, 0):
        return False
    for x in range(t.a):
        if codec.bit_at(table, x + t.a) != codec.bit_at(inputs, x):
            return False
    for x in range(1, t.a):
        left = codec.bit_at(table, 2 * x)
        right = codec.bit_at(table, 2 * x + 1)
        want = (left and right) if t.gates[x] == "1" else (left or right)
        if codec.bit_at(table, x) != want:
            return False
    return True
