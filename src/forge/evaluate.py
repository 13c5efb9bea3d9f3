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
so an error shows where, and only where, evaluation reaches it.  A
subformula or term shared by several parents compiles once per compile.

eval_formula and comprehension_witness compile per call, and the compile
goes when the call returns.  compile_formula keeps its compile for callers
that evaluate one formula many times: nepo artifacts, and acc's witness
checks in a bounded memo per matrix kind, machine and polynomial; each run
compiles only what no earlier run reached.  term_reader reads terms the
same way for prop.translate.

The compile memos are keyed by node identity.  That is sound because a
closure keeps every node it may still compile alive: the memo's keys name
nodes that were alive, beside every node still to compile, when the compile
began, so no node still to compile can share an id with a key.
term_reader, whose callers pass terms one at a time, holds every term it
has read for the same reason.

Certificate roles: evaluation optionally takes a map from variable names to
callbacks.  An ExN binder whose variable has a role is not swept; its
callback computes a value from the current assignment, the binder is false
if that value exceeds the bound, and otherwise the body is evaluated once
with the value bound.  This is sound, and agrees with honest evaluation,
only when each callback produces the only admissible value: the one value
below the bound, if any, that can satisfy the body.  Compilers that attach
roles (nepo) must emit clauses that pin their witnesses uniquely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from . import codec
from .errors import (ClassError, SliceExceededError, SortMismatchError,
                     UnboundVariableError)
from .formulas import (AlN, AlS, And, Const, EqNum, EqStr, ExN, ExS, Formula,
                       Imp, Len, Leq, Memb, Not, NumTerm, NVar, One, Or, Plus,
                       SeqAt, SeqLen, Times, Zero, classify, free_vars,
                       is_num_name, is_str_name)


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

    def copy(self) -> "Assignment":
        return Assignment(dict(self.nums), dict(self.strs))


Roles = dict[str, Callable[[Assignment], int]]
Compiled = Callable[[FiniteSlice, Assignment | None, Roles | None], bool]


def eval_formula(f: Formula, s: FiniteSlice, env: Assignment | None = None,
                 roles: Roles | None = None) -> bool:
    """Truth of f in the slice; quantifier bounds are inclusive.

    roles settles the listed ExN binders by callback instead of a sweep; see
    the module docstring for when that is sound.  f compiles as far as this
    evaluation reaches, and the compile goes when the call returns.
    """
    compiler = _Compiler()
    return compiler.formula(f)(_Run(env, s, roles, compiler))


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
        return root(_Run(env, s, roles, compiler))

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


def comprehension_witness(phi: Formula, y: int, s: FiniteSlice,
                          env: Assignment | None = None,
                          var: str | None = None) -> str:
    """Bit vector X of length y with X(z) iff phi(z), for z < y.

    phi must sit at level 0 of the string-quantifier hierarchy; its one free
    number variable not covered by env is the comprehension variable unless
    var names it explicitly.
    """
    if env is None:
        env = Assignment()
    qc = classify(phi)
    if qc.level != 0:
        raise ClassError(f"comprehension needs a level-0 formula, got {qc}")
    if var is None:
        nums, _ = free_vars(phi)
        candidates = sorted(nums - env.nums.keys())
        if len(candidates) != 1:
            raise ValueError(
                f"cannot infer the comprehension variable from {candidates}")
        var = candidates[0]
    holds = compile_formula(phi)
    prev = env.nums.get(var)
    bits = []
    try:
        for z in range(y):
            env.nums[var] = z
            bits.append("1" if holds(s, env) else "0")
    finally:
        if prev is None:
            env.nums.pop(var, None)
        else:
            env.nums[var] = prev
    return "".join(bits)


# --- the compiler ---
#
# A compiled formula is a closure (run) -> bool over a _Run.  Variable reads
# index the assignment's dicts directly, and each atom and quantifier bound
# turns the KeyError of an unbound name into UnboundVariableError.  Closures
# never hold the compiler: the _Run carries it to the first run of a closure
# whose children still wait to compile, so a compile and its closures form
# no cycle and go as soon as the caller drops them.


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
    name = e.args[0]
    sort = "number" if is_num_name(name) else "string"
    return UnboundVariableError(f"{sort} variable {name} is unbound")


def _true(_run):
    return True


def _false(_run):
    return False


class _Compiler:
    """Memos by node identity, for terms and for formulas (sound while the
    closures keep alive every node they may still compile; see the module
    docstring).

    term compiles a whole term in one frame per level; formula compiles one
    node in one frame, its child formulas waiting for the node's first run.
    Leaf terms compile to a constant or a name and skip the memo.
    """

    __slots__ = ("terms", "formulas")

    def __init__(self):
        self.terms: dict[int, object] = {}
        self.formulas: dict[int, Callable[[_Run], bool]] = {}

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
        if tt is Plus:
            out = _plus(self.term(t.left), self.term(t.right))
        elif tt is Times:
            out = _times(self.term(t.left), self.term(t.right))
        elif tt is Len:
            svar = _name(t.svar, False)
            out = svar if callable(svar) else _len(svar)
        elif tt is SeqAt:
            out = _seq_at(self.term(t.seq), self.term(t.index))
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
# Plus and Times get one closure per operand shape, holding just its two
# operands: on the proof-check formula of the reflect benchmark that takes 7%
# less memory to compile than _binary closures.  nepo's grid reads (a sequence
# variable at a position scaled and offset by constants) and an EqNum of such
# a read against a constant get closures of their own too: on the certify
# benchmark these shapes take 94% of term and comparison calls, and running
# any one of them through _binary instead costs 10-13% of its ops per second.
# Other shapes go through _binary.  Constants
# are natural numbers, on which every term operation is total, so folding
# never raises, and a constant operand may be read after the other.


def _is_const(a) -> bool:
    return type(a) is not str and not callable(a)


def _value(a, nums, strs):
    if type(a) is str:
        return nums[a]
    return a(nums, strs) if callable(a) else a


def _binary(op, a, b):
    """op over two compiled operands, folded when both are constants."""
    if _is_const(a) and _is_const(b):
        return op(a, b)
    return lambda nums, strs: op(_value(a, nums, strs), _value(b, nums, strs))


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
        if type(b) is str:
            return lambda nums, strs: a(nums, strs) * nums[b]
        return lambda nums, strs: a(nums, strs) * b
    if callable(b):
        return lambda nums, strs: nums[a] * b(nums, strs)
    if type(b) is str:
        return lambda nums, strs: nums[a] * nums[b]
    return lambda nums, strs: nums[a] * b


def _seq_at(a, b):
    get = codec.seq_get_total
    if type(a) is str and callable(b):
        return lambda nums, strs: get(nums[a], b(nums, strs))
    return _binary(get, a, b)


def _seq_len(a):
    if _is_const(a):
        return codec.seq_len_total(a)
    return lambda nums, strs: codec.seq_len_total(_value(a, nums, strs))


def _len(svar: str):
    return lambda nums, strs: codec.set_length(strs[svar])


# --- compiled formulas ---
#
# A closure with child formulas holds the child nodes until its first run,
# which compiles them through the run's compiler and keeps the closures in
# their place.


def _compare(leq: bool, a, b) -> Callable[[_Run], bool]:
    if _is_const(a) and _is_const(b):
        return _true if (a <= b if leq else a == b) else _false
    if not leq and callable(a) and _is_const(b):
        def run(r):
            try:
                return a(r.nums, r.strs) == b
            except KeyError as e:
                raise _unbound(e) from None
        return run
    test = operator.le if leq else operator.eq

    def run(r):
        try:
            return test(_value(a, r.nums, r.strs), _value(b, r.nums, r.strs))
        except KeyError as e:
            raise _unbound(e) from None
    return run


def _memb(svar: str, index) -> Callable[[_Run], bool]:
    def run(r):
        try:
            return codec.bit_at(r.strs[svar], _value(index, r.nums, r.strs))
        except KeyError as e:
            raise _unbound(e) from None
    return run


def _eq_str(left, right) -> Callable[[_Run], bool]:
    def run(r):
        try:
            texts = [r.strs[n] if type(n) is str else n() for n in (left, right)]
        except KeyError as e:
            raise _unbound(e) from None
        return codec.sets_equal(*texts)
    return run


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


def _quant(exists: bool, strings: bool, var: str, bound,
           body) -> Callable[[_Run], bool]:
    """A number quantifier sweeps 0..bound; a string quantifier sweeps every
    set below bound, which must stay within str_width."""
    compiled = False

    def run(r):
        nonlocal body, compiled
        if not compiled:
            body, compiled = r.compiler.formula(body), True
        try:
            b = _value(bound, r.nums, r.strs)
        except KeyError as e:
            raise _unbound(e) from None
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
        prev = env.get(var)
        try:
            if exists and not strings and r.roles and var in r.roles:
                v = r.roles[var](r.env)
                if v > b:
                    return False
                env[var] = v
                return body(r)
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
