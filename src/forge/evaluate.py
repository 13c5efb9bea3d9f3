"""Brute-force evaluation of formulas over a finite slice.

Numbers range over [0, num_bound]; every quantifier bound must land in that
range.  String quantifiers enumerate all sets over positions [0, bound), so
their bounds must additionally stay within str_width to keep the sweep
finite.  Term values themselves are unbounded big integers.

Strings are read as sets of positions: the length of a string is one past
its largest element, membership beyond the text is false, and equality
ignores trailing zeros.

Two entry points compute the same truth value, raise the same errors at the
same nodes and leave the assignment as they found it:
  eval_formula      walks the tree at every visit.  One-shot callers use it
                    (cli eval, reflect, comprehension_witness), and it is the
                    reference the compiled path is tested against, so it
                    keeps its per-read sort checks.
  compile_formula   turns a formula into nested closures once: closed
                    subterms fold to numbers, variable sorts are checked at
                    compile time, and And/Or chains run as loops.  It compiles
                    the sublanguage nepo and acc emit: number atoms,
                    membership, Len and sequence terms, the connectives and
                    number quantifiers over well-sorted names.  Every other
                    node (set equality, string quantifiers, ill-sorted names,
                    unknown nodes) runs through the walker at that node.
                    Callers that evaluate one formula many times compile it
                    once and keep the result: nepo artifacts at their first
                    evaluation, and acc.check_witness and
                    acc.check_reach_witness in a bounded memo per matrix
                    kind, machine and polynomial.
Compiling costs more than one walk.  Measured on the benchmark workloads,
compiling at every eval_formula call made the median acc.check_witness call
take 29% longer, and on proof-check evaluation (a large shared formula,
evaluated a few times per compile) it cut ops per second by 41%, made the
median op take 67% longer and raised peak memory by 58%.  Compiling once and
keeping the result pays: once per nepo artifact roughly doubles certificate
evaluation, and once per acc matrix runs witness checks at 1.9 times the ops
per second (median op 1.65 ms walked, 0.78 ms compiled; peak memory +1%).

Certificate roles: both entry points optionally take a map from variable
names to callbacks.  An ExN binder whose variable has a role is not swept;
its callback computes a value from the current assignment, the binder is
false if that value exceeds the bound, and otherwise the body is evaluated
once with the value bound.  This is sound, and agrees with honest
evaluation, only when each callback produces the only admissible value: the
one value below the bound, if any, that can satisfy the body.  Compilers
that attach roles (nepo) must emit clauses that pin their witnesses
uniquely.
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


def _num_lookup(env: Assignment, name: str) -> int:
    if not is_num_name(name):
        raise SortMismatchError(f"{name} is not a number variable")
    try:
        return env.nums[name]
    except KeyError:
        raise UnboundVariableError(f"number variable {name} is unbound") from None


def _str_lookup(env: Assignment, name: str) -> str:
    if not is_str_name(name):
        raise SortMismatchError(f"{name} is not a string variable")
    try:
        return env.strs[name]
    except KeyError:
        raise UnboundVariableError(f"string variable {name} is unbound") from None


def eval_term(t: NumTerm, env: Assignment) -> int:
    tt = type(t)
    if tt is Zero:
        return 0
    if tt is One:
        return 1
    if tt is Const:
        return t.value
    if tt is NVar:
        return _num_lookup(env, t.name)
    if tt is Plus:
        return eval_term(t.left, env) + eval_term(t.right, env)
    if tt is Times:
        return eval_term(t.left, env) * eval_term(t.right, env)
    if tt is Len:
        return codec.set_length(_str_lookup(env, t.svar))
    if tt is SeqAt:
        return codec.seq_get_total(eval_term(t.seq, env), eval_term(t.index, env))
    if tt is SeqLen:
        return codec.seq_len_total(eval_term(t.seq, env))
    raise TypeError(f"not a term: {t!r}")


def _quant_bound(t: NumTerm, s: FiniteSlice, env: Assignment) -> int:
    b = eval_term(t, env)
    if b > s.num_bound:
        raise SliceExceededError(f"quantifier bound {b} exceeds num_bound {s.num_bound}")
    return b


def eval_formula(f: Formula, s: FiniteSlice, env: Assignment | None = None,
                 roles: Roles | None = None) -> bool:
    """Truth of f in the slice; quantifier bounds are inclusive.

    roles settles the listed ExN binders by callback instead of a sweep; see
    the module docstring for when that is sound.
    """
    if env is None:
        env = Assignment()
    return _eval(f, s, env, roles)


def _eval(f: Formula, s: FiniteSlice, env: Assignment, roles: Roles | None) -> bool:
    tf = type(f)
    if tf is EqNum:
        return eval_term(f.left, env) == eval_term(f.right, env)
    if tf is Leq:
        return eval_term(f.left, env) <= eval_term(f.right, env)
    if tf is EqStr:
        return codec.sets_equal(_str_lookup(env, f.left), _str_lookup(env, f.right))
    if tf is Memb:
        return codec.bit_at(_str_lookup(env, f.svar), eval_term(f.index, env))
    if tf is And:
        return _eval(f.left, s, env, roles) and _eval(f.right, s, env, roles)
    if tf is Or:
        return _eval(f.left, s, env, roles) or _eval(f.right, s, env, roles)
    if tf is Not:
        return not _eval(f.body, s, env, roles)
    if tf is Imp:
        return (not _eval(f.left, s, env, roles)) or _eval(f.right, s, env, roles)
    if tf in (ExN, AlN):
        b = _quant_bound(f.bound, s, env)
        want = tf is ExN
        prev = env.nums.get(f.var)
        try:
            if want and roles and f.var in roles:
                v = roles[f.var](env)
                if v > b:
                    return False
                env.nums[f.var] = v
                return _eval(f.body, s, env, roles)
            for v in range(b + 1):
                env.nums[f.var] = v
                if _eval(f.body, s, env, roles) == want:
                    return want
        finally:
            if prev is None:
                env.nums.pop(f.var, None)
            else:
                env.nums[f.var] = prev
        return not want
    if tf in (ExS, AlS):
        b = _quant_bound(f.bound, s, env)
        if b > s.str_width:
            raise SliceExceededError(
                f"string bound {b} exceeds str_width {s.str_width}")
        want = tf is ExS
        prev = env.strs.get(f.var)
        try:
            for mask in range(1 << b):
                env.strs[f.var] = codec.mask_to_bits(mask)
                if _eval(f.body, s, env, roles) == want:
                    return want
        finally:
            if prev is None:
                env.strs.pop(f.var, None)
            else:
                env.strs[f.var] = prev
        return not want
    raise TypeError(f"not a formula: {f!r}")


# --- compiled evaluation ---
#
# A compiled formula is a closure (run) -> bool over a _Run.  Variable reads
# index the assignment's dicts directly, and each atom and quantifier bound
# turns the KeyError of an unbound name into UnboundVariableError.  A node
# outside the compiled sublanguage (see the module docstring), and an atom or
# number quantifier holding a name that is not a str of the right sort,
# compiles to a closure that runs the walker on it, so it raises what the
# walker raises where it raises.

Compiled = Callable[[FiniteSlice, Assignment | None, Roles | None], bool]


class _Run:
    """What one call of a compiled formula reads besides its structure."""

    __slots__ = ("nums", "strs", "env", "slice", "roles")

    def __init__(self, env: Assignment, s: FiniteSlice, roles: Roles | None):
        self.nums = env.nums
        self.strs = env.strs
        self.env = env
        self.slice = s
        self.roles = roles


def compile_formula(f: Formula) -> Compiled:
    """f as a function (s, env=None, roles=None) -> bool equal to
    eval_formula(f, s, env, roles), built once.

    Each node compiles once per call of compile_formula, so a subformula or
    term shared by several parents compiles once; the memo is dropped when
    the compile returns.  The compiler recurses once per formula level (And
    and Or chains compile as n-ary loops), as the closures do when run.
    """
    root = _Compiler().formula(f)

    def run(s: FiniteSlice, env: Assignment | None = None,
            roles: Roles | None = None) -> bool:
        return root(_Run(Assignment() if env is None else env, s, roles))

    return run


class _Walk(Exception):
    """A node the compiler leaves to the walker.  Raised by a term, it hands
    the whole atom or quantifier that holds the term to the walker."""


def _walk(f: Formula) -> Callable[[_Run], bool]:
    """f run through the walker when reached."""
    return lambda r: _eval(f, r.slice, r.env, r.roles)


def _name(name, num: bool) -> str:
    """name when it is a str of the wanted sort, else _Walk."""
    if type(name) is str and (is_num_name(name) if num else is_str_name(name)):
        return name
    raise _Walk


def _unbound(e: KeyError) -> UnboundVariableError:
    name = e.args[0]
    sort = "number" if is_num_name(name) else "string"
    return UnboundVariableError(f"{sort} variable {name} is unbound")


def _true(_run):
    return True


def _false(_run):
    return False


class _Compiler:
    """One compile: memos by node identity, for terms and for formulas.

    term and formula look up the memo and build in one frame, so a compile
    takes one Python frame per level of the formula (and of its terms).
    """

    def __init__(self):
        self.terms: dict[int, object] = {}
        self.formulas: dict[int, Callable[[_Run], bool]] = {}

    def term(self, t: NumTerm):
        out = self.terms.get(id(t))
        if out is not None:
            return out
        tt = type(t)
        if tt is Zero:
            out = 0
        elif tt is One:
            out = 1
        elif tt is Const:
            out = t.value
        elif tt is NVar:
            out = _name(t.name, True)
        elif tt is Plus:
            out = _plus(self.term(t.left), self.term(t.right))
        elif tt is Times:
            out = _times(self.term(t.left), self.term(t.right))
        elif tt is Len:
            out = _len(_name(t.svar, False))
        elif tt is SeqAt:
            out = _seq_at(self.term(t.seq), self.term(t.index))
        elif tt is SeqLen:
            out = _seq_len(self.term(t.seq))
        else:
            raise _Walk
        self.terms[id(t)] = out
        return out

    def formula(self, f: Formula) -> Callable[[_Run], bool]:
        out = self.formulas.get(id(f))
        if out is not None:
            return out
        tf = type(f)
        try:
            if tf is EqNum or tf is Leq:
                out = _compare(tf is Leq, self.term(f.left), self.term(f.right))
            elif tf is Memb:
                out = _memb(_name(f.svar, False), self.term(f.index))
            elif tf is And or tf is Or:
                parts, g = [], f
                while type(g) is tf:
                    parts.append(self.formula(g.left))
                    g = g.right
                parts.append(self.formula(g))
                out = (_all if tf is And else _any)(tuple(parts))
            elif tf is Not:
                out = _not(self.formula(f.body))
            elif tf is Imp:
                out = _imp(self.formula(f.left), self.formula(f.right))
            elif tf is ExN or tf is AlN:
                out = _num_quant(tf is ExN, _name(f.var, True), self.term(f.bound),
                                 self.formula(f.body))
            else:
                raise _Walk
        except _Walk:
            out = _walk(f)
        self.formulas[id(f)] = out
        return out


# --- compiled terms ---
#
# A compiled term is a folded constant, a str (the name of a number variable,
# read straight from nums by its parent) or a closure (nums, strs) -> int.
# The operand shapes of nepo's grid reads, a sequence variable at a position
# scaled and offset by constants, get closures of their own, and so does an
# EqNum of such a read against a constant: on the certify benchmark these
# closures take 94% of term and comparison calls, and running any one of them
# through _binary instead costs 10-13% of its ops per second.  Other shapes go
# through _binary.  Constants are natural numbers, on which every term
# operation is total, so folding never raises.


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
    if callable(a) and _is_const(b):
        return lambda nums, strs: a(nums, strs) + b
    if callable(a) and type(b) is str:
        return lambda nums, strs: a(nums, strs) + nums[b]
    return _binary(operator.add, a, b)


def _times(a, b):
    if callable(a) and _is_const(b):
        return lambda nums, strs: a(nums, strs) * b
    if type(a) is str and _is_const(b):
        return lambda nums, strs: nums[a] * b
    return _binary(operator.mul, a, b)


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


def _all(parts: tuple) -> Callable[[_Run], bool]:
    def run(r):
        for part in parts:
            if not part(r):
                return False
        return True
    return run


def _any(parts: tuple) -> Callable[[_Run], bool]:
    def run(r):
        for part in parts:
            if part(r):
                return True
        return False
    return run


def _not(body) -> Callable[[_Run], bool]:
    return lambda r: not body(r)


def _imp(left, right) -> Callable[[_Run], bool]:
    return lambda r: not left(r) or right(r)


def _bound(bound, r: _Run) -> int:
    try:
        b = _value(bound, r.nums, r.strs)
    except KeyError as e:
        raise _unbound(e) from None
    if b > r.slice.num_bound:
        raise SliceExceededError(
            f"quantifier bound {b} exceeds num_bound {r.slice.num_bound}")
    return b


def _num_quant(exists: bool, var: str, bound, body) -> Callable[[_Run], bool]:
    def run(r):
        b = _bound(bound, r)
        nums = r.nums
        prev = nums.get(var)
        try:
            if exists and r.roles and var in r.roles:
                v = r.roles[var](r.env)
                if v > b:
                    return False
                nums[var] = v
                return body(r)
            for v in range(b + 1):
                nums[var] = v
                if body(r) == exists:
                    return exists
        finally:
            if prev is None:
                nums.pop(var, None)
            else:
                nums[var] = prev
        return not exists
    return run


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
    prev = env.nums.get(var)
    bits = []
    try:
        for z in range(y):
            env.nums[var] = z
            bits.append("1" if _eval(phi, s, env, None) else "0")
    finally:
        if prev is None:
            env.nums.pop(var, None)
        else:
            env.nums[var] = prev
    return "".join(bits)


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
