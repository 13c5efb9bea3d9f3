"""Brute-force evaluation of formulas over a finite slice.

Numbers range over [0, num_bound]; every quantifier bound must land in that
range.  String quantifiers enumerate all sets over positions [0, bound), so
their bounds must additionally stay within str_width to keep the sweep
finite.  Term values themselves are unbounded big integers.

Strings are read as sets of positions: the length of a string is one past
its largest element, membership beyond the text is false, and equality
ignores trailing zeros.

Certificate roles: eval_formula optionally takes a map from variable names
to callbacks.  An ExN binder whose variable has a role is not swept; its
callback computes a value from the current assignment, the binder is false
if that value exceeds the bound, and otherwise the body is evaluated once
with the value bound.  This is sound, and agrees with honest evaluation,
only when each callback produces the only admissible value: the one value
below the bound, if any, that can satisfy the body.  Compilers that attach
roles (nepo) must emit clauses that pin their witnesses uniquely.
"""

from __future__ import annotations

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


def node_value_depth_bound(t: MonotoneTree) -> int:
    return (2 * t.a + 1).bit_length() + 1  # ceil(log2(2a+1)) + 1 for powers of 2


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
