"""Reference decoders, enumerators, bounds and a formula walker that only
the tests use.

Each one is an oracle the library is checked against, or a harness that
feeds it inputs; none of them is part of the library.
"""

from forge import codec
from forge.codec import encode_seq, mask_to_bits, seq_get_total, seq_len_total
from forge.errors import (DecodeError, SliceExceededError, SortMismatchError,
                          UnboundVariableError)
from forge.evaluate import Assignment, FiniteSlice, MonotoneTree, Roles
from forge.formulas import (AlN, AlS, And, Const, EqNum, EqStr, ExN, ExS,
                            Formula, Imp, Len, Leq, Memb, Not, NumTerm, NVar,
                            One, Or, Plus, SeqAt, SeqLen, Times, Zero,
                            is_num_name, is_str_name)
from forge.machine import ComputationTableau, TableauLayout, decode_row

DECODE_LENGTH_CAP = 1 << 20


def decode_seq(code: int) -> list[int]:
    """Strict inverse of encode_seq; rejects non-canonical codes."""
    n = seq_len_total(code)
    if n > DECODE_LENGTH_CAP:
        raise DecodeError(f"length header {n} exceeds decode cap")
    xs = [seq_get_total(code, j) for j in range(n)]
    if encode_seq(xs) != code:
        raise DecodeError(f"{code} is not a canonical sequence code")
    return xs


def all_strings(max_length: int):
    """Every distinct set with elements below max_length, as trimmed strings."""
    for mask in range(1 << max_length):
        yield mask_to_bits(mask)


def witness_to_tableau(bits: str, layout: TableauLayout) -> ComputationTableau:
    """Inverse of tableau_to_witness for strings laid out by layout.

    Rows that violate the one-head invariant raise ValueError, so this is
    also a cheap structural check on candidate witnesses.  Every mark of
    state_bits bits is accepted.
    """
    row_bits = layout.width * layout.fields
    every_mark = (1 << layout.state_bits) - 1
    rows = []
    for t in range(layout.steps + 1):
        row = bits[t * row_bits:(t + 1) * row_bits].ljust(row_bits, "0")
        rows.append(decode_row([1 if c == "1" else 0 for c in row],
                               layout.state_bits, every_mark))
    return ComputationTableau(tuple(rows), layout.width, layout.state_bits)


def node_value_depth_bound(t: MonotoneTree) -> int:
    return (2 * t.a + 1).bit_length() + 1  # ceil(log2(2a+1)) + 1 for powers of 2


# --- the tree walker: the reference forge.evaluate's compiler is tested against ---
#
# It walks the formula at every visit and checks a name's sort at every
# read.  It computes the same truth value as forge.evaluate.eval_formula,
# raises the same error types at the same nodes and leaves the assignment as
# it found it.


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


def walk_term(t: NumTerm, env: Assignment) -> int:
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
        return walk_term(t.left, env) + walk_term(t.right, env)
    if tt is Times:
        return walk_term(t.left, env) * walk_term(t.right, env)
    if tt is Len:
        return codec.set_length(_str_lookup(env, t.svar))
    if tt is SeqAt:
        return seq_get_total(walk_term(t.seq, env), walk_term(t.index, env))
    if tt is SeqLen:
        return seq_len_total(walk_term(t.seq, env))
    raise TypeError(f"not a term: {t!r}")


def _quant_bound(t: NumTerm, s: FiniteSlice, env: Assignment) -> int:
    b = walk_term(t, env)
    if b > s.num_bound:
        raise SliceExceededError(f"quantifier bound {b} exceeds num_bound {s.num_bound}")
    return b


def walk_formula(f: Formula, s: FiniteSlice, env: Assignment | None = None,
                 roles: Roles | None = None) -> bool:
    """Truth of f in the slice, by walking the tree; roles as in
    forge.evaluate.eval_formula."""
    if env is None:
        env = Assignment()
    return _walk(f, s, env, roles)


def _walk(f: Formula, s: FiniteSlice, env: Assignment, roles: Roles | None) -> bool:
    tf = type(f)
    if tf is EqNum:
        return walk_term(f.left, env) == walk_term(f.right, env)
    if tf is Leq:
        return walk_term(f.left, env) <= walk_term(f.right, env)
    if tf is EqStr:
        return codec.sets_equal(_str_lookup(env, f.left), _str_lookup(env, f.right))
    if tf is Memb:
        return codec.bit_at(_str_lookup(env, f.svar), walk_term(f.index, env))
    if tf is And:
        return _walk(f.left, s, env, roles) and _walk(f.right, s, env, roles)
    if tf is Or:
        return _walk(f.left, s, env, roles) or _walk(f.right, s, env, roles)
    if tf is Not:
        return not _walk(f.body, s, env, roles)
    if tf is Imp:
        return (not _walk(f.left, s, env, roles)) or _walk(f.right, s, env, roles)
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
                return _walk(f.body, s, env, roles)
            for v in range(b + 1):
                env.nums[f.var] = v
                if _walk(f.body, s, env, roles) == want:
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
                env.strs[f.var] = mask_to_bits(mask)
                if _walk(f.body, s, env, roles) == want:
                    return want
        finally:
            if prev is None:
                env.strs.pop(f.var, None)
            else:
                env.strs[f.var] = prev
        return not want
    raise TypeError(f"not a formula: {f!r}")
