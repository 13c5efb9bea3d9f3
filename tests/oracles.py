"""Reference decoders, enumerators, bounds, a formula walker, an
s-expression reader, a left-moving machine and a one-step one, the writer
of configuration strings, the truth of a formula over all strings of one
length, a generator of machines with long TRANS chains, nepo's row digits
and cell codes, and the proof mutation and soundness harnesses, which only
the tests use.

Each one is an oracle the library is checked against, a harness that
feeds it inputs, or a probe of which path the compiler takes; none of them
is part of the library.

The two reference readers of sequence codes, seq_len_total and
seq_get_total, read a code from its header by arithmetic, where the
library decodes every field with codec.seq_fields: the low 5 bits hold the
width w, the rest holds (bitlen(rest) - 1) // w whole w-bit fields under
a sentinel top bit, no fields when w or the rest is 0, and a read past the
last field gives 0.  The walker and the codec, nepo and machine tests read
codes through them, so no check shares a sequence decoder with the
library.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import dataclass

from forge import codec, evaluate
from forge.codec import MAX_FIELD_WIDTH, encode_seq, mask_to_bits
from forge.errors import (DecodeError, ParseError, SliceExceededError,
                          SortMismatchError, UnboundVariableError)
from forge.evaluate import Assignment, FiniteSlice, Roles, eval_formula
from forge.formulas import (AlN, AlS, And, Const, EqNum, EqStr, ExN, ExS,
                            Formula, Imp, Len, Leq, Memb, Not, NumTerm, NVar,
                            Or, Plus, SeqAt, SeqLen, Times, Zero, free_vars,
                            is_num_name, is_str_name)
from forge.machine import (ComputationTableau, Configuration, TableauLayout,
                           decode_row, encode_row, parse_tm)
from forge.mfv import MonotoneTree
from forge.nepo import NepoArtifact, NepoBounds
from forge.proofs import (Proof, ProofLine, Sequent, check_depth_frege,
                          check_frege, proof_target, system_depth)
from forge.prop import PropFormula, PVar, pnot, por, taut_check
from forge.sexpr import print_term

DECODE_LENGTH_CAP = 1 << 20


def seq_len_total(code: int) -> int:
    """Element count under the lenient reading; 0 when no header is usable.

    This is the denotation the formula evaluator gives the seqlen term, so
    it must accept every natural number.
    """
    if code < 0:
        raise ValueError("sequence codes are non-negative")
    w = code % (MAX_FIELD_WIDTH + 1)
    body = code // (MAX_FIELD_WIDTH + 1)
    if w == 0 or body == 0:
        return 0
    return (body.bit_length() - 1) // w


def seq_get_total(code: int, j: int) -> int:
    """Element j under the lenient reading; out-of-range reads give 0."""
    if code < 0:
        raise ValueError("sequence codes are non-negative")
    if j < 0:
        raise IndexError("sequence positions are non-negative")
    w = code % (MAX_FIELD_WIDTH + 1)
    body = code // (MAX_FIELD_WIDTH + 1)
    if w == 0 or body == 0:
        return 0
    n = (body.bit_length() - 1) // w
    if j >= n:
        return 0
    return (body >> (j * w)) & ((1 << w) - 1)


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


def exact_len_strings(n: int) -> list[str]:
    """All bit strings whose set-length is exactly n."""
    if n == 0:
        return [""]
    return [format(m, f"0{n - 1}b")[::-1] + "1" if n > 1 else "1"
            for m in range(1 << (n - 1))]


def holds_for_all(phi: Formula, n: int) -> bool:
    """Does phi hold with X bound to each string of set-length n?  The slice
    admits quantifier bounds up to max(n, 8) + 2; a wider one changes no
    value, only which bounds raise SliceExceededError."""
    s = FiniteSlice(max(n, 8) + 2, max(n, 1))
    return all(eval_formula(phi, s, Assignment(strs={"X": x}))
               for x in exact_len_strings(n))


# LEFT3 moves left (from the third step on "0110") and has k = 3, so an empty
# VALIDITY clause; no corpus machine has either.
LEFT3_TEXT = ("states 3\n1 0 -> 2 1 1\n1 1 -> 3 0 2\n2 0 -> 1 1 0\n"
              "2 1 -> 3 1 1\n3 0 -> 3 0 1\n3 1 -> 1 0 2\n")
LEFT3 = parse_tm(LEFT3_TEXT)
# BIT_TM accepts iff its first bit is 1, decided in one step.
BIT_TM = parse_tm("states 2\n1 0 -> 1 0 0\n1 1 -> 2 1 0\n2 0 -> 2 0 0\n2 1 -> 2 1 0\n")


def chain_machine(k: int) -> str:
    """The text of a k-state machine whose rule `q b -> min(q + 1, k) b 2`
    moves right and up one state: its TRANS clause is a chain of 2k rules."""
    rules = (f"{q} {b} -> {min(q + 1, k)} {b} 2" for q in range(1, k + 1) for b in (0, 1))
    return "\n".join([f"states {k}", *rules]) + "\n"


def moves_left(tableau: ComputationTableau) -> bool:
    """Does some row's head sit left of the previous row's head?"""
    heads = [row.head for row in tableau.rows]
    return any(b < a for a, b in zip(heads, heads[1:]))


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


def config_to_string(conf: Configuration, state_bits: int) -> str:
    """A configuration string: one tableau row encoded, plus a sentinel 1
    pinning the length.  acc.string_to_config and nepo's I source read it."""
    return encode_row(conf, state_bits) + "1"


def field_pos(layout: TableauLayout, t: int, i: int, f: int) -> int:
    """Where field f of cell i of row t sits in a witness string of layout's
    shape, by arithmetic: the reference for machine.encode_row's order."""
    return (t * layout.width + i) * layout.fields + f


def node_value_depth_bound(t: MonotoneTree) -> int:
    return (2 * t.a + 1).bit_length() + 1  # ceil(log2(2a+1)) + 1 for powers of 2


# --- nepo: row digits, cell codes, quantifier bounds, reach queries ---


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


def eval_reach_level(artifact: NepoArtifact, config: str, p1: int, p2: int,
                     cell: int) -> bool:
    return artifact.evaluate(Assignment(
        nums={"p1": p1, "p2": p2, "cell": cell}, strs={"I": config}))


# --- proofs: the soundness sweep and the mutation harness ---


def sequent_formula(s: Sequent) -> PropFormula:
    """The implication a sequent asserts, as one formula."""
    return por([pnot(f) for f in s.left] + list(s.right))


def soundness_sweep(system, var_cap: int, corpus) -> dict:
    """Check each proof; every accepted endsequent must be a tautology."""
    depth = system_depth(system)
    if depth is None:
        accept = check_frege
    else:
        accept = lambda pi, t: check_depth_frege(pi, t, depth)
    checked = accepted = 0
    failures: list[int] = []
    for idx, pi in enumerate(corpus):
        checked += 1
        target = proof_target(pi)
        if target is None or not accept(pi, target):
            continue
        accepted += 1
        if not taut_check(target, var_cap):
            failures.append(idx)
    return {"system": system, "checked": checked, "accepted": accepted,
            "failures": failures}


_JUNK = PVar("z", 97)  # index far outside anything the corpus uses


def _with_line(pi: Proof, i: int, line: ProofLine) -> Proof:
    return Proof(pi.lines[:i] + (line,) + pi.lines[i + 1:])


def proof_mutations(pi: Proof):
    """Single-line corruptions; a valid proof must fail the check under each.

    Yields (description, mutated proof).  Operators: rule-tag swap, a junk
    formula appended to either side, side swap where the sides differ, and
    dropping the first premise.  Each breaks the line's own derivation, a
    later line that cites it, or the endsequent shape.
    """
    for i, line in enumerate(pi.lines):
        s = line.sequent
        swapped_rule = "weak-left" if line.rule == "axiom" else "axiom"
        yield (f"line {i + 1}: rule -> {swapped_rule}",
               _with_line(pi, i, ProofLine(s, swapped_rule, line.premises,
                                           line.cut_index)))
        for side, seq in (("left", Sequent(s.left + (_JUNK,), s.right)),
                          ("right", Sequent(s.left, s.right + (_JUNK,)))):
            yield (f"line {i + 1}: junk appended {side}",
                   _with_line(pi, i, ProofLine(seq, line.rule, line.premises,
                                               line.cut_index)))
        if Counter(s.left) != Counter(s.right):
            yield (f"line {i + 1}: sides swapped",
                   _with_line(pi, i, ProofLine(Sequent(s.right, s.left),
                                               line.rule, line.premises,
                                               line.cut_index)))
        if line.premises:
            yield (f"line {i + 1}: first premise dropped",
                   _with_line(pi, i, ProofLine(s, line.rule, line.premises[1:],
                                               line.cut_index)))


# --- the reference reader forge.sexpr.read_all is tested against ---
#
# Two passes: a token list with positions, then a reader over it, building
# dataclass nodes.  The lexical syntax is spelled out again here, so a change
# to forge.sexpr's shows as a difference.  A list of + and * over 1s whose
# exact source text is what print_term writes for its value is one atom; the
# reader finds those as the lists close, so an outer one replaces the inner
# ones.  Like read_all, it reads lists to any depth: the parsers that recurse
# over the trees bound their nesting.

_TOKEN = re.compile(r"\n|;[^\n]*|[()]|[^ \t\r\n();]+")


@dataclass(frozen=True, slots=True)
class RefNode:
    """Atom (text set) or list (items set), tagged with its source position."""

    text: str | None
    items: tuple[RefNode, ...] | None
    line: int
    col: int


def _tokenize(source: str, line: int, col: int) -> list[tuple[str, int, int, int, int]]:
    """(text, line, column, start, end) of each atom and parenthesis;
    comments dropped."""
    toks = []
    line_start = 1 - col  # source offset that sits in column 1 of `line`
    for m in _TOKEN.finditer(source):
        text = m.group()
        if text == "\n":
            line += 1
            line_start = m.end()
        elif text[0] != ";":
            toks.append((text, line, m.start() - line_start + 1, m.start(), m.end()))
    return toks


def _list_value(items: list[RefNode], values: list[int | None]) -> int | None:
    """The value of (+ a b) or (* a b) over lists and 1s that have one."""
    if len(items) != 3 or items[0].text not in ("+", "*") or None in values[1:]:
        return None
    return values[1] + values[2] if items[0].text == "+" else values[1] * values[2]


def ref_read_all(source: str, line: int = 1, col: int = 1) -> list[RefNode]:
    """What forge.sexpr.read_all(source, line, col) reads, or raises."""
    top: list[RefNode] = []
    open_lists: list[tuple[int, int, int, list[RefNode], list[int | None]]] = []
    items, values = top, []  # the nodes of the innermost open list and their values
    for text, line, col, start, end in _tokenize(source, line, col):
        if text == "(":
            items, values = [], []
            open_lists.append((line, col, start, items, values))
        elif text == ")":
            if not open_lists:
                raise ParseError("unexpected )", line, col)
            start_line, start_col, at, done, done_values = open_lists.pop()
            items, values = open_lists[-1][3:] if open_lists else (top, [])
            value = _list_value(done, done_values)
            if value is not None and source[at:end] == print_term(Const(value)):
                items.append(RefNode(source[at:end], None, start_line, start_col))
            else:
                items.append(RefNode(None, tuple(done), start_line, start_col))
            values.append(value)
        else:
            items.append(RefNode(text, None, line, col))
            values.append(1 if text == "1" else None)
    if open_lists:
        start_line, start_col = open_lists[-1][:2]
        raise ParseError("missing )", start_line, start_col)
    return top


# --- the tree walker: the reference forge.evaluate's compiler is tested against ---
#
# It walks the formula at every visit and checks a name's sort at every
# read.  It computes the same truth value as forge.evaluate.eval_formula,
# raises the same error types at the same nodes and leaves the assignment as
# it found it.


def _num_lookup(env: Assignment, name: str) -> int:
    if type(name) is not str:
        raise TypeError(f"variable name {name!r} is not a str")
    if not is_num_name(name):
        raise SortMismatchError(f"{name} is not a number variable")
    try:
        return env.nums[name]
    except KeyError:
        raise UnboundVariableError(f"number variable {name} is unbound") from None


def _str_lookup(env: Assignment, name: str) -> str:
    if type(name) is not str:
        raise TypeError(f"variable name {name!r} is not a str")
    if not is_str_name(name):
        raise SortMismatchError(f"{name} is not a string variable")
    try:
        return env.strs[name]
    except KeyError:
        raise UnboundVariableError(f"string variable {name} is unbound") from None


def walk_term(t: NumTerm, env: Assignment) -> int:
    tt = type(t)
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
                v = _role_value(roles[f.var], env)
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


def _role_value(callback, env: Assignment) -> int:
    """callback(env), a KeyError it raises turned into the
    UnboundVariableError an unbound read of its key gives."""
    try:
        return callback(env)
    except KeyError as e:
        key = e.args[0] if e.args else None
        if type(key) is not str:
            raise UnboundVariableError(f"unbound key {key!r}") from None
        sort = "number" if is_num_name(key) else "string"
        raise UnboundVariableError(f"{sort} variable {key} is unbound") from None


def generated_source(fn) -> str | None:
    """The source forge.evaluate generated the function fn from, or None
    when fn is no such function."""
    code = getattr(fn, "__code__", None)
    return next((src for src, g in evaluate._generated.items() if g.__code__ is code), None)


def generated_functions(roots) -> list:
    """Every function forge.evaluate generated that the callables roots
    reach through closure cells and operands, each once."""
    seen, stack, out = set(), list(roots), []
    while stack:
        fn = stack.pop()
        if not callable(fn) or id(fn) in seen:
            continue
        seen.add(id(fn))
        if generated_source(fn) is not None:
            out.append(fn)
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                stack.append(cell.cell_contents)
            except ValueError:  # an empty cell
                pass
        stack += getattr(fn, "__defaults__", None) or ()
    return out


def one_function(fn) -> bool:
    """Is fn one generated function with every term below it written into
    its source: none of its operands a generated function too?"""
    return generated_source(fn) is not None and not any(
        generated_source(op) for op in fn.__defaults__ or ())


def _reads_name(node: ast.AST) -> bool:
    """Is node nums['name'], a number name read from the run's dict?"""
    return (type(node) is ast.Subscript and type(node.value) is ast.Name
            and node.value.id == "nums" and type(node.slice) is ast.Constant
            and type(node.slice.value) is str)


def grid_read(t: NumTerm) -> bool:
    """Does t compile, inside the atom (= t 0), to one call of the compile's
    reader over its table of decoded codes, made inside the atom's one
    generated function, with a name read as its code and its index written
    in, not called as a generated function of its own?"""
    compiler = evaluate._Compiler(EqNum(t, Zero()))
    return grid_reads(compiler.root, compiler.read) == [True]


def grid_reads(fn, reader) -> list[bool]:
    """For each call of reader that fn, a function forge.evaluate generated,
    makes, in source order, whether it reads a name as its code; [] when fn
    is not one generated function (one_function), which also means every
    index is written in."""
    if not one_function(fn):
        return []
    code = fn.__code__
    operands = dict(zip(code.co_varnames[code.co_argcount - len(fn.__defaults__ or ()):
                                        code.co_argcount], fn.__defaults__ or ()))
    calls = [g for g in ast.walk(ast.parse(generated_source(fn)))
             if type(g) is ast.Call and type(g.func) is ast.Name
             and operands.get(g.func.id) is reader]
    return [len(g.args) == 2 and _reads_name(g.args[0])
            for g in sorted(calls, key=lambda g: (g.lineno, g.col_offset))]


def record_compile_roots(monkeypatch) -> list[Formula]:
    """The root formula of each compile eval_formula makes from here on, in
    order."""
    compiles = []

    class Recording(evaluate._Compiler):
        def __init__(self, f):
            compiles.append(f)
            super().__init__(f)

    monkeypatch.setattr(evaluate, "_Compiler", Recording)
    return compiles


def read_outcome(fn):
    """fn()'s result, or the class and text of the error it raised."""
    try:
        return fn()
    except (ValueError, IndexError, UnboundVariableError, SortMismatchError) as e:
        return type(e), str(e)


def role_free_names(f: Formula, roles: Roles) -> dict[str, tuple[tuple, tuple]]:
    """For each ExN binder of f whose variable has a role, the (number,
    string) names free in its body other than its variable, sorted: the
    names a certificate callback may read and the verdict memo keys on."""
    out, stack = {}, [f]
    while stack:
        g = stack.pop()
        tg = type(g)
        if tg is ExN and g.var in roles:
            nums, strs = free_vars(g.body)
            out[g.var] = tuple(sorted(nums - {g.var})), tuple(sorted(strs))
        if tg in (And, Or, Imp):
            stack += [g.left, g.right]
        elif tg in (Not, ExN, AlN, ExS, AlS):
            stack.append(g.body)
    return out
