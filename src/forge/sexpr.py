"""S-expression reader shared by formulas, proofs and `prop`; formula parser
and printer.

Lexical syntax, owned here for every text format of the package: atoms are
runs of characters other than whitespace, parentheses and `;`; a `;`
comment runs to end of line.  `read_all` turns source text into `Node`
trees in one pass over the list of tokens one `findall` builds.  A `Node` is
a named tuple that carries the index of its first token and the text it was
read from; its line and column are found only when asked for, from where the
tokens start, so every `ParseError` raised over it points into the source and
a text that parses computes no position.  `read_all` has no nesting cap; the
parsers do.

Formula grammar
  term     ::= 0 | 1 | <ident> | (+ t t) | (* t t) | (len <Ident>)
             | (seq t t) | (seqlen t)
  formula  ::= (= t t) | (leq t t) | (seteq X Y) | (in t X)
             | (and f f) | (or f f) | (not f) | (imp f f)
             | (exN x t f) | (alN x t f) | (exS X t f) | (alS X t f)

Number variables start lowercase, string variables start uppercase.
Connectives written with more than two arguments fold right, so
(and a b c) reads as (and a (and b c)); `memb` is accepted as an alias for
`in`.  A printed constant reads back as one `Const` leaf.  A formula may nest
at most `MAX_DEPTH` lists deep in its reprint, else it is a `ParseError`.

Parsing alpha-renames binders so no name is bound twice anywhere in the
result: rebinding a name under itself is rejected, a repeat in a sibling
branch gets a numeric suffix.  So a name picks out one binder of the whole
formula, and a table keyed by variable name, such as the certificate roles
of `evaluate`, can address any binder of a parsed formula.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import DuplicateBindingError, ParseError, SortMismatchError
from .formulas import (AlN, AlS, And, Const, EqNum, EqStr, ExN, ExS, Formula,
                       Imp, Len, Leq, Memb, Not, NumTerm, NVar, One, Or, Plus,
                       SeqAt, SeqLen, Times, Zero, is_num_name, is_str_name)

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# Whitespace is space, tab, \r and \n, skipped between matches; \n ends a line
# and a comment.  Token k of a text is the k-th match in both passes over it.
_TOKEN = re.compile(r";[^\n]*|[()]|[^ \t\r\n();]+")

# Deepest formula nesting the parser accepts.  Parsing, printing, evaluation
# and proof checking recurse once per level, and Python stops near 1000 frames;
# the proof check at cap 19 nests 107 deep, nepo's formulas 38 up to m = 1024.
MAX_DEPTH = 900


def _token_starts(text: str) -> list[int]:
    """The offset in text at which each of its tokens starts."""
    return [m.start() for m in _TOKEN.finditer(text)]


class _Source:
    """One text `read_all` read: where it starts, its tokens (comments
    included) and, once a position is asked for, where each token starts."""

    __slots__ = ("text", "line", "col", "tokens", "starts")

    def __init__(self, text: str, line: int, col: int, tokens: list[str]):
        self.text, self.line, self.col, self.tokens = text, line, col, tokens
        self.starts: list[int] | None = None

    def position(self, token: int) -> tuple[int, int]:
        """Line and column of the first character of token number `token`."""
        if self.starts is None:
            self.starts = _token_starts(self.text)
        at = self.starts[token]
        newline = self.text.rfind("\n", 0, at)
        if newline < 0:
            return self.line, self.col + at
        return self.line + self.text.count("\n", 0, at), at - newline


class Node(NamedTuple):
    """Atom (text set) or list (items set), with the index of its first token
    (the atom or the opening parenthesis) in the text it was read from.  Its
    `line` and `col` are computed from the text when read, not kept."""

    text: str | None
    items: tuple[Node, ...] | None
    token: int
    source: _Source

    @property
    def line(self) -> int:
        return self.source.position(self.token)[0]

    @property
    def col(self) -> int:
        return self.source.position(self.token)[1]


def read_all(source: str, line: int = 1, col: int = 1) -> list[Node]:
    """Every top-level expression of `source`, which starts at line:col."""
    tokens = _TOKEN.findall(source)
    src = _Source(source, line, col, tokens)
    new = tuple.__new__  # builds a Node without a Python-level __init__
    top: list[Node] = []
    items = top
    outer: list[list[Node]] = []  # the item lists of the open lists' parents
    starts: list[int] = []        # the open lists' first tokens
    for k, text in enumerate(tokens):
        if text == "(":
            outer.append(items)
            starts.append(k)
            items = []
        elif text == ")":
            if not starts:
                raise ParseError("unexpected )", *src.position(k))
            done = items
            items = outer.pop()
            items.append(new(Node, (None, tuple(done), starts.pop(), src)))
        elif text[0] != ";":
            items.append(new(Node, (text, None, k, src)))
    if starts:
        raise ParseError("missing )", *src.position(starts[-1]))
    return top


def read_one(source: str) -> Node:
    """The single expression `source` holds."""
    nodes = read_all(source)
    if not nodes:
        raise ParseError("empty input", 1, 1)
    if len(nodes) > 1:
        raise ParseError("trailing input after expression", nodes[1].line, nodes[1].col)
    return nodes[0]


def _ident(node: Node, want: str) -> str:
    if node.text is None or not _IDENT.match(node.text):
        raise ParseError(f"expected {want} name", node.line, node.col)
    return node.text


def is_str_ident(name: str) -> bool:
    """Does the reader take name as a string-variable name?"""
    return bool(_IDENT.match(name)) and is_str_name(name)


def _num_name(node: Node) -> str:
    name = _ident(node, "number-variable")
    if not is_num_name(name):
        raise SortMismatchError(
            f"{node.line}:{node.col}: {name} is a string name in number position"
        )
    return name


def _str_name(node: Node) -> str:
    name = _ident(node, "string-variable")
    if not is_str_name(name):
        raise SortMismatchError(
            f"{node.line}:{node.col}: {name} is a number name in string position"
        )
    return name


class _Binders:
    """Allocates parse-wide unique binder names, left to right.  A renamed
    binder also avoids every token of the source, collected at the first
    collision: a fresh name is an identifier, and no other token is."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.reserved: set[str] | None = None
        self.taken: set[str] = set()

    def assign(self, name: str) -> str:
        if name not in self.taken:
            self.taken.add(name)
            return name
        if self.reserved is None:
            self.reserved = set(self.tokens)
        k = 2
        while f"{name}_{k}" in self.taken or f"{name}_{k}" in self.reserved:
            k += 1
        fresh = f"{name}_{k}"
        self.taken.add(fresh)
        return fresh


def _too_deep(node: Node) -> ParseError:
    """The error for a node past the cap.  The parse functions below count a
    node's `depth` as its list nesting once n-ary connectives fold right, as
    the formula reprints, with a constant's spelling one list deep."""
    return ParseError(f"formula would nest deeper than {MAX_DEPTH} once folded",
                      node.line, node.col)


def _operands(node: Node, op: str) -> tuple[Node, Node] | None:
    """The two arguments of node if it is the list (op a b), else None."""
    items = node.items
    return items[1:] if items and len(items) == 3 and items[0].text == op else None


def _const(node: Node) -> Const | int:
    """The `Const` node spells as `print_term` writes it: (* (+ 1 1) m) is 2m and
    (+ (* (+ 1 1) m) 1) is 2m + 1, down to m = 1; read in a loop.  Else how many
    lists below node the spelling breaks off, as no list down there folds."""
    bits = []
    while node.text != "1":
        plus = _operands(node, "+")
        odd = plus is not None and plus[1].text == "1"
        times = _operands(plus[0] if odd else node, "*")
        two = times and _operands(times[0], "+")
        if not two or two[0].text != "1" or two[1].text != "1":
            return len(bits) + bits.count("1")
        bits.append("1" if odd else "0")
        node = times[1]
    return Const(int("1" + "".join(reversed(bits)), 2))


def _parse_term(node: Node, env: dict[str, str], depth: int = 1,
                fold_from: int = 1) -> NumTerm:
    if node.text is not None:
        if node.text == "0":
            return Zero()
        if node.text == "1":
            return One()
        name = _num_name(node)
        return NVar(env.get(name, name))
    if depth > MAX_DEPTH:
        raise _too_deep(node)
    if depth >= fold_from:
        if type(const := _const(node)) is Const:
            return const
        fold_from = depth + const + 1  # so a broken spine is walked once
    items = node.items
    assert items is not None
    if not items or items[0].text is None:
        raise ParseError("expected a term operator", node.line, node.col)
    op = items[0].text
    if op == "+" or op == "*":
        if len(items) != 3:
            raise ParseError(f"({op} t t) takes two arguments", node.line, node.col)
        make = Plus if op == "+" else Times
        return make(_parse_term(items[1], env, depth + 1, fold_from),
                    _parse_term(items[2], env, depth + 1, fold_from))
    if op == "len":
        if len(items) != 2:
            raise ParseError("(len X) takes one argument", node.line, node.col)
        name = _str_name(items[1])
        return Len(env.get(name, name))
    if op == "seq":
        if len(items) != 3:
            raise ParseError("(seq t t) takes two arguments", node.line, node.col)
        return SeqAt(_parse_term(items[1], env, depth + 1),
                     _parse_term(items[2], env, depth + 1))
    if op == "seqlen":
        if len(items) != 2:
            raise ParseError("(seqlen t) takes one argument", node.line, node.col)
        return SeqLen(_parse_term(items[1], env, depth + 1))
    raise ParseError(f"unknown term operator {op}", items[0].line, items[0].col)


_QUANT = {"exN": (ExN, _num_name), "alN": (AlN, _num_name),
          "exS": (ExS, _str_name), "alS": (AlS, _str_name)}


def _parse_formula(node: Node, env: dict[str, str], binders: _Binders,
                   depth: int = 1) -> Formula:
    if node.text is not None:
        raise ParseError("expected a formula, got an atom", node.line, node.col)
    if depth > MAX_DEPTH:
        raise _too_deep(node)
    items = node.items
    assert items is not None
    if not items or items[0].text is None:
        raise ParseError("expected a formula operator", node.line, node.col)
    op = items[0].text
    args = items[1:]

    if op in ("=", "leq"):
        if len(args) != 2:
            raise ParseError(f"({op} t t) takes two arguments", node.line, node.col)
        make = EqNum if op == "=" else Leq
        return make(_parse_term(args[0], env, depth + 1),
                    _parse_term(args[1], env, depth + 1))
    if op == "seteq":
        if len(args) != 2:
            raise ParseError("(seteq X Y) takes two arguments", node.line, node.col)
        a = _str_name(args[0])
        b = _str_name(args[1])
        return EqStr(env.get(a, a), env.get(b, b))
    if op in ("in", "memb"):
        if len(args) != 2:
            raise ParseError("(in t X) takes two arguments", node.line, node.col)
        name = _str_name(args[1])
        return Memb(_parse_term(args[0], env, depth + 1), env.get(name, name))
    if op == "not":
        if len(args) != 1:
            raise ParseError("(not f) takes one argument", node.line, node.col)
        return Not(_parse_formula(args[0], env, binders, depth + 1))
    if op in ("and", "or", "imp"):
        if len(args) < 2:
            raise ParseError(f"({op} f f ...) takes at least two arguments", node.line, node.col)
        make = {"and": And, "or": Or, "imp": Imp}[op]
        parts = []
        # argument k (from 1) of n sits under min(k, n - 1) folded lists
        for k, a in enumerate(args, 1):  # a comprehension would cost a frame per level
            parts.append(_parse_formula(a, env, binders, depth + min(k, len(args) - 1)))
        acc = parts[-1]
        for part in reversed(parts[:-1]):
            acc = make(part, acc)
        return acc
    if op in _QUANT:
        if len(args) != 3:
            raise ParseError(f"({op} v t f) takes three arguments", node.line, node.col)
        make, name_of = _QUANT[op]
        source_name = name_of(args[0])
        if source_name in env:
            raise DuplicateBindingError(
                f"{source_name} is already bound here", args[0].line, args[0].col
            )
        bound = _parse_term(args[1], env, depth + 1)
        fresh = binders.assign(source_name)
        env[source_name] = fresh
        try:
            body = _parse_formula(args[2], env, binders, depth + 1)
        finally:
            del env[source_name]
        return make(fresh, bound, body)
    raise ParseError(f"unknown formula operator {op}", items[0].line, items[0].col)


def parse_formula(source: str) -> Formula:
    """Parse one formula; see the module docstring for the grammar."""
    node = read_one(source)
    return _parse_formula(node, {}, _Binders(node.source.tokens))


# --- printing ---


def print_term(t: NumTerm) -> str:
    tt = type(t)
    if tt is Const:
        if t.value < 2:
            return str(t.value)
        # n = 2m or 2m + 1 prints as (* (+ 1 1) m) or (+ (* (+ 1 1) m) 1),
        # down to m = 1; built flat so wide constants cost no recursion
        bits = bin(t.value)[3:]
        opens = ["(+ (* (+ 1 1) " if b == "1" else "(* (+ 1 1) " for b in reversed(bits)]
        closes = [") 1)" if b == "1" else ")" for b in bits]
        return "".join(opens) + "1" + "".join(closes)
    if tt is NVar:
        return t.name
    if tt is Plus:
        return f"(+ {print_term(t.left)} {print_term(t.right)})"
    if tt is Times:
        return f"(* {print_term(t.left)} {print_term(t.right)})"
    if tt is Len:
        return f"(len {t.svar})"
    if tt is SeqAt:
        return f"(seq {print_term(t.seq)} {print_term(t.index)})"
    if tt is SeqLen:
        return f"(seqlen {print_term(t.seq)})"
    raise TypeError(f"not a term: {t!r}")


_QUANT_NAMES = {ExN: "exN", AlN: "alN", ExS: "exS", AlS: "alS"}


def print_formula(f: Formula) -> str:
    """The text of f.  A right-nested And/Or chain is printed in a loop into
    one list joined once, so it takes one frame, not one per link."""
    out = []
    while (tf := type(f)) is And or tf is Or:
        out += ("(and " if tf is And else "(or ", print_formula(f.left), " ")
        f = f.right
    if tf is EqNum:
        tail = f"(= {print_term(f.left)} {print_term(f.right)})"
    elif tf is Leq:
        tail = f"(leq {print_term(f.left)} {print_term(f.right)})"
    elif tf is EqStr:
        tail = f"(seteq {f.left} {f.right})"
    elif tf is Memb:
        tail = f"(in {print_term(f.index)} {f.svar})"
    elif tf is Not:
        tail = f"(not {print_formula(f.body)})"
    elif tf is Imp:
        tail = f"(imp {print_formula(f.left)} {print_formula(f.right)})"
    elif tf in _QUANT_NAMES:
        name = _QUANT_NAMES[tf]
        tail = f"({name} {f.var} {print_term(f.bound)} {print_formula(f.body)})"
    else:
        raise TypeError(f"not a formula: {f!r}")
    if not out:
        return tail
    out += (tail, ")" * (len(out) // 3))
    return "".join(out)
