"""S-expression reader shared by formulas, proofs and `prop`; formula parser
and printer.

Lexical syntax, owned here for every text format of the package: atoms are
runs of characters other than whitespace, parentheses and `;`; a `;`
comment runs to end of line.  One more token spells a constant: the exact
text `print_term` writes for a `Const` of 2 or more, such as
`(+ (* (+ 1 1) 1) 1)` for 3, is one atom whose text starts with `(`.  Only
that exact spelling is one token; the same lists written with other
whitespace read as the `Plus` and `Times` lists they are, which have the
same value and reprint as the spelling.  `read_all` returns the `Node`
trees of a text's top-level expressions, a spelling among them as one atom
node, built in one pass over the token list `_tokens` makes.  A `Node` is
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
`in`.  A constant's spelling token reads as one `Const` leaf, and elsewhere
raises the error its lists would.  A formula may nest at most `MAX_DEPTH`
lists deep in its reprint, a spelling counting as one, else it is a
`ParseError`.

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
# The segments a constant's spelling opens with, outermost first, one per bit
# below its leading 1: `print_term` writes 2m as (* (+ 1 1) m) and 2m + 1 as
# (+ (* (+ 1 1) m) 1).  Each segment ends in the text of a bit-0 segment.
_ONE, _ZERO = "(+ (* (+ 1 1) ", "(* (+ 1 1) "
# Whitespace is space, tab, \r and \n, skipped between matches; \n ends a line
# and a comment.  A spine is a run of segments, then, if one follows, a 1
# that is a whole atom and every closer `) 1)` or `)` after it; `_tokens`
# takes a spine apart.  Its last group is optional, so a spine that breaks
# off is still one match, and finding it costs one pass over its text.
_PLAIN = re.compile(r";[^\n]*|[()]|[^ \t\r\n();]+")
_TOKEN = re.compile(rf"(?:{re.escape(_ONE)}|{re.escape(_ZERO)})+"
                    r"(?:1(?![^ \t\r\n();])(?:\) 1\)|\))*)?|" + _PLAIN.pattern)

# Deepest formula nesting the parser accepts.  Parsing, printing, evaluation
# and proof checking recurse once per level, and Python stops near 1000 frames;
# the proof check at cap 19 nests 107 deep, nepo's formulas 38 up to m = 1024.
MAX_DEPTH = 900


def _spine(spine: str) -> list[str]:
    """The tokens of one spine: the outermost constant spelling in it as one
    token, the text before and after that as plain tokens."""
    end = spine.rfind("1 1) ") + 5  # where the segments end
    closers = spine[end + 1:]  # empty when no 1 follows them
    bits = spine[:end].replace(_ONE, "1").replace(_ZERO, "0")  # outermost first
    # From the inside out, each segment whose closer follows joins the
    # constant; a bit-1 segment whose + does not close still closes its *.
    start, at = end, 0
    for bit in reversed(bits):
        if bit == "1" and closers.startswith(") 1)", at):
            start, at = start - 14, at + 4
        elif closers.startswith(")", at):
            start, at = start - 11, at + 1
            if bit == "1":
                break
        else:
            break
    if not at:
        return _PLAIN.findall(spine)
    stop = end + 1 + at
    return _PLAIN.findall(spine[:start]) + [spine[start:stop]] + _PLAIN.findall(spine[stop:])


def _tokens(text: str) -> list[str]:
    """The tokens of text, comments included, each constant spelling one.
    Every spelling holds a bit-0 segment, so a text without one is read by
    the plain pattern alone."""
    if _ZERO not in text:
        return _PLAIN.findall(text)
    out: list[str] = []
    for token in _TOKEN.findall(text):
        if token[0] == "(" and len(token) > 1:
            out += _spine(token)
        else:
            out.append(token)
    return out


def _token_starts(text: str, tokens: list[str]) -> list[int]:
    """The offset in text at which each of its tokens starts."""
    starts, at = [], 0
    for token in tokens:  # only whitespace lies between two tokens
        at = text.index(token, at)
        starts.append(at)
        at += len(token)
    return starts


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
            self.starts = _token_starts(self.text, self.tokens)
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
    tokens = _tokens(source)
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
    the formula reprints, with a constant's spelling token one list deep."""
    return ParseError(f"formula would nest deeper than {MAX_DEPTH} once folded",
                      node.line, node.col)


def _constant(spelling: str) -> Const:
    """The `Const` a spelling token spells: its segments, outermost first,
    are the bits below its leading 1 from the lowest up."""
    bits = spelling.replace(_ONE, "1").replace(_ZERO, "0").partition(")")[0]
    return Const(int(bits[::-1], 2))


def _parse_term(node: Node, env: dict[str, str], depth: int = 1) -> NumTerm:
    text = node.text
    if text is not None:
        if text[0] == "(":
            if depth > MAX_DEPTH:
                raise _too_deep(node)
            return _constant(text)
        if text == "0":
            return Zero()
        if text == "1":
            return One()
        name = _num_name(node)
        return NVar(env.get(name, name))
    if depth > MAX_DEPTH:
        raise _too_deep(node)
    items = node.items
    assert items is not None
    if not items or items[0].text is None or items[0].text[0] == "(":
        raise ParseError("expected a term operator", node.line, node.col)
    op = items[0].text
    if op == "+" or op == "*":
        if len(items) != 3:
            raise ParseError(f"({op} t t) takes two arguments", node.line, node.col)
        make = Plus if op == "+" else Times
        return make(_parse_term(items[1], env, depth + 1),
                    _parse_term(items[2], env, depth + 1))
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
    if node.text is not None and node.text[0] != "(":
        raise ParseError("expected a formula, got an atom", node.line, node.col)
    if depth > MAX_DEPTH:
        raise _too_deep(node)
    if node.text is not None:  # a constant's spelling: (* ...) or (+ ...)
        raise ParseError(f"unknown formula operator {node.text[1]}", node.line, node.col + 1)
    items = node.items
    assert items is not None
    if not items or items[0].text is None or items[0].text[0] == "(":
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
