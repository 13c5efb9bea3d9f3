"""Propositional image of level-0 formulas at fixed parameter sizes.

Every number parameter is pinned to a concrete value and every string
parameter to an exact length, so quantifier-free number atoms collapse to
constants and bounded number quantifiers expand into finite conjunctions
and disjunctions.  Only string memberships survive as propositional
variables.

Exact-length convention: a string of length n has its top bit set, so the
membership at position n-1 translates to the constant 1, positions below
n-1 become variables, and positions at n or above become the constant 0.
"""

from dataclasses import dataclass, field

from .errors import (BudgetError, ClassError, ParseError, SliceExceededError,
                     UnboundVariableError)
from .evaluate import Assignment, _Compiler, _compare, _name
from .formulas import (AlN, And, EqNum, EqStr, ExN, Formula, Imp, Leq, Memb, Not,
                       classify)
from .sexpr import Node

__all__ = [
    "PropFormula", "PConst", "PVar", "PAnd", "POr", "PNot", "SizeProfile",
    "pand", "por", "pnot", "translate", "taut_check", "prop_depth",
    "prop_size", "prop_vars", "eval_prop", "prop_to_sexpr", "node_to_prop",
    "MAX_PROP_DEPTH",
]

# Parsed formulas nest at most this deep: the generated `__eq__` and
# `__hash__` of the node classes spend about three frames per level, so a
# proof over a formula some 330 deep exhausts the default recursion limit
# while its lines are compared.
MAX_PROP_DEPTH = 250


class PropFormula:
    """Base class for propositional formulas."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PConst(PropFormula):
    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError("constant must be 0 or 1")


@dataclass(frozen=True, slots=True)
class PVar(PropFormula):
    name: str
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("variable index must be non-negative")


@dataclass(frozen=True, slots=True)
class PAnd(PropFormula):
    args: tuple[PropFormula, ...]


@dataclass(frozen=True, slots=True)
class POr(PropFormula):
    args: tuple[PropFormula, ...]


@dataclass(frozen=True, slots=True)
class PNot(PropFormula):
    arg: PropFormula


def _join(args, kind: type, absorbing: int) -> PropFormula:
    """args joined by kind (PAnd or POr), flattened, stopping at absorbing."""
    flat: list[PropFormula] = []
    for a in args:
        if type(a) is PConst:
            if a.bit == absorbing:
                return PConst(absorbing)
            continue
        if type(a) is kind:
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return PConst(1 - absorbing)
    if len(flat) == 1:
        return flat[0]
    return kind(tuple(flat))


def pand(args) -> PropFormula:
    """Conjunction with constant folding and same-connective flattening."""
    return _join(args, PAnd, 0)


def por(args) -> PropFormula:
    return _join(args, POr, 1)


def pnot(a: PropFormula) -> PropFormula:
    if type(a) is PConst:
        return PConst(1 - a.bit)
    if type(a) is PNot:
        return a.arg
    return PNot(a)


@dataclass(frozen=True, slots=True)
class SizeProfile:
    """Concrete sizes for free parameters: exact string lengths, number values."""

    lengths: dict[str, int] = field(default_factory=dict)
    values: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name, n in self.lengths.items():
            if n < 0:
                raise ValueError(f"length of {name} must be non-negative")
        for name, v in self.values.items():
            if v < 0:
                raise ValueError(f"value of {name} must be non-negative")


_BITS = PConst(0), PConst(1)


def translate(phi: Formula, sizes: SizeProfile,
              num_bound: int = 1 << 16) -> PropFormula:
    """Propositional image of a level-0 formula at the given sizes."""
    if classify(phi).level != 0:
        raise ClassError("only string-quantifier-free formulas translate")
    # Canonical exact-length strings, so that Len reads back each length.
    strs = {name: ("0" * (n - 1) + "1") if n else ""
            for name, n in sizes.lengths.items()}
    return _Image(phi, num_bound).run(None, Assignment(dict(sizes.values), strs), None)


class _Image(_Compiler):
    """A compile whose run gives a level-0 formula's image: terms, EqNum and
    Leq compile as for eval_formula, and every other node with its parent,
    so that compile and run each take one frame per formula level."""

    __slots__ = ("num_bound",)

    def __init__(self, f: Formula, num_bound: int):
        self.num_bound = num_bound
        super().__init__(f)

    def formula(self, f: Formula):
        out = self.formulas.get(id(f))
        if out is not None:
            return out
        k = type(f)
        if k is EqNum or k is Leq:
            test = _compare(k is Leq, self.term(f.left), self.term(f.right))
            out = lambda r, test=test: _BITS[test(r)]
        elif k is Memb:  # defaults bind, so that no call makes a cell for f
            index = self.number(f.index)
            out = lambda r, s=f.svar, i=index: _bit(s, _length(s, r.strs), i(r.nums, r.strs))
        elif k is EqStr:
            out = lambda r, a=f.left, b=f.right: _eq_str(a, b, r.strs)
        elif k is Not:
            body = self.formula(f.body)
            out = lambda r, body=body: pnot(body(r))
        elif k is ExN or k is AlN:
            out = _sweep(k is ExN, f.var, self.number(f.bound), self.formula(f.body))
        else:  # And, Or or Imp: classify has rejected every other node
            out = _connective(k, self.formula(f.left), self.formula(f.right))
        self.formulas[id(f)] = out
        return out


def _length(name, strs: dict[str, str]) -> int:
    """The length of the string parameter name, read as evaluation reads it."""
    if callable(checked := _name(name, False)):
        checked()  # raises the sort check's error
    if name not in strs:
        raise UnboundVariableError(f"string parameter {name} has no length")
    return len(strs[name])


def _bit(name: str, n: int, pos: int) -> PropFormula:
    if pos < n - 1:
        return PVar(name, pos)
    return _BITS[pos == n - 1]  # exact length pins the top bit


def _eq_str(left, right, strs: dict[str, str]) -> PropFormula:
    m, n = _length(left, strs), _length(right, strs)
    return _BITS[0] if m != n else pand(
        _iff(_bit(left, n, i), _bit(right, n, i)) for i in range(n - 1))


def _connective(k: type, left, right):
    """And, Or or Imp, stopping at a left part that settles it; the check is
    made here, as handing pand/por a generator adds two frames per level."""
    join, stop = (pand, _BITS[0]) if k is And else (por, _BITS[1])

    def run(r):
        p = pnot(left(r)) if k is Imp else left(r)
        return p if p == stop else join((p, right(r)))
    return run


def _sweep(exists: bool, var: str, bound, body):
    """ExN (exists) or AlN, stopping at the first value that settles it."""
    join, stop = (por, _BITS[1]) if exists else (pand, _BITS[0])

    def run(r):
        b = bound(r.nums, r.strs)
        if b > r.num_bound:
            raise SliceExceededError(
                f"quantifier bound {b} exceeds expansion cap {r.num_bound}")
        nums, parts = r.nums, []
        for v in range(b + 1):
            r.nums = {**nums, var: v}
            parts.append(body(r))
            if parts[-1] == stop:
                break
        r.nums = nums
        return join(parts)
    return run


def _iff(a: PropFormula, b: PropFormula) -> PropFormula:
    return pand((por((pnot(a), b)), por((pnot(b), a))))


def _nodes(p: PropFormula):
    """Every node of p, once per occurrence; iterative, so any depth is fine."""
    todo = [p]
    while todo:
        q = todo.pop()
        yield q
        k = type(q)
        if k is PNot:
            todo.append(q.arg)
        elif k is PAnd or k is POr:
            todo.extend(q.args)


def prop_vars(p: PropFormula) -> list[tuple[str, int]]:
    """Distinct variables, sorted by (name, index)."""
    return sorted({(q.name, q.index) for q in _nodes(p) if type(q) is PVar})


def eval_prop(p: PropFormula, env: dict[tuple[str, int], int]) -> bool:
    """Truth of p under env, left to right, stopping at the first child that
    settles a conjunction or disjunction; iterative, so any depth is fine."""
    open_nodes: list[tuple[PropFormula, int]] = []  # (node, next child index)
    q = p
    while True:
        k = type(q)
        if k is PConst:
            val = bool(q.bit)
        elif k is PVar:
            val = bool(env[(q.name, q.index)])
        elif k is PNot:
            open_nodes.append((q, 0))
            q = q.arg
            continue
        elif k is PAnd or k is POr:
            if q.args:
                open_nodes.append((q, 1))
                q = q.args[0]
                continue
            val = k is PAnd
        else:
            raise TypeError(f"unknown propositional formula {q!r}")
        while open_nodes:
            parent, i = open_nodes.pop()
            if type(parent) is PNot:
                val = not val
            elif val != (type(parent) is POr) and i < len(parent.args):
                open_nodes.append((parent, i + 1))
                q = parent.args[i]
                break
        else:
            return val


def taut_check(p: PropFormula, var_cap: int = 20) -> bool:
    """Exhaustive truth-table sweep; refuses more than var_cap variables."""
    names = prop_vars(p)
    if len(names) > var_cap:
        raise BudgetError(
            f"{len(names)} variables exceed the tautology-check cap {var_cap}")
    for mask in range(1 << len(names)):
        env = {nm: (mask >> i) & 1 for i, nm in enumerate(names)}
        if not eval_prop(p, env):
            return False
    return True


def prop_depth(p: PropFormula) -> int:
    """Alternation depth with unbounded fan-in: adjacent same connectives merge."""
    done: list[tuple[str, int]] = []  # (kind, depth) of each finished subformula
    todo: list[tuple[PropFormula, bool]] = [(p, False)]
    while todo:
        q, children_done = todo.pop()
        k = type(q)
        if k is PConst or k is PVar:
            done.append(("leaf", 1))
        elif not children_done:
            todo.append((q, True))
            todo.extend((a, False) for a in ((q.arg,) if k is PNot else q.args))
        elif k is PNot:
            kind, d = done.pop()
            done.append(("not", d if kind in ("not", "leaf") else d + 1))
        else:
            label = "and" if k is PAnd else "or"
            best = 1
            for _ in q.args:
                kind, d = done.pop()
                best = max(best, d if kind == label else d + 1)
            done.append((label, best))
    return done[0][1]


def prop_size(p: PropFormula) -> int:
    """Node count, constants and variables included."""
    return sum(1 for _ in _nodes(p))


# --- s-expression text form ---


def prop_to_sexpr(p: PropFormula) -> str:
    out: list[str] = []
    todo: list[PropFormula | str] = [p]  # subformulas and text still to write
    while todo:
        q = todo.pop()
        k = type(q)
        if k is str:
            out.append(q)
        elif k is PConst:
            out.append(f"(pc {q.bit})")
        elif k is PVar:
            out.append(f"(pv {q.name} {q.index})")
        elif k is PNot:
            out.append("(pnot ")
            todo += (")", q.arg)
        else:
            out.append("(pand " if k is PAnd else "(por ")
            todo.append(")")
            for i in range(len(q.args) - 1, -1, -1):
                todo.append(q.args[i])
                if i:
                    todo.append(" ")
    return "".join(out)


def node_to_prop(node: Node) -> PropFormula:
    """The propositional formula one s-expression node spells."""
    return _to_prop(node, 1)


def _to_prop(node: Node, depth: int) -> PropFormula:
    items = node.items
    if items is None:
        raise ParseError("expected a propositional formula, got an atom",
                         node.line, node.col)
    if depth > MAX_PROP_DEPTH:
        raise ParseError(f"propositional formulas may not nest deeper than "
                         f"{MAX_PROP_DEPTH}", node.line, node.col)
    if not items or items[0].text is None:
        raise ParseError("expected a propositional operator", node.line, node.col)
    head, args = items[0].text, items[1:]
    if head == "pc":
        if len(args) != 1 or args[0].text not in ("0", "1"):
            raise ParseError("(pc b) takes 0 or 1", node.line, node.col)
        return PConst(int(args[0].text))
    if head == "pv":
        # a name is an atom, and not the one token of a constant's spelling
        if len(args) != 2 or args[0].text is None or args[0].text[0] == "(":
            raise ParseError("(pv name index) takes a name and an index",
                             node.line, node.col)
        if args[1].text is None or not args[1].text.isdecimal():
            raise ParseError("pv index must be a number", args[1].line, args[1].col)
        return PVar(args[0].text, int(args[1].text))
    if head == "pnot":
        if len(args) != 1:
            raise ParseError("(pnot f) takes one argument", node.line, node.col)
        return PNot(_to_prop(args[0], depth + 1))
    if head in ("pand", "por"):
        parts = tuple(_to_prop(a, depth + 1) for a in args)
        return PAnd(parts) if head == "pand" else POr(parts)
    raise ParseError(f"unknown operator {head}", items[0].line, items[0].col)
