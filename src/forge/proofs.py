"""Sequent-calculus proofs and checkers.

A sequent holds two formula lists read as multisets: the conjunction of the
left side implies the disjunction of the right side.  Proofs are checked
line by line against the rules of `RULE_SHAPES`, the one rule table that
both this checker and the checker formula of `reflect` read; contraction
and exchange are absorbed by the multiset matching of the two weakening
rules.  Structural breakage (dangling premise references, unknown rule
tags) raises MalformedProofError, while a line that simply does not follow
makes the checker return False.
"""

from collections import Counter
from dataclasses import dataclass
from importlib import resources

from .errors import MalformedProofError, ParseError
from .prop import (PAnd, PNot, POr, PropFormula, node_to_prop, prop_depth,
                   prop_to_sexpr)
from .sexpr import Node, read_all

__all__ = [
    "Sequent", "ProofLine", "Proof", "LEFT", "RIGHT", "RULE_SHAPES", "RULES",
    "system_depth", "check_frege", "check_depth_frege", "parse_proof",
    "proof_to_text", "corpus_proofs", "proof_target",
]

LEFT, RIGHT = 0, 1

# rule -> (family, principal side, connective of the principal formula).
# Families: weak adds formulas to the principal side; not moves the negated
# argument to the other side; merge puts both children on the principal's
# side of one premise; split takes one premise per child.  A rule's position
# here is its tag number in the bit encoding of `reflect`.
RULE_SHAPES = {
    "axiom": ("axiom", None, None),
    "weak-left": ("weak", LEFT, None),
    "weak-right": ("weak", RIGHT, None),
    "and-left": ("merge", LEFT, PAnd),
    "and-right": ("split", RIGHT, PAnd),
    "or-left": ("split", LEFT, POr),
    "or-right": ("merge", RIGHT, POr),
    "not-left": ("not", LEFT, PNot),
    "not-right": ("not", RIGHT, PNot),
    "cut": ("cut", None, None),
}
RULES = tuple(RULE_SHAPES)


@dataclass(frozen=True, slots=True)
class Sequent:
    left: tuple[PropFormula, ...]
    right: tuple[PropFormula, ...]


@dataclass(frozen=True, slots=True)
class ProofLine:
    sequent: Sequent
    rule: str
    premises: tuple[int, ...] = ()
    cut_index: int = 0  # position of the cut formula in premise 1's right side


@dataclass(frozen=True, slots=True)
class Proof:
    lines: tuple[ProofLine, ...]


def _meq(a: tuple, b: tuple) -> bool:
    return Counter(a) == Counter(b)


def _minus(a: tuple, at: int) -> tuple:
    return a[:at] + a[at + 1:]


def _sides(s: Sequent, side: int) -> tuple[tuple, tuple]:
    """(principal side, other side) of a sequent."""
    return (s.left, s.right) if side == LEFT else (s.right, s.left)


def _rule_holds(line: ProofLine, prems: list[Sequent]) -> bool:
    c = line.sequent
    if line.rule not in RULE_SHAPES:
        raise MalformedProofError(f"unknown rule tag {line.rule!r}")
    family, side, conn = RULE_SHAPES[line.rule]
    if family == "axiom":
        return (not prems and len(c.left) == 1 and len(c.right) == 1
                and c.left[0] == c.right[0])
    if family == "cut":
        if len(prems) != 2:
            return False
        p1, p2 = prems
        if not 0 <= line.cut_index < len(p1.right):
            return False
        a = p1.right[line.cut_index]
        return (_meq(p1.left, c.left)
                and _meq(_minus(p1.right, line.cut_index), c.right)
                and _meq(p2.left, c.left + (a,))
                and _meq(p2.right, c.right))
    cp, co = _sides(c, side)
    ps = [_sides(p, side) for p in prems]
    if family == "weak":
        return len(ps) == 1 and _meq(ps[0][1], co) and set(ps[0][0]) <= set(cp)
    for at, f in enumerate(cp):
        if type(f) is not conn:
            continue
        rest = _minus(cp, at)
        if family == "split":
            if len(ps) == len(f.args) and all(_meq(pp, rest + (arg,)) and _meq(po, co)
                                              for (pp, po), arg in zip(ps, f.args)):
                return True
        elif len(ps) == 1:
            # not: the argument crosses to the other side; merge: the
            # children stay on the principal's side
            into, across = ((), (f.arg,)) if family == "not" else (f.args, ())
            if _meq(ps[0][0], rest + into) and _meq(ps[0][1], co + across):
                return True
    return False


def check_frege(pi: Proof, target: PropFormula) -> bool:
    """Purely syntactic line-by-line check; endsequent must be `--> target`."""
    if not pi.lines:
        return False
    for i, line in enumerate(pi.lines):
        for p in line.premises:
            if not 0 <= p < i:
                raise MalformedProofError(
                    f"line {i + 1} cites line {p + 1}, which is not earlier")
        prems = [pi.lines[p].sequent for p in line.premises]
        if not _rule_holds(line, prems):
            return False
    end = pi.lines[-1].sequent
    return end.left == () and end.right == (target,)


def check_depth_frege(pi: Proof, target: PropFormula, d: int) -> bool:
    """check_frege, plus every formula anywhere in the proof has depth <= d."""
    if not check_frege(pi, target):
        return False
    for line in pi.lines:
        for f in line.sequent.left + line.sequent.right:
            if prop_depth(f) > d:
                return False
    return True


def proof_target(pi: Proof) -> PropFormula | None:
    """The endsequent's formula when the proof ends in `--> A`, else None."""
    if not pi.lines:
        return None
    end = pi.lines[-1].sequent
    if end.left == () and len(end.right) == 1:
        return end.right[0]
    return None


def system_depth(system) -> int | None:
    """None for "frege", d for ("depth-frege", d) with d a non-negative int."""
    if system == "frege":
        return None
    if (isinstance(system, tuple) and len(system) == 2
            and system[0] == "depth-frege" and type(system[1]) is int
            and system[1] >= 0):
        return system[1]
    raise ValueError(f"unknown proof system {system!r}")


# --- text format ---
#
# One line per proof step:  `n: (seq (<formula>*) (<formula>*)) <rule> [m ...]`
# Labels are 1-based and must be sequential; premises cite labels.  The cut
# rule names its cut formula as `cut:<index>` into premise 1's right side.
# Lines starting with `#` are skipped; the rest of a line after its label is
# read by the `sexpr` reader, so `;` starts a comment there.


def proof_to_text(pi: Proof) -> str:
    out = []
    for i, line in enumerate(pi.lines):
        left = " ".join(prop_to_sexpr(f) for f in line.sequent.left)
        right = " ".join(prop_to_sexpr(f) for f in line.sequent.right)
        rule = f"cut:{line.cut_index}" if line.rule == "cut" else line.rule
        prems = " ".join(str(p + 1) for p in line.premises)
        text = f"{i + 1}: (seq ({left}) ({right})) {rule}"
        out.append(f"{text} {prems}".rstrip())
    return "\n".join(out) + "\n"


def _parse_side(node: Node) -> tuple[PropFormula, ...]:
    if node.items is None:
        raise ParseError("expected '(' opening a sequent side", node.line, node.col)
    return tuple(node_to_prop(f) for f in node.items)


def parse_proof(text: str) -> Proof:
    lines: list[ProofLine] = []
    label = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        label += 1
        head, colon, rest = raw.partition(":")
        label_col = len(raw) - len(raw.lstrip()) + 1
        if not colon or not head.strip().isdecimal():
            raise ParseError("expected 'n: (seq ...) rule ...'", lineno, label_col)
        if int(head) != label:
            raise ParseError(f"expected label {label}, found {head.strip()}",
                             lineno, label_col)
        nodes = read_all(rest, lineno, len(head) + 2)
        end_col = len(raw) + 1
        seq = nodes[0] if nodes else None
        if seq is None or not seq.items or seq.items[0].text != "seq":
            raise ParseError("expected '(seq' after the label", lineno,
                             seq.col if seq else end_col)
        if len(seq.items) != 3:
            raise ParseError("(seq (left ...) (right ...)) takes two sides",
                             seq.line, seq.col)
        left, right = _parse_side(seq.items[1]), _parse_side(seq.items[2])
        if len(nodes) < 2:
            raise ParseError("missing rule tag", lineno, end_col)
        tag = nodes[1]
        rule_tok = tag.text
        if rule_tok is None:
            raise ParseError("expected a rule tag", tag.line, tag.col)
        cut_index = 0
        if rule_tok.startswith("cut:"):
            rule, _, idx = rule_tok.partition(":")
            if not idx.isdecimal():
                raise ParseError("cut index must be a number", tag.line, tag.col)
            cut_index = int(idx)
        else:
            rule = rule_tok
        if rule not in RULES:
            raise ParseError(f"unknown rule tag {rule_tok!r}", tag.line, tag.col)
        prems = []
        for node in nodes[2:]:
            if node.text is None or not node.text.isdecimal() or int(node.text) == 0:
                raise ParseError("a premise label must be a positive number",
                                 node.line, node.col)
            prems.append(int(node.text) - 1)
        lines.append(ProofLine(Sequent(left, right), rule, tuple(prems), cut_index))
    return Proof(tuple(lines))


_CORPUS_FILES = [f"corpus{i:02d}.pk" for i in range(1, 11)]


def corpus_proofs() -> list[tuple[str, Proof]]:
    """The ten shipped valid proofs, parsed from package data."""
    out = []
    for name in _CORPUS_FILES:
        text = resources.files("forge").joinpath("pk", name).read_text()
        out.append((name, parse_proof(text)))
    return out
