"""Command-line front end: compile, evaluate, translate, check, sweep.

Exit codes: 0 success, 1 domain failure (a check or sweep rejected its
input), 2 usage error (bad flags; the offending subcommand's grammar is
printed to stderr).  All stdout reports are deterministic byte for byte
given the same inputs; diagnostics go to stderr.  Each subcommand accepts
--json and then prints a single-line JSON object with a fixed key set.

The environment variable FORGE_NODE_CAP, when set, caps the node count of
any formula a subcommand would emit; oversized output is a domain failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import proofs, reflect
from .acc import check_input_name, compile_acc, eval_acc
from .errors import BudgetError, ForgeError
from .evaluate import Assignment, FiniteSlice, eval_formula
from .formulas import classify, formula_size, free_vars, is_num_name, is_str_name
from .machine import PolyBound, accepts, parse_tm
from .mfv import MonotoneTree, check_mfv, mfv_witness, node_value
from .nepo import NepoBounds, compile_acceptance_sigma0, size_report
from .prop import SizeProfile, prop_depth, prop_size, prop_to_sexpr, translate
from .sexpr import parse_formula, print_formula

_PROG = "forge"

_USAGE_EXIT = 2
_DOMAIN_EXIT = 1

class _UsageError(Exception):
    """Bad flags for an otherwise known subcommand."""


@dataclass(slots=True)
class _Report:
    """What a handler produced: exit status plus both output shapes."""

    status: int = 0
    data: dict = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)


# --- flag value parsers ---


def _parse_poly(text: str) -> PolyBound:
    try:
        coeffs = tuple(int(c) for c in text.split(","))
        return PolyBound(coeffs, constant=len(coeffs) == 1)
    except ValueError as e:
        raise _UsageError(f"bad polynomial {text!r}: {e}") from None


def _parse_eps(text: str) -> Fraction:
    parts = text.split("/")
    if len(parts) != 2:
        raise _UsageError(f"bad --eps {text!r}: expected the form p/q")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"bad --eps {text!r}: expected the form p/q") from None
    if q <= 0 or not 0 < p < q:
        raise _UsageError(f"bad --eps {text!r}: need 0 < p < q")
    return Fraction(p, q)


def _at_least(value: int | None, least: int, flag: str,
              default: int | None = None) -> int | None:
    """value, or default when the flag was not given; least is 0 or 1."""
    if value is None:
        return default
    if value < least:
        raise _UsageError(f"{flag} must be {'positive' if least else 'non-negative'}")
    return value


def _parse_bits(text: str, flag: str) -> str:
    if set(text) - {"0", "1"}:
        raise _UsageError(f"{flag} must be a string of 0s and 1s")
    return text


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror or e}") from None


def _node_cap() -> int | None:
    raw = os.environ.get("FORGE_NODE_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise _UsageError(f"FORGE_NODE_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise _UsageError("FORGE_NODE_CAP must be positive")
    return cap


def _cap_guard(nodes: int) -> None:
    cap = _node_cap()
    if cap is not None and nodes > cap:
        raise BudgetError(f"emitted formula has {nodes} nodes, over FORGE_NODE_CAP={cap}")


def _deliver(formula_text: str, args: argparse.Namespace, rep: _Report) -> None:
    """Route the printable formula to --out or to the text report."""
    if args.out is not None:
        try:
            args.out.write_text(formula_text + "\n")
        except OSError as e:
            raise _UsageError(f"cannot write {args.out}: {e.strerror or e}") from None
        rep.lines.append(f"wrote: {args.out}")
    else:
        rep.lines.append(formula_text)


# --- subcommand handlers ---


def _do_compile_acc(args: argparse.Namespace) -> _Report:
    p = _parse_poly(args.poly)
    try:
        check_input_name(args.var)
    except ValueError as e:
        raise _UsageError(f"bad --var {args.var!r}: {e}") from None
    phi = compile_acc(parse_tm(_read_text(args.tm)), p, args.var)
    nodes = formula_size(phi)
    _cap_guard(nodes)
    text = print_formula(phi)
    rep = _Report(data={"subcommand": "compile-acc", "machine": str(args.tm),
                        "poly": args.poly, "nodes": nodes,
                        "class": str(classify(phi)), "formula": text})
    if args.verbose:
        print(f"{nodes} nodes, class {classify(phi)}", file=sys.stderr)
    _deliver(text, args, rep)
    return rep


def _do_compile_nepo(args: argparse.Namespace) -> _Report:
    eps = _parse_eps(args.eps)
    try:
        b = NepoBounds(c=args.c, eps=eps, k=args.k, m=args.m, d=args.d)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    tm = parse_tm(_read_text(args.tm))
    phi = compile_acceptance_sigma0(tm, b)
    nodes = formula_size(phi)
    _cap_guard(nodes)
    cap = _node_cap()
    report = size_report(tm, b, node_cap=cap if cap is not None else 500_000)
    text = print_formula(phi)
    rep = _Report(data={"subcommand": "compile-nepo", "machine": str(args.tm),
                        "m": b.m, "eps": str(b.eps), "k": b.k, "c": b.c, "d": b.d,
                        "sizes": report["sizes"], "node_cap": report["node_cap"],
                        "over_cap": report["over_cap"], "formula": text})
    _deliver(text, args, rep)
    for name in sorted(report["sizes"]):
        rep.lines.append(f"nodes[{name}]: {report['sizes'][name]}")
    rep.lines.append(f"node-cap: {report['node_cap']}"
                     f" ({'over' if report['over_cap'] else 'within'})")
    return rep


def _split_binding(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise _UsageError(f"bad binding {text!r}: expected NAME=VALUE")
    return name, value


def _do_eval(args: argparse.Namespace) -> _Report:
    s = FiniteSlice(_at_least(args.num_bound, 1, "--num-bound"),
                    _at_least(args.str_width, 0, "--str-width", 0))
    env = Assignment()
    for raw in args.bind or []:
        name, value = _split_binding(raw)
        if is_str_name(name):
            env.strs[name] = _parse_bits(value, f"--bind {name}")
        elif is_num_name(name):
            try:
                env.nums[name] = int(value)
            except ValueError:
                raise _UsageError(f"bad binding {raw!r}: value must be an integer") from None
            if env.nums[name] < 0:
                raise _UsageError(f"bad binding {raw!r}: value must be non-negative")
        else:
            raise _UsageError(f"bad binding {raw!r}: name must be a sorted identifier")
    phi = parse_formula(_read_text(args.formula))
    free_nums, free_strs = free_vars(phi)
    missing = sorted(free_nums - env.nums.keys()) + sorted(free_strs - env.strs.keys())
    if missing:
        raise _UsageError("unbound variable(s): " + ", ".join(missing))
    unused = sorted((env.nums.keys() - free_nums) | (env.strs.keys() - free_strs))
    if unused:
        raise _UsageError("binding(s) for variable(s) not free in the formula: "
                          + ", ".join(unused))
    value = eval_formula(phi, s, env)
    word = "true" if value else "false"
    return _Report(data={"subcommand": "eval", "formula": str(args.formula),
                         "num_bound": s.num_bound, "str_width": s.str_width,
                         "value": value},
                   lines=[f"value: {word}"])


def _do_translate(args: argparse.Namespace) -> _Report:
    bound = _at_least(args.num_bound, 1, "--num-bound", 1 << 16)
    lengths: dict[str, int] = {}
    values: dict[str, int] = {}
    for raw in args.len or []:
        name, value = _split_binding(raw)
        if not is_str_name(name):
            raise _UsageError(f"--len {raw!r}: {name} is not a string variable")
        try:
            lengths[name] = int(value)
        except ValueError:
            raise _UsageError(f"--len {raw!r}: length must be an integer") from None
    for raw in args.val or []:
        name, value = _split_binding(raw)
        if not is_num_name(name):
            raise _UsageError(f"--val {raw!r}: {name} is not a number variable")
        try:
            values[name] = int(value)
        except ValueError:
            raise _UsageError(f"--val {raw!r}: value must be an integer") from None
    try:
        sizes = SizeProfile(lengths=lengths, values=values)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    phi = parse_formula(_read_text(args.formula))
    free_nums, free_strs = free_vars(phi)
    missing = sorted(free_nums - values.keys()) + sorted(free_strs - lengths.keys())
    if missing:
        raise _UsageError("unbound variable(s): " + ", ".join(missing))
    p = translate(phi, sizes, num_bound=bound)
    nodes = prop_size(p)
    _cap_guard(nodes)
    text = prop_to_sexpr(p)
    rep = _Report(data={"subcommand": "translate", "formula": str(args.formula),
                        "lengths": dict(sorted(lengths.items())),
                        "values": dict(sorted(values.items())),
                        "nodes": nodes, "depth": prop_depth(p), "prop": text})
    _deliver(text, args, rep)
    if args.verbose:
        print(f"{nodes} nodes, depth {prop_depth(p)}", file=sys.stderr)
    return rep


def _do_mfv(args: argparse.Namespace) -> _Report:
    gates = _parse_bits(args.tree, "--tree")
    inputs = _parse_bits(args.input, "--input")
    try:
        tree = MonotoneTree(gates, args.a)
        table = mfv_witness(tree, inputs)
        value = node_value(tree, inputs, args.node)
    except (ValueError, IndexError) as e:
        raise _UsageError(str(e)) from None
    ok = check_mfv(tree, inputs, table)
    status = 0 if ok else _DOMAIN_EXIT
    return _Report(status=status,
                   data={"subcommand": "mfv", "a": args.a, "node": args.node,
                         "value": value, "table": table, "check": ok},
                   lines=[f"value: {value}", f"table: {table}",
                          f"mfv-check: {'PASS' if ok else 'FAIL'}"])


def _do_check_proof(args: argparse.Namespace) -> _Report:
    _at_least(args.depth, 0, "--depth")
    pi = proofs.parse_proof(_read_text(args.proof))
    target = proofs.proof_target(pi)
    if target is None:
        ok = False
    elif args.depth is None:
        ok = proofs.check_frege(pi, target)
    else:
        ok = proofs.check_depth_frege(pi, target, args.depth)
    system = "frege" if args.depth is None else f"depth-frege({args.depth})"
    rep = _Report(status=0 if ok else _DOMAIN_EXIT,
                  data={"subcommand": "check-proof", "proof": str(args.proof),
                        "system": system, "lines": len(pi.lines), "accepted": ok},
                  lines=[f"system: {system}", f"lines: {len(pi.lines)}",
                         f"proof: {'ACCEPTED' if ok else 'REJECTED'}"])
    if args.verbose and target is not None:
        print(f"endsequent formula: {prop_to_sexpr(target)}", file=sys.stderr)
    return rep


def _do_reflect(args: argparse.Namespace) -> _Report:
    num_bound = _at_least(args.num_bound, 1, "--num-bound")
    str_width = _at_least(args.str_width, 0, "--str-width")
    if args.system == "depth-frege":
        if args.d is None:
            raise _UsageError("depth-frege needs --d")
        system = ("depth-frege", _at_least(args.d, 0, "--d"))
    else:
        system = "frege"
    t = _parse_poly(args.t)
    checker = "broken" if args.broken else "honest"
    try:
        phi = reflect.reflection_instance(system, t, args.x, checker=checker)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    bound = t.eval(args.x)
    data = {"subcommand": "reflect", "system": args.system,
            "d": args.d, "t": args.t, "x": args.x, "bound": bound,
            "checker": checker, "class": str(classify(phi))}
    if not args.sweep:
        nodes = formula_size(phi)
        _cap_guard(nodes)
        text = print_formula(phi)
        rep = _Report(data={**data, "nodes": nodes, "formula": text})
        _deliver(text, args, rep)
        return rep
    s = FiniteSlice(num_bound if num_bound is not None else max(1, bound),
                    str_width if str_width is not None else bound)
    holds = eval_formula(phi, s)
    return _Report(status=0 if holds else _DOMAIN_EXIT,
                   data={**data, "num_bound": s.num_bound, "str_width": s.str_width,
                         "holds": holds},
                   lines=[f"bound: {bound}",
                          f"reflection: {'HOLDS' if holds else 'FAILS'}"])


def _do_oracle_test(args: argparse.Namespace) -> _Report:
    p = _parse_poly(args.poly)
    _at_least(args.max_len, 1, "--max-len")
    _at_least(args.sample, 0, "--sample")
    tm = parse_tm(_read_text(args.tm))
    rng = random.Random(args.seed)
    checked = 0
    mismatches: list[str] = []
    # each non-empty set once, as its shortest string: the strings ending in
    # 1, on which eval_acc (which reads a set) and accepts (which budgets
    # p(len(x)) over the raw string) mean the same input
    for length in range(1, args.max_len + 1):
        count = 1 << (length - 1)
        if args.sample and args.sample < count:
            picks = sorted(rng.sample(range(count), args.sample))
        else:
            picks = range(count)
        for code in picks:
            x = format(2 * code + 1, f"0{length}b")
            checked += 1
            if eval_acc(tm, p, x) != accepts(tm, x, p):
                mismatches.append(x)
    ok = not mismatches
    verdict = "PASS" if ok else "FAIL"
    lines = [f"machine: {args.tm}", f"inputs: {checked}",
             f"mismatches: {len(mismatches)}", f"acc-equivalence: {verdict}"]
    return _Report(status=0 if ok else _DOMAIN_EXIT,
                   data={"subcommand": "oracle-test", "machine": str(args.tm),
                         "poly": args.poly, "max_len": args.max_len,
                         "seed": args.seed, "sample": args.sample,
                         "inputs": checked, "mismatches": mismatches,
                         "pass": ok},
                   lines=lines)


_HANDLERS = {
    "compile-acc": _do_compile_acc,
    "compile-nepo": _do_compile_nepo,
    "eval": _do_eval,
    "translate": _do_translate,
    "mfv": _do_mfv,
    "check-proof": _do_check_proof,
    "reflect": _do_reflect,
    "oracle-test": _do_oracle_test,
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print a single-line JSON report instead of text")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="extra diagnostics on stderr")

    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Compile machine acceptance to bounded formulas, evaluate "
                    "them over finite slices, translate to propositional form, "
                    "and check sequent proofs.")
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    table: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = subs.add_parser(name, parents=[common], help=help_text)
        table[name] = sp
        return sp

    sp = sub("compile-acc", "emit the acceptance formula for a machine")
    sp.add_argument("--tm", required=True, type=Path, help="machine description file")
    sp.add_argument("--poly", required=True,
                    help="step bound coefficients, low degree first, e.g. 2,1")
    sp.add_argument("--var", default="X",
                    help="input string name, an uppercase identifier other than W (default X)")
    sp.add_argument("--out", type=Path, help="write the formula here instead of stdout")

    sp = sub("compile-nepo", "emit the divide-and-conquer acceptance formula")
    sp.add_argument("--tm", required=True, type=Path, help="machine description file")
    sp.add_argument("--m", required=True, type=int, help="scale parameter")
    sp.add_argument("--eps", required=True, help="space exponent as p/q with p < q")
    sp.add_argument("--k", required=True, type=int, help="input-length root exponent")
    sp.add_argument("--c", type=int, default=1, help="time exponent (default 1)")
    sp.add_argument("--d", type=int, help="recursion depth (default: derived)")
    sp.add_argument("--out", type=Path, help="write the formula here instead of stdout")

    sp = sub("eval", "evaluate a formula over a finite slice")
    sp.add_argument("--formula", required=True, type=Path, help="formula file")
    sp.add_argument("--num-bound", required=True, type=int,
                    help="largest number value swept")
    sp.add_argument("--str-width", type=int, help="largest string length swept")
    sp.add_argument("--bind", action="append", metavar="NAME=VALUE",
                    help="bind a free variable: bits for string names, "
                         "an integer for number names; repeatable")

    sp = sub("translate", "expand a level-0 formula to propositional form")
    sp.add_argument("--formula", required=True, type=Path, help="formula file")
    sp.add_argument("--len", action="append", metavar="NAME=N",
                    help="exact length of a free string variable; repeatable")
    sp.add_argument("--val", action="append", metavar="name=N",
                    help="value of a free number variable; repeatable")
    sp.add_argument("--num-bound", type=int, help="quantifier expansion cap")
    sp.add_argument("--out", type=Path, help="write the formula here instead of stdout")

    sp = sub("mfv", "evaluate a monotone tree and emit its evaluation table")
    sp.add_argument("--tree", required=True, help="gate bits, one per heap position")
    sp.add_argument("--a", required=True, type=int, help="leaf count (power of two)")
    sp.add_argument("--input", required=True, help="leaf input bits")
    sp.add_argument("--node", type=int, default=1, help="node to report (default root)")

    sp = sub("check-proof", "check a sequent proof file")
    sp.add_argument("--proof", required=True, type=Path, help="proof text file")
    sp.add_argument("--depth", type=int,
                    help="also require every line below this alternation depth")

    sp = sub("reflect", "emit or sweep a proof-soundness instance")
    sp.add_argument("--system", choices=("frege", "depth-frege"), default="frege")
    sp.add_argument("--d", type=int, help="depth for depth-frege")
    sp.add_argument("--t", required=True,
                    help="size bound coefficients, low degree first, e.g. 0,3")
    sp.add_argument("--x", required=True, type=int, help="scale argument")
    sp.add_argument("--sweep", action="store_true",
                    help="evaluate the instance exhaustively instead of printing it")
    sp.add_argument("--broken", action="store_true",
                    help="use the deliberately broken proof predicate")
    sp.add_argument("--num-bound", type=int, help="override the sweep number bound")
    sp.add_argument("--str-width", type=int, help="override the sweep string width")
    sp.add_argument("--out", type=Path, help="write the formula here instead of stdout")

    sp = sub("oracle-test", "compare compiled acceptance against the simulator")
    sp.add_argument("--tm", required=True, type=Path, help="machine description file")
    sp.add_argument("--max-len", required=True, type=int, help="largest input length")
    sp.add_argument("--poly", default="2,1",
                    help="step bound coefficients (default 2,1)")
    sp.add_argument("--sample", type=int, default=0,
                    help="inputs sampled per length (0 = exhaustive)")
    sp.add_argument("--seed", type=int, default=0,
                    help="sampling seed (default 0)")

    return parser, table


def main(argv: list[str] | None = None) -> int:
    parser, table = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        print(f"{_PROG}: error: a subcommand is required", file=sys.stderr)
        return _USAGE_EXIT
    try:
        rep = _HANDLERS[args.subcommand](args)
    except _UsageError as e:
        sub = table[args.subcommand]
        print(sub.format_usage(), end="", file=sys.stderr)
        print(f"{_PROG} {args.subcommand}: error: {e}", file=sys.stderr)
        return _USAGE_EXIT
    except ForgeError as e:
        print(f"{_PROG} {args.subcommand}: error: {e}", file=sys.stderr)
        return _DOMAIN_EXIT
    if args.json:
        print(json.dumps(rep.data, sort_keys=True))
    else:
        for line in rep.lines:
            print(line)
    return rep.status


if __name__ == "__main__":
    sys.exit(main())
