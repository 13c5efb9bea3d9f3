"""The four benchmark workloads, built from a seed through forge's public API.

An op is one verdict.  `Op.run` is the timed call into forge; `Op.check`
compares its result with an oracle that does not use the code under test
and runs after the timed phase.  Each workload's ops come in blocks that
cover every input category once, in a fixed order, so any whole number of
blocks has the same mix whatever the seed; the seed picks the inputs.  (With
a seeded order, p50 moved by up to 10% between seeds, because an op's time
depends on the heap the ops before it left behind.)
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from forge.acc import acc_layout, acc_matrix, check_witness, compile_acc
from forge.cli import main as cli_main
from forge.errors import DecodeError, MalformedProofError
from forge.evaluate import Assignment, FiniteSlice, eval_formula
from forge.formulas import classify, formula_size
from forge.machine import (CORPUS, PolyBound, accepts, corpus_machine, run,
                           tableau_to_witness)
from forge.nepo import (NepoBounds, acceptance_artifact,
                        compile_acceptance_sigma0, compile_Reach,
                        eval_acceptance)
from forge.proofs import (check_frege, corpus_proofs, parse_proof,
                          proof_target, proof_to_text)
from forge.prop import taut_check
from forge.reflect import (compile_proof_check, decode_formula, decode_proof,
                           encode_formula, encode_proof)
from forge.sexpr import parse_formula, print_formula

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

OK, MISMATCH, FAILED = "ok", "mismatch", "failed"


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], str]   # OK, MISMATCH or FAILED


@dataclass
class Workload:
    blocks: list[list[Op]]
    emitted: Callable[[], int]       # total nodes of the formulas compiled
    trace_blocks: int                # blocks per traced pass at 10 s
    after: Callable[[], dict] = lambda: {}   # untimed extra probes

    @property
    def ops(self) -> list[Op]:
        return [op for block in self.blocks for op in block]


def _verdict(ok: bool) -> str:
    return OK if ok else MISMATCH


def _flip(bits: str, at: int) -> str:
    return bits[:at] + ("0" if bits[at] == "1" else "1") + bits[at + 1:]


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _spread(rng: random.Random, length: int, count: int) -> list[int]:
    """One position from each of `count` equal segments of range(length)."""
    cuts = [length * j // count for j in range(count + 1)]
    return [rng.randrange(lo, hi) if hi > lo else lo
            for lo, hi in zip(cuts, cuts[1:])]


# --- certify: certificate evaluation at criterion-4 scale ---

CERTIFY_BOUNDS = NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=64)
CERTIFY_BUDGET = PolyBound((CERTIFY_BOUNDS.m ** CERTIFY_BOUNDS.c,), constant=True)


def certify(seed: int) -> Workload:
    rng = random.Random(seed)
    machines = {name: corpus_machine(name) for name in CORPUS}
    arts = {name: acceptance_artifact(tm, CERTIFY_BOUNDS)
            for name, tm in machines.items()}

    def op(name: str, x: str) -> Op:
        tm = machines[name]
        return Op(f"{name}:{x}", lambda: eval_acceptance(arts[name], x),
                  lambda got: _verdict(got == accepts(tm, x, CERTIFY_BUDGET)))

    blocks = [[op(name, _bits(rng, n)) for name in CORPUS for n in range(1, 7)]
              for _ in range(6)]
    return Workload(blocks,
                    lambda: sum(formula_size(a.formula) for a in arts.values()),
                    trace_blocks=1)


# --- witness: acceptance matrix at simulator witnesses and single flips ---

WITNESS_POLY = PolyBound((2, 1))
WITNESS_FLIPS = 8


def witness(seed: int) -> Workload:
    rng = random.Random(seed)
    machines = {name: corpus_machine(name) for name in CORPUS}

    def ops_for(name: str, n: int) -> list[Op]:
        tm = machines[name]
        x = _bits(rng, n - 1) + "1"   # canonical: set length equals n
        layout = acc_layout(tm, WITNESS_POLY, n)
        w = tableau_to_witness(run(tm, x, layout.steps, layout.width))
        out = [Op(f"{name}:{x}:valid",
                  lambda: check_witness(tm, WITNESS_POLY, x, w),
                  lambda got: _verdict(got == accepts(tm, x, WITNESS_POLY)))]
        for at in _spread(rng, len(w), WITNESS_FLIPS):
            bad = _flip(w, at)
            out.append(Op(f"{name}:{x}:flip{at}",
                          lambda bad=bad: check_witness(tm, WITNESS_POLY, x, bad),
                          lambda got: _verdict(got is False)))
        return out

    blocks = [[op for name in CORPUS for n in range(1, 7) for op in ops_for(name, n)]
              for _ in range(4)]
    return Workload(blocks,
                    lambda: sum(formula_size(acc_matrix(tm, WITNESS_POLY))
                                for tm in machines.values()),
                    trace_blocks=8)


# --- reflect: the proof-check formula against the Python checker ---

REFLECT_SLOT_CAP = 19
REFLECT_VARIANTS = 10          # the unflipped proof plus nine flips
# Corpus proofs the formula-level checker accepts (its strict spine form).
STRICT_CORPUS = {"corpus01.pk", "corpus03.pk", "corpus05.pk",
                 "corpus06.pk", "corpus07.pk", "corpus09.pk"}


def _python_path(penc: str, xenc: str) -> tuple[bool, bool | None]:
    """Decode, re-parse and check in Python; taut_check the accepted target."""
    try:
        pi = parse_proof(proof_to_text(decode_proof(penc)))
        target = decode_formula(xenc)
    except (DecodeError, MalformedProofError):
        return False, None
    if not check_frege(pi, target):
        return False, None
    return True, taut_check(proof_target(pi), var_cap=12)


def reflect(seed: int) -> Workload:
    rng = random.Random(seed)
    prf = compile_proof_check("frege", slot_cap=REFLECT_SLOT_CAP)
    corpus = corpus_proofs()
    flips = {name: _spread(rng, len(encode_proof(pi)), REFLECT_VARIANTS - 1)
             for name, pi in corpus}

    def op(name, pi, variant: int) -> Op:
        at = None if variant == 0 else flips[name][variant - 1]

        def go():
            penc = encode_proof(pi)
            if at is not None:
                penc = _flip(penc, at)
            xenc = encode_formula(proof_target(pi))
            n = max(len(penc), len(xenc))
            env = Assignment(strs={"P": penc, "X": xenc})
            return eval_formula(prf, FiniteSlice(n, n), env), _python_path(penc, xenc)

        def check(got) -> str:
            formula_ok, (python_ok, taut) = got
            sound = (python_ok or not formula_ok) and taut is not False
            if at is None:
                sound = sound and python_ok and formula_ok == (name in STRICT_CORPUS)
            return _verdict(sound)

        return Op(f"{name}:{'orig' if at is None else f'flip{at}'}", go, check)

    blocks = [[op(name, pi, (b + i) % REFLECT_VARIANTS)
               for i, (name, pi) in enumerate(corpus)]
              for b in range(REFLECT_VARIANTS)]
    return Workload(blocks, lambda: formula_size(prf), trace_blocks=3)


# --- frontend: compile, print, parse, size; and the CLI on fixed inputs ---

# The op mix puts both percentiles inside a group of similar ops rather than
# on the edge between groups: 36 CLI runs under 10 ms, 45 compiles of tens of
# milliseconds (p50 falls here), and 22 acceptance and proof-check compiles
# of 0.1 to 0.5 s (p90 falls here).  Proof-check formulas (75K to 330K
# nodes) are printed and sized but not re-parsed: one parse takes seconds.
LADDER = (16, 32, 64, 96, 128, 200)
CLIFF = (256, 320)             # RecursionError in const_term at the seed
ACC_POLYS = ((2, 1), (1, 1, 1), (3, 2), (0, 0, 1), (4, 3))
PROOF_CHECK_CAPS = (1, 2, 4, 8)


def _nepo_bounds(m: int) -> NepoBounds:
    return NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=m)


def frontend_compilers() -> dict[str, Callable[[], object]]:
    """Every formula the frontend workload compiles, by op key.

    Keys starting with "proof-check" go through `printed`, the rest through
    `roundtrip`.
    """
    out: dict[str, Callable[[], object]] = {}
    for name in CORPUS:
        tm = corpus_machine(name)
        for m in LADDER:
            b = _nepo_bounds(m)
            out[f"nepo-accept:{name}:m{m}"] = \
                lambda tm=tm, b=b: compile_acceptance_sigma0(tm, b)
            out[f"nepo-reach0:{name}:m{m}"] = \
                lambda tm=tm, b=b: compile_Reach(tm, b, 0)
        for m in (16, 64):
            out[f"nepo-reach1:{name}:m{m}"] = \
                lambda tm=tm, b=_nepo_bounds(m): compile_Reach(tm, b, 1)
        for poly in ACC_POLYS:
            out[f"acc:{name}:{','.join(map(str, poly))}"] = \
                lambda tm=tm, p=PolyBound(poly): compile_acc(tm, p)
    for cap in PROOF_CHECK_CAPS:
        out[f"proof-check:cap{cap}"] = \
            lambda cap=cap: compile_proof_check("frege", slot_cap=cap)
    return out


def frontend_cli_runs() -> dict[str, list[str]]:
    """README-style CLI invocations, by op key; paths are repo-relative."""
    inputs = HERE.relative_to(HERE.parent) / "inputs"
    out: dict[str, list[str]] = {}
    for name in CORPUS:
        tm = f"src/forge/machines/{name}.tm"
        for poly in ("2,1", "1,1,1", "3,2"):
            out[f"cli:compile-acc:{name}:{poly}"] = \
                ["compile-acc", "--tm", tm, "--poly", poly]
        for m in ("4", "8"):
            out[f"cli:compile-nepo:{name}:m{m}"] = \
                ["compile-nepo", "--tm", tm, "--m", m, "--eps", "1/3", "--k", "2"]
    for i in range(1, 11):
        proof = f"src/forge/pk/corpus{i:02d}.pk"
        out[f"cli:check-proof:corpus{i:02d}"] = ["check-proof", "--proof", proof]
        out[f"cli:check-proof:corpus{i:02d}:d2"] = \
            ["check-proof", "--proof", proof, "--depth", "2"]
    for form, extra in (("f", ["--val", "i=1"]), ("g", []), ("h", [])):
        for n in (2, 5):
            out[f"cli:translate:{form}:len{n}"] = \
                ["translate", "--formula", str(inputs / f"{form}.sexp"),
                 "--len", f"X={n}", *extra]
    out["cli:eval:f"] = ["eval", "--formula", str(inputs / "f.sexp"),
                         "--num-bound", "8", "--bind", "X=01", "--bind", "i=1"]
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def roundtrip(compile_fn) -> dict:
    """compile -> print -> parse -> print, with size and class of the parse."""
    text = print_formula(compile_fn())
    parsed = parse_formula(text)
    return {"print": digest(text), "reprint": digest(print_formula(parsed)),
            "nodes": formula_size(parsed), "class": str(classify(parsed))}


def printed(compile_fn) -> dict:
    """compile -> print, with size and class of the compiled formula."""
    f = compile_fn()
    return {"print": digest(print_formula(f)), "nodes": formula_size(f),
            "class": str(classify(f))}


def frontend_step(key: str):
    return printed if key.startswith("proof-check") else roundtrip


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli_main(argv)
    return {"exit": rc, "stdout": digest(out.getvalue())}


def _check_frontend(pin: dict | None, got: dict) -> str:
    if pin is None:
        return MISMATCH
    if "exit" in got and got["exit"] != pin["exit"] and got["exit"] != 0:
        return FAILED              # exited nonzero where the pin says otherwise
    return _verdict(got == pin)


def cliff_probe() -> dict:
    """Try the ladder rungs past the seed's recursion cliff, once each, untimed."""
    tm = corpus_machine("parity")
    failed = 0
    for m in CLIFF:
        for compile_fn in (lambda: compile_acceptance_sigma0(tm, _nepo_bounds(m)),
                           lambda: compile_Reach(tm, _nepo_bounds(m), 0)):
            try:
                got = roundtrip(compile_fn)
                failed += got["print"] != got["reprint"]
            except Exception:  # RecursionError at the seed; any error fails the rung
                failed += 1
    return {"cliff_rungs": 2 * len(CLIFF), "cliff_rungs_failed": failed}


def frontend(seed: int) -> Workload:
    """A fixed, pinned set of programs; the seed is unused."""
    pins = json.loads(PINS.read_text())
    compilers = frontend_compilers()
    ops = [Op(key, lambda fn=fn, step=frontend_step(key): step(fn),
              lambda got, key=key: _check_frontend(pins.get(key), got))
           for key, fn in compilers.items()]
    ops += [Op(key, lambda argv=argv: run_cli(argv),
               lambda got, key=key: _check_frontend(pins.get(key), got))
            for key, argv in frontend_cli_runs().items()]
    return Workload([ops],
                    lambda: sum(formula_size(fn()) for fn in compilers.values()),
                    trace_blocks=1, after=cliff_probe)


WORKLOADS = {"certify": certify, "witness": witness,
             "frontend": frontend, "reflect": reflect}
