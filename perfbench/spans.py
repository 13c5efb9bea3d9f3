"""In-memory spans around calls into forge's public functions.

A traced run swaps each listed function for a wrapper that records one span
(name, start, end, parent span, op id) per call, and swaps the originals back
afterwards.  Spans stay in memory until the run writes them out.  Nothing
here is active in an untraced run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from forge import (acc, cli, evaluate, formulas, machine, nepo, proofs, prop,
                   reflect, sexpr)

# (layer name, owning object, attribute).  The wrapper replaces the attribute
# in every forge module and harness module that holds the same function, so
# call sites that imported the name directly are traced too.
TARGETS = [
    ("evaluate.eval_formula", evaluate, "eval_formula"),
    ("nepo.artifact", nepo, "acceptance_artifact"),
    ("nepo.artifact", nepo, "reach_artifact"),
    ("machine.run_from", machine, "run_from"),
    ("acc.acc_matrix", acc, "acc_matrix"),
    ("acc.check_witness", acc, "check_witness"),
    ("sexpr.parse_formula", sexpr, "parse_formula"),
    ("sexpr.print_formula", sexpr, "print_formula"),
    ("formulas.formula_size", formulas, "formula_size"),
    ("formulas.classify", formulas, "classify"),
    ("reflect.compile_proof_check", reflect, "compile_proof_check"),
    ("reflect.encode_proof", reflect, "encode_proof"),
    ("reflect.decode_proof", reflect, "decode_proof"),
    ("proofs.parse_proof", proofs, "parse_proof"),
    ("proofs.check_frege", proofs, "check_frege"),
    ("prop.taut_check", prop, "taut_check"),
    ("prop.translate", prop, "translate"),
    ("cli.main", cli, "main"),
]

# These call themselves through their module-level name; wrapping that name
# in the defining module would record one span per recursive call.
SELF_RECURSIVE = {"formula_size", "print_formula"}


class Tracer:
    """Span recorder; install() swaps wrappers in, uninstall() swaps back."""

    def __init__(self, harness_modules=()):
        self.spans: list[tuple] = []   # (name, start, end, parent index, op id)
        self.stack: list[int] = []
        self.op_id = -1                # -1 marks spans recorded during set-up
        self.parse_bytes = 0
        self.rejects = 0
        self.callback_results: set[int] = set()
        self._harness = list(harness_modules)
        self._undo: list[tuple] = []

    # --- recording ---

    def open_span(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.op_id))
        self.stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        self.stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op)

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open_span(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close_span(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open_span(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close_span(idx)
            if name == "sexpr.parse_formula":
                tracer.parse_bytes += len(args[0])
            elif name == "acc.check_witness" and not out:
                tracer.rejects += 1
            return out

        return traced

    def _wrap_callback(self, cb):
        tracer = self

        def traced(env):
            idx = tracer.open_span("nepo.callback")
            try:
                out = cb(env)
            finally:
                tracer.close_span(idx)
            tracer.callback_results.add(out)
            return out

        return traced

    # --- installing ---

    def _modules(self):
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "forge" or n.startswith("forge."))]
        return mods + self._harness

    def install(self) -> None:
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in self._modules():
                if mod is owner and attr in SELF_RECURSIVE:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapped)
        original_eval = nepo.NepoArtifact.evaluate
        tracer = self

        def evaluate_traced(art, env, roles_override=None, s=None):
            roles = {**art.roles, **(roles_override or {})}
            roles = {k: tracer._wrap_callback(v) for k, v in roles.items()}
            return tracer.span("nepo.evaluate", original_eval, art, env, roles, s)

        self._undo.append((nepo.NepoArtifact, "evaluate", original_eval))
        nepo.NepoArtifact.evaluate = evaluate_traced

    def uninstall(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    # --- deriving metrics ---

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, outermost time and self time, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[i]
            if not self._inside_same(i):
                row["s"] += end - start
        return out

    def _inside_same(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def op_time_covered(self) -> tuple[float, float]:
        """Total time of op spans, and the part covered by their child spans."""
        total = covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name == "op":
                total += end - start
            elif parent >= 0 and self.spans[parent][0] == "op":
                covered += end - start
        return total, covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": n, "start": s - t0, "end": e - t0,
                 "parent": p, "op": op}
                for i, (n, s, e, p, op) in enumerate(self.spans)]
        path.write_text(json.dumps({"spans": rows}))
