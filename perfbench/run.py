#!/usr/bin/env python3
"""Benchmark for forge: time to a correct verdict, end to end and per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from the repository root (the script changes into it regardless).  An
untraced run (--trace 0) times whole passes over the workload's ops until at
least --seconds have passed, then checks every verdict against its oracle
and prints the end-to-end metrics.  Latency percentiles are taken over the
ops of a pass, each op's time being its median over the passes.  A
traced run (--trace 1) runs a fixed number of blocks once untraced and once
with spans around the calls into each forge module, and prints the
per-layer metrics.  The last line of stdout is one JSON object; the exit
code is 1 when any verdict disagrees with its oracle, 2 on a usage or
environment error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100          # distinct ops per pass, so p90 has ten samples beyond it
SETUP_REPEATS = 7      # set-up is timed in this many fresh interpreters

# Host speed on a shared machine swings by up to 2x within seconds and drifts
# over minutes.  Each op is bracketed by a fixed reference loop that touches
# no forge code, and its time is scaled by REFERENCE_S / (reference time
# measured around it): timings read as if the reference loop took exactly
# REFERENCE_S.  Raw wall times are printed beside the corrected ones.
REFERENCE_S = 0.0005


def _tree(depth: int):
    return (depth, _tree(depth - 1), _tree(depth - 1)) if depth else (0, None, None)


_REF_TREE = _tree(7)


def _walk(node, env: dict) -> int:
    value, left, right = node
    if left is None:
        return env["x"] + value
    return (_walk(left, env) * 3 + _walk(right, env) + value) & 0xFFFF


def reference_seconds() -> float:
    """Best of three runs of a small AST-walk-like loop, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        env = {"x": 0}
        for i in range(16):
            env["x"] = i
            _walk(_REF_TREE, env)
        best = min(best, time.perf_counter() - start)
    return best


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile averaged with the two order statistics on each
    side of it; None with fewer than ten samples above the rank."""
    xs = sorted(values)
    rank = math.ceil(q * len(xs))
    if rank < 1 or len(xs) - rank < 10:
        return None
    return statistics.fmean(xs[max(0, rank - 3):rank + 2])


def run_ops(ops, tracer=None):
    """Run ops in order.

    Returns corrected per-op seconds (see REFERENCE_S), raw per-op seconds
    and (op, result, raised) triples.
    """
    latencies, results = [], []
    refs = [reference_seconds()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
            span = tracer.open_span("op")
        start = time.perf_counter()
        try:
            got, raised = op.run(), None
        except Exception as e:  # one failing op must not end the run
            got, raised = None, f"{type(e).__name__}: {e}"[:200]
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.close_span(span)
        results.append((op, got, raised))
        refs.append(reference_seconds())
    corrected = [t * 2 * REFERENCE_S / (a + b)
                 for t, a, b in zip(latencies, refs, refs[1:])]
    return corrected, latencies, results


def score(results) -> dict:
    """Count ok / mismatch / failed against each op's oracle (untimed)."""
    from workloads import FAILED, MISMATCH, OK
    counts = {OK: 0, MISMATCH: 0, FAILED: 0}
    notes: dict[str, str] = {}
    for op, got, raised in results:
        if raised is not None:
            status = FAILED
            notes.setdefault(op.key, raised)
        else:
            try:
                status = op.check(got)
            except Exception as e:  # an oracle that cannot decide is a mismatch
                status = MISMATCH
                notes.setdefault(op.key, f"oracle raised {type(e).__name__}: {e}")
        if status == MISMATCH:
            notes.setdefault(op.key, "verdict disagrees with the oracle")
        counts[status] += 1
    return {"ok": counts[OK], "mismatch": counts[MISMATCH],
            "failed": counts[FAILED], "notes": notes}


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Interpreter start to first op ready, in fresh child interpreters.

    Returns corrected and raw seconds per set-up.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    corrected, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            line = child.stdout.readline().split()
            raw.append(time.perf_counter() - start)
            _, err = child.communicate(timeout=170)
        if child.returncode != 0 or line[:1] != [b"ready"]:
            raise RuntimeError("set-up probe failed: " + err.decode()[-500:])
        # the child measured the reference loop on its own CPU, around set-up
        speed = float(line[1]) + float(line[2])
        corrected.append(raw[-1] * 2 * REFERENCE_S / speed)
    return corrected, raw


def op_medians(latencies: list[float], per_pass: int) -> list[float]:
    """Each op's median time over the passes, ops identified by pass position."""
    return [statistics.median(latencies[i::per_pass]) for i in range(per_pass)]


def timed_passes(wl, seconds: float):
    corrected, raw, results = [], [], []
    ops = wl.ops
    start = time.perf_counter()
    while True:
        cor, lat, res = run_ops(ops)
        corrected += cor
        raw += lat
        results += res
        wall = time.perf_counter() - start
        if wall >= seconds:
            return wall, corrected, raw, results


def _print_counts(counts: dict, attempted: int) -> None:
    print(f"  failed_frac       {counts['failed'] / attempted:.6f}"
          f"  ({counts['failed']}/{attempted} ops)")
    print(f"  mismatch_count    {counts['mismatch']}")
    for key, note in sorted(counts["notes"].items())[:20]:
        print(f"  failure {key}: {note}")


# (metric, unit, better) in the order BENCHMARK.json lists them.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("emitted_nodes", "count", "lower"),
]


def untraced(name: str, seed: int, seconds: float) -> tuple[dict, int]:
    from workloads import WORKLOADS
    setups, raw_setups = setup_seconds(name, seed)
    wl = WORKLOADS[name](seed)
    if len(wl.ops) < MIN_OPS:
        raise SystemExit(f"{name}: a pass has {len(wl.ops)} ops, fewer than {MIN_OPS}")
    wall, lat, raw, results = timed_passes(wl, seconds)
    counts = score(results)
    extra = wl.after()
    attempted = len(results)
    done = attempted - counts["failed"]
    per_op = op_medians(lat, len(wl.ops))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": done / sum(lat),
        "op_ms_p50": percentile(per_op, 0.5) * 1e3,
        "op_ms_p90": percentile(per_op, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "emitted_nodes": wl.emitted(),
    }
    raw_per_op = op_medians(raw, len(wl.ops))
    raw_metrics = {
        "setup_s": statistics.median(raw_setups),
        "ops_per_s": done / wall,
        "op_ms_p50": percentile(raw_per_op, 0.5) * 1e3,
        "op_ms_p90": percentile(raw_per_op, 0.9) * 1e3,
    }
    print(f"workload {name}  seed {seed}  untraced  {attempted} ops in {wall:.3f} s"
          f"  ({len(wl.ops)} ops per pass)")
    print(f"  {'metric':<17} {'corrected':>12} {'raw':>12}")
    for key, unit, _ in END_TO_END:
        raw_text = f"{raw_metrics[key]:12.6g}" if key in raw_metrics else " " * 12
        print(f"  {key:<17} {metrics[key]:12.6g} {raw_text} {unit}")
    print(f"  latency samples   {len(per_op)} ops, each the median of its"
          f" {len(lat) // len(per_op)} runs (p90 has"
          f" {len(per_op) - math.ceil(0.9 * len(per_op))} beyond it)")
    print(f"  setup samples     {' '.join(f'{t:.4f}' for t in setups)} s")
    _print_counts(counts, attempted)
    for key, value in extra.items():
        print(f"  {key:<17} {value}")
    return ({"correct": counts["mismatch"] == 0, "attempted": attempted,
             "failed": counts["failed"],
             "metrics": {k: {"value": metrics[k], "unit": u} for k, u, _ in END_TO_END}},
            counts["mismatch"])


PER_LAYER = [
    ("evaluate.eval_formula.s", "s", "lower"),
    ("evaluate.eval_formula.calls", "count", "lower"),
    ("nepo.evaluate.s", "s", "lower"),
    ("nepo.evaluate.self_s", "s", "lower"),
    ("nepo.evaluate.calls", "count", "lower"),
    ("nepo.callback.s", "s", "lower"),
    ("nepo.callback.calls", "count", "lower"),
    ("nepo.callback.distinct_frac", "frac", "lower"),
    ("machine.run_from.s", "s", "lower"),
    ("machine.run_from.calls", "count", "lower"),
    ("nepo.artifact.s", "s", "lower"),
    ("nepo.artifact.calls", "count", "lower"),
    ("acc.acc_matrix.s", "s", "lower"),
    ("acc.acc_matrix.calls", "count", "lower"),
    ("acc.check_witness.s", "s", "lower"),
    ("acc.check_witness.calls", "count", "lower"),
    ("acc.check_witness.reject_frac", "frac", "higher"),
    ("sexpr.parse_formula.s", "s", "lower"),
    ("sexpr.parse_formula.kb_per_s", "KB/s", "higher"),
    ("sexpr.print_formula.s", "s", "lower"),
    ("formulas.formula_size.s", "s", "lower"),
    ("formulas.classify.s", "s", "lower"),
    ("reflect.compile_proof_check.s", "s", "lower"),
    ("reflect.encode_proof.s", "s", "lower"),
    ("reflect.decode_proof.s", "s", "lower"),
    ("proofs.parse_proof.s", "s", "lower"),
    ("proofs.check_frege.s", "s", "lower"),
    ("prop.taut_check.s", "s", "lower"),
    ("prop.translate.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("trace.ops_s", "s", "lower"),
    ("trace.unaccounted_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
    ("frontend.cliff_rungs_failed", "count", "lower"),
]


def layer_metrics(tracer, untraced_s: float, traced_s: float,
                  extra: dict) -> dict[str, float]:
    totals = tracer.layer_totals()
    ops_s, covered = tracer.op_time_covered()
    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        row = totals.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if field in row:
            out[metric] = float(row[field])
    calls = totals.get("nepo.callback", {}).get("calls", 0)
    out["nepo.callback.distinct_frac"] = (
        len(tracer.callback_results) / calls if calls else 0.0)
    checks = totals.get("acc.check_witness", {}).get("calls", 0)
    out["acc.check_witness.reject_frac"] = tracer.rejects / checks if checks else 0.0
    parse_s = totals.get("sexpr.parse_formula", {}).get("s", 0.0)
    out["sexpr.parse_formula.kb_per_s"] = (
        tracer.parse_bytes / 1024 / parse_s if parse_s else 0.0)
    out["trace.ops_s"] = ops_s
    out["trace.unaccounted_frac"] = 1 - covered / ops_s if ops_s else 0.0
    out["trace.overhead_frac"] = traced_s / untraced_s - 1
    out["trace.spans"] = float(len(tracer.spans))
    out["frontend.cliff_rungs_failed"] = float(extra.get("cliff_rungs_failed", 0))
    return {metric: out[metric] for metric, _, _ in PER_LAYER}


def traced(name: str, seed: int, seconds: float) -> tuple[dict, int]:
    import workloads
    from spans import Tracer
    tracer = Tracer([workloads])
    tracer.install()
    try:
        wl = workloads.WORKLOADS[name](seed)        # set-up spans carry op id -1
    finally:
        tracer.uninstall()
    count = max(1, round(wl.trace_blocks * seconds / 10))
    ops = [op for b in range(count) for op in wl.blocks[b % len(wl.blocks)]]
    plain_lat, _, plain = run_ops(ops)
    tracer.install()
    try:
        traced_lat, _, spanned = run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    untraced_s, traced_s = sum(plain_lat), sum(traced_lat)
    counts = score(plain + spanned)
    extra = wl.after()
    metrics = layer_metrics(tracer, untraced_s, traced_s, extra)
    out = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
    tracer.write(out)
    attempted = len(plain) + len(spanned)
    print(f"workload {name}  seed {seed}  traced  {len(ops)} ops"
          f"  corrected op time untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    units = {m: u for m, u, _ in PER_LAYER}
    for key, value in metrics.items():
        print(f"  {key:<32} {value:.6g} {units[key]}")
    print(f"  spans written to {out.relative_to(ROOT)}")
    _print_counts(counts, attempted)
    return ({"correct": counts["mismatch"] == 0, "attempted": attempted,
             "failed": counts["failed"],
             "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}},
            counts["mismatch"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "witness", "frontend", "reflect"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child mode of setup_seconds
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "forge" / "__init__.py").is_file():
        print(f"run.py: no forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    if args.setup_probe:
        before = reference_seconds()
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed)
        print("ready", before, reference_seconds(), flush=True)
        return 0
    run = traced if args.trace else untraced
    result, mismatches = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
