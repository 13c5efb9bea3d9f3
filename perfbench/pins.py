#!/usr/bin/env python3
"""Record pins.json: what each frontend op printed at the pinned commit.

    python3 perfbench/pins.py

For every compile op it stores sha256 digests of the printed formula and,
where the op re-parses it, of its reprint, with node count and quantifier
class; for
every CLI op, the exit code and a digest of stdout.  Before recording, it
checks that the reprint is a fixed point of parse-then-print and that
parsing kept the node count.  The frontend workload counts any later
difference as a mismatch, so regenerate this file only on purpose.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    from forge.formulas import formula_size
    from forge.sexpr import parse_formula, print_formula
    from workloads import (PINS, frontend_cli_runs, frontend_compilers,
                           frontend_step, roundtrip, run_cli)

    pins = {}
    for key, fn in frontend_compilers().items():
        step = frontend_step(key)
        pins[key] = step(fn)
        if step is not roundtrip:
            continue
        f = fn()
        reprint = print_formula(parse_formula(print_formula(f)))
        if print_formula(parse_formula(reprint)) != reprint:
            raise SystemExit(f"{key}: reprint is not a parse/print fixed point")
        if pins[key]["nodes"] != formula_size(f):
            raise SystemExit(f"{key}: parsing changed the node count")
    for key, argv in frontend_cli_runs().items():
        pins[key] = run_cli(argv)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
