"""Workbench for bounded two-sorted formulas.

Compile machine acceptance into formulas, evaluate formulas over finite
slices, translate them to propositional form, and check sequent proofs.
The command-line front end is `forge.cli`, imported on its own.
"""

from . import (acc, codec, errors, evaluate, formulas, machine, mfv, nepo,
               proofs, prop, reflect, sexpr)

__all__ = ["acc", "codec", "errors", "evaluate", "formulas", "machine", "mfv",
           "nepo", "proofs", "prop", "reflect", "sexpr"]
