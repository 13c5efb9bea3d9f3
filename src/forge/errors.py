"""Shared exception types.

Domain failures raise subclasses of ForgeError so the CLI can map them to a
single exit code; programming errors (bad API usage) raise the usual builtins.
"""


class ForgeError(Exception):
    """Base class for all domain failures raised by this package."""


class ParseError(ForgeError):
    """Malformed source text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class DuplicateBindingError(ParseError):
    """A quantifier rebinds a variable already bound on the same path."""


class SortMismatchError(ForgeError):
    """A number-sort name was used in string position or vice versa."""


class DecodeError(ForgeError):
    """A bit string is not a valid `reflect` encoding of a formula or proof."""


class UnboundVariableError(ForgeError):
    """Evaluation met a variable the assignment does not cover."""


class SliceExceededError(ForgeError):
    """A quantifier bound fell outside the configured finite slice."""


class ClassError(ForgeError):
    """A formula is outside the class an operation requires."""


class LayoutError(ForgeError):
    """A witness string does not fit the tableau layout."""


class MachineFormatError(ForgeError):
    """A transition table is malformed, partial, or nondeterministic."""


class MalformedProofError(ForgeError):
    """A proof object is structurally broken (as opposed to merely invalid)."""


class EncodeError(ForgeError):
    """An object does not fit the fixed-width encoding caps."""


class BudgetError(ForgeError):
    """Requested parameters have no feasible derived budget."""
