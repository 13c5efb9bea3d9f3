"""Single-tape machines over {0,1}: simulator, tableaux, witness layout.

The simulator is the ground truth the compiled formulas are tested against.
States are numbered 1..k with 1 initial and k accepting; moves are 0 stay,
1 left, 2 right.  Both tape ends clamp: a left move at cell 0 and a right
move at the last cell stay put.

This module owns the row layout every other module writes and reads.  A
row is width cells of 1 + state_bits fields each, stored consecutively:
field 0 is the tape bit and fields 1..state_bits hold the head mark (0 when
the head is elsewhere) in binary, low bit first.  `encode_row` and
`decode_row` are the one encoder and the one decoder of that layout, so a
field sits where `encode_row` puts it: the acc witness string, for
acceptance and reachability alike, is the encoded rows joined, first row
first; a configuration string is one encoded row plus a sentinel 1
(written by the tests' `oracles.config_to_string`, read by
`acc.string_to_config` and nepo's `I` source); and a nepo grid code packs
the same bits as a width-1 sequence code.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources

from .errors import LayoutError, MachineFormatError

MOVE_STAY, MOVE_LEFT, MOVE_RIGHT = 0, 1, 2


@dataclass(frozen=True, slots=True)
class TMDescription:
    """k states, total deterministic transition map (state, bit) -> (state, bit, move)."""

    k: int
    delta: dict[tuple[int, int], tuple[int, int, int]]

    def __post_init__(self):
        if self.k < 1:
            raise MachineFormatError("need at least one state")
        for q in range(1, self.k + 1):
            for b in (0, 1):
                if (q, b) not in self.delta:
                    raise MachineFormatError(f"delta is partial: no rule for ({q},{b})")
        for (q, b), (q2, b2, m) in self.delta.items():
            if not (1 <= q <= self.k and 1 <= q2 <= self.k):
                raise MachineFormatError(f"state out of range in rule ({q},{b})")
            if b not in (0, 1) or b2 not in (0, 1):
                raise MachineFormatError(f"bit out of range in rule ({q},{b})")
            if m not in (MOVE_STAY, MOVE_LEFT, MOVE_RIGHT):
                raise MachineFormatError(f"move out of range in rule ({q},{b})")

    @property
    def state_bits(self) -> int:
        """Bits needed for a head mark in 0..k."""
        return self.k.bit_length()


@dataclass(frozen=True, slots=True)
class Configuration:
    """One tape row: (bit, mark) per cell, exactly one mark positive."""

    cells: tuple[tuple[int, int], ...]

    def __post_init__(self):
        marked = [i for i, (_, mark) in enumerate(self.cells) if mark]
        if len(marked) != 1:
            raise ValueError(f"a configuration needs exactly one head, found {len(marked)}")

    @property
    def head(self) -> int:
        return next(i for i, (_, mark) in enumerate(self.cells) if mark)

    @property
    def state(self) -> int:
        return self.cells[self.head][1]


def initial_configuration(input_bits: str, width: int) -> Configuration:
    """Input padded with zeroes, head on cell 0 in state 1."""
    if width < len(input_bits):
        raise LayoutError(f"width {width} cannot hold input of length {len(input_bits)}")
    if width < 1:
        raise LayoutError("width must be at least 1")
    padded = input_bits + "0" * (width - len(input_bits))
    cells = tuple((int(c), 1 if i == 0 else 0) for i, c in enumerate(padded))
    return Configuration(cells)


def step(tm: TMDescription, c: Configuration) -> Configuration:
    pos = c.head
    bit, state = c.cells[pos]
    new_state, new_bit, move = tm.delta[(state, bit)]
    target = pos
    if move == MOVE_LEFT and pos > 0:
        target = pos - 1
    elif move == MOVE_RIGHT and pos < len(c.cells) - 1:
        target = pos + 1
    cells = list(c.cells)
    cells[pos] = (new_bit, 0)
    cells[target] = (cells[target][0], new_state)
    return Configuration(tuple(cells))


@dataclass(frozen=True, slots=True)
class ComputationTableau:
    rows: tuple[Configuration, ...]
    width: int
    state_bits: int


def run(tm: TMDescription, input_bits: str, steps: int, width: int) -> ComputationTableau:
    """steps + 1 rows of deterministic evolution from the initial row."""
    return run_from(tm, initial_configuration(input_bits, width), steps)


def run_from(tm: TMDescription, start: Configuration, steps: int) -> ComputationTableau:
    c = start
    rows = [c]
    for _ in range(steps):
        c = step(tm, c)
        rows.append(c)
    return ComputationTableau(tuple(rows), len(start.cells), tm.state_bits)


@dataclass(frozen=True, slots=True)
class PolyBound:
    """Nonnegative-coefficient polynomial, coefficients low degree first.

    A degree-0 bound must be flagged constant explicitly so that accidental
    single-coefficient bounds fail loudly.
    """

    coeffs: tuple[int, ...]
    constant: bool = False

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be non-negative")
        degree = max((i for i, c in enumerate(self.coeffs) if c), default=0)
        if degree == 0 and not self.constant:
            raise ValueError("degree-0 bound requires the constant flag")

    def eval(self, n: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * n + c
        return total


def accepts(tm: TMDescription, input_bits: str, p: PolyBound) -> bool:
    """Is the machine in its accepting state after exactly p(|input|) steps?"""
    budget = p.eval(len(input_bits))
    tableau = run(tm, input_bits, budget, max(budget, len(input_bits), 1))
    return tableau.rows[-1].state == tm.k


@dataclass(frozen=True, slots=True)
class TableauLayout:
    """The shape of a witness string: steps + 1 rows of width cells, each
    of `fields` bits, laid out by `encode_row`."""

    width: int
    steps: int
    state_bits: int

    @property
    def fields(self) -> int:
        return 1 + self.state_bits

    @property
    def total_bits(self) -> int:
        return (self.steps + 1) * self.width * self.fields


def encode_row(row: Configuration, state_bits: int) -> str:
    """The row's bits: per cell the tape bit, then the mark low bit first."""
    return "".join(str(bit) + "".join(str(mark >> f & 1) for f in range(state_bits))
                   for bit, mark in row.cells)


def decode_row(bits: Sequence[int], state_bits: int, k: int) -> Configuration:
    """The row whose encoding is bits, one cell per 1 + state_bits of them.

    A mark above k raises LayoutError at the first cell that has one, before
    a row without exactly one head raises ValueError.
    """
    fields = 1 + state_bits
    cells = []
    for base in range(0, len(bits), fields):
        mark = 0
        for f in range(state_bits):
            mark |= bits[base + 1 + f] << f
        if mark > k:
            raise LayoutError(f"cell at bit {base} marks nonexistent state {mark}")
        cells.append((bits[base], mark))
    return Configuration(tuple(cells))


def tableau_to_witness(tableau: ComputationTableau) -> str:
    """The acc witness string: every row encoded, first row first."""
    return "".join(encode_row(row, tableau.state_bits) for row in tableau.rows)


# --- text format and shipped corpus ---


def parse_tm(text: str) -> TMDescription:
    """Read `states <k>` then `<q> <b> -> <q'> <b'> <m>` rule lines."""
    k: int | None = None
    delta: dict[tuple[int, int], tuple[int, int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if k is None:
            if len(parts) != 2 or parts[0] != "states":
                raise MachineFormatError(f"line {lineno}: expected `states <k>`")
            try:
                k = int(parts[1])
            except ValueError:
                raise MachineFormatError(f"line {lineno}: bad state count") from None
            continue
        if len(parts) != 6 or parts[2] != "->":
            raise MachineFormatError(
                f"line {lineno}: expected `<q> <b> -> <q'> <b'> <m>`")
        try:
            q, b, q2, b2, m = (int(parts[i]) for i in (0, 1, 3, 4, 5))
        except ValueError:
            raise MachineFormatError(f"line {lineno}: rule fields must be integers") from None
        if (q, b) in delta:
            raise MachineFormatError(
                f"line {lineno}: duplicate rule for ({q},{b}) makes delta nondeterministic")
        delta[(q, b)] = (q2, b2, m)
    if k is None:
        raise MachineFormatError("missing `states <k>` header")
    return TMDescription(k, delta)


CORPUS = ("scan1", "parity", "zeros")


def corpus_machine(name: str) -> TMDescription:
    """Load one of the shipped machines by lowercase name."""
    if name not in CORPUS:
        raise MachineFormatError(f"unknown corpus machine {name!r}; have {CORPUS}")
    text = resources.files("forge").joinpath(f"machines/{name}.tm").read_text()
    return parse_tm(text)
