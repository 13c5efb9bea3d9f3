"""Reference decoders, enumerators and bounds that only the tests use.

Each one is an oracle the library is checked against, or a harness that
feeds it inputs; none of them is part of the library.
"""

from forge.codec import encode_seq, mask_to_bits, seq_get_total, seq_len_total
from forge.errors import DecodeError
from forge.evaluate import MonotoneTree
from forge.machine import ComputationTableau, TableauLayout, decode_row

DECODE_LENGTH_CAP = 1 << 20


def decode_seq(code: int) -> list[int]:
    """Strict inverse of encode_seq; rejects non-canonical codes."""
    n = seq_len_total(code)
    if n > DECODE_LENGTH_CAP:
        raise DecodeError(f"length header {n} exceeds decode cap")
    xs = [seq_get_total(code, j) for j in range(n)]
    if encode_seq(xs) != code:
        raise DecodeError(f"{code} is not a canonical sequence code")
    return xs


def all_strings(max_length: int):
    """Every distinct set with elements below max_length, as trimmed strings."""
    for mask in range(1 << max_length):
        yield mask_to_bits(mask)


def witness_to_tableau(bits: str, layout: TableauLayout) -> ComputationTableau:
    """Inverse of tableau_to_witness for strings laid out by layout.

    Rows that violate the one-head invariant raise ValueError, so this is
    also a cheap structural check on candidate witnesses.  Every mark of
    state_bits bits is accepted.
    """
    row_bits = layout.width * layout.fields
    every_mark = (1 << layout.state_bits) - 1
    rows = []
    for t in range(layout.steps + 1):
        row = bits[t * row_bits:(t + 1) * row_bits].ljust(row_bits, "0")
        rows.append(decode_row([1 if c == "1" else 0 for c in row],
                               layout.state_bits, every_mark))
    return ComputationTableau(tuple(rows), layout.width, layout.state_bits)


def node_value_depth_bound(t: MonotoneTree) -> int:
    return (2 * t.a + 1).bit_length() + 1  # ceil(log2(2a+1)) + 1 for powers of 2
