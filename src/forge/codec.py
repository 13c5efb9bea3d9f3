"""Packed integer sequences and bit strings.

Sequence codes are self-describing numbers: the low 5 bits hold the field
width w, and the rest is the packed payload topped by a sentinel bit, so the
element count is (bitlen(payload) - 1) // w.  This keeps codes linear in the
payload size (nesting Cantor pairs would square it).  Access comes in two
flavors: seq_get/seq_len validate the code, while the _total variants read
any natural number leniently so term evaluation stays total.

Bit strings are plain '0'/'1' text read as sets of positions.  Two strings
are the same set iff they agree after stripping trailing zeros, and the
length of a set is one past its largest element, so "0110" has length 3.
"""

from .errors import DecodeError, SliceExceededError

WIDTH_BITS = 5
MAX_FIELD_WIDTH = (1 << WIDTH_BITS) - 1
DECODE_LENGTH_CAP = 1 << 20


def encode_seq(xs: list[int] | tuple[int, ...]) -> int:
    """Pack xs into one number; width is the canonical minimum for xs."""
    w = 1
    packed = 0
    for x in xs:
        if x < 0:
            raise ValueError("sequence elements must be non-negative")
        w = max(w, x.bit_length())
    if w > MAX_FIELD_WIDTH:
        raise ValueError(f"element too wide for {MAX_FIELD_WIDTH}-bit fields")
    for j, x in enumerate(xs):
        packed |= x << (j * w)
    body = packed | 1 << (len(xs) * w)
    return body * (MAX_FIELD_WIDTH + 1) + w


def seq_len_total(code: int) -> int:
    """Element count under the lenient reading; 0 when no header is usable.

    This is the denotation the formula evaluator gives the seqlen term, so
    it must accept every natural number.
    """
    if code < 0:
        raise ValueError("sequence codes are non-negative")
    w = code % (MAX_FIELD_WIDTH + 1)
    body = code // (MAX_FIELD_WIDTH + 1)
    if w == 0 or body == 0:
        return 0
    return (body.bit_length() - 1) // w


def seq_get_total(code: int, j: int) -> int:
    """Element j under the lenient reading; out-of-range reads give 0."""
    if code < 0:
        raise ValueError("sequence codes are non-negative")
    if j < 0:
        raise IndexError("sequence positions are non-negative")
    w = code % (MAX_FIELD_WIDTH + 1)
    body = code // (MAX_FIELD_WIDTH + 1)
    if w == 0 or body == 0:
        return 0
    n = (body.bit_length() - 1) // w
    if j >= n:
        return 0
    return (body >> (j * w)) & ((1 << w) - 1)


def decode_seq(code: int) -> list[int]:
    """Strict inverse of encode_seq; rejects non-canonical codes."""
    n = seq_len_total(code)
    if n > DECODE_LENGTH_CAP:
        raise DecodeError(f"length header {n} exceeds decode cap")
    xs = [seq_get_total(code, j) for j in range(n)]
    if encode_seq(xs) != code:
        raise DecodeError(f"{code} is not a canonical sequence code")
    return xs


def seq_len(code: int) -> int:
    """Element count of a canonical code; DecodeError on anything else."""
    return len(decode_seq(code))


def seq_get(code: int, j: int) -> int:
    """Element j of a canonical code; out-of-range reads give 0."""
    xs = decode_seq(code)
    if j < 0:
        raise IndexError("sequence positions are non-negative")
    return xs[j] if j < len(xs) else 0


def seq_code_bound(n_elems: int, width: int) -> int:
    """Smallest bound above every code of n_elems fields at width bits."""
    body_max = (1 << (n_elems * width + 1)) - 1
    return body_max * (MAX_FIELD_WIDTH + 1) + MAX_FIELD_WIDTH + 1


def str_to_num(bits: str, width: int | None = None) -> int:
    """Identify a short bit string with a width-1 sequence code."""
    if width is not None and len(bits) > width:
        raise SliceExceededError(f"string of length {len(bits)} exceeds width {width}")
    return encode_seq([_bit(c) for c in bits])


def num_to_str(code: int, n: int) -> str:
    return "".join("1" if seq_get(code, j) else "0" for j in range(n))


def _bit(c: str) -> int:
    if c == "0":
        return 0
    if c == "1":
        return 1
    raise ValueError(f"bit strings may only contain 0 and 1, got {c!r}")


# --- bit strings as sets of positions ---


def bit_at(s: str, i: int) -> bool:
    return 0 <= i < len(s) and s[i] == "1"


def set_length(s: str) -> int:
    """One past the largest set position; 0 for the empty set."""
    last = s.rfind("1")
    return last + 1


def trim(s: str) -> str:
    return s[: set_length(s)]


def sets_equal(a: str, b: str) -> bool:
    return trim(a) == trim(b)


def mask_to_bits(mask: int) -> str:
    """Canonical (trimmed) string for the set whose mask this is."""
    if mask == 0:
        return ""
    return format(mask, "b")[::-1]


def bits_to_mask(s: str) -> int:
    m = 0
    for i, c in enumerate(s):
        if _bit(c):
            m |= 1 << i
    return m


def all_strings(max_length: int):
    """Every distinct set with elements below max_length, as trimmed strings."""
    for mask in range(1 << max_length):
        yield mask_to_bits(mask)
