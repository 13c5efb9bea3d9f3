"""Packed integer sequences and bit strings.

Sequence codes are self-describing numbers: the low 5 bits hold the field
width w, and the rest is the packed payload topped by a sentinel bit, so the
element count is (bitlen(payload) - 1) // w.  This keeps codes linear in the
payload size (nesting Cantor pairs would square it).

seq_fields is the one decoder of codes, and its reading is lenient, so term
evaluation stays total: every natural number reads as a code, one with
w = 0 or nothing above the width has no elements, a partial field under
the sentinel is dropped, and field_at reads 0 past the last element.  A
reader decodes a code once and indexes its fields; seq_len gives the
element count from the header alone, for a code not decoded.  encode_bits
builds the width-1 code of a 0/1 text without a loop.

Bit strings are plain '0'/'1' text read as sets of positions.  Two strings
are the same set iff they agree after stripping trailing zeros, and the
length of a set is one past its largest element, so "0110" has length 3.
"""

WIDTH_BITS = 5
MAX_FIELD_WIDTH = (1 << WIDTH_BITS) - 1


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


def encode_bits(bits: str) -> int:
    """encode_seq([int(ch) for ch in bits]) for a text of '0' and '1' only:
    the width-1 code, built in one int() call.  Other text gives no
    sequence code of its digits."""
    return (int("1" + bits[::-1], 2) << WIDTH_BITS) + 1


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def seq_fields(code: int) -> bytes | tuple[int, ...]:
    """Every element of code under the lenient reading, element j at index
    j: the low 5 bits give the width w, and the rest holds, under its top
    bit (the sentinel), (bitlen(rest) - 1) // w whole w-bit fields, element
    0 lowest, or none when w or the rest is 0.  bytes when w is at most 8
    or there are no elements, else a tuple; ValueError for a negative code.
    len(seq_fields(code)) equals seq_len(code).
    """
    if code < 0:
        raise ValueError("sequence codes are non-negative")
    body, w = divmod(code, MAX_FIELD_WIDTH + 1)
    if w == 0 or body == 0:
        return b""
    if w == 1:  # the digits after the sentinel, element 0 last
        return bin(body)[:2:-1].encode().translate(_BIT_VALUES)
    digits = bin(body)[3:]
    end = len(digits)
    fields = [int(digits[end - j - w:end - j], 2)
              for j in range(0, (end // w) * w, w)]
    return bytes(fields) if w <= 8 else tuple(fields)


def seq_len(code: int) -> int:
    """The element count of code under the lenient reading, by the header
    arithmetic of seq_fields, without decoding; ValueError for a negative
    code."""
    if code < 0:
        raise ValueError("sequence codes are non-negative")
    body, w = divmod(code, MAX_FIELD_WIDTH + 1)
    return (body.bit_length() - 1) // w if w and body else 0


def field_at(fields: bytes | tuple[int, ...], j: int) -> int:
    """Element j of a code's seq_fields under the lenient reading: 0 past
    the end.  A negative j raises IndexError."""
    if j < 0:
        raise IndexError("sequence positions are non-negative")
    return fields[j] if j < len(fields) else 0


def seq_code_bound(n_elems: int, width: int) -> int:
    """Smallest bound above every code of n_elems fields at width bits."""
    body_max = (1 << (n_elems * width + 1)) - 1
    return body_max * (MAX_FIELD_WIDTH + 1) + MAX_FIELD_WIDTH + 1


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
