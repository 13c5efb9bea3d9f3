"""Sequence codes and bit-string sets."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import all_strings, decode_seq, seq_get_total, seq_len_total

from forge import codec
from forge.errors import DecodeError
from forge.evaluate import Assignment, FiniteSlice, eval_formula
from forge.formulas import EqNum, NVar, SeqAt, SeqLen, const_term


@given(st.lists(st.integers(min_value=0, max_value=2**31 - 1), max_size=40))
def test_encode_decode_roundtrip(xs):
    assert decode_seq(codec.encode_seq(xs)) == xs


def test_seq_get_examples():
    code = codec.encode_seq([4, 9])
    assert seq_get_total(code, 1) == 9
    assert seq_get_total(code, 5) == 0
    assert seq_len_total(code) == 2
    assert seq_get_total(codec.encode_seq([]), 0) == 0


def test_seq_get_rejects_noncanonical():
    # [1, 1] packed at width 2 instead of the canonical width 1: the strict
    # reference decoder rejects it, the lenient reads take it as it stands
    body = (1 | (1 << 2)) | (1 << 4)
    wide = body * 32 + 2
    with pytest.raises(DecodeError):
        decode_seq(wide)
    assert seq_get_total(wide, 0) == 1
    assert seq_get_total(wide, 1) == 1
    assert seq_len_total(wide) == 2


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=0, max_value=300))
def test_total_reads_never_raise(code, j):
    # the reference readers, as the oracle's check of itself
    v = seq_get_total(code, j)
    assert 0 <= v
    assert seq_len_total(code) >= 0


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=0, max_value=300))
def test_compiled_reads_are_total_and_match_the_reference(code, j):
    # the totality codec promises, through the library's one reader
    env = Assignment({"s": code, "j": j})
    for t, value in ((SeqAt(NVar("s"), NVar("j")), seq_get_total(code, j)),
                     (SeqLen(NVar("s")), seq_len_total(code))):
        assert eval_formula(EqNum(t, const_term(value)), FiniteSlice(1, 0), env)


def test_encode_width_cap():
    with pytest.raises(ValueError):
        codec.encode_seq([1 << 31])
    codec.encode_seq([(1 << 31) - 1])


def test_seq_code_bound_covers_all_codes():
    for n in range(5):
        for w in (1, 2, 3):
            bound = codec.seq_code_bound(n, w)
            top = (1 << w) - 1
            assert codec.encode_seq([top] * n) <= bound
            if n:
                assert codec.encode_seq([0] * n) <= bound


def test_seq_code_bound_excludes_wider_padding():
    # no width-2 code of the same element count fits under the width-1 bound
    for n in range(1, 6):
        bound = codec.seq_code_bound(n, 1)
        for payload in range(1 << (2 * n)):
            body = payload | (1 << (2 * n))
            assert body * 32 + 2 > bound


def bits_code(s: str) -> int:
    """A bit string as the width-1 sequence code nepo's grid codes are."""
    return codec.encode_seq([int(c) for c in s])


def test_str_num_identification():
    x = bits_code("101")
    assert [seq_get_total(x, i) for i in range(3)] == [1, 0, 1]
    assert seq_len_total(bits_code("0110")) == 4
    assert bits_code("") == codec.encode_seq([])


def test_str_roundtrip_exhaustive_to_length_10():
    codes = set()
    for n in range(11):
        for mask in range(1 << n):
            s = format(mask, f"0{n}b")[::-1] if n else ""
            x = bits_code(s)
            assert "".join(str(seq_get_total(x, j)) for j in range(n)) == s
            assert seq_len_total(x) == n
            assert codec.encode_bits(s) == x
            assert x not in codes  # injective even across lengths
            codes.add(x)


def test_encode_bits_is_encode_seq():
    rng = random.Random(12)
    for n in [0, 1, 2, 63, 64, 65, 246, 400] + [rng.randrange(401) for _ in range(200)]:
        s = "".join(rng.choice("01") for _ in range(n))
        assert codec.encode_bits(s) == bits_code(s), s


def fields_agree(code: int) -> None:
    fields = codec.seq_fields(code)
    n = seq_len_total(code)
    assert len(fields) == n == codec.seq_len(code), code
    assert list(fields) == [seq_get_total(code, j) for j in range(n)], code


def test_seq_fields_matches_total_reads():
    # every code below 2**14: w == 0, body == 0, every width up to 31 with
    # short bodies, and trailing partial fields
    for code in range(1 << 14):
        fields_agree(code)
    rng = random.Random(14)
    for w in range(32):
        for bits in [0, 1, w, w + 1, 2 * w + 1] + [rng.randrange(1, 600) for _ in range(40)]:
            body = rng.getrandbits(bits) | 1 << bits if bits else 0
            code = body * 32 + w
            fields_agree(code)
            if seq_len_total(code):
                assert type(codec.seq_fields(code)) is (bytes if w <= 8 else tuple)
    for read in (codec.seq_fields, codec.seq_len):
        with pytest.raises(ValueError, match="sequence codes are non-negative"):
            read(-1)


def test_set_semantics():
    assert codec.set_length("0110") == 3
    assert codec.set_length("") == 0
    assert codec.set_length("000") == 0
    assert codec.trim("0110") == "011"
    assert codec.sets_equal("011", "0110")
    assert codec.sets_equal("", "000")
    assert not codec.sets_equal("01", "10")


def test_mask_string_conversions():
    for mask in range(256):
        s = codec.mask_to_bits(mask)
        assert [codec.bit_at(s, i) for i in range(9)] == [bool(mask >> i & 1) for i in range(9)]
        assert s == codec.trim(s)


def test_all_strings_distinct():
    seen = list(all_strings(3))
    assert len(seen) == 8
    assert len(set(seen)) == 8
    assert "" in seen and "11" in seen and "101" in seen
