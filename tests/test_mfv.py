"""Monotone formula values: node_value against a bottom-up level oracle,
and the mfv witness table and its checker."""

import random

import pytest
from oracles import node_value_depth_bound

from forge.codec import bit_at
from forge.mfv import (MonotoneTree, check_mfv, mfv_witness, node_value,
                       node_value_instrumented)


def level_eval(t: MonotoneTree, inputs: str) -> list[int]:
    """Oracle: bottom-up table of node values, independent of the recursion."""
    vals = [0] * (2 * t.a)
    for x in range(t.a, 2 * t.a):
        vals[x] = 1 if inputs[x - t.a] == "1" else 0
    for x in range(t.a - 1, 0, -1):
        if t.gates[x] == "1":
            vals[x] = vals[2 * x] & vals[2 * x + 1]
        else:
            vals[x] = vals[2 * x] | vals[2 * x + 1]
    return vals


def test_node_value_frozen_example():
    t = MonotoneTree("0100", 4)
    assert node_value(t, "1001", 1) == 1
    assert node_value(t, "0000", 1) == 0


def test_node_value_positions_beyond_tree():
    t = MonotoneTree("0100", 4)
    assert node_value(t, "1111", 8) == 0
    assert node_value(t, "1111", 97) == 0
    with pytest.raises(IndexError):
        node_value(t, "1111", 0)


def test_node_value_matches_level_oracle():
    rng = random.Random(7)
    for a in (1, 2, 4, 8):
        if a <= 4:
            gate_sets = [format(g, f"0{a}b") for g in range(1 << a)]
        else:
            gate_sets = ["".join(rng.choice("01") for _ in range(a))
                         for _ in range(100)]
        for gates in gate_sets:
            t = MonotoneTree(gates, a)
            for mask in range(1 << a):
                inputs = format(mask, f"0{a}b")
                vals = level_eval(t, inputs)
                if a <= 4:
                    positions = range(1, 2 * t.a)
                else:
                    positions = [1, rng.randrange(1, 2 * a), rng.randrange(1, 2 * a)]
                for x in positions:
                    got, depth_used = node_value_instrumented(t, inputs, x)
                    assert got == vals[x]
                    assert depth_used <= node_value_depth_bound(t)


def test_mfv_witness_examples():
    t = MonotoneTree("01", 2)
    y = mfv_witness(t, "11")
    assert bit_at(y, 1) and bit_at(y, 2) and bit_at(y, 3)
    assert not bit_at(mfv_witness(t, "10"), 1)
    leaf = MonotoneTree("0", 1)
    assert bit_at(mfv_witness(leaf, "1"), 1)
    assert not bit_at(mfv_witness(leaf, "0"), 1)


def test_mfv_witness_padding_bit():
    t = MonotoneTree("01", 2)
    assert mfv_witness(t, "00")[0] == "1"


def test_check_mfv_accepts_witness_and_rejects_flips():
    rng = random.Random(3)
    for a in (1, 2, 4, 8):
        gates = "".join(rng.choice("01") for _ in range(a))
        t = MonotoneTree(gates, a)
        for _ in range(6):
            inputs = "".join(rng.choice("01") for _ in range(a))
            y = mfv_witness(t, inputs)
            assert check_mfv(t, inputs, y)
            for pos in range(len(y)):
                flipped = y[:pos] + ("0" if y[pos] == "1" else "1") + y[pos + 1:]
                assert not check_mfv(t, inputs, flipped)


def test_check_mfv_rejects_leaf_disagreement():
    t = MonotoneTree("01", 2)
    y = mfv_witness(t, "10")
    assert not check_mfv(t, "01", y)


def test_mfv_size_mismatch():
    t = MonotoneTree("01", 2)
    with pytest.raises(ValueError):
        mfv_witness(t, "101")
    with pytest.raises(ValueError):
        node_value(t, "1", 1)


def test_tree_validation():
    with pytest.raises(ValueError):
        MonotoneTree("010", 3)
    with pytest.raises(ValueError):
        MonotoneTree("01", 4)
    with pytest.raises(ValueError):
        MonotoneTree("0x", 2)
