"""Weight bookkeeping and the counting oracle for blocks A, B, C."""

from itertools import combinations, product

import pytest

from colorfil import weights
from colorfil.cohomology import BlockKind
from colorfil.weights import (IndexOutOfRange, WeightModel, cochain_weight,
                              count_weight_dim, weight_sequence)


def test_weight_sequence_shape():
    assert weight_sequence(5) == [-4, -2, 0, 2, 4]
    assert weight_sequence(4) == [-3, -1, 1, 3]
    assert weight_sequence(0) == []
    for d in range(1, 12):
        seq = weight_sequence(d)
        assert seq == sorted(seq)
        assert all(b - a == 2 for a, b in zip(seq, seq[1:]))
        assert seq == [-w for w in reversed(seq)]  # symmetric about 0


def test_weight_model_computes_each_sequence_once(monkeypatch):
    calls = []
    real = weights.weight_sequence
    monkeypatch.setattr(weights, "weight_sequence", lambda d: calls.append(d) or real(d))
    wm = WeightModel(4, 3, 2)
    for _ in range(3):
        assert [wm.component(g) for g in range(3)] == [real(4), real(3), real(2)]
    assert sorted(calls) == [2, 3, 4]


def test_cochain_weight_examples():
    assert cochain_weight(BlockKind.A, 1, 2, 2, WeightModel(2, 1, 1)) == 1
    assert cochain_weight(BlockKind.B, 1, 1, 1, WeightModel(1, 1, 1)) == 0
    assert cochain_weight(BlockKind.A, 1, 2, 3, WeightModel(3, 1, 1)) == 4


def test_cochain_weight_closed_form():
    # for the X-sourced blocks the weight is n + 2(s - i - j) + 1
    for n, m in product(range(1, 7), range(1, 5)):
        wm = WeightModel(n, m, 2)
        for i, j in combinations(range(1, n + 1), 2):
            for s in range(1, n + 1):
                assert cochain_weight(BlockKind.A, i, j, s, wm) == n + 2 * (s - i - j) + 1
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                for s in range(1, m + 1):
                    assert cochain_weight(BlockKind.B, i, j, s, wm) == n + 2 * (s - i - j) + 1


def test_count_examples():
    assert count_weight_dim(BlockKind.A, 2, 1, 1) == 1
    assert count_weight_dim(BlockKind.B, 3, 1, 1) == 1
    assert count_weight_dim(BlockKind.A, 1, 1, 1) == 0


def test_count_tolerates_empty_components():
    assert count_weight_dim(BlockKind.B, 3, 0, 2) == 0
    assert count_weight_dim(BlockKind.C, 3, 2, 0) == 0


@pytest.mark.parametrize("block", [BlockKind.A, BlockKind.B, BlockKind.C])
@pytest.mark.parametrize("nmp", [(0, 1, 1), (2, -1, 1), (2, 1, -1)])
def test_count_rejects_invalid_params(block, nmp):
    # the closed forms reject these points; the oracle must not count them
    with pytest.raises(ValueError, match="need n >= 1"):
        count_weight_dim(block, *nmp)


def test_weight_parity_matches_n():
    for n, m, p in product(range(1, 8), range(1, 5), range(1, 5)):
        wm = WeightModel(n, m, p)
        want = (n + 1) % 2
        for i, j in combinations(range(1, n + 1), 2):
            for s in range(1, n + 1):
                assert cochain_weight(BlockKind.A, i, j, s, wm) % 2 == want
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                for s in range(1, m + 1):
                    assert cochain_weight(BlockKind.B, i, j, s, wm) % 2 == want
            for j in range(1, p + 1):
                for s in range(1, p + 1):
                    assert cochain_weight(BlockKind.C, i, j, s, wm) % 2 == want


def test_b_c_symmetry():
    for n, m, p in product(range(1, 8), range(0, 5), range(0, 5)):
        assert count_weight_dim(BlockKind.C, n, m, p) == count_weight_dim(BlockKind.B, n, p, m)


def test_index_validation():
    wm = WeightModel(3, 2, 1)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.A, 1, 4, 1, wm)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.B, 1, 3, 1, wm)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.A, 1, 2, 0, wm)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.D, 1, 2, 1, wm)
    with pytest.raises(IndexOutOfRange):
        count_weight_dim(BlockKind.E, 2, 2, 2)
