"""Weight bookkeeping and the counting oracle for the six blocks."""

from itertools import combinations, product

import pytest

from colorfil.cohomology import ALL_BLOCKS, BlockKind
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
    # the closed forms at (3, 2, 2): D = F = 1, E = 4
    assert count_weight_dim(BlockKind.D, 3, 2, 2) == 1
    assert count_weight_dim(BlockKind.E, 3, 2, 2) == 4
    assert count_weight_dim(BlockKind.F, 3, 2, 2) == 1


def _basis_maps(block, n, m, p):
    """(i, j, s) of every basis map of the block, enumerated here."""
    sizes = (n, m, p)
    g1, g2 = block.source_degrees
    sources = [range(1, sizes[g] + 1) for g in (g1, g2)]
    pairs = combinations(sources[0], 2) if g1 == g2 else product(*sources)
    return [(i, j, s) for i, j in pairs for s in range(1, sizes[block.target_degree] + 1)]


def test_count_equals_weight_0_or_1_basis_maps():
    # the count reads the weight sequences directly; cochain_weight,
    # map by map, must select the same number of basis maps
    for n, m, p in product(range(1, 7), range(0, 5), range(0, 5)):
        wm = WeightModel(n, m, p)
        for block in ALL_BLOCKS:
            want = sum(cochain_weight(block, i, j, s, wm) in (0, 1)
                       for i, j, s in _basis_maps(block, n, m, p))
            assert count_weight_dim(block, n, m, p) == want, (block, n, m, p)


def test_count_tolerates_empty_components():
    assert count_weight_dim(BlockKind.B, 3, 0, 2) == 0
    assert count_weight_dim(BlockKind.C, 3, 2, 0) == 0
    for block in (BlockKind.D, BlockKind.E, BlockKind.F):
        assert count_weight_dim(block, 3, 0, 0) == 0
    # the closed form for E reads -1 here; the count is the true 0
    assert count_weight_dim(BlockKind.E, 2, 0, 0) == 0


@pytest.mark.parametrize("block", ALL_BLOCKS)
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
    # swapping m and p swaps B with C and D with F, and fixes A and E
    mirror = {"A": "A", "B": "C", "C": "B", "D": "F", "E": "E", "F": "D"}
    for n, m, p in product(range(1, 8), range(0, 5), range(0, 5)):
        for block in ALL_BLOCKS:
            assert count_weight_dim(block, n, m, p) == \
                count_weight_dim(BlockKind[mirror[block.name]], n, p, m), (block, n, m, p)


def test_index_validation():
    wm = WeightModel(3, 2, 1)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.A, 1, 4, 1, wm)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.B, 1, 3, 1, wm)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.A, 1, 2, 0, wm)
    # D: L1 x L1 -> L2, E: L1 x L2 -> L0, F: L2 x L2 -> L1 at (m, p) = (2, 1)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.D, 1, 2, 2, wm)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.E, 1, 2, 1, wm)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.E, 1, 1, 4, wm)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.F, 1, 1, 3, wm)
    with pytest.raises(IndexOutOfRange):
        cochain_weight(BlockKind.F, 0, 1, 1, wm)
    assert cochain_weight(BlockKind.D, 1, 2, 1, wm) == 0
    assert cochain_weight(BlockKind.E, 2, 1, 3, wm) == 1
