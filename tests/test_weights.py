"""Weight bookkeeping and the counting oracle for the six blocks."""

from itertools import combinations, product

import pytest

from colorfil.algebra import InvalidParams
from colorfil.cohomology import ALL_BLOCKS, BlockKind
from colorfil.weights import count_weight_dim


def _map_weight(block, i, j, s, nmp):
    """Weight of phi^s_{i,j}: lambda(target_s) - lambda(source_i) - lambda(source_j).

    The t-th element of a chain of length d has weight -d + 2t - 1.
    """
    (g1, g2), g = block.source_degrees, block.target_degree
    return (-nmp[g] + 2 * s - 1) - (-nmp[g1] + 2 * i - 1) - (-nmp[g2] + 2 * j - 1)


def test_cochain_weight_closed_form():
    # for the X-sourced blocks the weight is n + 2(s - i - j) + 1
    for n, m in product(range(1, 7), range(1, 5)):
        nmp = (n, m, 2)
        for i, j in combinations(range(1, n + 1), 2):
            for s in range(1, n + 1):
                assert _map_weight(BlockKind.A, i, j, s, nmp) == n + 2 * (s - i - j) + 1
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                for s in range(1, m + 1):
                    assert _map_weight(BlockKind.B, i, j, s, nmp) == n + 2 * (s - i - j) + 1


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
    # each sl_2 summand holds exactly one basis map of weight 0 or 1, so
    # the summand sum must select as many maps as the weights, map by map
    for n, m, p in product(range(1, 7), range(0, 5), range(0, 5)):
        nmp = (n, m, p)
        for block in ALL_BLOCKS:
            want = sum(_map_weight(block, i, j, s, nmp) in (0, 1)
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
    message = "n must be >= 1" if nmp[0] < 1 else "m and p must be >= 0"
    with pytest.raises(InvalidParams, match=message):
        count_weight_dim(block, *nmp)


def test_weight_parity_matches_n():
    for n, m, p in product(range(1, 8), range(1, 5), range(1, 5)):
        nmp = (n, m, p)
        want = (n + 1) % 2
        for i, j in combinations(range(1, n + 1), 2):
            for s in range(1, n + 1):
                assert _map_weight(BlockKind.A, i, j, s, nmp) % 2 == want
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                for s in range(1, m + 1):
                    assert _map_weight(BlockKind.B, i, j, s, nmp) % 2 == want
            for j in range(1, p + 1):
                for s in range(1, p + 1):
                    assert _map_weight(BlockKind.C, i, j, s, nmp) % 2 == want


def test_b_c_symmetry():
    # swapping m and p swaps B with C and D with F, and fixes A and E
    mirror = {"A": "A", "B": "C", "C": "B", "D": "F", "E": "E", "F": "D"}
    for n, m, p in product(range(1, 8), range(0, 5), range(0, 5)):
        for block in ALL_BLOCKS:
            assert count_weight_dim(block, n, m, p) == \
                count_weight_dim(BlockKind[mirror[block.name]], n, p, m), (block, n, m, p)
