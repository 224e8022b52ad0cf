"""Weight-counting oracle for the six blocks.

The adjoint action of the characteristic vector X_0 shifts each chain
like the raising operator of a rank-1 triple (X-, H, X+), so a chain of
length d is the irreducible sl_2-module V_d.  In the model only X_0
brackets nonzero, and cochains neither take X_0 as an argument nor hit
it, so every cocycle condition reduces to X_0-equivariance: the
cocycles of a block are the kernel of the nilpotent X_0-action on its
Hom space, one per irreducible summand of that space.

A block maps a source S (V_a (x) V_b for two chains, or the exterior
square of V_a for one) to the target chain V_c, and V_k (x) V_c has
min(k, c) summands, so the block dimension is sum(min(k, c)) over the
summands V_k of S (Fulton-Harris, Representation Theory, section 11):

    V_a (x) V_b = V_{|a-b|+1} + V_{|a-b|+3} + ... + V_{a+b-1}
    Lambda^2 V_a = V_{2a-3} + V_{2a-7} + ...

An empty chain has no summands.  The count needs no elimination and
no basis layout, so it is an oracle for every block dimension.
"""

from __future__ import annotations

from .algebra import check_params
from .cohomology import BlockKind


def count_weight_dim(block: BlockKind, n: int, m: int, p: int) -> int:
    """Number of sl_2 summands of the block's Hom space: its dimension."""
    check_params(n, m, p)
    lengths = (n, m, p)
    g1, g2 = block.source_degrees
    a, b, c = lengths[g1], lengths[g2], lengths[block.target_degree]
    if g1 == g2:
        summands = range(2 * a - 3, 0, -4)
    else:
        summands = range(abs(a - b) + 1, a + b, 2)
    return sum(min(k, c) for k in summands)
