"""Weight-counting oracle for the six blocks.

The adjoint action of the characteristic vector X_0 shifts each chain
like the raising operator of a rank-1 triple (X-, H, X+), so each chain
of length d carries the weights -d+1, -d+3, ..., d-1 (the t-th element
has weight -d+2t-1).  A basis cochain phi^s_{i,j} is a weight vector of
weight lambda(target_s) - lambda(source_i) - lambda(source_j).  In the
model only X_0 brackets nonzero, and cochains neither take X_0 as an
argument nor hit it, so every cocycle condition reduces to
X_0-equivariance: the cocycles of a block are the kernel of the
nilpotent X_0-action on its Hom space.  Each irreducible summand of
that space contributes exactly one basis map of weight 0 or 1.
Counting those maps is therefore an oracle for every block dimension,
independent of any elimination and of the assembler's basis layout.

For the X-sourced blocks the weight equals n + 2(s - i - j) + 1, so its
parity is the parity of n + 1: weight-1 maps occur for even n, weight-0
maps for odd n.
"""

from __future__ import annotations

from itertools import combinations, product

from .algebra import check_params
from .cohomology import BlockKind


class IndexOutOfRange(ValueError):
    """A cochain index outside the block's legal range."""


def weight_sequence(d: int) -> list:
    """Weights of a chain of length d: -d+1, -d+3, ..., d-1."""
    return [-d + 2 * t - 1 for t in range(1, d + 1)]


def cochain_weight(block: BlockKind, i: int, j: int, s: int, nmp: tuple) -> int:
    """Weight of the basis map phi^s_{i,j} of a block on the model (n, m, p).

    lambda(target_s) - lambda(source_i) - lambda(source_j); for the
    A and B blocks this evaluates to n + 2(s - i - j) + 1.
    """
    g1, g2 = block.source_degrees
    seq1, seq2, tgt = (weight_sequence(nmp[g]) for g in (g1, g2, block.target_degree))
    for name, idx, seq in (("i", i, seq1), ("j", j, seq2), ("s", s, tgt)):
        if not 1 <= idx <= len(seq):
            raise IndexOutOfRange(f"index {name}={idx} out of range for block {block.name}")
    return tgt[s - 1] - seq1[i - 1] - seq2[j - 1]


def count_weight_dim(block: BlockKind, n: int, m: int, p: int) -> int:
    """Number of basis maps of the block with weight 0 or 1.

    A source pair of weights (w1, w2) has such a map for each target of
    weight w1 + w2 or w1 + w2 + 1.  The source pairs are unordered
    (i < j, skew-symmetry) when both sources lie in one component, all
    (i, j) otherwise.  Empty components simply contribute no maps.
    """
    check_params(n, m, p)
    seq = [weight_sequence(d) for d in (n, m, p)]
    g1, g2 = block.source_degrees
    if g1 == g2:
        pairs = combinations(seq[g1], 2)
    else:
        pairs = product(seq[g1], seq[g2])
    targets = set(seq[block.target_degree])
    return sum((w1 + w2 in targets) + (w1 + w2 + 1 in targets) for w1, w2 in pairs)
