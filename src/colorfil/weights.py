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
from typing import NamedTuple

from .cohomology import BlockKind


class IndexOutOfRange(ValueError):
    """A cochain index outside the block's legal range."""


def weight_sequence(d: int) -> list:
    """Weights of a chain of length d: -d+1, -d+3, ..., d-1."""
    return [-d + 2 * t - 1 for t in range(1, d + 1)]


class WeightModel(NamedTuple):
    """Chain lengths of the three graded components of a model algebra."""

    n: int
    m: int
    p: int

    def component(self, degree: int) -> list:
        """Chain weights of the degree-`degree` component."""
        return weight_sequence(self[degree])


def cochain_weight(block: BlockKind, i: int, j: int, s: int, wm: WeightModel) -> int:
    """Weight of the basis map phi^s_{i,j} of a block.

    lambda(target_s) - lambda(source_i) - lambda(source_j); for the
    A and B blocks this evaluates to n + 2(s - i - j) + 1.
    """
    g1, g2 = block.source_degrees
    seq1, seq2 = wm.component(g1), wm.component(g2)
    tgt = wm.component(block.target_degree)
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
    if n < 1 or m < 0 or p < 0:
        raise ValueError(f"need n >= 1 and m, p >= 0, got ({n}, {m}, {p})")
    wm = WeightModel(n, m, p)
    g1, g2 = block.source_degrees
    if g1 == g2:
        pairs = combinations(wm.component(g1), 2)
    else:
        pairs = product(wm.component(g1), wm.component(g2))
    targets = set(wm.component(block.target_degree))
    return sum((w1 + w2 in targets) + (w1 + w2 + 1 in targets) for w1, w2 in pairs)
