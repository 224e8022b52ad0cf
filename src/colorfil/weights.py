"""Weight-counting oracle for the A, B, C blocks.

The adjoint action of the characteristic vector X_0 shifts each chain
like the raising operator of a rank-1 triple (X-, H, X+), so each chain
of length d carries the weights -d+1, -d+3, ..., d-1 (the t-th element
has weight -d+2t-1).  A basis cochain phi^s_{i,j} is a weight vector of
weight lambda(target_s) - lambda(source_i) - lambda(source_j), and the
cocycles of the A, B, C blocks are spanned by the basis maps of weight
0 or 1: every irreducible summand contributes exactly one such vector.
Counting those maps is therefore an oracle for the block dimensions,
fully independent of any elimination.

For the X-sourced blocks the weight equals n + 2(s - i - j) + 1, so its
parity is the parity of n + 1: weight-1 maps occur for even n, weight-0
maps for odd n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .cohomology import BlockKind


class IndexOutOfRange(ValueError):
    """A cochain index outside the block's legal range."""


def weight_sequence(d: int) -> list:
    """Weights of a chain of length d: -d+1, -d+3, ..., d-1."""
    return [-d + 2 * t - 1 for t in range(1, d + 1)]


@dataclass(frozen=True)
class WeightModel:
    """Chain weights of the three graded components of a model algebra.

    Each sequence is computed once per model, on first use.
    """

    n: int
    m: int
    p: int

    @cached_property
    def seq_V0(self) -> list:
        return weight_sequence(self.n)

    @cached_property
    def seq_V1(self) -> list:
        return weight_sequence(self.m)

    @cached_property
    def seq_V2(self) -> list:
        return weight_sequence(self.p)

    def component(self, degree: int) -> list:
        return (self.seq_V0, self.seq_V1, self.seq_V2)[degree]


_ORACLE_BLOCKS = (BlockKind.A, BlockKind.B, BlockKind.C)


def cochain_weight(block: BlockKind, i: int, j: int, s: int, wm: WeightModel) -> int:
    """Weight of the basis map phi^s_{i,j} of an X-sourced block.

    lambda(target_s) - lambda(source_i) - lambda(source_j); for the
    A and B blocks this evaluates to n + 2(s - i - j) + 1.
    """
    if block not in _ORACLE_BLOCKS:
        raise IndexOutOfRange(f"weight oracle covers blocks A, B, C, not {block.name}")
    g1, g2 = block.source_degrees
    seq1, seq2 = wm.component(g1), wm.component(g2)
    tgt = wm.component(block.target_degree)
    for name, idx, seq in (("i", i, seq1), ("j", j, seq2), ("s", s, tgt)):
        if not 1 <= idx <= len(seq):
            raise IndexOutOfRange(f"index {name}={idx} out of range for block {block.name}")
    return tgt[s - 1] - seq1[i - 1] - seq2[j - 1]


def count_weight_dim(block: BlockKind, n: int, m: int, p: int) -> int:
    """Number of basis maps of the block with weight 0 or 1.

    For block A the source pairs are unordered (i < j, skew-symmetry);
    for B and C all (i, j) pairs are counted.  Empty components simply
    contribute no maps.
    """
    if n < 1 or m < 0 or p < 0:
        raise ValueError(f"need n >= 1 and m, p >= 0, got ({n}, {m}, {p})")
    wm = WeightModel(n, m, p)
    if block is BlockKind.A:
        pairs = combinations(range(1, n + 1), 2)
        tgt_count = n
    elif block is BlockKind.B:
        pairs = ((i, j) for i in range(1, n + 1) for j in range(1, m + 1))
        tgt_count = m
    elif block is BlockKind.C:
        pairs = ((i, j) for i in range(1, n + 1) for j in range(1, p + 1))
        tgt_count = p
    else:
        raise IndexOutOfRange(f"weight oracle covers blocks A, B, C, not {block.name}")
    count = 0
    for i, j in pairs:
        for s in range(1, tgt_count + 1):
            if cochain_weight(block, i, j, s, wm) in (0, 1):
                count += 1
    return count
