"""Degree-0 two-cocycles and their six-block decomposition.

The algebras here are Z_3-graded Lie algebras: over the rationals the
only commutation factor on Z_3 is the trivial one, so no sign twists
the bracket.  For such an algebra shaped like the model (components of
dimension n+1, m, p with characteristic vector X_0), the space of
infinitesimal deformations is the space of degree-0 2-cocycles that
vanish on X_0.  It splits into six blocks by source/target signature:

    A: Hom(L0 ^ L0, L0)     B: Hom(L0 ^ L1, L1)   C: Hom(L0 ^ L2, L2)
    D: Hom(L1 ^ L1, L2)     E: Hom(L1 ^ L2, L0)   F: Hom(L2 ^ L2, L1)

these being exactly the signatures whose degree balance is 0 mod 3.
X_0 never appears as a source argument, and is additionally excluded
from the targets of the two L0-valued blocks A and E (pass
`allow_x0_target=True` to readmit it there).  `_index_ranges` is the
one statement of this X_0 rule.

A degree-0 cochain has the shape of a law, so a `Cochain2` holds its
values as one: `Cochain2.law` is the `ColorLieAlgebra` whose structure
constants are psi's values, and the deformed law mu0 + phi is the sum
of two such tables.  The block-wise basis maps phi^s_{i,j} (the matrix
columns, `ColumnKey`) address it through `ColorLieAlgebra.global_index`.

The cocycle identity is the mixed Jacobiator of mu and psi:

    (d2 psi)(A0,A1,A2) = [A0,psi(A1,A2)] - [A1,psi(A0,A2)] + [A2,psi(A0,A1)]
                         - psi([A0,A1],A2) + psi([A0,A2],A1) + psi(A0,[A1,A2])
                       = -(J(mu, psi) + J(psi, mu))(A0,A1,A2)

with J(inner, outer) = `algebra.jacobiator`, the function that also
checks the Jacobi identity.  `delta2` and `cocycle_defect` evaluate it
that way; `assemble_Z2_system` turns d2 psi = 0 into one sparse integer
constraint matrix: one row per nonzero (basis
triple, target component) instance, one column per basis cochain.  The
ten classical condition families are the ten degree shapes of the
triple; the enumeration is generic, so the assembler validates cocycles
on any Z_3-graded Lie algebra.  Every term of the identity holds a
nonzero bracket, so `_term_sums` generates each term from the bracket
it holds (the algebra's `bracket_index`) and sums it into its triple:
[x, psi(a, b)] where x brackets nonzero with a target of the block of
(a, b), psi([x, y], z) where a component of a stored bracket [x, y]
forms a source pair with z.  Every other triple has only zero rows; in
the model, where only X_0 acts, the reached triples are O(dim^2).

`_term_sums` is the one row source.  It reads the terms from
`algebra.integral_law`, so its rows are integral as made, and drops
what cancels.  `assemble_Z2_system` builds the library's matrix
(`ConstraintSystem`) from these rows.  The brute force and the export
call it over one block at a time and take its rows as made, with no
matrix: `cocycle_basis` solves one block's rows with `kernel_basis`
and checks every vector against them, and `block_dims` ranks each
block's rows once; a block's dimension is its column count minus that
rank.  The export writes the checked basis as stored, integer
numerators over one denominator per vector (`write_cocycle_basis`);
`cocycle_basis_json` is the same basis as a document of dicts.  Each
entry lives in one column and each column in one block, so a block's
rows are exactly the joint rows restricted to it.
A joint row spans blocks exactly when its (triple, target) is reached
by the sums of two blocks.  In the model no row does, so the six-block
decomposition holds by structure.  When a row does (a law with
[Y, Y] != 0 couples blocks B and C), the joint rows are made and ranked
as well, and a difference raises DecompositionMismatch.
"""

from __future__ import annotations

import reprlib
from enum import Enum
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping, NamedTuple

from .algebra import ColorLieAlgebra, Vector, integral_law, jacobiator, reached_triples
from .linalg import KernelBasis, SparseIntMatrix, kernel_basis, nullity, rank_certified
from .scalars import add_into, as_coeff, as_int, ratio_str


class DecompositionMismatch(ArithmeticError):
    """Joint kernel dimension differs from the sum over blocks."""


class KernelMismatch(ArithmeticError):
    """A computed kernel basis vector fails M v = 0."""


class BlockKind(Enum):
    """The six degree-0 blocks, keyed by (source degrees, target degree)."""

    A = ((0, 0), 0)
    B = ((0, 1), 1)
    C = ((0, 2), 2)
    D = ((1, 1), 2)
    E = ((1, 2), 0)
    F = ((2, 2), 1)

    @property
    def source_degrees(self) -> tuple:
        return self.value[0]

    @property
    def target_degree(self) -> int:
        return self.value[1]

    @property
    def same_family(self) -> bool:
        g1, g2 = self.source_degrees
        return g1 == g2


_BLOCK_BY_SOURCE = {kind.source_degrees: kind for kind in BlockKind}


def block_named(name) -> BlockKind:
    """The block with letter `name`; ValueError naming it otherwise."""
    try:
        return BlockKind[str(name)]
    except KeyError:
        raise ValueError(f"unknown block {reprlib.repr(str(name))} (A-F)") from None


ALL_BLOCKS = tuple(BlockKind)

# Condition family (1)-(10), keyed by the ascending degree shape of the triple.
CONDITION_BY_SHAPE = {
    (0, 0, 0): 1, (0, 0, 1): 2, (0, 0, 2): 3, (0, 1, 1): 4, (0, 1, 2): 5,
    (0, 2, 2): 6, (1, 1, 1): 7, (1, 1, 2): 8, (1, 2, 2): 9, (2, 2, 2): 10,
}


class ColumnKey(NamedTuple):
    block: BlockKind
    i: int
    j: int
    s: int


class RowLabel(NamedTuple):
    condition: int
    triple: tuple
    target: str


def model_shape(alg: ColorLieAlgebra) -> tuple:
    """(n, m, p) of a model-shaped algebra; validates the shape."""
    if alg.dims[0] < 1:
        raise ValueError("degree-0 component must contain the characteristic vector X0")
    return alg.dims[0] - 1, alg.dims[1], alg.dims[2]


def _index_ranges(nmp: tuple, allow_x0_target: bool) -> tuple:
    """(source, target) family index ranges per degree: the X_0 rule.

    X_0 (index 0 of the degree-0 family) is never a source, and is a
    target only when `allow_x0_target` admits it.
    """
    n, m, p = nmp
    rest = (range(1, m + 1), range(1, p + 1))
    target = range(0 if allow_x0_target else 1, n + 1)
    return (range(1, n + 1), *rest), (target, *rest)


class Cochain2:
    """An immutable sparse degree-0 2-cochain on a model-shaped algebra.

    Its values are a law: `law` is the `ColorLieAlgebra` whose structure
    constants are psi(e_a, e_b), so psi is evaluated like a bracket.  The
    block-wise interface addresses the basis map phi^s_{i,j} of a block
    by family indices: same-family source pairs with i < j, mixed pairs
    with the lower-degree family first, in the ranges of `_index_ranges`.
    A law set directly (`delta1`) may take X_0 as a source:
    `has_x0_source` tells.

    `coeffs` (a mapping, or an iterable of (ColumnKey, coeff) pairs) may
    name each basis map once: a repeat, or the swapped pair of an
    alternating block, raises ValueError instead of summing.
    """

    def __init__(self, alg: ColorLieAlgebra, coeffs: Mapping | Iterable | None = None,
                 allow_x0_target: bool = False):
        self.alg = alg
        self._sources, self._targets = _index_ranges(model_shape(alg), allow_x0_target)
        if isinstance(coeffs, Mapping):
            coeffs = coeffs.items()
        table: dict = {}  # (a, b), a < b -> {t: coeff}
        named: set = set()  # named once, so each value is set, not summed
        for (block, i, j, s), c in coeffs or ():
            a, b, t, sign = self._locate(block, i, j, s)
            c = as_coeff(c)
            if (a, b, t) in named:
                raise ValueError(f"cochain names the basis map of block {block.name} "
                                 f"at i={i}, j={j}, s={s} twice")
            named.add((a, b, t))
            if c:
                table.setdefault((a, b), {})[t] = sign * c
        self.law = ColorLieAlgebra(alg.dims, table)

    def _locate(self, block: BlockKind, i: int, j: int, s: int) -> tuple:
        """Global (a, b, t) of phi^s_{i,j} with a < b, and the swap sign.

        Raises ValueError for an index that is not an int (a bool or a
        float too), a diagonal pair or an index outside the family ranges.
        """
        i, j, s = as_int(i, "i"), as_int(j, "j"), as_int(s, "s")
        sign = 1
        if block.same_family:
            if i == j:
                raise ValueError(f"diagonal source pair ({i},{i}) in alternating block {block.name}")
            if i > j:
                i, j, sign = j, i, -1
        g1, g2 = block.source_degrees
        if i not in self._sources[g1]:
            raise ValueError(f"source index i={i} out of range for block {block.name}")
        if j not in self._sources[g2]:
            raise ValueError(f"source index j={j} out of range for block {block.name}")
        if s not in self._targets[block.target_degree]:
            raise ValueError(f"target index s={s} out of range for block {block.name}")
        glob = self.alg.global_index
        return glob(g1, i), glob(g2, j), glob(block.target_degree, s), sign

    def items(self) -> Iterator:
        """Canonical (ColumnKey, coeff) pairs, deterministic order."""
        elem = self.alg.element
        out = []
        for a, b, slot in self.law.nonzero_constants():
            ea, eb = elem(a), elem(b)
            block = _BLOCK_BY_SOURCE[(ea.degree, eb.degree)]
            out.extend((ColumnKey(block, ea.index, eb.index, elem(t).index), c)
                       for t, c in slot.items())
        out.sort(key=lambda kc: (kc[0].block.name, kc[0][1:]))
        return iter(out)

    @property
    def has_x0_source(self) -> bool:
        return 0 in self.law.bracket_index

    def as_constant_additions(self) -> dict:
        """Values keyed by canonical global pairs, for deforming a law."""
        return {(a, b): vec for a, b, vec in self.law.nonzero_constants()}


def _block_bases(alg: ColorLieAlgebra, blocks: Iterable, allow_x0_target: bool) -> list:
    """(block, source index pairs, target indices) per requested block, by name."""
    sources, targets = _index_ranges(model_shape(alg), allow_x0_target)
    out = []
    for block in sorted(set(blocks), key=lambda b: b.name):
        g1, g2 = block.source_degrees
        if block.same_family:
            pairs = list(combinations(sources[g1], 2))
        else:
            pairs = list(product(sources[g1], sources[g2]))
        out.append((block, pairs, targets[block.target_degree]))
    return out


def cochain_columns(alg: ColorLieAlgebra, blocks: Iterable = ALL_BLOCKS,
                    allow_x0_target: bool = False) -> list:
    """Canonical cochain basis keys for the requested blocks, in order."""
    return [ColumnKey(block, i, j, s)
            for block, pairs, tgts in _block_bases(alg, blocks, allow_x0_target)
            for i, j in pairs for s in tgts]


class ConstraintSystem(NamedTuple):
    """Sparse encoding of the cocycle conditions for a set of blocks.

    The kernel of `matrix` (columns labelled by `col_keys`) is the
    requested part of the cocycle space.
    """

    matrix: SparseIntMatrix
    col_keys: tuple
    row_origins: tuple  # (ascending global basis triple, global target) per row
    alg: ColorLieAlgebra
    allow_x0_target: bool

    @property
    def row_labels(self) -> tuple:
        """RowLabel (condition family, triple labels, target label) per row."""
        label, degree = self.alg.label, self.alg.degree_of
        return tuple(RowLabel(CONDITION_BY_SHAPE[(degree(a), degree(b), degree(c))],
                              (label(a), label(b), label(c)), label(u))
                     for (a, b, c), u in self.row_origins)

    def nullity(self) -> int:
        return nullity(self.matrix)

    def kernel_cochains(self) -> list:
        """Kernel basis vectors converted to Cochain2 values."""
        out = []
        for vec in kernel_basis(self.matrix, self.matrix.n_cols).vectors:
            coeffs = {self.col_keys[c]: v for c, v in vec.items()}
            out.append(Cochain2(self.alg, coeffs, allow_x0_target=self.allow_x0_target))
        return out


def _term_sums(alg: ColorLieAlgebra, blocks: Iterable, allow_x0_target: bool) -> tuple:
    """([(block, column range)], {ascending triple: {target: {col: int}}}): the row source.

    Each term of d2 psi is generated from the nonzero bracket it holds
    (see the module docstring) in `integral_law(alg)`, so every entry is
    an int, and summed into its triple.  Entries that cancel to 0, and
    rows and triples that cancel whole, are dropped.
    """
    alg = integral_law(alg)
    cancelled = False  # no model sum cancels, so the model's rows are final as made
    ranges: list = []
    # psi lookup: element -> partner -> (first column, lowest target,
    # target count, sign).  A block's targets are consecutive global
    # indices, so target t of the pair sits in column first + t - lowest.
    pair_map: dict = {}
    index = alg.bracket_index
    sums: dict = {}
    glob = alg.global_index
    first = 0
    for block, pairs, targets in _block_bases(alg, blocks, allow_x0_target):
        (g1, g2), gt = block.source_degrees, block.target_degree
        lowest, count = glob(gt, targets.start), len(targets)
        span = range(lowest, lowest + count)
        # the actors: each x with [x, t] != 0 for a target t, and those t
        actors = {x: [(t - lowest, vec.items()) for t, vec in index[x].items() if t in span]
                  for x in {x for t in span for x in index.get(t, ())}}
        start = first
        for i, j in pairs:
            a, b = glob(g1, i), glob(g2, j)
            pair_map.setdefault(a, {})[b] = (first, lowest, count, 1)
            pair_map.setdefault(b, {})[a] = (first, lowest, count, -1)
            # [x, psi(a, b)] with sign -1 exactly when a < x < b
            for x, reach in actors.items():
                if x == a or x == b:
                    continue
                if x < a:
                    triple, sign = (x, a, b), 1
                elif x < b:
                    triple, sign = (a, x, b), -1
                else:
                    triple, sign = (a, b, x), 1
                acc = sums.get(triple)  # get-or-create: setdefault would build a dict per call
                if acc is None:
                    acc = sums[triple] = {}
                # each (triple, target, column) meets one term in this loop (the
                # column names the pair and t, the triple then x): stored, not summed
                for k, items in reach:
                    col = first + k
                    for u, cb in items:
                        row = acc.get(u)
                        if row is None:
                            acc[u] = {col: sign * cb}
                        else:
                            row[col] = sign * cb
            first += count
        ranges.append((block, range(start, first)))
    # psi([x, y], z) with sign +1 exactly when x < z < y; psi(z, t)
    # enters through the pair orientation s
    for x, y, vec in alg.nonzero_constants():
        for t, cb in vec.items():
            for z, (col, lowest, count, s) in pair_map.get(t, {}).items():
                if z == x or z == y:
                    continue
                if z < x:
                    triple, value = (z, x, y), -cb * s
                elif z < y:
                    triple, value = (x, z, y), cb * s
                else:
                    triple, value = (x, y, z), -cb * s
                acc = sums.get(triple)
                if acc is None:
                    acc = sums[triple] = {}
                for u in range(lowest, lowest + count):
                    row = acc.get(u)
                    if row is None:
                        acc[u] = {col: value}
                    else:
                        row[col] = total = row.get(col, 0) + value
                        if not total:  # only a sum can cancel, and only this loop sums
                            cancelled = True
                    col += 1
    if cancelled:
        kept = {}
        for triple, acc in sums.items():
            rows = ((u, {c: v for c, v in row.items() if v}) for u, row in acc.items())
            if acc := {u: row for u, row in rows if row}:
                kept[triple] = acc
        sums = kept
    return ranges, sums


def assemble_Z2_system(alg: ColorLieAlgebra, blocks: Iterable = ALL_BLOCKS,
                       allow_x0_target: bool = False) -> ConstraintSystem:
    """Constraint matrix whose kernel is the cocycle space of the blocks.

    One row per nonzero (basis triple, target) sum of `_term_sums`,
    in the order the sums are generated; `row_origins` names the
    ascending triple and the target of each.  A triple no term reaches
    has only zero rows, so the rows are those of a walk over all
    C(dim, 3) triples, up to order and scaling, which leave the kernel
    and its canonical basis untouched.
    """
    _, sums = _term_sums(alg, blocks, allow_x0_target)
    rows = [row for acc in sums.values() for row in acc.values()]
    origins = tuple((triple, u) for triple, acc in sums.items() for u in acc)
    cols = cochain_columns(alg, blocks, allow_x0_target=allow_x0_target)
    matrix = SparseIntMatrix(len(rows), len(cols), rows)
    return ConstraintSystem(matrix=matrix, col_keys=tuple(cols), row_origins=origins,
                            alg=alg, allow_x0_target=allow_x0_target)


def _restrict_to_block(system: ConstraintSystem, block: BlockKind) -> SparseIntMatrix:
    """Rows of the joint system projected onto one block's columns.

    Identical to assembling the block alone: every matrix contribution
    lands in the column of the cochain value it multiplies, so dropping
    the other blocks' columns is exactly the single-block system.
    """
    keep = [idx for idx, key in enumerate(system.col_keys) if key.block is block]
    renum = {old: new for new, old in enumerate(keep)}
    rows = []
    for row in system.matrix.rows:
        sub = tuple((renum[c], v) for c, v in row if c in renum)
        if sub:
            rows.append(sub)
    return SparseIntMatrix(len(rows), len(keep), rows)


def block_dims(alg: ColorLieAlgebra, allow_x0_target: bool = False) -> dict:
    """Per-block cocycle dimensions, ranked straight from `_term_sums`.

    Each block's rows come from a call over that block alone, scaled
    once for all calls, ranked as made and released before the next
    block's: only the target indices each triple reached are kept.  The
    joint rows are made and ranked only when a (triple, target) is
    reached by two blocks (the module docstring's spanning rule).
    """
    alg = integral_law(alg)
    dims = dict.fromkeys(ALL_BLOCKS, 0)
    reached: dict = {}  # triple -> the targets of its rows, over the blocks so far
    spanning = False
    for block, pairs, tgts in _block_bases(alg, ALL_BLOCKS, allow_x0_target):
        width = len(pairs) * len(tgts)
        if not width:  # no columns: no rows are made, dimension 0
            continue
        _, sums = _term_sums(alg, (block,), allow_x0_target)
        for triple, acc in sums.items():
            targets = reached.get(triple, ())
            spanning = spanning or not acc.keys().isdisjoint(targets)
            reached[triple] = (*targets, *acc)
        dims[block] = width - rank_certified([row for acc in sums.values()
                                              for row in acc.values()])
        sums = acc = None  # release this block's rows before the next block's are made
    if spanning:
        ranges, sums = _term_sums(alg, ALL_BLOCKS, allow_x0_target)
        joint = [row for acc in sums.values() for row in acc.values()]
        total = sum(len(cols) for _, cols in ranges) - rank_certified(joint)
        if total != sum(dims.values()):
            raise DecompositionMismatch(
                f"joint kernel dimension {total} != block sum {sum(dims.values())} "
                f"at dims {alg.dims}")
    return dims


def _check_cochain_of(alg: ColorLieAlgebra, psi: Cochain2) -> None:
    """ValueError unless psi was built on an algebra of `alg`'s dims."""
    if psi.alg.dims != alg.dims:
        raise ValueError(f"cochain built on dims {psi.alg.dims} given for an algebra "
                         f"of dims {alg.dims}")


def delta2(alg: ColorLieAlgebra, psi: Cochain2, triple) -> Vector:
    """(d2 psi) at three basis elements, each a label or an index: -(J(mu, psi) + J(psi, mu)).

    Any other entry (an out-of-range index, a bool, a vector), or a psi
    built on an algebra of other dims, raises ValueError naming it.
    """
    _check_cochain_of(alg, psi)
    abc = []
    for entry in triple:
        try:  # an index in range, else a label: index raises KeyError for anything else
            abc.append(entry if type(entry) is int and 0 <= entry < alg.dim else alg.index(entry))
        except KeyError:
            raise ValueError(f"delta2 takes basis labels or indices 0..{alg.dim - 1}, "
                             f"got {reprlib.repr(entry)}") from None
    return _delta2(alg, psi.law, *abc)


def _delta2(alg: ColorLieAlgebra, law: ColorLieAlgebra, a: int, b: int, c: int) -> Vector:
    out = jacobiator(alg, law, a, b, c)
    for t, v in jacobiator(law, alg, a, b, c).items():
        add_into(out, t, v)
    return {t: -v for t, v in out.items()}


def cocycle_defect(alg: ColorLieAlgebra, psi: Cochain2):
    """The first ascending basis triple where d2 psi is nonzero, with that value.

    Returns None for a cocycle.  A term [x, psi(y, z)] of the six-term
    identity is reached by psi's values against the bracket, and a term
    psi([x, y], z) by the bracket against psi's values
    (`reached_triples`).  Only those triples are evaluated, in ascending
    order: d2 psi is zero at every other triple, so the answer is the
    one a walk over all C(dim, 3) triples would give.  The rule reads
    psi's values and the stored brackets only, not the matrix assembly,
    so this re-verifies kernel vectors by a separate route.  A psi built
    on an algebra of other dims raises ValueError.
    """
    _check_cochain_of(alg, psi)
    law = psi.law
    for triple in sorted(reached_triples(law, alg) | reached_triples(alg, law)):
        value = _delta2(alg, law, *triple)
        if value:
            return triple, value
    return None


def is_cocycle(alg: ColorLieAlgebra, psi: Cochain2) -> bool:
    """Whether d2 psi = 0, checked directly by `cocycle_defect`.

    Only the triples a value of psi or a stored bracket reaches are
    evaluated; d2 psi vanishes at every other triple.
    """
    return cocycle_defect(alg, psi) is None


def delta1(alg: ColorLieAlgebra, g_map: Mapping) -> Cochain2:
    """Coboundary of a degree-0 linear map g, X_0 sources and targets included.

    g is given as {basis index or label: sparse vector}; missing basis
    elements map to zero.  The result satisfies d2(d1 g) = 0.  Its law is
    set directly, past the X_0 rule of the block-wise constructor.
    """
    gm: dict = {}
    for key, vec in g_map.items():
        (idx,) = alg.vector(key)  # a label or an in-range index
        vec = alg.vector(vec)
        for t in vec:
            if alg.degree_of(t) != alg.degree_of(idx):
                raise ValueError("delta1 requires a degree-0 (grading-preserving) map")
        gm[idx] = vec

    table: dict = {}
    for a, b in combinations(range(alg.dim), 2):  # [a, g b] + [g a, b] - g([a, b])
        vec = alg.bracket({a: 1}, gm.get(b, {}))
        for t, v in alg.bracket(gm.get(a, {}), {b: 1}).items():
            add_into(vec, t, v)
        for i, c in alg.bracket_index.get(a, {}).get(b, {}).items():
            for t, v in gm.get(i, {}).items():
                add_into(vec, t, -c * v)
        if vec:
            table[(a, b)] = vec
    result = Cochain2(alg)
    result.law = ColorLieAlgebra(alg.dims, table)
    return result


# -- serialization ------------------------------------------------------


class CocycleBasis(NamedTuple):
    """One block's verified kernel basis, with the (i, j, s) of each column.

    `columns[c]` names the basis map phi^s_{i,j} of column c, in
    `cochain_columns` order; `kernel` is the `KernelBasis` over those
    columns, every vector checked against the block's rows.
    """

    block: BlockKind
    n: int
    m: int
    p: int
    columns: tuple
    kernel: KernelBasis


def cocycle_basis(alg: ColorLieAlgebra, block: BlockKind,
                  allow_x0_target: bool = False) -> CocycleBasis:
    """The canonical kernel basis of one block, checked before it is returned.

    Solves the block's rows of `_term_sums` as they are, the rows
    `block_dims` ranks, with no `ConstraintSystem` or `SparseIntMatrix`
    between; the columns are the (i, j, s) maps of `_block_bases`, in
    `cochain_columns` order.  Every vector is checked against those same
    rows (M v = 0); a failure raises KernelMismatch, so nothing built
    from the result is ever written unchecked.
    """
    n, m, p = model_shape(alg)
    _, sums = _term_sums(alg, {block}, allow_x0_target)
    rows = [row for acc in sums.values() for row in acc.values()]
    ((_, pairs, targets),) = _block_bases(alg, {block}, allow_x0_target)
    columns = tuple((i, j, s) for i, j in pairs for s in targets)
    kernel = kernel_basis(rows, len(columns))
    if not kernel.verify(rows):
        raise KernelMismatch(
            f"block {block.name} kernel basis fails M v = 0 at (n, m, p) = {(n, m, p)}")
    return CocycleBasis(block, n, m, p, columns, kernel)


def cocycle_basis_json(alg: ColorLieAlgebra, block: BlockKind,
                       allow_x0_target: bool = False) -> dict:
    """`cocycle_basis` as a document of the export JSON schema.

    One dict per term, each coefficient written from the stored
    numerator and denominator (`ratio_str`), as `str` of the `Fraction`
    would write it.  `write_cocycle_basis` writes the same document's
    text from the `CocycleBasis` itself, without these dicts.
    """
    solved = cocycle_basis(alg, block, allow_x0_target)
    columns = solved.columns
    vectors = [[{"i": columns[c][0], "j": columns[c][1], "s": columns[c][2],
                 "coeff": ratio_str(v, d)} for c, v in w.items()]
               for w, d in solved.kernel.integral]
    return {"block": block.name, "n": solved.n, "m": solved.m, "p": solved.p,
            "dim": solved.kernel.dim, "basis": vectors}


_TERM_HEAD = '      {{\n        "i": {},\n        "j": {},\n        "s": {},\n        "coeff": "'


def write_cocycle_basis(solved: CocycleBasis, stream) -> None:
    """json.dump(doc, stream, indent=2) and a newline, doc the `cocycle_basis_json` of `solved`.

    An indented json.dump runs the pure-Python encoder, one write per
    token; this writes the same bytes straight from the stored integral
    basis, with no term dicts.  A term's text up to its coefficient is
    formatted once per column and reused by every vector that holds it;
    each coefficient is `str(v)` over a denominator d = 1, else
    `ratio_str(v, d)`, digits, sign and slash only, so it is quoted as
    is.  Each vector is one string, written once built.
    """
    stream.write(f'{{\n  "block": "{solved.block.name}",\n  "n": {solved.n},\n  '
                 f'"m": {solved.m},\n  "p": {solved.p},\n  "dim": {solved.kernel.dim},\n  '
                 '"basis": [')
    heads = [None] * len(solved.columns)
    sep = "\n"
    for w, d in solved.kernel.integral:
        parts = []
        for c, v in w.items():
            head = heads[c]
            if head is None:
                head = heads[c] = _TERM_HEAD.format(*solved.columns[c])
            parts.append(head + (str(v) if d == 1 else ratio_str(v, d)))
        terms = '"\n      },\n'.join(parts)
        stream.write(f'{sep}    [\n{terms}"\n      }}\n    ]')
        sep = ",\n"
    stream.write("\n  ]\n}\n" if solved.kernel.integral else "]\n}\n")


def cochain_from_json(alg: ColorLieAlgebra, data: Mapping) -> Cochain2:
    """Parse a cochain document onto an algebra: {"terms": [...]}, each
    term naming its block, or a `cocycle_basis_json` export of one vector,
    whose terms take the document's block and may not name one.  Each
    basis map may be named once (the `Cochain2` rule): a repeated term,
    or the swapped pair of an alternating block, raises ValueError
    instead of summing.
    """
    n, m, p = model_shape(alg)
    if isinstance(data, Mapping) and "terms" in data:
        block, items = None, data["terms"]  # each term names its own block
    elif isinstance(data, Mapping) and "basis" in data:
        for field in ("block", "n", "m", "p"):
            if field not in data:
                raise ValueError(f"basis export missing field {field!r}")
        block, vectors = block_named(data["block"]), data["basis"]
        if not (isinstance(vectors, list) and all(isinstance(v, list) for v in vectors)):
            raise ValueError("'basis' must be a list of vectors, each a list of terms")
        if len(vectors) != 1:
            raise ValueError(f"basis export holds {len(vectors)} vectors; deform needs exactly "
                             "one (re-export or convert to a 'terms' document)")
        items = vectors[0]
        if not all(isinstance(item, Mapping) for item in items):
            raise ValueError("each basis term must be an object")
    else:
        raise ValueError("cochain document must carry 'terms' or 'basis'")
    if tuple(as_int(data.get(k, v), k) for k, v in (("n", n), ("m", m), ("p", p))) != (n, m, p):
        raise ValueError("cochain parameters disagree with the algebra's (n, m, p)")
    if not isinstance(items, list):
        raise ValueError("cochain 'terms' must be a list")
    fields = ("block", "i", "j", "s", "coeff") if block is None else ("i", "j", "s", "coeff")

    def terms() -> Iterator:  # parsed one at a time, so the first bad term is named
        for k, term in enumerate(items):
            if not isinstance(term, Mapping):
                raise ValueError(f"cochain terms[{k}] must be an object, "
                                 f"got {type(term).__name__} {reprlib.repr(term)}")
            if block is not None and "block" in term:
                raise ValueError(
                    f"basis term {k} names block {reprlib.repr(term['block'])}; "
                    f"the terms of a basis export take its block {block.name!r}")
            for field in fields:
                if field not in term:
                    raise ValueError(f"cochain term missing field {field!r}")
            yield (ColumnKey(block_named(term["block"]) if block is None else block,
                             term["i"], term["j"], term["s"]), term["coeff"])

    try:
        return Cochain2(alg, terms())
    except TypeError as exc:
        raise ValueError(f"malformed cochain term: {exc}") from exc
