"""A from-scratch dense oracle for the block dimensions.

Independent of the production code path on purpose: the cocycle
conditions of each block on the model algebra reduce to the single
recurrence

    shift(phi(u, v)) = phi(shift u, v) + phi(u, shift v)

where shift is the chain map of the X0-action (last element to zero).
This file rebuilds that recurrence as dense Fraction matrices and does
textbook Gaussian elimination, sharing no code with the sparse
assembler or the elimination engine, then compares dimensions.  The
same dense elimination gives `dense_kernel`, the second route to the
canonical kernel bases.

`reference_term_walk` is the plain walk over all C(dim, 3) basis
triples, and `reference_assembly` keeps its nonzero rows; the
production assembler generates only the terms a nonzero
bracket holds and must produce the same nonzero row at every (triple,
target), up to scale: the test puts both sides in primitive form with
`reference_primitive_row`, its own `Fraction` route, and compares the
two maps.  The references read the bracket through `bracket_basis`,
which reads the algebra's bracket index;
`test_bracket_index_matches_canonical_constants` checks that index
against the canonical constants, so a sign slip in it cannot hide
behind the references.
`reference_block_dims` restricts the assembled joint rows to each block
and ranks the joint matrix as a whole; `block_dims` ranks each block's
row sums, made over that block alone, once, finds a spanning row from
the (triple, target) keys the blocks share, and must give the same
dimensions and the same `DecompositionMismatch`, also on laws with
rational constants, on laws whose row sums cancel and on a law whose one
row holds three blocks, while `checked_rank` sees only nonempty rows of
nonzero ints.  On cancelling laws the row source must hold the
walk's sums with only the cancelled entries and rows dropped.
`reference_is_cocycle` and `reference_validate_jacobi` walk every
ascending basis triple as well; `is_cocycle` and `validate_jacobi`
evaluate only the triples a bracket or a cochain value reaches and must
give the same verdicts and the same violation lists, in order.
`reference_descending_dims` spans each term of a descending sequence by
`dense_rref`, bracketing every L_0 element against every row;
`filiform_check` brackets only the partners the bracket index lists and
must give the graded-filiform verdict `reference_graded_filiform` reads
off the reference sequences, also on laws whose sequence stabilizes
above zero and on laws with rational constants.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import colorfil.cohomology
from colorfil.algebra import ColorLieAlgebra, JacobiViolation, build_model, validate_jacobi
from colorfil.cohomology import (ALL_BLOCKS, CONDITION_BY_SHAPE, BlockKind, Cochain2,
                                 DecompositionMismatch, RowLabel, _restrict_to_block,
                                 _term_sums, assemble_Z2_system, block_dims, cochain_columns,
                                 cocycle_defect, delta1, is_cocycle)
from colorfil.deformation import deform, filiform_check
from colorfil.linalg import SparseIntMatrix, kernel_basis, rank_certified


def dense_rref(rows, n_cols):
    """Reduced row echelon form over Q; returns (nonzero rows, pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivot_cols = []
    for col in range(n_cols):
        rank = len(pivot_cols)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        support = [(k, b) for k, b in enumerate(rows[rank]) if b]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                for k, b in support:
                    rows[r][k] -= f * b
        pivot_cols.append(col)
    return rows[:len(pivot_cols)], pivot_cols


def dense_nullity(rows, n_cols):
    return n_cols - len(dense_rref(rows, n_cols)[1])


def dense_kernel(rows, n_cols):
    """Kernel basis in canonical form: one vector per free column f with
    x_f = 1 and the other free coordinates 0, scaled so that its lowest
    nonzero coordinate is positive, ordered by that coordinate."""
    reduced, pivot_cols = dense_rref(rows, n_cols)
    vectors = []
    for f in range(n_cols):
        if f in pivot_cols:
            continue
        vec = {f: Fraction(1)}
        for row, pc in zip(reduced, pivot_cols):
            if row[f]:
                vec[pc] = -row[f]
        lead = min(vec)
        sign = 1 if vec[lead] > 0 else -1
        vectors.append({c: sign * vec[c] for c in sorted(vec)})
    return sorted(vectors, key=min)


def to_dense(matrix):
    dense = [[0] * matrix.n_cols for _ in range(matrix.n_rows)]
    for (r, c), v in cells_of(matrix).items():
        dense[r][c] = v
    return dense


def cells_of(matrix):
    """{(row, col): value} over the stored entries of a sparse matrix."""
    return {(r, c): v for r, row in enumerate(matrix.rows) for c, v in row}


def from_cells(n_rows, n_cols, cells):
    """The sparse matrix holding a {(row, col): value} map of nonzero entries."""
    rows = [{} for _ in range(n_rows)]
    for (r, c), v in cells.items():
        rows[r][c] = v
    return SparseIntMatrix(n_rows, n_cols, rows)


def block_dim_by_recurrence(block, n, m, p):
    """Dimension of one block from the reduced recurrence, dense."""
    chain_len = {0: n, 1: m, 2: p}
    (g1, g2), gt = block.source_degrees, block.target_degree
    d1, d2, dt = chain_len[g1], chain_len[g2], chain_len[gt]
    if g1 == g2:
        pairs = list(combinations(range(1, d1 + 1), 2))
    else:
        pairs = [(i, j) for i in range(1, d1 + 1) for j in range(1, d2 + 1)]
    cols = {(i, j, s): idx for idx, (i, j, s) in enumerate(
        (i, j, s) for i, j in pairs for s in range(1, dt + 1))}

    def coeff_of(i, j, s):
        # canonical column with orientation sign; beyond-chain indices die
        if i == j and g1 == g2:
            return None, 0
        sign = 1
        if g1 == g2 and i > j:
            i, j, sign = j, i, -1
        key = (i, j, s)
        return (cols[key], sign) if key in cols else (None, 0)

    rows = []
    for i, j in pairs:
        for t in range(1, dt + 1):
            row = [0] * len(cols)
            if t > 1:  # shift(phi(u,v)) lands at t from target index t-1
                col, sign = coeff_of(i, j, t - 1)
                if col is not None:
                    row[col] += sign
            if i + 1 <= d1:
                col, sign = coeff_of(i + 1, j, t)
                if col is not None:
                    row[col] -= sign
            if j + 1 <= d2:
                col, sign = coeff_of(i, j + 1, t)
                if col is not None:
                    row[col] -= sign
            if any(row):
                rows.append(row)
    return dense_nullity(rows, len(cols))


def test_production_dims_match_dense_recurrence_oracle():
    for n, m, p in product(range(1, 5), range(0, 4), range(0, 4)):
        produced = block_dims(build_model(n, m, p))
        for block in ALL_BLOCKS:
            expected = block_dim_by_recurrence(block, n, m, p)
            assert produced[block] == expected, (block.name, n, m, p)


@st.composite
def sparse_matrices(draw):
    """Small sparse integer matrices, including empty rows, all-zero
    columns, 0 x k and k x 0 shapes, and entries of size 2**61 - 1."""
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    values = st.sampled_from([1, -1, 2, -3, 5, 2**61 - 1, -(2**61 - 1)])
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, max(n_rows - 1, 0)), st.integers(0, max(n_cols - 1, 0))),
        values, max_size=3 * max(n_rows, n_cols)) if n_rows and n_cols else st.just({}))
    return from_cells(n_rows, n_cols, cells)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_kernel_basis_matches_dense_oracle(matrix):
    basis = kernel_basis(matrix, matrix.n_cols)
    assert list(basis.vectors) == dense_kernel(to_dense(matrix), matrix.n_cols)
    assert basis.dim == len(basis.vectors)


def test_block_kernels_match_dense_oracle():
    for nmp in [(8, 6, 6), (5, 0, 3)]:
        alg = build_model(*nmp)
        for block in ALL_BLOCKS:
            matrix = assemble_Z2_system(alg, {block}).matrix
            expected = dense_kernel(to_dense(matrix), matrix.n_cols)
            assert list(kernel_basis(matrix, matrix.n_cols).vectors) == expected, (nmp, block.name)


def reference_primitive_row(row):
    """Primitive integer form of a rational row, through `Fraction`."""
    items = sorted((c, Fraction(v)) for c, v in row.items() if v)
    if not items:
        return ()
    denom = 1
    for _, v in items:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [(c, int(v * denom)) for c, v in items]
    content = 0
    for _, v in ints:
        content = gcd(content, v)
    if ints[0][1] < 0:
        content = -content
    return tuple((c, v // content) for c, v in ints)


def reference_term_walk(alg, blocks, allow_x0_target=False):
    """({(triple, target): raw row sum}, column keys) from a walk over every basis triple.

    Evaluates the six terms of the cocycle identity at each ascending
    triple straight from `alg.bracket_basis` and splits them by target.
    Each (triple, target) some term reaches gets a row, and each column
    a term reaches gets an entry, even where the terms cancel to 0.
    """
    cols = cochain_columns(alg, blocks, allow_x0_target=allow_x0_target)
    psi_of: dict = {}  # ordered global pair -> [(col, target, sign)]
    glob = alg.global_index
    for idx, key in enumerate(cols):
        g1, g2 = key.block.source_degrees
        a, b = glob(g1, key.i), glob(g2, key.j)
        t = glob(key.block.target_degree, key.s)
        psi_of.setdefault((a, b), []).append((idx, t, 1))
        psi_of.setdefault((b, a), []).append((idx, t, -1))

    bracket = {(x, y): alg.bracket_basis(x, y).items()
               for x, y in product(range(alg.dim), repeat=2)}
    rows = {}
    for a, b, c in combinations(range(alg.dim), 3):
        acc: dict = {}  # target -> {col: coeff}

        def add(u, col, v):
            acc.setdefault(u, {})[col] = acc.get(u, {}).get(col, 0) + v

        for sign, x, first, second in ((1, a, b, c), (-1, b, a, c), (1, c, a, b)):
            for col, tgt, s in psi_of.get((first, second), ()):
                for u, cb in bracket[(x, tgt)]:
                    add(u, col, sign * s * cb)
        for sign, bx, by, other, first in ((-1, a, b, c, True), (1, a, c, b, True),
                                           (1, b, c, a, False)):
            for t, cb in bracket[(bx, by)]:
                for col, tgt, s in psi_of.get((t, other) if first else (other, t), ()):
                    add(tgt, col, sign * cb * s)
        for u, row in acc.items():
            rows[((a, b, c), u)] = row
    return rows, tuple(cols)


def reference_assembly(alg, blocks, allow_x0_target=False):
    """({(triple, target): primitive row}, column keys): the nonzero rows of the
    term walk, each in the form of `reference_primitive_row`."""
    walked, cols = reference_term_walk(alg, blocks, allow_x0_target)
    rows = {origin: reference_primitive_row(row) for origin, row in walked.items()}
    return {origin: row for origin, row in rows.items() if row}, cols


def reference_row_label(alg, triple, target):
    cond = CONDITION_BY_SHAPE[tuple(alg.degree_of(i) for i in triple)]
    return RowLabel(cond, tuple(alg.label(i) for i in triple), alg.label(target))


def assert_assembly_matches_reference(alg, blocks, allow_x0_target=False):
    """One production row per nonzero (triple, target), equal to the reference up to scale."""
    system = assemble_Z2_system(alg, blocks, allow_x0_target=allow_x0_target)
    rows, cols = reference_assembly(alg, blocks, allow_x0_target)
    produced = {origin: reference_primitive_row(dict(row))
                for origin, row in zip(system.row_origins, system.matrix.rows)}
    assert len(produced) == system.matrix.n_rows == len(system.row_origins)
    assert produced == rows
    assert system.row_labels == tuple(reference_row_label(alg, *origin)
                                      for origin in system.row_origins)
    assert system.col_keys == cols


def test_assembly_matches_full_walk_on_acceptance_grid():
    for nmp in product(range(1, 9), range(1, 7), range(1, 7)):
        alg = build_model(*nmp)
        for allow_x0_target in (False, True):
            assert_assembly_matches_reference(alg, ALL_BLOCKS, allow_x0_target)


def test_assembly_matches_full_walk_per_block():
    alg = build_model(8, 6, 6)
    for blocks in [{block} for block in ALL_BLOCKS] + [set(ALL_BLOCKS)]:
        for allow_x0_target in (False, True):
            assert_assembly_matches_reference(alg, blocks, allow_x0_target)


def d_deformed(n, m, p, data):
    """A Jacobi-valid non-model algebra drawn by Hypothesis.

    D-block cocycles integrate, so any rational combination of them
    deforms the model into one whose brackets are no longer only
    [X0, -].
    """
    base = build_model(n, m, p)
    d_vectors = assemble_Z2_system(base, {BlockKind.D}).kernel_cochains()
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coeffs = data.draw(st.lists(coeff, min_size=len(d_vectors), max_size=len(d_vectors)))
    assume(any(coeffs))
    total: dict = {}
    for c, psi in zip(coeffs, d_vectors):
        for key, v in psi.items():
            total[key] = total.get(key, 0) + c * v
    alg = deform(base, Cochain2(base, total)).result
    assert validate_jacobi(alg) == []
    return alg


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(2, 4), st.integers(1, 4),
       st.sampled_from([{block} for block in ALL_BLOCKS] + [set(ALL_BLOCKS)]),
       st.booleans(), st.data())
def test_assembly_matches_full_walk_on_deformed_algebras(n, m, p, blocks, allow_x0_target,
                                                         data):
    alg = d_deformed(n, m, p, data)
    assert_assembly_matches_reference(alg, blocks, allow_x0_target)


def reference_block_dims(alg, allow_x0_target=False):
    """Per-block dimensions from the joint rows restricted to each block.

    Each block's rank is taken on the joint rows projected onto its
    columns, and the joint nullity, ranked as a whole, must equal the
    sum of the block dimensions.
    """
    joint = assemble_Z2_system(alg, ALL_BLOCKS, allow_x0_target=allow_x0_target)
    dims = {}
    for block in ALL_BLOCKS:
        sub = _restrict_to_block(joint, block)
        dims[block] = sub.n_cols - rank_certified(sub)
    total = joint.nullity()
    if total != sum(dims.values()):
        raise DecompositionMismatch(
            f"joint kernel dimension {total} != block sum {sum(dims.values())} "
            f"at dims {alg.dims}")
    return dims


def dims_or_mismatch(fn, alg, allow_x0_target):
    try:
        return fn(alg, allow_x0_target=allow_x0_target)
    except DecompositionMismatch as exc:
        return f"DecompositionMismatch: {exc}"


def spanning_components(alg):
    """Blocks of each connected component of the joint rows that spans two or more.

    Columns are joined when a row holds both (union-find), and a row
    belongs to the component of its columns.
    """
    joint = assemble_Z2_system(alg)
    parent = list(range(joint.matrix.n_cols))

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for row in joint.matrix.rows:
        for c, _ in row[1:]:
            parent[find(c)] = find(row[0][0])
    spans: dict = {}
    for row in joint.matrix.rows:
        spans.setdefault(find(row[0][0]), set()).update(joint.col_keys[c].block for c, _ in row)
    return [blocks for blocks in spans.values() if len(blocks) > 1]


def checked_rank(rows):
    """rank_certified, after asserting its input: nonempty rows of nonzero ints.

    A zero entry would become a zero pivot, and a Fraction would reach gcd.
    """
    rows = list(rows)
    for row in rows:
        values = dict(row).values()
        assert values and all(type(v) is int and v != 0 for v in values), row
    return rank_certified(rows)


def test_block_dims_matches_reference_on_acceptance_grid(monkeypatch):
    monkeypatch.setattr(colorfil.cohomology, "rank_certified", checked_rank)
    degenerate = [nmp for nmp in product(range(1, 9), range(0, 7), range(0, 7))
                  if 0 in nmp[1:]]
    for nmp in [*product(range(1, 9), range(1, 7), range(1, 7)), *degenerate]:
        alg = build_model(*nmp)
        for allow_x0_target in (False, True):
            assert block_dims(alg, allow_x0_target=allow_x0_target) == \
                reference_block_dims(alg, allow_x0_target), (nmp, allow_x0_target)


def spanning_law():
    """L^{1,2,1} deformed by its D-block cocycle: [Y1, Y2] = Z1 is added."""
    base = build_model(1, 2, 1)
    psi = assemble_Z2_system(base, {BlockKind.D}).kernel_cochains()[0]
    return deform(base, psi).result


def scaled_law(alg, factor):
    """The law with every structure constant multiplied by `factor`."""
    return ColorLieAlgebra(alg.dims, {(a, b): {t: c * factor for t, c in vec.items()}
                                      for a, b, vec in alg.nonzero_constants()})


def test_block_dims_spanning_component_raises_like_reference():
    # [Y1, Y2] = Z1 couples blocks B and C (psi_B(X, Y) bracketed with Y
    # meets psi_C(X, [Y, Y])), so one component spans both and the
    # six-block splitting fails
    alg = spanning_law()
    assert spanning_components(alg) == [{BlockKind.B, BlockKind.C}]
    with pytest.raises(DecompositionMismatch) as split:
        block_dims(alg)
    with pytest.raises(DecompositionMismatch) as reference:
        reference_block_dims(alg)
    assert str(split.value) == str(reference.value) == \
        "joint kernel dimension 4 != block sum 3 at dims (2, 2, 1)"


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(2, 4), st.integers(1, 4), st.booleans(), st.data())
def test_block_dims_matches_reference_on_deformed_algebras(n, m, p, allow_x0_target, data):
    alg = d_deformed(n, m, p, data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(colorfil.cohomology, "rank_certified", checked_rank)
        assert dims_or_mismatch(block_dims, alg, allow_x0_target) == \
            dims_or_mismatch(reference_block_dims, alg, allow_x0_target)


def three_block_law():
    """[Y1, Z2] = X1 on dims (3, 1, 2): the one row at triple (X2, Y1, Z2) and
    target X1 holds terms of blocks A, B and C."""
    return ColorLieAlgebra((3, 1, 2), {(3, 5): {1: 1}})


def random_yy_law(seed, dims):
    """A graded law with a random [Y1, Y2] != 0 among other random brackets.

    The row sums need no Jacobi identity; [Y, Y] != 0 couples blocks B and C.
    """
    rng = random.Random(seed)
    alg = ColorLieAlgebra(dims)
    table = {}
    for a, b in combinations(range(alg.dim), 2):
        targets = list(alg.component_indices((alg.degree_of(a) + alg.degree_of(b)) % 3))
        if targets and rng.random() < 0.15:
            table[(a, b)] = {t: rng.choice([-2, -1, 1, Fraction(1, 2)])
                             for t in rng.sample(targets, min(2, len(targets)))}
    y1, y2 = alg.global_index(1, 1), alg.global_index(1, 2)
    table[(y1, y2)] = {alg.global_index(2, rng.randint(1, dims[2])): rng.choice([-1, 1, 3])}
    return ColorLieAlgebra(dims, table)


def test_block_dims_spanning_rule_matches_joint_route():
    # block_dims reads a spanning row off the per-block sums (a (triple,
    # target) reached by two blocks) and only then ranks the joint rows; the
    # joint route restricts the assembled rows to each block and always
    # ranks the whole.  Both must give the same dims or the same failure
    deformed = []
    for nmp in [(3, 2, 2), (5, 3, 4), (8, 6, 6)]:
        base = build_model(*nmp)
        for block in (BlockKind.D, BlockKind.E, BlockKind.F):
            for psi in assemble_Z2_system(base, {block}).kernel_cochains()[:3]:
                deformed.append(deform(base, psi).result)
    assert len(deformed) == 23
    random_laws = [random_yy_law(seed, dims) for seed, dims in
                   enumerate([(2, 2, 1), (3, 2, 2), (4, 3, 2), (3, 3, 3), (5, 2, 3), (4, 4, 4)])]
    three = three_block_law()
    reached: dict = {}
    for block in ALL_BLOCKS:
        _, sums = _term_sums(three, (block,), False)
        for triple, acc in sums.items():
            for u in acc:
                reached.setdefault((triple, u), []).append(block)
    assert reached[((2, 3, 5), 1)] == [BlockKind.A, BlockKind.B, BlockKind.C]
    outcomes = {}
    for alg in deformed + random_laws + [three]:
        for allow_x0_target in (False, True):
            got = dims_or_mismatch(block_dims, alg, allow_x0_target)
            assert got == dims_or_mismatch(reference_block_dims, alg, allow_x0_target)
            outcomes[id(alg), allow_x0_target] = isinstance(got, str)
    assert sum(outcomes[id(alg), False] for alg in deformed) == 17
    assert all(outcomes[id(alg), False] for alg in random_laws + [three])


def weighted_law(n, m, p, shift):
    """X0 scales every other element by its index, plus the model's shift if `shift`.

    Only X0 acts, so Jacobi holds.  The weights make terms of d2 psi
    cancel: some row sums hold zero entries, and without the shift whole
    rows sum to zero.
    """
    model = build_model(n, m, p)
    constants = {(a, b): vec for a, b, vec in model.nonzero_constants()} if shift else {}
    for e in range(1, model.dim):
        constants.setdefault((0, e), {})[e] = model.element(e).index
    return ColorLieAlgebra(model.dims, constants)


def test_block_dims_ranks_nonempty_rows_of_nonzero_ints(monkeypatch):
    # laws whose row sums cancel, and laws with rational constants: every
    # term of d2 psi holds exactly one structure constant, so scaling them
    # all changes no dimension, nor the failure of the spanning law.  The
    # model grid and deformed laws run under checked_rank above
    monkeypatch.setattr(colorfil.cohomology, "rank_certified", checked_rank)
    laws = [build_model(*nmp) for nmp in [(2, 1, 1), (3, 2, 2), (5, 0, 3), (6, 4, 0), (8, 6, 6)]]
    pairs = [(scaled_law(law, Fraction(1, 2)), law) for law in laws + [spanning_law()]]
    pairs.append((scaled_law(weighted_law(5, 0, 3, True), Fraction(2, 3)), weighted_law(5, 0, 3, True)))
    for alg, law in pairs:
        assert any(type(c) is Fraction for _, _, vec in alg.nonzero_constants() for c in vec.values())
    pairs += [(weighted_law(4, 3, 2, shift), None) for shift in (False, True)]
    for alg, law in pairs:
        for allow_x0_target in (False, True):
            dims = dims_or_mismatch(block_dims, alg, allow_x0_target)
            assert dims == dims_or_mismatch(reference_block_dims, alg, allow_x0_target)
            if law is not None:
                assert dims == dims_or_mismatch(block_dims, law, allow_x0_target)
    assert dims_or_mismatch(block_dims, pairs[5][0], False) == \
        "DecompositionMismatch: joint kernel dimension 4 != block sum 3 at dims (2, 2, 1)"
    # the weighted laws' terms cancel: in the full walk, entries cancel to 0
    # with the shift and whole rows without it.  The row source keeps no 0
    # entry and no empty row, and otherwise the walk's sums as they are
    for shift in (False, True):
        law = weighted_law(4, 3, 2, shift)
        _, sums = _term_sums(law, ALL_BLOCKS, False)
        rows = {(triple, u): row for triple, acc in sums.items() for u, row in acc.items()}
        assert all(row and 0 not in row.values() for row in rows.values())
        walked, _ = reference_term_walk(law, ALL_BLOCKS)
        assert any(0 in row.values() and any(row.values()) for row in walked.values()) == shift
        assert any(not any(row.values()) for row in walked.values()) != shift
        assert rows == {origin: {c: v for c, v in row.items() if v}
                        for origin, row in walked.items() if any(row.values())}
        assert sum(map(len, rows.values())) < sum(map(len, walked.values()))


def _accumulate(acc, scale, vec):
    for u, c in vec.items():
        acc[u] = acc.get(u, 0) + scale * c
        if not acc[u]:
            del acc[u]


def reference_validate_jacobi(alg):
    """Jacobi violations from a walk over every ascending basis triple."""
    violations = []
    for a, b, c in combinations(range(alg.dim), 3):
        res: dict = {}
        # J(a, b, c) = [[a, b], c] - [a, [b, c]] + [b, [a, c]]
        for t, v in alg.bracket_basis(a, b).items():
            _accumulate(res, v, alg.bracket_basis(t, c))
        for t, v in alg.bracket_basis(b, c).items():
            _accumulate(res, -v, alg.bracket_basis(a, t))
        for t, v in alg.bracket_basis(a, c).items():
            _accumulate(res, v, alg.bracket_basis(b, t))
        if res:
            violations.append(JacobiViolation(
                (alg.label(a), alg.label(b), alg.label(c)), alg.format_vector(res)))
    return violations


def reference_d2(alg, psi, a, b, c):
    """(d2 psi)(e_a, e_b, e_c) from the six-term identity, term by term.

    psi's values are read as the brackets of its law, through
    `bracket_basis` like the algebra's own.
    """
    value = psi.law.bracket_basis
    out: dict = {}
    for sign, x, y, z in ((1, a, b, c), (-1, b, a, c), (1, c, a, b)):
        for t, v in value(y, z).items():  # sign * [x, psi(y, z)]
            _accumulate(out, sign * v, alg.bracket_basis(x, t))
    for sign, x, y, z in ((-1, a, b, c), (1, a, c, b)):
        for t, v in alg.bracket_basis(x, y).items():  # sign * psi([x, y], z)
            _accumulate(out, sign * v, value(t, z))
    for t, v in alg.bracket_basis(b, c).items():  # psi(a, [b, c])
        _accumulate(out, v, value(a, t))
    return out


def reference_cocycle_defect(alg, psi):
    """First ascending triple where d2 psi is nonzero, walking every triple."""
    for triple in combinations(range(alg.dim), 3):
        value = reference_d2(alg, psi, *triple)
        if value:
            return triple, value
    return None


def reference_is_cocycle(alg, psi):
    return reference_cocycle_defect(alg, psi) is None


def drawn_algebra(data):
    """A model algebra, a D-deformed one, or a model with random added brackets.

    Random brackets respect the grading but usually break Jacobi.
    """
    kind = data.draw(st.sampled_from(("model", "deformed", "perturbed")))
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(2 if kind == "deformed" else 0, 3))
    p = data.draw(st.integers(1 if kind == "deformed" else 0, 3))
    if kind == "deformed":
        return d_deformed(n, m, p, data)
    alg = build_model(n, m, p)
    if kind == "perturbed":
        additions: dict = {}
        for a, b in data.draw(st.lists(st.lists(st.integers(0, alg.dim - 1), min_size=2,
                                                max_size=2, unique=True).map(sorted),
                                       min_size=1, max_size=3)):
            degree = (alg.degree_of(a) + alg.degree_of(b)) % 3
            targets = [t for t in range(alg.dim) if alg.degree_of(t) == degree]
            if targets:
                t = data.draw(st.sampled_from(targets))
                additions.setdefault((a, b), {})[t] = data.draw(st.sampled_from((1, -1, 2)))
        alg = alg.with_added_constants(additions)
    return alg


def drawn_cochain(data, alg):
    """A random cochain, X0 targets allowed or not, or a coboundary (a
    cocycle on a Lie algebra, X0 sources included) with random terms added."""
    coboundary = data.draw(st.booleans())
    allow_x0_target = coboundary or data.draw(st.booleans())
    keys = cochain_columns(alg, ALL_BLOCKS, allow_x0_target=allow_x0_target)
    terms = data.draw(st.dictionaries(st.sampled_from(keys),
                                      st.sampled_from((1, -1, 2, Fraction(1, 2))),
                                      max_size=3)) if keys else {}
    psi = Cochain2(alg, terms, allow_x0_target=allow_x0_target)
    if coboundary:
        u = data.draw(st.integers(0, alg.dim - 1))
        same = [t for t in range(alg.dim) if alg.degree_of(t) == alg.degree_of(u)]
        d1 = delta1(alg, {u: {data.draw(st.sampled_from(same)): 1}})
        # the sum's law is set directly, as delta1 sets its own
        psi.law = d1.law.with_added_constants(psi.as_constant_additions())
    return psi


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_index_matches_canonical_constants(data):
    alg = drawn_algebra(data)
    canonical = {(a, b): vec for a, b, vec in alg.nonzero_constants()}
    for a, b in product(range(alg.dim), repeat=2):
        if a < b:
            expected = canonical.get((a, b), {})
        else:
            expected = {t: -c for t, c in canonical.get((b, a), {}).items()}
        assert alg.bracket_basis(a, b) == expected, (a, b)
        assert alg.bracket_index.get(a, {}).get(b, {}) == expected, (a, b)
    assert ({(x, y) for x, row in alg.bracket_index.items() for y in row}
            == set(canonical) | {(b, a) for a, b in canonical})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_checkers_match_full_walks(data):
    alg = drawn_algebra(data)
    psi = drawn_cochain(data, alg)
    assert validate_jacobi(alg) == reference_validate_jacobi(alg)
    defect = reference_cocycle_defect(alg, psi)
    assert cocycle_defect(alg, psi) == defect
    assert is_cocycle(alg, psi) == (defect is None)
    # the cochain's values as extra brackets: a law with X0 sources
    summed = alg.with_added_constants(psi.as_constant_additions())
    assert validate_jacobi(summed) == reference_validate_jacobi(summed)


def test_checkers_match_full_walks_on_exported_vectors():
    alg = build_model(6, 4, 5)
    for block in ALL_BLOCKS:
        for psi in assemble_Z2_system(alg, {block}).kernel_cochains():
            assert is_cocycle(alg, psi) and reference_is_cocycle(alg, psi), block.name
            result = deform(alg, psi).result
            assert validate_jacobi(result) == reference_validate_jacobi(result), block.name


def reference_descending_dims(alg, g):
    """Dimensions of C^0(L_g), C^1(L_g), ... by dense `Fraction` elimination.

    C^{k+1}(L_g) = [L_0, C^k(L_g)] is spanned by the brackets of L_0 with
    the rows `dense_rref` leaves for C^k(L_g).  Each term lies in the one
    before, so a term whose dimension repeats a nonzero one is a nonzero
    fixed point and the sequence never reaches zero: then None.
    """
    basis = [[int(i == j) for j in range(alg.dim)] for i in alg.component_indices(g)]
    dims = [len(basis)]
    while dims[-1]:
        images = []
        for a in alg.component_indices(0):
            for v in basis:
                w = [0] * alg.dim
                for b, cb in enumerate(v):
                    for t, c in alg.bracket_basis(a, b).items():
                        w[t] += cb * c
                images.append(w)
        basis, pivots = dense_rref(images, alg.dim)
        if len(pivots) == dims[-1]:
            return None
        dims.append(len(pivots))
    return dims


def reference_graded_filiform(alg):
    """The graded-filiform verdict read from `reference_descending_dims`.

    Each sequence must reach zero dropping one dimension a step, except
    that the first step of L_0 drops two when dim L_0 >= 2.
    """
    for g in range(3):
        dims = reference_descending_dims(alg, g)
        if dims is None:
            return False
        drops = [a - b for a, b in zip(dims, dims[1:])]
        if drops and drops[0] != (2 if g == 0 and dims[0] >= 2 else 1):
            return False
        if any(drop != 1 for drop in drops[1:]):
            return False
    return True


def test_descending_dims_not_nilpotent_like_reference():
    # [X1, X2] = X1 fixes X1 in every C^k(L_0), on (2,1,1) and on (2,2,1);
    # [X0, Y2] = Y1 closes the Y chain into a cycle, so only degree 1 stabilizes
    model = build_model(2, 2, 1)
    y1, y2 = model.index("Y1"), model.index("Y2")
    for alg, stuck in [(build_model(2, 1, 1).with_added_constants({(1, 2): {1: 1}}), 0),
                       (model.with_added_constants({(1, 2): {1: 1}}), 0),
                       (model.with_added_constants({(0, y2): {y1: 1}}), 1)]:
        assert [g for g in range(3) if reference_descending_dims(alg, g) is None] == [stuck]
        assert filiform_check(alg) is reference_graded_filiform(alg) is False, stuck


def test_stuck_sequences_fail_like_reference():
    # a Lie law on dims (2,0,3): [X1, Z2] = Z3 and [X1, Z3] = Z2 - Z1, so
    # degree 2 runs 3, 2, 2.  C^1 holds Z2 - Z1, whose lowest column Z1 has
    # no partner: a pass that took partners from the lowest column alone
    # would drop its image Z3 and read 3, 2, 1, 0
    witness = ColorLieAlgebra((2, 0, 3), {(1, 3): {4: 1}, (1, 4): {3: 1, 2: -1}})
    assert validate_jacobi(witness) == []
    assert [g for g in range(3) if reference_descending_dims(witness, g) is None] == [2]
    assert filiform_check(witness) is reference_graded_filiform(witness) is False


def test_filiform_check_matches_dense_reference_on_models():
    # each descending sequence drops to zero in n, m and p steps
    for n, m, p in product(range(1, 7), range(6), range(6)):
        alg = build_model(n, m, p)
        assert [len(reference_descending_dims(alg, g)) - 1 for g in range(3)] == [n, m, p]
        assert filiform_check(alg) is reference_graded_filiform(alg) is True, (n, m, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(2, 4), st.integers(1, 4), st.data())
def test_filiform_check_matches_dense_reference_on_deformed_models(n, m, p, data):
    for alg in (d_deformed(n, m, p, data), drawn_algebra(data)):
        assert filiform_check(alg) == reference_graded_filiform(alg)


def test_filiform_check_scales_rational_images_like_reference():
    # [X0, X1] = X2/2 + X3 and [X0, X4] = X2 + 2 X3 span one line; ranking the
    # numerators of the images instead of the images scaled by the law's
    # denominator would count two
    alg = ColorLieAlgebra((5, 0, 0), {(0, 1): {2: Fraction(1, 2), 3: 1}, (0, 4): {2: 1, 3: 2}})
    assert [reference_descending_dims(alg, g) for g in range(3)] == [[5, 1, 0], [0], [0]]
    assert filiform_check(alg) is reference_graded_filiform(alg) is False
    # ad X0 and ad X1 map Y1 and Y2 onto the line of Y1/2 + Y2 and kill it:
    # 2, 1, 0 and filiform, where the numerators would span two and stick
    y1, y2 = 2, 3
    alg = ColorLieAlgebra((2, 2, 0), {
        (0, y1): {y1: Fraction(1, 2), y2: 1}, (0, y2): {y1: Fraction(-1, 4), y2: Fraction(-1, 2)},
        (1, y1): {y1: 1, y2: 2}, (1, y2): {y1: Fraction(-1, 2), y2: -1}})
    assert validate_jacobi(alg) == []
    assert reference_descending_dims(alg, 1) == [2, 1, 0]
    assert filiform_check(alg) is reference_graded_filiform(alg) is True


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_filiform_check_matches_dense_reference(data):
    # models, D-deformed and perturbed models, or a random graded law with
    # dim L_0 in {0, 1, 2}: random brackets often leave a sequence stuck
    if data.draw(st.booleans()):
        alg = drawn_algebra(data)
    else:
        dims = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)))
        degree = ColorLieAlgebra(dims).degree_of
        table = {}
        for a, b in combinations(range(sum(dims)), 2):
            targets = [t for t in range(sum(dims)) if degree(t) == (degree(a) + degree(b)) % 3]
            if targets and data.draw(st.booleans()):
                table[(a, b)] = {data.draw(st.sampled_from(targets)):
                                 data.draw(st.sampled_from((1, -1, Fraction(1, 2))))}
        alg = ColorLieAlgebra(dims, table)
    assert filiform_check(alg) == reference_graded_filiform(alg)

