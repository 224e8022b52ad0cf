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
"""

from fractions import Fraction
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from colorfil.algebra import build_model
from colorfil.cohomology import ALL_BLOCKS, assemble_Z2_system, block_dims
from colorfil.linalg import SparseIntMatrix, kernel_basis


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
    for r, c, v in matrix.entries():
        dense[r][c] = v
    return dense


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
    return SparseIntMatrix.from_entries(
        n_rows, n_cols, [(r, c, v) for (r, c), v in cells.items()])


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_kernel_basis_matches_dense_oracle(matrix):
    basis = kernel_basis(matrix)
    assert list(basis.vectors) == dense_kernel(to_dense(matrix), matrix.n_cols)
    assert basis.dim == len(basis.vectors)


def test_block_kernels_match_dense_oracle():
    for nmp in [(8, 6, 6), (5, 0, 3)]:
        alg = build_model(*nmp)
        for block in ALL_BLOCKS:
            matrix = assemble_Z2_system(alg, {block}).matrix
            expected = dense_kernel(to_dense(matrix), matrix.n_cols)
            assert list(kernel_basis(matrix).vectors) == expected, (nmp, block.name)
