"""Exact rank, nullity and kernel computations."""

import copy
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colorfil.linalg import (KernelBasis, SparseIntMatrix, _eliminate_int, kernel_basis, nullity,
                             rank_certified)
from colorfil.scalars import ratio_str
from test_independent_oracle import (cells_of, dense_kernel, dense_nullity, from_cells,
                                     sparse_matrices, to_dense)


def matrix_from_dense(dense):
    n_cols = len(dense[0]) if dense else 0
    return SparseIntMatrix(len(dense), n_cols,
                           [{c: v for c, v in enumerate(row) if v} for row in dense])


def random_sparse(rng, n_rows, n_cols, values=(-1, 1)):
    cells = {}
    for _ in range(rng.randint(0, 3 * max(n_rows, n_cols))):
        cells[(rng.randrange(n_rows), rng.randrange(n_cols))] = rng.choice(values)
    return from_cells(n_rows, n_cols, cells)


def test_nullity_examples():
    assert nullity(matrix_from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 0
    assert nullity(SparseIntMatrix(2, 4, [{}, {}])) == 4
    assert nullity(matrix_from_dense([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(matrix_from_dense([[1, 0], [0, 1]]), 2).dim == 0
    kb = kernel_basis(matrix_from_dense([[1, 2], [2, 4]]), 2)
    assert kb.dim == 1
    (vec,) = kb.vectors
    # spans the line through (-2, 1); canonical form has positive lead
    assert vec == {0: Fraction(2), 1: Fraction(-1)}
    kb3 = kernel_basis(SparseIntMatrix(1, 3, [{}]), 3)
    assert kb3.dim == 3
    assert list(kb3.vectors) == [{0: 1}, {1: 1}, {2: 1}]
    # verify rejects a vector outside the kernel, even beside a good one
    m = matrix_from_dense([[1, 2], [2, 4]])
    assert kb.verify(m)
    assert not KernelBasis((kb.integral[0], ({0: 1}, 1))).verify(m)


def test_kernel_canonical_form():
    rng = random.Random(11)
    for _ in range(50):
        m = random_sparse(rng, rng.randint(1, 15), rng.randint(1, 15), (-3, -1, 1, 2))
        kb = kernel_basis(m, m.n_cols)
        assert kb.verify(m)
        leads = [min(v) for v in kb.vectors]
        assert leads == sorted(leads)
        for v in kb.vectors:
            assert v[min(v)] > 0
        # canonical: recomputing yields the identical basis
        assert kernel_basis(m, m.n_cols).vectors == kb.vectors


def test_kernel_and_verify_take_tuple_or_dict_rows():
    # the rows of a SparseIntMatrix, or the {col: value} dicts the cocycle
    # export passes: the same basis, accepted, and rejected with one entry changed
    dict_rows = [{0: 1, 1: 2, 3: -1}, {1: 3, 2: -6}, {0: 2, 4: 5}]
    matrix = SparseIntMatrix(len(dict_rows), 6, dict_rows)
    basis = kernel_basis(matrix, matrix.n_cols)
    assert kernel_basis(dict_rows, 6) == basis
    assert basis.dim == 3
    for rows in (matrix, matrix.rows, dict_rows):
        assert basis.verify(rows)
        for k, (w, d) in enumerate(basis.integral):
            for c in w:
                changed = {**w, c: w[c] + 1}
                bad = basis.integral[:k] + ((changed, d),) + basis.integral[k + 1:]
                # column 5 is in no row, so only its entry may change freely
                assert KernelBasis(bad).verify(rows) is (c == 5)


@st.composite
def non_unit_matrices(draw):
    """Small sparse integer matrices whose echelon holds a pivot other than +-1."""
    n_rows, n_cols = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        st.sampled_from([1, -1, 2, -3, 4, 6, -9, 35]), min_size=1, max_size=3 * n_cols))
    matrix = from_cells(n_rows, n_cols, cells)
    assume(any(abs(row[c]) != 1 for c, row in _eliminate_int(matrix.rows).items()))
    return matrix


@settings(max_examples=150, deadline=None)
@given(non_unit_matrices(), st.data())
def test_stored_kernel_form(matrix, data):
    basis = kernel_basis(matrix, matrix.n_cols)
    assert list(basis.vectors) == dense_kernel(to_dense(matrix), matrix.n_cols)
    assert basis.dim == len(basis.vectors)
    for w, d in basis.integral:
        # canonical: d > 0, no common factor, positive leading numerator
        assert d > 0 and gcd(d, *w.values()) == 1
        assert list(w) == sorted(w) and w[min(w)] > 0
        assert all(ratio_str(v, d) == str(Fraction(v, d)) for v in w.values())
    assert basis.verify(matrix)
    # a unit vector on a nonzero column lies outside the kernel; verify
    # rejects it at any position among the good vectors
    col = data.draw(st.sampled_from(sorted({c for row in matrix.rows for c, _ in row})))
    at = data.draw(st.integers(0, basis.dim))
    bad = basis.integral[:at] + (({col: 1}, 1),) + basis.integral[at:]
    assert not KernelBasis(bad).verify(matrix)


def test_stored_form_of_a_hand_worked_kernel():
    # x2 = 1 is the one free coordinate.  Row 1 gives 3 x1 = -2: the vector
    # is scaled by 3 and x1 = -2/3.  Row 0 gives 2 x0 = -(x1 + x2) = -1/3, a
    # second non-unit step that scales the entries already set by 2.  The
    # vector (-1/6, -2/3, 1) is stored with a positive lead as (1, 4, -6) / 6
    rows = [{0: 2, 1: 1, 2: 1}, {1: 3, 2: 2}]
    basis = kernel_basis(rows, 3)
    assert basis.integral == (({0: 1, 1: 4, 2: -6}, 6),)
    assert list(basis.integral[0][0]) == [0, 1, 2]
    # a fourth column in no row is free, and its own vector
    assert kernel_basis(rows, 4).integral == (({0: 1, 1: 4, 2: -6}, 6), ({3: 1}, 1))


@st.composite
def wide_sparse_rows(draw):
    """A few sparse rows over many mostly empty columns, entries in +-{1, 2, 3, 4, 6}."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4, 6, -6]), max_size=3 * n_rows))
    return from_cells(n_rows, n_cols, cells)


def oracle_stored_form(dense, n_cols):
    """The dense oracle's kernel in the stored form: each vector over the
    lcm d of its denominators, numerators v * d."""
    expected = []
    for vec in dense_kernel(dense, n_cols):
        d = lcm(*(v.denominator for v in vec.values()))
        expected.append(({c: int(v * d) for c, v in vec.items()}, d))
    return tuple(expected)


@settings(max_examples=200, deadline=None)
@given(wide_sparse_rows())
def test_stored_denominators_match_dense_oracle(matrix):
    # the Fraction view hides the stored pair: numerators and a denominator
    # both too large by one factor read the same
    rows = [dict(row) for row in matrix.rows]
    assert kernel_basis(rows, matrix.n_cols).integral == oracle_stored_form(to_dense(matrix),
                                                                            matrix.n_cols)


@st.composite
def rows_sharing_lowest_columns(draw):
    """Sparse rows that start at a few shared columns, entries in +-{1, 2, 3, 6},
    with some rows repeated and some repeated times an integer."""
    n_cols = draw(st.integers(1, 14))
    entry = st.sampled_from([1, -1, 2, -2, 3, -3, 6, -6])
    rows = []
    for lead in draw(st.lists(st.integers(0, min(3, n_cols - 1)), min_size=1, max_size=10)):
        rest = draw(st.dictionaries(st.integers(lead + 1, n_cols), entry, max_size=4))
        rows.append({lead: draw(entry), **{c: v for c, v in rest.items() if c < n_cols}})
    for k, factor in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                             st.sampled_from([1, 1, -1, 2, -3])), max_size=4)):
        rows.append({c: factor * v for c, v in rows[k].items()})
    rows = draw(st.permutations(rows))
    # a row whose lowest column another row already holds is set aside
    assume(len({min(row) for row in rows}) < len(rows))
    return rows, n_cols


@settings(max_examples=200, deadline=None)
@given(rows_sharing_lowest_columns())
def test_set_aside_rows_match_dense_oracle(case):
    rows, n_cols = case
    basis = kernel_basis(rows, n_cols)
    dense = [[row.get(c, 0) for c in range(n_cols)] for row in rows]
    assert basis.integral == oracle_stored_form(dense, n_cols)
    assert basis.verify(rows)


def test_set_aside_row_solved_through_a_non_unit_pivot():
    # Row 0 is column 0's pivot row as given and leaves columns 1 and 2
    # free, with vectors (-1, 1, 0) and (0, 0, 1).  Row 1, set aside, reads
    # -2 and 3 on them: the small system -2 y1 + 3 y2 = 0 pivots on -2, so
    # y1 = 3/2 and the vector is (-3/2, 3/2, 1), stored as (3, -3, -2) / 2
    rows = [{0: 1, 1: 1}, {0: 2, 2: 3}]
    expected = (({0: 3, 1: -3, 2: -2}, 2),)
    assert kernel_basis(rows, 3).integral == expected
    # swapped, column 0's pivot row as given is the non-unit one
    assert kernel_basis(rows[::-1], 3).integral == expected
    assert kernel_basis(rows, 4).integral == expected + (({3: 1}, 1),)


def test_rank_certified_identity():
    ident = matrix_from_dense([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert rank_certified(ident) == 5


def test_rank_certified_matches_reference_on_random_sparse():
    # the dense oracle shares no code with the sparse elimination engine
    rng = random.Random(2024)
    m = random_sparse(rng, 50, 80)
    dense = to_dense(m)
    assert nullity(m) == dense_nullity(dense, 80)
    assert rank_certified(m) == 80 - dense_nullity(dense, 80)
    # any sequence of sparse rows ranks alike: here the rows as dicts
    assert rank_certified([dict(row) for row in m]) == rank_certified(m)


def test_rank_exact_with_large_entries():
    p1, p2 = 2**61 - 1, 2**61 + 15
    m = SparseIntMatrix(2, 2, [{0: p1}, {1: 3}])
    assert rank_certified(m) == 2
    m2 = SparseIntMatrix(3, 3, [{0: p1}, {1: p2}, {2: 5}])
    assert rank_certified(m2) == 3
    # rows proportional over Q, with large entries: rank drops to 1
    m3 = matrix_from_dense([[p1, p2], [3 * p1, 3 * p2]])
    assert rank_certified(m3) == 1
    assert nullity(m3) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 999))
def test_rank_permutation_invariant(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 12)
    m = random_sparse(rng, n_rows, n_cols, (-2, -1, 1, 3))
    rows = list(range(n_rows))
    cols = list(range(n_cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = from_cells(n_rows, n_cols,
                          {(rows[r], cols[c]): v for (r, c), v in cells_of(m).items()})
    assert rank_certified(m) == rank_certified(permuted)
    assert nullity(m) == nullity(permuted)


def test_rank_plus_nullity_is_n_cols():
    rng = random.Random(99)
    for _ in range(25):
        m = random_sparse(rng, rng.randint(1, 18), rng.randint(1, 18))
        assert rank_certified(m) + nullity(m) == m.n_cols


def test_wide_matrix_with_one_small_component():
    width = 2_000_000
    rows = [{}, {1_500_000: 2, 1_999_999: -4}, {1_500_000: 1, 1_600_000: 3, 1_999_999: -2}]
    m = SparseIntMatrix(3, width, rows)
    assert rank_certified(m) == 2
    assert nullity(m) == width - 2


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.integers(0, 40), st.randoms(use_true_random=False))
def test_rank_and_kernel_on_mostly_empty_columns(matrix, extra, rnd):
    # the same matrix spread over a wider one: the elimination visits only
    # the columns its rows hold, and the empty ones become free columns
    width = matrix.n_cols + extra
    where = sorted(rnd.sample(range(width), matrix.n_cols))
    wide = from_cells(matrix.n_rows, width,
                      {(r, where[c]): v for (r, c), v in cells_of(matrix).items()})
    dense = to_dense(wide)
    assert rank_certified(wide) == rank_certified(matrix) == width - dense_nullity(dense, width)
    assert rank_certified([dict(row) for row in wide]) == rank_certified(wide)
    assert list(kernel_basis(wide, wide.n_cols).vectors) == dense_kernel(dense, width)


def test_elimination_does_not_mutate_matrix():
    m = matrix_from_dense([[1, 2], [2, 4]])
    before = m.rows
    rank_certified(m)
    kernel_basis(m, m.n_cols)
    assert m.rows == before
    # {col: value} rows, the form block_dims passes: a unit pivot at column 0
    # and a non-unit one (2) at column 2.  A spanning block_dims ranks the
    # same dicts twice, in the block pieces and in the joint rows.
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4, 2: 1}, {2: 2, 3: 3}, {2: 3, 3: 1}]
    before = copy.deepcopy(rows)
    ranks = [rank_certified(rows[:2]), rank_certified(rows[2:]), rank_certified(rows)]
    assert rows == before
    assert ranks == [2, 2, 3]
    assert rank_certified(rows) == 3
    assert rows == before


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_kernel_canonical_under_row_order_and_scale(rnd):
    # rows are inserted in an order that follows the input; the canonical
    # kernel must not
    m = random_sparse(rnd, rnd.randint(1, 14), rnd.randint(1, 14), (-2, -1, 1, 3))
    order = list(range(m.n_rows))
    rnd.shuffle(order)
    scales = [rnd.choice((-3, -2, -1, 1, 2, 5)) for _ in order]
    moved = SparseIntMatrix(m.n_rows, m.n_cols,
                            [{c: s * v for c, v in m.rows[r]} for r, s in zip(order, scales)])
    assert kernel_basis(moved, moved.n_cols).vectors == kernel_basis(m, m.n_cols).vectors


P61 = 2**61 - 1


@pytest.mark.parametrize("rows, n_cols, path_taken", [
    # a -1 pivot at column 0 reduces the two rows after it
    ([{0: -1, 2: 3}, {0: 2, 1: 1, 3: 1}, {0: 3, 1: -1, 2: 1}, {1: 1, 2: -1, 3: 2}], 5,
     lambda e: e[0][0] == -1),
    # +-1 and 2**61 - 1 entries: two rows reduce against the unit pivot at
    # column 0, one against the pivot 2**61 - 1 at column 1
    ([{0: 1, 1: P61, 3: -1}, {0: -1, 1: 1, 2: P61}, {1: P61, 2: -1, 3: 1},
      {0: P61, 2: 1, 3: P61}, {1: -1, 3: P61, 4: 1}], 6,
     lambda e: e[0][0] == 1 and e[1][1] == P61),
    # row 2 minus row 1 is {1: 2, 2: -2}: the unit update leaves its content 2
    # in place, and it then serves as a non-unit pivot for row 3
    ([{0: 1, 1: 1, 2: 1}, {0: 1, 1: 3, 2: -1}, {0: 2, 1: 3, 2: 1, 3: 1}], 5,
     lambda e: e[1] == {1: 2, 2: -2} and e[3] == {3: 1}),
])
def test_unit_and_non_unit_pivots_match_dense_oracle(rows, n_cols, path_taken):
    assert path_taken(_eliminate_int(rows))
    m = SparseIntMatrix(len(rows), n_cols, rows)
    dense = to_dense(m)
    assert nullity(m) == dense_nullity(dense, n_cols)
    assert list(kernel_basis(m, m.n_cols).vectors) == dense_kernel(dense, n_cols)


def test_constructor_rejects_stored_zero_and_non_int():
    with pytest.raises(ValueError):
        SparseIntMatrix(1, 2, [{0: 0}])
    with pytest.raises(ValueError):
        SparseIntMatrix(1, 2, [{0: Fraction(1, 2)}])
    with pytest.raises(ValueError, match="entries must be exact integers"):
        SparseIntMatrix(1, 2, [{0: True}])


def test_constructor_checks_tuple_rows():
    # canonical tuple rows are taken as given, after the same checks as dicts
    m = SparseIntMatrix(2, 3, [((0, 1), (2, -4)), ()])
    assert m.rows == (((0, 1), (2, -4)), ())
    for row, message in [(((0, 1), (3, 1)), "column index out of range"),
                         (((-1, 1),), "column index out of range"),
                         (((1, 1), (1, 2)), "duplicate column in row"),
                         (((0, 1), (1, 0)), "explicit zero entry stored"),
                         (((0, Fraction(1, 2)),), "entries must be exact integers"),
                         (((0, True),), "entries must be exact integers"),
                         (((2, 1), (0, 1)), "row columns must ascend")]:
        with pytest.raises(ValueError, match=message):
            SparseIntMatrix(1, 3, [row])
    with pytest.raises(ValueError, match="expected 2 rows, got 1"):
        SparseIntMatrix(2, 3, [((0, 1),)])


def test_kernel_basis_rejects_columns_outside_its_width():
    # a vector keyed outside range(n_cols) would name no basis map (the export
    # would write column -1 as the block's last (i, j, s)), so it is refused
    wide = SparseIntMatrix(1, 6, [{0: 1, 5: 1}])
    # in the last, column 7 is only in a row set aside behind column 0's pivot row
    for rows, col in [([{0: 1, 5: 1}], 5), ([((-1, 1), (0, 2))], -1), (wide, 5),
                      ([{0: 1}, {0: 1, 7: 1}], 7)]:
        with pytest.raises(ValueError, match=f"column {col} outside the 3 kernel columns"):
            kernel_basis(rows, 3)
    assert kernel_basis(wide, 6).dim == 5


def test_elimination_never_writes_its_input_rows():
    # a row whose lowest column is free becomes a pivot row as it was given;
    # a row that must be reduced (at a unit or a non-unit pivot, with content
    # removal) is reduced on a copy.  Rows of a SparseIntMatrix are tuples
    # and are read as dicts.  Each input compares equal to a deep copy taken
    # before the call, and the basis still verifies on the very same objects
    handmade = [{0: 2, 1: 3, 4: 1}, {0: 3, 2: -1}, {1: 1, 3: 5}, {1: -1, 3: 1, 4: 2},
                {2: 6, 4: 9}, {4: 3}, {0: 2, 1: 3, 4: 1}]
    rng = random.Random(28)
    cases = [(handmade, 6)]
    for _ in range(60):
        n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 10)
        cases.append(([dict(row) for row in random_sparse(rng, n_rows, n_cols, (-3, -1, 1, 2, 4))],
                      n_cols))
    stored = reduced = 0
    for dict_rows, n_cols in cases:
        matrix = SparseIntMatrix(len(dict_rows), n_cols, dict_rows)
        for rows in (dict_rows, matrix, matrix.rows):
            before = copy.deepcopy(list(rows))
            echelon = _eliminate_int(rows)
            assert list(rows) == before
            assert rank_certified(rows) == len(echelon)
            assert list(rows) == before
            basis = kernel_basis(rows, n_cols)
            assert list(rows) == before
            assert basis.verify(rows)
        given = {id(row) for row in dict_rows}
        as_given = sum(id(row) in given for row in _eliminate_int(dict_rows).values())
        stored += as_given
        reduced += sum(map(bool, dict_rows)) - as_given
    # the echelon holds the given dicts themselves, and other rows were reduced
    assert _eliminate_int(handmade)[4] is handmade[5]
    assert stored and reduced
