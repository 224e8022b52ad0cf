"""Exact sparse integer/rational linear algebra.

Rank, nullity and kernel bases of sparse integer matrices, computed
exactly.  The engine, `_eliminate_int`, is fraction-free elimination
over Z (Bareiss-style) by inserting the rows one at a time into a table
of pivot rows.  A row is reduced by the pivot row of its lowest column
until that column is free; at a unit pivot the update is a plain
subtraction, at any other a gcd-scaled cross-multiplication followed by
content removal, so no fractions ever appear.  The lowest columns of
the pivot rows are the row space's leftmost-pivot set, whatever the
insertion order.

* `rank_certified` -- the number of pivots; exact by construction.
  Ranks keep this one elimination: ranked in two stages, as kernels
  are, the blocks of a grid verify take about a third longer.
* `kernel_basis(rows, n_cols)` -- the canonical kernel basis.  The
  first row at each lowest column is a pivot row as given, and one
  descending pass solves them; the rows set aside become a small system
  that `_eliminate_int` and the same pass solve.  Each vector stays
  integral, integer numerators over one denominator: the form
  `KernelBasis` stores; `Fraction` appears only in its `vectors` view.
* `KernelBasis.verify(rows)` -- M w = 0 for each vector's numerators w,
  summed row by row through a dict column index of M, so it needs no
  width.

All three take the rows in either form: a `SparseIntMatrix`, or
{col: value} dicts as `cohomology._term_sums` yields them, so the
cocycle export solves and checks its row sums without building a
matrix.

Matrices are immutable after construction, and the routines read their
input rows without writing them: the elimination copies a row only to
reduce it, so concurrent use on shared rows is safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple


class SparseIntMatrix:
    """Immutable sparse matrix with exact integer entries.

    Stored row-wise as tuples of (col, value) pairs, ascending column,
    no zeros, no duplicates.  Rows are given either as {col: value}
    dicts, which are sorted here, or already in that tuple form.
    """

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, n_rows: int, n_cols: int, rows: Iterable = ()):
        canonical = []
        for row in rows:
            row = tuple(sorted(row.items())) if isinstance(row, dict) else tuple(row)
            prev = -1
            for c, v in row:
                if not 0 <= c < n_cols:
                    raise ValueError("column index out of range")
                if c <= prev:
                    raise ValueError("duplicate column in row" if c == prev
                                     else "row columns must ascend")
                if v == 0:
                    raise ValueError("explicit zero entry stored")
                if type(v) is not int:  # bool is an int subclass, and not a matrix entry
                    raise ValueError("entries must be exact integers")
                prev = c
            canonical.append(row)
        if len(canonical) != n_rows:
            raise ValueError(f"expected {n_rows} rows, got {len(canonical)}")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.rows = tuple(canonical)

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

    def __iter__(self) -> Iterator:
        return iter(self.rows)

    def multiply_vector(self, v: Mapping) -> dict:
        """M @ v for a sparse column vector; returns sparse result."""
        out = {}
        for r, row in enumerate(self.rows):
            s = 0
            for c, val in row:
                vc = v.get(c)
                if vc:
                    s += val * vc
            if s:
                out[r] = s
        return out

    def __repr__(self):
        return f"SparseIntMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


class KernelBasis(NamedTuple):
    """An exact rational basis of a nullspace, stored integral.

    `integral` holds each vector as a pair (numerators, d): sparse
    {col: int} numerators in ascending column over one denominator
    d > 0, so the vector is numerators / d.  The form is canonical:
    gcd(d, numerators) = 1, the leading (lowest-column) numerator is
    positive, and the vectors are ordered by leading column.
    """

    integral: tuple

    @property
    def dim(self) -> int:
        return len(self.integral)

    @property
    def vectors(self) -> tuple:
        """The same vectors as sparse {col: Fraction} maps, built when read."""
        return tuple({c: Fraction(v, d) for c, v in w.items()} for w, d in self.integral)

    def verify(self, rows: Iterable) -> bool:
        """Whether M w = 0 for every vector's numerators w.

        `rows` are the rows of M in either form `kernel_basis` takes.
        Indexes the columns of M once in a dict (col -> [(row, value)]),
        so no width is needed, and sums each vector's products into the
        rows its support reaches, so the cost follows the vectors'
        supports, not dim x nnz.  Integral and exact: the check of every
        vector, not a sample.
        """
        columns: dict = {}
        for r, row in enumerate(rows):
            for c, v in (row.items() if isinstance(row, dict) else row):
                columns.setdefault(c, []).append((r, v))
        for w, _ in self.integral:
            sums: dict = {}
            for c, x in w.items():
                for r, v in columns.get(c, ()):
                    sums[r] = sums.get(r, 0) + v * x
            if any(sums.values()):
                return False
        return True


# -- elimination engine -------------------------------------------------


def _lowest_first(rows: Iterable) -> list:
    """The nonempty rows as (lowest column, dict row), highest lowest column first, stably."""
    rows = [(min(row), row) for row in (r if type(r) is dict else dict(r) for r in rows) if row]
    rows.sort(key=itemgetter(0), reverse=True)
    return rows


def _eliminate_int(rows: Iterable) -> dict:
    """Fraction-free elimination over Z; returns the echelon {col: row}.

    `rows` is a sequence of sparse integer rows ({col: value} dicts or
    tuples of (col, value) pairs, which are turned into dicts first).
    The nonempty rows are inserted one at a time, highest lowest column
    first, with each row's lowest column found once.  A row whose lowest
    column is free becomes a pivot row as it was given.  A row whose
    lowest column c already has a pivot row is copied and the copy is
    reduced by it until its lowest column is free, where it becomes the
    pivot row, or until it vanishes; the input rows and the echelon rows
    are never written.  At a unit pivot a = +-1 the update is
    row -= (b*a)*pivot, with b the row's entry at c; at any other pivot
    it is the gcd-scaled cross-multiplication (a/g)*row - (b/g)*pivot,
    g = gcd(a, b), followed by removal of the integer content.  Every
    intermediate entry is an exact integer.  The rows form a basis of
    the row space, and the lowest columns of any echelon basis are the
    pivot columns of the row space's reduced row echelon form: the
    leftmost-pivot set, whatever the insertion order.
    """
    echelon: dict = {}
    for c, row in _lowest_first(rows):
        prow = echelon.get(c)
        if prow is not None:
            row = dict(row)  # reduced on a copy: the input is never written
        while prow is not None:
            a, b = prow[c], row.pop(c)
            unit = a == 1 or a == -1
            if unit:
                f = b * a
            else:
                g = gcd(a, b)
                f, scale = b // g, a // g
                if scale != 1:
                    for k in row:
                        row[k] *= scale
            for k, v in prow.items():
                if k != c:
                    nv = row.get(k, 0) - f * v
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
            if not row:
                break
            if not unit:
                content = gcd(*row.values())
                if content > 1:
                    for k in row:
                        row[k] //= content
            c = min(row)
            prow = echelon.get(c)
        else:
            echelon[c] = row
    return echelon


def rank_certified(rows: Iterable) -> int:
    """Exact rank over Q by fraction-free integer elimination.

    `rows` is any sequence of sparse integer rows with nonzero entries: a
    `SparseIntMatrix`, or {col: value} dicts.  Every intermediate value
    is an exact integer, so the elimination is its own certificate.
    """
    return len(_eliminate_int(rows))


def nullity(matrix: SparseIntMatrix) -> int:
    """Exact dimension of the kernel: n_cols - rank."""
    return matrix.n_cols - rank_certified(matrix)


def _sweep(echelon: dict, free: Iterable, n_cols: int, aside: Iterable = ()) -> tuple:
    """Back-substitute echelon rows {col: row} for all free columns' vectors at once.

    Returns (values, support, denoms, small): values[k][f] is the
    numerator of x_k in free column f's vector, support[f] the columns
    that vector holds and denoms[f] its denominator, so x_f = 1.  One
    pass over the pivot columns, largest first, so every x_k a row needs
    is final when the row is solved.  At a unit pivot a the new entry is
    -total * a; at any other, the vector (its entries so far and its
    denominator) is first scaled by the least factor that keeps the new
    entry integral, so gcd(d, numerators) = 1.  Each row r of `aside`,
    read after the pass, gives the row {f: r . numerators of f} of
    `small`.  A column outside range(n_cols) raises ValueError naming it.
    """
    values: dict = {f: {f: 1} for f in free}
    support = {f: [f] for f in values}
    denoms = dict.fromkeys(values, 1)
    small = []
    solve_order = [(c, echelon[c]) for c in sorted(echelon, reverse=True)]
    for c, row in solve_order + [(None, r) for r in aside]:
        totals: dict = {}
        for k, v in row.items():
            if not 0 <= k < n_cols:
                raise ValueError(f"column {k} outside the {n_cols} kernel columns")
            xs = values.get(k)  # x_c is not solved yet: c adds nothing
            if xs:
                for f, x in xs.items():
                    totals[f] = totals.get(f, 0) + v * x
        if c is None:
            small.append({f: t for f, t in totals.items() if t})
            continue
        a = row[c]
        solved = values[c] = {}
        for f, total in totals.items():
            if not total:
                continue
            if a == 1 or a == -1:
                solved[f] = -total * a
            else:
                scale = abs(a) // gcd(total, a)
                if scale != 1:
                    for k in support[f]:
                        values[k][f] *= scale
                    denoms[f] *= scale
                solved[f] = -total * scale // a
            support[f].append(c)
    return values, support, denoms, small


def kernel_basis(rows: Iterable, n_cols: int) -> KernelBasis:
    """Exact basis of the kernel of `n_cols`-wide rows, integral and canonical.

    `rows` is any sequence of sparse integer rows with nonzero entries,
    as `rank_certified` takes them: a `SparseIntMatrix`, or {col: value}
    dicts.  A column outside range(n_cols) raises ValueError naming it.

    For each free column g of the row space's leftmost-pivot set the
    output is the one kernel vector with x_g = 1 and every other free
    coordinate 0, whatever the order and scale of the rows.  Two stages:

    1. In `_eliminate_int`'s insertion order the first row at each
       lowest column is that column's pivot row, as given; the others
       are set aside unreduced.  `_sweep` solves the pivot rows for a
       vector v_f = w_f / d_f of each column f they leave free (support
       in columns <= f), and reads each set-aside row r as the row
       {f: r . w_f} of a small system T over those columns.
    2. `_eliminate_int` and `_sweep` solve T for its canonical vectors
       z = u / e.  A vector whose z is its own coordinate alone is v_g as
       stored; any other is sum u_f w_f over e * d_g, content removed.

    M's leftmost-pivot set is the pivot rows' lowest columns and T's
    leftmost pivots, so the sum is M's vector for g, in the stored form.
    """
    pivots: dict = {}
    aside = []
    for c, row in _lowest_first(rows):
        if c in pivots:
            aside.append(row)
        else:
            pivots[c] = row
    values, support, denoms, small = _sweep(
        pivots, (f for f in range(n_cols) if f not in pivots), n_cols, aside)
    echelon = _eliminate_int(small)
    coeffs, used, scales, _ = _sweep(echelon, [f for f in support if f not in echelon], n_cols)
    vectors = []
    for g, fs in used.items():
        if len(fs) == 1:  # T's column g is zero: v_g is in the kernel of M
            w, d = {k: values[k][g] for k in support[g]}, denoms[g]
        else:
            w, d = {}, scales[g] * denoms[g]
            for f in fs:
                u = coeffs[f][g]
                for k in support[f]:
                    w[k] = w.get(k, 0) + u * values[k][f]
            content = gcd(d, *w.values())
            w, d = {k: v // content for k, v in w.items() if v}, d // content
        cols = sorted(w)
        sign = -1 if w[cols[0]] < 0 else 1
        vectors.append(({k: sign * w[k] for k in cols}, d))
    vectors.sort(key=lambda wd: min(wd[0]))
    return KernelBasis(tuple(vectors))
