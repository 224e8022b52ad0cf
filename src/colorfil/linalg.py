"""Exact sparse integer/rational linear algebra.

Rank, nullity and kernel bases of sparse integer matrices, computed
exactly by one engine, `_eliminate_int`: fraction-free elimination over
Z (Bareiss-style) by inserting the rows one at a time into a table of
pivot rows.  A row is reduced by the pivot row of its lowest column
until that column is free; at a unit pivot the update is a plain
subtraction, at any other a gcd-scaled cross-multiplication followed by
content removal, so no fractions ever appear.  The lowest columns of
the pivot rows are the row space's leftmost-pivot set, whatever the
insertion order.

* `rank_certified` -- the number of pivots; exact by construction.
* `kernel_basis(rows, n_cols)` -- sparse back-substitution over the
  integer echelon rows the elimination leaves, one free column at a
  time, giving the canonical kernel basis.  Each vector stays integral:
  integer numerators over one denominator, which is the form
  `KernelBasis` stores; `Fraction` appears only in its `vectors` view.
* `KernelBasis.verify(rows)` -- M w = 0 for each vector's numerators w,
  summed row by row through a dict column index of M, so it needs no
  width.

All three take the rows in either form: a `SparseIntMatrix`, or
{col: value} dicts as `cohomology._term_sums` yields them, so the
cocycle export solves and checks its row sums without building a
matrix.

Matrices are immutable after construction; the elimination routines
work on private row copies, so concurrent use on shared matrices is
safe.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
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


def _eliminate_int(rows: Iterable) -> dict:
    """Fraction-free elimination over Z; returns the echelon {col: row}.

    `rows` is a sequence of sparse integer rows ({col: value} dicts or
    tuples of (col, value) pairs); the elimination works on its own copies.
    The nonempty rows are inserted one at a time, highest lowest column
    first.  A row whose lowest column c already has a pivot row is reduced
    by it until its lowest column is free, where it becomes the pivot row,
    or until it vanishes; the echelon rows are never touched again.  At a
    unit pivot a = +-1 the update is row -= (b*a)*pivot, with b the row's
    entry at c; at any other pivot it is the gcd-scaled
    cross-multiplication (a/g)*row - (b/g)*pivot, g = gcd(a, b), followed
    by removal of the integer content.  Every intermediate entry is an
    exact integer.  The rows form a basis of the row space, and the
    lowest columns of any echelon basis are the pivot columns of the row
    space's reduced row echelon form: the leftmost-pivot set, whatever
    the insertion order.
    """
    echelon: dict = {}
    for row in sorted((dict(row) for row in rows if row), key=min, reverse=True):
        c = min(row)
        while c in echelon:
            prow = echelon[c]
            a, b = prow[c], row[c]
            unit = a == 1 or a == -1
            if unit:
                f = b * a
            else:
                g = gcd(a, b)
                f, scale = b // g, a // g
                if scale != 1:
                    for k in row:
                        row[k] *= scale
            # the pivot's own entry cancels to 0 here too
            for k, v in prow.items():
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


def kernel_basis(rows: Iterable, n_cols: int) -> KernelBasis:
    """Exact basis of the kernel of `n_cols`-wide rows, integral and canonical.

    `rows` is any sequence of sparse integer rows with nonzero entries,
    as `rank_certified` takes them: a `SparseIntMatrix`, or {col: value}
    dicts.  A column outside range(n_cols) raises ValueError naming it.

    Back-substitution over the integer echelon rows of `_eliminate_int`.
    Their lowest columns are the leftmost-pivot set of the row space, in
    whatever order the rows were inserted, so each free column f has
    exactly one kernel vector with x_f = 1 and every other free
    coordinate 0; that vector is the output, independent of row order
    and row scale.
    Only the pivots reachable from f through the echelon rows are
    visited, largest column first, so every x_k a row needs is final
    when the row is solved.  The solution is kept as integers over one
    common denominator and stored that way.  Each step scales by the
    least factor that keeps the new entry integral, so the denominator is
    the lcm of the entries' reduced denominators: gcd(d, numerators) = 1.
    """
    echelon = _eliminate_int(rows)
    users: dict = {}  # col k -> pivot cols whose echelon row holds k
    for c, row in echelon.items():
        for k in row:  # the echelon rows span the input rows: checking them checks all
            if not 0 <= k < n_cols:
                raise ValueError(f"column {k} outside the {n_cols} kernel columns")
            if k != c:
                users.setdefault(k, []).append(c)
    vectors = []
    for f in range(n_cols):
        if f in echelon:
            continue
        vec = {f: 1}  # the solution is vec / denom, kept integral
        denom = 1
        queued = set(users.get(f, ()))
        heap = [-c for c in queued]
        heapify(heap)
        while heap:
            c = -heappop(heap)
            row = echelon[c]
            total = sum(v * vec[k] for k, v in row.items() if k in vec)
            if not total:
                continue
            a = row[c]
            scale = abs(a) // gcd(total, a)
            if scale != 1:
                for k in vec:
                    vec[k] *= scale
                denom *= scale
                total *= scale
            vec[c] = -total // a
            for u in users.get(c, ()):
                if u not in queued:
                    queued.add(u)
                    heappush(heap, -u)
        sign = -1 if vec[min(vec)] < 0 else 1
        vectors.append(({k: sign * vec[k] for k in sorted(vec)}, denom))
    vectors.sort(key=lambda wd: min(wd[0]))
    return KernelBasis(tuple(vectors))
