"""Closed-form dimensions of the six deformation blocks.

Each block of the deformation space of the model algebra L^{n,m,p} has
an exact closed-form dimension with branch conditions on the parameters.
Branches are evaluated in their printed order, first match wins; every
division is asserted to be exact, so all arithmetic stays in the
integers.  `branch_labels` exposes which branch fired at a parameter
point, which lets the test grid prove it exercises every case.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import check_params


class IntegralityError(ArithmeticError):
    """A branch expression failed to divide exactly (formula misread)."""


def _exact_div(numerator: int, denominator: int, context: str) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise IntegralityError(f"{context}: {numerator} not divisible by {denominator}")
    return q


def _dim_A(n: int) -> tuple:
    if n % 2 == 0:
        return _exact_div(n * (3 * n - 2), 8, "A even"), "even"
    return _exact_div(3 * n * n - 4 * n + 1, 8, "A odd") + (n + 1) // 4, "odd"


def _dim_B(n: int, m: int) -> tuple:
    if n >= 2 * m + 1:
        return m * m, "saturated"
    if n % 2 == 1:
        return _exact_div(4 * n * m - n * n + 1, 4, "B odd"), "odd"
    return _exact_div(4 * n * m - n * n, 4, "B even"), "even"


def _dim_D(m: int, p: int) -> tuple:
    if p >= 2 * m - 1:
        return _exact_div(m * (m - 1), 2, "D saturated"), "saturated"
    if (p % 4 == 1 and m % 2 == 1) or (p % 4 == 3 and m % 2 == 0):
        return _exact_div(4 * m * p - p * p - 2 * p - 1, 8, "D minus"), "odd-minus"
    if (p % 4 == 3 and m % 2 == 1) or (p % 4 == 1 and m % 2 == 0):
        return _exact_div(4 * m * p - p * p - 2 * p + 3, 8, "D plus"), "odd-plus"
    # remaining case: p even
    return _exact_div(4 * m * p - p * p - 2 * p, 8, "D even"), "even"


def _dim_E(n: int, m: int, p: int) -> tuple:
    quad = -m * m - n * n - p * p + 2 * n * p + 2 * m * n + 2 * m * p
    if (m + p - n) % 2 == 0:
        if p >= m + n:
            return m * n, "even/p>=m+n"
        if p == m - n + 2:
            return n * p - 1, "even/p=m-n+2"
        if p < m - n + 2:
            return n * p, "even/p<m-n+2"
        if p >= n - m + 2:
            return _exact_div(quad, 4, "E even quad"), "even/quadratic"
        return m * p, "even/p<n-m+2"
    if p >= m + n - 1:
        return m * n, "odd/p>=m+n-1"
    if p <= m - n + 1:
        return n * p, "odd/p<=m-n+1"
    if p >= n - m + 1:
        return _exact_div(quad + 1, 4, "E odd quad"), "odd/quadratic"
    return m * p, "odd/p<n-m+1"


def closed_form_exceptions(n: int, m: int, p: int) -> dict:
    """{block letter: closed form} where a closed form is not the block's dimension.

    Only E at p = 0, n = m + 2, whose branch p = m - n + 2 reads n * p - 1 = -1
    where the block is 0 (tests/test_formulas.py proves there is no other).
    """
    return {"E": -1} if p == 0 and n == m + 2 else {}


def _closed_forms(n: int, m: int, p: int) -> dict:
    """{block letter: (dimension, branch label)} at (n, m, p).

    C is the B formula with m -> p, and F the D formula with m and p
    swapped.  Raises InvalidParams outside the model's domain.
    """
    check_params(n, m, p)
    return {"A": _dim_A(n), "B": _dim_B(n, m), "C": _dim_B(n, p),
            "D": _dim_D(m, p), "E": _dim_E(n, m, p), "F": _dim_D(p, m)}


def branch_labels(n: int, m: int, p: int) -> dict:
    """Which branch of each block formula fires at (n, m, p)."""
    return {name: label for name, (_, label) in _closed_forms(n, m, p).items()}


METHOD_CLOSED = "closed_form"
METHOD_BRUTE = "brute_force"
METHOD_WEIGHTS = "weight_oracle"


class DimensionReport(NamedTuple):
    """Per-block dimensions at one parameter point, from one method.

    Every method reports all six blocks; total = A+B+C+D+E+F.
    """

    n: int
    m: int
    p: int
    method: str
    A: int
    B: int
    C: int
    D: int
    E: int
    F: int

    @property
    def total(self) -> int:
        return self.A + self.B + self.C + self.D + self.E + self.F

    def blocks(self) -> dict:
        return {name: getattr(self, name) for name in "ABCDEF"}

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "p": self.p, "method": self.method,
                **self.blocks(), "total": self.total}


def main_theorem_total(n: int, m: int, p: int) -> DimensionReport:
    """All six block dimensions and their sum from the closed forms."""
    dims = {name: dim for name, (dim, _) in _closed_forms(n, m, p).items()}
    return DimensionReport(n=n, m=m, p=p, method=METHOD_CLOSED, **dims)
