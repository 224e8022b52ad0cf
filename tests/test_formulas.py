"""Closed-form block dimensions: examples, branches, symmetries."""

from functools import lru_cache
from itertools import product
from math import comb, gcd

import pytest

from colorfil.cohomology import ALL_BLOCKS, BlockKind, block_dims
from colorfil.algebra import build_model
from colorfil.algebra import InvalidParams
from colorfil.formulas import (IntegralityError, branch_labels, closed_form_exceptions,
                               main_theorem_total, _exact_div)
from colorfil.weights import count_weight_dim


def test_dim_A_examples():
    assert main_theorem_total(2, 0, 0).A == 1   # even branch
    assert main_theorem_total(1, 0, 0).A == 0   # odd branch with floor term 0
    assert main_theorem_total(3, 0, 0).A == 3   # 16/8 + 1
    assert main_theorem_total(5, 0, 0).A == 8


def test_dim_B_examples():
    assert main_theorem_total(3, 1, 0).B == 1   # saturated branch, m^2
    assert main_theorem_total(1, 1, 0).B == 1   # odd branch
    assert main_theorem_total(2, 2, 0).B == 3   # even branch


def test_dim_C_examples():
    assert main_theorem_total(3, 0, 1).C == 1
    assert main_theorem_total(1, 0, 1).C == 1
    assert main_theorem_total(2, 0, 3).C == 5


def test_dim_D_examples():
    assert main_theorem_total(1, 2, 1).D == 1   # p=1 mod 4, m even: (8-1-2+3)/8
    assert main_theorem_total(1, 1, 1).D == 0   # saturated
    assert main_theorem_total(1, 3, 2).D == 2   # p even


def test_dim_F_examples():
    # F at (m, p) is D at (p, m)
    assert main_theorem_total(1, 1, 1).F == 0
    assert main_theorem_total(1, 1, 2).F == 1
    assert main_theorem_total(1, 2, 3).F == 2


def test_dim_E_examples():
    assert main_theorem_total(1, 1, 1).E == 1   # odd case, saturated: mn
    assert main_theorem_total(2, 1, 1).E == 1   # even case, p = m-n+2: np-1
    assert main_theorem_total(2, 2, 2).E == 3
    assert main_theorem_total(3, 2, 2).E == 4


def test_main_theorem_totals():
    assert main_theorem_total(1, 1, 1).to_json_dict() == {
        "n": 1, "m": 1, "p": 1, "method": "closed_form",
        "A": 0, "B": 1, "C": 1, "D": 0, "E": 1, "F": 0, "total": 3}
    report = main_theorem_total(2, 1, 1)
    assert report.blocks() == {"A": 1, "B": 1, "C": 1, "D": 0, "E": 1, "F": 0}
    assert report.total == 4


def test_symmetries_as_functions():
    # swapping m and p swaps B with C and D with F
    for n, m, p in product(range(1, 13), range(0, 9), range(0, 9)):
        report, mirror = main_theorem_total(n, m, p), main_theorem_total(n, p, m)
        assert (report.C, report.F) == (mirror.B, mirror.D)


def test_monotonicity_in_m():
    for n, m in product(range(1, 13), range(0, 9)):
        assert main_theorem_total(n, m + 1, 0).B >= main_theorem_total(n, m, 0).B


def test_every_branch_is_integral_over_wide_grid():
    # integrality is asserted inside every evaluation; sweep must not raise
    for n, m, p in product(range(1, 17), range(0, 9), range(0, 9)):
        report = main_theorem_total(n, m, p)
        for name in "ABCDF":
            assert getattr(report, name) >= 0


def test_exact_div_guards():
    assert _exact_div(6, 3, "ok") == 2
    with pytest.raises(IntegralityError):
        _exact_div(7, 2, "bad")


def test_invalid_parameters_rejected():
    # a non-int is refused as a parameter, not met by IntegralityError
    for nmp in [(0, 0, 0), (1, -1, 0), (0, 1, 1), (2, 1, -1), (2.5, 1, 1), (True, 1, 1),
                (2, "1", 1)]:
        with pytest.raises(InvalidParams):
            main_theorem_total(*nmp)
        with pytest.raises(InvalidParams):
            branch_labels(*nmp)


def test_degenerate_components_defer_to_brute_force():
    # where closed_form_exceptions names a closed form (E at p = 0,
    # n = m + 2), the block is 0 and the kernel computation is the
    # arbiter; every other closed form, on degenerate models too, equals it
    excepted = 0
    for nmp in [(2, 0, 0), (5, 3, 0), (4, 3, 0), (3, 0, 1), (2, 0, 2)]:
        closed = main_theorem_total(*nmp).blocks()
        brute = {block.name: dim for block, dim in block_dims(build_model(*nmp)).items()}
        for name, value in closed_form_exceptions(*nmp).items():
            assert (closed[name], brute[name]) == (value, 0), nmp
            closed[name] = 0
            excepted += 1
        assert closed == brute, nmp
    assert excepted == 2


def _weight_report(n, m, p) -> dict:
    return {block.name: count_weight_dim(block, n, m, p) for block in ALL_BLOCKS}


@pytest.mark.parametrize("nmp, total", [((14, 10, 12), 468), ((25, 20, 20), 1550),
                                        ((40, 30, 30), 3650), ((60, 45, 50), 8840),
                                        ((400, 300, 300), 367250)])
def test_closed_forms_match_weight_oracle_beyond_brute_force(nmp, total):
    # the weight count is independent of the closed forms and far cheaper
    # than elimination, so it checks the paper's totals at sizes brute
    # force does not reach in the test suite
    report = main_theorem_total(*nmp)
    assert report.blocks() == _weight_report(*nmp)
    assert report.total == total


def test_closed_forms_match_weight_oracle_on_wide_grid():
    # the exceptions are the ones `verify` excuses: closed_form_exceptions
    for n, m, p in product(range(1, 21), range(0, 13), range(0, 13)):
        closed = main_theorem_total(n, m, p).blocks()
        for name, value in closed_form_exceptions(n, m, p).items():
            assert closed[name] == value, (n, m, p)
            closed[name] = 0
        assert closed == _weight_report(n, m, p), (n, m, p)


def test_branch_labels_structure():
    labels = branch_labels(3, 2, 2)
    assert set(labels) == set("ABCDEF")
    assert labels["A"] == "odd"
    assert labels["D"] == "even"


# -- the closed forms equal the summand sum everywhere ---------------------
#
# A linear form (cn, cm, cp, c) stands for cn*n + cm*m + cp*p + c; a region
# is a list of forms, each >= 0 on it.

N, M, P = 0, 1, 2


def _lin(const, *terms):
    """The form const + sum of k * x[i] over the (k, i) in terms."""
    form = [0, 0, 0, const]
    for k, i in terms:
        form[i] += k
    return tuple(form)


def _not(form):
    return tuple(-x for x in form[:3]) + (-form[3] - 1,)


def _eq(form):
    return [form, tuple(-x for x in form)]


def _holds(region, x):
    return all(f[0] * x[0] + f[1] * x[1] + f[2] * x[2] + f[3] >= 0 for f in region)


_DOMAIN = [_lin(-1, (1, N)), _lin(0, (1, M)), _lin(0, (1, P))]
_EXCEPTION = [_lin(0, (-1, P))] + _eq(_lin(-2, (1, N), (-1, M)))  # p = 0, n = m + 2


def _even(r):
    return (r[M] + r[P] - r[N]) % 2 == 0


def _odd(r):
    return not _even(r)


def _b_branches(x):
    # B at (n, m), C at (n, p)
    return [("saturated", None, [_lin(-1, (1, N), (-2, x))]),
            ("odd", lambda r: r[N] % 2 == 1, []),
            ("even", None, [])]


def _d_branches(u, v):
    # D at (m, p) = (u, v); F is D with m and p swapped
    return [("saturated", None, [_lin(1, (1, v), (-2, u))]),
            ("odd-minus", lambda r: (r[v] % 4, r[u] % 2) in ((1, 1), (3, 0)), []),
            ("odd-plus", lambda r: (r[v] % 4, r[u] % 2) in ((3, 1), (1, 0)), []),
            ("even", None, [])]


# formulas.py's branches in first-match order: (label, residue test, forms)
_BRANCHES = {
    "A": [("even", lambda r: r[N] % 2 == 0, []), ("odd", None, [])],
    "B": _b_branches(M), "C": _b_branches(P), "D": _d_branches(M, P), "F": _d_branches(P, M),
    "E": [("even/p>=m+n", _even, [_lin(0, (1, P), (-1, M), (-1, N))]),
          ("even/p=m-n+2", _even, _eq(_lin(-2, (1, P), (-1, M), (1, N)))),
          ("even/p<m-n+2", _even, [_lin(1, (1, M), (-1, N), (-1, P))]),
          ("even/quadratic", _even, [_lin(-2, (1, P), (-1, N), (1, M))]),
          ("even/p<n-m+2", _even, []),
          ("odd/p>=m+n-1", _odd, [_lin(1, (1, P), (-1, M), (-1, N))]),
          ("odd/p<=m-n+1", _odd, [_lin(1, (1, M), (-1, N), (-1, P))]),
          ("odd/quadratic", _odd, [_lin(-1, (1, P), (-1, N), (1, M))]),
          ("odd/p<n-m+1", _odd, [])],
}
# residues fixed per chain: mod 2 for the mixed blocks, mod 4 for the others
_MODULI = {"A": (4, 1, 1), "B": (2, 2, 1), "C": (2, 1, 2),
           "D": (1, 4, 4), "E": (2, 2, 2), "F": (1, 4, 4)}


def _branch_regions(block, r):
    """(label, region) pairs covering the points of residues r where each branch fires.

    A branch fires where its own condition holds and each earlier
    condition fails, that is where one of its forms fails.
    """
    failed = [[]]
    for label, test, forms in _BRANCHES[block.name]:
        if test is not None and not test(r):
            continue
        for region in failed:
            yield label, region + forms
        failed = [region + [_not(f)] for region in failed for f in forms]


def _pieces(block, r):
    """Regions covering the domain, on each of which the summand sum is one quadratic.

    The summands k run over a progression k0, k0 + d, ..., k1 of t terms.
    sum(min(k, c)) is the sum of the k when c >= k1, t * c when c < k0, and
    j * k0 + d * j * (j - 1) / 2 + (t - j) * c in between, with
    j = (c - k0 - rho) / d + 1; the residues r fix rho, and k0 and t are
    linear on each region.
    """
    (a, b), c = block.source_degrees, block.target_degree
    if a == b:  # exterior square, d = 4: k = 2a - 3, 2a - 7, ..., k0 = 1 or 3
        k0 = 1 if r[a] % 2 == 0 else 3
        some = _lin(-2, (1, a))  # a >= 2: at least one summand
        return [[_lin(1, (-1, a))], [some, _lin(3, (1, c), (-2, a))],
                [some, _lin(k0 - 1, (-1, c))],
                [some, _lin(-k0, (1, c)), _lin(-4, (2, a), (-1, c))]]
    pieces = []  # Clebsch-Gordan, d = 2: k = hi - lo + 1, ..., a + b - 1, lo terms
    for lo, hi, order in ((b, a, _lin(0, (1, a), (-1, b))), (a, b, _lin(-1, (1, b), (-1, a)))):
        some = _lin(-1, (1, lo))  # lo >= 1: at least one summand
        pieces += [[order, _lin(0, (-1, lo))], [order, some, _lin(1, (1, c), (-1, a), (-1, b))],
                   [order, some, _lin(0, (1, hi), (-1, lo), (-1, c))],
                   [order, some, _lin(-1, (1, c), (-1, hi), (1, lo)),
                    _lin(-2, (1, a), (1, b), (-1, c))]]
    return pieces


def _tight(form):
    """form >= 0 on the integers, with coprime coefficients and the constant rounded down."""
    g = gcd(*form[:3])
    return form if g == 0 else tuple(x // g for x in form[:3]) + (form[3] // g,)


def _lattice(region, mod, r):
    """The region's forms in the coordinates X of x = mod * X + r."""
    return [_tight(tuple(f[i] * mod[i] for i in range(3))
                   + (f[3] + sum(f[i] * r[i] for i in range(3)),)) for f in region]


def _empty(forms):
    """True if no integer point satisfies all forms.

    Fourier-Motzkin elimination, with every combination rounded by
    `_tight`, derives only forms valid at each integer point of the
    region; a constant form c >= 0 with c < 0 shows there is none.
    """
    forms = set(map(_tight, forms))
    for v in range(3):
        pos = [f for f in forms if f[v] > 0]
        neg = [f for f in forms if f[v] < 0]
        forms = {f for f in forms if f[v] == 0}
        forms |= {_tight(tuple(-g[v] * x + f[v] * y for x, y in zip(f, g)))
                  for f in pos for g in neg}
    return any(f[3] < 0 for f in forms)


def _rank(rows, most):
    """Rank of integer rows, counted up to `most`."""
    basis = []
    for row in rows:
        for pivot, b in basis:
            if row[pivot]:
                row = [b[pivot] * x - row[pivot] * y for x, y in zip(row, b)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is not None:
            basis.append((pivot, row))
            if len(basis) == most:
                break
    return len(basis)


def _quadratic_monomials(x):
    n, m, p = x
    return (1, n, m, p, n * n, n * m, n * p, m * m, m * p, p * p)


@lru_cache(maxsize=None)
def _closed_at(x):
    return main_theorem_total(*x).blocks(), branch_labels(*x)


def test_closed_forms_equal_summand_sum_everywhere():
    """closed == count_weight_dim for all n >= 1 and m, p >= 0, save E on _EXCEPTION,
    which is the set `closed_form_exceptions` states.

    Fix the residues of the chains (`_MODULI`).  Each closed-form branch
    is then one quadratic polynomial (the floor in A's odd branch is
    linear once n mod 4 is fixed), and so is the summand sum on each of
    its pieces.  The branches and the pieces each cover the domain, so
    every point lies in a region branch x piece x residue class, and on
    a region closed - sum is one quadratic.  It is 0 on the region (-1
    on the exception) if it is so at points of the region that fix a
    quadratic on the region's affine hull.  That hull is cut out by the
    forms that `_empty` shows cannot exceed 0, and `_empty` also skips
    the empty regions.  The points come from a lattice box, where
    `branch_labels` must name the branch the region transcribes.
    """
    for block in ALL_BLOCKS:
        mod = _MODULI[block.name]
        for r in product(*map(range, mod)):
            box = [tuple(k * X + s for k, X, s in zip(mod, Xs, r))
                   for Xs in product(range(8), repeat=3)]
            for label, branch in _branch_regions(block, r):
                for piece in _pieces(block, r):
                    region = _DOMAIN + branch + piece
                    forms = _lattice(region, mod, r)
                    if _empty(forms):
                        continue
                    where = (block.name, r, label, region)
                    tight = [f[:3] for f in forms if _empty(forms + [f[:3] + (f[3] - 1,)])]
                    dim = 3 - _rank(tight, 3)
                    want = 0
                    if block is BlockKind.E and not _empty(_lattice(region + _EXCEPTION, mod, r)):
                        # a region meeting the exception lies inside it
                        assert all(_empty(_lattice(region + [_not(f)], mod, r))
                                   for f in _EXCEPTION), where
                        want = -1
                    points = [x for x in box if _holds(region, x)]
                    for x in points:
                        closed, labels = _closed_at(x)
                        assert labels[block.name] == label, (x, where)
                        assert closed[block.name] - count_weight_dim(block, *x) == want, (x, where)
                        # the library's statement of the exception is exactly _EXCEPTION
                        excepted = block is BlockKind.E and _holds(_EXCEPTION, x)
                        assert closed_form_exceptions(*x).get(block.name) == \
                            (closed[block.name] if excepted else None), (x, where)
                    quadratics = comb(dim + 2, 2)  # their dimension on the hull
                    assert _rank(map(_quadratic_monomials, points), quadratics) == quadratics, where
