"""Closed-form block dimensions: examples, branches, symmetries."""

from itertools import product

import pytest

from colorfil.cohomology import ALL_BLOCKS, block_dims
from colorfil.algebra import build_model
from colorfil.algebra import InvalidParams
from colorfil.formulas import (IntegralityError, branch_labels, main_theorem_total,
                               _exact_div)
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
    for nmp in [(0, 0, 0), (1, -1, 0), (0, 1, 1), (2, 1, -1)]:
        with pytest.raises(InvalidParams):
            main_theorem_total(*nmp)
        with pytest.raises(InvalidParams):
            branch_labels(*nmp)


def test_degenerate_components_defer_to_brute_force():
    # with m = 0 or p = 0 the printed formulas may leave their domain;
    # the kernel computation is the arbiter there, and they can disagree
    closed = main_theorem_total(2, 0, 0)
    assert closed.E == -1
    brute = block_dims(build_model(2, 0, 0))
    from colorfil.cohomology import BlockKind
    assert brute[BlockKind.E] == 0
    # A, B, C stay valid even on degenerate components
    assert brute[BlockKind.A] == closed.A
    assert brute[BlockKind.B] == closed.B == 0


def _weight_report(n, m, p) -> dict:
    return {block.name: count_weight_dim(block, n, m, p) for block in ALL_BLOCKS}


@pytest.mark.parametrize("nmp, total", [((14, 10, 12), 468), ((25, 20, 20), 1550),
                                        ((40, 30, 30), 3650), ((60, 45, 50), 8840)])
def test_closed_forms_match_weight_oracle_beyond_brute_force(nmp, total):
    # the weight count is independent of the closed forms and far cheaper
    # than elimination, so it checks the paper's totals at sizes brute
    # force does not reach in the test suite
    report = main_theorem_total(*nmp)
    assert report.blocks() == _weight_report(*nmp)
    assert report.total == total


def test_closed_forms_match_weight_oracle_on_wide_grid():
    # the one exception is the rule of `verify`: on a degenerate model
    # (m = 0 or p = 0) a negative closed form lies outside its domain
    for n, m, p in product(range(1, 21), range(0, 13), range(0, 13)):
        closed = main_theorem_total(n, m, p).blocks()
        for name, count in _weight_report(n, m, p).items():
            if (m == 0 or p == 0) and closed[name] < 0:
                assert count == 0, (name, n, m, p)
                continue
            assert closed[name] == count, (name, n, m, p)


def test_branch_labels_structure():
    labels = branch_labels(3, 2, 2)
    assert set(labels) == set("ABCDEF")
    assert labels["A"] == "odd"
    assert labels["D"] == "even"
