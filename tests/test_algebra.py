"""Model construction, bracket arithmetic, and structural checks."""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorfil.algebra import (AlgebraFormatError, ColorLieAlgebra, InvalidParams,
                              build_model, from_json_dict, jacobiator, reached_triples,
                              validate_jacobi)
from colorfil.deformation import filiform_check


def constants_by_label(alg):
    return {(alg.label(a), alg.label(b)): {alg.label(t): c for t, c in vec.items()}
            for a, b, vec in alg.nonzero_constants()}


def bracket(alg, x, y):
    """[x, y] for labels, indices or sparse vectors keyed by either."""
    return alg.bracket(alg.vector(x), alg.vector(y))


def test_model_2_1_1_constants():
    alg = build_model(2, 1, 1)
    assert constants_by_label(alg) == {("X0", "X1"): {"X2": 1}}


def test_model_1_1_1_is_abelian():
    assert constants_by_label(build_model(1, 1, 1)) == {}


def test_model_3_2_2_constants():
    alg = build_model(3, 2, 2)
    assert constants_by_label(alg) == {
        ("X0", "X1"): {"X2": 1},
        ("X0", "X2"): {"X3": 1},
        ("X0", "Y1"): {"Y2": 1},
        ("X0", "Z1"): {"Z2": 1},
    }


@pytest.mark.parametrize("n, m, p", [(0, 1, 1), (-1, 0, 0), (1, -1, 0), (1, 0, -2),
                                     (True, 1, 1), (1, 2.0, 1), (1, 1, "1")])
def test_model_invalid_params(n, m, p):
    # a bool, a float or a string is refused, not read as the int it stands for
    with pytest.raises(InvalidParams):
        build_model(n, m, p)


@pytest.mark.parametrize("dims", [(4, 2, 2), (1, 0, 0), (4, 0, 2), (3, 2, 0), (11, 10, 0),
                                  (1, 0, 12)])
def test_basis_queries_match_a_table(dims):
    # the basis is read from dims: the answers are those of the table
    # X0..Xn, Y1..Ym, Z1..Zp, and index accepts its labels and nothing else.
    # An index outside 0..dim-1 raises: list indexing answered label(-1) of
    # the (3,2,2) model with the last element, Z2
    table = [(letter, i, g) for g, letter in enumerate("XYZ")
             for i in range(g > 0, dims[g] + (g > 0))]
    labels = [f"{letter}{i}" for letter, i, _ in table]
    alg = ColorLieAlgebra(dims)
    assert alg.dim == len(table)
    assert [alg.global_index(g, i) for _, i, g in table] == list(range(alg.dim))
    assert [alg.label(k) for k in range(alg.dim)] == labels
    assert [alg.degree_of(k) for k in range(alg.dim)] == [g for _, _, g in table]
    assert [alg.index(label) for label in labels] == list(range(alg.dim))
    candidates = {f"{letter}{i}" for letter in "XYZxW" for i in range(-2, 16)}
    candidates |= {f"{letter}0{i}" for letter in "XYZ" for i in range(4)}
    for label in sorted(candidates - set(labels)):
        with pytest.raises(KeyError):
            alg.index(label)
    for k in (-1, -alg.dim, alg.dim, 10**40):
        for query in (alg.label, alg.degree_of):
            with pytest.raises(IndexError):
                query(k)


@pytest.mark.parametrize("label", ["X01", "Y0", "Z3", "x1", "X+1", "X 1", "X\uff11", "X", "",
                                   "X-1", "Y1 ", "X" + "1" * 5000, None, 1, ("X", 1)])
def test_index_refuses_what_is_not_a_label(label):
    alg = build_model(3, 2, 2)
    with pytest.raises(KeyError):
        alg.index(label)


def test_dims_are_not_tabulated():
    # an algebra stores its dims, not one entry per basis element: 300000
    # elements cost what 3 do, and 10**40 of them build at once.  The checks
    # after parsing run on such dims in tests/test_readers.py, under a cap
    tracemalloc.start()
    try:
        ColorLieAlgebra((100000, 100000, 100000))
        assert tracemalloc.get_traced_memory()[1] < 64 * 1024
    finally:
        tracemalloc.stop()
    alg = ColorLieAlgebra((10**40, 2, 2))
    assert alg.dim == 10**40 + 4
    assert alg.label(10**40 - 1) == f"X{10**40 - 1}"
    assert alg.index(f"X{10**40 - 1}") == 10**40 - 1
    assert alg.index("Z2") == 10**40 + 3
    assert alg.label(10**40 + 3) == "Z2" and alg.degree_of(10**40 + 3) == 2
    with pytest.raises(KeyError):
        alg.index(f"X{10**40}")


def test_bracket_is_linear():
    alg = build_model(3, 2, 2)
    assert bracket(alg, "X0", {"X1": 1, "Y1": 1}) == \
        {alg.index("X2"): 1, alg.index("Y2"): 1}


def test_bracket_only_x0_acts():
    alg = build_model(3, 2, 2)
    assert bracket(alg, "X1", "X2") == {}
    assert bracket(alg, "X0", "X3") == {}  # end of chain
    assert bracket(alg, "Y1", "Z1") == {}


def test_bracket_anticommutative():
    alg = build_model(4, 3, 2)
    for a in range(alg.dim):
        for b in range(alg.dim):
            lhs = alg.bracket_basis(a, b)
            rhs = {t: -c for t, c in alg.bracket_basis(b, a).items()}
            assert lhs == rhs


def test_bracket_degree_additive():
    alg = build_model(4, 3, 2)
    for a in range(alg.dim):
        for b in range(alg.dim):
            expected = (alg.degree_of(a) + alg.degree_of(b)) % 3
            for t in alg.bracket_basis(a, b):
                assert alg.degree_of(t) == expected


def test_model_satisfies_jacobi():
    assert validate_jacobi(build_model(4, 3, 2)) == []


def test_injected_constant_breaks_jacobi():
    base = build_model(2, 1, 1)
    broken = base.with_added_constants({(1, 2): {1: 1}})  # [X1, X2] = X1
    violations = validate_jacobi(broken)
    assert violations
    assert any(v.elements == ("X0", "X1", "X2") for v in violations)


def test_abelian_algebra_satisfies_jacobi():
    alg = ColorLieAlgebra((3, 2, 2))
    assert validate_jacobi(alg) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 5))
@example(1, 0, 0)
@example(4, 0, 3)
@example(3, 5, 0)
def test_model_properties_sweep(n, m, p):
    alg = build_model(n, m, p)
    # [X0, Xi] = X(i+1), [X0, Yj] = Y(j+1), [X0, Zl] = Z(l+1), and nothing else
    assert constants_by_label(alg) == {
        ("X0", f"{family}{i}"): {f"{family}{i + 1}": 1}
        for family, length in zip("XYZ", (n, m, p)) for i in range(1, length)}
    assert validate_jacobi(alg) == []
    assert filiform_check(alg)


def test_reached_triples():
    alg = build_model(3, 2, 1)  # [X0, X1] = X2, [X0, X2] = X3, [X0, Y1] = Y2
    assert {x: set(row) for x, row in alg.bracket_index.items()} == \
        {0: {1, 2, 4}, 1: {0}, 2: {0}, 4: {0}}
    assert alg.bracket_index[0][1] == {2: 1} and alg.bracket_index[1][0] == {2: -1}
    # [[X0, X1], w] needs w = X0 again: the model's brackets reach no triple
    assert reached_triples(alg, alg) == set()
    # psi(X1, X2) = X0 and psi(X2, Y2) = Y1: each component of a value
    # reaches its bracket partners other than the pair itself ...
    values = ColorLieAlgebra(alg.dims, {(1, 2): {0: 1}, (2, 5): {4: 1}})
    assert reached_triples(values, alg) == {(1, 2, 4), (0, 2, 5)}
    # ... and each bracket component its partners in psi:
    # psi([X0, X1], Y2) and psi([X0, Y1], X2)
    assert reached_triples(alg, values) == {(0, 1, 5), (0, 2, 4)}


def test_jacobiator_is_the_three_term_identity():
    # [X1, X2] = X1 on the model: J(X0, X1, X2) = [[X0,X1],X2] - [X0,[X1,X2]] + [X1,[X0,X2]]
    #                                            = [X2, X2] - [X0, X1] + [X1, X3] = -X2
    base = build_model(3, 1, 1)
    broken = base.with_added_constants({(1, 2): {1: 1}})
    assert jacobiator(broken, broken, 0, 1, 2) == {2: -1}
    assert jacobiator(base, base, 0, 1, 2) == {}
    # mixed: outer(inner(a, b), c) with psi = [X1, X2] = X1 as either law
    psi = ColorLieAlgebra(base.dims, {(1, 2): {1: 1}})
    assert jacobiator(base, psi, 0, 1, 2) == {}       # psi(X2, X2) - psi(X0, 0) + psi(X1, X3)
    assert jacobiator(psi, base, 0, 1, 2) == {2: -1}  # [0, X2] - [X0, X1] + [X1, 0]


def test_not_nilpotent_detected():
    # [X1, X2] = X1 fixes X1 in every C^k(L_0): the sequence never reaches zero
    broken = build_model(2, 1, 1).with_added_constants({(1, 2): {1: 1}})
    assert filiform_check(build_model(2, 1, 1))
    assert not filiform_check(broken)


def test_filiform_module_examples():
    alg = build_model(3, 2, 2)
    assert filiform_check(alg)
    # drop [X0, Y1] or [X0, Z1]: that degree's flag no longer descends one step at a time
    for dropped in [("X0", "Y1"), ("X0", "Z1")]:
        constants = {(a, b): vec for a, b, vec in alg.nonzero_constants()
                     if (alg.label(a), alg.label(b)) != dropped}
        assert not filiform_check(ColorLieAlgebra(alg.dims, constants)), dropped


def test_filiform_module_empty_component_vacuous():
    assert filiform_check(build_model(2, 0, 1))
    assert filiform_check(build_model(2, 1, 0))


def test_l0_filiform():
    assert filiform_check(build_model(4, 1, 1))
    assert filiform_check(build_model(1, 1, 1))  # 2-dim abelian: trivially filiform
    assert filiform_check(ColorLieAlgebra((1, 0, 0)))  # X0 alone: d0 = 1 skips nothing
    assert filiform_check(ColorLieAlgebra((0, 0, 0)))
    fat_abelian = ColorLieAlgebra((3, 0, 0))
    assert not filiform_check(fat_abelian)


def test_json_roundtrip():
    alg = build_model(3, 2, 1)
    doc = alg.to_json_dict()
    back = from_json_dict(doc)
    assert back.dims == alg.dims
    assert constants_by_label(back) == constants_by_label(alg)
    assert doc["dims"] == [4, 2, 1]
    assert doc["beta"] == [[1, 1, 1]] * 3
    # any spelling of 1 is the trivial factor
    doc["beta"] = [["1/1", 1, 1], [1, "2/2", 1], [1, 1, 1]]
    assert constants_by_label(from_json_dict(doc)) == constants_by_label(alg)


def test_json_rational_coefficients():
    from fractions import Fraction
    alg = ColorLieAlgebra((3, 0, 0), {(0, 1): {2: Fraction(1, 2)}})
    doc = alg.to_json_dict()
    assert doc["constants"][0]["value"] == [{"basis": "X2", "coeff": "1/2"}]
    back = from_json_dict(doc)
    assert back.bracket_basis(0, 1) == {2: Fraction(1, 2)}
    # decimal strings parse too
    doc["constants"][0]["value"][0]["coeff"] = "0.5"
    assert from_json_dict(doc).bracket_basis(0, 1) == {2: Fraction(1, 2)}


@pytest.mark.parametrize("doc", [
    [],
    {"k": 3},
    {"k": 3, "dims": [2, 1], "beta": [[1, 1, 1]] * 3, "constants": []},
    {"k": 3, "dims": [2, 1, 1], "beta": [[1, 1, 1]] * 3,
     "constants": [{"lhs": "X0", "rhs": "X9", "value": [{"basis": "X1", "coeff": 1}]}]},
    {"k": 3.9, "dims": [2, 1, 1], "beta": [[1, 1, 1]] * 3, "constants": []},
    {"k": 3, "dims": [4.2, True, 2], "beta": [[1, 1, 1]] * 3, "constants": []},
    {"k": 3, "dims": [2, 1, "1"], "beta": [[1, 1, 1]] * 3, "constants": []},
    {"k": 3, "dims": [3, 1, 1], "beta": [[1, 1, 1]] * 3,
     "constants": [{"lhs": "X0", "rhs": "X1", "value": [{"basis": "X2", "coeff": "1/0"}]}]},
    # exponent notation: Fraction would expand this into a 33-million-bit integer
    {"k": 3, "dims": [3, 1, 1], "beta": [[1, 1, 1]] * 3,
     "constants": [{"lhs": "X0", "rhs": "X1",
                    "value": [{"basis": "X2", "coeff": "1e10000000"}]}]},
    # digit separators: Fraction reads these as 10 and 1/20 from Python 3.11 on only
    *({"k": 3, "dims": [3, 1, 1], "beta": [[1, 1, 1]] * 3,
       "constants": [{"lhs": "X0", "rhs": "X1", "value": [{"basis": "X2", "coeff": coeff}]}]}
      for coeff in ("1_0", "1/2_0")),
    # the format keeps k and beta, but only Z_3 with the trivial factor is legal
    {"k": 2, "dims": [1, 2], "beta": [[1, 1], [1, -1]], "constants": []},
    {"k": 4, "dims": [2, 1, 1, 1], "beta": [[1, 1, 1, 1]] * 4, "constants": []},
    {"k": 3, "dims": [2, 1, 1], "beta": [[1, 1, 1], [1, 1, -1], [1, -1, 1]], "constants": []},
    {"k": 3, "dims": [2, 1, 1], "beta": [[1, 1, 1], [1, 1], [1, 1, 1]], "constants": []},
    {"k": 3, "dims": [2, 1, 1], "constants": []},
    # a basis element repeated in one value is neither summed nor overwritten
    {"k": 3, "dims": [3, 2, 2], "beta": [[1, 1, 1]] * 3,
     "constants": [{"lhs": "X0", "rhs": "X1",
                    "value": [{"basis": "X2", "coeff": 1}, {"basis": "X2", "coeff": -1}]}]},
])
def test_from_json_rejects_malformed(doc):
    with pytest.raises(AlgebraFormatError):
        from_json_dict(doc)


def test_degree_incompatible_constant_rejected():
    with pytest.raises(ValueError):
        # [X0, X1] must stay in degree 0
        ColorLieAlgebra((3, 1, 1), {(0, 1): {3: 1}})


def test_diagonal_bracket_rejected():
    with pytest.raises(ValueError):
        ColorLieAlgebra((2, 1, 1), {(1, 1): {0: 1}})


def test_pair_given_in_both_orientations_rejected():
    # from_json_dict refuses such a document first; the constructor must
    # refuse it too, not let the second orientation replace the first
    with pytest.raises(ValueError, match=r"^duplicate structure constant for pair \(1, 2\)$"):
        ColorLieAlgebra((3, 0, 0), {(1, 2): {0: 1}, (2, 1): {0: 2}})
