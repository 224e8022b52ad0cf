"""Model construction, bracket arithmetic, and structural checks."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorfil.algebra import (AlgebraFormatError, ColorLieAlgebra,
                              InvalidParams, NotNilpotent,
                              _descending_dims, build_model, from_json_dict,
                              is_filiform_module, jacobiator, l0_is_filiform,
                              reached_triples, validate_jacobi)


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


@pytest.mark.parametrize("n, m, p", [(0, 1, 1), (-1, 0, 0), (1, -1, 0), (1, 0, -2)])
def test_model_invalid_params(n, m, p):
    with pytest.raises(InvalidParams):
        build_model(n, m, p)


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
    # each descending sequence drops to zero in n, m and p steps
    assert [len(_descending_dims(alg, g)) - 1 for g in range(3)] == [n, m, p]
    assert l0_is_filiform(alg)
    for g in (1, 2):
        if alg.dims[g] >= 1:
            assert is_filiform_module(alg, g)


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
    broken = build_model(2, 1, 1).with_added_constants({(1, 2): {1: 1}})
    with pytest.raises(NotNilpotent):
        _descending_dims(broken, 0)


def test_filiform_module_examples():
    alg = build_model(3, 2, 2)
    assert is_filiform_module(alg, 1)
    assert is_filiform_module(alg, 2)
    # drop [X0, Y1]: the degree-1 flag no longer descends one step at a time
    constants = {(a, b): vec for a, b, vec in alg.nonzero_constants()
                 if (alg.label(a), alg.label(b)) != ("X0", "Y1")}
    maimed = ColorLieAlgebra(alg.dims, constants)
    assert not is_filiform_module(maimed, 1)
    assert is_filiform_module(maimed, 2)


def test_filiform_module_empty_component_vacuous():
    assert is_filiform_module(build_model(2, 0, 1), 1)


def test_filiform_module_rejects_degree_zero():
    # only the nonzero degrees 1 and 2 of Z_3 carry a module; no index wraps
    for g in (0, 3, 4, -1):
        with pytest.raises(ValueError):
            is_filiform_module(build_model(2, 1, 1), g)


def test_l0_filiform():
    assert l0_is_filiform(build_model(4, 1, 1))
    assert l0_is_filiform(build_model(1, 1, 1))  # 2-dim abelian: trivially filiform
    assert l0_is_filiform(ColorLieAlgebra((1, 0, 0)))  # X0 alone: the d0 <= 1 branch
    fat_abelian = ColorLieAlgebra((3, 0, 0))
    assert not l0_is_filiform(fat_abelian)


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
