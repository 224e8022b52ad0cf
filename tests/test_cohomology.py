"""Cocycle conditions, block systems, and the six-way decomposition."""

import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colorfil.algebra import build_model, validate_jacobi
from colorfil.cohomology import (ALL_BLOCKS, BlockKind, Cochain2, ColumnKey,
                                 assemble_Z2_system, block_dims, cochain_columns,
                                 cochain_from_json, cochain_to_json,
                                 cocycle_basis_json, delta1, delta2, is_cocycle)
from colorfil.deformation import deform
from colorfil.formulas import main_theorem_total
from colorfil.linalg import kernel_basis


def vec_by_label(alg, vec):
    return {alg.label(i): c for i, c in vec.items()}


def test_blocks_are_exactly_the_degree_balanced_signatures():
    from colorfil.cohomology import ALL_BLOCKS
    for block in ALL_BLOCKS:
        g1, g2 = block.source_degrees
        assert (g1 + g2 - block.target_degree) % 3 == 0
    # and they are all six of them
    assert {b.name for b in ALL_BLOCKS} == set("ABCDEF")


# -- delta2 --------------------------------------------------------------


def test_delta2_zero_cochain():
    alg = build_model(3, 2, 2)
    psi = Cochain2(alg)
    for triple in combinations(range(alg.dim), 3):
        assert delta2(alg, psi, triple) == {}


def test_delta2_non_cocycle_example():
    alg = build_model(2, 1, 1)
    psi = Cochain2(alg)
    psi.add(BlockKind.A, 1, 2, 1, 1)  # a(X1, X2) = X1
    assert vec_by_label(alg, delta2(alg, psi, ("X0", "X1", "X2"))) == {"X2": 1}


def test_delta2_cocycle_example():
    alg = build_model(2, 1, 1)
    psi = Cochain2(alg)
    psi.add(BlockKind.A, 1, 2, 2, 1)  # a(X1, X2) = X2
    assert delta2(alg, psi, ("X0", "X1", "X2")) == {}
    assert is_cocycle(alg, psi)


# -- delta1 --------------------------------------------------------------


def test_delta1_of_identity_is_bracket():
    alg = build_model(3, 2, 2)
    ident = {i: {i: 1} for i in range(alg.dim)}
    db = delta1(alg, ident)
    for a in range(alg.dim):
        for b in range(alg.dim):
            if a != b:
                assert db.value_on_pair(a, b) == alg.bracket_basis(a, b)


def test_delta1_of_zero_is_zero():
    alg = build_model(3, 2, 2)
    assert delta1(alg, {}).is_zero()


def test_delta1_single_entry_example():
    alg = build_model(3, 2, 2)
    db = delta1(alg, {"X1": "X2"})
    got = db.value_on_pair(alg.index("X0"), alg.index("X1"))
    assert vec_by_label(alg, got) == {"X3": 1}


def test_delta1_rejects_degree_mixing_map():
    alg = build_model(2, 1, 1)
    with pytest.raises(ValueError):
        delta1(alg, {"X1": "Y1"})


def random_degree0_map(alg, rng):
    gm = {}
    for g in range(3):
        comp = list(alg.component_indices(g))
        for u in comp:
            vec = {t: rng.randint(-2, 2) for t in comp if rng.random() < 0.5}
            vec = {t: c for t, c in vec.items() if c}
            if vec:
                gm[u] = vec
    return gm


def test_delta2_kills_delta1():
    # d2 o d1 = 0: coboundaries satisfy every condition instance
    rng = random.Random(42)
    for nmp in [(2, 1, 1), (3, 2, 2), (4, 1, 3)]:
        alg = build_model(*nmp)
        for _ in range(5):
            db = delta1(alg, random_degree0_map(alg, rng))
            for triple in combinations(range(alg.dim), 3):
                assert delta2(alg, db, triple) == {}


# -- constraint systems ---------------------------------------------------


def test_block_A_system_2_1_1():
    system = assemble_Z2_system(build_model(2, 1, 1), {BlockKind.A})
    assert system.matrix.n_cols == 2
    assert system.nullity() == 1
    (vec,) = kernel_basis(system.matrix).vectors
    keys = {system.col_keys[c]: v for c, v in vec.items()}
    # the X1-target coefficient is forced to zero; phi^2_{1,2} survives
    assert keys == {(BlockKind.A, 1, 2, 2): Fraction(1)}


def test_block_A_system_1_1_1_empty():
    system = assemble_Z2_system(build_model(1, 1, 1), {BlockKind.A})
    assert system.matrix.n_cols == 0
    assert system.nullity() == 0


def test_all_blocks_1_1_1():
    system = assemble_Z2_system(build_model(1, 1, 1))
    assert system.nullity() == 3


@pytest.mark.parametrize("nmp, expected", [
    ((2, 1, 1), {"A": 1, "B": 1, "C": 1, "D": 0, "E": 1, "F": 0}),
    ((1, 1, 1), {"A": 0, "B": 1, "C": 1, "D": 0, "E": 1, "F": 0}),
])
def test_block_dims_examples(nmp, expected):
    dims = block_dims(build_model(*nmp))
    assert {b.name: d for b, d in dims.items()} == expected


def test_block_dims_match_closed_forms_3_2_2():
    dims = block_dims(build_model(3, 2, 2))
    assert {b.name: d for b, d in dims.items()} == main_theorem_total(3, 2, 2).blocks()


def test_decomposition_sum_over_grid():
    for nmp in [(1, 1, 1), (2, 2, 2), (3, 1, 2), (4, 3, 2)]:
        alg = build_model(*nmp)
        joint = assemble_Z2_system(alg).nullity()
        parts = block_dims(alg)  # raises DecompositionMismatch on failure
        assert joint == sum(parts.values())


def test_kernel_cochains_reverified_via_delta2():
    # independent route: every kernel vector satisfies all condition
    # instances evaluated directly, not through the matrix
    for nmp in [(2, 1, 1), (3, 2, 2)]:
        alg = build_model(*nmp)
        for psi in assemble_Z2_system(alg).kernel_cochains():
            assert is_cocycle(alg, psi)


def test_x0_target_exclusion():
    # the two L0-valued blocks grow when X0 is allowed as a target
    e_strict = assemble_Z2_system(build_model(1, 1, 1), {BlockKind.E})
    e_loose = assemble_Z2_system(build_model(1, 1, 1), {BlockKind.E}, allow_x0_target=True)
    assert (e_strict.nullity(), e_loose.nullity()) == (1, 2)
    a_strict = assemble_Z2_system(build_model(2, 1, 1), {BlockKind.A})
    a_loose = assemble_Z2_system(build_model(2, 1, 1), {BlockKind.A}, allow_x0_target=True)
    assert (a_strict.nullity(), a_loose.nullity()) == (1, 2)


def test_row_labels_cover_expected_conditions():
    system = assemble_Z2_system(build_model(3, 2, 2))
    conditions = {label.condition for label in system.row_labels}
    # on the model only X0-led instances survive: families (1)-(6)
    assert conditions <= set(range(1, 11))
    assert 1 in conditions and 2 in conditions and 4 in conditions


# -- cochain values -------------------------------------------------------


def test_cochain_skew_symmetry():
    alg = build_model(3, 2, 2)
    psi = Cochain2(alg, allow_x0_target=True)
    psi.add(BlockKind.A, 1, 2, 2, 3)
    psi.add(BlockKind.A, 3, 1, 0, 5)  # swapped same-family pair, X0 target
    psi.add(BlockKind.B, 1, 1, 2, Fraction(1, 2))
    psi.add(BlockKind.C, 3, 2, 1, 4)
    psi.add(BlockKind.D, 2, 1, 1, 1)
    psi.add(BlockKind.E, 2, 1, 1, -2)
    psi.add(BlockKind.F, 1, 2, 2, 7)
    for u in range(alg.dim):
        for v in range(alg.dim):
            lhs = psi.value_on_pair(u, v)
            rhs = {t: -c for t, c in psi.value_on_pair(v, u).items()}
            assert lhs == rhs
    # the values are the law-shaped additions deform puts on the model
    values = {(a, b): psi.value_on_pair(a, b) for a, b in combinations(range(alg.dim), 2)}
    values = {pair: vec for pair, vec in values.items() if vec}
    assert len(values) == 7
    assert psi.as_constant_additions() == values
    law = deform(alg, psi).result
    added = {}
    for a, b in combinations(range(alg.dim), 2):
        diff = {t: law.bracket_basis(a, b).get(t, 0) - alg.bracket_basis(a, b).get(t, 0)
                for t in range(alg.dim)}
        diff = {t: c for t, c in diff.items() if c}
        if diff:
            added[(a, b)] = diff
    assert added == values


@pytest.mark.parametrize("vanish_on_x0, allow_x0_target",
                         [(True, False), (True, True), (False, True)])
def test_cochain_accepts_exactly_the_column_keys(vanish_on_x0, allow_x0_target):
    alg = build_model(3, 2, 2)
    cols = cochain_columns(alg, ALL_BLOCKS, vanish_on_x0, allow_x0_target)
    psi = Cochain2(alg, vanish_on_x0=vanish_on_x0, allow_x0_target=allow_x0_target)
    coeff = {key: k + 1 for k, key in enumerate(cols)}
    for key in cols:
        psi.add(key.block, key.i, key.j, key.s, coeff[key])
    assert list(psi.items()) == [(key, coeff[key]) for key in cols]
    accepted = set(cols)
    for block in ALL_BLOCKS:
        for i, j, s in product(range(-1, 6), repeat=3):
            canonical = (block, *sorted((i, j)), s) if block.same_family else (block, i, j, s)
            if canonical in accepted:
                sign = -1 if canonical[1] != i else 1
                assert psi.get(block, i, j, s) == sign * coeff[canonical]
                continue
            # outside the family ranges get is 0, never a neighbour's value
            assert psi.get(block, i, j, s) == 0
            with pytest.raises(ValueError):
                psi.add(block, i, j, s, 1)


def test_cochain_canonicalization_and_validation():
    alg = build_model(3, 2, 2)
    psi = Cochain2(alg)
    psi.add(BlockKind.A, 2, 1, 2, 1)  # swapped pair stores the negative
    assert psi.get(BlockKind.A, 1, 2, 2) == -1
    psi.add(BlockKind.A, 1, 2, 2, 1)  # cancels exactly
    assert psi.is_zero()
    with pytest.raises(ValueError):
        psi.add(BlockKind.D, 1, 1, 1, 1)  # diagonal in alternating block
    with pytest.raises(ValueError):
        psi.add(BlockKind.A, 0, 1, 1, 1)  # X0 source is forbidden
    with pytest.raises(ValueError):
        psi.add(BlockKind.E, 1, 1, 0, 1)  # X0 target excluded by default
    with pytest.raises(ValueError):
        psi.add(BlockKind.B, 1, 3, 1, 1)  # j exceeds m
    # the messages and their order: diagonal, then i, j, s after the swap
    for args, message in [((BlockKind.A, 2, 2, 9), "diagonal source pair (2,2)"),
                          ((BlockKind.A, 9, 0, 9), "source index i=0"),
                          ((BlockKind.B, 0, 9, 9), "source index i=0"),
                          ((BlockKind.B, 1, 9, 9), "source index j=9"),
                          ((BlockKind.E, 1, 1, 4), "target index s=4")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            psi.add(*args, 1)
    psi.add(BlockKind.B, 1, 1, 1, 2)  # b(X1, Y1) = 2 Y1
    # out-of-range indices read 0, not an element of the next family:
    # "X4" has the global index of Y1
    assert psi.get(BlockKind.B, 1, 1, 1) == 2
    assert psi.get(BlockKind.A, 1, 4, 4) == 0 and psi.get(BlockKind.A, 0, 1, 1) == 0


def test_cochain_addition_linearity():
    alg = build_model(3, 2, 2)
    a = Cochain2(alg)
    a.add(BlockKind.D, 1, 2, 2, 1)
    b = Cochain2(alg)
    b.add(BlockKind.D, 1, 2, 1, 2)
    b.add(BlockKind.F, 1, 2, 1, 1)
    combined = a + b
    doubled = a.scaled(2)
    assert list(doubled.items()) == [(key, 2 * c) for key, c in a.items()]
    assert a.scaled(0).is_zero()
    y1, y2 = alg.index("Y1"), alg.index("Y2")
    expected = {t: a.value_on_pair(y1, y2).get(t, 0) + b.value_on_pair(y1, y2).get(t, 0)
                for t in range(alg.dim)}
    expected = {t: c for t, c in expected.items() if c}
    assert combined.value_on_pair(y1, y2) == expected


# -- serialization --------------------------------------------------------


def test_cocycle_basis_export_golden():
    doc = cocycle_basis_json(build_model(2, 1, 1), BlockKind.A)
    assert doc == {"block": "A", "n": 2, "m": 1, "p": 1, "dim": 1,
                   "basis": [[{"i": 1, "j": 2, "s": 2, "coeff": "1"}]]}


def test_cochain_json_roundtrip():
    alg = build_model(3, 2, 2)
    psi = Cochain2(alg)
    psi.add(BlockKind.D, 1, 2, 2, Fraction(3, 2))
    psi.add(BlockKind.B, 2, 1, 1, -1)
    doc = cochain_to_json(psi)
    back = cochain_from_json(alg, doc)
    assert list(back.items()) == list(psi.items())
    with pytest.raises(ValueError):
        cochain_from_json(alg, {"n": 1, "m": 1, "p": 1, "terms": []})
    with pytest.raises(ValueError):
        cochain_from_json(alg, {"nope": True})
    # integer fields are never coerced: 3.0, 1.7 and True are rejected
    for bad in [{"n": 3.0, "terms": []},
                {"n": 3, "terms": [{"block": "D", "i": 1.7, "j": 2, "s": 1, "coeff": 1}]},
                {"n": 3, "terms": [{"block": "D", "i": 1, "j": 2, "s": True, "coeff": 1}]}]:
        with pytest.raises(ValueError):
            cochain_from_json(alg, bad)
    # nor are float, null or zero-denominator coefficients, non-list
    # terms, or terms that are not objects
    term = {"block": "D", "i": 1, "j": 2, "s": 1}
    for bad in [{"terms": [{**term, "coeff": 1.5}]},
                {"terms": [{**term, "coeff": None}]},
                {"terms": [{**term, "coeff": "1/0"}]},
                {"terms": {}}, {"terms": 5}, {"terms": "D"},
                {"terms": [5]}, {"terms": [None]}, {"terms": [["D", 1, 2, 1, 1]]}]:
        with pytest.raises(ValueError):
            cochain_from_json(alg, bad)
    # unknown blocks and missing fields are named in the message
    for bad, message in [({"terms": [{**term, "block": "5", "coeff": 1}]},
                          "unknown block '5' (A-F)"),
                         ({"terms": [term]}, "cochain term missing field 'coeff'"),
                         ({"terms": [{"i": 1, "j": 2, "s": 1, "coeff": 1}]},
                          "cochain term missing field 'block'")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            cochain_from_json(alg, bad)


def test_cochain_from_json_refuses_repeated_and_outside_terms():
    alg = build_model(3, 2, 1)
    term = {"block": "D", "i": 1, "j": 2, "s": 1, "coeff": "1"}
    # each basis map is named once: a repeat would sum, a swapped pair cancel
    for terms, message in [([term, term], "at i=1, j=2, s=1 twice"),
                           ([term, {**term, "i": 2, "j": 1}], "at i=2, j=1, s=1 twice"),
                           ([{**term, "coeff": "0"}, term], "at i=1, j=2, s=1 twice")]:
        with pytest.raises(ValueError, match=re.escape(f"basis map of block D {message}")):
            cochain_from_json(alg, {"terms": terms})
    # an index outside the block is refused whatever the coefficient
    outside = {"block": "D", "i": 99, "j": 100, "s": 7}
    for coeff in ("0", "1"):
        with pytest.raises(ValueError, match="source index i=99 out of range for block D"):
            cochain_from_json(alg, {"terms": [{**outside, "coeff": coeff}]})
    with pytest.raises(ValueError, match="source index i=99 out of range"):
        Cochain2(alg).add(BlockKind.D, 99, 100, 7, 0)
    # distinct basis maps still load as written
    b_term = {"block": "B", "i": 2, "j": 1, "s": 1, "coeff": "1"}
    assert len(list(cochain_from_json(alg, {"terms": [term, b_term]}).items())) == 2


def test_cochain_refuses_a_basis_map_named_twice():
    alg = build_model(3, 2, 1)
    d12, d21 = ColumnKey(BlockKind.D, 1, 2, 1), ColumnKey(BlockKind.D, 2, 1, 1)
    # both orientations of an alternating block's map would cancel to zero
    for coeffs in ({d12: 1, d21: 1}, {d12: 0, d21: 1}):
        with pytest.raises(ValueError,
                           match=re.escape("basis map of block D at i=2, j=1, s=1 twice")):
            Cochain2(alg, coeffs)
    with pytest.raises(ValueError, match=re.escape("block D at i=1, j=2, s=1 twice")):
        Cochain2(alg, [(d12, 1), (d12, 1)])
    # each map named once loads as written, the swapped pair negated
    psi = Cochain2(alg, {d21: 3, ColumnKey(BlockKind.B, 2, 1, 1): 0})
    assert list(psi.items()) == [(d12, -3)]


def test_assembly_is_a_generic_validator():
    # the condition enumeration also applies to non-model algebras: the
    # blocks may couple there, but kernel vectors still verify directly
    base = build_model(3, 2, 1)
    phi = Cochain2(base)
    phi.add(BlockKind.D, 1, 2, 1, 1)
    from colorfil.deformation import deform
    deformed = deform(base, phi).result
    system = assemble_Z2_system(deformed)
    assert system.nullity() >= 0
    for psi in system.kernel_cochains():
        assert is_cocycle(deformed, psi)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(2, 4), st.integers(1, 4),
       st.sampled_from(ALL_BLOCKS), st.data())
def test_kernel_round_trip_on_deformed_algebras(n, m, p, block, data):
    # D-block cocycles integrate (phi o phi = 0: phi maps L1 ^ L1 into L2
    # and vanishes on L2), so any integer combination of them gives a
    # Jacobi-valid non-model algebra; its kernel vectors must be cocycles
    base = build_model(n, m, p)
    d_vectors = assemble_Z2_system(base, {BlockKind.D}).kernel_cochains()
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(d_vectors),
                                max_size=len(d_vectors)))
    assume(any(coeffs))
    phi = Cochain2(base)
    for c, psi in zip(coeffs, d_vectors):
        phi = phi + psi.scaled(c)
    alg = deform(base, phi).result
    assert validate_jacobi(alg) == []
    assert list(alg.nonzero_constants()) != list(base.nonzero_constants())
    for psi in assemble_Z2_system(alg, {block}).kernel_cochains():
        assert is_cocycle(alg, psi)


def test_matrix_and_direct_evaluation_agree_on_non_cocycles():
    # the matrix route and the elementwise route must classify random
    # cochains identically, not just kernel vectors
    import random

    from colorfil.cohomology import ALL_BLOCKS

    rng = random.Random(314)
    for nmp in [(2, 1, 1), (3, 2, 2), (2, 3, 2)]:
        alg = build_model(*nmp)
        system = assemble_Z2_system(alg)
        for _ in range(12):
            psi = Cochain2(alg)
            for key in rng.sample(system.col_keys, k=min(4, len(system.col_keys))):
                psi.add(key.block, key.i, key.j, key.s, rng.randint(-2, 2))
            coords = {idx: psi.get(*key)
                      for idx, key in enumerate(system.col_keys) if psi.get(*key)}
            in_kernel = not system.matrix.multiply_vector(coords)
            assert in_kernel == is_cocycle(alg, psi), nmp


def test_brute_matches_closed_forms_at_asymmetric_points():
    for nmp in [(12, 9, 7), (15, 4, 10), (9, 12, 3), (20, 3, 3), (4, 10, 10)]:
        dims = block_dims(build_model(*nmp))
        assert {b.name: d for b, d in dims.items()} == \
            main_theorem_total(*nmp).blocks(), nmp
