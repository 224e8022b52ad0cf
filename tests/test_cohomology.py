"""Cocycle conditions, block systems, and the six-way decomposition."""

import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import colorfil.cohomology
from colorfil.algebra import ColorLieAlgebra, build_model, from_json_dict, validate_jacobi
from colorfil.cohomology import (ALL_BLOCKS, BlockKind, ColumnKey, DecompositionMismatch,
                                 _term_sums, assemble_Z2_system, block_dims, cochain,
                                 cochain_columns, cochain_from_json, cocycle_basis,
                                 cocycle_basis_json, cocycle_defect, delta1, delta2, is_cocycle)
from colorfil.deformation import deform
from colorfil.formulas import main_theorem_total
from colorfil.linalg import kernel_basis, rank_certified


def vec_by_label(alg, vec):
    return {alg.label(i): c for i, c in vec.items()}


def basis_cochains(alg, block):
    """One cochain per vector of `cocycle_basis(alg, block)`, the checked export route."""
    solved = cocycle_basis(alg, block)
    return [cochain(alg, {ColumnKey(block, *solved.columns[c]): v for c, v in vec.items()})
            for vec in solved.kernel.vectors]


def cochain_values(psi):
    """{(a, b, t): psi(e_a, e_b)_t} over psi's nonzero values, a < b."""
    return {(a, b, t): c for a, b, vec in psi.nonzero_constants() for t, c in vec.items()}


def at_global(alg, key):
    """The global (a, b, t) that a canonical ColumnKey addresses."""
    (g1, g2), gt = key.block.source_degrees, key.block.target_degree
    return alg.global_index(g1, key.i), alg.global_index(g2, key.j), alg.global_index(gt, key.s)


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
    psi = cochain(alg)
    for triple in combinations(range(alg.dim), 3):
        assert delta2(alg, psi, triple) == {}


def test_delta2_non_cocycle_example():
    alg = build_model(2, 1, 1)
    psi = cochain(alg, {ColumnKey(BlockKind.A, 1, 2, 1): 1})  # a(X1, X2) = X1
    assert vec_by_label(alg, delta2(alg, psi, ("X0", "X1", "X2"))) == {"X2": 1}
    assert delta2(alg, psi, (0, "X1", 2)) == {alg.index("X2"): 1}


def test_delta2_refuses_entries_that_are_not_basis_elements():
    alg = build_model(4, 1, 1)  # dimension 7
    psi = cochain(alg, {ColumnKey(BlockKind.A, 1, 2, 1): 1})
    for triple, shown in [((0, 1, 999), "999"), ((0, 1, -1), "-1"), ((True, 1, 2), "True"),
                          (({0: 5}, "X1", "X2"), "{0: 5}"), ((0, 1, 2.0), "2.0"),
                          (("X0", "X1", "X9"), "'X9'"), (("X0", "X1", "x" * 500), "'xxxxxx")]:
        with pytest.raises(ValueError, match=re.escape(
                f"delta2 takes basis labels or indices 0..6, got {shown}")):
            delta2(alg, psi, triple)


@pytest.mark.parametrize("triple", [(0, 1), ("X0", "X1", "X2", "X3")])
def test_delta2_refuses_a_triple_of_other_length(triple):
    alg = build_model(4, 1, 1)
    with pytest.raises(ValueError, match=re.escape(
            f"delta2 takes a triple of three basis elements, got {len(triple)}")):
        delta2(alg, cochain(alg), triple)


def test_delta2_refuses_a_cochain_of_other_dims():
    phi = cochain(build_model(3, 2, 2), {ColumnKey(BlockKind.D, 1, 2, 2): 1})
    with pytest.raises(ValueError, match=r"cochain built on dims \(4, 2, 2\)"):
        delta2(build_model(3, 3, 1), phi, ("X0", "Y1", "Y2"))


def test_cocycle_defect_refuses_a_cochain_of_other_dims():
    # is_cocycle and is_integrable read psi through cocycle_defect
    phi = cochain(build_model(3, 2, 2), {ColumnKey(BlockKind.D, 1, 2, 2): 1})
    with pytest.raises(ValueError, match=r"cochain built on dims \(4, 2, 2\)"):
        cocycle_defect(build_model(3, 3, 1), phi)


def test_delta2_cocycle_example():
    alg = build_model(2, 1, 1)
    psi = cochain(alg, {ColumnKey(BlockKind.A, 1, 2, 2): 1})  # a(X1, X2) = X2
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
                assert db.bracket_basis(a, b) == alg.bracket_basis(a, b)


def test_delta1_of_zero_is_zero():
    alg = build_model(3, 2, 2)
    assert not delta1(alg, {}).bracket_index


def test_delta1_single_entry_example():
    alg = build_model(3, 2, 2)
    db = delta1(alg, {"X1": "X2"})
    got = db.bracket_basis(alg.index("X0"), alg.index("X1"))
    assert vec_by_label(alg, got) == {"X3": 1}


def test_library_constructors_refuse_non_integer_indices():
    # indices are refused, never truncated: int() reads 0.9, 1.2, 2.5 as [X0, X1] = X2
    for dims, constants, message in [
            ((3, 1, 1), {(0.9, 1.2): {2.5: 1}}, "pair index must be an integer, got 0.9"),
            ((3, 1, 1), {(0, 1): {2.5: 1}}, "target index must be an integer, got 2.5"),
            ((3, 1, 1), {(0, True): {2: 1}}, "pair index must be an integer, got True"),
            (("3", 1, 1), {}, "component dimension must be an integer, got '3'"),
            ((3.0, 1, 1), {}, "component dimension must be an integer, got 3.0"),
            ((3, 1, 1), {(0, 1): {-1: 1}}, "target index out of range in the value of pair"),
            ((3, 1, 1), {(0, 1): {5: 0}}, "target index out of range in the value of pair")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            ColorLieAlgebra(dims, constants)
    # a family index of a cochain is read under its own name, before any range check
    model = build_model(3, 2, 2)
    for key, message in [(ColumnKey(BlockKind.D, True, 2, 1), "i must be an integer, got True"),
                         (ColumnKey(BlockKind.D, 1, 2, True), "s must be an integer, got True"),
                         (ColumnKey(BlockKind.B, 1, True, 1), "j must be an integer, got True"),
                         (ColumnKey(BlockKind.D, 1.0, 2, 1), "i must be an integer, got 1.0")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            cochain(model, {key: 1})
    alg = build_model(2, 1, 1)
    # delta1 refuses, never drops, a key outside the basis
    for g_map, message in [({1.7: "X1"}, "basis index must be an integer, got 1.7"),
                           ({True: "X1"}, "basis index must be an integer, got True"),
                           ({1: {1.7: 1}}, "basis index must be an integer, got 1.7"),
                           ({99: {}}, "basis index 99 out of range 0..4"),
                           ({-4: "X1"}, "basis index -4 out of range 0..4"),
                           ({1: 7}, "basis index 7 out of range 0..4"),
                           ({"Q9": {}}, "no basis element 'Q9'")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            delta1(alg, g_map)
    assert delta1(alg, {1: {1: 1}}).bracket_basis(0, 1) == {2: 1}


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
    (vec,) = kernel_basis(system.matrix, system.matrix.n_cols).vectors
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


def test_block_dims_scales_a_rational_law_once(monkeypatch):
    # block_dims scales the law once and hands the integral law to every
    # per-block row source (and to the joint one of a spanning law), so a law
    # with rational constants is rebuilt once, not once per block
    def scaled(alg, factor):
        return ColorLieAlgebra(alg.dims, {(a, b): {t: c * factor for t, c in vec.items()}
                                          for a, b, vec in alg.nonzero_constants()})

    model = build_model(3, 2, 2)
    base = build_model(1, 2, 1)  # deformed to [Y1, Y2] = Z1, which couples blocks B and C
    spanning = deform(base, basis_cochains(base, BlockKind.D)[0]).result
    rational, halved = scaled(model, Fraction(-3, 2)), scaled(spanning, Fraction(1, 2))
    expected = block_dims(model, allow_x0_target=True)
    built = []
    init = ColorLieAlgebra.__init__

    def counting(self, dims, *args, **kwargs):
        built.append(dims)
        init(self, dims, *args, **kwargs)

    monkeypatch.setattr(ColorLieAlgebra, "__init__", counting)
    assert block_dims(rational, allow_x0_target=True) == expected
    assert built == [model.dims]
    built.clear()
    with pytest.raises(DecompositionMismatch):
        block_dims(halved)
    assert built == [halved.dims]


def test_block_dims_makes_no_rows_for_an_empty_block(monkeypatch):
    # m = 0 or p = 0 leaves blocks without columns: block_dims takes each
    # block's width from its basis maps and calls the row source only for
    # blocks that have columns, one call each, and the dimensions stay those
    # of each block's own system
    term_sums = colorfil.cohomology._term_sums
    calls = []

    def recording(alg, blocks, allow_x0_target):
        calls.append(tuple(blocks))
        return term_sums(alg, blocks, allow_x0_target)

    for nmp in [(4, 0, 3), (4, 3, 0), (3, 0, 0)]:
        alg = build_model(*nmp)
        for allow_x0_target in (False, True):
            with_columns = [block for block in ALL_BLOCKS
                            if cochain_columns(alg, {block}, allow_x0_target)]
            expected = {block: assemble_Z2_system(alg, {block}, allow_x0_target).nullity()
                        for block in ALL_BLOCKS}
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(colorfil.cohomology, "_term_sums", recording)
                dims = block_dims(alg, allow_x0_target)
            assert calls == [(block,) for block in with_columns], (nmp, allow_x0_target)
            assert dims == expected, (nmp, allow_x0_target)
            assert 0 < len(with_columns) < len(ALL_BLOCKS)


def test_block_dims_spans_at_a_shared_triple_and_target_only(monkeypatch):
    # the (3,2,2) model with [X1, Y1] = Y1 added reaches some triples from
    # two blocks, but never at the same target: no row spans blocks, so
    # block_dims makes no joint rows.  Nor does it for a law deformed by
    # block B's or C's first vector, which shares no triple.  Deformed by
    # block D's, a (triple, target) is shared and the joint rows are made
    # and ranked
    calls = []

    def recording(alg, blocks, allow_x0_target):
        calls.append(tuple(blocks))
        return _term_sums(alg, blocks, allow_x0_target)

    monkeypatch.setattr(colorfil.cohomology, "_term_sums", recording)
    base = build_model(3, 2, 2)
    laws = [((3, 2, 2), "X1Y1", base.with_added_constants({(1, 4): {4: 1}}))]
    for nmp in [(3, 2, 2), (5, 3, 4)]:
        base = build_model(*nmp)
        laws += [(nmp, block, deform(base, basis_cochains(base, block)[0]).result)
                 for block in (BlockKind.B, BlockKind.C, BlockKind.D)]
    for nmp, block, alg in laws:
        triple_blocks, target_blocks = {}, {}
        for kind in ALL_BLOCKS:
            for triple, acc in _term_sums(alg, (kind,), False)[1].items():
                triple_blocks.setdefault(triple, []).append(kind)
                for u in acc:
                    target_blocks.setdefault((triple, u), []).append(kind)
        shared_triples = [t for t, kinds in triple_blocks.items() if len(kinds) > 1]
        shared_targets = [t for t, kinds in target_blocks.items() if len(kinds) > 1]
        assert bool(shared_triples) == (block in ("X1Y1", BlockKind.D)), (nmp, block)
        calls.clear()
        if block is BlockKind.D:
            assert shared_targets, nmp
            with pytest.raises(DecompositionMismatch):
                block_dims(alg)
            assert calls[-1] == tuple(ALL_BLOCKS), nmp
        else:
            assert not shared_targets, (nmp, block)
            dims = block_dims(alg)
            assert all(len(blocks) == 1 for blocks in calls), (nmp, block)
            assert sum(dims.values()) == assemble_Z2_system(alg).nullity(), (nmp, block)


def test_block_dims_holds_one_block_of_rows_at_a_time():
    # block_dims keeps only the target indices each triple reached and
    # releases a block's rows once ranked, so its peak is that of the largest
    # block's row source and rank run alone.  Keeping every block's rows
    # took 3.0x that, and releasing a block's rows only as the next block's
    # were made 1.4x
    alg = build_model(14, 10, 12)

    def peak(run, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run(*args)
        return tracemalloc.get_traced_memory()[1] - before

    def one_block(block):
        _, sums = _term_sums(alg, (block,), False)
        rank_certified([row for acc in sums.values() for row in acc.values()])

    tracemalloc.start()
    try:
        largest = max(peak(one_block, block) for block in ALL_BLOCKS)
        whole = peak(block_dims, alg)
    finally:
        tracemalloc.stop()
    assert whole <= 1.25 * largest, (whole, largest)


def test_basis_cochains_reverified_via_delta2():
    # independent route: every kernel vector satisfies all condition
    # instances evaluated directly, not through the matrix
    for nmp in [(2, 1, 1), (3, 2, 2)]:
        alg = build_model(*nmp)
        for block in ALL_BLOCKS:
            for psi in basis_cochains(alg, block):
                assert is_cocycle(alg, psi)


def test_x0_target_exclusion():
    # the two L0-valued blocks grow when X0 is allowed as a target
    e_strict = assemble_Z2_system(build_model(1, 1, 1), {BlockKind.E})
    e_loose = assemble_Z2_system(build_model(1, 1, 1), {BlockKind.E}, allow_x0_target=True)
    assert (e_strict.nullity(), e_loose.nullity()) == (1, 2)
    a_strict = assemble_Z2_system(build_model(2, 1, 1), {BlockKind.A})
    a_loose = assemble_Z2_system(build_model(2, 1, 1), {BlockKind.A}, allow_x0_target=True)
    assert (a_strict.nullity(), a_loose.nullity()) == (1, 2)


def test_x0_target_changes_dims_only_in_a_finite_region():
    # Let f(a, b) be the X0 coefficient of psi(a, b), and x not in {a, b} an
    # element that is not the top of its chain.  At the triple (x, a, b) the
    # term [x, psi(a, b)] contributes -f(a, b) [X0, x] in the target just
    # after x; only X0 brackets, so every other term vanishes or lands just
    # after a or b.  Hence f(a, b) = 0 unless every non-top element lies in
    # {a, b}: X0 values survive only for A at n <= 3 with m, p <= 1 and for
    # E at n = 1 with m, p <= 2.  Brute force finds them at n in {2, 3} and
    # at m, p in {1, 2}, one more dimension each, and nowhere else.
    region = ({((n, m, p), BlockKind.A) for n in (2, 3) for m in (0, 1) for p in (0, 1)}
              | {((1, m, p), BlockKind.E) for m in (1, 2) for p in (1, 2)})
    changed = set()
    for nmp in product(range(1, 7), range(0, 6), range(0, 6)):
        alg = build_model(*nmp)
        strict, loose = block_dims(alg), block_dims(alg, allow_x0_target=True)
        for block in ALL_BLOCKS:
            if loose[block] != strict[block]:
                assert loose[block] == strict[block] + 1, (nmp, block.name)
                changed.add((nmp, block))
    assert changed == region


def test_row_labels_cover_expected_conditions():
    system = assemble_Z2_system(build_model(3, 2, 2))
    conditions = {label.condition for label in system.row_labels}
    # on the model only X0-led instances survive: families (1)-(6)
    assert conditions <= set(range(1, 11))
    assert 1 in conditions and 2 in conditions and 4 in conditions


# -- cochain values -------------------------------------------------------


def test_cochain_skew_symmetry():
    alg = build_model(3, 2, 2)
    psi = cochain(alg, {ColumnKey(BlockKind.A, 1, 2, 2): 3,
                        ColumnKey(BlockKind.A, 3, 1, 0): 5,  # swapped same-family pair, X0 target
                        ColumnKey(BlockKind.B, 1, 1, 2): Fraction(1, 2),
                        ColumnKey(BlockKind.C, 3, 2, 1): 4,
                        ColumnKey(BlockKind.D, 2, 1, 1): 1,
                        ColumnKey(BlockKind.E, 2, 1, 1): -2,
                        ColumnKey(BlockKind.F, 1, 2, 2): 7}, allow_x0_target=True)
    for u in range(alg.dim):
        for v in range(alg.dim):
            lhs = psi.bracket_basis(u, v)
            rhs = {t: -c for t, c in psi.bracket_basis(v, u).items()}
            assert lhs == rhs
    assert psi.bracket_basis(1, 3) == {0: -5}
    # the values are the law-shaped additions deform puts on the model
    values = {(a, b): psi.bracket_basis(a, b) for a, b in combinations(range(alg.dim), 2)}
    values = {pair: vec for pair, vec in values.items() if vec}
    assert len(values) == 7
    assert {(a, b): vec for a, b, vec in psi.nonzero_constants()} == values
    law = deform(alg, psi).result
    added = {}
    for a, b in combinations(range(alg.dim), 2):
        diff = {t: law.bracket_basis(a, b).get(t, 0) - alg.bracket_basis(a, b).get(t, 0)
                for t in range(alg.dim)}
        diff = {t: c for t, c in diff.items() if c}
        if diff:
            added[(a, b)] = diff
    assert added == values


@pytest.mark.parametrize("allow_x0_target", [False, True])
def test_cochain_accepts_exactly_the_column_keys(allow_x0_target):
    alg = build_model(3, 2, 2)
    cols = cochain_columns(alg, ALL_BLOCKS, allow_x0_target)
    coeff = {key: k + 1 for k, key in enumerate(cols)}
    psi = cochain(alg, coeff, allow_x0_target=allow_x0_target)
    assert cochain_values(psi) == {at_global(alg, key): coeff[key] for key in cols}
    accepted = set(cols)
    for block in ALL_BLOCKS:
        for i, j, s in product(range(-1, 6), repeat=3):
            key = ColumnKey(block, i, j, s)
            canonical = ColumnKey(block, *sorted((i, j)), s) if block.same_family else key
            if canonical in accepted:
                sign = -1 if canonical.i != i else 1
                single = cochain(alg, {key: 1}, allow_x0_target=allow_x0_target)
                assert cochain_values(single) == {at_global(alg, canonical): sign}
                continue
            # outside the family ranges, never a neighbour's basis map
            with pytest.raises(ValueError):
                cochain(alg, {key: 1}, allow_x0_target=allow_x0_target)


def test_cochain_canonicalization_and_validation():
    alg = build_model(3, 2, 2)
    psi = cochain(alg, {ColumnKey(BlockKind.A, 2, 1, 2): 1})  # swapped pair stores the negative
    assert psi.bracket_basis(alg.index("X1"), alg.index("X2")) == {alg.index("X2"): -1}
    assert cochain_values(psi) == {at_global(alg, ColumnKey(BlockKind.A, 1, 2, 2)): -1}
    assert psi.bracket_index
    assert not cochain(alg, {ColumnKey(BlockKind.A, 1, 2, 2): 0}).bracket_index
    # the messages and their order: diagonal, then i, j, s after the swap
    for args, message in [((BlockKind.D, 1, 1, 1), "diagonal source pair (1,1)"),
                          ((BlockKind.A, 0, 1, 1), "source index i=0"),  # X0 source
                          ((BlockKind.E, 1, 1, 0), "target index s=0"),  # X0 target
                          ((BlockKind.B, 1, 3, 1), "source index j=3"),  # j exceeds m
                          ((BlockKind.A, 2, 2, 9), "diagonal source pair (2,2)"),
                          ((BlockKind.A, 9, 0, 9), "source index i=0"),
                          ((BlockKind.B, 0, 9, 9), "source index i=0"),
                          ((BlockKind.B, 1, 9, 9), "source index j=9"),
                          ((BlockKind.E, 1, 1, 4), "target index s=4")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            cochain(alg, {ColumnKey(*args): 1})


def test_cochain_refuses_a_key_that_is_not_block_i_j_s():
    # a block given by its letter, or a key of another length, is named in
    # a ValueError, not met by an AttributeError or an unpacking error
    alg = build_model(3, 2, 2)
    for key, shown in [(("D", 1, 2, 2), "('D', 1, 2, 2)"), ((None, 1, 2, 2), "(None, 1, 2, 2)"),
                       ((BlockKind.D, 1, 2, 2, 0), "(<BlockKind.D: ((1, 1), 2)>, 1, 2, 2, 0)"),
                       ((BlockKind.D, 1, 2), "(<BlockKind.D: ((1, 1), 2)>, 1, 2)"),
                       ("D122", "'D122'"), ([BlockKind.D, 1, 2, 2], "[<BlockKind.D")]:
        with pytest.raises(ValueError, match=re.escape(f"cochain key {shown}")):
            cochain(alg, [(key, 1)])
    # a tuple in the shape of a ColumnKey is one
    assert cochain(alg, {(BlockKind.D, 1, 2, 2): 1}).bracket_basis(
        alg.index("Y1"), alg.index("Y2")) == {alg.index("Z2"): 1}


D122 = ColumnKey(BlockKind.D, 1, 2, 2)


@pytest.mark.parametrize("items, shown", [
    ([(ColumnKey(BlockKind.B, 1, 1, 1), 1), D122], "ColumnKey(blo...i=1, j=2, s=2)"),
    ([(D122,)], "(ColumnKey(blo...i=1, j=2, s=2),)"),
    ([(D122, 1, 2)], "(ColumnKey(blo...i=1, j=2, s=2), 1, 2)"),
    (["D122"], "'D122'"),
])
def test_cochain_refuses_an_item_that_is_not_a_key_coeff_pair(items, shown):
    # keys without coefficients, a 1- or 3-tuple and a bare string: the
    # item's position and the expected shape are named, not an unpacking error
    with pytest.raises(ValueError, match=re.escape(
            f"cochain coeffs item {len(items) - 1} is {shown}, not a (key, coeff) pair")):
        cochain(build_model(3, 2, 2), items)


# -- serialization --------------------------------------------------------


def test_cocycle_basis_export_golden():
    doc = cocycle_basis_json(build_model(2, 1, 1), BlockKind.A)
    assert doc == {"block": "A", "n": 2, "m": 1, "p": 1, "dim": 1,
                   "basis": [[{"i": 1, "j": 2, "s": 2, "coeff": "1"}]]}


def _library_basis_json(alg, block, allow_x0_target):
    # the export document by the library route: the assembled block
    # matrix, its kernel basis and its column keys
    system = assemble_Z2_system(alg, {block}, allow_x0_target=allow_x0_target)
    basis = kernel_basis(system.matrix, system.matrix.n_cols)
    keys = system.col_keys
    n, m, p = alg.dims[0] - 1, alg.dims[1], alg.dims[2]
    return {"block": block.name, "n": n, "m": m, "p": p, "dim": basis.dim,
            "basis": [[{"i": keys[c].i, "j": keys[c].j, "s": keys[c].s, "coeff": str(v)}
                       for c, v in vec.items()] for vec in basis.vectors]}


@pytest.mark.parametrize("nmp", [(8, 6, 6), (3, 2, 2), (1, 0, 0), (4, 2, 0), (3, 0, 2)])
@pytest.mark.parametrize("allow_x0_target", [False, True])
def test_export_route_equals_library_route(nmp, allow_x0_target):
    # cocycle_basis_json solves the row sums without a matrix; it must give
    # the library's ConstraintSystem kernel, vector for vector
    alg = build_model(*nmp)
    for block in ALL_BLOCKS:
        expected = _library_basis_json(alg, block, allow_x0_target)
        doc = cocycle_basis_json(alg, block, allow_x0_target=allow_x0_target)
        assert doc == expected, (nmp, block.name)
        assert doc["dim"] == len(doc["basis"])


def test_cochain_json_roundtrip():
    alg = build_model(3, 2, 2)
    psi = cochain(alg, {ColumnKey(BlockKind.D, 1, 2, 2): Fraction(3, 2),
                        ColumnKey(BlockKind.B, 2, 1, 1): -1})
    doc = {"n": 3, "m": 2, "p": 2,
           "terms": [{"block": "D", "i": 1, "j": 2, "s": 2, "coeff": "3/2"},
                     {"block": "B", "i": 2, "j": 1, "s": 1, "coeff": -1}]}
    back = cochain_from_json(alg, doc)
    assert list(back.nonzero_constants()) == list(psi.nonzero_constants())
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
    # unknown blocks, missing fields, exponent notation (which Fraction
    # would expand over seconds) and digit separators (which Fraction
    # reads from Python 3.11 on only) are named in the message
    for bad, message in [({"terms": [{**term, "block": "5", "coeff": 1}]},
                          "unknown block '5' (A-F)"),
                         ({"terms": [{**term, "coeff": "1e10000000"}]},
                          "exponent notation in scalar '1e10000000'"),
                         ({"terms": [{**term, "coeff": "2E" + "9" * 100}]},
                          "exponent notation in scalar '2E9999999999...9999999999999'"),
                         ({"terms": [{**term, "coeff": "1_0"}]},
                          "digit separator in scalar '1_0'"),
                         ({"terms": [{**term, "coeff": "1/2_0"}]},
                          "digit separator in scalar '1/2_0'"),
                         ({"terms": [term]}, "cochain term missing field 'coeff'"),
                         ({"terms": [{"i": 1, "j": 2, "s": 1, "coeff": 1}]},
                          "cochain term missing field 'block'")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            cochain_from_json(alg, bad)


def test_cochain_from_json_reads_a_one_vector_basis_export():
    # each vector of an export, alone in its document, loads as the
    # "terms" document whose terms carry the export's block
    alg = build_model(3, 2, 2)
    for block in ALL_BLOCKS:
        export = cocycle_basis_json(alg, block)
        for vector in export["basis"]:
            one = cochain_from_json(alg, {**export, "dim": 1, "basis": [vector]})
            terms = {"n": 3, "m": 2, "p": 2,
                     "terms": [{"block": block.name, **term} for term in vector]}
            assert list(one.nonzero_constants()) == \
                list(cochain_from_json(alg, terms).nonzero_constants())


def test_cochain_from_json_refuses_a_malformed_basis_export():
    alg = build_model(3, 2, 2)
    export = cocycle_basis_json(alg, BlockKind.B)  # four vectors
    vector = export["basis"][0]
    no_block = {k: v for k, v in export.items() if k != "block"}
    no_n = {k: v for k, v in export.items() if k != "n"}
    for bad, message in [
            ({**export, "basis": []}, "basis export holds 0 vectors"),
            ({**export, "basis": export["basis"][:2]}, "basis export holds 2 vectors"),
            ({**export, "basis": 5}, "'basis' must be a list of vectors"),
            ({**export, "basis": {"0": vector}}, "'basis' must be a list of vectors"),
            ({**export, "basis": [5]}, "'basis' must be a list of vectors"),
            ({**export, "basis": [[5]]}, "each basis term must be an object"),
            ({**no_block, "basis": [vector]}, "basis export missing field 'block'"),
            ({**no_n, "basis": [vector]}, "basis export missing field 'n'"),
            ({**export, "n": 4, "basis": [vector]},
             "cochain parameters disagree with the algebra's (n, m, p)"),
            ({**export, "basis": [[{**vector[0], "block": "B"}]]},
             "basis term 0 names block 'B'; the terms of a basis export take its block 'B'"),
            ({"nope": True}, "cochain document must carry 'terms' or 'basis'"),
            ([vector], "cochain document must carry 'terms' or 'basis'")]:
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
        cochain(alg, {ColumnKey(BlockKind.D, 99, 100, 7): 0})
    # distinct basis maps still load as written
    b_term = {"block": "B", "i": 2, "j": 1, "s": 1, "coeff": "1"}
    assert len(cochain_values(cochain_from_json(alg, {"terms": [term, b_term]}))) == 2


def test_cochain_refuses_a_basis_map_named_twice():
    alg = build_model(3, 2, 1)
    d12, d21 = ColumnKey(BlockKind.D, 1, 2, 1), ColumnKey(BlockKind.D, 2, 1, 1)
    # both orientations of an alternating block's map would cancel to zero
    for coeffs in ({d12: 1, d21: 1}, {d12: 0, d21: 1}):
        with pytest.raises(ValueError,
                           match=re.escape("basis map of block D at i=2, j=1, s=1 twice")):
            cochain(alg, coeffs)
    with pytest.raises(ValueError, match=re.escape("block D at i=1, j=2, s=1 twice")):
        cochain(alg, [(d12, 1), (d12, 1)])
    # each map named once loads as written, the swapped pair negated
    psi = cochain(alg, {d21: 3, ColumnKey(BlockKind.B, 2, 1, 1): 0})
    assert cochain_values(psi) == {at_global(alg, d12): -3}


def test_assembly_is_a_generic_validator():
    # the condition enumeration also applies to non-model algebras: the
    # blocks may couple there, but kernel vectors still verify directly
    base = build_model(3, 2, 1)
    phi = cochain(base, {ColumnKey(BlockKind.D, 1, 2, 1): 1})
    deformed = deform(base, phi).result
    system = assemble_Z2_system(deformed)
    assert system.nullity() >= 0
    for vec in kernel_basis(system.matrix, system.matrix.n_cols).vectors:
        psi = cochain(deformed, {system.col_keys[c]: v for c, v in vec.items()})
        assert is_cocycle(deformed, psi)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(2, 4), st.integers(1, 4),
       st.sampled_from(ALL_BLOCKS), st.data())
def test_kernel_round_trip_on_deformed_algebras(n, m, p, block, data):
    # D-block cocycles integrate (phi o phi = 0: phi maps L1 ^ L1 into L2
    # and vanishes on L2), so any integer combination of them gives a
    # Jacobi-valid non-model algebra; its kernel vectors must be cocycles
    base = build_model(n, m, p)
    system = assemble_Z2_system(base, {BlockKind.D})
    d_vectors = kernel_basis(system.matrix, system.matrix.n_cols).vectors
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(d_vectors),
                                max_size=len(d_vectors)))
    assume(any(coeffs))
    total: dict = {}  # the combination, summed in column space
    for c, vec in zip(coeffs, d_vectors):
        for col, v in vec.items():
            key = system.col_keys[col]
            total[key] = total.get(key, 0) + c * v
    alg = deform(base, cochain(base, total)).result
    assert validate_jacobi(alg) == []
    assert list(alg.nonzero_constants()) != list(base.nonzero_constants())
    for psi in basis_cochains(alg, block):
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
        position = {key: idx for idx, key in enumerate(system.col_keys)}
        for _ in range(12):
            keys = rng.sample(system.col_keys, k=min(4, len(system.col_keys)))
            coeffs = {key: rng.randint(-2, 2) for key in keys}
            psi = cochain(alg, coeffs)
            coords = {position[key]: c for key, c in coeffs.items() if c}
            in_kernel = not system.matrix.multiply_vector(coords)
            assert in_kernel == is_cocycle(alg, psi), nmp


def test_brute_matches_closed_forms_at_asymmetric_points():
    for nmp in [(12, 9, 7), (15, 4, 10), (9, 12, 3), (20, 3, 3), (4, 10, 10)]:
        dims = block_dims(build_model(*nmp))
        assert {b.name: d for b, d in dims.items()} == \
            main_theorem_total(*nmp).blocks(), nmp


def _random_law(seed, dims):
    # a graded law with fractional and cancelling constants (seed 5 has [Y, Y] != 0);
    # the row sums need no Jacobi identity
    rng = random.Random(seed)
    alg = ColorLieAlgebra(dims)
    table = {}
    for a, b in combinations(range(alg.dim), 2):
        targets = list(alg.component_indices((alg.degree_of(a) + alg.degree_of(b)) % 3))
        if targets and rng.random() < 0.4:
            table[(a, b)] = {t: rng.choice([-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 4)])
                             for t in rng.sample(targets, min(2, len(targets)))}
    return ColorLieAlgebra(dims, table)


# SHA-256 of the row sums, every key order and entry type included, taken
# while the sums were made with the law's own (rational) constants and then
# scaled by its denominator and cleared of cancelled entries and rows.  The
# random laws give their targets out of order; their digests are those of the
# ascending bracket index, with the same sorted rows and column ranges
TERM_SUMS_DIGESTS = [
    ("model (8,6,6)", lambda: build_model(8, 6, 6), False,
     "71af93c559b0656350675221c43ea6ff0349b636392573e5f949ab7baf057f9e"),
    ("model (3,2,2), X0 targets", lambda: build_model(3, 2, 2), True,
     "6329622bf6424fe10b3aefd470b74b3b9349e36a9f89c767582c46d938a129ce"),
    ("random law (3,3,3)", lambda: _random_law(5, (4, 3, 3)), False,
     "f333bcf4c3794d75724d30f94a2185c5768f86780bb664e9815081f73534b27e"),
    ("random law (4,2,3), X0 targets", lambda: _random_law(9, (5, 2, 3)), True,
     "57c7e8bb690cb8bd11059c5b51aa464a64e4fcd1d4ab1a165ad42189aacce261"),
]


@pytest.mark.parametrize("name, make, allow_x0_target, digest", TERM_SUMS_DIGESTS,
                         ids=[name for name, *_ in TERM_SUMS_DIGESTS])
def test_term_sums_are_unchanged(name, make, allow_x0_target, digest):
    import hashlib

    from colorfil.cohomology import _term_sums

    ranges, sums = _term_sums(make(), ALL_BLOCKS, allow_x0_target)
    dump = repr(([(block.name, cols) for block, cols in ranges],
                 [(triple, [(u, list(row.items())) for u, row in acc.items()])
                  for triple, acc in sums.items()]))
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


def test_term_sums_drop_triples_whose_rows_all_cancel():
    # deformed by block B's first exported vector, the (3,2,2) model's block-B
    # terms cancel whole at (1,2,4), (1,2,5), (1,3,4) and (1,3,5): those
    # triples have no rows, so the sums hold no entry for them
    base = build_model(3, 2, 2)
    export = cocycle_basis_json(base, BlockKind.B)
    alg = deform(base, cochain_from_json(base, {**export, "basis": export["basis"][:1]})).result
    _, sums = _term_sums(alg, (BlockKind.B,), False)
    assert sums and all(acc for acc in sums.values())
    assert all(row for acc in sums.values() for row in acc.values())
    assert not {(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)} & sums.keys()


def _order_views(alg, allow_x0_target):
    """Everything whose order a law fixes: its index, row sums, row origins and JSON."""
    from colorfil.cohomology import _term_sums

    return (repr([(x, list(row.items())) for x, row in alg.bracket_index.items()]),
            repr(_term_sums(alg, ALL_BLOCKS, allow_x0_target)),
            assemble_Z2_system(alg, allow_x0_target=allow_x0_target).row_origins,
            alg.to_json_dict())


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.booleans(), st.randoms(use_true_random=False), st.data())
def test_law_order_depends_on_the_law_alone(deformed, allow_x0_target, rng, data):
    if deformed:
        # a D-deformed model, read back from JSON with its constants and each value shuffled
        base = build_model(*data.draw(st.tuples(st.integers(1, 4), st.integers(2, 4),
                                                st.integers(1, 4))))
        solved = cocycle_basis(base, BlockKind.D)
        coeffs = [rng.choice([-1, 1, 2, Fraction(3, 7)]) for _ in solved.kernel.vectors]
        total: dict = {}  # the combination, summed in column space
        for c, vec in zip(coeffs, solved.kernel.vectors):
            for col, v in vec.items():
                key = ColumnKey(BlockKind.D, *solved.columns[col])
                total[key] = total.get(key, 0) + c * v
        law = deform(base, cochain(base, total)).result
        table = {(a, b): vec for a, b, vec in law.nonzero_constants()}
        doc = law.to_json_dict()
        rng.shuffle(doc["constants"])
        for entry in doc["constants"]:
            rng.shuffle(entry["value"])
        given_law = from_json_dict(doc)
    else:
        # a random graded law, each pair given in either orientation, pairs and targets shuffled
        dims = data.draw(st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3)))
        alg = ColorLieAlgebra(dims)
        table = {}
        for a, b in combinations(range(alg.dim), 2):
            targets = list(alg.component_indices((alg.degree_of(a) + alg.degree_of(b)) % 3))
            if targets and rng.random() < 0.5:
                table[(a, b)] = {t: rng.choice([-2, 1, Fraction(1, 2)])
                                 for t in rng.sample(targets, min(3, len(targets)))}
        shuffled = {}
        for (a, b), vec in rng.sample(sorted(table.items()), len(table)):
            items = rng.sample(sorted(vec.items()), len(vec))
            if rng.random() < 0.5:
                shuffled[(a, b)] = dict(items)
            else:
                shuffled[(b, a)] = {t: -c for t, c in items}
        given_law = ColorLieAlgebra(dims, shuffled)
    ascending = ColorLieAlgebra(given_law.dims, {pair: dict(sorted(vec.items()))
                                                 for pair, vec in sorted(table.items())})
    assert _order_views(given_law, allow_x0_target) == _order_views(ascending, allow_x0_target)

