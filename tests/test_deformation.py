"""Deforming the model law and deciding integrability."""

import pytest

from colorfil.algebra import ColorLieAlgebra, build_model, validate_jacobi
import colorfil.deformation
from colorfil.cohomology import (BlockKind, Cochain2, ColumnKey, assemble_Z2_system, delta1,
                                 delta2)
from colorfil.deformation import (CharacteristicVectorViolation,
                                  IntegrabilityMismatch, NotACocycle, NotALieAlgebra, deform,
                                  filiform_check, is_integrable)


def test_zero_cochain_is_identity_deformation():
    alg = build_model(3, 2, 1)
    law = deform(alg, Cochain2(alg))
    assert list(law.result.nonzero_constants()) == list(alg.nonzero_constants())
    assert is_integrable(law)
    assert filiform_check(law.result)


def test_d_block_cocycle_deforms_integrably():
    alg = build_model(3, 2, 1)
    # [Y1, Y2] = Z1; closes since [X0, Z1] = 0
    phi = Cochain2(alg, {ColumnKey(BlockKind.D, 1, 2, 1): 1})
    law = deform(alg, phi)
    y1, y2 = alg.index("Y1"), alg.index("Y2")
    assert law.result.bracket_basis(y1, y2) == {alg.index("Z1"): 1}
    assert is_integrable(law)
    assert filiform_check(law.result)


def test_x0_source_rejected():
    alg = build_model(2, 1, 1)
    phi = delta1(alg, {"X1": "X1"})  # d1 g (X0, X1) = [X0, g X1] - g([X0, X1]) = X2
    assert phi.law.bracket_basis(alg.index("X0"), alg.index("X1")) == {alg.index("X2"): 1}
    with pytest.raises(CharacteristicVectorViolation):
        deform(alg, phi)
    # the block-wise interface never takes X0 as a source
    with pytest.raises(ValueError, match="source index i=0 out of range"):
        Cochain2(alg, {ColumnKey(BlockKind.A, 0, 1, 2): 1})


def test_deform_refuses_a_cochain_of_other_dims():
    # phi(Y1, Y2) = Z2 on L^{3,2,2}: read on L^{3,3,1}'s indices it would be [Y1, Y2] = Z1
    phi = Cochain2(build_model(3, 2, 2), {ColumnKey(BlockKind.D, 1, 2, 2): 1})
    with pytest.raises(ValueError, match=r"cochain built on dims \(4, 2, 2\) given for an "
                                         r"algebra of dims \(4, 3, 1\)"):
        deform(build_model(3, 3, 1), phi)


def test_non_cocycle_raises():
    alg = build_model(2, 1, 1)
    phi = Cochain2(alg, {ColumnKey(BlockKind.A, 1, 2, 1): 1})  # delta2 is X2 on (X0, X1, X2)
    law = deform(alg, phi)
    with pytest.raises(NotACocycle) as raised:
        is_integrable(law)
    assert str(raised.value) == ("phi fails the 2-cocycle conditions on the base algebra: "
                                 "d2 phi(X0, X1, X2) = 1*X2 != 0")


def test_non_lie_base_raises():
    # [X1, Y1] = Y1 on the model: J(X0, X1, Y1) = [X2, Y1] - [X0, Y1] + [X1, Y2] = -Y2
    base = build_model(3, 2, 2)
    alg = base.with_added_constants({(base.index("X1"), base.index("Y1")): {base.index("Y1"): 1}})
    with pytest.raises(NotALieAlgebra) as raised:
        is_integrable(deform(alg, Cochain2(alg)))
    assert str(raised.value) == \
        "base algebra fails the Jacobi identity: J(X0, X1, Y1) = -1*Y2 != 0"


def test_d_plus_f_obstruction():
    # both summands are cocycles but the deformed Jacobi fails:
    # [[Y1,Y2],Z1] = [Z2,Z1] = -Y2 while the other two terms vanish
    alg = build_model(1, 2, 2)
    phi = Cochain2(alg, {ColumnKey(BlockKind.D, 1, 2, 2): 1, ColumnKey(BlockKind.F, 1, 2, 2): 1})
    law = deform(alg, phi)
    assert not is_integrable(law)
    violations = validate_jacobi(law.result)
    assert any(v.elements == ("Y1", "Y2", "Z1") for v in violations)


def test_deformation_linearity():
    alg = build_model(3, 2, 2)
    d_term, b_term = {ColumnKey(BlockKind.D, 1, 2, 2): 1}, {ColumnKey(BlockKind.B, 1, 1, 2): 3}
    phi1, phi2 = Cochain2(alg, d_term), Cochain2(alg, b_term)
    once = deform(alg, Cochain2(alg, {**d_term, **b_term})).result
    twice = deform(deform(alg, phi1).result, phi2).result
    assert list(once.nonzero_constants()) == list(twice.nonzero_constants())


def test_kernel_vectors_stay_cocycles_after_deform():
    # re-evaluate every condition with the ORIGINAL bracket after deforming
    from itertools import combinations
    alg = build_model(2, 2, 1)
    for psi in assemble_Z2_system(alg).kernel_cochains():
        law = deform(alg, psi)
        assert list(law.base.nonzero_constants()) == list(alg.nonzero_constants())
        assert all(not delta2(alg, psi, t) for t in combinations(range(alg.dim), 3))


def test_filiform_check_fails_on_non_nilpotent():
    # [X1, X2] = X1 destroys nilpotency
    assert not filiform_check(build_model(2, 1, 1).with_added_constants({(1, 2): {1: 1}}))
    # [X0, X1] = X1: L_0 is not nilpotent; [X0, Y1] = Y1: L_1 is not a nilpotent module
    for dims, pair, vector in [((2, 0, 0), (0, 1), {1: 1}), ((2, 1, 0), (0, 2), {2: 1})]:
        assert not filiform_check(ColorLieAlgebra(dims, {pair: vector}))


@pytest.mark.parametrize("nmp", [(8, 6, 6), (40, 30, 30)])
def test_filiform_check_brackets_only_the_partners_the_index_lists(nmp, monkeypatch):
    # a step brackets each echelon vector of C^k with the L_0 partners of
    # its support only, so on the model degree g costs at most d_g(d_g+1)/2
    # brackets; every L_0 element against every vector costs about d_0 times that
    calls = []
    real = ColorLieAlgebra.bracket

    def counting(self, x, y):
        calls.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(ColorLieAlgebra, "bracket", counting)
    alg = build_model(*nmp)
    assert filiform_check(alg)
    assert len(calls) <= sum(d * (d + 1) // 2 for d in alg.dims)


@pytest.mark.parametrize("nmp", [(4, 3, 3), (5, 2, 4), (6, 4, 5), (8, 6, 6)])
def test_e_and_f_cocycles_integrate_and_a_b_c_cocycles_need_not(nmp):
    # For a cocycle phi on a Lie base, mu0 + phi is a Lie law exactly when
    # phi o phi vanishes, i.e. when phi alone satisfies Jacobi.  A D value
    # lies in L2, an E value in L0 and an F value in L1, none a source
    # degree of its own block, so phi(phi(x, y), z) = 0 by degree and every
    # cocycle of D, E or F alone integrates.  A, B and C take values in a
    # source degree of their own block, and some of their kernel vectors
    # do not integrate.
    alg = build_model(*nmp)
    for block in BlockKind:
        verdicts = []
        for phi in assemble_Z2_system(alg, {block}).kernel_cochains():
            integrable = is_integrable(deform(alg, phi))
            assert integrable == (validate_jacobi(phi.law) == []), (block.name, nmp)
            verdicts.append(integrable)
        assert verdicts, (block.name, nmp)
        assert all(verdicts) == (block in (BlockKind.D, BlockKind.E, BlockKind.F)), \
            (block.name, nmp)


def test_integrability_routes_must_agree(monkeypatch):
    # J(mu0 + phi) = J(phi) for a cocycle phi on a Lie base, so a route
    # that misses the obstruction of D + F above is caught and named
    alg = build_model(1, 2, 2)
    phi = Cochain2(alg, {ColumnKey(BlockKind.D, 1, 2, 2): 1, ColumnKey(BlockKind.F, 1, 2, 2): 1})
    law = deform(alg, phi)
    assert [str(v) for v in validate_jacobi(phi.law)] == \
        [str(v) for v in validate_jacobi(law.result)] == \
        ["J(Y1, Y2, Z1) = -1*Y2 != 0", "J(Y1, Z1, Z2) = -1*Z2 != 0"]
    real = validate_jacobi
    monkeypatch.setattr(colorfil.deformation, "validate_jacobi",
                        lambda a: [] if a is phi.law else real(a))
    with pytest.raises(IntegrabilityMismatch) as raised:
        is_integrable(law)
    assert str(raised.value) == "J(Y1, Y2, Z1) is -1*Y2 on mu0 + phi but 0 on phi alone"
