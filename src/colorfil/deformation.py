"""Deforming the model law by a cocycle and checking integrability.

A cochain phi vanishing on the characteristic vector defines the
candidate law mu0 + phi: the model's structure constants plus phi's
values on each basis pair (`Cochain2.law`).  By bilinearity of the
Jacobiator (`algebra.jacobiator`)

    J(mu0 + phi) = J(mu0) + (J(mu0, phi) + J(phi, mu0)) + J(phi)
                 = J(mu0) - d2 phi + J(phi),

so on a Lie base and for a 2-cocycle phi, mu0 + phi satisfies Jacobi
exactly when the law phi alone does: J(phi) is the quadratic
obstruction.  `is_integrable` checks the base and the cocycle first,
then takes both routes.  First order only: no higher deformation terms.

The Jacobi and cocycle checks evaluate only the basis triples
`algebra.reached_triples` names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (ColorLieAlgebra, NotNilpotent, _descending_dims, integral_law,
                      validate_jacobi)
# is_cocycle is not called here; it stays importable because bench/spans.py rebinds it
from .cohomology import Cochain2, _check_cochain_of, cocycle_defect, is_cocycle


class CharacteristicVectorViolation(ValueError):
    """The cochain does not vanish on the characteristic vector."""


class NotACocycle(ValueError):
    """Integrability asked for a cochain that is not a 2-cocycle."""


class NotALieAlgebra(ValueError):
    """Integrability asked for on a base law that fails the Jacobi identity."""


class IntegrabilityMismatch(ArithmeticError):
    """Jacobi on mu0 + phi and Jacobi on phi alone disagree for a cocycle phi."""


@dataclass(frozen=True)
class DeformedLaw:
    """A model law, a cochain, and their sum."""

    base: ColorLieAlgebra
    phi: Cochain2
    result: ColorLieAlgebra


def deform(alg: ColorLieAlgebra, phi: Cochain2) -> DeformedLaw:
    """Structure constants of mu0 + phi; no validity claim is made yet.

    A phi built on an algebra of other dims raises ValueError.
    """
    _check_cochain_of(alg, phi)
    if phi.has_x0_source:
        raise CharacteristicVectorViolation(
            "deformation cochains must vanish on the characteristic vector X0")
    result = alg.with_added_constants(phi.as_constant_additions())
    return DeformedLaw(base=alg, phi=phi, result=result)


def is_integrable(d: DeformedLaw) -> bool:
    """Whether mu0 + phi is again a graded Lie algebra law.

    Requires the base law mu0 to satisfy the Jacobi identity (raises
    NotALieAlgebra naming the first violation otherwise) and phi to be a
    2-cocycle on it (rechecked directly through the six-term identity;
    raises NotACocycle naming the first failing triple otherwise).  Then
    J(mu0 + phi) = J(phi) (module docstring): the two violation lists
    must be equal, or IntegrabilityMismatch names the first triple where
    they differ.
    """
    base_violations = validate_jacobi(d.base)
    if base_violations:
        raise NotALieAlgebra(f"base algebra fails the Jacobi identity: {base_violations[0]}")
    defect = cocycle_defect(d.base, d.phi)
    if defect is not None:
        triple, value = defect
        labels = ", ".join(d.base.label(i) for i in triple)
        raise NotACocycle("phi fails the 2-cocycle conditions on the base algebra: "
                          f"d2 phi({labels}) = {d.base.format_vector(value)} != 0")
    deformed, alone = ({v.elements: v.residual for v in validate_jacobi(law)}
                       for law in (d.result, d.phi.law))
    if deformed != alone:
        triple = min((t for t, _ in deformed.items() ^ alone.items()),
                     key=lambda t: [d.base.index(x) for x in t])
        raise IntegrabilityMismatch(
            f"J({', '.join(triple)}) is {deformed.get(triple, 0)} on mu0 + phi "
            f"but {alone.get(triple, 0)} on phi alone")
    return not deformed


def filiform_check(alg: ColorLieAlgebra) -> bool:
    """Whether `alg` is graded filiform: the one rule, stated here only.

    For each degree g with d = dims[g], the descending sequence C^0(L_g)
    = L_g, C^{k+1}(L_g) = [L_0, C^k(L_g)] must have dimensions d, d-1,
    ..., 1, 0.  The one exception is L_0 with d >= 2, a filiform Lie
    algebra, whose sequence skips d-1.  A sequence that stabilizes at a
    nonzero subspace (NotNilpotent) fails.
    """
    law = integral_law(alg)
    try:
        for g, d in enumerate(alg.dims):
            expected = list(range(d, -1, -1))
            if g == 0 and d >= 2:
                del expected[1]
            if _descending_dims(law, g) != expected:
                return False
    except NotNilpotent:
        return False
    return True
