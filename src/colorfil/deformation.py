"""Deforming the model law by a cocycle and checking integrability.

A cochain phi vanishing on the characteristic vector defines the
candidate law mu0 + phi: the model's structure constants plus phi's
values on each basis pair, phi being itself a law (`cochain`).  By
bilinearity of the Jacobiator (`algebra.jacobiator`)

    J(mu0 + phi) = J(mu0) + (J(mu0, phi) + J(phi, mu0)) + J(phi)
                 = J(mu0) - d2 phi + J(phi),

so on a Lie base and for a 2-cocycle phi, mu0 + phi satisfies Jacobi
exactly when the law phi alone does: J(phi) is the quadratic
obstruction.  `is_integrable` checks the base and the cocycle first,
then takes both routes.  First order only: no higher deformation terms.

The Jacobi and cocycle checks evaluate only the basis triples
`algebra.reached_triples` names.

`filiform_check` states the graded-filiform rule and computes it: the
descending sequences C^{k+1}(L_g) = [L_0, C^k(L_g)], each term spanned
by integer elimination over the brackets of the last term's echelon
rows with the L_0 partners the bracket index lists for them.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .algebra import ColorLieAlgebra, integral_law, validate_jacobi
# is_cocycle is not called here; it stays importable because bench/spans.py rebinds it
from .cohomology import _check_cochain_of, cocycle_defect, is_cocycle
from .linalg import _eliminate_int


class CharacteristicVectorViolation(ValueError):
    """The cochain does not vanish on the characteristic vector."""


class NotACocycle(ValueError):
    """Integrability asked for a cochain that is not a 2-cocycle."""


class NotALieAlgebra(ValueError):
    """Integrability asked for on a base law that fails the Jacobi identity."""


class IntegrabilityMismatch(ArithmeticError):
    """Jacobi on mu0 + phi and Jacobi on phi alone disagree for a cocycle phi."""


class DeformedLaw(NamedTuple):
    """A model law, a cochain, and their sum."""

    base: ColorLieAlgebra
    phi: ColorLieAlgebra
    result: ColorLieAlgebra


def deform(alg: ColorLieAlgebra, phi: ColorLieAlgebra) -> DeformedLaw:
    """Structure constants of mu0 + phi; no validity claim is made yet.

    A phi built on an algebra of other dims raises ValueError.
    """
    _check_cochain_of(alg, phi)
    if 0 in phi.bracket_index:
        raise CharacteristicVectorViolation(
            "deformation cochains must vanish on the characteristic vector X0")
    result = alg.with_added_constants({(a, b): vec for a, b, vec in phi.nonzero_constants()})
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
                       for law in (d.result, d.phi))
    if deformed != alone:
        triple = min((t for t, _ in deformed.items() ^ alone.items()),
                     key=lambda t: [d.base.index(x) for x in t])
        raise IntegrabilityMismatch(
            f"J({', '.join(triple)}) is {deformed.get(triple, 0)} on mu0 + phi "
            f"but {alone.get(triple, 0)} on phi alone")
    return not deformed


def filiform_check(alg: ColorLieAlgebra) -> bool:
    """Whether `alg` is graded filiform: the one rule, stated and computed here only.

    For each degree g with d = dims[g], the descending sequence C^0(L_g)
    = L_g, C^{k+1}(L_g) = [L_0, C^k(L_g)] must have dimensions d, d-1,
    ..., 1, 0 (Vergne).  The one exception is L_0 with d >= 2, a
    filiform Lie algebra, whose sequence skips d-1.  Each next term is
    spanned by `_eliminate_int` over the images [a, v] of the current
    echelon vectors v, taken in `integral_law(alg)` so they are
    integral, with a only among the L_0 partners the bracket index lists
    for v's support: [a, v] is zero for every other a.  The first step
    whose dimension is off the rule fails; a step that keeps its
    dimension (a sequence stuck above zero) is one.  A component with
    fewer brackets with L_0 than its first step needs fails before its
    basis is listed: the cost is bounded by the constants, not the dims.
    """
    law = integral_law(alg)
    partners, l0 = law.bracket_index, alg.component_indices(0)
    stored = Counter(alg.degree_of(b) for a, row in partners.items() if a in l0
                     for b in row if b > a)  # [a, b], a in L_0, by the degree of b
    for g, d in enumerate(alg.dims):
        first = d - 2 if g == 0 and d >= 2 else d - 1
        if stored[g] < first:
            return False
        current = [{i: 1} for i in alg.component_indices(g)]
        for expected in range(first, -1, -1):
            images = [w for v in current
                      for a in {x for b in v for x in partners.get(b, ()) if x in l0}
                      if (w := law.bracket({a: 1}, v))]
            current = list(_eliminate_int(images).values())
            if len(current) != expected:
                return False
    return True
