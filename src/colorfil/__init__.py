"""Graded filiform Lie algebras and their infinitesimal deformations.

Builds the model Z_3-graded filiform Lie algebra L^{n,m,p}, computes the
space of its infinitesimal deformations (degree-0 2-cocycles vanishing
on the characteristic vector) by exact sparse linear algebra, and checks
the closed-form dimension of each of the six blocks A-F against two
independent routes: brute-force kernel computation and weight counting.
"""

from .algebra import (BasisElement, ColorLieAlgebra, InvalidParams,
                      JacobiViolation, build_model, check_params, from_json_dict,
                      validate_jacobi)
from .cohomology import (ALL_BLOCKS, BlockKind, Cochain2, ColumnKey,
                         ConstraintSystem, DecompositionMismatch, KernelMismatch,
                         assemble_Z2_system, block_dims, cochain_from_json,
                         cocycle_basis_json, delta1, delta2, is_cocycle, write_cocycle_basis)
from .deformation import (CharacteristicVectorViolation, DeformedLaw,
                          IntegrabilityMismatch, NotACocycle, NotALieAlgebra,
                          deform, filiform_check, is_integrable)
from .formulas import (DimensionReport, IntegralityError, branch_labels,
                       closed_form_exceptions, main_theorem_total)
from .linalg import (KernelBasis, SparseIntMatrix, kernel_basis, nullity,
                     rank_certified)
from .weights import count_weight_dim

__version__ = "0.1.0"
