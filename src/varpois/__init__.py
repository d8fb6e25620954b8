"""varpois: symbolic variational Poisson calculus.

Differential polynomial algebras over Q(params)(x), lambda-brackets and
Hamiltonian structure verification, generalized de Rham / variational
cohomology via local homotopy operators, differential linear algebra
(majorants, row reduction, Dieudonne determinants), polydifferential
solvability spaces, and the Lenard-Magri integrability scheme.
"""

from .diffalg import (DiffAlgebra, DiffPoly, DiffRat, LocalFunctional,
                      NotExact, antiderivative_in_v, frechet, functional_eq,
                      higher_euler, is_exact_1form, is_total_derivative,
                      partial_antiderivative, reconstruct_density,
                      variational_derivative)
from .diffop import (DegenerateLeadingMatrix, DegenerateShape, Incomplete,
                     LeadingCoeffSingular, LeadingMatrix, Majorant, MatDiffOp,
                     MatPseudoOp, NoRationalSolution, NotAMajorant,
                     NotQuasiconstant, NotSkewadjoint, PseudoDiffOp,
                     ScalarDiffOp, ShapeMismatch, TruncationExceeded,
                     dieudonne_det, kernel_dim_bound, leading_matrix,
                     majorant, majorant_preserving_reduce, row_echelon,
                     selfadjoint_product_space, solve_rational)
from .field import (CoefficientField, FieldElem, InvariantViolation,
                    UndecidableResidue, rational_antiderivative)
from .lambdapoly import LambdaPoly
from .complexes import (CohomologyResult, LeadingCoeffNotIdentity, NotClosed,
                        OutOfFiltration, QuotientArray, SkewArray, alpha_k,
                        cohomology_dim, d_k, delta_k, dim_omega00,
                        filtration_level, homotopy, partial_action, phi_s,
                        reduce_closed)
from .lenard import (HierarchyState, NoPreimage, UnsupportedK, lenard_step,
                     run_hierarchy, verify_involution)
from .linform import LinForm
from .parser import ArityError, ParseError, Session, parse_session
from .polydiff import (KDiffOp, chi_representative, is_skewsymmetric,
                       is_totally_skewsymmetric, module_action,
                       sigma_action, sigma_space, skew_product,
                       solve_skew_equation, total_skewsymmetrize)
from .pva import (LambdaBracketStruct, NotPoisson, check_compatible,
                  check_jacobi, check_skewadjoint, jacobi_residual,
                  lambda_bracket, magri_structure, poisson_bracket)

__version__ = "0.1.0"
