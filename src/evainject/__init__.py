"""Exact-arithmetic injectivity decisions for polynomial evaluation maps.

Decides when A -> f(A) (and its multivariate analogue) can be injective on
a base field or an n x n matrix algebra, produces machine-verified
counterexample witnesses wherever the underlying construction is explicit,
and cross-checks symbolic verdicts against brute-force oracles on small
instances.  See the README for the verdict semantics and the CLI.
"""

from .engine import (
    DEFAULT_BOUNDS,
    BezoutCertificate,
    Bounds,
    PermutationCheck,
    Reason,
    SimpleRootsReport,
    Status,
    Verdict,
    Witness,
    bezout_noncollision_certificate,
    brute_force_matrix,
    brute_force_scalar,
    brute_force_zero_fiber,
    matrix_injectivity,
    monotonicity_violation,
    multivariate_injectivity,
    permutation_check,
    rational_grid,
    scalar_injectivity,
    search_matrix_collisions,
    search_rational_collisions,
    search_tuple_collisions,
    simple_roots_condition,
    verify_witness,
)
from .errors import AlgebraError, InternalInvariantError
from .fields import (
    ACF,
    QQ,
    RCF,
    AlgClosedTag,
    ExtensionField,
    FieldElement,
    FieldSpec,
    PrimeField,
    Rationals,
    RealClosedTag,
    two_adic_valuation,
)
from .matrices import (
    Matrix,
    block_embed,
    companion,
    flatten,
    jordan_nilpotent_embed,
    mat_poly_eval,
    minimal_polynomial,
    unflatten,
)
from .polynomials import (
    FactorProfile,
    MultiPoly,
    UniPoly,
    extended_gcd,
    factor_finite,
    factor_profile,
    factor_rationals,
    gcd_poly,
    is_strictly_monotone,
    rational_roots,
    squarefree_decomposition,
    sturm_real_roots,
    zero_multiplicity,
)

__version__ = "0.1.0"
