"""Exact computations with left-invariant anti-Kahler (Norden) structures."""

from .scalars import (
    GaussianRational,
    Matrix,
    Rational,
    format_rational,
    gaussian_sqrt,
    parse_rational,
    rational_sqrt,
    signature,
)
from .liealg import (
    LieAlgebra,
    is_abelian_j,
    is_anti_abelian_j,
    is_bi_invariant_j,
    jacobi_residual,
    nijenhuis,
)
from .geometry import (
    AntiHermitianStructure,
    Connection,
    CurvatureTensor,
    complex_form,
    curvature,
    curvature_is_pure,
    is_anti_kahler,
    is_bi_invariant_metric,
    is_einstein,
    is_flat,
    is_ricci_flat,
    levi_civita,
    nabla_j,
    ricci,
    twin_metric,
)
from .theta import (
    anti_kahler_via_theta,
    theta_bracket_form,
    theta_connection_form,
    theta_is_pure,
    theta_is_skew,
)
from .classify4 import (
    ClassificationReport,
    classify,
    closed_form_curvature_case2,
    case2_equivalence_witness,
    equivalence_witness_case1,
    equivalent_case2,
    make_family_case1,
    make_family_case2,
    orbit_invariant,
    verify_isomorphism,
    zeta_from_params,
)
from . import catalog
from .verifier import GeneratorConfig, list_suites, random_anti_hermitian_metric, run_suite

__version__ = "0.1.0"
