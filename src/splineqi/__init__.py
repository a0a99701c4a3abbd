"""Univariate spline quasi-interpolants on non-uniform partitions.

Discrete operators that map point samples (or derivative data) at the
Greville sites to spline coefficients, reproduce quadratics or the whole
spline space, and carry small, explicitly bounded sup norms. Includes the
l1-minimal ("near-best") stencil construction with its LP solver and dual
optimality certificates, plus quadrature rules, differentiation matrices,
and convergence studies derived from the operators.
"""

from .applications import (
    BUILTIN_FUNCTIONS,
    ConvergenceReport,
    ConvergenceRow,
    DifferentiationMatrix,
    DiffReport,
    DiffRow,
    OperatorRecipe,
    QuadratureRule,
    TestFunction,
    convergence_study,
    differentiation_matrix,
    differentiation_study,
    evaluation_grid,
    operator_recipe,
    quadrature_from_qi,
)
from .bspline import (
    SplineFunction,
    SplineSpace,
    basis_integral,
    eval_basis,
    eval_basis_derivative,
    eval_spline,
)
from .cli import RunConfig, main, parse_config_file, run
from .knots import (
    FAMILIES,
    GrevilleGrid,
    KnotVector,
    PartitionSpec,
    elementary_symmetric,
    generate_partition,
    greville_grid,
    make_clamped_knots,
)
from .nearbest import (
    Certificate,
    ConstraintSystem,
    L1Solution,
    WatsonForm,
    assemble_constraints,
    build_nearbest_qi,
    build_watson_form,
    iter_lp_audit,
    knot_condition,
    solve_l1,
    watson_certificate,
)
from .quasi_interp import (
    KIND_DQI,
    KIND_NEARBEST,
    KIND_Q2STAR,
    KIND_QP2STAR,
    QuasiInterpolant,
    Stencil,
    apply_dqi,
    apply_qi,
    build_q2star,
    build_qp2star,
    dqi_coefficients,
    greville_samples,
    norm_upper_bound,
)
from .simplex import SimplexResult, solve_standard_form

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # knots / spaces
    "FAMILIES",
    "KnotVector",
    "PartitionSpec",
    "GrevilleGrid",
    "make_clamped_knots",
    "generate_partition",
    "greville_grid",
    "elementary_symmetric",
    "SplineSpace",
    "SplineFunction",
    "eval_basis",
    "eval_spline",
    "eval_basis_derivative",
    "basis_integral",
    # operators
    "KIND_DQI",
    "KIND_Q2STAR",
    "KIND_QP2STAR",
    "KIND_NEARBEST",
    "Stencil",
    "QuasiInterpolant",
    "dqi_coefficients",
    "apply_dqi",
    "build_q2star",
    "build_qp2star",
    "greville_samples",
    "apply_qi",
    "norm_upper_bound",
    # near-best
    "ConstraintSystem",
    "assemble_constraints",
    "L1Solution",
    "solve_l1",
    "WatsonForm",
    "build_watson_form",
    "knot_condition",
    "Certificate",
    "watson_certificate",
    "build_nearbest_qi",
    "iter_lp_audit",
    "SimplexResult",
    "solve_standard_form",
    # applications
    "QuadratureRule",
    "quadrature_from_qi",
    "DifferentiationMatrix",
    "differentiation_matrix",
    "TestFunction",
    "BUILTIN_FUNCTIONS",
    "OperatorRecipe",
    "operator_recipe",
    "evaluation_grid",
    "ConvergenceRow",
    "ConvergenceReport",
    "convergence_study",
    "DiffRow",
    "DiffReport",
    "differentiation_study",
    # cli
    "RunConfig",
    "parse_config_file",
    "run",
    "main",
]
