"""Steady states and bifurcation diagrams of 1-D phase-field models.

Compact fourth-order finite-difference discretizations of three scalar
models on [-1, 1] with Neumann closures (Allen-Cahn, the spatially reduced
steady Cahn-Hilliard, and a nonlocal Ohta-Kawasaki variant), plus the
numerical machinery to map out their solution structure: dense LU with
determinant-sign tracking, inverse-iteration null modes, predictor-corrector
continuation in a model parameter, determinant-sign bifurcation detection on
the constant branches, branch switching along null modes, and closed-form
crossing values to verify everything against.
"""

from .linalg import (
    ConvergenceError,
    LuFactorization,
    NullVectorResult,
    SingularMatrixError,
    det_sign,
    lu_factor,
    lu_solve,
    null_vector,
)
from .models import (
    AllenCahn,
    CahnHilliardSteady,
    CubicRoots,
    GhostClosure,
    GreenOperator,
    GridSpec,
    ModelParams,
    OhtaKawasaki,
    TrivialBranch,
    ch_trivial_roots,
    green_operator,
    laplacian_apply,
    laplacian_matrix,
    model_by_kind,
    poisson_neumann_solve,
)
from .analysis import (
    AnalyticBifurcation,
    ac_bifurcation,
    ac_bifurcations_in_range,
    acok_bifurcation,
    acok_bifurcations_in_range,
    ch_bifurcation,
    cosine_wavenumber,
    eigenmode,
    implicit_step_threshold,
    mode_wavenumber,
    sine_wavenumber,
)
from .continuation import (
    BifurcationPoint,
    Branch,
    BranchOrigin,
    BranchPoint,
    ContinuationError,
    ContinuationSettings,
    Diagram,
    NewtonFailure,
    Solution,
    branch_switch,
    compute_diagram,
    default_settings,
    detect_bifurcations_on_trivial,
    euler_predict,
    newton_correct,
    solutions_at,
    trace_branch,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "LuFactorization",
    "NullVectorResult",
    "SingularMatrixError",
    "det_sign",
    "lu_factor",
    "lu_solve",
    "null_vector",
    "AllenCahn",
    "CahnHilliardSteady",
    "CubicRoots",
    "GhostClosure",
    "GreenOperator",
    "GridSpec",
    "ModelParams",
    "OhtaKawasaki",
    "TrivialBranch",
    "ch_trivial_roots",
    "green_operator",
    "laplacian_apply",
    "laplacian_matrix",
    "model_by_kind",
    "poisson_neumann_solve",
    "AnalyticBifurcation",
    "ac_bifurcation",
    "ac_bifurcations_in_range",
    "acok_bifurcation",
    "acok_bifurcations_in_range",
    "ch_bifurcation",
    "cosine_wavenumber",
    "eigenmode",
    "implicit_step_threshold",
    "mode_wavenumber",
    "sine_wavenumber",
    "BifurcationPoint",
    "Branch",
    "BranchOrigin",
    "BranchPoint",
    "ContinuationError",
    "ContinuationSettings",
    "Diagram",
    "NewtonFailure",
    "Solution",
    "branch_switch",
    "compute_diagram",
    "default_settings",
    "detect_bifurcations_on_trivial",
    "euler_predict",
    "newton_correct",
    "solutions_at",
    "trace_branch",
    "__version__",
]
