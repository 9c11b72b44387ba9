"""Sensitivity analysis of parametric minimization problems.

Given a family of inner problems  min_y { f(x, y) : g(x, y) <= 0 }  the
package estimates first- and second-order generalized derivatives of the
optimal value function: gradient sets at a parameter point and, one
level up, coderivative-based outer estimates of the generalized Hessian,
represented exactly as finite unions of affine images of polyhedra.
"""

from __future__ import annotations

from .coderiv import (
    Branch,
    BranchFamily,
    CoderivEstimate,
    CqReport,
    FiniteGeneratorMap,
    branch_family,
    build_branch_family,
    check_cq_lambda,
    coderivative_S,
    coderivative_lambda,
    hull_coderivative,
    solution_map_lipschitz_like,
)
from .errors import (
    BranchCapError,
    CaseRoutingError,
    DegeneracyError,
    DimensionError,
    EstimateEmptyError,
    EvaluationError,
    HypothesisError,
    InfeasibleParameterError,
    KktValidationError,
    LpStatusError,
    ParseError,
    ProblemFormatError,
    UnboundedProblemError,
    UsageError,
    ValfunError,
)
from .firstorder import (
    SubdiffEstimate,
    auto_estimate,
    convex_mfcq_subdiff,
    danskin,
    gauvin_dubeau,
)
from .hessian import (
    HessianEstimate,
    HessianQuery,
    SensitivityResult,
    compute,
    hessian_single_lambda,
    hessian_single_s,
    hessian_single_single,
    hessian_unperturbed,
    lp_lhs_hessian,
    lp_lhs_rhs_hessian,
    route,
    sensitivity_system,
)
from .kernel import (
    MultiplierPolyhedron,
    SolveResult,
    check_licq,
    check_mfcq,
    multipliers,
    solve_value,
)
from .model import (
    KktPoint,
    LagrangianEval,
    NamedPoint,
    ParametricProblem,
    Partition,
    classify,
    differentiate,
    load_problem,
    make_kkt,
    parse_expr,
    parse_problem,
    problem_to_json,
    verify_concave_convex,
    verify_convex_in_y,
)
from .setcalc import (
    ConvexHullSet,
    MemberVerdict,
    Piece,
    Polyhedron,
    PolySet,
    convex_hull,
    member,
    scale,
    vertices,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ParametricProblem", "NamedPoint", "KktPoint", "Partition", "LagrangianEval",
    "parse_problem", "parse_expr", "load_problem", "problem_to_json",
    "classify", "differentiate", "make_kkt", "verify_concave_convex",
    "verify_convex_in_y",
    # set calculus
    "Polyhedron", "PolySet", "Piece", "MemberVerdict", "ConvexHullSet",
    "vertices", "member", "scale", "convex_hull",
    # inner solves
    "SolveResult", "MultiplierPolyhedron", "solve_value", "multipliers",
    "check_licq", "check_mfcq",
    # first order
    "SubdiffEstimate", "auto_estimate", "danskin", "convex_mfcq_subdiff",
    "gauvin_dubeau",
    # coderivatives
    "Branch", "BranchFamily", "CoderivEstimate", "CqReport", "FiniteGeneratorMap",
    "build_branch_family", "branch_family", "coderivative_lambda", "coderivative_S",
    "check_cq_lambda", "hull_coderivative", "solution_map_lipschitz_like",
    # second order
    "HessianQuery", "HessianEstimate", "SensitivityResult", "sensitivity_system",
    "hessian_unperturbed", "hessian_single_single", "hessian_single_s",
    "hessian_single_lambda", "lp_lhs_hessian", "lp_lhs_rhs_hessian",
    "route", "compute",
    # errors
    "ValfunError", "ParseError", "ProblemFormatError", "EvaluationError",
    "DimensionError", "InfeasibleParameterError", "UnboundedProblemError",
    "KktValidationError", "HypothesisError", "DegeneracyError",
    "CaseRoutingError", "BranchCapError", "EstimateEmptyError", "LpStatusError",
    "UsageError",
]
