"""Sensitivity analysis of parametric minimization problems.

Given a family of inner problems  min_y { f(x, y) : g(x, y) <= 0 }  the
package estimates first- and second-order generalized derivatives of the
optimal value function: gradient sets at a parameter point and, one
level up, coderivative-based outer estimates of the generalized Hessian,
represented exactly as finite unions of affine images of polyhedra.
"""

from __future__ import annotations

import importlib

#: The module each public name lives in.
_EXPORTS = {
    "coderiv": (
        "Branch", "BranchFamily", "CoderivEstimate", "CqReport", "FiniteGeneratorMap",
        "branch_family", "build_branch_family", "check_cq_lambda", "coderivative_S",
        "coderivative_lambda", "hull_coderivative",
    ),
    "errors": (
        "BranchCapError", "CaseRoutingError", "DegeneracyError", "DimensionError",
        "EvaluationError", "HypothesisError", "InfeasibleParameterError",
        "KktValidationError", "LpStatusError", "ParseError", "ProblemFormatError",
        "UnboundedProblemError", "UsageError", "ValfunError",
    ),
    "firstorder": (
        "SubdiffEstimate", "auto_estimate", "convex_mfcq_subdiff", "danskin",
        "gauvin_dubeau",
    ),
    "hessian": (
        "HessianEstimate", "HessianQuery", "SensitivityResult", "compute",
        "hessian_single_lambda", "hessian_single_s", "hessian_single_single",
        "hessian_unperturbed", "lp_lhs_hessian", "lp_lhs_rhs_hessian", "route",
        "sensitivity_system",
    ),
    "kernel": (
        "MultiplierPolyhedron", "SolveResult", "check_licq", "check_mfcq", "multipliers",
        "solve_value",
    ),
    "model": (
        "KktPoint", "LagrangianEval", "NamedPoint", "ParametricProblem", "Partition",
        "differentiate", "load_problem", "make_kkt", "parse_expr",
        "parse_problem", "problem_to_json", "verify_concave_convex", "verify_convex_in_y",
    ),
    "setcalc": (
        "ConvexHullSet", "MemberVerdict", "Piece", "Polyhedron", "PolySet",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "oracle", "reporting"}


def __getattr__(name):
    """Public names and submodules, imported on first access (PEP 562).

    A resolved name is not stored in the package namespace: each access
    reads the defining module again, so a patched and restored module
    attribute never leaves a stale copy here.
    """
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = ["__version__", *_ORIGIN]
