"""First-order subdifferential estimates for the optimal value function.

Three estimates, in decreasing order of structure:

* :func:`danskin` -- parameter-independent feasible set: generators are
  the partial gradients of f at the minimizers, with an optional convex
  hull when the value function is known concave.
* :func:`convex_mfcq_subdiff` -- problems convex in y under MFCQ: the
  subdifferential is contained in the image of the multiplier polyhedron
  under u -> grad_x f + gx^T u at one minimizer.
* :func:`gauvin_dubeau` -- general MFCQ estimate: one multiplier-image
  piece per minimizer; exact-type for a singleton solution map, an
  inclusion tagged ``inclusion_only`` otherwise.

Each estimate reports its hypotheses (verified / asserted / failed) and
whether minimizer under-enumeration could make the union incomplete.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import HypothesisError
from .model import ParametricProblem, verify_concave_convex, verify_convex_in_y
from .reporting import ASSERTED, ASSUMED, FAILED, NOT_CHECKED, VERIFIED, HypothesisRecord
from .setcalc import MemberVerdict, Piece, Polyhedron, PolySet


@dataclass
class SubdiffEstimate:
    xbar: np.ndarray
    formula: str
    result: PolySet
    generators: list[np.ndarray] = field(default_factory=list)
    hypotheses: list[HypothesisRecord] = field(default_factory=list)
    inclusion_only: bool = False
    under_enumerated: bool = False

    def member(self, xund, tol: float = 1e-6) -> MemberVerdict:
        return self.result.member(xund, tol)

    def support_min(self, d) -> float:
        """min over generators of <gen, d>; for a concave value function
        this is the directional derivative phi'(xbar; d)."""
        d = np.asarray(d, dtype=float)
        if not self.generators:
            return float("nan")
        return min(float(g @ d) for g in self.generators)

    def to_json(self) -> dict:
        return {
            "xbar": [float(v) for v in self.xbar],
            "formula": self.formula,
            "inclusion_only": self.inclusion_only,
            "under_enumerated": self.under_enumerated,
            "generators": [[float(v) for v in g] for g in self.generators],
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "set": self.result.to_json(),
        }


def _solve_minimizers(problem, xbar, minimizers):
    if minimizers is not None:
        return [np.atleast_1d(np.asarray(y, float)) for y in minimizers], False
    res = kernel.solve_value(problem, xbar)
    return res.minimizers, res.under_enumerated


def danskin(
    problem: ParametricProblem,
    xbar,
    minimizers=None,
    hull: bool | None = None,
) -> SubdiffEstimate:
    """Subdifferential generators for an x-independent feasible set.

    Requires every constraint to be free of x (checked structurally).
    With ``hull`` (default: on when the concave-convex shape is verified
    or asserted) the result is the convex hull of the generators,
    otherwise their plain union.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    hyps = []
    if problem.constraints_x_free():
        hyps.append(HypothesisRecord("feasible-set-x-independent", VERIFIED))
    else:
        raise HypothesisError("danskin estimate needs an x-independent feasible set")
    cc = verify_concave_convex(problem)
    cc_status = {
        "verified": VERIFIED,
        "asserted": ASSERTED,
        "failed": FAILED,
        "unknown": NOT_CHECKED,
    }[cc]
    hyps.append(HypothesisRecord("concave-convex", cc_status))
    if hull is None:
        hull = cc_status in (VERIFIED, ASSERTED)
    mins, under = _solve_minimizers(problem, xbar, minimizers)
    gens = kernel._dedup_points([problem.grad_x_f(xbar, y) for y in mins])
    if hull:
        result = PolySet.from_hull(gens, provenance="danskin")
        formula = "danskin"
    else:
        result = PolySet.from_points(gens, provenance="danskin")
        formula = "danskin-nohull"
    return SubdiffEstimate(
        xbar=xbar,
        formula=formula,
        result=result,
        generators=gens,
        hypotheses=hyps,
        under_enumerated=under,
    )


def _lagrangian_image_piece(problem, xbar, y, provenance) -> tuple:
    """The set { grad_x f + gx^T u : u in Lambda(xbar, y) } as one piece,
    plus the generator points at multiplier vertices."""
    mult = kernel.multipliers(problem, xbar, y)
    fx = problem.grad_x_f(xbar, y)
    gx = problem.jac_x_g(xbar, y)
    if problem.p == 0:
        piece = Piece(Polyhedron.whole(0), np.zeros((problem.n, 0)), fx, provenance)
        gens = [fx] if mult.vertices else []
        return piece, gens, mult
    piece = Piece(mult.poly, gx.T, fx, provenance)
    gens = [fx + gx.T @ u for u in mult.vertices]
    return piece, gens, mult


def _no_multiplier_record(where: str) -> HypothesisRecord:
    # an empty multiplier set leaves an empty image piece: the estimate
    # must not read as a clean (empty) answer
    return HypothesisRecord(
        "kkt-multiplier-exists", FAILED,
        f"no KKT multiplier at {where}; its piece of the estimate is empty",
    )


def convex_mfcq_subdiff(
    problem: ParametricProblem, xbar, y=None, minimizers=None
) -> SubdiffEstimate:
    """Multiplier-polyhedron image estimate for problems convex in y.

    One minimizer suffices (for convex problems the image does not depend
    on the chosen minimizer).  MFCQ is verified; convexity in y comes
    from the quadratic check or the problem flag.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    hyps = []
    if y is None:
        mins, _ = _solve_minimizers(problem, xbar, minimizers)
        y = mins[0]
    y = np.atleast_1d(np.asarray(y, float))
    mfcq = kernel.check_mfcq(problem, xbar, y)
    hyps.append(
        HypothesisRecord(
            "mfcq",
            VERIFIED if mfcq.holds else FAILED,
            f"active={list(mfcq.active)}",
        )
    )
    if not mfcq.holds:
        raise HypothesisError("MFCQ fails at the supplied minimizer")
    cy = verify_convex_in_y(problem)
    if cy == "verified":
        hyps.append(HypothesisRecord("convex-in-y", VERIFIED, "quadratic shape check"))
    elif cy == "failed":
        hyps.append(HypothesisRecord("convex-in-y", FAILED, "quadratic shape check"))
    elif problem.flags.get("convex_in_y"):
        hyps.append(HypothesisRecord("convex-in-y", ASSERTED, "problem flag"))
    else:
        hyps.append(HypothesisRecord("convex-in-y", ASSUMED, "no flag supplied"))
    piece, gens, mult = _lagrangian_image_piece(problem, xbar, y, "convex-mfcq")
    if mult.empty:
        hyps.append(_no_multiplier_record("the minimizer"))
    if not mult.bounded:
        hyps.append(HypothesisRecord("bounded-multiplier-set", FAILED))
    result = PolySet(problem.n, [piece])
    return SubdiffEstimate(
        xbar=xbar,
        formula="convex-mfcq",
        result=result,
        generators=gens,
        hypotheses=hyps,
    )


def gauvin_dubeau(
    problem: ParametricProblem, xbar, minimizers=None
) -> SubdiffEstimate:
    """MFCQ estimate: union over minimizers of multiplier-image pieces.

    A singleton solution map gives the equality-type estimate; otherwise
    the union is an inclusion and is tagged so.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    mins, under = _solve_minimizers(problem, xbar, minimizers)
    hyps = []
    pieces, gens = [], []
    for idx, y in enumerate(mins):
        mfcq = kernel.check_mfcq(problem, xbar, y)
        if not mfcq.holds:
            raise HypothesisError(f"MFCQ fails at minimizer {idx}")
        piece, g, mult = _lagrangian_image_piece(
            problem, xbar, y, f"gauvin-dubeau[y{idx}]"
        )
        if mult.empty:
            hyps.append(_no_multiplier_record(f"minimizer {idx}"))
        if not mult.bounded:
            hyps.append(
                HypothesisRecord("bounded-multiplier-set", FAILED, f"minimizer {idx}")
            )
        pieces.append(piece)
        gens.extend(g)
    hyps.insert(0, HypothesisRecord("mfcq", VERIFIED, f"{len(mins)} minimizer(s)"))
    singleton = len(mins) == 1
    hyps.append(
        HypothesisRecord(
            "solution-map-singleton",
            VERIFIED if singleton else FAILED,
            f"{len(mins)} minimizers found",
        )
    )
    result = PolySet(problem.n, pieces)
    return SubdiffEstimate(
        xbar=xbar,
        formula="gauvin-dubeau" if singleton else "gauvin-dubeau-nohull",
        result=result,
        generators=kernel._dedup_points(gens),
        hypotheses=hyps,
        inclusion_only=not singleton,
        under_enumerated=under,
    )


def auto_estimate(problem: ParametricProblem, xbar, minimizers=None) -> SubdiffEstimate:
    """Pick the most structured applicable estimate."""
    if problem.constraints_x_free():
        return danskin(problem, xbar, minimizers=minimizers)
    cc = verify_concave_convex(problem)
    if cc == "verified" or problem.flags.get("convex_in_y"):
        return convex_mfcq_subdiff(problem, xbar, minimizers=minimizers)
    return gauvin_dubeau(problem, xbar, minimizers=minimizers)

