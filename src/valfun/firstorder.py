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
from .coderiv import PointContext, point_contexts
from .errors import HypothesisError
from .model import ParametricProblem, verify_concave_convex
from .reporting import (
    ASSERTED,
    FAILED,
    SHAPE_STATUS,
    VERIFIED,
    HypothesisRecord,
    convex_in_y_record,
)
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


def danskin(problem: ParametricProblem, xbar, minimizers=None) -> SubdiffEstimate:
    """Subdifferential generators for an x-independent feasible set.

    Requires every constraint to be free of x (checked structurally).
    When the concave-convex shape is verified or asserted the result is
    the convex hull of the generators, otherwise their plain union.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    hyps = []
    if problem.constraints_x_free():
        hyps.append(HypothesisRecord("feasible-set-x-independent", VERIFIED))
    else:
        raise HypothesisError("danskin estimate needs an x-independent feasible set")
    cc_status = SHAPE_STATUS[verify_concave_convex(problem)]
    hyps.append(HypothesisRecord("concave-convex", cc_status))
    ctxs, under = point_contexts(problem, xbar, minimizers)
    gens = kernel._dedup_points([problem.grad_x_f(xbar, c.y) for c in ctxs])
    if cc_status in (VERIFIED, ASSERTED):
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


def _lagrangian_image_piece(ctx: PointContext, provenance) -> tuple:
    """The set { grad_x f + gx^T u : u in Lambda(x, y) } at the context's
    point as one piece, plus the generator points at multiplier vertices."""
    problem, mult = ctx.problem, ctx.mult
    fx = problem.grad_x_f(ctx.x, ctx.y)
    if problem.p == 0:  # Lambda is {()} when grad_y f vanishes, else empty
        src = Polyhedron.whole(0) if mult.vertices else Polyhedron(0, C=np.zeros((1, 0)), d=[-1.0])
        piece = Piece(src, np.zeros((problem.n, 0)), fx, provenance)
        return piece, [fx] if mult.vertices else []
    gx = problem.jac_x_g(ctx.x, ctx.y)
    return Piece(mult.poly, gx.T, fx, provenance), [fx + gx.T @ u for u in mult.vertices]


def _multiplier_records(ctx: PointContext, where: str,
                        bounded_detail: str = "") -> list[HypothesisRecord]:
    mult = ctx.mult
    hyps = []
    if mult.empty:
        # an empty multiplier set leaves an empty image piece: the estimate
        # must not read as a clean (empty) answer
        faces = kernel.unimplied_box_faces(ctx.problem, mult, ctx.tol_act)
        cause = (f": it lies on the {faces}, which no row of g implies, and box rows get "
                 "no multipliers") if faces else ""
        hyps.append(HypothesisRecord(
            "kkt-multiplier-exists", FAILED,
            f"no KKT multiplier at {where}{cause}; its piece of the estimate is empty",
        ))
    if not mult.bounded:
        hyps.append(HypothesisRecord("bounded-multiplier-set", FAILED, bounded_detail))
    return hyps


def convex_mfcq_subdiff(
    problem: ParametricProblem, xbar, y=None, minimizers=None, contexts=None
) -> SubdiffEstimate:
    """Multiplier-polyhedron image estimate for problems convex in y.

    One minimizer suffices (for convex problems the image does not depend
    on the chosen minimizer): ``y``, else the first of ``contexts``, of
    ``minimizers`` or of a fresh solve.  MFCQ is verified; convexity in y
    comes from the quadratic check or the problem flag.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    if y is None:
        ctx = point_contexts(problem, xbar, minimizers, contexts)[0][0]
    else:
        ctx = PointContext(problem, xbar, y)
    hyps = [HypothesisRecord("mfcq", VERIFIED if ctx.mfcq.holds else FAILED,
                             f"active={list(ctx.mfcq.active)}")]
    if not ctx.mfcq.holds:
        raise HypothesisError("MFCQ fails at the supplied minimizer")
    hyps.append(convex_in_y_record(problem, "no flag supplied"))
    piece, gens = _lagrangian_image_piece(ctx, "convex-mfcq")
    hyps.extend(_multiplier_records(ctx, "the minimizer"))
    return SubdiffEstimate(
        xbar=xbar,
        formula="convex-mfcq",
        result=PolySet(problem.n, [piece]),
        generators=gens,
        hypotheses=hyps,
    )


def gauvin_dubeau(
    problem: ParametricProblem, xbar, minimizers=None, contexts=None
) -> SubdiffEstimate:
    """MFCQ estimate: union over minimizers (``contexts``, else
    ``minimizers``, else a fresh solve) of multiplier-image pieces.

    A singleton solution map gives the equality-type estimate; otherwise
    the union is an inclusion and is tagged so.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    ctxs, under = point_contexts(problem, xbar, minimizers, contexts)
    hyps = []
    pieces, gens = [], []
    for idx, ctx in enumerate(ctxs):
        if not ctx.mfcq.holds:
            raise HypothesisError(f"MFCQ fails at minimizer {idx}")
        piece, g = _lagrangian_image_piece(ctx, f"gauvin-dubeau[y{idx}]")
        hyps.extend(_multiplier_records(ctx, f"minimizer {idx}", f"minimizer {idx}"))
        pieces.append(piece)
        gens.extend(g)
    hyps.insert(0, HypothesisRecord("mfcq", VERIFIED, f"{len(ctxs)} minimizer(s)"))
    singleton = len(ctxs) == 1
    hyps.append(
        HypothesisRecord(
            "solution-map-singleton",
            VERIFIED if singleton else FAILED,
            f"{len(ctxs)} minimizers found",
        )
    )
    return SubdiffEstimate(
        xbar=xbar,
        formula="gauvin-dubeau" if singleton else "gauvin-dubeau-nohull",
        result=PolySet(problem.n, pieces),
        generators=kernel._dedup_points(gens),
        hypotheses=hyps,
        inclusion_only=not singleton,
        under_enumerated=under,
    )


def auto_estimate(
    problem: ParametricProblem, xbar, minimizers=None, contexts=None
) -> SubdiffEstimate:
    """Pick the most structured applicable estimate at the minimizers
    (``contexts``, else ``minimizers``, else a fresh solve)."""
    if problem.constraints_x_free():
        return danskin(problem, xbar, [c.y for c in contexts] if contexts is not None else minimizers)
    cc = verify_concave_convex(problem)
    if cc == "verified" or problem.flags.get("convex_in_y"):
        return convex_mfcq_subdiff(problem, xbar, minimizers=minimizers, contexts=contexts)
    return gauvin_dubeau(problem, xbar, minimizers=minimizers, contexts=contexts)
