"""Second-order sensitivity of the optimal value function.

The value function of the inner minimization is rarely twice
differentiable; what this module computes are outer estimates of its
generalized Hessian, i.e. of the coderivative of the first-order map at
a chosen base gradient.  A query fixes the parameter ``xbar``, a base
gradient ``xund`` (a point of the first-order set there), and an outer
covector ``xstar``; the answer is a finite union of affine images of
polyhedra in parameter space.

Cases, by structure of the problem at the query point:

* ``unperturbed``     constraints free of x; the first-order map is built
                      from objective gradients at minimizers.
* ``single-single``   unique minimizer and unique multiplier; smooth
                      sensitivity when the KKT system is regular, the
                      composed branch estimate otherwise.
* ``single-s``        unique minimizer, multiplier set a polytope.
* ``single-lambda``   several minimizers, one multiplier each.
* ``lp-lhs``          linear program whose cost vector is the parameter;
                      exact rational arithmetic end to end.
* ``lp-lhs-rhs``      linear program whose right-hand side is the
                      parameter (optionally also the cost); exact.

``route`` picks a case from problem structure, ``compute`` runs the
query end to end including the first-order membership precheck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import firstorder, kernel
from .coderiv import (
    DEFAULT_BRANCH_CAP,
    FiniteGeneratorMap,
    PointContext,
    branch_family,
    build_branch_family,
    chain_pieces,
    coderivative_map_matrix,
    hull_coderivative,
    point_contexts,
    slice_pieces,
    solution_coderivative,
)
from .errors import (
    CaseRoutingError,
    DegeneracyError,
    HypothesisError,
)
from .model import (
    Const,
    KktPoint,
    ParametricProblem,
    Var,
    differentiate,
    partition_of,
    per_problem,
    verify_concave_convex,
)
from .reporting import (
    ASSUMED,
    CASES,
    FAILED,
    SHAPE_STATUS,
    VERIFIED,
    HypothesisRecord,
)
from .setcalc import MemberVerdict, Piece, Polyhedron, PolySet

SELECTION_TOL = 1e-6
MEMBERSHIP_TOL = 1e-6
COND_CAP = 1e10


def _vec(v):
    arr = np.asarray(v)
    if arr.dtype != object:
        arr = np.asarray(arr, dtype=float)
    return np.atleast_1d(arr)


def _fvec(v):
    return np.atleast_1d(np.asarray(v, dtype=float))


@dataclass
class HessianQuery:
    """A single second-order query: parameter point, base gradient, and
    outer covector, plus the requested case ('auto' to dispatch)."""

    xbar: np.ndarray
    xund: np.ndarray
    xstar: np.ndarray
    case: str = "auto"

    def __post_init__(self):
        self.xbar = _vec(self.xbar)
        self.xund = _vec(self.xund)
        self.xstar = _vec(self.xstar)
        if not (self.xbar.shape == self.xund.shape == self.xstar.shape):
            raise ValueError("xbar, xund, xstar must have equal lengths")
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}; choose from {CASES}")


@dataclass
class HessianEstimate:
    query: HessianQuery
    case: str
    theorem: str
    result: PolySet
    hypotheses: list[HypothesisRecord] = field(default_factory=list)
    equality: bool = False
    exact: bool = False
    under_enumerated: bool = False
    supports: list[str] | None = None

    def member(self, vec, tol: float = MEMBERSHIP_TOL) -> MemberVerdict:
        return self.result.member(vec, tol)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "theorem": self.theorem,
            "xbar": [float(v) for v in self.query.xbar],
            "xund": [float(v) for v in self.query.xund],
            "xstar": [float(v) for v in self.query.xstar],
            "equality": self.equality,
            "exact": self.exact,
            "under_enumerated": self.under_enumerated,
            "supports": self.supports,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "set": self.result.to_json(),
        }


# ---------------------------------------------------------------------------
# Smooth sensitivity: tangents of the solution and multiplier maps
# ---------------------------------------------------------------------------


@dataclass
class SensitivityResult:
    ds: np.ndarray  # m x n solution tangent
    du: np.ndarray  # p x n multiplier tangent
    residual: float
    cond: float


def sensitivity_system(problem: ParametricProblem, kkt: KktPoint) -> SensitivityResult:
    """Tangents of the solution and multiplier maps at a regular KKT point.

    Solves the linearized KKT system

        [ Lyy        gy^T   ] [ds]     [ Lyx        ]
        [ diag(u) gy diag(g)] [du] = - [ diag(u) gx ]

    and requires strict complementarity (no activity/multiplier ties),
    linear independence of the active gradients (the rows nu of the KKT
    point's partition), and condition number below 1e10; otherwise raises
    DegeneracyError.
    """
    part = kkt.partition
    if part.theta or part.ambiguous:
        raise DegeneracyError(
            f"strict complementarity fails: zero-multiplier active indices "
            f"{sorted(set(part.theta) | set(part.ambiguous))}"
        )
    lag = kkt.lag
    if part.nu:
        rank = kernel.gradient_rank(lag.gy[list(part.nu)])[0]
        if rank < len(part.nu):
            raise DegeneracyError(
                f"active constraint gradients are dependent (rank {rank} of {len(part.nu)})"
            )
    m, p, n = problem.m, problem.p, problem.n
    K = np.zeros((m + p, m + p))
    K[:m, :m] = lag.Lyy
    if p:
        K[:m, m:] = lag.gy.T
        K[m:, :m] = np.diag(kkt.u) @ lag.gy
        K[m:, m:] = np.diag(lag.g_values)
    rhs = -np.vstack([lag.Lyx, (np.diag(kkt.u) @ lag.gx) if p else np.zeros((0, n))])
    cond = np.linalg.cond(K)
    if not np.isfinite(cond) or cond >= COND_CAP:
        raise DegeneracyError(f"KKT system condition {cond:.2e} exceeds {COND_CAP:.0e}")
    X = np.linalg.solve(K, rhs)
    residual = float(np.max(np.abs(K @ X - rhs))) if X.size else 0.0
    return SensitivityResult(ds=X[:m], du=X[m:], residual=residual, cond=float(cond))


# ---------------------------------------------------------------------------
# The general cases: generators, local derivatives, modes
#
# unperturbed, single-single, single-s and single-lambda run one pipeline.
# Every minimizer is a generator.  Its local derivative along a covector is
# the smooth sensitivity when a KKT system there is regular, else the
# composed branch estimate.  A mode combines the generators: the first
# alone, all of them, those whose gradient matches the base gradient
# (selection), or the Caratheodory supports of the base gradient (hull).
# ---------------------------------------------------------------------------


class _Generator:
    """Minimizer k, given by its point context, as a generator of a general
    case; the smooth sensitivity at each multiplier vertex is computed
    once.  Its gradient is grad_x f in the unperturbed case, else the
    Lagrangian gradient at the first multiplier vertex."""

    def __init__(self, ctx, k, case, flavor, branch_cap):
        self.ctx, self.k, self.case = ctx, k, case
        self.flavor, self.branch_cap = flavor, branch_cap
        self._sens = {}

    def sensitivity(self, j):
        """The SensitivityResult at vertex j, or the DegeneracyError refusing it."""
        if j not in self._sens:
            try:
                self._sens[j] = sensitivity_system(self.ctx.problem, self.ctx.kkt(j))
            except DegeneracyError as exc:
                self._sens[j] = exc
        return self._sens[j]

    def tangent(self, js):
        """The sensitivity at the first regular vertex among js, or None."""
        for j in js:
            sens = self.sensitivity(j)
            if isinstance(sens, SensitivityResult):
                return sens
        return None

    @cached_property
    def lag0(self):
        """Lagrangian blocks at u = 0, i.e. the objective's; a zero
        multiplier vertex's KKT point already holds them."""
        ctx = self.ctx
        for j, u in enumerate(ctx.mult.vertices):
            if not np.any(u):
                return ctx.kkt(j).lag
        return differentiate(ctx.problem, ctx.x, ctx.y, np.zeros(ctx.problem.p))

    @cached_property
    def gradient(self) -> np.ndarray:
        if self.case == "unperturbed":
            return self.ctx.problem.grad_x_f(self.ctx.x, self.ctx.y)
        return self.ctx.kkt(0).lag.grad_x_L


def _compose_pieces(gen, j, xstar, js, tag):
    """Pieces of  Lxx x* + zeta_x + D<zeta_y + Lyx x*, s>  where zeta runs
    over the multiplier-map branch images at input covector gx x*, at
    multiplier vertex j, and s is the solution map realized at the
    vertices js.

    With a solution tangent (from the first regular KKT system among js)
    the inner term is affine in zeta; otherwise the zero-covector branch
    family at each vertex of js is chained in product space with the
    linking equality that the inner covector match -(zeta_y + Lyx x*).
    """
    ctx = gen.ctx
    kkt = ctx.kkt(j)
    lag, n = kkt.lag, ctx.problem.n
    ustar_in = lag.gx @ xstar if ctx.problem.p else np.zeros(0)
    fam = branch_family(ctx.problem, kkt, ustar_in, gen.flavor, gen.branch_cap)
    M = ctx.map_matrix(j)
    base = lag.Lxx @ xstar
    v_const = lag.Lyx @ xstar
    sens = gen.tangent(js)
    if sens is not None:
        A = M[:n] + sens.ds.T @ M[n:]
        off = base + sens.ds.T @ v_const
        return [Piece(br.poly, A, off, f"{tag}[{br.label}]") for br in fam.branches]
    pieces = []
    for br in fam.branches:
        inner = [(ctx.map_matrix(j2), ctx.family0(j2, gen.flavor, gen.branch_cap)) for j2 in js]
        pieces.extend(chain_pieces(br, M, inner, v_const, base,
                                   lambda k2, br2: f"{tag}[{br.label}|u{k2}:{br2.label}]"))
    return pieces


def _local_derivative(gen, w, hyps=None, frozen=None):
    """(estimate, smooth): the derivative of one generator along w.

    Smooth: for the unperturbed case  Lxx w + ds^T (Lyx w)  with u = 0
    blocks and the tangent of the first regular multiplier vertex; else
    (Lxx + ds^T Lyx + du^T gx) w  at the first vertex.  Otherwise the
    composed estimate: the solution-map coderivative at Lyx w shifted by
    Lxx w (unperturbed), or the multiplier-map branches chained with the
    solution map, over every vertex for single-s.  In hull mode
    (``frozen`` a list) an unperturbed generator without a tangent is
    differentiated with its minimizer frozen and its index is recorded.
    The records of an unperturbed fallback go to ``hyps``.
    """
    ctx, k = gen.ctx, gen.k
    n = ctx.problem.n
    if gen.case == "unperturbed":
        lag0 = gen.lag0
        sens = gen.tangent(range(len(ctx.mult.vertices)))
        if sens is not None:
            tag = "unperturbed-smooth" if frozen is None else f"gen{k}"
            return PolySet.from_point(lag0.Lxx @ w + sens.ds.T @ (lag0.Lyx @ w), tag), True
        if frozen is not None:
            if k not in frozen:
                frozen.append(k)
            return PolySet.from_point(lag0.Lxx @ w, f"gen{k}-frozen"), False
        if ctx.mult.empty:
            residual = kernel.stationarity_residual(ctx.problem, ctx.mult)
            faces = kernel.unimplied_box_faces(ctx.problem, ctx.mult, ctx.tol_act)
            if faces:
                raise HypothesisError(
                    f"minimizer {k} lies on the {faces}, which no row of g implies; box rows "
                    f"get no multipliers, so no u >= 0 meets stationarity there "
                    f"(residual {residual:.3g})"
                )
            raise HypothesisError(
                f"no u >= 0 meets stationarity at minimizer {k} (residual {residual:.3g}); "
                f"MFCQ {'holds' if ctx.mfcq.holds else 'fails'} there"
            )
        hyps.append(
            HypothesisRecord(
                "smooth-solution-branch",
                FAILED,
                "KKT system degenerate at the minimizer; composed estimate used",
            )
        )
        est = solution_coderivative(ctx, lag0.Lyx @ w, gen.flavor, gen.branch_cap)
        hyps.extend(est.hypotheses)
        return est.result.map(np.eye(n), lag0.Lxx @ w), False
    if gen.case == "single-s":
        js = range(len(ctx.mult.vertices))
        tags = [f"sS[y{k}u{j}]" for j in js]
    else:
        sens = gen.sensitivity(0)
        if isinstance(sens, SensitivityResult):
            lag = ctx.kkt(0).lag
            H = lag.Lxx + sens.ds.T @ lag.Lyx + (sens.du.T @ lag.gx if ctx.problem.p else 0.0)
            tag = "single-single" if gen.case == "single-single" else f"sl[y{k}]"
            return PolySet.from_point(H @ w, tag), True
        js, tags = [0], ["ss" if gen.case == "single-single" else f"sl[y{k}]"]
    pieces = []
    for j, tag in zip(js, tags):
        pieces.extend(_compose_pieces(gen, j, w, js, tag))
    return PolySet(n, pieces), False


def _combine(case, gens, query, mode, hyps, under) -> HessianEstimate:
    """Combine the generators' local derivatives at xstar by ``mode``:
    "single" (the first generator), "union" (all), "selection" (those
    whose gradient matches the base gradient) or "hull" (supports of the
    base gradient among the generator gradients, weighted)."""
    xund, xstar = _fvec(query.xund), _fvec(query.xstar)
    n = gens[0].ctx.problem.n
    supports = None
    equality = False
    if mode == "hull":
        frozen = []
        gen_map = FiniteGeneratorMap(
            generators=[g.gradient for g in gens],
            coderiv=lambda k, w: _local_derivative(gens[k], _fvec(w), frozen=frozen)[0],
            target_dim=n,
        )
        est = hull_coderivative(gen_map, xund, xstar)
        hyps.extend(est.hypotheses)
        hyps.append(
            HypothesisRecord(
                "generator-stability",
                ASSUMED,
                "minimizer branches treated as a locally fixed generator family",
            )
        )
        if frozen:
            hyps.append(
                HypothesisRecord(
                    "frozen-minimizer-generators",
                    ASSUMED,
                    f"no solution tangent at minimizers {frozen}; "
                    "their generators were differentiated with the minimizer frozen",
                )
            )
        result = est.result
        supports = sorted({pc.provenance.split("|")[0] for pc in result.pieces})
        theorem = f"{case}-hull"
    elif mode == "single":
        result, equality = _local_derivative(gens[0], xstar, hyps)
        theorem = f"{case}-smooth" if equality else f"{case}-composed"
    else:
        chosen = gens
        theorem = f"{case}-composed"
        if mode == "selection":
            chosen = _selected(gens, xund)
            if not chosen:
                kind = "objective" if case == "unperturbed" else "Lagrangian"
                raise HypothesisError(
                    f"base gradient matches no minimizer's {kind} gradient; "
                    "use the hull mode for interior base gradients"
                )
            hyps.append(
                HypothesisRecord(
                    "gradient-selection",
                    VERIFIED,
                    f"{len(chosen)} of {len(gens)} minimizers match the base gradient",
                )
            )
            theorem = f"{case}-selection"
        result = PolySet.empty(n)
        for g in chosen:
            part, smooth = _local_derivative(g, xstar, hyps)
            if not smooth and case == "single-lambda":
                hyps.append(
                    HypothesisRecord(
                        f"kkt-system-regular[y{g.k}]",
                        FAILED,
                        "composed estimate used at this minimizer",
                    )
                )
            result = result.union(part)
    return HessianEstimate(
        query=query,
        case=case,
        theorem=theorem,
        result=result,
        hypotheses=hyps,
        equality=equality,
        under_enumerated=under,
        supports=supports,
    )


def _selected(gens, xund):
    return [g for g in gens if float(np.max(np.abs(g.gradient - xund))) <= SELECTION_TOL]


#: Mode names the public entry points accept, by case, with the pipeline
#: mode each stands for.
_MODE_NAMES = {
    "unperturbed": ("unperturbed sub-mode",
                    {"single": "single", "multi": "selection", "caratheodory": "hull"}),
    "single-lambda": ("single-lambda mode", {"selection": "selection", "caratheodory": "hull"}),
}


def _general(problem, query, case, ctxs, under, mode="auto", flavor="M",
             branch_cap=DEFAULT_BRANCH_CAP) -> HessianEstimate:
    """One general case: its generators (the point contexts ``ctxs`` of
    the minimizers, ``under`` whether they may be incomplete), the case's
    own hypotheses, and the mode that combines the generators ("auto"
    picks it)."""
    if case == "unperturbed" and not problem.constraints_x_free():
        raise CaseRoutingError("unperturbed case requires constraints free of x")
    if not ctxs:
        raise HypothesisError("no minimizer available at xbar")
    gens = [_Generator(ctx, k, case, flavor, branch_cap) for k, ctx in enumerate(ctxs)]
    hyps = []
    if case == "unperturbed":
        hyps.append(
            HypothesisRecord(
                "minimizer-enumeration",
                ASSUMED if under else VERIFIED,
                f"{len(ctxs)} minimizer(s), "
                + ("a finite sample, may be incomplete" if under else "exact/pinned"),
            )
        )
    elif case in ("single-single", "single-s"):
        hyps.append(
            HypothesisRecord(
                "solution-single-valued",
                VERIFIED if len(ctxs) == 1 else FAILED,
                f"{len(ctxs)} minimizer(s) found (pointwise check)",
            )
        )
    if case == "single-single":
        mult = ctxs[0].mult
        if mult.empty:
            raise HypothesisError("no multiplier exists at (xbar, ybar)")
        hyps.append(
            HypothesisRecord(
                "multiplier-single-valued",
                VERIFIED if mult.is_singleton() else FAILED,
                f"{len(mult.vertices)} multiplier vertex(es)",
            )
        )
        sens = gens[0].sensitivity(0)
        if isinstance(sens, SensitivityResult):
            hyps.append(
                HypothesisRecord(
                    "kkt-system-regular",
                    VERIFIED,
                    f"condition {sens.cond:.2e}, residual {sens.residual:.2e}",
                )
            )
        else:
            hyps.append(HypothesisRecord("kkt-system-regular", FAILED, str(sens)))
            hyps.append(HypothesisRecord("mfcq", VERIFIED if ctxs[0].mfcq.holds else FAILED))
    for k, ctx in enumerate(ctxs if case == "single-s" else ()):
        hyps.append(HypothesisRecord(f"mfcq[y{k}]", VERIFIED if ctx.mfcq.holds else FAILED))
        if not ctx.mfcq.holds:
            raise HypothesisError("MFCQ fails at a minimizer")
        if ctx.mult.empty:
            raise HypothesisError("no multiplier exists at a minimizer")
        if not ctx.mult.bounded:
            hyps.append(HypothesisRecord(f"bounded-multipliers[y{k}]", FAILED))
        if not ctx.mult.is_singleton():
            hyps.append(
                HypothesisRecord(
                    f"multiplier-vertex-union[y{k}]",
                    ASSUMED,
                    f"union over {len(ctx.mult.vertices)} polytope vertices only",
                )
            )
    if case == "single-lambda":
        for k, ctx in enumerate(ctxs):
            if ctx.mult.empty:
                raise HypothesisError("no multiplier exists at a minimizer")
            if not ctx.mult.is_singleton():
                hyps.append(
                    HypothesisRecord(
                        f"multiplier-single-valued[y{k}]",
                        FAILED,
                        f"{len(ctx.mult.vertices)} vertices; first vertex used",
                    )
                )
        cc = verify_concave_convex(problem)
        hyps.append(
            HypothesisRecord("concave-convex-shape", SHAPE_STATUS[cc], f"shape check: {cc}")
        )
    if case in ("single-single", "single-s"):
        mode = "single" if case == "single-single" else "union"
    elif mode == "auto":
        if case == "unperturbed" and len(gens) == 1:
            mode = "single"
        else:
            mode = "selection" if _selected(gens, _fvec(query.xund)) else "hull"
    else:
        label, names = _MODE_NAMES[case]
        if mode not in names:
            raise ValueError(f"unknown {label} {mode!r}")
        mode = names[mode]
    return _combine(case, gens, query, mode, hyps, under)


def _contexts(problem, query, minimizers=None):
    return point_contexts(problem, _fvec(query.xbar), minimizers)


def hessian_unperturbed(
    problem: ParametricProblem,
    query: HessianQuery,
    minimizers=None,
    smode: str = "auto",
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> HessianEstimate:
    """Second-order estimate when the feasible set does not move with x.

    Sub-modes: "single" (one minimizer, smooth or composed), "multi"
    (union over the minimizers whose objective gradient matches the base
    gradient), "caratheodory" (hull treatment with supports of at most
    n+1 minimizers, for base gradients strictly inside the hull).
    """
    return _general(problem, query, "unperturbed", *_contexts(problem, query, minimizers), smode,
                    flavor, branch_cap)


def hessian_single_single(
    problem: ParametricProblem,
    query: HessianQuery,
    minimizers=None,
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> HessianEstimate:
    """Unique minimizer and multiplier: the generalized Hessian is the
    single matrix  Lxx + ds^T Lyx + du^T gx  applied to xstar whenever
    the KKT system is regular; otherwise the composed branch estimate
    with the same multiplier."""
    return _general(problem, query, "single-single", *_contexts(problem, query, minimizers),
                    "auto", flavor, branch_cap)


def hessian_single_s(
    problem: ParametricProblem,
    query: HessianQuery,
    minimizers=None,
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> HessianEstimate:
    """Single-valued solution map with a multiplier polytope: union over
    multiplier vertices of the composed branch estimates, with the inner
    derivative realized by a solution tangent when one exists and by the
    zero-covector branch families otherwise."""
    return _general(problem, query, "single-s", *_contexts(problem, query, minimizers), "auto",
                    flavor, branch_cap)


def hessian_single_lambda(
    problem: ParametricProblem,
    query: HessianQuery,
    minimizers=None,
    mode: str = "auto",
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> HessianEstimate:
    """Multiple minimizers with unique multipliers.

    Selection mode: estimates from the minimizers whose Lagrangian
    x-gradient matches the base gradient.  Hull mode ("caratheodory"):
    the base gradient is reproduced as convex combinations of at most
    n+1 Lagrangian gradients and the per-minimizer derivatives are
    Minkowski-summed with the combination weights.
    """
    return _general(problem, query, "single-lambda", *_contexts(problem, query, minimizers), mode,
                    flavor, branch_cap)


# ---------------------------------------------------------------------------
# Exact linear-program cases
#
# lp-lhs and lp-lhs-rhs run in Fractions on the constant blocks of their
# form.  An _LpProgram holds those blocks and what queries on one program
# share; a problem keeps its program, the public entry points build one
# per call.
# ---------------------------------------------------------------------------


def _frac(v) -> np.ndarray:
    """v as an object array of Fractions, at least one-dimensional; an
    object array that holds only Fractions is returned as it is."""
    arr = np.atleast_1d(np.asarray(v, dtype=object))
    if all(isinstance(x, Fraction) for x in arr.flat):
        return arr
    return np.array([Fraction(x) for x in arr.flat], dtype=object).reshape(arr.shape)


def _exact_estimate(query, case, result, hyps, under=False) -> HessianEstimate:
    return HessianEstimate(query=query, case=case, theorem=case, result=result, hypotheses=hyps,
                           exact=True, under_enumerated=under)


def lp_lhs_hessian(
    A,
    b,
    query: HessianQuery,
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> HessianEstimate:
    """Exact second-order estimate for  phi(x) = min { x . y : A y <= b }.

    The base gradient is a minimizer of the program at xbar; the query is
    checked by exact rational feasibility and multiplier enumeration, and
    the estimate is the union over multiplier vertices of the solution-map
    slices with the constant blocks Lxy = I, gx = 0, Lyy = 0, gy = A:
    { a : (a, c) in branches, A^T c = -xstar }.
    """
    A = _frac(A)
    if A.ndim != 2:
        raise ValueError("matrix expected")
    b = _frac(b)
    if len(b) != A.shape[0]:
        raise ValueError("query/length mismatch with the program data")
    return _lp_lhs(_lp_lhs_constants(A, b), query, flavor, branch_cap)


class _LpProgram:
    """The constant data of one exact LP form and what its queries share.

    ``A`` and ``v`` are the program data (b for lp-lhs, the cost for
    lp-lhs-rhs), ``M`` the map matrix of the slices for the constant
    blocks Lxy, gx, Lyy = 0 and gy = A, and ``zero_p``, ``zero_m`` its
    zero vectors.  A zero-covector branch family depends only on A and
    its partition, so each is kept per (partition, flavor, branch cap).
    The multiplier set of an inactive set is kept at the last right-hand
    side it was asked at.  Both memos are bounded by the partitions and
    inactive sets the queries visit; the program lives as long as its
    problem, so only callers that ask one problem many queries reuse them.
    """

    def __init__(self, A, v, Lxy, gx):
        p, m = A.shape
        M = coderivative_map_matrix(_frac(Lxy), _frac(gx), _frac(np.zeros((m, m))), A)
        self.A, self.v = A, v
        self.M, self.zero_p, self.zero_m = _read_only(M, _frac(np.zeros(p)), _frac(np.zeros(m)))
        self._families, self._mults = {}, {}

    def family(self, partition, flavor, branch_cap):
        """The zero-covector branch family at ``partition``; a
        BranchCapError propagates each time and is never kept."""
        key = (partition, flavor, branch_cap)
        if key not in self._families:
            self._families[key] = build_branch_family(self.A, partition, self.zero_p, flavor,
                                                      branch_cap)
        return self._families[key]

    def multiplier_vertices(self, fy, inactive):
        """The V-form of  { u >= 0 : A^T u = -fy, u_i = 0 on ``inactive`` },
        built again when ``fy`` differs from the last one of ``inactive``."""
        key, rhs = tuple(inactive), tuple(fy)
        hit = self._mults.get(key)
        if hit is None or hit[0] != rhs:
            vf = kernel.multiplier_polyhedron(self.A, fy, inactive).vertices()
            hit = self._mults[key] = (rhs, vf)
        return hit[1]


def _lp_lhs_constants(A, b):
    """The ``_LpProgram`` of min { x . y : A y <= b }: Lxy = I, gx = 0."""
    return _LpProgram(A, b, np.eye(A.shape[1]), np.zeros(A.shape))


@per_problem
def _lp_lhs_data(problem: ParametricProblem):
    """``_lp_lhs_constants`` of ``lp_cost_parametric_data``, built once per
    problem; None when the problem is not of that form."""
    data = lp_cost_parametric_data(problem)
    return None if data is None else _lp_lhs_constants(*data)


def _lp_lhs(lp, query, flavor, branch_cap) -> HessianEstimate:
    """``lp_lhs_hessian`` on the ``_lp_lhs_constants`` of the program."""
    A, b = lp.A, lp.v
    p, m = A.shape
    xbar = _frac(query.xbar)
    ybar = _frac(query.xund)
    xstar = _frac(query.xstar)
    if len(xbar) != m:
        raise ValueError("query/length mismatch with the program data")
    g = A @ ybar - b
    if any(gi > 0 for gi in g):
        raise HypothesisError("base gradient is not feasible for the program (exact)")
    inactive = [i for i in range(p) if g[i] < 0]
    vf = lp.multiplier_vertices(xbar, inactive)
    if vf.empty:
        raise HypothesisError(
            "no multiplier certifies optimality: the base gradient is not a "
            "minimizer at xbar (exact check)"
        )
    hyps = [
        HypothesisRecord("minimizer-exact", VERIFIED, "rational KKT certificate"),
    ]
    under = False
    if vf.rays:
        under = True
        hyps.append(
            HypothesisRecord(
                "multiplier-vertex-union", ASSUMED, "unbounded multiplier set; vertices only"
            )
        )
    pieces = []
    for j, u in enumerate(vf.vertices):
        fam = lp.family(partition_of(g, u, 0), flavor, branch_cap)
        pieces.extend(slice_pieces(fam, lp.M, xstar, lp.zero_m,
                                   lambda br: f"lp-lhs[u{j}|{br.label}]"))
    return _exact_estimate(query, "lp-lhs", PolySet(m, pieces), hyps, under)


def lp_lhs_rhs_hessian(
    A,
    query: HessianQuery,
    cost=None,
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> HessianEstimate:
    """Exact second-order estimate for  phi(x) = min { c . y : A y <= x }.

    The base gradient pins the multiplier u = -xund.  Since stationarity
    A^T u = -c determines the cost uniquely from the multiplier, ``cost``
    may be omitted, in which case c := A^T xund is used; supplying it adds
    an honest consistency check against the problem data.  If -xund is
    not a valid multiplier, or no minimizer is complementary to it, the
    estimate is empty and the failure is recorded as a diagnostic rather
    than raised.  The estimate chains the multiplier-map branches at each
    minimizer of the complementary face with the solution map, for the
    constant blocks Lxy = 0, gx = -I, Lyy = 0, gy = A.
    """
    A = _frac(A)
    if A.ndim != 2:
        raise ValueError("matrix expected")
    return _lp_lhs_rhs(_lp_lhs_rhs_constants(A, cost), query, flavor, branch_cap)


def _lp_lhs_rhs_constants(A, cost):
    """The ``_LpProgram`` of min { c . y : A y <= x }: Lxy = 0, gx = -I."""
    return _LpProgram(A, cost, np.zeros(A.shape), -np.eye(A.shape[0]))


@per_problem
def _lp_lhs_rhs_data(problem: ParametricProblem):
    """``_lp_lhs_rhs_constants`` of ``lp_rhs_parametric_data``, built once
    per problem; None when the problem is not of that form."""
    data = lp_rhs_parametric_data(problem)
    return None if data is None else _lp_lhs_rhs_constants(*data)


def _lp_lhs_rhs(lp, query, flavor, branch_cap) -> HessianEstimate:
    """``lp_lhs_rhs_hessian`` on the ``_lp_lhs_rhs_constants`` of the program."""
    A, cost = lp.A, lp.v
    p, m = A.shape
    xbar = _frac(query.xbar)
    xstar = _frac(query.xstar)
    u = -_frac(query.xund)
    n = p
    if len(xbar) != p:
        raise ValueError("parameter length must match the constraint count")
    inferred = cost is None
    cost_eff = -(A.T @ u) if inferred else _frac(cost)
    if len(cost_eff) != m:
        raise ValueError("cost length must match the variable count")
    hyps = []
    stat = A.T @ u + cost_eff
    if any(ui < 0 for ui in u) or any(si != 0 for si in stat):
        hyps.append(
            HypothesisRecord(
                "base-covector-multiplier",
                FAILED,
                "-xund is not a nonnegative solution of A^T u = -cost; "
                "the graph point is empty",
            )
        )
        return _exact_estimate(query, "lp-lhs-rhs", PolySet.empty(n), hyps)
    hyps.append(
        HypothesisRecord(
            "base-covector-multiplier",
            VERIFIED,
            "exact"
            + ("; cost inferred from stationarity A^T u = -c" if inferred else ""),
        )
    )
    supp = [i for i in range(p) if u[i] > 0]
    face = Polyhedron(m, C=A, d=xbar, C_eq=A[supp] if supp else None,
                      d_eq=xbar[supp] if supp else None)
    vf = face.vertices()
    ys = kernel._face_sample(list(vf.vertices))
    if len(ys) > 1:
        hyps.append(
            HypothesisRecord(
                "complementary-face",
                ASSUMED,
                f"{len(vf.vertices)} face vertices plus the centroid enumerated",
            )
        )
    if not ys and vf.anchor is not None:
        ys = [vf.anchor]
        hyps.append(
            HypothesisRecord(
                "complementary-face", ASSUMED, "non-pointed face; anchor point only"
            )
        )
    under = bool(vf.rays)
    if not ys:
        hyps.append(
            HypothesisRecord(
                "complementary-face",
                FAILED,
                "no minimizer is complementary to the base covector; "
                "the graph point is empty",
            )
        )
        return _exact_estimate(query, "lp-lhs-rhs", PolySet.empty(n), hyps)
    pieces = []
    for k, y in enumerate(ys):
        g = A @ y - xbar
        fam1 = build_branch_family(A, partition_of(g, u, 0), -xstar, flavor, branch_cap)
        # inner families: one per multiplier vertex at this minimizer
        inactive = [i for i in range(p) if g[i] < 0]
        uvf = lp.multiplier_vertices(cost_eff, inactive)
        for j, u2 in enumerate(uvf.vertices):
            fam2 = lp.family(partition_of(g, u2, 0), flavor, branch_cap)
            for br1 in fam1.branches:
                pieces.extend(chain_pieces(
                    br1, lp.M, [(lp.M, fam2)], lp.zero_m, lp.zero_p,
                    lambda _, br2: f"lp-lhs-rhs[y{k}u{j}|{br1.label}|{br2.label}]"))
    return _exact_estimate(query, "lp-lhs-rhs", PolySet(n, pieces), hyps, under)


# ---------------------------------------------------------------------------
# Structural detection and dispatch
# ---------------------------------------------------------------------------


def _const_val(e):
    return e.value if isinstance(e, Const) else None


def _const_matrix(rows):
    """Rows of derivative expressions as Fractions; None unless all are constant."""
    vals = [[_const_val(e) for e in row] for row in rows]
    if any(v is None for row in vals for v in row):
        return None
    return [[Fraction(v) for v in row] for row in vals]


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@per_problem
def lp_cost_parametric_data(problem: ParametricProblem):
    """(A, b) when the problem is exactly  min { x . y : A y <= b }, as
    read-only arrays; a structure probe, run once per problem."""
    if problem.n != problem.m or not problem.constraints_x_free():
        return None
    tab = problem._dtable()
    for j in range(problem.m):
        if tab["fy"][j].key() != Var("x", j).key():
            return None
        if tab["fx"][j].key() != Var("y", j).key():
            return None
    A = _const_matrix(tab["gy"])
    if A is None:
        return None
    zx = [Fraction(0)] * problem.n
    zy = [Fraction(0)] * problem.m
    b = [-Fraction(v) for v in problem.eval_g_exact(zx, zy)]
    return _read_only(np.array(A, dtype=object), np.array(b, dtype=object))


@per_problem
def lp_rhs_parametric_data(problem: ParametricProblem):
    """(A, cost) when the problem is exactly  min { c . y : A y <= x }, as
    read-only arrays; a structure probe, run once per problem.

    Only the fixed-cost objective qualifies: the branch pieces for this
    case are derived with an x-free objective (zero Lxy block), so a
    parameter-coupled cost must go through the general machinery.
    """
    if problem.p != problem.n or problem.p == 0:
        return None
    tab = problem._dtable()
    gx, A = _const_matrix(tab["gx"]), _const_matrix(tab["gy"])
    minus_eye = [[-1 if i == j else 0 for j in range(problem.n)] for i in range(problem.p)]
    if gx != minus_eye or A is None:
        return None
    zx = [Fraction(0)] * problem.n
    zy = [Fraction(0)] * problem.m
    if any(Fraction(v) != 0 for v in problem.eval_g_exact(zx, zy)):
        return None
    if not all(isinstance(e, Const) and e.value == 0 for e in tab["fx"]):
        return None
    cost = _const_matrix([tab["fy"]])
    if cost is None or Fraction(problem.eval_f(zx, zy)) != 0:
        return None
    return _read_only(np.array(A, dtype=object), np.array(cost[0], dtype=object))


def route(problem: ParametricProblem, query: HessianQuery | None = None):
    """Pick a case from problem structure; returns (case, info).

    The info dict carries anything expensive that was computed along the
    way (a point context per minimizer of the solve, holding its
    multiplier set, and the multiplier counts) so ``compute`` can hand it
    to the first-order precheck and the case.
    """
    if lp_cost_parametric_data(problem) is not None:
        return "lp-lhs", {}
    if lp_rhs_parametric_data(problem) is not None:
        return "lp-lhs-rhs", {}
    if problem.constraints_x_free():
        return "unperturbed", {}
    if query is None:
        return "single-s", {}
    res = kernel.solve_value(problem, _fvec(query.xbar))
    ctxs = [PointContext(problem, res.x, y) for y in res.minimizers]
    counts = [0 if ctx.mult.empty else len(ctx.mult.vertices) for ctx in ctxs]
    info = {"contexts": ctxs, "under": res.under_enumerated, "multiplier_counts": counts}
    if len(ctxs) == 1 and not res.non_singleton:
        return ("single-single" if counts[0] == 1 else "single-s"), info
    if all(c == 1 for c in counts):
        return "single-lambda", info
    info["doubly_set_valued"] = True
    return "single-s", info


def compute(
    problem: ParametricProblem,
    query: HessianQuery,
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> HessianEstimate:
    """Run a second-order query end to end.

    Routes 'auto' cases by structure, verifies that the base gradient
    lies in the case-appropriate first-order estimate (skipped for the
    exact LP forms, which carry their own rational optimality checks),
    and dispatches.
    """
    case = query.case
    info = {}
    if case == "auto":
        case, info = route(problem, query)
    if case == "lp-lhs":
        data = _lp_lhs_data(problem)
        if data is None:
            raise CaseRoutingError(
                "problem is not of the cost-parametric LP form min{x.y : Ay <= b}"
            )
        return _lp_lhs(data, query, flavor, branch_cap)
    if case == "lp-lhs-rhs":
        data = _lp_lhs_rhs_data(problem)
        if data is None:
            raise CaseRoutingError(
                "problem is not of the RHS-parametric LP form min{c.y : Ay <= x}"
            )
        return _lp_lhs_rhs(data, query, flavor, branch_cap)

    ctxs, under = info.get("contexts"), info.get("under")
    if ctxs is None:
        ctxs, under = _contexts(problem, query)
    fo = firstorder.auto_estimate(problem, _fvec(query.xbar), contexts=ctxs)
    verdict = fo.member(_fvec(query.xund), MEMBERSHIP_TOL)
    if verdict.status == "outside":
        causes = [h.detail for h in fo.hypotheses
                  if h.name == "kkt-multiplier-exists" and h.status == FAILED]
        if causes and fo.result.is_empty():
            # no base gradient is at fault: the estimate holds none
            raise HypothesisError(
                f"the first-order estimate ({fo.formula}) is empty: {'; '.join(causes)}")
        raise HypothesisError(
            f"base gradient is not in the first-order estimate "
            f"({fo.formula}); distance at least {verdict.distance:.3e}"
        )
    est = _general(problem, query, case, ctxs, under, "auto", flavor, branch_cap)
    if info.get("doubly_set_valued"):
        est.hypotheses.append(
            HypothesisRecord(
                "solution-single-valued",
                FAILED,
                "both maps are set-valued; union over all minimizers used",
            )
        )
    est.hypotheses.insert(0, HypothesisRecord(
        "base-gradient-membership",
        VERIFIED,
        f"{verdict.status} of the {fo.formula} estimate",
    ))
    return est
