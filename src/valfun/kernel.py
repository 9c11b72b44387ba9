"""Inner-problem solves and KKT machinery.

Two solve paths:

* exact path for problems affine in y: the feasible set is materialized
  as { y : A y <= b } with rational data at the given parameter (once per
  problem when no constraint mentions x), vertices are enumerated
  exactly, and the minimum is taken over them;
* heuristic path otherwise: SLSQP multistart (``fmin_slsqp``) over the
  problem's y_box, each local solve with g <= 0 as one vector constraint
  with its y-Jacobian, from compiled blocks with x bound once per solve.

The heuristic path can miss global minimizers; results carry an
``under_enumerated`` flag so downstream estimates can report that unions
over minimizers may be incomplete.

Inner-LP unboundedness is read off the exact rays of the feasible set,
and MFCQ off the cached vertex/ray decomposition of { d : G d <= -1 }.
scipy is imported only on first use: for SLSQP multistart, and for the
MFCQ linear program when that set is too large to enumerate
(``setcalc.MAX_VFORM_SUBSETS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    InfeasibleParameterError,
    ProblemFormatError,
    UnboundedProblemError,
)
from .model import DEFAULT_TOL_ACT, ParametricProblem, per_problem
from .setcalc import Polyhedron, _check_status, linprog, matrix_rank_generic

VALUE_TIE_TOL = 1e-7
MINIMIZER_DEDUP_TOL = 1e-6
PIN_MATCH_TOL = 1e-12
MAX_STARTS = 64


def minimize(*args, **kwargs):
    """``scipy.optimize.fmin_slsqp``, imported on first use: the SLSQP
    routine of ``scipy.optimize.minimize`` without its dispatch and its
    standardisation of bounds and constraints."""
    from scipy.optimize import fmin_slsqp

    return fmin_slsqp(*args, **kwargs)


# ---------------------------------------------------------------------------
# LP materialization
# ---------------------------------------------------------------------------


@dataclass
class LpData:
    """The inner problem at a fixed parameter, in the form
    min c^T y + c0  s.t.  A y <= b, with exact rational entries."""

    A: list[list[Fraction]]
    b: list[Fraction]
    c: list[Fraction]
    c0: Fraction


def materialize_lp(problem: ParametricProblem, x) -> LpData:
    """Exact LP data at parameter x (requires f, g affine in y).

    x is converted entrywise to Fractions (exact for float input), so the
    returned coefficients are exact rationals whenever the expressions
    have rational constants.
    """
    if not problem.affine_in_y():
        raise ProblemFormatError("problem is not affine in y")
    xq = [Fraction(v) if not isinstance(v, Fraction) else v for v in np.atleast_1d(x)]
    y0 = [Fraction(0)] * problem.m
    m = problem.m
    c = [Fraction(v) for v in problem.eval_block("fy", xq, y0)]
    c0 = Fraction(problem.eval_f(xq, y0))
    gy = [Fraction(v) for v in problem.eval_block("gy", xq, y0)]
    A = [gy[i * m:(i + 1) * m] for i in range(problem.p)]
    b = [-Fraction(v) for v in problem.eval_g_exact(xq, y0)]
    return LpData(A=A, b=b, c=c, c0=c0)


# ---------------------------------------------------------------------------
# solve_value
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    x: np.ndarray
    value: float
    minimizers: list[np.ndarray]
    certificate: str  # "user-pinned" | "lp-exact" | "heuristic-multistart"
    non_singleton: bool = False
    under_enumerated: bool = False
    value_exact: Fraction | None = None
    minimizers_exact: list | None = None


def solve_value(problem: ParametricProblem, x, rational: bool = False) -> SolveResult:
    """Optimal value and minimizer sample of the inner problem at x.

    Pinned points win over both solve paths; the exact LP path applies to
    problems affine in y; everything else needs a y_box for multistart.
    With ``rational=True`` the LP path also reports exact value and
    minimizers (it is an error to ask for rational results off that path).
    """
    x_raw = np.atleast_1d(np.asarray(x, dtype=object)).tolist()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # a rational request needs the certified LP path, not pinned hints
    pinned = None if rational else _pinned_minimizers(problem, x)
    if pinned is not None:
        values = [problem.eval_f(x, y) for y in pinned]
        best = min(values)
        mins = _dedup_points(
            [y for y, v in zip(pinned, values) if v <= best + VALUE_TIE_TOL]
        )
        return SolveResult(
            x=x,
            value=float(best),
            minimizers=mins,
            certificate="user-pinned",
            non_singleton=len(mins) > 1,
        )
    if problem.affine_in_y():
        return _solve_lp_exact(problem, x, rational, x_raw=x_raw)
    if rational:
        raise ProblemFormatError("rational solve is only available for problems affine in y")
    return _solve_multistart(problem, x)


def _pinned_minimizers(problem, x):
    for name in sorted(problem.points):
        pt = problem.points[name]
        if pt.minimizers and np.max(np.abs(pt.x - x), initial=0.0) <= PIN_MATCH_TOL:
            return [np.asarray(v, float) for v in pt.minimizers]
    return None


def _solve_lp_exact(problem, x, rational, x_raw=None):
    # x_raw keeps Fraction-valued input exact; x is its float view
    lp = materialize_lp(problem, x if x_raw is None else x_raw)
    m, p = problem.m, problem.p
    if p == 0:
        if any(ci != 0 for ci in lp.c):
            raise UnboundedProblemError("unconstrained linear objective")
        y = np.zeros(m)
        return SolveResult(
            x=x,
            value=float(lp.c0),
            minimizers=[y],
            certificate="lp-exact",
            non_singleton=m > 0,
            value_exact=Fraction(lp.c0) if rational else None,
            minimizers_exact=[[Fraction(0)] * m] if rational else None,
        )
    poly, pointed = (problem._memo(_feasible_set, lambda: _feasible_set(lp))
                     if problem.constraints_x_free() else _feasible_set(lp))
    if not pointed:
        # no vertex enumeration; fall back to multistart
        if problem.y_box is None:
            raise UnboundedProblemError(
                "feasible set has no vertices and no y_box is given"
            )
        return _solve_multistart(problem, x)
    vf = poly.vertices()
    if not vf.vertices:
        raise InfeasibleParameterError(
            "no feasible point at this parameter; the model assumes a nonempty "
            "feasible set wherever the value function is queried"
        )
    # the set is pointed, so the LP is unbounded below iff an extreme ray
    # descends; rays and costs are Fractions
    if any(sum(ci * ri for ci, ri in zip(lp.c, r)) < 0 for r in vf.rays):
        raise UnboundedProblemError("inner LP is unbounded below at this parameter")
    values = []
    for v in vf.vertices:
        val = sum(ci * vi for ci, vi in zip(lp.c, v)) + lp.c0
        values.append(val)
    best = min(values)
    arg = [v for v, val in zip(vf.vertices, values) if val == best]
    non_singleton = len(arg) > 1
    mins_exact = [list(v) for v in arg]
    if non_singleton:
        # face interior sample: average of the optimal vertices
        k = len(arg)
        mid = [sum(v[j] for v in arg) / k for j in range(m)]
        mins_exact.append(mid)
    minimizers = [np.array([float(c) for c in v]) for v in mins_exact]
    return SolveResult(
        x=x,
        value=float(best),
        minimizers=minimizers,
        certificate="lp-exact",
        non_singleton=non_singleton,
        value_exact=best if rational else None,
        minimizers_exact=mins_exact if rational else None,
    )


def _feasible_set(lp):
    """{ y : A y <= b } and whether it is pointed (A has full column rank).
    A problem whose constraints never mention x keeps the set of its first
    solve, so one cached decomposition serves every parameter."""
    A, m = np.array(lp.A, dtype=object), len(lp.c)
    return Polyhedron(m, C=A, d=np.array(lp.b, dtype=object)), matrix_rank_generic(A) == m


def _solve_multistart(problem, x):
    if problem.y_box is None:
        raise ProblemFormatError(
            "heuristic solve requires a y_box in the problem file"
        )
    starts = _grid_starts(problem)
    # x is the same for every start: bind it once
    blocks = [problem.float_block(key, x) for key in ("f", "fy", "g", "gy")]
    f, g = blocks[0], blocks[2]
    best, candidates = None, []
    for y0 in starts:
        y = _local_solve(problem, x, y0, blocks)
        if y is None:
            continue
        if problem.p and np.max(g(y.tolist())) > 1e-6:
            continue
        val = f(y.tolist())[0]
        candidates.append((val, y))
        if best is None or val < best:
            best = val
    if best is None:
        raise InfeasibleParameterError(
            "multistart found no feasible point; the model assumes a nonempty "
            "feasible set wherever the value function is queried"
        )
    mins = _dedup_points(
        [y for val, y in candidates if val <= best + VALUE_TIE_TOL]
    )
    return SolveResult(
        x=np.atleast_1d(np.asarray(x, float)),
        value=float(best),
        minimizers=mins,
        certificate="heuristic-multistart",
        non_singleton=len(mins) > 1,
        under_enumerated=True,
    )


@per_problem
def _grid_starts(problem):
    """The multistart grid over the y_box, at most ``MAX_STARTS`` points;
    read-only, as every solve of the problem shares it."""
    m = problem.m
    k = 5 if m <= 2 else (3 if m <= 4 else 2)
    axes = [np.linspace(lo, hi, k) for lo, hi in problem.y_box]
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grid], axis=1)
    if pts.shape[0] > MAX_STARTS:
        rng = np.random.default_rng(0)
        idx = rng.choice(pts.shape[0], size=MAX_STARTS, replace=False)
        idx.sort()
        pts = pts[idx]
    pts.flags.writeable = False
    return [pts[i] for i in range(pts.shape[0])]


def local_solve(problem, x, y0):
    """Single local descent from y0 at parameter x (public for warm starts)."""
    return _local_solve(problem, x, np.asarray(y0, dtype=float))


def _local_solve(problem, x, y0, blocks=None):
    """One SLSQP descent; ``blocks`` are the float blocks f, fy, g, gy
    bound at x (bound here when not given)."""
    f, fy, g, gy = blocks or [problem.float_block(key, x) for key in ("f", "fy", "g", "gy")]
    shape = (problem.p, problem.m)
    # one vector constraint g(x, y) <= 0 with its (p, m) Jacobian
    cons = {
        "f_ieqcons": lambda y: -np.array(g(y.tolist()), float),
        "fprime_ieqcons": lambda y: -np.array(gy(y.tolist()), float).reshape(shape),
    } if problem.p else {}
    bounds = problem.y_box
    try:
        y, _, _, status, _ = minimize(
            lambda y: f(y.tolist())[0],
            np.asarray(y0, float),
            fprime=lambda y: np.array(fy(y.tolist()), float),
            bounds=bounds or (),
            iter=200,
            acc=1e-12,
            iprint=0,
            full_output=1,
            **cons,
        )
    except (ValueError, OverflowError):  # pragma: no cover - solver blowups
        return None
    if status not in (0, 8):  # 8: line search found no descent, still usable
        return None
    if bounds is not None:
        y = np.clip(y, [lo for lo, _ in bounds], [hi for _, hi in bounds])
    return y


def _dedup_points(points, tol: float = MINIMIZER_DEDUP_TOL):
    out = []
    for pt in sorted(points, key=lambda v: tuple(v)):
        if not any(np.max(np.abs(pt - q), initial=0.0) <= tol for q in out):
            out.append(pt)
    return out


# ---------------------------------------------------------------------------
# Multiplier sets
# ---------------------------------------------------------------------------


@dataclass
class MultiplierPolyhedron:
    """The multiplier set at (x, y): stationarity equalities, sign
    constraints, and zero rows for inactive constraints."""

    x: np.ndarray
    y: np.ndarray
    poly: Polyhedron
    vertices: list[np.ndarray] = field(default_factory=list)
    active: tuple[int, ...] = ()
    bounded: bool = True
    feasible: bool = True  # False only for the constraint-free stationarity test

    @property
    def empty(self) -> bool:
        if not self.feasible:
            return True
        return not self.vertices and self.poly.is_empty()

    def is_singleton(self) -> bool:
        return len(self.vertices) == 1 and self.bounded


def multiplier_polyhedron(gy, fy, inactive) -> Polyhedron:
    """{ u >= 0 : gy^T u = -fy, u_i = 0 for i in ``inactive`` }.

    ``gy`` is the p x m constraint Jacobian in y and ``fy`` the objective
    gradient in y.  Object arrays of Fractions give an exact polyhedron,
    anything else a float one.
    """
    gy = np.asarray(gy)
    exact = gy.dtype == object
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    dtype = object if exact else float
    p = gy.shape[0]
    eye = np.full((p, p), zero, dtype=dtype)
    for i in range(p):
        eye[i, i] = one
    return Polyhedron(
        p,
        C=-eye,
        d=np.full(p, zero, dtype=dtype),
        C_eq=np.vstack([gy.T, eye[list(inactive)]]),
        d_eq=np.concatenate(
            [-np.asarray(fy, dtype=dtype), np.full(len(inactive), zero, dtype=dtype)]
        ),
    )


def multipliers(
    problem: ParametricProblem, x, y, tol_act: float = DEFAULT_TOL_ACT
) -> MultiplierPolyhedron:
    """Multiplier polyhedron { u >= 0 : grad_y f + gy^T u = 0, u_i = 0 off
    the active set } with enumerated vertices."""
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    p = problem.p
    if p == 0:
        fy = problem.grad_y_f(x, y)
        feasible = np.max(np.abs(fy), initial=0.0) <= 1e-6
        # dim-0 set: nonempty iff stationarity holds without constraints
        verts = [np.zeros(0)] if feasible else []
        return MultiplierPolyhedron(x=x, y=y, poly=Polyhedron(0), vertices=verts,
                                    active=(), bounded=True, feasible=feasible)
    g = problem.eval_g(x, y)
    active = tuple(i for i in range(p) if g[i] >= -tol_act)
    inactive = [i for i in range(p) if i not in active]
    poly = multiplier_polyhedron(problem.jac_y_g(x, y), problem.grad_y_f(x, y), inactive)
    vf = poly.vertices()
    return MultiplierPolyhedron(
        x=x,
        y=y,
        poly=poly,
        vertices=[np.asarray(v, float) for v in vf.vertices],
        active=active,
        bounded=not vf.rays,
    )


# ---------------------------------------------------------------------------
# Constraint qualifications
# ---------------------------------------------------------------------------


@dataclass
class LicqReport:
    holds: bool
    active: tuple[int, ...]
    rank: int
    min_singular: float


@dataclass
class MfcqReport:
    holds: bool
    active: tuple[int, ...]
    witness: np.ndarray | None


def check_licq(
    problem: ParametricProblem, x, y, tol_act: float = DEFAULT_TOL_ACT
) -> LicqReport:
    """Linear independence of active constraint gradients in y."""
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    g = problem.eval_g(x, y) if problem.p else np.zeros(0)
    active = tuple(i for i in range(problem.p) if g[i] >= -tol_act)
    if not active:
        return LicqReport(holds=True, active=(), rank=0, min_singular=float("inf"))
    rank, min_singular = gradient_rank(problem.jac_y_g(x, y)[list(active)])
    return LicqReport(holds=rank == len(active), active=active, rank=rank,
                      min_singular=min_singular)


def gradient_rank(gy) -> tuple[int, float]:
    """(rank, least singular value) of nonempty gradient rows gy, counting
    the singular values above 1e-9 times max(1, the largest)."""
    sv = np.linalg.svd(gy, compute_uv=False)
    return int(np.sum(sv > 1e-9 * max(1.0, sv[0]))), float(sv[-1])


def check_mfcq(
    problem: ParametricProblem, x, y, tol_act: float = DEFAULT_TOL_ACT
) -> MfcqReport:
    """Existence of a direction d with gy_i . d < 0 for all active i.

    That holds iff Q = { d : gy_A d <= -1 } is nonempty.  Q is decided
    from its vertex/ray decomposition when it fits the enumeration
    budget, otherwise by an LP.  The witness has sup-norm at most 1.
    """
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    g = problem.eval_g(x, y) if problem.p else np.zeros(0)
    active = tuple(i for i in range(problem.p) if g[i] >= -tol_act)
    if not active:
        return MfcqReport(holds=True, active=(), witness=np.zeros(problem.m))
    gy = problem.jac_y_g(x, y)[list(active)]
    Q = Polyhedron(problem.m, C=gy, d=-np.ones(len(active)))
    if Q.enumerable():
        vf = Q.vertices()
        if vf.empty:
            return MfcqReport(holds=False, active=active, witness=None)
        w = np.asarray(vf.vertices[0] if vf.vertices else vf.anchor, float)
        return MfcqReport(holds=True, active=active, witness=w / np.max(np.abs(w)))
    return _mfcq_lp(gy, active, problem.m)


def _mfcq_lp(gy, active, m) -> MfcqReport:
    # max t  s.t.  gy d + t <= 0, |d| <= 1, t <= 1
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([gy, np.ones((len(active), 1))])
    b_ub = np.zeros(len(active))
    bounds = [(-1, 1)] * m + [(None, 1)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    # feasible (d = 0, t = 0) and bounded: only an optimum decides
    _check_status(res, "MFCQ", decided=(0,))
    t = -res.fun
    if t > 1e-9:
        return MfcqReport(holds=True, active=active, witness=res.x[:m])
    return MfcqReport(holds=False, active=active, witness=None)
