"""Inner-problem solves and KKT machinery.

The feasible set is { y : A y <= b }: the g rows and the y_box rows with
rational data at the given parameter, duplicates dropped.  One exact entry
point picks one of two exact algorithms from the data at x:

* the least-vertex scan, for problems affine in y (certificate
  ``lp-exact``) and for f of degree <= 2 with g affine in y, a y_box and
  f_yy negative definite at x (strictly concave f, ``qp-exact``).  The
  feasible set is decomposed exactly (once per problem when no constraint
  mentions x) into conv(points) + cone(rays), the rays holding both signs
  of a lineality basis (Minkowski-Weyl; Rockafellar, Convex Analysis,
  sections 19 and 32).  A linear or concave function bounded below on it
  is least at a point, so the points where f is least are the minimizers;
  a ray along which a linear f drops makes it unbounded below, and one
  along which f stays makes the minimizer set unbounded, sampled by those
  points and flagged ``under_enumerated``.  A set without rows is the
  origin plus the whole space as lineality;
* the KKT walk, for f of degree <= 2 with g affine in y, a y_box and f_yy
  positive semidefinite at x (convex f, ``qp-exact``): the active sets of
  the KKT system are walked in integers, and the first with multipliers
  >= 0 and a feasible point gives a global minimizer.

f_yy is decided exactly by symmetric elimination.  The concave scan and
the walk each solve at most ``MAX_KKT_SYSTEMS`` linear systems; the LP
scan has no budget.  Otherwise (indefinite or singular concave f_yy, f of
higher degree), or past that budget, the heuristic path runs SLSQP
multistart (``fmin_slsqp``) over the problem's y_box, each local solve
with g <= 0 as one vector constraint with its y-Jacobian, from compiled
blocks with x bound once per solve.

The heuristic path can miss global minimizers, and an unbounded
minimizer set has no finite enumeration; results carry an
``under_enumerated`` flag so downstream estimates can report that unions
over minimizers may be incomplete.

MFCQ is read off the multiplier set (bounded when nonempty, Gauvin 1977) or,
when that is empty, off the rays of its recession cone.  scipy is
imported only on first use, for SLSQP multistart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    InfeasibleParameterError,
    ProblemFormatError,
    UnboundedProblemError,
)
from .model import DEFAULT_TOL_ACT, ParametricProblem, degree_in, is_affine_in, per_problem
from .setcalc import Polyhedron, _gauss_int, _int_row
from .setcalc import linprog  # noqa: F401  (unused here; bench/tracer.py hooks kernel.linprog)

VALUE_TIE_TOL = 1e-7
MINIMIZER_DEDUP_TOL = 1e-6
PIN_MATCH_TOL = 1e-12
MAX_STARTS = 64
#: Most linear systems the KKT walk or the concave least-vertex scan solves
#: in one call before it hands the problem to multistart.  For the walk
#: (positive semidefinite f_yy) these are KKT systems: it tries the active
#: sets of up to m of the k rows in turn, as many as C(k, 0) + ... +
#: C(k, m).  This covers every set of m = 3 with 12 rows, and sets of up to
#: 3 rows at m = 4 with 16; a spent budget costs about 0.23 s at m = 8 with
#: 36 rows (Python 3.11 on one core).  For the concave scan (negative
#: definite f_yy) they are the vertex and ray systems of the feasible set,
#: C(k, m) + C(k, m - 1) of them, checked before any is solved: 286 at
#: m = 3 with 12 rows, 2380 (over budget) at m = 4 with 16.  The LP scan
#: has no budget.
MAX_KKT_SYSTEMS = 1024


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
    min y^T Q y / 2 + c^T y + c0  s.t.  A y <= b (the g rows only), with
    exact rational entries; Q = f_yy is zero when f is affine in y."""

    A: list[list[Fraction]]
    b: list[Fraction]
    c: list[Fraction]
    c0: Fraction
    Q: list[list[Fraction]]


@per_problem
def _quadratic_in_y(problem) -> bool:
    """f has degree <= 2 in y and every g degree <= 1."""
    d = degree_in(problem.f, "y")
    return d is not None and d <= 2 and all(is_affine_in(gi, "y") for gi in problem.g)


def materialize_lp(problem: ParametricProblem, x) -> LpData:
    """Exact data at parameter x (requires f of degree <= 2 and g affine
    in y).

    x is converted entrywise to Fractions (exact for float input), so the
    returned coefficients are exact rationals whenever the expressions
    have rational constants.
    """
    if not _quadratic_in_y(problem):
        raise ProblemFormatError("problem is not affine in y, nor quadratic with affine g")
    xq = [Fraction(v) if not isinstance(v, Fraction) else v for v in np.atleast_1d(x)]
    y0 = [Fraction(0)] * problem.m
    m = problem.m
    c = [Fraction(v) for v in problem.eval_block("fy", xq, y0)]
    c0 = Fraction(problem.eval_f(xq, y0))
    gy = [Fraction(v) for v in problem.eval_block("gy", xq, y0)]
    A = [gy[i * m:(i + 1) * m] for i in range(problem.p)]
    b = [-Fraction(v) for v in problem.eval_g_exact(xq, y0)]
    if problem.affine_in_y():
        Q = [[Fraction(0)] * m for _ in range(m)]
    else:
        fyy = [Fraction(v) for v in problem.eval_block("fyy", xq, y0)]
        Q = [fyy[i * m:(i + 1) * m] for i in range(m)]
    return LpData(A=A, b=b, c=c, c0=c0, Q=Q)


# ---------------------------------------------------------------------------
# solve_value
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    x: np.ndarray
    value: float
    minimizers: list[np.ndarray]
    certificate: str  # "user-pinned" | "lp-exact" | "qp-exact" | "heuristic-multistart"
    non_singleton: bool = False
    under_enumerated: bool = False
    value_exact: Fraction | None = None
    minimizers_exact: list | None = None


def solve_value(problem: ParametricProblem, x, rational: bool = False) -> SolveResult:
    """Optimal value and minimizer sample of the inner problem at x.

    Pinned points win over every solve path; the exact paths apply to
    problems affine in y, and to convex and strictly concave quadratic
    ones with a y_box (see the module docstring); everything else needs a
    y_box for multistart.  The exact paths report the exact value and
    minimizers too.  An LP raises ``UnboundedProblemError`` when its value
    drops along a ray or a lineality direction of the feasible set, every
    exact path raises ``InfeasibleParameterError`` when that set is empty,
    and an unbounded minimizer set comes back as a finite sample with
    ``non_singleton`` and ``under_enumerated`` set.  ``rational=True``
    skips the pins and makes it an error to fall off the exact paths.
    """
    x_raw = np.atleast_1d(np.asarray(x, dtype=object)).tolist()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # a rational request needs a certified path, not pinned hints
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
    res = _solve_exact(problem, x, x_raw)
    if res is not None:
        return res
    if rational:
        raise ProblemFormatError(
            "rational solve is only available for problems affine in y, or convex or "
            "strictly concave quadratic in y with affine g and a y_box"
        )
    return _solve_multistart(problem, x)


def _pinned_minimizers(problem, x):
    for name in sorted(problem.points):
        pt = problem.points[name]
        if pt.minimizers and np.max(np.abs(pt.x - x), initial=0.0) <= PIN_MATCH_TOL:
            return [np.asarray(v, float) for v in pt.minimizers]
    return None


def _face_sample(vertices):
    """The vertices of an optimal face, with their average appended when
    there are several: a sample of the face interior."""
    k = len(vertices)
    return vertices + [[sum(col) / k for col in zip(*vertices)]] if k > 1 else vertices


def _exact_result(x, value, mins_exact, certificate, unbounded=False):
    """The SolveResult of an exact path with the exact minimizers
    ``mins_exact``, a finite sample of an unbounded minimizer set when
    ``unbounded``."""
    return SolveResult(
        x=x,
        value=float(value),
        minimizers=[np.array([float(c) for c in v]) for v in mins_exact],
        certificate=certificate,
        non_singleton=len(mins_exact) > 1 or unbounded,
        under_enumerated=unbounded,
        value_exact=value,
        minimizers_exact=mins_exact,
    )


def _solve_exact(problem, x, x_raw):
    """The exact paths (see the module docstring), or None off them: f not
    quadratic in y with affine g, or quadratic without a y_box, or f_yy
    neither positive semidefinite nor negative definite at x, or a solve
    past ``MAX_KKT_SYSTEMS``.  x_raw keeps Fraction-valued input exact; x
    is its float view."""
    linear = problem.affine_in_y()
    if not linear and (problem.y_box is None or not _quadratic_in_y(problem)):
        return None
    lp = materialize_lp(problem, x_raw)
    m = problem.m
    if linear:
        best, arg, unbounded = _least_vertices(
            _cached_feasible_set(problem, lp),
            lambda v: sum(ci * vi for ci, vi in zip(lp.c, v)) + lp.c0)
        return _exact_result(x, best, _face_sample(arg), "lp-exact", unbounded)
    definite = _psd(lp.Q)
    if definite is None:
        if not _psd([[-v for v in row] for row in lp.Q]):
            return None
        # strictly concave f: least over a polytope (the y_box bounds it)
        # only at vertices, with no face sample between tied ones (it would
        # be a maximizer)
        poly = _cached_feasible_set(problem, lp)
        k = poly.C.shape[0]
        if math.comb(k, m) + math.comb(k, m - 1) > MAX_KKT_SYSTEMS:
            return None
        best, mins, _ = _least_vertices(poly, lambda v: _qp_value(lp, v))
        return _exact_result(x, best, mins, "qp-exact")
    rows = (problem._memo(_feasible_rows, lambda: _feasible_rows(problem, lp))
            if problem.constraints_x_free() else _feasible_rows(problem, lp))
    y = _kkt_walk(lp.Q, lp.c, rows)
    if y is None:
        return None
    if y is False:
        raise _no_feasible_point()
    value = _qp_value(lp, y)
    if definite:
        mins = [y]
    else:
        # the solution set is { y in P : Q y = Q y*, c.y = c.y* }
        Qy = [sum(q * v for q, v in zip(row, y)) for row in lp.Q]
        cy = sum(ci * v for ci, v in zip(lp.c, y))
        face = _row_polyhedron(rows, m, C_eq=np.array([*lp.Q, lp.c], dtype=object),
                               d_eq=np.array([*Qy, cy], dtype=object))
        mins = _face_sample([list(v) for v in face.vertices().vertices])
    return _exact_result(x, value, mins, "qp-exact")


def _least_vertices(poly, value):
    """The least of the concave ``value`` over the feasible set ``poly``,
    read off its cached decomposition conv(points) + cone(rays): the least
    value over the points, the points (as lists) where it is attained, and
    whether a ray r keeps it, value(v + r) == value(v) at the first point
    v, which for a linear value makes the minimizer set unbounded.  With a
    lineality space the points are the vertices of the orthogonal section
    and the rays hold both signs of its basis.  Raises when ``poly`` is
    empty, and when ``value`` drops along a ray: concavity then makes it
    unbounded below, and for a linear value this is the exact test."""
    vf = poly.vertices()
    if not vf.points:
        raise _no_feasible_point()
    values = [value(v) for v in vf.points]
    along = [value([a + b for a, b in zip(vf.points[0], r)]) - values[0] for r in vf.rays]
    if any(d < 0 for d in along):
        raise UnboundedProblemError("inner LP is unbounded below at this parameter")
    best = min(values)
    return (best, [list(v) for v, val in zip(vf.points, values) if val == best],
            any(d == 0 for d in along))


def _no_feasible_point():
    """The error of every exact path when the feasible set is empty."""
    return InfeasibleParameterError(
        "no feasible point at this parameter; the model assumes a nonempty "
        "feasible set wherever the value function is queried"
    )


def _feasible_rows(problem, lp):
    """The rows [a | b] of a y <= b, in integers: the g rows, then the
    upper and lower y_box rows of each coordinate, each scaled to coprime
    entries, with the first of any duplicates kept."""
    box = []
    for j, (lo, hi) in enumerate(problem.y_box or ()):
        e = [0] * problem.m
        e[j] = 1
        box += [(e, hi), ([-v for v in e], -lo)]
    rows = {}
    for a, b in [*zip(lp.A, lp.b), *box]:
        row = _int_row([*a, b])
        g = math.gcd(*row) or 1
        rows.setdefault(tuple(v // g for v in row), None)
    return list(rows)


def _row_polyhedron(rows, m, **eqs):
    """{ y : a y <= b } over the integer rows [a | b], with equality rows
    ``C_eq``, ``d_eq`` if given.  The rows are integers already, so they
    are the polyhedron's integer rows as they are."""
    C = np.array([r[:m] for r in rows], dtype=object).reshape(len(rows), m)
    return Polyhedron._holding([list(r) for r in rows], None, m, C=C,
                               d=np.array([r[m] for r in rows], dtype=object), **eqs)


def _cached_feasible_set(problem, lp):
    """{ y : A y <= b } over ``_feasible_rows``; a problem whose constraints
    never mention x keeps the set of its first solve, so one cached
    decomposition serves every parameter."""
    build = lambda: _row_polyhedron(_feasible_rows(problem, lp), problem.m)
    return problem._memo(_cached_feasible_set, build) if problem.constraints_x_free() else build()


def _qp_value(lp, y):
    """y^T Q y / 2 + c.y + c0 at the exact point y."""
    Qy = [sum(q * v for q, v in zip(row, y)) for row in lp.Q]
    return (sum(a * b for a, b in zip(y, Qy)) / 2
            + sum(ci * v for ci, v in zip(lp.c, y)) + lp.c0)


def _psd(Q):
    """Whether the symmetric rational Q is positive semidefinite, by exact
    symmetric elimination: None when it is not, else whether it is
    positive definite."""
    M, m, definite = [list(row) for row in Q], len(Q), True
    for k in range(m):
        d = M[k][k]
        if d < 0 or d == 0 and any(M[k][k + 1:]):
            return None
        if d == 0:
            definite = False
            continue
        for i in range(k + 1, m):
            f = M[i][k] / d
            if f:
                M[i][k + 1:] = [a - f * b for a, b in zip(M[i][k + 1:], M[k][k + 1:])]
    return definite


def _kkt_walk(Q, c, rows):
    """A global minimizer of y^T Q y / 2 + c.y over { y : a y <= b } for
    positive semidefinite Q and the integer rows [a | b] of a polytope, as
    Fractions; False when the polytope is empty; None past
    ``MAX_KKT_SYSTEMS`` systems.

    Active sets W of |W| = 0, 1, ..., m rows are tried in turn.  The first
    whose system [[Q, A_W^T], [A_W, 0]] (y, u) = (-c, b_W) is nonsingular,
    with u >= 0 and y feasible, is a KKT point and so, under convexity, a
    global minimizer.  One exists whenever the polytope is nonempty: at a
    vertex of the solution set Q is positive definite on the null space
    of the active rows, and a vertex of the multiplier set extends to an
    independent W spanning them.  Everything runs in integers: Q and c are
    scaled by the lcm of their denominators, which scales u by a positive
    factor.
    """
    m = len(c)
    den = math.lcm(*(v.denominator for v in [*c, *itertools.chain(*Q)]))
    Qi = [[int(v * den) for v in row] for row in Q]
    ci = [int(v * den) for v in c]
    tried = 0
    for s in range(min(m, len(rows)) + 1):
        for W in itertools.combinations(rows, s):
            tried += 1
            if tried > MAX_KKT_SYSTEMS:
                return None
            kkt = [Qi[j] + [w[j] for w in W] + [-ci[j]] for j in range(m)]
            kkt += [list(w[:m]) + [0] * s + [w[m]] for w in W]
            sol = _gauss_int(kkt, m + s)
            if sol is None or sol[1]:
                continue  # singular
            z, _, det = sol
            if any(u < 0 for u in z[m:]):
                continue
            if all(sum(a * v for a, v in zip(r[:m], z)) <= r[m] * det for r in rows):
                return [Fraction(v, det) for v in z[:m]]
    return False


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

    @property
    def empty(self) -> bool:
        # u >= 0 makes the set pointed: nonempty iff it has a vertex
        return not self.vertices

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


def _active_set(problem, x, y, tol_act):
    """x and y as float vectors, and the indices i of the g rows active at
    (x, y): g_i(x, y) >= -tol_act."""
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    g = problem.eval_g(x, y) if problem.p else ()
    return x, y, tuple(i for i in range(problem.p) if g[i] >= -tol_act)


def multipliers(
    problem: ParametricProblem, x, y, tol_act: float = DEFAULT_TOL_ACT
) -> MultiplierPolyhedron:
    """Multiplier polyhedron { u >= 0 : grad_y f + gy^T u = 0, u_i = 0 off
    the active set } with enumerated vertices."""
    x, y, active = _active_set(problem, x, y, tol_act)
    p = problem.p
    if p == 0:
        fy = problem.grad_y_f(x, y)
        feasible = np.max(np.abs(fy), initial=0.0) <= 1e-6
        # dim-0 set: nonempty iff stationarity holds without constraints
        verts = [np.zeros(0)] if feasible else []
        return MultiplierPolyhedron(x=x, y=y, poly=Polyhedron(0), vertices=verts)
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


def _cone_residual(G, t) -> float:
    """|G v - t|_inf at the v >= 0 of least |G v - t|_2, from one
    non-negative least-squares solve: the active-set method of Lawson and
    Hanson (1974, ch. 23), numpy only.  It frees one column of G at a time,
    at most 3 k times for k columns, and solves one least-squares problem
    on the free columns per step; with no column the residual is |t|_inf."""
    k = G.shape[1]
    tol = 10 * max(G.shape) * np.spacing(1.0) * max(1.0, float(np.max(np.abs(G), initial=0.0)))
    v, free = np.zeros(k), np.zeros(k, dtype=bool)
    for _ in range(3 * k):
        w = G.T @ (t - G @ v)  # the descent direction of the 2-norm residual
        if free.all() or not np.any(w[~free] > tol):
            break
        free[np.argmax(np.where(free, -np.inf, w))] = True
        while True:  # least squares on the free columns, back inside v >= 0
            s = np.zeros(k)
            s[free] = np.linalg.lstsq(G[:, free], t, rcond=None)[0]
            if not np.any(s[free] < 0):
                break
            neg = free & (s < 0)
            alpha = float(np.min(v[neg] / (v[neg] - s[neg])))
            v = v + alpha * (s - v)
            free &= v > tol
        v = s
    return float(np.max(np.abs(G @ v - t), initial=0.0))


def _active_gradients(problem: ParametricProblem, mult: MultiplierPolyhedron) -> np.ndarray:
    """The y-gradients of the active rows at the multiplier set's point,
    one per column."""
    if not mult.active:
        return np.zeros((problem.m, 0))
    return problem.jac_y_g(mult.x, mult.y)[list(mult.active)].T


def stationarity_residual(problem: ParametricProblem, mult: MultiplierPolyhedron) -> float:
    """How far (x, y) is from stationarity: |grad_y f|_inf with no active
    row, else |grad_y f + gy_A^T u|_inf over the active rows A at the
    u >= 0 that makes that residual least in the 2-norm."""
    return _cone_residual(_active_gradients(problem, mult), -problem.grad_y_f(mult.x, mult.y))


def unimplied_box_faces(problem: ParametricProblem, mult: MultiplierPolyhedron,
                        tol_act: float = DEFAULT_TOL_ACT) -> str:
    """The y_box faces through y (within ``tol_act``) whose outward normal
    is no nonnegative combination of the active gradients in y, named as
    in "y_box faces y1 <= 2, y3 >= -1", or "" when there is none.  No row
    of g implies such a face at y (for affine g, by Farkas, anywhere), and
    box rows get no multipliers, so it can hold a minimizer at which no
    u >= 0 meets stationarity."""
    if problem.y_box is None:
        return ""
    G = _active_gradients(problem, mult)
    faces = []
    for j, (lo, hi) in enumerate(problem.y_box):
        for bound, sign, op in ((lo, -1.0, ">="), (hi, 1.0, "<=")):
            normal = np.zeros(problem.m)
            normal[j] = sign
            if abs(mult.y[j] - bound) <= tol_act and _cone_residual(G, normal) > 1e-9:
                faces.append(f"y{j + 1} {op} {bound:g}")
    if not faces:
        return ""
    return f"y_box face{'s' if len(faces) > 1 else ''} {', '.join(faces)}"


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


def check_licq(
    problem: ParametricProblem, x, y, tol_act: float = DEFAULT_TOL_ACT
) -> LicqReport:
    """Linear independence of active constraint gradients in y."""
    x, y, active = _active_set(problem, x, y, tol_act)
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
    problem: ParametricProblem, x, y, tol_act: float = DEFAULT_TOL_ACT,
    mult: MultiplierPolyhedron | None = None,
) -> MfcqReport:
    """Existence of a direction d with gy_i . d < 0 for all active i, read
    off the multiplier set ``mult`` at (x, y) (built when not given).

    By Gordan's alternative MFCQ fails iff some u >= 0, u != 0, supported
    on the active rows has gy^T u = 0.  Those u form the recession cone of
    the multiplier set, so a nonempty set satisfies MFCQ iff it is bounded
    (Gauvin 1977).  For an empty set the cone is decomposed itself: it is
    pointed, so MFCQ holds iff it has no ray.
    """
    if mult is None:
        mult = multipliers(problem, x, y, tol_act)
    if not mult.active or not mult.empty:
        return MfcqReport(holds=mult.bounded, active=mult.active)
    inactive = [i for i in range(problem.p) if i not in mult.active]
    cone = multiplier_polyhedron(problem.jac_y_g(mult.x, mult.y), np.zeros(problem.m), inactive)
    return MfcqReport(holds=not cone.vertices().rays, active=mult.active)
