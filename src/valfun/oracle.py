"""Independent numerical oracles.

Everything here is deliberately simple and separate from the estimate
machinery: finite differences on the value function, a brute-force
rational LP solver, brute-force multiplier vertices, solution-path
tracking and graph probes.  Tests compare the analytic estimates against
these; the implementations must not share code with the paths they check,
so nothing here calls ``kernel`` or ``setcalc``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import InfeasibleParameterError, ProblemFormatError
from .model import ParametricProblem

GRAD_STEP = 1e-5
HESS_STEP = 1e-3
#: phi evaluations of their own, independent of ``kernel``'s inner solve:
#: pins match within PIN_TOL, SLSQP minimizers count as feasible within
#: FEAS_TOL, as optimal within TIE_TOL of the best and as one branch
#: within BRANCH_TOL; the start grid has at most MAX_STARTS points.
#: Multiplier vertices solve stationarity within KKT_TOL on the rows
#: active within ACT_TOL.
PIN_TOL = 1e-12
FEAS_TOL = 1e-6
TIE_TOL = 1e-7
BRANCH_TOL = 1e-6
MAX_STARTS = 64
ACT_TOL = 1e-6
KKT_TOL = 1e-6


class ValueEvaluator:
    """phi(x) evaluator with warm-started local solves for FD stencils.

    The first evaluation runs the full solve of ``solve_phi``; later
    evaluations of a problem not affine in y restart a local descent from
    each cached minimizer branch so that nearby stencil points stay on
    their branches.
    """

    def __init__(self, problem: ParametricProblem):
        self.problem = problem
        self._branches: list[np.ndarray] | None = None
        self._affine = problem.affine_in_y()

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._affine or _pins(self.problem, x):
            return solve_phi(self.problem, x)[0]
        if self._branches is None:
            value, self._branches = solve_phi(self.problem, x)
            return value
        best = _best_descent(self.problem, x, self._branches)
        return solve_phi(self.problem, x)[0] if best is None else best


def solve_phi(problem: ParametricProblem, x) -> tuple[float, list[np.ndarray]]:
    """(phi(x), minimizers) by routes of the oracle's own: the least f over
    the minimizers pinned at x; ``lp_value_oracle`` for problems affine in
    y; otherwise SLSQP from a grid over the y_box."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pins = _pins(problem, x)
    if pins:
        values = [problem.eval_f(x, y) for y in pins]
        best = min(values)
        return float(best), _branches(pins, values, best)
    if problem.affine_in_y():
        value, argmins = lp_value_oracle(problem, x)
        if value is None:
            raise InfeasibleParameterError("the inner LP has no basic feasible point")
        return float(value), sorted((np.array([float(v) for v in y]) for y in argmins),
                                    key=lambda y: tuple(y))
    if problem.y_box is None:
        raise ProblemFormatError("the oracle's SLSQP grid needs a y_box")
    found = []
    for y0 in _grid(problem):
        y = _feasible_descent(problem, x, y0)
        if y is not None:
            found.append((problem.eval_f(x, y), y))
    if not found:
        raise InfeasibleParameterError("no SLSQP start reached a feasible point")
    best = min(v for v, _ in found)
    return float(best), _branches([y for _, y in found], [v for v, _ in found], best)


def _pins(problem, x):
    """The minimizers pinned at x by the first matching named point."""
    for name in sorted(problem.points):
        pt = problem.points[name]
        if pt.minimizers and np.max(np.abs(pt.x - x), initial=0.0) <= PIN_TOL:
            return [np.asarray(v, float) for v in pt.minimizers]
    return []


def _branches(points, values, best):
    """The points within TIE_TOL of the best value, one per BRANCH_TOL
    cluster, in sorted order."""
    out = []
    for y in sorted((y for y, v in zip(points, values) if v <= best + TIE_TOL),
                    key=lambda y: tuple(y)):
        if not any(np.max(np.abs(y - q), initial=0.0) <= BRANCH_TOL for q in out):
            out.append(y)
    return out


def _grid(problem):
    """Starts on a grid over the y_box, at most MAX_STARTS of them."""
    k = 5 if problem.m <= 2 else (3 if problem.m <= 4 else 2)
    axes = np.meshgrid(*(np.linspace(lo, hi, k) for lo, hi in problem.y_box), indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=1)
    if pts.shape[0] > MAX_STARTS:
        idx = np.random.default_rng(0).choice(pts.shape[0], size=MAX_STARTS, replace=False)
        pts = pts[np.sort(idx)]
    return list(pts)


def _best_descent(problem, x, starts):
    """The least f over the feasible SLSQP descents from ``starts``, or None."""
    values = [problem.eval_f(x, y) for y in
              (_feasible_descent(problem, x, y0) for y0 in starts) if y is not None]
    return float(min(values)) if values else None


def _feasible_descent(problem, x, y0):
    y = slsqp_descent(problem, x, y0)
    if y is None or problem.p and np.max(problem.eval_g(x, y)) > FEAS_TOL:
        return None
    return y


def slsqp_descent(problem: ParametricProblem, x, y0):
    """One SLSQP descent of ``scipy.optimize.minimize`` from y0, with a
    scalar callback per constraint and per derivative entry, each
    evaluating one expression; None when SLSQP fails.  The y_box bounds
    the descent and clips its end point."""
    from scipy.optimize import minimize

    x = np.atleast_1d(np.asarray(x, float))
    fy, gy = _y_derivatives(problem)
    cons = [
        {
            "type": "ineq",
            "fun": lambda y, i=i: -problem.eval_expr(problem.g[i], x, y),
            "jac": lambda y, i=i: -np.array([problem.eval_expr(e, x, y) for e in gy[i]],
                                            float),
        }
        for i in range(problem.p)
    ]
    res = minimize(
        lambda y: problem.eval_expr(problem.f, x, y),
        np.asarray(y0, float),
        jac=lambda y: np.array([problem.eval_expr(e, x, y) for e in fy], float),
        bounds=problem.y_box,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-12},
    )
    if not res.success and res.status != 8:  # 8: no descent found, still usable
        return None
    if problem.y_box is None:
        return res.x
    return np.clip(res.x, [lo for lo, _ in problem.y_box], [hi for _, hi in problem.y_box])


def _y_derivatives(problem):
    """The expressions of grad_y f and of each row of the y-Jacobian of g."""
    return ([problem.f.diff("y", k) for k in range(problem.m)],
            [[gi.diff("y", k) for k in range(problem.m)] for gi in problem.g])


@dataclass
class FdReport:
    value: np.ndarray
    stable: bool
    spread: float
    step: float


def fd_gradient(problem: ParametricProblem, x, h: float = GRAD_STEP,
                consistency_tol: float = 1e-4) -> FdReport:
    """Central-difference gradient of phi with one Richardson halving.

    ``stable`` compares the h and h/2 estimates; an unstable report
    usually means x sits on a kink of the value function.
    """
    phi = ValueEvaluator(problem)
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def grad(step):
        out = np.zeros(x.shape[0])
        for j in range(x.shape[0]):
            e = np.zeros_like(x)
            e[j] = step
            out[j] = (phi(x + e) - phi(x - e)) / (2 * step)
        return out

    g1 = grad(h)
    g2 = grad(h / 2)
    spread = float(np.max(np.abs(g1 - g2), initial=0.0))
    rich = (4.0 * g2 - g1) / 3.0
    return FdReport(value=rich, stable=spread <= consistency_tol, spread=spread, step=h)


def fd_directional(problem: ParametricProblem, x, d, h: float = GRAD_STEP,
                   consistency_tol: float = 1e-4) -> FdReport:
    """One-sided directional derivative phi'(x; d), Richardson-extrapolated.

    One-sided stencils see the correct one-sided slope at kinks, which is
    what the support-function comparisons need.
    """
    phi = ValueEvaluator(problem)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    base = phi(x)

    def slope(step):
        return (phi(x + step * d) - base) / step

    s1 = slope(h)
    s2 = slope(h / 2)
    spread = abs(s1 - s2)
    rich = 2.0 * s2 - s1
    return FdReport(value=np.array([rich]), stable=spread <= consistency_tol,
                    spread=spread, step=h)


def fd_hessian(problem: ParametricProblem, x, h: float = HESS_STEP,
               consistency_tol: float = 1e-2) -> FdReport:
    """Central second differences with one halving level."""
    phi = ValueEvaluator(problem)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[0]

    def hess(step):
        H = np.zeros((n, n))
        f0 = phi(x)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = step
            H[i, i] = (phi(x + ei) - 2 * f0 + phi(x - ei)) / step**2
        for i in range(n):
            for j in range(i + 1, n):
                ei = np.zeros(n)
                ej = np.zeros(n)
                ei[i] = step
                ej[j] = step
                H[i, j] = (
                    phi(x + ei + ej) - phi(x + ei - ej) - phi(x - ei + ej) + phi(x - ei - ej)
                ) / (4 * step**2)
                H[j, i] = H[i, j]
        return H

    H1 = hess(h)
    H2 = hess(h / 2)
    spread = float(np.max(np.abs(H1 - H2), initial=0.0))
    rich = (4.0 * H2 - H1) / 3.0
    return FdReport(value=rich, stable=spread <= consistency_tol, spread=spread, step=h)


# ---------------------------------------------------------------------------
# Rational brute-force LP oracle
# ---------------------------------------------------------------------------


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _solve_square_exact(A_rows, b):
    """Gaussian elimination over Fractions; None when singular."""
    k = len(A_rows)
    M = [list(map(_frac, row)) + [_frac(b[i])] for i, row in enumerate(A_rows)]
    for col in range(k):
        piv = None
        for r in range(col, k):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(k):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[col])]
    return [M[i][k] for i in range(k)]


def lp_value_oracle(problem: ParametricProblem, x):
    """Exact minimum of the inner problem over all basic feasible points.

    Brute force: every m-subset of the constraint rows and the y_box rows
    is solved as an active set and checked for feasibility.  Requires the
    problem to be affine in y with a pointed feasible set (a y_box makes
    it pointed); data is extracted by direct evaluation (finite second
    differences are zero for affine forms), not through the derivative
    trees, so this is an independent route.

    Returns (value, argmins) as exact Fractions, or (None, []) when no
    basic feasible point exists.
    """
    m, p = problem.m, problem.p
    xq = [_frac(v) for v in np.atleast_1d(x)]
    zero = [Fraction(0)] * m

    def unit(j):
        e = [Fraction(0)] * m
        e[j] = Fraction(1)
        return e

    f0 = _frac(problem.eval_expr(problem.f, xq, zero))
    c = [_frac(problem.eval_expr(problem.f, xq, unit(j))) - f0 for j in range(m)]
    g0 = [_frac(v) for v in problem.eval_g_exact(xq, zero)]
    A = [
        [_frac(problem.eval_expr(problem.g[i], xq, unit(j))) - g0[i] for j in range(m)]
        for i in range(p)
    ]
    b = [-v for v in g0]
    for j, (lo, hi) in enumerate(problem.y_box or ()):
        A += [unit(j), [-v for v in unit(j)]]
        b += [_frac(hi), -_frac(lo)]
    p = len(A)

    best, argmins = None, []
    for J in combinations(range(p), m):
        sol = _solve_square_exact([A[i] for i in J], [b[i] for i in J])
        if sol is None:
            continue
        feasible = all(
            sum(A[i][j] * sol[j] for j in range(m)) <= b[i] for i in range(p)
        )
        if not feasible:
            continue
        val = f0 + sum(cj * sj for cj, sj in zip(c, sol))
        if best is None or val < best:
            best, argmins = val, [sol]
        elif val == best and sol not in argmins:
            argmins.append(sol)
    return best, argmins


# ---------------------------------------------------------------------------
# Solution tracking and graph probing
# ---------------------------------------------------------------------------


@dataclass
class TrackResult:
    ts: list[float]
    ys: list[np.ndarray]
    us: list[np.ndarray]
    truncated: bool
    reason: str = ""


def track_solution(problem: ParametricProblem, xbar, d, steps: int = 3,
                   h: float = 1e-5, jump_tol: float = 0.1) -> TrackResult:
    """Follow a minimizer branch along x = xbar + t d for t in +/- k h.

    Walks outward from the base solve, warm-starting each step from its
    neighbor.  Stops and flags truncation when the active set changes or
    the minimizer jumps by more than ``jump_tol`` between steps.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    y0 = solve_phi(problem, xbar)[1][0]
    u0 = _nearest_multiplier(problem, xbar, y0, None)
    base_active = _active_set(problem, xbar, y0)

    ts, ys, us = [0.0], [y0], [u0]
    truncated, reason = False, ""
    for sign in (1.0, -1.0):
        prev_y = y0
        for k in range(1, steps + 1):
            t = sign * k * h
            x = xbar + t * d
            y = _resolve(problem, x, prev_y)
            if y is None:
                truncated, reason = True, "local solve failed"
                break
            if np.max(np.abs(y - prev_y), initial=0.0) > jump_tol:
                truncated, reason = True, "minimizer jump"
                break
            if _active_set(problem, x, y) != base_active:
                truncated, reason = True, "active-set change"
                break
            u = _nearest_multiplier(problem, x, y, us[-1])
            ts.append(t)
            ys.append(y)
            us.append(u)
            prev_y = y
        if truncated:
            break
    order = np.argsort(ts)
    return TrackResult(
        ts=[ts[i] for i in order],
        ys=[ys[i] for i in order],
        us=[us[i] for i in order],
        truncated=truncated,
        reason=reason,
    )


def _resolve(problem, x, y0):
    if problem.affine_in_y() and problem.y_box is None:
        # pick the minimizer closest to the previous one
        return min(solve_phi(problem, x)[1],
                   key=lambda y: float(np.max(np.abs(y - y0), initial=0.0)))
    return _feasible_descent(problem, x, y0)


def _active_set(problem, x, y, tol: float = ACT_TOL):
    if problem.p == 0:
        return ()
    g = problem.eval_g(x, y)
    return tuple(i for i in range(problem.p) if g[i] >= -tol)


def _nearest_multiplier(problem, x, y, u_prev):
    verts = multiplier_vertices(problem, x, y)
    if not verts:
        return np.full(problem.p, np.nan)
    if u_prev is None or not np.all(np.isfinite(u_prev)):
        return verts[0]
    return min(verts, key=lambda u: float(np.max(np.abs(u - u_prev), initial=0.0)))


def multiplier_vertices(problem: ParametricProblem, x, y) -> list[np.ndarray]:
    """The vertices of { u >= 0 : grad_y f + gy^T u = 0, u_i = 0 off the
    rows active within ACT_TOL } at (x, y), in sorted order.

    Brute force: a vertex is a nonnegative solution whose support rows are
    linearly independent, so every support of at most m active rows with
    full rank is solved by least squares and kept when its stationarity
    residual is within KKT_TOL (relative to the gradients) and its entries
    are >= -KKT_TOL (then clipped to 0).  Gradients come from one
    expression evaluation per entry.
    """
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    fy_e, gy_e = _y_derivatives(problem)
    fy = np.array([problem.eval_expr(e, x, y) for e in fy_e], float)
    gy = np.array([[problem.eval_expr(e, x, y) for e in row] for row in gy_e],
                  float).reshape(problem.p, problem.m)
    active = _active_set(problem, x, y)
    scale = max(1.0, float(np.max(np.abs(fy), initial=0.0)),
                float(np.max(np.abs(gy), initial=0.0)))
    out = []
    for s in range(min(len(active), problem.m) + 1):
        for J in combinations(active, s):
            G = gy[list(J)].T
            if s and np.linalg.matrix_rank(G) < s:
                continue
            uJ = np.linalg.lstsq(G, -fy, rcond=None)[0] if s else np.zeros(0)
            if np.max(np.abs(G @ uJ + fy), initial=0.0) > KKT_TOL * scale:
                continue
            if np.any(uJ < -KKT_TOL * scale):
                continue
            u = np.zeros(problem.p)
            u[list(J)] = np.maximum(uJ, 0.0)
            if not any(np.max(np.abs(u - v), initial=0.0) <= BRANCH_TOL for v in out):
                out.append(u)
    return sorted(out, key=lambda u: tuple(u))


def fd_solution_jacobian(problem: ParametricProblem, xbar, h: float = 1e-5):
    """FD Jacobians of the minimizer and multiplier maps along coordinate
    directions.  Returns (ds, du, ok); ok is False when any directional
    track truncated (kink or branch change)."""
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    n = xbar.shape[0]
    m, p = problem.m, problem.p
    ds = np.zeros((m, n))
    du = np.zeros((p, n))
    ok = True
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        tr = track_solution(problem, xbar, e, steps=1, h=h)
        if tr.truncated or len(tr.ts) < 3:
            ok = False
            continue
        y_minus, y_plus = tr.ys[0], tr.ys[-1]
        u_minus, u_plus = tr.us[0], tr.us[-1]
        ds[:, j] = (y_plus - y_minus) / (2 * h)
        if p and np.all(np.isfinite(u_minus)) and np.all(np.isfinite(u_plus)):
            du[:, j] = (u_plus - u_minus) / (2 * h)
    return ds, du, ok


def graph_probe(problem: ParametricProblem, kind: str, base_x, radius: float = 1e-3,
                count: int = 20, seed: int = 0):
    """Sample graph points of the solution-side maps near a parameter, from
    the oracle's own ``solve_phi`` and ``multiplier_vertices``.

    kind "S": tuples (x, y) with y a minimizer at x.
    kind "lambda": tuples (x, y, u) with u a multiplier vertex at (x, y).
    kind "phi": tuples (x, phi(x)).
    """
    rng = np.random.default_rng(seed)
    base_x = np.atleast_1d(np.asarray(base_x, dtype=float))
    out = []
    for _ in range(count):
        delta = rng.uniform(-radius, radius, size=base_x.shape[0])
        x = base_x + delta
        try:
            value, minimizers = solve_phi(problem, x)
        except Exception:
            continue
        if kind == "phi":
            out.append((x, value))
            continue
        for y in minimizers:
            if kind == "S":
                out.append((x, y))
            elif kind == "lambda":
                for u in multiplier_vertices(problem, x, y):
                    out.append((x, y, u))
            else:
                raise ValueError(f"unknown probe kind {kind!r}")
    return out
