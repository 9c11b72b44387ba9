"""The exact QP path of ``kernel.solve_value``: random convex and strictly
concave QPs against a plain scipy SLSQP grid and seeded feasible samples
written out here (the concave ones also against a brute-force vertex
enumeration in Fractions), hand-solved examples, the problems that stay on
multistart, seeded desk-scale QPs through ``hessian.compute``, and the
budget.  Examples are derandomized, so the run is fixed."""

from __future__ import annotations

import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from valfun import firstorder, hessian
from valfun.errors import ProblemFormatError
from valfun.kernel import solve_value
from valfun.model import parse_problem
from valfun.oracle import fd_hessian

from conftest import load_instance

SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
BOX = 2


def _linear(coeffs):
    return " + ".join(f"({a})*y{j + 1}" for j, a in enumerate(coeffs))


@st.composite
def convex_qps(draw):
    """min sum_r (L_r . y)^2 / 2 + (c + x d) . y  s.t.  A y <= b + x e on the
    box [-2, 2]^m, with m <= 3, p <= 4, integer data and b >= 1, so y = 0 is
    feasible for |x| <= 1.  L has at most m rows and may be rank deficient."""
    m = draw(st.integers(1, 3))
    ints = lambda lo, hi, k: [draw(st.integers(lo, hi)) for _ in range(k)]
    L = [ints(-2, 2, m) for _ in range(draw(st.integers(1, m)))]
    c, d = ints(-3, 3, m), ints(-2, 2, m)
    A = [ints(-3, 3, m) for _ in range(draw(st.integers(0, 4)))]
    b, e = ints(1, 3, len(A)), ints(-1, 1, len(A))
    x = Fraction(draw(st.integers(-7, 7)), 7)
    return L, c, d, A, b, e, x


def _qp_problem(L, c, d, A, b, e, concave=False):
    """The QP of ``convex_qps``, or with ``concave`` that of ``concave_qps``."""
    half = "(-1/2)" if concave else "(1/2)"
    squares = [f"{half}*({_linear(row)})^2" for row in L]
    if concave:
        squares += [f"{half}*y{j + 1}^2" for j in range(len(c))]
    f = " + ".join(squares + [f"({cj} + ({dj})*x1)*y{j + 1}"
                              for j, (cj, dj) in enumerate(zip(c, d))])
    g = [f"{_linear(row)} - {bi} - ({ei})*x1" for row, bi, ei in zip(A, b, e)]
    return parse_problem({"n": 1, "m": len(c), "f": f, "g": g,
                          "y_box": [[-BOX, BOX]] * len(c)})


def _hessian(L, m, concave=False):
    """f_yy of ``_qp_problem``: L^T L, or -(L^T L + I) with ``concave``."""
    Q = np.array(L, dtype=object).reshape(len(L), m)
    Q = Q.T @ Q
    return -(Q + np.eye(m, dtype=int)) if concave else Q


def _float_data(Q, c, d, A, b, e, x):
    """f = y^T Q y / 2 + (c + x d) . y, its gradient and the row test
    A y <= b + x e as float callables at the parameter x, then A and
    b + x e as float arrays."""
    Qf, xf = np.array(Q, float), float(x)
    lin = np.array(c, float) + xf * np.array(d, float)
    Af = np.array(A, float).reshape(len(A), len(c))
    rhs = np.array(b, float) + xf * np.array(e, float)
    return (lambda y: 0.5 * float(y @ Qf @ y) + float(lin @ y), lambda y: Qf @ y + lin,
            lambda y: Af @ y <= rhs + 1e-12, Af, rhs)


def _scipy_grid_value(Q, c, d, A, b, e, x, k=5, feas_tol=1e-9):
    """The least value of SLSQP descents from a k^m grid over the box, over
    those that meet the rows and the box within ``feas_tol``."""
    f, fy, _, Af, rhs = _float_data(Q, c, d, A, b, e, x)
    m = len(c)
    cons = [{"type": "ineq", "fun": lambda y: rhs - Af @ y, "jac": lambda y: -Af}] if len(A) else []
    best = np.inf
    for y0 in np.stack(np.meshgrid(*[np.linspace(-BOX, BOX, k)] * m), -1).reshape(-1, m):
        res = minimize(f, y0, jac=fy, bounds=[(-BOX, BOX)] * m,
                       constraints=cons, method="SLSQP", options={"maxiter": 200, "ftol": 1e-12})
        if np.all(Af @ res.x <= rhs + feas_tol) and np.all(np.abs(res.x) <= BOX + feas_tol):
            best = min(best, f(res.x))
    return best


@SETTINGS
@given(convex_qps())
def test_exact_qp_is_certified_and_optimal(case):
    L, c, d, A, b, e, x = case
    prob = _qp_problem(L, c, d, A, b, e)
    res = solve_value(prob, np.array([x], dtype=object), rational=True)
    # the parser folds a zero L to a constant, which leaves an LP
    assert res.certificate == ("lp-exact" if prob.affine_in_y() else "qp-exact")
    assert not res.under_enumerated
    for y in res.minimizers_exact:
        assert all(-BOX <= v <= BOX for v in y)
        assert all(v <= 0 for v in prob.eval_g_exact([x], y))
        assert prob.eval_f([x], y) == res.value_exact
    assert res.value == float(res.value_exact)
    _assert_below_grid_and_samples(res.value, _hessian(L, len(c)), *case[1:])
    if np.linalg.matrix_rank(np.array(L, float)) == len(c):  # Q = L^T L positive definite
        assert len(res.minimizers_exact) == 1 and not res.non_singleton


def _assert_below_grid_and_samples(value, Q, c, d, A, b, e, x, k=5, feas_tol=1e-9):
    """value is at most the SLSQP grid value and f at 64 seeded feasible
    samples of the box, each + 1e-9."""
    assert value <= _scipy_grid_value(Q, c, d, A, b, e, x, k, feas_tol) + 1e-9
    f, _, feasible, *_ = _float_data(Q, c, d, A, b, e, x)
    samples = np.random.default_rng(len(A) * 7 + len(c)).uniform(-BOX, BOX, (64, len(c)))
    assert all(value <= f(y) + 1e-9 for y in samples if np.all(feasible(y)))


@st.composite
def concave_qps(draw):
    """min -sum_r (L_r . y)^2 / 2 - |y|^2 / 2 + (c + x d) . y, so f_yy =
    -(L^T L + I) is negative definite, over the feasible sets of
    ``convex_qps``."""
    m = draw(st.integers(1, 3))
    ints = lambda lo, hi, k: [draw(st.integers(lo, hi)) for _ in range(k)]
    L = [ints(-2, 2, m) for _ in range(draw(st.integers(0, m)))]
    c, d = ints(-3, 3, m), ints(-2, 2, m)
    A = [ints(-3, 3, m) for _ in range(draw(st.integers(0, 4)))]
    b, e = ints(1, 3, len(A)), ints(-1, 1, len(A))
    x = Fraction(draw(st.integers(-7, 7)), 7)
    return L, c, d, A, b, e, x


def _solve_fractions(rows, rhs):
    """The solution of the square system rows y = rhs by Gauss-Jordan
    elimination in Fractions; None when it is singular."""
    M = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    k = len(M)
    for col in range(k):
        piv = next((r for r in range(col, k) if M[r][col]), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        M[col] = [v / M[col][col] for v in M[col]]
        for r in range(k):
            if r != col and M[r][col]:
                M[r] = [a - M[r][col] * b for a, b in zip(M[r], M[col])]
    return [row[k] for row in M]


def _vertex_minimizers(Q, c, d, A, b, e, x):
    """(least f, the vertices attaining it) over the vertices of
    { y : A y <= b + x e, |y_j| <= BOX }, each the feasible solution of m
    rows taken as equalities, all in Fractions."""
    m = len(c)
    rows = [(list(a), bi + x * ei) for a, bi, ei in zip(A, b, e)]
    rows += [([s * (i == j) for i in range(m)], BOX) for j in range(m) for s in (1, -1)]
    verts = set()
    for J in combinations(rows, m):
        y = _solve_fractions([a for a, _ in J], [r for _, r in J])
        if y is not None and all(sum(ai * yi for ai, yi in zip(a, y)) <= r for a, r in rows):
            verts.add(tuple(y))
    lin = [cj + x * dj for cj, dj in zip(c, d)]
    f = {v: sum(Q[i][j] * v[i] * v[j] for i in range(m) for j in range(m)) / 2
         + sum(li * vi for li, vi in zip(lin, v)) for v in verts}
    best = min(f.values())
    return best, sorted(v for v in verts if f[v] == best)


@SETTINGS
@given(concave_qps())
def test_exact_concave_qp_takes_the_least_vertices(case):
    L, c, d, A, b, e, x = case
    prob = _qp_problem(L, c, d, A, b, e, concave=True)
    Q = _hessian(L, len(c), concave=True)
    res = solve_value(prob, np.array([x], dtype=object), rational=True)
    assert res.certificate == "qp-exact" and not res.under_enumerated
    best, argmins = _vertex_minimizers(Q.tolist(), c, d, A, b, e, x)
    assert res.value_exact == best
    assert sorted(tuple(y) for y in res.minimizers_exact) == argmins  # no face sample
    assert res.non_singleton == (len(argmins) > 1)
    for y in res.minimizers_exact:
        assert all(-BOX <= v <= BOX for v in y)
        assert all(v <= 0 for v in prob.eval_g_exact([x], y))
    # SLSQP stops on the boundary of the rows, and an end point outside
    # them by 1e-10 can already undercut a vertex of value -30 by 1e-9:
    # only exactly feasible end points are compared
    _assert_below_grid_and_samples(res.value, Q, c, d, A, b, e, x, k=3, feas_tol=0.0)


def test_quad2d_rational_value():
    prob = replace(load_instance("quad2d"), points={})
    res = solve_value(prob, np.array([Fraction(1, 2), Fraction(-1, 2)], dtype=object),
                      rational=True)
    assert res.certificate == "qp-exact"
    assert res.value_exact == Fraction(-1, 6)
    assert res.minimizers_exact == [[Fraction(2, 3), Fraction(-2, 3)]]


def test_twoactive_value_is_exactly_zero():
    res = solve_value(replace(load_instance("twoactive"), points={}), [0.0])
    assert res.certificate == "qp-exact"
    assert res.value == 0.0 and res.minimizers[0].tolist() == [0.0]


def test_concave_ties_report_both_vertices_and_no_midpoint():
    res = solve_value(load_instance("multiSxfree"), [Fraction(4, 5)], rational=True)
    assert res.certificate == "qp-exact" and res.non_singleton
    assert res.value_exact == Fraction(-4, 5)
    assert res.minimizers_exact == [[-1], [1]]


def test_concave_minimizers_follow_the_shifted_interval():
    prob = load_instance("multiS")  # minimizers +-(1 + x2) for x1 > 0
    res = solve_value(prob, [Fraction(1, 2), Fraction(1, 4)], rational=True)
    assert res.minimizers_exact == [[Fraction(-5, 4)], [Fraction(5, 4)]]
    assert res.value_exact == Fraction(-25, 32)
    res = solve_value(prob, [0.7, -0.3])  # off the pinned point
    assert res.certificate == "qp-exact"
    assert [y.tolist() for y in res.minimizers] == [[-0.7], [0.7]]


def test_singular_q_reports_the_optimal_face():
    prob = parse_problem({"n": 1, "m": 2, "f": "(y1 - x1)^2", "g": [],
                          "y_box": [[-1, 1], [-1, 1]]})
    res = solve_value(prob, [Fraction(1, 2)], rational=True)
    assert res.certificate == "qp-exact" and res.non_singleton
    half = Fraction(1, 2)
    assert res.minimizers_exact == [[half, -1], [half, 1], [half, 0]]
    assert res.value_exact == 0


def test_sign_of_the_curvature_picks_the_exact_algorithm():
    # one problem object, so the walk and the vertex scan share its cached
    # x-free feasible set: convex at x1 = 1, strictly concave at x1 = -1,
    # and linear (Q = 0, on the walk) at x1 = 0
    prob = parse_problem({"n": 1, "m": 1, "f": "x1*y1^2 + y1", "g": ["y1 - 1", "-y1 - 1"],
                          "y_box": [[-2, 2]]})
    for x1, value, y in [(1, Fraction(-1, 4), Fraction(-1, 2)), (-1, -2, -1), (0, -1, -1)]:
        res = solve_value(prob, [Fraction(x1)], rational=True)
        assert res.certificate == "qp-exact"
        assert (res.value_exact, res.minimizers_exact) == (value, [[y]])


@pytest.mark.parametrize("spec, x", [
    ({"n": 1, "m": 2, "f": "y1*y2 + x1*y1", "g": [], "y_box": [[-1, 1], [-1, 1]]}, [0.5]),
    # singular concave: f is constant along y1 + y2 = const, so vertices
    # alone could miss minimizers
    ({"n": 1, "m": 2, "f": "-(y1 + y2)^2 + x1*y1", "g": [], "y_box": [[-1, 1], [-1, 1]]},
     [0.5]),
    ("quarticshift", [0.3]),
])
def test_indefinite_concave_and_quartic_stay_on_multistart(spec, x):
    prob = parse_problem(spec) if isinstance(spec, dict) else load_instance(spec)
    assert solve_value(prob, x).certificate == "heuristic-multistart"
    with pytest.raises(ProblemFormatError, match="rational solve"):
        solve_value(prob, [Fraction(v) for v in x], rational=True)


def test_convex_qp_without_box_still_needs_one():
    prob = parse_problem({"n": 1, "m": 1, "f": "(y1 - x1)^2", "g": ["y1 - 1"]})
    with pytest.raises(ProblemFormatError, match="y_box"):
        solve_value(prob, [0.0])
    with pytest.raises(ProblemFormatError, match="rational solve"):
        solve_value(prob, [Fraction(0)], rational=True)


# ---------------------------------------------------------------------------
# Desk scale
# ---------------------------------------------------------------------------


def desk_qp(m, p, seed, box_in_g=True, concave=False):
    """Seeded strictly convex QP min sum_j (y_j - x_j)^2 (with ``concave``
    the strictly concave min -sum_j (y_j - x_j)^2) over p random integer
    rows in [-3, 3] with right-hand sides in 1..3, and the box [-2, 2]^m
    as y_box (and as 2m more rows of g with ``box_in_g``), at a parameter
    of quarters in [-2, 2]^m."""
    rng = np.random.default_rng(seed)
    rows, rhs = rng.integers(-3, 4, size=(p, m)), rng.integers(1, 4, size=p)
    g = [f"{_linear(row)} - {bi}" for row, bi in zip(rows, rhs)]
    if box_in_g:
        g += [s for j in range(m) for s in (f"y{j + 1} - {BOX}", f"-y{j + 1} - {BOX}")]
    f = " + ".join(f"(y{j + 1} - x{j + 1})^2" for j in range(m))
    f = f"-({f})" if concave else f
    prob = parse_problem({"n": m, "m": m, "f": f, "g": g, "y_box": [[-BOX, BOX]] * m})
    return prob, rng.integers(-4 * BOX, 4 * BOX + 1, size=m) / 4


@pytest.mark.parametrize("m, seed", [(3, 1), (4, 1)])
def test_desk_qp_hessian_at_first_generator(m, seed):
    # SLSQP minimizers about 1e-7 off left these without multipliers
    prob, x = desk_qp(m, 2 * m, seed)
    res = solve_value(prob, x)
    gen = firstorder.auto_estimate(prob, x, minimizers=res.minimizers).generators[0]
    e1 = np.eye(m)[0]
    est = hessian.compute(prob, hessian.HessianQuery(x, gen, e1), branch_cap=200)
    assert res.certificate == "qp-exact"
    assert not est.result.is_empty()
    fd = fd_hessian(prob, x)
    if fd.stable:
        assert est.member(np.atleast_2d(fd.value)[:, 0], tol=1e-4)


def test_concave_vertex_budget_at_desk_scale():
    # 12 rows at m = 3: C(12, 3) + C(12, 2) = 286 vertex and ray systems
    prob, x = desk_qp(3, 6, 1, concave=True)
    res = solve_value(prob, x)
    assert res.certificate == "qp-exact"
    cons = {"type": "ineq", "fun": lambda y: -prob.eval_g(x, y), "jac": lambda y: -prob.jac_y_g(x, y)}
    grid = np.stack(np.meshgrid(*[np.linspace(-BOX, BOX, 3)] * 3), -1).reshape(-1, 3)
    descents = [minimize(lambda y: -float(np.sum((y - x) ** 2)), y0, jac=lambda y: -2 * (y - x),
                         bounds=prob.y_box, constraints=[cons], method="SLSQP",
                         options={"maxiter": 200, "ftol": 1e-12}) for y0 in grid]
    assert res.value <= min(d.fun for d in descents if np.all(prob.eval_g(x, d.x) <= 1e-9)) + 1e-9
    # 16 rows at m = 4: 2380 systems, past the budget
    prob, x = desk_qp(4, 8, 1, concave=True)
    start = time.perf_counter()
    assert solve_value(prob, x).certificate == "heuristic-multistart"
    assert time.perf_counter() - start < 2.0


def test_spent_budget_hands_over_to_multistart():
    prob, x = desk_qp(8, 20, 0, box_in_g=False)
    start = time.perf_counter()
    res = solve_value(prob, x)
    assert time.perf_counter() - start < 2.0
    assert res.certificate == "heuristic-multistart"
    cons = {"type": "ineq", "fun": lambda y: -prob.eval_g(x, y), "jac": lambda y: -prob.jac_y_g(x, y)}
    best = min(minimize(lambda y: float(np.sum((y - x) ** 2)), y0, jac=lambda y: 2 * (y - x),
                        bounds=prob.y_box, constraints=[cons], method="SLSQP",
                        options={"maxiter": 200, "ftol": 1e-12}).fun
               for y0 in (np.zeros(8), np.clip(x, -1, 1)))
    assert res.value == pytest.approx(best, abs=1e-6)
