"""Lower-level solving: value/minimizers, multiplier polytopes, CQ checks."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from valfun import kernel
from valfun.errors import (
    EvaluationError,
    InfeasibleParameterError,
    ProblemFormatError,
    UnboundedProblemError,
)
from valfun.kernel import (
    check_licq,
    check_mfcq,
    materialize_lp,
    multipliers,
    solve_value,
)
from valfun.model import parse_problem
from valfun.oracle import lp_value_oracle
from valfun.setcalc import Polyhedron

from conftest import BATTERY, load_instance


def _close_to_one_of(y, candidates, tol=1e-6):
    return any(np.allclose(y, c, atol=tol) for c in candidates)


# ---------------------------------------------------------------------------
# solve_value
# ---------------------------------------------------------------------------


def test_lp_exact_unique_vertex():
    prob = load_instance("lp_box01")
    res = solve_value(prob, [1.0, 2.5])  # no pinned point here
    assert res.certificate == "lp-exact"
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert len(res.minimizers) == 1
    assert res.minimizers[0] == pytest.approx([0.0, 0.0])
    assert not res.non_singleton


def test_lp_exact_optimal_edge():
    # one vanishing cost coordinate: the whole edge y2=0 is optimal
    prob = load_instance("lp_box01")
    res = solve_value(prob, [0.0, 0.5])
    assert res.non_singleton
    assert res.value == pytest.approx(0.0, abs=1e-12)
    for v in ([0.0, 0.0], [1.0, 0.0]):
        assert _close_to_one_of(v, res.minimizers)


def test_lp_exact_rational_value():
    prob = load_instance("lp_skew")  # y in [-1, 1/2]
    res = solve_value(prob, [Fraction(-2, 3)], rational=True)
    assert res.value_exact == Fraction(-1, 3)  # -2/3 * 1/2
    assert res.minimizers_exact is not None
    assert res.minimizers_exact[0][0] == Fraction(1, 2)


def test_multistart_finds_both_minimizers():
    prob = load_instance("multiSxfree")
    res = solve_value(prob, [0.8])  # away from the pinned point
    assert res.certificate == "heuristic-multistart"
    assert res.value == pytest.approx(-0.8, abs=1e-8)
    assert len(res.minimizers) == 2
    assert _close_to_one_of([1.0], res.minimizers, tol=1e-5)
    assert _close_to_one_of([-1.0], res.minimizers, tol=1e-5)


def test_multistart_requires_box():
    prob = parse_problem({"n": 1, "m": 1, "f": "(y1 - x1)^2", "g": []})
    with pytest.raises(ProblemFormatError):
        solve_value(prob, [0.0])


def test_infeasible_parameter_raises():
    prob = parse_problem(
        {"n": 1, "m": 1, "f": "y1", "g": ["y1 - x1 + 10", "-y1 - 1"]}
    )
    with pytest.raises(InfeasibleParameterError):
        solve_value(prob, [0.0])


def test_pinned_points_short_circuit():
    prob = load_instance("multiS")
    res = solve_value(prob, [1.0, 0.0])
    assert res.certificate == "user-pinned"
    assert len(res.minimizers) == 2
    assert res.value == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("name", BATTERY)
def test_pinned_values_agree_with_solver(name):
    """Every pinned minimizer attains the solved optimal value."""
    prob = load_instance(name)
    for pname, pt in prob.points.items():
        res = solve_value(prob, pt.x)
        for y in pt.minimizers:
            fval = prob.eval_f(pt.x, y)
            assert fval == pytest.approx(res.value, rel=1e-6, abs=1e-6), (
                f"{name}:{pname}"
            )


def _count_decompositions(monkeypatch):
    seen = []
    real = Polyhedron._decompose

    def counted(self):
        seen.append(self)
        return real(self)

    monkeypatch.setattr(Polyhedron, "_decompose", counted)
    return seen


@pytest.mark.parametrize("name, point, per_x", [
    ("lp_box01", "vertex", False), ("rhsbox", "base", True)])
def test_lp_feasible_set_decomposed_once_per_problem(monkeypatch, name, point, per_x):
    # lp_box01's constraints never mention x, rhsbox's do
    prob = load_instance(name)
    seen = _count_decompositions(monkeypatch)
    xs = [[Fraction(v) + Fraction(k, 64) for v in prob.points[point].x] for k in (1, -3, 5)]
    for x in xs:
        res = solve_value(prob, np.array(x, dtype=object), rational=True)
        assert res.certificate == "lp-exact"
        assert res.value_exact == lp_value_oracle(prob, x)[0]
    assert len(seen) == (len(xs) if per_x else 1)


def test_rank_deficient_x_free_lp_falls_back_at_every_x():
    # y2 is in no constraint: the feasible set has no vertex
    spec = {"n": 1, "m": 2, "f": "x1*y1", "g": ["y1 - 1", "-y1 - 1"]}
    boxed = parse_problem({**spec, "y_box": [[-2, 2], [-1, 1]]})
    unboxed = parse_problem(spec)
    for x in ([0.5], [-0.25], [0.75]):
        res = solve_value(boxed, x)
        assert res.certificate == "heuristic-multistart"
        assert res.value == pytest.approx(-abs(x[0]))
        with pytest.raises(UnboundedProblemError, match="no vertices"):
            solve_value(unboxed, x)


def test_multistart_raises_at_a_pole_on_the_grid():
    prob = parse_problem({"n": 1, "m": 1, "f": "1/(y1 - x1)", "g": [], "y_box": [[-1, 1]]})
    assert any(np.array_equal(y0, [0.0]) for y0 in kernel._grid_starts(prob))
    with pytest.raises(EvaluationError, match="division by zero while evaluating"):
        solve_value(prob, [0.0])


def test_materialize_lp_freezes_parameter():
    prob = load_instance("slide")
    lp = materialize_lp(prob, [Fraction(1)])
    assert lp.c == [Fraction(1)]
    assert lp.b == [Fraction(1), Fraction(1)]  # y <= x, -y <= 2 - x


# ---------------------------------------------------------------------------
# SLSQP local solves
# ---------------------------------------------------------------------------


def test_local_solve_passes_one_vector_constraint(monkeypatch):
    seen = []
    real = kernel.minimize

    def record(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, "minimize", record)
    quad = load_instance("quad2d")
    x = quad.points["base"].x
    kernel._local_solve(quad, x, np.zeros(2))
    free = parse_problem({"n": 1, "m": 1, "f": "(y1 - x1)^2", "g": [], "y_box": [[-1, 1]]})
    kernel._local_solve(free, [0.5], np.zeros(1))
    cons, none = seen
    # one callable for all p rows, none per row
    assert "ieqcons" not in cons and "eqcons" not in cons
    y = np.array([0.25, -0.5])
    assert np.array_equal(cons["f_ieqcons"](y), -quad.eval_g(x, y))
    assert cons["f_ieqcons"](y).shape == (quad.p,)
    assert np.array_equal(cons["fprime_ieqcons"](y), -quad.jac_y_g(x, y))
    assert cons["fprime_ieqcons"](y).shape == (quad.p, quad.m)
    assert not {"ieqcons", "eqcons", "f_ieqcons", "f_eqcons"} & none.keys()


def _scalar_callback_solve(prob, x, y0):
    """One SLSQP descent with a scalar callback per constraint and per
    entry, each evaluating one expression."""
    from scipy.optimize import minimize

    x = np.atleast_1d(np.asarray(x, float))
    fy = [prob.f.diff("y", k) for k in range(prob.m)]
    gy = [[gi.diff("y", k) for k in range(prob.m)] for gi in prob.g]
    cons = [
        {
            "type": "ineq",
            "fun": lambda y, i=i: -prob.eval_expr(prob.g[i], x, y),
            "jac": lambda y, i=i: -np.array([prob.eval_expr(e, x, y) for e in gy[i]], float),
        }
        for i in range(prob.p)
    ]
    res = minimize(
        lambda y: prob.eval_expr(prob.f, x, y),
        np.asarray(y0, float),
        jac=lambda y: np.array([prob.eval_expr(e, x, y) for e in fy], float),
        bounds=prob.y_box,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-12},
    )
    if not res.success and res.status != 8:
        return None
    return np.clip(res.x, [lo for lo, _ in prob.y_box], [hi for _, hi in prob.y_box])


@pytest.mark.parametrize("name, point", [
    ("quad2d", "base"), ("quarticshift", "base"), ("bilinear2d", "interior"),
    ("absmin", "base"), ("multiS", "base"), ("quadfit", "kink"), ("shiftbox", "base"),
    ("twoactive", "base")])
def test_local_solve_matches_scalar_callbacks_bit_for_bit(name, point):
    prob = load_instance(name)
    if prob.y_box is None:
        prob = replace(prob, y_box=[(-2.0, 2.0)] * prob.m)
    base = prob.points[point].x
    for x in (base, base + 3 / 4096):
        for y0 in kernel._grid_starts(prob):
            got = kernel._local_solve(prob, x, y0)
            want = _scalar_callback_solve(prob, x, y0)
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want), (x, y0, got, want)


# ---------------------------------------------------------------------------
# Multiplier polytopes
# ---------------------------------------------------------------------------


def test_multipliers_unique():
    prob = load_instance("shiftbox")
    mult = multipliers(prob, [1.0], [1.0])
    assert not mult.empty
    assert mult.is_singleton()
    assert mult.vertices[0] == pytest.approx([2.0, 0.0], abs=1e-9)
    assert mult.active == (0,)


def test_multipliers_segment_vertices():
    prob = load_instance("twoactive")
    mult = multipliers(prob, [0.0], [0.0])
    assert len(mult.vertices) == 2
    vs = sorted(tuple(round(float(c), 9) for c in v) for v in mult.vertices)
    assert vs == [(0.0, 0.5), (1.0, 0.0)]
    assert not mult.is_singleton()


def test_multipliers_empty_when_no_stationarity():
    # at a non-critical feasible point no valid multiplier exists
    prob = load_instance("quadfit")
    mult = multipliers(prob, [0.3], [0.9])
    assert mult.empty


def test_multipliers_unconstrained_problem():
    prob = parse_problem({"n": 1, "m": 1, "f": "(y1 - x1)^2", "g": [],
                          "y_box": [[-2.0, 2.0]]})
    mult = multipliers(prob, [0.5], [0.5])
    assert not mult.empty
    assert mult.vertices[0].shape == (0,)
    mult = multipliers(prob, [0.5], [1.0])  # gradient does not vanish
    assert mult.empty


def test_degenerate_lp_multiplier_vertices():
    prob = load_instance("degenlp")
    mult = multipliers(prob, [-0.5], [1.0])
    vs = sorted(tuple(round(float(c), 9) for c in v) for v in mult.vertices)
    assert vs == [(0.0, 0.25, 0.0), (0.5, 0.0, 0.0)]


# ---------------------------------------------------------------------------
# Constraint qualifications
# ---------------------------------------------------------------------------


def test_licq_holds_on_clean_activity():
    prob = load_instance("shiftbox")
    rep = check_licq(prob, [1.0], [1.0])
    assert rep.holds and rep.active == (0,)


def test_licq_fails_on_duplicated_rows_but_mfcq_holds():
    prob = load_instance("twoactive")
    licq = check_licq(prob, [0.0], [0.0])
    mfcq = check_mfcq(prob, [0.0], [0.0])
    assert not licq.holds
    assert mfcq.holds
    assert mfcq.witness is not None
    lag_dirs = prob.jac_y_g([0.0], [0.0]) @ mfcq.witness
    assert np.all(lag_dirs[list(mfcq.active)] < 0)


def test_licq_implies_singleton_multiplier():
    """Wherever LICQ holds at a KKT point, the multiplier set is a point."""
    for name in BATTERY:
        prob = load_instance(name)
        for pt in prob.points.values():
            for y in pt.minimizers:
                rep = check_licq(prob, pt.x, y)
                if not rep.holds:
                    continue
                mult = multipliers(prob, pt.x, y)
                if mult.empty:
                    continue
                assert mult.is_singleton(), name


def test_licq_implies_mfcq_battery():
    for name in BATTERY:
        prob = load_instance(name)
        for pt in prob.points.values():
            for y in pt.minimizers:
                licq = check_licq(prob, pt.x, y)
                if licq.holds:
                    assert check_mfcq(prob, pt.x, y).holds, name
