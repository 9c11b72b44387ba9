"""Finite-difference and brute-force oracles used to cross-check estimates."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from valfun import kernel
from valfun.kernel import solve_value
from valfun.model import parse_problem
from valfun.oracle import (
    ValueEvaluator,
    fd_directional,
    fd_gradient,
    fd_hessian,
    fd_solution_jacobian,
    graph_probe,
    lp_value_oracle,
    multiplier_vertices,
    track_solution,
)

from conftest import BATTERY, LP_COST_INTERIOR, load_instance


# ---------------------------------------------------------------------------
# Finite differences on hand-solved value functions
# ---------------------------------------------------------------------------


def test_value_evaluator_caches():
    prob = load_instance("absmin")
    phi = ValueEvaluator(prob)
    assert phi([0.5]) == pytest.approx(-0.125, abs=1e-9)
    assert phi([0.5]) == pytest.approx(-0.125, abs=1e-9)


def test_fd_gradient_on_smooth_quadratic_value():
    # phi(x) = -x^2/2 on |x| <= 1 for the damped bilinear instance
    prob = load_instance("absmin")
    rep = fd_gradient(prob, [0.5])
    assert rep.stable
    assert rep.value == pytest.approx([-0.5], abs=1e-6)


def test_fd_hessian_on_smooth_quadratic_value():
    prob = load_instance("absmin")
    rep = fd_hessian(prob, [0.5])
    assert rep.stable
    assert rep.value == pytest.approx(np.array([[-1.0]]), abs=1e-4)


def test_fd_directional_is_one_sided_at_kinks():
    # phi(x) = -|x|: both one-sided slopes at 0 equal -1
    prob = load_instance("bilinear1")
    plus = fd_directional(prob, [0.0], [1.0])
    minus = fd_directional(prob, [0.0], [-1.0])
    assert plus.value[0] == pytest.approx(-1.0, abs=1e-6)
    assert minus.value[0] == pytest.approx(-1.0, abs=1e-6)


def test_fd_gradient_flags_kink_instability():
    prob = load_instance("bilinear1")
    rep = fd_gradient(prob, [0.0], consistency_tol=1e-8)
    # central differences cancel the kink; the halving check must notice
    # the mismatch against one-sided behavior or return exactly 0 unstably;
    # either way the report cannot claim a stable classical gradient with
    # a tight tolerance unless the spread is genuinely tiny
    if rep.stable:
        # a symmetric kink yields 0 by cancellation; accept only that value
        assert rep.value == pytest.approx([0.0], abs=1e-9)


def test_fd_hessian_2d_cross_terms():
    # phi(x) = -x1*x2 near (1,3) for the two-sided interval instance
    prob = load_instance("rhsbox")
    rep = fd_hessian(prob, [1.0, 3.0], h=1e-3)
    assert rep.stable
    assert rep.value == pytest.approx(np.array([[0.0, -1.0], [-1.0, 0.0]]), abs=1e-5)


#: (instance, x, fd_gradient, fd_hessian) at the first named point and at
#: that point moved by 3/4096, as computed when phi came from
#: ``kernel.solve_value`` and its local SLSQP descents (multistart off
#: the pins, the exact LP path on lp_skew).
FD_REFERENCE = [
    ("absmin", [0.5], [-0.5000000000009627], [[-0.9999999998205888]]),
    ("absmin", [0.500732421875], [-0.5007324218773516], [[-1.0000000000380076]]),
    ("quad2d", [0.5, -0.5], [-0.3333333333327415, 0.3333333877669764],
     [[-0.1333333332539007, 0.5333332684584469], [0.5333332684584469, -0.1333333493151271]]),
    ("quad2d", [0.500732421875, -0.499267578125], [-0.3330403645834812, 0.33362635641539146],
     [[-0.1333333446521904, 0.5333333337071792], [0.5333333337071792, -0.13333334464293856]]),
    ("quarticshift", [0.0], [-4.3082323570470185e-22], [[-1.9999999999920002]]),
    ("quarticshift", [0.000732421875], [-0.0014648421783982366], [[-1.9999935627394827]]),
    ("lp_skew", [0.7], [-1.000000000010252], [[0.0]]),
    ("lp_skew", [0.700732421875], [-1.000000000010252], [[0.0]]),
]


def test_fd_oracles_evaluate_phi_without_the_inner_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the inner solve it checks")

    for name in ("solve_value", "_local_solve", "minimize"):
        monkeypatch.setattr(kernel, name, refuse)
    for name, x, grad, hess in FD_REFERENCE:
        prob = load_instance(name)
        assert fd_gradient(prob, x).value == pytest.approx(np.array(grad), abs=1e-9), (name, x)
        assert fd_hessian(prob, x).value == pytest.approx(np.array(hess), abs=1e-9), (name, x)


# ---------------------------------------------------------------------------
# Exact LP oracle vs the solver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,point", LP_COST_INTERIOR)
def test_lp_oracle_matches_solver_at_base_points(name, point):
    prob = load_instance(name)
    xq = [Fraction(v).limit_denominator(10**6) for v in prob.points[point].x]
    val, argmins = lp_value_oracle(prob, xq)
    res = solve_value(prob, xq, rational=True)
    assert val is not None
    assert val == res.value_exact
    assert argmins


def test_lp_oracle_exact_rational():
    prob = load_instance("lp_skew")
    val, argmins = lp_value_oracle(prob, [Fraction(1, 3)])
    # min over y in [-1, 1/2] of y/3 is attained at y = -1
    assert val == Fraction(-1, 3)
    assert argmins == [[Fraction(-1)]]


def test_lp_oracle_honours_y_box():
    prob = parse_problem({"n": 1, "m": 1, "f": "-y1", "g": ["y1 - 5"], "y_box": [[0, 1]]})
    assert lp_value_oracle(prob, [Fraction(0)]) == (Fraction(-1), [[Fraction(1)]])


def test_lp_oracle_reports_ties():
    prob = load_instance("bilinear1")
    val, argmins = lp_value_oracle(prob, [Fraction(0)])
    assert val == 0
    assert sorted(v[0] for v in argmins) == [Fraction(-1), Fraction(1)]


# ---------------------------------------------------------------------------
# Path tracking
# ---------------------------------------------------------------------------


def test_track_solution_smooth_path():
    prob = load_instance("absmin")
    tr = track_solution(prob, [0.5], [1.0])
    assert not tr.truncated
    assert len(tr.ts) == 7
    # minimizer y(x) = -x moves with slope -1
    slope = (tr.ys[-1][0] - tr.ys[0][0]) / (tr.ts[-1] - tr.ts[0])
    assert slope == pytest.approx(-1.0, abs=1e-4)


def test_track_solution_truncates_on_active_set_change():
    prob = load_instance("quadfit")
    # the constraint y <= 1 activates exactly at x = 1
    tr = track_solution(prob, [1.0 - 2e-5], [1.0], steps=4, h=1e-5)
    assert tr.truncated
    assert tr.reason in ("active-set change", "minimizer jump")


def test_fd_solution_jacobian_slide():
    prob = load_instance("slide")
    ds, du, ok = fd_solution_jacobian(prob, [1.0])
    assert ok
    assert ds == pytest.approx(np.array([[1.0]]), abs=1e-6)
    assert du == pytest.approx(np.array([[0.0], [0.0]]), abs=1e-6)


def test_fd_solution_jacobian_quartic():
    prob = load_instance("quarticshift")
    ds, du, ok = fd_solution_jacobian(prob, [0.0])
    assert ok
    assert ds == pytest.approx(np.array([[1.0]]), abs=1e-4)


# ---------------------------------------------------------------------------
# Graph probing
# ---------------------------------------------------------------------------


def test_graph_probe_solution_points_feasible():
    prob = load_instance("shiftbox")
    pts = graph_probe(prob, "S", [1.0], radius=1e-3, count=10)
    assert pts
    for x, y in pts:
        assert np.all(prob.eval_g(x, y) <= 1e-7)


def test_graph_probe_multiplier_points_valid():
    prob = load_instance("shiftbox")
    pts = graph_probe(prob, "lambda", [1.0], radius=1e-3, count=10)
    assert pts
    for x, y, u in pts:
        assert np.all(u >= -1e-9)


def test_graph_probe_value_points():
    prob = load_instance("slide")
    pts = graph_probe(prob, "phi", [1.0], radius=1e-4, count=5)
    for x, v in pts:
        assert v == pytest.approx(x[0] - 2.0, abs=1e-9)


def test_graph_probe_finds_both_concave_branches(no_inner_solve):
    prob = load_instance("multiS")  # minimizers +-(1 + x2) for x1 > 0
    pts = graph_probe(prob, "S", [1.0, 0.0], radius=1e-3, count=5)
    xs = {tuple(x) for x, _ in pts}
    assert len(xs) == 5 and len(pts) == 10
    for x in xs:
        ys = sorted(float(y[0]) for xx, y in pts if tuple(xx) == x)
        assert ys == pytest.approx([-(1 + x[1]), 1 + x[1]], abs=1e-6)


@pytest.mark.parametrize("name", BATTERY)
def test_multiplier_vertices_match_the_kernel_at_pinned_points(name):
    prob = load_instance(name)
    for pt in prob.points.values():
        for y in pt.minimizers or []:
            want = [u.tolist() for u in kernel.multipliers(prob, pt.x, y).vertices]
            got = multiplier_vertices(prob, pt.x, y)
            assert len(got) == len(want)
            for u, v in zip(got, sorted(want)):
                assert u == pytest.approx(v, abs=1e-9)


@pytest.fixture
def no_inner_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the code it checks")

    for name in ("solve_value", "multipliers", "_local_solve", "minimize"):
        monkeypatch.setattr(kernel, name, refuse)


@pytest.mark.parametrize("check", [
    test_graph_probe_solution_points_feasible,
    test_graph_probe_multiplier_points_valid,
    test_graph_probe_value_points,
    test_track_solution_smooth_path,
    test_track_solution_truncates_on_active_set_change,
], ids=lambda f: f.__name__)
def test_probes_and_tracks_run_without_the_inner_solve(check, no_inner_solve):
    check()
