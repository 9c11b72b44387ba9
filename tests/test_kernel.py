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
from valfun.oracle import lp_value_oracle, slsqp_descent
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
    # solve_value answers this strictly concave problem exactly; the
    # heuristic path is called directly
    prob = load_instance("multiSxfree")
    res = kernel._solve_multistart(prob, [0.8])
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


INFEASIBLE_MESSAGE = ("no feasible point at this parameter; the model assumes a nonempty "
                      "feasible set wherever the value function is queried")


BOXED = {"n": 1, "m": 1, "g": ["y1 - x1 + 10"], "y_box": [[-1, 1]]}


@pytest.mark.parametrize("spec", [
    # the LP scan, the convex KKT walk and the strictly concave vertex scan
    {**BOXED, "f": "y1"}, {**BOXED, "f": "(y1 - x1)^2"}, {**BOXED, "f": "-(y1 - x1)^2"},
    # the LP scan on a set with a lineality direction: 0 <= y1 + y2 <= -1
    {"n": 1, "m": 2, "f": "x1*(y1 + y2)", "g": ["y1 + y2 + 1", "-y1 - y2"]},
], ids=["y1", "(y1 - x1)^2", "-(y1 - x1)^2", "lineality"])
def test_every_exact_path_reports_an_empty_feasible_set_alike(spec):
    prob = parse_problem(spec)
    with pytest.raises(InfeasibleParameterError) as err:
        solve_value(prob, [0.0])
    assert str(err.value) == INFEASIBLE_MESSAGE


def test_whole_space_lp():
    # no g rows and no y_box: bounded only where the cost in y vanishes,
    # and then every y is a minimizer
    prob = parse_problem({"n": 2, "m": 2, "f": "x1*y1 + x2", "g": []})
    with pytest.raises(UnboundedProblemError, match="unbounded below"):
        solve_value(prob, [0.5, 0.0])
    res = solve_value(prob, [Fraction(0), Fraction(3, 4)], rational=True)
    assert res.certificate == "lp-exact" and res.non_singleton
    assert (res.value_exact, res.minimizers_exact) == (Fraction(3, 4), [[0, 0]])
    assert res.value == 0.75 and res.minimizers[0].tolist() == [0.0, 0.0]


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


def test_lp_path_honours_y_box():
    spec = {"n": 1, "m": 1, "f": "-y1", "g": ["y1 - 5"], "y_box": [[0, 1]]}
    res = solve_value(parse_problem(spec), [0.0], rational=True)
    assert res.certificate == "lp-exact"
    assert (res.value_exact, res.minimizers_exact) == (-1, [[1]])
    # a small curvature moves the problem off the LP path, not off the box
    res = solve_value(parse_problem({**spec, "f": "-y1 + y1^2/1000"}), [0.0])
    assert res.value == pytest.approx(-0.999, abs=1e-12)
    assert res.minimizers[0] == pytest.approx([1.0], abs=1e-12)


def test_rank_deficient_x_free_lp_falls_back_at_every_x():
    # y2 is in no constraint: without the y_box rows the feasible set has
    # a lineality direction, along which the value stays
    spec = {"n": 1, "m": 2, "f": "x1*y1", "g": ["y1 - 1", "-y1 - 1"]}
    boxed = parse_problem({**spec, "y_box": [[-2, 2], [-1, 1]]})
    unboxed = parse_problem(spec)
    for x in ([0.5], [-0.25], [0.75]):
        for prob in (boxed, unboxed):
            res = solve_value(prob, x)
            assert res.certificate == "lp-exact"
            assert res.value == -abs(x[0])
            assert res.non_singleton
            assert res.under_enumerated == (prob is unboxed)


# (spec, x, value, minimizers) of LPs whose minimizer set is unbounded: a
# lineality direction, then a ray, along which the value stays
UNBOUNDED_FACES = [
    ({"n": 1, "m": 2, "f": "x1*(y1 + y2)", "g": ["-y1 - y2"]}, 1, 0, [[0, 0]]),
    ({"n": 1, "m": 2, "f": "x1*y1", "g": ["-y1", "-y2 - x1"]}, 1, 0, [[0, -1]]),
]


@pytest.mark.parametrize("spec, x, value, mins", UNBOUNDED_FACES)
def test_lp_with_an_unbounded_minimizer_set_is_sampled_and_flagged(spec, x, value, mins):
    res = solve_value(parse_problem(spec), [Fraction(x)], rational=True)
    assert res.certificate == "lp-exact"
    assert (res.value_exact, res.minimizers_exact) == (value, mins)
    assert res.non_singleton and res.under_enumerated


def test_exact_paths_report_exact_fields_without_a_rational_request():
    for name, x in (("lp_skew", [-0.5]), ("quad2d", [0.25, -0.5]), ("multiSxfree", [0.8])):
        prob = replace(load_instance(name), points={})
        res = solve_value(prob, x)
        assert res.certificate in ("lp-exact", "qp-exact")
        assert res.value == float(res.value_exact)
        assert [y.tolist() for y in res.minimizers] == [
            [float(v) for v in y] for y in res.minimizers_exact]


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
            want = slsqp_descent(prob, x, y0)
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


@pytest.mark.parametrize("in_cone", [True, False])
def test_stationarity_residual_is_one_nnls_solve(monkeypatch, in_cone):
    # 14 active rows in m = 8: every support of up to 8 rows would take
    # 12,910 least-squares solves; one NNLS takes a few per row
    from scipy.optimize import nnls

    rng = np.random.default_rng(5)
    G = rng.integers(-2, 3, size=(8, 14)).astype(float)
    u = np.where(rng.random(14) < 0.5, rng.integers(1, 4, size=14), 0)
    fy = -(G @ u) if in_cone else rng.integers(-3, 4, size=8).astype(float)
    lin = lambda coef: " + ".join(f"({c:g})*y{j + 1}" for j, c in enumerate(coef))
    prob = parse_problem({"n": 1, "m": 8, "f": lin(fy) + " + x1*y1",
                          "g": [lin(row) for row in G.T]})
    mult = kernel.MultiplierPolyhedron(x=np.zeros(1), y=np.zeros(8), poly=Polyhedron(0),
                                       active=tuple(range(14)))
    calls, real = [], np.linalg.lstsq

    def count(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", count)
    residual = kernel.stationarity_residual(prob, mult)
    v = nnls(G, -fy)[0]
    assert residual == pytest.approx(np.max(np.abs(G @ v + fy)), abs=1e-9)
    assert (residual < 1e-9) == in_cone
    assert 0 < len(calls) <= 3 * 14


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
