"""Second-order estimates: smooth sensitivities, the composed cases,
and the exact linear-program routes, all against hand-computed values."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from valfun import coderiv, firstorder, hessian, kernel, model, setcalc
from valfun.firstorder import danskin
from valfun.errors import CaseRoutingError, DegeneracyError, HypothesisError
from valfun.hessian import (
    HessianQuery,
    compute,
    hessian_single_lambda,
    hessian_single_s,
    hessian_single_single,
    hessian_unperturbed,
    lp_cost_parametric_data,
    lp_lhs_hessian,
    lp_lhs_rhs_hessian,
    lp_rhs_parametric_data,
    route,
    sensitivity_system,
)
from valfun.model import make_kkt
from valfun.reporting import ASSERTED, FAILED, NOT_CHECKED

from conftest import load_instance
from golden.capture import hessian_argv, run_cli


def _kkt(problem, point_name="base"):
    pt = problem.points[point_name]
    return make_kkt(problem, pt.x, pt.minimizers[0], pt.u)


# ---------------------------------------------------------------------------
# Smooth sensitivities
# ---------------------------------------------------------------------------


def test_sensitivity_active_linear_constraint():
    # minimizer rides the lower box face y = x - 2: unit solution slope,
    # constant multiplier
    res = sensitivity_system(load_instance("slide"), _kkt(load_instance("slide")))
    assert res.ds == pytest.approx(np.array([[1.0]]))
    assert res.du == pytest.approx(np.array([[0.0], [0.0]]))
    assert res.residual < 1e-12


def test_sensitivity_multiplier_slope():
    res = sensitivity_system(load_instance("shiftbox"), _kkt(load_instance("shiftbox")))
    assert res.ds == pytest.approx(np.array([[1.0]]))
    assert res.du == pytest.approx(np.array([[-2.0], [0.0]]))


def test_sensitivity_interior_curvature():
    res = sensitivity_system(
        load_instance("quarticshift"), _kkt(load_instance("quarticshift"))
    )
    assert res.ds == pytest.approx(np.array([[1.0]]), abs=1e-12)
    assert res.du == pytest.approx(np.array([[0.0]]))


def test_sensitivity_rejects_weak_activity():
    prob = load_instance("quadfit")
    kkt = _kkt(prob, "kink")
    with pytest.raises(DegeneracyError):
        sensitivity_system(prob, kkt)


def test_sensitivity_rejects_dependent_gradients():
    prob = load_instance("twoactive")
    pt = prob.points["base"]
    kkt = make_kkt(prob, pt.x, pt.minimizers[0], [1.0, 0.0])
    with pytest.raises(DegeneracyError):
        sensitivity_system(prob, kkt)


def test_sensitivity_reads_licq_off_the_partition():
    # two equal gradient rows, both active at tol_act = 1e-3 with positive
    # multipliers; at the default tolerance only the first is active, so
    # LICQ must be decided on the rows of the KKT point's own partition
    prob = model.parse_problem({"n": 1, "m": 1, "f": "(y1 - 2)^2 + x1*y1",
                                "g": ["y1 - 1", "y1 - 1 - 1/100000"]})
    kkt = make_kkt(prob, [0.0], [1.0], [2 - 5e-3, 5e-3], tol_kkt=1e-7, tol_act=1e-3)
    assert kkt.partition.nu == (0, 1)
    with pytest.raises(DegeneracyError, match="rank 1 of 2"):
        sensitivity_system(prob, kkt)


# ---------------------------------------------------------------------------
# Fixed feasible set
# ---------------------------------------------------------------------------


def test_unperturbed_smooth_single():
    # value function vanishes identically near the base point
    prob = load_instance("quadfit")
    est = hessian_unperturbed(prob, HessianQuery([0.3], [0.0], [1.0]))
    assert est.theorem == "unperturbed-smooth"
    assert est.equality
    assert est.result.member([0.0])
    assert not est.result.member([0.5])


def test_unperturbed_composed_constant_objective():
    # y-free objective: the branch composition still recovers the plain
    # second derivative of x^2
    prob = load_instance("constantobj")
    est = hessian_unperturbed(prob, HessianQuery([0.5], [1.0], [1.0]))
    assert est.theorem == "unperturbed-composed"
    assert est.result.member([2.0])


def test_unperturbed_selection_mode():
    # both maximum-magnitude minimizers carry the base gradient; their
    # smooth estimates agree on {0}
    prob = load_instance("multiSxfree")
    est = hessian_unperturbed(
        prob, HessianQuery([1.0], [-1.0], [1.0]), smode="multi"
    )
    assert est.theorem == "unperturbed-selection"
    assert est.result.member([0.0])
    assert not est.result.member([0.1])


def test_unperturbed_selection_needs_matching_gradient():
    prob = load_instance("multiSxfree")
    with pytest.raises(HypothesisError):
        hessian_unperturbed(prob, HessianQuery([1.0], [0.5], [1.0]), smode="multi")


def test_unperturbed_hull_mode():
    # base gradient strictly between the two objective gradients +-1
    prob = load_instance("bilinear1")
    est = hessian_unperturbed(
        prob, HessianQuery([0.0], [0.0], [1.0]), smode="caratheodory"
    )
    assert est.theorem == "unperturbed-hull"
    assert est.result.member([0.0])
    assert est.supports


# ---------------------------------------------------------------------------
# Unique minimizer, unique multiplier
# ---------------------------------------------------------------------------


def test_single_single_zero_curvature():
    prob = load_instance("slide")
    est = hessian_single_single(prob, HessianQuery([1.0], [1.0], [2.0]))
    assert est.theorem == "single-single-smooth"
    assert est.equality
    assert est.result.member([0.0])


def test_single_single_shifted_quadratic():
    prob = load_instance("shiftbox")
    est = hessian_single_single(prob, HessianQuery([1.0], [-2.0], [1.0]))
    assert est.equality
    assert est.result.member([2.0])
    assert not est.result.member([1.9])


def test_single_single_negative_curvature():
    prob = load_instance("quarticshift")
    est = hessian_single_single(prob, HessianQuery([0.0], [0.0], [1.5]))
    assert est.result.member([-3.0])


def test_single_single_cross_term():
    # phi(x1, x2) = -x1 x2: Hessian is the off-diagonal flip
    prob = load_instance("rhsbox")
    est = hessian_single_single(prob, HessianQuery([1.0, 3.0], [-3.0, -1.0], [1.0, 0.0]))
    assert est.equality
    assert est.result.member([0.0, -1.0])
    assert not est.result.member([0.0, 0.0])


def test_single_single_composed_at_degenerate_point():
    # weakly active box face: the smooth system is refused and the
    # branch composition covers both one-sided curvatures
    prob = load_instance("quadfit")
    est = hessian_single_single(prob, HessianQuery([1.0], [0.0], [1.0]))
    assert est.theorem == "single-single-composed"
    assert not est.equality
    assert est.result.member([0.0])
    assert est.result.member([2.0])
    failed = [h for h in est.hypotheses if h.name == "kkt-system-regular"]
    assert failed and failed[0].status == "failed"


# ---------------------------------------------------------------------------
# Multiplier polytope / several minimizers
# ---------------------------------------------------------------------------


def test_single_s_duplicated_rows_collapse():
    # value function is x along the duplicated active face; every
    # multiplier vertex and branch composition lands on zero curvature
    prob = load_instance("twoactive")
    est = hessian_single_s(prob, HessianQuery([0.0], [1.0], [1.0]))
    assert est.result.member([0.0])
    assert not est.result.member([0.5])
    assert not est.result.member([-0.5])
    names = [h.name for h in est.hypotheses]
    assert any(n.startswith("multiplier-vertex-union") for n in names)


def test_single_lambda_selection():
    # two symmetric minimizers share the Lagrangian gradient (-1, -2)
    # and the same curvature [[0, -2], [-2, -2]]
    prob = load_instance("multiS")
    est = hessian_single_lambda(prob, HessianQuery([1.0, 0.0], [-1.0, -2.0], [1.0, 0.0]))
    assert est.theorem == "single-lambda-selection"
    assert est.result.member([0.0, -2.0])
    assert not est.result.member([0.0, 0.0])


def test_single_lambda_second_column():
    prob = load_instance("multiS")
    est = hessian_single_lambda(prob, HessianQuery([1.0, 0.0], [-1.0, -2.0], [0.0, 1.0]))
    assert est.result.member([-2.0, -2.0])


def test_single_lambda_hull_mode():
    prob = load_instance("multiS")
    est = hessian_single_lambda(
        prob,
        HessianQuery([1.0, 0.0], [-1.0, -2.0], [1.0, 0.0]),
        mode="caratheodory",
    )
    assert est.theorem == "single-lambda-hull"
    assert est.result.member([0.0, -2.0])


@pytest.mark.parametrize("flags, status", [
    ({"concave_convex": True}, ASSERTED),
    ({"concave_convex": False}, FAILED),
    ({}, NOT_CHECKED),
])
def test_single_lambda_records_the_concave_convex_verdict(flags, status):
    # -x1*y1^2 is cubic, so the verdict is the flag's: a flag set to false
    # is a failed hypothesis, as in the danskin estimate
    prob = replace(load_instance("multiS"), flags=flags)
    est = hessian_single_lambda(prob, HessianQuery([1.0, 0.0], [-1.0, -2.0], [1.0, 0.0]))
    rec = next(h for h in est.hypotheses if h.name == "concave-convex-shape")
    assert rec.status == status
    free = replace(load_instance("multiSxfree"), flags=flags)
    cc = next(h for h in danskin(free, [1.0]).hypotheses if h.name == "concave-convex")
    assert cc.status == status


def test_single_lambda_selection_needs_match():
    prob = load_instance("multiS")
    with pytest.raises(HypothesisError):
        hessian_single_lambda(
            prob,
            HessianQuery([1.0, 0.0], [4.0, 4.0], [1.0, 0.0]),
            mode="selection",
        )


# ---------------------------------------------------------------------------
# Exact linear-program routes
# ---------------------------------------------------------------------------


def test_lp_objective_weights_linearity_region():
    # phi(x) = -|x|: linear around 0.5, so the second-order set is {0}
    est = lp_lhs_hessian(
        [[1], [-1]], [1, 1], HessianQuery([0.5], [-1.0], [1.0])
    )
    assert est.exact
    assert est.result.is_zero_singleton(tol=0.0)


def test_lp_objective_weights_vertex_point():
    A = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    b = [1, 1, 0, 0]
    est = lp_lhs_hessian(A, b, HessianQuery([1.0, 2.0], [0.0, 0.0], [1.0, 1.0]))
    assert est.result.is_zero_singleton(tol=0.0)


def test_lp_objective_weights_fan_point():
    # first weight zero: the minimizing face is an edge and the
    # second-order set fans out along the first coordinate
    A = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    b = [1, 1, 0, 0]
    est = lp_lhs_hessian(A, b, HessianQuery([0.0, 1.0], [0.0, 0.0], [0.0, 1.0]))
    assert est.result.member([0.0, 0.0])
    assert est.result.member([5.0, 0.0])
    assert est.result.member([-3.0, 0.0])
    assert not est.result.member([0.0, 0.5])
    lo, hi = est.result.coord_range(0)
    assert lo == -np.inf and hi == np.inf
    lo, hi = est.result.coord_range(1)
    assert lo == pytest.approx(0.0) and hi == pytest.approx(0.0)


def test_lp_objective_weights_rejects_bad_base():
    A = [[1], [-1]]
    with pytest.raises(HypothesisError):
        lp_lhs_hessian(A, [1, 1], HessianQuery([0.5], [2.0], [1.0]))  # infeasible
    with pytest.raises(HypothesisError):
        lp_lhs_hessian(A, [1, 1], HessianQuery([0.5], [1.0], [1.0]))  # not optimal


def test_lp_rhs_exact_zero():
    # phi(x) = -x2 for the split box: affine, second-order set {(0, 0)}
    est = lp_lhs_rhs_hessian([[1], [-1]], HessianQuery([2.0, 1.0], [0.0, -1.0], [1.0, 1.0]))
    assert est.exact
    assert est.result.member([0.0, 0.0])
    assert est.result.is_zero_singleton(tol=0.0)


def test_lp_rhs_cost_inference_matches_explicit():
    q = HessianQuery([2.0, 1.0], [0.0, -1.0], [1.0, 1.0])
    inferred = lp_lhs_rhs_hessian([[1], [-1]], q)
    explicit = lp_lhs_rhs_hessian([[1], [-1]], q, cost=[1])
    assert inferred.result.is_zero_singleton(tol=0.0)
    assert explicit.result.is_zero_singleton(tol=0.0)
    note = [h for h in inferred.hypotheses if h.name == "base-covector-multiplier"]
    assert note and "inferred" in note[0].detail


def test_lp_rhs_invalid_covector_gives_empty_set():
    # positive first slot means a negative pinned multiplier: no graph point
    q = HessianQuery([2.0, 1.0], [0.5, -1.0], [1.0, 1.0])
    est = lp_lhs_rhs_hessian([[1], [-1]], q)
    assert est.result.is_empty()
    rec = [h for h in est.hypotheses if h.name == "base-covector-multiplier"]
    assert rec and rec[0].status == "failed"


def test_lp_rhs_inconsistent_cost_gives_empty_set():
    q = HessianQuery([2.0, 1.0], [0.0, -1.0], [1.0, 1.0])
    est = lp_lhs_rhs_hessian([[1], [-1]], q, cost=[2])
    assert est.result.is_empty()


# ---------------------------------------------------------------------------
# Structure detection and dispatch
# ---------------------------------------------------------------------------


def test_structure_detection_tables():
    assert lp_cost_parametric_data(load_instance("bilinear1")) is not None
    assert lp_cost_parametric_data(load_instance("lp_box01")) is not None
    A, b = lp_cost_parametric_data(load_instance("lp_skew"))
    assert A.tolist() == [[2], [-1]] and b.tolist() == [1, 1]
    assert lp_cost_parametric_data(load_instance("quadfit")) is None
    assert lp_cost_parametric_data(load_instance("rhsbox")) is None

    A, cost = lp_rhs_parametric_data(load_instance("rhslp"))
    assert A.tolist() == [[1], [-1]] and cost.tolist() == [1]
    assert lp_rhs_parametric_data(load_instance("rhsbox")) is None
    assert lp_rhs_parametric_data(load_instance("bilinear1")) is None


@pytest.mark.parametrize("name, query, case", [
    ("lp_box01", ([1.0, 2.0], [0.0, 0.0], [1.0, 0.0]), "lp-lhs"),
    ("rhslp", ([2.0, 1.0], [0.0, -1.0], [1.0, 1.0]), "lp-lhs-rhs"),
])
def test_lp_form_probes_run_once_per_problem(monkeypatch, name, query, case):
    # each probe reads the derivative table once; later computes, routed
    # or with the case given, reuse its read-only answer
    prob = load_instance(name)
    reads, real = [], prob._dtable
    monkeypatch.setattr(prob, "_dtable", lambda: reads.append(1) or real())
    counts = []
    for given in ("auto", case, "auto", case):
        assert compute(prob, HessianQuery(*query, case=given)).case == case
        counts.append(len(reads))
    assert counts[0] > 0 and counts == counts[:1] * 4
    data = (lp_cost_parametric_data if case == "lp-lhs" else lp_rhs_parametric_data)(prob)
    assert not any(arr.flags.writeable for arr in data)


ROUTES = {
    "bilinear1": "lp-lhs",
    "bilinear2d": "lp-lhs",
    "degenlp": "lp-lhs",
    "lp_box01": "lp-lhs",
    "lp_simplex": "lp-lhs",
    "lp_skew": "lp-lhs",
    "rhslp": "lp-lhs-rhs",
    "quadfit": "unperturbed",
    "absmin": "unperturbed",
    "constantobj": "unperturbed",
    "multiSxfree": "unperturbed",
    "bilinear1_kink_has_no_entry": None,
}


@pytest.mark.parametrize(
    "name,expected",
    [(k, v) for k, v in ROUTES.items() if v is not None],
)
def test_route_by_structure(name, expected):
    case, _ = route(load_instance(name))
    assert case == expected


def test_route_with_query_counts_minimizers():
    prob = load_instance("rhsbox")
    case, info = route(prob, HessianQuery([1.0, 3.0], [-3.0, -1.0], [1.0, 0.0]))
    assert case == "single-single"
    prob = load_instance("twoactive")
    case, info = route(prob, HessianQuery([0.0], [1.0], [1.0]))
    assert case == "single-s"
    assert info["multiplier_counts"] == [2]
    prob = load_instance("multiS")
    case, info = route(prob, HessianQuery([1.0, 0.0], [-1.0, -2.0], [1.0, 0.0]))
    assert case == "single-lambda"


def test_compute_end_to_end_routes():
    # exact LP route straight from problem structure
    est = compute(load_instance("rhslp"), HessianQuery([2.0, 1.0], [0.0, -1.0], [1.0, 1.0]))
    assert est.case == "lp-lhs-rhs"
    assert est.result.is_zero_singleton(tol=0.0)
    # smooth general route with membership precheck logged
    est = compute(load_instance("shiftbox"), HessianQuery([1.0], [-2.0], [1.0]))
    assert est.case == "single-single"
    assert est.result.member([2.0])
    assert any(h.name == "base-gradient-membership" for h in est.hypotheses)


def test_compute_rejects_foreign_base_gradient():
    prob = load_instance("quadfit")
    with pytest.raises(HypothesisError):
        compute(prob, HessianQuery([0.3], [5.0], [1.0]))


def _pinned(g, x, y):
    return model.parse_problem({"n": 1, "m": 1, "f": "(y1 - x1)^2", "g": g,
                                "points": {"p": {"x": x, "minimizers": [y]}}})


@pytest.mark.parametrize("g, x, y, xund, mfcq", [
    # stationarity fails at an interior point: no multiplier, MFCQ holds
    (["y1 - 5"], [0.0], [0.0001], [-0.0002], "holds"),
    # the only feasible point has a zero active gradient: MFCQ fails
    (["y1^2"], [1.0], [0.0], [2.0], "fails"),
])
def test_compute_reports_mfcq_when_no_multiplier_exists(g, x, y, xund, mfcq):
    # the residual is |f_y| = 2 |y1 - x1| in both cases: no row is active in
    # the first, and in the second the active gradient is zero
    residual = {"holds": "0.0002", "fails": "2"}[mfcq]
    prob = _pinned(g, x, y)
    ctx = coderiv.PointContext(prob, x, y)
    assert ctx.mult.empty and ctx.mfcq.holds == (mfcq == "holds")
    with pytest.raises(HypothesisError) as exc:
        compute(prob, HessianQuery(x, xund, [1.0]))
    assert f"no u >= 0 meets stationarity at minimizer 0 (residual {residual});" in str(exc.value)
    assert f"MFCQ {mfcq} there" in str(exc.value)


@pytest.mark.parametrize("g, faces", [
    # a g row far from the minimizer: every box face through it is named
    (["y1 + y2 + y3 - 5"], "y_box faces y1 >= -1, y2 >= -1, y3 >= -1"),
    # an active g row whose gradient is no face normal implies no face
    (["-y1 - y2 - 2"], "y_box faces y1 >= -1, y2 >= -1, y3 >= -1"),
    # a g row repeating one face implies it: only the others are named
    (["-y1 - 1"], "y_box faces y2 >= -1, y3 >= -1"),
])
def test_box_corner_minimizer_names_the_box_face(g, faces):
    # a strictly concave QP is least at a corner of its y_box; box rows get
    # no multipliers, so the multiplier set is empty and the Hessian error
    # and the first-order record blame the box faces, not stationarity
    prob = model.parse_problem({"n": 1, "m": 3, "g": g, "y_box": [[-1, 1]] * 3,
                                "f": "-(y1^2 + y2^2 + y3^2) + x1*(y1 + 2*y2 + 3*y3)"})
    res = kernel.solve_value(prob, [1.0])
    assert res.certificate == "qp-exact"
    assert [list(y) for y in res.minimizers] == [[-1.0, -1.0, -1.0]]
    named = f"lies on the {faces}, which no row of g implies"
    with pytest.raises(HypothesisError) as exc:
        compute(prob, HessianQuery([1.0], [-6.0], [1.0]))
    assert str(exc.value).startswith(f"minimizer 0 {named}; box rows get no multipliers")
    assert str(exc.value).endswith("(residual 5)")
    est = firstorder.gauvin_dubeau(prob, [1.0], minimizers=res.minimizers)
    [rec] = [h for h in est.hypotheses if h.name == "kkt-multiplier-exists"]
    assert rec.status == FAILED
    assert rec.detail.startswith(f"no KKT multiplier at minimizer 0: it {named}")


def test_compute_rejects_mismatched_case():
    prob = load_instance("shiftbox")
    with pytest.raises(CaseRoutingError):
        compute(prob, HessianQuery([1.0], [-2.0], [1.0], case="unperturbed"))


def _count_point_calls(monkeypatch):
    """Calls per exact key within the test: ``kernel.multipliers`` and
    ``kernel.check_mfcq`` per (x, y), ``model.differentiate`` per (x, y, u),
    in every valfun module that binds them."""
    calls = Counter()

    def counted(module, name, nkey):
        real = getattr(module, name)

        def count(problem, *args, **kwargs):
            key = tuple(tuple(np.asarray(v, float).tolist()) for v in args[:nkey])
            calls[(name, key)] += 1
            return real(problem, *args, **kwargs)

        for mod in (coderiv, firstorder, hessian, kernel, model):
            if vars(mod).get(name) is real:
                monkeypatch.setattr(mod, name, count)

    counted(kernel, "multipliers", 2)
    counted(kernel, "check_mfcq", 2)
    counted(model, "differentiate", 3)
    return calls


def _no_repeats(calls):
    assert calls and {k: n for k, n in calls.items() if n > 1} == {}


@pytest.mark.parametrize("name, xbar, xund, case", [
    ("shiftbox", [1.0], [-2.0], "single-single"),
    ("multiS", [1.0, 0.0], [-1.0, -2.0], "single-lambda"),
])
def test_compute_enumerates_each_multiplier_set_once(monkeypatch, name, xbar, xund, case):
    # route's point contexts serve the first-order precheck and the case
    calls = _count_point_calls(monkeypatch)
    est = compute(load_instance(name), HessianQuery(xbar, xund, [1.0] + [0.0] * (len(xbar) - 1)))
    assert est.case == case
    _no_repeats(calls)


def _vector(text):
    return [float(v) for v in text.split(",")]


BATTERY_QUERIES = json.loads((Path(__file__).parent / "golden" / "hessian.json").read_text())


def _battery_queries(keep):
    """(instance, point, xund, xstar) of the battery queries whose route
    ``keep`` accepts."""
    return sorted({(q["instance"], q["point"], q["xund"], q["xstar"]) for q in BATTERY_QUERIES
                   if keep(route(load_instance(q["instance"]))[0])})


GENERAL_QUERIES = _battery_queries(lambda case: not case.startswith("lp-"))


@pytest.mark.parametrize("name, point, xund, xstar", GENERAL_QUERIES,
                         ids=["-".join(q) for q in GENERAL_QUERIES])
def test_battery_query_builds_each_point_once(monkeypatch, name, point, xund, xstar):
    # one compute: every multiplier set, MFCQ check and Lagrangian
    # evaluation is made once per point, whatever the case and its path
    prob = load_instance(name)
    calls = _count_point_calls(monkeypatch)
    compute(prob, HessianQuery(prob.points[point].x, _vector(xund), _vector(xstar)),
            branch_cap=200)
    _no_repeats(calls)


LP_LHS_QUERIES = _battery_queries(lambda case: case == "lp-lhs")


@pytest.mark.parametrize("name, point, xund, xstar", LP_LHS_QUERIES,
                         ids=["-".join(q) for q in LP_LHS_QUERIES])
def test_lp_lhs_branches_are_never_reduced(monkeypatch, name, point, xund, xstar):
    # branches at the zero covector are cones: the origin witnesses each
    # one nonempty, and nothing in the case reduces or enumerates them
    branches, real = [], coderiv.build_branch_family

    def record(*args, **kwargs):
        family = real(*args, **kwargs)
        branches.extend(family.branches)
        return family

    for mod in (coderiv, hessian):
        monkeypatch.setattr(mod, "build_branch_family", record)
    prob = load_instance(name)
    compute(prob, HessianQuery(prob.points[point].x, _vector(xund), _vector(xstar)),
            branch_cap=200)
    assert branches
    assert [br.label for br in branches
            if br.poly._reduction is not setcalc._UNSET or br.poly._decomp is not None] == []


def test_battery_decomposition_count(monkeypatch):
    # the 42 battery queries of the hessian command, coordinate ranges
    # included, decompose at most 260 polyhedra (404 when every branch
    # polyhedron was decomposed to test its emptiness)
    calls, real = [], setcalc.Polyhedron._decompose

    def count(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(setcalc.Polyhedron, "_decompose", count)
    for q in BATTERY_QUERIES:
        assert run_cli(hessian_argv(q["instance"], q["point"], q["xund"], q["xstar"]))[0] == 0
    assert len(BATTERY_QUERIES) == 42 and len(calls) <= 260


def test_estimates_scale_with_the_covector():
    # positive homogeneity spot-checks across three routes
    prob = load_instance("rhsbox")
    for t in (2.0, 0.5, 3.7):
        est = hessian_single_single(
            prob, HessianQuery([1.0, 3.0], [-3.0, -1.0], [t, 0.0])
        )
        assert est.result.member([0.0, -t])
    A = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    b = [1, 1, 0, 0]
    for t in (2.0, 0.5):
        est = lp_lhs_hessian(A, b, HessianQuery([0.0, 1.0], [0.0, 0.0], [0.0, t]))
        assert est.result.member([5.0, 0.0])
        assert not est.result.member([0.0, 0.5 * t])
