"""Branch families and coderivative estimates for the multiplier and
solution maps, checked against hand-derived sets."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from valfun import coderiv
from valfun.coderiv import (
    FiniteGeneratorMap,
    build_branch_family,
    branch_family,
    check_cq_lambda,
    coderivative_S,
    coderivative_lambda,
    hull_coderivative,
)
from valfun.errors import BranchCapError, HypothesisError
from valfun.firstorder import convex_mfcq_subdiff
from valfun.model import Partition, make_kkt, parse_problem
from valfun.reporting import ASSERTED, FAILED, VERIFIED
from valfun.setcalc import Piece, PolySet

from conftest import load_instance


def _kkt(problem, point_name="base"):
    pt = problem.points[point_name]
    return make_kkt(problem, pt.x, pt.minimizers[0], pt.u)


# ---------------------------------------------------------------------------
# Branch families
# ---------------------------------------------------------------------------


def test_family_no_zero_multiplier_active_rows():
    # box rows (y-1, -y-1), lower row strongly active: the family is the
    # line {a = u*_2 on the second row, first covector component zero}
    prob = load_instance("bilinear1")
    kkt = _kkt(prob, "right")
    assert kkt.partition.nu == (1,) and kkt.partition.eta == (0,)
    fam = branch_family(prob, kkt, [0.0, 0.0])
    assert len(fam.branches) == 1
    poly = fam.branches[0].poly
    for z in ([0.0, 0.0, 0.0], [0.0, 0.0, 5.0], [0.0, 0.0, -3.0]):
        assert poly.contains_point(z)
    assert not poly.contains_point([1.0, 0.0, 0.0])
    assert not poly.contains_point([0.0, 1.0, 0.0])


def test_family_shared_rows_with_nonzero_covector():
    prob = load_instance("bilinear1")
    kkt = _kkt(prob, "right")
    fam = branch_family(prob, kkt, [0.0, 0.7])
    poly = fam.branches[0].poly
    # second row gradient is -1: -a = -0.7 pins a = 0.7; c_1 = 0
    assert poly.contains_point([0.7, 0.0, 2.0])
    assert not poly.contains_point([0.0, 0.0, 2.0])


def test_family_three_branch_split_on_degenerate_row():
    # one active constraint with zero multiplier splits three ways
    fam = build_branch_family(
        np.array([[-1.0]]), Partition(eta=(), theta=(0,), nu=()), np.array([0.0])
    )
    labels = {br.label for br in fam.branches}
    assert labels == {"g1:c0", "g1:E0", "g1:pos"}
    by_label = {br.label: br.poly for br in fam.branches}
    assert by_label["g1:c0"].contains_point([3.0, 0.0])
    assert not by_label["g1:c0"].contains_point([3.0, 0.1])
    assert by_label["g1:E0"].contains_point([0.0, 4.0])
    assert not by_label["g1:E0"].contains_point([0.1, 4.0])
    # strict branch: -a > 0 and c > 0, stored closed with open flags
    assert by_label["g1:pos"].contains_point([-1.0, 1.0], honor_open=True)
    assert by_label["g1:pos"].contains_point([0.0, 1.0])  # closure only
    assert not by_label["g1:pos"].contains_point([0.0, 1.0], honor_open=True)


def test_family_zero_covector_contains_origin():
    for name, pname in (("bilinear1", "kink"), ("quadfit", "edge"), ("rhsbox", "base")):
        prob = load_instance(name)
        kkt = _kkt(prob, pname)
        fam = branch_family(prob, kkt, np.zeros(prob.p))
        origin = np.zeros(fam.dim)
        assert any(br.poly.contains_point(origin) for br in fam.branches), name


def test_family_inconsistent_covector_is_empty():
    # duplicated active rows cannot match distinct covector components
    fam = build_branch_family(
        np.array([[1.0], [1.0]]),
        Partition(eta=(), theta=(), nu=(0, 1)),
        np.array([0.0, 0.0]),
        branch_cap=8,
    )
    assert len(fam.branches) == 1
    fam2 = build_branch_family(
        np.array([[1.0], [1.0]]),
        Partition(eta=(), theta=(), nu=(0, 1)),
        np.array([1.0, 2.0]),
    )
    assert fam2.branches == []


def test_family_cap_names_theta_size():
    part = Partition(eta=(), theta=(0, 1, 2), nu=())
    with pytest.raises(BranchCapError) as exc:
        build_branch_family(np.eye(3), part, np.zeros(3), branch_cap=8)
    assert "27" in str(exc.value) and "theta" in str(exc.value)
    fam = build_branch_family(np.eye(3), part, np.zeros(3), branch_cap=27)
    assert fam.branches  # enumerates once the cap allows it


def test_relaxed_flavor_contains_strict_flavor_piecewise(rng):
    # the two-case split must cover every three-case branch pointwise
    prob = load_instance("quadfit")
    kkt = _kkt(prob, "kink")
    assert kkt.partition.theta == (0,)
    ustar = np.array([0.5, 0.0])
    fam_m = branch_family(prob, kkt, ustar, flavor="M")
    fam_c = branch_family(prob, kkt, ustar, flavor="C")
    dim = fam_m.dim
    cover = PolySet(
        dim,
        # identity pieces turn the branch polyhedra into one point set
        [Piece(br.poly, np.eye(dim), np.zeros(dim), br.label) for br in fam_c.branches],
    )
    for br in fam_m.branches:
        single = PolySet(
            dim, [Piece(br.poly, np.eye(dim), np.zeros(dim), br.label)]
        )
        for z in single.sample_points(20, rng):
            assert cover.member(z, tol=1e-7), br.label


# ---------------------------------------------------------------------------
# Multiplier-map coderivative
# ---------------------------------------------------------------------------


def test_lambda_coderivative_strict_complementarity_line():
    # multipliers near the pinned point follow u_2 = x along the graph
    # line {(t, -1, 0, t)}; its normal space forces the x-slot to equal
    # the second covector component and leaves the y-slot free
    prob = load_instance("bilinear1")
    kkt = _kkt(prob, "right")
    est = coderivative_lambda(prob, kkt, [0.0, 0.7])
    assert est.result.member([0.7, 3.0])
    assert est.result.member([0.7, -11.0])
    assert not est.result.member([0.6, 0.0])
    lo, hi = est.result.coord_range(1)
    assert lo == -np.inf and hi == np.inf
    assert est.cq.only_zero_preimage
    assert not est.cq.image_vanishes


def test_lambda_coderivative_zero_covector_scaling():
    prob = load_instance("bilinear1")
    kkt = _kkt(prob, "right")
    base = coderivative_lambda(prob, kkt, [0.0, 0.5], with_cq=False)
    for t in (2.0, 0.5, 3.7):
        scaled = coderivative_lambda(prob, kkt, [0.0, 0.5 * t], with_cq=False)
        for pt in ([0.5, 1.0], [0.5, -2.0]):
            assert base.result.member(pt)
            assert scaled.result.member([t * pt[0], t * pt[1]])


def test_lambda_cq_flags_constant_image():
    # constraint gradients in x vanish and the objective ignores y: the
    # whole branch family maps to zero, certifying Lipschitz-like behavior
    prob = load_instance("constantobj")
    kkt = _kkt(prob)
    rep = check_cq_lambda(prob, kkt)
    assert rep.image_vanishes and rep.lipschitz_like
    assert not rep.only_zero_preimage  # the kernel direction a is free
    est = coderivative_lambda(prob, kkt, [0.0, 0.0])
    assert est.result.is_zero_singleton(tol=1e-9)


def test_lambda_zero_covector_family_serves_the_cq_check(monkeypatch):
    prob = load_instance("quadfit")
    kkt = _kkt(prob, "kink")
    want = check_cq_lambda(prob, kkt)
    built = []
    real = coderiv.build_branch_family
    monkeypatch.setattr(coderiv, "build_branch_family",
                        lambda *a, **kw: built.append(a[2]) or real(*a, **kw))
    assert coderivative_lambda(prob, kkt, [0.0, 0.0]).cq == want
    assert len(built) == 1
    coderivative_lambda(prob, kkt, [0.5, 0.0])
    assert [list(u) for u in built[1:]] == [[0.5, 0.0], [0.0, 0.0]]


def test_lambda_cq_fails_on_redundant_active_rows():
    prob = parse_problem(
        {
            "n": 1,
            "m": 1,
            "f": "y1^2",
            "g": ["-y1", "-2*y1"],
            "points": {"base": {"x": [0.0], "minimizers": [[0.0]], "u": [0.0, 0.0]}},
        }
    )
    kkt = _kkt(prob)
    assert kkt.partition.theta == (0, 1)
    rep = check_cq_lambda(prob, kkt, branch_cap=16)
    assert not rep.only_zero_preimage
    assert not rep.image_vanishes


def test_lambda_ambiguous_partition_is_logged():
    # a just-positive multiplier on an inactive row straddles the
    # activity tolerance: filed under the degenerate set and flagged
    prob = load_instance("quadfit")
    pt = prob.points["kink"]
    kkt = make_kkt(
        prob, pt.x, pt.minimizers[0], [2e-8, 2e-8], tol_kkt=1e-7, tol_act=1e-8
    )
    assert kkt.partition.ambiguous == (1,)
    est = coderivative_lambda(prob, kkt, [0.0, 0.0], branch_cap=16)
    failed = [h for h in est.hypotheses if h.name == "partition-unambiguous"]
    assert failed and failed[0].status == "failed"


# ---------------------------------------------------------------------------
# Solution-map coderivative
# ---------------------------------------------------------------------------


def test_solution_coderivative_identity_like_map():
    # argmin of (y-x)^2 over a wide box is s(x) = x
    prob = load_instance("quadfit")
    est = coderivative_S(prob, [0.3], [0.3], [0.7])
    assert est.result.member([0.7])
    assert not est.result.member([0.6])


def test_solution_coderivative_interior_curvature():
    # tracked solution slope is 1, so the adjoint sends ystar to itself
    prob = load_instance("quarticshift")
    est = coderivative_S(prob, [0.0], [0.0], [1.0])
    assert est.result.member([1.0])
    lo, hi = est.result.coord_range(0)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_solution_coderivative_unions_multiplier_vertices():
    # multiplier segment with two vertices; both give the adjoint of
    # s(x) = x, so the union stays a single point
    prob = load_instance("twoactive")
    est = coderivative_S(prob, [0.0], [0.0], [0.8])
    assert est.result.member([0.8])
    assert not est.result.member([0.9])
    names = [h.name for h in est.hypotheses]
    assert "multiplier-vertex-union" in names


def test_solution_coderivative_needs_mfcq():
    prob = parse_problem(
        {
            "n": 1,
            "m": 1,
            "f": "(y1 - x1)^2",
            "g": ["y1", "-y1"],
            "points": {"pin": {"x": [0.0], "minimizers": [[0.0]]}},
        }
    )
    with pytest.raises(HypothesisError):
        coderivative_S(prob, [0.0], [0.0], [1.0])


def _convex_in_y_record(est):
    return next((h.status, h.detail) for h in est.hypotheses if h.name == "convex-in-y")


@pytest.mark.parametrize("flags", [{"convex_in_y": True}, {}])
def test_solution_coderivative_checks_convexity_in_y_only(flags):
    # f = x1^2 is convex, not concave, in x: only the y-blocks decide, so
    # the flagless copy is verified too
    prob = replace(load_instance("constantobj"), flags=flags)
    est = coderivative_S(prob, [0.5], [0.0], [1.0])
    assert _convex_in_y_record(est) == (VERIFIED, "quadratic shape check")


def test_solution_coderivative_records_a_nonconvex_y_shape():
    prob = parse_problem({"n": 1, "m": 1, "f": "-y1^2", "g": ["y1 - 1", "-y1 - 1"],
                          "flags": {"convex_in_y": True}})
    est = coderivative_S(prob, [0.0], [1.0], [1.0])
    assert _convex_in_y_record(est) == (FAILED, "quadratic shape check")


@pytest.mark.parametrize("flag, status", [(False, FAILED), (True, ASSERTED)])
def test_convex_in_y_verdict_of_a_flag_names_the_flag(flag, status):
    # a quartic is past the quadratic shape check: the flag alone decides
    prob = parse_problem({"n": 1, "m": 1, "f": "y1^4 + x1*y1", "g": ["y1 - 1", "-y1 - 1"],
                          "flags": {"convex_in_y": flag}})
    for est in (convex_mfcq_subdiff(prob, [0.0], y=[0.0]),
                coderivative_S(prob, [0.0], [0.0], [1.0])):
        assert _convex_in_y_record(est) == (status, "problem flag")


def _zero_image_everywhere(prob, xbar, ybar):
    """The zero-image qualification at every multiplier vertex."""
    ctx = coderiv.PointContext(prob, xbar, ybar)
    return not ctx.mult.empty and all(
        ctx.cq(j, "M", coderiv.DEFAULT_BRANCH_CAP).image_vanishes
        for j in range(len(ctx.mult.vertices)))


def test_lipschitz_like_certificate():
    prob = load_instance("constantobj")
    assert _zero_image_everywhere(prob, [0.5], [0.0])
    # nontrivial curvature leaves the zero-covector image a full line,
    # so the conservative certificate declines
    assert not _zero_image_everywhere(load_instance("quarticshift"), [0.0], [0.0])
    # certificate implies the zero-covector solution estimate is {0}
    est = coderivative_S(load_instance("quarticshift"), [0.0], [0.0], [0.0])
    assert est.result.is_zero_singleton(tol=1e-9)


# ---------------------------------------------------------------------------
# Hull coderivative
# ---------------------------------------------------------------------------


def _linear_provider(slopes):
    def coderiv(idx, w):
        w = np.atleast_1d(np.asarray(w, dtype=float))
        return PolySet.from_point([slopes[idx] * w[0]], provenance=f"gen{idx}")

    return coderiv


def test_hull_coderivative_singleton_generator():
    gm = FiniteGeneratorMap([np.array([2.0])], _linear_provider([3.0]), 1)
    est = hull_coderivative(gm, [2.0], [1.5])
    assert est.result.member([4.5])
    assert not est.result.member([4.4])


def test_hull_coderivative_extreme_generator():
    gm = FiniteGeneratorMap(
        [np.array([0.0]), np.array([2.0])], _linear_provider([1.0, 3.0]), 1
    )
    est = hull_coderivative(gm, [2.0], [2.0])
    assert est.result.member([6.0])
    assert not est.result.member([2.0])


def test_hull_coderivative_midpoint_weights():
    # midpoint support weights are (1/2, 1/2): the result is the sum of
    # the per-generator pieces at the halved covector
    gm = FiniteGeneratorMap(
        [np.array([0.0]), np.array([2.0])], _linear_provider([1.0, 3.0]), 1
    )
    est = hull_coderivative(gm, [1.0], [2.0])
    assert est.result.member([4.0])  # 1*1 + 1*3
    assert not est.result.member([3.0])
    ok = [h for h in est.hypotheses if h.name == "hull-sum-qualification"]
    assert ok and ok[0].status == "verified"


def test_hull_coderivative_qualification_failure_recorded():
    def bad(idx, w):
        return PolySet.from_points([[0.0], [1.0]], provenance="fat-at-zero")

    gm = FiniteGeneratorMap([np.array([0.0]), np.array([2.0])], bad, 1)
    est = hull_coderivative(gm, [1.0], [2.0])
    rec = [h for h in est.hypotheses if h.name == "hull-sum-qualification"]
    assert rec and rec[0].status == "failed"


def test_hull_coderivative_target_outside_hull():
    gm = FiniteGeneratorMap(
        [np.array([0.0]), np.array([1.0])], _linear_provider([1.0, 1.0]), 1
    )
    est = hull_coderivative(gm, [5.0], [1.0])
    assert est.result.is_empty()
    rec = [h for h in est.hypotheses if h.name == "target-in-generator-hull"]
    assert rec and rec[0].status == "failed"
