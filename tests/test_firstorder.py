"""First-order value-function estimates against hand values and FD oracles."""

from __future__ import annotations

import numpy as np
import pytest

from valfun.errors import HypothesisError
from valfun.firstorder import auto_estimate, convex_mfcq_subdiff, danskin, gauvin_dubeau
from valfun.model import parse_problem
from valfun.oracle import fd_directional, fd_gradient

from conftest import UNPERTURBED, load_instance


def _gen_set(est, ndigits=9):
    return sorted(tuple(round(float(c), ndigits) for c in g) for g in est.generators)


# ---------------------------------------------------------------------------
# x-independent feasible sets
# ---------------------------------------------------------------------------


def test_danskin_kink_hull():
    prob = load_instance("bilinear1")
    est = danskin(prob, [0.0])
    assert est.formula == "danskin"
    assert _gen_set(est) == [(-1.0,), (1.0,)]
    # phi = -|x|: the Clarke subdifferential at the kink is [-1, 1]
    assert est.member([0.0]) and est.member([1.0]) and est.member([-1.0])
    assert not est.member([1.1])


def test_danskin_smooth_point():
    prob = load_instance("absmin")
    est = danskin(prob, [0.5])
    assert _gen_set(est) == [(-0.5,)]
    assert est.member([-0.5]) and not est.member([0.0])


def test_danskin_no_hull_when_shape_unknown():
    prob = load_instance("multiSxfree")
    est = danskin(prob, [1.0])
    # -x*y^2 carries no concave-convex claim: generators stay a plain union
    assert est.formula == "danskin-nohull"
    assert _gen_set(est) == [(-1.0,)]  # both minimizers give the same gradient


def test_danskin_rejects_coupled_constraints():
    prob = load_instance("shiftbox")
    with pytest.raises(HypothesisError):
        danskin(prob, [1.0])


def test_danskin_directional_consistency(rng):
    """FD directional derivatives match min over generators (support form)."""
    for name in ("bilinear1", "bilinear2d", "absmin"):
        prob = load_instance(name)
        for pname, pt in prob.points.items():
            est = danskin(prob, pt.x)
            for _ in range(5):
                d = rng.uniform(-1, 1, size=prob.n)
                rep = fd_directional(prob, pt.x, d)
                if not rep.stable:
                    continue
                assert rep.value[0] == pytest.approx(
                    est.support_min(d), abs=5e-4
                ), f"{name}:{pname}"


# ---------------------------------------------------------------------------
# Coupled constraints
# ---------------------------------------------------------------------------


def test_convex_mfcq_on_shiftbox():
    prob = load_instance("shiftbox")
    est = convex_mfcq_subdiff(prob, [1.0])
    # unique multiplier (2, 0): generator -2, matching phi(x) = (x-2)^2
    assert _gen_set(est) == [(-2.0,)]
    assert est.member([-2.0])


def test_convex_mfcq_multiplier_segment_image():
    # the duplicated-row instance has a multiplier segment but the
    # Lagrangian x-gradient is constant along it: the image is one point
    prob = load_instance("twoactive")
    est = convex_mfcq_subdiff(prob, [0.0])
    assert est.member([1.0])
    assert not est.member([0.9])
    assert not est.member([1.1])


def test_missing_multiplier_is_a_failed_hypothesis():
    # 1e-6 off the quarticshift minimizer the gradient does not vanish and
    # the only constraint is far from active: no KKT multiplier exists
    prob = load_instance("quarticshift")
    off = [1e-6]
    for est in (convex_mfcq_subdiff(prob, [0.0], y=off),
                gauvin_dubeau(prob, [0.0], minimizers=[off])):
        assert not est.generators and est.result.is_empty()
        failed = [h for h in est.hypotheses if h.name == "kkt-multiplier-exists"]
        assert [h.status for h in failed] == ["failed"]
    for est in (convex_mfcq_subdiff(prob, [0.0], y=[0.0]),
                gauvin_dubeau(prob, [0.0], minimizers=[[0.0]])):
        assert est.generators
        assert all(h.name != "kkt-multiplier-exists" for h in est.hypotheses)
    # with no g rows at all the multiplier set is empty when f_y != 0 (here
    # f_y = -0.4 at the pinned y = 0.3) and its piece is empty too
    free = parse_problem({"n": 1, "m": 1, "f": "(y1 - x1)^2 + x1*y1", "g": []})
    for y, empty in (([0.3], True), ([0.5], False)):
        est = gauvin_dubeau(free, [1.0], minimizers=[y])
        assert est.result.is_empty() is empty and (not est.generators) is empty
        failed = [h.status for h in est.hypotheses if h.name == "kkt-multiplier-exists"]
        assert failed == (["failed"] if empty else [])


def test_gauvin_dubeau_square_style_data():
    # cost weight and right-hand side both carry the parameter: the
    # generators are the Lagrangian x-gradients y-like in the first slot
    # and -u in the coupled slots
    prob = load_instance("rhsbox")
    est = gauvin_dubeau(prob, [1.0, 3.0])
    assert est.formula == "gauvin-dubeau"
    assert not est.inclusion_only
    assert _gen_set(est) == [(-3.0, -1.0)]
    grad = fd_gradient(prob, [1.0, 3.0])
    assert grad.stable
    assert est.member(grad.value, tol=1e-3)


def test_gauvin_dubeau_pure_rhs_generators():
    # right-hand-side parameter only: generators are -u
    prob = load_instance("rhslp")
    est = gauvin_dubeau(prob, [2.0, 1.0])
    assert _gen_set(est) == [(0.0, -1.0)]


def test_gauvin_dubeau_multiple_minimizers_union():
    prob = load_instance("multiS")
    est = gauvin_dubeau(prob, [1.0, 0.0])
    assert est.inclusion_only  # set-valued solution map
    assert est.formula == "gauvin-dubeau-nohull"
    # both minimizers yield grad_x L = (-1, -2): u1 resp. u2 equal 2
    assert est.member([-1.0, -2.0])
    assert not est.member([1.0, 2.0])


def test_gauvin_dubeau_unperturbed_matches_danskin():
    prob = load_instance("quadfit")
    a = danskin(prob, [0.3])
    b = gauvin_dubeau(prob, [0.3])
    assert _gen_set(a) == _gen_set(b)


def test_mfcq_failure_raises():
    prob = parse_problem(
        {
            "n": 1,
            "m": 1,
            "f": "(y1 - x1)^2",
            # contradictory-gradient active pair at y=0: y <= 0 and -y <= 0
            "g": ["y1", "-y1"],
            "points": {"pin": {"x": [0.0], "minimizers": [[0.0]]}},
        }
    )
    with pytest.raises(HypothesisError):
        gauvin_dubeau(prob, [0.0])


# ---------------------------------------------------------------------------
# Routing and sampled soundness
# ---------------------------------------------------------------------------


def test_auto_estimate_routes_by_structure():
    assert auto_estimate(load_instance("bilinear1"), [0.5]).formula.startswith("danskin")
    assert auto_estimate(load_instance("shiftbox"), [1.0]).formula == "convex-mfcq"
    est = auto_estimate(load_instance("multiS"), [1.0, 0.0])
    assert est.formula.startswith("gauvin-dubeau")


@pytest.mark.parametrize("name", UNPERTURBED)
def test_sampled_gradient_inclusion(name, rng):
    """FD gradients at nearby smooth points stay near the estimate at xbar."""
    prob = load_instance(name)
    for pt in prob.points.values():
        est = auto_estimate(prob, pt.x)
        hits = 0
        for _ in range(10):
            x = pt.x + rng.uniform(-1e-4, 1e-4, size=prob.n)
            rep = fd_gradient(prob, x)
            if not rep.stable:
                continue
            hits += 1
            assert est.member(rep.value, tol=1e-3), name
        if name not in ("constantobj",):
            assert hits > 0
