"""The benchmark's tracer patches valfun names by ``getattr`` and binds
their parameters by name (``multipliers(tol_act=)``, for example), so a
rename in the package would break it silently.  One traced query checks
that every hook still binds and that uninstalling restores the package."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import valfun
from valfun import coderiv, firstorder, hessian, kernel, model, setcalc

from conftest import load_instance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import Tracer, span_totals  # noqa: E402

OWNERS = (valfun, coderiv, firstorder, hessian, kernel, model, setcalc,
          setcalc.Polyhedron, setcalc.PolySet)


def _snapshot():
    return [(owner, dict(vars(owner))) for owner in OWNERS]


def test_tracer_hooks_bind_and_uninstall():
    before = _snapshot()
    prob = load_instance("shiftbox")
    query = hessian.HessianQuery(prob.points["base"].x, [-2.0], [1.0])
    tracer = Tracer().install()
    try:
        assert model.differentiate is not dict(before)[model]["differentiate"]
        est = hessian.compute(prob, query)
    finally:
        tracer.uninstall()
    assert est.case == "single-single"
    assert est.result.member(np.array([2.0]))
    for owner, attrs in before:
        now = vars(owner)
        changed = [k for k, v in attrs.items() if now.get(k) is not v]
        assert not changed, (owner, changed)
    for name in ("model.differentiate", "kernel.multipliers", "kernel.solve_value"):
        assert tracer.keys[name], name
    names = {span[0] for span in tracer.spans}
    assert {"hessian.compute", "hessian.route", "firstorder.auto_estimate"} <= names


def test_traced_composed_query_builds_each_point_once():
    # the unperturbed composed estimate reads its generator's point
    # context, through the names the tracer patches: every traced call of
    # these two is a new point
    prob = load_instance("constantobj")
    query = hessian.HessianQuery(prob.points["base"].x, [1.0], [1.0])
    with Tracer() as tracer:
        est = hessian.compute(prob, query)
    assert est.theorem == "unperturbed-composed"
    calls = span_totals(tracer.spans)[0]
    for name in ("model.differentiate", "kernel.multipliers"):
        assert calls[name] == len(tracer.keys[name]) > 0, name
