"""Regenerate the golden CLI outputs in this directory.

    PYTHONPATH=src python tests/golden/capture.py [--check]

With ``--check`` nothing is written: every golden is recomputed in memory,
each record that differs from the file is printed as
``file: id: old → new`` (compact JSON, ``null`` for a missing record), and
the exit status is 1 if any differ.

``report.json`` holds the ``valfun report`` output for the first named
point of every battery instance; ``hessian.json`` holds the text output of
``valfun hessian`` for every battery point x first-order generator x unit
covector at branch cap 200; ``theorems.json`` holds
``json.dumps(result.to_json(), sort_keys=True)`` for the direct calls in
``THEOREM_CALLS``, which reach the theorem paths and multi-generator modes
the battery queries do not (composed single-single, both hull modes,
selection over several minimizers, the multiplier-vertex union) and the
coderivative estimates at the points of ``test_coderiv.py``, plus the
exact LP cases: ``hessian.compute`` for every battery query of
``hessian.json`` that routes to ``lp-lhs`` or ``lp-lhs-rhs``, and direct
``lp_lhs_hessian``/``lp_lhs_rhs_hessian`` calls that reach flavor C, an
unbounded multiplier set, a fan point, several inner multiplier vertices,
the centroid and anchor of a complementary face, and the empty estimates;
``solve.json`` holds, for every battery instance not affine in y, the
certificate and the ``repr`` of the value and of each minimizer from
``kernel.solve_value`` (exact QP path or SLSQP multistart) at each named
point with its pinned minimizers ignored, and at ``SOLVE_PERTURBATIONS``
seeded k/4096 perturbations of it;
``vform.json`` holds the vertex/ray decompositions of the exact LP cases,
the rational solves of the instances affine in y and the first-order
membership verdicts at the battery generators (see ``vform_json``).
``test_golden.py`` replays all five in-process and requires byte-identical
output, so regenerate only when a change of output is intended, and say
why in the change log.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
INSTANCES = HERE.parent / "instances"
BRANCH_CAP = 200
SOLVE_PERTURBATIONS = 3
PERTURB_DEN = 4096


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process ``valfun`` run."""
    from valfun import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def report_argv(name, point):
    return ["report", "--problem", str(INSTANCES / f"{name}.json"), "--point", point]


def hessian_argv(name, point, xund, xstar):
    return ["hessian", "--problem", str(INSTANCES / f"{name}.json"), "--point", point,
            f"--xund={xund}", f"--xstar={xstar}", "--branch-cap", str(BRANCH_CAP)]


def _vec(v):
    return ",".join(repr(float(x)) for x in v)


def _instance(name):
    from valfun.model import load_problem

    return load_problem(INSTANCES / f"{name}.json")


def _pinned_kkt(name, point="base"):
    from valfun.model import make_kkt

    prob = _instance(name)
    pt = prob.points[point]
    return prob, make_kkt(prob, pt.x, pt.minimizers[0], pt.u)


def _redundant_rows_kkt():
    from valfun.model import make_kkt, parse_problem

    prob = parse_problem({"n": 1, "m": 1, "f": "y1^2", "g": ["-y1", "-2*y1"]})
    return prob, make_kkt(prob, [0.0], [0.0], [0.0, 0.0])


def _ambiguous_kkt():
    from valfun.model import make_kkt

    prob = _instance("quadfit")
    pt = prob.points["kink"]
    return prob, make_kkt(prob, pt.x, pt.minimizers[0], [2e-8, 2e-8],
                          tol_kkt=1e-7, tol_act=1e-8)


def _hessian(fn, name, xbar, xund, xstar, **kw):
    from valfun import hessian

    return getattr(hessian, fn)(_instance(name), hessian.HessianQuery(xbar, xund, xstar), **kw)


def _lam(kkt_fn, ustar, **kw):
    from valfun.coderiv import coderivative_lambda

    prob, kkt = kkt_fn()
    return coderivative_lambda(prob, kkt, ustar, **kw)


def _cq(kkt_fn, **kw):
    from valfun.coderiv import check_cq_lambda

    prob, kkt = kkt_fn()
    return check_cq_lambda(prob, kkt, **kw)


def _dS(name, xbar, ybar, ystar):
    from valfun.coderiv import coderivative_S

    return coderivative_S(_instance(name), xbar, ybar, ystar)


def _kkt_of(name, point):
    return lambda: _pinned_kkt(name, point)


def _lp(fn, *data, query, **kw):
    from valfun import hessian

    return getattr(hessian, fn)(*data, hessian.HessianQuery(*query), **kw)


def _compute(name, point, xund, xstar):
    from valfun import hessian

    prob = _instance(name)
    query = hessian.HessianQuery(prob.points[point].x, [float(t) for t in xund.split(",")],
                                 [float(t) for t in xstar.split(",")])
    return hessian.compute(prob, query, branch_cap=BRANCH_CAP)


def lp_battery_calls():
    """id -> ``hessian.compute`` call for each battery query of
    ``hessian.json`` whose instance routes to an exact LP case."""
    from valfun import hessian

    calls = {}
    for q in json.loads((HERE / "hessian.json").read_text()):
        if hessian.route(_instance(q["instance"]))[0].startswith("lp-"):
            args = (q["instance"], q["point"], q["xund"], q["xstar"])
            calls["compute/" + "-".join(args)] = lambda args=args: _compute(*args)
    return calls


_BOX = [[1, 0], [0, 1], [-1, 0], [0, -1]]


#: id -> zero-argument call whose result has ``to_json``.
THEOREM_CALLS = {
    "single-single-composed/quadfit-1": lambda: _hessian(
        "hessian_single_single", "quadfit", [1.0], [0.0], [1.0]),
    "unperturbed-hull/bilinear1-0": lambda: _hessian(
        "hessian_unperturbed", "bilinear1", [0.0], [0.0], [1.0], smode="caratheodory"),
    "unperturbed-selection/multiSxfree-1": lambda: _hessian(
        "hessian_unperturbed", "multiSxfree", [1.0], [-1.0], [1.0], smode="multi"),
    "single-lambda-selection/multiS-e1": lambda: _hessian(
        "hessian_single_lambda", "multiS", [1.0, 0.0], [-1.0, -2.0], [1.0, 0.0]),
    "single-lambda-selection/multiS-e2": lambda: _hessian(
        "hessian_single_lambda", "multiS", [1.0, 0.0], [-1.0, -2.0], [0.0, 1.0]),
    "single-lambda-hull/multiS-e1": lambda: _hessian(
        "hessian_single_lambda", "multiS", [1.0, 0.0], [-1.0, -2.0], [1.0, 0.0],
        mode="caratheodory"),
    "single-s-composed/twoactive-0": lambda: _hessian(
        "hessian_single_s", "twoactive", [0.0], [1.0], [1.0]),
    "coderivative_lambda/bilinear1-right": lambda: _lam(
        _kkt_of("bilinear1", "right"), [0.0, 0.7]),
    "coderivative_lambda/bilinear1-right-nocq": lambda: _lam(
        _kkt_of("bilinear1", "right"), [0.0, 0.5], with_cq=False),
    "coderivative_lambda/constantobj-base": lambda: _lam(
        _kkt_of("constantobj", "base"), [0.0, 0.0]),
    "coderivative_lambda/quadfit-kink-ambiguous": lambda: _lam(
        _ambiguous_kkt, [0.0, 0.0], branch_cap=16),
    "check_cq_lambda/bilinear1-right": lambda: _cq(_kkt_of("bilinear1", "right")),
    "check_cq_lambda/constantobj-base": lambda: _cq(_kkt_of("constantobj", "base")),
    "check_cq_lambda/quadfit-kink": lambda: _cq(_kkt_of("quadfit", "kink")),
    "check_cq_lambda/redundant-rows": lambda: _cq(_redundant_rows_kkt, branch_cap=16),
    "coderivative_S/quadfit-0.3": lambda: _dS("quadfit", [0.3], [0.3], [0.7]),
    "coderivative_S/quarticshift-0": lambda: _dS("quarticshift", [0.0], [0.0], [1.0]),
    "coderivative_S/quarticshift-zero-covector": lambda: _dS(
        "quarticshift", [0.0], [0.0], [0.0]),
    "coderivative_S/twoactive-0": lambda: _dS("twoactive", [0.0], [0.0], [0.8]),
    "coderivative_S/constantobj-0.5": lambda: _dS("constantobj", [0.5], [0.0], [1.0]),
    "lp_lhs_hessian/box-fan": lambda: _lp(
        "lp_lhs_hessian", _BOX, [1, 1, 0, 0], query=([0.0, 1.0], [0.0, 0.0], [0.0, 1.0])),
    "lp_lhs_hessian/box-fan-C": lambda: _lp(
        "lp_lhs_hessian", _BOX, [1, 1, 0, 0], query=([0.0, 1.0], [0.0, 0.0], [0.0, 1.0]),
        flavor="C"),
    "lp_lhs_hessian/box-vertex": lambda: _lp(
        "lp_lhs_hessian", _BOX, [1, 1, 0, 0], query=([1.0, 2.0], [0.0, 0.0], [1.0, 1.0])),
    "lp_lhs_hessian/unbounded-multipliers": lambda: _lp(
        "lp_lhs_hessian", [[1], [-1]], [0, 0], query=([0.5], [0.0], [1.0])),
    "lp_lhs_rhs_hessian/box-face-centroid": lambda: _lp(
        "lp_lhs_rhs_hessian", _BOX, query=([1, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 1])),
    "lp_lhs_rhs_hessian/box-face-centroid-C": lambda: _lp(
        "lp_lhs_rhs_hessian", _BOX, query=([1, 1, 0, 0], [0, 0, 0, -1], [1, 0, 0, 1]),
        cost=[0, 1], flavor="C"),
    "lp_lhs_rhs_hessian/two-inner-vertices": lambda: _lp(
        "lp_lhs_rhs_hessian", [[1], [-1], [-1]], query=([1, 0, 0], [0, -1, 0], [1, 1, 0])),
    "lp_lhs_rhs_hessian/non-pointed-face": lambda: _lp(
        "lp_lhs_rhs_hessian", [[0, 1]], query=([1.0], [-1.0], [1.0])),
    "lp_lhs_rhs_hessian/rational-query": lambda: _lp(
        "lp_lhs_rhs_hessian", [[1], [-1]],
        query=tuple(np.array([Fraction(v) for v in vec], dtype=object)
                    for vec in (["2", "1"], ["0", "-1"], ["1/3", "1"]))),
    "lp_lhs_rhs_hessian/bad-covector": lambda: _lp(
        "lp_lhs_rhs_hessian", [[1], [-1]], query=([2.0, 1.0], [0.5, -1.0], [1.0, 1.0])),
    "lp_lhs_rhs_hessian/inconsistent-cost": lambda: _lp(
        "lp_lhs_rhs_hessian", [[1], [-1]], query=([2.0, 1.0], [0.0, -1.0], [1.0, 1.0]),
        cost=[2]),
    "lp_lhs_rhs_hessian/empty-face": lambda: _lp(
        "lp_lhs_rhs_hessian", [[1], [-1]], query=([2.0, 1.0], [-1.0, -1.0], [1.0, 0.0])),
    **lp_battery_calls(),
}


def theorem_json(call_id):
    return json.dumps(THEOREM_CALLS[call_id]().to_json(), sort_keys=True)


def solve_points():
    """(id, instance, x) for every ``solve.json`` record: the named points of
    the instances not affine in y, and seeded perturbations of each."""
    from valfun.model import load_problem

    out = []
    for path in sorted(INSTANCES.glob("*.json")):
        prob = load_problem(path)
        if prob.affine_in_y():
            continue
        for point in sorted(prob.points):
            base = prob.points[point].x
            out.append((f"{path.stem}/{point}", path.stem, base))
            rng = np.random.default_rng(list(f"{path.stem}/{point}".encode()))
            for k in range(SOLVE_PERTURBATIONS):
                ks = rng.integers(-PERTURB_DEN // 4, PERTURB_DEN // 4 + 1, size=base.shape[0])
                out.append((f"{path.stem}/{point}/{k}", path.stem, base + ks / PERTURB_DEN))
    return out


def solve_json(name, x):
    """``kernel.solve_value`` at x with the instance's pins dropped, as reprs."""
    from valfun import kernel

    prob = replace(_instance(name), points={})
    res = kernel.solve_value(prob, x)
    return {"x": [repr(v) for v in x.tolist()], "certificate": res.certificate,
            "value": repr(res.value),
            "minimizers": [[repr(v) for v in y.tolist()] for y in res.minimizers]}


def capture():
    from valfun import firstorder
    from valfun.model import load_problem

    names = sorted(p.stem for p in INSTANCES.glob("*.json"))
    reports = {}
    queries = []
    for name in names:
        prob = load_problem(INSTANCES / f"{name}.json")
        points = sorted(prob.points)
        rc, out, err = run_cli(report_argv(name, points[0]))
        reports[name] = {"point": points[0], "rc": rc, "stdout": out, "stderr": err}
        for point in points:
            xbar = prob.points[point].x
            for gen in firstorder.auto_estimate(prob, xbar).generators:
                for j in range(prob.n):
                    xstar = [1.0 if i == j else 0.0 for i in range(prob.n)]
                    q = {"instance": name, "point": point, "xund": _vec(gen),
                         "xstar": _vec(xstar)}
                    rc, out, err = run_cli(hessian_argv(name, point, q["xund"], q["xstar"]))
                    queries.append({**q, "rc": rc, "stdout": out, "stderr": err})
    return reports, queries


def _vform(poly):
    dec = poly.vertices()
    return {"points": [str(list(v)) for v in dec.points],
            "rays": [str(list(v)) for v in dec.rays], "lineality": dec.lineality}


def lp_call_ids():
    """The ``THEOREM_CALLS`` that run an exact LP case."""
    return sorted(k for k in THEOREM_CALLS if k.startswith(("lp_", "compute/")))


def lp_vforms(call_id):
    """Decomposition of every piece of an exact LP case's result and of
    every branch polyhedron of the families it builds."""
    from unittest import mock

    from valfun import hessian

    families = []

    def record(*args, **kw):
        families.append(build(*args, **kw))
        return families[-1]

    build = hessian.build_branch_family
    with mock.patch.object(hessian, "build_branch_family", record):
        est = THEOREM_CALLS[call_id]()
    return {"pieces": [_vform(pc.poly) for pc in est.result.pieces],
            "branches": [_vform(br.poly) for fam in families for br in fam.branches]}


def exact_solve_points():
    """(id, instance, x) for the rational solves: the named points of the
    instances affine in y, and seeded k/4096 perturbations of each, as
    Fractions."""
    out = []
    for path in sorted(INSTANCES.glob("*.json")):
        prob = _instance(path.stem)
        if not prob.affine_in_y():
            continue
        for point in sorted(prob.points):
            base = [Fraction(v) for v in prob.points[point].x]
            out.append((f"{path.stem}/{point}", path.stem, base))
            rng = np.random.default_rng(list(f"exact/{path.stem}/{point}".encode()))
            for k in range(SOLVE_PERTURBATIONS):
                ks = rng.integers(-PERTURB_DEN // 4, PERTURB_DEN // 4 + 1, size=len(base))
                out.append((f"{path.stem}/{point}/{k}", path.stem,
                            [v + Fraction(int(kk), PERTURB_DEN) for v, kk in zip(base, ks)]))
    return out


def exact_solve(name, x):
    """Exact value and minimizers of ``kernel.solve_value(rational=True)``."""
    from valfun import kernel
    from valfun.errors import ValfunError

    try:
        res = kernel.solve_value(_instance(name), np.array(x, dtype=object), rational=True)
    except ValfunError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"value_exact": str(res.value_exact),
            "minimizers_exact": None if res.minimizers_exact is None
            else [[str(v) for v in y] for y in res.minimizers_exact]}


def member_verdicts(name, point):
    """First-order membership at every generator, at the generator moved by
    half the membership tolerance, and at the generator moved by 1e-3."""
    from valfun import firstorder
    from valfun.hessian import MEMBERSHIP_TOL

    prob = _instance(name)
    fo = firstorder.auto_estimate(prob, prob.points[point].x)
    out = []
    for gen in fo.generators:
        for shift in (0.0, MEMBERSHIP_TOL / 2, 1e-3):
            xund = np.asarray(gen, float) + shift
            v = fo.member(xund, MEMBERSHIP_TOL)
            out.append({"xund": _vec(xund), "status": v.status, "piece": v.piece,
                        "distance": f"{v.distance:.6g}"})
    return out


def battery_points():
    return [(name, point) for name in sorted(p.stem for p in INSTANCES.glob("*.json"))
            for point in sorted(_instance(name).points)]


def vform_json():
    """id -> JSON text: ``lp/<call>`` for ``lp_vforms``, ``exact/<point>``
    for ``exact_solve`` and ``member/<instance>/<point>`` for
    ``member_verdicts``."""
    out = {f"lp/{k}": json.dumps(lp_vforms(k)) for k in lp_call_ids()}
    out.update((f"exact/{sid}", json.dumps(exact_solve(name, x)))
               for sid, name, x in exact_solve_points())
    out.update((f"member/{name}/{point}", json.dumps(member_verdicts(name, point)))
               for name, point in battery_points())
    return out


def goldens():
    """file name -> the text of every golden file, recomputed in memory."""
    reports, queries = capture()
    theorems = {k: theorem_json(k) for k in THEOREM_CALLS}
    solves = {sid: solve_json(name, x) for sid, name, x in solve_points()}
    return {
        "report.json": json.dumps(reports, indent=1, sort_keys=True) + "\n",
        "hessian.json": json.dumps(queries, indent=1) + "\n",
        "theorems.json": json.dumps(theorems, indent=1, sort_keys=True) + "\n",
        "solve.json": json.dumps(solves, indent=1, sort_keys=True) + "\n",
        "vform.json": json.dumps(vform_json(), indent=1, sort_keys=True) + "\n",
    }


def _records(name, text):
    """id -> record of one golden file; hessian queries are keyed as in
    ``test_golden.py``."""
    data = json.loads(text)
    if name == "hessian.json":
        return {f"{q['instance']}-{q['point']}-{q['xund']}-{q['xstar']}": q for q in data}
    return data


def check(new):
    """Print every record of ``new`` that differs from the file here; the
    number of differing records."""
    diffs = 0
    for name, text in new.items():
        path = HERE / name
        old = _records(name, path.read_text()) if path.exists() else {}
        new_rec = _records(name, text)
        for rid in sorted(old.keys() | new_rec.keys()):
            if old.get(rid) != new_rec.get(rid):
                diffs += 1
                print(f"{name}: {rid}: {json.dumps(old.get(rid), sort_keys=True)} → "
                      f"{json.dumps(new_rec.get(rid), sort_keys=True)}")
    return diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the files here and write nothing")
    args = parser.parse_args(argv)
    new = goldens()
    if args.check:
        diffs = check(new)
        print(f"{diffs} differing records")
        return 1 if diffs else 0
    for name, text in new.items():
        (HERE / name).write_text(text)
    print(", ".join(f"{len(_records(name, text))} records in {name}"
                    for name, text in new.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
