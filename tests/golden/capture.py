"""Regenerate the golden CLI outputs in this directory.

    PYTHONPATH=src python tests/golden/capture.py

``report.json`` holds the ``valfun report`` output for the first named
point of every battery instance; ``hessian.json`` holds the text output of
``valfun hessian`` for every battery point x first-order generator x unit
covector at branch cap 200.  ``test_golden.py`` replays both in-process
and requires byte-identical output, so regenerate only when a change of
output is intended, and say why in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
INSTANCES = HERE.parent / "instances"
BRANCH_CAP = 200


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


if __name__ == "__main__":
    reports, queries = capture()
    (HERE / "report.json").write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    (HERE / "hessian.json").write_text(json.dumps(queries, indent=1) + "\n")
    print(f"{len(reports)} reports, {len(queries)} hessian queries")
