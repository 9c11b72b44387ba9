"""Golden CLI outputs: ``valfun report`` for every battery instance and the
text of ``valfun hessian`` (coordinate ranges included) for every battery
query must stay byte-identical, and so must the JSON of the theorem-path
calls in ``THEOREM_CALLS`` (the exact LP cases among them, through
``hessian.compute`` for the battery queries that route there) and the
multistart solves of ``solve_points``.  The references were captured by
``golden/capture.py``; CLI runs are in-process through ``cli.main``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from golden.capture import (
    THEOREM_CALLS,
    hessian_argv,
    report_argv,
    run_cli,
    solve_json,
    solve_points,
    theorem_json,
)

GOLDEN = Path(__file__).parent / "golden"
REPORTS = json.loads((GOLDEN / "report.json").read_text())
QUERIES = json.loads((GOLDEN / "hessian.json").read_text())
THEOREMS = json.loads((GOLDEN / "theorems.json").read_text())
SOLVES = json.loads((GOLDEN / "solve.json").read_text())
SOLVE_POINTS = solve_points()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_golden(name):
    want = REPORTS[name]
    assert run_cli(report_argv(name, want["point"])) == (
        want["rc"], want["stdout"], want["stderr"])


@pytest.mark.parametrize(
    "q", QUERIES,
    ids=[f"{q['instance']}-{q['point']}-{q['xund']}-{q['xstar']}" for q in QUERIES])
def test_hessian_golden(q):
    got = run_cli(hessian_argv(q["instance"], q["point"], q["xund"], q["xstar"]))
    assert got == (q["rc"], q["stdout"], q["stderr"])


def test_theorem_goldens_cover_every_call():
    assert sorted(THEOREMS) == sorted(THEOREM_CALLS)


@pytest.mark.parametrize("call_id", sorted(THEOREMS))
def test_theorem_golden(call_id):
    assert theorem_json(call_id) == THEOREMS[call_id]


def test_solve_goldens_cover_every_point():
    assert sorted(SOLVES) == sorted(sid for sid, _, _ in SOLVE_POINTS)


@pytest.mark.parametrize("sid, name, x", SOLVE_POINTS, ids=[sid for sid, _, _ in SOLVE_POINTS])
def test_solve_golden(sid, name, x):
    assert json.dumps(solve_json(name, x), sort_keys=True) == json.dumps(
        SOLVES[sid], sort_keys=True)
