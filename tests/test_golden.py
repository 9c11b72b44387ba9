"""Golden CLI outputs: ``valfun report`` for every battery instance and the
text of ``valfun hessian`` (coordinate ranges included) for every battery
query must stay byte-identical.  The references were captured by
``golden/capture.py``; runs are in-process through ``cli.main``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from golden.capture import hessian_argv, report_argv, run_cli

GOLDEN = Path(__file__).parent / "golden"
REPORTS = json.loads((GOLDEN / "report.json").read_text())
QUERIES = json.loads((GOLDEN / "hessian.json").read_text())


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
