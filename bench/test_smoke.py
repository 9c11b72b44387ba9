"""Smoke test of the benchmark: every workload once at the smallest size.

    python3 -m pytest bench/test_smoke.py

Each workload runs with ``--seconds 1`` and a fixed seed, untraced and
traced.  A timed window still ends on a whole round, so a run takes from
a few seconds (``value-sweep``) to about a minute (``cli-report``, traced).
The test checks the output contract against
``BENCHMARK.json``, that no operation failed, and that tracing left every
answer unchanged.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1

_runs = {}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """(last stdout line, full record) of one smoke run, cached per module."""
    if (workload, trace) not in _runs:
        cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert res.returncode == 0, res.stderr[-2000:]
        line = json.loads(res.stdout.strip().splitlines()[-1])
        record_path = ROOT / "bench" / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
        _runs[workload, trace] = (line, json.loads(record_path.read_text()))
    return _runs[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    line, _ = run(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_operation_fails(workload):
    line, record = run(workload, 0)
    assert record["fail_ratio"] == 0, record["failures"][:3]
    assert line["failed"] == 0 and line["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_keeps_answers(workload):
    _, record = run(workload, 1)
    traced = record["traced"]
    assert traced["answers_compared"] >= 1
    assert traced["answers_differ"] == []

