"""Command-line interface: exit codes, output fields, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import instance_path

CLI = [sys.executable, "-m", "valfun.cli"]


def run_cli(*args, **kw):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, **kw
    )


def run_json(*args):
    proc = run_cli(*args, "--json")
    assert proc.returncode == 0, proc.stderr or proc.stdout
    return json.loads(proc.stdout)


def test_analyze_reports_point_diagnostics():
    doc = run_json(
        "analyze", "--problem", instance_path("shiftbox"), "--point", "base"
    )
    assert doc["schema"] == "valfun-sens/1"
    assert doc["value"] == pytest.approx(1.0)
    entry = doc["minimizers"][0]
    assert entry["y"] == pytest.approx([1.0])
    assert entry["licq"] and entry["mfcq"]
    assert entry["partitions"][0]["nu"] == [0]
    assert doc["first_order"]["formula"] == "convex-mfcq"


def test_analyze_accepts_explicit_parameter():
    doc = run_json("analyze", "--problem", instance_path("quadfit"), "--xbar", "0.3")
    assert doc["value"] == pytest.approx(0.0, abs=1e-9)


def test_first_order_membership_output():
    doc = run_json(
        "first-order",
        "--problem",
        instance_path("shiftbox"),
        "--point",
        "base",
        "--xund=-2.0",
    )
    assert doc["membership"]["status"] in ("inside", "boundary")
    proc = run_cli(
        "first-order", "--problem", instance_path("shiftbox"), "--point", "base"
    )
    assert proc.returncode == 0
    assert "convex-mfcq" in proc.stdout


def test_hessian_success_and_ranges():
    proc = run_cli(
        "hessian",
        "--problem",
        instance_path("shiftbox"),
        "--point",
        "base",
        "--xund=-2",
        "--xstar",
        "1",
    )
    assert proc.returncode == 0
    assert "single-single" in proc.stdout
    assert "coordinate 0: range [2, 2]" in proc.stdout


def test_hessian_exact_lp_route():
    doc = run_json(
        "hessian",
        "--problem",
        instance_path("rhslp"),
        "--point",
        "base",
        "--xund",
        "0,-1",
        "--xstar",
        "1,1",
    )
    est = doc["estimate"]
    assert est["case"] == "lp-lhs-rhs"
    assert est["exact"] is True


def test_hessian_missing_covector_is_usage_error():
    proc = run_cli(
        "hessian", "--problem", instance_path("shiftbox"), "--point", "base",
        "--xund=-2",
    )
    assert proc.returncode == 64


def test_empty_hessian_estimate_exits_one():
    # a pinned covector with the wrong sign leaves no graph point
    proc = run_cli(
        "hessian",
        "--problem",
        instance_path("rhslp"),
        "--point",
        "base",
        "--xund",
        "0.5,-1",
        "--xstar",
        "1,1",
    )
    assert proc.returncode == 1
    assert "empty" in proc.stdout


def test_hypothesis_failure_exits_two():
    proc = run_cli(
        "hessian",
        "--problem",
        instance_path("quadfit"),
        "--xbar",
        "0.3",
        "--xund",
        "5.0",
        "--xstar",
        "1",
    )
    assert proc.returncode == 2
    assert "HypothesisError" in proc.stderr


def test_every_package_error_exits_two(monkeypatch, capsys):
    from valfun import cli, hessian
    from valfun.errors import LpStatusError

    def undecided(*args, **kwargs):
        raise LpStatusError("LP ended with status 4")

    monkeypatch.setattr(hessian, "compute", undecided)
    rc = cli.main(["hessian", "--problem", str(instance_path("shiftbox")), "--point", "base",
                   "--xund=-2", "--xstar=1"])
    assert rc == 2
    assert capsys.readouterr().err == "valfun: LpStatusError: LP ended with status 4\n"


def test_infeasible_parameter_exits_two():
    proc = run_cli(
        "analyze", "--problem", instance_path("lp_simplex"), "--xbar", "1e30,1"
    )
    assert proc.returncode in (0, 2)  # value may still be solvable
    proc = run_cli(
        "first-order", "--problem", instance_path("multiSxfree"), "--xbar", "nope"
    )
    assert proc.returncode == 64


def test_verify_passes_battery_instance():
    for name in ("slide", "rhsbox", "bilinear1"):
        proc = run_cli("verify", "--problem", instance_path(name))
        assert proc.returncode == 0, proc.stdout
        assert "all checks passed" in proc.stdout


def test_verify_json_structure():
    proc = run_cli("verify", "--problem", instance_path("quadfit"), "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True
    assert all(c["ok"] for c in doc["checks"])


def test_verify_inner_convexity_flag_checked_separately():
    # f = x^2 fails the joint concave-convex check but is convex in y;
    # the convex_in_y flag must be validated against inner convexity only
    proc = run_cli("verify", "--problem", instance_path("constantobj"))
    assert proc.returncode == 0, proc.stdout
    assert "all checks passed" in proc.stdout


def test_verify_rejects_contradicted_convexity_flag(tmp_path):
    path = tmp_path / "concave.json"
    path.write_text(json.dumps({
        "n": 1, "m": 1,
        "f": "-y1^2 + 0*x1",
        "g": ["y1 - 1", "-y1 - 1"],
        "flags": {"convex_in_y": True},
    }))
    proc = run_cli("verify", "--problem", path)
    assert proc.returncode == 2
    assert "convex-in-y flag contradicts" in proc.stdout


def test_report_schema_and_full_payload(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "report",
        "--problem",
        instance_path("rhsbox"),
        "--point",
        "base",
        "--xund=-3,-1",
        "--xstar",
        "1,0",
        "--out",
        out,
    )
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "valfun-sens/1"
    assert doc["hessian"]["case"] == "single-single"
    assert doc["first_order"]["formula"] == "convex-mfcq"
    assert doc["minimizers"] == [[-3.0]]


def test_report_runs_are_byte_identical(tmp_path):
    args = [
        "report",
        "--problem",
        instance_path("multiS"),
        "--point",
        "base",
        "--xund=-1,-2",
        "--xstar",
        "1,0",
    ]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_missing_problem_file_is_a_usage_error():
    proc = run_cli("analyze", "--problem", "/nonexistent/prob.json")
    assert proc.returncode == 64
    assert "bad problem file" in proc.stderr


#: Imports valfun.cli, runs ``report`` on the first point of every battery
#: instance in the same process, then prints the scipy modules loaded.
_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
import valfun.cli
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    point = sorted(json.loads(path.read_text())["points"])[0]
    with contextlib.redirect_stdout(io.StringIO()):
        assert valfun.cli.main(["report", "--problem", str(path), "--point", point]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_report_path_imports_no_scipy():
    instances = instance_path("shiftbox").parent
    assert len(list(instances.glob("*.json"))) == 18
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(instances)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
