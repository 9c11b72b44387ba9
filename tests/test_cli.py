"""Command-line interface: exit codes, output fields, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


def test_analyze_builds_each_point_once(monkeypatch, capsys):
    # the diagnostics and the first-order block read one point context
    from valfun import cli, kernel

    calls = Counter()
    for name in ("multipliers", "check_mfcq"):
        def count(*args, _real=getattr(kernel, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(kernel, name, count)
    argv = ["analyze", "--problem", str(instance_path("twoactive")), "--point", "base", "--json"]
    assert cli.main(argv) == 0
    points = len(json.loads(capsys.readouterr().out)["minimizers"])
    assert points == 1
    assert calls == {"multipliers": points, "check_mfcq": points}


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


_HESSIAN_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
import valfun.cli
instances = Path(sys.argv[2])
for q in json.loads(Path(sys.argv[1]).read_text()):
    argv = ["hessian", "--problem", str(instances / (q["instance"] + ".json")),
            "--point", q["point"], "--xund=" + q["xund"], "--xstar=" + q["xstar"],
            "--branch-cap", "200"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert valfun.cli.main(argv) == q["rc"], argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_hessian_path_imports_no_scipy():
    # every golden hessian query is answered without an LP
    golden = Path(__file__).parent / "golden" / "hessian.json"
    assert len(json.loads(golden.read_text())) == 42
    proc = subprocess.run([sys.executable, "-c", _HESSIAN_NO_SCIPY_SCRIPT, str(golden),
                           str(instance_path("shiftbox").parent)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


#: Runs ``report`` on the first point of every battery instance in one
#: process, then prints the valfun modules loaded.
_REPORT_MODULES_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
import valfun.cli
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    point = sorted(json.loads(path.read_text())["points"])[0]
    with contextlib.redirect_stdout(io.StringIO()):
        assert valfun.cli.main(["report", "--problem", str(path), "--point", point]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "valfun")))
"""


def test_report_path_loads_neither_hessian_nor_oracle():
    instances = instance_path("shiftbox").parent
    assert len(list(instances.glob("*.json"))) == 18
    proc = subprocess.run([sys.executable, "-c", _REPORT_MODULES_SCRIPT, str(instances)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "valfun.kernel" in loaded
    assert "valfun.hessian" not in loaded and "valfun.oracle" not in loaded


def _thread_count(env) -> int:
    """Entries of /proc/self/task in a process that imports valfun.cli."""
    script = "import valfun.cli, os; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and at least 2 cores")
def test_cli_process_runs_blas_single_threaded():
    # OpenBLAS starts a worker per extra core when numpy loads; a process
    # that starts at the CLI asks for none, unless its caller chose a count
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    assert _thread_count(env) == 1
    assert _thread_count({**env, "OPENBLAS_NUM_THREADS": "2"}) > 1


def test_import_valfun_loads_no_submodule():
    script = "import json, sys, valfun; print(json.dumps(sorted(m for m in sys.modules " \
             "if m.split('.')[0] == 'valfun')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["valfun"]


def test_every_public_name_resolves():
    import valfun

    for name in valfun.__all__:
        assert getattr(valfun, name) is not None, name
    assert valfun.solve_value is valfun.kernel.solve_value
    assert valfun.oracle.solve_phi is not None
    with pytest.raises(AttributeError):
        getattr(valfun, "no_such_name")
