"""valfun benchmark: one closed-loop client, three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
One client sends the next operation only after the previous one has
finished.  Each run

1. times set-up in fresh processes: ``import valfun`` plus loading the
   battery instances (the median of several);
2. warms up (untimed), then runs operations until they have taken
   ``--seconds`` seconds and the last round is complete;
3. checks each answer right after its operation, untimed, against an
   independent oracle;
4. with ``--trace 1``, runs one fixed pass of the workload again with the
   tracer installed (``tracer.py``), checks that it gives the same answers,
   and reports the per-layer table instead of the end-to-end metrics.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record (machine, sample counts, failures, shares with their bases) goes
to ``bench/results/``, and with ``--trace 1`` the spans go beside it.
Metric names and units are listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

#: Fresh-process repetitions of set-up, bare start-up and ``import
#: valfun.cli``; the median is reported.
REPEATS = 5
#: Baseline figures to compare traced counts against (ROADMAP Baseline).
BASELINE = {
    "setcalc.lp.calls": ("ROADMAP Baseline: about 795 linprog calls per hessian-battery pass, "
                         "the kernel.lp calls included"),
    "cli.import_ms": "about 600 ms of scipy import per process (ROADMAP)",
}

CALL_NAMES = (
    "model.load_problem", "model.differentiate", "model.shape_checks",
    "kernel.solve_value", "kernel.solve_value.lp_exact", "kernel.solve_value.multistart",
    "kernel.solve_value.pinned", "kernel.local_solves", "kernel.multipliers",
    "kernel.check_mfcq", "kernel.lp",
    "setcalc.vertices", "setcalc.feasible_point", "setcalc.coord_range",
    "setcalc.member", "setcalc.lp",
    "firstorder.auto_estimate",
    "coderiv.build_branch_family", "coderiv.coderivative",
    "hessian.route", "hessian.compute",
    "hessian.compute.unperturbed", "hessian.compute.single-single",
    "hessian.compute.single-s", "hessian.compute.single-lambda",
    "hessian.compute.lp-lhs", "hessian.compute.lp-lhs-rhs",
)
DISTINCT_NAMES = ("model.differentiate", "kernel.solve_value", "kernel.multipliers",
                  "setcalc.feasible_point")
SELF_LAYERS = ("model", "kernel", "setcalc", "firstorder", "coderiv", "hessian")

END_TO_END = (
    ("ops_per_s", "1/s"), ("op_ms.p50", "ms"), ("op_ms.p90", "ms"),
    ("op_cpu_ms.p50", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict:
    units = {}
    for name in CALL_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
    for name in DISTINCT_NAMES:
        units[f"{name}.distinct_ratio"] = "ratio"
    units.update({
        "setcalc.vertices.exact_calls": "count",
        "setcalc.lp.mean_ms": "ms",
        "setcalc.lp.undecided": "count",
        "setcalc.lp.share": "ratio",
        "kernel.solve_value.share": "ratio",
        "coderiv.build_branch_family.branches_attempted": "count",
        "coderiv.build_branch_family.branches_kept": "count",
        "coderiv.build_branch_family.kept_ratio": "ratio",
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "cli.main_ms": "ms",
        "cli.self_ms": "ms",
        "cli.process_ms": "ms",
        "cli.import.share": "ratio",
        "trace.ops": "count",
        "trace.pass_ms": "ms",
        "trace.spans": "count",
        "trace.ops_per_s": "1/s",
        "trace.overhead_pct": "%",
    })
    for layer in SELF_LAYERS:
        units[f"{layer}.self_ms"] = "ms"
    return units


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond it,
    capped at 90.  A window holds at least one round of 18 or more
    operations, so it is above 40."""
    return min(90.0, 100.0 * (n - 10) / n)


def fresh_process_seconds(cmd, read=None) -> list[float]:
    """Run ``cmd`` ``REPEATS`` times in fresh processes.  Each time is what
    ``read(stdout)`` returns, or the wall time of the whole process."""
    from workloads import child_env

    env = child_env(ROOT)
    out = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        res = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True,
                             timeout=120)
        wall = time.perf_counter() - t
        out.append(read(res.stdout) if read else wall)
    return out


SETUP_CODE = """
import sys, time
t = time.perf_counter()
import valfun
for path in sys.argv[1:]:
    valfun.load_problem(path)
print(time.perf_counter() - t)
"""


def setup_seconds(workload) -> list[float]:
    """``import valfun`` plus loading the workload's problem files."""
    cmd = [sys.executable, "-c", SETUP_CODE, *(str(workload.path(n)) for n in workload.names)]
    return fresh_process_seconds(cmd, read=lambda out: float(out.split()[-1]))


def import_seconds() -> list[float]:
    """``import valfun.cli`` as timed by ``child.py`` with no CLI arguments."""
    path = RESULTS / "tmp" / f"import-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)

    def read(_stdout):
        _name, start, end = json.loads(path.read_text())["spans"][0][:3]
        path.unlink()
        return end - start

    return fresh_process_seconds([sys.executable, str(BENCH_DIR / "child.py"), str(path)],
                                 read)


def measure_window(workload, seconds: float, keep_keys: int) -> list[dict]:
    """Closed loop: run operations until they have taken ``seconds`` and
    the last round is complete, so every window holds the same mix.

    Each answer is checked right after its operation, outside the timed
    part, and then dropped, so the benchmark's own memory does not grow
    with throughput.  The answers of the first ``keep_keys`` operations
    are kept for comparison with the traced pass.
    """
    samples, busy = [], 0.0
    ops = workload.ops()
    while busy < seconds or len(samples) % workload.round_size:
        s = timed_op(workload, next(ops))
        finish(workload, s, keep_key=len(samples) < keep_keys)
        samples.append(s)
        busy += s["ms"] / 1e3
    return samples


def timed_op(workload, op, tracer=None) -> dict:
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        out, error = workload.run(op, tracer), None
    except Exception as exc:  # a raising operation is a failed operation
        out, error = None, f"{type(exc).__name__}: {exc}"
    w1, c1 = time.perf_counter(), time.process_time()
    cpu = out.cpu_s if out is not None and out.cpu_s is not None else c1 - c0
    return {"op": op, "out": out, "error": error, "ms": (w1 - w0) * 1e3, "cpu_ms": cpu * 1e3}


def finish(workload, s: dict, keep_key: bool) -> None:
    """Check one answer, then keep only what the report needs."""
    out = s.pop("out")
    reason = s.pop("error") or workload.check(s["op"], out)
    s["failure"] = f"{str(s['op'])[:160]}: {reason}" if reason else None
    s["rss_kb"] = out.rss_kb if out is not None else None
    if keep_key:
        s["key"] = out.key if out is not None else None
    else:
        del s["op"]


def end_to_end(samples, setup) -> tuple[dict, dict]:
    lat = [s["ms"] for s in samples]
    cpu = [s["cpu_ms"] for s in samples]
    rss = [s["rss_kb"] for s in samples if s["rss_kb"]]
    peak_kb = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "ops_per_s": len(samples) / (sum(lat) / 1e3),
        "op_ms.p50": statistics.median(lat),
        "op_ms.p90": float(np.percentile(lat, tail_percentile(len(lat)))),
        "op_cpu_ms.p50": statistics.median(cpu),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {
        "samples": len(lat),
        "tail_percentile": tail_percentile(len(lat)),
        "samples_beyond_tail": sum(1 for v in lat if v > values["op_ms.p90"]),
        "op_ms.max": max(lat),
        "setup_s.all": setup,
        "peak_rss_source": "largest child" if rss else "benchmark process",
    }
    return values, detail


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------


def traced_pass(workload, pass_ops, untraced_ops_per_s) -> tuple:
    from tracer import Tracer, ratio, span_totals

    tr = Tracer()
    samples = []
    with tr:
        for i, op in enumerate(pass_ops):
            tr.op = i
            idx = tr.begin("op")
            try:
                samples.append(timed_op(workload, op, tr))
            finally:
                tr.end(idx)
    for s in samples:
        finish(workload, s, keep_key=True)
    calls, ms, self_ms = span_totals(tr.spans)
    c, keys = tr.counts, tr.keys

    m = {}
    for name in CALL_NAMES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.ms"] = ms[name]
    for name in DISTINCT_NAMES:
        m[f"{name}.distinct_ratio"] = ratio(len(keys[name]), calls[name])
    pass_ms = sum(s["ms"] for s in samples)
    traced_ops_per_s = len(samples) / (pass_ms / 1e3)
    attempted = c["coderiv.build_branch_family.branches_attempted"]
    kept = c["coderiv.build_branch_family.branches_kept"]
    m.update({
        "setcalc.vertices.exact_calls": c["setcalc.vertices.exact_calls"],
        "setcalc.lp.mean_ms": ratio(ms["setcalc.lp"], calls["setcalc.lp"]),
        "setcalc.lp.undecided": c["setcalc.lp.undecided"],
        "setcalc.lp.share": ratio(ms["setcalc.lp"], pass_ms),
        "kernel.solve_value.share": ratio(ms["kernel.solve_value"], pass_ms),
        "coderiv.build_branch_family.branches_attempted": attempted,
        "coderiv.build_branch_family.branches_kept": kept,
        "coderiv.build_branch_family.kept_ratio": ratio(kept, attempted),
        "trace.ops": len(samples),
        "trace.pass_ms": pass_ms,
        "trace.spans": len(tr.spans),
        "trace.ops_per_s": traced_ops_per_s,
        "trace.overhead_pct": 100.0 * ratio(untraced_ops_per_s - traced_ops_per_s,
                                            untraced_ops_per_s),
    })
    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms"] = self_ms[layer]
    m.update(cli_metrics(tr.spans))
    bases = {
        "setcalc.lp.share": f"setcalc.lp.ms {ms['setcalc.lp']:.1f} over trace.pass_ms {pass_ms:.1f}",
        "kernel.solve_value.share": (f"kernel.solve_value.ms {ms['kernel.solve_value']:.1f} "
                                     f"over trace.pass_ms {pass_ms:.1f}"),
        "cli.import.share": (f"cli.import_ms {m['cli.import_ms']:.1f} over cli.process_ms "
                             f"{m['cli.process_ms']:.1f} (per-process medians)"),
        "kept_ratio": f"{kept} kept of {attempted} attempted",
        "distinct_ratio": {n: f"{len(keys[n])} distinct of {calls[n]} calls"
                           for n in DISTINCT_NAMES},
        "solve_value_by_certificate_ms": {t: ms[f"kernel.solve_value.{t}"]
                                          for t in ("lp_exact", "multistart", "pinned")},
    }
    return m, bases, samples, tr


def cli_metrics(spans) -> dict:
    """Per-process medians of the traced CLI children, or fresh-process
    timings of start-up and import when the workload runs no CLI."""
    from tracer import child_seconds, ratio

    by_op = {}
    for i, (name, _start, _end, _parent, op, *_) in enumerate(spans):
        by_op.setdefault(op, {})[name] = i
    child_time = child_seconds(spans)

    def ms(i):
        return (spans[i][2] - spans[i][1]) * 1e3

    rows = []
    for names in by_op.values():
        if "cli.main" in names:
            main = names["cli.main"]
            rows.append((ms(names["cli.import"]), ms(main), ms(main) - child_time[main] * 1e3,
                         ms(names["op"])))
    if rows:
        imp, main, self_ms, proc = (statistics.median(col) for col in zip(*rows))
    else:
        imp = 1e3 * statistics.median(import_seconds())
        main = self_ms = proc = 0.0
    interp = 1e3 * statistics.median(
        fresh_process_seconds([sys.executable, "-c", "pass"]))
    return {
        "cli.interpreter_ms": interp,
        "cli.import_ms": imp,
        "cli.main_ms": main,
        "cli.self_ms": self_ms,
        "cli.process_ms": proc,
        "cli.import.share": ratio(imp, proc),
    }


# ---------------------------------------------------------------------------
# machine and main
# ---------------------------------------------------------------------------


def git_commit() -> str:
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def machine() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    for need in (ROOT / "src" / "valfun", ROOT / "tests" / "instances"):
        if not need.is_dir():
            print(f"benchmark: {need.relative_to(ROOT)} is missing; run from a checkout "
                  "of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    from workloads import WORKLOADS

    info = machine()
    RESULTS.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    setup = setup_seconds(workload)
    workload.warm_up()
    pass_ops = workload.pass_ops()
    samples = measure_window(workload, args.seconds, keep_keys=len(pass_ops))
    failures = [s["failure"] for s in samples if s["failure"]]
    e2e, detail = end_to_end(samples, setup)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "end_to_end": e2e, "detail": detail,
              "attempted": len(samples), "failed": len(failures),
              "fail_ratio": len(failures) / len(samples), "failures": failures[:50],
              "known_defects": workload.known_defects}
    correct = not failures
    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}

    if args.trace:
        layer, bases, traced, tr = traced_pass(workload, pass_ops, e2e["ops_per_s"])
        traced_failures = [s["failure"] for s in traced if s["failure"]]
        reference = {s["op"]: s["key"] for s in samples if "key" in s}
        compared = [s for s in traced if s["op"] in reference]
        mismatched = [str(s["op"])[:160] for s in compared if reference[s["op"]] != s["key"]]
        correct = correct and not traced_failures and not mismatched
        units = per_layer_units()
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
        record.update({"per_layer": layer, "bases": bases,
                       "traced": {"ops": len(traced), "failed": len(traced_failures),
                                  "failures": traced_failures[:50],
                                  "answers_compared": len(compared),
                                  "answers_differ": mismatched[:50]},
                       "baseline": {k: {"measured": layer[k], "reference": v}
                                    for k, v in BASELINE.items()}})
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.json"
        spans_path.write_text(json.dumps(tr.export()))

    record["correct"] = correct
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, default=str))
    print_human(record, metrics)
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def print_human(record, metrics) -> None:
    m = record["machine"]
    print(f"# valfun benchmark  workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"# python {m['python']}  numpy {m['numpy']}  scipy {m['scipy']}  "
          f"nproc {m['nproc']}  loadavg {m['loadavg_at_start'][0]:.2f}  commit {m['commit'][:12]}")
    d = record["detail"]
    print(f"# {record['attempted']} operations, {record['failed']} failed "
          f"(fail_ratio {record['fail_ratio']:.4f}); op_ms.p90 is taken at percentile "
          f"{d['tail_percentile']:.1f} of {d['samples']} samples, "
          f"{d['samples_beyond_tail']} beyond it")
    for reason in record["failures"][:5]:
        print(f"#   failed: {reason}")
    for name, note in record["known_defects"].items():
        print(f"# left out of the workload: {name}: {note}")
    for name, v in metrics.items():
        print(f"{name:48s} {v['value']:14.4f} {v['unit']}")
    if record["trace"]:
        t = record["traced"]
        print(f"# traced pass: {t['ops']} operations, {t['failed']} failed, "
              f"{t['answers_compared']} answers compared with the untraced run, "
              f"{len(t['answers_differ'])} differ")
        for k, v in record["bases"].items():
            print(f"# base {k}: {v}")
        for k, v in record["baseline"].items():
            print(f"# baseline {k}: measured {v['measured']:.1f}; {v['reference']}")


if __name__ == "__main__":
    sys.exit(main())
