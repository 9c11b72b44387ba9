"""The benchmark's three workloads.

Each workload turns the seed into an endless, reproducible stream of
operations, runs one operation at a time (``run``), and checks each answer
against an independent oracle after the timed window (``check``).  The
oracles come from ``valfun.oracle`` and from plain scipy/numpy and are
never timed.

* ``cli-report``: one ``python -m valfun.cli report`` process per battery
  instance.  Interpreter start-up and imports dominate; the traffic of
  acceptance 9 and ``test_cli.py``.
* ``hessian-battery``: every battery point x first-order generator x unit
  covector (42 queries), each followed by ``is_empty`` and the coordinate
  ranges the ``hessian`` command prints.  Float LP queries in ``setcalc``
  dominate; every point is pinned, so the inner solve hardly runs.
* ``value-sweep``: seeded rational perturbations of every named point,
  each solved without a pin and given a first-order estimate.  x never
  repeats, arithmetic is exact on the LP instances and SLSQP multistart
  runs on the others, so a shortcut that only helps repeated or float
  work shows up here as no gain.  ``SWEEP_EXCLUDED`` names the instances
  left out because of a known defect; each run still probes them,
  untimed, and reports whether the defect shows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from pathlib import Path

import numpy as np

#: Branch cap of acceptance criterion 3; the default cap of 8 makes eight
#: battery queries raise BranchCapError.
BRANCH_CAP = 200
#: Tolerances of the checks: acceptance 3 for Hessian columns, ``valfun
#: verify`` for gradients.
HESSIAN_TOL = 1e-3
GRADIENT_TOL = 1e-3
#: Perturbations are k / PERTURB_DEN with |k| <= PERTURB_DEN / 4, so
#: |delta| <= 1/4 and x practically never repeats within a run.
PERTURB_DEN = 4096
#: Rounds of the sweep (one perturbation of every named point each) that
#: get the finite-difference gradient check and form the traced pass.
SWEEP_PASS_ROUNDS = 5
#: Instances left out of the timed sweep, with why.  Each run still sends
#: ``PROBE_ROUNDS`` perturbed points of each through the full check, untimed,
#: and reports how many fail, so the defect stays visible; put an instance
#: back once its probe fails nowhere.
SWEEP_EXCLUDED = {
    "quarticshift": (
        "known defect: at a perturbed point the SLSQP minimizer is off by about 1e-6, "
        "the far-inactive constraint pins u = 0, so the exact stationarity row in "
        "kernel.multipliers has no solution and the convex-mfcq estimate is empty "
        "with no failed hypothesis; the finite-difference gradient lies outside it"
    ),
}
PROBE_ROUNDS = 5
#: Random feasible-point samples that a multistart value must not exceed.
SWEEP_SAMPLES = 64
FEAS_TOL = 1e-6
SCHEMA = "valfun-sens/1"


@dataclass
class Outcome:
    """What one operation returned: ``key`` is compared across runs and
    between traced and untraced passes; ``data`` feeds the checks."""

    key: object
    data: object = None
    cpu_s: float | None = None  # child CPU time, for process operations
    rss_kb: int | None = None


class Workload:
    name = ""
    #: Operations in one round of the stream; a timed window ends on a
    #: round boundary.
    round_size = 1
    #: Known defects that keep inputs out of the workload: name -> what the
    #: untimed probe found on this run.
    known_defects: dict = {}

    def __init__(self, root: Path, seed: int):
        from valfun.model import load_problem

        self.root = root
        self.seed = seed
        self.instance_dir = root / "tests" / "instances"
        self.names = sorted(p.stem for p in self.instance_dir.glob("*.json"))
        self.problems = {n: load_problem(self.path(n)) for n in self.names}
        self.points = [(n, p) for n in self.names for p in sorted(self.problems[n].points)]

    def path(self, name: str) -> Path:
        return self.instance_dir / f"{name}.json"

    def ops(self):
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work before the window: caches, .pyc files, references."""

    def run(self, op, tracer=None) -> Outcome:
        raise NotImplementedError

    def check(self, op, outcome: Outcome) -> str | None:
        """None when the answer is correct, else a one-line reason."""
        raise NotImplementedError

    def pass_ops(self) -> list:
        """The fixed operations of one traced pass."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cli-report
# ---------------------------------------------------------------------------


class CliReport(Workload):
    name = "cli-report"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.jobs = [(n, sorted(self.problems[n].points)[0]) for n in self.names]
        self.round_size = len(self.jobs)
        self.env = child_env(root)
        self.tmp = root / "bench" / "results" / "tmp"
        self.reference = {}

    def ops(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for i in rng.permutation(len(self.jobs)):
                yield self.jobs[i]

    def argv(self, job):
        name, point = job
        return ["report", "--problem", str(self.path(name)), "--point", point]

    def warm_up(self):
        import contextlib
        import io

        import valfun.cli

        for job in self.jobs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                valfun.cli.main(self.argv(job))
            self.reference[job] = buf.getvalue().encode()
        # the first process writes the .pyc files; it is not timed
        self.run(next(self.ops()))

    def run(self, op, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "valfun.cli", *self.argv(op)]
            out, rc, cpu, rss = run_process(cmd, self.env, self.tmp)
            return Outcome(key=(rc, out), cpu_s=cpu, rss_kb=rss)
        spans_path = self.tmp / f"spans-{os.getpid()}.json"
        cmd = [sys.executable, str(self.root / "bench" / "child.py"), str(spans_path),
               *self.argv(op)]
        out, rc, cpu, rss = run_process(cmd, self.env, self.tmp)
        doc = json.loads(spans_path.read_text())
        spans_path.unlink()
        tracer.add_spans(doc["spans"], parent=tracer._stack[-1])
        tracer.merge_counts(doc, scope=len(tracer.spans))
        return Outcome(key=(rc, out), cpu_s=cpu, rss_kb=rss)

    def check(self, op, outcome):
        rc, out = outcome.key
        if rc != 0:
            return f"exit code {rc}"
        if out != self.reference[op]:
            return "stdout differs from the in-process report"
        try:
            doc = json.loads(out)
        except ValueError:
            return "report is not JSON"
        if doc.get("schema") != SCHEMA:
            return f"schema {doc.get('schema')!r}"
        return None

    def pass_ops(self):
        ops = self.ops()
        return [next(ops) for _ in range(len(self.jobs))]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(cmd, env, tmp: Path):
    """Run one child to completion; (stdout, exit code, CPU s, peak RSS KB).

    stderr goes to a file so a chatty child cannot block on a full pipe,
    and the child is reaped with ``wait4`` to read its own resource use.
    """
    tmp.mkdir(parents=True, exist_ok=True)
    err_path = tmp / f"stderr-{os.getpid()}.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    rc = proc.returncode
    if rc != 0:
        out += b"\n[stderr] " + err_path.read_bytes()[-400:]
    err_path.unlink()
    return out, rc, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


# ---------------------------------------------------------------------------
# hessian-battery
# ---------------------------------------------------------------------------


class HessianBattery(Workload):
    name = "hessian-battery"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        from valfun import firstorder

        self.queries = []
        for name, point in self.points:
            prob = self.problems[name]
            xbar = prob.points[point].x
            for gen in firstorder.auto_estimate(prob, xbar).generators:
                for j in range(prob.n):
                    e = np.zeros(prob.n)
                    e[j] = 1.0
                    self.queries.append((name, point, np.asarray(gen, float), e))
        self.round_size = len(self.queries)
        self.reference = {}

    def ops(self):
        rng = np.random.default_rng(self.seed)
        while True:
            yield from (int(i) for i in rng.permutation(len(self.queries)))

    def run(self, op, tracer=None):
        from valfun import hessian

        name, point, xund, xstar = self.queries[op]
        prob = self.problems[name]
        query = hessian.HessianQuery(xbar=prob.points[point].x, xund=xund, xstar=xstar)
        est = hessian.compute(prob, query, branch_cap=BRANCH_CAP)
        empty = est.result.is_empty()
        ranges = ()
        if not empty and est.result.target_dim <= 4 and len(est.result.pieces) <= 64:
            ranges = tuple(est.result.coord_range(i) for i in range(est.result.target_dim))
        key = (est.case, empty, ranges, est.equality, est.exact,
               tuple((h.name, h.status) for h in est.hypotheses))
        return Outcome(key=key, data=est)

    def warm_up(self):
        """One untimed pass; its answers are the references, checked once
        against the finite-difference Hessian."""
        from valfun.oracle import fd_hessian

        fd = {}
        for q, (name, point, _xund, xstar) in enumerate(self.queries):
            if (name, point) not in fd:
                prob = self.problems[name]
                fd[name, point] = fd_hessian(prob, prob.points[point].x)
            try:
                out = self.run(q)
            except Exception as exc:  # any raise is a failed operation
                self.reference[q] = (None, f"{type(exc).__name__}: {exc}")
                continue
            self.reference[q] = (out.key, self._oracle(out, fd[name, point], xstar))

    @staticmethod
    def _oracle(out, fd, xstar):
        est = out.data
        if est.result.is_empty():
            return "empty estimate"
        if fd.stable:
            column = np.atleast_2d(fd.value) @ xstar
            if not est.member(column, tol=HESSIAN_TOL):
                return f"finite-difference Hessian column {column.tolist()} outside"
        return None

    def check(self, op, outcome):
        key, problem = self.reference[op]
        if problem:
            return problem
        if outcome.key != key:
            return "answer differs from the reference pass"
        return None

    def pass_ops(self):
        ops = self.ops()
        return [next(ops) for _ in range(len(self.queries))]


# ---------------------------------------------------------------------------
# value-sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    index: int
    name: str
    point: str
    x: tuple  # Fractions


class ValueSweep(Workload):
    name = "value-sweep"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.excluded = [(n, p) for n, p in self.points if n in SWEEP_EXCLUDED]
        self.points = [(n, p) for n, p in self.points if n not in SWEEP_EXCLUDED]
        self.round_size = len(self.points)

    def warm_up(self):
        """One untimed round from a stream of its own, so that the timed
        stream still never repeats an x; then the probe of the excluded
        instances."""
        ops = self.ops(np.random.default_rng([self.seed, 1]))
        for _ in range(len(self.points)):
            self.run(next(ops))
        failed = dict.fromkeys(SWEEP_EXCLUDED, 0)
        ops = self.ops(np.random.default_rng([self.seed, 2]), self.excluded)
        for _ in range(PROBE_ROUNDS * len(self.excluded)):
            op = next(ops)
            failed[op.name] += self.check(op, self.run(op)) is not None
        self.known_defects = {
            name: f"{why}. Probe: the check fails at {failed[name]} of {PROBE_ROUNDS} "
                  "perturbed points"
            for name, why in SWEEP_EXCLUDED.items()}

    def ops(self, rng=None, points=None):
        rng = rng or np.random.default_rng(self.seed)
        points = points or self.points
        index = count()
        lim = PERTURB_DEN // 4
        while True:
            for i in rng.permutation(len(points)):
                name, point = points[i]
                base = self.problems[name].points[point].x
                ks = rng.integers(-lim, lim + 1, size=base.shape[0])
                x = tuple(Fraction(float(b)) + Fraction(int(k), PERTURB_DEN)
                          for b, k in zip(base, ks))
                yield SweepPoint(next(index), name, point, x)

    def run(self, op, tracer=None):
        from valfun import firstorder, kernel

        prob = self.problems[op.name]
        xf = np.array([float(v) for v in op.x])
        if prob.affine_in_y():
            res = kernel.solve_value(prob, np.array(op.x, dtype=object), rational=True)
        else:
            res = kernel.solve_value(prob, xf)
        fo = firstorder.auto_estimate(prob, xf, minimizers=res.minimizers)
        key = (res.certificate, repr(res.value), str(res.value_exact),
               tuple(repr(v) for y in res.minimizers for v in y.tolist()),
               fo.formula, tuple(repr(v) for g in fo.generators for v in g.tolist()),
               tuple((h.name, h.status) for h in fo.hypotheses))
        return Outcome(key=key, data=(res, fo))

    def check(self, op, outcome):
        from valfun.oracle import fd_gradient, lp_value_oracle

        res, fo = outcome.data
        prob = self.problems[op.name]
        xf = np.array([float(v) for v in op.x])
        if res.certificate == "lp-exact":
            want, _ = lp_value_oracle(prob, op.x)
            if want is None or Fraction(want) != res.value_exact:
                return f"exact value {res.value_exact} but the LP oracle gives {want}"
        else:
            problem = self._check_minimizers(prob, xf, res, op.index)
            if problem:
                return problem
        if op.index < SWEEP_PASS_ROUNDS * len(self.points):
            fd = fd_gradient(prob, xf)
            if fd.stable:
                verdict = fo.member(fd.value, tol=GRADIENT_TOL)
                if verdict.status == "outside":
                    return (f"finite-difference gradient {fd.value.tolist()} outside the "
                            f"{fo.formula} estimate ({len(fo.generators)} generators)")
        return None

    def _check_minimizers(self, prob, xf, res, index):
        scale = FEAS_TOL * max(1.0, abs(res.value))
        for y in res.minimizers:
            if prob.p and np.max(prob.eval_g(xf, y)) > FEAS_TOL:
                return "minimizer infeasible"
            if abs(prob.eval_f(xf, y) - res.value) > scale:
                return "minimizer does not attain the value"
        if prob.y_box is None:
            return None
        rng = np.random.default_rng([self.seed, index])
        lo = np.array([b[0] for b in prob.y_box])
        hi = np.array([b[1] for b in prob.y_box])
        for y in rng.uniform(lo, hi, size=(SWEEP_SAMPLES, prob.m)):
            if prob.p and np.max(prob.eval_g(xf, y)) > 0.0:
                continue
            if prob.eval_f(xf, y) < res.value - scale:
                return f"feasible sample {y.tolist()} beats the value {res.value!r}"
        return None

    def pass_ops(self):
        ops = self.ops()
        return [next(ops) for _ in range(SWEEP_PASS_ROUNDS * len(self.points))]


WORKLOADS = {w.name: w for w in (CliReport, HessianBattery, ValueSweep)}
