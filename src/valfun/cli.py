"""Command-line interface.

Subcommands: ``analyze`` (point diagnostics), ``first-order`` (gradient
set estimate), ``hessian`` (second-order estimate), ``verify`` (check a
problem file and its pinned points), ``report`` (one JSON document with
everything).  Exit codes: 0 success, 1 when ``first-order``, ``hessian``
or ``report`` prints an empty estimate (a diagnostic, not an error), 2 a
stated hypothesis failed or the point is invalid, 64 usage errors.

A process that starts here runs BLAS single-threaded unless the caller
sets ``OPENBLAS_NUM_THREADS``.  numpy's bundled OpenBLAS starts one worker
thread per extra core when it loads; valfun's matrices (at most 12 x 12
Hessian pieces and 8 x 20 problem data) are far below its threading
sizes, so the workers never get work but cost the process CPU.  A host
that has loaded numpy before importing this module keeps its own
threading.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

if "numpy" not in sys.modules:  # this process starts at the CLI
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import firstorder, kernel
from .coderiv import DEFAULT_BRANCH_CAP, PointContext
from .errors import ParseError, ProblemFormatError, UsageError, ValfunError
from .model import (
    DEFAULT_TOL_ACT,
    DEFAULT_TOL_KKT,
    kkt_residual,
    load_problem,
    problem_to_json,
    verify_concave_convex,
    verify_convex_in_y,
)
from .reporting import CASES

SCHEMA = "valfun-sens/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _parse_vec(text: str, rational: bool = False) -> np.ndarray:
    parts = [t.strip() for t in text.split(",") if t.strip()]
    if not parts:
        raise UsageError("empty vector argument")
    try:
        if rational:
            return np.array([Fraction(t) for t in parts], dtype=object)
        return np.array([float(t) for t in parts], dtype=float)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse vector {text!r}: {exc}") from exc


def _resolve_xbar(problem, args) -> np.ndarray:
    if getattr(args, "xbar", None):
        return _parse_vec(args.xbar, getattr(args, "rational", False))
    if getattr(args, "point", None):
        pt = problem.points.get(args.point)
        if pt is None:
            raise UsageError(
                f"problem has no point named {args.point!r} "
                f"(available: {sorted(problem.points)})"
            )
        return pt.x
    raise UsageError("provide --xbar or --point")


def _fmt_vec(v) -> str:
    return "[" + ", ".join(f"{float(x):.6g}" for x in np.atleast_1d(v)) + "]"


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    problem = load_problem(args.problem)
    xbar = _resolve_xbar(problem, args)
    res = kernel.solve_value(problem, xbar)
    doc = {
        "schema": SCHEMA,
        "command": "analyze",
        "n": problem.n,
        "m": problem.m,
        "p": problem.p,
        "xbar": [float(v) for v in xbar],
        "value": res.value,
        "certificate": res.certificate,
        "minimizers": [],
    }
    lines = [
        f"problem: n={problem.n} m={problem.m} p={problem.p}",
        f"xbar: {_fmt_vec(xbar)}",
        f"value: {res.value:.9g}  ({res.certificate})",
    ]
    ctxs = [PointContext(problem, xbar, y, args.tol_act) for y in res.minimizers]
    for k, ctx in enumerate(ctxs):
        y, mult, mfcq = ctx.y, ctx.mult, ctx.mfcq
        licq = kernel.check_licq(problem, xbar, y, tol_act=args.tol_act)
        entry = {
            "y": [float(v) for v in y],
            "multiplier_vertices": [[float(v) for v in u] for u in mult.vertices],
            "multipliers_bounded": mult.bounded,
            "licq": licq.holds,
            "mfcq": mfcq.holds,
        }
        lines.append(f"minimizer {k}: {_fmt_vec(y)}")
        lines.append(
            f"  multipliers: {len(mult.vertices)} vertex(es)"
            + ("" if mult.bounded else " (unbounded set)")
        )
        for j, u in enumerate(mult.vertices):
            kkt = ctx.kkt(j)
            part = kkt.partition
            entry.setdefault("partitions", []).append(
                {
                    "u": [float(v) for v in u],
                    "eta": list(part.eta),
                    "theta": list(part.theta),
                    "nu": list(part.nu),
                    "ambiguous": list(part.ambiguous),
                    "kkt_residual": kkt.kkt_residual,
                }
            )
            lines.append(
                f"    u={_fmt_vec(u)}  eta={list(part.eta)} theta={list(part.theta)} "
                f"nu={list(part.nu)}"
                + (f" ambiguous={list(part.ambiguous)}" if part.ambiguous else "")
            )
        lines.append(f"  licq: {'yes' if licq.holds else 'no'}   "
                     f"mfcq: {'yes' if mfcq.holds else 'no'}")
        doc["minimizers"].append(entry)
    fo = firstorder.auto_estimate(problem, xbar, contexts=ctxs)
    doc["first_order"] = fo.to_json()
    lines.append(
        f"first-order estimate ({fo.formula}): {len(fo.result.pieces)} piece(s), "
        f"{len(fo.generators)} generator(s)"
    )
    _emit(doc, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# first-order
# ---------------------------------------------------------------------------


def _cmd_first_order(args) -> int:
    problem = load_problem(args.problem)
    xbar = _resolve_xbar(problem, args)
    fo = firstorder.auto_estimate(problem, xbar)
    doc = {
        "schema": SCHEMA,
        "command": "first-order",
        "xbar": [float(v) for v in xbar],
        "estimate": fo.to_json(),
    }
    lines = [
        f"formula: {fo.formula}",
        f"pieces: {len(fo.result.pieces)}",
        f"generators: " + "; ".join(_fmt_vec(g) for g in fo.generators),
    ]
    for h in fo.hypotheses:
        lines.append(f"hypothesis {h.name}: {h.status}" + (f" ({h.detail})" if h.detail else ""))
    rc = 0
    if args.xund:
        xund = _parse_vec(args.xund)
        verdict = fo.member(xund, tol=1e-6)
        doc["membership"] = {
            "xund": [float(v) for v in xund],
            "status": verdict.status,
            "distance": verdict.distance,
        }
        lines.append(f"membership of {_fmt_vec(xund)}: {verdict.status} "
                     f"(distance bound {verdict.distance:.3e})")
    if fo.result.is_empty():
        lines.append("estimate is empty")
        rc = 1
    _emit(doc, args.json, lines)
    return rc


# ---------------------------------------------------------------------------
# hessian
# ---------------------------------------------------------------------------


def _hessian_estimate(problem, args):
    from . import hessian  # only the commands that query it pay its import

    xbar = _resolve_xbar(problem, args)
    if args.xund is None or args.xstar is None:
        raise UsageError("hessian queries need --xund and --xstar")
    xund = _parse_vec(args.xund, args.rational)
    xstar = _parse_vec(args.xstar, args.rational)
    query = hessian.HessianQuery(xbar=xbar, xund=xund, xstar=xstar, case=args.case)
    return hessian.compute(
        problem,
        query,
        flavor=args.flavor,
        branch_cap=args.branch_cap,
    )


def _cmd_hessian(args) -> int:
    problem = load_problem(args.problem)
    est = _hessian_estimate(problem, args)
    doc = {"schema": SCHEMA, "command": "hessian", "estimate": est.to_json()}
    lines = [
        f"case: {est.case}   theorem: {est.theorem}",
        f"pieces: {len(est.result.pieces)}"
        + ("   (exact rational)" if est.exact else "")
        + ("   equality" if est.equality else "   inclusion"),
    ]
    for h in est.hypotheses:
        lines.append(f"hypothesis {h.name}: {h.status}" + (f" ({h.detail})" if h.detail else ""))
    rc = 0
    if est.result.is_empty():
        lines.append("estimate is empty (no graph point matched the query)")
        rc = 1
    elif est.result.target_dim <= 4 and len(est.result.pieces) <= 64:
        for i in range(est.result.target_dim):
            lo, hi = est.result.coord_range(i)
            lo_s = f"{lo:.6g}" if np.isfinite(lo) else "-inf"
            hi_s = f"{hi:.6g}" if np.isfinite(hi) else "+inf"
            lines.append(f"coordinate {i}: range [{lo_s}, {hi_s}]")
    _emit(doc, args.json, lines)
    return rc


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    from . import oracle

    problem = load_problem(args.problem)
    checks = []  # (name, ok, detail)

    cc = verify_concave_convex(problem)
    cy = verify_convex_in_y(problem)
    if problem.flags.get("concave_convex") and cc == "failed":
        checks.append(("shape-flags", False,
                       "concave-convex flag contradicts the quadratic check"))
    elif problem.flags.get("convex_in_y") and cy == "failed":
        checks.append(("shape-flags", False,
                       "convex-in-y flag contradicts the quadratic check"))
    else:
        checks.append(("shape-flags", True,
                       f"joint shape {cc}, inner convexity {cy}"))

    for name, pt in sorted(problem.points.items()):
        tag = f"point[{name}]"
        try:
            res = kernel.solve_value(problem, pt.x)
        except ValfunError as exc:
            checks.append((tag, False, f"solve failed: {exc}"))
            continue
        if pt.minimizers:
            for k, y in enumerate(pt.minimizers):
                fval = problem.eval_f(pt.x, y)
                ok = abs(fval - res.value) <= 1e-6 * max(1.0, abs(res.value))
                checks.append(
                    (f"{tag}.minimizer{k}", ok,
                     f"pinned value {fval:.9g} vs solved {res.value:.9g}")
                )
        if pt.u is not None and pt.minimizers:
            r = kkt_residual(problem, pt.x, pt.minimizers[0], pt.u)
            checks.append(
                (f"{tag}.kkt", r <= args.tol_kkt, f"residual {r:.3e} (tol {args.tol_kkt:g})")
            )
        fd = oracle.fd_gradient(problem, pt.x)
        if fd.stable:
            fo = firstorder.auto_estimate(problem, pt.x, minimizers=res.minimizers)
            verdict = fo.member(fd.value, tol=1e-3)
            checks.append(
                (f"{tag}.gradient", verdict.status != "outside",
                 f"finite-difference gradient {verdict.status} of the {fo.formula} estimate")
            )
        else:
            checks.append(
                (f"{tag}.gradient", True,
                 f"finite differences unstable (spread {fd.spread:.2e}); skipped")
            )

    ok_all = all(ok for _, ok, _ in checks)
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "ok": bool(ok_all),
    }
    lines = [f"{'PASS' if ok else 'FAIL'}  {n}: {d}" for n, ok, d in checks]
    lines.append("all checks passed" if ok_all else "some checks FAILED")
    _emit(doc, args.json, lines)
    return 0 if ok_all else 2


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args) -> int:
    problem = load_problem(args.problem)
    xbar = _resolve_xbar(problem, args)
    doc = {
        "schema": SCHEMA,
        "command": "report",
        "problem": problem_to_json(problem),
        "xbar": [float(v) for v in xbar],
    }
    res = kernel.solve_value(problem, xbar)
    doc["value"] = res.value
    doc["certificate"] = res.certificate
    doc["minimizers"] = [[float(v) for v in y] for y in res.minimizers]
    fo = firstorder.auto_estimate(problem, xbar, minimizers=res.minimizers)
    doc["first_order"] = fo.to_json()
    rc = 0
    if args.xund is not None and args.xstar is not None:
        est = _hessian_estimate(problem, args)
        doc["hessian"] = est.to_json()
        if est.result.is_empty():
            rc = 1
    elif args.xund is not None or args.xstar is not None:
        raise UsageError("report needs both --xund and --xstar (or neither)")
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return rc


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="valfun", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=True):
        p.add_argument("--problem", required=True, help="problem description file (JSON)")
        p.add_argument("--xbar", help="parameter point, comma-separated")
        if point:
            p.add_argument("--point", help="named point from the problem file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    pa = sub.add_parser("analyze", help="diagnose the inner problem at a point")
    common(pa)
    pa.add_argument("--tol-act", type=float, default=DEFAULT_TOL_ACT)
    pa.set_defaults(func=_cmd_analyze)

    pf = sub.add_parser("first-order", help="gradient set estimate at a point")
    common(pf)
    pf.add_argument("--xund", help="candidate gradient to test for membership")
    pf.set_defaults(func=_cmd_first_order)

    ph = sub.add_parser("hessian", help="second-order set estimate")
    common(ph)
    ph.add_argument("--xund", required=True, help="base gradient, comma-separated")
    ph.add_argument("--xstar", required=True, help="outer covector, comma-separated")
    ph.add_argument("--case", choices=CASES, default="auto")
    ph.add_argument("--flavor", choices=("M", "C"), default="M",
                    help="branch family flavor: M (three-case) or C (two-case hull)")
    ph.add_argument("--branch-cap", type=int, default=DEFAULT_BRANCH_CAP)
    ph.add_argument("--rational", action="store_true",
                    help="parse query vectors as exact rationals")
    ph.set_defaults(func=_cmd_hessian)

    pv = sub.add_parser("verify", help="check a problem file and its pinned points")
    pv.add_argument("--problem", required=True)
    pv.add_argument("--tol-kkt", type=float, default=DEFAULT_TOL_KKT)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=_cmd_verify)

    pr = sub.add_parser("report", help="full JSON report (first and second order)")
    common(pr)
    pr.add_argument("--xund")
    pr.add_argument("--xstar")
    pr.add_argument("--case", choices=CASES, default="auto")
    pr.add_argument("--flavor", choices=("M", "C"), default="M")
    pr.add_argument("--branch-cap", type=int, default=DEFAULT_BRANCH_CAP)
    pr.add_argument("--rational", action="store_true")
    pr.add_argument("--out", help="write the report to a file instead of stdout")
    pr.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"valfun: usage error: {exc}", file=sys.stderr)
        return 64
    except (ParseError, ProblemFormatError) as exc:
        print(f"valfun: bad problem file: {exc}", file=sys.stderr)
        return 64
    except ValfunError as exc:
        print(f"valfun: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
