"""Per-layer tracing of valfun, applied from outside the package.

``install`` replaces the public functions of each valfun module (and the
``linprog``/``minimize`` names that ``setcalc`` and ``kernel`` bind) with
wrappers that record one span per call: name, start, end, parent span and
the operation it belongs to.  Spans stay in memory until the run ends;
``span_totals`` turns them into calls, inclusive time and per-layer self
time.  ``uninstall`` computes the deferred distinct-argument keys and
counts, then puts every original back, so an untraced measurement can run
in the same process before or after a traced one.

Module functions are patched in every valfun namespace that binds them by
name (``hessian`` imports ``build_branch_family`` and ``differentiate``
directly, for example); methods are patched on their classes; the scipy
names are patched only in the module they belong to, because ``kernel``
and ``setcalc`` bind the same ``linprog`` object.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: LP statuses that decide a query: optimal, infeasible, unbounded.
DECIDED_LP_STATUSES = (0, 2, 3)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, tag, outermost]
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.op = None
        self._stack = []
        self._open = Counter()
        self._patches = []
        self._pending = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None,
                           self._open[name] == 0])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def end(self, idx: int, tag: str | None = None) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[5] = tag
        self._stack.pop()
        self._open[rec[0]] -= 1

    def add_spans(self, spans, parent: int) -> None:
        """Adopt spans recorded by a child process (same monotonic clock)
        under the span ``parent`` of this tracer."""
        base = len(self.spans)
        for name, start, end, par, _op, tag, outer in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par,
                               self.op, tag, outer])

    # -- patching ------------------------------------------------------------

    def wrap(self, fn, name, key=None, tag=None, after=None):
        """A traced stand-in for ``fn``.

        ``key(bound_args)`` feeds the distinct-argument ratio of ``name``;
        ``tag(result)`` sub-labels the span; ``after(result, bound_args)``
        adds counts.  ``key`` and ``after`` run in ``settle`` once the pass
        is over, so their cost lands in no span; until then the wrapper
        keeps only references to the arguments, which valfun does not
        modify in place.
        """
        sig = inspect.signature(fn) if (key or after) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            label = None
            try:
                out = fn(*args, **kwargs)
                label = tag(out) if tag is not None else None
            finally:
                self.end(idx, label)
            if sig is not None:
                self._pending.append((name, sig, key, after, args, kwargs, out))
            return out

        return traced

    def settle(self) -> None:
        """Compute the distinct keys and counts of the calls recorded so far."""
        for name, sig, key, after, args, kwargs, out in self._pending:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if key is not None:
                self.keys[name].add(key(bound.arguments))
            if after is not None:
                after(out, bound.arguments)
        self._pending.clear()

    def patch_everywhere(self, module, attr, name, **kw):
        """Replace ``module.attr`` in every valfun namespace binding it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "valfun" or mod_name.startswith("valfun.")):
                continue
            for a, v in list(vars(mod).items()):
                if v is original:
                    self._patches.append((mod, a, original))
                    setattr(mod, a, wrapper)

    def patch_one(self, owner, attr, name, **kw):
        """Replace ``owner.attr`` only (a class method or a scipy binding)."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **kw))

    def install(self) -> "Tracer":
        from valfun import coderiv, firstorder, hessian, kernel, model, setcalc

        c = self.counts
        p = self.patch_everywhere
        p(model, "load_problem", "model.load_problem")
        p(model, "differentiate", "model.differentiate",
          key=lambda b: _freeze((b["problem"], b["x"], b["y"], b["u"])))
        p(model, "verify_concave_convex", "model.shape_checks")
        p(model, "verify_convex_in_y", "model.shape_checks")
        p(kernel, "solve_value", "kernel.solve_value",
          key=lambda b: _freeze((b["problem"], b["x"], b["rational"])),
          tag=lambda r: CERTIFICATE_TAGS.get(r.certificate, r.certificate))
        p(kernel, "multipliers", "kernel.multipliers",
          key=lambda b: _freeze((b["problem"], b["x"], b["y"], b["tol_act"])))
        p(kernel, "check_mfcq", "kernel.check_mfcq")
        p(firstorder, "auto_estimate", "firstorder.auto_estimate")
        p(coderiv, "build_branch_family", "coderiv.build_branch_family",
          after=lambda r, b: _count_branches(c, r, b))
        p(coderiv, "coderivative_lambda", "coderiv.coderivative")
        p(coderiv, "coderivative_S", "coderiv.coderivative")
        p(hessian, "route", "hessian.route")
        p(hessian, "compute", "hessian.compute", tag=lambda est: est.case)

        o = self.patch_one
        o(setcalc.Polyhedron, "vertices", "setcalc.vertices",
          after=lambda r, b: c.update({"setcalc.vertices.exact_calls": int(b["self"].rational)}))
        o(setcalc.Polyhedron, "feasible_point", "setcalc.feasible_point",
          key=lambda b: _freeze(b["self"]))
        o(setcalc.PolySet, "coord_range", "setcalc.coord_range")
        o(setcalc.PolySet, "member", "setcalc.member")
        o(setcalc, "linprog", "setcalc.lp",
          after=lambda r, b: c.update(
              {"setcalc.lp.undecided": int(r.status not in DECIDED_LP_STATUSES)}))
        o(kernel, "linprog", "kernel.lp")
        o(kernel, "minimize", "kernel.local_solves")
        return self

    def uninstall(self) -> None:
        self.settle()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- export --------------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "keys": {k: [repr(x) for x in v] for k, v in self.keys.items()},
        }

    def merge_counts(self, doc: dict, scope) -> None:
        """Fold a child's counts and distinct keys into this tracer; ``scope``
        keeps keys of different processes apart."""
        self.counts.update(doc["counts"])
        for k, v in doc["keys"].items():
            self.keys[k].update((scope, x) for x in v)


CERTIFICATE_TAGS = {
    "lp-exact": "lp_exact",
    "heuristic-multistart": "multistart",
    "user-pinned": "pinned",
}


def _count_branches(counts, family, bound):
    cases = 3 if bound["flavor"] == "M" else 2
    counts["coderiv.build_branch_family.branches_attempted"] += cases ** len(
        bound["partition"].theta)
    counts["coderiv.build_branch_family.branches_kept"] += len(family.branches)


def _freeze(v):
    """A hashable, value-based key for call arguments (problems by identity,
    polyhedra by their rows)."""
    if isinstance(v, tuple):
        return tuple(_freeze(x) for x in v)
    if isinstance(v, np.ndarray):
        return (v.shape, tuple(repr(x) for x in v.ravel().tolist()))
    if isinstance(v, list):
        return tuple(_freeze(x) for x in v)
    if hasattr(v, "C_eq") and hasattr(v, "d_eq"):  # Polyhedron
        return ("poly", v.dim, _freeze(v.C), _freeze(v.d), _freeze(v.C_eq),
                _freeze(v.d_eq), tuple(sorted(v.open_rows)))
    if hasattr(v, "points") and hasattr(v, "flags"):  # ParametricProblem
        return ("problem", id(v))
    return repr(v)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def child_seconds(spans) -> list[float]:
    """For each span, the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def span_totals(spans):
    """Per span name: calls, inclusive ms of outermost spans, per-tag calls
    and ms, and per-layer self ms (span time minus its child spans)."""
    child = child_seconds(spans)
    calls, ms = Counter(), Counter()
    self_ms = Counter()
    for i, (name, start, end, parent, _op, tag, outer) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        if outer:
            ms[name] += dur * 1e3
        if tag is not None:
            calls[f"{name}.{tag}"] += 1
            if outer:
                ms[f"{name}.{tag}"] += dur * 1e3
        self_ms[name.split(".", 1)[0]] += (dur - child[i]) * 1e3
    return calls, ms, self_ms


def ratio(num, den) -> float:
    """num/den, 0.0 when the base is empty (the base is reported beside it)."""
    return float(num) / den if den else 0.0
