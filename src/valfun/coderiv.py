"""Coderivative estimates for the multiplier and solution maps.

The common engine is a branch family over auxiliary directions
(a, c) in R^(m+p): a pairs with the decision variables, c with the
constraints.  At a KKT point with index partition (eta, theta, nu) and an
input covector u* the family is cut out by

* nu rows:   u*_i + gy_i . a = 0,
* eta rows:  c_i = 0,
* theta rows, one branch per case assignment:
    - M flavor, three cases per index: {c_i = 0}, {u*_i + gy_i . a = 0},
      or the strict quadrant {u*_i + gy_i . a > 0, c_i > 0};
    - C flavor, two closed cases: {c_i >= 0, u*_i + gy_i . a >= 0} or
      {c_i <= 0, u*_i + gy_i . a <= 0}.

Strict rows are carried as open-row flags on the closure, which is the
sound direction for upper estimates.  The coderivative estimates are the
images of these branches under

    (a, c)  ->  ( Lxy a + gx^T c,  Lyy a + gy^T c ),

the multiplier-map estimate keeping both blocks and the solution-map
estimate keeping the x-block on the slice where the y-block cancels the
requested covector.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from . import kernel
from .errors import BranchCapError, HypothesisError
from .model import DEFAULT_TOL_ACT, KktPoint, ParametricProblem, Partition, kkt_point
from .reporting import ASSUMED, FAILED, VERIFIED, HypothesisRecord, convex_in_y_record
from .setcalc import Piece, Polyhedron, PolySet, _eq_block, _int_row, weight_polytope

DEFAULT_BRANCH_CAP = 8


@dataclass
class Branch:
    poly: Polyhedron  # in (a, c) space, dim m + p
    label: str


@dataclass
class BranchFamily:
    m: int
    p: int
    partition: Partition
    u_star: np.ndarray
    flavor: str
    branches: list[Branch]
    gy: np.ndarray

    @property
    def dim(self) -> int:
        return self.m + self.p


def build_branch_family(
    gy,
    partition: Partition,
    u_star,
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> BranchFamily:
    """Construct the branch family from raw constraint-gradient rows.

    ``gy`` is the p x m matrix of constraint gradients in y (rational
    entries allowed, the rows are copied verbatim into the polyhedra).  On
    rational data each row [gy_i | -u*_i] is scaled to integers once for
    the whole family, and every branch takes its integer rows from those
    and from unit rows.  The cap bounds cases^|theta|; exceeding it raises
    with the theta size in the message so callers can re-run with a larger
    cap.
    """
    gy = np.asarray(gy)
    if gy.dtype != object:
        gy = np.asarray(gy, dtype=float)
    if gy.ndim != 2:
        raise ValueError("constraint-gradient matrix must be p x m")
    p, m = gy.shape
    u_star = np.asarray(u_star)
    if u_star.dtype != object:
        u_star = np.atleast_1d(np.asarray(u_star, dtype=float))
    if flavor not in ("M", "C"):
        raise ValueError("flavor must be 'M' or 'C'")
    theta = list(partition.theta)
    n_cases = 3 if flavor == "M" else 2
    if n_cases ** len(theta) > branch_cap:
        raise BranchCapError(
            f"{n_cases}^{len(theta)} = {n_cases ** len(theta)} branches exceed the "
            f"cap {branch_cap}; raise --branch-cap to enumerate |theta|={len(theta)}"
        )
    dim = m + p
    exact = gy.dtype == object or u_star.dtype == object
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    dt = object if exact else float
    # the integer row of [gy_i | 0] with rhs -u*_i, scaled once
    scaled = [_int_row([*gy[i], -u_star[i]]) for i in range(p)] if exact else ()

    def arow(i, neg):
        # row of (a, c) coefficients picking gy_i . a, with rhs -u*_i (both
        # negated when ``neg``), and its integer row on rational data
        row = [zero] * dim
        for k in range(m):
            row[k] = -gy[i, k] if neg else gy[i, k]
        irow = None
        if exact:
            irow = [-v if neg else v for v in scaled[i][:m] + [0] * p + scaled[i][m:]]
        return row, (u_star[i] if neg else -u_star[i]), irow

    def crow(i, neg):
        # the unit row picking c_i (negated when ``neg``), with rhs 0
        row, irow = [zero] * dim, [0] * (dim + 1)
        row[m + i], irow[m + i] = (-one, -1) if neg else (one, 1)
        return row, zero, irow

    # every row a branch can take, built once for the family: row i is
    # [gy_i | 0], p + i its negation, 2p + i the unit row of c_i, 3p + i its
    # negation
    table = [arow(i, False) for i in range(p)] + [arow(i, True) for i in range(p)] \
        + [crow(i, False) for i in range(p)] + [crow(i, True) for i in range(p)]
    R = np.array([t[0] for t in table], dtype=dt).reshape(len(table), dim)
    rhs = np.array([t[1] for t in table], dtype=dt)

    def pick(idx):
        # the rows idx of the table, shaped as Polyhedron shapes them
        if not idx:
            return np.zeros((0, dim)), np.zeros(0), [] if exact else None
        return R[idx], rhs[idx], [table[j][2] for j in idx] if exact else None

    base_eq = [*partition.nu, *(2 * p + i for i in partition.eta)]
    case_names = ("c0", "E0", "pos") if flavor == "M" else ("nn", "np")
    branches = []
    for assign in itertools.product(range(n_cases), repeat=len(theta)):
        eq, ineq, opens = list(base_eq), [], []
        for idx, i in zip(assign, theta):
            case = case_names[idx]
            if case == "c0":
                eq.append(2 * p + i)
            elif case == "E0":
                eq.append(i)
            elif case == "pos":
                # u*_i + gy_i . a > 0  and  c_i > 0   (stored as closures)
                ineq += [p + i, 3 * p + i]
                opens += [len(ineq) - 2, len(ineq) - 1]
            elif case == "nn":
                ineq += [3 * p + i, p + i]
            else:  # "np"
                ineq += [2 * p + i, i]
        (C, d, rows), (C_eq, d_eq, eq_rows) = pick(ineq), pick(eq)
        poly = Polyhedron._shaped(dim, C, d, C_eq, d_eq, frozenset(opens), rows, eq_rows)
        label = ",".join(
            f"g{i + 1}:{case_names[idx]}" for idx, i in zip(assign, theta)
        ) or "base"
        if poly.is_empty():
            continue
        branches.append(Branch(poly=poly, label=label))
    return BranchFamily(
        m=m,
        p=p,
        partition=partition,
        u_star=u_star,
        flavor=flavor,
        branches=branches,
        gy=gy,
    )


def branch_family(
    problem: ParametricProblem,
    kkt: KktPoint,
    u_star,
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> BranchFamily:
    """Branch family at a validated KKT point of the given problem."""
    u_star = np.atleast_1d(np.asarray(u_star, dtype=float))
    if u_star.shape != (problem.p,):
        raise ValueError(f"covector must have length p={problem.p}")
    return build_branch_family(kkt.lag.gy, kkt.partition, u_star, flavor, branch_cap)


def coderivative_map_matrix(Lxy, gx, Lyy, gy) -> np.ndarray:
    """(n+m) x (m+p) matrix of (a, c) -> (Lxy a + gx^T c, Lyy a + gy^T c),
    of float blocks or, exactly, of Fraction blocks."""
    return np.block([[Lxy, gx.T], [Lyy, gy.T]])


def slice_pieces(fam: BranchFamily, M, ystar, off, label) -> list[Piece]:
    """Pieces of  { M[:n] z + off : M[n:] z = -ystar, z in a branch of fam },
    n = len(off); ``label(branch)`` names each piece."""
    n = len(off)
    link = _eq_block(fam.dim, M[n:], -ystar)  # shaped and scaled once for every branch
    return [Piece(br.poly._with_block(link), M[:n], off, label(br)) for br in fam.branches]


def chain_pieces(outer: Branch, M, inner, ystar, off, label) -> list[Piece]:
    """Pieces of  M[:n] z + M_k[:n] w + off  over z in the branch ``outer``
    and w in a branch of the k-th inner family, linked by
    M[n:] z + M_k[n:] w = -ystar.  ``inner`` lists the pairs (M_k, family k)
    in order, n = len(off), and ``label(k, branch)`` names each piece."""
    n = len(off)
    pieces = []
    for k, (Mk, fam) in enumerate(inner):
        link, value = np.hstack([M[n:], Mk[n:]]), np.hstack([M[:n], Mk[:n]])
        link = _eq_block(link.shape[1], link, -ystar)
        for br in fam.branches:
            prod = outer.poly.product(br.poly)._with_block(link)
            pieces.append(Piece(prod, value, off, label(k, br)))
    return pieces


@dataclass
class CqReport:
    """Verdicts for the two branch-level qualification conditions.

    only_zero_preimage: the zero-covector family maps no nonzero (a, c)
    to zero, i.e. the estimate map is injective at zero.  Checked on
    branch closures, which can be conservative (a strict branch may fail
    here while the open set is fine); the detail string records that.

    image_vanishes: every branch direction maps to zero; this is the
    coderivative criterion certifying the multiplier map is
    Lipschitz-like around the point.
    """

    only_zero_preimage: bool
    image_vanishes: bool
    lipschitz_like: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "only_zero_preimage": self.only_zero_preimage,
            "image_vanishes": self.image_vanishes,
            "lipschitz_like": self.lipschitz_like,
            "detail": self.detail,
        }


def check_cq_lambda(
    problem: ParametricProblem,
    kkt: KktPoint,
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> CqReport:
    """Evaluate both qualification conditions at the zero covector."""
    fam = branch_family(problem, kkt, np.zeros(problem.p), flavor, branch_cap)
    lag = kkt.lag
    return _cq_report(fam, coderivative_map_matrix(lag.Lxy, lag.gx, lag.Lyy, lag.gy))


def _cq_report(fam: BranchFamily, M) -> CqReport:
    only_zero = True
    vanishes = True
    dim = fam.dim
    kernel_rows = _eq_block(dim, M, np.zeros(M.shape[0]))
    for br in fam.branches:
        sliced = br.poly._with_block(kernel_rows)
        probe = PolySet(dim, [Piece(sliced, np.eye(dim), np.zeros(dim), br.label)])
        if not probe.is_empty() and not probe.is_zero_singleton(tol=1e-9):
            only_zero = False
        image = PolySet(M.shape[0], [Piece(br.poly, M, np.zeros(M.shape[0]), br.label)])
        if not image.is_zero_singleton(tol=1e-9):
            vanishes = False
        if not only_zero and not vanishes:
            break
    return CqReport(
        only_zero_preimage=only_zero,
        image_vanishes=vanishes,
        lipschitz_like=vanishes,
        detail="checked on branch closures (conservative for strict branches)",
    )


# ---------------------------------------------------------------------------
# Point contexts: what every estimate at one minimizer reads
# ---------------------------------------------------------------------------


class PointContext:
    """A minimizer y at the parameter x, with the data the estimates there
    share, each item built on first use and then reused: the multiplier
    set, the MFCQ report read off it, and per multiplier vertex j the KKT
    point, the map matrix and, per flavor and branch cap, the
    zero-covector branch family and its CQ report.  ``tol_act`` decides
    the active constraints of all of them."""

    def __init__(self, problem: ParametricProblem, x, y, tol_act: float = DEFAULT_TOL_ACT):
        self.problem = problem
        self.x = np.atleast_1d(np.asarray(x, dtype=float))
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        self.tol_act = tol_act
        self._items = {}

    @cached_property
    def mult(self) -> kernel.MultiplierPolyhedron:
        return kernel.multipliers(self.problem, self.x, self.y, self.tol_act)

    @cached_property
    def mfcq(self) -> kernel.MfcqReport:
        return kernel.check_mfcq(self.problem, self.x, self.y, self.tol_act, mult=self.mult)

    def _item(self, key, build):
        if key not in self._items:
            self._items[key] = build()
        return self._items[key]

    def kkt(self, j) -> KktPoint:
        return self._item(("kkt", j), lambda: kkt_point(
            self.problem, self.x, self.y, self.mult.vertices[j], self.tol_act))

    def map_matrix(self, j) -> np.ndarray:
        lag = self.kkt(j).lag
        return self._item(("map", j), lambda: coderivative_map_matrix(
            lag.Lxy, lag.gx, lag.Lyy, lag.gy))

    def family0(self, j, flavor, branch_cap) -> BranchFamily:
        return self._item(("family0", j, flavor, branch_cap), lambda: branch_family(
            self.problem, self.kkt(j), np.zeros(self.problem.p), flavor, branch_cap))

    def cq(self, j, flavor, branch_cap) -> CqReport:
        return self._item(("cq", j, flavor, branch_cap), lambda: _cq_report(
            self.family0(j, flavor, branch_cap), self.map_matrix(j)))


def point_contexts(problem: ParametricProblem, x, minimizers=None, contexts=None):
    """(contexts, under_enumerated): ``contexts`` as given, else one per
    point of ``minimizers``, else one per minimizer of a fresh solve at x."""
    if contexts is not None:
        return contexts, False
    if minimizers is not None:
        return [PointContext(problem, x, y) for y in minimizers], False
    res = kernel.solve_value(problem, x)
    return [PointContext(problem, res.x, y) for y in res.minimizers], res.under_enumerated


@dataclass
class CoderivEstimate:
    kind: str  # "lambda" | "S" | "hull"
    covector: np.ndarray
    result: PolySet
    cq: CqReport | None = None
    hypotheses: list[HypothesisRecord] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "covector": [float(v) for v in np.atleast_1d(self.covector)],
            "cq": self.cq.to_json() if self.cq else None,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "set": self.result.to_json(),
        }


def coderivative_lambda(
    problem: ParametricProblem,
    kkt: KktPoint,
    u_star,
    flavor: str = "M",
    branch_cap: int = DEFAULT_BRANCH_CAP,
    with_cq: bool = True,
) -> CoderivEstimate:
    """Upper estimate of the multiplier-map coderivative at a KKT point.

    Returns the union over branches of the images of (a, c) under the
    Lagrangian block map; the result lives in R^(n+m) (x-block then
    y-block).
    """
    u_star = np.atleast_1d(np.asarray(u_star, dtype=float))
    fam = branch_family(problem, kkt, u_star, flavor, branch_cap)
    lag = kkt.lag
    M = coderivative_map_matrix(lag.Lxy, lag.gx, lag.Lyy, lag.gy)
    pieces = [
        Piece(br.poly, M, np.zeros(M.shape[0]), f"dlambda[{br.label}]")
        for br in fam.branches
    ]
    cq = None
    if with_cq:
        # at u* = 0 the family just built is the one the CQ check needs
        cq = check_cq_lambda(problem, kkt, flavor, branch_cap) if np.any(u_star) else \
            _cq_report(fam, M)
    hyps = [
        HypothesisRecord(
            "kkt-point",
            VERIFIED,
            f"residual {kkt.kkt_residual:.2e}",
        )
    ]
    if kkt.partition.ambiguous:
        hyps.append(
            HypothesisRecord(
                "partition-unambiguous",
                FAILED,
                f"indices {list(kkt.partition.ambiguous)} straddle the activity tolerance",
            )
        )
    return CoderivEstimate(
        kind="lambda",
        covector=u_star,
        result=PolySet(M.shape[0], pieces),
        cq=cq,
        hypotheses=hyps,
    )


def coderivative_S(problem: ParametricProblem, xbar, ybar, ystar, flavor: str = "M",
                   branch_cap: int = DEFAULT_BRANCH_CAP) -> CoderivEstimate:
    """Upper estimate of the solution-map coderivative D*S(xbar|ybar)(ystar);
    see :func:`solution_coderivative`."""
    return solution_coderivative(PointContext(problem, xbar, ybar), ystar, flavor, branch_cap)


def solution_coderivative(ctx: PointContext, ystar, flavor: str = "M",
                          branch_cap: int = DEFAULT_BRANCH_CAP) -> CoderivEstimate:
    """D*S at the context's point: the union over multiplier vertices u of
    the x-block images of the zero-covector branch family, sliced where the
    y-block equals -ystar:

        { Lxy a + gx^T c : ystar + Lyy a + gy^T c = 0, (a, c) in branches }.

    Requires MFCQ; the convexity-in-y hypothesis is taken from the
    quadratic check or the problem flag and logged.  Only multiplier
    vertices enter the union (logged as a possible under-enumeration).
    """
    ystar = np.atleast_1d(np.asarray(ystar, dtype=float))
    n = ctx.problem.n
    hyps = [HypothesisRecord("mfcq", VERIFIED if ctx.mfcq.holds else FAILED)]
    if not ctx.mfcq.holds:
        raise HypothesisError("MFCQ fails at (xbar, ybar)")
    hyps.append(convex_in_y_record(ctx.problem, "no flag; estimate used as-is"))
    mult = ctx.mult
    if mult.empty:
        raise HypothesisError("no multiplier exists at (xbar, ybar)")
    if not mult.bounded:
        hyps.append(HypothesisRecord("bounded-multiplier-set", FAILED))
    hyps.append(
        HypothesisRecord(
            "multiplier-vertex-union",
            ASSUMED,
            f"union over {len(mult.vertices)} polytope vertices only",
        )
    )
    pieces = []
    for k in range(len(mult.vertices)):
        pieces.extend(slice_pieces(ctx.family0(k, flavor, branch_cap), ctx.map_matrix(k), ystar,
                                   np.zeros(n), lambda br: f"dS[u{k}|{br.label}]"))
    cq_all = all(ctx.cq(k, flavor, branch_cap).only_zero_preimage
                 for k in range(len(mult.vertices)))
    hyps.append(
        HypothesisRecord(
            "branch-map-injective-at-zero",
            VERIFIED if cq_all else FAILED,
            "required for validity of the solution-map estimate",
        )
    )
    return CoderivEstimate(kind="S", covector=ystar, result=PolySet(n, pieces), hypotheses=hyps)


# ---------------------------------------------------------------------------
# Hull coderivative: maps with finitely generated convex values
# ---------------------------------------------------------------------------


@dataclass
class FiniteGeneratorMap:
    """A set-valued map whose value at the base parameter is the convex
    hull of finitely many generators, together with a coderivative
    provider per generator: ``coderiv(index, covector) -> PolySet``."""

    generators: list[np.ndarray]
    coderiv: Callable[[int, np.ndarray], PolySet]
    target_dim: int


def hull_coderivative(
    gen_map: FiniteGeneratorMap,
    ybar,
    ystar,
) -> CoderivEstimate:
    """Coderivative estimate of a hull-valued map at (xbar, ybar).

    Decomposes the weight polytope of ybar among the generators once
    (``setcalc.weight_polytope``): each vertex weight a has at most d+1
    positive entries, d the target-space dimension, and the pieces are
    the sums of the per-generator coderivatives at the scaled covectors
    a_s * ystar, taken by support size, then support.

    The zero-covector sum condition is verified piecewise: it holds
    whenever every per-generator coderivative at 0 is {0}.  Failure is
    recorded, not fatal.
    """
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    ystar = np.atleast_1d(np.asarray(ystar, dtype=float))
    gens = [np.atleast_1d(np.asarray(g, float)) for g in gen_map.generators]
    ok = all(gen_map.coderiv(s, np.zeros(ybar.shape[0])).is_zero_singleton(tol=1e-9)
             for s in range(len(gens)))
    hyps = [
        HypothesisRecord(
            "hull-sum-qualification",
            VERIFIED if ok else FAILED,
            "each generator coderivative at 0 is {0}" if ok else
            "a generator coderivative at 0 is nontrivial; sums may interact",
        )
    ]

    actives = []
    for w in weight_polytope(gens, ybar).vertices().vertices:
        active = tuple((s, round(float(ws), 12)) for s, ws in enumerate(w) if ws > 1e-9)
        if active and active not in actives:
            actives.append(active)
    pieces_out: list[Piece] = []
    for active in sorted(actives, key=lambda a: (len(a), [s for s, _ in a])):
        summed = functools.reduce(PolySet.minkowski,
                                  [gen_map.coderiv(s, weight * ystar) for s, weight in active])
        tag = "+".join(f"b{s}*{weight:g}" for s, weight in active)
        pieces_out += [Piece(pc.poly, pc.A, pc.b, f"hull[{tag}]|{pc.provenance}")
                       for pc in summed.pieces]
    if not pieces_out:
        hyps.append(
            HypothesisRecord(
                "target-in-generator-hull",
                FAILED,
                "ybar is not a convex combination of the generators",
            )
        )
    return CoderivEstimate(
        kind="hull",
        covector=ystar,
        result=PolySet(gen_map.target_dim, pieces_out),
        hypotheses=hyps,
    )
