"""Polyhedral calculus: H/V forms, piece unions, hulls, exact arithmetic."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from valfun import setcalc
from valfun.coderiv import FiniteGeneratorMap, hull_coderivative
from valfun.errors import LpStatusError
from valfun.setcalc import (
    ConvexHullSet,
    Piece,
    PolySet,
    Polyhedron,
    solve_linear,
)


def _box(bounds) -> Polyhedron:
    """The box of the (lo, hi) pairs, rows y_i <= hi and -y_i <= -lo in turn."""
    C, d = [], []
    for e, (lo, hi) in zip(np.eye(len(bounds)), bounds):
        C += [e, -e]
        d += [hi, -lo]
    return Polyhedron(len(bounds), C=C, d=d)


def is_bounded(poly) -> bool:
    """True when the closure of ``poly`` is empty or every coordinate range
    of it is finite, read by ``_piece_range`` of the identity image."""
    if poly.is_empty():
        return True
    dt = object if poly.rational else float
    ident = Piece(poly, np.eye(poly.dim, dtype=dt), np.zeros(poly.dim, dtype=dt))
    return all(math.isfinite(v) for i in range(poly.dim) for v in setcalc._piece_range(ident, i))


def _vertex_set(vf, ndigits=9):
    return {tuple(round(float(c), ndigits) for c in v) for v in vf.vertices}


# ---------------------------------------------------------------------------
# Linear algebra helpers
# ---------------------------------------------------------------------------


def test_solve_linear_exact():
    A = np.array([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]], dtype=object)
    b = np.array([Fraction(1), Fraction(0)], dtype=object)
    z0, basis = solve_linear(A, b)
    assert list(z0) == [Fraction(3, 5), Fraction(-1, 5)]
    assert basis == []


def test_solve_linear_inconsistent_and_underdetermined():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    z0, basis = solve_linear(A, np.array([1.0, 2.0]))
    assert z0 is None
    z0, basis = solve_linear(A[:1], np.array([1.0]))
    assert z0 is not None and len(basis) == 1


@pytest.mark.parametrize("dtype", [float, object])
def test_solve_linear_rows_without_columns_read_the_rhs(dtype):
    # each row reads 0 = b_i
    A = np.zeros((1, 0), dtype=dtype)
    one, zero = (Fraction(1), Fraction(0)) if dtype is object else (1.0, 0.0)
    assert solve_linear(A, [one]) == (None, [])
    assert solve_linear(A, [zero]) == ([], [])
    P = Polyhedron(0, C_eq=A, d_eq=np.array([one], dtype=dtype))
    assert P._reduced() is None


# ---------------------------------------------------------------------------
# Polyhedron: H-form to V-form and back
# ---------------------------------------------------------------------------


def test_unit_cube_vertices():
    box = _box([(-1.0, 1.0)] * 3)
    vf = box.vertices()
    assert len(vf.vertices) == 8
    assert not vf.rays
    assert _vertex_set(vf) == {
        (sx, sy, sz) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)
    }


def test_halfline_has_ray():
    P = Polyhedron(1, C=np.array([[-1.0]]), d=np.array([0.0]))
    vf = P.vertices()
    assert _vertex_set(vf) == {(0.0,)}
    assert len(vf.rays) == 1
    assert float(vf.rays[0][0]) > 0
    assert not is_bounded(P)


def test_affine_subspace_anchor():
    # {(t, 1): t in R} has no vertices; an anchor must be reported
    P = Polyhedron(2, C_eq=np.array([[0.0, 1.0]]), d_eq=np.array([1.0]))
    vf = P.vertices()
    assert not vf.vertices
    assert vf.anchor is not None
    assert P.contains_point(vf.anchor)
    assert len(vf.rays) == 2  # +/- the free direction


@pytest.mark.parametrize("pointed", [True, False])
def test_vertices_return_the_cached_decomposition(pointed):
    # a square, or the slab 0 <= z1 <= 1 free along z2
    rows = [[1.0, 0.0], [-1.0, 0.0]] + ([[0.0, 1.0], [0.0, -1.0]] if pointed else [])
    P = Polyhedron(2, C=rows, d=[1.0, 0.0] * len(rows[::2]))
    vf = P.vertices()
    assert P.vertices() is vf and isinstance(vf.points, tuple) and isinstance(vf.rays, tuple)
    assert vf.lineality == (0 if pointed else 1)
    if pointed:
        assert vf.anchor is None and _vertex_set(vf) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    else:
        assert vf.vertices == [] and vf.anchor is vf.points[0]
    returned = vf.vertices
    returned.append(np.zeros(2))  # a caller's list, not the cache
    assert len(P.vertices().vertices) == len(returned) - 1 == (4 if pointed else 0)


def test_rays_span_cone_with_lineality():
    # {z : z1 <= 0, z2 <= 0} in R^3: the cone is -e1, -e2 plus the line of e3
    P = Polyhedron(3, C=[[1, 0, 0], [0, 1, 0]], d=[0, 0])
    rays = {tuple(float(c) for c in r) for r in P.vertices().rays}
    assert rays == {(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)}
    S = PolySet(3, [Piece(P, np.eye(3), np.zeros(3), "P")])
    assert S.coord_range(0) == (-np.inf, 0.0)
    assert S.coord_range(2) == (-np.inf, np.inf)


def test_rows_are_frozen_copies():
    C = np.array([[1.0, 0.0]])
    P = Polyhedron(2, C=C, d=[1.0])
    C[0, 0] = 5.0
    assert P.C[0, 0] == 1.0
    with pytest.raises(ValueError):
        P.d[0] = 0.0


@pytest.mark.parametrize("num", [float, Fraction])
@pytest.mark.parametrize("budget", [10, 0])
@pytest.mark.parametrize("rows, empty", [
    (dict(C=np.zeros((1, 0)), d=[-1]), True),
    (dict(C=np.zeros((1, 0)), d=[1]), False),
    (dict(C_eq=np.zeros((1, 0)), d_eq=[1]), True),
    (dict(C=np.zeros((2, 0)), d=[0, 2], C_eq=np.zeros((1, 0)), d_eq=[0]), False),
])
def test_dimension_zero_rows(monkeypatch, num, budget, rows, empty):
    # constant rows 0 <= d, 0 = d_eq decide a dimension-0 set, by
    # decomposition and past the enumeration budget alike
    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", budget)
    dt = object if num is Fraction else float
    kw = {k: np.array([num(v) for v in val], dtype=dt) if k.startswith("d") else val
          for k, val in rows.items()}
    P = Polyhedron(0, **kw)
    assert P.C.shape[0] == len(kw.get("d", ())) and P.C_eq.shape[0] == len(kw.get("d_eq", ()))
    assert P.is_empty() is empty
    assert (P.feasible_point() is None) is empty
    assert PolySet(1, [Piece(P, np.zeros((1, 0)), np.zeros(1), "c")]).is_empty() is empty


def test_small_pieces_need_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the pivoting routine ran")

    monkeypatch.setattr(setcalc, "_bland", no_lp)
    P = Polyhedron(2, C=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], d=[0.0, 0.0, 1.0])
    S = PolySet(1, [Piece(P, np.array([[1.0, 2.0]]), np.array([0.5]), "tri")])
    assert not S.is_empty() and is_bounded(P)
    assert S.coord_range(0) == (0.5, 2.5)
    assert not S.is_zero_singleton()


@pytest.mark.parametrize("num", [float, Fraction])
def test_origin_witness_needs_no_lp(monkeypatch, num):
    # d >= 0 and d_eq == 0 put the origin in the closure: no pivot, reduction
    # or enumeration, even past the enumeration budget and with open rows
    def no_lp(*args, **kwargs):
        raise AssertionError("the pivoting routine ran")

    monkeypatch.setattr(setcalc, "_bland", no_lp)
    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", 0)
    dt = object if num is Fraction else float
    arr = lambda vals: np.array([num(v) for v in vals], dtype=dt)
    P = Polyhedron(3, C=arr([-1, 0, 0, 1, -1, 0, 0, 2, 1]).reshape(3, 3), d=arr([0, 0, 3]),
                   C_eq=arr([1, 1, -1]).reshape(1, 3), d_eq=arr([0]), open_rows=(0, 2))
    assert P.rational is (num is Fraction)
    S = PolySet(2, [Piece(P, np.eye(2, 3), np.zeros(2), "cone")])
    assert S.is_empty() is False and P.is_empty() is False
    assert P._reduction is setcalc._UNSET and P._decomp is None


def test_membership_of_small_pieces_needs_no_lp(monkeypatch):
    # the distance and the open-row margin are ranges over lifted pieces
    # that fit the enumeration budget; at 0.5 and at -1 no decomposition
    # point of the piece maps within tol of the query
    def no_lp(*args, **kwargs):
        raise AssertionError("the pivoting routine ran")

    monkeypatch.setattr(setcalc, "_bland", no_lp)
    P = Polyhedron(1, C=[[-1.0]], d=[0.0], open_rows=(0,))
    S = PolySet(1, [Piece(P, np.eye(1), np.zeros(1), "open")])
    assert S.member([0.5]) == setcalc.MemberVerdict("inside", "open", 0.0)
    assert S.member([0.0]) == setcalc.MemberVerdict("boundary", "open", 0.0)
    assert S.member([-1.0]) == setcalc.MemberVerdict("outside", "open", 1.0)


@pytest.mark.parametrize("rows", [
    dict(C=[[-1.0]], d=[0.0], C_eq=[[1.0], [1.0]], d_eq=[3.0e-8, 0.0]),
    # the same set as row pairs, which the equality elimination does not see
    dict(C=[[1.0], [-1.0], [1.0], [-1.0], [-1.0]], d=[3.0e-8, -3.0e-8, 0.0, 0.0, 0.0]),
])
def test_quarticshift_piece_is_empty_past_the_budget(monkeypatch, rows):
    # the empty piece {z : z = 3e-8, z = 0, z >= 0} of the quarticshift value
    # probe: past the enumeration budget it is decided at RANK_TOL, the
    # decomposition's tolerance, with no LP
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(setcalc, "linprog", no_lp)
    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", 0)
    S = PolySet(1, [Piece(Polyhedron(1, **rows), np.eye(1), np.zeros(1), "quarticshift")])
    assert S.is_empty()
    assert S.member([0.0]) == setcalc.MemberVerdict("outside", None, math.inf)


#: Queries pieces past the enumeration budget, float and rational, then
#: prints the scipy modules loaded.  The last piece is the cycling example
#: of Chvatal (Linear Programming, 1983, ch. 3), min -10x1 + 57x2 + 9x3 +
#: 24x4 over x >= 0 and three rows: phase 2 starts at its degenerate vertex,
#: the origin, where ratio tests tie at 0.
_PAST_BUDGET_SCRIPT = """
import json, math, sys
from fractions import Fraction
import numpy as np
from valfun import setcalc
from valfun.setcalc import Piece, Polyhedron, PolySet
setcalc.MAX_VFORM_SUBSETS = 0
for num, dt in ((float, float), (Fraction, object)):
    arr = lambda vals, *shape: np.array([num(v) for v in vals], dtype=dt).reshape(*shape)
    P = Polyhedron(2, C=arr([-1, 0, 0, -1, 1, 1], 3, 2), d=arr([-1, -1, 3], 3), open_rows=(2,))
    S = PolySet(1, [Piece(P, arr([1, 2], 1, 2), arr([0], 1), "tri")])
    assert not S.is_empty() and S.coord_range(0) == (3.0, 5.0)
    assert [S.member([q]).status for q in (4.0, 5.0, 6.0)] == ["inside", "boundary", "outside"]
    C = arr([-1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1,
             0.5, -5.5, -2.5, 9, 0.5, -1.5, -0.5, 1, 1, 0, 0, 0], 7, 4)
    P = Polyhedron(4, C, arr([0, 0, 0, 0, 0, 0, 1], 7))
    S = PolySet(1, [Piece(P, arr([-10, 57, 9, 24], 1, 4), arr([0], 1), "cycling")])
    lo, hi = S.coord_range(0)
    assert math.isclose(lo, -1.0, rel_tol=1e-9) and hi == math.inf
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_queries_past_the_budget_import_no_scipy():
    # the timeout turns a pivoting loop that does not end into a failure
    proc = subprocess.run([sys.executable, "-c", _PAST_BUDGET_SCRIPT],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_membership_past_the_budget_solves_one_end_per_lifted_piece(monkeypatch):
    # the distance asks only for its low end and the open-row margin only
    # for its high end: one phase 2 each, where a whole range takes two
    calls, real = [], setcalc._bland

    def count(poly, row):
        calls.append(any(row))
        return real(poly, row)

    monkeypatch.setattr(setcalc, "_bland", count)
    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", 0)
    P = Polyhedron(1, C=[[-1.0]], d=[0.0], open_rows=(0,))
    S = PolySet(1, [Piece(P, np.eye(1), np.zeros(1), "open")])
    assert S.member([0.5]) == setcalc.MemberVerdict("inside", "open", 0.0)
    assert sum(calls) == 2
    assert S.member([0.0]) == setcalc.MemberVerdict("boundary", "open", 0.0)
    assert sum(calls) == 4
    assert S.member([-1.0]) == setcalc.MemberVerdict("outside", "open", 1.0)
    assert sum(calls) == 5


def test_float_point_off_its_rows_raises(monkeypatch):
    # a float basic point that misses the rows it solves leaves the query
    # undecided; the piece is never dropped
    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", 0)
    monkeypatch.setattr(Polyhedron, "contains_point", lambda self, z, tol=0.0: False)
    S = PolySet(1, [Piece(_box([(1.0, 2.0)]), np.eye(1), np.zeros(1), "box")])
    for query in (S.is_empty, lambda: S.coord_range(0), lambda: S.member([1.5])):
        with pytest.raises(LpStatusError):
            query()


def test_lp_fallback_matches_enumeration(monkeypatch):
    P = Polyhedron(2, C=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], d=[0.0, 0.0, 1.0])
    ray = Polyhedron(2, C=[[-1.0, 0.0], [0.0, -1.0]], d=[0.0, 0.0])
    pieces = [Piece(p, np.array([[1.0, -2.0]]), np.array([0.5]), "") for p in (P, ray)]
    want = [PolySet(1, [pc]).coord_range(0) for pc in pieces]
    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", 0)
    assert [PolySet(1, [pc]).coord_range(0) for pc in pieces] == want
    assert [is_bounded(P), is_bounded(ray)] == [True, False]


def test_lp_range_keeps_unbounded_side_on_false_infeasible(monkeypatch):
    # HiGHS presolve calls min y3 infeasible on this nonempty piece, though
    # y3 is unbounded below on it; the range must not shrink to a point
    P = Polyhedron(3, C=[[0, 1, 0], [0, 0, 1], [1, 1, 1], [-1, -1, -1]], d=[0, 0, 0, 1])
    S = PolySet(3, [Piece(P, np.eye(3), np.zeros(3), "wedge")])
    assert S.coord_range(2) == (-np.inf, 0.0)
    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", 0)
    P = Polyhedron(3, C=[[0, 1, 0], [0, 0, 1], [1, 1, 1], [-1, -1, -1]], d=[0, 0, 0, 1])
    S = PolySet(3, [Piece(P, np.eye(3), np.zeros(3), "wedge")])
    assert P.feasible_point() is not None
    assert S.coord_range(2) == (-np.inf, 0.0)


def test_lp_range_of_empty_piece_stays_empty(monkeypatch):
    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", 0)
    P = Polyhedron(1, C=[[1.0], [-1.0]], d=[0.0, -1.0])
    S = PolySet(1, [Piece(P, np.eye(1), np.zeros(1), "empty")])
    assert S.coord_range(0) == (np.inf, -np.inf)


def _segments(num, k):
    """k segments { z : z1 + z2 = 1, j <= z1 <= j + 1 } of R^2, each mapped
    by z1 + z2: k different pieces whose images are all {1}."""
    dt = object if num is Fraction else float
    arr = lambda vals, shape: np.array([num(v) for v in vals], dtype=dt).reshape(shape)
    return [Piece(Polyhedron(2, C=arr([1, 0, -1, 0], (2, 2)), d=arr([j + 1, -j], (2,)),
                             C_eq=arr([1, 1], (1, 2)), d_eq=arr([1], (1,))),
                  arr([1, 1], (1, 2)), arr([0], (1,)), f"segment{j}") for j in range(k)]


@pytest.mark.parametrize("num", [float, Fraction])
def test_equal_constant_pieces_decompose_once(monkeypatch, num):
    calls, real = [], setcalc.Polyhedron._decompose

    def count(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(setcalc.Polyhedron, "_decompose", count)
    assert PolySet(1, _segments(num, 5)).coord_range(0) == (1.0, 1.0)
    assert len(calls) <= 1


@pytest.mark.parametrize("num", [float, Fraction])
def test_constant_pieces_inside_the_range_need_no_lp(monkeypatch, num):
    # past the enumeration budget every segment would take phase 2; the
    # point {1} opens the range, and each segment's constant lies inside it
    def no_lp(*args, **kwargs):
        raise AssertionError("the pivoting routine ran")

    monkeypatch.setattr(setcalc, "_bland", no_lp)
    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", 0)
    point = PolySet.from_point(np.array([num(1)], dtype=object if num is Fraction else float))
    S = point.union(PolySet(1, _segments(num, 5)))
    assert S.coord_range(0) == (1.0, 1.0)


@pytest.mark.parametrize("num", [float, Fraction])
def test_constant_test_eliminates_the_equality_rows_once(monkeypatch, num):
    # the skip builds the equality hull and nothing else; vertices() later
    # builds the inequality rows on that hull instead of eliminating again
    widths, real_gauss, real_int = [], setcalc._gauss, setcalc._gauss_int

    def gauss(A_rows, b_vec, exact):
        widths.append(len(A_rows[0]) if A_rows else 0)
        return real_gauss(A_rows, b_vec, exact)

    def gauss_int(rows, ncols):
        widths.append(ncols)
        return real_int(rows, ncols)

    monkeypatch.setattr(setcalc, "_gauss", gauss)
    monkeypatch.setattr(setcalc, "_gauss_int", gauss_int)
    dt = object if num is Fraction else float
    arr = lambda vals: np.array([num(v) for v in vals], dtype=dt)
    simplex = Polyhedron(3, C=-np.eye(3, dtype=dt) * num(1), d=arr([0, 0, 0]),
                         C_eq=arr([1, 1, 1]).reshape(1, 3), d_eq=arr([1]))
    S = PolySet.from_point(arr([1])).union(
        PolySet(1, [Piece(simplex, arr([2, 2, 2]).reshape(1, 3), arr([-1]), "simplex")]))
    assert S.coord_range(0) == (1.0, 1.0)
    assert simplex._reduction is setcalc._UNSET and simplex._decomp is None
    assert len(simplex.vertices().points) == 3
    assert widths.count(3) == 1


def test_slices_products_and_branches_scale_only_their_new_rows(monkeypatch):
    # the integer rows are scaled once per row: a slice scales its j new
    # rows, a product none, and the branches of an exact family none beyond
    # the family's rows [gy_i | -u*_i]
    from valfun import coderiv
    from valfun.model import Partition

    calls, real = [], setcalc._int_row

    def count(row):
        calls.append(1)
        return real(row)

    monkeypatch.setattr(setcalc, "_int_row", count)
    monkeypatch.setattr(coderiv, "_int_row", count, raising=False)
    F = lambda vals, *shape: np.array([Fraction(v, 3) for v in vals], dtype=object).reshape(shape)
    P = Polyhedron(3, C=F([-3, 0, 0, 0, -3, 0, 0, 0, -3, 1, 1, 1], 4, 3), d=F([0, 0, 0, 2], 4),
                   C_eq=F([1, -1, 0], 1, 3), d_eq=F([0], 1))
    Q = Polyhedron(2, C=F([-3, 0, 0, -3, 2, 1], 3, 2), d=F([0, 0, 4], 3))
    assert P.vertices().points and Q.vertices().points
    calls.clear()
    sliced = P.with_eqs(F([1, 0, 2, 0, 1, -1], 2, 3), F([1, 0], 2))
    assert sliced.vertices().points and len(calls) == 2
    calls.clear()
    assert len(P.product(Q).vertices().points) == 9 and not calls
    gy, u_star = F([3, 1, -1, 2, 1, 1], 3, 2), F([1, -2, 0], 3)
    fam = coderiv.build_branch_family(gy, Partition(eta=(), theta=(0, 2), nu=(1,)), u_star,
                                      branch_cap=9)
    for br in fam.branches:
        br.poly.vertices()
    assert fam.branches and len(calls) == 3


def test_empty_polyhedron_detected():
    P = Polyhedron(
        1,
        C=np.array([[1.0], [-1.0]]),
        d=np.array([0.0, -1.0]),  # y <= 0 and y >= 1
    )
    assert P.is_empty()
    assert P.vertices().empty


def test_exact_vertices_stay_rational():
    C = np.array([[Fraction(1)], [Fraction(-2)]], dtype=object)
    d = np.array([Fraction(1, 3), Fraction(1)], dtype=object)
    P = Polyhedron(1, C=C, d=d)
    vf = P.vertices()
    vals = sorted(v[0] for v in vf.vertices)
    assert vals == [Fraction(-1, 2), Fraction(1, 3)]
    assert all(isinstance(v[0], Fraction) for v in vf.vertices)


def test_open_rows_excluded_from_membership():
    P = Polyhedron(1, C=np.array([[-1.0]]), d=np.array([0.0]), open_rows=(0,))
    assert P.contains_point([0.0])  # the closure
    S = PolySet(1, [Piece(P, np.eye(1), np.zeros(1), "open")])
    assert S.member([0.0]).status == "boundary"
    assert S.member([0.5]).status == "inside"
    assert not P.closure().open_rows


def test_product_combines_blocks():
    a = _box([(0.0, 1.0)])
    b = _box([(2.0, 3.0)])
    prod = a.product(b)
    assert prod.dim == 2
    assert _vertex_set(prod.vertices()) == {(0.0, 2.0), (0.0, 3.0), (1.0, 2.0), (1.0, 3.0)}


def test_simplex_r4_vertices_match_lp_hull():
    # probability simplex in R^4: the four unit vectors, nothing else
    dim = 4
    C = -np.eye(dim)
    d = np.zeros(dim)
    E = np.ones((1, dim))
    P = Polyhedron(dim, C=C, d=d, C_eq=E, d_eq=np.array([1.0]))
    vf = P.vertices()
    assert _vertex_set(vf) == {
        tuple(1.0 if j == i else 0.0 for j in range(dim)) for i in range(dim)
    }
    hull = ConvexHullSet([np.asarray(v, float) for v in vf.vertices])
    center = np.full(dim, 1.0 / dim)
    assert hull.member(center)
    assert not hull.member(np.full(dim, 0.3))


# ---------------------------------------------------------------------------
# PolySet: unions of affine images
# ---------------------------------------------------------------------------


def test_polyset_from_point_membership():
    S = PolySet.from_point([1.0, -2.0])
    assert S.member([1.0, -2.0])
    assert not S.member([1.0, -1.9])
    assert S.coord_range(0) == (1.0, 1.0)


def test_polyset_empty():
    S = PolySet.empty(2)
    assert S.is_empty()
    assert not S.member([0.0, 0.0])
    lo, hi = S.coord_range(0)
    assert lo == float("inf") and hi == -float("inf")


def test_polyset_union_and_member():
    S = PolySet.from_point([0.0]).union(PolySet.from_point([2.0]))
    assert S.member([0.0]) and S.member([2.0])
    assert not S.member([1.0])
    verdict = S.member([2.0 + 1e-12], tol=1e-9)
    assert verdict and verdict.piece is not None


def test_member_monotone_in_tolerance():
    S = PolySet.from_point([1.0])
    assert not S.member([1.0 + 1e-5], tol=1e-9)
    assert S.member([1.0 + 1e-5], tol=1e-4)


def test_affine_map_composition_associative():
    # mapping a segment by M then N equals mapping by N@M in one go
    seg = _box([(0.0, 1.0)])
    S = PolySet(1, [Piece(seg, np.array([[1.0]]), np.array([0.5]), "seg")])
    M = np.array([[2.0]])
    N = np.array([[-1.0]])
    two_step = S.map(M).map(N)
    one_step = S.map(N @ M)
    for t in (0.0, 0.25, 1.0):
        pt = [-2.0 * (t + 0.5)]
        assert bool(two_step.member(pt)) == bool(one_step.member(pt))


def test_minkowski_sum_of_segments():
    seg = _box([(0.0, 1.0)])
    S = PolySet(1, [Piece(seg, np.array([[1.0]]), np.array([0.0]), "a")])
    T = PolySet(1, [Piece(seg, np.array([[1.0]]), np.array([10.0]), "b")])
    MS = S.minkowski(T)
    assert MS.member([10.0]) and MS.member([12.0]) and MS.member([11.3])
    assert not MS.member([9.9]) and not MS.member([12.1])


def test_is_zero_singleton_exact_and_float():
    Z = PolySet.from_point([Fraction(0), Fraction(0)])
    assert Z.is_zero_singleton()
    # an affine piece passing through 0 with a nontrivial direction is not
    line = Polyhedron.whole(1)
    L = PolySet(1, [Piece(line, np.array([[1.0]]), np.array([0.0]), "line")])
    assert not L.is_zero_singleton()
    # a degenerate map that crushes a whole branch to the origin is
    crush = PolySet(1, [Piece(line, np.array([[0.0]]), np.array([0.0]), "crush")])
    assert crush.is_zero_singleton()


def test_coord_range_reports_unbounded_directions():
    line = Polyhedron.whole(1)
    L = PolySet(1, [Piece(line, np.array([[1.0]]), np.array([0.0]), "line")])
    lo, hi = L.coord_range(0)
    assert lo == -np.inf and hi == np.inf


def test_sample_points_lie_in_set(rng):
    # the triangle conv{(0, 0), (1, 0), (0, 1)}: z >= 0, z1 + z2 <= 1
    tri = Polyhedron(2, C=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], d=[0.0, 0.0, 1.0])
    S = PolySet(2, [Piece(tri, np.eye(2), np.zeros(2), "tri")])
    pts = S.sample_points(25, rng)
    assert pts
    for p in pts:
        assert S.member(p, tol=1e-7)


def test_polyset_to_json_shape():
    S = PolySet.from_point([1.0]).union(PolySet.empty(1))
    doc = S.to_json()
    assert doc["target_dim"] == 1
    assert isinstance(doc["pieces"], list)


# ---------------------------------------------------------------------------
# Convex hulls: certificates and the hull coderivative read one weight polytope
# ---------------------------------------------------------------------------


def test_hull_membership_and_certificate():
    gens = [np.array(v, float) for v in [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]]
    hull = ConvexHullSet(gens)
    cert = hull.certificate([0.5, 1.0])
    assert cert is not None
    assert len(cert.support) <= 3  # dim + 1
    assert cert.reconstruct(gens) == pytest.approx([0.5, 1.0], abs=1e-12)
    assert hull.certificate([2.5, 1.0]) is None


def test_hull_certificates_random_battery(rng):
    # acceptance-grade check at small scale: random hulls, random queries
    gens = [rng.uniform(-1, 1, size=3) for _ in range(8)]
    hull = ConvexHullSet(gens)
    for _ in range(50):
        w = rng.uniform(0, 1, size=8)
        w /= w.sum()
        point = sum(wi * g for wi, g in zip(w, gens))
        cert = hull.certificate(point)
        assert cert is not None
        assert len(cert.support) <= 4
        assert cert.reconstruct(gens) == pytest.approx(point, abs=1e-9)


def test_hull_certificates_decompose_nothing(monkeypatch):
    # a certificate is the phase-1 basic point of the weight polytope
    def no_decomposition(self):
        raise AssertionError("a hull certificate decomposed a polyhedron")

    monkeypatch.setattr(Polyhedron, "_decompose", no_decomposition)
    gens = [np.array(v, float) for v in [(0, 0), (2, 0), (0, 2)]]
    hull = ConvexHullSet(gens)
    inside, outside = np.array([0.6, 1.0]), np.array([2.0, 2.0])  # 0.2 g0 + 0.3 g1 + 0.5 g2
    cert = hull.certificate(inside)
    assert cert.support == [0, 1, 2]
    assert cert.weights == pytest.approx([0.2, 0.3, 0.5], abs=1e-12)
    assert hull.member(inside)
    assert hull.certificate(outside) is None and not hull.member(outside)


def test_hull_queries_solve_no_lp(monkeypatch):
    # the hull coderivative reads the vertices of the weight polytope, and
    # membership in its estimate reads their cached decompositions; neither
    # pivots
    def no_lp(*args, **kwargs):
        raise AssertionError("a hull query ran the pivoting routine")

    monkeypatch.setattr(setcalc, "_bland", no_lp)
    gens = [np.array(v, float) for v in [(0, 0), (2, 0), (0, 2)]]
    inside, outside = np.array([0.6, 1.0]), np.array([2.0, 2.0])  # 0.2 g0 + 0.3 g1 + 0.5 g2
    gm = FiniteGeneratorMap(
        gens, lambda k, w: PolySet.from_point((k + 1) * np.asarray(w, float), f"gen{k}"), 2)
    est = hull_coderivative(gm, inside, [1.0, 0.0])
    assert [pc.provenance for pc in est.result.pieces] == [
        "hull[b0*0.2+b1*0.3+b2*0.5]|gen0+gen1+gen2"]
    assert est.result.member([0.2 + 0.6 + 1.5, 0.0])
    est = hull_coderivative(gm, outside, [1.0, 0.0])
    assert est.result.is_empty()
    assert [h.status for h in est.hypotheses if h.name == "target-in-generator-hull"] == [
        "failed"]
