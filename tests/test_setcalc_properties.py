"""Property tests: emptiness, boundedness, coordinate ranges and
membership (open-row margins included, by enumeration and by pivoting) of
random small polyhedra (float and rational, dim <= 4, including empty,
unbounded, non-pointed and degenerate ones) agree with plain
``scipy.optimize.linprog`` LPs written out here, the pivoting routine
agrees with the decomposition, exact elimination
agrees with a plain Fraction Gauss-Jordan written out here, the
zero-singleton test agrees with the coordinate ranges, the integer
rows a rational polyhedron inherits or is handed are those of its public
rows, and on degenerate generator sets the hull coderivative agrees with
a per-support enumeration written out here and every hull certificate
is a valid Caratheodory witness.  Examples are derandomized, so the run
is fixed."""

from __future__ import annotations

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from valfun import coderiv, kernel, setcalc
from valfun.model import Partition
from valfun.setcalc import (
    ConvexHullSet, Piece, Polyhedron, PolySet, solve_linear,
)

from test_setcalc import is_bounded

SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
INF = float("inf")


@st.composite
def polyhedra(draw, rational, t=None):
    """(polyhedron, map A, offset b) with small integer or rational data,
    A of ``t`` rows (drawn when not given).  Now and then some rows recur,
    or dim+1 or dim+2 more rows pass through one point (often the origin,
    where phase 1 starts), so that pivots are degenerate and ratios tie;
    now and then the last variable is dropped from every row, which makes
    the set non-pointed."""
    dim = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 2, 4]))
    dt = object if rational else float

    def ints(lo, hi, n):
        return [draw(st.integers(lo, hi)) for _ in range(n)]

    def vec(xs):
        return np.array([Fraction(x, den) if rational else x / den for x in xs], dtype=dt)

    def mat(m):
        return vec([x for row in m for x in row]).reshape(len(m), dim)

    k, q = draw(st.integers(0, 5)), draw(st.integers(0, 2))
    t = draw(st.integers(1, 3)) if t is None else t
    C, C_eq, A = ([ints(-3, 3, dim) for _ in range(n)] for n in (k, q, t))
    d = ints(-2, 4, k)
    extra = draw(st.sampled_from(["", "", "copies", "concurrent"]))
    if extra == "copies" and k:
        for j in [draw(st.integers(0, k - 1)) for _ in range(draw(st.integers(1, 2)))]:
            C.append(list(C[j]))
            d.append(d[j])
    elif extra == "concurrent":
        through = [0] * dim if draw(st.booleans()) else ints(-2, 2, dim)
        C += [ints(-3, 3, dim) for _ in range(dim + draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        for row in C + C_eq:
            row[-1] = 0
    if extra == "concurrent":
        d += [sum(a * x for a, x in zip(row, through)) for row in C[len(d):]]
    poly = Polyhedron(dim, C=mat(C), d=vec(d), C_eq=mat(C_eq), d_eq=vec(ints(-2, 2, q)))
    return poly, mat(A), vec(ints(-2, 2, t))


def _oracle_lp(poly, c):
    fl = lambda a: np.asarray(a, dtype=float)
    kw = {}
    if poly.C.shape[0]:
        kw.update(A_ub=fl(poly.C), b_ub=fl(poly.d))
    if poly.C_eq.shape[0]:
        kw.update(A_eq=fl(poly.C_eq), b_eq=fl(poly.d_eq))
    res = linprog(fl(c), bounds=[(None, None)] * poly.dim, method="highs", **kw)
    assert res.status in (0, 2, 3), res.message
    return res


def _oracle_empty(poly):
    return _oracle_lp(poly, np.zeros(poly.dim)).status == 2


def _oracle_range(poly, row, off):
    lo, hi = INF, -INF
    for sign in (1.0, -1.0):
        res = _oracle_lp(poly, sign * np.asarray(row, dtype=float))
        if res.status == 3:
            lo, hi = (-INF, hi) if sign > 0 else (lo, INF)
        elif res.status == 0:
            val = sign * res.fun + float(off)
            lo, hi = min(lo, val), max(hi, val)
    return lo, hi


def _same(a, b):
    return a == b or (abs(a) < INF and abs(b) < INF and abs(a - b) <= 1e-6 * max(1.0, abs(b)))


def _fresh(poly):
    """The same rows with nothing cached."""
    return Polyhedron(poly.dim, poly.C, poly.d, poly.C_eq, poly.d_eq, poly.open_rows)


def _check(poly, A, b):
    empty = _oracle_empty(poly)
    assert poly.is_empty() == empty
    if not empty:
        bounded = all(
            _oracle_lp(poly, -sign * np.eye(poly.dim)[j]).status == 0
            for j in range(poly.dim) for sign in (1.0, -1.0))
        assert is_bounded(poly) == bounded
        with mock.patch.object(setcalc, "MAX_VFORM_SUBSETS", 0):  # ranges by pivoting
            assert is_bounded(_fresh(poly)) == bounded
        vf = poly.vertices()
        assert (not vf.vertices) == (vf.anchor is not None)
        for v in vf.vertices + ([vf.anchor] if vf.anchor is not None else []):
            assert poly.contains_point(v, tol=1e-7)
    S = PolySet(A.shape[0], [Piece(poly, A, b, "p")])
    for i in range(A.shape[0]):
        got = S.coord_range(i)
        want = _oracle_range(poly, A[i], b[i])
        assert _same(got[0], want[0]) and _same(got[1], want[1]), (got, want)
    # the pivoting routine on a fresh copy decides as the decomposition does
    pivoted = Piece(_fresh(poly), A, b, "p")
    with mock.patch.object(setcalc, "MAX_VFORM_SUBSETS", 0):
        assert (pivoted.poly.feasible_point() is None) == poly.vertices().empty
        got = [setcalc._piece_range(pivoted, i) for i in range(A.shape[0])]
    with mock.patch.object(setcalc, "MAX_VFORM_SUBSETS", INF):
        want = [setcalc._piece_range(Piece(poly, A, b, "p"), i) for i in range(A.shape[0])]
    if poly.rational:
        assert got == want
    else:
        close = lambda u, v: u == v or abs(u - v) <= 1e-9 * max(1.0, abs(v))
        assert all(close(g, w) for gw, ww in zip(got, want) for g, w in zip(gw, ww)), (got, want)


@SETTINGS
@given(polyhedra(rational=False))
def test_float_polyhedra_agree_with_lp(case):
    _check(*case)


@SETTINGS
@given(polyhedra(rational=True))
def test_rational_polyhedra_agree_with_lp(case):
    _check(*case)


@st.composite
def piece_unions(draw, rational):
    """(t, pieces): pieces of ``polyhedra`` in R^t, in a random order.  Each
    is plain (often unbounded or non-pointed), "constant" (its map a
    combination of the equality rows shifted by 0 or 1, so equal constants
    recur), "empty" (a row pair that contradicts), "inconsistent" (an
    equality pair that contradicts) or "open" (some rows flagged open)."""
    t = draw(st.integers(1, 2))
    dt = object if rational else float
    one = Fraction(1) if rational else 1.0
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        poly, A, b = draw(polyhedra(rational, t))
        kind = draw(st.sampled_from(["plain", "constant", "empty", "inconsistent", "open"]))
        C, d, C_eq, d_eq, opens = poly.C, poly.d, poly.C_eq, poly.d_eq, ()
        row = np.array([one] * poly.dim, dtype=dt).reshape(1, poly.dim)
        if kind == "constant":
            W = np.array([draw(st.integers(-2, 2)) for _ in range(t * C_eq.shape[0])],
                         dtype=dt).reshape(t, C_eq.shape[0])
            A = W @ C_eq
            b = np.array([one * draw(st.integers(0, 1)) for _ in range(t)], dtype=dt) - W @ d_eq
        elif kind == "empty":  # sum z <= 0 and -sum z <= -1
            C, d = np.vstack([C, row, -row]), np.concatenate([d, [0 * one, -one]])
        elif kind == "inconsistent":  # sum z = 0 and sum z = 1
            C_eq, d_eq = np.vstack([C_eq, row, row]), np.concatenate([d_eq, [0 * one, one]])
        elif kind == "open":
            opens = [j for j in range(C.shape[0]) if draw(st.booleans())]
        pieces.append(Piece(Polyhedron(poly.dim, C, d, C_eq, d_eq, opens), A, b, kind))
    return t, pieces


def _check_union_ranges(t, pieces):
    # the union's range, skips and early stop included, is the plain union
    # of the piece ranges; each side reads its own uncached copies
    for i in range(t):
        fresh = lambda: [Piece(_fresh(pc.poly), pc.A, pc.b, pc.provenance) for pc in pieces]
        got = PolySet(t, fresh()).coord_range(i)
        want = (INF, -INF)
        for pc in fresh():
            lo, hi = setcalc._piece_range(pc, i)
            want = (min(want[0], lo), max(want[1], hi))
        if pieces[0].poly.rational:
            assert got == want
        else:
            assert _same(got[0], want[0]) and _same(got[1], want[1]), (got, want)


@SETTINGS
@given(piece_unions(rational=False))
def test_float_union_ranges_are_the_union_of_piece_ranges(case):
    _check_union_ranges(*case)


@SETTINGS
@given(piece_unions(rational=True))
def test_rational_union_ranges_are_the_union_of_piece_ranges(case):
    _check_union_ranges(*case)


@pytest.mark.parametrize("dt", [float, object])
def test_non_pointed_ranges(dt):
    # a slab in R^3 that is free along e3: the e3 range opens both ways
    C = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0]], dtype=dt)
    P = Polyhedron(3, C=C, d=np.array([1, 1, 2], dtype=dt))
    S = PolySet(3, [Piece(P, np.eye(3, dtype=dt), np.zeros(3, dtype=dt), "slab")])
    assert [S.coord_range(i) for i in range(3)] == [(-1.0, 1.0), (-INF, 2.0), (-INF, INF)]
    assert not is_bounded(P) and not P.is_empty()


# ---------------------------------------------------------------------------
# Exact elimination against a Fraction Gauss-Jordan reference
# ---------------------------------------------------------------------------


def _reference(A, b, ncols):
    """(particular or None, null-space basis) from the reduced row echelon
    form of [A | b], by Fraction Gauss-Jordan."""
    rows = [list(r) + [bi] for r, bi in zip(A, b)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][c] != 0:
                rows[j] = [a - rows[j][c] * p for a, p in zip(rows[j], rows[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][fc]
        basis.append(v)
    if any(row[-1] != 0 for row in rows[len(pivots):]):
        return None, basis
    z = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        z[c] = rows[i][-1]
    return z, basis


@st.composite
def rational_systems(draw):
    """(A, b): 0-6 rows, 1-6 columns, denominators up to 10^6, with zero,
    duplicate and negated rows and, now and then, an inconsistent rhs."""
    ncols, nrows = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    dens = st.sampled_from([1, 1, 2, 3, 7, 1000, 999983, 10**6])

    def frac():
        return Fraction(draw(st.integers(-9, 9)), draw(dens))

    A, dependent = [], []
    for i in range(nrows):
        kind = draw(st.sampled_from(["free", "free", "zero", "copy", "neg"])) if A else "free"
        if kind == "zero":
            A.append([Fraction(0)] * ncols)
        elif kind == "free":
            A.append([frac() for _ in range(ncols)])
        else:
            src = A[draw(st.integers(0, len(A) - 1))]
            scale = draw(st.sampled_from([1, 3, Fraction(1, 7)])) * (-1 if kind == "neg" else 1)
            A.append([scale * v for v in src])
        if kind != "free":
            dependent.append(i)
    x = [frac() for _ in range(ncols)]
    b = [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in A]
    if dependent and draw(st.booleans()):  # inconsistent
        b[draw(st.sampled_from(dependent))] += Fraction(draw(st.integers(1, 9)), draw(dens))
    return A, b, ncols


def _exact(rows, ncols):
    return np.array(rows, dtype=object).reshape(len(rows), ncols)


@SETTINGS
@given(rational_systems())
def test_exact_elimination_matches_fraction_gauss_jordan(case):
    A, b, ncols = case
    z, basis = _reference(A, b, ncols)
    got_z, got_basis = solve_linear(_exact(A, ncols), np.array(b, dtype=object))
    if z is None:
        assert got_z is None
    else:
        assert got_z == z and got_basis == basis
        assert all(isinstance(v, Fraction) for v in got_z + sum(got_basis, []))
    assert setcalc._null_space(A, ncols, True) == _reference(A, [0] * len(A), ncols)[1]


# ---------------------------------------------------------------------------
# Membership against an LP distance oracle
# ---------------------------------------------------------------------------

MEMBER_TOL = 1e-6


def _lifted_eqs(poly):
    """The equality rows of ``poly`` as ``linprog`` arguments, with a zero
    column for one extra variable."""
    if not poly.C_eq.shape[0]:
        return {}
    fl = lambda a: np.asarray(a, dtype=float)
    return dict(A_eq=np.hstack([fl(poly.C_eq), np.zeros((poly.C_eq.shape[0], 1))]),
                b_eq=fl(poly.d_eq))


def _oracle_distance(poly, A, b, q):
    """min t s.t. z in poly, |A z + b - q|_inf <= t; None when poly is empty."""
    fl = lambda a: np.asarray(a, dtype=float)
    nz, dimt = poly.dim, len(q)
    Af, gap = fl(A).reshape(dimt, nz), fl(q) - fl(b)
    A_ub = [np.hstack([Af, -np.ones((dimt, 1))]), np.hstack([-Af, -np.ones((dimt, 1))])]
    b_ub = [gap, -gap]
    if poly.C.shape[0]:
        A_ub.append(np.hstack([fl(poly.C), np.zeros((poly.C.shape[0], 1))]))
        b_ub.append(fl(poly.d))
    c = np.zeros(nz + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.vstack(A_ub), b_ub=np.concatenate(b_ub),
                  bounds=[(None, None)] * nz + [(0, None)], method="highs", **_lifted_eqs(poly))
    assert res.status in (0, 2), res.message
    return res.fun if res.status == 0 else None


def _oracle_margin(poly, A, b, q):
    """max mu s.t. C_i z + mu <= d_i on the open rows, C_j z <= d_j on the
    others, C_eq z = d_eq, |A z + b - q|_inf <= MEMBER_TOL and mu <= 1;
    None when infeasible."""
    fl = lambda a: np.asarray(a, dtype=float)
    nz, dimt, k = poly.dim, len(q), poly.C.shape[0]
    Af, gap = fl(A).reshape(dimt, nz), fl(q) - fl(b)
    opens = np.array([float(i in poly.open_rows) for i in range(k)]).reshape(k, 1)
    A_ub = np.vstack([np.hstack([fl(poly.C), opens]), np.hstack([Af, np.zeros((dimt, 1))]),
                      np.hstack([-Af, np.zeros((dimt, 1))])])
    b_ub = np.concatenate([fl(poly.d), gap + MEMBER_TOL, MEMBER_TOL - gap])
    c = np.zeros(nz + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * nz + [(None, 1.0)],
                  method="highs", **_lifted_eqs(poly))
    assert res.status in (0, 2), res.message
    return -res.fun if res.status == 0 else None


@st.composite
def member_cases(draw, rational):
    """(pieces as (poly, A, b), query points): one or two enumerable pieces,
    some of dimension 0, queried at a point image of a piece and at
    sup-distance MEMBER_TOL/2, 1e-3 and 0.3 from it."""
    dt = object if rational else float
    pieces = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.integers(0, 3)) == 0:
            t = draw(st.integers(1, 3))
            b = np.array([Fraction(draw(st.integers(-4, 4)), 2) for _ in range(t)], dtype=dt)
            pieces.append((Polyhedron(0), np.zeros((t, 0), dtype=dt), b))
        else:
            pieces.append(draw(polyhedra(rational)))
    t = pieces[0][1].shape[0]
    pieces = [pc for pc in pieces if pc[1].shape[0] == t]
    assume(all(poly.enumerable() for poly, _, _ in pieces))
    images = []
    for poly, A, b in pieces:
        vf = poly.vertices()
        for z in vf.vertices + ([vf.anchor] if vf.anchor is not None else []):
            images.append(np.asarray(A, dtype=float) @ np.asarray(z, dtype=float)
                          + np.asarray(b, dtype=float))
    assume(images)
    base = images[draw(st.integers(0, len(images) - 1))]
    # a direction of sup-norm 1 with uneven entries
    step = np.array([draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])) for _ in range(t)])
    step[draw(st.integers(0, t - 1))] = draw(st.sampled_from([-1.0, 1.0]))
    queries = [base, base + step * MEMBER_TOL / 2, base + step * 1e-3, base + step * 0.3]
    return pieces, queries


def _check_member(case):
    pieces, queries = case
    S = PolySet(len(queries[0]), [Piece(poly, A, b, f"p{i}")
                                  for i, (poly, A, b) in enumerate(pieces)])
    for q in queries:
        dists = [d for d in (_oracle_distance(poly, A, b, q) for poly, A, b in pieces)
                 if d is not None]
        want = min(dists) if dists else INF
        if MEMBER_TOL / 2 < want < 10 * MEMBER_TOL:
            continue  # too close to the tolerance to call
        got = S.member(q, MEMBER_TOL)
        assert got.status == ("outside" if want > MEMBER_TOL else "inside"), (got, want)
        if got.status == "outside":
            assert _same(got.distance, want), (got, want)


@SETTINGS
@given(member_cases(rational=False))
def test_float_membership_agrees_with_lp(case):
    _check_member(case)


@SETTINGS
@given(member_cases(rational=True))
def test_rational_membership_agrees_with_lp(case):
    _check_member(case)


@st.composite
def open_member_cases(draw):
    """(polyhedron, A, b, queries): a nonempty float piece of ``polyhedra``
    in dimension <= 3 with some rows flagged open, queried at the image of
    a relative-interior point (the mean of its decomposition points plus
    the sum of its rays), at the image of a point on the face of an open
    row, and 1e-3 beyond a finite end of a coordinate range."""
    poly, A, b = draw(polyhedra(rational=False))
    k = poly.C.shape[0]
    assume(poly.dim <= 3 and k and not _oracle_empty(poly))
    opens = [i for i in range(k) if draw(st.booleans())] or [draw(st.integers(0, k - 1))]
    poly = Polyhedron(poly.dim, poly.C, poly.d, poly.C_eq, poly.d_eq, opens)
    vf = poly.vertices()
    queries = [A @ (np.mean(vf.points, axis=0) + sum(vf.rays, np.zeros(poly.dim))) + b]
    for i in opens:  # the first open row whose face is nonempty
        res = _oracle_lp(poly, -poly.C[i])
        if res.status == 0 and abs(res.fun + poly.d[i]) <= 1e-9:
            queries.append(A @ res.x + b)
            break
    for j, sign in itertools.product(range(A.shape[0]), (1.0, -1.0)):
        res = _oracle_lp(poly, -sign * A[j])
        if res.status == 0:
            queries.append(A @ res.x + b + sign * 1e-3 * np.eye(A.shape[0])[j])
            break
    return poly, A, b, queries


def _check_open_member(poly, A, b, queries):
    for q in queries:
        got = PolySet(A.shape[0], [Piece(_fresh(poly), A, b, "p")]).member(q, MEMBER_TOL)
        dist = _oracle_distance(poly, A, b, q)
        if MEMBER_TOL / 2 < dist < 10 * MEMBER_TOL:
            continue  # too close to the tolerance to call
        if dist > MEMBER_TOL:
            assert got.status == "outside" and _same(got.distance, dist), (got, dist)
            continue
        mu = _oracle_margin(poly, A, b, q)
        if mu is not None and MEMBER_TOL / 2 < mu < 10 * MEMBER_TOL:
            continue
        assert got.status == ("inside" if mu is not None and mu > MEMBER_TOL
                              else "boundary"), (got, mu)


@pytest.mark.parametrize("budget", [setcalc.MAX_VFORM_SUBSETS, 0])
@SETTINGS
@given(case=open_member_cases())
def test_open_row_membership_agrees_with_lp(budget, case):
    # at budget 0 every distance and margin range is solved by pivoting
    with mock.patch.object(setcalc, "MAX_VFORM_SUBSETS", budget):
        _check_open_member(*case)


# ---------------------------------------------------------------------------
# Emptiness: the origin witness and the integer test in dimension 0
# ---------------------------------------------------------------------------


@st.composite
def emptiness_cases(draw, rational):
    """(kind, polyhedron) of dimension <= 4: right-hand sides that admit the
    origin ("cone"), one negative right-hand side ("negative"), a row and
    its negation with contradicting sides ("empty"), open rows ("open"), as
    many equality rows as variables ("pinned") or no variable at all
    ("dim0")."""
    kind = draw(st.sampled_from(["cone", "negative", "empty", "open", "pinned", "dim0"]))
    dim = 0 if kind == "dim0" else draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 2, 4]))
    dt = object if rational else float

    def ints(lo, hi, n):
        return [draw(st.integers(lo, hi)) for _ in range(n)]

    def vec(xs):
        return np.array([Fraction(x, den) if rational else x / den for x in xs], dtype=dt)

    def mat(m):
        return vec([x for row in m for x in row]).reshape(len(m), dim)

    k = draw(st.integers(2 if kind == "empty" else 0, 5))
    q = dim if kind == "pinned" else draw(st.integers(0, 2))
    C, C_eq = [ints(-3, 3, dim) for _ in range(k)], [ints(-3, 3, dim) for _ in range(q)]
    d, d_eq = ints(-2, 4, k), ints(-2, 2, q)
    if kind == "cone":
        d, d_eq = ints(0, 4, k), [0] * q
    elif kind == "negative" and k:
        d[draw(st.integers(0, k - 1))] = draw(st.integers(-3, -1))
    elif kind == "empty":  # c z <= d0 and -c z <= d1 with d0 + d1 < 0
        C[1] = [-x for x in C[0]]
        d[1] = -d[0] - draw(st.integers(1, 3))
    opens = [i for i in range(k) if draw(st.booleans())] if kind == "open" else ()
    return kind, Polyhedron(dim, C=mat(C), d=vec(d), C_eq=mat(C_eq), d_eq=vec(d_eq),
                            open_rows=opens)


def _check_emptiness(case):
    kind, poly = case
    fresh = _fresh(poly)
    points = fresh._decompose().points
    assert poly.is_empty() == (not points)
    if kind == "cone":  # the origin witnesses, before any reduction
        assert points and poly._reduction is setcalc._UNSET
    if kind == "empty":
        assert not points
    red = fresh._reduced()
    if poly.rational and red is not None and not red.N:
        z = setcalc._frac_vec(red.z0, red.det)
        assert all(v >= 0 for v in red.dp) == poly.contains_point(z, 0)


@settings(SETTINGS, max_examples=200)
@given(emptiness_cases(rational=False))
def test_float_emptiness_agrees_with_decomposition(case):
    _check_emptiness(case)


@settings(SETTINGS, max_examples=200)
@given(emptiness_cases(rational=True))
def test_rational_emptiness_agrees_with_decomposition(case):
    _check_emptiness(case)


# ---------------------------------------------------------------------------
# Zero singletons: the constant test against the coordinate ranges
# ---------------------------------------------------------------------------

ZERO_TOL = 1e-9


@st.composite
def image_cases(draw, rational):
    """(polyhedron, A, b) of ``polyhedra``; now and then the map is a
    combination W C_eq z - W d_eq of the equality rows, which vanishes on
    their affine hull, as it is or shifted off the origin."""
    poly, A, b = draw(polyhedra(rational))
    kind = draw(st.sampled_from(["random", "vanishing", "shifted"]))
    if kind != "random":
        t, q = A.shape[0], poly.C_eq.shape[0]
        W = np.array([draw(st.integers(-2, 2)) for _ in range(t * q)],
                     dtype=object if rational else float).reshape(t, q)
        A, b = W @ poly.C_eq, -(W @ poly.d_eq)
        if kind == "shifted":
            b[draw(st.integers(0, t - 1))] += 1
    return poly, A, b


def _check_zero_singleton(poly, A, b):
    S = PolySet(A.shape[0], [Piece(poly, A, b, "p")])
    poly._reduced()  # cached: the constant test reads its hull and solves nothing
    with mock.patch.object(setcalc, "solve_linear", side_effect=AssertionError("re-solved")):
        got = S.is_zero_singleton(ZERO_TOL)
        vals = [setcalc._piece_constant(S.pieces[0], i) for i in range(A.shape[0])]
    ranges = [S.coord_range(i) for i in range(A.shape[0])]
    nonempty = not poly.is_empty()
    assert got == (nonempty and all(-ZERO_TOL <= lo and hi <= ZERO_TOL for lo, hi in ranges))
    if nonempty:
        assert all(_same(lo, float(v)) and _same(hi, float(v))
                   for (lo, hi), v in zip(ranges, vals) if v is not None)


@SETTINGS
@given(image_cases(rational=False))
def test_float_zero_singleton_agrees_with_ranges(case):
    _check_zero_singleton(*case)


@SETTINGS
@given(image_cases(rational=True))
def test_rational_zero_singleton_agrees_with_ranges(case):
    _check_zero_singleton(*case)


# ---------------------------------------------------------------------------
# Integer rows: inherited or handed in, always those of the public rows
# ---------------------------------------------------------------------------


@st.composite
def exact_families(draw):
    """(gy, partition, u*, flavor) of an exact branch family: p <= 3 rows
    in m <= 2 variables, each index in eta, theta or nu at random."""
    m, p = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    frac = lambda: Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3])))
    gy = np.array([frac() for _ in range(p * m)], dtype=object).reshape(p, m)
    sets = {"eta": [], "theta": [], "nu": []}
    for i in range(p):
        sets[draw(st.sampled_from(sorted(sets)))].append(i)
    u_star = np.array([frac() for _ in range(p)], dtype=object)
    return gy, Partition(**{k: tuple(v) for k, v in sets.items()}), u_star, \
        draw(st.sampled_from(["M", "C"]))


@st.composite
def int_row_cases(draw):
    """Rational polyhedra whose integer rows come from somewhere else than
    their own scaling: slices (by rational or float rows), products and
    slices of products of ``polyhedra``, the branches of an exact family,
    their closures and their slices, and the feasible and face sets of
    ``kernel``; plain ones besides."""
    kind = draw(st.sampled_from(["plain", "slice", "product", "product-slice", "branch",
                                 "kernel"]))
    frac = lambda: Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2])))
    fracs = lambda n: np.array([frac() for _ in range(n)], dtype=object)
    if kind == "branch":
        gy, part, u_star, flavor = draw(exact_families())
        fam = coderiv.build_branch_family(gy, part, u_star, flavor, branch_cap=27)
        M = fracs(3 * fam.dim).reshape(3, fam.dim)
        ystar = fracs(3 - 1)
        sliced = coderiv.slice_pieces(fam, M, ystar, fracs(1), lambda br: br.label)
        return [br.poly for br in fam.branches] + [br.poly.closure() for br in fam.branches] \
            + [pc.poly for pc in sliced]
    if kind == "kernel":
        m, k = draw(st.integers(1, 3)), draw(st.integers(0, 5))
        rows = [tuple(draw(st.integers(-3, 3)) for _ in range(m + 1)) for _ in range(k)]
        q = draw(st.integers(1, 2))
        face = kernel._row_polyhedron(rows, m, C_eq=fracs(q * m).reshape(q, m), d_eq=fracs(q))
        return [kernel._row_polyhedron(rows, m), face]
    P = draw(polyhedra(rational=True))[0]
    if draw(st.booleans()):
        P.vertices()  # a parent with its rows and decomposition cached
    if kind in ("product", "product-slice"):
        P = P.product(draw(polyhedra(rational=True))[0])
    if kind in ("slice", "product-slice"):
        j = draw(st.integers(1, 2))
        E, f = fracs(j * P.dim).reshape(j, P.dim), fracs(j)
        if draw(st.booleans()):  # float rows: the slice scales them itself
            E, f = E.astype(float), f.astype(float)
        P = P.with_eqs(E, f)
    return [P]


def _vform(vf):
    return [list(v) for v in vf.points], [list(v) for v in vf.rays], vf.lineality


@SETTINGS
@given(int_row_cases())
def test_integer_rows_are_those_of_the_public_rows(polys):
    for poly in polys:
        assert poly.rational
        assert poly._int_rows() == [setcalc._int_row([*a, b]) for a, b in zip(poly.C, poly.d)]
        assert poly._int_eq_rows() == [setcalc._int_row([*a, b])
                                       for a, b in zip(poly.C_eq, poly.d_eq)]
        assert _vform(poly.vertices()) == _vform(_fresh(poly).vertices())


@st.composite
def degenerate_hulls(draw):
    """(generators, queries) in dim <= 3: at most 7 float generators, one
    of them repeated and three of them collinear (the middle one halfway),
    and queries that are convex combinations of them, some moved off by a
    small offset."""
    dim = draw(st.integers(1, 3))
    den = draw(st.sampled_from([1, 2, 4]))
    point = lambda: np.array([draw(st.integers(-3, 3)) / den for _ in range(dim)])
    gens = [point() for _ in range(draw(st.integers(1, 3)))]
    a, b = point(), point()
    gens += [gens[draw(st.integers(0, len(gens) - 1))].copy(), a, (a + b) / 2, b]
    order = draw(st.permutations(range(len(gens))))
    gens = [gens[i] for i in order]
    queries = []
    for _ in range(3):
        w = np.array([draw(st.integers(0, 2)) for _ in gens], dtype=float)
        assume(w.sum() > 0)
        offset = point() / 4 if draw(st.booleans()) else np.zeros(dim)
        queries.append(sum(wi * g for wi, g in zip(w / w.sum(), gens)) + offset)
    return gens, queries


def _generator_map(gens):
    """A generator map whose coderivative at generator k is the point
    (k + 1) * covector + k."""
    return coderiv.FiniteGeneratorMap(
        gens, lambda k, w: PolySet.from_point((k + 1) * np.asarray(w, float) + k, f"g{k}"),
        len(gens[0]))


def _per_support_hull(gen_map, ybar, ystar):
    """The hull coderivative pieces by the enumeration of supports: every
    support of at most d+1 generators, the vertices of its own weight
    polytope, each weight vector's first occurrence kept."""
    gens, d = gen_map.generators, len(ybar)
    pieces, seen = [], set()
    for size in range(1, min(len(gens), d + 1) + 1):
        for support in itertools.combinations(range(len(gens)), size):
            W = Polyhedron(size, C=-np.eye(size), d=np.zeros(size),
                           C_eq=np.vstack([np.column_stack([gens[s] for s in support]),
                                           np.ones((1, size))]),
                           d_eq=np.concatenate([ybar, [1.0]]))
            for w in W.vertices().vertices:
                active = tuple((support[j], round(float(w[j]), 12))
                               for j in range(size) if w[j] > 1e-9)
                if not active or active in seen:
                    continue
                seen.add(active)
                summed = None
                for s, weight in active:
                    part = gen_map.coderiv(s, weight * ystar)
                    summed = part if summed is None else summed.minkowski(part)
                tag = "+".join(f"b{s}*{weight:g}" for s, weight in active)
                pieces += [Piece(pc.poly, pc.A, pc.b, f"hull[{tag}]|{pc.provenance}")
                           for pc in summed.pieces]
    return PolySet(gen_map.target_dim, pieces)


@SETTINGS
@given(degenerate_hulls())
def test_hull_coderivative_agrees_with_per_support_enumeration(case):
    gens, queries = case
    dim = len(gens[0])
    gen_map, hull = _generator_map(gens), ConvexHullSet(gens)
    ystar = np.arange(1.0, dim + 1.0)
    for q in queries:
        got = coderiv.hull_coderivative(gen_map, q, ystar).result
        ref = _per_support_hull(gen_map, q, ystar)
        assert [pc.provenance for pc in got.pieces] == [pc.provenance for pc in ref.pieces]
        samples = [pc.b for pc in ref.pieces] + [pc.b + 0.5 for pc in ref.pieces] + [q]
        for z in samples:
            assert got.member(z).status == ref.member(z).status
        cert = hull.certificate(q)
        assert (cert is not None) == bool(ref.pieces)
        if cert is not None:
            w = np.array(cert.weights)
            assert len(cert.support) <= dim + 1
            assert w.min() >= -1e-12 and abs(w.sum() - 1.0) <= 1e-9
            assert np.max(np.abs(cert.reconstruct(gens) - q)) <= 1e-9
