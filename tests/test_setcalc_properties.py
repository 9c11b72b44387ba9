"""Property tests: emptiness, boundedness, coordinate ranges and
membership of random small polyhedra (float and rational, dim <= 4,
including empty, unbounded and non-pointed ones) agree with plain
``scipy.optimize.linprog`` LPs written out here, exact elimination
agrees with a plain Fraction Gauss-Jordan written out here, and the
zero-singleton test agrees with the coordinate ranges.  Examples are
derandomized, so the run is fixed."""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from valfun import setcalc
from valfun.setcalc import Piece, Polyhedron, PolySet, matrix_rank_generic, solve_linear

SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
INF = float("inf")


@st.composite
def polyhedra(draw, rational):
    """(polyhedron, map A, offset b) with small integer or rational data.
    Now and then the last variable is dropped from every row, which makes
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

    k, q, t = draw(st.integers(0, 5)), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    C, C_eq, A = ([ints(-3, 3, dim) for _ in range(n)] for n in (k, q, t))
    if draw(st.booleans()):
        for row in C + C_eq:
            row[-1] = 0
    poly = Polyhedron(dim, C=mat(C), d=vec(ints(-2, 4, k)),
                      C_eq=mat(C_eq), d_eq=vec(ints(-2, 2, q)))
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
        assert poly.is_bounded() == bounded
        with mock.patch.object(setcalc, "MAX_VFORM_SUBSETS", 0):  # range LPs
            assert _fresh(poly).is_bounded() == bounded
        vf = poly.vertices()
        assert (not vf.vertices) == (vf.anchor is not None)
        for v in vf.vertices + ([vf.anchor] if vf.anchor is not None else []):
            assert poly.contains_point(v, tol=1e-7)
    S = PolySet(A.shape[0], [Piece(poly, A, b, "p")])
    for i in range(A.shape[0]):
        got = S.coord_range(i)
        want = _oracle_range(poly, A[i], b[i])
        assert _same(got[0], want[0]) and _same(got[1], want[1]), (got, want)


@SETTINGS
@given(polyhedra(rational=False))
def test_float_polyhedra_agree_with_lp(case):
    _check(*case)


@SETTINGS
@given(polyhedra(rational=True))
def test_rational_polyhedra_agree_with_lp(case):
    _check(*case)


@pytest.mark.parametrize("dt", [float, object])
def test_non_pointed_ranges(dt):
    # a slab in R^3 that is free along e3: the e3 range opens both ways
    C = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0]], dtype=dt)
    P = Polyhedron(3, C=C, d=np.array([1, 1, 2], dtype=dt))
    S = PolySet(3, [Piece(P, np.eye(3, dtype=dt), np.zeros(3, dtype=dt), "slab")])
    assert [S.coord_range(i) for i in range(3)] == [(-1.0, 1.0), (-INF, 2.0), (-INF, INF)]
    assert not P.is_bounded() and not P.is_empty()


# ---------------------------------------------------------------------------
# Exact elimination against a Fraction Gauss-Jordan reference
# ---------------------------------------------------------------------------


def _reference(A, b, ncols):
    """(particular or None, null-space basis, rank) from the reduced row
    echelon form of [A | b], by Fraction Gauss-Jordan."""
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
        return None, basis, len(pivots)
    z = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        z[c] = rows[i][-1]
    return z, basis, len(pivots)


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
    z, basis, rank = _reference(A, b, ncols)
    got_z, got_basis = solve_linear(_exact(A, ncols), np.array(b, dtype=object))
    if z is None:
        assert got_z is None
    else:
        assert got_z == z and got_basis == basis
        assert all(isinstance(v, Fraction) for v in got_z + sum(got_basis, []))
    assert setcalc._null_space(A, ncols, True) == _reference(A, [0] * len(A), ncols)[1]
    assert matrix_rank_generic(_exact(A, ncols)) == rank


# ---------------------------------------------------------------------------
# Membership against an LP distance oracle
# ---------------------------------------------------------------------------

MEMBER_TOL = 1e-6


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
    kw = {}
    if poly.C_eq.shape[0]:
        kw.update(A_eq=np.hstack([fl(poly.C_eq), np.zeros((poly.C_eq.shape[0], 1))]),
                  b_eq=fl(poly.d_eq))
    c = np.zeros(nz + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.vstack(A_ub), b_ub=np.concatenate(b_ub),
                  bounds=[(None, None)] * nz + [(0, None)], method="highs", **kw)
    assert res.status in (0, 2), res.message
    return res.fun if res.status == 0 else None


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
    if poly.rational and red is not None and red.N.shape[1] == 0:
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
    poly._reduced()  # cached: the constant test reads it and solves nothing
    with mock.patch.object(setcalc, "solve_linear", side_effect=AssertionError("re-solved")):
        got = S.is_zero_singleton(ZERO_TOL)
        val = setcalc._piece_constant_value(S.pieces[0])
    ranges = [S.coord_range(i) for i in range(A.shape[0])]
    nonempty = not poly.is_empty()
    assert got == (nonempty and all(-ZERO_TOL <= lo and hi <= ZERO_TOL for lo, hi in ranges))
    if val is not None and nonempty:
        assert all(_same(lo, float(v)) and _same(hi, float(v)) for (lo, hi), v in zip(ranges, val))


@SETTINGS
@given(image_cases(rational=False))
def test_float_zero_singleton_agrees_with_ranges(case):
    _check_zero_singleton(*case)


@SETTINGS
@given(image_cases(rational=True))
def test_rational_zero_singleton_agrees_with_ranges(case):
    _check_zero_singleton(*case)
