"""Property tests: emptiness, boundedness and coordinate ranges of random
small polyhedra (float and rational, dim <= 4, including empty, unbounded
and non-pointed ones) agree with plain ``scipy.optimize.linprog`` LPs
written out here.  Examples are derandomized, so the run is fixed."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from valfun.setcalc import Piece, Polyhedron, PolySet

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


def _check(poly, A, b):
    empty = _oracle_empty(poly)
    assert poly.is_empty() == empty
    if not empty:
        bounded = all(
            _oracle_lp(poly, -sign * np.eye(poly.dim)[j]).status == 0
            for j in range(poly.dim) for sign in (1.0, -1.0))
        assert poly.is_bounded() == bounded
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
