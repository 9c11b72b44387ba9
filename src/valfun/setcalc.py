"""Polyhedral set calculus.

Everything downstream (subdifferential and coderivative estimates) is a
finite union of affine images of polyhedra.  This module provides the two
carriers:

* :class:`Polyhedron` -- one convex piece in H-form, rows C z <= d plus
  equality rows, with a set of rows flagged "open" (strict).  Strict rows
  are stored closed; computations use the closure, which is the sound
  direction for upper estimates, and membership reports "boundary" when a
  point only touches the closure of an open row.
* :class:`PolySet` -- a finite union of pieces, each an affine image
  ``z -> A z + b`` of a source polyhedron, tagged with a provenance
  string.

Arithmetic is float by default with 1e-9 pivot/rank tolerances.  Arrays
of ``fractions.Fraction`` (dtype=object) switch the vertex-enumeration
and affine-hull paths to exact arithmetic, run in integers by
fraction-free elimination.  A set whose rows admit the origin is nonempty
without further work; otherwise emptiness, like boundedness, coordinate
ranges and membership, is read off one cached vertex/ray decomposition per
polyhedron, so they are exact on rational data too.  Pieces too large to
enumerate (``MAX_VFORM_SUBSETS``), membership farther than the tolerance
from every decomposition point, open rows and hull weights take
floating-point LPs, each raising :class:`LpStatusError` unless the solver
reports a definite answer.

scipy is imported on first use only, for those LPs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, LpStatusError

RANK_TOL = 1e-9
DEDUP_TOL = 1e-6
#: Largest active-set subset count C(k, r-l) + C(k, r-l-1) (k rows, r
#: free variables, lineality l) for which emptiness, boundedness,
#: coordinate ranges and ``kernel.check_mfcq`` come from the enumerated
#: decomposition rather than LPs.  Ten covers the largest pieces of the
#: test battery (k=4, r=2).  At this size, on dense random rows with two
#: equality rows, a decomposition costs 0.6-2.4 ms in floats and 0.6-3.1 ms
#: exactly (medians, r <= 8), no more than the one 2.7-3.3 ms HiGHS call of
#: an emptiness check.
MAX_VFORM_SUBSETS = 10
#: HiGHS statuses that decide a query: optimal, infeasible, unbounded.
DECIDED_LP_STATUSES = (0, 2, 3)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


# ---------------------------------------------------------------------------
# Generic linear algebra (float or Fraction)
# ---------------------------------------------------------------------------


def _is_rational(arr) -> bool:
    return isinstance(arr, np.ndarray) and arr.dtype == object


def _as_float(arr) -> np.ndarray:
    return np.asarray(arr, dtype=float)


def _rows_of(M, exact: bool):
    if exact:  # _gauss_int takes any rational entries
        return [list(row) for row in M]
    return [[float(v) for v in row] for row in np.asarray(M, dtype=float)]


def _int_row(row):
    """The row times the positive lcm of its denominators, as ints."""
    row = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
    den = math.lcm(*(v.denominator for v in row))
    return [int(v.numerator * (den // v.denominator)) for v in row]


def _solution(rows, pivots, ncols, zero, one):
    """Particular solution and null-space basis read off reduced rows
    [A | b] with pivot (row, column) pairs ``pivots``, every pivot ``one``."""
    particular = [zero] * ncols
    for i, c in pivots:
        particular[c] = rows[i][ncols]
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        v = [zero] * ncols
        v[fc] = one
        for i, c in pivots:
            v[c] = -rows[i][fc]
        basis.append(v)
    return particular, basis


def _gauss_int(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer
    rows [A | b], A of ``ncols`` columns: (z, basis, det), the output of
    ``_gauss`` times an integer det > 0, or None when inconsistent.  After
    each pivot every row is the pivot times its row of rational
    Gauss-Jordan, so the divisions by the previous pivot are exact."""
    nrows, r, prev, pivots = len(rows), 0, 1, []
    for c in range(ncols):
        best = next((i for i in range(r, nrows) if rows[i][c]), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        pr = rows[r]
        piv = pr[c]
        for i in range(nrows):
            f = rows[i][c]
            if i == r or (not f and piv == prev):
                continue
            rows[i] = [(piv * a - f * b) // prev for a, b in zip(rows[i], pr)]
        pivots.append((r, c))
        prev, r = piv, r + 1
        if r == nrows:
            break
    if any(rows[i][ncols] for i in range(r, nrows)):
        return None
    if prev < 0:
        rows, prev = [[-v for v in row] for row in rows], -prev
    return *_solution(rows, pivots, ncols, 0, prev), prev


def _gauss(A_rows, b_vec, exact: bool):
    """Row-reduce [A | b].  Returns (particular, nullspace_basis) where
    ``particular`` is None when the system is inconsistent.

    With no rows the column count is unknown and the result is ([], []);
    ``_null_space`` covers the whole space.  Exact rows are eliminated in
    integers by ``_gauss_int``; the reduced echelon form is unique, so the
    Fractions built from it are those of rational elimination.
    """
    if not A_rows:
        return [], []
    rows = [list(r) + [b_vec[i]] for i, r in enumerate(A_rows)]
    ncols = len(A_rows[0])
    if exact:
        sol = _gauss_int([_int_row(row) for row in rows], ncols)
        if sol is None:
            return None, []
        z, basis, det = sol
        return [Fraction(v, det) for v in z], [[Fraction(v, det) for v in w] for w in basis]
    tol = RANK_TOL * max(1.0, max(abs(v) for r in rows for v in r))
    nrows = len(rows)
    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        # partial pivoting
        best, best_val = None, tol
        for i in range(r, nrows):
            v = abs(rows[i][c])
            if v > best_val:
                best, best_val = i, v
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [v / piv for v in rows[r]]
        pr = rows[r]
        for i in range(nrows):
            factor = rows[i][c]
            if i != r and abs(factor) > tol:
                rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], pr)]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    # consistency
    for i in range(r, nrows):
        if abs(rows[i][ncols]) > max(tol, RANK_TOL):
            return None, []
    return _solution(rows, pivots, ncols, 0.0, 1.0)


def solve_linear(A, b, exact: bool | None = None):
    """Particular solution and nullspace basis of A z = b.

    Returns (z0, basis); z0 is None when inconsistent.  Exact mode is
    inferred from dtype unless forced.
    """
    A = np.asarray(A)
    if exact is None:
        exact = _is_rational(A)
    rows = _rows_of(A, exact)  # k empty rows when A is k x 0: each reads 0 = b_i
    if A.size == 0 and A.ndim == 2 and A.shape[1] > 0:
        # no rows: everything solves
        ncols = A.shape[1]
        return [Fraction(0) if exact else 0.0] * ncols, _null_space([], ncols, exact)
    return _gauss(rows, list(b) if exact else [float(v) for v in b], exact)


def matrix_rank_generic(A, exact: bool | None = None) -> int:
    A = np.asarray(A)
    if A.size == 0:
        return 0
    if exact is None:
        exact = _is_rational(A)
    if not exact:
        return int(np.linalg.matrix_rank(_as_float(A), tol=RANK_TOL))
    return A.shape[1] - len(_gauss_int([_int_row(list(r) + [0]) for r in A], A.shape[1])[1])


# ---------------------------------------------------------------------------
# Polyhedron
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VForm:
    """Minkowski-Weyl form P = conv(points) + cone(rays), cached once per
    polyhedron and shared by every caller.

    ``points`` is nonempty exactly when P is.  With a lineality space of
    dimension ``lineality`` > 0 the points are the vertices of the section
    of P orthogonal to it (in reduced coordinates) and the rays hold both
    signs of its basis besides the extreme rays of the section.  When the
    equality rows are consistent the rays span the recession cone of the
    H-form even if P is empty.
    """

    points: tuple
    rays: tuple
    lineality: int = 0

    @property
    def vertices(self) -> list:
        """The extreme points of P: the points when P is pointed, else none."""
        return [] if self.lineality else list(self.points)

    @property
    def anchor(self):
        """One point of P when P is nonempty and has no extreme point."""
        return self.points[0] if self.lineality and self.points else None

    @property
    def empty(self) -> bool:
        return not self.points


class _Reduced(NamedTuple):
    """The equality rows eliminated: z = (z0 + N t) / det with t in
    { t : Cp t <= dp }; ``lin`` is a basis of { t : Cp t = 0 }.  Rational
    data gives Python ints (rows of [Cp | dp] scaled) and det > 0."""

    z0: list
    N: np.ndarray
    Cp: np.ndarray
    dp: np.ndarray
    lin: list
    det: int | float


_UNSET = object()


class Polyhedron:
    """H-form polyhedron { z : C z <= d, C_eq z = d_eq }.

    ``open_rows`` flags inequality rows meant strictly; the stored set is
    the closure.  Construct via the classmethods or by stacking rows on
    an existing instance.  The row arrays are private read-only copies, so
    the cached decomposition and feasible point never go stale.
    """

    def __init__(self, dim, C=None, d=None, C_eq=None, d_eq=None, open_rows=()):
        self.dim = int(dim)
        self.C = self._mat(C, self.dim)
        self.d = self._vec(d, self.C.shape[0])
        self.C_eq = self._mat(C_eq, self.dim)
        self.d_eq = self._vec(d_eq, self.C_eq.shape[0])
        for arr in (self.C, self.d, self.C_eq, self.d_eq):
            arr.setflags(write=False)
        self.open_rows = frozenset(int(i) for i in open_rows)
        for i in self.open_rows:
            if not 0 <= i < self.C.shape[0]:
                raise DimensionError(f"open row index {i} out of range")
        self._reduction = _UNSET
        self._decomp = None
        self._point = _UNSET

    @staticmethod
    def _mat(M, dim):
        if M is None:
            return np.zeros((0, dim))
        M = np.array(M)
        if M.dtype != object:
            M = M.astype(float, copy=False)
        if M.size == 0:  # k rows of no entries are constant rows when dim == 0
            return np.zeros((M.shape[0] if M.ndim == 2 and M.shape[1] == dim else 0, dim))
        if M.ndim != 2 or M.shape[1] != dim:
            raise DimensionError(f"matrix shape {M.shape} does not match dim {dim}")
        return M

    @staticmethod
    def _vec(v, nrows):
        v = np.array([] if v is None else v)
        if v.dtype != object:
            v = v.astype(float, copy=False)
        v = np.atleast_1d(v)
        if v.shape[0] != nrows:
            raise DimensionError(f"rhs length {v.shape[0]} does not match {nrows} rows")
        return v

    # -- constructors --------------------------------------------------------

    @classmethod
    def whole(cls, dim) -> "Polyhedron":
        return cls(dim)

    @property
    def rational(self) -> bool:
        return (
            self.C.dtype == object
            or self.C_eq.dtype == object
            or self.d.dtype == object
            or self.d_eq.dtype == object
        )

    def with_eqs(self, E2, f2) -> "Polyhedron":
        E2 = self._mat(E2, self.dim)
        f2 = self._vec(f2, E2.shape[0])
        return Polyhedron(
            self.dim,
            C=self.C,
            d=self.d,
            C_eq=_stack(self.C_eq, E2),
            d_eq=_cat(self.d_eq, f2),
            open_rows=self.open_rows,
        )

    def product(self, other: "Polyhedron") -> "Polyhedron":
        """Cartesian product, variables of ``other`` appended after ours."""
        da, db = self.dim, other.dim
        C = _block_diag(self.C, other.C, da, db)
        C_eq = _block_diag(self.C_eq, other.C_eq, da, db)
        opens = set(self.open_rows)
        opens.update(self.C.shape[0] + i for i in other.open_rows)
        return Polyhedron(
            da + db,
            C=C,
            d=_cat(self.d, other.d),
            C_eq=C_eq,
            d_eq=_cat(self.d_eq, other.d_eq),
            open_rows=opens,
        )

    def closure(self) -> "Polyhedron":
        return Polyhedron(self.dim, self.C, self.d, self.C_eq, self.d_eq, ())

    # -- point queries --------------------------------------------------------

    def contains_point(self, z, tol: float = RANK_TOL, honor_open: bool = False) -> bool:
        z = np.asarray(z, dtype=object if self.rational else float)
        if self.C.shape[0]:
            vals = self.C @ z
            for i in range(self.C.shape[0]):
                slack = self.d[i] - vals[i]
                if honor_open and i in self.open_rows:
                    if not slack > tol:
                        return False
                elif not slack >= -tol:
                    return False
        if self.C_eq.shape[0]:
            vals = self.C_eq @ z
            for i in range(self.C_eq.shape[0]):
                if abs(vals[i] - self.d_eq[i]) > tol:
                    return False
        return True

    def feasible_point(self):
        """Any point of the closure via LP, or None when empty.  Memoized;
        raises LpStatusError when the LP ends undecided."""
        if self._point is _UNSET:
            self._point = self._lp_point()
        return self._point

    def _lp_point(self):
        if self.dim == 0:
            ok = np.all(_as_float(self.d) >= -RANK_TOL) if self.d.shape[0] else True
            ok = ok and (
                np.all(np.abs(_as_float(self.d_eq)) <= RANK_TOL)
                if self.d_eq.shape[0]
                else True
            )
            return np.zeros(0) if ok else None
        res = _lp(np.zeros(self.dim), **self._lp_rows())
        _check_status(res, "feasible point")
        if res.status != 0:
            return None
        res.x.setflags(write=False)
        return res.x

    def _lp_rows(self) -> dict:
        """The rows as float ``linprog`` arguments."""
        ineq, eq = self.C.shape[0] > 0, self.C_eq.shape[0] > 0
        return {
            "A_ub": _as_float(self.C) if ineq else None,
            "b_ub": _as_float(self.d) if ineq else None,
            "A_eq": _as_float(self.C_eq) if eq else None,
            "b_eq": _as_float(self.d_eq) if eq else None,
        }

    def is_empty(self) -> bool:
        """Whether the closure is empty.  When every d >= 0 and d_eq == 0
        the origin is a witness (a cone, such as a coderivative branch at a
        zero covector), decided without reduction or enumeration; otherwise
        the cached decomposition answers, or an LP past MAX_VFORM_SUBSETS."""
        if all(v >= 0 for v in self.d) and not any(self.d_eq):
            return False
        if self.enumerable():
            return self.vertices().empty
        return self.feasible_point() is None

    def is_bounded(self) -> bool:
        """True when the closure is empty or every coordinate range of it
        is finite, read by ``_piece_range`` of the identity image."""
        if self.is_empty():
            return True
        dt = object if self.rational else float
        ident = Piece(self, np.eye(self.dim, dtype=dt), np.zeros(self.dim, dtype=dt))
        return all(math.isfinite(v) for i in range(self.dim) for v in _piece_range(ident, i))

    # -- vertex enumeration ----------------------------------------------------

    def vertices(self) -> VForm:
        """The decomposition of the closure, computed once and cached.

        Equality rows are eliminated first, then active-set subsets of the
        reduced inequality system are solved.  Exact on rational data.
        The rays span the recession cone: both signs of a lineality basis
        plus the extreme rays of the section orthogonal to it.  For sets
        with no extreme point, ``anchor`` carries one feasible point, a
        vertex of that section.
        """
        if self._decomp is None:
            self._decomp = self._decompose()
        return self._decomp

    def _reduced(self) -> _Reduced | None:
        """The equality rows eliminated; None when they are inconsistent.
        Cached."""
        if self._reduction is _UNSET:
            self._reduction = self._reduce()
        return self._reduction

    def _reduce(self):
        if self.rational:
            return self._reduce_int()
        z0, basis = solve_linear(
            self.C_eq if self.C_eq.shape[0] else np.zeros((0, self.dim)),
            self.d_eq if self.d_eq.shape[0] else [],
            False,
        )
        if z0 is None:
            return None
        r, k = len(basis), self.C.shape[0]
        N = np.array(basis, dtype=float).T.reshape(self.dim, r)
        if r == 0:  # z0 is the only candidate; _decompose tests it directly
            return _Reduced(z0, N, np.zeros((k, 0)), None, [], 1.0)
        Cm = _as_float(self.C)
        Cp = Cm @ N if k else np.zeros((0, r))
        dp = np.array([self.d[i] - _dot(Cm[i], z0) for i in range(k)], dtype=float)
        lin = _null_space(_rows_of(Cp, False), r, False)
        return _Reduced(z0, N, Cp, dp, lin, 1.0)

    def _reduce_int(self):
        """``_reduce`` on rational data, in integers."""
        sol = _gauss_int([_int_row(list(a) + [b]) for a, b in zip(self.C_eq, self.d_eq)],
                         self.dim)
        if sol is None:
            return None
        z0, basis, det = sol
        z0, r = np.array(z0, dtype=object), len(basis)
        N = np.array(basis, dtype=object).T.reshape(self.dim, r)
        # row [c | d] of [C | d] stands for (C N) t <= d det - c . z0, times det
        rows = [_int_row(list(a) + [b]) for a, b in zip(self.C, self.d)]
        Cp = np.array([[_dot(row, w) for w in basis] for row in rows],
                      dtype=object).reshape(len(rows), r)
        dp = np.array([row[-1] * det - _dot(row, z0) for row in rows], dtype=object)
        lin = _gauss_int([list(row) + [0] for row in Cp], r)[1]
        return _Reduced(z0, N, Cp, dp, lin, det)

    def enumerable(self) -> bool:
        """Whether the decomposition fits MAX_VFORM_SUBSETS."""
        red = self._reduced()
        if red is None:
            return True
        k, s = red.Cp.shape[0], red.N.shape[1] - len(red.lin)
        return _comb(k, s) + _comb(k, s - 1) <= MAX_VFORM_SUBSETS

    def _decompose(self) -> VForm:
        """Active-set enumeration on the reduced rows, in integers on rational
        data: Fractions are built only for the points and rays kept."""
        exact = self.rational
        dt = object if exact else float
        red = self._reduced()
        if red is None:
            return VForm((), ())
        z0, N, Cp, dp, lin, det = red
        k, r, l = Cp.shape[0], N.shape[1], len(lin)
        if r == 0:  # the integer slacks dp of z0 / det (det > 0) decide exact data
            z = _frac_vec(z0, det) if exact else np.array(z0, dtype=float)
            z.setflags(write=False)
            inside = all(v >= 0 for v in dp) if exact else self.contains_point(z, RANK_TOL)
            return VForm((z,) if inside else (), ())
        # the section L^T t = 0 of the reduced set is pointed
        section = [list(v) for v in lin]
        scale = 1 if exact else max(1.0, float(np.max(np.abs(_as_float(dp)))) if k else 1.0)
        slack = 0 if exact else RANK_TOL * scale
        verts_t = []  # (t, D): the vertex is t / D in the reduced coordinates
        for J in itertools.combinations(range(k), r - l):
            sol = _solve([Cp[i] for i in J] + section, [dp[i] for i in J] + [0] * l, r, exact)
            if sol is None or sol[1]:
                continue  # singular or rank-deficient
            t, _, D = sol
            t = np.array(t, dtype=dt)
            vals = Cp @ t
            if all(vals[i] <= dp[i] * D + slack for i in range(k)):
                verts_t.append((t, D))
        rays_t = [sign * np.array(v, dtype=dt) for v in lin for sign in (1, -1)]
        if r - l >= 1:
            tol = 0 if exact else RANK_TOL
            for J in itertools.combinations(range(k), r - l - 1):
                null = _solve([Cp[i] for i in J] + section, [0] * (r - 1), r, exact)[1]
                if len(null) != 1:
                    continue
                t = np.array(null[0], dtype=dt)
                rays_t += [c for c in (t, -t) if all(v <= tol for v in Cp @ c)]
        rays_t = [t for t in rays_t if _nonzero(t)]
        if exact:  # rays scaled so their first nonzero t-entry is +-1
            points = _dedup([_frac_vec(N @ t + D * z0, det * D) for t, D in verts_t], True)
            rays = _dedup([_frac_vec(N @ t, det * abs(next(v for v in t if v)))
                           for t in rays_t], True)
        else:
            points = [_affine(z0, N, t) for t in _dedup([t for t, _ in verts_t], False)]
            rays = [N @ t for t in _dedup([_normalize_ray(t) for t in rays_t], False)]
        points, rays = tuple(sorted(points, key=_sort_key)), tuple(sorted(rays, key=_sort_key))
        for v in points + rays:
            v.setflags(write=False)
        return VForm(points, rays, l)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "C": _num_list(self.C),
            "d": _num_list(self.d),
            "C_eq": _num_list(self.C_eq),
            "d_eq": _num_list(self.d_eq),
            "open_rows": sorted(self.open_rows),
        }

    def __repr__(self):
        return (
            f"Polyhedron(dim={self.dim}, ineqs={self.C.shape[0]}, "
            f"eqs={self.C_eq.shape[0]}, open={len(self.open_rows)})"
        )


def _stack(A, B):
    if A.shape[0] == 0:
        return B
    if B.shape[0] == 0:
        return A
    if A.dtype == object or B.dtype == object:
        return np.vstack([A.astype(object), B.astype(object)])
    return np.vstack([A, B])


def _cat(a, b):
    if a.shape[0] == 0:
        return b
    if b.shape[0] == 0:
        return a
    if a.dtype == object or b.dtype == object:
        return np.concatenate([a.astype(object), b.astype(object)])
    return np.concatenate([a, b])


def _block_diag(A, B, da, db):
    rows_a, rows_b = A.shape[0], B.shape[0]
    if rows_a + rows_b == 0:
        return np.zeros((0, da + db))
    exact = A.dtype == object or B.dtype == object
    zero = Fraction(0) if exact else 0.0
    out = np.full((rows_a + rows_b, da + db), zero, dtype=object if exact else float)
    if rows_a:
        out[:rows_a, :da] = A
    if rows_b:
        out[rows_a:, da:] = B
    return out


def _dot(row, vec):
    return sum(a * b for a, b in zip(row, vec))


def _affine(z0, N, t):
    v = N @ t
    return np.array([z0[i] + v[i] for i in range(len(z0))], dtype=float)


def _frac_vec(v, den):
    """The integer vector v / den as Fractions."""
    return np.array([Fraction(a, den) for a in v], dtype=object)


def _dedup(points, exact):
    out = []
    for pt in points:
        dup = False
        for q in out:
            if exact:
                if all(a == b for a, b in zip(pt, q)):
                    dup = True
                    break
            else:
                if np.max(np.abs(_as_float(pt) - _as_float(q)), initial=0.0) <= DEDUP_TOL:
                    dup = True
                    break
        if not dup:
            out.append(pt)
    return out


def _nonzero(t):
    return any(v != 0 for v in t)


def _comb(k, s):
    return math.comb(k, s) if s >= 0 else 0


def _null_space(rows, ncols, exact):
    """Basis of { t : rows t = 0 } in R^ncols (all of it when no rows)."""
    if rows:
        return _gauss(_rows_of(rows, exact), [0] * len(rows), exact)[1]
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    return [[one if i == j else zero for i in range(ncols)] for j in range(ncols)]


def _solve(rows, rhs, ncols, exact):
    """``_gauss_int`` of [rows | rhs] on exact (integer) rows; ``_gauss``
    with det 1.0 on float rows."""
    if exact:
        return _gauss_int([list(a) + [b] for a, b in zip(rows, rhs)], ncols)
    if not rows:
        return [0.0] * ncols, _null_space([], ncols, False), 1.0
    z, basis = _gauss(_rows_of(rows, False), rhs, False)
    return None if z is None else (z, basis, 1.0)


def _normalize_ray(t):
    # scale only; the sign is meaningful (one-sided directions stay one-sided)
    arr = _as_float(t)
    return arr / np.linalg.norm(arr)


def _sort_key(v):
    return tuple(float(x) for x in v)


def _num_list(arr):
    if arr.ndim == 1:
        return [_num(v) for v in arr]
    return [[_num(v) for v in row] for row in arr]


def _num(v):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else v.numerator
    f = float(v)
    return int(f) if f.is_integer() and abs(f) < 1e15 else f


def _lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None, options=None):
    return linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds if bounds is not None else [(None, None)] * len(c),
        method="highs",
        options=options,
    )


def _check_status(res, query: str, decided=DECIDED_LP_STATUSES) -> None:
    """Raise unless the LP ended in a status of ``decided``: by default
    optimal, infeasible or unbounded, the statuses that answer a query."""
    if res.status not in decided:
        raise LpStatusError(f"{query} LP ended undecided: status {res.status} ({res.message})")


# ---------------------------------------------------------------------------
# PolySet: finite unions of affine images
# ---------------------------------------------------------------------------


@dataclass
class Piece:
    poly: Polyhedron
    A: np.ndarray
    b: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        self.A = np.asarray(self.A) if self.A is not None else np.zeros((0, 0))
        if self.A.dtype != object:
            self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b)
        if self.b.dtype != object:
            self.b = np.asarray(self.b, dtype=float)
        if self.A.ndim != 2 or self.A.shape[1] != self.poly.dim:
            raise DimensionError(
                f"map shape {self.A.shape} does not match source dim {self.poly.dim}"
            )
        if self.b.shape != (self.A.shape[0],):
            raise DimensionError("offset length does not match map rows")

    @property
    def target_dim(self) -> int:
        return self.A.shape[0]

    def map_point(self, z):
        if self.poly.dim == 0:
            return np.array(self.b, dtype=self.b.dtype)
        return self.A @ z + self.b

    def to_json(self) -> dict:
        return {
            "source": self.poly.to_json(),
            "A": _num_list(self.A),
            "b": _num_list(self.b),
            "provenance": self.provenance,
        }


@dataclass
class MemberVerdict:
    status: str  # "inside" | "boundary" | "outside"
    piece: str | None
    distance: float

    def __bool__(self):
        return self.status != "outside"


@dataclass
class PolySet:
    """Finite union of affine images of polyhedra in a common target space."""

    target_dim: int
    pieces: list[Piece] = field(default_factory=list)

    def __post_init__(self):
        for pc in self.pieces:
            if pc.target_dim != self.target_dim:
                raise DimensionError("piece target dim mismatch")

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, dim: int) -> "PolySet":
        return cls(dim, [])

    @classmethod
    def from_point(cls, vec, provenance: str = "point") -> "PolySet":
        vec = np.asarray(vec)
        if vec.dtype != object:
            vec = np.asarray(vec, dtype=float)
        dim = vec.shape[0]
        piece = Piece(Polyhedron.whole(0), np.zeros((dim, 0)), vec, provenance)
        return cls(dim, [piece])

    @classmethod
    def from_points(cls, points, provenance: str = "points") -> "PolySet":
        points = list(points)
        if not points:
            return cls.empty(0)
        dim = len(points[0])
        out = cls(dim, [])
        for i, pt in enumerate(points):
            out.pieces.append(
                Piece(Polyhedron.whole(0), np.zeros((dim, 0)), np.asarray(pt, float),
                      f"{provenance}[{i}]")
            )
        return out

    @classmethod
    def from_hull(cls, points, provenance: str = "hull") -> "PolySet":
        """Convex hull of finitely many points as a single piece: the
        simplex of weights mapped through the generator matrix."""
        pts = [np.asarray(p, dtype=float) for p in points]
        if not pts:
            return cls.empty(0)
        k = len(pts)
        dim = pts[0].shape[0]
        simplex = Polyhedron(
            k,
            C=-np.eye(k),
            d=np.zeros(k),
            C_eq=np.ones((1, k)),
            d_eq=np.ones(1),
        )
        A = np.column_stack(pts) if dim else np.zeros((0, k))
        return cls(dim, [Piece(simplex, A, np.zeros(dim), provenance)])

    # -- algebra ---------------------------------------------------------------

    def union(self, other: "PolySet") -> "PolySet":
        if other.target_dim != self.target_dim:
            raise DimensionError("union of sets in different spaces")
        return PolySet(self.target_dim, list(self.pieces) + list(other.pieces))

    def scale(self, t: float) -> "PolySet":
        """Positive scaling t * S."""
        if not t > 0:
            raise ValueError("scale factor must be positive")
        out = []
        for pc in self.pieces:
            tt = Fraction(t) if pc.A.dtype == object else float(t)
            out.append(Piece(pc.poly, pc.A * tt, pc.b * tt, pc.provenance))
        return PolySet(self.target_dim, out)

    def map(self, M, c=None) -> "PolySet":
        M = np.asarray(M, dtype=float)
        c = np.zeros(M.shape[0]) if c is None else np.asarray(c, dtype=float)
        out = [
            Piece(pc.poly, M @ _as_float(pc.A), M @ _as_float(pc.b) + c, pc.provenance)
            for pc in self.pieces
        ]
        return PolySet(M.shape[0], out)

    def minkowski(self, other: "PolySet") -> "PolySet":
        if other.target_dim != self.target_dim:
            raise DimensionError("sum of sets in different spaces")
        out = []
        for pa in self.pieces:
            for pb in other.pieces:
                poly = pa.poly.product(pb.poly)
                A = _hcat(pa.A, pb.A)
                b = _add_vec(pa.b, pb.b)
                out.append(Piece(poly, A, b, f"{pa.provenance}+{pb.provenance}"))
        return PolySet(self.target_dim, out)

    def sorted_pieces(self) -> "PolySet":
        return PolySet(self.target_dim, sorted(self.pieces, key=lambda p: p.provenance))

    # -- queries -----------------------------------------------------------------

    def member(self, point, tol: float = 1e-9) -> MemberVerdict:
        """Membership with an exactness verdict.

        Finds, per piece, min_t { t : z in source, |A z + b - point| <= t }.
        A point within tol of the closure refines against the open rows:
        interior of every open row -> "inside", touching one -> "boundary".
        The reported distance is the best infinity-norm value, a valid
        lower bound for the Euclidean distance to the set.
        """
        point = np.asarray(point, dtype=float)
        if point.shape != (self.target_dim,):
            raise DimensionError("query point has wrong dimension")
        outside_piece, outside_dist = None, float("inf")
        boundary_piece = None
        for pc in self.pieces:
            t_star = _piece_distance(pc, point, tol)
            if t_star is None:
                continue
            if t_star > tol:
                if t_star < outside_dist:
                    outside_piece, outside_dist = pc.provenance, t_star
                continue
            status = _refine_open(pc, point, tol)
            if status == "inside":
                return MemberVerdict("inside", pc.provenance, 0.0)
            if boundary_piece is None:
                boundary_piece = pc.provenance
        if boundary_piece is not None:
            return MemberVerdict("boundary", boundary_piece, 0.0)
        return MemberVerdict("outside", outside_piece, outside_dist)

    def coord_range(self, i: int):
        """Range of coordinate i over the set union: (lo, hi), infinite
        when unbounded, (inf, -inf) when the set is empty.  Exact on
        rational pieces up to the final rounding to float."""
        lo, hi = float("inf"), float("-inf")
        for pc in self.pieces:
            plo, phi = _piece_range(pc, i)
            lo, hi = min(lo, plo), max(hi, phi)
        return lo, hi

    def is_empty(self) -> bool:
        return all(pc.poly.is_empty() for pc in self.pieces)

    def is_zero_singleton(self, tol: float = 1e-9) -> bool:
        """True when the set is nonempty and equals {0} within tol.

        Uses exact affine-hull reasoning when a piece carries rational
        data and its map kills the hull directions; otherwise checks the
        piece's coordinate ranges.
        """
        nonempty = False
        for pc in self.pieces:
            if pc.poly.is_empty():
                continue
            nonempty = True
            val = _piece_constant_value(pc)
            if val is not None:
                if any(abs(float(v)) > tol for v in val):
                    return False
                continue
            for i in range(self.target_dim):
                lo, hi = PolySet(self.target_dim, [pc]).coord_range(i)
                if not (-tol <= lo and hi <= tol):
                    return False
        return nonempty

    def sample_points(self, count: int, rng) -> list:
        """Draw points from the union: convex combinations of each piece's
        vertices, plus pushes along recession directions."""
        out = []
        per = max(1, count // max(1, len(self.pieces)))
        for pc in self.pieces:
            vf = pc.poly.vertices()
            base = [_as_float(v) for v in vf.vertices]
            if vf.anchor is not None:
                base.append(_as_float(vf.anchor))
            if not base:
                continue
            rays = [_as_float(r) for r in vf.rays]
            for _ in range(per):
                w = rng.random(len(base))
                w = w / w.sum()
                z = sum(wi * vi for wi, vi in zip(w, base))
                if rays and rng.random() < 0.5:
                    z = z + rng.random() * 2.0 * rays[rng.integers(len(rays))]
                out.append(_as_float(pc.map_point(z)))
            if len(out) >= count:
                break
        return out[:count]

    def to_json(self) -> dict:
        return {
            "target_dim": self.target_dim,
            "pieces": [pc.to_json() for pc in self.sorted_pieces().pieces],
        }


def _hcat(A, B):
    if A.shape[1] == 0:
        return B if B.shape[1] else np.zeros((A.shape[0], 0))
    if B.shape[1] == 0:
        return A
    return np.hstack([_as_float(A), _as_float(B)])


def _add_vec(a, b):
    return _as_float(a) + _as_float(b)


def _piece_range(pc: Piece, i: int):
    """(lo, hi) of coordinate i over one piece, (inf, -inf) when empty:
    extremes over the decomposition's points, opened to infinity on the
    side a ray points to."""
    src = pc.poly
    row, off = pc.A[i], pc.b[i]
    if not any(v != 0 for v in row):
        return (float("inf"), float("-inf")) if src.is_empty() else (float(off), float(off))
    if not src.enumerable():
        return _lp_range(pc, i)
    dec = src.vertices()
    if not dec.points:
        return float("inf"), float("-inf")
    if src.rational and pc.A.dtype == object and pc.b.dtype == object:
        vals = [_dot(row, v) for v in dec.points]
        lo, hi = float(min(vals) + off), float(max(vals) + off)
        slopes = [(_dot(row, r), 0) for r in dec.rays]
    else:
        row, off = _as_float(row), float(off)
        vals = [float(row @ _as_float(v)) for v in dec.points]
        lo, hi = min(vals) + off, max(vals) + off
        scale = float(np.max(np.abs(row)))
        slopes = [(float(row @ rf), RANK_TOL * max(1.0, scale * float(np.max(np.abs(rf)))))
                  for rf in map(_as_float, dec.rays)]
    for slope, tol in slopes:
        if slope < -tol:
            lo = float("-inf")
        elif slope > tol:
            hi = float("inf")
    return lo, hi


def _lp_range(pc: Piece, i: int):
    """``_piece_range`` by two LPs, for pieces too large to enumerate.

    "Infeasible" on a piece that has a feasible point is a contradiction
    (HiGHS presolve reports it for some unbounded LPs): the LP is solved
    again without presolve, and a second contradiction raises."""
    row, off = _as_float(pc.A[i]), float(pc.b[i])
    rows = pc.poly._lp_rows()
    lo, hi = float("inf"), float("-inf")
    for sign in (1.0, -1.0):
        res = _lp(sign * row, **rows)
        _check_status(res, "coordinate range")
        if res.status == 2:
            if pc.poly.is_empty():
                return float("inf"), float("-inf")
            res = _lp(sign * row, **rows, options={"presolve": False})
            if res.status == 2:
                raise LpStatusError("coordinate range LP calls a nonempty piece infeasible")
            _check_status(res, "coordinate range")
        if res.status == 3:
            if sign > 0:
                lo = float("-inf")
            else:
                hi = float("inf")
        elif res.status == 0:
            val = (res.fun if sign > 0 else -res.fun) + off
            lo, hi = min(lo, val), max(hi, val)
    return lo, hi


def _piece_distance(pc: Piece, point, tol):
    """min_t { t : z in closure(source), |A z + b - point|_inf <= t }, None
    when empty; at most tol, which is all ``member`` asks, once a
    decomposition point maps within tol of ``point``.  LP otherwise."""
    src = pc.poly
    if src.dim == 0:
        return None if src.is_empty() else _sup_dist(pc.b, point)
    if src.enumerable():
        A, b = _as_float(pc.A), _as_float(pc.b)
        for z in src.vertices().points:
            dist = _sup_dist(A @ _as_float(z) + b, point)
            if dist <= tol:
                return dist
    nz, dimt = src.dim, pc.target_dim
    nvar = nz + 1
    c = np.zeros(nvar)
    c[-1] = 1.0
    A_ub_rows, b_ub = [], []
    if src.C.shape[0]:
        A_ub_rows.append(np.hstack([_as_float(src.C), np.zeros((src.C.shape[0], 1))]))
        b_ub.append(_as_float(src.d))
    Af = _as_float(pc.A)
    bf = _as_float(pc.b)
    ones = np.ones((dimt, 1))
    A_ub_rows.append(np.hstack([Af, -ones]))
    b_ub.append(point - bf)
    A_ub_rows.append(np.hstack([-Af, -ones]))
    b_ub.append(bf - point)
    A_ub = np.vstack(A_ub_rows)
    b_ub = np.concatenate(b_ub)
    A_eq = b_eq = None
    if src.C_eq.shape[0]:
        A_eq = np.hstack([_as_float(src.C_eq), np.zeros((src.C_eq.shape[0], 1))])
        b_eq = _as_float(src.d_eq)
    bounds = [(None, None)] * nz + [(0, None)]
    res = _lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
    _check_status(res, "piece distance")
    return float(res.fun) if res.status == 0 else None


def _sup_dist(v, point) -> float:
    return float(np.max(np.abs(_as_float(v) - point), initial=0.0))


def _refine_open(pc: Piece, point, tol: float):
    """Given the closure touches ``point``, decide inside vs boundary with
    respect to the open rows: maximize the worst open-row margin subject
    to mapping onto the point (within tol)."""
    src = pc.poly
    if not src.open_rows:
        return "inside"
    nz = src.dim
    nvar = nz + 1  # z, mu
    c = np.zeros(nvar)
    c[-1] = -1.0  # maximize mu
    rows, rhs = [], []
    Cf = _as_float(src.C)
    df = _as_float(src.d)
    for i in range(src.C.shape[0]):
        row = np.zeros(nvar)
        row[:nz] = Cf[i]
        if i in src.open_rows:
            row[-1] = 1.0
        rows.append(row)
        rhs.append(df[i])
    Af = _as_float(pc.A)
    bf = _as_float(pc.b)
    for i in range(pc.target_dim):
        row = np.zeros(nvar)
        row[:nz] = Af[i]
        rows.append(row.copy())
        rhs.append(point[i] - bf[i] + tol)
        row[:nz] = -Af[i]
        rows.append(row)
        rhs.append(bf[i] - point[i] + tol)
    A_eq = b_eq = None
    if src.C_eq.shape[0]:
        A_eq = np.hstack([_as_float(src.C_eq), np.zeros((src.C_eq.shape[0], 1))])
        b_eq = _as_float(src.d_eq)
    bounds = [(None, None)] * nz + [(None, 1.0)]
    res = _lp(c, A_ub=np.vstack(rows), b_ub=np.array(rhs), A_eq=A_eq, b_eq=b_eq, bounds=bounds)
    _check_status(res, "open-row margin")
    if res.status != 0:
        return "boundary"
    mu = -res.fun
    return "inside" if mu > tol else "boundary"


def _piece_constant_value(pc: Piece):
    """Exact image value when the piece's map is constant on the affine
    hull of its equality rows, read off the cached reduction
    z = (z0 + N t) / det: the map is constant when A N = 0, with value
    A z0 / det + b.  None when that cannot be certified."""
    src = pc.poly
    if src.dim == 0:
        return list(pc.b)
    red = src._reduced()
    if red is None:
        return None
    if src.rational:
        if any(v != 0 for v in (pc.A @ red.N).flat):
            return None
        return list(pc.A @ _frac_vec(red.z0, red.det) + pc.b)
    A = _as_float(pc.A)
    if np.max(np.abs(A @ red.N), initial=0.0) > RANK_TOL:
        return None
    return list(A @ np.array(red.z0, dtype=float) + pc.b)


# ---------------------------------------------------------------------------
# Convex hulls of point clouds with membership certificates
# ---------------------------------------------------------------------------


@dataclass
class HullCertificate:
    """Convex-combination witness: point = sum_i weights[i] * generators[support[i]],
    with at most dim+1 supports."""

    point: np.ndarray
    support: list[int]
    weights: list[float]

    def reconstruct(self, generators) -> np.ndarray:
        return sum(w * np.asarray(generators[i], float) for i, w in zip(self.support, self.weights))


class ConvexHullSet:
    """Convex hull of finitely many generators with LP membership and
    Caratheodory-reduced certificates."""

    def __init__(self, generators):
        self.generators = [np.asarray(g, dtype=float) for g in generators]
        if not self.generators:
            raise ValueError("need at least one generator")
        self.dim = self.generators[0].shape[0]

    def member(self, point, tol: float = 1e-9) -> bool:
        return _in_hull(np.asarray(point, float), self.generators, tol)

    def certificate(self, point, tol: float = 1e-9) -> HullCertificate | None:
        """Weights over at most dim+1 generators reconstructing ``point``."""
        point = np.asarray(point, dtype=float)
        w = _hull_weights(point, self.generators, tol)
        if w is None:
            return None
        support = [i for i, wi in enumerate(w) if wi > 1e-12]
        weights = [w[i] for i in support]
        support, weights = _caratheodory_reduce(point, self.generators, support, weights)
        return HullCertificate(point=point, support=support, weights=weights)


def convex_hull(points) -> ConvexHullSet:
    return ConvexHullSet(points)


def _in_hull(point, generators, tol) -> bool:
    return _hull_weights(point, generators, tol) is not None


def _hull_weights(point, generators, tol):
    k = len(generators)
    dim = len(point)
    G = np.column_stack([np.asarray(g, float) for g in generators]) if dim else np.zeros((0, k))
    A_eq = np.vstack([G, np.ones((1, k))])
    b_eq = np.concatenate([point, [1.0]])
    res = _lp(np.zeros(k), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * k)
    _check_status(res, "hull weights")
    if res.status != 0:
        return None
    w = np.clip(res.x, 0.0, None)
    recon = G @ w if dim else np.zeros(0)
    if np.max(np.abs(recon - point), initial=0.0) > max(tol, 1e-8):
        return None
    return list(w / max(w.sum(), 1e-300))


def _caratheodory_reduce(point, generators, support, weights):
    """Prune a convex combination to at most dim+1 supports by walking
    along null directions of the lifted generator matrix."""
    dim = len(point)
    support = list(support)
    weights = [float(w) for w in weights]
    while len(support) > dim + 1:
        G = np.vstack([
            np.column_stack([generators[i] for i in support]) if dim else np.zeros((0, len(support))),
            np.ones((1, len(support))),
        ])
        _, null = _gauss([list(r) for r in G], [0.0] * G.shape[0], False)
        if not null:
            break  # pragma: no cover - rank bound guarantees a null vector
        nu = np.array(null[0], dtype=float)
        if np.all(nu <= 1e-15):
            nu = -nu
        steps = [
            (weights[j] / nu[j], j) for j in range(len(support)) if nu[j] > 1e-15
        ]
        t, drop = min(steps)
        weights = [w - t * nv for w, nv in zip(weights, nu)]
        del support[drop], weights[drop]
        # renormalize tiny drift
        total = sum(weights)
        weights = [max(w, 0.0) / total for w in weights]
    order = np.argsort(support)
    return [support[i] for i in order], [weights[i] for i in order]


# Convenience wrappers matching the public operation names.


def vertices(P: Polyhedron) -> VForm:
    return P.vertices()


def member(point, S: PolySet, tol: float = 1e-9) -> MemberVerdict:
    return S.member(point, tol)


def scale(S: PolySet, t: float) -> PolySet:
    return S.scale(t)
