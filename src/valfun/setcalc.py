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
fraction-free elimination.  Their working form is the integer rows, each
row scaled once per polyhedron to integers: a slice or product inherits
its parent's and scales only its new rows, builders that hold them hand
them in, and the equality hull, the reduced rows and every candidate of
the enumeration stay Python int lists.  A set whose rows admit the origin
is nonempty without further work; otherwise emptiness, like coordinate
ranges and membership, is read off one cached vertex/ray decomposition per
polyhedron, exact on rational data too.  The equality rows are
eliminated once per polyhedron, and the decomposition is built on that
cached hull; a coordinate range reads off the hull alone whether a piece
not yet decomposed maps to a constant, and skips the piece when that
constant lies inside the range already found.  Membership reads one end
of a coordinate range over a float piece lifted by one variable: the
distance to a piece is the low end of its lifted sup-norm gap, and the
margin of its open rows the high end of their lifted slack.  Pieces too
large to enumerate (``MAX_VFORM_SUBSETS``), lifted ones included, go to
one pivoting routine on the same reduced rows (``_bland``, the simplex
method with Bland's rule): phase 1 decides emptiness and each end of a
range asked for is one phase 2, in integers on rational data and at
RANK_TOL on floats.  Convex-hull questions read one weight polytope
(``weight_polytope``): a certificate its phase-1 basic point, the hull
coderivative its vertices.  No query imports scipy.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, LpStatusError

RANK_TOL = 1e-9
DEDUP_TOL = 1e-6
#: Largest active-set subset count C(k, r-l) + C(k, r-l-1) (k rows, r
#: free variables, lineality l) up to which set queries read the cached
#: decomposition instead of pivoting (``_bland``); ten covers the battery's
#: largest pieces (k=4, r=2).  At ten subsets (2-core machine, medians) the
#: first range costs 0.2-0.45 ms by either route, each further one 0.03-0.06
#: ms off the cached decomposition but 0.21-0.33 ms by pivoting.  ``kernel``
#: decomposes its multiplier sets whatever their size and reads MFCQ off them.
MAX_VFORM_SUBSETS = 10


# Unused: bench/tracer.py binds this name (kernel imports it too).
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
        for best in range(r, nrows):
            if rows[best][c]:
                break
        else:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        pr = rows[r]
        piv = pr[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i == r:
                continue
            if f:
                rows[i] = [(piv * a - f * b) // prev for a, b in zip(row, pr)]
            elif piv != prev:
                rows[i] = [piv * a // prev for a in row]
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


class _Hull(NamedTuple):
    """The equality rows eliminated: their solutions are z = (z0 + N t) / det
    for t in R^r.  On floats N is a dim x r array and det is 1.0.  On
    rational data the parts are as ``_gauss_int`` returns them: z0 is an int
    list, N the list of the r columns of N (int lists of length dim) and
    det an int > 0."""

    z0: list
    N: list | np.ndarray
    det: int | float


class _Reduced(NamedTuple):
    """The inequality rows on the cached ``_Hull``: z = (z0 + N t) / det
    with t in { t : Cp t <= dp }; ``lin`` is a basis of { t : Cp t = 0 }.
    On rational data z0 and N are the hull's int lists, Cp and dp are int
    lists (rows of [Cp | dp] scaled), and ``lin`` and every vertex and ray
    system of ``_decompose`` stay int lists; Fractions are built only for
    the points and rays kept.  The hull alone answers whether a map is
    constant on the set (``_piece_constant``), so a coordinate range that
    skips a piece never builds this."""

    z0: list
    N: list | np.ndarray
    Cp: list | np.ndarray
    dp: list | np.ndarray
    lin: list
    det: int | float

    @property
    def r(self) -> int:
        """The number of coordinates t of the hull."""
        return len(self.N) if isinstance(self.N, list) else self.N.shape[1]


_UNSET = object()


class Polyhedron:
    """H-form polyhedron { z : C z <= d, C_eq z = d_eq }.

    ``open_rows`` flags inequality rows meant strictly; the stored set is
    the closure.  Construct via the classmethods or by stacking rows on
    an existing instance.  The row arrays are private read-only copies, so
    the cached decomposition and feasible point never go stale.

    On rational data every exact query works on the integer rows, each row
    of [C | d] and of [C_eq | d_eq] times the lcm of its denominators
    (``_int_row``).  They are scaled once per polyhedron, on first use, or
    not at all: a slice (``with_eqs``), a product or a closure inherits its
    parent's and scales only its new rows, and builders that hold them
    already hand them in (``_holding``).
    """

    def __init__(self, dim, C=None, d=None, C_eq=None, d_eq=None, open_rows=()):
        self.dim = int(dim)
        C, C_eq = self._mat(C, self.dim), self._mat(C_eq, self.dim)
        self._adopt(C, self._vec(d, C.shape[0]), C_eq, self._vec(d_eq, C_eq.shape[0]),
                    frozenset(int(i) for i in open_rows))
        for i in self.open_rows:
            if not 0 <= i < self.C.shape[0]:
                raise DimensionError(f"open row index {i} out of range")

    def _adopt(self, C, d, C_eq, d_eq, open_rows, rows=None, eq_rows=None):
        """Take rows shaped as ``__init__`` shapes them, read-only from now
        on, with their integer rows when known (None: scaled on first use)."""
        self.C, self.d, self.C_eq, self.d_eq = C, d, C_eq, d_eq
        for arr in (C, d, C_eq, d_eq):
            arr.setflags(write=False)
        self.open_rows = open_rows
        self._ints, self._eq_ints = rows, eq_rows
        self._hull = _UNSET
        self._reduction = _UNSET
        self._decomp = None
        self._point = _UNSET

    @classmethod
    def _shaped(cls, dim, C, d, C_eq, d_eq, open_rows, rows, eq_rows) -> "Polyhedron":
        """A polyhedron of rows already shaped as ``__init__`` shapes them
        (those of a slice, product or closure, or of a branch family), taken
        without reshaping or copying."""
        poly = cls.__new__(cls)
        poly.dim = dim
        poly._adopt(C, d, C_eq, d_eq, open_rows, rows, eq_rows)
        return poly

    @classmethod
    def _holding(cls, rows, eq_rows, *args, **kwargs) -> "Polyhedron":
        """``Polyhedron(*args, **kwargs)`` on rational data whose integer rows
        the caller holds already: ``rows`` for [C | d] and ``eq_rows`` for
        [C_eq | d_eq], each equal to ``_int_row`` of the row (None: scaled on
        first use)."""
        poly = cls(*args, **kwargs)
        poly._ints, poly._eq_ints = rows, eq_rows
        return poly

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

    def _int_rows(self) -> list:
        """The integer rows of [C | d] (rational data): scaled once, or
        inherited."""
        if self._ints is None:
            self._ints = [_int_row([*a, b]) for a, b in zip(self.C, self.d)]
        return self._ints

    def _int_eq_rows(self) -> list:
        """The integer rows of [C_eq | d_eq] (rational data): scaled once,
        or inherited."""
        if self._eq_ints is None:
            self._eq_ints = [_int_row([*a, b]) for a, b in zip(self.C_eq, self.d_eq)]
        return self._eq_ints

    def with_eqs(self, E2, f2) -> "Polyhedron":
        return self._with_block(_eq_block(self.dim, E2, f2))

    def _with_block(self, block) -> "Polyhedron":
        """``with_eqs`` of the rows of an ``_eq_block``.  A rational slice of
        a rational polyhedron inherits our integer rows, followed by the
        block's (scaled here when the block is float)."""
        E2, f2, new = block
        rows = eq_rows = None
        if self.rational:
            if new is None:
                new = [_int_row([*a, b]) for a, b in zip(E2, f2)]
            rows, eq_rows = self._int_rows(), self._int_eq_rows() + new
        return Polyhedron._shaped(self.dim, self.C, self.d, _stack(self.C_eq, E2),
                                  _stack(self.d_eq, f2), self.open_rows, rows, eq_rows)

    def product(self, other: "Polyhedron") -> "Polyhedron":
        """Cartesian product, variables of ``other`` appended after ours.
        The product of two rational polyhedra inherits both their integer
        rows, padded with zeros."""
        da, db = self.dim, other.dim
        C = _block_diag(self.C, other.C, da, db)
        C_eq = _block_diag(self.C_eq, other.C_eq, da, db)
        opens = frozenset(self.open_rows | {self.C.shape[0] + i for i in other.open_rows})
        rows = eq_rows = None
        if self.rational and other.rational:
            rows = _pad_rows(self._int_rows(), other._int_rows(), da, db)
            eq_rows = _pad_rows(self._int_eq_rows(), other._int_eq_rows(), da, db)
        return Polyhedron._shaped(da + db, C, _stack(self.d, other.d), C_eq,
                                  _stack(self.d_eq, other.d_eq), opens, rows, eq_rows)

    def closure(self) -> "Polyhedron":
        return Polyhedron._shaped(self.dim, self.C, self.d, self.C_eq, self.d_eq, frozenset(),
                                  self._ints, self._eq_ints)

    # -- point queries --------------------------------------------------------

    def contains_point(self, z, tol: float = RANK_TOL) -> bool:
        """Whether z lies in the closure, every row within ``tol``."""
        z = np.asarray(z, dtype=object if self.rational else float)
        if self.C.shape[0]:
            vals = self.C @ z
            for i in range(self.C.shape[0]):
                if not self.d[i] - vals[i] >= -tol:
                    return False
        if self.C_eq.shape[0]:
            vals = self.C_eq @ z
            for i in range(self.C_eq.shape[0]):
                if abs(vals[i] - self.d_eq[i]) > tol:
                    return False
        return True

    def feasible_point(self):
        """A basic feasible point of the closure (phase 1 of ``_bland``),
        Fractions on rational data, or None when it is empty.  Memoized;
        kept as a name because the benchmark's tracer counts it."""
        if self._point is _UNSET:
            self._point = _bland(self, np.zeros(self.dim))
        return self._point

    def is_empty(self) -> bool:
        """Whether the closure is empty.  When every d >= 0 and d_eq == 0
        the origin is a witness (a cone, such as a coderivative branch at a
        zero covector), decided without reduction or enumeration; otherwise
        the cached decomposition answers, or phase 1 past MAX_VFORM_SUBSETS."""
        if all(v >= 0 for v in self.d) and not any(self.d_eq):
            return False
        if self.enumerable():
            return self.vertices().empty
        return self.feasible_point() is None

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

    def _eq_hull(self) -> _Hull | None:
        """The equality rows eliminated, once; None when they are
        inconsistent.  Cached."""
        if self._hull is _UNSET:
            self._hull = self._eliminate_eqs()
        return self._hull

    def _eliminate_eqs(self):
        if self.rational:
            sol = _gauss_int(list(self._int_eq_rows()), self.dim)  # a new outer list: rows stay
            return None if sol is None else _Hull(*sol)
        z0, basis = solve_linear(
            self.C_eq if self.C_eq.shape[0] else np.zeros((0, self.dim)),
            self.d_eq if self.d_eq.shape[0] else [],
            False,
        )
        if z0 is None:
            return None
        return _Hull(z0, np.array(basis, dtype=float).T.reshape(self.dim, len(basis)), 1.0)

    def _reduced(self) -> _Reduced | None:
        """The inequality rows on the equality hull; None when the equality
        rows are inconsistent.  Cached."""
        if self._reduction is _UNSET:
            self._reduction = self._reduce()
        return self._reduction

    def _reduce(self):
        if self.rational:
            return self._reduce_int()
        hull = self._eq_hull()
        if hull is None:
            return None
        z0, N, _ = hull
        r, k = N.shape[1], self.C.shape[0]
        Cm = _as_float(self.C)
        Cp = Cm @ N if k else np.zeros((0, r))
        dp = np.array([self.d[i] - _dot(Cm[i], z0) for i in range(k)], dtype=float)
        lin = _null_space(_rows_of(Cp, False), r, False)
        return _Reduced(z0, N, Cp, dp, lin, 1.0)

    def _reduce_int(self):
        """``_reduce`` on rational data, in integers."""
        hull = self._eq_hull()
        if hull is None:
            return None
        z0, N, det = hull
        # row [c | d] of [C | d] stands for (C N) t <= d det - c . z0, times det
        rows = self._int_rows()
        Cp = [[_dot(row, w) for w in N] for row in rows]
        dp = [row[-1] * det - _dot(row, z0) for row in rows]
        lin = _gauss_int([row + [0] for row in Cp], len(N))[1]
        return _Reduced(z0, N, Cp, dp, lin, det)

    def enumerable(self) -> bool:
        """Whether the decomposition fits MAX_VFORM_SUBSETS."""
        red = self._reduced()
        if red is None:
            return True
        k, s = len(red.Cp), red.r - len(red.lin)
        return _comb(k, s) + _comb(k, s - 1) <= MAX_VFORM_SUBSETS

    def _decompose(self) -> VForm:
        """Active-set enumeration on the reduced rows, in integers on rational
        data: the candidates are int lists tested by int dot products, and
        Fractions are built only for the points and rays kept."""
        exact = self.rational
        red = self._reduced()
        if red is None:
            return VForm((), ())
        z0, N, Cp, dp, lin, det = red
        k, r, l = len(Cp), red.r, len(lin)
        if r == 0:  # the integer slacks dp of z0 / det (det > 0) decide exact data
            z = _frac_vec(z0, det) if exact else np.array(z0, dtype=float)
            z.setflags(write=False)
            inside = all(v >= 0 for v in dp) if exact else self.contains_point(z, RANK_TOL)
            return VForm((z,) if inside else (), ())
        # the section L^T t = 0 of the reduced set is pointed
        section = [list(v) for v in lin]
        scale = 1 if exact else max(1.0, float(np.max(np.abs(_as_float(dp)))) if k else 1.0)
        slack = 0 if exact else RANK_TOL * scale
        vec = (lambda t: t) if exact else (lambda t: np.array(t, dtype=float))
        verts_t = []  # (t, D): the vertex is t / D in the reduced coordinates
        for J in itertools.combinations(range(k), r - l):
            sol = _solve([Cp[i] for i in J] + section, [dp[i] for i in J] + [0] * l, r, exact)
            if sol is None or sol[1]:
                continue  # singular or rank-deficient
            t, _, D = sol
            t = vec(t)
            vals = _matvec(Cp, t)
            if all(vals[i] <= dp[i] * D + slack for i in range(k)):
                verts_t.append((t, D))
        rays_t = [vec([sign * x for x in v]) for v in lin for sign in (1, -1)]
        if r - l >= 1:
            tol = 0 if exact else RANK_TOL
            for J in itertools.combinations(range(k), r - l - 1):
                null = _solve([Cp[i] for i in J] + section, [0] * (r - 1), r, exact)[1]
                if len(null) != 1:
                    continue
                t = vec(null[0])
                rays_t += [c for c in (t, vec([-x for x in t]))
                           if all(v <= tol for v in _matvec(Cp, c))]
        rays_t = [t for t in rays_t if _nonzero(t)]
        if exact:  # rays scaled so their first nonzero t-entry is +-1
            points = _distinct_fracs([([D * a + b for a, b in zip(z0, _combine(N, t))], det * D)
                                      for t, D in verts_t])
            rays = _distinct_fracs([(_combine(N, t), det * abs(next(v for v in t if v)))
                                    for t in rays_t])
        else:
            points = _sorted([_affine(z0, N, t) for t in _dedup([t for t, _ in verts_t])])
            rays = _sorted([N @ t for t in _dedup([_normalize_ray(t) for t in rays_t])])
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
    """The rows of A, then those of B (vectors: the entries), as object
    arrays when either is one."""
    if A.shape[0] == 0:
        return B
    if B.shape[0] == 0:
        return A
    if A.dtype != B.dtype:
        A, B = A.astype(object), B.astype(object)
    return np.concatenate([A, B])


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


def _eq_block(dim, E, f):
    """Equality rows [E | f] shaped as ``with_eqs`` takes them, read-only:
    (E, f, their integer rows on rational data, else None).  A caller that
    slices several polyhedra by the same rows builds this once."""
    E = Polyhedron._mat(E, dim)
    f = Polyhedron._vec(f, E.shape[0])
    E.setflags(write=False)
    f.setflags(write=False)
    exact = E.dtype == object or f.dtype == object
    return E, f, [_int_row([*a, b]) for a, b in zip(E, f)] if exact else None


def _pad_rows(rows_a, rows_b, da, db):
    """Integer rows [a | b] of A (da columns) and of B (db columns) laid out
    as the rows of ``_block_diag(A, B)``."""
    za, zb = [0] * da, [0] * db
    return [row[:da] + zb + row[da:] for row in rows_a] + [za + row for row in rows_b]


def _dot(row, vec):
    return sum(map(operator.mul, row, vec))


def _matvec(M, t):
    """M t for M a float array, or a list of int rows (rational data)."""
    return M @ t if isinstance(M, np.ndarray) else [_dot(row, t) for row in M]


def _combine(N, t):
    """N t for N given as the list of its int columns (rational data)."""
    return [_dot(t, row) for row in zip(*N)]


def _sparse(row):
    """The nonzero entries (j, a) of a map row: the rows of a coderivative
    map are mostly unit rows."""
    return [(j, a) for j, a in enumerate(row) if a]


def _sparse_dot(entries, vec):
    return sum(a * vec[j] for j, a in entries)


def _affine(z0, N, t):
    v = N @ t
    return np.array([z0[i] + v[i] for i in range(len(z0))], dtype=float)


def _frac_vec(v, den):
    """The integer vector v / den as Fractions."""
    return np.array([Fraction(a, den) for a in v], dtype=object)


def _distinct_fracs(pairs):
    """The distinct vectors v / den of the integer pairs (v, den > 0) as
    Fraction arrays, in the order of ``_sorted`` (a / den is the float of
    the entry v_i / den, first occurrences first among equal keys).  Equal
    vectors are found in lowest terms (v and den divided by their common
    gcd), so Fractions are built for the distinct ones only."""
    out = {}
    for v, den in pairs:
        g = math.gcd(den, *v)
        out.setdefault((den // g, *(a // g for a in v)), (v, den))
    kept = sorted(out.values(), key=lambda pair: tuple(a / pair[1] for a in pair[0]))
    return tuple(_frac_vec(v, den) for v, den in kept)


def _dedup(points):
    """The float points, dropping any within DEDUP_TOL of one kept before."""
    out = []
    for pt in points:
        if not any(np.max(np.abs(_as_float(pt) - _as_float(q)), initial=0.0) <= DEDUP_TOL
                   for q in out):
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


def _sorted(vectors) -> tuple:
    """The float vectors in the lexicographic order of their entries."""
    return tuple(sorted(vectors, key=lambda v: tuple(float(x) for x in v)))


def _num_list(arr):
    if arr.ndim == 1:
        return [_num(v) for v in arr]
    return [[_num(v) for v in row] for row in arr]


def _num(v):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else v.numerator
    f = float(v)
    return int(f) if f.is_integer() and abs(f) < 1e15 else f


def _bland(poly, row):
    """The simplex method with Bland's rule (1977) on the reduced rows
    Cp t <= dp of ``poly``: the basic point where row . z is least after
    phases 1 and 2 (row 0: phase 1 only), None when the closure is empty
    or row . z is unbounded below.  With slacks s = dp - Cp t >= 0, row i
    of T reads ``basic[i]`` = (T[i][-1] - sum_q T[i][q] nonbasic[q]) / D;
    labels below r are the free t, which enter first and never leave, and
    the last row is the objective c . t, c = row N.  Rational data pivot
    in ints, each division by the old D exact (fraction-free, as in Avis's
    lrs); float rows are scaled to sup-norm 1 and compared at RANK_TOL, and
    a point off the rows at the decomposition's tolerance raises
    LpStatusError.  Phase 1 minimizes Chvatal's x0, relaxing each slack."""
    red = poly._reduced()
    if red is None:
        return None
    exact, r, k, x0 = poly.rational, red.r, len(red.dp), red.r + len(red.dp)
    Cp, dp = red.Cp, red.dp
    if not exact:  # rows at sup-norm 1, so that one tolerance serves them all
        n = np.max(np.abs(Cp), axis=1, initial=0.0)
        n = np.where(n > RANK_TOL, n, 1.0)  # a row of rounding noise stays constant
        Cp, dp = (Cp / n[:, None]).tolist(), (dp / n).tolist()
    c = [_dot(row, w) for w in red.N] if exact else _as_float(row) @ red.N
    c = _int_row(c) if exact else (c / max(1.0, np.max(np.abs(c), initial=0.0))).tolist()
    T = [list(a) + [b] for a, b in zip(Cp, dp)] + [[-v for v in c] + [0]]
    basic, nonbasic, D = list(range(r, x0)) + [-1], list(range(r)), 1
    ctol = 0 if exact else RANK_TOL  # for the objective, c at sup-norm <= 1
    tol = ctol * max(1.0, max(map(abs, dp), default=0.0))  # for rows, scaled by |dp| as in _decompose
    div, ratio = (operator.floordiv, Fraction) if exact else (operator.truediv,) * 2

    def pivot(p, q):  # exchange basic[p] and nonbasic[q], keeping D > 0
        nonlocal D
        rp, piv = T[p], T[p][q]
        s = 1 if piv > 0 else -1
        for i, old in enumerate(T):
            if i != p:
                T[i] = [s * div(a * piv - old[q] * b, D) for a, b in zip(old, rp)]
                T[i][q] = -s * old[q]
        T[p] = [s * a for a in rp]
        T[p][q] = s * D
        basic[p], nonbasic[q], D = nonbasic[q], basic[p], abs(piv)

    def minimize(obj):  # False when a column enters that no row bounds
        while True:
            eps = tol * D
            enter = [(lab, q) for q, lab in enumerate(nonbasic)
                     if r <= lab < x0 and T[obj][q] > ctol * D]
            if not enter:
                return True
            q = min(enter)[1]
            rows = [i for i, lab in enumerate(basic) if lab >= r and T[i][q] > eps]
            if not rows:
                return False
            rhs = lambda i: T[i][-1] if T[i][-1] > eps else 0  # degenerate rows tie
            p = min(rows, key=lambda i: (ratio(rhs(i), T[i][q]), basic[i]))
            if basic[obj] == x0 and T[obj][-1] * T[p][q] - T[obj][q] * rhs(p) <= eps * T[p][q]:
                p = obj
            pivot(p, q)
            if nonbasic[q] == x0:
                return True

    for q in range(r):
        rows = [i for i in range(k) if basic[i] >= r and abs(T[i][q]) > tol * D]
        if rows:
            pivot(max(rows, key=lambda i: abs(T[i][q])), q)
        elif abs(T[k][q]) > ctol * D:  # a lineality direction along which c . t moves
            return None
    p = min((i for i in range(k) if basic[i] >= r), key=lambda i: T[i][-1], default=None)
    if p is not None and T[p][-1] < -tol * D:
        T[:] = [old[:-1] + [-D if lab >= r else 0, old[-1]] for lab, old in zip(basic, T)]
        nonbasic.append(x0)
        pivot(p, r)
        minimize(p)
        if basic[p] == x0:
            return None
    if not minimize(k):
        return None
    t = [next((old[-1] for lab, old in zip(basic, T) if lab == j), 0) for j in range(r)]
    if exact:
        Nt = _combine(red.N, t) if r else [0] * len(red.z0)
        z = _frac_vec([D * a + b for a, b in zip(red.z0, Nt)], red.det * D)
    else:
        z = _affine(red.z0, red.N, np.array(t, dtype=float) / D)
        if not poly.contains_point(z, RANK_TOL * max(1.0, np.max(np.abs(red.dp), initial=0.0))):
            raise LpStatusError("a float basic point of the pivoting routine misses its rows")
    z.setflags(write=False)
    return z


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
        G = np.column_stack(pts)
        return cls(G.shape[0], [Piece(_simplex(len(pts)), G, np.zeros(G.shape[0]), provenance)])

    # -- algebra ---------------------------------------------------------------

    def union(self, other: "PolySet") -> "PolySet":
        if other.target_dim != self.target_dim:
            raise DimensionError("union of sets in different spaces")
        return PolySet(self.target_dim, list(self.pieces) + list(other.pieces))

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
        Both are coordinate ranges over lifted pieces (``_lifted``).
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
        rational pieces up to the final rounding to float.

        Only pieces that can still widen the range are ranged: a piece not
        yet decomposed whose image in coordinate i is a constant (read off
        the equality hull by ``_piece_constant``) inside the range found so
        far is skipped, and the scan stops once the range is (-inf, inf)."""
        lo, hi = float("inf"), float("-inf")
        for pc in self.pieces:
            if lo == -math.inf and hi == math.inf:
                break
            if pc.poly._decomp is None:  # a cached decomposition is cheaper to read
                val = _piece_constant(pc, i)
                if val is not None and lo <= val <= hi:
                    continue
            plo, phi = _piece_range(pc, i)
            lo, hi = min(lo, plo), max(hi, phi)
        return lo, hi

    def is_empty(self) -> bool:
        return all(pc.poly.is_empty() for pc in self.pieces)

    def is_zero_singleton(self, tol: float = 1e-9) -> bool:
        """True when the set is nonempty and equals {0} within tol.

        A coordinate that ``_piece_constant`` reads as constant on a
        nonempty piece is checked by its value, exactly on rational data;
        any other by its range over the piece.
        """
        nonempty = False
        for pc in self.pieces:
            if pc.poly.is_empty():
                continue
            nonempty = True
            for i in range(self.target_dim):
                val = _piece_constant(pc, i)
                if val is None:
                    lo, hi = PolySet(self.target_dim, [pc]).coord_range(i)
                else:
                    lo = hi = val
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


def _piece_range(pc: Piece, i: int, ends=(1, -1)):
    """(lo, hi) of coordinate i over one piece, (inf, -inf) when empty:
    extremes over the decomposition's points, opened to infinity on the
    side a ray points to.  Past MAX_VFORM_SUBSETS each end asked for in
    ``ends`` (1: lo, -1: hi) is one phase 2 (``_bland``), and an end not
    asked for keeps its empty value."""
    src = pc.poly
    row, off = pc.A[i], pc.b[i]
    entries = _sparse(row)
    if not entries:
        return (float("inf"), float("-inf")) if src.is_empty() else (float(off), float(off))
    if not src.enumerable():
        if src.feasible_point() is None:
            return float("inf"), float("-inf")
        end = lambda s, z: -s * math.inf if z is None else float(row @ z + off)
        return tuple(end(s, _bland(src, s * row)) if s in ends else s * math.inf for s in (1, -1))
    dec = src.vertices()
    if not dec.points:
        return float("inf"), float("-inf")
    if src.rational and pc.A.dtype == object and pc.b.dtype == object:
        vals = [_sparse_dot(entries, v) for v in dec.points]
        lo, hi = float(min(vals) + off), float(max(vals) + off)
        slopes = [(_sparse_dot(entries, r), 0) for r in dec.rays]
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


def _piece_distance(pc: Piece, point, tol):
    """min_t { t : z in closure(source), |A z + b - point|_inf <= t }, None
    when empty; at most tol, which is all ``member`` asks, once a
    decomposition point maps within tol of ``point``.  Otherwise the low
    end of t over the lifted piece (``_lifted``)."""
    src = pc.poly
    if src.dim == 0:
        return None if src.is_empty() else _sup_dist(pc.b, point)
    if src.enumerable():
        A, b = _as_float(pc.A), _as_float(pc.b)
        for z in src.vertices().points:
            dist = _sup_dist(A @ _as_float(z) + b, point)
            if dist <= tol:
                return dist
    lo = _piece_range(_lifted(pc, point), 0, (1,))[0]
    return None if lo == math.inf else lo


def _sup_dist(v, point) -> float:
    return float(np.max(np.abs(_as_float(v) - point), initial=0.0))


def _refine_open(pc: Piece, point, tol: float):
    """Given the closure touches ``point``, decide inside vs boundary with
    respect to the open rows: the high end of the worst open-row margin
    over the lifted piece (``_lifted``), "boundary" when that is empty."""
    if not pc.poly.open_rows:
        return "inside"
    return "inside" if _piece_range(_lifted(pc, point, tol), 0, (-1,))[1] > tol else "boundary"


def _lifted(pc: Piece, point, tol=None) -> Piece:
    """The source of ``pc`` lifted by one variable s and mapped to s, in
    float rows.  With no tol, the distance set
    { (z, s) : z in closure(source), |A z + b - point|_inf <= s, s >= 0 };
    with tol, the open-row margin set { (z, s) : C_i z + s <= d_i on the
    open rows, C_j z <= d_j on the others, C_eq z = d_eq,
    |A z + b - point|_inf <= tol, s <= 1 }."""
    src = pc.poly
    k, t = src.C.shape[0], pc.target_dim
    A, gap = _as_float(pc.A), point - _as_float(pc.b)
    if tol is None:  # s bounds the map rows and s >= 0
        col, slack = np.zeros(k), np.zeros(t)
        map_s, last, bound = -np.ones(t), -1.0, 0.0
    else:  # s is the margin of the open rows and s <= 1
        col, slack = np.array([float(i in src.open_rows) for i in range(k)]), np.full(t, tol)
        map_s, last, bound = np.zeros(t), 1.0, 1.0
    C = np.vstack([np.column_stack([_as_float(src.C), col]), np.column_stack([A, map_s]),
                   np.column_stack([-A, map_s]), np.eye(1, src.dim + 1, src.dim) * last])
    d = np.concatenate([_as_float(src.d), gap + slack, slack - gap, [bound]])
    C_eq = np.column_stack([_as_float(src.C_eq), np.zeros(src.C_eq.shape[0])])
    lifted = Polyhedron(src.dim + 1, C, d, C_eq, _as_float(src.d_eq))
    return Piece(lifted, np.eye(1, src.dim + 1, src.dim), np.zeros(1), pc.provenance)


def _piece_constant(pc: Piece, i: int):
    """The value of coordinate i on the piece when its map is constant on
    the affine hull of the equality rows, read off the cached
    z = (z0 + N t) / det: constant when A[i] N = 0 (exactly on rational
    data, over the nonzero entries of A[i] only; within RANK_TOL on
    floats), with value A[i] z0 / det + b[i].  None when that cannot be
    certified or the equality rows are inconsistent.  Whether the piece is
    empty is not decided here."""
    src = pc.poly
    hull = src._eq_hull()
    if hull is None:
        return None
    if src.rational:
        entries = _sparse(pc.A[i])
        if any(_sparse_dot(entries, w) for w in hull.N):
            return None
        return sum(a * Fraction(hull.z0[j], hull.det) for j, a in entries) + pc.b[i]
    row = _as_float(pc.A[i])
    if np.max(np.abs(row @ hull.N), initial=0.0) > RANK_TOL:
        return None
    return float(row @ np.array(hull.z0, dtype=float)) + pc.b[i]


# ---------------------------------------------------------------------------
# Convex hulls of point clouds with membership certificates
# ---------------------------------------------------------------------------


def _simplex(k) -> Polyhedron:
    """The weights w >= 0 with sum(w) = 1 in R^k."""
    return Polyhedron(k, C=-np.eye(k), d=np.zeros(k), C_eq=np.ones((1, k)), d_eq=np.ones(1))


def weight_polytope(generators, point) -> Polyhedron:
    """W(G, q) = { w >= 0 : sum(w) = 1, G w = q }, G holding the generators
    as columns: the simplex of ``PolySet.from_hull`` sliced by G w = q.
    Its vertices are basic solutions, each with at most dim+1 positive
    weights (Caratheodory), so they are those of every support's face."""
    return _simplex(len(generators)).with_eqs(np.column_stack(generators), point)


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
    """Convex hull of finitely many generators; membership and certificates
    read one basic point of the weight polytope of the point."""

    def __init__(self, generators):
        self.generators = [np.asarray(g, dtype=float) for g in generators]
        if not self.generators:
            raise ValueError("need at least one generator")
        self.dim = self.generators[0].shape[0]

    def member(self, point, tol: float = 1e-9) -> bool:
        return self.certificate(point, tol) is not None

    def certificate(self, point, tol: float = 1e-9) -> HullCertificate | None:
        """The support and weights of the phase-1 basic point of the weight
        polytope (``feasible_point``), nothing decomposed: W is bounded, so
        that point is a vertex, with at most dim+1 positive weights.  None
        when W is empty or the point reconstructs ``point`` worse than
        max(tol, 1e-8)."""
        point = np.asarray(point, dtype=float)
        w = weight_polytope(self.generators, point).feasible_point()
        if w is None:
            return None
        support = [i for i, wi in enumerate(w) if wi > 1e-12]
        cert = HullCertificate(point, support, [float(w[i]) for i in support])
        error = np.max(np.abs(cert.reconstruct(self.generators) - point), initial=0.0)
        return cert if error <= max(tol, 1e-8) else None
