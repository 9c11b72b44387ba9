"""Problem model: expression trees, parsing, derivatives, KKT bookkeeping.

A parametric program is

    minimize_y  f(x, y)   subject to  g_i(x, y) <= 0,  i = 1..p,

with parameter x in R^n and decision y in R^m.  Expressions are small
polynomial-style trees over the variables x1..xn, y1..ym; they are
parsed from strings and differentiated exactly.  Each table (f, g, their
derivatives) is compiled once per problem and arithmetic mode into one
Python function ``fn(x, y) -> [e1, ..., ek]``; these functions and the
structure probes are cached on the problem, which never changes.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionError,
    EvaluationError,
    KktValidationError,
    ParseError,
    ProblemFormatError,
)

# Default tolerances.  tol_act decides active vs. inactive constraints and
# zero vs. positive multipliers; tol_kkt validates supplied KKT triples.
DEFAULT_TOL_ACT = 1e-7
DEFAULT_TOL_KKT = 1e-8

# Desk-scale guards.  Nothing breaks above these, but the polyhedral
# enumeration cost grows combinatorially, so we warn.
MAX_DIM = 8
MAX_CONSTRAINTS = 20


class ScaleWarning(UserWarning):
    """Problem dimensions exceed the intended desk scale."""


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


class Expr:
    """Immutable expression node."""

    __slots__ = ()

    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Expr({self})"

    # Subclasses implement diff/variables/_emit/__str__.


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Expr nodes are immutable")

    def key(self):
        return ("const", self.value)

    def diff(self, kind, index):
        return _ZERO

    def variables(self):
        return frozenset()

    def _emit(self, exact):
        v = self.value
        if v.denominator == 1:
            return f"({v.numerator})" if v.numerator < 0 else str(v.numerator)
        if exact:
            return f"F({v.numerator},{v.denominator})"
        return repr(float(v))

    def __str__(self):
        v = self.value
        if v.denominator == 1:
            return str(v.numerator)
        return f"({v.numerator}/{v.denominator})"


class Var(Expr):
    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int):
        assert kind in ("x", "y")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Expr nodes are immutable")

    def key(self):
        return ("var", self.kind, self.index)

    def diff(self, kind, index):
        return _ONE if (kind, index) == (self.kind, self.index) else _ZERO

    def variables(self):
        return frozenset([(self.kind, self.index)])

    def _emit(self, exact):
        return f"{self.kind}[{self.index}]"

    def __str__(self):
        return f"{self.kind}{self.index + 1}"


class _BinOp(Expr):
    __slots__ = ("a", "b")
    op = "?"

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Expr nodes are immutable")

    def key(self):
        return (self.op, self.a.key(), self.b.key())

    def variables(self):
        return self.a.variables() | self.b.variables()


class Add(_BinOp):
    __slots__ = ()
    op = "+"

    def diff(self, kind, index):
        return add(self.a.diff(kind, index), self.b.diff(kind, index))

    def _emit(self, exact):
        return f"({self.a._emit(exact)} + {self.b._emit(exact)})"

    def __str__(self):
        rhs = str(self.b)
        if _prints_negative(self.b):
            rhs = f"({rhs})"
        return f"{self.a} + {rhs}"


class Sub(_BinOp):
    __slots__ = ()
    op = "-"

    def diff(self, kind, index):
        return sub(self.a.diff(kind, index), self.b.diff(kind, index))

    def _emit(self, exact):
        return f"({self.a._emit(exact)} - {self.b._emit(exact)})"

    def __str__(self):
        rhs = str(self.b)
        if isinstance(self.b, (Add, Sub)) or _prints_negative(self.b):
            rhs = f"({rhs})"
        return f"{self.a} - {rhs}"


class Mul(_BinOp):
    __slots__ = ()
    op = "*"

    def diff(self, kind, index):
        da = self.a.diff(kind, index)
        db = self.b.diff(kind, index)
        return add(mul(da, self.b), mul(self.a, db))

    def _emit(self, exact):
        return f"({self.a._emit(exact)} * {self.b._emit(exact)})"

    def __str__(self):
        return f"{_paren_factor(self.a)} * {_paren_factor(self.b)}"


class Div(_BinOp):
    __slots__ = ()
    op = "/"

    def diff(self, kind, index):
        da = self.a.diff(kind, index)
        db = self.b.diff(kind, index)
        num = sub(mul(da, self.b), mul(self.a, db))
        return div(num, pow_(self.b, 2))

    def _emit(self, exact):
        return f"({self.a._emit(exact)} / {self.b._emit(exact)})"

    def __str__(self):
        rhs = str(self.b)
        if not isinstance(self.b, (Const, Var)) or _prints_negative(self.b):
            rhs = f"({rhs})"
        return f"{_paren_factor(self.a)} / {rhs}"


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", int(exponent))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Expr nodes are immutable")

    def key(self):
        return ("^", self.base.key(), self.exponent)

    def diff(self, kind, index):
        k = self.exponent
        if k == 0:
            return _ZERO
        db = self.base.diff(kind, index)
        return mul(mul(Const(k), pow_(self.base, k - 1)), db)

    def variables(self):
        return self.base.variables() if self.exponent != 0 else frozenset()

    def _emit(self, exact):
        return f"({self.base._emit(exact)} ** {self.exponent})"

    def __str__(self):
        base = str(self.base)
        if not isinstance(self.base, (Const, Var)) or (
            isinstance(self.base, Const) and self.base.value < 0
        ):
            base = f"({base})"
        return f"{base}^{self.exponent}"


def _prints_negative(e: Expr) -> bool:
    return isinstance(e, Const) and e.value < 0


def _paren_factor(e: Expr) -> str:
    if isinstance(e, (Add, Sub)) or _prints_negative(e):
        return f"({e})"
    return str(e)


_ZERO = Const(0)
_ONE = Const(1)


def _is_const(e: Expr, v=None) -> bool:
    if not isinstance(e, Const):
        return False
    return True if v is None else e.value == v


# Smart constructors with constant folding.  They keep derivative trees
# small without attempting real simplification.


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        raise EvaluationError("division by the constant zero")
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    if _is_const(a, 0):
        return _ZERO
    if _is_const(b, 1):
        return a
    return Div(a, b)


def pow_(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if exponent >= 0:
            return Const(base.value**exponent)
        if base.value == 0:
            raise EvaluationError("zero raised to a negative power")
        return Const(base.value**exponent)
    return Pow(base, exponent)


def compile_block(exprs: Sequence[Expr], exact: bool = False) -> Callable:
    """Compile expressions to one ``fn(x, y) -> [e1, ..., ek]``.

    With ``exact=True`` rational constants are emitted as Fractions so the
    entries are exact on Fraction inputs; otherwise constants become floats.
    """
    body = ", ".join(e._emit(exact) for e in exprs)
    ns = {"F": Fraction}
    exec(compile(f"def _fn(x, y):\n    return [{body}]\n", "<expr>", "exec"), ns)
    return ns["_fn"]


def _values(v) -> list:
    """v as a list of Python numbers: numpy floats would turn a division by
    zero or an overflow into inf instead of raising."""
    return v.tolist() if isinstance(v, np.ndarray) else list(v)


def _entry(fn, e, x, y):
    """The value of the one-entry block ``fn`` of ``e``, or the
    EvaluationError naming ``e`` and how it failed."""
    try:
        return fn(x, y)[0]
    except ZeroDivisionError as exc:
        raise EvaluationError(f"division by zero while evaluating {e}") from exc
    except OverflowError as exc:
        raise EvaluationError(f"overflow while evaluating {e}") from exc


def _wants_exact(x, y) -> bool:
    # a float (np.float64 included) is never a Fraction: skip the ABC check
    return any(not isinstance(v, float) and isinstance(v, Fraction) for v in (*x, *y))


def _flat(table) -> list:
    return [e for t in table for e in _flat(t)] if isinstance(table, list) else [table]


def per_problem(fn):
    """Cache ``fn(problem)`` on the problem, which never changes."""

    @functools.wraps(fn)
    def cached(problem):
        return problem._memo(fn, lambda: fn(problem))

    return cached


def degree_in(e: Expr, kind: str):
    """Total polynomial degree of ``e`` in the variables whose kind is one
    of the letters of ``kind``: "x", "y", or "xy" for the joint degree.

    Returns None when ``e`` is not polynomial in those variables (some
    denominator depends on them).
    """
    if isinstance(e, Const):
        return 0
    if isinstance(e, Var):
        return 1 if e.kind in kind else 0
    if isinstance(e, (Add, Sub)):
        da, db = degree_in(e.a, kind), degree_in(e.b, kind)
        if da is None or db is None:
            return None
        return max(da, db)
    if isinstance(e, Mul):
        da, db = degree_in(e.a, kind), degree_in(e.b, kind)
        if da is None or db is None:
            return None
        return da + db
    if isinstance(e, Div):
        db = degree_in(e.b, kind)
        if db != 0:
            return None
        return degree_in(e.a, kind)
    if isinstance(e, Pow):
        d = degree_in(e.base, kind)
        if d is None or e.exponent < 0 and d != 0:
            return None
        return d * max(e.exponent, 0)
    raise TypeError(f"unknown node {e!r}")


def depends_on(e: Expr, kind: str) -> bool:
    return any(k == kind for k, _ in e.variables())


def is_affine_in(e: Expr, kind: str) -> bool:
    d = degree_in(e, kind)
    return d is not None and d <= 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            lit = text[i:j]
            if lit == ".":
                raise ParseError("stray '.'", line, col)
            tokens.append(("num", lit, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    """Recursive descent over

        expr   := ('+' | '-')? term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := base ('^' integer)?
        base   := number | ident | '(' expr ')'
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], tok[3])
        return e

    def expr(self) -> Expr:
        tok = self.peek()
        negate = False
        if tok[0] in ("+", "-"):
            self.take()
            negate = tok[0] == "-"
        e = self.term()
        if negate:
            e = sub(_ZERO, e)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.peek()[0] == "^":
            self.take()
            tok = self.peek()
            sign = 1
            if tok[0] == "-":
                self.take()
                sign = -1
                tok = self.peek()
            tok = self.expect("num")
            if "." in tok[1]:
                raise ParseError("exponent must be an integer", tok[2], tok[3])
            e = pow_(e, sign * int(tok[1]))
        return e

    def base(self) -> Expr:
        tok = self.take()
        kind, lit, line, col = tok
        if kind == "num":
            return Const(Fraction(lit))
        if kind == "ident":
            head = lit[0]
            if head not in ("x", "y") or not lit[1:].isdigit():
                raise ParseError(f"unknown identifier {lit!r}", line, col)
            index = int(lit[1:])
            if index < 1:
                raise ParseError("variable indices start at 1", line, col)
            return Var(head, index - 1)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected {lit!r}", line, col)


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------


@dataclass
class NamedPoint:
    """A pinned evaluation point: parameter x, optional minimizers and
    multiplier vector supplied by the modeller."""

    x: np.ndarray
    minimizers: list[np.ndarray] = field(default_factory=list)
    u: np.ndarray | None = None


@dataclass
class ParametricProblem:
    """An inner minimization problem, immutable after construction."""

    n: int
    m: int
    f: Expr
    g: list[Expr]
    y_box: list[tuple[float, float]] | None = None
    points: dict[str, NamedPoint] = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ProblemFormatError("need n >= 1 and m >= 1")
        if self.n > MAX_DIM or self.m > MAX_DIM:
            warnings.warn(
                f"n={self.n}, m={self.m} exceeds the intended scale ({MAX_DIM})",
                ScaleWarning,
                stacklevel=2,
            )
        if len(self.g) > MAX_CONSTRAINTS:
            warnings.warn(
                f"p={len(self.g)} exceeds the intended scale ({MAX_CONSTRAINTS})",
                ScaleWarning,
                stacklevel=2,
            )
        for e in [self.f, *self.g]:
            for kind, idx in e.variables():
                bound = self.n if kind == "x" else self.m
                if idx >= bound:
                    raise ProblemFormatError(
                        f"variable {kind}{idx + 1} out of range for "
                        f"n={self.n}, m={self.m}"
                    )
        if self.y_box is not None:
            if len(self.y_box) != self.m:
                raise ProblemFormatError("y_box must have one (lo, hi) pair per y")
            for lo, hi in self.y_box:
                if not lo < hi:
                    raise ProblemFormatError("y_box intervals must satisfy lo < hi")
        self._cache: dict = {}

    @property
    def p(self) -> int:
        return len(self.g)

    def _memo(self, key, build):
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value

    # -- compiled evaluation ------------------------------------------------

    def eval_expr(self, e: Expr, x, y):
        """One expression at (x, y); tables go through :meth:`eval_block`."""
        x, y = _values(x), _values(y)
        exact = _wants_exact(x, y)
        return _entry(self._memo(("expr", e.key(), exact), lambda: compile_block([e], exact)),
                      e, x, y)

    def eval_block(self, key, x, y) -> list:
        """Every entry of table ``key`` at (x, y), row by row, from one call
        of its compiled block.  ``key`` is a key of :meth:`_dtable`: 'f',
        'g', a derivative table, or (name, i) for row i of a 'g..' table.
        Fraction inputs select exact constants, as in :meth:`eval_expr`."""
        x, y = _values(x), _values(y)
        fn = self._block(key, _wants_exact(x, y))
        try:
            return fn(x, y)
        except (ZeroDivisionError, OverflowError):
            for e in _flat(self._dtable()[key]):  # raise the first failing entry's error
                self.eval_expr(e, x, y)
            raise

    def float_block(self, key, x) -> Callable:
        """:meth:`eval_block` on floats with the parameter x bound: ``fn(y)``
        takes y as a list of floats and raises the same EvaluationError."""
        x, fn = np.atleast_1d(np.asarray(x, float)).tolist(), self._block(key, False)

        def bound(y):
            try:
                return fn(x, y)
            except (ZeroDivisionError, OverflowError):
                return self.eval_block(key, x, y)

        return bound

    def _block(self, key, exact) -> Callable:
        return self._memo(("block", key, exact),
                          lambda: compile_block(_flat(self._dtable()[key]), exact))

    def eval_array(self, key, x, y) -> np.ndarray:
        """Table ``key`` at (x, y) as a float array of the table's shape:
        one axis per constraint for a whole 'g' table, then one per
        derivative letter (n for x, m for y)."""
        return np.array(self.eval_block(key, x, y), float).reshape(
            self._memo(("shape", key), lambda: self._shape(key)))

    def _shape(self, key) -> tuple:
        name = key if isinstance(key, str) else key[0]
        lead = (self.p,) if name[0] == "g" and isinstance(key, str) else ()
        return lead + tuple(self.n if c == "x" else self.m for c in name[1:])

    def eval_f(self, x, y) -> float:
        return self.eval_block("f", x, y)[0]

    def eval_g(self, x, y) -> np.ndarray:
        return self.eval_array("g", x, y)

    def eval_g_exact(self, x, y) -> list:
        return self.eval_block("g", x, y)

    def grad_x_f(self, x, y) -> np.ndarray:
        return self.eval_array("fx", x, y)

    def grad_y_f(self, x, y) -> np.ndarray:
        return self.eval_array("fy", x, y)

    def jac_x_g(self, x, y) -> np.ndarray:
        return self.eval_array("gx", x, y)

    def jac_y_g(self, x, y) -> np.ndarray:
        return self.eval_array("gy", x, y)

    # -- derivative trees (built once, cached) ------------------------------

    @per_problem
    def _dtable(self):
        fx = [self.f.diff("x", j) for j in range(self.n)]
        fy = [self.f.diff("y", k) for k in range(self.m)]
        gx = [[gi.diff("x", j) for j in range(self.n)] for gi in self.g]
        gy = [[gi.diff("y", k) for k in range(self.m)] for gi in self.g]
        tab = {
            "f": self.f,
            "g": list(self.g),
            "fx": fx,
            "fy": fy,
            "gx": gx,
            "gy": gy,
            "fxx": [[e.diff("x", j) for j in range(self.n)] for e in fx],
            "fxy": [[e.diff("y", k) for k in range(self.m)] for e in fx],
            "fyy": [[e.diff("y", k) for k in range(self.m)] for e in fy],
            "gxx": [[[e.diff("x", j) for j in range(self.n)] for e in row] for row in gx],
            "gxy": [[[e.diff("y", k) for k in range(self.m)] for e in row] for row in gx],
            "gyy": [[[e.diff("y", k) for k in range(self.m)] for e in row] for row in gy],
        }
        for name in ("gxx", "gxy", "gyy"):
            tab.update({(name, i): rows for i, rows in enumerate(tab[name])})
        return tab

    # -- structure probes ----------------------------------------------------

    @per_problem
    def constraints_x_free(self) -> bool:
        """True when no constraint mentions any x-variable."""
        return all(not depends_on(gi, "x") for gi in self.g)

    @per_problem
    def affine_in_y(self) -> bool:
        return is_affine_in(self.f, "y") and all(is_affine_in(gi, "y") for gi in self.g)


# ---------------------------------------------------------------------------
# Lagrangian evaluation
# ---------------------------------------------------------------------------


@dataclass
class LagrangianEval:
    """All first- and second-order Lagrangian data at one (x, y, u).

    Conventions: Lxy has shape (n, m) with entries d^2 L / dx_j dy_k, and
    Lyx is its transpose.  Constraint Jacobians gx, gy stack one row per
    constraint.
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    grad_x_L: np.ndarray
    grad_y_L: np.ndarray
    Lxx: np.ndarray
    Lxy: np.ndarray
    Lyx: np.ndarray
    Lyy: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    g_values: np.ndarray


def differentiate(problem: ParametricProblem, x, y, u) -> LagrangianEval:
    """Evaluate the Lagrangian L = f + u^T g and its derivative blocks."""
    x = _as_vector(x, problem.n, "x")
    y = _as_vector(y, problem.m, "y")
    u = _as_vector(u, problem.p, "u", allow_empty=True)
    fx = problem.grad_x_f(x, y)
    fy = problem.grad_y_f(x, y)
    gx = problem.jac_x_g(x, y)
    gy = problem.jac_y_g(x, y)

    Lxx = problem.eval_array("fxx", x, y)
    Lxy = problem.eval_array("fxy", x, y)
    Lyy = problem.eval_array("fyy", x, y)
    for i in range(problem.p):
        if u[i] == 0.0:
            continue
        Lxx += u[i] * problem.eval_array(("gxx", i), x, y)
        Lxy += u[i] * problem.eval_array(("gxy", i), x, y)
        Lyy += u[i] * problem.eval_array(("gyy", i), x, y)

    grad_x_L = fx + (gx.T @ u if problem.p else np.zeros(problem.n))
    grad_y_L = fy + (gy.T @ u if problem.p else np.zeros(problem.m))
    return LagrangianEval(
        x=x,
        y=y,
        u=u,
        grad_x_L=grad_x_L,
        grad_y_L=grad_y_L,
        Lxx=Lxx,
        Lxy=Lxy,
        Lyx=Lxy.T.copy(),
        Lyy=Lyy,
        gx=gx,
        gy=gy,
        g_values=problem.eval_g(x, y),
    )


def _as_vector(v, size, name, allow_empty=False):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (size,):
        if allow_empty and size == 0 and arr.size == 0:
            return np.zeros(0)
        raise DimensionError(f"{name} must have length {size}, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Index classification and KKT points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Index sets at a KKT point: eta (inactive, zero multiplier), theta
    (active, zero multiplier), nu (active, positive multiplier).

    ``ambiguous`` lists indices whose (g_i, u_i) pair straddles the
    activity tolerance; they are conservatively filed under theta.
    """

    eta: tuple[int, ...]
    theta: tuple[int, ...]
    nu: tuple[int, ...]
    ambiguous: tuple[int, ...] = ()


def partition_of(g, u, tol_act: float = DEFAULT_TOL_ACT) -> Partition:
    """The partition of constraint values g and multipliers u; with
    ``tol_act=0`` on exact data every index is decided exactly."""
    eta, theta, nu, amb = [], [], [], []
    for i in range(len(u)):
        active = abs(g[i]) <= tol_act
        inactive = g[i] < -tol_act
        u_zero = abs(u[i]) <= tol_act
        u_pos = u[i] > tol_act
        if u_pos and active:
            nu.append(i)
        elif u_zero and inactive:
            eta.append(i)
        elif u_zero and active:
            theta.append(i)
        else:
            theta.append(i)
            amb.append(i)
    return Partition(tuple(eta), tuple(theta), tuple(nu), tuple(amb))


@dataclass
class KktPoint:
    """A point (x, y, u) with its Lagrangian blocks, index partition and
    KKT residual; built by :func:`kkt_point`."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    partition: Partition
    kkt_residual: float
    lag: LagrangianEval


def kkt_residual(problem: ParametricProblem, x, y, u) -> float:
    """Worst violation of stationarity, feasibility, sign and complementarity."""
    return _residual(differentiate(problem, x, y, u))


def _residual(lag: LagrangianEval) -> float:
    g, u = lag.g_values, lag.u
    pieces = [float(np.max(np.abs(lag.grad_y_L)))]
    if u.size:
        pieces.append(float(max(0.0, np.max(g))))
        pieces.append(float(max(0.0, np.max(-u))))
        pieces.append(float(np.max(np.abs(u * g))))
    return max(pieces)


def kkt_point(
    problem: ParametricProblem, x, y, u, tol_act: float = DEFAULT_TOL_ACT
) -> KktPoint:
    """The point (x, y, u) with its Lagrangian evaluated once; the
    partition and the residual are read off those blocks."""
    lag = differentiate(problem, x, y, u)
    return KktPoint(
        x=lag.x,
        y=lag.y,
        u=lag.u,
        partition=partition_of(lag.g_values, lag.u, tol_act),
        kkt_residual=_residual(lag),
        lag=lag,
    )


def make_kkt(
    problem: ParametricProblem,
    x,
    y,
    u,
    tol_kkt: float = DEFAULT_TOL_KKT,
    tol_act: float = DEFAULT_TOL_ACT,
) -> KktPoint:
    """:func:`kkt_point`, validated against the residual tolerance."""
    kkt = kkt_point(problem, x, y, u, tol_act)
    if kkt.kkt_residual > tol_kkt:
        raise KktValidationError(
            f"KKT residual {kkt.kkt_residual:.3e} exceeds tolerance {tol_kkt:.1e}"
        )
    return kkt


# ---------------------------------------------------------------------------
# Problem file I/O
# ---------------------------------------------------------------------------


def parse_problem(source: str | dict) -> ParametricProblem:
    """Build a problem from a JSON string or an already-decoded dict.

    Required keys: n, m, f (expression string), g (list of expression
    strings).  Optional: y_box (list of [lo, hi]), points (named
    evaluation points), flags (asserted structure such as convexity).
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must contain a JSON object")

    for key in ("n", "m", "f", "g"):
        if key not in data:
            raise ProblemFormatError(f"missing required key {key!r}")
    n, m = data["n"], data["m"]
    if not isinstance(n, int) or not isinstance(m, int):
        raise ProblemFormatError("n and m must be integers")
    try:
        f = parse_expr(data["f"])
    except ParseError as exc:
        raise ProblemFormatError(f"in f: {exc}") from exc
    if not isinstance(data["g"], list):
        raise ProblemFormatError("g must be a list of expression strings")
    g = []
    for i, s in enumerate(data["g"]):
        try:
            g.append(parse_expr(s))
        except ParseError as exc:
            raise ProblemFormatError(f"in g[{i}]: {exc}") from exc

    y_box = None
    if data.get("y_box") is not None:
        y_box = [(float(lo), float(hi)) for lo, hi in data["y_box"]]

    points = {}
    for name, spec in (data.get("points") or {}).items():
        if "x" not in spec:
            raise ProblemFormatError(f"point {name!r} needs an 'x' entry")
        xs = np.asarray(spec["x"], dtype=float)
        mins = [np.asarray(v, dtype=float) for v in spec.get("minimizers", [])]
        uv = None if spec.get("u") is None else np.asarray(spec["u"], dtype=float)
        points[name] = NamedPoint(x=xs, minimizers=mins, u=uv)

    flags = {str(k): bool(v) for k, v in (data.get("flags") or {}).items()}
    prob = ParametricProblem(n=n, m=m, f=f, g=g, y_box=y_box, points=points, flags=flags)
    for name, pt in points.items():
        if pt.x.shape != (n,):
            raise ProblemFormatError(f"point {name!r}: x must have length {n}")
        for v in pt.minimizers:
            if v.shape != (m,):
                raise ProblemFormatError(f"point {name!r}: minimizers must have length {m}")
        if pt.u is not None and pt.u.shape != (len(g),):
            raise ProblemFormatError(f"point {name!r}: u must have length {len(g)}")
    return prob


def load_problem(path) -> ParametricProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_problem(fh.read())
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file: {exc}") from exc


def problem_to_json(problem: ParametricProblem) -> dict:
    """Serialize back to the file format; reparsing yields an equal model."""
    data: dict = {
        "n": problem.n,
        "m": problem.m,
        "f": str(problem.f),
        "g": [str(gi) for gi in problem.g],
    }
    if problem.y_box is not None:
        data["y_box"] = [[lo, hi] for lo, hi in problem.y_box]
    if problem.points:
        pts = {}
        for name in sorted(problem.points):
            pt = problem.points[name]
            spec: dict = {"x": pt.x.tolist()}
            if pt.minimizers:
                spec["minimizers"] = [v.tolist() for v in pt.minimizers]
            if pt.u is not None:
                spec["u"] = pt.u.tolist()
            pts[name] = spec
        data["points"] = pts
    if problem.flags:
        data["flags"] = dict(sorted(problem.flags.items()))
    return data


@per_problem
def _quadratic_shape(problem: ParametricProblem):
    """(f concave in x, f and every g convex in y) for a problem whose
    expressions all have joint total degree <= 2 in (x, y), read off the
    constant Hessian blocks; None when some expression is not such a
    quadratic."""
    if not all(degree_in(e, "xy") in (0, 1, 2) for e in [problem.f, *problem.g]):
        return None
    x0 = [0.0] * problem.n
    y0 = [0.0] * problem.m
    fxx = problem.eval_array("fxx", x0, y0)
    concave_x = bool(np.all(np.linalg.eigvalsh(fxx) <= 1e-12))
    convex_y = True
    for key in ["fyy", *[("gyy", i) for i in range(problem.p)]]:
        mat = problem.eval_array(key, x0, y0)
        if mat.size and not np.all(np.linalg.eigvalsh(mat) >= -1e-12):
            convex_y = False
    return concave_x, convex_y


def _flag_verdict(problem: ParametricProblem, flag: str) -> str:
    if flag in problem.flags:
        return "asserted" if problem.flags[flag] else "failed"
    return "unknown"


def verify_concave_convex(problem: ParametricProblem) -> str:
    """Check the concave-in-x / convex-in-y shape when that is decidable.

    Only quadratics (joint total degree <= 2 in x and y) are checked
    symbolically; everything else falls back to the asserted flag.
    Returns one of 'verified', 'failed', 'asserted', 'unknown'.
    """
    shape = _quadratic_shape(problem)
    if shape is None:
        return _flag_verdict(problem, "concave_convex")
    return "verified" if all(shape) else "failed"


def verify_convex_in_y(problem: ParametricProblem) -> str:
    """Check convexity in y of f and every g when that is decidable.

    Same quadratic-only scope as :func:`verify_concave_convex`, but with
    no condition on the x-blocks: only the y-Hessians must be positive
    semidefinite.  Returns 'verified', 'failed', 'asserted', or
    'unknown'.
    """
    shape = _quadratic_shape(problem)
    if shape is None:
        return _flag_verdict(problem, "convex_in_y")
    return "verified" if shape[1] else "failed"
