"""Property tests: the MFCQ verdict and the exact LP solve on random small
instances agree with plain ``scipy.optimize.linprog`` LPs written out
here.  MFCQ is checked through Gordan's alternative (it fails iff some
u >= 0, u != 0 has G^T u = 0), so duplicated and opposite active rows are
drawn on purpose.  Examples are derandomized, so the run is fixed."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from valfun import kernel, setcalc
from valfun.errors import InfeasibleParameterError, UnboundedProblemError
from valfun.kernel import check_mfcq, solve_value
from valfun.model import parse_problem

SETTINGS = settings(max_examples=120, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _affine(coeffs, const=0):
    """An expression string sum_j coeffs[j] * y_{j+1} + const."""
    terms = [f"({a})*y{j + 1}" for j, a in enumerate(coeffs)]
    return " + ".join(terms + [f"({const})"])


def _problem(A, b=None, c=None):
    """Inner problem min c.y s.t. A y <= b (y in R^m, one idle parameter)."""
    m = len(A[0])
    b = b if b is not None else [0] * len(A)
    c = c if c is not None else [0] * m
    return parse_problem({"n": 1, "m": m, "f": _affine(c),
                          "g": [_affine(row, -bi) for row, bi in zip(A, b)]})


@st.composite
def jacobians(draw):
    """Active Jacobian rows (k <= 5, m <= 4), now and then with one row
    repeated or negated, and a cost vector c of the objective c.y, so
    that the multiplier set { u >= 0 : G^T u = -c } is empty as often as
    not."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(k)]
    extra = draw(st.sampled_from(["none", "duplicate", "opposite"]))
    if extra != "none":
        row = rows[draw(st.integers(0, k - 1))]
        rows.append(list(row) if extra == "duplicate" else [-v for v in row])
    return rows, [draw(st.integers(-3, 3)) for _ in range(m)]


def _gordan_fails(G):
    """MFCQ fails iff { u >= 0 : G^T u = 0, sum u = 1 } is nonempty."""
    G = np.array(G, dtype=float)
    k = G.shape[0]
    res = linprog(np.zeros(k), A_eq=np.vstack([G.T, np.ones((1, k))]),
                  b_eq=np.r_[np.zeros(G.shape[1]), 1.0], bounds=[(0, None)] * k,
                  method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


@SETTINGS
@given(jacobians())
def test_mfcq_agrees_with_gordan(data):
    rows, c = data
    m = len(rows[0])
    rep = check_mfcq(_problem(rows, c=c), [0.0], np.zeros(m))
    assert rep.active == tuple(range(len(rows)))
    assert rep.holds == (not _gordan_fails(rows))


def test_small_mfcq_needs_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(kernel, "linprog", no_lp)
    assert check_mfcq(_problem([[1, 0], [1, 0], [0, 1]]), [0.0], [0.0, 0.0]).holds
    assert not check_mfcq(_problem([[1, 2], [-1, -2]]), [0.0], [0.0, 0.0]).holds


@pytest.mark.parametrize("rows, c, empty, holds", [
    # five active rows at m = 3, past the enumeration budget of an LP query
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]], [0, 0, 0], False, True),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [-1, -1, -1]], [0, 0, 0], False, False),
    # costs that no u >= 0 balances: an empty multiplier set
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]], [1, 1, 1], True, True),
    ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [1, 1, 0], [0, -1, 0]], [0, 0, 1], True, False),
])
def test_mfcq_is_decided_without_any_lp(monkeypatch, rows, c, empty, holds):
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", 0)
    monkeypatch.setattr(kernel, "linprog", no_lp)
    monkeypatch.setattr(setcalc, "linprog", no_lp)
    prob, y = _problem(rows, c=c), [0.0, 0.0, 0.0]
    assert kernel.multipliers(prob, [0.0], y).empty == empty
    assert check_mfcq(prob, [0.0], y).holds == holds


@st.composite
def exact_lps(draw):
    """LPs min c.y s.t. A y <= b with m <= 3, rational data: optimal,
    unbounded and infeasible ones.  On half the draws A has rank 1, so the
    feasible set has a lineality space once m > 1."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 5))
    den = draw(st.sampled_from([1, 2, 3]))

    def q():
        return Fraction(draw(st.integers(-3, 3)), den)

    if draw(st.booleans()):
        a = [q() for _ in range(m)]
        A = [[s * v for v in a] for s in (draw(st.integers(-2, 2)) for _ in range(k))]
    else:
        A = [[q() for _ in range(m)] for _ in range(k)]
    b = [Fraction(draw(st.integers(-2, 4)), den) for _ in range(k)]
    return A, b, [q() for _ in range(m)]


def _oracle(A, b, c):
    """(status, value) of the LP in scipy's codes: 2 infeasible, 3
    unbounded, 0 optimal.  Unboundedness of a feasible LP is decided by
    its dual { u >= 0 : A^T u = -c } being empty: HiGHS's presolve may call
    an unbounded LP infeasible, while feasibility LPs end in 0 or 2."""
    fl = lambda M: np.array(M, dtype=float)
    k, m = len(A), len(c)

    def status(res):
        assert res.status in (0, 2), res.message
        return res.status

    free = [(None, None)] * m
    if status(linprog(np.zeros(m), A_ub=fl(A), b_ub=fl(b), bounds=free, method="highs")):
        return 2, None
    if status(linprog(np.zeros(k), A_eq=fl(A).T, b_eq=-fl(c), bounds=[(0, None)] * k,
                      method="highs")):
        return 3, None
    res = linprog(fl(c), A_ub=fl(A), b_ub=fl(b), bounds=free, method="highs")
    assert res.status == 0, res.message
    return 0, res.fun


@SETTINGS
@given(exact_lps())
def test_rational_solve_agrees_with_lp(case):
    A, b, c = case
    status, value = _oracle(A, b, c)
    prob = _problem(A, b, c)
    if status == 2:
        with pytest.raises(InfeasibleParameterError):
            solve_value(prob, [Fraction(0)], rational=True)
    elif status == 3:
        with pytest.raises(UnboundedProblemError):
            solve_value(prob, [Fraction(0)], rational=True)
    else:
        res = solve_value(prob, [Fraction(0)], rational=True)
        assert res.certificate == "lp-exact"
        assert float(res.value_exact) == pytest.approx(value, abs=1e-9)
        for y in res.minimizers_exact:
            assert all(sum(a * v for a, v in zip(row, y)) <= bi for row, bi in zip(A, b))
            assert sum(ci * v for ci, v in zip(c, y)) == res.value_exact
        if np.linalg.matrix_rank(np.array(A, dtype=float)) < len(c):
            # a lineality direction, along which a bounded value stays
            assert res.non_singleton and res.under_enumerated
