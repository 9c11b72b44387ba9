"""Property tests: the MFCQ verdict and the exact LP solve on random small
instances agree with plain ``scipy.optimize.linprog`` LPs written out
here.  MFCQ is checked through Gordan's alternative (it fails iff some
u >= 0, u != 0 has G^T u = 0), so duplicated and opposite active rows are
drawn on purpose.  Examples are derandomized, so the run is fixed."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from valfun import kernel, setcalc
from valfun.errors import InfeasibleParameterError, LpStatusError, UnboundedProblemError
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
    repeated or negated."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(k)]
    extra = draw(st.sampled_from(["none", "duplicate", "opposite"]))
    if extra != "none":
        row = rows[draw(st.integers(0, k - 1))]
        rows.append(list(row) if extra == "duplicate" else [-v for v in row])
    return rows


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
def test_mfcq_agrees_with_gordan(rows):
    m = len(rows[0])
    rep = check_mfcq(_problem(rows), [0.0], np.zeros(m))
    assert rep.active == tuple(range(len(rows)))
    assert rep.holds == (not _gordan_fails(rows))
    if rep.holds:
        w = np.asarray(rep.witness, dtype=float)
        assert np.all(np.array(rows, dtype=float) @ w < 0)
        assert np.max(np.abs(w)) <= 1.0 + 1e-12
    else:
        assert rep.witness is None


def test_small_mfcq_needs_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(kernel, "linprog", no_lp)
    assert check_mfcq(_problem([[1, 0], [1, 0], [0, 1]]), [0.0], [0.0, 0.0]).holds
    assert not check_mfcq(_problem([[1, 2], [-1, -2]]), [0.0], [0.0, 0.0]).holds


def test_undecided_mfcq_lp_raises(monkeypatch):
    # the MFCQ LP is feasible (d = 0, t = 0) and bounded: a status other
    # than optimal decides nothing and must not read as "MFCQ fails"
    def iteration_limit(*args, **kwargs):
        return SimpleNamespace(status=4, message="numerical difficulties", fun=None, x=None)

    monkeypatch.setattr(setcalc, "MAX_VFORM_SUBSETS", 0)
    monkeypatch.setattr(kernel, "linprog", iteration_limit)
    with pytest.raises(LpStatusError, match="MFCQ LP ended undecided: status 4"):
        check_mfcq(_problem([[1, 0], [0, 1]]), [0.0], [0.0, 0.0])


@st.composite
def exact_lps(draw):
    """Pointed LPs min c.y s.t. A y <= b with m <= 3, rational data:
    optimal, unbounded and infeasible ones."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(m, 5))
    den = draw(st.sampled_from([1, 2, 3]))

    def q():
        return Fraction(draw(st.integers(-3, 3)), den)

    A = [[q() for _ in range(m)] for _ in range(k)]
    if np.linalg.matrix_rank(np.array(A, dtype=float)) < m:
        A[:m] = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
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
