"""Expression engine, problem files, derivatives and KKT plumbing."""

from __future__ import annotations

import operator
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valfun.errors import EvaluationError, KktValidationError, ParseError, ProblemFormatError
from valfun.model import (
    Add,
    Const,
    Div,
    Mul,
    Pow,
    Sub,
    Var,
    compile_block,
    differentiate,
    kkt_residual,
    make_kkt,
    parse_expr,
    parse_problem,
    partition_of,
    problem_to_json,
    verify_concave_convex,
    verify_convex_in_y,
)

from conftest import BATTERY, load_instance, instance_raw


def evaluate(e, x, y):
    """e at (x, y) from a block compiled for this call, exact when an
    entry is a Fraction."""
    x, y = list(x), list(y)
    return compile_block([e], exact=any(isinstance(v, Fraction) for v in (*x, *y)))(x, y)[0]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "x1*y1",
        "(y1 - x1)^2",
        "y1^2 + y1^4 - 2*x1*y1",
        "-y1 - 1",
        "0.5*y1^2 - 1/3*x1",
        "x1*y1 + x2*y2",
        "2*x1 - 2*y1",
        "-(y1 - 2)^2/4",
    ],
)
def test_parse_print_round_trip(text):
    e = parse_expr(text)
    again = parse_expr(str(e))
    assert again.key() == e.key()


def test_parse_round_trip_preserves_values(rng):
    texts = ["(y1 - x1)^2 + 0.5*y1*y2", "x1/2 - y2^3", "-x1*(y1 + 2)*(y1 - 2)"]
    for text in texts:
        e = parse_expr(text)
        e2 = parse_expr(str(e))
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            y = rng.uniform(-2, 2, size=2)
            assert evaluate(e, x, y) == pytest.approx(evaluate(e2, x, y), abs=1e-14)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("y1 ++ x1")
    assert exc.value.col is not None
    affected = "y1 ++ x1"[exc.value.col - 1 :]
    assert affected.startswith("+")


def test_parse_error_unknown_name():
    with pytest.raises(ParseError):
        parse_expr("y1 + z3")


def test_parse_rejects_fractional_power():
    with pytest.raises(ParseError):
        parse_expr("y1^0.5")


def test_exact_rational_evaluation():
    e = parse_expr("x1/3 + y1^2")
    val = evaluate(e, [Fraction(1)], [Fraction(1, 2)])
    assert isinstance(val, Fraction)
    assert val == Fraction(1, 3) + Fraction(1, 4)


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------


def test_parse_problem_requires_keys():
    with pytest.raises(ProblemFormatError):
        parse_problem({"n": 1, "m": 1, "f": "y1"})


def test_parse_problem_checks_point_shapes():
    data = {
        "n": 2,
        "m": 1,
        "f": "y1",
        "g": ["y1 - x1"],
        "points": {"bad": {"x": [1.0], "minimizers": [[0.0]]}},
    }
    with pytest.raises(ProblemFormatError):
        parse_problem(data)


def test_parse_problem_reports_bad_constraint_index():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem({"n": 1, "m": 1, "f": "y1", "g": ["y1", "y1 +* 2"]})
    assert "g[1]" in str(exc.value)


@pytest.mark.parametrize("name", BATTERY)
def test_battery_instances_load(name):
    prob = load_instance(name)
    raw = instance_raw(name)
    assert prob.n == raw["n"] and prob.m == raw["m"]
    assert prob.p == len(raw["g"])
    for pt in prob.points.values():
        for y in pt.minimizers:
            g = prob.eval_g(pt.x, y)
            assert np.all(g <= 1e-9), "pinned minimizers must be feasible"


@pytest.mark.parametrize("name", BATTERY)
def test_problem_json_round_trip(name):
    prob = load_instance(name)
    again = parse_problem(problem_to_json(prob))
    assert again.f.key() == prob.f.key()
    assert [gi.key() for gi in again.g] == [gi.key() for gi in prob.g]
    assert again.y_box == prob.y_box
    assert set(again.points) == set(prob.points)


# ---------------------------------------------------------------------------
# Derivatives vs an independent finite-difference oracle
# ---------------------------------------------------------------------------


def _fd_grad(fun, z, h=1e-6):
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.size)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        out[i] = (fun(zp) - fun(zm)) / (2 * h)
    return out


def test_gradients_match_finite_differences(rng):
    prob = load_instance("quad2d")
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=prob.n)
        y = rng.uniform(-1.5, 1.5, size=prob.m)
        gx = prob.grad_x_f(x, y)
        gy = prob.grad_y_f(x, y)
        fx = _fd_grad(lambda z: prob.eval_f(z, y), x)
        fy = _fd_grad(lambda z: prob.eval_f(x, z), y)
        assert gx == pytest.approx(fx, rel=1e-6, abs=1e-8)
        assert gy == pytest.approx(fy, rel=1e-6, abs=1e-8)


def test_constraint_jacobians_match_finite_differences(rng):
    prob = load_instance("multiS")
    for _ in range(50):
        x = rng.uniform(-1, 1, size=prob.n)
        y = rng.uniform(-1, 1, size=prob.m)
        jx = prob.jac_x_g(x, y)
        jy = prob.jac_y_g(x, y)
        for i in range(prob.p):
            fx = _fd_grad(lambda z, i=i: prob.eval_g(z, y)[i], x)
            fy = _fd_grad(lambda z, i=i: prob.eval_g(x, z)[i], y)
            assert jx[i] == pytest.approx(fx, rel=1e-6, abs=1e-8)
            assert jy[i] == pytest.approx(fy, rel=1e-6, abs=1e-8)


def test_jacobian_shapes_without_constraints():
    prob = parse_problem({"n": 2, "m": 1, "f": "(y1 - x1)^2 + x2", "g": []})
    assert prob.jac_x_g([0.0, 0.0], [0.0]).shape == (0, 2)
    assert prob.jac_y_g([0.0, 0.0], [0.0]).shape == (0, 1)
    lag = differentiate(prob, [0.0, 0.0], [0.0], [])
    assert lag.gy.shape == (0, 1) and lag.gx.shape == (0, 2)


def test_second_derivatives_exact_and_symmetric():
    prob = load_instance("quad2d")
    x = [Fraction(1, 3), Fraction(-2, 7)]
    y = [Fraction(1, 2), Fraction(3, 5)]
    u = [Fraction(0)] * prob.p
    lag = differentiate(prob, x, y, u)
    assert lag.Lxy.shape == (prob.n, prob.m)
    assert lag.Lyx.shape == (prob.m, prob.n)
    assert np.array_equal(lag.Lxy.T, lag.Lyx)
    assert np.array_equal(lag.Lxx, lag.Lxx.T)
    assert np.array_equal(lag.Lyy, lag.Lyy.T)
    # hand values for (y1-x1)^2 + (y2-x2)^2 + y1*y2/2
    assert lag.Lyy.tolist() == [
        [Fraction(2), Fraction(1, 2)],
        [Fraction(1, 2), Fraction(2)],
    ]
    assert lag.Lxy.tolist() == [
        [Fraction(-2), Fraction(0)],
        [Fraction(0), Fraction(-2)],
    ]


def test_lagrangian_includes_multiplier_terms():
    prob = load_instance("shiftbox")
    lag = differentiate(prob, [1.0], [1.0], [2.0, 0.0])
    # grad_x L = u1 * d(y - x)/dx = -2
    assert lag.grad_x_L == pytest.approx([-2.0])
    assert lag.grad_y_L == pytest.approx([0.0])


# ---------------------------------------------------------------------------
# Compiled blocks against a tree-walking interpreter
# ---------------------------------------------------------------------------

#: A problem with divisions and a negative power, beside the battery.
RATIONAL = {
    "n": 2, "m": 2,
    "f": "x1*y2/(1 + y1^2) - y2^-2 + 0.3*x2",
    "g": ["y1/(x1 - 4) - 1/3", "(y1 - x2)^3 * y2", "-y1 - 1"],
}
BLOCK_PROBLEMS = [*BATTERY, "rational"]
BLOCK_SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None)
_BINOPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _block_problem(name):
    return parse_problem(RATIONAL) if name == "rational" else load_instance(name)


def _interpret(e, x, y, exact):
    """The value of ``e`` by walking its tree, with the constants the
    compiled code uses: ints, then Fractions (exact) or floats."""
    if isinstance(e, Const):
        v = e.value
        return v.numerator if v.denominator == 1 else (v if exact else float(v))
    if isinstance(e, Var):
        return (x if e.kind == "x" else y)[e.index]
    if isinstance(e, Pow):
        return _interpret(e.base, x, y, exact) ** e.exponent
    a = _interpret(e.a, x, y, exact)
    return _BINOPS[type(e)](a, _interpret(e.b, x, y, exact))


def _expected_tables(prob):
    """Every table key with its expressions, row by row, derived here from
    f and g rather than read from the problem's derivative table."""
    xs = [("x", j) for j in range(prob.n)]
    ys = [("y", k) for k in range(prob.m)]

    def d(e, *wrt):
        for v in wrt:
            e = e.diff(*v)
        return e

    def second(e, first, then):
        return [d(e, a, b) for a in first for b in then]

    tables = {"f": [prob.f], "g": list(prob.g),
              "fx": [d(prob.f, v) for v in xs], "fy": [d(prob.f, v) for v in ys],
              "gx": [d(gi, v) for gi in prob.g for v in xs],
              "gy": [d(gi, v) for gi in prob.g for v in ys],
              "fxx": second(prob.f, xs, xs), "fxy": second(prob.f, xs, ys),
              "fyy": second(prob.f, ys, ys)}
    for name, first, then in (("gxx", xs, xs), ("gxy", xs, ys), ("gyy", ys, ys)):
        tables[name] = []
        for i, gi in enumerate(prob.g):
            tables[(name, i)] = second(gi, first, then)
            tables[name] += tables[(name, i)]
    return tables


def _check_blocks(prob, x, y, exact):
    # arrays reach the compiled code as Python numbers, so the interpreter
    # walks those; numpy scalars must give the same bits wherever Python
    # floats do not raise (at a pole or on overflow)
    xs, ys = [x.tolist() if isinstance(x, np.ndarray) else list(x) for x in (x, y)]
    for key, exprs in _expected_tables(prob).items():
        try:
            want = [_interpret(e, xs, ys, exact) for e in exprs]
        except (ZeroDivisionError, OverflowError):
            with pytest.raises(EvaluationError):
                prob.eval_block(key, x, y)
            continue
        got = prob.eval_block(key, x, y)
        assert len(got) == len(want), key
        for a, b in zip(got, want):
            assert type(a) is type(b), (key, a, b)
            if exact:
                assert a == b, (key, a, b)
            else:
                assert struct.pack("<d", a) == struct.pack("<d", b), (key, a, b)
        if isinstance(x, np.ndarray):
            with np.errstate(all="ignore"):
                scalars = [_interpret(e, list(x), list(y), exact) for e in exprs]
            assert [struct.pack("<d", v) for v in scalars] == \
                [struct.pack("<d", v) for v in got], key


def _points(draw, prob, values):
    x = [draw(values) for _ in range(prob.n)]
    y = [draw(values) for _ in range(prob.m)]
    return x, y


@pytest.mark.parametrize("name", BLOCK_PROBLEMS)
@BLOCK_SETTINGS
@given(data=st.data())
def test_float_blocks_match_the_interpreter(name, data):
    prob = _block_problem(name)
    x, y = _points(data.draw, prob, st.floats(-3, 3))
    _check_blocks(prob, np.array(x), np.array(y), exact=False)


@pytest.mark.parametrize("name", BLOCK_PROBLEMS)
@BLOCK_SETTINGS
@given(data=st.data())
def test_exact_blocks_match_the_interpreter(name, data):
    prob = _block_problem(name)
    x, y = _points(data.draw, prob, st.fractions(-3, 3, max_denominator=12))
    _check_blocks(prob, x, y, exact=True)


@pytest.mark.parametrize("zero", [1.0, Fraction(1, 3)])
def test_block_division_by_zero_names_the_entry(zero):
    prob = parse_problem({"n": 1, "m": 1, "f": "1/(y1 - x1)", "g": ["y1 - 2/(y1 - x1)"]})
    x, y = [zero], [zero]
    for evaluate_table in (prob.eval_f, prob.eval_g, prob.grad_y_f, prob.jac_x_g):
        with pytest.raises(EvaluationError, match="division by zero while evaluating"):
            evaluate_table(x, y)
    with pytest.raises(EvaluationError, match=r"evaluating y1 - 2 / \(y1 - x1\)"):
        prob.eval_g_exact(x, y)


def test_numpy_inputs_raise_at_a_pole():
    # np.float64 division by zero is inf with a warning, not an exception:
    # arrays must reach the compiled code as Python floats
    prob = parse_problem({"n": 1, "m": 1, "f": "1/(y1 - x1)", "g": ["y1 - 2/(y1 - x1)"]})
    x, y = np.array([1.0]), np.array([1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: prob.eval_f(x, y), lambda: prob.eval_array("gy", x, y),
                     lambda: differentiate(prob, x, y, np.zeros(1))):
            with pytest.raises(EvaluationError, match="division by zero while evaluating"):
                call()
    assert prob.eval_f(np.array([1.0]), np.array([3.0])) == 0.5
    near = parse_problem({"n": 1, "m": 1, "f": "y1^-2", "g": []})
    with pytest.raises(EvaluationError, match=r"overflow while evaluating y1\^-2"):
        near.eval_f(np.array([0.0]), np.array([1e-200]))


def _outcome(call):
    try:
        return call()
    except EvaluationError as exc:
        return f"EvaluationError: {exc}"


def test_float_block_raises_the_error_of_eval_block():
    prob = parse_problem({"n": 1, "m": 1, "f": "1/(y1 - x1)",
                          "g": ["y1 - 2/(y1 - x1)", "(y1 - x1)^-2"]})
    x = np.array([0.0])
    got = {}
    for y in (0.0, 1e-200, 2.0):  # a pole, an overflow, a regular point
        for key in ("f", "fy", "g", "gy"):
            got[key, y] = _outcome(lambda: prob.float_block(key, x)([y]))
            assert got[key, y] == _outcome(lambda: prob.eval_block(key, x, [y])), (key, y)
    assert got["f", 0.0] == "EvaluationError: division by zero while evaluating 1 / (y1 - x1)"
    assert got["g", 1e-200] == "EvaluationError: overflow while evaluating (y1 - x1)^-2"
    assert got["f", 2.0] == [0.5]


# ---------------------------------------------------------------------------
# Activity classification and KKT validation
# ---------------------------------------------------------------------------


def test_classify_partition():
    prob = load_instance("quadfit")
    part = partition_of(prob.eval_g([1.5], [1.0]), [1.0, 0.0])
    assert part.nu == (0,) and part.eta == (1,) and part.theta == ()
    part = partition_of(prob.eval_g([1.0], [1.0]), [0.0, 0.0])
    assert part.theta == (0,) and part.eta == (1,)
    assert part.ambiguous == ()


def test_classify_ambiguous_goes_to_theta():
    prob = load_instance("quadfit")
    # active constraint with a multiplier just below the tolerance on the
    # negative side: neither cleanly zero nor positive
    part = partition_of(prob.eval_g([1.5], [1.0]), [-5e-4, 0.0], tol_act=1e-7)
    assert 0 in part.theta
    assert 0 in part.ambiguous


def test_kkt_residual_zero_at_pinned_points():
    for name in BATTERY:
        prob = load_instance(name)
        for pname, pt in prob.points.items():
            if pt.u is None:
                continue
            for y in pt.minimizers:
                res = kkt_residual(prob, pt.x, y, pt.u)
                assert res <= 1e-8, f"{name}:{pname} residual {res}"


def test_make_kkt_rejects_bad_multiplier():
    prob = load_instance("shiftbox")
    with pytest.raises(KktValidationError):
        make_kkt(prob, [1.0], [1.0], [0.0, 0.0])  # stationarity violated


def test_make_kkt_partitions():
    prob = load_instance("shiftbox")
    kkt = make_kkt(prob, [1.0], [1.0], [2.0, 0.0])
    assert kkt.partition.nu == (0,)
    assert kkt.partition.eta == (1,)


# ---------------------------------------------------------------------------
# Structure predicates
# ---------------------------------------------------------------------------


def test_constraints_x_free_flag():
    assert load_instance("bilinear1").constraints_x_free()
    assert not load_instance("shiftbox").constraints_x_free()


def test_affine_in_y_flag():
    assert load_instance("bilinear1").affine_in_y()
    assert load_instance("slide").affine_in_y()
    assert not load_instance("quadfit").affine_in_y()


def test_verify_concave_convex_statuses():
    assert verify_concave_convex(load_instance("bilinear1")) in ("verified", "asserted")
    # -x*y^2 is neither concave in x nor convex in y as flagged: no claim
    assert verify_concave_convex(load_instance("multiS")) in ("unknown", "failed")


def test_verify_convex_in_y_statuses():
    # joint shape fails (f = x^2 is not concave in x) but inner convexity
    # is decidably fine: a y-independent objective over linear constraints
    prob = load_instance("constantobj")
    assert verify_concave_convex(prob) == "failed"
    assert verify_convex_in_y(prob) == "verified"
    # decidable failure: concave quadratic in y
    concave = parse_problem({"n": 1, "m": 1, "f": "-y1^2 + 0*x1", "g": ["y1 - 1"]})
    assert verify_convex_in_y(concave) == "failed"
    # undecidable shape falls back to the flag
    quartic = parse_problem(
        {"n": 1, "m": 1, "f": "y1^4 + x1*y1", "g": ["y1 - 1"],
         "flags": {"convex_in_y": True}}
    )
    assert verify_convex_in_y(quartic) == "asserted"


def test_shape_checks_read_the_joint_degree():
    # (y1 - x1)^2 is jointly quadratic though of degree 2 in x and in y
    shifted = parse_problem({"n": 1, "m": 1, "f": "(y1 - x1)^2", "g": ["y1 - 1"]})
    assert verify_convex_in_y(shifted) == "verified"
    # a decidable check overrides the flag it contradicts
    flagged = parse_problem({"n": 1, "m": 1, "f": "x1*y1 - y1^2", "g": ["y1 - 1"],
                             "flags": {"convex_in_y": True}})
    assert verify_convex_in_y(flagged) == "failed"


@st.composite
def joint_quadratics(draw):
    """(n, m, Hessians, linear terms) of a random jointly quadratic f and
    p <= 2 constraints g over z = (x, y): symmetric integer Hessians."""
    n, m, p = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    k = n + m
    hessians, linear = [], []
    for _ in range(1 + p):
        upper = np.triu([[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(k)])
        hessians.append(upper + np.triu(upper, 1).T)
        linear.append([draw(st.integers(-2, 2)) for _ in range(k)])
    return n, m, hessians, linear


def _quadratic_text(H, c, names):
    """1/2 z^T H z + c.z over the variables ``names``."""
    k = len(names)
    terms = [f"({H[i][i] / 2})*{names[i]}^2" for i in range(k)]
    terms += [f"({H[i][j]})*{names[i]}*{names[j]}" for i in range(k) for j in range(i + 1, k)]
    terms += [f"({c[i]})*{names[i]}" for i in range(k)]
    return " + ".join(terms)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(joint_quadratics())
def test_shape_verdicts_match_hessian_eigenvalues(case):
    # integer Hessians have eigenvalues either exactly 0 or far from it
    n, m, hessians, linear = case
    names = [f"x{i + 1}" for i in range(n)] + [f"y{j + 1}" for j in range(m)]
    texts = [_quadratic_text(H, c, names) for H, c in zip(hessians, linear)]
    prob = parse_problem({"n": n, "m": m, "f": texts[0], "g": texts[1:]})
    concave_x = bool(np.all(np.linalg.eigvalsh(hessians[0][:n, :n]) <= 1e-9))
    convex_y = all(np.all(np.linalg.eigvalsh(H[n:, n:]) >= -1e-9) for H in hessians)
    assert verify_convex_in_y(prob) == ("verified" if convex_y else "failed")
    assert verify_concave_convex(prob) == ("verified" if concave_x and convex_y else "failed")
