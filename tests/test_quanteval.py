from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmapper.errors import (
    DivisionByZeroError,
    MissingVariableError,
    NoDistributionError,
    NonPositiveSdError,
    RefinementCycleError,
    ValOverflowError,
)
from roadmapper.model import (
    BinOp,
    Compare,
    Const,
    Distributed,
    ExpDecay,
    K,
    Normal,
    PiecewiseLinear,
    PlateauThenDecay,
    ProbCompare,
    QuantVar,
    Requirement,
    SimpleQuant,
    T,
    Var,
)
from roadmapper.quanteval import (
    check_refinement_acyclic,
    eval_condition,
    eval_expr,
    normal_cdf,
    sat_value,
    val,
)
from roadmapper.testkit import (
    normal_cdf_by_integration,
    quantile_bisect,
    reference_eval,
)

from conftest import parse_ok


def v(name: str) -> Var:
    return Var(QuantVar(name))


def assign(req_id: str, var: str, value: float, sort=T) -> Requirement:
    return Requirement(req_id, SimpleQuant(sort, Compare(v(var), "=", Const(value))))


# --- eval_expr ---------------------------------------------------------------

def test_eval_expr_sums_durations():
    expr = BinOp("+", BinOp("+", BinOp("+", v("t1"), v("t2")), v("t3")), v("t4"))
    total = eval_expr(expr, {"t1": 30.0, "t2": 60.0, "t3": 45.0, "t4": 45.0})
    assert total == 180.0


def test_minutes_literal_normalizes_to_seconds():
    db = parse_ok("q qt6: t6 <= 3min.")
    assert db["qt6"].body.cond.rhs == Const(180.0)


def test_eval_expr_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        eval_expr(BinOp("/", v("x"), v("y")), {"x": 1.0, "y": 0.0})


def test_eval_expr_missing_variable():
    with pytest.raises(MissingVariableError):
        eval_expr(v("x"), {})


def test_eval_expr_accepts_quantvar_keys():
    assert eval_expr(v("x"), {QuantVar("x"): 2.0}) == 2.0


def _random_expr(rng: random.Random, variables: list[str], depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(round(rng.uniform(-20, 20), 3))
        return v(rng.choice(variables))
    op = rng.choice(["+", "-", "*", "+", "-", "*", "/"])
    left = _random_expr(rng, variables, depth - 1)
    right = _random_expr(rng, variables, depth - 1)
    if op == "/" and isinstance(right, Const):
        right = Const(right.value if abs(right.value) > 0.5 else 1.5)
    return BinOp(op, left, right)


def test_eval_expr_agrees_with_reference_walker():
    rng = random.Random(20260809)
    variables = ["a", "b", "c"]
    checked = 0
    while checked < 1000:
        expr = _random_expr(rng, variables, 4)
        env = {name: rng.uniform(0.5, 10.0) for name in variables}
        try:
            expected = reference_eval(expr, env)
        except ZeroDivisionError:
            continue
        if not math.isfinite(expected):
            continue
        got = eval_expr(expr, env)
        assert math.isclose(got, expected, rel_tol=1e-12)
        checked += 1


# --- eval_condition ------------------------------------------------------------

T2_DIST = Normal(60.0, 2025.0)  # sd = 45


def test_probability_at_the_mean_is_half():
    cond = ProbCompare(QuantVar("t2"), "<=", Const(60.0), ">=", Const(0.5))
    assert eval_condition(cond, {}, {"t2": T2_DIST})


def test_probability_bound_flips_at_the_090_quantile():
    cond_hi = ProbCompare(QuantVar("t2"), "<=", Const(117.67), ">=", Const(0.9))
    cond_lo = ProbCompare(QuantVar("t2"), "<=", Const(117.0), ">=", Const(0.9))
    assert eval_condition(cond_hi, {}, {"t2": T2_DIST})
    assert not eval_condition(cond_lo, {}, {"t2": T2_DIST})


def test_boundary_inclusive_comparison():
    cond = Compare(v("t6"), "<=", Const(180.0))
    assert eval_condition(cond, {"t6": 180.0}, {})


def test_equality_uses_relative_tolerance():
    cond = Compare(v("x"), "=", Const(1.0))
    assert eval_condition(cond, {"x": 1.0 + 1e-12}, {})
    assert not eval_condition(cond, {"x": 1.0 + 1e-6}, {})


def test_distribution_condition_matches_environment():
    cond = Distributed(QuantVar("t2"), T2_DIST)
    assert eval_condition(cond, {}, {"t2": T2_DIST})
    assert not eval_condition(cond, {}, {"t2": Normal(0.0, 1.0)})


def test_prob_condition_without_distribution():
    cond = ProbCompare(QuantVar("t2"), "<=", Const(60.0), ">=", Const(0.5))
    with pytest.raises(NoDistributionError):
        eval_condition(cond, {}, {})


def test_variable_cannot_be_valued_and_distributed():
    cond = Compare(v("x"), "=", Const(1.0))
    with pytest.raises(ValueError):
        eval_condition(cond, {"x": 1.0}, {"x": T2_DIST})


# --- normal_cdf ------------------------------------------------------------------

def test_normal_cdf_median():
    assert abs(normal_cdf(60.0, 60.0, 45.0) - 0.5) <= 1e-9


def test_normal_cdf_one_sd_above():
    assert abs(normal_cdf(105.0, 60.0, 45.0) - 0.8413447460685429) <= 1e-9


def test_normal_cdf_far_tail():
    assert normal_cdf(60.0 - 20 * 45.0, 60.0, 45.0) < 1e-12


def test_normal_cdf_rejects_bad_sd():
    with pytest.raises(NonPositiveSdError):
        normal_cdf(0.0, 0.0, 0.0)


@given(st.floats(-6, 6), st.floats(-6, 6))
def test_normal_cdf_nondecreasing(a, b):
    lo, hi = sorted((a, b))
    assert normal_cdf(lo, 0.0, 1.0) <= normal_cdf(hi, 0.0, 1.0) + 1e-15


@given(st.floats(-6, 6))
@settings(max_examples=60)
def test_normal_cdf_symmetry(x):
    assert abs(normal_cdf(x, 0.0, 1.0) + normal_cdf(-x, 0.0, 1.0) - 1.0) <= 1e-7


def test_normal_cdf_matches_integration_oracle():
    for i in range(50):
        x = -6.0 + i * (12.0 / 49)
        assert abs(normal_cdf(x, 0.0, 1.0) - normal_cdf_by_integration(x, 0.0, 1.0)) <= 1e-7


def test_quantile_bisect_anchors():
    assert abs(quantile_bisect(Normal(60.0, 2025.0), 0.5) - 60.0) <= 1e-3
    assert abs(quantile_bisect(Normal(60.0, 2025.0), 0.9) - 117.67) <= 0.05
    assert abs(quantile_bisect(Normal(0.0, 1.0), 0.8413) - 1.0) <= 0.01


# --- sat_value ----------------------------------------------------------------------

def test_exp_decay_at_zero():
    assert sat_value(ExpDecay(1.0), 0.0) == 1.0


def test_plateau_then_decay_shape():
    fn = PlateauThenDecay(6.0, 9.0, 1.0)
    assert sat_value(fn, 5.0) == 1.0
    assert sat_value(fn, 9.0) == 0.0
    assert 0.0 < sat_value(fn, 7.5) < 1.0


def test_piecewise_constant_table_value():
    fn = PiecewiseLinear(((0.0, 0.6),))
    assert sat_value(fn, -5.0) == 0.6
    assert sat_value(fn, 123.0) == 0.6


def test_piecewise_exact_at_knots_and_clamped():
    fn = PiecewiseLinear(((0.0, 1.0), (10.0, 0.4), (20.0, 0.0)))
    assert sat_value(fn, 0.0) == 1.0
    assert sat_value(fn, 10.0) == 0.4
    assert sat_value(fn, 15.0) == pytest.approx(0.2)
    assert sat_value(fn, 99.0) == 0.0
    assert sat_value(fn, -1.0) == 1.0


@given(st.floats(0, 50), st.floats(1e-6, 50))
@settings(max_examples=60)
def test_exp_decay_strictly_decreasing_on_durations(start, gap):
    fn = ExpDecay(0.3)
    assert sat_value(fn, start) > sat_value(fn, start + gap)


@given(st.floats(-100, 100))
def test_sat_value_always_in_unit_interval(x):
    for fn in (ExpDecay(1.0), PlateauThenDecay(6.0, 9.0, 0.8),
               PiecewiseLinear(((0.0, 1.0), (10.0, 0.0)))):
        assert 0.0 <= sat_value(fn, x) <= 1.0


# --- val ------------------------------------------------------------------------------

def test_val_direct_assignment():
    assert val([assign("a", "v", 3.0)], "v") == frozenset({3.0})


def test_val_collects_multiple_assignments():
    reqs = [assign("a", "v", 3.0), assign("b", "v", 7.0, K)]
    assert val(reqs, "v") == frozenset({3.0, 7.0})


def test_val_propagates_through_refinement():
    db = parse_ok(
        "k kt1: t1 = 30. k kt2: t2 = 60. k kt3: t3 = 45. k kt4: t4 = 45. "
        "k e6: t6 = t1 + t2 + t3 + t4."
    )
    reqs = [db[i] for i in db.ids()]
    assert val(reqs, "t6") == frozenset({180.0})


def test_val_propagation_halts_on_multiple_inputs():
    db = parse_ok("t a1: w = 1. t a2: w = 2. k e: u = w * 10.")
    reqs = [db[i] for i in db.ids()]
    assert val(reqs, "u") == frozenset()
    assert val(reqs, "w") == frozenset({1.0, 2.0})


def test_val_excludes_distribution_only_variables():
    db = parse_ok("k kd: t2 ~ Normal(60, 2025).")
    assert val([db["kd"]], "t2") == frozenset()


def test_val_refinement_cycle_detected():
    db = parse_ok("k e1: x = y + 1. k e2: y = x - 1.")
    with pytest.raises(RefinementCycleError):
        val([db["e1"], db["e2"]], "x")


def test_refinement_check_handles_long_chains():
    chain = [(f"x{i}", BinOp("+", v(f"x{i + 1}"), Const(1.0))) for i in range(3000)]
    check_refinement_acyclic(chain)
    with pytest.raises(RefinementCycleError, match="'x0'"):
        check_refinement_acyclic(chain + [("x3000", v("x0"))])


def test_val_monotone_in_set_argument():
    rng = random.Random(5)
    reqs = [assign(f"a{i}", "v", float(i)) for i in range(6)]
    reqs += [assign(f"b{i}", "w", float(10 + i), K) for i in range(3)]
    for _ in range(40):
        small = rng.sample(reqs, rng.randint(0, len(reqs)))
        extra = rng.sample(reqs, rng.randint(0, len(reqs)))
        big = {r.id: r for r in small + extra}.values()
        for var in ("v", "w"):
            assert val(small, var) <= val(list(big), var)


def test_val_overflow_cap():
    reqs = [assign(f"a{i}", "v", float(i)) for i in range(70)]
    with pytest.raises(ValOverflowError):
        val(reqs, "v")
