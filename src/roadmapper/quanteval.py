"""Evaluation of numeric expressions, conditions, and assigned-value tracking.

Equality between reals is tolerance-aware throughout: relative 1e-9 with an
absolute floor of 1e-12 near zero. Inequalities are exact.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping

from .errors import (
    DivisionByZeroError,
    MissingValueError,
    MissingVariableError,
    NoDistributionError,
    NonFiniteResultError,
    NonSingletonValError,
    NonPositiveSdError,
    RefinementCycleError,
    UnresolvedReferenceError,
    UnsupportedDistributionError,
    ValOverflowError,
)
from .model import (
    Compare,
    Const,
    Distributed,
    DistributionSpec,
    ExpDecay,
    Normal,
    NumCondition,
    NumExpr,
    PlateauThenDecay,
    QuantVar,
    Requirement,
    RequirementsDatabase,
    SatisfactionFn,
    SimpleQuant,
    Var,
    find_cycle_edge,
    free_variables,
    MEMBER_SORTS,
)

REL_TOL = 1e-9
ABS_TOL = 1e-12

# More values per variable than this is treated as a modeling error.
MAX_VALUES_PER_VARIABLE = 64

Assignment = Mapping[str, float]
ProbEnv = Mapping[str, DistributionSpec]


def _name(key: str | QuantVar) -> str:
    return key.name if isinstance(key, QuantVar) else key


def _normalize(mapping: Mapping) -> dict[str, object]:
    return {_name(k): v for k, v in mapping.items()}


def nearly_equal(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def eval_expr(expr: NumExpr, assignment: Assignment) -> float:
    """Evaluate an expression under a total assignment."""
    values = _normalize(assignment)
    return _eval(expr, values)


def _eval(expr: NumExpr, values: Mapping[str, float]) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return values[expr.var.name]
        except KeyError:
            raise MissingVariableError(f"no value for variable {expr.var.name!r}") from None
    left = _eval(expr.left, values)
    right = _eval(expr.right, values)
    if expr.op == "+":
        result = left + right
    elif expr.op == "-":
        result = left - right
    elif expr.op == "*":
        result = left * right
    elif expr.op == "/":
        if right == 0.0:
            raise DivisionByZeroError("division by zero")
        result = left / right
    else:  # "^"
        try:
            result = math.pow(left, right)
        except (OverflowError, ValueError) as exc:
            raise NonFiniteResultError(str(exc)) from None
    if not math.isfinite(result):
        raise NonFiniteResultError(f"{expr.op} produced a non-finite value")
    return result


def compare(a: float, op: str, b: float) -> bool:
    if op == "=":
        return nearly_equal(a, b)
    if op == "!=":
        return not nearly_equal(a, b)
    if op == ">":
        return a > b
    if op == "<":
        return a < b
    if op == ">=":
        return a >= b
    return a <= b


def normal_cdf(x: float, mean: float, sd: float) -> float:
    """P(X <= x) for X ~ Normal(mean, sd^2)."""
    if sd <= 0:
        raise NonPositiveSdError("standard deviation must be positive")
    return 0.5 * (1.0 + math.erf((x - mean) / (sd * math.sqrt(2.0))))


def probability(dist: DistributionSpec, op: str, bound: float) -> float:
    """P(X op bound) for the supported distribution kinds."""
    if isinstance(dist, Normal):
        below = normal_cdf(bound, dist.mean, dist.sd)
        return below if op in ("<=", "<") else 1.0 - below
    raise UnsupportedDistributionError(f"unsupported distribution {dist!r}")


def eval_condition(
    cond: NumCondition, assignment: Assignment, env: ProbEnv | None = None
) -> bool:
    """Decide a condition under a value assignment and a distribution environment."""
    values = _normalize(assignment)
    dists = _normalize(env or {})
    overlap = values.keys() & dists.keys()
    if overlap:
        raise ValueError(
            f"variables bound both to values and distributions: {sorted(overlap)}"
        )
    if isinstance(cond, Compare):
        return compare(_eval(cond.lhs, values), cond.op, _eval(cond.rhs, values))
    if isinstance(cond, Distributed):
        return dists.get(cond.var.name) == cond.dist
    dist = dists.get(cond.var.name)
    if dist is None:
        raise NoDistributionError(f"no distribution for variable {cond.var.name!r}")
    p = probability(dist, cond.inner_op, _eval(cond.bound, values))
    return compare(p, cond.outer_op, _eval(cond.level, values))


def sat_value(fn: SatisfactionFn, x: float) -> float:
    """Satisfaction level mu(x) in [0, 1]."""
    if isinstance(fn, ExpDecay):
        return min(1.0, max(0.0, math.exp(-fn.rate * x)))
    if isinstance(fn, PlateauThenDecay):
        if x <= fn.plateau_end:
            return fn.level
        if x >= fn.zero_at:
            return 0.0
        return fn.level * (fn.zero_at - x) / (fn.zero_at - fn.plateau_end)
    points = fn.points
    if x <= points[0][0]:
        return points[0][1]
    if x >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            if x == x0:
                return y0
            if x == x1:
                return y1
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return points[-1][1]  # unreachable given the scans above


# --- assigned-value collection ---------------------------------------------------


AssignmentShape = tuple[str, NumExpr, frozenset[str]]


def _assignment_shape(req: Requirement) -> AssignmentShape | None:
    """(variable, rhs, rhs variables) when the requirement is a k/t '='
    condition with a Var lhs."""
    if not isinstance(req.body, SimpleQuant) or req.sort not in MEMBER_SORTS:
        return None
    cond = req.body.cond
    if isinstance(cond, Compare) and cond.op == "=" and isinstance(cond.lhs, Var):
        return cond.lhs.var.name, cond.rhs, free_variables(cond.rhs)
    return None


def check_refinement_acyclic(equations: Iterable[tuple[str, NumExpr]]) -> None:
    """Raise RefinementCycleError when lhs -> rhs-variable edges form a cycle."""
    edges: dict[str, set[str]] = {}
    for lhs, rhs in equations:
        rhs_vars = free_variables(rhs)
        if rhs_vars:
            edges.setdefault(lhs, set()).update(rhs_vars)
    cycle = find_cycle_edge(edges)
    if cycle is not None:
        raise RefinementCycleError(f"refinement cycle through variable {cycle[1]!r}")


def propagate_values(
    requirements: Iterable[Requirement],
) -> dict[str, frozenset[float]]:
    """Values each variable obtains from direct assignments plus refinement equations.

    Direct assignments are '=' conditions with a closed right-hand side. A
    refinement equation fires only while every right-hand variable holds
    exactly one value; values once propagated are never retracted.
    """
    shapes = [
        shape
        for req in sorted(requirements, key=lambda r: r.id)
        if (shape := _assignment_shape(req)) is not None
    ]
    check_refinement_acyclic((var, rhs) for var, rhs, needed in shapes if needed)
    return _propagate(shapes)


def _propagate(shapes: Iterable[AssignmentShape]) -> dict[str, frozenset[float]]:
    """`propagate_values` over precomputed assignment shapes in id order,
    whose refinement equations are known to be acyclic."""
    direct: list[tuple[str, NumExpr]] = []
    equations: list[AssignmentShape] = []
    for var, rhs, needed in shapes:
        if needed:
            equations.append((var, rhs, needed))
        else:
            direct.append((var, rhs))
    values: dict[str, set[float]] = {}

    def record(var: str, value: float) -> bool:
        # Values are kept exact; tolerance applies at comparison time only.
        bucket = values.setdefault(var, set())
        if value in bucket:
            return False
        bucket.add(value)
        if len(bucket) > MAX_VALUES_PER_VARIABLE:
            raise ValOverflowError(f"variable {var!r} exceeds the assigned-value cap")
        return True

    for var, rhs in direct:
        record(var, _eval(rhs, {}))
    changed = True
    while changed:
        changed = False
        for var, rhs, needed in equations:
            if any(len(values.get(w, ())) != 1 for w in needed):
                continue
            env = {w: next(iter(values[w])) for w in needed}
            if record(var, _eval(rhs, env)):
                changed = True
    return {var: frozenset(vals) for var, vals in values.items()}


def val(
    x_set: Iterable[Requirement | str],
    var: str | QuantVar,
    db: RequirementsDatabase | None = None,
) -> frozenset[float]:
    """Constants assigned to `var` by the k/t requirements in `x_set`.

    Covers direct closed assignments and values forced through acyclic
    quantitative-refinement equalities whose inputs are uniquely valued.
    """
    reqs: list[Requirement] = []
    unknown = []
    for item in x_set:
        if isinstance(item, Requirement):
            reqs.append(item)
        elif db is not None and item in db:
            reqs.append(db[item])
        else:
            unknown.append(item)
    if unknown:  # the least, whatever the order of `x_set`
        raise UnresolvedReferenceError(f"cannot resolve requirement id {min(unknown)!r}")
    return propagate_values(reqs).get(_name(var), frozenset())


def unique_val(
    x_set: Iterable[Requirement | str], var: str | QuantVar,
    db: RequirementsDatabase | None = None, *,
    missing: str, several: Callable[[list[float]], str],
) -> float:
    """The one constant `var` obtains from `x_set` (see `val`). When there is
    none, raises MissingValueError(missing); when there are more, raises
    NonSingletonValError(several(the sorted values))."""
    return one_value(val(x_set, var, db), missing=missing, several=several)


def one_value(
    values: frozenset[float], *, missing: str, several: Callable[[list[float]], str],
) -> float:
    """The member of `values`, checked as `unique_val` checks it."""
    if not values:
        raise MissingValueError(missing)
    if len(values) > 1:
        raise NonSingletonValError(several(sorted(values)))
    return next(iter(values))
