"""Core domain model: requirements, preferences, and the requirements database.

All values are immutable after construction; "mutation" produces new database
values. Identity is by requirement id, which is unique within a database.
"""

from __future__ import annotations

from ._record import Constants, field, record, replace
from .errors import (
    CyclicReferenceError,
    DanglingReferenceError,
    DuplicateIdError,
    DivisionByZeroError,
    InconsistentMandatorySetError,
    RoadmapperError,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Mapping


class Modality(Constants):
    """How strongly a requirement binds: plain, optional, or mandatory."""

    PLAIN = ""
    OPTIONAL = "?"
    MANDATORY = "!"


class Sort(Constants):
    """The five requirement categories."""

    DOMAIN_ASSUMPTION = "k"
    GOAL = "g"
    QUALITY_CONSTRAINT = "q"
    SOFTGOAL = "s"
    TASK = "t"


# Short aliases; the single letters are pervasive in the surface syntax.
K = Sort.DOMAIN_ASSUMPTION
G = Sort.GOAL
Q = Sort.QUALITY_CONSTRAINT
S = Sort.SOFTGOAL
T = Sort.TASK

PROP_SORTS = frozenset({K, G, T})
QUANT_SORTS = frozenset({K, Q, T})
MEMBER_SORTS = frozenset({K, T})  # sorts that may appear in a configuration


@record(frozen=True)
class PropVar:
    """A propositional variable."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("propositional variable name must be nonempty")


@record(frozen=True)
class QuantVar:
    """A quantitative variable; the unit is an annotation only."""

    name: str
    unit: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.name:
            raise ValueError("quantitative variable name must be nonempty")


# --- numeric expressions -----------------------------------------------------

@record(frozen=True)
class Const:
    value: float


@record(frozen=True)
class Var:
    var: QuantVar


BINARY_OPS = ("+", "-", "*", "/", "^")


@record(frozen=True)
class BinOp:
    op: str
    left: "NumExpr"
    right: "NumExpr"

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown operator {self.op!r}")
        if self.op == "/" and isinstance(self.right, Const) and self.right.value == 0:
            raise DivisionByZeroError("division by the constant 0")


NumExpr = Const | Var | BinOp


def free_variables(expr: NumExpr) -> frozenset[str]:
    """Names of the variables occurring in `expr`."""
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset({expr.var.name})
    return free_variables(expr.left) | free_variables(expr.right)


# --- distributions and conditions ---------------------------------------------

@record(frozen=True)
class Normal:
    """Normal distribution given by mean and variance."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("normal variance must be strictly positive")

    @property
    def sd(self) -> float:
        return self.variance ** 0.5


DistributionSpec = Normal

COMPARE_OPS = (">", "<", "=", ">=", "<=", "!=")
PROB_INNER_OPS = ("<=", "<", ">=", ">")
PROB_OUTER_OPS = (">=", ">", "=", "<=", "<")


@record(frozen=True)
class Compare:
    """lhs op rhs over numeric expressions."""

    lhs: NumExpr
    op: str
    rhs: NumExpr

    def __post_init__(self):
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@record(frozen=True)
class Distributed:
    """var follows the given probability distribution."""

    var: QuantVar
    dist: DistributionSpec


@record(frozen=True)
class ProbCompare:
    """P(var inner_op bound) outer_op level."""

    var: QuantVar
    inner_op: str
    bound: NumExpr
    outer_op: str
    level: NumExpr

    def __post_init__(self):
        if self.inner_op not in PROB_INNER_OPS:
            raise ValueError(f"invalid inner operator {self.inner_op!r}")
        if self.outer_op not in PROB_OUTER_OPS:
            raise ValueError(f"invalid outer operator {self.outer_op!r}")
        if isinstance(self.level, Const) and not 0.0 <= self.level.value <= 1.0:
            raise ValueError("probability level must lie in [0, 1]")


NumCondition = Compare | Distributed | ProbCompare


def condition_variables(cond: NumCondition) -> frozenset[str]:
    """All variable names occurring in a condition, including the governed one."""
    if isinstance(cond, Compare):
        return free_variables(cond.lhs) | free_variables(cond.rhs)
    if isinstance(cond, Distributed):
        return frozenset({cond.var.name})
    return (
        frozenset({cond.var.name})
        | free_variables(cond.bound)
        | free_variables(cond.level)
    )


# --- satisfaction functions ----------------------------------------------------

@record(frozen=True)
class ExpDecay:
    """mu(x) = exp(-rate * x), clamped into [0, 1]."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("decay rate must be strictly positive")


@record(frozen=True)
class PiecewiseLinear:
    """Interpolation through (x, mu) knots; clamps outside the knot range."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("piecewise function needs at least one point")
        xs = [x for x, _ in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("x coordinates must be strictly increasing")
        if any(not 0.0 <= mu <= 1.0 for _, mu in self.points):
            raise ValueError("satisfaction values must lie in [0, 1]")


@record(frozen=True)
class PlateauThenDecay:
    """Constant `level` up to plateau_end, linear to 0 at zero_at, 0 beyond."""

    plateau_end: float
    zero_at: float
    level: float = 1.0

    def __post_init__(self):
        if self.zero_at <= self.plateau_end:
            raise ValueError("zero_at must be greater than plateau_end")
        if not 0.0 < self.level <= 1.0:
            raise ValueError("plateau level must lie in (0, 1]")


SatisfactionFn = ExpDecay | PiecewiseLinear | PlateauThenDecay


# --- requirement bodies ----------------------------------------------------------

@record(frozen=True)
class VagueProp:
    """The content of a softgoal: free text, never comparable to a PropVar."""

    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("softgoal content must be nonempty")


@record(frozen=True)
class SimpleProp:
    sort: Sort
    var: PropVar

    def __post_init__(self):
        if self.sort not in PROP_SORTS:
            raise ValueError(f"propositional requirements cannot be {self.sort.value}-sorted")


@record(frozen=True)
class SimpleQuant:
    sort: Sort
    cond: NumCondition

    def __post_init__(self):
        if self.sort not in QUANT_SORTS:
            raise ValueError(f"quantitative requirements cannot be {self.sort.value}-sorted")
        if isinstance(self.cond, Distributed) and self.sort not in MEMBER_SORTS:
            raise ValueError("distribution assumptions must be k- or t-sorted")


@record(frozen=True)
class Softgoal:
    content: VagueProp


@record(frozen=True)
class Implication:
    """Domain assumption: conjunction of antecedents implies the consequent."""

    antecedents: frozenset[str]
    consequent: str

    def __post_init__(self):
        if not self.antecedents:
            raise ValueError("implication needs at least one antecedent")
        if self.consequent in self.antecedents:
            raise CyclicReferenceError(
                f"{self.consequent!r} cannot imply itself"
            )


@record(frozen=True)
class Conflict:
    """Domain assumption: the antecedents cannot all hold together."""

    antecedents: frozenset[str]

    def __post_init__(self):
        if len(self.antecedents) < 2:
            raise ValueError("conflict needs at least two antecedents")


Body = SimpleProp | SimpleQuant | Softgoal | Implication | Conflict


@record(frozen=True)
class Requirement:
    id: str
    body: Body
    modality: Modality = Modality.PLAIN
    description: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("requirement id must be nonempty")

    @property
    def sort(self) -> Sort:
        if isinstance(self.body, (Implication, Conflict)):
            return K
        if isinstance(self.body, Softgoal):
            return S
        return self.body.sort

    @property
    def is_complex(self) -> bool:
        return isinstance(self.body, (Implication, Conflict))

    def references(self) -> frozenset[str]:
        """Ids this requirement mentions (empty for simple requirements)."""
        if isinstance(self.body, Implication):
            return self.body.antecedents | {self.body.consequent}
        if isinstance(self.body, Conflict):
            return self.body.antecedents
        return frozenset()


class PreferenceKind(Constants):
    STRICT = ">"
    WEAK = ">="
    INDIFFERENT = "~="


@record(frozen=True)
class Preference:
    kind: PreferenceKind
    left: str
    right: str


class _cached_property:
    """`functools.cached_property` without its import: the first read calls
    the function and stores the result in the instance's `__dict__`, which
    later reads find before this non-data descriptor."""

    def __init__(self, function):
        self.function = function
        self.__doc__ = function.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.function.__name__] = self.function(instance)
        return value


@record(frozen=True)
class RequirementsDatabase:
    """All requirements and preferences under analysis, plus satisfaction functions.

    Treat instances as immutable; derive new databases with `with_requirement`
    or the rewrite operations in `transforms`.
    """

    requirements: Mapping[str, Requirement] = field(default_factory=dict)
    preferences: frozenset[Preference] = frozenset()
    sat_fns: Mapping[str, SatisfactionFn] = field(default_factory=dict)

    def __iter__(self) -> Iterator[Requirement]:
        return iter(self.requirements.values())

    def __contains__(self, req_id: str) -> bool:
        return req_id in self.requirements

    def __getitem__(self, req_id: str) -> Requirement:
        return self.requirements[req_id]

    def ids(self) -> list[str]:
        return sorted(self.requirements)

    def of_sort(self, *sorts: Sort) -> list[Requirement]:
        wanted = set(sorts)
        return [r for _, r in sorted(self.requirements.items()) if r.sort in wanted]

    def member_ids(self) -> list[str]:
        """Ids of k- and t-sorted requirements (potential configuration members)."""
        return [r.id for r in self.of_sort(K, T)]

    def mandatory_ids(self, *sorts: Sort) -> list[str]:
        pool = self.of_sort(*sorts) if sorts else sorted(self, key=lambda r: r.id)
        return [r.id for r in pool if r.modality is Modality.MANDATORY]

    def optional_member_ids(self) -> list[str]:
        return [r.id for r in self.of_sort(K, T) if r.modality is Modality.OPTIONAL]

    def sat_fn(self, var: str | QuantVar) -> SatisfactionFn | None:
        name = var.name if isinstance(var, QuantVar) else var
        return self.sat_fns.get(name)

    @_cached_property
    def closure_index(self):
        """The `operationalization.ClosureIndex` of this database, built on
        first use and kept on this instance; derived databases build their own."""
        # Imported here: operationalization depends on this module.
        from .operationalization import ClosureIndex

        return ClosureIndex(self)

    def with_requirement(self, req: Requirement) -> "RequirementsDatabase":
        """A new database with `req` added; this database is unchanged."""
        return add_requirement(self, req)

    def replace(self, **changes) -> "RequirementsDatabase":
        return replace(self, **changes)


def build_database(
    requirements: Iterable[Requirement],
    preferences: Iterable[Preference] = (),
    sat_fns: Mapping[str, SatisfactionFn] | None = None,
) -> RequirementsDatabase:
    """Assemble and validate a database from its parts.

    Raises DuplicateIdError, DanglingReferenceError, CyclicReferenceError, or
    InconsistentMandatorySetError when the result would be ill-formed.
    """
    table: dict[str, Requirement] = {}
    for req in requirements:
        if req.id in table:
            raise DuplicateIdError(f"requirement id {req.id!r} declared twice")
        table[req.id] = req
    db = RequirementsDatabase(
        requirements=table,
        preferences=frozenset(preferences),
        sat_fns=dict(sat_fns or {}),
    )
    validate_database(db)
    return db


@record(frozen=True)
class ValidityProblem:
    """One way a database is ill-formed.

    `subject` is the requirement id or the preference the problem is about;
    `error` is the exception type `validate_database` raises for it.
    """

    subject: str | Preference
    error: type[RoadmapperError]
    message: str


def validity_problems(
    db: RequirementsDatabase, *, check_mandatory_consistency: bool = True
) -> list[ValidityProblem]:
    """Every validity problem of `db`, in a deterministic order.

    First each dangling or complex reference (requirements by id, references
    sorted), then each bad preference side (a side named twice counts once),
    then each strict preference of a requirement over itself, then the first
    implication cycle `find_cycle_edge` finds, attributed to the lowest-id
    implication carrying that edge. Mandatory consistency is checked only
    when nothing else is wrong, since the closure needs resolvable, acyclic
    references.
    """
    references = [
        (req_id, repr(req_id), ref)
        for req_id in sorted(db.requirements)
        for ref in sorted(db[req_id].references())
    ]
    preferences = sorted(db.preferences, key=lambda p: (p.kind.value, p.left, p.right))
    references += [
        (pref, "preference", side)
        for pref in preferences
        for side in dict.fromkeys((pref.left, pref.right))
    ]
    problems: list[ValidityProblem] = []
    for subject, who, ref in references:
        target = db.requirements.get(ref)
        if target is None:
            message = f"{who} references unknown id {ref!r}"
        elif target.is_complex:
            message = (
                f"{who} references complex requirement {ref!r}; "
                "only simple requirements and softgoals may be referenced"
            )
        else:
            continue
        problems.append(ValidityProblem(subject, DanglingReferenceError, message))
    problems += [
        ValidityProblem(
            pref, CyclicReferenceError, f"strict preference of {pref.left!r} over itself"
        )
        for pref in preferences
        if pref.kind is PreferenceKind.STRICT and pref.left == pref.right
    ]
    implications = [r for r in db if isinstance(r.body, Implication)]
    edges: dict[str, set[str]] = {}
    for req in implications:
        for ant in req.body.antecedents:
            edges.setdefault(ant, set()).add(req.body.consequent)
    cycle = find_cycle_edge(edges)
    if cycle is not None:
        node, nxt = cycle
        via = min(
            r.id for r in implications
            if node in r.body.antecedents and r.body.consequent == nxt
        )
        message = f"implication {via!r} closes a cycle through {nxt!r}"
        problems.append(ValidityProblem(via, CyclicReferenceError, message))
    if check_mandatory_consistency and not problems:
        # Imported here: inference depends on this module.
        from .inference import closure

        result = closure(db.mandatory_ids(), db)
        if result.bottom:
            witnesses = sorted(result.bottom_witness)
            message = (
                "the mandatory subset derives the contradiction "
                f"(via {', '.join(witnesses)})"
            )
            problems.append(
                ValidityProblem(witnesses[0], InconsistentMandatorySetError, message)
            )
    return problems


def validate_database(
    db: RequirementsDatabase, *, check_mandatory_consistency: bool = True
) -> None:
    """Raise the first of `validity_problems(db)`, if there is one."""
    problems = validity_problems(db, check_mandatory_consistency=check_mandatory_consistency)
    if problems:
        raise problems[0].error(problems[0].message)


def find_cycle_edge(edges: Mapping[str, Iterable[str]]) -> tuple[str, str] | None:
    """The first edge (node, next) that closes a cycle, or None when acyclic.

    Depth-first from each start node in sorted order, visiting successors in
    sorted order; a cycle exists iff a gray (on-path) node is reached again.
    Iterative, so chain length is not limited by the recursion limit.
    """
    color: dict[str, int] = {}
    for start in sorted(edges):
        if color.get(start):
            continue
        stack = [(start, iter(sorted(edges.get(start, ()))))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color.get(nxt) == 1:
                    return node, nxt
                if not color.get(nxt):
                    color[nxt] = 1
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    break
            else:
                color[node] = 2
                stack.pop()
    return None


def add_requirement(db: RequirementsDatabase, req: Requirement) -> RequirementsDatabase:
    """Return a new database containing `req`; the input is not mutated."""
    if req.id in db.requirements:
        raise DuplicateIdError(f"requirement id {req.id!r} already in database")
    table = dict(db.requirements)
    table[req.id] = req
    out = db.replace(requirements=table)
    validate_database(out, check_mandatory_consistency=req.modality is Modality.MANDATORY)
    return out


def select(sort: Sort, modality: Modality, pool: Iterable[Requirement]) -> set[Requirement]:
    """The members of `pool` carrying exactly the given sort and modality labels."""
    return {r for r in pool if r.sort is sort and r.modality is modality}
