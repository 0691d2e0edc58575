"""Database rewrites: value-conflict expansion, satisfaction-driven preference
expansion, probabilistic and fuzzy relaxation, and softgoal refinement.

Rewrites are functional: they take a database and return a new one together
with a report of what changed. Synthesized requirements get ids under the
reserved "@macro_" prefix so user ids never collide.

A rewrite that needs a requirement with some body reuses the one of the input
database with that body and the lowest id; a mandatory request (the conflicts
between pinned values) accepts only a mandatory one. A body not found is added
under its macro id, or id_2, id_3, ... when that is taken. What the same pass
added is not looked up, only avoided as an id.
"""

from __future__ import annotations

import itertools

from ._record import record
from .errors import (
    DanglingReferenceError,
    InvalidLevelError,
    NoSatisfactionFnError,
    NotAComparisonError,
    MultiVariableConditionError,
    UnresolvedReferenceError,
    WrongSortError,
)
from .model import (
    BinOp,
    Body,
    Compare,
    Conflict,
    Const,
    Distributed,
    DistributionSpec,
    G,
    Implication,
    K,
    MEMBER_SORTS,
    Modality,
    PlateauThenDecay,
    Preference,
    PreferenceKind,
    ProbCompare,
    Q,
    QuantVar,
    Requirement,
    RequirementsDatabase,
    SatisfactionFn,
    SimpleQuant,
    Softgoal,
    Var,
    build_database,
    condition_variables,
)
from .quanteval import nearly_equal, propagate_values, sat_value, unique_val, val

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

MACRO_PREFIX = "@macro_"

_PROB_OUTER = (">=", ">", "=", "<=", "<")
_RELAXABLE_OPS = ("<=", "<", ">=", ">")


@record(frozen=True)
class RewriteReport:
    """What a rewrite added and removed, and how many passes it took."""

    added_requirements: tuple[str, ...] = ()
    removed_requirements: tuple[str, ...] = ()
    added_preferences: tuple[Preference, ...] = ()
    added_sat_fns: tuple[str, ...] = ()
    iterations: int = 1

    def __post_init__(self):
        overlap = set(self.added_requirements) & set(self.removed_requirements)
        if overlap:
            raise ValueError(f"ids both added and removed: {sorted(overlap)}")
        if self.iterations < 1:
            raise ValueError("a rewrite performs at least one pass")

    @property
    def changed(self) -> bool:
        return bool(
            self.added_requirements
            or self.removed_requirements
            or self.added_preferences
            or self.added_sat_fns
        )


def _value_id_part(x: float) -> str:
    """Injective, identifier-safe rendering of a float."""
    text = repr(float(x))
    if text.endswith(".0"):
        text = text[:-2]
    return (
        text.replace(".", "_").replace("-", "n").replace("+", "p").replace("e", "E")
    )


class _Additions:
    """The requirements and preferences one pass of a rewrite adds to `db`.

    `ensure` reuses a body found in the input database under its lowest id; a
    plain request accepts any modality, a mandatory request only a mandatory
    requirement. What this pass added is not looked up, only avoided as an id,
    so asking twice for one new body adds it twice.
    """

    def __init__(self, db: RequirementsDatabase):
        self.db = db
        self.new: list[Requirement] = []
        self.prefs: list[Preference] = []
        self._taken: set[str] = set()
        self._by_body: dict[Body, list[Requirement]] | None = None

    def add(
        self, base: str, body: Body, modality=Modality.PLAIN, description: str | None = None
    ) -> str:
        """Add a requirement under the first of base, base_2, base_3, ...
        that neither the input database nor this pass uses."""
        new_id, n = base, 1
        while new_id in self.db or new_id in self._taken:
            n += 1
            new_id = f"{base}_{n}"
        self._taken.add(new_id)
        self.new.append(Requirement(new_id, body, modality, description))
        return new_id

    def ensure(self, base: str, body: Body, modality=Modality.PLAIN) -> str:
        """Id of a requirement with this body: found under the reuse rule (a
        mandatory `modality` makes a mandatory request), or else added."""
        if self._by_body is None:
            self._by_body = {}
            for req in sorted(self.db, key=lambda r: r.id):
                self._by_body.setdefault(req.body, []).append(req)
        mandatory = modality is Modality.MANDATORY
        for req in self._by_body.get(body, ()):
            if not mandatory or req.modality is Modality.MANDATORY:
                return req.id
        return self.add(base, body, modality)


def _value_constraint(var: str, x: float, sort) -> Body:
    return SimpleQuant(sort, Compare(Var(QuantVar(var)), "=", Const(float(x))))


def value_assumption(var: str, x: float) -> Requirement:
    """The assumption pinning `var` to `x`, under its macro id."""
    return Requirement(
        f"{MACRO_PREFIX}k_{var}_{_value_id_part(x)}", _value_constraint(var, x, K)
    )


def value_preference(
    fn: SatisfactionFn, x1: float, x2: float
) -> tuple[PreferenceKind, float, float]:
    """How two values of a variable compare under its satisfaction function:
    indifferent when their levels are nearly equal, in the given order; else
    strict, the more satisfying value first."""
    mu1, mu2 = sat_value(fn, x1), sat_value(fn, x2)
    if nearly_equal(mu1, mu2):
        return PreferenceKind.INDIFFERENT, x1, x2
    hi, lo = (x1, x2) if mu1 > mu2 else (x2, x1)
    return PreferenceKind.STRICT, hi, lo


def _rebuild(
    db: RequirementsDatabase,
    *,
    add: Iterable[Requirement] = (),
    remove: Iterable[str] = (),
    preferences: Iterable[Preference] | None = None,
    sat_fns: dict | None = None,
) -> RequirementsDatabase:
    removed = set(remove)
    reqs = [r for r in sorted(db, key=lambda r: r.id) if r.id not in removed]
    reqs.extend(add)
    return build_database(
        reqs,
        db.preferences if preferences is None else preferences,
        sat_fns if sat_fns is not None else dict(db.sat_fns),
    )


def _until_unchanged(
    db: RequirementsDatabase, one_pass: Callable[[_Additions], None]
) -> tuple[RequirementsDatabase, RewriteReport]:
    """Apply passes of a rewrite until one adds nothing."""
    added: list[str] = []
    added_prefs: list[Preference] = []
    iterations = 0
    while True:
        iterations += 1
        adds = _Additions(db)
        one_pass(adds)
        if not adds.new and not adds.prefs:
            break
        db = _rebuild(db, add=adds.new, preferences=db.preferences.union(adds.prefs))
        added.extend(r.id for r in adds.new)
        added_prefs.extend(adds.prefs)
    return db, RewriteReport(
        added_requirements=tuple(sorted(added)),
        added_preferences=tuple(added_prefs),
        iterations=iterations,
    )


def expand_value_conflicts(
    db: RequirementsDatabase,
) -> tuple[RequirementsDatabase, RewriteReport]:
    """Add pairwise mandatory conflicts between competing value assignments.

    For every variable that obtains two or more values, every value gets a
    quality constraint pinning it, and every unordered value pair gets a
    mandatory conflict, so no configuration can assign both. Idempotent.
    """

    def one_pass(adds: _Additions) -> None:
        values_of = propagate_values(adds.db.of_sort(*MEMBER_SORTS))
        for var in sorted(values_of):
            values = sorted(values_of[var])
            if len(values) < 2:
                continue
            pinned = {}
            for x in values:
                base = f"{MACRO_PREFIX}q_{var}_{_value_id_part(x)}"
                pinned[x] = adds.ensure(base, _value_constraint(var, x, Q))
            for x1, x2 in itertools.combinations(values, 2):
                base = f"{MACRO_PREFIX}confl_{var}_{_value_id_part(x1)}_{_value_id_part(x2)}"
                pair = Conflict(frozenset({pinned[x1], pinned[x2]}))
                adds.ensure(base, pair, Modality.MANDATORY)

    return _until_unchanged(db, one_pass)


def expand_value_preferences(
    db: RequirementsDatabase, var: str | QuantVar
) -> tuple[RequirementsDatabase, RewriteReport]:
    """Add assumptions and preferences reflecting the satisfaction ordering of
    the values a variable obtains.

    Equally satisfying values become indifferent assumptions; unequally
    satisfying values get a conflict plus a strict preference for the more
    satisfying assignment. Idempotent.
    """
    name = var.name if isinstance(var, QuantVar) else var
    fn = db.sat_fn(name)
    if fn is None:
        raise NoSatisfactionFnError(f"no satisfaction function registered for {name!r}")

    def one_pass(adds: _Additions) -> None:
        assumptions: dict[float, str] = {}

        def assumption(x: float) -> str:
            if x not in assumptions:
                req = value_assumption(name, x)
                assumptions[x] = adds.ensure(req.id, req.body)
            return assumptions[x]

        values = sorted(val(adds.db.of_sort(*MEMBER_SORTS), name))
        for x1, x2 in itertools.combinations(values, 2):
            kind, hi, lo = value_preference(fn, x1, x2)
            pref = Preference(kind, assumption(hi), assumption(lo))
            if kind is PreferenceKind.STRICT:
                base = f"{MACRO_PREFIX}kconfl_{name}_{_value_id_part(x1)}_{_value_id_part(x2)}"
                adds.ensure(base, Conflict(frozenset({pref.left, pref.right})))
            if pref not in adds.db.preferences:
                adds.prefs.append(pref)

    return _until_unchanged(db, one_pass)


def _rewrite_references(
    db: RequirementsDatabase, old: str, new: str
) -> tuple[list[Requirement], set[Preference]]:
    """Requirements that mention `old`, and all preferences, updated to
    mention `new` instead."""

    def sub(ref: str) -> str:
        return new if ref == old else ref

    updated: list[Requirement] = []
    for req in sorted(db, key=lambda r: r.id):
        if old not in req.references():
            continue
        if isinstance(req.body, Implication):
            body: Body = Implication(
                frozenset(sub(a) for a in req.body.antecedents), sub(req.body.consequent)
            )
        else:
            body = Conflict(frozenset(sub(a) for a in req.body.antecedents))
        updated.append(Requirement(req.id, body, req.modality, req.description))
    prefs = {Preference(p.kind, sub(p.left), sub(p.right)) for p in db.preferences}
    return updated, prefs


def relax_probabilistic(
    db: RequirementsDatabase,
    constraint: str,
    dist: DistributionSpec,
    level: float,
    outer_op: str = ">=",
) -> tuple[RequirementsDatabase, RewriteReport]:
    """Replace a hard bound with a probability bound under an assumed distribution.

    Adds the distribution assumption for the constrained variable, removes the
    constraint, and adds a probabilistic constraint with the same modality.
    References to the old constraint follow it to its replacement.
    """
    if constraint not in db:
        raise UnresolvedReferenceError(f"cannot resolve requirement id {constraint!r}")
    req = db[constraint]
    if not isinstance(req.body, SimpleQuant) or req.sort is not Q:
        raise WrongSortError(f"{constraint!r} is not a quality constraint")
    cond = req.body.cond
    if not isinstance(cond, Compare):
        raise NotAComparisonError(f"{constraint!r} does not carry a plain comparison")
    if not isinstance(cond.lhs, Var) or cond.op not in _RELAXABLE_OPS:
        raise NotAComparisonError(
            f"{constraint!r} must bound a single variable with an inequality"
        )
    if not 0.0 < level <= 1.0:
        raise InvalidLevelError(f"probability level must lie in (0, 1], got {level}")
    if outer_op not in _PROB_OUTER:
        raise ValueError(f"invalid outer operator {outer_op!r}")
    variable = cond.lhs.var
    adds = _Additions(db)
    adds.ensure(f"{MACRO_PREFIX}dist_{variable.name}", SimpleQuant(K, Distributed(variable, dist)))
    prob = ProbCompare(variable, cond.op, cond.rhs, outer_op, Const(float(level)))
    prob_id = adds.add(
        f"{MACRO_PREFIX}prob_{constraint}", SimpleQuant(Q, prob), req.modality, req.description
    )
    updated, prefs = _rewrite_references(db, constraint, prob_id)
    removed = {constraint, *(u.id for u in updated)}
    out = _rebuild(db, add=updated + adds.new, remove=removed, preferences=prefs)
    return out, RewriteReport(
        added_requirements=tuple(sorted(r.id for r in adds.new)),
        removed_requirements=(constraint,),
    )


def relax_fuzzy(
    db: RequirementsDatabase, constraint: str, fn: SatisfactionFn
) -> tuple[RequirementsDatabase, RewriteReport]:
    """Drop a single-variable quality constraint and register a satisfaction
    function over its variable; value preferences then follow the function."""
    if constraint not in db:
        raise UnresolvedReferenceError(f"cannot resolve requirement id {constraint!r}")
    req = db[constraint]
    if not isinstance(req.body, SimpleQuant) or req.sort is not Q:
        raise WrongSortError(f"{constraint!r} is not a quality constraint")
    variables = sorted(condition_variables(req.body.cond))
    if len(variables) != 1:
        raise MultiVariableConditionError(
            f"{constraint!r} constrains {len(variables)} variables; fuzzy relaxation needs one"
        )
    referencing = [r.id for r in db if constraint in r.references()]
    referencing += [
        f"preference {p.left} / {p.right}"
        for p in db.preferences
        if constraint in (p.left, p.right)
    ]
    if referencing:
        raise DanglingReferenceError(
            f"cannot remove {constraint!r}; still referenced by {sorted(referencing)}"
        )
    sat_fns = dict(db.sat_fns)
    sat_fns[variables[0]] = fn
    out = _rebuild(db, remove=[constraint], sat_fns=sat_fns)
    return out, RewriteReport(
        removed_requirements=(constraint,), added_sat_fns=(variables[0],)
    )


def relax_fuzzy_upper_bound(
    db: RequirementsDatabase,
    var: str | QuantVar,
    bound: float,
    zero_at: float | None = None,
    level: float = 1.0,
) -> tuple[RequirementsDatabase, RewriteReport]:
    """Install the fuzzy reading of "var below bound": full satisfaction up to
    the bound, then a linear drop to zero. The decay endpoint defaults to
    1.5x the bound (1.0 when the bound is zero)."""
    name = var.name if isinstance(var, QuantVar) else var
    if zero_at is None:
        zero_at = 1.5 * bound if bound > 0 else 1.0
    fn = PlateauThenDecay(float(bound), float(zero_at), float(level))
    sat_fns = dict(db.sat_fns)
    sat_fns[name] = fn
    out = db.replace(sat_fns=sat_fns)
    return out, RewriteReport(added_sat_fns=(name,))


def add_satisfaction_product(
    db: RequirementsDatabase,
    var1: str | QuantVar,
    var2: str | QuantVar,
    out_var: str | QuantVar,
) -> tuple[RequirementsDatabase, RewriteReport]:
    """Bind `out_var` to the product of the current satisfaction levels of two
    variables, through auxiliary assumptions for each factor."""
    names = [v.name if isinstance(v, QuantVar) else v for v in (var1, var2, out_var)]
    adds = _Additions(db)
    members = db.of_sort(*MEMBER_SORTS)
    factors = []
    for name in names[:2]:
        fn = db.sat_fn(name)
        if fn is None:
            raise NoSatisfactionFnError(f"no satisfaction function registered for {name!r}")
        x = unique_val(
            members, name,
            missing=f"variable {name!r} obtains no value",
            several=lambda xs: f"variable {name!r} obtains several values: {xs}",
        )
        factor = f"{MACRO_PREFIX}mu_{name}"
        adds.ensure(f"{MACRO_PREFIX}kmu_{name}", _value_constraint(factor, sat_value(fn, x), K))
        factors.append(Var(QuantVar(factor)))
    body = SimpleQuant(K, Compare(Var(QuantVar(names[2])), "=", BinOp("*", *factors)))
    adds.ensure(f"{MACRO_PREFIX}prod_{names[2]}", body)
    out = _rebuild(db, add=adds.new)
    return out, RewriteReport(added_requirements=tuple(sorted(r.id for r in adds.new)))


def refine_softgoal(
    db: RequirementsDatabase, softgoal: str, refining: str
) -> tuple[RequirementsDatabase, RewriteReport]:
    """Declare that satisfying `refining` counts as satisfying the softgoal,
    making the softgoal operationalizable through that requirement."""
    for req_id in (softgoal, refining):
        if req_id not in db:
            raise UnresolvedReferenceError(f"cannot resolve requirement id {req_id!r}")
    if not isinstance(db[softgoal].body, Softgoal):
        raise WrongSortError(f"{softgoal!r} is not a softgoal")
    if db[refining].sort not in (Q, G):
        raise WrongSortError(
            f"{refining!r} must be a quality constraint or goal, "
            f"got sort {db[refining].sort.value!r}"
        )
    adds = _Additions(db)
    body = Implication(frozenset({refining}), softgoal)
    adds.ensure(f"{MACRO_PREFIX}ref_{refining}__{softgoal}", body)
    if not adds.new:
        return db, RewriteReport()
    out = _rebuild(db, add=adds.new)
    return out, RewriteReport(added_requirements=(adds.new[0].id,))
