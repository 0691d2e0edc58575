"""Operationalization: which member sets satisfy which requirements.

The satisfaction closure extends symbolic derivation with numeric discharge:
a quantitative requirement counts as satisfied by a member set when the
values that set assigns to the condition's variables (directly, through
acyclic refinement equations, or through derived assignments) make the
condition true, using declared distributions for probability bounds.
Implications and conflicts fire only when they are members themselves.

Minimal supports are enumerated recursively over the three satisfaction
routes (membership, implication, numeric discharge), then verified and
minimalized against the closure. Every support includes the full mandatory
k/t set; minimality is judged modulo that set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Container, Iterable, Literal, Mapping

from .errors import (
    RefinementCycleError,
    ResourceLimitError,
    RoadmapperError,
    UnresolvedReferenceError,
    ValOverflowError,
    WrongSortError,
)
from .model import (
    Compare,
    Conflict,
    Distributed,
    DistributionSpec,
    G,
    Implication,
    MEMBER_SORTS,
    ProbCompare,
    Q,
    Requirement,
    RequirementsDatabase,
    S,
    SimpleQuant,
    T,
    free_variables,
)
from .inference import fire, fired_conflicts
from .quanteval import (
    MAX_VALUES_PER_VARIABLE,
    _assignment_shape,
    _eval,
    _propagate,
    check_refinement_acyclic,
    compare,
    probability,
)

DEFAULT_SEARCH_LIMIT = 2 ** 20
_COMBO_LIMIT = 4096

Route = Literal["member", "inferred", "numeric"]


@dataclass(frozen=True)
class SatisfactionClosure:
    """Everything a member set satisfies, with values and distributions."""

    members: frozenset[str]
    satisfied: frozenset[str]
    bottom: bool
    values: Mapping[str, frozenset[float]] = field(default_factory=dict)
    distributions: Mapping[str, tuple[DistributionSpec, ...]] = field(default_factory=dict)
    origin: Mapping[str, Route] = field(default_factory=dict)
    bottom_witness: frozenset[str] = frozenset()

    def __contains__(self, req_id: str) -> bool:
        return req_id in self.satisfied


def _resolve_ids(members: Iterable[Requirement | str], db: RequirementsDatabase) -> frozenset[str]:
    if isinstance(members, frozenset) and members <= db.requirements.keys():
        return members
    listed = [item.id if isinstance(item, Requirement) else item for item in members]
    # Via a set: a frozenset built from a list can get a table twice as large,
    # and each closure keeps its set as `members`.
    ids = frozenset(set(listed))
    if not ids <= db.requirements.keys():
        unknown = next(req_id for req_id in listed if req_id not in db)
        raise UnresolvedReferenceError(f"cannot resolve requirement id {unknown!r}")
    return ids


# Entries per memo table of a `ClosureIndex`; a full table is emptied.
_MEMO_LIMIT = 1024


def _grouped(pairs: Iterable[tuple[str, object]]) -> dict[str, list]:
    groups: dict[str, list] = {}
    for key, item in pairs:
        groups.setdefault(key, []).append(item)
    return groups


def _remember(table: dict, key, value):
    if len(table) >= _MEMO_LIMIT:
        table.clear()
    table[key] = value
    return value


class ClosureIndex:
    """The per-database tables that every satisfaction closure, configuration
    check and support search reads. Built once per database, on first use, as
    `RequirementsDatabase.closure_index`; rewrites return new databases,
    which build their own.

    The index also memoises the closure's numeric layer, a pure function of
    the satisfied ids: propagated values keyed by the id-ordered tuple of
    satisfied assignment ids, distribution environments keyed by the tuple of
    satisfied distribution assumptions, and each quantitative requirement's
    condition outcome keyed by both. A table that reaches `_MEMO_LIMIT`
    entries is emptied. An input that raised is not stored, so it raises
    again. Closures share the memoised `values` and `distributions`
    mappings: treat them as read-only."""

    def __init__(self, db: RequirementsDatabase):
        reqs = sorted(db, key=lambda r: r.id)
        self.implications = {r.id: r for r in reqs if isinstance(r.body, Implication)}
        self.conflicts = {r.id: r for r in reqs if isinstance(r.body, Conflict)}
        self.by_consequent = _grouped(
            (imp.body.consequent, imp) for imp in self.implications.values()
        )
        # Tasks state what execution brings about, so a task is satisfied only
        # by membership or inference; beliefs (k) and desires (q) follow from
        # values.
        self.quantitative = {
            r.id: r
            for r in reqs
            if isinstance(r.body, SimpleQuant)
            and r.sort is not T
            and not isinstance(r.body.cond, Distributed)
        }
        self.assignments = {
            r.id: shape for r in reqs if (shape := _assignment_shape(r)) is not None
        }
        # Per variable, in id order: (id, rhs, rhs variables) of each
        # assignment to it, and (id, distribution) of each assumption on it.
        self.assignments_by_var = _grouped(
            (var, (req_id, rhs, needed))
            for req_id, (var, rhs, needed) in self.assignments.items()
        )
        self.distributions = {
            r.id: (r.body.cond.var.name, r.body.cond.dist)
            for r in reqs
            if isinstance(r.body, SimpleQuant) and isinstance(r.body.cond, Distributed)
        }
        self.dists_by_var = _grouped(
            (var, (req_id, dist)) for req_id, (var, dist) in self.distributions.items()
        )
        self.member_ids = frozenset(db.member_ids())
        self.mandatory_members = tuple(db.mandatory_ids(*MEMBER_SORTS))
        self.qual_targets = tuple(db.mandatory_ids(G, S))
        self.quant_targets = tuple(db.mandatory_ids(Q))
        self.optional_members = tuple(db.optional_member_ids())
        # Every subset of an acyclic graph is acyclic, so only a database with
        # a refinement cycle needs the check on each satisfied subset.
        try:
            check_refinement_acyclic((var, rhs) for var, rhs, _ in self.assignments.values())
            self.refinement_acyclic = True
        except RefinementCycleError:
            self.refinement_acyclic = False
        self._values: dict[tuple[str, ...], dict[str, frozenset[float]]] = {}
        self._dists: dict[tuple[str, ...], dict[str, tuple[DistributionSpec, ...]]] = {}
        self._outcomes: dict[tuple[tuple[str, ...], tuple[str, ...]], dict[str, bool]] = {}

    def values_of(self, key: tuple[str, ...]) -> dict[str, frozenset[float]]:
        """`propagate_values` of the assignments `key` names, in id order."""
        values = self._values.get(key)
        if values is None:
            shapes = [self.assignments[i] for i in key]
            if not self.refinement_acyclic:
                check_refinement_acyclic((var, rhs) for var, rhs, needed in shapes if needed)
            values = _remember(self._values, key, _propagate(shapes))
        return values

    def dists_of(self, key: tuple[str, ...]) -> dict[str, tuple[DistributionSpec, ...]]:
        """The distribution environment of the assumptions `key` names."""
        dists = self._dists.get(key)
        if dists is None:
            fresh = _distribution_env(self.distributions[i] for i in key)
            dists = _remember(self._dists, key, fresh)
        return dists

    def conditions_met(
        self,
        keys: tuple[tuple[str, ...], tuple[str, ...]],
        values: Mapping[str, frozenset[float]],
        dists: Mapping[str, tuple[DistributionSpec, ...]],
        satisfied: Container[str],
    ) -> list[str]:
        """Ids of the quantitative requirements outside `satisfied` whose
        condition some combination of `values` and `dists` makes true, in id
        order. `keys` names those values and distributions in the memo."""
        outcomes = self._outcomes.get(keys)
        if outcomes is None:
            outcomes = _remember(self._outcomes, keys, {})
        met = []
        for req in self.quantitative.values():
            if req.id in satisfied:
                continue
            possible = outcomes.get(req.id)
            if possible is None:
                possible = _condition_possible(req.body.cond, values, dists)
                outcomes[req.id] = possible
            if possible:
                met.append(req.id)
        return met


def satisfaction_closure(
    members: Iterable[Requirement | str], db: RequirementsDatabase
) -> SatisfactionClosure:
    """Fixpoint of membership, implication firing, and numeric discharge.

    Each round makes one `inference.fire` pass over the member implications
    in id order, then tests every unsatisfied quantitative requirement
    against the values and distributions of the satisfied set as it stood
    when the round began; `origin` records the first route that satisfied
    each requirement.

    Round invariant: when a round begins, `values` and `dists` equal what
    `propagate_values` and the distribution environment give for the
    current satisfied set. It must hold because value propagation is not
    monotone (an equation stops firing once one of its inputs gains a second
    value), so values are recomputed from the whole satisfied set rather
    than extended, and because the round order decides both the origins and
    which error, if any, is raised. Each round looks values, distributions
    and condition outcomes up in the index's memo, which holds only what a
    computation on the same input returned.
    """
    ids = _resolve_ids(members, db)
    index = db.closure_index
    order = sorted(ids)
    origin: dict[str, Route] = {req_id: "member" for req_id in order}
    satisfied = origin.keys()  # a live view: it grows with `origin`
    member_implications = [index.implications[i] for i in order if i in index.implications]
    while True:
        keys = (
            tuple(sorted(index.assignments.keys() & satisfied)),
            tuple(sorted(index.distributions.keys() & satisfied)),
        )
        values = index.values_of(keys[0])
        dists = index.dists_of(keys[1])
        inferred = fire(member_implications, origin, "inferred")
        met = index.conditions_met(keys, values, dists, satisfied)
        for req_id in met:
            origin[req_id] = "numeric"
        if not (inferred or met):
            break
    fired = fired_conflicts(
        [index.conflicts[i] for i in index.conflicts.keys() & ids], satisfied
    )
    return SatisfactionClosure(
        members=ids,
        satisfied=frozenset(origin),
        bottom=bool(fired),
        values=values,
        distributions=dists,
        origin=origin,
        bottom_witness=fired,
    )


def _distribution_env(
    declared: Iterable[tuple[str, DistributionSpec]],
) -> dict[str, tuple[DistributionSpec, ...]]:
    by_var: dict[str, list[DistributionSpec]] = {}
    for var, dist in declared:
        bucket = by_var.setdefault(var, [])
        if dist not in bucket:
            bucket.append(dist)
    return {var: tuple(specs) for var, specs in by_var.items()}


def _env_combinations(
    variables: list[str], values: Mapping[str, frozenset[float]]
) -> Iterable[dict[str, float]]:
    pools = []
    for var in variables:
        pool = values.get(var)
        if not pool:
            return
        pools.append(sorted(pool))
    total = 1
    for pool in pools:
        total *= len(pool)
        if total > _COMBO_LIMIT:
            raise ValOverflowError("too many value combinations for one condition")
    for combo in itertools.product(*pools):
        yield dict(zip(variables, combo))


def _needed_variables(cond) -> list[str] | None:
    """The variables that `cond` needs values for, sorted, or None when no
    values can make it true."""
    if isinstance(cond, Compare):
        return sorted(free_variables(cond.lhs) | free_variables(cond.rhs))
    if isinstance(cond, ProbCompare):
        open_vars = free_variables(cond.bound) | free_variables(cond.level)
        return None if cond.var.name in open_vars else sorted(open_vars)
    return None  # Distributed conditions satisfy only by membership or inference


def _holds(cond, env: Mapping[str, float], dist: DistributionSpec | None) -> bool:
    """Whether `cond` is true under `env`, with `dist` governing the variable
    of a probability bound. An evaluation error counts as false."""
    try:
        if isinstance(cond, Compare):
            return compare(_eval(cond.lhs, env), cond.op, _eval(cond.rhs, env))
        p = probability(dist, cond.inner_op, _eval(cond.bound, env))
        return compare(p, cond.outer_op, _eval(cond.level, env))
    except RoadmapperError:
        return False


def _condition_possible(
    cond, values: Mapping[str, frozenset[float]], dists: Mapping
) -> bool:
    """Whether some combination of known values (and a declared distribution)
    makes the condition true."""
    needed = _needed_variables(cond)
    if needed is None:
        return False
    governing = dists.get(cond.var.name, ()) if isinstance(cond, ProbCompare) else (None,)
    return any(
        _holds(cond, env, dist)
        for dist in governing
        for env in _env_combinations(needed, values)
    )


def is_admissible(
    phi_set: Iterable[Requirement | str], db: RequirementsDatabase
) -> bool:
    """Whether the set is consistent and contains the mandatory k/t requirements.

    Mandatory goals, quality constraints, and softgoals are obligations a set
    must operationalize, not members it could contain, so inclusion is checked
    against the mandatory k/t subset only.
    """
    ids = _resolve_ids(phi_set, db)
    if not set(db.closure_index.mandatory_members) <= ids:
        return False
    return not satisfaction_closure(ids, db).bottom


# --- minimal-support search ---------------------------------------------------


@dataclass(frozen=True)
class Operationalization:
    """A minimal member set sufficient for the target requirement."""

    target: str
    support: frozenset[str]
    kind: Literal["qualitative", "quantitative"]


class _Budget:
    """The search nodes one call may explore, counted across all its phases.

    `keyword` of `function` sets `limit`; the error names both.
    """

    def __init__(self, limit: int, keyword: str, function: str):
        self.limit = limit
        self.keyword = keyword
        self.function = function
        self.explored = 0

    def tick(self, phase: str, n: int = 1) -> None:
        self.explored += n
        if self.explored > self.limit:
            raise ResourceLimitError(
                f"{phase} stopped after {self.explored} nodes, more than "
                f"{self.keyword}={self.limit}; the {self.keyword} keyword of "
                f"{self.function} raises it (the CLI has no option for it)"
            )


def _minimal_sets(sets: Iterable[frozenset]) -> list[frozenset]:
    """Distinct sets with strict supersets removed, in canonical order."""
    unique = sorted(set(sets), key=lambda s: (len(s), tuple(sorted(s))))
    kept: list[frozenset] = []
    for candidate in unique:
        if not any(prev < candidate for prev in kept):
            kept.append(candidate)
    return kept


class _SupportSearch:
    """Recursive enumeration of minimal satisfaction options per requirement.

    Recursion follows well-founded derivations only: a requirement or variable
    already on the path contributes nothing to its own support. Results
    computed without hitting such a guard are memoized.
    """

    def __init__(self, db: RequirementsDatabase, budget: _Budget, phase: str):
        self.db = db
        self.index = db.closure_index
        self.budget = budget
        self.phase = phase
        self.req_memo: dict[str, tuple[tuple[frozenset[str], Route], ...]] = {}
        self.unit_memo: dict[str, tuple[tuple[frozenset[str], float], ...]] = {}

    def options(
        self, req_id: str, stack: frozenset
    ) -> tuple[tuple[tuple[frozenset[str], Route], ...], bool]:
        """Minimal member sets satisfying `req_id`, tagged with their route."""
        if req_id in self.req_memo:
            return self.req_memo[req_id], False
        key = ("req", req_id)
        if key in stack:
            return (), True
        stack = stack | {key}
        req = self.db[req_id]
        tainted = False
        collected: list[tuple[frozenset[str], Route]] = []
        if req.sort in MEMBER_SORTS:
            collected.append((frozenset({req_id}), "member"))
        for imp in self.index.by_consequent.get(req_id, ()):
            combos: list[frozenset[str]] = [frozenset({imp.id})]
            for ant in sorted(imp.body.antecedents):
                ant_options, t = self.options(ant, stack)
                tainted = tainted or t
                sets = _minimal_sets([members for members, _ in ant_options])
                if not sets:
                    combos = []
                    break
                self.budget.tick(self.phase, len(combos) * len(sets))
                combos = _minimal_sets([c | s for c in combos for s in sets])
            collected.extend((c, "inferred") for c in combos)
        if req_id in self.index.quantitative:
            numeric, t = self._numeric_options(req.body.cond, stack)
            tainted = tainted or t
            collected.extend((members, "numeric") for members in numeric)
        result: list[tuple[frozenset[str], Route]] = []
        for route in ("member", "inferred", "numeric"):
            for members in _minimal_sets([m for m, r in collected if r == route]):
                result.append((members, route))
        out = tuple(result)
        if not tainted:
            self.req_memo[req_id] = out
        return out, tainted

    def _numeric_options(
        self, cond, stack: frozenset
    ) -> tuple[list[frozenset[str]], bool]:
        needed = _needed_variables(cond)
        if needed is None:
            return [], False
        combos, tainted = self._value_combos(needed, stack)
        governing: list[tuple[frozenset[str], DistributionSpec | None]] = []
        if isinstance(cond, Compare):
            governing.append((frozenset(), None))
        else:
            for dist_id, dist in self.index.dists_by_var.get(cond.var.name, ()):
                dist_options, t = self.options(dist_id, stack)
                tainted = tainted or t
                governing.extend((members, dist) for members, _ in dist_options)
        found = [
            dist_members | members
            for dist_members, dist in governing
            for members, env in combos
            if _holds(cond, env, dist)
        ]
        return _minimal_sets(found), tainted

    def _value_combos(
        self, variables: list[str], stack: frozenset
    ) -> tuple[list[tuple[frozenset[str], dict[str, float]]], bool]:
        """All ways to give each variable one value, with the members used."""
        combos: list[tuple[frozenset[str], dict[str, float]]] = [(frozenset(), {})]
        tainted = False
        for var in variables:
            units, t = self.units(var, stack)
            tainted = tainted or t
            if not units:
                return [], tainted
            self.budget.tick(self.phase, len(combos) * len(units))
            combos = [
                (members | unit_members, {**env, var: value})
                for members, env in combos
                for unit_members, value in units
            ]
        return combos, tainted

    def units(
        self, var: str, stack: frozenset
    ) -> tuple[tuple[tuple[frozenset[str], float], ...], bool]:
        """Minimal member sets that give `var` a specific value."""
        if var in self.unit_memo:
            return self.unit_memo[var], False
        key = ("var", var)
        if key in stack:
            return (), True
        stack = stack | {key}
        tainted = False
        found: list[tuple[frozenset[str], float]] = []
        for req_id, rhs, rhs_vars in self.index.assignments_by_var.get(var, ()):
            if var in rhs_vars:
                raise RefinementCycleError(
                    f"variable {var!r} is defined in terms of itself"
                )
            sat_options, t = self.options(req_id, stack)
            tainted = tainted or t
            if not sat_options:
                continue
            carriers = _minimal_sets([m for m, _ in sat_options])
            if not rhs_vars:
                try:
                    value = _eval(rhs, {})
                except RoadmapperError:
                    continue
                found.extend((c, value) for c in carriers)
                continue
            combos, t = self._value_combos(sorted(rhs_vars), stack)
            tainted = tainted or t
            for members, env in combos:
                try:
                    value = _eval(rhs, env)
                except RoadmapperError:
                    continue
                self.budget.tick(self.phase, len(carriers))
                found.extend((c | members, value) for c in carriers)
        result = self._dedupe_units(found)
        if not tainted:
            self.unit_memo[var] = result
        return result, tainted

    @staticmethod
    def _dedupe_units(
        units: list[tuple[frozenset[str], float]]
    ) -> tuple[tuple[frozenset[str], float], ...]:
        buckets: dict[float, list[frozenset[str]]] = {}
        for members, value in units:
            buckets.setdefault(value, []).append(members)
        if len(buckets) > MAX_VALUES_PER_VARIABLE:
            raise ValOverflowError("assigned-value cap exceeded during support search")
        out: list[tuple[frozenset[str], float]] = []
        for value in sorted(buckets):
            out.extend((members, value) for members in _minimal_sets(buckets[value]))
        return tuple(out)


def _minimal_supports(
    target_id: str,
    db: RequirementsDatabase,
    routes: frozenset[str],
    budget: _Budget,
) -> list[frozenset[str]]:
    mandatory = frozenset(db.closure_index.mandatory_members)
    search = _SupportSearch(db, budget, f"threshold-support search for {target_id!r}")
    options, _ = search.options(target_id, frozenset())
    parts = _minimal_sets(
        [members - mandatory for members, route in options if route in routes]
    )
    meets: dict[frozenset[str], bool] = {}

    def supported(members: frozenset[str]) -> bool:
        if members not in meets:
            closure = satisfaction_closure(members, db)
            meets[members] = not closure.bottom and target_id in closure.satisfied
        return meets[members]

    supports = []
    for part in parts:
        candidate = mandatory | part
        # Minimality modulo the mandatory set, judged by the closure itself.
        if supported(candidate) and not any(
            supported(candidate - {removed}) for removed in sorted(part)
        ):
            supports.append(candidate)
    return sorted(supports, key=lambda s: tuple(sorted(s)))


def qualitative_operationalizations(
    target: Requirement | str,
    db: RequirementsDatabase,
    *,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> tuple[Operationalization, ...]:
    """All minimal member sets from which the goal, quality constraint, or
    softgoal is deducible through implications."""
    target_id = target.id if isinstance(target, Requirement) else target
    if target_id not in db:
        raise UnresolvedReferenceError(f"cannot resolve requirement id {target_id!r}")
    if db[target_id].sort not in (G, Q, S):
        raise WrongSortError(
            f"{target_id!r} is {db[target_id].sort.value}-sorted; expected g, q, or s"
        )
    supports = _minimal_supports(
        target_id, db, frozenset({"inferred"}),
        _Budget(limit, "limit", "qualitative_operationalizations"),
    )
    return tuple(
        Operationalization(target_id, support, "qualitative") for support in supports
    )


def quantitative_operationalizations(
    target: Requirement | str,
    db: RequirementsDatabase,
    *,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> tuple[Operationalization, ...]:
    """All minimal member sets that make the quantitative condition true,
    whether by value assignments or by a declared operationalization edge."""
    target_id = target.id if isinstance(target, Requirement) else target
    if target_id not in db:
        raise UnresolvedReferenceError(f"cannot resolve requirement id {target_id!r}")
    if not isinstance(db[target_id].body, SimpleQuant):
        raise WrongSortError(f"{target_id!r} is not a quantitative requirement")
    supports = _minimal_supports(
        target_id, db, frozenset({"member", "inferred", "numeric"}),
        _Budget(limit, "limit", "quantitative_operationalizations"),
    )
    return tuple(
        Operationalization(target_id, support, "quantitative") for support in supports
    )
