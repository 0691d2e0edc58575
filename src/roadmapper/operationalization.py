"""Operationalization: which member sets satisfy which requirements.

`ClosureIndex` compiles the one table of implication and conflict rules.
The satisfaction closure runs its implication pass with numeric discharge:
a quantitative requirement counts as satisfied by a member set when the
values that set assigns to the condition's variables (directly, through
acyclic refinement equations, or through derived assignments) make the
condition true, using declared distributions for probability bounds.
Implications and conflicts fire only when they are members themselves.
The symbolic closure, `inference.closure`, is the same pass over premise
implications without numeric discharge.

Minimal supports are enumerated over the three satisfaction routes
(membership, implication, numeric discharge) as one table solved to its
least fixpoint, then verified and minimalized against the closure. Every
support includes the full mandatory k/t set; minimality is judged modulo
that set.
"""

from __future__ import annotations

import itertools

from ._record import field, record
from .errors import (
    DanglingReferenceError,
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
    K,
    MEMBER_SORTS,
    Modality,
    ProbCompare,
    Q,
    Requirement,
    RequirementsDatabase,
    S,
    SimpleQuant,
    T,
    free_variables,
)
from .quanteval import (
    MAX_VALUES_PER_VARIABLE,
    _assignment_shape,
    _eval,
    _propagate,
    check_refinement_acyclic,
    compare,
    probability,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Mapping

DEFAULT_SEARCH_LIMIT = 2 ** 20
_COMBO_LIMIT = 4096

Route = str  # "member", "inferred" or "numeric"
_Key = tuple[str, str]  # a support-search request: ("req", id) or ("var", name)


@record(frozen=True)
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
        unknown = min(ids - db.requirements.keys())  # whatever the set's order
        raise UnresolvedReferenceError(f"cannot resolve requirement id {unknown!r}")
    return ids


# Entries per memo table of a `ClosureIndex`; a full table is emptied.
_MEMO_LIMIT = 1024


def _remember(table: dict, key, value, limit: int):
    """Store `value` under `key` in `table`, emptying it first when it holds
    `limit` entries; return `value`."""
    if len(table) >= limit:
        table.clear()
    table[key] = value
    return value


class ClosureIndex:
    """The per-database tables that every satisfaction closure, configuration
    check and support search reads. Built once per database, on first use, as
    `RequirementsDatabase.closure_index`; rewrites return new databases,
    which build their own.

    Member sets are also read as int bitmasks. Of the database's `n`
    requirement ids in id order, the `i`-th has the bit `1 << (n - 1 - i)`,
    so the set bits of a mask, from the highest, list its ids in id order
    (`ids_of`), and `order_key` sorts masks as their sorted id lists sort.
    Implications are compiled as `(member bit, antecedent mask, consequent
    bit)` and conflicts as `(member bit, antecedent mask)`, both in id order.
    `satisfied_mask` runs the satisfaction rounds on them; it is the one
    satisfaction engine, and `satisfaction_closure` reads its masks back as
    ids. `inference.closure` repeats its implication pass alone.

    The index also memoises the closure's numeric layer, a pure function of
    the satisfied ids: propagated values keyed by the mask of satisfied
    assignments, distribution environments keyed by the mask of satisfied
    distribution assumptions, and quantitative requirements' condition
    outcomes keyed by both. A table that reaches `_MEMO_LIMIT` entries is
    emptied. An input that raised is not stored, so it raises again. Closures
    share the memoised `values` and `distributions` mappings: treat them as
    read-only."""

    def __init__(self, db: RequirementsDatabase):
        reqs = sorted(db, key=lambda r: r.id)
        # Each table in id order, filled in one pass. Per consequent, the
        # implications that derive it; per variable, (id, rhs, rhs
        # variables) of each assignment to it and (id, distribution) of each
        # assumption on it.
        self.implications, self.conflicts, self.quantitative = {}, {}, {}
        self.assignments, self.distributions = {}, {}
        self.by_consequent, self.assignments_by_var, self.dists_by_var = {}, {}, {}
        member_ids, mandatory, optional, qual, quant = [], [], [], [], []
        for r in reqs:
            body, sort, modality = r.body, r.sort, r.modality
            if isinstance(body, Implication):
                self.implications[r.id] = r
                self.by_consequent.setdefault(body.consequent, []).append(r)
            elif isinstance(body, Conflict):
                self.conflicts[r.id] = r
            elif isinstance(body, SimpleQuant):
                cond = body.cond
                if isinstance(cond, Distributed):
                    self.distributions[r.id] = (cond.var.name, cond.dist)
                    self.dists_by_var.setdefault(cond.var.name, []).append((r.id, cond.dist))
                elif sort is not T:
                    # Tasks state what execution brings about, so a task is
                    # satisfied only by membership or inference; beliefs (k)
                    # and desires (q) follow from values.
                    self.quantitative[r.id] = r
                if (shape := _assignment_shape(r)) is not None:
                    self.assignments[r.id] = shape
                    var, rhs, needed = shape
                    self.assignments_by_var.setdefault(var, []).append((r.id, rhs, needed))
            if sort is K or sort is T:  # MEMBER_SORTS, without hashing an enum
                member_ids.append(r.id)
                if modality is Modality.MANDATORY:
                    mandatory.append(r.id)
                elif modality is Modality.OPTIONAL:
                    optional.append(r.id)
            elif modality is Modality.MANDATORY:
                (quant if sort is Q else qual).append(r.id)
        self.member_ids = frozenset(member_ids)
        self.mandatory_members = tuple(mandatory)
        self.qual_targets = tuple(qual)
        self.quant_targets = tuple(quant)
        self.optional_members = tuple(optional)
        # Every subset of an acyclic graph is acyclic, so only a database with
        # a refinement cycle needs the check on each satisfied subset.
        try:
            check_refinement_acyclic((var, rhs) for var, rhs, _ in self.assignments.values())
            self.refinement_acyclic = True
        except RefinementCycleError:
            self.refinement_acyclic = False

        self.ids = [r.id for r in reqs]
        top = len(self.ids) - 1
        self.bit = {req_id: 1 << (top - i) for i, req_id in enumerate(self.ids)}
        mask = self.mask
        try:
            self.implication_bits = [
                (self.bit[i], mask(r.body.antecedents), self.bit[r.body.consequent])
                for i, r in self.implications.items()
            ]
            self.conflict_bits = [
                (self.bit[i], mask(r.body.antecedents)) for i, r in self.conflicts.items()
            ]
        except KeyError as exc:
            # Only a database built without validation gets here.
            ref = exc.args[0]
            rules = {**self.implications, **self.conflicts}
            who = min(i for i, r in rules.items() if ref in r.references())
            raise DanglingReferenceError(f"{who!r} references unknown id {ref!r}") from None
        self.conflict_mask = mask(self.conflicts)
        self.quantitative_mask = mask(self.quantitative)
        self.assignment_mask = mask(self.assignments)
        self.distribution_mask = mask(self.distributions)
        self.mandatory_mask = mask(self.mandatory_members)
        self.qual_mask = mask(self.qual_targets)
        self.quant_mask = mask(self.quant_targets)
        self.optional_bits = [self.bit[i] for i in self.optional_members]
        self._values: dict[int, dict[str, frozenset[float]]] = {}
        self._dists: dict[int, dict[str, tuple[DistributionSpec, ...]]] = {}
        # Per (values key, distributions key): the mask of quantitative
        # requirements tested so far and the mask of those found possible.
        self._outcomes: dict[tuple[int, int], list[int]] = {}

    def mask(self, ids: Iterable[str]) -> int:
        """The bitmask of `ids`, each an id of the database."""
        bit = self.bit
        mask = 0
        for req_id in ids:
            mask |= bit[req_id]
        return mask

    def ids_of(self, mask: int) -> list[str]:
        """The ids whose bits `mask` sets, in id order."""
        ids = self.ids
        n = len(ids)
        found = []
        while mask:
            length = mask.bit_length()
            found.append(ids[n - length])
            mask ^= 1 << (length - 1)
        return found

    def order_key(self, mask: int) -> int:
        """A sort key that orders masks as their sorted id lists order.

        In that order the nonempty sets run through a preorder walk of the
        tree whose children of a set add one id above its last. A nonempty
        set's rank there is its size, plus `2 ** n`, minus the mask, minus
        the bit of its last id (telescoping the sizes of the subtrees it
        passes), so the key drops the constant and puts the empty set first.
        """
        if not mask:
            return -(1 << len(self.ids))
        return mask.bit_count() - mask - (mask & -mask)

    def values_of(self, key: int) -> dict[str, frozenset[float]]:
        """`propagate_values` of the assignments `key` masks, in id order."""
        values = self._values.get(key)
        if values is None:
            shapes = [self.assignments[i] for i in self.ids_of(key)]
            if not self.refinement_acyclic:
                check_refinement_acyclic((var, rhs) for var, rhs, needed in shapes if needed)
            values = _remember(self._values, key, _propagate(shapes), _MEMO_LIMIT)
        return values

    def dists_of(self, key: int) -> dict[str, tuple[DistributionSpec, ...]]:
        """The distribution environment of the assumptions `key` masks."""
        dists = self._dists.get(key)
        if dists is None:
            fresh = _distribution_env(self.distributions[i] for i in self.ids_of(key))
            dists = _remember(self._dists, key, fresh, _MEMO_LIMIT)
        return dists

    def conditions_met(
        self,
        keys: tuple[int, int],
        values: Mapping[str, frozenset[float]],
        dists: Mapping[str, tuple[DistributionSpec, ...]],
        open_mask: int,
    ) -> int:
        """The mask of the quantitative requirements in `open_mask` whose
        condition some combination of `values` and `dists` makes true; each is
        tested in id order. `keys` names those values and distributions in
        the memo."""
        outcomes = self._outcomes.get(keys)
        if outcomes is None:
            outcomes = _remember(self._outcomes, keys, [0, 0], _MEMO_LIMIT)
        for req_id in self.ids_of(open_mask & ~outcomes[0]):
            if _condition_possible(self.quantitative[req_id].body.cond, values, dists):
                outcomes[1] |= self.bit[req_id]
            outcomes[0] |= self.bit[req_id]
        return open_mask & outcomes[1]

    def satisfied_mask(self, members: int, numeric: list[int] | None = None) -> int:
        """What the member set `members` satisfies, in rounds: one
        implication pass over the member implications in id order, then a
        test of each unsatisfied quantitative requirement against the values
        and distributions of the satisfied set as it stood when the round
        began, until a round adds nothing. Values are recomputed from the
        whole satisfied set each round, not extended, because propagation is
        not monotone (an equation stops firing once an input gains a second
        value); the round order decides the routes and which error, if any,
        is raised. When `numeric` is a list, each round that tests appends
        the mask of the requirements it met."""
        implications = [
            (ant, con) for bit, ant, con in self.implication_bits if members & bit
        ]
        satisfied = members
        keys = None
        while True:
            round_keys = (satisfied & self.assignment_mask, satisfied & self.distribution_mask)
            # A round whose keys did not change reads the same memo entries.
            if round_keys != keys:
                keys = round_keys
                values = self.values_of(keys[0])
                dists = self.dists_of(keys[1])
            start = satisfied
            for ant, con in implications:
                if ant & satisfied == ant:
                    satisfied |= con
            open_mask = self.quantitative_mask & ~satisfied
            if open_mask:
                met = self.conditions_met(keys, values, dists, open_mask)
                if numeric is not None:
                    numeric.append(met)
                satisfied |= met
            if satisfied == start:
                return satisfied

    def fired_mask(self, members: int, satisfied: int) -> int:
        """The member conflicts whose antecedents are all in `satisfied`."""
        fired = 0
        for bit, ant in self.conflict_bits:
            if members & bit and ant & satisfied == ant:
                fired |= bit
        return fired

    def verdict(self, members: int) -> int:
        """The fired member conflicts and unmet mandatory targets of the
        member set `members`, as one mask: zero when it is consistent and
        operationalizes every mandatory target. Conflicts are k-sorted and
        targets g-, s- or q-sorted, so the two parts never share a bit."""
        satisfied = self.satisfied_mask(members)
        return self.fired_mask(members, satisfied) | (
            (self.qual_mask | self.quant_mask) & ~satisfied
        )


def satisfaction_closure(
    members: Iterable[Requirement | str], db: RequirementsDatabase
) -> SatisfactionClosure:
    """Fixpoint of membership, implication firing, and numeric discharge.

    A view of `ClosureIndex.satisfied_mask`, read back as ids: `values` and
    `distributions` are those of the satisfied set, from the index's memo,
    and `origin` names, in id order, the route that first satisfied each
    requirement: `member`, `numeric` when a round's numeric layer met it,
    and `inferred` otherwise.
    """
    ids = _resolve_ids(members, db)
    index = db.closure_index
    member_mask = index.mask(ids)
    rounds: list[int] = []
    satisfied = index.satisfied_mask(member_mask, rounds)
    origin: dict[str, Route] = dict.fromkeys(index.ids_of(satisfied), "inferred")
    for met in rounds:
        origin.update(dict.fromkeys(index.ids_of(met), "numeric"))
    origin.update(dict.fromkeys(ids, "member"))
    fired = frozenset(index.ids_of(index.fired_mask(member_mask, satisfied)))
    return SatisfactionClosure(
        members=ids,
        satisfied=frozenset(origin),
        bottom=bool(fired),
        values=index.values_of(satisfied & index.assignment_mask),
        distributions=index.dists_of(satisfied & index.distribution_mask),
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


@record(frozen=True)
class Operationalization:
    """A minimal member set sufficient for the target requirement."""

    target: str
    support: frozenset[str]
    kind: str  # "qualitative" or "quantitative"


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


def _minimal_masks(masks: Iterable[int], order_key) -> list[int]:
    """Distinct masks with strict supersets removed, in canonical order."""
    unique = sorted(set(masks), key=lambda m: (m.bit_count(), order_key(m)))
    kept: list[int] = []
    # Distinct masks of one size hold no strict subsets of each other, so
    # each is tested only against the `smaller` masks kept before its size.
    size = smaller = 0
    for mask in unique:
        if mask.bit_count() != size:
            size, smaller = mask.bit_count(), len(kept)
        for i in range(smaller):
            if kept[i] & mask == kept[i]:
                break
        else:
            kept.append(mask)
    return kept


class _SupportSearch:
    """Minimal satisfaction options per key, as one table solved to its least
    fixpoint (tabled evaluation, Chen & Warren 1996).

    A key is `("req", id)` or `("var", name)`. A req option is a member set,
    as a mask of the closure index, tagged with the route that satisfies the
    requirement; a var option is `(members, value, variables read)`. A key
    enters the table at `()` when it is first read, above its reader in an
    insertion-ordered work dict that is evaluated last in first out. An
    evaluation that read a new key is dropped, and its key evaluated again
    after the new ones; a key is evaluated again only when a key it read
    changes (Fecht & Seidl 1999). Readers are kept in dicts, so the order of
    evaluation does not depend on the hash seed. Every call of `options`
    leaves the table at its fixpoint, so later calls share it.
    """

    def __init__(self, db: RequirementsDatabase, budget: _Budget):
        self.db = db
        self.index = db.closure_index
        self.budget = budget
        self.table: dict[_Key, tuple] = {}
        self.readers: dict[_Key, dict[_Key, None]] = {}
        self.work: dict[_Key, None] = {}
        self.current: _Key | None = None

    def read(self, key: _Key) -> tuple:
        """The options of `key` in the table, read by the key being evaluated;
        a key new to the table enters it at `()`, on top of the work."""
        if key not in self.table:
            self.table[key] = ()
            self.readers[key] = {}
            self.work[key] = None
        if self.current:
            self.readers[key][self.current] = None
        return self.table[key]

    def options(self, req_id: str, phase: str) -> tuple[tuple[int, Route], ...]:
        """Minimal member masks satisfying `req_id`, tagged with their route;
        the nodes explored count as `phase`."""
        self.phase, self.current = phase, None
        root = ("req", req_id)
        self.read(root)
        table, work = self.table, self.work
        while work:
            key = self.current = next(reversed(work))
            kind, name = key
            value = self._req(name) if kind == "req" else self._var(name)
            if next(reversed(work)) == key:  # it read no new key
                del work[key]
                if value != table[key]:
                    table[key] = value
                    work.update(self.readers[key])
        return table[root]

    def _req(self, req_id: str) -> tuple[tuple[int, Route], ...]:
        req = self.db[req_id]
        index = self.index
        order_key = index.order_key
        collected: list[tuple[int, Route]] = []
        if req.sort in MEMBER_SORTS:
            collected.append((index.bit[req_id], "member"))
        for imp in index.by_consequent.get(req_id, ()):
            ant_options = [self.read(("req", ant)) for ant in sorted(imp.body.antecedents)]
            combos = [index.bit[imp.id]]
            for options in ant_options:
                masks = _minimal_masks([m for m, _ in options], order_key)
                if not masks:
                    combos = []
                    break
                self.budget.tick(self.phase, len(combos) * len(masks))
                combos = _minimal_masks([c | m for c in combos for m in masks], order_key)
            collected.extend((c, "inferred") for c in combos)
        if req_id in index.quantitative:
            collected.extend((m, "numeric") for m in self._numeric(req.body.cond))
        result: list[tuple[int, Route]] = []
        for route in ("member", "inferred", "numeric"):
            same_route = [m for m, r in collected if r == route]
            result.extend((m, route) for m in _minimal_masks(same_route, order_key))
        return tuple(result)

    def _numeric(self, cond) -> list[int]:
        needed = _needed_variables(cond)
        if needed is None:
            return []
        combos = self._combos(needed)
        governing: list[tuple[int, DistributionSpec | None]] = []
        if isinstance(cond, Compare):
            governing.append((0, None))
        else:
            for dist_id, dist in self.index.dists_by_var.get(cond.var.name, ()):
                governing.extend((m, dist) for m, _ in self.read(("req", dist_id)))
        found = [
            dist_members | members
            for dist_members, dist in governing
            for members, env, _ in combos
            if _holds(cond, env, dist)
        ]
        return _minimal_masks(found, self.index.order_key)

    def _combos(
        self, variables: list[str]
    ) -> list[tuple[int, dict[str, float], frozenset[str]]]:
        """All ways to give each variable one value: the members used, the
        values and the variables whose values the derivations read."""
        units = [self.read(("var", var)) for var in variables]
        combos: list[tuple[int, dict[str, float], frozenset[str]]] = [(0, {}, frozenset())]
        for var, options in zip(variables, units):
            if not options:
                return []
            self.budget.tick(self.phase, len(combos) * len(options))
            combos = [
                (members | unit_members, {**env, var: value}, reads | unit_reads | {var})
                for members, env, reads in combos
                for unit_members, value, unit_reads in options
            ]
        return combos

    def _var(self, var: str) -> tuple[tuple[int, float, frozenset[str]], ...]:
        """Minimal options that give `var` one value, in value order; a mask
        reads what any of its derivations read. A derivation that reads `var`,
        by its own right-hand side or through its reads, is dropped: on its
        members the closure raises `RefinementCycleError`."""
        order_key = self.index.order_key
        found: dict[float, dict[int, frozenset[str]]] = {}  # per value, reads per mask
        for req_id, rhs, rhs_vars in self.index.assignments_by_var.get(var, ()):
            if var in rhs_vars:
                continue
            carriers = _minimal_masks([m for m, _ in self.read(("req", req_id))], order_key)
            for members, env, reads in self._combos(sorted(rhs_vars)):
                if not carriers or var in reads:
                    continue
                try:
                    value = _eval(rhs, env)
                except RoadmapperError:
                    continue
                if rhs_vars:
                    self.budget.tick(self.phase, len(carriers))
                same = found.setdefault(value, {})
                for c in carriers:
                    same[c | members] = same.get(c | members, reads) | reads
        if len(found) > MAX_VALUES_PER_VARIABLE:
            raise ValOverflowError("assigned-value cap exceeded during support search")
        return tuple(
            (members, value, found[value][members])
            for value in sorted(found)
            for members in _minimal_masks(found[value], order_key)
        )


def _minimal_supports(
    target_id: str, search: _SupportSearch, routes: frozenset[str]
) -> list[int]:
    """The masks of the minimal member sets that satisfy `target_id` by one
    of `routes`, each holding every mandatory member, in canonical order."""
    index = search.index
    options = search.options(target_id, f"threshold-support search for {target_id!r}")
    parts = _minimal_masks(
        [m & ~index.mandatory_mask for m, route in options if route in routes],
        index.order_key,
    )
    target = index.bit[target_id]
    meets: dict[int, bool] = {}

    def supported(members: int) -> bool:
        if members not in meets:
            satisfied = index.satisfied_mask(members)
            meets[members] = bool(satisfied & target) and not index.fired_mask(
                members, satisfied
            )
        return meets[members]

    supports = []
    for part in parts:
        candidate = index.mandatory_mask | part
        # Minimality modulo the mandatory set, judged by the closure itself.
        if supported(candidate) and not any(
            supported(candidate ^ index.bit[removed]) for removed in index.ids_of(part)
        ):
            supports.append(candidate)
    return sorted(supports, key=index.order_key)


def _operationalizations(
    target: Requirement | str,
    db: RequirementsDatabase,
    sort_ok: Callable[[Requirement], bool],
    wrong_sort: str,
    routes: frozenset[str],
    budget: _Budget,
    kind: str,
) -> tuple[Operationalization, ...]:
    """The minimal supports of `target` by `routes`, as operationalizations
    of `kind`. A target that fails `sort_ok` raises `wrong_sort`, formatted
    with its `id` and `sort`."""
    target_id = target.id if isinstance(target, Requirement) else target
    if target_id not in db:
        raise UnresolvedReferenceError(f"cannot resolve requirement id {target_id!r}")
    if not sort_ok(db[target_id]):
        raise WrongSortError(wrong_sort.format(id=target_id, sort=db[target_id].sort.value))
    ids_of = db.closure_index.ids_of
    return tuple(
        Operationalization(target_id, frozenset(ids_of(support)), kind)
        for support in _minimal_supports(target_id, _SupportSearch(db, budget), routes)
    )


def qualitative_operationalizations(
    target: Requirement | str,
    db: RequirementsDatabase,
    *,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> tuple[Operationalization, ...]:
    """All minimal member sets from which the goal, quality constraint, or
    softgoal is deducible through implications."""
    return _operationalizations(
        target, db, lambda req: req.sort in (G, Q, S),
        "{id!r} is {sort}-sorted; expected g, q, or s", frozenset({"inferred"}),
        _Budget(limit, "limit", "qualitative_operationalizations"), "qualitative",
    )


def quantitative_operationalizations(
    target: Requirement | str,
    db: RequirementsDatabase,
    *,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> tuple[Operationalization, ...]:
    """All minimal member sets that make the quantitative condition true,
    whether by value assignments or by a declared operationalization edge.

    Each derivation gives a variable one value. Where the mandatory members
    already give a variable two values, the closure fires no equation over
    it, so a support may be missed; `enumerate_configurations` expands
    value conflicts first and is not affected."""
    return _operationalizations(
        target, db, lambda req: isinstance(req.body, SimpleQuant),
        "{id!r} is not a quantitative requirement",
        frozenset({"member", "inferred", "numeric"}),
        _Budget(limit, "limit", "quantitative_operationalizations"), "quantitative",
    )
