"""Checking and enumerating requirements configurations.

A configuration is a set of domain-assumption and task requirements that is
consistent, operationalizes every mandatory goal/softgoal and every mandatory
quality constraint, includes all mandatory k/t requirements, is maximal with
respect to optional k/t requirements, and is minimal beyond that.

The search works on int bitmasks of the database's `ClosureIndex`: of its `n`
requirement ids in id order, the `i`-th has the bit `1 << (n - 1 - i)`.
Member sets, support options, threshold coverages, `needed` and the verdict
cache's keys are masks; frozensets appear only where `Configuration`s and
`PropertyReport`s are built. A verdict (`ClosureIndex.verdict`) is one mask
too: the fired member conflicts and the unmet mandatory targets. It comes from
`ClosureIndex.satisfied_mask`, the one satisfaction engine;
`operationalization.satisfaction_closure` reads its masks back as ids.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Iterator

from ._record import field, fields, record
from .errors import ResourceLimitError, UnresolvedReferenceError, WrongSortError
from .model import MEMBER_SORTS, Modality, RequirementsDatabase
from .operationalization import (
    DEFAULT_SEARCH_LIMIT,
    _Budget,
    _minimal_masks,
    _minimal_supports,
    _remember,
    _SupportSearch,
)

DEFAULT_MAX_ATOMS = 24

# Entries of one verdict cache; a full cache is emptied. Repeat lookups mostly
# follow soon after the first, so emptying costs few recomputations: on the
# 54-atom generated model (tasks=14, seed 0) this limit computes 9% more
# verdicts than an unbounded cache (711,576 against 651,520), at 25 MB peak
# RSS instead of 70 MB. LAS and the benchmark's generated models ask for at
# most 8,462 verdicts, so their caches are never emptied.
_VERDICT_LIMIT = 2 ** 16


@record(frozen=True)
class Configuration:
    """A candidate or validated member set, identified by a synthesized label."""

    id: str
    members: frozenset[str]

    @property
    def canonical_key(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))

    @staticmethod
    def from_members(members: Iterable[str], label: str | None = None) -> "Configuration":
        members = frozenset(members)
        if label is None:
            # Imported here: hashlib loads OpenSSL, about 4 MB and 5 ms that
            # the CLI commands, which never label a set this way, would pay.
            import hashlib

            key = "\0".join(sorted(members)).encode()
            label = "cfg-" + hashlib.blake2b(key, digest_size=4).hexdigest()
        return Configuration(label, members)


@record(frozen=True)
class PropertyCheck:
    ok: bool
    witness: tuple[str, ...] = ()


@record(frozen=True)
class PropertyReport:
    consistency: PropertyCheck
    qual_threshold: PropertyCheck
    quant_threshold: PropertyCheck
    conformity: PropertyCheck
    dominance: PropertyCheck
    minimality: PropertyCheck

    @property
    def is_configuration(self) -> bool:
        return not self.failing()

    def failing(self) -> list[str]:
        return [name for name in PROPERTY_NAMES if not getattr(self, name).ok]


# The six properties in the order a report lists them.
PROPERTY_NAMES = tuple(f.name for f in fields(PropertyReport))

# The report of a configuration: all six properties hold, with no witnesses.
_PASSED = PropertyReport(*[PropertyCheck(True)] * 6)


@record(frozen=True)
class EnumerationResult:
    """Configurations found, the database they refer to (value conflicts
    expanded), whether the result list was truncated, the property report of
    each configuration, in the same order, and the minimal supports of each
    mandatory goal, softgoal and quality constraint, as id sets in canonical
    order (empty when some target has none, and so no configuration)."""

    database: RequirementsDatabase
    configurations: tuple[Configuration, ...]
    truncated: bool = False
    reports: tuple[PropertyReport, ...] = ()
    supports: dict[str, tuple[frozenset[str], ...]] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.configurations)

    def __len__(self) -> int:
        return len(self.configurations)


def _member_ids(db: RequirementsDatabase, s: Configuration | Iterable[str]) -> frozenset[str]:
    members = s.members if isinstance(s, Configuration) else frozenset(s)
    if not members <= db.closure_index.member_ids:
        # The first offending member in id order names the error.
        for req_id in sorted(members):
            if req_id not in db:
                raise UnresolvedReferenceError(
                    f"configuration member {req_id!r} not in database"
                )
            if db[req_id].sort not in MEMBER_SORTS:
                raise WrongSortError(
                    f"configuration member {req_id!r} is {db[req_id].sort.value}-sorted; "
                    "only domain assumptions and tasks may be members"
                )
    return members


class _Search:
    """The state of one search over a database: its closure index, the
    verdict cache and the node budget every phase draws on. A check walks
    nothing, so it has no budget. Member sets are masks of the index."""

    def __init__(
        self, db: RequirementsDatabase, budget: _Budget | None, verdicts: dict
    ):
        self.db = db
        self.index = db.closure_index
        self.budget = budget
        self.verdicts = verdicts

    def verdict(self, members: int) -> int:
        """`ClosureIndex.verdict` on `members`, from the cache or computed."""
        verdict = self.verdicts.get(members)
        if verdict is None:
            verdict = _remember(
                self.verdicts, members, self.index.verdict(members), _VERDICT_LIMIT
            )
        return verdict

    def consistent(self, members: int) -> bool:
        return not self.verdict(members) & self.index.conflict_mask

    def addable(self, members: int) -> int:
        """The optional k/t requirements that could still be added; zero
        means dominant."""
        found = 0
        for opt in self.index.optional_bits:
            if not members & opt and self.consistent(members | opt):
                found |= opt
        return found

    def satisfies_1_to_5(self, members: int) -> bool:
        mandatory = self.index.mandatory_mask
        return (
            not self.verdict(members)
            and members & mandatory == mandatory
            and not self.addable(members)
        )

    def check(self, members: int, needed: int) -> PropertyReport:
        """`check_configuration` of `members`; dropping a member of `needed`
        is known to fail properties 1-4, so minimality skips it."""
        index = self.index
        verdict = self.verdict(members)
        missing_mandatory = index.mandatory_mask & ~members
        base_ok = not (verdict or missing_mandatory)
        addable = self.addable(members) if base_ok else 0
        removable = 0
        if base_ok and not addable:
            for req_id in index.ids_of(members & ~(index.mandatory_mask | needed)):
                if self.satisfies_1_to_5(members ^ index.bit[req_id]):
                    removable |= index.bit[req_id]
            if not removable:
                return _PASSED

        def listed(witness: int) -> PropertyCheck:
            """The property holds when its witness mask is empty."""
            ids = tuple(index.ids_of(witness))
            return PropertyCheck(not ids, ids)

        return PropertyReport(
            listed(verdict & index.conflict_mask),
            listed(verdict & index.qual_mask),
            listed(verdict & index.quant_mask),
            listed(missing_mandatory),
            listed(addable)
            if base_ok
            else PropertyCheck(False, ("properties 1-4 not satisfied",)),
            listed(removable)
            if base_ok and not addable
            else PropertyCheck(False, ("properties 1-5 not satisfied",)),
        )

    def walk(self, base: int, candidates: Iterable[int], phase: str) -> Iterator[int]:
        """Every consistent set of `base` plus some `candidates` bits, from an
        include/exclude walk: an inconsistent set cannot become consistent
        again, so it prunes its subtree. Each set visited is one node."""
        if not self.consistent(base):
            return
        candidates = [c for c in candidates if not base & c]
        stack = [(base, 0)]
        while stack:
            current, i = stack.pop()
            self.budget.tick(phase)
            if i == len(candidates):
                yield current
                continue
            stack.append((current, i + 1))
            grown = current | candidates[i]
            if self.consistent(grown):
                stack.append((grown, i + 1))


def check_configuration(
    db: RequirementsDatabase, s: Configuration | Iterable[str]
) -> PropertyReport:
    """Evaluate the six configuration properties, with witnesses for failures."""
    members = _member_ids(db, s)
    search = _Search(db, None, {})
    return search.check(db.closure_index.mask(members), 0)


def _relevant_plains(
    db: RequirementsDatabase, budget: _Budget
) -> tuple[list[int], list[int], dict[str, tuple[frozenset[str], ...]]]:
    """Minimal threshold coverages and the plain members worth adding to
    them, as masks and bits of the closure index, and each mandatory
    target's minimal supports, as id sets (all empty when a target has none).

    Beyond threshold support (captured by the coverages), a plain member can
    earn its place in a configuration only by blocking an optional addition
    through a conflict, so the extra candidate pool is limited to supports of
    antecedents of conflicts that some optional requirement could help fire.
    """
    index = db.closure_index
    search = _SupportSearch(db, budget)
    coverages = [index.mandatory_mask]
    by_target = {}
    for target in index.qual_targets + index.quant_targets:
        routes = (
            frozenset({"inferred"})
            if target in index.qual_targets
            else frozenset({"member", "inferred", "numeric"})
        )
        supports = _minimal_supports(target, search, routes)
        if not supports:
            return [], [], {}
        by_target[target] = tuple(frozenset(index.ids_of(s)) for s in supports)
        budget.tick("threshold-support combination", len(coverages) * len(supports))
        coverages = _minimal_masks(
            [base | support for base in coverages for support in supports],
            index.order_key,
        )

    optional_mask = index.mask(index.optional_members)
    pool = 0
    for req in index.conflicts.values():
        reach = 0  # every member of some option of some antecedent
        for ant in sorted(req.body.antecedents):
            for members, _route in search.options(ant, "conflict-pool support search"):
                reach |= members
        if req.modality is Modality.OPTIONAL or reach & optional_mask:
            pool |= index.bit[req.id] | reach
    # Conflicts, implications and the member sorts are all k or t, so every
    # bit of the pool is a member: the plain ones are neither of the others.
    plains = pool & ~(index.mandatory_mask | optional_mask)
    return coverages, [index.bit[req_id] for req_id in index.ids_of(plains)], by_target


def enumerate_configurations(
    db: RequirementsDatabase,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    max_results: int | None = None,
    search_limit: int = DEFAULT_SEARCH_LIMIT,
) -> EnumerationResult:
    """All configurations of `db`, in canonical order.

    The value-conflict expansion runs first so no configuration can assign two
    different values to one variable. Results are complete relative to the
    limits; hitting `max_results` sets the truncated flag.
    """
    atom_count = len(db.member_ids())
    if atom_count > max_atoms:
        raise ResourceLimitError(
            f"database has {atom_count} k/t requirements; limit is {max_atoms}"
        )
    from .transforms import expand_value_conflicts

    db, _ = expand_value_conflicts(db)
    search = _Search(
        db, _Budget(search_limit, "search_limit", "enumerate_configurations"), {}
    )
    index = search.index
    coverages, plains, supports = _relevant_plains(db, search.budget)
    # Grow each minimal coverage with every useful subset of the remaining
    # plain candidates, then each grown base with its maximal sets of
    # optional members.
    bases = {
        grown
        for coverage in coverages
        for grown in search.walk(coverage, plains, "configuration growth")
    }
    candidates = {
        extended
        for base in sorted(bases, key=index.order_key)
        for extended in search.walk(
            base, index.optional_bits, "optional extension of a base"
        )
        if not search.addable(extended)
    }

    found = []
    for members in sorted(candidates, key=index.order_key):
        # Minimality is tested only on a set that passed properties 1-5, so a
        # consistent one. Dropping a non-mandatory member of every coverage
        # inside it leaves a set that is still consistent, because bottom is
        # monotone after value-conflict expansion, and that holds no coverage.
        # A consistent set that holds the mandatory members and meets every
        # mandatory target holds a coverage, so that set misses a target.
        # Both properties are tested exhaustively on generated models.
        inside = [c for c in coverages if c & members == c]
        needed = functools.reduce(operator.and_, inside) if inside else 0
        if search.check(members, needed).is_configuration:
            found.append(members)

    truncated = max_results is not None and len(found) > max_results
    if truncated:
        found = found[:max_results]
    labeled = tuple(
        Configuration(f"S{i}", frozenset(index.ids_of(members)))
        for i, members in enumerate(found, start=1)
    )
    # Every report that passes all six properties equals _PASSED.
    return EnumerationResult(db, labeled, truncated, (_PASSED,) * len(labeled), supports)
