"""Checking and enumerating requirements configurations.

A configuration is a set of domain-assumption and task requirements that is
consistent, operationalizes every mandatory goal/softgoal and every mandatory
quality constraint, includes all mandatory k/t requirements, is maximal with
respect to optional k/t requirements, and is minimal beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import ResourceLimitError, UnresolvedReferenceError, WrongSortError
from .model import MEMBER_SORTS, Modality, RequirementsDatabase
from .operationalization import (
    DEFAULT_SEARCH_LIMIT,
    _minimal_sets,
    _minimal_supports,
    _search_limit_error,
    _SupportSearch,
    satisfaction_closure,
)

DEFAULT_MAX_ATOMS = 24

# Entries per verdict cache; a full cache is emptied. Repeat lookups mostly
# follow soon after the first, so emptying costs few recomputations: 9% more
# closures than an unbounded cache on a 54-atom generated model.
_VERDICT_LIMIT = 2 ** 16


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PropertyCheck:
    ok: bool
    witness: tuple[str, ...] = ()


@dataclass(frozen=True)
class PropertyReport:
    consistency: PropertyCheck
    qual_threshold: PropertyCheck
    quant_threshold: PropertyCheck
    conformity: PropertyCheck
    dominance: PropertyCheck
    minimality: PropertyCheck

    @property
    def is_configuration(self) -> bool:
        return all(
            check.ok
            for check in (
                self.consistency,
                self.qual_threshold,
                self.quant_threshold,
                self.conformity,
                self.dominance,
                self.minimality,
            )
        )

    def failing(self) -> list[str]:
        names = (
            "consistency",
            "qual_threshold",
            "quant_threshold",
            "conformity",
            "dominance",
            "minimality",
        )
        return [name for name in names if not getattr(self, name).ok]


# The report of a configuration: all six properties hold, with no witnesses.
_PASSED = PropertyReport(*[PropertyCheck(True)] * 6)


@dataclass(frozen=True)
class EnumerationResult:
    """Configurations found, the database they refer to (value conflicts
    expanded), whether the result list was truncated, and the property
    report of each configuration, in the same order."""

    database: RequirementsDatabase
    configurations: tuple[Configuration, ...]
    truncated: bool = False
    reports: tuple[PropertyReport, ...] = ()

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


class _Verdict(NamedTuple):
    """What the enumerator reads of a member set's satisfaction closure."""

    witness: frozenset[str]  # the fired conflicts; empty when consistent
    missing_qual: tuple[str, ...]  # unmet mandatory qualitative targets
    missing_quant: tuple[str, ...]  # unmet mandatory quantitative targets


# Shared by every consistent verdict: each closure builds its own empty witness.
_CONSISTENT = frozenset()


def _verdict(db: RequirementsDatabase, members: frozenset[str], cache: dict) -> _Verdict:
    """The verdict on `members`, from `cache` or from a satisfaction closure
    that is dropped once the verdict is taken."""
    verdict = cache.get(members)
    if verdict is None:
        closure = satisfaction_closure(members, db)
        index = db.closure_index
        verdict = _Verdict(
            closure.bottom_witness or _CONSISTENT,
            tuple(t for t in index.qual_targets if t not in closure.satisfied),
            tuple(t for t in index.quant_targets if t not in closure.satisfied),
        )
        if len(cache) >= _VERDICT_LIMIT:
            cache.clear()
        cache[members] = verdict
    return verdict


def _satisfies_1_to_4(
    db: RequirementsDatabase, members: frozenset[str], cache: dict
) -> bool:
    verdict = _verdict(db, members, cache)
    if verdict.witness or verdict.missing_qual or verdict.missing_quant:
        return False
    return members.issuperset(db.closure_index.mandatory_members)


def _dominant(db: RequirementsDatabase, members: frozenset[str], cache: dict) -> list[str]:
    """Optional k/t requirements that could still be added; empty means dominant."""
    addable = []
    for opt in db.closure_index.optional_members:
        if opt in members:
            continue
        if not _verdict(db, members | {opt}, cache).witness:
            addable.append(opt)
    return addable


def _satisfies_1_to_5(
    db: RequirementsDatabase, members: frozenset[str], cache: dict
) -> bool:
    return _satisfies_1_to_4(db, members, cache) and not _dominant(db, members, cache)


def check_configuration(
    db: RequirementsDatabase,
    s: Configuration | Iterable[str],
    cache: dict | None = None,
) -> PropertyReport:
    """Evaluate the six configuration properties, with witnesses for failures.

    `cache` holds verdicts on member sets, not closures; pass one dict to
    several checks of the same database to share them.
    """
    return _check(db, _member_ids(db, s), {} if cache is None else cache, frozenset())


def _check(
    db: RequirementsDatabase,
    members: frozenset[str],
    cache: dict,
    needed: frozenset[str],
) -> PropertyReport:
    """`check_configuration` of validated `members`; dropping a member of
    `needed` is known to fail properties 1-4, so minimality skips it."""
    witness, missing_qual, missing_quant = _verdict(db, members, cache)
    consistency = PropertyCheck(not witness, tuple(sorted(witness)))
    qual = PropertyCheck(not missing_qual, missing_qual)
    quant = PropertyCheck(not missing_quant, missing_quant)

    index = db.closure_index
    missing_mandatory = tuple(m for m in index.mandatory_members if m not in members)
    conformity = PropertyCheck(not missing_mandatory, missing_mandatory)

    base_ok = all(c.ok for c in (consistency, qual, quant, conformity))
    if base_ok:
        addable = _dominant(db, members, cache)
        dominance = PropertyCheck(not addable, tuple(addable))
    else:
        dominance = PropertyCheck(False, ("properties 1-4 not satisfied",))

    if base_ok and dominance.ok:
        removable = tuple(
            req_id
            for req_id in sorted(members.difference(index.mandatory_members, needed))
            if _satisfies_1_to_5(db, members - {req_id}, cache)
        )
        minimality = PropertyCheck(not removable, removable)
    else:
        minimality = PropertyCheck(False, ("properties 1-5 not satisfied",))

    return PropertyReport(consistency, qual, quant, conformity, dominance, minimality)


def _maximal_optional_extensions(
    db: RequirementsDatabase,
    base: frozenset[str],
    cache: dict,
    limit: int,
) -> list[frozenset[str]]:
    """All maximal consistent ways to add optional members to `base`."""
    results: list[frozenset[str]] = []
    explored = 0

    def walk(current: frozenset[str], remaining: tuple[str, ...]) -> None:
        nonlocal explored
        explored += 1
        if explored > limit:
            raise _search_limit_error("optional extension of a base", explored, limit)
        if not remaining:
            results.append(current)
            return
        head, rest = remaining[0], remaining[1:]
        if head in current:
            walk(current, rest)
            return
        extended = current | {head}
        if not _verdict(db, extended, cache).witness:
            walk(extended, rest)
            # Leaving `head` out can only be maximal if adding it later fails,
            # which the final maximality filter decides.
            walk(current, rest)
        else:
            walk(current, rest)

    walk(base, db.closure_index.optional_members)
    maximal = [c for c in set(results) if not _dominant(db, c, cache)]
    return sorted(maximal, key=lambda s: tuple(sorted(s)))


def _relevant_plains(
    db: RequirementsDatabase, search_limit: int
) -> tuple[list[frozenset[str]], list[str]]:
    """Minimal threshold coverages and the plain members worth adding to them.

    Beyond threshold support (captured by the coverages), a plain member can
    earn its place in a configuration only by blocking an optional addition
    through a conflict, so the extra candidate pool is limited to supports of
    antecedents of conflicts that some optional requirement could help fire.
    """
    index = db.closure_index
    coverages = [frozenset(index.mandatory_members)]
    for target in index.qual_targets + index.quant_targets:
        routes = (
            frozenset({"inferred"})
            if target in index.qual_targets
            else frozenset({"member", "inferred", "numeric"})
        )
        supports = _minimal_supports(target, db, routes, search_limit)
        if not supports:
            return [], []
        coverages = _minimal_sets(
            [base | support for base in coverages for support in supports]
        )
        if len(coverages) > search_limit:
            raise _search_limit_error(
                "threshold-support combination", len(coverages), search_limit
            )

    optional_ids = set(index.optional_members)
    search = _SupportSearch(db, search_limit, "conflict-pool support search")
    pool: set[str] = set()
    for req in index.conflicts.values():
        antecedent_options = {}
        for ant in sorted(req.body.antecedents):
            options, _ = search.options(ant, frozenset())
            antecedent_options[ant] = [members for members, _route in options]
        optional_involved = req.modality is Modality.OPTIONAL or any(
            members & optional_ids
            for options in antecedent_options.values()
            for members in options
        )
        if not optional_involved:
            continue
        pool.add(req.id)
        for options in antecedent_options.values():
            for members in options:
                pool.update(members)
    plains = sorted(
        req_id for req_id in pool if db[req_id].modality is Modality.PLAIN
    )
    return coverages, plains


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
    cache: dict = {}
    coverages, plains = _relevant_plains(db, search_limit)
    if not coverages:
        return EnumerationResult(db, (), False)

    # Grow each minimal coverage with every useful subset of the remaining
    # plain candidates; inconsistent partial sets cannot recover, so they
    # prune their whole subtree.
    expanded: set[frozenset[str]] = set()
    explored = 0
    for base in coverages:
        if _verdict(db, base, cache).witness:
            continue
        stack = [(base, tuple(p for p in plains if p not in base))]
        while stack:
            current, remaining = stack.pop()
            explored += 1
            if explored > search_limit:
                raise _search_limit_error("configuration growth", explored, search_limit)
            if not remaining:
                expanded.add(current)
                continue
            head, rest = remaining[0], remaining[1:]
            stack.append((current, rest))
            grown = current | {head}
            if not _verdict(db, grown, cache).witness:
                stack.append((grown, rest))

    candidates: set[frozenset[str]] = set()
    for base in sorted(expanded, key=lambda s: tuple(sorted(s))):
        candidates.update(_maximal_optional_extensions(db, base, cache, search_limit))

    found = []
    for members in sorted(candidates, key=lambda s: tuple(sorted(s))):
        # Minimality is tested only on a set that passed properties 1-5, so a
        # consistent one. Dropping a non-mandatory member of every coverage
        # inside it leaves a set that is still consistent, because bottom is
        # monotone after value-conflict expansion, and that holds no coverage.
        # A consistent set that holds the mandatory members and meets every
        # mandatory target holds a coverage, so that set misses a target.
        # Both properties are tested exhaustively on generated models.
        inside = [c for c in coverages if c <= members]
        needed = frozenset.intersection(*inside) if inside else frozenset()
        report = _check(db, members, cache, needed)
        if report.is_configuration:
            # Share the one report that passing checks produce, rather than
            # keep a copy per configuration alive after the search.
            found.append((members, _PASSED if report == _PASSED else report))

    truncated = max_results is not None and len(found) > max_results
    if truncated:
        found = found[:max_results]
    labeled = tuple(
        Configuration(f"S{i}", members) for i, (members, _) in enumerate(found, start=1)
    )
    return EnumerationResult(db, labeled, truncated, tuple(r for _, r in found))
