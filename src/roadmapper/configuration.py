"""Checking and enumerating requirements configurations.

A configuration is a set of domain-assumption and task requirements that is
consistent, operationalizes every mandatory goal/softgoal and every mandatory
quality constraint, includes all mandatory k/t requirements, is maximal with
respect to optional k/t requirements, and is minimal beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, NamedTuple

from .errors import ResourceLimitError, UnresolvedReferenceError, WrongSortError
from .model import MEMBER_SORTS, Modality, RequirementsDatabase
from .operationalization import (
    DEFAULT_SEARCH_LIMIT,
    _Budget,
    _minimal_sets,
    _minimal_supports,
    _SupportSearch,
    satisfaction_closure,
)

DEFAULT_MAX_ATOMS = 24

# Member ids held as keys of one verdict cache; a cache that would hold more
# is emptied. Repeat lookups mostly follow soon after the first, so emptying
# costs few recomputations: on a 54-atom generated model this limit computes
# 1% more closures than 2 ** 21 ids would, and peaks at 85 MB RSS instead of
# 147 MB. LAS and the benchmark's generated models hold at most 161,153 ids.
_VERDICT_LIMIT = 2 ** 20


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
        return not self.failing()

    def failing(self) -> list[str]:
        return [name for name in PROPERTY_NAMES if not getattr(self, name).ok]


# The six properties in the order a report lists them.
PROPERTY_NAMES = tuple(f.name for f in fields(PropertyReport))

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


class _Search:
    """The state of one search over a database: its closure index, the
    verdict cache and the node budget every phase draws on. A check walks
    nothing, so it has no budget."""

    def __init__(
        self, db: RequirementsDatabase, budget: _Budget | None, verdicts: dict
    ):
        self.db = db
        self.index = db.closure_index
        self.budget = budget
        self.verdicts = verdicts
        self.held = sum(map(len, verdicts))  # member ids held as keys

    def verdict(self, members: frozenset[str]) -> _Verdict:
        """The verdict on `members`, from the cache or from a satisfaction
        closure that is dropped once the verdict is taken."""
        verdict = self.verdicts.get(members)
        if verdict is None:
            closure = satisfaction_closure(members, self.db)
            verdict = _Verdict(
                closure.bottom_witness or _CONSISTENT,
                tuple(t for t in self.index.qual_targets if t not in closure.satisfied),
                tuple(t for t in self.index.quant_targets if t not in closure.satisfied),
            )
            if self.held + len(members) > _VERDICT_LIMIT:
                self.verdicts.clear()
                self.held = 0
            self.verdicts[members] = verdict
            self.held += len(members)
        return verdict

    def addable(self, members: frozenset[str]) -> list[str]:
        """Optional k/t requirements that could still be added; empty means dominant."""
        return [
            opt
            for opt in self.index.optional_members
            if opt not in members and not self.verdict(members | {opt}).witness
        ]

    def satisfies_1_to_5(self, members: frozenset[str]) -> bool:
        witness, missing_qual, missing_quant = self.verdict(members)
        return (
            not (witness or missing_qual or missing_quant)
            and members.issuperset(self.index.mandatory_members)
            and not self.addable(members)
        )

    def check(self, members: frozenset[str], needed: frozenset[str]) -> PropertyReport:
        """`check_configuration` of validated `members`; dropping a member of
        `needed` is known to fail properties 1-4, so minimality skips it."""
        witness, missing_qual, missing_quant = self.verdict(members)
        consistency = PropertyCheck(not witness, tuple(sorted(witness)))
        qual = PropertyCheck(not missing_qual, missing_qual)
        quant = PropertyCheck(not missing_quant, missing_quant)

        mandatory = self.index.mandatory_members
        missing_mandatory = tuple(m for m in mandatory if m not in members)
        conformity = PropertyCheck(not missing_mandatory, missing_mandatory)

        base_ok = all(c.ok for c in (consistency, qual, quant, conformity))
        if base_ok:
            addable = self.addable(members)
            dominance = PropertyCheck(not addable, tuple(addable))
        else:
            dominance = PropertyCheck(False, ("properties 1-4 not satisfied",))

        if base_ok and dominance.ok:
            removable = tuple(
                req_id
                for req_id in sorted(members.difference(mandatory, needed))
                if self.satisfies_1_to_5(members - {req_id})
            )
            minimality = PropertyCheck(not removable, removable)
        else:
            minimality = PropertyCheck(False, ("properties 1-5 not satisfied",))

        return PropertyReport(consistency, qual, quant, conformity, dominance, minimality)

    def walk(
        self, base: frozenset[str], candidates: Iterable[str], phase: str
    ) -> Iterator[frozenset[str]]:
        """Every consistent set of `base` plus some `candidates`, from an
        include/exclude walk: an inconsistent set cannot become consistent
        again, so it prunes its subtree. Each set visited is one node."""
        if self.verdict(base).witness:
            return
        candidates = [c for c in candidates if c not in base]
        stack = [(base, 0)]
        while stack:
            current, i = stack.pop()
            self.budget.tick(phase)
            if i == len(candidates):
                yield current
                continue
            stack.append((current, i + 1))
            grown = current | {candidates[i]}
            if not self.verdict(grown).witness:
                stack.append((grown, i + 1))


def check_configuration(
    db: RequirementsDatabase,
    s: Configuration | Iterable[str],
    cache: dict | None = None,
) -> PropertyReport:
    """Evaluate the six configuration properties, with witnesses for failures.

    `cache` holds verdicts on member sets, not closures; pass one dict to
    several checks of the same database to share them.
    """
    members = _member_ids(db, s)
    return _Search(db, None, {} if cache is None else cache).check(members, frozenset())


def _relevant_plains(
    db: RequirementsDatabase, budget: _Budget
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
        supports = _minimal_supports(target, db, routes, budget)
        if not supports:
            return [], []
        budget.tick("threshold-support combination", len(coverages) * len(supports))
        coverages = _minimal_sets(
            [base | support for base in coverages for support in supports]
        )

    optional_ids = set(index.optional_members)
    search = _SupportSearch(db, budget, "conflict-pool support search")
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
    search = _Search(
        db, _Budget(search_limit, "search_limit", "enumerate_configurations"), {}
    )
    coverages, plains = _relevant_plains(db, search.budget)
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
        for base in sorted(bases, key=sorted)
        for extended in search.walk(
            base, search.index.optional_members, "optional extension of a base"
        )
        if not search.addable(extended)
    }

    found = []
    for members in sorted(candidates, key=sorted):
        # Minimality is tested only on a set that passed properties 1-5, so a
        # consistent one. Dropping a non-mandatory member of every coverage
        # inside it leaves a set that is still consistent, because bottom is
        # monotone after value-conflict expansion, and that holds no coverage.
        # A consistent set that holds the mandatory members and meets every
        # mandatory target holds a coverage, so that set misses a target.
        # Both properties are tested exhaustively on generated models.
        inside = [c for c in coverages if c <= members]
        needed = frozenset.intersection(*inside) if inside else frozenset()
        if search.check(members, needed).is_configuration:
            found.append(members)

    truncated = max_results is not None and len(found) > max_results
    if truncated:
        found = found[:max_results]
    labeled = tuple(
        Configuration(f"S{i}", members) for i, members in enumerate(found, start=1)
    )
    # Every report that passes all six properties equals _PASSED.
    return EnumerationResult(db, labeled, truncated, (_PASSED,) * len(labeled))
