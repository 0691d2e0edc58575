"""Adaptation operators, roadmaps, and decision rules for ranking.

An adaptation operator is a planning-style triple: a trigger (requirements
monitored to fail), an add list, and a delete list. A roadmap is a sequence
of configurations plus the operators connecting consecutive pairs. Rankings
are total, deterministic, and independent of input order.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter

from ._record import record
from .configuration import Configuration, check_configuration
from .errors import (
    IdenticalConfigurationsError,
    NoSatisfactionFnError,
    NotApplicableError,
    RamificationFailureError,
    ResourceLimitError,
    TriggerNotInSourceError,
)
from .model import (
    Modality,
    Preference,
    PreferenceKind,
    QuantVar,
    Requirement,
    RequirementsDatabase,
)
from .operationalization import _resolve_ids
from .quanteval import one_value, unique_val
from .transforms import value_assumption, value_preference

DEFAULT_ROADMAP_LIMIT = 20000


@record(frozen=True)
class AdaptationRequirement:
    """Trigger / add / delete operator connecting two configurations."""

    trigger: frozenset[str]
    add: frozenset[str]
    delete: frozenset[str]

    def __post_init__(self):
        if not self.trigger:
            raise ValueError("adaptation trigger must be nonempty")
        if self.add & self.delete:
            raise ValueError("add and delete lists must be disjoint")
        if not self.add and not self.delete:
            raise IdenticalConfigurationsError("operator has no effect")

    def applicable_to(self, members: frozenset[str]) -> bool:
        return (self.trigger | self.delete) <= members and not (self.add & members)


@record(frozen=True, slots=True)
class Roadmap:
    configurations: tuple[Configuration, ...]
    adaptations: frozenset[AdaptationRequirement]

    def __post_init__(self):
        if not self.configurations:
            raise ValueError("a roadmap holds at least one configuration")

    @property
    def canonical_key(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c.canonical_key for c in self.configurations)


# --- decision rules ---------------------------------------------------------

@record(frozen=True)
class MaximizeValue:
    """Rank configurations by the value of a variable, highest first."""

    var: str


@record(frozen=True)
class MinimizeValue:
    """Rank configurations by the value of a variable, lowest first."""

    var: str


@record(frozen=True)
class MaximizeValueThenPreferences:
    """Highest value first; ties broken by how many optional and preferred
    requirements the configuration satisfies."""

    var: str


@record(frozen=True)
class RoadmapValueSum:
    """Rank roadmaps by the summed value of a variable, subject to a floor on
    every configuration and a bound on consecutive change size."""

    var: str
    floor: float
    max_diff: int

    def __post_init__(self):
        if self.max_diff < 0:
            raise ValueError("max_diff must be nonnegative")


ConfigurationRule = MaximizeValue | MinimizeValue | MaximizeValueThenPreferences


@record(frozen=True)
class RankedConfiguration:
    configuration: Configuration
    value: float
    preference_count: int | None = None
    pareto: bool | None = None


@record(frozen=True, slots=True)
class RankedRoadmap:
    roadmap: Roadmap
    total: float


@record(frozen=True, slots=True)
class ExcludedRoadmap:
    roadmap: Roadmap
    reason: str  # "floor" or "diff"
    witness: int  # configuration index (floor) or leading pair index (diff)


@record(frozen=True)
class RoadmapRanking:
    ranked: tuple[RankedRoadmap, ...]
    excluded: tuple[ExcludedRoadmap, ...]


# --- adaptation -------------------------------------------------------------

def derive_adaptation(
    s_from: Configuration,
    s_to: Configuration,
    trigger: Iterable[str] | None = None,
) -> AdaptationRequirement:
    """The operator turning `s_from` into `s_to`.

    The trigger defaults to the deleted members: the requirements whose
    failure motivates leaving `s_from`. Callers may narrow it.
    """
    if s_from.members == s_to.members:
        raise IdenticalConfigurationsError(
            "source and target configurations are identical"
        )
    add = s_to.members - s_from.members
    delete = s_from.members - s_to.members
    trigger_set = frozenset(trigger) if trigger is not None else delete
    if not trigger_set <= s_from.members:
        raise TriggerNotInSourceError(
            f"trigger {sorted(trigger_set - s_from.members)} not in the source configuration"
        )
    return AdaptationRequirement(trigger=trigger_set, add=add, delete=delete)


def apply_adaptation(
    db: RequirementsDatabase,
    s: Configuration,
    operator: AdaptationRequirement,
) -> Configuration:
    """Apply the operator and re-validate the result.

    Additional changes may be needed after an adaptation; the engine never
    repairs silently, it reports the failing properties instead.
    """
    if not operator.applicable_to(s.members):
        raise NotApplicableError("operator preconditions do not hold in the source")
    members = (s.members - operator.delete) | operator.add
    report = check_configuration(db, members)
    if not report.is_configuration:
        raise RamificationFailureError(
            f"result violates {', '.join(report.failing())}", report=report
        )
    return Configuration.from_members(members)


class _IndexRoadmaps:
    """Every roadmap up to `max_len` over `configs`, as a tuple of indices
    into `configurations`, the configurations in canonical order, each
    member set resolved against `db`.

    `sequences` holds the singletons, then each longer length's sequences
    in permutation order, which extends each sequence of the length before,
    in order, by every index it lacks, in ascending order: so they come in
    (length, indices) order.

    `masks[i]` is the member mask of configuration i in `db.closure_index`.
    The default trigger is the delete list, so an operator is known by its
    (add, delete) masks; `operators` holds the first pair (a, b) of each
    distinct one (on LAS at max_len 2, 16,256 pairs give 2,186), and
    `steps[a][b]` is the position there of the operator from configuration a
    to configuration b. No operator record is built here.

    `operator_sets` holds each distinct set of operators a roadmap needs, as
    positions in `operators`: the empty set, each operator's own set
    (operator t's is number t + 1), then the larger sets as they are met.
    `set_numbers[j]` is the number of sequence j's set, interned from its
    prefix's number and its last step through one memo per set number, so
    no sequence builds a set of its own.

    Raises first for a member that `db` does not declare (naming the least
    such id of the first configuration with one). Then it raises as building
    the roadmaps one by one would: every pair first meets its operator at
    length 2, after the singletons, so the first pair whose operator cannot
    be derived raises, unless more than `limit` roadmaps come before it;
    then a count above `limit` raises.
    Deriving an operator fails exactly when the source's members lie within
    the target's (identical, or nothing to delete), so `derive_adaptation`
    is called only to raise its error there."""

    __slots__ = (
        "db", "configurations", "masks", "operators", "steps", "sequences",
        "operator_sets", "set_numbers",
    )

    def __init__(
        self,
        db: RequirementsDatabase,
        configs: Sequence[Configuration],
        max_len: int,
        limit: int,
    ):
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        self.db = db
        self.configurations = ordered = sorted(configs, key=lambda c: c.canonical_key)
        mask = db.closure_index.mask
        self.masks = masks = [mask(_resolve_ids(c.members, db)) for c in ordered]
        n = len(ordered)
        longest = min(max_len, n)
        count = sum(math.perm(n, k) for k in range(1, longest + 1))
        if count > limit:
            pairs = itertools.permutations(range(n), 2) if max_len > 1 else ()
            for a, b in itertools.islice(pairs, max(0, limit + 1 - n)):
                if not masks[a] & ~masks[b]:
                    derive_adaptation(ordered[a], ordered[b])
            raise ResourceLimitError(
                f"{count} roadmaps up to max_len {max_len} exceed the limit of {limit}; "
                "lower max_len (--maxlen) or, in the library, pass a larger limit="
            )
        # Row by row, each row in ascending order: the pairs in permutation
        # order. A row looks up every key at once, then numbers the misses.
        self.operators: list[tuple[int, int]] = []
        self.steps: list[list[int]] = []
        numbers: dict[tuple[int, int], int] = {}
        for a, source in enumerate(masks if max_len > 1 else ()):
            keys = [(target & ~source, source & ~target) for target in masks]
            row = list(map(numbers.get, keys))
            row[a] = -1
            for b in [b for b, number in enumerate(row) if number is None]:
                number = numbers.get(keys[b])
                if number is None:
                    if not keys[b][1]:
                        derive_adaptation(ordered[a], ordered[b])
                    self.operators.append((a, b))
                    number = numbers[keys[b]] = len(numbers)
                row[b] = number
            self.steps.append(row)
        self.sequences = sequences = [(i,) for i in range(n)]
        self.set_numbers = set_numbers = [0] * n
        self.operator_sets = operator_sets = [
            frozenset(), *map(frozenset, zip(range(len(self.operators))))
        ]
        interned = {members: number for number, members in enumerate(operator_sets)}
        # set number -> step -> set number
        successors: list[dict[int, int]] = [{} for _ in operator_sets]
        successors[0] = {step: step + 1 for step in range(len(self.operators))}

        def extended(number: int, step: int) -> int:
            members = operator_sets[number] | {step}
            result = interned.get(members)
            if result is None:
                result = interned[members] = len(operator_sets)
                operator_sets.append(members)
                successors.append({})
            successors[number][step] = result
            return result

        start = 0
        for length in range(2, longest + 1):
            end = len(sequences)
            sequences += itertools.permutations(range(n), length)
            for p in range(start, end):
                prefix, number = sequences[p], set_numbers[p]
                row = self.steps[prefix[-1]].copy()
                for i in sorted(prefix, reverse=True):
                    del row[i]
                extensions = list(map(successors[number].get, row))
                if None in extensions:
                    extensions = [
                        extended(number, step) if known is None else known
                        for known, step in zip(extensions, row)
                    ]
                set_numbers += extensions
            start = end

    def rank(self, rule: RoadmapValueSum):
        """`_rank_sequences` over these roadmaps, taking the values in index
        order, the order the singletons name the configurations."""
        values = [_unique_value(self.db, c.members, rule.var) for c in self.configurations]
        return _rank_sequences(values, self.masks, self.sequences, rule)


def build_roadmaps(
    db: RequirementsDatabase,
    configs: Sequence[Configuration],
    max_len: int,
    *,
    limit: int = DEFAULT_ROADMAP_LIMIT,
) -> list[Roadmap]:
    """All roadmaps over distinct configurations up to `max_len`, each with
    the operators connecting its consecutive pairs. Every member must be
    declared in `db`; the first undeclared one raises, as in `_IndexRoadmaps`."""
    core = _IndexRoadmaps(db, configs, max_len, limit)
    ordered = core.configurations
    # One object per distinct operator, and per distinct operator set.
    operators = [derive_adaptation(ordered[a], ordered[b]) for a, b in core.operators]
    sets = [frozenset(map(operators.__getitem__, numbers)) for numbers in core.operator_sets]
    return [
        Roadmap(tuple([ordered[i] for i in sequence]), sets[number])
        for sequence, number in zip(core.sequences, core.set_numbers)
    ]


# --- ranking -----------------------------------------------------------------

def _unique_value(
    db: RequirementsDatabase, members: frozenset[str], var: str
) -> float:
    """The one value `var` obtains in the member set, as `unique_val` over
    the sorted members finds it, read from the closure index's memo of
    propagated values (which enumeration fills, and which checks for
    refinement cycles as `propagate_values` does)."""
    index = db.closure_index
    assigned = index.mask(_resolve_ids(members, db)) & index.assignment_mask
    return one_value(
        index.values_of(assigned).get(var, frozenset()),
        missing=f"variable {var!r} obtains no value in a configuration",
        several=lambda xs: f"variable {var!r} obtains several values {xs}; "
        "expand value conflicts before ranking",
    )


def _preference_score(db: RequirementsDatabase) -> Callable[[frozenset[str]], int]:
    """The score of a member set: its satisfied optional requirements plus
    its satisfied preferred sides, read from the closure index's masks."""
    index = db.closure_index
    optional = index.mask(req.id for req in db if req.modality is Modality.OPTIONAL)
    preferred = [
        index.bit.get(pref.left, 0)
        for pref in db.preferences
        if pref.kind in (PreferenceKind.STRICT, PreferenceKind.WEAK)
    ]

    def score(members: frozenset[str]) -> int:
        satisfied = index.satisfied_mask(index.mask(_resolve_ids(members, db)))
        return (satisfied & optional).bit_count() + sum(
            1 for bit in preferred if bit & satisfied
        )

    return score


def rank_configurations(
    db: RequirementsDatabase,
    configs: Sequence[Configuration],
    rule: ConfigurationRule,
) -> tuple[RankedConfiguration, ...]:
    """Total order over the configurations under the given rule.

    Ties always break on the canonical member listing, so the ranking is
    deterministic and invariant under permutation of the input.
    """
    score = (
        _preference_score(db) if isinstance(rule, MaximizeValueThenPreferences) else None
    )
    entries = []
    for config in configs:
        value = _unique_value(db, config.members, rule.var)
        count = score(config.members) if score else None
        entries.append((config, value, count))

    if isinstance(rule, MinimizeValue):
        keyed = sorted(entries, key=lambda e: (e[1], e[0].canonical_key))
        return tuple(RankedConfiguration(c, v) for c, v, _ in keyed)
    if isinstance(rule, MaximizeValue):
        keyed = sorted(entries, key=lambda e: (-e[1], e[0].canonical_key))
        return tuple(RankedConfiguration(c, v) for c, v, _ in keyed)

    keyed = sorted(entries, key=lambda e: (-e[1], -e[2], e[0].canonical_key))
    pareto_flags = {}
    for config, value, count in keyed:
        dominated = any(
            ov >= value and oc >= count and (ov > value or oc > count)
            for _, ov, oc in keyed
        )
        pareto_flags[config.id] = not dominated
    return tuple(
        RankedConfiguration(c, v, n, pareto_flags[c.id]) for c, v, n in keyed
    )


def _rank_sequences(
    values: Sequence[float],
    masks: Sequence[int],
    sequences: Sequence[tuple[int, ...]],
    rule: RoadmapValueSum,
) -> tuple[list[tuple[int, float]], list[tuple[int, str, int]]]:
    """Rule r4 over roadmaps given as tuples of indices into configurations
    whose values are `values` and member bitmasks `masks`: the ranked as
    (position in `sequences`, total) and the excluded as (position, reason,
    witness), each in ranking order.

    `sequences` must come in (length, indices) order, as `_IndexRoadmaps`
    builds them. Ranked roadmaps then sort stably on -total alone, which
    orders them on (-total, length, indices); excluded ones sort on their
    indices. Equal keys keep their input order."""
    floor, max_diff = rule.floor, rule.max_diff
    below = {i for i, value in enumerate(values) if value < floor}
    value = values.__getitem__
    ranked: list[tuple[int, float]] = []
    excluded: list[tuple[tuple[int, ...], tuple[int, str, int]]] = []
    for j, sequence in enumerate(sequences):
        if not below.isdisjoint(sequence):
            witness = next(i for i, index in enumerate(sequence) if index in below)
            excluded.append((sequence, (j, "floor", witness)))
            continue
        source = masks[sequence[0]]
        for i in range(1, len(sequence)):
            target = masks[sequence[i]]
            if (source ^ target).bit_count() > max_diff:
                excluded.append((sequence, (j, "diff", i - 1)))
                break
            source = target
        else:
            ranked.append((j, sum(map(value, sequence))))
    # Descending totals, stably: the same order as ascending -total, since
    # no total is NaN.
    ranked.sort(key=itemgetter(1), reverse=True)
    excluded.sort(key=itemgetter(0))
    return ranked, list(map(itemgetter(1), excluded))


def rank_roadmaps(
    db: RequirementsDatabase,
    roadmaps: Sequence[Roadmap],
    rule: RoadmapValueSum,
) -> RoadmapRanking:
    """Filter roadmaps by the floor and change-size constraints, then rank the
    survivors by summed value; excluded roadmaps carry their reason."""
    # Comparing canonical positions orders roadmaps as comparing their
    # canonical keys would, without sorting each configuration's members again.
    distinct = {c.members for roadmap in roadmaps for c in roadmap.configurations}
    ordered = sorted(distinct, key=lambda m: tuple(sorted(m)))
    position = {members: i for i, members in enumerate(ordered)}
    sequences = [
        tuple([position[c.members] for c in roadmap.configurations])
        for roadmap in roadmaps
    ]
    # The values are taken before any filter, in the order the roadmaps
    # first name the configurations: the first without a value, or with a
    # member `db` does not declare, raises. Every member set is then known.
    values: list = [None] * len(ordered)
    for i in dict.fromkeys(itertools.chain.from_iterable(sequences)):
        values[i] = _unique_value(db, ordered[i], rule.var)
    order = sorted(range(len(sequences)), key=lambda j: (len(sequences[j]), sequences[j]))
    masks = list(map(db.closure_index.mask, ordered))
    ranked, excluded = _rank_sequences(values, masks, [sequences[j] for j in order], rule)
    return RoadmapRanking(
        tuple([RankedRoadmap(roadmaps[order[j]], total) for j, total in ranked]),
        tuple([
            ExcludedRoadmap(roadmaps[order[j]], reason, witness)
            for j, reason, witness in excluded
        ]),
    )


# --- pairwise satisfaction comparison ------------------------------------------

@record(frozen=True)
class PairwisePreference:
    """Assumptions pinning the two observed values, plus the preference
    between them implied by the satisfaction function."""

    left_assumption: Requirement
    right_assumption: Requirement
    preference: Preference


def pairwise_value_preference(
    db: RequirementsDatabase,
    s1: Configuration,
    s2: Configuration,
    var: str | QuantVar,
) -> PairwisePreference | None:
    """Compare two configurations on one fuzzily-relaxed variable.

    Returns the assumptions for the two observed values and a strict
    preference for the more satisfying one (indifference when the levels are
    equal), or None when both configurations assign the same value.
    """
    name = var.name if isinstance(var, QuantVar) else var
    fn = db.sat_fn(name)
    if fn is None:
        raise NoSatisfactionFnError(f"no satisfaction function registered for {name!r}")
    x1, x2 = (
        unique_val(
            sorted(c.members), name, db,
            missing=f"{name!r} obtains no value in {c.id}",
            several=lambda _: f"{name!r} obtains several values in {c.id}; "
            "expand value conflicts first",
        )
        for c in (s1, s2)
    )
    if x1 == x2:
        return None
    kind, left, right = value_preference(fn, x1, x2)
    a, b = value_assumption(name, left), value_assumption(name, right)
    return PairwisePreference(a, b, Preference(kind, a.id, b.id))
