"""Adaptation operators, roadmaps, and decision rules for ranking.

An adaptation operator is a planning-style triple: a trigger (requirements
monitored to fail), an add list, and a delete list. A roadmap is a sequence
of configurations plus the operators connecting consecutive pairs. Rankings
are total, deterministic, and independent of input order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .configuration import Configuration, check_configuration
from .errors import (
    IdenticalConfigurationsError,
    NoSatisfactionFnError,
    NotApplicableError,
    RamificationFailureError,
    ResourceLimitError,
    TriggerNotInSourceError,
    UnresolvedReferenceError,
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


@dataclass(frozen=True)
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


@dataclass(frozen=True, slots=True)
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

@dataclass(frozen=True)
class MaximizeValue:
    """Rank configurations by the value of a variable, highest first."""

    var: str


@dataclass(frozen=True)
class MinimizeValue:
    """Rank configurations by the value of a variable, lowest first."""

    var: str


@dataclass(frozen=True)
class MaximizeValueThenPreferences:
    """Highest value first; ties broken by how many optional and preferred
    requirements the configuration satisfies."""

    var: str


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RankedConfiguration:
    configuration: Configuration
    value: float
    preference_count: int | None = None
    pareto: bool | None = None


@dataclass(frozen=True, slots=True)
class RankedRoadmap:
    roadmap: Roadmap
    total: float


@dataclass(frozen=True, slots=True)
class ExcludedRoadmap:
    roadmap: Roadmap
    reason: str  # "floor" or "diff"
    witness: int  # configuration index (floor) or leading pair index (diff)


@dataclass(frozen=True)
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


def _member_masks(member_sets: Iterable[frozenset[str]]) -> dict[frozenset[str], int]:
    """An int bitmask for each member set, one bit per member id."""
    bits: dict[str, int] = {}
    masks = {}
    for members in member_sets:
        mask = 0
        for member in members:
            bit = bits.get(member)
            if bit is None:
                bit = bits[member] = 1 << len(bits)
            mask |= bit
        masks[members] = mask
    return masks


def build_roadmaps(
    db: RequirementsDatabase,
    configs: Sequence[Configuration],
    max_len: int,
    *,
    limit: int = DEFAULT_ROADMAP_LIMIT,
) -> list[Roadmap]:
    """All roadmaps over distinct configurations up to `max_len`, each with
    the operators connecting its consecutive pairs."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    ordered = sorted(configs, key=lambda c: c.canonical_key)
    mask = _member_masks(c.members for c in ordered)
    roadmaps: list[Roadmap] = []
    # Many pairs share an operator (on LAS at max_len 2, 16,256 pairs give
    # 2,186 distinct ones): keep one object per distinct operator and set.
    # The default trigger is the delete list, so an operator is known by its
    # (add, delete) masks, and each distinct one is derived once. Identical
    # configurations meet at (0, 0), where derive_adaptation raises.
    operators: dict[tuple[int, int], AdaptationRequirement] = {}
    sets: dict[frozenset[tuple[int, int]], frozenset[AdaptationRequirement]] = {}
    for length in range(1, min(max_len, len(ordered)) + 1):
        for sequence in itertools.permutations(ordered, length):
            keys = []
            for s_from, s_to in zip(sequence, sequence[1:]):
                a, b = mask[s_from.members], mask[s_to.members]
                key = (b & ~a, a & ~b)
                if key not in operators:
                    operators[key] = derive_adaptation(s_from, s_to)
                keys.append(key)
            key_set = frozenset(keys)
            adaptations = sets.get(key_set)
            if adaptations is None:
                adaptations = sets[key_set] = frozenset(map(operators.get, key_set))
            roadmaps.append(Roadmap(sequence, adaptations))
            if len(roadmaps) > limit:
                raise ResourceLimitError(
                    f"more than {limit} roadmaps; raise the limit or lower max_len"
                )
    return roadmaps


# --- ranking -----------------------------------------------------------------

def _unique_value(
    db: RequirementsDatabase, members: frozenset[str], var: str
) -> float:
    """The one value `var` obtains in the member set, as `unique_val` over
    the sorted members finds it, read from the closure index's memo of
    propagated values (which enumeration fills, and which checks for
    refinement cycles as `propagate_values` does)."""
    unknown = members - db.requirements.keys()
    if unknown:
        raise UnresolvedReferenceError(f"cannot resolve requirement id {min(unknown)!r}")
    index = db.closure_index
    return one_value(
        index.values_of(index.mask(members) & index.assignment_mask).get(var, frozenset()),
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


def rank_roadmaps(
    db: RequirementsDatabase,
    roadmaps: Sequence[Roadmap],
    rule: RoadmapValueSum,
) -> RoadmapRanking:
    """Filter roadmaps by the floor and change-size constraints, then rank the
    survivors by summed value; excluded roadmaps carry their reason."""
    # Each entry is (sort key, item). Comparing canonical positions orders
    # roadmaps as comparing their canonical keys would, without sorting each
    # configuration's members again.
    ranked: list[tuple[tuple, RankedRoadmap]] = []
    excluded: list[tuple[tuple[int, ...], ExcludedRoadmap]] = []
    distinct = {c.members for roadmap in roadmaps for c in roadmap.configurations}
    ordered = sorted(distinct, key=lambda m: tuple(sorted(m)))
    position = {members: i for i, members in enumerate(ordered)}
    mask = _member_masks(ordered)
    value_cache: dict[frozenset[str], float] = {}
    var, floor, max_diff = rule.var, rule.floor, rule.max_diff

    for roadmap in roadmaps:
        sequence = [c.members for c in roadmap.configurations]
        # Every value of a roadmap is taken, in order, before any filter, so
        # the first configuration without one is the one that raises.
        values = []
        for members in sequence:
            value = value_cache.get(members)
            if value is None:
                value = value_cache[members] = _unique_value(db, members, var)
            values.append(value)
        positions = tuple([position[members] for members in sequence])
        for i, value in enumerate(values):
            if value < floor:
                excluded.append((positions, ExcludedRoadmap(roadmap, "floor", i)))
                break
        else:
            for i in range(len(sequence) - 1):
                if (mask[sequence[i]] ^ mask[sequence[i + 1]]).bit_count() > max_diff:
                    excluded.append((positions, ExcludedRoadmap(roadmap, "diff", i)))
                    break
            else:
                total = sum(values)
                order = (-total, len(sequence), positions)
                ranked.append((order, RankedRoadmap(roadmap, total)))
    # Sort on the keys alone: equal keys keep their input order.
    by_order, entry = itemgetter(0), itemgetter(1)
    ranked.sort(key=by_order)
    excluded.sort(key=by_order)
    return RoadmapRanking(tuple(map(entry, ranked)), tuple(map(entry, excluded)))


# --- pairwise satisfaction comparison ------------------------------------------

@dataclass(frozen=True)
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
