"""Adaptation operators, roadmaps, and decision rules for ranking.

An adaptation operator is a planning-style triple: a trigger (requirements
monitored to fail), an add list, and a delete list. A roadmap is a sequence
of configurations plus the operators connecting consecutive pairs. Rankings
are total, deterministic, and independent of input order.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
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

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Sequence

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

    Every sequence but a singleton is its prefix plus one last step, and
    the walk that extends the prefixes knows both: `prefixes[j]` is the
    position of sequence j's prefix (-1 for a singleton) and `last_steps[j]`
    the operator of its last step (-1 for a singleton). What a roadmap
    needs is then worked out from its prefix's and its last step's, never
    from the whole sequence: `set_numbers[j]`, the number of sequence j's
    operator set, is interned through one memo per set number, so no
    sequence builds a set of its own; `rank` takes each r4 outcome from
    the prefix's (`_rank_r4`), with the change-size test read from each
    operator's size; and `texts` joins each sequence's items onto its
    prefix's text.

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
        "prefixes", "last_steps", "operator_sets", "set_numbers",
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
        complements = [~m for m in masks]
        for a, source in enumerate(masks if max_len > 1 else ()):
            outside = complements[a]
            keys = [
                (target & outside, source & not_target)
                for target, not_target in zip(masks, complements)
            ]
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
        self.prefixes = prefixes = [-1] * n
        self.last_steps = last_steps = [-1] * n
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
                prefixes += [p] * len(row)
                last_steps += row
            start = end

    def rank(self, rule: RoadmapValueSum):
        """`_rank_r4` over these roadmaps, taking the values in index order,
        the order the singletons name the configurations, and each step's
        size from its operator."""
        values = [_unique_value(self.db, c.members, rule.var) for c in self.configurations]
        masks = self.masks
        sizes = [(masks[a] ^ masks[b]).bit_count() for a, b in self.operators]
        return _rank_r4(values, sizes, self.sequences, self.prefixes, self.last_steps, rule)

    def texts(self, items: Sequence[str], separator: str) -> list[str]:
        """Each sequence's `items` joined by `separator`: a singleton's item,
        and a longer sequence's prefix's text, `separator` and the item of
        its last index, with each prefix's text and `separator` joined once."""
        texts: list[str] = []
        lasts = list(map(itemgetter(-1), self.sequences))
        for p, start, end in _prefix_runs(self.prefixes):
            head = texts[p] + separator if p >= 0 else ""
            texts += [head + items[b] for b in lasts[start:end]]
        return texts


def _prefix_runs(prefixes: Sequence[int]):
    """(prefix, start, end) for each run of positions whose prefix is
    `prefix` (-1: the singletons), in order. Sequences in (length, indices)
    order with each one's prefix among them have nondecreasing prefix
    positions, and each prefix's extensions form one run."""
    start, count = 0, len(prefixes)
    while start < count:
        prefix = prefixes[start]
        end = bisect_right(prefixes, prefix, start)
        yield prefix, start, end
        start = end


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


def _rank_r4(
    values: Sequence[float],
    sizes: Sequence[int],
    sequences: Sequence[tuple[int, ...]],
    prefixes: Sequence[int],
    steps: Sequence[int],
    rule: RoadmapValueSum,
) -> tuple[list, list[int], list[int]]:
    """Rule r4 over roadmaps given as tuples of indices into configurations
    whose values are `values`: each sequence's outcome, its total or its
    (reason, witness), then the positions in `sequences` of the ranked and
    of the excluded, each in ranking order.

    `sequences` must come in (length, indices) order and hold each one's
    prefix: `prefixes[j]` is the position of sequence j's prefix (-1 for a
    singleton) and `steps[j]` the step from its prefix's last index to its
    own, whose size, the number of members it adds or deletes, is
    `sizes[steps[j]]`. Each outcome then follows from the prefix's and the
    last step. A floor witness of the prefix stays; else a last member below
    the floor is the witness, as the floor is checked before any step; else
    a diff witness of the prefix stays; else a step larger than `max_diff`
    is the witness; else the total is the prefix's total plus the last
    value, the sum from int 0 in sequence order. Ranked roadmaps then sort
    stably on -total alone, which orders them on (-total, length, indices);
    excluded ones sort on their indices."""
    floor, max_diff = rule.floor, rule.max_diff
    below = [value < floor for value in values]
    large = [size > max_diff for size in sizes]
    lasts = list(map(itemgetter(-1), sequences))
    outcomes: list = []  # each sequence's total, or its (reason, witness)
    for p, start, end in _prefix_runs(prefixes):
        length = len(sequences[start])
        below_at = ("floor", length - 1)
        items = lasts[start:end]
        if p < 0:
            outcomes += [below_at if below[b] else 0 + values[b] for b in items]
            continue
        prior = outcomes[p]
        if type(prior) is not tuple:
            over_at = ("diff", length - 2)
            outcomes += [
                below_at if below[b] else over_at if large[k] else prior + values[b]
                for b, k in zip(items, steps[start:end])
            ]
        elif prior[0] == "floor":
            outcomes += [prior] * (end - start)
        else:
            outcomes += [below_at if below[b] else prior for b in items]
    ranked = [j for j, outcome in enumerate(outcomes) if type(outcome) is not tuple]
    # Descending totals, stably: the same order as ascending -total, since
    # no total is NaN.
    ranked.sort(key=outcomes.__getitem__, reverse=True)
    excluded = [j for j, outcome in enumerate(outcomes) if type(outcome) is tuple]
    excluded.sort(key=sequences.__getitem__)
    return outcomes, ranked, excluded


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
    # Each distinct sequence and each of its prefixes, once, in (length,
    # indices) order; each one's last step is its own.
    every = sorted(
        {s[:k] for s in set(sequences) for k in range(1, len(s) + 1)},
        key=lambda s: (len(s), s),
    )
    at = {s: j for j, s in enumerate(every)}
    masks = list(map(db.closure_index.mask, ordered))
    sizes = [
        (masks[s[-2]] ^ masks[s[-1]]).bit_count() if len(s) > 1 else 0 for s in every
    ]
    outcomes, ranked, excluded = _rank_r4(
        values, sizes, every, [at.get(s[:-1], -1) for s in every], range(len(every)), rule
    )
    # Only the input roadmaps are reported; a repeated one, in input order.
    inputs: dict[int, list[int]] = {}
    for i, sequence in enumerate(sequences):
        inputs.setdefault(at[sequence], []).append(i)
    return RoadmapRanking(
        tuple([
            RankedRoadmap(roadmaps[i], outcomes[j])
            for j in ranked for i in inputs.get(j, ())
        ]),
        tuple([
            ExcludedRoadmap(roadmaps[i], *outcomes[j])
            for j in excluded for i in inputs.get(j, ())
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
