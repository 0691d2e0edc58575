from __future__ import annotations

import dataclasses
import math
import pickle
import random

import pytest

from roadmapper import roadmap
from roadmapper.configuration import Configuration, enumerate_configurations
from roadmapper.errors import (
    DivisionByZeroError,
    IdenticalConfigurationsError,
    MissingValueError,
    NonSingletonValError,
    NoSatisfactionFnError,
    NotApplicableError,
    RamificationFailureError,
    RefinementCycleError,
    ResourceLimitError,
    RoadmapperError,
    TriggerNotInSourceError,
    UnresolvedReferenceError,
)
from roadmapper.model import PreferenceKind
from roadmapper.roadmap import (
    AdaptationRequirement,
    ExcludedRoadmap,
    MaximizeValue,
    MaximizeValueThenPreferences,
    MinimizeValue,
    RankedRoadmap,
    Roadmap,
    RoadmapRanking,
    RoadmapValueSum,
    _unique_value,
    apply_adaptation,
    build_roadmaps,
    derive_adaptation,
    pairwise_value_preference,
    rank_configurations,
    rank_roadmaps,
)
from roadmapper.quanteval import unique_val
from roadmapper.testkit import ModelGenSpec, generate_database

from conftest import parse_ok
from test_configuration import ROUND_ORDER
from test_operationalization import (
    CYCLIC,
    DIVIDING,
    PROBABILISTIC,
    _all_subsets,
    _support_models,
)


def cfg(label, members):
    return Configuration(label, frozenset(members))


# --- derive_adaptation ------------------------------------------------------------

def find_swap_pair(enumeration):
    left = {"u21", "u19", "u17", "u5"}
    right = {"u22", "u20", "u16", "u6"}
    for a in enumeration:
        if not left <= a.members:
            continue
        for b in enumeration:
            if right <= b.members and b.members - a.members == frozenset(right):
                return a, b
    raise AssertionError("no matching configuration pair")


def test_las_swap_adaptation(las_enumeration):
    s1, s3 = find_swap_pair(las_enumeration)
    operator = derive_adaptation(s1, s3, trigger=["u21"])
    assert operator.add == frozenset({"u22", "u20", "u16", "u6"})
    assert frozenset({"u21", "u19", "u17", "u5"}) <= operator.delete
    assert operator.trigger == frozenset({"u21"})


def test_default_trigger_is_the_delete_set():
    a = cfg("a", {"x", "y"})
    b = cfg("b", {"x", "z"})
    operator = derive_adaptation(a, b)
    assert operator.trigger == operator.delete == frozenset({"y"})
    assert operator.add == frozenset({"z"})


def test_trigger_must_be_in_source():
    a = cfg("a", {"x"})
    b = cfg("b", {"y"})
    with pytest.raises(TriggerNotInSourceError):
        derive_adaptation(a, b, trigger=["nope"])


def test_identical_configurations_rejected():
    a = cfg("a", {"x"})
    with pytest.raises(IdenticalConfigurationsError):
        derive_adaptation(a, cfg("b", {"x"}))


def test_single_swap_has_singleton_lists():
    a = cfg("a", {"m", "p"})
    b = cfg("b", {"m", "q"})
    operator = derive_adaptation(a, b)
    assert len(operator.add) == 1 and len(operator.delete) == 1


def test_empty_effect_operator_rejected_at_construction():
    with pytest.raises(IdenticalConfigurationsError):
        AdaptationRequirement(frozenset({"t"}), frozenset(), frozenset())


# --- apply_adaptation ----------------------------------------------------------------

def test_apply_reaches_the_target(las_enumeration):
    db = las_enumeration.database
    s1, s3 = find_swap_pair(las_enumeration)
    operator = derive_adaptation(s1, s3)
    result = apply_adaptation(db, s1, operator)
    assert result.members == s3.members


def test_apply_rejects_inapplicable_operator(las_enumeration):
    db = las_enumeration.database
    s1, s3 = find_swap_pair(las_enumeration)
    operator = derive_adaptation(s1, s3)
    with pytest.raises(NotApplicableError):
        apply_adaptation(db, s3, operator)


def test_apply_reports_ramification_failure():
    db = parse_ok(
        "g p1 ! . t a. t b. k i1: a -> p1. k i2: b -> p1. k c1 !: a & b -> false. "
        "t c. k c2 !: b & c -> false."
    )
    enum = enumerate_configurations(db)
    source = next(c for c in enum if "a" in c.members)
    bad = AdaptationRequirement(
        trigger=frozenset({"a"}), add=frozenset({"b"}), delete=frozenset()
    )
    with pytest.raises(RamificationFailureError) as exc:
        apply_adaptation(db, source, bad)
    assert exc.value.report is not None
    assert not exc.value.report.consistency.ok


def test_adaptation_round_trip_on_random_configurations():
    rng = random.Random(11)
    pairs = 0
    for seed in range(30):
        db = generate_database(ModelGenSpec(seed=seed, tasks=4, goals=2))
        enum = enumerate_configurations(db)
        configs = list(enum.configurations)
        if len(configs) < 2:
            continue
        for _ in range(5):
            a, b = rng.sample(configs, 2)
            operator = derive_adaptation(a, b)
            assert apply_adaptation(enum.database, a, operator).members == b.members
            pairs += 1
    assert pairs >= 20


# --- build_roadmaps --------------------------------------------------------------------

def test_three_configurations_maxlen_two_give_nine_roadmaps():
    configs = [cfg(f"c{i}", {"m", f"x{i}"}) for i in range(3)]
    roadmaps = build_roadmaps(parse_ok(""), configs, 2)
    assert len(roadmaps) == 9  # 3 singletons + 6 ordered pairs


def test_single_configuration_roadmap():
    roadmaps = build_roadmaps(parse_ok(""), [cfg("c", {"x"})], 3)
    assert len(roadmaps) == 1
    assert roadmaps[0].adaptations == frozenset()


def test_maxlen_zero_rejected():
    with pytest.raises(ValueError):
        build_roadmaps(parse_ok(""), [cfg("c", {"x"})], 0)


def test_las_roadmaps_share_one_object_per_distinct_operator(las_enumeration):
    roadmaps = build_roadmaps(
        las_enumeration.database, las_enumeration.configurations, 2
    )
    operators = [op for r in roadmaps for op in r.adaptations]
    assert len(operators) == 128 * 127
    assert len({id(op) for op in operators}) == len(set(operators)) == 2186
    sets = [r.adaptations for r in roadmaps]
    assert len({id(s) for s in sets}) == len(set(sets))


def test_las_roadmaps_derive_each_distinct_operator_once(las_enumeration, monkeypatch):
    calls = []

    def counting(s_from, s_to, trigger=None):
        calls.append((s_from, s_to))
        return derive_adaptation(s_from, s_to, trigger)

    monkeypatch.setattr(roadmap, "derive_adaptation", counting)
    roadmaps = build_roadmaps(
        las_enumeration.database, las_enumeration.configurations, 2
    )
    assert len(roadmaps) == 128 + 128 * 127
    assert len(calls) == 2186


def test_identical_configurations_in_a_roadmap_are_rejected():
    configs = [cfg("a", {"x", "y"}), cfg("b", {"y", "x"})]
    assert len(build_roadmaps(parse_ok(""), configs, 1)) == 2
    with pytest.raises(IdenticalConfigurationsError):
        build_roadmaps(parse_ok(""), configs, 2)


def test_roadmap_limit_counts_every_roadmap():
    configs = [cfg(f"c{i}", {"m", f"x{i}"}) for i in range(3)]
    assert len(build_roadmaps(parse_ok(""), configs, 2, limit=9)) == 9
    message = r"^more than 8 roadmaps; raise the limit or lower max_len$"
    with pytest.raises(ResourceLimitError, match=message):
        build_roadmaps(parse_ok(""), configs, 2, limit=8)


# --- roadmap records ----------------------------------------------------------------

def test_roadmap_records_are_frozen_slotted_values(las_enumeration):
    db, configs = las_enumeration.database, las_enumeration.configurations[:12]
    rule = RoadmapValueSum("rt", 45.0, 4)
    first, second = (build_roadmaps(db, configs, 2) for _ in range(2))
    ranking = rank_roadmaps(db, first, rule)
    again = rank_roadmaps(db, second, rule)
    assert ranking.ranked and ranking.excluded
    assert first == second and list(map(hash, first)) == list(map(hash, second))
    assert ranking == again and hash(ranking) == hash(again)
    records = [first[-1], ranking.ranked[0], ranking.excluded[0]]
    for record in records:
        assert not hasattr(record, "__dict__")
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        assert type(copy) is type(record)


# --- rank_configurations ----------------------------------------------------------------

@pytest.fixture()
def ranked_db():
    db = parse_ok(
        "g p1 ! . t a: v = 5. t b: v = 3. k i1: a -> p1. k i2: b -> p1. "
        "k c1 !: a & b -> false."
    )
    return enumerate_configurations(db)


def test_rank_maximize(ranked_db):
    ranking = rank_configurations(
        ranked_db.database, ranked_db.configurations, MaximizeValue("v")
    )
    assert [r.value for r in ranking] == [5.0, 3.0]


def test_rank_minimize_is_reverse_of_maximize(ranked_db):
    up = rank_configurations(
        ranked_db.database, ranked_db.configurations, MaximizeValue("v")
    )
    down = rank_configurations(
        ranked_db.database, ranked_db.configurations, MinimizeValue("v")
    )
    assert [r.value for r in down] == [r.value for r in reversed(up)]


def test_rank_missing_value(ranked_db):
    with pytest.raises(MissingValueError):
        rank_configurations(
            ranked_db.database, ranked_db.configurations, MaximizeValue("ghost")
        )


def test_rank_preference_tiebreak():
    db = parse_ok(
        "g p1 ! . g p2 ! . t u16: v = 5. t u17: v = 5. t x. "
        "k i1: u16 -> p1. k i2: u17 -> p1. k i3: x -> p2. "
        "k c1 !: u16 & u17 -> false. pref: u16 > u17."
    )
    enum = enumerate_configurations(db)
    ranking = rank_configurations(
        enum.database, enum.configurations, MaximizeValueThenPreferences("v")
    )
    assert "u16" in ranking[0].configuration.members
    assert ranking[0].preference_count > ranking[1].preference_count
    assert ranking[0].pareto and not ranking[1].pareto


def test_rank_permutation_invariance(ranked_db):
    configs = list(ranked_db.configurations)
    base = rank_configurations(ranked_db.database, configs, MaximizeValue("v"))
    flipped = rank_configurations(
        ranked_db.database, list(reversed(configs)), MaximizeValue("v")
    )
    assert [r.configuration.id for r in base] == [r.configuration.id for r in flipped]


def test_rank_scaling_invariance():
    for scale in (1.0, 2.5, 10.0):
        db = parse_ok(
            f"g p1 ! . t a: v = {5 * scale!r}. t b: v = {3 * scale!r}. "
            "k i1: a -> p1. k i2: b -> p1. k c1 !: a & b -> false."
        )
        enum = enumerate_configurations(db)
        ranking = rank_configurations(
            enum.database, enum.configurations, MaximizeValue("v")
        )
        assert "a" in ranking[0].configuration.members


# --- rank_roadmaps -------------------------------------------------------------------------

def test_rank_roadmaps_prefers_higher_sum(ranked_db):
    roadmaps = build_roadmaps(ranked_db.database, ranked_db.configurations, 2)
    ranking = rank_roadmaps(
        ranked_db.database, roadmaps, RoadmapValueSum("v", floor=0.0, max_diff=99)
    )
    assert ranking.ranked[0].total == 8.0  # the two-configuration roadmaps
    assert ranking.ranked[-1].total == 3.0
    assert not ranking.excluded


def test_rank_roadmaps_floor_filter(ranked_db):
    roadmaps = build_roadmaps(ranked_db.database, ranked_db.configurations, 1)
    ranking = rank_roadmaps(
        ranked_db.database, roadmaps, RoadmapValueSum("v", floor=4.0, max_diff=99)
    )
    assert len(ranking.ranked) == 1 and ranking.ranked[0].total == 5.0
    assert [e.reason for e in ranking.excluded] == ["floor"]
    assert ranking.excluded[0].witness == 0


def test_rank_roadmaps_diff_filter(ranked_db):
    roadmaps = build_roadmaps(ranked_db.database, ranked_db.configurations, 2)
    ranking = rank_roadmaps(
        ranked_db.database, roadmaps, RoadmapValueSum("v", floor=0.0, max_diff=1)
    )
    excluded_pairs = [e for e in ranking.excluded if e.reason == "diff"]
    assert excluded_pairs  # the a<->b swap changes 4 members
    assert all(len(r.roadmap.configurations) == 1 for r in ranking.ranked)


def test_rank_roadmaps_filter_witnesses_verify(ranked_db):
    roadmaps = build_roadmaps(ranked_db.database, ranked_db.configurations, 2)
    rule = RoadmapValueSum("v", floor=4.0, max_diff=1)
    ranking = rank_roadmaps(ranked_db.database, roadmaps, rule)
    for item in ranking.excluded:
        seq = item.roadmap.configurations
        if item.reason == "floor":
            from roadmapper.quanteval import val

            values = val(sorted(seq[item.witness].members), "v", ranked_db.database)
            assert min(values) < rule.floor
        else:
            a, b = seq[item.witness], seq[item.witness + 1]
            assert len(a.members ^ b.members) > rule.max_diff


def test_rank_roadmaps_orders_by_canonical_keys_at_maxlen_three():
    db = parse_ok("t a: v = 1. t b: v = 2. t c: v = 3. t d: v = 2. t e. t f.")
    configs = [
        cfg("s1", {"c", "e"}),
        cfg("s2", {"a", "e"}),
        cfg("s3", {"b", "f"}),
        cfg("s4", {"d"}),
        cfg("s5", {"a", "f"}),
    ]
    roadmaps = build_roadmaps(db, configs, 3)
    for roadmap in roadmaps:
        seq = roadmap.configurations
        assert roadmap.adaptations == frozenset(
            derive_adaptation(a, b) for a, b in zip(seq, seq[1:])
        )
    random.Random(3).shuffle(roadmaps)
    ranking = rank_roadmaps(db, roadmaps, RoadmapValueSum("v", floor=1.5, max_diff=3))
    assert ranking.ranked and ranking.excluded
    assert {e.reason for e in ranking.excluded} == {"floor", "diff"}
    assert list(ranking.ranked) == sorted(
        ranking.ranked,
        key=lambda r: (-r.total, len(r.roadmap.configurations), r.roadmap.canonical_key),
    )
    assert list(ranking.excluded) == sorted(
        ranking.excluded, key=lambda e: e.roadmap.canonical_key
    )


def reference_rank_roadmaps(db, roadmaps, rule):
    """`rank_roadmaps` as it ranked on frozenset differences and per-sequence
    sort keys, kept verbatim as the oracle for the ranking on bitmasks."""
    ranked: list[RankedRoadmap] = []
    excluded: list[ExcludedRoadmap] = []
    value_cache: dict[frozenset[str], float] = {}
    # Comparing canonical positions orders roadmaps as comparing their
    # canonical keys would, without sorting each configuration's members again.
    distinct = {c.members for roadmap in roadmaps for c in roadmap.configurations}
    position = {
        members: i
        for i, members in enumerate(sorted(distinct, key=lambda m: tuple(sorted(m))))
    }

    def canonical_positions(roadmap: Roadmap) -> tuple[int, ...]:
        return tuple(position[c.members] for c in roadmap.configurations)

    def value_of(members: frozenset[str]) -> float:
        if members not in value_cache:
            value_cache[members] = _unique_value(db, members, rule.var)
        return value_cache[members]

    for roadmap in roadmaps:
        values = [value_of(c.members) for c in roadmap.configurations]
        floor_breach = next(
            (i for i, v in enumerate(values) if v < rule.floor), None
        )
        if floor_breach is not None:
            excluded.append(ExcludedRoadmap(roadmap, "floor", floor_breach))
            continue
        pairs = list(zip(roadmap.configurations, roadmap.configurations[1:]))
        diff_breach = next(
            (
                i
                for i, (a, b) in enumerate(pairs)
                if len(a.members ^ b.members) > rule.max_diff
            ),
            None,
        )
        if diff_breach is not None:
            excluded.append(ExcludedRoadmap(roadmap, "diff", diff_breach))
            continue
        ranked.append(RankedRoadmap(roadmap, sum(values)))
    ranked.sort(
        key=lambda r: (
            -r.total,
            len(r.roadmap.configurations),
            canonical_positions(r.roadmap),
        )
    )
    excluded.sort(key=lambda e: canonical_positions(e.roadmap))
    return RoadmapRanking(tuple(ranked), tuple(excluded))


def ranking_outcome(rank, db, roadmaps, rule):
    """The ranking, or the type and message of the error that ended it."""
    try:
        return rank(db, roadmaps, rule)
    except RoadmapperError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("quantities", [False, True], ids=["plain", "quantities"])
@pytest.mark.parametrize("tasks", [3, 4, 5, 6])
def test_rank_roadmaps_matches_the_reference_on_generated_models(tasks, quantities):
    compared = 0
    for seed in range(10):
        spec = ModelGenSpec(seed=seed, tasks=tasks, include_quantities=quantities)
        enum = enumerate_configurations(generate_database(spec), max_atoms=64)
        for max_len in (1, 2, 3):
            roadmaps = build_roadmaps(enum.database, enum.configurations, max_len)
            random.Random(seed).shuffle(roadmaps)
            for max_diff in (0, 1, 2, 3, 10):
                for floor in (-math.inf, 2.0, 5.0, 8.5):
                    rule = RoadmapValueSum("v1", floor, max_diff)
                    ours = ranking_outcome(rank_roadmaps, enum.database, roadmaps, rule)
                    assert ours == ranking_outcome(
                        reference_rank_roadmaps, enum.database, roadmaps, rule
                    ), (seed, max_len, max_diff, floor)
                    compared += isinstance(ours, RoadmapRanking) and bool(roadmaps)
    assert compared or not quantities


def test_rank_roadmaps_raises_the_reference_error_first():
    # s2 has no value of v; s3 and s4 each have two, named in their message.
    db = parse_ok("t a: v = 1. t b: v = 2. t c. t d: v = 3. t e: v = 4.")
    configs = [
        cfg("s1", {"a"}),
        cfg("s2", {"c"}),
        cfg("s3", {"d", "e"}),
        cfg("s4", {"b", "e"}),
    ]
    roadmaps = build_roadmaps(db, configs, 2)
    seen = set()
    for seed in range(20):
        random.Random(seed).shuffle(roadmaps)
        # At floor 1.5, s1 falls below the floor before s2 shows it has no value.
        for floor in (0.0, 1.5):
            rule = RoadmapValueSum("v", floor, 10)
            ours = ranking_outcome(rank_roadmaps, db, roadmaps, rule)
            assert ours == ranking_outcome(reference_rank_roadmaps, db, roadmaps, rule)
            seen.add(ours)
    assert seen == {
        (MissingValueError, "variable 'v' obtains no value in a configuration"),
        (
            NonSingletonValError,
            "variable 'v' obtains several values [3.0, 4.0]; "
            "expand value conflicts before ranking",
        ),
        (
            NonSingletonValError,
            "variable 'v' obtains several values [2.0, 4.0]; "
            "expand value conflicts before ranking",
        ),
    }


VALUE_MISSING = "variable {!r} obtains no value in a configuration"
VALUE_SEVERAL = "variable {!r} obtains several values {}; expand value conflicts before ranking"


def _value_outcome(value_of, db, members, var):
    """The value, by its repr, or the type and message of the error."""
    try:
        return repr(value_of(db, members, var))
    except RoadmapperError as exc:
        return type(exc), str(exc)


def _reference_value(db, members, var):
    return unique_val(
        sorted(members), var, db,
        missing=VALUE_MISSING.format(var),
        several=lambda xs: VALUE_SEVERAL.format(var, xs),
    )


def _value_cases(las_db):
    """(database, member sets) pairs. For each model of the support search's
    set, the first 16 configurations, each with its single removals and one
    with one and two ids the database lacks, read after enumeration filled the
    memo; and every member subset of four small models whose values raise or
    are several."""
    for _, db in _support_models(las_db):
        try:
            enum = enumerate_configurations(db, max_atoms=64)
        except RoadmapperError:
            continue
        sets = []
        for config in enum.configurations[:16]:
            sets.append(config.members)
            sets += [config.members - {m} for m in sorted(config.members)]
        if sets:
            sets.append(sets[0] | {"@ghost"})
            sets.append(sets[0] | {"@ghost", "~ghost"})
        yield enum.database, sets
    for text in (CYCLIC, DIVIDING, PROBABILISTIC, ROUND_ORDER):
        db = parse_ok(text)
        yield db, _all_subsets(db)


def test_unique_value_from_the_memo_matches_unique_val(las_db):
    outcomes = []
    for db, sets in _value_cases(las_db):
        for var in [*sorted(db.closure_index.assignments_by_var), "unassigned"]:
            for members in sets:
                expected = _value_outcome(_reference_value, db, members, var)
                assert _value_outcome(_unique_value, db, members, var) == expected, (
                    sorted(members), var
                )
                outcomes.append(expected)
    kinds = {o[0] if isinstance(o, tuple) else float for o in outcomes}
    assert kinds == {
        float, MissingValueError, NonSingletonValError, RefinementCycleError,
        DivisionByZeroError, UnresolvedReferenceError,
    }


# --- pairwise satisfaction preference ----------------------------------------------------------

def test_pairwise_preference_prefers_more_satisfying_value():
    db = parse_ok(
        "t a: v = 1. t b: v = 3. k c1 !: a & b -> false. satfn v = exp(1.0)."
    )
    s1, s2 = cfg("s1", {"a", "c1"}), cfg("s2", {"b", "c1"})
    result = pairwise_value_preference(db, s1, s2, "v")
    assert result.preference.kind is PreferenceKind.STRICT
    assert result.left_assumption.body.cond.rhs.value == 1.0


def test_pairwise_preference_equal_values_none():
    db = parse_ok("t a: v = 2. t b: v = 2. satfn v = exp(1.0).")
    assert pairwise_value_preference(db, cfg("x", {"a"}), cfg("y", {"b"}), "v") is None


def test_pairwise_preference_equal_satisfaction_is_indifferent():
    db = parse_ok(
        "t a: v = 10. t b: v = 12. satfn v = pwl((0.0, 0.6), (100.0, 0.6))."
    )
    result = pairwise_value_preference(db, cfg("x", {"a"}), cfg("y", {"b"}), "v")
    assert result.preference.kind is PreferenceKind.INDIFFERENT


def test_pairwise_preference_requires_satfn():
    db = parse_ok("t a: v = 1. t b: v = 2.")
    with pytest.raises(NoSatisfactionFnError):
        pairwise_value_preference(db, cfg("x", {"a"}), cfg("y", {"b"}), "v")


def test_pairwise_preference_rejects_multiple_values():
    db = parse_ok("t a: v = 1. t b: v = 2. satfn v = exp(1.0).")
    with pytest.raises(NonSingletonValError):
        pairwise_value_preference(db, cfg("x", {"a", "b"}), cfg("y", {"b"}), "v")
