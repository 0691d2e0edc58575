from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import roadmapper
from roadmapper import configuration
from roadmapper.configuration import (
    Configuration,
    check_configuration,
    enumerate_configurations,
)
from roadmapper.errors import ResourceLimitError, UnresolvedReferenceError, WrongSortError
from roadmapper.model import (
    Compare,
    Const,
    Implication,
    QuantVar,
    Requirement,
    SimpleQuant,
    T,
    Var,
)
from roadmapper.operationalization import (
    DEFAULT_SEARCH_LIMIT,
    _Budget,
    satisfaction_closure,
)
from roadmapper.testkit import ModelGenSpec, brute_configurations, generate_database
from roadmapper.transforms import expand_value_conflicts

from conftest import parse_ok


def test_las_first_configuration_passes_all_six(las_enumeration):
    db = las_enumeration.database
    report = check_configuration(db, las_enumeration.configurations[0])
    assert report.is_configuration
    assert report.failing() == []


def test_las_union_fails_consistency(las_enumeration):
    db = las_enumeration.database
    with_u16 = next(c for c in las_enumeration if "u16" in c.members)
    with_u17 = next(c for c in las_enumeration if "u17" in c.members)
    report = check_configuration(db, with_u16.members | with_u17.members)
    assert not report.consistency.ok
    assert "c4" in report.consistency.witness


def test_removing_support_task_breaks_qualitative_threshold(las_enumeration):
    db = las_enumeration.database
    config = next(c for c in las_enumeration if "u1" in c.members)
    report = check_configuration(db, config.members - {"u1"})
    assert not report.qual_threshold.ok
    assert "p2" not in satisfaction_closure(config.members - {"u1"}, db).satisfied


def test_unknown_member_raises():
    db = parse_ok("t a.")
    with pytest.raises(UnresolvedReferenceError):
        check_configuration(db, ["ghost"])


def test_non_member_sort_raises():
    db = parse_ok("g p1. t a.")
    with pytest.raises(WrongSortError):
        check_configuration(db, ["p1"])


@pytest.mark.parametrize(
    "members, error, message",
    [
        (
            ["zz", "ghost", "a", "p1"],
            UnresolvedReferenceError,
            "configuration member 'ghost' not in database",
        ),
        (
            ["zz", "p1", "a"],
            WrongSortError,
            "configuration member 'p1' is g-sorted; "
            "only domain assumptions and tasks may be members",
        ),
    ],
    ids=["unresolved", "wrong-sort"],
)
def test_member_errors_name_the_first_offending_member(members, error, message):
    db = parse_ok("g p1. t a. k b.")
    with pytest.raises(error) as caught:
        check_configuration(db, members)
    assert str(caught.value) == message
    assert check_configuration(db, ["a", "b"]) == check_configuration(db, ("b", "a"))


def test_two_exclusive_alternatives_give_two_configurations():
    db = parse_ok(
        "g p1 ! . t a. t b. k i1: a -> p1. k i2: b -> p1. k c1 !: a & b -> false."
    )
    enum = enumerate_configurations(db)
    assert [sorted(c.members) for c in enum] == [
        ["a", "c1", "i1"],
        ["b", "c1", "i2"],
    ]


def test_compatible_optional_task_joins_every_configuration():
    db = parse_ok(
        "g p1 ! . t a. t b. k i1: a -> p1. k i2: b -> p1. k c1 !: a & b -> false. "
        't extra ? "harmless".'
    )
    enum = enumerate_configurations(db)
    assert len(enum) == 2
    assert all("extra" in c.members for c in enum)


def test_unsatisfiable_mandatory_goal_gives_no_configurations():
    db = parse_ok("g p1 !. t a.")
    enum = enumerate_configurations(db)
    assert len(enum) == 0


def test_empty_database_has_the_empty_configuration():
    db = parse_ok("")
    enum = enumerate_configurations(db)
    assert [sorted(c.members) for c in enum] == [[]]


def test_atom_limit_guard():
    text = " ".join(f"t a{i}." for i in range(30))
    db = parse_ok(text)
    with pytest.raises(ResourceLimitError):
        enumerate_configurations(db)
    enum = enumerate_configurations(db, max_atoms=40)
    assert len(enum) == 1


def test_max_results_truncation():
    db = parse_ok(
        "g p1 ! . t a. t b. k i1: a -> p1. k i2: b -> p1. k c1 !: a & b -> false."
    )
    enum = enumerate_configurations(db, max_results=1)
    assert enum.truncated and len(enum) == 1


def test_value_conflicts_expanded_before_enumeration():
    db = parse_ok("t a: v = 3. t b: v = 7.")
    enum = enumerate_configurations(db)
    assert all("@macro_confl_v_3_7" in c.members for c in enum)
    assert not any({"a", "b"} <= c.members for c in enum)


def test_plain_member_kept_as_dominance_blocker():
    # `blocker` earns its place only by making the optional addition fire the
    # mandatory conflict; both outcomes are legitimate configurations.
    db = parse_ok(
        "g p1 ! . t x. k i1: x -> p1. t blocker. t opt ?. "
        "k c1 !: blocker & opt -> false."
    )
    enum = enumerate_configurations(db)
    families = {tuple(sorted(c.members)) for c in enum}
    assert families == {
        ("c1", "i1", "opt", "x"),
        ("blocker", "c1", "i1", "x"),
    }
    oracle = {tuple(sorted(s)) for s in brute_configurations(enum.database)}
    assert families == oracle


def test_every_returned_configuration_passes_check(las_enumeration):
    db = las_enumeration.database
    for config in las_enumeration.configurations[:16]:
        assert check_configuration(db, config).is_configuration


def test_pareto_efficiency_restated(las_enumeration):
    db = las_enumeration.database
    optionals = set(db.optional_member_ids())
    for config in las_enumeration.configurations[:8]:
        for opt in sorted(optionals - config.members):
            grown = satisfaction_closure(config.members | {opt}, db)
            assert grown.bottom  # adding any optional must break consistency


def test_irredundancy_restated(las_enumeration):
    db = las_enumeration.database
    mandatory = {
        i for i in db.mandatory_ids() if db[i].sort.value in ("k", "t")
    }
    config = las_enumeration.configurations[0]
    for member in sorted(config.members - mandatory):
        report = check_configuration(db, config.members - {member})
        assert not report.is_configuration


@pytest.mark.parametrize("seed", range(40))
def test_oracle_equivalence_on_random_models(seed):
    rng = random.Random(seed)
    db = generate_database(
        ModelGenSpec(
            seed=seed,
            tasks=rng.randint(2, 5),
            assumptions=rng.randint(0, 2),
            goals=rng.randint(1, 3),
            conflict_density=rng.choice([0.1, 0.3, 0.5]),
            optional_ratio=rng.choice([0.1, 0.4]),
            mandatory_ratio=rng.choice([0.3, 0.6]),
            include_quantities=seed % 3 == 0,
        )
    )
    enum = enumerate_configurations(db)
    if len(enum.database.member_ids()) > 12:
        pytest.skip("expanded model larger than the oracle cap")
    engine = sorted(tuple(sorted(c.members)) for c in enum)
    oracle = sorted(tuple(sorted(s)) for s in brute_configurations(enum.database))
    assert engine == oracle


@pytest.mark.parametrize("quantities", [False, True], ids=["plain", "quant"])
@pytest.mark.parametrize("tasks", [3, 4])
@pytest.mark.parametrize("seed", range(10))
def test_bottom_is_monotone_after_value_conflict_expansion(seed, tasks, quantities):
    # Plain growth prunes every superset of an inconsistent set, which is
    # sound only if adding a member never makes a set consistent again.
    db, _ = expand_value_conflicts(
        generate_database(
            ModelGenSpec(seed=seed, tasks=tasks, include_quantities=quantities)
        )
    )
    ids = sorted(db.member_ids())
    bottom = [
        satisfaction_closure(
            frozenset(m for bit, m in enumerate(ids) if mask >> bit & 1), db
        ).bottom
        for mask in range(1 << len(ids))
    ]
    for mask, inconsistent in enumerate(bottom):
        if inconsistent:
            for bit in range(len(ids)):
                assert bottom[mask | 1 << bit], (
                    sorted(m for b, m in enumerate(ids) if mask >> b & 1),
                    ids[bit],
                )


@pytest.mark.parametrize("quantities", [False, True], ids=["plain", "quant"])
@pytest.mark.parametrize("tasks", [3, 4])
@pytest.mark.parametrize("seed", range(10))
def test_target_meeting_consistent_sets_hold_a_coverage(seed, tasks, quantities):
    # The enumerator keeps every member of all coverages inside a candidate
    # without a closure, which is sound only if a consistent set holding the
    # mandatory members that meets every mandatory target holds a coverage.
    db, _ = expand_value_conflicts(
        generate_database(
            ModelGenSpec(seed=seed, tasks=tasks, include_quantities=quantities)
        )
    )
    index = db.closure_index
    coverages, _ = configuration._relevant_plains(
        db, _Budget(DEFAULT_SEARCH_LIMIT, "search_limit", "enumerate_configurations")
    )
    mandatory = frozenset(index.mandatory_members)
    rest = sorted(set(db.member_ids()) - mandatory)
    targets = index.qual_targets + index.quant_targets
    for mask in range(1 << len(rest)):
        members = mandatory | {m for bit, m in enumerate(rest) if mask >> bit & 1}
        closure = satisfaction_closure(members, db)
        if closure.bottom or not closure.satisfied.issuperset(targets):
            continue
        assert any(c <= members for c in coverages), sorted(members)


def test_canonical_order_and_labels():
    db = parse_ok(
        "g p1 ! . t a. t b. k i1: a -> p1. k i2: b -> p1. k c1 !: a & b -> false."
    )
    enum = enumerate_configurations(db)
    keys = [c.canonical_key for c in enum]
    assert keys == sorted(keys)
    assert [c.id for c in enum] == ["S1", "S2"]


def test_from_members_label_does_not_depend_on_hash_seed():
    script = (
        "from roadmapper.configuration import Configuration; "
        "print(Configuration.from_members(['u1', 'u2']).id)"
    )
    package_root = str(Path(roadmapper.__file__).resolve().parent.parent)
    labels = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=package_root)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        labels.append(done.stdout.strip())
    assert labels[0] == labels[1] == Configuration.from_members(["u2", "u1"]).id
    assert labels[0].startswith("cfg-") and len(labels[0]) == 12


def _assert_reports_match_fresh_checks(enum):
    assert len(enum.reports) == len(enum.configurations)
    for config, report in zip(enum.configurations, enum.reports):
        assert report == check_configuration(enum.database, config)
        assert report.is_configuration


def test_enumeration_reports_match_fresh_checks(las_enumeration):
    _assert_reports_match_fresh_checks(las_enumeration)


@pytest.mark.parametrize("seed", range(6))
def test_enumeration_reports_match_fresh_checks_on_generated_models(seed):
    db = generate_database(
        ModelGenSpec(seed=seed, tasks=4, include_quantities=seed % 2 == 0)
    )
    enum = enumerate_configurations(db)
    _assert_reports_match_fresh_checks(enum)
    if len(enum) > 1:
        cut = enumerate_configurations(db, max_results=1)
        assert cut.truncated and len(cut.reports) == 1
        assert cut.reports[0] == enum.reports[0]


def test_truncated_las_enumeration_keeps_matching_reports(las_db, las_enumeration):
    cut = enumerate_configurations(las_db, max_atoms=64, max_results=5)
    assert cut.truncated
    assert cut.reports == las_enumeration.reports[:5]
    _assert_reports_match_fresh_checks(cut)


def test_derived_database_builds_its_own_closure_index():
    db = parse_ok("g p1 ! . t a: v = 1. k i1: a -> p1. t b.")
    index = db.closure_index
    assert db.closure_index is index
    assert "p1" not in satisfaction_closure(["b"], db).satisfied

    grown = db.with_requirement(Requirement("i2", Implication(frozenset({"b"}), "p1")))
    assert grown.closure_index is not index
    assert "i2" in grown.closure_index.implications
    assert "i2" not in index.implications
    assert "p1" in satisfaction_closure(["b", "i2"], grown).satisfied

    two = Compare(Var(QuantVar("v")), "=", Const(2.0))
    conflicting = db.with_requirement(Requirement("c", SimpleQuant(T, two)))
    conflicting.closure_index  # built before the rewrite below
    expanded, report = expand_value_conflicts(conflicting)
    assert report.added_requirements
    assert expanded.closure_index is not conflicting.closure_index
    conflicts = sorted(expanded.closure_index.conflicts)
    assert conflicts and set(conflicts) <= set(report.added_requirements)
    assert not conflicting.closure_index.conflicts
    assert satisfaction_closure(["a", "c", *conflicts], expanded).bottom


_CACHE_BOUND_SPECS = [
    ModelGenSpec(seed=seed, tasks=tasks, include_quantities=quantities)
    for tasks in (3, 4, 6, 8)
    for quantities in (False, True)
    for seed in range(3)
]


def test_a_tiny_verdict_cache_changes_no_result(monkeypatch, las_db, las_enumeration):
    full = [las_enumeration] + [
        enumerate_configurations(generate_database(spec), max_atoms=64)
        for spec in _CACHE_BOUND_SPECS
    ]
    limit = 64  # member ids; a LAS configuration has up to 47
    monkeypatch.setattr(configuration, "_VERDICT_LIMIT", limit)
    held = []
    verdict = configuration._Search.verdict

    def recorded(search, members):
        found = verdict(search, members)
        held.append(sum(map(len, search.verdicts)))
        return found

    monkeypatch.setattr(configuration._Search, "verdict", recorded)
    tiny = [enumerate_configurations(las_db, max_atoms=64)] + [
        enumerate_configurations(generate_database(spec), max_atoms=64)
        for spec in _CACHE_BOUND_SPECS
    ]
    for before, after in zip(full, tiny):
        assert after.configurations == before.configurations
        assert after.reports == before.reports
    assert max(held) <= limit
    assert any(later < earlier for earlier, later in zip(held, held[1:]))

    db = las_enumeration.database
    shared: dict = {}
    for config in las_enumeration.configurations[:16]:
        for members in [config.members] + [config.members - {m} for m in sorted(config.members)]:
            assert check_configuration(db, members, shared) == check_configuration(db, members)
            assert sum(map(len, shared)) <= limit


def test_las_minimality_is_mostly_decided_without_closures(monkeypatch, las_db):
    computed = 0
    closure = configuration.satisfaction_closure

    def counted(*args, **kwargs):
        nonlocal computed
        computed += 1
        return closure(*args, **kwargs)

    monkeypatch.setattr(configuration, "satisfaction_closure", counted)
    enumerate_configurations(las_db, max_atoms=64)
    # 2,112 when every single removal from each of the 128 configurations
    # runs the full check.
    assert computed <= 400


def test_las_enumeration_memory_stays_bounded(las_enumeration):
    db = las_enumeration.database  # value conflicts expanded, index built
    tracemalloc.start()
    try:
        enum = enumerate_configurations(db, max_atoms=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert enum.configurations == las_enumeration.configurations
    assert peak <= 9 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


@pytest.mark.parametrize(
    "text, limit, phase, explored",
    [
        (
            "g p1 !. g p2 !. t a. t b. t c. t d. k i1: a -> p1. k i2: b -> p1. "
            "k i3: c -> p2. k i4: d -> p2.",
            3,
            "threshold-support combination",
            4,
        ),
        (
            "g p1 ! . t x. k i1: x -> p1. t blocker. t opt ?. "
            "k c1 !: blocker & opt -> false.",
            2,
            "configuration growth",
            3,
        ),
        ("t o1 ?. t o2 ?. t o3 ?.", 4, "optional extension", 5),
        (
            "g p1 !. g p2 !. t a. t b. t c. t d. k i1: a -> p1. k i2: b -> p1. "
            "k i3: c -> p2. k i4: d -> p2.",
            1,
            "threshold-support search for 'p1'",
            2,
        ),
        (
            "t a ?. t b. t x. t y. k i1 !: x -> b. k i2 !: y -> b. "
            "k c1 !: a & b -> false.",
            1,
            "conflict-pool support search",
            2,
        ),
    ],
    ids=["combination", "growth", "optional", "threshold-support", "conflict-pool"],
)
def test_search_limit_error_names_phase_progress_and_knob(text, limit, phase, explored):
    with pytest.raises(ResourceLimitError) as caught:
        enumerate_configurations(parse_ok(text), search_limit=limit)
    message = str(caught.value)
    assert message.startswith(phase)
    assert f"after {explored} nodes" in message
    assert f"search_limit={limit}" in message
    assert "search_limit keyword of enumerate_configurations" in message
    assert "CLI has no option" in message
    assert enumerate_configurations(parse_ok(text), search_limit=64).configurations


def test_search_limit_bounds_the_total_of_all_phases():
    # The support search for p explores 1 node, the coverage combination 1,
    # growth 1 and optional extension 7: each phase stays within 7, and
    # together they explore 10.
    db = parse_ok("g p !. t a. k i: a -> p. t o1 ?. t o2 ?.")
    with pytest.raises(ResourceLimitError) as caught:
        enumerate_configurations(db, search_limit=7)
    assert str(caught.value).startswith(
        "optional extension of a base stopped after 8 nodes, more than search_limit=7"
    )
    assert len(enumerate_configurations(db, search_limit=10)) == 1


def test_many_optional_members_exhaust_the_budget_not_the_stack():
    text = "g p !.\nt base !.\nk i0: base -> p.\n" + "".join(
        f"t o{i} ?.\n" for i in range(1200)
    )
    with pytest.raises(ResourceLimitError) as caught:
        enumerate_configurations(parse_ok(text), max_atoms=4000, search_limit=2000)
    assert str(caught.value).startswith("optional extension of a base stopped after")
