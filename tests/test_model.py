from __future__ import annotations

import itertools

import pytest

from roadmapper.errors import (
    CyclicReferenceError,
    DanglingReferenceError,
    DuplicateIdError,
    DivisionByZeroError,
    InconsistentMandatorySetError,
)
from roadmapper.model import (
    BinOp,
    Compare,
    Conflict,
    Const,
    G,
    Implication,
    K,
    Modality,
    Normal,
    PiecewiseLinear,
    PlateauThenDecay,
    Preference,
    PreferenceKind,
    ProbCompare,
    PropVar,
    Q,
    QuantVar,
    Requirement,
    S,
    SimpleProp,
    SimpleQuant,
    Softgoal,
    Sort,
    T,
    VagueProp,
    Var,
    add_requirement,
    build_database,
    select,
)

from conftest import parse_ok


def prop(req_id: str, sort=T, modality=Modality.PLAIN) -> Requirement:
    return Requirement(req_id, SimpleProp(sort, PropVar(req_id)), modality)


def test_add_requirement_to_empty_database():
    db = build_database([])
    out = add_requirement(db, prop("r1", K))
    assert len(out.requirements) == 1
    assert len(db.requirements) == 0  # input untouched


def test_add_requirement_duplicate_id():
    db = build_database([prop("r1", K)])
    with pytest.raises(DuplicateIdError):
        add_requirement(db, prop("r1", K))


def test_add_requirement_dangling_reference():
    db = build_database([prop("a"), prop("g1", G)])
    bad = Requirement("imp", Implication(frozenset({"u99"}), "g1"))
    with pytest.raises(DanglingReferenceError):
        add_requirement(db, bad)


def test_select_filters_by_sort_and_modality():
    pool = {
        prop("a", T, Modality.MANDATORY),
        prop("b", T),
        prop("c", G, Modality.MANDATORY),
    }
    picked = select(T, Modality.MANDATORY, pool)
    assert {r.id for r in picked} == {"a"}


def test_select_empty_input():
    assert select(G, Modality.PLAIN, set()) == set()


def test_select_partitions_pool(las_db):
    pool = list(las_db)
    union = set()
    for sort, modality in itertools.product(Sort, Modality):
        picked = select(sort, modality, pool)
        assert picked <= set(pool)
        assert all(r.sort is sort and r.modality is modality for r in picked)
        union |= picked
    assert union == set(pool)


def test_select_optional_assumptions_matches_linear_scan(las_db):
    picked = select(K, Modality.OPTIONAL, list(las_db))
    scan = {
        r
        for r in las_db
        if r.sort is K and r.modality is Modality.OPTIONAL
    }
    assert picked == scan


def test_requirement_sorts():
    assert prop("x", G).sort is G
    soft = Requirement("s1", Softgoal(VagueProp("fast")))
    assert soft.sort is S
    imp = Requirement("i", Implication(frozenset({"a"}), "b"))
    assert imp.sort is K and imp.is_complex


def test_complex_requirements_cannot_be_referenced():
    reqs = [
        prop("a"),
        prop("g1", G),
        Requirement("i1", Implication(frozenset({"a"}), "g1")),
        Requirement("i2", Implication(frozenset({"i1"}), "g1")),
    ]
    with pytest.raises(DanglingReferenceError):
        build_database(reqs)


def test_implication_cycle_rejected():
    reqs = [
        prop("a"),
        prop("b", G),
        Requirement("i1", Implication(frozenset({"a"}), "b")),
        Requirement("i2", Implication(frozenset({"b"}), "a")),
    ]
    with pytest.raises(CyclicReferenceError):
        build_database(reqs)


def test_implication_check_handles_long_chains():
    reqs = [prop("a0")] + [prop(f"a{i}", G) for i in range(1, 3001)]
    reqs += [
        Requirement(f"i{i}", Implication(frozenset({f"a{i - 1}"}), f"a{i}"))
        for i in range(1, 3001)
    ]
    build_database(reqs)
    closing = Requirement("i0", Implication(frozenset({"a3000"}), "a0"))
    with pytest.raises(CyclicReferenceError):
        build_database(reqs + [closing])


def test_strict_self_preference_rejected_at_build():
    strict = Preference(PreferenceKind.STRICT, "a", "a")
    with pytest.raises(CyclicReferenceError, match="strict preference of 'a' over itself"):
        build_database([prop("a")], [strict])
    weak = Preference(PreferenceKind.WEAK, "a", "a")
    assert build_database([prop("a")], [weak]).preferences == {weak}


def test_self_implication_rejected():
    with pytest.raises(CyclicReferenceError):
        Implication(frozenset({"a"}), "a")


def test_conflict_needs_two_antecedents():
    with pytest.raises(ValueError):
        Conflict(frozenset({"a"}))


def test_inconsistent_mandatory_set_rejected_at_build():
    reqs = [
        prop("a", T, Modality.MANDATORY),
        prop("b", T, Modality.MANDATORY),
        Requirement("c", Conflict(frozenset({"a", "b"})), Modality.MANDATORY),
    ]
    with pytest.raises(InconsistentMandatorySetError):
        build_database(reqs)


def test_division_by_constant_zero_rejected_at_construction():
    with pytest.raises(DivisionByZeroError):
        BinOp("/", Const(1.0), Const(0.0))


def test_distribution_variance_positive():
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)


def test_prob_compare_level_range():
    with pytest.raises(ValueError):
        ProbCompare(QuantVar("v"), "<=", Const(1.0), ">=", Const(1.5))


def test_distribution_condition_only_in_k_or_t():
    from roadmapper.model import Distributed

    with pytest.raises(ValueError):
        SimpleQuant(Q, Distributed(QuantVar("v"), Normal(0.0, 1.0)))


def test_goal_cannot_be_quantitative():
    with pytest.raises(ValueError):
        SimpleQuant(G, Compare(Var(QuantVar("v")), "=", Const(1.0)))


def test_satisfaction_function_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear(((0.0, 0.5), (0.0, 0.7)))
    with pytest.raises(ValueError):
        PiecewiseLinear(((0.0, 1.5),))
    with pytest.raises(ValueError):
        PlateauThenDecay(6.0, 6.0)


def test_quantvar_units_are_annotations_only():
    assert QuantVar("t2", "sec") == QuantVar("t2")
    assert hash(QuantVar("t2", "sec")) == hash(QuantVar("t2", "min"))


def test_database_values_shared_not_mutated():
    db = parse_ok("t a. g p1. k i1: a -> p1.")
    out = add_requirement(db, prop("b"))
    assert "b" in out and "b" not in db
