from __future__ import annotations

import pytest

from roadmapper.errors import GenerationError, RoadmapperError, TooLargeError
from roadmapper.model import Normal
from roadmapper.testkit import (
    ModelGenSpec,
    brute_configurations,
    brute_entailment,
    generate_database,
    normal_cdf_by_integration,
    parse_dot,
    quantile_bisect,
)

from conftest import parse_ok


def test_empty_database_oracle_returns_the_empty_configuration():
    db = parse_ok("")
    assert brute_configurations(db) == [frozenset()]


def test_unsatisfiable_mandatory_goal_oracle_returns_nothing():
    db = parse_ok("g p1 !. t a.")
    assert brute_configurations(db) == []


def test_oracle_rejects_large_models():
    db = parse_ok(" ".join(f"t a{i}." for i in range(13)))
    with pytest.raises(TooLargeError):
        brute_configurations(db)


def test_entailment_oracle_rejects_conflicts():
    db = parse_ok("t a. t b. k c1: a & b -> false.")
    with pytest.raises(ValueError):
        brute_entailment([db["a"], db["c1"]])


def test_entailment_oracle_rejects_large_inputs():
    text = " ".join(f"t a{i}." for i in range(11))
    db = parse_ok(text)
    with pytest.raises(TooLargeError):
        brute_entailment([db[i] for i in db.ids()])


def test_entailment_oracle_simple_chain():
    db = parse_ok("t a. g p1. k i1: a -> p1.")
    entailed = brute_entailment([db["a"], db["i1"]])
    assert {"a", "p1"} <= entailed


def test_quantile_median():
    assert abs(quantile_bisect(Normal(60.0, 2025.0), 0.5) - 60.0) <= 1e-3


def test_integration_cdf_extremes():
    assert normal_cdf_by_integration(-100.0, 0.0, 1.0) == 0.0
    assert normal_cdf_by_integration(100.0, 0.0, 1.0) == 1.0


def test_generator_is_deterministic():
    spec = ModelGenSpec(seed=42, tasks=4, goals=2, include_quantities=True)
    assert generate_database(spec) == generate_database(spec)


def test_generator_produces_valid_databases():
    for seed in range(10):
        db = generate_database(ModelGenSpec(seed=seed))
        assert db.ids()  # build_database already validated it


def test_a_spec_without_valid_draws_is_a_generation_error():
    # Every task mandatory and every pair of tasks in conflict, most of the
    # conflicts mandatory: no draw is consistent.
    spec = ModelGenSpec(seed=7, tasks=6, conflict_density=1.0, mandatory_ratio=4.0)
    with pytest.raises(GenerationError, match="for seed 7 with 6 tasks in 64 attempts"):
        generate_database(spec)
    assert issubclass(GenerationError, RoadmapperError)


def test_parse_dot_rejects_garbage():
    with pytest.raises(ValueError):
        parse_dot("graph { }")
    with pytest.raises(ValueError):
        parse_dot('digraph "x" {\n  not a statement\n}')
