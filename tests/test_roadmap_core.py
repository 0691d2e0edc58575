"""`build_roadmaps` over the index core against the loop that built each
roadmap record in turn: the same roadmaps, and the same first error; and
the core's sequence order and interned operator sets."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from roadmapper import roadmap
from roadmapper.configuration import Configuration
from roadmapper.errors import (
    IdenticalConfigurationsError,
    ResourceLimitError,
    RoadmapperError,
)
from roadmapper.roadmap import Roadmap, _IndexRoadmaps, build_roadmaps, derive_adaptation

from conftest import declaring


def reference_build_roadmaps(db, configs, max_len, *, limit):
    """`build_roadmaps` as it built and counted one roadmap record at a time,
    deriving each distinct operator on its first pair: the oracle for the
    closed-form limit and for the error raised first."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    ordered = sorted(configs, key=lambda c: c.canonical_key)
    bits: dict[str, int] = {}
    mask = {}
    for members in (c.members for c in ordered):
        mask[members] = 0
        for member in members:
            mask[members] |= bits.setdefault(member, 1 << len(bits))
    roadmaps = []
    operators = {}
    for length in range(1, min(max_len, len(ordered)) + 1):
        for sequence in itertools.permutations(ordered, length):
            keys = []
            for s_from, s_to in zip(sequence, sequence[1:]):
                a, b = mask[s_from.members], mask[s_to.members]
                key = (b & ~a, a & ~b)
                if key not in operators:
                    operators[key] = derive_adaptation(s_from, s_to)
                keys.append(key)
            roadmaps.append(Roadmap(sequence, frozenset(map(operators.get, keys))))
            if len(roadmaps) > limit:
                count = sum(
                    math.perm(len(ordered), k) for k in range(1, min(max_len, len(ordered)) + 1)
                )
                raise ResourceLimitError(
                    f"{count} roadmaps up to max_len {max_len} exceed the limit of {limit}; "
                    "lower max_len (--maxlen) or, in the library, pass a larger limit="
                )
    return roadmaps


def build_outcome(build, configs, max_len, limit):
    """The roadmaps, or the type and message of the error that ended the build."""
    try:
        return build(declaring("abcd"), configs, max_len, limit=limit)
    except (RoadmapperError, ValueError) as exc:
        return type(exc), str(exc)


def test_build_roadmaps_matches_the_reference_and_its_first_error():
    # Member sets drawn from four ids repeat and nest, so identical pairs and
    # pairs with nothing to delete (which cannot be derived) come at every
    # canonical position, before and after each limit.
    rng = random.Random(5)
    kinds = set()
    for case in range(150):
        pool = [frozenset(rng.sample("abcd", rng.randint(1, 4))) for _ in range(4)]
        configs = [
            Configuration(f"s{i}", rng.choice(pool)) for i in range(rng.randint(1, 5))
        ]
        n = len(configs)
        for max_len in (1, 2, 3):
            count = sum(math.perm(n, k) for k in range(1, min(max_len, n) + 1))
            for limit in sorted({*range(min(count, 24) + 2), count - 1, count, count + 1}):
                ours = build_outcome(build_roadmaps, configs, max_len, limit)
                expected = build_outcome(reference_build_roadmaps, configs, max_len, limit)
                assert ours == expected, (case, max_len, limit)
                kinds.add(ours[0] if isinstance(ours, tuple) else list)
                if isinstance(ours, list):
                    assert len(ours) == count
    assert kinds == {list, ResourceLimitError, IdenticalConfigurationsError, ValueError}


def test_roadmap_limit_is_checked_before_any_record_is_built(las_enumeration, monkeypatch):
    built = []
    monkeypatch.setattr(roadmap, "Roadmap", lambda *fields: built.append(fields))
    message = (
        r"^2064640 roadmaps up to max_len 3 exceed the limit of 20000; "
        r"lower max_len \(--maxlen\) or, in the library, pass a larger limit=$"
    )
    with pytest.raises(ResourceLimitError, match=message):
        build_roadmaps(las_enumeration.database, las_enumeration.configurations, 3)
    assert built == []


def test_a_roadmap_that_repeats_an_operator_matches_the_reference():
    # Up to three configurations no roadmap repeats an operator: A-B = B-C
    # would lie in B, and A-B is disjoint from B. Four configurations of this
    # antichain can: {x,p} -> {y,p} -> {x,q} -> {y,q} takes x to y twice.
    configs = [
        Configuration(f"s{i}", frozenset(members))
        for i, members in enumerate([{"x", "p"}, {"y", "p"}, {"x", "q"}, {"y", "q"}])
    ]
    db = declaring("xypq")
    ours = build_roadmaps(db, configs, 4)
    assert ours == reference_build_roadmaps(db, configs, 4, limit=20000)
    assert len(ours) == 64
    repeats = [r for r in ours if len(r.configurations) - 1 > len(r.adaptations)]
    assert len(repeats) == 8
    assert all(len(r.configurations) == 4 and len(r.adaptations) == 2 for r in repeats)


def operator_set(core, sequence):
    """The positions of the operators a sequence needs, one frozenset built
    from its steps: the oracle for the core's interned operator sets."""
    return frozenset(core.steps[a][b] for a, b in zip(sequence, sequence[1:]))


@pytest.mark.parametrize("max_len", [1, 2, 3, 4])
def test_sequences_come_in_permutation_order_with_interned_operator_sets(max_len):
    # A grid of {x,y,z} by {p,q}: an antichain in which many pairs share an
    # operator, so the sets of longer roadmaps meet the same steps again.
    grid = [frozenset(pair) for pair in itertools.product("xyz", "pq")]
    for n in range(7):
        core = _IndexRoadmaps(
            declaring("xyzpq"),
            [Configuration(f"s{i}", members) for i, members in enumerate(grid[:n])],
            max_len,
            10**6,
        )
        assert core.sequences == list(itertools.chain.from_iterable(
            itertools.permutations(range(n), k) for k in range(1, min(max_len, n) + 1)
        ))
        assert len(core.set_numbers) == len(core.sequences)
        for sequence, number in zip(core.sequences, core.set_numbers):
            assert core.operator_sets[number] == operator_set(core, sequence)
        assert len(set(core.operator_sets)) == len(core.operator_sets)
