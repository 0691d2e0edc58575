"""`build_roadmaps` over the index core against the loop that built each
roadmap record in turn: the same roadmaps, and the same first error."""

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
from roadmapper.roadmap import Roadmap, build_roadmaps, derive_adaptation

from conftest import parse_ok


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
                raise ResourceLimitError(
                    f"more than {limit} roadmaps; raise the limit or lower max_len"
                )
    return roadmaps


def build_outcome(build, configs, max_len, limit):
    """The roadmaps, or the type and message of the error that ended the build."""
    try:
        return build(parse_ok(""), configs, max_len, limit=limit)
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
    message = r"^more than 20000 roadmaps; raise the limit or lower max_len$"
    with pytest.raises(ResourceLimitError, match=message):
        build_roadmaps(las_enumeration.database, las_enumeration.configurations, 3)
    assert built == []
