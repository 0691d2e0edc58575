from __future__ import annotations

from collections.abc import Iterable, Set
from pathlib import Path

import pytest

from roadmapper.configuration import enumerate_configurations
from roadmapper.inference import Closure, _resolve_premises
from roadmapper.model import Conflict, Implication, Requirement
from roadmapper.parser import load_file, parse

REPO_ROOT = Path(__file__).resolve().parent.parent
LAS_PATH = REPO_ROOT / "models" / "las.req"
SCHEMA_PATH = REPO_ROOT / "schemas" / "output.schema.json"


def parse_ok(text: str):
    result = parse(text)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.database


def declaring(ids: Iterable[str]):
    """A database that declares each of `ids` as a task, and nothing else."""
    return parse_ok("".join(f"t {req_id}.\n" for req_id in sorted(set(ids))))


def implication_chain(n: int) -> str:
    """`t a0.`, goals a1..an, and one implication per link a{i-1} -> a{i}."""
    lines = ["t a0."] + [f"g a{i}." for i in range(1, n + 1)]
    lines += [f"k i{i}: a{i - 1} -> a{i}." for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def fire(implications: Iterable[Requirement], derived: dict[str, str | None]) -> bool:
    """One forward-chaining pass: each implication, in the order given, whose
    consequent is not in `derived` and whose antecedents all are, adds its
    consequent, recorded with the implication's id. An id added early in the
    pass can fire a later implication of the same pass. Returns whether
    anything was added."""
    known = derived.keys()  # a live view: it grows with `derived`
    added = False
    for imp in implications:
        body = imp.body
        if body.consequent not in derived and body.antecedents <= known:
            derived[body.consequent] = imp.id
            added = True
    return added


def fired_conflicts(
    conflicts: Iterable[Requirement], derived: Set[str]
) -> frozenset[str]:
    """Ids of the conflicts whose antecedents are all in `derived`."""
    return frozenset(c.id for c in conflicts if c.body.antecedents <= derived)


def reference_closure(pi, db=None) -> Closure:
    """The symbolic closure as passes on id sets, the reference for
    `inference.closure`: `fire` over the premise implications in id order
    until a pass adds nothing, then `fired_conflicts` over the premise
    conflicts."""
    premises = _resolve_premises(pi, db)
    # Derived ids in derivation order, each with the implication that derived
    # it; premises have None.
    derived: dict[str, str | None] = dict.fromkeys(premises)
    implications = sorted(
        (r for r in premises.values() if isinstance(r.body, Implication)),
        key=lambda r: r.id,
    )
    while fire(implications, derived):
        pass
    support: dict[str, frozenset[str]] = {}
    for req_id, imp_id in derived.items():
        if imp_id is None:
            support[req_id] = frozenset()
        else:
            antecedents = premises[imp_id].body.antecedents
            support[req_id] = frozenset({imp_id}).union(*(support[a] for a in antecedents))
    fired = fired_conflicts(
        (r for r in premises.values() if isinstance(r.body, Conflict)), derived.keys()
    )
    return Closure(
        derived=frozenset(derived),
        bottom=bool(fired),
        support=support,
        bottom_witness=fired,
    )


@pytest.fixture(scope="session")
def las_db():
    result = load_file(LAS_PATH)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.database


@pytest.fixture(scope="session")
def las_enumeration(las_db):
    return enumerate_configurations(las_db, max_atoms=64)
