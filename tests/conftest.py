from __future__ import annotations

from pathlib import Path

import pytest

from roadmapper.configuration import enumerate_configurations
from roadmapper.parser import load_file, parse

REPO_ROOT = Path(__file__).resolve().parent.parent
LAS_PATH = REPO_ROOT / "models" / "las.req"
SCHEMA_PATH = REPO_ROOT / "schemas" / "output.schema.json"


def parse_ok(text: str):
    result = parse(text)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.database


def implication_chain(n: int) -> str:
    """`t a0.`, goals a1..an, and one implication per link a{i-1} -> a{i}."""
    lines = ["t a0."] + [f"g a{i}." for i in range(1, n + 1)]
    lines += [f"k i{i}: a{i - 1} -> a{i}." for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def las_db():
    result = load_file(LAS_PATH)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.database


@pytest.fixture(scope="session")
def las_enumeration(las_db):
    return enumerate_configurations(las_db, max_atoms=64)
