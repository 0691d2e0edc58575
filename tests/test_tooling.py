from __future__ import annotations

import ast
import re

from conftest import REPO_ROOT


def test_sources_parse_at_the_oldest_supported_python():
    """Every module parses with the grammar of the `requires-python` floor,
    so syntax newer than the floor fails here although a newer Python runs
    the suite. (Methods newer than the floor, such as `int.bit_count` at
    3.10, are not caught here.)"""
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    major, minor = re.search(
        r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject, re.M
    ).groups()
    sources = sorted((REPO_ROOT / "src" / "roadmapper").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(int(major), int(minor)))
