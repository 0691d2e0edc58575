from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys

import pytest

from roadmapper import cli
from roadmapper.cli import ATOM_LIMIT_ENV

from conftest import LAS_PATH, REPO_ROOT


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


def _modules() -> dict[str, ast.Module]:
    sources = sorted((REPO_ROOT / "src" / "roadmapper").glob("*.py"))
    assert sources
    return {path.name: ast.parse(path.read_text()) for path in sources}


def _loaded_names(tree: ast.AST) -> set[str]:
    """The names `tree` reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_import_is_used():
    """A module other than `__init__.py`, which re-exports, binds no
    imported name that it never reads."""
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        loaded = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_every_private_module_name_is_referenced():
    """Each module-level `_name` defined outside `__init__.py` is read, or
    imported, somewhere in the package, so a helper left behind by a
    refactor fails here."""
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    orphans = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [
                f"{name}: {d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in referenced
            ]
    assert not orphans


def _module_bindings(tree: ast.Module) -> list[str]:
    """The names the module's top-level statements bind, once per binding."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if not (isinstance(node, ast.AnnAssign) and node.value is None):
                bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return bound


def test_no_module_level_name_is_bound_twice():
    """A second binding of a module-level name hides the first from every
    reader that runs after it, such as a test body that reads a constant
    a parametrization read at import time."""
    paths = sorted((REPO_ROOT / "src" / "roadmapper").glob("*.py"))
    paths += sorted((REPO_ROOT / "tests").glob("*.py"))
    twice = []
    for path in paths:
        bound = _module_bindings(ast.parse(path.read_text()))
        twice += [f"{path.name}: {name}" for name in sorted(set(bound)) if bound.count(name) > 1]
    assert not twice


def test_every_method_is_read():
    """Each method or property, other than a dunder, that a class in the
    package defines is read somewhere in the package or its tests, so one
    that a refactor left without callers fails here."""
    modules = _modules()
    read = set()
    for tree in modules.values():
        read |= _loaded_names(tree)
    for path in sorted((REPO_ROOT / "tests").glob("*.py")):
        read |= _loaded_names(ast.parse(path.read_text()))
    unread = [
        f"{name}: {cls.name}.{node.name}"
        for name, tree in modules.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    ]
    assert not unread


# --- start-up cost ---------------------------------------------------------------

# Modules the CLI's import path leaves out: `dataclasses` (with `inspect`,
# `ast`, `dis` and `tokenize`), `typing`, `shutil` (with its compression
# modules), argparse (with `gettext`), `json` (with its decoder and scanner),
# and the test-data generator.
COLD_MODULES = (
    "dataclasses", "inspect", "typing", "shutil", "argparse", "gettext", "json",
    "roadmapper.testkit",
)

# Modules that no run of a canonical argv loads: argparse's first message
# lookup imports `locale`, and its help formatter `shutil`.
UNUSED_BY_RUNS = ("argparse", "gettext", "json", "locale", "shutil")


def _fresh_run(code: str, *args: str) -> subprocess.CompletedProcess:
    """`code` run by `python -S` in a new process, with `args` as its
    `sys.argv[1:]`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args], env=env, capture_output=True, text=True
    )


def _fresh_python(code: str) -> str:
    """The stdout of `code` run by `python -S` in a new process."""
    done = _fresh_run(code)
    done.check_returncode()
    return done.stdout


def test_no_module_imports_dataclasses_or_typing():
    """No module-level import names them; `_record` imports `dataclasses`
    only to raise `FrozenInstanceError`."""
    found = []
    for name, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{name}: {m}" for m in modules if m.split(".")[0] in ("dataclasses", "typing")]
    assert not found


def test_importing_the_cli_loads_no_cold_module():
    code = f"import sys, roadmapper.cli; print([m for m in {COLD_MODULES!r} if m in sys.modules])"
    assert _fresh_python(code) == "[]\n"


# The benchmark's canonical argvs on LAS.
LAS_ARGVS = [
    ["check", str(LAS_PATH)],
    ["configs", str(LAS_PATH), "--max-atoms", "64"],
    ["rank", str(LAS_PATH), "--rule", "r3", "--var", "rt", "--max-atoms", "64"],
    ["roadmaps", str(LAS_PATH), "--var", "rt", "--floor", "40", "--maxdiff", "10",
     "--maxlen", "2", "--max-atoms", "64"],
    ["relax", str(LAS_PATH), "--prob", "--target", "qt6", "--mean", "180", "--variance", "400",
     "--level", "0.9"],
    ["relax", str(LAS_PATH), "--fuzzy", "--target", "qt6", "--mu", "exp:0.5"],
]


def test_a_check_run_loads_no_shutil():
    """Nor does any other run of the benchmark's argvs, and none loads
    argparse, `gettext`, `json` or `locale`: their argvs are read without
    argparse, and JSON is written without the `json` module."""
    for argv in LAS_ARGVS:
        code = (
            "import contextlib, io, sys, roadmapper.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = roadmapper.cli.main({argv!r})\n"
            f"print(code, [m for m in {UNUSED_BY_RUNS!r} if m in sys.modules])"
        )
        assert _fresh_python(code) == "0 []\n", argv


@pytest.mark.parametrize(
    "limit, argv",
    [
        (None, ["configs", str(LAS_PATH), "--max-atoms", "x"]),
        (None, ["relax", str(LAS_PATH), "--fuzzy", "--target", "qt6", "--mu", "exp:x"]),
        ("-3", ["configs", str(LAS_PATH)]),
        (None, ["roadmaps", "--help"]),
    ],
    ids=["max-atoms", "mu", "limit-env", "help"],
)
def test_usage_errors_in_a_fresh_process_keep_argparse_text(limit, argv, monkeypatch, capsys):
    """A usage error (or help) in a fresh `python -S`, which has not loaded
    argparse, gives the exit code, stdout and stderr that it gives in this
    process, where argparse is loaded."""
    monkeypatch.setenv("COLUMNS", "80")
    if limit is None:
        monkeypatch.delenv(ATOM_LIMIT_ENV, raising=False)
    else:
        monkeypatch.setenv(ATOM_LIMIT_ENV, limit)
    expected = _cli_text(argv, capsys)
    assert expected[0] == (0 if argv[-1] == "--help" else 2)
    code = "import sys, roadmapper.cli\nsys.exit(roadmapper.cli.main(sys.argv[1:]))"
    done = _fresh_run(code, *argv)
    assert (done.returncode, done.stdout, done.stderr) == expected


def _cli_text(argv: list[str], capsys) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    out, err = capsys.readouterr()
    return stop.value.code, out, err


@pytest.mark.parametrize("columns", [None, "40", "80", "200"])
def test_help_and_usage_text_match_the_stock_formatter(columns, monkeypatch, capsys):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    # The parser formats with argparse's own formatter, which reads COLUMNS
    # (or the terminal) itself.
    commands = ["check", "configs", "rank", "roadmaps", "dot", "relax", "gen"]
    argvs = [["--help"], *([command, "--help"] for command in commands), ["roadmaps", "x"]]
    ours = [_cli_text(argv, capsys) for argv in argvs]
    parser = cli.build_arg_parser()
    assert parser.formatter_class is argparse.HelpFormatter
    assert ours[0] == (0, parser.format_help(), "")
    assert all(code == 0 and out.startswith("usage: ") for code, out, _ in ours[1:-1])
    assert ours[-1][0] == 2 and "the following arguments are required: --var" in ours[-1][2]
