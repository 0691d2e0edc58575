from __future__ import annotations

import json
import os
import subprocess
import sys

import jsonschema
import pytest

import roadmapper.cli
from roadmapper.cli import main
from roadmapper.parser import parse
from roadmapper.testkit import parse_dot

from conftest import LAS_PATH, REPO_ROOT, SCHEMA_PATH, implication_chain

TOY = (
    "g p1 ! . t a: v = 5. t b: v = 3. k i1: a -> p1. k i2: b -> p1. "
    "k c1 !: a & b -> false.\n"
)


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.req"
    path.write_text(TOY)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema, *argv):
    code, out, err = run(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    return code, payload, err


# --- check ------------------------------------------------------------------

def test_check_valid_model(capsys, schema):
    code, payload, _ = run_json(capsys, schema, "check", str(LAS_PATH))
    assert code == 0
    assert payload["ok"] and payload["summary"]["mandatory_goals"]


def test_check_reports_diagnostic_with_span(capsys, schema, tmp_path):
    path = tmp_path / "bad.req"
    path.write_text("g p1.\nk i1: ghost -> p1.\n")
    code, payload, _ = run_json(capsys, schema, "check", str(path))
    assert code == 1
    diag = payload["diagnostics"][0]
    assert diag["severity"] == "error" and diag["line"] == 2


def test_check_long_implication_chain_and_its_cycle(capsys, schema, tmp_path):
    path = tmp_path / "chain.req"
    path.write_text(implication_chain(1500))
    code, payload, _ = run_json(capsys, schema, "check", str(path))
    assert code == 0 and payload["ok"]
    path.write_text(implication_chain(1500) + "k i0: a1500 -> a0.\n")
    code, payload, err = run_json(capsys, schema, "check", str(path))
    assert code == 1 and "Traceback" not in err
    [diag] = payload["diagnostics"]
    assert "cycle" in diag["message"] and diag["line"] == 3002


def test_check_text_lists_diagnostics_by_line(capsys, tmp_path):
    path = tmp_path / "two.req"
    path.write_text("t a.\ng p1.\nk i1: ghost -> p1.\nt b.\nt c.\nt d.\nq broken.\n")
    code, out, _ = run(capsys, "check", str(path), "--format", "text")
    assert code == 1
    assert [line.split(":")[1] for line in out.splitlines()] == ["3", "7"]


@pytest.mark.parametrize("command", ["check", "configs"])
@pytest.mark.parametrize(
    "expression",
    [
        " + ".join(["x"] * 3000),
        " ^ ".join(["2"] * 1500),
        "(" * 1500 + "x" + ")" * 1500,
    ],
    ids=["sum", "power", "parentheses"],
)
def test_too_deep_expression_is_a_model_error(
    capsys, schema, tmp_path, command, expression
):
    path = tmp_path / "deep.req"
    path.write_text(f"t b: x = 1.\ng p.\nt a: y = {expression}.\n")
    code, payload, err = run_json(capsys, schema, command, str(path))
    assert code == 1 and "Traceback" not in err
    [diag] = payload["diagnostics"]
    assert diag["line"] == 3 and "nested more than" in diag["message"]


def test_closed_stdout_is_an_io_error():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "roadmapper.cli", "check", str(LAS_PATH)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/nowhere.req")
    assert code == 2
    assert "cannot read" in err


# --- configs -----------------------------------------------------------------

def test_configs_toy_model(capsys, schema, toy_file):
    code, payload, _ = run_json(capsys, schema, "configs", toy_file)
    assert code == 0
    assert payload["count"] == 2
    for entry in payload["configurations"]:
        assert all(check["ok"] for check in entry["properties"].values())


def test_configs_las_has_at_least_three(capsys, schema):
    code, payload, _ = run_json(
        capsys, schema, "configs", str(LAS_PATH), "--max-atoms", "64"
    )
    assert code == 0
    assert payload["count"] >= 3


def test_configs_atom_limit(capsys):
    code, out, err = run(capsys, "configs", str(LAS_PATH))
    assert code == 3
    assert "limit" in err


def test_configs_env_override(capsys, schema, monkeypatch):
    monkeypatch.setenv("ROADMAPPER_LIMIT_ATOMS", "64")
    code, payload, _ = run_json(capsys, schema, "configs", str(LAS_PATH))
    assert code == 0 and payload["count"] >= 3


def test_configs_explain_witnesses(capsys, schema, toy_file):
    code, payload, _ = run_json(capsys, schema, "configs", toy_file, "--explain")
    assert code == 0
    entry = payload["configurations"][0]
    witnesses = entry["explanations"]["p1"]
    assert witnesses and all(
        set(w) <= set(entry["members"]) for w in witnesses
    )


def test_configs_explain_computes_operationalizations_once(
    capsys, toy_file, monkeypatch
):
    calls = []
    for name in ("qualitative_operationalizations", "quantitative_operationalizations"):
        original = getattr(roadmapper.cli, name)

        def counted(target, db, _original=original, _name=name):
            calls.append((_name, target))
            return _original(target, db)

        monkeypatch.setattr(roadmapper.cli, name, counted)
    code, out, _ = run(capsys, "configs", toy_file, "--explain")
    assert code == 0 and json.loads(out)["count"] == 2
    assert calls == [("qualitative_operationalizations", "p1")]


# --- rank ----------------------------------------------------------------------

def test_rank_r1_and_r2_are_reversed(capsys, schema, toy_file):
    code, up, _ = run_json(
        capsys, schema, "rank", toy_file, "--rule", "r1", "--var", "v"
    )
    assert code == 0
    code, down, _ = run_json(
        capsys, schema, "rank", toy_file, "--rule", "r2", "--var", "v"
    )
    assert code == 0
    assert [e["value"] for e in up["ranking"]] == [5.0, 3.0]
    assert [e["value"] for e in down["ranking"]] == [3.0, 5.0]


def test_rank_r3_includes_preference_counts(capsys, schema, toy_file):
    code, payload, _ = run_json(
        capsys, schema, "rank", toy_file, "--rule", "r3", "--var", "v"
    )
    assert code == 0
    assert all("preference_count" in e for e in payload["ranking"])


def test_rank_missing_variable_is_semantic_error(capsys, toy_file):
    code, out, err = run(capsys, "rank", toy_file, "--rule", "r1", "--var", "ghost")
    assert code == 4


# --- roadmaps ---------------------------------------------------------------------

def test_roadmaps_las_includes_the_swap(capsys, schema):
    code, payload, _ = run_json(
        capsys,
        schema,
        "roadmaps",
        str(LAS_PATH),
        "--var",
        "rt",
        "--maxlen",
        "2",
        "--max-atoms",
        "64",
    )
    assert code == 0
    swap = {"u16", "u20", "u22", "u6"}
    found = any(
        set(a["add"]) == swap and set(a["delete"]) >= {"u17", "u19", "u21", "u5"}
        for item in payload["ranked"]
        for a in item["adaptations"]
    )
    assert found


def test_roadmaps_floor_filters_everything(capsys, schema, toy_file):
    code, payload, _ = run_json(
        capsys, schema, "roadmaps", toy_file, "--var", "v", "--floor", "100",
        "--maxlen", "1",
    )
    assert code == 0
    assert payload["ranked"] == []
    assert all(e["reason"] == "floor" for e in payload["excluded"])


def test_roadmaps_maxdiff_zero_keeps_singletons(capsys, schema, toy_file):
    code, payload, _ = run_json(
        capsys, schema, "roadmaps", toy_file, "--var", "v", "--maxdiff", "0",
        "--maxlen", "2",
    )
    assert code == 0
    assert all(len(item["sequence"]) == 1 for item in payload["ranked"])
    assert any(e["reason"] == "diff" for e in payload["excluded"])


# --- dot --------------------------------------------------------------------------

def test_dot_three_requirements_one_edge(capsys, tmp_path):
    path = tmp_path / "small.req"
    path.write_text("t u1. g p2. k imp1: u1 -> p2.\n")
    code, out, _ = run(capsys, "dot", str(path))
    assert code == 0
    nodes, edges = parse_dot(out)
    assert len(nodes) == 3
    assert len(edges) == 1


def test_dot_conflict_edge(capsys, tmp_path):
    path = tmp_path / "conflict.req"
    path.write_text("t u2. t u4. k c1: u2 & u4 -> false.\n")
    code, out, _ = run(capsys, "dot", str(path))
    nodes, edges = parse_dot(out)
    assert len(nodes) == 3
    assert len(edges) == 1


def test_dot_node_count_equals_requirement_count(capsys):
    code, out, _ = run(capsys, "dot", str(LAS_PATH))
    assert code == 0
    nodes, _ = parse_dot(out)
    result = parse(LAS_PATH.read_text(), str(LAS_PATH))
    assert len(nodes) == len(result.database.requirements)


# --- relax -------------------------------------------------------------------------

def test_relax_prob_output_reparses(capsys, schema, tmp_path):
    path = tmp_path / "relax.req"
    path.write_text("q qc: t2 <= 110.\n")
    code, payload, _ = run_json(
        capsys, schema, "relax", str(path), "--prob", "--target", "qc",
        "--mean", "60", "--variance", "2025", "--level", "0.9",
    )
    assert code == 0
    assert payload["report"]["removed"] == ["qc"]
    again = parse(payload["database"])
    assert again.ok
    assert any(i.startswith("@macro_prob_qc") for i in again.database.requirements)


def test_relax_fuzzy_text_mode(capsys, tmp_path):
    path = tmp_path / "relax.req"
    path.write_text("q qc: t2 <= 110.\n")
    code, out, err = run(
        capsys, "relax", str(path), "--fuzzy", "--target", "qc",
        "--mu", "exp:1.0", "--format", "text",
    )
    assert code == 0
    again = parse(out)
    assert again.ok and again.database.sat_fn("t2") is not None
    assert "relax fuzzy" in err


def test_relax_wrong_sort_exit_code(capsys, tmp_path):
    path = tmp_path / "relax.req"
    path.write_text("g p1.\n")
    code, out, err = run(capsys, "relax", str(path), "--prob", "--target", "p1")
    assert code == 4


@pytest.mark.parametrize(
    "flags",
    [
        ["--fuzzy", "--mu", "bogus:1"],
        ["--fuzzy", "--mu", "exp:-1"],
        ["--fuzzy", "--mu", "plateau:1,2"],
        ["--prob", "--variance", "0"],
        ["--fuzzy", "--mu", "exp:nan"],
        ["--prob", "--mean", "inf"],
    ],
)
def test_relax_bad_arguments_are_usage_errors(capsys, tmp_path, flags):
    path = tmp_path / "relax.req"
    path.write_text("q qc: t2 <= 110.\n")
    with pytest.raises(SystemExit) as exc:
        main(["relax", str(path), "--target", "qc", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and flags[-2] in err


@pytest.mark.parametrize(
    "argv",
    [
        ["roadmaps", "--var", "v", "--maxlen", "0"],
        ["roadmaps", "--var", "v", "--maxdiff", "-1"],
        ["configs", "--max-results", "-1"],
    ],
    ids=["maxlen", "maxdiff", "max-results"],
)
def test_bad_limits_are_usage_errors(capsys, toy_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], toy_file, *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and argv[-2] in err


# --- determinism ----------------------------------------------------------------------

def test_outputs_are_byte_identical(capsys, toy_file):
    _, first, _ = run(capsys, "configs", toy_file)
    _, second, _ = run(capsys, "configs", toy_file)
    assert first == second
    _, d1, _ = run(capsys, "dot", toy_file)
    _, d2, _ = run(capsys, "dot", toy_file)
    assert d1 == d2


def test_gen_is_deterministic_and_parses(capsys):
    _, first, _ = run(capsys, "gen", "--seed", "7")
    _, second, _ = run(capsys, "gen", "--seed", "7")
    assert first == second
    assert parse(first).ok
