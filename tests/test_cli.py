from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadmapper.cli
from roadmapper.cli import _write_json, main
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


def cli_process(*argv, hashseed=None, **popen):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.Popen(
        [sys.executable, "-m", "roadmapper.cli", *argv], env=env, **popen
    )


LAS_ROADMAPS = ("roadmaps", str(LAS_PATH), "--var", "rt", "--max-atoms", "64")


@pytest.mark.parametrize(
    "argv", [("check", str(LAS_PATH)), LAS_ROADMAPS], ids=["check", "roadmaps"]
)
def test_closed_stdout_is_an_io_error(argv):
    proc = cli_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize(
    "argv",
    [("configs", str(LAS_PATH), "--max-atoms", "64"), (*LAS_ROADMAPS, "--maxlen", "1")],
    ids=["configs", "roadmaps"],
)
def test_output_does_not_depend_on_the_hash_seed(argv):
    outputs = []
    for seed in (1, 2):
        proc = cli_process(*argv, hashseed=seed, stdout=subprocess.PIPE)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


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


# --- internal errors ------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        implication_chain(1500).replace("g a1500.", "g a1500 !."),
    ],
    ids=["implication-chain"],
)
def test_internal_error_is_one_line_and_exit_1(capsys, tmp_path, text):
    path = tmp_path / "big.req"
    path.write_text(text)
    code, out, err = run(capsys, "configs", str(path), "--max-atoms", "4000")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: internal: ")


# --- the JSON writer ------------------------------------------------------------

def dumped(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def written(value) -> str:
    parts = []
    _write_json(value, parts.append)
    return "".join(parts)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
    | st.text()
    | st.sampled_from(["", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t", "é\u2028😀", "\ud800"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300)
@given(json_values)
def test_writer_matches_json_dumps(value):
    assert written(value) == dumped(value)


def test_writer_matches_json_dumps_on_empty_and_nested_containers():
    for value in ({}, [], {"a": {}, "b": [], "c": [[], {}]}, [[{"x": [1, [2.5]]}]], ("t", 1)):
        assert written(value) == dumped(value)


@pytest.mark.parametrize(
    "value", [{1: "a"}, {"a": {None: 1}}, {"a": [{"b": {2.5: 0}}]}, {"a": 1, ("x",): 2}]
)
def test_writer_rejects_keys_that_are_not_strings(value):
    with pytest.raises(TypeError):
        written(value)


# --- LAS through the benchmark's invocations --------------------------------------

class RecordingStdout:
    """A stdout that keeps each `write` call's text."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.fixture(scope="module")
def las_outputs():
    """The writes of every distinct LAS invocation of the benchmark, by key,
    run in-process from the repository root, as the benchmark runs them."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    reference = json.loads((REPO_ROOT / "perfbench" / "reference.json").read_text())
    invocations = {inv.key: inv for inv in workloads.las(0, None)}
    cwd, stdout = os.getcwd(), sys.stdout
    outputs = {}
    try:
        os.chdir(REPO_ROOT)
        for key, inv in invocations.items():
            sys.stdout = RecordingStdout()
            assert main(inv.argv) == inv.expect_rc
            outputs[key] = sys.stdout.calls
    finally:
        sys.stdout = stdout
        os.chdir(cwd)
    return outputs, reference


def test_las_outputs_match_the_benchmark_reference(las_outputs):
    outputs, reference = las_outputs
    assert sorted(outputs) == sorted(
        ["las/check", "las/configs", "las/rank", "las/roadmaps", "las/dot",
         "las/relax-prob", "las/relax-fuzzy"]
    )
    for key, calls in outputs.items():
        data = "".join(calls).encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            reference[key]["bytes"], reference[key]["sha256"]
        ), key


def test_las_roadmaps_json_is_written_as_it_is_produced(las_outputs):
    outputs, reference = las_outputs
    calls = outputs["las/roadmaps"]
    data = "".join(calls).encode()
    assert hashlib.sha256(data).hexdigest() == reference["las/roadmaps"]["sha256"]
    assert len(data) > 6_000_000 and max(map(len, calls)) <= 64 * 1024
