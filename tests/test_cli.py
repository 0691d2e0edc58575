from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadmapper.cli
from roadmapper.cli import ATOM_LIMIT_ENV, _write_json, main
from roadmapper.parser import parse, serialize
from roadmapper.testkit import ModelGenSpec, generate_database, parse_dot

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


# Runs `cli.main` in-process on each model file named on the command line and
# prints, per call, the exit code and a digest of what it wrote.
_DIGEST_CALLS = """
import contextlib, hashlib, io, sys
from roadmapper.cli import main
for path in sys.argv[1:]:
    for argv in (
        ["configs", path],
        ["rank", path, "--rule", "r3", "--var", "v1"],
        ["roadmaps", path, "--var", "v1"],
        ["relax", path, "--prob", "--target", "q1", "--mean", "10", "--variance", "4"],
        ["relax", path, "--fuzzy", "--target", "q1", "--mu", "exp:0.5"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = out.getvalue() + err.getvalue()
        print(argv[0], code, hashlib.sha256(text.encode()).hexdigest())
"""


def test_generated_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    paths = []
    for seed in range(20):
        spec = ModelGenSpec(seed=seed, tasks=4 + seed % 5, include_quantities=True)
        path = tmp_path / f"gen{seed}.req"
        path.write_text(serialize(generate_database(spec)))
        paths.append(str(path))
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    outputs = []
    for seed in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_CALLS, *paths],
            env={**env, "PYTHONHASHSEED": str(seed)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 5 * len(paths)


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
    "argv, env",
    [
        (["roadmaps", "--var", "v", "--maxlen", "0"], None),
        (["roadmaps", "--var", "v", "--maxdiff", "-1"], None),
        (["configs", "--max-results", "-1"], None),
        (["roadmaps", "--var", "v", "--floor", "nan"], None),
        (["roadmaps", "--var", "v", "--floor", "inf"], None),
        (["configs", "--max-atoms", "-3"], None),
        (["configs"], "-3"),
        (["configs"], "abc"),
        (["gen", "--tasks", "-1"], None),
        (["gen", "--assumptions", "-1"], None),
        (["gen", "--goals", "-1"], None),
    ],
    ids=[
        "maxlen", "maxdiff", "max-results", "floor-nan", "floor-inf", "max-atoms",
        "env-negative", "env-not-a-number", "gen-tasks", "gen-assumptions", "gen-goals",
    ],
)
def test_bad_limits_are_usage_errors(capsys, monkeypatch, toy_file, argv, env):
    files = [] if argv[0] == "gen" else [toy_file]
    if env is None:
        named = argv[-2]  # the option at fault
    else:
        monkeypatch.setenv(ATOM_LIMIT_ENV, env)
        named = f"{ATOM_LIMIT_ENV}: "
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *files, *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and named in err


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

def test_internal_error_is_one_line_and_exit_1(capsys, monkeypatch, toy_file):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(roadmapper.cli, "enumerate_configurations", crash)
    code, out, err = run(capsys, "configs", toy_file)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert err.splitlines() == ["error: internal: RuntimeError: boom"]



# --- front-end corpus -----------------------------------------------------------

# What `check` must end in on inputs that stress the lexer and parser: the file's
# bytes (None: the `model_io_3000` fixture's), the exit code, the diagnostic
# (or, for exit 2, the stderr) it names, and a wall bound in seconds. A None
# message means a valid model without diagnostics.
FRONT_END_CORPUS = {
    "model-io-3000": (None, 0, None, 5.0),
    "depth-100": (
        ("t a: y = " + " + ".join(["x"] * 101) + ".\n").encode(), 0, None, 1.0
    ),
    "depth-101": (
        ("t a: y = " + " + ".join(["x"] * 102) + ".\n").encode(),
        1, "expression nested more than 100 levels deep", 1.0,
    ),
    "crlf-only": (b"\r\n" * 1000, 0, None, 1.0),
    "overflow": (b"k a: x = 1e999.\n", 1, "number literal '1e999' is out of range", 1.0),
    "unit-overflow": (
        b"k a: x = 1e305hrs.\n", 1, "number literal '1e305hrs' is out of range", 1.0
    ),
    "superscript": ("k a: x = \u00b21.\n".encode(), 1, "unexpected character '\u00b2'", 1.0),
    "not-utf-8": (
        b"t a.\nt \xffb.\n",
        2, "error: cannot read {path}: not UTF-8 (byte 0xff at offset 7)", 1.0,
    ),
}


@pytest.fixture(scope="module")
def model_io_3000():
    """The text of the benchmark's 3,000-task `model-io` model at seed 1:
    about 117 KB and 37,000 tokens."""
    workloads = perfbench_workloads()
    for attempt in range(64):  # the benchmark's draw: the first model with q1
        db = generate_database(workloads.io_spec(1, 3000, 0, attempt))
        if "q1" in db.requirements:
            return serialize(db).encode()
    raise AssertionError("no 3,000-task model with q1")


@pytest.mark.parametrize("name", FRONT_END_CORPUS)
def test_front_end_corpus_ends_in_its_exit_code(capsys, schema, tmp_path, request, name):
    data, expect_code, message, bound = FRONT_END_CORPUS[name]
    if data is None:
        data = request.getfixturevalue("model_io_3000")
    path = tmp_path / "corpus.req"
    path.write_bytes(data)
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    elapsed = time.perf_counter() - start
    assert code == expect_code and "error: internal" not in err
    assert elapsed < bound, f"{name}: {elapsed:.2f} s"
    if code == 2:
        assert out == "" and err == message.format(path=path) + "\n"
        return
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    messages = [d["message"] for d in payload["diagnostics"]]
    assert messages == ([] if message is None else [message])


# --- adversarial corpus -----------------------------------------------------------

def refinement_chain(n: int) -> str:
    """`t a0: x0 = 1.`, one task `r{i}: x{i} = x{i-1} + 1.` per link, and a
    mandatory quality constraint on the last variable."""
    links = "".join(f"t r{i}: x{i} = x{i - 1} + 1.\n" for i in range(1, n + 1))
    return f"t a0: x0 = 1.\n{links}q goal !: x{n} >= 0.\n"


LAS_ROADMAPS = ["--var", "rt", "--floor", "40", "--maxdiff", "10", "--max-atoms", "64"]

# What the enumerating commands must end in on inputs that stress the search:
# the model's text (None: the `model_io_3000` fixture's; "las": the LAS
# model), the command and its flags, the exit code, and a wall bound in
# seconds. Both chains are longer than Python's recursion limit allows a
# recursive search to follow.
ADVERSARIAL_CORPUS = {
    "implication-chain-1200": (
        implication_chain(1200).replace("g a1200.", "g a1200 !."),
        ["configs", "--max-atoms", "4000"], 0, 10.0,
    ),
    "refinement-chain-500": (refinement_chain(500), ["configs", "--max-atoms", "4000"], 0, 8.0),
    "las-roadmaps-maxlen-3": ("las", ["roadmaps", *LAS_ROADMAPS, "--maxlen", "3"], 3, 2.0),
    "model-io-3000-configs": (None, ["configs", "--max-atoms", "64"], 3, 5.0),
    "model-io-3000-rank": (
        None, ["rank", "--rule", "r3", "--var", "v1", "--max-atoms", "64"], 3, 5.0
    ),
    "model-io-3000-roadmaps": (
        None, ["roadmaps", "--var", "v1", "--maxlen", "2", "--max-atoms", "64"], 3, 5.0
    ),
}


@pytest.mark.parametrize("name", ADVERSARIAL_CORPUS)
def test_adversarial_corpus_ends_in_its_exit_code(capsys, tmp_path, request, name):
    text, argv, expect_code, bound = ADVERSARIAL_CORPUS[name]
    path = tmp_path / "corpus.req"
    if text is None:
        path.write_bytes(request.getfixturevalue("model_io_3000"))
    else:
        path.write_text(LAS_PATH.read_text() if text == "las" else text)
    start = time.perf_counter()
    (code, out, err), garbage = garbage_after(
        lambda: run(capsys, argv[0], str(path), *argv[1:])
    )
    elapsed = time.perf_counter() - start
    assert code == expect_code, err
    assert elapsed < bound, f"{name}: {elapsed:.2f} s"
    assert garbage <= check_garbage(), name
    if code == 0:
        assert len(json.loads(out)["configurations"]) == 1
    else:
        assert out == "" and err.startswith("error: ")


# --- the garbage collector --------------------------------------------------------

def garbage_after(call):
    """What `call()` returns, and the objects `gc.collect()` finds after it,
    with the collector paused from a collected heap to that count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = call()
        return result, gc.collect()
    finally:
        if enabled:
            gc.enable()


def check_garbage() -> int:
    """The objects `gc.collect()` finds after `check models/las.req`: the
    argument parser's graph, which every command leaves behind. A command
    that leaves more makes cyclic garbage, which a paused collector keeps
    until the command returns."""
    with contextlib.redirect_stdout(io.StringIO()):
        code, garbage = garbage_after(lambda: main(["check", str(LAS_PATH)]))
    assert code == 0
    return garbage


GC_CASES = {
    "ok": (["check", str(LAS_PATH)], 0),
    "usage": (["rank", str(LAS_PATH), "--var", "rt"], SystemExit),
    "model": (["check", "BAD"], 1),
    "io": (["check", "/nonexistent/nowhere.req"], 2),
    "resource": (["configs", str(LAS_PATH), "--max-atoms", "1"], 3),
    "semantic": (["rank", "TOY", "--rule", "r1", "--var", "ghost"], 4),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", GC_CASES)
def test_main_leaves_the_collector_as_it_found_it(capsys, tmp_path, toy_file, case, enabled):
    argv, expected = GC_CASES[case]
    bad = tmp_path / "bad.req"
    bad.write_text("g p1.\nk i1: ghost -> p1.\n")
    argv = [{"BAD": str(bad), "TOY": toy_file}.get(arg, arg) for arg in argv]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if expected is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == expected, capsys.readouterr().err
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_las_commands_leave_no_more_garbage_than_check(las_invocations, capsys):
    baseline = check_garbage()
    cwd = os.getcwd()
    try:
        os.chdir(REPO_ROOT)
        for key, inv in las_invocations.items():
            code, garbage = garbage_after(lambda: main(inv.argv))
            assert code == inv.expect_rc, key
            assert garbage <= baseline, key
    finally:
        os.chdir(cwd)
    capsys.readouterr()


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


@st.composite
def payloads_sharing_a_dict(draw):
    """A payload that holds one dict object at several positions and depths,
    streamed members included."""
    shared = draw(st.dictionaries(st.text(), json_values, min_size=1, max_size=4))
    tree = draw(
        st.recursive(
            json_scalars | st.just(shared),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(), inner, max_size=4),
            max_leaves=20,
        )
    )
    return {"member": shared, "list": [shared, [shared, {"deep": [shared]}]], "tree": tree}


@settings(max_examples=200)
@given(payloads_sharing_a_dict())
def test_writer_matches_json_dumps_on_shared_dicts(value):
    assert written(value) == dumped(value)


def test_writer_empties_a_full_memo(monkeypatch):
    """More distinct shared dicts than a memo of 64 characters holds (two or
    three), each written 4 times: the memo is emptied, some texts are reused,
    and the output is unchanged."""
    monkeypatch.setattr(roadmapper.cli, "_JSON_MEMO_LIMIT", 64)
    keep = roadmapper.cli._JsonMemo.keep
    kept, emptied = [], []

    def checked_keep(memo, key, text):
        before = memo.held
        keep(memo, key, text)
        assert memo.held == sum(map(len, memo.values())) <= 64
        kept.append(key)
        emptied.append(memo.held < before + len(text))

    monkeypatch.setattr(roadmapper.cli._JsonMemo, "keep", checked_keep)
    shared = [{"n": i} for i in range(50)]
    value = {
        "ranked": [
            {"op": op, "ops": [op, shared[(i + 1) % 50]]} for i, op in enumerate(shared)
        ],
        "again": [[op] for op in shared],
    }
    assert written(value) == dumped(value)
    assert 50 < len(kept) < 4 * 50 and any(emptied)


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


def perfbench_workloads():
    """The benchmark's workload module, loaded from its file without
    importing the `perfbench` directory as a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


@pytest.fixture(scope="module")
def las_invocations():
    """Every distinct LAS invocation of the benchmark, by key."""
    return {inv.key: inv for inv in perfbench_workloads().las(0, None)}


@pytest.fixture(scope="module")
def las_outputs(las_invocations):
    """The writes of every distinct LAS invocation of the benchmark, by key,
    run in-process from the repository root, as the benchmark runs them."""
    reference = json.loads((REPO_ROOT / "perfbench" / "reference.json").read_text())
    cwd, stdout = os.getcwd(), sys.stdout
    outputs = {}
    try:
        os.chdir(REPO_ROOT)
        for key, inv in las_invocations.items():
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


# sha256 of each benchmark LAS invocation's `--format text` output, recorded
# before the text lines were built lazily.
LAS_TEXT_SHA256 = {
    "las/configs": "c5fc677f9d42b94822761cab51136a8e85d247a9559ac86706d4df4c2e92144a",
    "las/rank": "7761397f1230d1c31c9da1172620a0b5a33c8629ecab8279dc418f091f86020c",
    "las/roadmaps": "196d98cc16b8325484a4d92e9b17a020b4e61440c0a9b86afbeadd18a6614e4b",
}


def test_las_text_outputs_are_unchanged(las_invocations, capsys):
    cwd = os.getcwd()
    try:
        os.chdir(REPO_ROOT)
        for key, sha256 in LAS_TEXT_SHA256.items():
            assert main([*las_invocations[key].argv, "--format", "text"]) == 0
            data = capsys.readouterr().out.encode()
            assert hashlib.sha256(data).hexdigest() == sha256, key
    finally:
        os.chdir(cwd)


# sha256 of LAS `rank --rule r1` and `--rule r2` JSON, recorded before ranking
# read values from the closure index's memo.
LAS_RANK_JSON_SHA256 = {
    "r1": "6fbc22f1ce8d65a984fdc7ac82c48b5028957852d2755eff4501d9b6a2589360",
    "r2": "8acd7b221408ad16984b7c58c58be6abce9bf1fcc600e6b8697dd8e533067ced",
}


def test_las_rank_r1_and_r2_json_is_unchanged(capsys):
    cwd = os.getcwd()
    try:
        os.chdir(REPO_ROOT)
        for rule, sha256 in LAS_RANK_JSON_SHA256.items():
            argv = ["rank", "models/las.req", "--rule", rule, "--var", "rt", "--max-atoms", "64"]
            assert main(argv) == 0
            data = capsys.readouterr().out.encode()
            assert hashlib.sha256(data).hexdigest() == sha256, rule
    finally:
        os.chdir(cwd)


def test_las_roadmaps_json_is_written_as_it_is_produced(las_outputs):
    outputs, reference = las_outputs
    calls = outputs["las/roadmaps"]
    data = "".join(calls).encode()
    assert hashlib.sha256(data).hexdigest() == reference["las/roadmaps"]["sha256"]
    assert len(data) > 6_000_000 and max(map(len, calls)) <= 64 * 1024
