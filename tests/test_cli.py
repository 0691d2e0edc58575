from __future__ import annotations

import argparse
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
from roadmapper import operationalization, roadmap
from roadmapper.cli import ATOM_LIMIT_ENV, _write_json, main
from roadmapper.configuration import enumerate_configurations
from roadmapper.errors import MissingValueError, RoadmapperError
from roadmapper.parser import parse, serialize
from roadmapper.roadmap import RoadmapValueSum, build_roadmaps, rank_roadmaps
from roadmapper.testkit import ModelGenSpec, generate_database, parse_dot

from conftest import LAS_PATH, REPO_ROOT, SCHEMA_PATH, implication_chain
from test_roadmap import reference_rank_roadmaps

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
    # `--explain` reads the supports enumeration found: it runs no support
    # search of its own.
    searches = []
    original = operationalization._SupportSearch.__init__

    def counted(self, db, budget):
        searches.append(budget.function)
        original(self, db, budget)

    monkeypatch.setattr(operationalization._SupportSearch, "__init__", counted)
    for argv in (["configs", toy_file], ["configs", str(LAS_PATH), "--max-atoms", "64"]):
        searches.clear()
        plain = run(capsys, *argv)
        plain_searches = searches.copy()
        searches.clear()
        explained = run(capsys, *argv, "--explain")
        assert plain[0] == explained[0] == 0
        assert json.loads(plain[1])["count"] == json.loads(explained[1])["count"] >= 2
        assert searches == plain_searches != []


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


def test_las_roadmaps_derive_no_operator_record(capsys, monkeypatch):
    # The rows list each operator from its pair's masks.
    calls = []
    monkeypatch.setattr(roadmap, "derive_adaptation", lambda *args: calls.append(args))
    code, out, _ = run(capsys, *LAS_ROADMAPS, "--maxlen", "2")
    assert code == 0 and json.loads(out)["ranked"]
    assert calls == []


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


def test_roadmaps_error_writes_nothing(capsys):
    code, out, err = run(
        capsys, "roadmaps", str(LAS_PATH), "--var", "ghost", "--max-atoms", "64"
    )
    assert code == 4
    assert out == "" and err == "error: variable 'ghost' obtains no value in a configuration\n"


def reference_cmd_roadmaps(args) -> int:
    """`cli.cmd_roadmaps` as it wrote a payload of dicts built from the
    library's roadmap records, kept as the oracle for the rows the CLI writes
    from the index core."""
    db, code = roadmapper.cli._load_database(args.file)
    if db is None:
        return code
    enum = roadmapper.cli._enumerate(args, db)
    roadmaps = build_roadmaps(enum.database, enum.configurations, args.maxlen)
    rule = RoadmapValueSum(args.var, args.floor, args.maxdiff)
    ranking = rank_roadmaps(enum.database, roadmaps, rule)

    def adaptations(operators):
        entries = [
            {"trigger": sorted(a.trigger), "add": sorted(a.add), "delete": sorted(a.delete)}
            for a in operators
        ]
        return sorted(entries, key=lambda e: (e["delete"], e["add"]))

    payload = {
        "command": "roadmaps",
        "file": args.file,
        "rule": {
            "name": "r4",
            "variable": args.var,
            "floor": args.floor,
            "max_diff": args.maxdiff,
            "max_len": args.maxlen,
        },
        "configurations": {c.id: sorted(c.members) for c in enum.configurations},
        "ranked": [
            {
                "sequence": [c.id for c in item.roadmap.configurations],
                "total": item.total,
                "adaptations": adaptations(item.roadmap.adaptations),
            }
            for item in ranking.ranked
        ],
        "excluded": [
            {
                "sequence": [c.id for c in item.roadmap.configurations],
                "reason": item.reason,
                "witness": item.witness,
            }
            for item in ranking.excluded
        ],
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0
    ranked, excluded = payload["ranked"], payload["excluded"]
    print(f"{len(ranked)} roadmap(s), {len(excluded)} excluded")
    for entry in ranked:
        print(f"  {' -> '.join(entry['sequence'])} (total={entry['total']!r})")
    for entry in excluded:
        print(
            f"  excluded {' -> '.join(entry['sequence'])} "
            f"({entry['reason']} at index {entry['witness']})"
        )
    return 0


def roadmaps_outcome(cmd, args):
    """The exit code and output of `cmd(args)`, or the type and message of
    the error it raised and what it wrote before."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cmd(args)
    except RoadmapperError as exc:
        return type(exc), str(exc), out.getvalue()
    return code, out.getvalue()


def test_roadmaps_rows_match_the_record_payload(tmp_path, monkeypatch):
    paths = []
    for tasks in (3, 4, 5, 6):
        for quantities in (False, True):
            for seed in range(5):
                spec = ModelGenSpec(seed=seed, tasks=tasks, include_quantities=quantities)
                path = tmp_path / f"gen-{tasks}-{quantities}-{seed}.req"
                path.write_text(serialize(generate_database(spec)))
                paths.append(str(path))
    (tmp_path / "none.req").write_text("g p1 !.\n")
    paths.append(str(tmp_path / "none.req"))
    # Both commands read each model's database and enumeration from one cache.
    cache = {}

    def cached(fn, key_of):
        def call(*args):
            key = key_of(*args)
            if key not in cache:
                cache[key] = fn(*args)
            return cache[key]
        return call

    cli = roadmapper.cli
    monkeypatch.setattr(cli, "_load_database", cached(cli._load_database, lambda path: path))
    monkeypatch.setattr(cli, "_enumerate", cached(cli._enumerate, lambda args, db: id(db)))
    seen = set()
    for path in paths:
        for max_len in (1, 2, 3):
            for floor in (-math.inf, 2.0, 5.0, 1e9):
                for max_diff in (0, 2, 10):
                    for fmt in ("json", "text"):
                        args = argparse.Namespace(
                            file=path, format=fmt, var="v1", floor=floor, maxdiff=max_diff,
                            maxlen=max_len, max_atoms=64, max_results=None,
                        )
                        ours = roadmaps_outcome(roadmapper.cli.cmd_roadmaps, args)
                        assert ours == roadmaps_outcome(reference_cmd_roadmaps, args), (
                            path, max_len, floor, max_diff, fmt,
                        )
                        if ours[0] == 0 and fmt == "json":
                            payload = json.loads(ours[1])
                            seen.add((bool(payload["ranked"]), bool(payload["excluded"])))
                            assert floor < 1e9 or not payload["ranked"]
                        else:
                            seen.add(ours[0])
    assert seen >= {(True, True), (False, True), (False, False), MissingValueError}
    args.format = "json"
    code, out = roadmaps_outcome(roadmapper.cli.cmd_roadmaps, args)
    assert args.file == paths[-1] and code == 0
    assert json.loads(out)["configurations"] == {}
    assert json.loads(out)["ranked"] == json.loads(out)["excluded"] == []


def test_roadmaps_that_repeat_an_operator_match_the_record_payload(tmp_path):
    # Four configurations, {x or y} by {p or q}: at max_len 4 a roadmap can
    # take x to y twice, which no roadmap of three configurations can.
    path = tmp_path / "antichain.req"
    path.write_text(
        "g g1 !. g g2 !. t x: v = 1. t y: v = 2. t p. t q.\n"
        "k ix: x -> g1. k iy: y -> g1. k c1 !: x & y -> false.\n"
        "k ip: p -> g2. k iq: q -> g2. k c2 !: p & q -> false.\n"
    )
    for floor, max_diff in ((-math.inf, 10), (1.5, 10), (-math.inf, 4)):
        for fmt in ("json", "text"):
            args = argparse.Namespace(
                file=str(path), format=fmt, var="v", floor=floor, maxdiff=max_diff,
                maxlen=4, max_atoms=64, max_results=None,
            )
            ours = roadmaps_outcome(roadmapper.cli.cmd_roadmaps, args)
            assert ours == roadmaps_outcome(reference_cmd_roadmaps, args), (floor, max_diff, fmt)
            assert ours[0] == 0
            if fmt == "json" and max_diff == 10 and floor < 0:
                ranked = json.loads(ours[1])["ranked"]
                assert len(ranked) == 64
                assert sum(len(r["adaptations"]) < len(r["sequence"]) - 1 for r in ranked) == 8


# Four configurations of one goal: S1 (a, v = 1) lies below a floor of 2;
# S1, S2 (b) and S3 (c) differ pairwise in 4 members, and S4 (d, e, f)
# differs from each of them in 6, above a max_diff of 4.
CORNERS = (
    "g g !.\n"
    "t a: v = 1. t b: v = 5. t c: v = 6. t d: v = 7. t e. t f.\n"
    "k ia: a -> g. k ib: b -> g. k ic: c -> g. k idef: d & e & f -> g.\n"
)


def test_roadmap_outcomes_from_their_prefixes_match_the_references(tmp_path):
    # Each outcome comes from the prefix's and the last step. The corners:
    # S2 -> S4 fails on diff and S1 after it is below the floor, which is
    # checked first (floor at 2); S2 -> S1 has its floor witness at 1, which
    # the large step to S4 keeps; S2 -> S3 -> S4 fails on diff at step 1.
    path = tmp_path / "corners.req"
    path.write_text(CORNERS)
    enum = enumerate_configurations(parse(CORNERS).database, max_atoms=64)
    assert [c.id for c in enum.configurations] == ["S1", "S2", "S3", "S4"]
    corners = {
        ("S2", "S4", "S1"): ("floor", 2),
        ("S2", "S4"): ("diff", 0),
        ("S2", "S1", "S4"): ("floor", 1),
        ("S2", "S1"): ("floor", 1),
        ("S2", "S3", "S4"): ("diff", 1),
        ("S2", "S3"): 11.0,
    }
    rule = RoadmapValueSum("v", 2.0, 4)
    for max_len in (3, 4):
        roadmaps = build_roadmaps(enum.database, enum.configurations, max_len)
        longest = [r for r in roadmaps if len(r.configurations) == max_len]
        # All roadmaps; only the longest, whose prefixes the ranking adds and
        # does not report; and each of those twice.
        for given in (roadmaps, longest, longest + longest[::-1]):
            ranking = rank_roadmaps(enum.database, given, rule)
            assert ranking == reference_rank_roadmaps(enum.database, given, rule)
        ranking = rank_roadmaps(enum.database, roadmaps, rule)
        outcomes = {
            tuple(c.id for c in item.roadmap.configurations): (item.reason, item.witness)
            for item in ranking.excluded
        }
        outcomes.update(
            (tuple(c.id for c in item.roadmap.configurations), item.total)
            for item in ranking.ranked
        )
        assert {key: outcomes[key] for key in corners} == corners
        for fmt in ("json", "text"):
            args = argparse.Namespace(
                file=str(path), format=fmt, var="v", floor=2.0, maxdiff=4,
                maxlen=max_len, max_atoms=64, max_results=None,
            )
            ours = roadmaps_outcome(roadmapper.cli.cmd_roadmaps, args)
            assert ours == roadmaps_outcome(reference_cmd_roadmaps, args), (max_len, fmt)
            assert ours[0] == 0
            if fmt == "text":
                assert "  excluded S2 -> S4 -> S1 (floor at index 2)\n" in ours[1]


def test_las_roadmap_rows_render_each_operator_once(capsys, monkeypatch):
    # While the rows are written, each operator on a ranked row lists its
    # ids at most twice (add and delete), and `_json_text` runs as often at
    # max_len 2 (16,384 rows) as at max_len 1 (128 rows).
    counts, writing = {}, []
    cli = roadmapper.cli
    for owner, name in ((cli, "_json_text"), (operationalization.ClosureIndex, "ids_of")):
        original = getattr(owner, name)

        def counted(*args, original=original, name=name):
            if writing:
                counts[name] = counts.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    write_json = cli._write_json

    def writing_json(*args):
        writing.append(True)
        try:
            write_json(*args)
        finally:
            writing.pop()

    monkeypatch.setattr(cli, "_write_json", writing_json)
    seen = {}
    for max_len in ("1", "2"):
        counts.clear()
        code, out, _ = run(
            capsys, *LAS_ROADMAPS, "--floor", "40", "--maxdiff", "10", "--maxlen", max_len
        )
        assert code == 0
        payload = json.loads(out)
        operators = {
            (tuple(a["add"]), tuple(a["delete"]))
            for row in payload["ranked"] for a in row["adaptations"]
        }
        assert counts.get("ids_of", 0) <= 2 * len(operators)
        seen[max_len] = (len(payload["ranked"]) + len(payload["excluded"]), counts["_json_text"])
    assert len(operators) == 1130
    assert seen["1"][0] == 128 and seen["2"][0] == 16384
    assert seen["1"][1] == seen["2"][1]


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
        ["--fuzzy", "--mu", "exp:x"],
        ["--fuzzy", "--mu", "exp:inf"],
        ["--fuzzy", "--mu", "pwl:1:x"],
    ],
)
def test_relax_bad_arguments_are_usage_errors(capsys, tmp_path, flags):
    path = tmp_path / "relax.req"
    path.write_text("q qc: t2 <= 110.\n")
    with pytest.raises(SystemExit) as exc:
        main(["relax", str(path), "--target", "qc", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # The error names the option and the whole value, a --mu spec included.
    assert "usage:" in err and f"argument {flags[-2]}: " in err and repr(flags[-1]) in err


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


# --- argv reader ----------------------------------------------------------------------

# Canonical argvs, which `_read_argv` must read without argparse: the forms the
# benchmark runs, and every option of `gen`.
CANONICAL_ARGVS = [
    ["check", "m.req"],
    ["configs", "m.req", "--max-atoms", "64"],
    ["rank", "m.req", "--rule", "r3", "--var", "v1", "--max-atoms", "64"],
    ["roadmaps", "m.req", "--var", "rt", "--floor", "40", "--maxdiff", "10", "--maxlen", "2",
     "--max-atoms", "64"],
    ["roadmaps", "m.req", "--var", "v1", "--maxlen", "2", "--max-atoms", "64"],
    ["dot", "m.req"],
    ["relax", "m.req", "--prob", "--target", "qt6", "--mean", "180", "--variance", "400",
     "--level", "0.9"],
    ["relax", "m.req", "--fuzzy", "--target", "qt6", "--mu", "exp:0.5"],
    ["gen", "--seed", "3", "--tasks", "4", "--assumptions", "1", "--goals", "2", "--quantities"],
    ["gen"],
    ["configs", "--explain", "--max-results", "3", "m.req", "--format", "text"],
    ["relax", "m.req", "--fuzzy", "--target", "q", "--op", "<"],
    ["check", ""],
]

# Other spellings, help and usage errors, which argparse reads.
OTHER_ARGVS = [
    [],
    ["-h"],
    ["check"],
    ["chec", "m.req"],
    ["check", "m.req", "-h"],
    ["configs", "m.req", "--max-a", "64"],
    ["check", "m.req", "--format=text"],
    ["roadmaps", "m.req", "--var", "v", "--floor", "-5"],
    ["configs", "m.req", "--max-atoms", "64", "--max-atoms", "8"],
    ["relax", "m.req", "--prob", "--prob", "--target", "q"],
    ["check", "m.req", "--bogus"],
    ["check", "m.req", "other.req"],
    ["check", "m.req", "--"],
    ["check", "-"],
    ["rank", "m.req", "--var", "v"],
    ["configs", "m.req", "--max-atoms"],
    ["configs", "m.req", "--max-atoms", "x"],
    ["rank", "m.req", "--rule", "r9", "--var", "v"],
    ["check", "m.req", "--format", "xml"],
    ["relax", "m.req", "--target", "q"],
    ["relax", "m.req", "--prob", "--fuzzy", "--target", "q"],
    ["relax", "m.req", "--fuzzy", "--target", "q", "--mu", "exp:-1"],
    ["gen", "--seed", "-1"],
    ["dot", "m.req", "--format", "json"],
]


def _parsed(read, parser):
    """`vars()` of the namespace `read()` returns, with `max_atoms` filled in as
    the CLI fills it, or the exit code and stderr of the usage error it ends in."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            args = read()
            if "max_atoms" in vars(args) and args.max_atoms is None:
                args.max_atoms = roadmapper.cli._default_max_atoms(parser)
    except SystemExit as exc:
        return exc.code, stderr.getvalue()
    return vars(args)


@pytest.mark.parametrize("env", [None, "12", "-3"], ids=["no-env", "env", "bad-env"])
@pytest.mark.parametrize(
    "argv", CANONICAL_ARGVS + OTHER_ARGVS, ids=lambda argv: " ".join(argv) or "(empty)"
)
def test_argv_reader_agrees_with_argparse(monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv(ATOM_LIMIT_ENV, raising=False)
    else:
        monkeypatch.setenv(ATOM_LIMIT_ENV, env)
    parser = roadmapper.cli.build_arg_parser()
    expected = _parsed(lambda: parser.parse_args(argv), parser)
    ours = roadmapper.cli._read_argv(argv)
    assert (ours is not None) == (argv in CANONICAL_ARGVS)
    if ours is not None:
        assert _parsed(lambda: ours, parser) == expected
    assert _parsed(lambda: roadmapper.cli._parse_args(argv), parser) == expected


_ARGV_TOKENS = [
    *roadmapper.cli._COMMANDS, "m.req", "64", "0", "-5", "x", "r3", "text", "<", "exp:0.5", "nan",
    "", "--max-atoms", "--max-a", "--max-results", "--format", "--format=text", "--explain",
    "--rule", "--var", "--floor", "--maxlen", "--prob", "--fuzzy", "--target", "--mu", "--op",
    "--seed", "--quantities", "-h", "--",
]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(CANONICAL_ARGVS + OTHER_ARGVS),
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "replace"]),
            st.integers(0, 15),
            st.sampled_from(_ARGV_TOKENS),
        ),
        max_size=3,
    ),
)
def test_argv_reader_agrees_with_argparse_on_edited_argvs(argv, edits):
    """Each corpus argv with up to three tokens inserted, deleted or replaced."""
    argv = list(argv)
    for edit, position, token in edits:
        position %= len(argv) + 1
        if edit == "insert":
            argv.insert(position, token)
        elif position < len(argv):
            argv[position:position + 1] = [token] if edit == "replace" else []
    parser = roadmapper.cli.build_arg_parser()
    ours = roadmapper.cli._read_argv(argv)
    if ours is not None:
        assert _parsed(lambda: ours, parser) == _parsed(lambda: parser.parse_args(argv), parser)


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


def test_gen_without_a_valid_draw_is_a_model_error(capsys):
    # At the default conflict density, every draw of 100 tasks has an
    # inconsistent mandatory set.
    code, out, err = run(capsys, "gen", "--tasks", "100")
    assert (code, out) == (1, "")
    assert err == (
        "error: could not generate a valid database for seed 0 with 100 tasks in 64 attempts\n"
    )


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

def refinement_chain(n: int, sort: str = "t") -> str:
    """`a0: x0 = 1.`, one `r{i}: x{i} = x{i-1} + 1.` per link, all of `sort`,
    and a mandatory quality constraint on the last variable. A k-sorted
    assignment is a belief, which values also satisfy, so each link of a k
    chain reads the values it assigns."""
    links = "".join(f"{sort} r{i}: x{i} = x{i - 1} + 1.\n" for i in range(1, n + 1))
    return f"{sort} a0: x0 = 1.\n{links}q goal !: x{n} >= 0.\n"


LAS_ROADMAP_FLAGS = ["--var", "rt", "--floor", "40", "--maxdiff", "10", "--max-atoms", "64"]

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
    "k-chain-20": (refinement_chain(20, "k"), ["configs", "--max-atoms", "4000"], 0, 1.0),
    "k-chain-200": (refinement_chain(200, "k"), ["configs", "--max-atoms", "4000"], 0, 2.0),
    "las-roadmaps-maxlen-3": ("las", ["roadmaps", *LAS_ROADMAP_FLAGS, "--maxlen", "3"], 3, 2.0),
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


@pytest.mark.parametrize(
    "text, most",
    [
        (refinement_chain(500), 2),
        (implication_chain(1200).replace("g a1200.", "g a1200 !."), 2),
        (refinement_chain(200, "k"), 3),
    ],
    ids=["refinement-chain-500", "implication-chain-1200", "k-chain-200"],
)
def test_support_search_evaluates_each_key_of_a_chain_a_few_times(monkeypatch, text, most):
    # A first evaluation that reads new keys is dropped, and one more follows
    # once they are solved; a k link's value and its belief read each other.
    evaluations = {}
    for name in ("_req", "_var"):
        original = getattr(operationalization._SupportSearch, name)

        def counted(self, key, original=original, name=name):
            evaluations[name, key] = evaluations.get((name, key), 0) + 1
            return original(self, key)

        monkeypatch.setattr(operationalization._SupportSearch, name, counted)
    db = parse(text).database
    assert len(enumerate_configurations(db, max_atoms=4000)) == 1
    assert max(evaluations.values()) <= most


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


@pytest.mark.parametrize("n", [2, 3, 7])
def test_writer_keeps_the_text_of_a_dict_only_once_it_is_met_again(monkeypatch, n):
    """One dict held by each of `n` rows and one dict per row: the shared
    dict is rendered at its first two meetings and read from the memo after,
    and no dict met once leaves its text in the memo."""
    render = roadmapper.cli._object_text
    rendered, memos = [], []

    def counted(obj, newline, memo):
        rendered.append(id(obj))
        memos.append(memo)
        return render(obj, newline, memo)

    monkeypatch.setattr(roadmapper.cli, "_object_text", counted)
    shared = {"ok": True, "witness": [1, 2]}
    once = [{"n": i} for i in range(n)]
    value = {"rows": [{"once": d, "shared": shared} for d in once], "member": {"a": 1}}
    assert written(value) == dumped(value)
    assert rendered.count(id(shared)) == 2
    assert all(rendered.count(id(d)) == 1 for d in once)
    (memo,) = {id(m): m for m in memos}.values()
    assert [key[0] for key, text in memo.items() if text is not None] == [id(shared)]


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
