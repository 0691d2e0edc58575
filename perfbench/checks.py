"""Output checks, run outside the timed region.

Each invocation's first output is checked in full; later passes (run under
other PYTHONHASHSEED values) must repeat it byte for byte, and share its
verdict. A full check is:

- the exit code equals the invocation's reference code;
- every JSON output validates against `schemas/output.schema.json`;
- LAS outputs equal the recorded reference byte for byte;
- gen-ladder outputs, but for the input path, equal the recorded
  reference; configs on models within
  `testkit.BRUTE_ATOM_LIMIT` (after value-conflict expansion) equal
  `testkit.brute_configurations`;
- model-io outputs of generated models agree with the parsed input: check
  counts, DOT nodes, and the relaxed database re-parses with the reported
  additions and removals.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

from roadmapper.parser import parse
from roadmapper.testkit import (
    BRUTE_ATOM_LIMIT,
    brute_configurations,
    generate_database,
    parse_dot,
)
from roadmapper.transforms import expand_value_conflicts

SCHEMA_PATH = "schemas/output.schema.json"
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(command: str, text: str) -> str:
    """The output without the input's path, which differs from run to run."""
    if command == "dot":
        return text
    data = json.loads(text)
    data.pop("file", None)
    return json.dumps(data, sort_keys=True)


class Checker:
    def __init__(self, reference: dict | None = None):
        self.reference = reference if reference is not None else load_reference()
        schema = json.loads(Path(SCHEMA_PATH).read_text())
        self.validator = jsonschema.Draft7Validator(schema)
        self.first: dict[str, tuple] = {}  # key -> (first output's digest, its problem)
        self.brute: dict[str, list | None] = {}  # model name -> oracle configurations
        self.parsed: dict[str, object] = {}  # model name -> parsed database

    def check(self, inv, rc, stdout: bytes, stderr: str) -> str | None:
        """None if the output is correct, else the reason it is not."""
        if rc != inv.expect_rc:
            return f"exit code {rc}, expected {inv.expect_rc}: {stderr.strip()[:200]}"
        digest = sha256(stdout)
        if inv.key in self.first:
            first_digest, problem = self.first[inv.key]
            return problem if first_digest == digest else "output differs from the first pass"
        try:
            problem = self._full_check(inv, stdout.decode(), stderr, digest)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"malformed output: {exc!r}"
        self.first[inv.key] = (digest, problem)
        return problem

    def _full_check(self, inv, text, stderr, digest):
        if inv.expect_rc != 0:
            if text or not stderr.startswith("error:"):
                return "a refusal must print only an error line to stderr"
            return None
        ref = self.reference.get(inv.key)
        if inv.model.kind == "las":
            if ref is None:
                return "no recorded reference"
            if digest == ref["sha256"]:
                return None
            problem = self.schema_problem(inv, text)
            return "differs from the recorded reference" + (f"; {problem}" if problem else "")
        problem = self.schema_problem(inv, text)
        if problem:
            return problem
        if inv.model.kind == "io":
            return self._io_problem(inv, text)
        if ref is None:
            return "no recorded reference"
        if ref["model"] != sha256(inv.model.canonical.encode()):
            return "reference was recorded for another model"
        if sha256(canonical(inv.command, text).encode()) != ref["canon"]:
            return "differs from the recorded reference"
        if inv.command == "configs":
            return self._oracle_problem(inv, json.loads(text))
        return None

    def schema_problem(self, inv, text):
        if inv.command == "dot":
            return None
        error = jsonschema.exceptions.best_match(self.validator.iter_errors(json.loads(text)))
        return None if error is None else f"schema: {error.message[:200]}"

    def _oracle_problem(self, inv, data):
        """Compare with the brute-force configurations of models small enough."""
        model = inv.model
        if model.name not in self.brute:
            db, _ = expand_value_conflicts(generate_database(model.spec))
            self.brute[model.name] = (
                [sorted(s) for s in brute_configurations(db)]
                if len(db.member_ids()) <= BRUTE_ATOM_LIMIT
                else None
            )
        brute = self.brute[model.name]
        found = [e["members"] for e in data["configurations"]]
        if brute is None or found == brute:
            return None
        return "differs from testkit.brute_configurations"

    def _io_problem(self, inv, text):
        if inv.model.name not in self.parsed:
            self.parsed[inv.model.name] = parse(inv.model.text, inv.model.path).database
        db = self.parsed[inv.model.name]
        if inv.command == "check":
            summary = json.loads(text)["summary"]
            counts = (summary["requirements"], summary["preferences"], summary["sat_fns"])
            expected = (len(db.requirements), len(db.preferences), len(db.sat_fns))
            return None if counts == expected else f"summary {counts}, expected {expected}"
        if inv.command == "dot":
            nodes, _ = parse_dot(text)
            return None if sorted(nodes) == sorted(db.requirements) else "DOT nodes differ"
        if inv.command == "relax":
            data = json.loads(text)
            relaxed = parse(data["database"], "relaxed")
            report = data["report"]
            expected = len(db.requirements) + len(report["added"]) - len(report["removed"])
            changes = report["added"] + report["removed"] + report["added_sat_fns"]
            if not relaxed.ok or not changes:
                return "relaxed database does not re-parse or changes nothing"
            if len(relaxed.database.requirements) != expected:
                return "relaxed database disagrees with its report"
        return None


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())
