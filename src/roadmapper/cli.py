"""Command-line front end over `.req` files.

Commands: check, configs, rank, roadmaps, dot, relax, gen. JSON is the
machine interface (see schemas/output.schema.json); text is a human summary;
dot is visualization-only. Identical inputs and flags produce byte-identical
output.

JSON is written as it is produced, one member of the top-level containers
at a time, once the whole payload is built, so a failing command never leaves
half a document on stdout.

Exit codes: 0 success, 1 model error or internal error, 2 I/O or usage error
(a closed stdout included), 3 resource limit, 4 semantic error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .configuration import (
    DEFAULT_MAX_ATOMS,
    PROPERTY_NAMES,
    EnumerationResult,
    enumerate_configurations,
)
from .dot import render_dot
from .errors import (
    InvalidLevelError,
    MissingValueError,
    MultiVariableConditionError,
    NonSingletonValError,
    NoSatisfactionFnError,
    NotAComparisonError,
    ResourceLimitError,
    RoadmapperError,
    UnresolvedReferenceError,
    WrongSortError,
)
from .model import (
    ExpDecay,
    Modality,
    Normal,
    PiecewiseLinear,
    PlateauThenDecay,
    RequirementsDatabase,
    Sort,
)
from .operationalization import (
    qualitative_operationalizations,
    quantitative_operationalizations,
)
from .parser import ParseResult, load_file, serialize
from .roadmap import (
    MaximizeValue,
    MaximizeValueThenPreferences,
    MinimizeValue,
    RoadmapValueSum,
    build_roadmaps,
    rank_configurations,
    rank_roadmaps,
)
from .testkit import ModelGenSpec, generate_database
from .transforms import relax_fuzzy, relax_probabilistic

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_IO = 2
EXIT_RESOURCE = 3
EXIT_SEMANTIC = 4

_SEMANTIC_ERRORS = (
    WrongSortError,
    MissingValueError,
    NonSingletonValError,
    NoSatisfactionFnError,
    NotAComparisonError,
    MultiVariableConditionError,
    InvalidLevelError,
    UnresolvedReferenceError,
)

ATOM_LIMIT_ENV = "ROADMAPPER_LIMIT_ATOMS"


def _default_max_atoms(parser: argparse.ArgumentParser) -> int:
    """The atom cap when `--max-atoms` is not given: the environment
    variable's value, held to the option's check, or the default. A bad
    value is a usage error."""
    value = os.environ.get(ATOM_LIMIT_ENV)
    if not value:
        return DEFAULT_MAX_ATOMS
    try:
        return _non_negative_int(value)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"{ATOM_LIMIT_ENV}: {exc}")


# Characters of text one `_write_json` call keeps for dicts it may meet again;
# a memo that would hold more is emptied first.
_JSON_MEMO_LIMIT = 2 ** 20


class _JsonMemo(dict):
    """The text of each dict nested in a streamed member, by the dict's id and
    the `newline` it was written after, holding at most _JSON_MEMO_LIMIT
    characters. Ids stay unique while the payload is alive and unchanged,
    which it is for the whole of a `_write_json` call."""

    def __init__(self):
        super().__init__()
        self.held = 0  # characters held as values

    def keep(self, key: tuple[int, str], text: str) -> None:
        if self.held + len(text) > _JSON_MEMO_LIMIT:
            self.clear()
            self.held = 0
        if len(text) <= _JSON_MEMO_LIMIT:
            self[key] = text
            self.held += len(text)


def _object_members(obj: dict) -> list:
    """The (`"key": ` text, value) pair of each member, in key order."""
    members = []
    for key in sorted(obj):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        members.append((encode_basestring_ascii(key) + ": ", obj[key]))
    return members


def _object_text(obj: dict, newline: str, memo: _JsonMemo) -> str:
    if not obj:
        return "{}"
    inner = newline + "  "
    items = [
        prefix + _json_text(member, inner, memo)
        for prefix, member in _object_members(obj)
    ]
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def _array_text(array, newline: str, memo: _JsonMemo) -> str:
    if not array:
        return "[]"
    inner = newline + "  "
    if type(array[0]) is str:
        try:
            return "[" + inner + ("," + inner).join(
                map(encode_basestring_ascii, array)
            ) + newline + "]"
        except TypeError:
            pass  # not all members are strings
    items = [_json_text(member, inner, memo) for member in array]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _json_text(value, newline: str, memo: _JsonMemo) -> str:
    """`value` as the `json` module writes it with `sort_keys=True, indent=2`,
    nested after `newline` (the line break and indent of its own line). The
    text of a dict is kept in `memo`, so a dict met again costs one lookup.
    Exact types take the first branches; subclasses, bool and None the rest."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        key = (id(value), newline)
        text = memo.get(key)
        if text is None:
            text = _object_text(value, newline, memo)
            memo.keep(key, text)
        return text
    if kind is list:
        return _array_text(value, newline, memo)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        return _float_text(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        return _array_text(value, newline, memo)
    if isinstance(value, dict):
        return _object_text(value, newline, memo)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_members(value, write, newline: str, levels: int, memo: _JsonMemo) -> None:
    """Write `value` nested after `newline`; a non-empty container in the top
    `levels` levels passes each member to `write` on its own."""
    if not (levels and isinstance(value, (dict, list, tuple)) and value):
        # A streamed member is written once: only the dicts inside it are kept.
        if isinstance(value, dict):
            write(_object_text(value, newline, memo))
        else:
            write(_json_text(value, newline, memo))
        return
    inner = newline + "  "
    if isinstance(value, dict):
        opening, closing, members = "{", "}", _object_members(value)
    else:
        opening, closing, members = "[", "]", [("", member) for member in value]
    separator = opening + inner
    for prefix, member in members:
        write(separator + prefix)
        _write_members(member, write, inner, levels - 1, memo)
        separator = "," + inner
    write(newline + closing)


def _write_json(payload, write) -> None:
    """Write the text the `json` module gives `payload` with `sort_keys=True,
    indent=2`, and a newline, through `write`: one member of the document and
    of each of its top-level arrays and objects at a time, so that no call
    holds the whole text. Object keys must be `str` (TypeError otherwise)."""
    _write_members(payload, write, "\n", 2, _JsonMemo())
    write("\n")


def _emit(payload: dict, fmt: str, text_lines) -> None:
    """Write `payload` as JSON, or print `text_lines`, an iterable that only
    the text format consumes: pass a generator, so JSON never builds it."""
    if fmt == "json":
        _write_json(payload, sys.stdout.write)
    else:
        for line in text_lines:
            print(line)


def _diagnostics_payload(result: ParseResult) -> list[dict]:
    return [
        {
            "severity": d.severity.value,
            "file": d.span.file,
            "line": d.span.line,
            "column": d.span.column,
            "message": d.message,
        }
        for d in result.diagnostics
    ]


def _load(path: str) -> tuple[ParseResult | None, int]:
    try:
        return load_file(path), EXIT_OK
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        return None, EXIT_IO
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        print(
            f"error: cannot read {path}: not UTF-8 (byte 0x{byte:02x} at offset {exc.start})",
            file=sys.stderr,
        )
        return None, EXIT_IO


def _load_database(path: str) -> tuple[RequirementsDatabase | None, int]:
    """The valid database in `path` and EXIT_OK, or None and the exit code
    after printing why there is none to stderr."""
    result, code = _load(path)
    if result is None:
        return None, code
    if not result.ok:
        for d in result.diagnostics:
            print(str(d), file=sys.stderr)
        return None, EXIT_MODEL
    return result.database, EXIT_OK


def _report_payload(report) -> dict:
    return {
        "added": sorted(report.added_requirements),
        "removed": sorted(report.removed_requirements),
        "added_preferences": [
            {"kind": p.kind.value, "left": p.left, "right": p.right}
            for p in report.added_preferences
        ],
        "added_sat_fns": sorted(report.added_sat_fns),
        "iterations": report.iterations,
    }


def cmd_check(args) -> int:
    result, code = _load(args.file)
    if result is None:
        return code
    payload = {
        "command": "check",
        "file": args.file,
        "ok": result.ok,
        "diagnostics": _diagnostics_payload(result),
    }
    if result.ok:
        db = result.database
        by_sort = {s.value: 0 for s in Sort}
        by_modality = {m.name.lower(): 0 for m in Modality}
        for req in db:
            by_sort[req.sort.value] += 1
            by_modality[req.modality.name.lower()] += 1
        payload["summary"] = {
            "requirements": len(db.requirements),
            "preferences": len(db.preferences),
            "sat_fns": len(db.sat_fns),
            "by_sort": by_sort,
            "by_modality": by_modality,
            "mandatory_goals": db.mandatory_ids(Sort.GOAL),
        }

    def lines():
        yield from map(str, result.diagnostics)
        if result.ok:
            summary = payload["summary"]
            yield (
                f"{args.file}: {summary['requirements']} requirements, "
                f"{summary['preferences']} preferences, "
                f"{summary['sat_fns']} satisfaction functions"
            )
            yield "mandatory goals: " + (", ".join(summary["mandatory_goals"]) or "(none)")

    _emit(payload, args.format, lines())
    return EXIT_OK if result.ok else EXIT_MODEL


def _enumerate(args, db) -> EnumerationResult:
    return enumerate_configurations(
        db, max_atoms=args.max_atoms, max_results=args.max_results
    )


def _property_payload(report) -> dict:
    out = {}
    for name in PROPERTY_NAMES:
        check = getattr(report, name)
        out[name] = {"ok": check.ok, "witness": list(check.witness)}
    return out


def cmd_configs(args) -> int:
    result, code = _load(args.file)
    if result is None:
        return code
    if not result.ok:
        _emit(
            {"command": "configs", "file": args.file, "ok": False,
             "diagnostics": _diagnostics_payload(result)},
            args.format,
            map(str, result.diagnostics),
        )
        return EXIT_MODEL
    enum = _enumerate(args, result.database)
    db = enum.database
    entries = []
    if args.explain:
        # The operationalizations of a target do not depend on the configuration.
        target_ops = [
            (target, qualitative_operationalizations(target, db))
            for target in db.mandatory_ids(Sort.GOAL, Sort.SOFTGOAL)
        ] + [
            (target, quantitative_operationalizations(target, db))
            for target in db.mandatory_ids(Sort.QUALITY_CONSTRAINT)
        ]
    for config, report in zip(enum.configurations, enum.reports):
        entry = {
            "id": config.id,
            "members": sorted(config.members),
            "properties": _property_payload(report),
        }
        if args.explain:
            entry["explanations"] = {
                target: [sorted(op.support) for op in ops if op.support <= config.members]
                for target, ops in target_ops
            }
        entries.append(entry)
    payload = {
        "command": "configs",
        "file": args.file,
        "count": len(entries),
        "truncated": enum.truncated,
        "configurations": entries,
    }

    def lines():
        yield f"{len(entries)} configuration(s)"
        for entry in entries:
            yield f"  {entry['id']}: {', '.join(entry['members'])}"

    _emit(payload, args.format, lines())
    return EXIT_OK


def cmd_rank(args) -> int:
    db, code = _load_database(args.file)
    if db is None:
        return code
    rules = {
        "r1": MaximizeValue,
        "r2": MinimizeValue,
        "r3": MaximizeValueThenPreferences,
    }
    rule = rules[args.rule](args.var)
    enum = _enumerate(args, db)
    ranking = rank_configurations(enum.database, enum.configurations, rule)
    entries = []
    for position, item in enumerate(ranking, start=1):
        entry = {
            "position": position,
            "id": item.configuration.id,
            "members": sorted(item.configuration.members),
            "value": item.value,
        }
        if item.preference_count is not None:
            entry["preference_count"] = item.preference_count
            entry["pareto"] = item.pareto
        entries.append(entry)
    payload = {
        "command": "rank",
        "file": args.file,
        "rule": args.rule,
        "variable": args.var,
        "ranking": entries,
    }

    def lines():
        yield f"ranking under {args.rule} on {args.var!r}"
        for entry in entries:
            extra = (
                f", preferences={entry['preference_count']}, pareto={entry['pareto']}"
                if "preference_count" in entry
                else ""
            )
            yield f"  {entry['position']}. {entry['id']} value={entry['value']!r}{extra}"

    _emit(payload, args.format, lines())
    return EXIT_OK


def cmd_roadmaps(args) -> int:
    db, code = _load_database(args.file)
    if db is None:
        return code
    enum = _enumerate(args, db)
    roadmaps = build_roadmaps(enum.database, enum.configurations, args.maxlen)
    rule = RoadmapValueSum(args.var, args.floor, args.maxdiff)
    ranking = rank_roadmaps(enum.database, roadmaps, rule)

    # Roadmaps share their operators and operator sets (see build_roadmaps):
    # render each operator once, and list each set once.
    rendered: dict = {}
    listed: dict = {}

    def _rendered(a):
        if a not in rendered:
            add, delete = sorted(a.add), sorted(a.delete)
            entry = {"trigger": sorted(a.trigger), "add": add, "delete": delete}
            rendered[a] = ((delete, add), entry)
        return rendered[a]

    def _adaptations(adaptations):
        entries = listed.get(adaptations)
        if entries is None:
            by_lists = sorted(map(_rendered, adaptations), key=itemgetter(0))
            entries = listed[adaptations] = [entry for _, entry in by_lists]
        return entries

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
        "configurations": {
            c.id: sorted(c.members) for c in enum.configurations
        },
        "ranked": [
            {
                "sequence": [c.id for c in item.roadmap.configurations],
                "total": item.total,
                "adaptations": _adaptations(item.roadmap.adaptations),
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

    def lines():
        ranked, excluded = payload["ranked"], payload["excluded"]
        yield f"{len(ranked)} roadmap(s), {len(excluded)} excluded"
        for entry in ranked:
            yield f"  {' -> '.join(entry['sequence'])} (total={entry['total']!r})"
        for entry in excluded:
            yield (
                f"  excluded {' -> '.join(entry['sequence'])} "
                f"({entry['reason']} at index {entry['witness']})"
            )

    _emit(payload, args.format, lines())
    return EXIT_OK


def cmd_dot(args) -> int:
    db, code = _load_database(args.file)
    if db is None:
        return code
    sys.stdout.write(render_dot(db))
    return EXIT_OK


def _parse_satfn_spec(spec: str):
    """argparse type for --mu; a malformed spec is a usage error."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "exp":
            return ExpDecay(_finite_float(rest))
        if kind == "plateau":
            end, zero, level = (_finite_float(x) for x in rest.split(","))
            return PlateauThenDecay(end, zero, level)
        if kind == "pwl":
            points = []
            for pair in rest.split(","):
                x, _, y = pair.partition(":")
                points.append((_finite_float(x), _finite_float(y)))
            return PiecewiseLinear(tuple(points))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid satisfaction function {spec!r}: {exc}"
        ) from None
    raise argparse.ArgumentTypeError(f"unknown satisfaction function spec {spec!r}")


def _finite_float(text: str) -> float:
    """argparse type for a finite number; the serializer cannot write nan or inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a strictly positive, finite number."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for a whole number of zero or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for a whole number of one or more."""
    value = _non_negative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def cmd_relax(args) -> int:
    db, code = _load_database(args.file)
    if db is None:
        return code
    if args.prob:
        dist = Normal(args.mean, args.variance)
        db2, report = relax_probabilistic(
            db, args.target, dist, args.level, args.op
        )
        mode = "prob"
    else:
        db2, report = relax_fuzzy(db, args.target, args.mu)
        mode = "fuzzy"
    text = serialize(db2)
    if args.format == "json":
        payload = {
            "command": "relax",
            "file": args.file,
            "mode": mode,
            "target": args.target,
            "report": _report_payload(report),
            "database": text,
        }
        _write_json(payload, sys.stdout.write)
    else:
        sys.stdout.write(text)
        print(
            f"relax {mode}: added={sorted(report.added_requirements)} "
            f"removed={sorted(report.removed_requirements)} "
            f"sat_fns={sorted(report.added_sat_fns)}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = ModelGenSpec(
        seed=args.seed,
        tasks=args.tasks,
        assumptions=args.assumptions,
        goals=args.goals,
        include_quantities=args.quantities,
    )
    sys.stdout.write(serialize(generate_database(spec)))
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadmapper",
        description="Reason over mixed-variable requirements databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="input .req file")
        p.add_argument(
            "--format", choices=("json", "text"), default="json", help="output format"
        )

    def limits(p):
        p.add_argument(
            "--max-atoms",
            type=_non_negative_int,
            default=None,
            help=f"k/t requirement cap for enumeration (default {DEFAULT_MAX_ATOMS}; "
            f"env {ATOM_LIMIT_ENV})",
        )
        p.add_argument(
            "--max-results",
            type=_non_negative_int,
            default=None,
            help="truncate configuration lists",
        )

    p = sub.add_parser("check", help="parse and validate a database")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("configs", help="enumerate configurations")
    common(p)
    limits(p)
    p.add_argument(
        "--explain",
        action="store_true",
        help="include operationalization witnesses per mandatory requirement",
    )
    p.set_defaults(func=cmd_configs)

    p = sub.add_parser("rank", help="rank configurations under r1/r2/r3")
    common(p)
    limits(p)
    p.add_argument("--rule", choices=("r1", "r2", "r3"), required=True)
    p.add_argument("--var", required=True, help="ranking variable")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("roadmaps", help="build and rank roadmaps under r4")
    common(p)
    limits(p)
    p.add_argument("--var", required=True, help="summed variable")
    p.add_argument("--floor", type=_finite_float, default=float("-inf"))
    p.add_argument("--maxdiff", type=_non_negative_int, default=10**6)
    p.add_argument("--maxlen", type=_positive_int, default=2)
    p.set_defaults(func=cmd_roadmaps)

    p = sub.add_parser("dot", help="render the requirement graph as DOT")
    p.add_argument("file", help="input .req file")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("relax", help="probabilistic or fuzzy relaxation")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prob", action="store_true")
    group.add_argument("--fuzzy", action="store_true")
    p.add_argument("--target", required=True, help="quality constraint id")
    p.add_argument("--mean", type=_finite_float, default=0.0, help="normal mean (prob)")
    p.add_argument(
        "--variance", type=_positive_float, default=1.0, help="normal variance (prob)"
    )
    p.add_argument("--level", type=float, default=0.9, help="probability level (prob)")
    p.add_argument(
        "--op", default=">=", choices=(">=", ">", "=", "<=", "<"), help="outer operator"
    )
    p.add_argument(
        "--mu",
        type=_parse_satfn_spec,
        default="exp:1.0",
        help="satisfaction function (fuzzy): exp:RATE | plateau:END,ZERO,LEVEL | "
        "pwl:X:Y,X:Y,...",
    )
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("gen", help="generate a random model (test data)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", type=_non_negative_int, default=5)
    p.add_argument("--assumptions", type=_non_negative_int, default=2)
    p.add_argument("--goals", type=_non_negative_int, default=3)
    p.add_argument("--quantities", action="store_true")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code. The cyclic garbage collector
    is paused while it runs and left as it was found. Its passes cost time
    and would free little: on LAS, the generated models and the adversarial
    inputs, a command leaves no cyclic garbage that grows with its input
    (tests/test_cli.py checks this)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if "max_atoms" in vars(args) and args.max_atoms is None:
        args.max_atoms = _default_max_atoms(parser)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout; send the rest, and the flush at exit, nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _SEMANTIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except RoadmapperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except Exception as exc:
        # Exit 1 is what an uncaught traceback gives, so scripts see no change.
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
