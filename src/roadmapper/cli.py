"""Command-line front end over `.req` files.

Commands: check, configs, rank, roadmaps, dot, relax, gen. JSON is the
machine interface (see schemas/output.schema.json); text is a human summary;
dot is visualization-only. Identical inputs and flags produce byte-identical
output.

JSON is written as it is produced, one member of the top-level containers
(one run of rows, for `roadmaps`) at a time, once the whole payload is
built, so a failing command never leaves half a document on stdout.
`roadmaps` writes its `ranked` and `excluded` rows straight from the index
core of `roadmap.py` (`_IndexRoadmaps`), from fragments rendered once; it
builds none of the library's roadmap or operator records, which are
unchanged.

One command table (`_COMMANDS`) defines the commands and their options. A
canonical argv is read from it directly (`_read_argv`); argparse is built
from it only for help, usage errors and other spellings.

Every call pays this module's import, so the import loads neither argparse
(with `gettext`) nor `json`: argparse is imported on first use (`_argparse`),
which a canonical argv with valid values never reaches, and JSON strings are
written with `_json`'s `encode_basestring_ascii`, the function the `json`
module itself writes them with.

Exit codes: 0 success, 1 model error (gen finding no valid model included)
or internal error, 2 I/O or usage error (a closed stdout included), 3
resource limit, 4 semantic error.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import sys
from operator import itemgetter
from types import SimpleNamespace

try:
    from _json import encode_basestring_ascii
except ImportError:  # a Python built without the `_json` accelerator
    from json.encoder import encode_basestring_ascii

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
from .parser import ParseResult, load_file, serialize
from .roadmap import (
    DEFAULT_ROADMAP_LIMIT,
    MaximizeValue,
    MaximizeValueThenPreferences,
    MinimizeValue,
    RoadmapValueSum,
    _IndexRoadmaps,
    rank_configurations,
)
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


def _default_max_atoms(parser) -> int:
    """The atom cap when `--max-atoms` is not given: the environment
    variable's value, held to the option's check, or the default. A bad
    value is a usage error, reported by the argparse `parser` (built if
    None)."""
    value = os.environ.get(ATOM_LIMIT_ENV)
    if not value:
        return DEFAULT_MAX_ATOMS
    try:
        return _non_negative_int(value)
    except _argparse().ArgumentTypeError as exc:
        (parser or build_arg_parser()).error(f"{ATOM_LIMIT_ENV}: {exc}")


def _argparse():
    """The argparse module, imported on first use: by `build_arg_parser`, by
    an option converter that rejects a value, and by an `except` clause
    naming its error, which Python evaluates only when an exception
    reaches the clause."""
    import argparse

    return argparse


def _object_members(obj: dict) -> list:
    """The (`"key": ` text, value) pair of each member, in key order."""
    members = []
    for key in sorted(obj):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        members.append((encode_basestring_ascii(key) + ": ", obj[key]))
    return members


def _object_text(obj: dict, newline: str, memo: dict) -> str:
    if not obj:
        return "{}"
    inner = newline + "  "
    items = [
        prefix + _json_text(member, inner, memo)
        for prefix, member in _object_members(obj)
    ]
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def _array_text(array, newline: str, memo: dict) -> str:
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


def _json_text(value, newline: str, memo: dict) -> str:
    """`value` as the `json` module writes it with `sort_keys=True, indent=2`,
    nested after `newline` (the line break and indent of its own line).
    `memo` maps the id of each dict met and its `newline` to None, and to the
    dict's text once the dict is met again, so only a dict the payload shares
    keeps its text, and later meetings cost one lookup. Ids stay unique while
    the payload is alive and unchanged, as it is for the whole of a call.
    Exact types take the first branches; subclasses, bool and None the rest."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        key = (id(value), newline)
        text = memo.get(key)
        if text is None:
            text = _object_text(value, newline, memo)
            memo[key] = text if key in memo else None
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


# The newline and indent of an item of an array that is a member of the
# top-level object.
_ROW_NEWLINE = "\n    "
# The most items of a `_Rows` array passed to `write` in one call. A call per
# item cost about a tenth of LAS `roadmaps`: 16,384 rows written one by one
# into an `io.StringIO` took 5.9 ms, and in runs of 64 rows 0.9 ms.
_ROW_RUN = 32


class _Rows:
    """An array member of the top-level object whose items the caller has
    rendered: `texts` yields the text of each item, nested after
    _ROW_NEWLINE. They are written in runs of up to _ROW_RUN items."""

    __slots__ = ("texts",)

    def __init__(self, texts):
        self.texts = texts


def _write_members(value, write, newline: str, levels: int, memo: dict) -> None:
    """Write `value` nested after `newline`; a non-empty container in the top
    `levels` levels passes each member to `write` on its own, and `_Rows`
    each run of its items."""
    inner = newline + "  "
    if type(value) is _Rows:
        texts, separator = iter(value.texts), "," + inner
        opening = "[" + inner
        while run := list(itertools.islice(texts, _ROW_RUN)):
            write(opening + separator.join(run))
            opening = separator
        write("[]" if opening[0] == "[" else newline + "]")
        return
    if not (levels and isinstance(value, (dict, list, tuple)) and value):
        write(_json_text(value, newline, memo))
        return
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
    of each of its top-level arrays and objects at a time (a run of a
    `_Rows` array's items), so that no call holds the whole text. Object keys
    must be `str` (TypeError otherwise)."""
    _write_members(payload, write, "\n", 2, {})
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
    entries = []
    # Configurations share report objects (enumeration returns one passing
    # report for all): one dict per distinct report, which the writer renders once.
    properties: dict[int, dict] = {}
    for config, report in zip(enum.configurations, enum.reports):
        if id(report) not in properties:
            properties[id(report)] = _property_payload(report)
        entry = {
            "id": config.id,
            "members": sorted(config.members),
            "properties": properties[id(report)],
        }
        if args.explain:
            entry["explanations"] = {
                target: [sorted(s) for s in supports if s <= config.members]
                for target, supports in enum.supports.items()
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


def _adaptation_heads(roadmaps, ids_of, numbers, inner: str) -> dict[int, str]:
    """The text of a ranked row up to its sequence's items, for each operator
    set number in `numbers` of the `_IndexRoadmaps` core `roadmaps`: its
    `adaptations` list, in (delete, add) order, of entries rendered once per
    operator from one template over its add and delete id lists (`ids_of`
    lists ids sorted; the default trigger is the delete list). `inner` is
    the newline and indent of the row's members."""
    masks, operators = roadmaps.masks, roadmaps.operators
    entry, member, item = inner + "  ", inner + "    ", inner + "      "

    def listed(mask: int) -> tuple[list[str], str]:
        found = ids_of(mask)
        text = f'[{item}{f",{item}".join(map(encode_basestring_ascii, found))}{member}]'
        return found, text if found else "[]"

    entries: dict[int, tuple[tuple[list[str], list[str]], str]] = {}
    heads = {}
    for number in numbers:
        members = roadmaps.operator_sets[number]
        for k in [k for k in members if k not in entries]:
            a, b = operators[k]
            add, add_text = listed(masks[b] & ~masks[a])
            delete, delete_text = listed(masks[a] & ~masks[b])
            entries[k] = (delete, add), (
                f'{{{member}"add": {add_text},{member}"delete": {delete_text},'
                f'{member}"trigger": {delete_text}{entry}}}'
            )
        texts = [text for _, text in sorted(map(entries.__getitem__, members), key=itemgetter(0))]
        adaptations = f'[{entry}{f",{entry}".join(texts)}{inner}]' if texts else "[]"
        heads[number] = f'{{{inner}"adaptations": {adaptations},{inner}"sequence": ['
    return heads


def cmd_roadmaps(args) -> int:
    db, code = _load_database(args.file)
    if db is None:
        return code
    enum = _enumerate(args, db)
    # Every limit, operator and value error is raised here, before any write.
    roadmaps = _IndexRoadmaps(
        enum.database, enum.configurations, args.maxlen, DEFAULT_ROADMAP_LIMIT
    )
    outcomes, ranked, excluded = roadmaps.rank(
        RoadmapValueSum(args.var, args.floor, args.maxdiff)
    )
    ids = [c.id for c in roadmaps.configurations]

    # Rows are written from fragments rendered once, at a row's fixed depth:
    # each sequence's items, joined onto its prefix's (`texts`); each
    # operator's adaptation entry; a ranked row's head by its operator set
    # and its tail by its total; and an excluded row's head and tail by its
    # (reason, witness). Totals are sums from int 0 of finite values, never
    # -0.0 (the one float equal to another of a different text) nor NaN, so
    # a total's text can be looked up by the total.
    newline, inner = _ROW_NEWLINE, _ROW_NEWLINE + "  "
    close = inner + "]"
    texts = (
        roadmaps.texts([inner + "  " + encode_basestring_ascii(i) for i in ids], ",")
        if args.format == "json" else None
    )

    def ranked_rows():
        set_numbers = roadmaps.set_numbers
        heads = _adaptation_heads(
            roadmaps, enum.database.closure_index.ids_of,
            dict.fromkeys(map(set_numbers.__getitem__, ranked)), inner,
        )
        tails = {
            total: f'{close},{inner}"total": {_float_text(total)}{newline}}}'
            for total in set(map(outcomes.__getitem__, ranked))
        }
        yield from (f"{heads[set_numbers[j]]}{texts[j]}{tails[outcomes[j]]}" for j in ranked)

    def excluded_rows():
        marks = {
            (reason, witness): (
                f'{{{inner}"reason": {encode_basestring_ascii(reason)},{inner}"sequence": [',
                f'{close},{inner}"witness": {witness}{newline}}}',
            )
            for reason, witness in set(map(outcomes.__getitem__, excluded))
        }
        for j in excluded:
            head, tail = marks[outcomes[j]]
            yield f"{head}{texts[j]}{tail}"

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
        "ranked": _Rows(ranked_rows()),
        "excluded": _Rows(excluded_rows()),
    }

    def lines():
        # The same prefix walk gives each sequence's " -> " text, and each
        # distinct total's text is rendered once.
        arrows = roadmaps.texts(ids, " -> ")
        yield f"{len(ranked)} roadmap(s), {len(excluded)} excluded"
        tails = {
            total: f" (total={total!r})" for total in set(map(outcomes.__getitem__, ranked))
        }
        for j in ranked:
            yield f"  {arrows[j]}{tails[outcomes[j]]}"
        for j in excluded:
            reason, witness = outcomes[j]
            yield f"  excluded {arrows[j]} ({reason} at index {witness})"

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
    except (ValueError, _argparse().ArgumentTypeError) as exc:
        raise _argparse().ArgumentTypeError(
            f"invalid satisfaction function {spec!r}: {exc}"
        ) from None
    raise _argparse().ArgumentTypeError(f"unknown satisfaction function spec {spec!r}")


def _finite_float(text: str) -> float:
    """argparse type for a finite number; the serializer cannot write nan or inf."""
    try:
        value = float(text)
    except ValueError:
        raise _argparse().ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise _argparse().ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a strictly positive, finite number."""
    value = _finite_float(text)
    if value <= 0.0:
        raise _argparse().ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for a whole number of zero or more."""
    try:
        value = int(text)
    except ValueError:
        raise _argparse().ArgumentTypeError(f"not a whole number: {text!r}") from None
    if value < 0:
        raise _argparse().ArgumentTypeError(f"must not be negative: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for a whole number of one or more."""
    value = _non_negative_int(text)
    if value == 0:
        raise _argparse().ArgumentTypeError(f"must be positive: {text!r}")
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
    # Imported here: only this test-data command uses the generator.
    from .testkit import ModelGenSpec, generate_database

    spec = ModelGenSpec(
        seed=args.seed,
        tasks=args.tasks,
        assumptions=args.assumptions,
        goals=args.goals,
        include_quantities=args.quantities,
    )
    sys.stdout.write(serialize(generate_database(spec)))
    return EXIT_OK


class _OneOf(tuple):
    """In the command table: flags of which a call gives exactly one, as an
    argparse required mutually exclusive group."""


_FILE = ("file", {"help": "input .req file"})
_FORMAT = (
    "--format", {"choices": ("json", "text"), "default": "json", "help": "output format"}
)
_LIMITS = (
    ("--max-atoms", {
        "type": _non_negative_int,
        "default": None,
        "help": f"k/t requirement cap for enumeration (default {DEFAULT_MAX_ATOMS}; "
        f"env {ATOM_LIMIT_ENV})",
    }),
    ("--max-results", {
        "type": _non_negative_int, "default": None, "help": "truncate configuration lists"
    }),
)
_FLAG = {"action": "store_true"}

# The command table: each command's help, function and arguments, in the
# order its help lists them. An argument is a name (a positional, or a long
# option) and `add_argument` keywords, of which it uses only help, type,
# choices, default, required and action="store_true": `build_arg_parser`
# builds argparse from the table, and `_read_argv` reads argv with it.
_COMMANDS = {
    "check": ("parse and validate a database", cmd_check, (_FILE, _FORMAT)),
    "configs": ("enumerate configurations", cmd_configs, (
        _FILE, _FORMAT, *_LIMITS,
        ("--explain", {
            "action": "store_true",
            "help": "include operationalization witnesses per mandatory requirement",
        }),
    )),
    "rank": ("rank configurations under r1/r2/r3", cmd_rank, (
        _FILE, _FORMAT, *_LIMITS,
        ("--rule", {"choices": ("r1", "r2", "r3"), "required": True}),
        ("--var", {"required": True, "help": "ranking variable"}),
    )),
    "roadmaps": ("build and rank roadmaps under r4", cmd_roadmaps, (
        _FILE, _FORMAT, *_LIMITS,
        ("--var", {"required": True, "help": "summed variable"}),
        ("--floor", {"type": _finite_float, "default": float("-inf")}),
        ("--maxdiff", {"type": _non_negative_int, "default": 10**6}),
        ("--maxlen", {"type": _positive_int, "default": 2}),
    )),
    "dot": ("render the requirement graph as DOT", cmd_dot, (_FILE,)),
    "relax": ("probabilistic or fuzzy relaxation", cmd_relax, (
        _FILE, _FORMAT,
        _OneOf((("--prob", _FLAG), ("--fuzzy", _FLAG))),
        ("--target", {"required": True, "help": "quality constraint id"}),
        ("--mean", {"type": _finite_float, "default": 0.0, "help": "normal mean (prob)"}),
        ("--variance", {
            "type": _positive_float, "default": 1.0, "help": "normal variance (prob)"
        }),
        ("--level", {"type": float, "default": 0.9, "help": "probability level (prob)"}),
        ("--op", {
            "default": ">=", "choices": (">=", ">", "=", "<=", "<"), "help": "outer operator"
        }),
        ("--mu", {
            "type": _parse_satfn_spec,
            "default": "exp:1.0",
            "help": "satisfaction function (fuzzy): exp:RATE | plateau:END,ZERO,LEVEL | "
            "pwl:X:Y,X:Y,...",
        }),
    )),
    "gen": ("generate a random model (test data)", cmd_gen, (
        ("--seed", {"type": int, "default": 0}),
        ("--tasks", {"type": _non_negative_int, "default": 5}),
        ("--assumptions", {"type": _non_negative_int, "default": 2}),
        ("--goals", {"type": _non_negative_int, "default": 3}),
        ("--quantities", _FLAG),
    )),
}

_INVALID = object()


def _typed(keywords: dict, text: str):
    """`text` through the argument's `type`, or _INVALID where argparse
    would call the conversion an error."""
    convert = keywords.get("type")
    if convert is None:
        return text
    try:
        return convert(text)
    except (_argparse().ArgumentTypeError, TypeError, ValueError):
        return _INVALID


def _read_argv(argv) -> SimpleNamespace | None:
    """The attributes of the namespace `build_arg_parser().parse_args(argv)`
    returns, read from the command table when `argv` is spelled canonically,
    else None.

    Canonical: an exact command name, then that command's positionals and
    options in any order. An option is given by its exact long name, at most
    once, followed by its value if it takes one, and neither a value nor a
    positional starts with "-". Values go through `type` and `choices`,
    required options and groups are checked, and defaults are filled in,
    a string default through `type`, all as argparse does; where argparse
    would report an error, the answer is None, and argparse reports it.
    """
    if not argv or not all(isinstance(token, str) for token in argv):
        return None
    entry = _COMMANDS.get(argv[0])
    if entry is None:
        return None
    _, func, table = entry
    arguments, groups = [], []
    for argument in table:
        if isinstance(argument, _OneOf):
            groups.append(argument)
            arguments += argument
        else:
            arguments.append(argument)
    options = {name: keywords for name, keywords in arguments if name[0] == "-"}
    positionals = [(name, keywords) for name, keywords in arguments if name[0] != "-"]
    given = {}
    waiting = iter(positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            name, keywords = next(waiting, (None, None))
            if name is None:
                return None
        else:
            keywords = options.get(token)
            if keywords is None or token in given:
                return None
            name = token
            if keywords.get("action") == "store_true":
                given[name] = True
                continue
            token = next(tokens, "-")
            if token[:1] == "-":
                return None
        value = _typed(keywords, token)
        choices = keywords.get("choices")
        if value is _INVALID or (choices is not None and value not in choices):
            return None
        given[name] = value
    values = {"command": argv[0], "func": func}
    for name, keywords in arguments:
        if name in given:
            value = given[name]
        elif name[0] != "-" or keywords.get("required"):
            return None
        elif keywords.get("action") == "store_true":
            value = False
        else:
            value = keywords.get("default")
            if isinstance(value, str):
                value = _typed(keywords, value)
                if value is _INVALID:
                    return None
        values[name.lstrip("-").replace("-", "_")] = value
    if any(sum(name in given for name, _ in group) != 1 for group in groups):
        return None
    return SimpleNamespace(**values)


def build_arg_parser():
    """argparse's parser for the command table: it gives the help, the usage
    errors and the other spellings that `_read_argv` leaves to it."""
    argparse = _argparse()
    parser = argparse.ArgumentParser(
        prog="roadmapper",
        description="Reason over mixed-variable requirements databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for argument in arguments:
            if isinstance(argument, _OneOf):
                group = p.add_mutually_exclusive_group(required=True)
                for name, keywords in argument:
                    group.add_argument(name, **keywords)
            else:
                p.add_argument(argument[0], **argument[1])
        p.set_defaults(func=func)
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


def _parse_args(argv):
    """The namespace of `argv` (None: `sys.argv[1:]`), with `max_atoms`
    filled in where the command has it. A canonical argv is read from the
    command table; argparse is built only for the rest, and for a bad
    ROADMAPPER_LIMIT_ATOMS, and exits with its message."""
    parser = None
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        parser = build_arg_parser()
        args = parser.parse_args(argv)
    if "max_atoms" in vars(args) and args.max_atoms is None:
        args.max_atoms = _default_max_atoms(parser)
    return args


def _run(argv) -> int:
    args = _parse_args(argv)
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
