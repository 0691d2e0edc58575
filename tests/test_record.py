"""Record classes against `dataclasses`, the mechanism they replace.

For every record class of the package the test builds a
`dataclasses.dataclass` twin from the class's fields, and checks on sample
values that a record and its twin agree: repr, equality (also across
classes), hash, `__match_args__`, constructor signature and defaults, the
frozen-assignment error, slots, and a pickle round trip. The twin keeps the
old mechanism as an oracle, as `reference_lex` does for the lexer.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil

import pytest

import roadmapper
from roadmapper._record import MISSING, fields, replace
from roadmapper.configuration import check_configuration
from roadmapper.errors import CyclicReferenceError
from roadmapper.inference import closure
from roadmapper.model import (
    Const,
    PiecewiseLinear,
    PlateauThenDecay,
    Preference,
    PreferenceKind,
    QuantVar,
    RequirementsDatabase,
    ValidityProblem,
)
from roadmapper.operationalization import (
    qualitative_operationalizations,
    satisfaction_closure,
)
from roadmapper.parser import ParseResult, _Decl, parse
from roadmapper.roadmap import (
    MaximizeValue,
    MaximizeValueThenPreferences,
    MinimizeValue,
    PairwisePreference,
    RoadmapValueSum,
    build_roadmaps,
    rank_configurations,
    rank_roadmaps,
)
from roadmapper.testkit import ModelGenSpec
from roadmapper.transforms import relax_fuzzy, value_assumption

from conftest import parse_ok

README_MODEL = """
g p1 ! "Emergency call answered".
t u10 "Route call to senior operator".
t u13 "Route call to trainee operator".
k op_a !: u10 -> p1.
k op_b !: u13 -> p1.
k c1 !: u10 & u13 -> false.
pref: u10 > u13.
t u21: rt = 60 "Mobilize by voice".
t u22: rt = 45 + 2 * 3 "Mobilize by terminal".
q qt: rt <= 3min.
k kd: rt ~ Normal(60, 2025).
q qp: P(rt <= 117.67) >= 0.9.
s sg: ~ "Mobilization should feel fast".
satfn rt = exp(0.01).
"""

SAMPLES_PER_CLASS = 3


def _record_classes() -> list[type]:
    classes = []
    for info in pkgutil.iter_modules(roadmapper.__path__):
        module = importlib.import_module(f"roadmapper.{info.name}")
        classes += [
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and value.__module__ == module.__name__
            and "__record_fields__" in value.__dict__
        ]
    return classes


def _twin(cls: type) -> type:
    """The `dataclasses.dataclass` that `cls` would have been."""
    specs = []
    for f in fields(cls):
        options = {"compare": f.compare}
        if f.default is not MISSING:
            options["default"] = f.default
        if f.default_factory is not MISSING:
            options["default_factory"] = f.default_factory
        specs.append((f.name, cls.__annotations__[f.name], dataclasses.field(**options)))
    return dataclasses.make_dataclass(
        cls.__name__,
        specs,
        frozen=cls.__hash__ is not None,
        slots="__slots__" in cls.__dict__,
    )


def _hash(value) -> int | str:
    """The hash of `value`, or the message of the error hashing it raises."""
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def _values(record) -> list:
    return [getattr(record, name) for name in record.__match_args__]


@pytest.fixture(scope="module")
def samples(las_enumeration):
    """Up to `SAMPLES_PER_CLASS` instances of each record class, found by
    walking the results of the library's entry points."""
    db = las_enumeration.database
    configs = las_enumeration.configurations[:6]
    readme = parse(README_MODEL)
    roadmaps = build_roadmaps(db, configs, 2)
    pwl = PiecewiseLinear(((0.0, 1.0), (10.0, 0.5)))
    relaxed, report = relax_fuzzy(readme.database, "qt", pwl)
    by_sum, by_value = RoadmapValueSum("rt", 45.0, 4), MaximizeValueThenPreferences("rt")
    roots = [
        # Two NaNs: a record equals itself, and not another holding NaN.
        Const(float("nan")),
        Const(float("nan")),
        # Equal records: the unit is left out of comparisons.
        QuantVar("v", "sec"),
        QuantVar("v"),
        readme,
        parse("t a. pref: a > a. g b."),
        parse('t a. k c: a & s -> false. s s: ~ "soft".'),
        las_enumeration,
        check_configuration(db, configs[0]),
        closure(db.mandatory_ids(), db),
        satisfaction_closure(configs[0].members, db),
        qualitative_operationalizations("q2", db),
        roadmaps,
        rank_roadmaps(db, roadmaps, by_sum),
        rank_configurations(db, configs, by_value),
        by_sum,
        by_value,
        MaximizeValue("rt"),
        MinimizeValue("rt"),
        relaxed,
        report,
        ModelGenSpec(seed=3),
        PlateauThenDecay(1.0, 2.0, 0.5),
        PlateauThenDecay(1.0, 2.0),
        ValidityProblem("a", CyclicReferenceError, "message"),
        _Decl("requirement", 0, requirement=readme.database["u10"]),
        PairwisePreference(
            value_assumption("rt", 45.0),
            value_assumption("rt", 60.0),
            Preference(PreferenceKind.STRICT, "a", "b"),
        ),
    ]
    found: dict[type, list] = {}
    seen: set[int] = set()
    stack = list(reversed(roots))
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if "__record_fields__" in type(obj).__dict__:
            group = found.setdefault(type(obj), [])
            if len(group) < SAMPLES_PER_CLASS:
                group.append(obj)
            stack += reversed(_values(obj))
        elif isinstance(obj, (tuple, list)):
            stack += reversed(obj)
        elif isinstance(obj, (frozenset, set)):
            stack += sorted(obj, key=repr, reverse=True)
        elif isinstance(obj, dict):
            stack += [v for pair in sorted(obj.items(), key=repr, reverse=True) for v in pair]
    return found


def test_every_record_class_has_samples(samples):
    classes = _record_classes()
    assert len(classes) >= 46
    assert not [cls.__name__ for cls in classes if cls not in samples]


def test_records_match_their_dataclass_twins(samples):
    twins = {cls: _twin(cls) for cls in samples}

    def twin_of(record):
        return twins[type(record)](*_values(record))

    everything = [record for group in samples.values() for record in group]
    for cls, twin in twins.items():
        assert cls.__match_args__ == twin.__match_args__
        assert hasattr(cls, "__slots__") == hasattr(twin, "__slots__")
        assert (cls.__hash__ is None) == (twin.__hash__ is None)
        ours = inspect.signature(cls).parameters.values()
        theirs = inspect.signature(twin).parameters.values()
        assert [(p.name, p.kind, repr(p.default)) for p in ours] == [
            (p.name, p.kind, repr(p.default)) for p in theirs
        ]
    for record in everything:
        other = twin_of(record)
        assert repr(record) == repr(other)
        assert hasattr(record, "__dict__") == hasattr(other, "__dict__")
        assert _hash(record) == _hash(other)
        required = {
            f.name: getattr(record, f.name)
            for f in fields(record)
            if f.default is MISSING and f.default_factory is MISSING
        }
        assert repr(type(record)(**required)) == repr(type(other)(**required))
        assert replace(record) == record
        for name in record.__match_args__:
            value = getattr(record, name)
            assert replace(record, **{name: value}) == record
            if type(record).__hash__ is None:
                continue
            for attempt in (lambda x: setattr(x, name, value), lambda x: delattr(x, name)):
                with pytest.raises(dataclasses.FrozenInstanceError) as ours:
                    attempt(record)
                with pytest.raises(dataclasses.FrozenInstanceError) as theirs:
                    attempt(other)
                assert str(ours.value) == str(theirs.value)
    others = {id(record): twin_of(record) for record in everything}
    for a, b in itertools.product(everything, repeat=2):
        assert (a == b) == (others[id(a)] == others[id(b)]), (a, b)
        assert (a != b) == (others[id(a)] != others[id(b)]), (a, b)


def test_records_survive_a_pickle_round_trip(samples):
    for group in samples.values():
        for record in group:
            if any(isinstance(v, float) and v != v for v in _values(record)):
                continue  # a NaN unpickles as another object, which compares unequal
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is type(record)
            assert copy == record
            assert _hash(copy) == _hash(record)


def test_mutable_records_take_assignment():
    decl = _Decl("preference", 3)
    decl.offset = 4
    assert decl == _Decl("preference", 4)
    result = parse("t a.")
    result.diagnostics.append("x")
    assert result.diagnostics == ["x"] and parse("t a.").diagnostics == []


def test_default_factories_give_each_record_its_own_value():
    first, second = RequirementsDatabase(), RequirementsDatabase()
    assert first == second and first.requirements is not second.requirements
    assert ParseResult(None).diagnostics is not ParseResult(None).diagnostics
    db = parse_ok("t a.")
    assert db.closure_index is db.closure_index
    assert db.replace(sat_fns={}).closure_index is not db.closure_index
