"""Record classes against `dataclasses`, the mechanism they replace.

For every record class of the package the test builds a
`dataclasses.dataclass` twin from the class's fields, and checks on sample
values that a record and its twin agree: repr, equality (also across
classes), hash, `__match_args__`, constructor signature and defaults, the
frozen-assignment error, slots, and a pickle round trip. The twin keeps the
old mechanism as an oracle, as `reference_lex` does for the lexer.

`reference_make_init` keeps the per-class source builder that compiled each
class's `__init__` before the shape templates, as the oracle of their renaming.
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
from roadmapper._record import _HAS_FACTORY, MISSING, field, fields, record, replace
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


# --- `__init__` templates -----------------------------------------------------------

def reference_make_init(cls, fields, frozen):
    """The `__init__` of a record class compiled from the class's own source,
    as `_record` built it before the shape templates."""
    scope = {"__name__": cls.__module__, "_set": object.__setattr__, "_HAS_FACTORY": _HAS_FACTORY}
    params, body = ["self"], []
    for f in fields:
        name, value = f.name, f.name
        if f.default_factory is not MISSING:
            scope[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=_HAS_FACTORY")
            value = f"_factory_{name}() if {name} is _HAS_FACTORY else {name}"
        elif f.default is not MISSING:
            scope[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body or ["pass"])
    exec(source, scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _init_facts(init) -> tuple:
    code = init.__code__
    return (
        code.co_code, code.co_varnames, code.co_names, code.co_consts, code.co_flags,
        init.__defaults__, init.__kwdefaults__, init.__qualname__, init.__module__,
        str(inspect.signature(init)),
    )


@record
class _NoFields:
    pass


@record(frozen=True)
class _FrozenWithFactory:
    first: int
    items: list = field(default_factory=list)
    last: str = "z"


@record
class _MutableWithFactories:
    first: dict = field(default_factory=dict)
    second: int = 2
    third: list = field(default_factory=list, compare=False)


@record(frozen=True, slots=True)
class _WithPostInit:
    value: float
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "value", self.value * self.scale)


EXTRA_CLASSES = [_NoFields, _FrozenWithFactory, _MutableWithFactories, _WithPostInit]


@pytest.mark.parametrize(
    "cls", _record_classes() + EXTRA_CLASSES, ids=lambda cls: f"{cls.__module__}.{cls.__name__}"
)
def test_init_is_the_reference_init_of_the_class(cls):
    """Each class runs the `__init__` its own source compiles to: the same
    bytecode, local, global and constant names, defaults and signature."""
    reference = reference_make_init(cls, fields(cls), cls.__hash__ is not None)
    assert _init_facts(cls.__init__) == _init_facts(reference)


def test_record_classes_include_the_test_data_generator():
    assert ModelGenSpec in _record_classes()


def test_templated_inits_set_fields_call_factories_and_post_init():
    assert repr(_NoFields()) == "_NoFields()"
    first, second = _FrozenWithFactory(1), _FrozenWithFactory(1, [2], "y")
    assert (first.first, first.items, first.last) == (1, [], "z")
    assert first.items is not _FrozenWithFactory(1).items
    assert (second.items, second.last) == ([2], "y")
    made = _MutableWithFactories(second=5)
    assert (made.first, made.second, made.third) == ({}, 5, [])
    assert _WithPostInit(2.0, 3.0).value == 6.0 and _WithPostInit(2.0).value == 2.0


@pytest.mark.parametrize(
    "ours, theirs",
    [
        (0, 0),
        (field(default=0), dataclasses.field(default=0)),
        (field(default_factory=list), dataclasses.field(default_factory=list)),
    ],
    ids=["plain", "field", "factory"],
)
def test_a_field_without_a_default_after_one_with_is_a_type_error(ours, theirs):
    """As `dataclasses` reports it, not as the compiler would."""

    class Ours:
        a: int = ours
        b: int

    class Theirs:
        a: int = theirs
        b: int

    with pytest.raises(TypeError) as raised:
        record(Ours)
    with pytest.raises(TypeError) as expected:
        dataclasses.dataclass(Theirs)
    assert str(raised.value) == str(expected.value)
    assert "'b'" in str(raised.value)
