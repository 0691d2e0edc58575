"""Record classes: the one decorator behind every value type of the package.

`@record` reads a class's annotated fields and gives it what
`dataclasses.dataclass` would: an `__init__` with the same signature
(defaults, `field(default_factory=...)`, `__post_init__`), `__repr__` as
`Name(f=v, ...)`, `__eq__` between instances of the same class only,
`__match_args__`, and, with `frozen=True`, a hash and a `__setattr__`/
`__delattr__` that raise `dataclasses.FrozenInstanceError`. `slots=True`
rebuilds the class with `__slots__` and pickles it through
`__getstate__`/`__setstate__`.

Only `__init__` is compiled, once per shape (field count, frozen, the
positions of factory fields, whether `__post_init__` is called) over
placeholder names. Each class gets a copy of its shape's code with the
placeholders renamed to its fields (`CodeType.replace`) and its defaults
bound as `__defaults__`, so it runs the bytecode its own source would
compile to; the CLI's import path decorates 46 classes of 16 shapes.
Equality and hashing are closures over an `operator.attrgetter` of the
compared fields, and the other methods are shared. A dataclass compiles
about six functions per class and imports `inspect`, which made the
decorations most of the package's import time. `fields` and `replace`
stand in for their `dataclasses` namesakes; `dataclasses.fields`,
`replace`, `asdict` and `is_dataclass` do not apply to records.
"""

from __future__ import annotations

from operator import attrgetter
from types import CodeType, FunctionType

MISSING = object()


class _Factory:
    """The default an `__init__` parameter shows when a factory supplies it."""

    def __repr__(self):
        return "<factory>"


_HAS_FACTORY = _Factory()


class Field:
    """One field of a record: its name, default or default factory, and
    whether equality and hashing read it."""

    __slots__ = ("name", "default", "default_factory", "compare")

    def __init__(self, default=MISSING, default_factory=MISSING, compare=True):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.compare = compare


def field(*, default=MISSING, default_factory=MISSING, compare=True) -> Field:
    """A field with a default, a default factory, or `compare=False`."""
    return Field(default, default_factory, compare)


def fields(record_or_class) -> tuple[Field, ...]:
    """The fields of a record class or instance, in declaration order."""
    return record_or_class.__record_fields__


def replace(obj, **changes):
    """A new record of `obj`'s class with the given fields changed."""
    for f in obj.__record_fields__:
        changes.setdefault(f.name, getattr(obj, f.name))
    return obj.__class__(**changes)


def _frozen_setattr(self, name, value):
    # Imported here: `dataclasses` imports `inspect`, which start-up avoids.
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self):
    return [getattr(self, name) for name in self.__match_args__]


def _setstate(self, state):
    for name, value in zip(self.__match_args__, state):
        object.__setattr__(self, name, value)


def _eq_hash(names):
    """`__eq__` and `__hash__` over the tuple of the named attributes, as a
    dataclass compares and hashes it. One field is read without building
    the tuple for `==`; `a is b or a == b` is what the tuple compares."""
    if len(names) == 1:
        get = attrgetter(names[0])

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                a, b = get(self), get(other)
                return a is b or a == b
            return NotImplemented

        def __hash__(self):
            return hash((get(self),))

        return __eq__, __hash__
    key = attrgetter(*names) if names else lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    return __eq__, __hash__


# The compiled `__init__` of each shape met: (field count, frozen, factory
# positions, whether `__post_init__` is called) -> code over placeholder names.
_TEMPLATES: dict[tuple, CodeType] = {}


def _template(count, frozen, factories, post_init) -> CodeType:
    """The code of `__init__` for one shape, over the placeholder fields
    `_0`, `_1`, ... and factories `_factory__0`, ...; compiled at the
    shape's first class. A factory field calls its factory when its
    argument is `_HAS_FACTORY`, the default `_make_init` binds for it."""
    shape = (count, frozen, factories, post_init)
    code = _TEMPLATES.get(shape)
    if code is None:
        params, body = ["self"], []
        for i in range(count):
            name = value = f"_{i}"
            if i in factories:
                value = f"_factory_{name}() if {name} is _HAS_FACTORY else {name}"
            params.append(name)
            body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
        if post_init:
            body.append("self.__post_init__()")
        source = f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body or ["pass"])
        scope = {}
        exec(source, scope)
        code = _TEMPLATES[shape] = scope["__init__"].__code__
    return code


def _make_init(cls, fields, frozen):
    """The one function of a record class, its `__init__`: its shape's
    template with the placeholders renamed to the fields, and the defaults
    bound. It runs the bytecode that compiling its own source would give."""
    scope = {"__name__": cls.__module__, "_set": object.__setattr__, "_HAS_FACTORY": _HAS_FACTORY}
    rename, defaults, factories = {}, [], []
    for i, f in enumerate(fields):
        rename[f"_{i}"] = f.name
        if f.default_factory is not MISSING:
            factories.append(i)
            rename[f"_factory__{i}"] = f"_factory_{f.name}"
            scope[f"_factory_{f.name}"] = f.default_factory
            defaults.append(_HAS_FACTORY)
        elif f.default is not MISSING:
            defaults.append(f.default)
        elif defaults:
            # As a dataclass says it; the defaults bind to the last parameters.
            raise TypeError(f"non-default argument {f.name!r} follows default argument")
    code = _template(len(fields), frozen, tuple(factories), hasattr(cls, "__post_init__"))
    code = code.replace(
        co_varnames=tuple(rename.get(s, s) for s in code.co_varnames),
        co_names=tuple(rename.get(s, s) for s in code.co_names),
        co_consts=tuple(rename.get(s, s) for s in code.co_consts),
    )
    init = FunctionType(code, scope, "__init__", tuple(defaults) or None)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def record(cls=None, /, *, frozen=False, slots=False):
    """Make `cls` a record class; used as `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, slots=slots)
    fields = []
    for name in cls.__dict__.get("__annotations__", {}):
        default = cls.__dict__.get(name, MISSING)
        f = default if isinstance(default, Field) else Field(default)
        f.name = name
        fields.append(f)
        if isinstance(default, Field):
            # As with a dataclass, the class attribute becomes the plain default.
            if f.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
    names = tuple(f.name for f in fields)
    if slots:
        namespace = {k: v for k, v in cls.__dict__.items() if k not in names}
        namespace.pop("__dict__", None)
        namespace.pop("__weakref__", None)
        namespace["__slots__"] = names
        qualname = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, namespace)
        cls.__qualname__ = qualname
        cls.__getstate__ = _getstate
        cls.__setstate__ = _setstate
    __eq__, __hash__ = _eq_hash(tuple(f.name for f in fields if f.compare))

    def __repr__(self):
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({pairs})"

    cls.__record_fields__ = tuple(fields)
    cls.__match_args__ = names
    cls.__init__ = _make_init(cls, fields, frozen)
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    if frozen:
        cls.__hash__ = __hash__
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    else:
        cls.__hash__ = None
    return cls
