"""File formats: bench registries, test suites, budgets and plans.

The one module that reads documents and their fragments; the domain modules
validate values only. All documents are UTF-8 JSON with an explicit
``format_version``. Each document's schema is stated once, as data, and one
walker checks its every object. Loading reports *every* finding with a
path-like location (``benches[0].elements[3].stage``) before raising, as
registries are written by hand; then each item of the document's array is
built and validated. :func:`bench_from_raw` and :func:`case_from_raw` do the
same for one fragment. A bench's elements are checked a column at a time,
and entry by entry only where some entry may hold a finding; the bench
invariants are checked on its dimension tree and its id and dimension
columns, and elements are built only for the benches a caller uses.
Serialization is canonical (sorted keys, two-space indent, trailing newline)
and writes are atomic via temp file + rename, so no partial files survive a
failure.
"""

from __future__ import annotations

import json
import math
import os
import re
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Callable, Collection, Mapping, Sequence, TypeVar

from .errors import (
    BenchlatticeError, DocumentSyntaxError, MissingLayer, SchemaError, UnknownDimension,
    ValidationError,
)
from .frozen import Frozen, replace
from .taxonomy import (
    _BY_NAME, _CANONICAL_ORDER, _FLOAT_MAX, CapacityBudget, Characteristics, DimensionKind,
    DimensionNode, Element, Stage, TestBench, _canonical_nodes, _invariants, _sub_dimensions,
)
from .testcase import (
    EvaluationCriterion, ObjectDescriptor, ScenarioLayers, StageOverrides, TestCase,
    validate_test_case,
)

if TYPE_CHECKING:  # plans are only written here: loading imports no solver
    from collections.abc import Iterator
    from fractions import Fraction

    from .assignment import AssignmentPlan

__all__ = [
    "FORMAT_VERSION",
    "LoadedSuite",
    "bench_from_raw",
    "case_from_raw",
    "load_registry",
    "save_registry",
    "load_suite",
    "save_suite",
    "load_budget",
    "save_budget",
    "save_plan",
    "write_text_atomic",
]

FORMAT_VERSION = "1"

_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")  # whole values only: fullmatch
_STAGES = tuple(_BY_NAME)
_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}

_T = TypeVar("_T")
_set = object.__setattr__


class LoadedSuite(Frozen):
    __slots__ = ("test_cases", "overrides")

    def __init__(
        self, test_cases: tuple[TestCase, ...], overrides: Mapping[str, StageOverrides],
    ) -> None:
        _set(self, "test_cases", test_cases)
        _set(self, "overrides", overrides)


# --- primitives -------------------------------------------------------------


def write_text_atomic(path: str | os.PathLike[str], text: str) -> None:
    """Write ``text`` as UTF-8 bytes, line ends as given, via a sibling temp
    file and rename, so readers never observe a partial document. The file
    gets the mode a plain create would give it: the kernel applies the
    umask to 0666. An OSError names ``path`` as given, never the temp file,
    which is removed."""
    data = memoryview(text.encode("utf-8"))
    head, tail = os.path.split(os.fspath(path))
    tmp_name = os.path.join(head, f".{tail}.{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def _dump(payload: Mapping[str, Any]) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)``
    and a newline, byte for byte, without the generators an indent costs."""
    parts: list[str] = []
    _write(payload, "\n", parts)
    return "".join(parts) + "\n"


def _write(value: object, newline: str, parts: list[str]) -> None:
    """Append the JSON text of ``value``, nested at the indent ``newline``
    ends with. Keys are sorted as given, then written as strings; an item of
    a type in :data:`_SCALARS` is written without a call of its own."""
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        parts.append(_scalar(value, "Object of type {} is not JSON serializable"))
    elif not value:
        parts.append("{}" if is_dict else "[]")
    else:
        inner = newline + "  "
        parts.append("{" if is_dict else "[")
        for key, item in sorted(value.items()) if is_dict else enumerate(value):
            parts.append(inner)
            if is_dict:
                if not isinstance(key, str):
                    key = _scalar(key, "keys must be str, int, float, bool or None, not {}")
                parts += (encode_basestring(key), ": ")
            scalar = _SCALARS.get(item.__class__)
            if scalar is None:
                _write(item, inner, parts)
            else:
                parts.append(scalar(item))
            parts.append(",")
        parts[-1] = newline + ("}" if is_dict else "]")


def _scalar(value: object, refusal: str) -> str:
    """The JSON text ``json`` gives a string (by its C encoder), None, bool
    or number, or a subclass of one; a TypeError with ``refusal`` naming the
    type otherwise. No class derives from two of them."""
    for kind in value.__class__.__mro__:
        if kind in _SCALARS:
            return _SCALARS[kind](value)
    raise TypeError(refusal.format(value.__class__.__name__))


_CONSTANT = {None: "null", True: "true", False: "false"}.__getitem__
#: The JSON text of a scalar, by its exact type.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring, int: int.__repr__, bool: _CONSTANT, type(None): _CONSTANT,
    float: lambda v: "NaN" if v != v else _INFINITIES.get(v) or float.__repr__(v),
}


def _load_json(path: str | os.PathLike[str]) -> Any:
    """The document at ``path`` as text mode reads it: UTF-8, universal newlines."""
    path = os.fspath(path)
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise DocumentSyntaxError(path, f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(path, str(exc)) from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise DocumentSyntaxError(path, f"unreadable number: {exc}") from exc
    except RecursionError as exc:
        raise DocumentSyntaxError(path, "arrays or objects nested too deeply") from exc


# --- schemas ------------------------------------------------------------------
#
# A schema is a function ``(issues, value, location)`` that appends its
# findings about ``value`` to ``issues``, a list of (location, message)
# pairs, and returns the value to load: ``value`` itself, unless the schema
# converts it (a bench's elements load as columns, a document's array as its
# checked objects), and then the object holding it loads as a copy with the
# converted value.

_Issues = list[tuple[str, str]]
_Schema = Callable[[_Issues, Any, str], Any]


def _expected(issues: _Issues, location: str, kind: str, value: object) -> None:
    issues.append((location, f"expected {kind}, got {type(value).__name__}"))


def _text(issues: _Issues, value: object, location: str) -> object:
    if value.__class__ is not str and not isinstance(value, str):
        _expected(issues, location, "a string", value)
    return value


def _identifier(issues: _Issues, value: object, location: str) -> object:
    if value.__class__ is not str and not isinstance(value, str):
        _expected(issues, location, "a string", value)
    elif not _ID_RE.fullmatch(value):
        issues.append((location, f"{value!r} is not a valid identifier"))
    return value


def _stage(issues: _Issues, value: object, location: str) -> object:
    if value not in _STAGES:
        issues.append((location, f"expected one of {list(_STAGES)}, got {value!r}"))
    return value


def _flag(issues: _Issues, value: object, location: str) -> object:
    if value.__class__ is not bool:
        issues.append((location, f"expected a boolean, got {value!r}"))
    return value


def _version(issues: _Issues, value: object, location: str) -> object:
    if value != FORMAT_VERSION:
        issues.append(
            (location, f"unsupported format_version {value!r}; expected {FORMAT_VERSION!r}")
        )
    return value


def _number(minimum: float | None = None, exclusive: bool = False, whole: bool = False) -> _Schema:
    """A finite number (an int past the float range is not), above
    ``minimum`` or, unless ``exclusive``, at it, and whole if asked."""
    def number(issues: _Issues, value: object, location: str) -> object:
        if not isinstance(value, (int, float)) or value.__class__ is bool:
            _expected(issues, location, "a number", value)
            return value
        try:
            as_float = float(value)
        except OverflowError:
            as_float = math.inf
        if not math.isfinite(as_float):
            issues.append((location, f"must be a finite number, got {as_float}"))
        elif minimum is not None and (as_float <= minimum if exclusive else as_float < minimum):
            relation = ">" if exclusive else ">="
            issues.append((location, f"must be {relation} {minimum}, got {as_float}"))
        elif whole and not as_float.is_integer():
            issues.append((location, f"must be a whole number, got {as_float}"))
        return value
    number.minimum, number.exclusive = minimum, exclusive  # type: ignore[attr-defined]
    return number


def _array(item: _Schema, *, nonempty: bool = False) -> _Schema:
    """An array, each entry checked by ``item``."""
    def array(issues: _Issues, value: object, location: str) -> object:
        if value.__class__ is not list and not isinstance(value, list):
            _expected(issues, location, "an array", value)
            return value
        if nonempty and not value:
            issues.append((location, "must not be empty"))
        for i, entry in enumerate(value):
            item(issues, entry, f"{location}[{i}]")
        return value
    return array


def _map(values: _Schema | None = None) -> _Schema:
    """An object with free keys, each value checked by ``values``."""
    def mapping(issues: _Issues, value: object, location: str) -> object:
        if value.__class__ is not dict and not isinstance(value, dict):
            _expected(issues, location, "an object", value)
        elif values is not None:
            for key, entry in value.items():
                values(issues, entry, f"{location}.{key}")
        return value
    return mapping


def _object(
    fields: dict[str, _Schema], required: Collection[str] = (), *,
    always: Collection[str] = (), root: bool = False,
) -> _Schema:
    """An object with the named ``fields``, in the order findings are
    reported: its unknown fields (sorted), then its missing ``required``
    fields, then each present field's findings. A field in ``always`` is
    checked as None when absent. The fields of a ``root`` object are located
    by name alone. Loads as None when the value is no object."""
    allowed = fields.keys()
    missing = [name for name in fields if name in required]
    checks = list(fields.items())

    def walk(issues: _Issues, value: object, location: str) -> dict[str, Any] | None:
        if value.__class__ is not dict and not isinstance(value, dict):
            _expected(issues, location, "an object", value)
            return None
        prefix = location + "."
        if not value.keys() <= allowed:
            for key in sorted(set(value) - allowed):
                issues.append((f"{prefix}{key}", "unknown field"))
        for name in missing:
            if name not in value:
                issues.append((prefix + name, "required field missing"))
        if root:
            prefix = ""
        loaded = value
        for name, schema in checks:
            if name in value:
                field = value[name]
            elif name in always:
                field = None
            else:
                continue
            result = schema(issues, field, prefix + name)
            if result is not field:
                if loaded is value:
                    loaded = dict(value)
                loaded[name] = result
        return loaded
    return walk


def _document(key: str, noun: str, item: _Schema) -> _Schema:
    """A registry or suite: a format version and an array ``key`` of
    objects with distinct ids, each checked by ``item``; the array loads as
    the list of the objects ``item`` loads."""
    def items(issues: _Issues, value: object, location: str) -> list[dict[str, Any]]:
        loaded: list[dict[str, Any]] = []
        if value.__class__ is not list and not isinstance(value, list):
            _expected(issues, location, "an array", value)
            return loaded
        seen: set[str] = set()
        for i, raw in enumerate(value):
            fragment = item(issues, raw, f"{location}[{i}]")
            if fragment is None:
                continue
            item_id = fragment.get("id")
            if isinstance(item_id, str):
                if item_id in seen:
                    issues.append((f"{location}[{i}].id", f"duplicate {noun} id {item_id!r}"))
                seen.add(item_id)
            loaded.append(fragment)
        return loaded
    fields = {"format_version": _version, key: items}
    return _object(fields, always=fields, root=True)


def _checked(raw: object, schema: _Schema) -> Any:
    """What ``schema`` loads of ``raw`` from ``$``; SchemaError with every finding."""
    issues: _Issues = []
    loaded = schema(issues, raw, "$")
    if issues:
        raise SchemaError(issues)
    return loaded


def _load_items(
    path: str | os.PathLike[str], document: _Schema, key: str,
    build: Callable[[dict[str, Any]], _T],
) -> list[tuple[dict[str, Any], _T]]:
    """Each item of the document's array ``key``, as ``document`` loads it,
    paired with ``build(item)``. Raises :class:`SchemaError` with every
    finding, then :class:`ValidationError` with (item id, error) pairs for
    every item ``build`` rejects."""
    loaded: list[tuple[dict[str, Any], _T]] = []
    problems: list[tuple[str, BenchlatticeError]] = []
    for fragment in _checked(_load_json(path), document)[key]:
        try:
            loaded.append((fragment, build(fragment)))
        except BenchlatticeError as exc:
            problems.append((str(fragment.get("id")), exc))
    if problems:
        raise ValidationError(problems)
    return loaded


# --- bench registries --------------------------------------------------------

# In the format's field order, which is the order of findings.
_ELEMENT_FIELDS: dict[str, _Schema] = {
    "id": _identifier, "dimension": _identifier, "display_name": _text, "stage": _stage,
    "validated_for": _array(_text), "cost_rate": _number(0.0),
    "time_factor": _number(0.0, exclusive=True), "setup_cost": _number(0.0), "extra": _map(),
}
# Characteristics are never defaulted in documents; only display_name (falls
# back to the id) and the reserved extra map may be omitted.
_ELEMENT_REQUIRED = tuple(name for name in _ELEMENT_FIELDS if name not in ("display_name", "extra"))
_ELEMENT_COLUMNS = itemgetter(*_ELEMENT_REQUIRED)
# The number columns' schemas, in the order _columns returns the columns.
_ELEMENT_NUMBERS = tuple(map(_ELEMENT_FIELDS.__getitem__, _ELEMENT_REQUIRED[4:]))
_ELEMENT_ARRAY = _array(_object(_ELEMENT_FIELDS, _ELEMENT_REQUIRED))
_NONE = type(None)
# Identifiers joined by newlines, which no identifier holds.
_IDS_RE = re.compile(rf"{_ID_RE.pattern}(?:\n{_ID_RE.pattern})*")  # fullmatch

#: A bench's element columns in the order of the Element and Characteristics
#: fields: ids, display names (None where absent), dimensions, stage names,
#: validated_for lists, cost rates, time factors, setup costs (as written)
#: and extra maps (None where absent).
_Columns = Sequence[Sequence[Any]]
_NO_ELEMENTS: _Columns = ((),) * 9


def _columns(entries: list[dict[str, Any]]) -> _Columns:
    """The columns of element entries; KeyError if one misses a required
    field."""
    ids, dimensions, stages, tags, *numbers = zip(*map(_ELEMENT_COLUMNS, entries))
    names = list(map(dict.get, entries, repeat("display_name")))
    extras = list(map(dict.get, entries, repeat("extra")))
    return [ids, names, dimensions, stages, tags, *numbers, extras]


def _identifiers(values: Collection[str]) -> bool:
    """Whether every one of these strings is an identifier: one match over
    them joined, where a value holding the separator would be split."""
    joined = "\n".join(values)
    return joined.count("\n") == len(values) - 1 and _IDS_RE.fullmatch(joined) is not None


def _elements(entries: list[Any]) -> _Columns | None:
    """The columns of a bench's ``elements`` array, checked a column at a
    time; None when the element schema may find something in some
    entry."""
    if not entries:
        return _NO_ELEMENTS
    # type() is exact, so a bool is no number. A number column passes when
    # its minimum is in range and its sum is at most the largest float: that
    # fails for a NaN or an infinity anywhere (min() skips a NaN that is not
    # first) and for ints past the float range (their sum is exact), and an
    # int float() cannot convert raises OverflowError when summed with a
    # float. Any int let through converts as the itemised checks convert it.
    try:
        if set(map(type, entries)) != {dict}:
            return None
        columns = ids, names, dimensions, stages, tags, *numbers, extras = _columns(entries)
        if not (
            # Every entry holds the required fields, so it holds no other
            # when the field counts add up to those and the optional fields
            # given (a None given counts as absent, and so fails).
            sum(map(len, entries))
            == len(_ELEMENT_FIELDS) * len(entries) - names.count(None) - extras.count(None)
            and set(map(type, chain(ids, dimensions, stages))) == {str}
            and {str, _NONE} >= set(map(type, names))
            and _identifiers(ids) and _identifiers(set(dimensions))
            and _BY_NAME.keys() >= set(stages)
            and set(map(type, tags)) == {list} and {str} >= set(map(type, chain(*tags)))
            and {dict, _NONE} >= set(map(type, extras))
            and {int, float} >= set(map(type, chain(*numbers)))
            # Each column's bound as its schema states it. Every element
            # number has a minimum >= 0, so no entry exceeds its column's
            # sum, which makes the sum a bound on each.
            and all(
                min(column) > schema.minimum if schema.exclusive else min(column) >= schema.minimum
                for schema, column in zip(_ELEMENT_NUMBERS, numbers)
            )
            and all(sum(column) <= _FLOAT_MAX for column in numbers)
        ):
            return None
    except (KeyError, OverflowError):
        return None
    return columns


def _built(
    bench_id: str, display_name: str, nodes: tuple[DimensionNode, ...], columns: _Columns,
    order: list[int] | None,
) -> TestBench:
    """The bench of checked columns, its elements put in ``order``; integer
    numbers load as floats."""
    # Written straight into each frozen value: the checks of the columns
    # stand in for the Characteristics constructor's.
    new, elements = object.__new__, []
    ids, names, dimensions, stages, tags, *numbers, extras = columns
    costs, factors, setups = (map(float, column) for column in numbers)
    for element_id, name, dimension, stage, purposes, cost, factor, setup, extra in zip(
        ids, names, dimensions, stages, tags, costs, factors, setups, extras
    ):
        characteristics, element = new(Characteristics), new(Element)
        # In sorted order, as the constructor builds it; one tag needs no sort.
        ordered = purposes if len(purposes) < 2 else sorted(purposes)
        _set_validated_for(characteristics, frozenset(ordered))
        _set_cost_rate(characteristics, cost)
        _set_time_factor(characteristics, factor)
        _set_setup_cost(characteristics, setup)
        _set_extra(characteristics, {} if extra is None else dict(extra))
        _set_id(element, element_id)
        _set_display_name(element, element_id if name is None else name)
        _set_dimension(element, dimension)
        _set_stage(element, _BY_NAME[stage])
        _set_characteristics(element, characteristics)
        elements.append(element)
    if order is not None:
        elements = list(map(elements.__getitem__, order))
    return TestBench(bench_id, display_name, nodes, tuple(elements))


# The slots' own setters, which bypass the values' refusal of assignment.
_set_validated_for, _set_cost_rate, _set_time_factor, _set_setup_cost, _set_extra = (
    Characteristics.__dict__[name].__set__ for name in Characteristics.__slots__
)
_set_id, _set_display_name, _set_dimension, _set_stage, _set_characteristics = (
    Element.__dict__[name].__set__ for name in Element.__slots__
)


def _element_columns(issues: _Issues, value: object, location: str) -> _Columns:
    """A bench's ``elements``, checked a column at a time where that finds
    nothing and entry by entry otherwise; loads as their columns."""
    columns = _elements(value) if isinstance(value, list) else None
    if columns is None:  # every entry takes the itemised checks
        found = len(issues)
        _ELEMENT_ARRAY(issues, value, location)
        # Columns of entries that hold findings are never built.
        columns = _columns(value) if len(issues) == found else _NO_ELEMENTS
    return columns


_BENCH = _object(
    {
        "id": _identifier, "display_name": _text,
        "substantiations": _map(_array(_text, nonempty=True)), "combinable": _map(_flag),
        "elements": _element_columns,
    },
    required=("id",),
)
_REGISTRY = _document("benches", "bench", _BENCH)


def _bench(fragment: dict[str, Any]) -> Callable[[], TestBench]:
    """The bench of a fragment ``_BENCH`` has loaded, checked against the
    invariants and built when called: canonical flags, substantiations in
    document order, then sub-dimension flags;
    :func:`~benchlattice.taxonomy._invariants` orders the tree and the
    elements."""
    bench_id, flags = fragment["id"], fragment.get("combinable", {})
    nodes = _canonical_nodes(flags)
    for parent, names in fragment.get("substantiations", {}).items():
        nodes += _sub_dimensions(bench_id, nodes, parent, names)
    sub_flags = flags.keys() - _CANONICAL_ORDER.keys()
    if sub_flags:
        unknown = sorted(sub_flags - {node.id for node in nodes})
        if unknown:
            raise UnknownDimension(f"combinable overrides for unknown dimensions: {unknown}")
        nodes = [
            replace(node, combinable=flags[node.id]) if node.id in sub_flags else node
            for node in nodes
        ]
    columns = fragment.get("elements", _NO_ELEMENTS)
    tree, order = _invariants(bench_id, nodes, columns[0], columns[2])
    display_name = fragment.get("display_name", bench_id)
    return partial(_built, bench_id, display_name, tree, columns, order)


def bench_from_raw(raw: object) -> TestBench:
    """The validated bench of one registry fragment (an item of
    ``benches``), by the checks of :func:`load_registry`. Raises
    :class:`SchemaError` with every finding, located from ``$``
    (``$.elements[3].stage``), or the bench's domain error."""
    return _bench(_checked(raw, _BENCH))()


def _checked_registry(path: str | os.PathLike[str]) -> dict[str, Callable[[], TestBench]]:
    """Every bench of a registry file by id, in document order, checked as
    :func:`load_registry` checks them (the same errors and warnings) and
    each built when called."""
    return {
        fragment["id"]: build
        for fragment, build in _load_items(path, _REGISTRY, "benches", _bench)
    }


def load_registry(path: str | os.PathLike[str]) -> list[TestBench]:
    """Load and validate every bench in a registry file. Every bench is
    checked before any is built; the CLI's lookups build only the bench
    they name from the same checks.

    Raises :class:`DocumentSyntaxError` for a file that is not UTF-8 JSON,
    :class:`SchemaError` with every located finding for schema violations,
    and :class:`ValidationError` with (bench id, error) pairs when benches
    violate the domain invariants.
    """
    return [build() for build in _checked_registry(path).values()]


def bench_to_raw(bench: TestBench) -> dict[str, Any]:
    """Canonical registry fragment for one validated bench."""
    substantiations: dict[str, list[str]] = {}
    for node in bench.dimension_tree:
        if node.kind is DimensionKind.SUB_DIMENSION and node.parent is not None:
            substantiations.setdefault(node.parent, []).append(node.display_name)
    return {
        "id": bench.id,
        "display_name": bench.display_name,
        "substantiations": substantiations,
        "combinable": {node.id: node.combinable for node in bench.dimension_tree},
        "elements": [
            {
                "id": elem.id,
                "display_name": elem.display_name,
                "dimension": elem.dimension,
                "stage": elem.stage.value,
                "validated_for": sorted(elem.characteristics.validated_for),
                "cost_rate": elem.characteristics.cost_rate,
                "time_factor": elem.characteristics.time_factor,
                "setup_cost": elem.characteristics.setup_cost,
                "extra": dict(elem.characteristics.extra),
            }
            for elem in bench.elements
        ],
    }


def save_registry(benches: Sequence[TestBench], path: str | os.PathLike[str]) -> None:
    """Write a canonical, byte-stable registry document."""
    payload = {
        "format_version": FORMAT_VERSION,
        "benches": [bench_to_raw(bench) for bench in benches],
    }
    write_text_atomic(path, _dump(payload))


# --- suites -------------------------------------------------------------------

_SCENARIO_FIELDS: dict[str, _Schema] = {
    "road_level": _text, "traffic_infrastructure": _text, "temporary_manipulation": _text,
    "movable_objects": _array(
        _object({"type": _text, "count": _number(1, whole=True)}, required=("type",))
    ),
    "environment_conditions": _array(_text), "nominal_duration": _number(),
}
_LAYERS = tuple(name for name in _SCENARIO_FIELDS if name != "nominal_duration")
_CASE = _object(
    {
        "id": _identifier, "purpose": _text, "scenario": _object(_SCENARIO_FIELDS),
        "evaluation_criteria": _array(
            _object({"name": _text, "threshold": _text}, required=("name",))
        ),
        "overrides": _map(_array(_stage)),
    },
    required=("id",),
)
_SUITE = _document("test_cases", "test case", _CASE)


def _test_case(fragment: dict[str, Any]) -> TestCase:
    """The validated test case of a fragment ``_CASE`` has loaded. Numbers
    load as floats and counts as ints (``2.0`` as 2)."""
    case_id = fragment["id"]
    scenario = fragment.get("scenario")
    if scenario is None:
        raise MissingLayer(f"test case {case_id!r} has no scenario")
    for layer in _LAYERS:
        if layer not in scenario:
            raise MissingLayer(f"test case {case_id!r}: scenario layer {layer!r} missing")
    return validate_test_case(
        TestCase(
            id=case_id,
            scenario=ScenarioLayers(
                road_level=scenario["road_level"],
                traffic_infrastructure=scenario["traffic_infrastructure"],
                temporary_manipulation=scenario["temporary_manipulation"],
                movable_objects=tuple(
                    ObjectDescriptor(type=obj["type"], count=int(obj.get("count", 1)))
                    for obj in scenario["movable_objects"]
                ),
                environment_conditions=tuple(scenario["environment_conditions"]),
                nominal_duration=float(scenario.get("nominal_duration", 0.0)),
            ),
            evaluation_criteria=tuple(
                EvaluationCriterion(name=c["name"], threshold=c.get("threshold", ""))
                for c in fragment.get("evaluation_criteria", ())
            ),
            purpose=fragment.get("purpose", ""),
        )
    )


def case_from_raw(raw: object) -> TestCase:
    """The validated test case of one suite fragment (an item of
    ``test_cases``), by the checks of :func:`load_suite`; ``overrides`` are
    checked, not returned. Raises :class:`SchemaError` with every finding,
    located from ``$`` (``$.scenario.movable_objects[0].count``), or the
    test case's domain error."""
    return _test_case(_checked(raw, _CASE))


def load_suite(path: str | os.PathLike[str]) -> LoadedSuite:
    """Load a test suite plus its per-test-case stage overrides."""
    loaded = _load_items(path, _SUITE, "test_cases", _test_case)
    overrides: dict[str, StageOverrides] = {
        tc.id: {
            dim: frozenset(Stage(s) for s in stages)
            for dim, stages in fragment["overrides"].items()
        }
        for fragment, tc in loaded
        if fragment.get("overrides")
    }
    return LoadedSuite(test_cases=tuple(tc for _, tc in loaded), overrides=overrides)


def save_suite(suite: LoadedSuite, path: str | os.PathLike[str]) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "test_cases": [
            {
                "id": tc.id,
                "purpose": tc.purpose,
                "scenario": {
                    "road_level": tc.scenario.road_level,
                    "traffic_infrastructure": tc.scenario.traffic_infrastructure,
                    "temporary_manipulation": tc.scenario.temporary_manipulation,
                    "movable_objects": [
                        {"type": obj.type, "count": obj.count}
                        for obj in tc.scenario.movable_objects
                    ],
                    "environment_conditions": list(tc.scenario.environment_conditions),
                    "nominal_duration": tc.scenario.nominal_duration,
                },
                "evaluation_criteria": [
                    {"name": c.name, "threshold": c.threshold}
                    for c in tc.evaluation_criteria
                ],
                "overrides": {
                    dim: [s.value for s in sorted(stages, key=attrgetter("bit"))]
                    for dim, stages in sorted(suite.overrides.get(tc.id, {}).items())
                },
            }
            for tc in suite.test_cases
        ],
    }
    write_text_atomic(path, _dump(payload))


# --- budgets -------------------------------------------------------------------


_BUDGET = _object(
    {"format_version": _version, "max_bench_time": _map(_number(0.0, exclusive=True))},
    always=("format_version",), root=True,
)


def load_budget(path: str | os.PathLike[str]) -> CapacityBudget:
    limits = _checked(_load_json(path), _BUDGET).get("max_bench_time", {})
    return CapacityBudget(max_bench_time={key: float(value) for key, value in limits.items()})


def save_budget(budget: CapacityBudget, path: str | os.PathLike[str]) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "max_bench_time": dict(sorted(budget.max_bench_time.items())),
    }
    write_text_atomic(path, _dump(payload))


# --- plans ----------------------------------------------------------------------


def plan_to_raw(plan: AssignmentPlan) -> dict[str, Any]:
    """The plan document of ``plan``, each exact cost and time converted to
    a float once. Raises :class:`BenchlatticeError` naming the first value,
    in the order converted, that is past the float range."""
    try:
        return _plan_document(plan)
    except OverflowError:
        for location, value in _plan_numbers(plan):
            try:
                float(value)
            except OverflowError:
                raise BenchlatticeError(
                    f"{location}: value past the float range; no plan is written"
                ) from None
        raise


def _plan_document(plan: AssignmentPlan) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "assignments": {
            tc_id: {
                "bench": a.bench_id,
                "config_index": a.config_index,
                "method": a.method.value,
                "selection": {leaf: list(ids) for leaf, ids in a.configuration.selection.items()},
                "execution_time_s": float(a.cost.execution_time),
                "monetary_cost": float(a.cost.monetary_cost),
            }
            for tc_id, a in plan.assignments.items()
        },
        "unassignable": [
            {
                "test_case": case.test_case_id,
                "reason": case.reason,
                "reports": {
                    bench_id: {
                        "admissible": report.admissible,
                        "violations": [
                            {"dimension": v.dimension, "reason": v.reason.value}
                            for v in report.violations
                        ],
                    }
                    for bench_id, report in sorted(case.reports.items())
                },
            }
            for case in plan.unassignable
        ],
        "total_cost": float(plan.total_cost),
        "total_bench_time_s": {
            bench_id: float(seconds)
            for bench_id, seconds in sorted(plan.total_bench_time.items())
        },
    }


def _plan_numbers(plan: AssignmentPlan) -> Iterator[tuple[str, Fraction]]:
    """Each number of the plan document with its location, in the order
    :func:`_plan_document` converts them."""
    for tc_id, a in plan.assignments.items():
        yield f"assignments.{tc_id}.execution_time_s", a.cost.execution_time
        yield f"assignments.{tc_id}.monetary_cost", a.cost.monetary_cost
    yield "total_cost", plan.total_cost
    for bench_id, seconds in sorted(plan.total_bench_time.items()):
        yield f"total_bench_time_s.{bench_id}", seconds


def save_plan(plan: AssignmentPlan, path: str | os.PathLike[str]) -> dict[str, Any]:
    """Write the plan document of ``plan`` (:func:`plan_to_raw`) and return
    it; nothing is written when a value is past the float range."""
    document = plan_to_raw(plan)
    write_text_atomic(path, _dump(document))
    return document
