"""File formats: bench registries, test suites, budgets and plans.

The one module that reads documents and their fragments; the domain modules
validate values only. All documents are UTF-8 JSON with an explicit
``format_version``. Loading checks the schema first and reports *every*
finding with a path-like location (``benches[0].elements[3].stage``) before
raising; registries are written by hand, so one round of fixes should
suffice. Registries and suites share one loader: the root, each item of its
array and unique ids are checked, then every item is built from the
accepted values and validated; :func:`bench_from_raw` and
:func:`case_from_raw` do the same for one fragment. A registry is loaded in
one pass per bench: the schema check checks a bench's elements a column at
a time, and falls back to locating findings entry by entry only for a bench
where some entry may hold one; the bench invariants are then checked on
its dimension tree, built in one step, and its id and dimension columns.
Only then, and only for the benches a caller uses, are elements built.
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
from operator import itemgetter
from typing import Any, Callable, Collection, Mapping, Sequence, TypeVar

from .assignment import AssignmentPlan, CapacityBudget
from .errors import (
    BenchlatticeError, DocumentSyntaxError, MissingLayer, SchemaError, UnknownDimension,
    ValidationError,
)
from .frozen import Frozen, replace
from .taxonomy import (
    _BY_NAME, _CANONICAL_ORDER, _FLOAT_MAX, Characteristics, DimensionKind, DimensionNode,
    Element, Stage, TestBench, _canonical_nodes, _invariants, _sub_dimensions,
)
from .testcase import (
    EvaluationCriterion, ObjectDescriptor, ScenarioLayers, StageOverrides, TestCase,
    validate_test_case,
)

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

Issue = tuple[str, str]
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
    """Write via a sibling temp file and rename, so readers never observe a
    partial document. The file gets the mode a plain create would give it:
    the kernel applies the umask to 0666. An OSError names ``path`` as
    given, never the temp file, which is removed."""
    head, tail = os.path.split(os.fspath(path))
    tmp_name = os.path.join(head, f".{tail}.{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
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
    ends with. Keys are sorted as given, then written as strings."""
    if not isinstance(value, (list, tuple, dict)):
        parts.append(_scalar(value, "Object of type {} is not JSON serializable"))
    elif not value:
        parts.append("{}" if isinstance(value, dict) else "[]")
    else:
        inner, is_dict = newline + "  ", isinstance(value, dict)
        parts.append("{" if is_dict else "[")
        for key, item in sorted(value.items()) if is_dict else enumerate(value):
            parts.append(inner)
            if is_dict:
                if not isinstance(key, str):
                    key = _scalar(key, "keys must be str, int, float, bool or None, not {}")
                parts += (encode_basestring(key), ": ")
            _write(item, inner, parts)
            parts.append(",")
        parts[-1] = newline + ("}" if is_dict else "]")


def _scalar(value: object, refusal: str) -> str:
    """The JSON text ``json`` gives a string (by its C encoder), None, bool
    or number; a TypeError with ``refusal`` naming the type otherwise."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return "NaN" if value != value else _INFINITIES.get(value) or float.__repr__(value)
    raise TypeError(refusal.format(value.__class__.__name__))


def _load_json(path: str | os.PathLike[str]) -> Any:
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise DocumentSyntaxError(path, f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(path, str(exc)) from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise DocumentSyntaxError(path, f"unreadable number: {exc}") from exc
    except RecursionError as exc:
        raise DocumentSyntaxError(path, "arrays or objects nested too deeply") from exc


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Checker:
    """Collects schema findings instead of failing fast."""

    def __init__(self) -> None:
        self.issues: list[Issue] = []

    def add(self, location: str, message: str) -> None:
        self.issues.append((location, message))

    def obj(self, value: object, location: str) -> dict[str, Any] | None:
        if not isinstance(value, dict):
            self.add(location, f"expected an object, got {type(value).__name__}")
            return None
        return value

    def array(self, value: object, location: str) -> list[Any] | None:
        if not isinstance(value, list):
            self.add(location, f"expected an array, got {type(value).__name__}")
            return None
        return value

    def text(self, value: object, location: str, *, identifier: bool = False) -> str | None:
        if not isinstance(value, str):
            self.add(location, f"expected a string, got {type(value).__name__}")
            return None
        if identifier and not _ID_RE.fullmatch(value):
            self.add(location, f"{value!r} is not a valid identifier")
            return None
        return value

    def number(
        self, value: object, location: str, *, minimum: float | None = None,
        exclusive: bool = False,
    ) -> float | None:
        if not _is_number(value):
            self.add(location, f"expected a number, got {type(value).__name__}")
            return None
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if not math.isfinite(number):
            self.add(location, f"must be a finite number, got {number}")
            return None
        if minimum is not None:
            if exclusive and not number > minimum:
                self.add(location, f"must be > {minimum}, got {number}")
                return None
            if not exclusive and number < minimum:
                self.add(location, f"must be >= {minimum}, got {number}")
                return None
        return number

    def known_fields(
        self, value: dict[str, Any], location: str, allowed: set[str] | frozenset[str]
    ) -> None:
        if value.keys() <= allowed:
            return
        for key in sorted(set(value) - allowed):
            self.add(f"{location}.{key}", "unknown field")

    def version(self, doc: dict[str, Any], location: str = "format_version") -> None:
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            self.add(location, f"unsupported format_version {version!r}; expected {FORMAT_VERSION!r}")

    def raise_if_found(self) -> None:
        if self.issues:
            raise SchemaError(self.issues)


def _load_items(
    path: str | os.PathLike[str],
    key: str,
    noun: str,
    check_item: Callable[[_Checker, object, str], dict[str, Any] | None],
    build: Callable[[dict[str, Any]], _T],
) -> list[tuple[dict[str, Any], _T]]:
    """Each item of the document's array ``key``, checked by ``check_item``,
    as a (fragment, ``build(fragment)``) pair. Raises :class:`SchemaError`
    with every finding, then :class:`ValidationError` with (item id, error)
    pairs for every item ``build`` rejects."""
    doc = _load_json(path)
    check = _Checker()
    root = check.obj(doc, "$")
    fragments: list[dict[str, Any]] = []
    if root is not None:
        check.known_fields(root, "$", {"format_version", key})
        check.version(root)
        items = check.array(root.get(key), key)
        seen: set[str] = set()
        for i, raw in enumerate(items or ()):
            fragment = check_item(check, raw, f"{key}[{i}]")
            if fragment is None:
                continue
            item_id = fragment.get("id")
            if isinstance(item_id, str):
                if item_id in seen:
                    check.add(f"{key}[{i}].id", f"duplicate {noun} id {item_id!r}")
                seen.add(item_id)
            fragments.append(fragment)
    check.raise_if_found()

    loaded: list[tuple[dict[str, Any], _T]] = []
    problems: list[tuple[str, BenchlatticeError]] = []
    for fragment in fragments:
        try:
            loaded.append((fragment, build(fragment)))
        except BenchlatticeError as exc:
            problems.append((str(fragment.get("id")), exc))
    if problems:
        raise ValidationError(problems)
    return loaded


def _from_raw(raw: object, check_item: Callable[..., Any], build: Callable[[Any], _T]) -> _T:
    """``build`` of one fragment that ``check_item`` accepts from ``$``."""
    check = _Checker()
    fragment = check_item(check, raw, "$")
    check.raise_if_found()
    return build(fragment)


# --- bench registries --------------------------------------------------------

_BENCH_FIELDS = {"id", "display_name", "substantiations", "combinable", "elements"}
# Characteristics are never defaulted in documents; only display_name (falls
# back to the id) and the reserved extra map may be omitted. In the format's
# field order, so findings come out in a fixed order.
_ELEMENT_REQUIRED = (
    "id", "dimension", "stage", "validated_for", "cost_rate", "time_factor", "setup_cost",
)
_ELEMENT_FIELDS = frozenset(_ELEMENT_REQUIRED) | {"display_name", "extra"}
_ELEMENT_COLUMNS = itemgetter(*_ELEMENT_REQUIRED)
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
    time; None when :func:`_check_element` may find something in any
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
            and min(numbers[0]) >= 0 and min(numbers[1]) > 0 and min(numbers[2]) >= 0
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
        _set_validated_for(characteristics, frozenset(purposes))
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


def _check_element(check: _Checker, raw: object, location: str) -> None:
    entry = check.obj(raw, location)
    if entry is None:
        return
    check.known_fields(entry, location, _ELEMENT_FIELDS)
    for required in _ELEMENT_REQUIRED:
        if required not in entry:
            check.add(f"{location}.{required}", "required field missing")
    for key in ("id", "dimension"):
        if key in entry:
            check.text(entry[key], f"{location}.{key}", identifier=True)
    if "display_name" in entry:
        check.text(entry["display_name"], f"{location}.display_name")
    if "stage" in entry and entry["stage"] not in _STAGES:
        check.add(
            f"{location}.stage",
            f"expected one of {list(_STAGES)}, got {entry['stage']!r}",
        )
    if "validated_for" in entry:
        tags = check.array(entry["validated_for"], f"{location}.validated_for")
        for i, tag in enumerate(tags or ()):
            check.text(tag, f"{location}.validated_for[{i}]")
    if "cost_rate" in entry:
        check.number(entry["cost_rate"], f"{location}.cost_rate", minimum=0.0)
    if "time_factor" in entry:
        check.number(entry["time_factor"], f"{location}.time_factor", minimum=0.0, exclusive=True)
    if "setup_cost" in entry:
        check.number(entry["setup_cost"], f"{location}.setup_cost", minimum=0.0)
    if "extra" in entry:
        check.obj(entry["extra"], f"{location}.extra")


def _check_bench(check: _Checker, raw: object, location: str) -> dict[str, Any] | None:
    """The bench fragment, its ``elements`` built; None for no object."""
    bench = check.obj(raw, location)
    if bench is None:
        return None
    check.known_fields(bench, location, _BENCH_FIELDS)
    if "id" not in bench:
        check.add(f"{location}.id", "required field missing")
    else:
        check.text(bench["id"], f"{location}.id", identifier=True)
    if "display_name" in bench:
        check.text(bench["display_name"], f"{location}.display_name")
    subs = bench.get("substantiations", {})
    subs_obj = check.obj(subs, f"{location}.substantiations")
    for parent, names in (subs_obj or {}).items():
        names_arr = check.array(names, f"{location}.substantiations.{parent}")
        if names_arr is not None and not names_arr:
            check.add(f"{location}.substantiations.{parent}", "must not be empty")
        for i, name in enumerate(names_arr or ()):
            check.text(name, f"{location}.substantiations.{parent}[{i}]")
    flags = check.obj(bench.get("combinable", {}), f"{location}.combinable")
    for dim, flag in (flags or {}).items():
        if not isinstance(flag, bool):
            check.add(f"{location}.combinable.{dim}", f"expected a boolean, got {flag!r}")
    elements = check.array(bench.get("elements", []), f"{location}.elements") or []
    columns = _elements(elements)
    if columns is None:  # every entry takes the itemised checks
        found = len(check.issues)
        for i, entry in enumerate(elements):
            _check_element(check, entry, f"{location}.elements[{i}]")
        # Columns of entries that hold findings are never built.
        columns = _columns(elements) if len(check.issues) == found else _NO_ELEMENTS
    return {**bench, "elements": columns}


def _bench(fragment: dict[str, Any]) -> Callable[[], TestBench]:
    """The bench of a fragment :func:`_check_bench` has accepted, checked
    against the invariants and built when called: canonical flags,
    substantiations in document order, then sub-dimension flags;
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
    columns = fragment["elements"]
    tree, order = _invariants(bench_id, nodes, columns[0], columns[2])
    display_name = fragment.get("display_name", bench_id)
    return partial(_built, bench_id, display_name, tree, columns, order)


def bench_from_raw(raw: object) -> TestBench:
    """The validated bench of one registry fragment (an item of
    ``benches``), by the checks of :func:`load_registry`. Raises
    :class:`SchemaError` with every finding, located from ``$``
    (``$.elements[3].stage``), or the bench's domain error."""
    return _from_raw(raw, _check_bench, _bench)()


def _checked_registry(path: str | os.PathLike[str]) -> dict[str, Callable[[], TestBench]]:
    """Every bench of a registry file by id, in document order, checked as
    :func:`load_registry` checks them (the same errors and warnings) and
    each built when called."""
    return {
        fragment["id"]: build
        for fragment, build in _load_items(path, "benches", "bench", _check_bench, _bench)
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

_CASE_FIELDS = {"id", "purpose", "scenario", "evaluation_criteria", "overrides"}
_LAYERS = (
    "road_level",
    "traffic_infrastructure",
    "temporary_manipulation",
    "movable_objects",
    "environment_conditions",
)
_SCENARIO_FIELDS = {*_LAYERS, "nominal_duration"}


def _check_case(check: _Checker, raw: object, location: str) -> dict[str, Any] | None:
    case = check.obj(raw, location)
    if case is None:
        return None
    check.known_fields(case, location, _CASE_FIELDS)
    if "id" not in case:
        check.add(f"{location}.id", "required field missing")
    else:
        check.text(case["id"], f"{location}.id", identifier=True)
    if "purpose" in case:
        check.text(case["purpose"], f"{location}.purpose")
    scenario = check.obj(case.get("scenario", {}), f"{location}.scenario")
    if scenario is not None:
        check.known_fields(scenario, f"{location}.scenario", _SCENARIO_FIELDS)
        for key in ("road_level", "traffic_infrastructure", "temporary_manipulation"):
            if key in scenario:
                check.text(scenario[key], f"{location}.scenario.{key}")
        movable = check.array(
            scenario.get("movable_objects", []), f"{location}.scenario.movable_objects"
        )
        for i, obj in enumerate(movable or ()):
            where = f"{location}.scenario.movable_objects[{i}]"
            entry = check.obj(obj, where)
            if entry is None:
                continue
            check.known_fields(entry, where, {"type", "count"})
            if "type" not in entry:
                check.add(f"{where}.type", "required field missing")
            else:
                check.text(entry["type"], f"{where}.type")
            if "count" in entry:
                count = check.number(entry["count"], f"{where}.count", minimum=1)
                if count is not None and not count.is_integer():
                    check.add(f"{where}.count", f"must be a whole number, got {count}")
        conditions = check.array(
            scenario.get("environment_conditions", []),
            f"{location}.scenario.environment_conditions",
        )
        for i, tag in enumerate(conditions or ()):
            check.text(tag, f"{location}.scenario.environment_conditions[{i}]")
        if "nominal_duration" in scenario:
            check.number(scenario["nominal_duration"], f"{location}.scenario.nominal_duration")
    criteria = check.array(
        case.get("evaluation_criteria", []), f"{location}.evaluation_criteria"
    )
    for i, criterion in enumerate(criteria or ()):
        where = f"{location}.evaluation_criteria[{i}]"
        entry = check.obj(criterion, where)
        if entry is None:
            continue
        check.known_fields(entry, where, {"name", "threshold"})
        if "name" not in entry:
            check.add(f"{where}.name", "required field missing")
        else:
            check.text(entry["name"], f"{where}.name")
        if "threshold" in entry:
            check.text(entry["threshold"], f"{where}.threshold")
    overrides = check.obj(case.get("overrides", {}), f"{location}.overrides")
    for dim, stages in (overrides or {}).items():
        stages_arr = check.array(stages, f"{location}.overrides.{dim}")
        for i, stage in enumerate(stages_arr or ()):
            if stage not in _STAGES:
                check.add(
                    f"{location}.overrides.{dim}[{i}]",
                    f"expected one of {list(_STAGES)}, got {stage!r}",
                )
    return case


def _test_case(fragment: dict[str, Any]) -> TestCase:
    """The validated test case of a fragment :func:`_check_case` has
    accepted. Numbers load as floats and counts as ints (``2.0`` as 2)."""
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
    return _from_raw(raw, _check_case, _test_case)


def load_suite(path: str | os.PathLike[str]) -> LoadedSuite:
    """Load a test suite plus its per-test-case stage overrides."""
    loaded = _load_items(path, "test_cases", "test case", _check_case, _test_case)
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
                    dim: sorted((s.value for s in stages), key=_STAGES.index)
                    for dim, stages in sorted(suite.overrides.get(tc.id, {}).items())
                },
            }
            for tc in suite.test_cases
        ],
    }
    write_text_atomic(path, _dump(payload))


# --- budgets -------------------------------------------------------------------


def load_budget(path: str | os.PathLike[str]) -> CapacityBudget:
    doc = _load_json(path)
    check = _Checker()
    root = check.obj(doc, "$")
    limits: dict[str, float] = {}
    if root is not None:
        check.known_fields(root, "$", {"format_version", "max_bench_time"})
        check.version(root)
        table = check.obj(root.get("max_bench_time", {}), "max_bench_time")
        for bench_id, seconds in (table or {}).items():
            value = check.number(
                seconds, f"max_bench_time.{bench_id}", minimum=0.0, exclusive=True
            )
            if value is not None:
                limits[bench_id] = value
    check.raise_if_found()
    return CapacityBudget(max_bench_time=limits)


def save_budget(budget: CapacityBudget, path: str | os.PathLike[str]) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "max_bench_time": dict(sorted(budget.max_bench_time.items())),
    }
    write_text_atomic(path, _dump(payload))


# --- plans ----------------------------------------------------------------------


def plan_to_raw(plan: AssignmentPlan) -> dict[str, Any]:
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


def save_plan(plan: AssignmentPlan, path: str | os.PathLike[str]) -> None:
    write_text_atomic(path, _dump(plan_to_raw(plan)))
