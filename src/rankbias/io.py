"""Data ingestion and serialization.

File formats (all JSON-based, language-neutral, diff-friendly):

* Result lists: line-delimited records, one item per line, fields
  ``user_id``, ``query_id``, ``rank`` (1-based), ``item_id``,
  ``annotations`` (attribute -> value -> weight, or the string
  ``"unannotated"``). A line in the writer's own form is read from its
  text, each distinct ``annotations``/``item_id`` head decoded once; any
  other valid JSON line is decoded in full and gives the same lists.
* Profiles: line-delimited records with ``user_id``, ``protected``,
  ``other``.
* Schemas: one document with ``attributes`` (name, kind, values) and
  optional ``numeric_ranges`` for numeric profile attributes.
* Ground truth: one document with ``attribute`` and either
  ``probabilities`` or an ``ideal_list`` to convert.
* Manifest: one document wiring the above together with the measure
  configuration; exactly one of ``results`` / ``scenario`` per run.

Schema, ground-truth and manifest documents are read by ``types.from_json``,
so an unknown key in any of them is an error that names it; so is a key
outside a line record's fields. A line is stripped of JSON whitespace only
(space, tab, CR, LF).
All writers are atomic (write-temp-then-rename).
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .distances import _check_range
from .errors import ConfigError, FormatError, InputError, SchemaError
from .measures import WEIGHTINGS, MeasureConfig
from .significance import _check_permutation_test, _check_seed
from .simulator import ScenarioConfig
from .types import (
    UNANNOTATED, AttributeSchema, GroundTruth, RankedList, ResultItem, UserProfile, _shown, from_json, to_json,
)

def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of chunks written in turn,
    to a temp file beside ``path`` and rename it over ``path``. On any error
    the temp file is removed, so ``path`` holds its old bytes or nothing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


#: The whitespace JSON allows around a value; ``str.strip()`` would also take
#: form feeds, no-break spaces and other Unicode spaces, which JSON does not.
_JSON_SPACE = " \t\r\n"

#: The fields of a line record of each kind.
_RESULT_KEYS = frozenset({"user_id", "query_id", "rank", "item_id", "annotations"})
_PROFILE_KEYS = frozenset({"user_id", "protected", "other"})

#: A results line as ``result_lists_chunks`` writes it: the head ``{"annotations": …, "item_id": …``,
#: then this tail. Ids with no quote, backslash or control character, and a rank with no leading
#: zero and at most 18 digits, read as their own text.
_CANONICAL_HEAD = '{"annotations": '
_CANONICAL_TAIL = re.compile(
    r', "query_id": "([^"\\\x00-\x1f]+)", "rank": ([1-9][0-9]{0,17}), "user_id": "([^"\\\x00-\x1f]+)"}\Z'
)


def _json_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Each non-blank line of ``path`` with its number, stripped of JSON whitespace."""
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            raw = raw.strip(_JSON_SPACE)
            if raw:
                yield lineno, raw


def _json_record(line: str, where: str, keys: frozenset[str] | None = None) -> dict:
    """One line decoded to an object; with ``keys``, one that holds no other key."""
    try:
        record = json.loads(line)
    except ValueError as exc:  # a decode error, or an integer past the digit limit
        raise FormatError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(record, dict):
        raise FormatError(f"{where}: expected an object, got {type(record).__name__}")
    if keys is not None and not keys.issuperset(record):
        raise FormatError(f"{where}: record has unknown keys {sorted(set(record) - keys)}")
    return record


def _read_id(value: object, where: str, field: str) -> str:
    """An id, named in an error by ``where`` and ``field`` joined: a non-empty
    JSON string, so that ``null`` is not read as ``"None"`` nor ``7`` as ``"7"``."""
    if not isinstance(value, str) or not value:
        raise FormatError(f"{where}{field} must be a non-empty string, got {_shown(value)}")
    return value


def _shared_item(item_id: str, annotations: object, where: str, shared: dict[tuple, ResultItem]) -> ResultItem:
    """The record's ``ResultItem``, built once per distinct raw (item id, annotations) under ``==``.
    Sound while the weight rule reads weights only through ``float`` (a rule that told ``true`` from
    1 would need the type in the key) and a rejected record stores nothing. A key that cannot be
    built or hashed goes straight to ``ResultItem``, which raises."""
    if annotations is None:
        annotations = {}
    try:
        key = (item_id, *((a, *w.items()) if isinstance(w, dict) else (a, w) for a, w in annotations.items()))
        item = shared.get(key)
    except (AttributeError, TypeError):
        key = item = None
    if item is None:
        try:
            item = shared[key] = ResultItem(item_id, annotations)
        except InputError as exc:
            raise FormatError(f"{where}: {exc}") from None
    return item


def _canonical_item(
    head: str, where: str, heads: dict[str, ResultItem], shared: dict[tuple, ResultItem]
) -> ResultItem | None:
    """The item of a canonical line's head text, stored in ``heads``; None when ``head + "}"``
    is not an object of exactly ``annotations`` and a non-empty string ``item_id``."""
    try:
        doc = json.loads(head + "}")
    except ValueError:
        return None
    if doc.keys() != {"annotations", "item_id"} or not isinstance(doc["item_id"], str) or not doc["item_id"]:
        return None
    item = heads[head] = _shared_item(doc["item_id"], doc["annotations"], where, shared)
    return item


def _full_record(line: str, where: str, shared: dict[tuple, ResultItem]) -> tuple[str, str, int, ResultItem]:
    """A results line of any valid form, decoded and checked field by field."""
    record = _json_record(line, where, _RESULT_KEYS)
    try:
        user_id = _read_id(record["user_id"], where, ": user_id")
        query_id = _read_id(record["query_id"], where, ": query_id")
        rank = record["rank"]
        item_id = _read_id(record["item_id"], where, ": item_id")
    except KeyError as exc:
        raise FormatError(f"{where}: missing field {exc.args[0]!r}") from None
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise FormatError(f"{where}: rank must be a positive integer, got {record['rank']!r}")
    return user_id, query_id, rank, _shared_item(item_id, record.get("annotations"), where, shared)


def load_result_lists(path: str | Path) -> dict[tuple[str, str], RankedList]:
    """Load, validate, and de-duplicate line-delimited result lists.

    A line in the writer's canonical form is read from its tail's text, and
    each distinct head text is decoded once; every other line is parsed and
    its fields checked in full, so both give the same lists and any error
    names the line. Records with equal raw item id and annotations share one
    ``ResultItem``, so each distinct item is built and its weights checked once.
    """
    path = Path(path)
    pending: dict[tuple[str, str], dict[int, ResultItem]] = {}
    shared: dict[tuple, ResultItem] = {}
    heads: dict[str, ResultItem] = {}
    for lineno, line in _json_lines(path):
        tail = _CANONICAL_TAIL.search(line) if line.startswith(_CANONICAL_HEAD) else None
        item = None
        if tail is not None:
            head = line[: tail.start()]
            item = heads.get(head) or _canonical_item(head, f"{path}:{lineno}", heads, shared)
        if item is not None:
            query_id, rank, user_id = tail.groups()
            rank = int(rank)
        else:
            user_id, query_id, rank, item = _full_record(line, f"{path}:{lineno}", shared)
        by_rank = pending.setdefault((user_id, query_id), {})
        if rank in by_rank:
            if by_rank[rank] == item:  # equal item id and annotations
                warnings.warn(f"{path}:{lineno}: duplicate record ignored", stacklevel=2)
                continue
            raise FormatError(
                f"{path}:{lineno}: conflicting duplicate for (user, query, rank) {(user_id, query_id, rank)}"
            )
        by_rank[rank] = item
    if not pending:
        warnings.warn(f"{path}: no result records found", stacklevel=2)
        return {}
    out: dict[tuple[str, str], RankedList] = {}
    for (user_id, query_id), by_rank in pending.items():
        n = len(by_rank)
        missing = sorted(set(range(1, n + 1)) - set(by_rank))
        if missing:
            raise FormatError(
                f"{path}: list ({user_id!r}, {query_id!r}) has ranks {sorted(by_rank)}, missing {missing}"
            )
        try:
            out[(user_id, query_id)] = RankedList(query_id, user_id, tuple(by_rank[r] for r in range(1, n + 1)))
        except InputError as exc:
            raise FormatError(f"{path}: list ({user_id!r}, {query_id!r}): {exc}") from None
    return out


def result_lists_chunks(lists: Mapping[tuple[str, str], RankedList] | Iterable[RankedList]) -> Iterator[str]:
    """One JSON record per item occurrence, lists in (user, query) order,
    yielded as one chunk of lines per list.

    The bytes equal ``json.dumps(record, sort_keys=True)`` per record; each
    distinct item's leading ``annotations`` and ``item_id`` fields are
    encoded once and reused.
    """
    ranked_lists = lists.values() if isinstance(lists, Mapping) else lists
    encode = json.JSONEncoder(sort_keys=True).encode
    # Keyed by id(item): the sorted list holds every item alive while the generator runs.
    heads: dict[int, str] = {}
    for ranked in sorted(ranked_lists, key=lambda r: (r.user_id, r.query_id)):
        query = f', "query_id": {encode(ranked.query_id)}, "rank": '
        user = f', "user_id": {encode(ranked.user_id)}}}\n'
        lines = []
        for rank, item in enumerate(ranked.items, start=1):
            head = heads.get(id(item))
            if head is None:
                annotations = {
                    attr: (weights if weights else UNANNOTATED) for attr, weights in item.annotations.items()
                }
                head = heads[id(item)] = f'{{"annotations": {encode(annotations)}, "item_id": {encode(item.item_id)}'
            lines.append(f"{head}{query}{rank}{user}")
        yield "".join(lines)


def result_lists_text(lists: Mapping[tuple[str, str], RankedList] | Iterable[RankedList]) -> str:
    """The whole text of :func:`result_lists_chunks`, for callers that need one string."""
    return "".join(result_lists_chunks(lists))


def write_result_lists(lists, path: str | Path) -> None:
    atomic_write_text(path, result_lists_chunks(lists))


def load_profiles(path: str | Path) -> tuple[UserProfile, ...]:
    path = Path(path)
    profiles: dict[str, UserProfile] = {}
    for lineno, line in _json_lines(path):
        where = f"{path}:{lineno}"
        record = _json_record(line, where, _PROFILE_KEYS)
        if "user_id" not in record:
            raise FormatError(f"{where}: missing field 'user_id'")
        user_id = _read_id(record["user_id"], where, ": user_id")
        if user_id in profiles:
            raise FormatError(f"{where}: duplicate profile for user {user_id!r}")
        protected = record.get("protected", {})
        other = record.get("other", {})
        if not isinstance(protected, dict) or not isinstance(other, dict):
            raise FormatError(f"{where}: 'protected' and 'other' must be objects")
        try:
            profiles[user_id] = UserProfile(user_id, dict(protected), dict(other))
        except InputError as exc:
            raise FormatError(f"{where}: {exc}") from None
    if not profiles:
        warnings.warn(f"{path}: no profile records found", stacklevel=2)
    return tuple(profiles[u] for u in sorted(profiles))


def profiles_text(profiles: Iterable[UserProfile]) -> str:
    lines = [json.dumps(to_json(p), sort_keys=True) for p in sorted(profiles, key=lambda p: p.user_id)]
    return "\n".join(lines) + ("\n" if lines else "")


def write_profiles(profiles: Iterable[UserProfile], path: str | Path) -> None:
    atomic_write_text(path, profiles_text(profiles))


def _load_json_doc(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return doc


@dataclass(frozen=True)
class _SchemaDoc:
    """Attribute declarations, each name once, plus declared ranges of numeric profile attributes."""

    attributes: tuple[AttributeSchema, ...]
    numeric_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for i, schema in enumerate(self.attributes):
            if schema.name in (earlier.name for earlier in self.attributes[:i]):
                raise FormatError(f"duplicate attribute {schema.name!r}")
        for attr, bounds in self.numeric_ranges.items():
            _check_range(attr, bounds, FormatError)


def load_schema_file(path: str | Path) -> tuple[dict[str, AttributeSchema], dict[str, tuple[float, float]]]:
    """Attribute schemas by name plus declared numeric ranges."""
    path = Path(path)
    doc = from_json(_SchemaDoc, _load_json_doc(path), f"{path}: schema", FormatError)
    return {schema.name: schema for schema in doc.attributes}, doc.numeric_ranges


def schema_text(schemas: Iterable[AttributeSchema], numeric_ranges: Mapping[str, tuple[float, float]] | None = None) -> str:
    doc = {
        "attributes": [to_json(s) for s in sorted(schemas, key=lambda s: s.name)],
        "numeric_ranges": to_json(dict(numeric_ranges or {})),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class _IdealEntry:
    """One ideal-list record, its id and annotations read as a results line's."""

    item_id: object
    annotations: object = None


@dataclass(frozen=True)
class _GroundTruthDoc:
    """An ``attribute`` and exactly one of ``probabilities`` and an ``ideal_list``
    of records, whose distribution takes ``k`` (default: all) ranks by ``weighting``."""

    attribute: str
    probabilities: dict[str, float] | None = None
    ideal_list: tuple[_IdealEntry, ...] | None = None
    k: int | None = None
    weighting: str = "uniform"

    def __post_init__(self) -> None:
        if (self.probabilities is None) == (self.ideal_list is None):
            raise FormatError("needs exactly one of 'probabilities', 'ideal_list'")
        if self.k is not None and self.k < 1:
            raise FormatError(f"k must be >= 1, got {self.k}")
        if self.weighting not in WEIGHTINGS:
            raise FormatError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")


def load_ground_truth(path: str | Path, schemas: Mapping[str, AttributeSchema] | None) -> GroundTruth | None:
    """A ground truth document: explicit probabilities, or an ideal ranking
    converted through its attribute distribution. Without ``schemas`` an
    ideal list is read and checked in full but not converted (None)."""
    path = Path(path)
    where = f"{path}: ground truth"
    doc = from_json(_GroundTruthDoc, _load_json_doc(path), where, FormatError)
    if doc.probabilities is not None:
        return GroundTruth(doc.attribute, doc.probabilities)
    items: list[ResultItem] = []
    shared: dict[tuple, ResultItem] = {}
    for i, entry in enumerate(doc.ideal_list):
        at = f"{where}.ideal_list[{i}]"
        items.append(_shared_item(_read_id(entry.item_id, at, ".item_id"), entry.annotations, at, shared))
    ideal = RankedList("ideal", "ideal", tuple(items))
    if schemas is None:
        return None
    if doc.attribute not in schemas:
        raise SchemaError(f"{path}: unknown attribute {doc.attribute!r}")
    return GroundTruth.from_ranked_list(ideal, schemas[doc.attribute], doc.k, doc.weighting)


def ground_truth_text(gt: GroundTruth) -> str:
    return json.dumps(to_json(gt), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class SignificanceSpec:
    """Which measures get permutation significance, and how."""

    measures: tuple[str, ...]
    n_permutations: int = 1000
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_permutation_test(self.measures, self.n_permutations)
        if not self.measures:
            raise ConfigError("measures must not be empty")
        if self.seed is not None:
            _check_seed(self.seed)


@dataclass(frozen=True)
class AuditManifest:
    """One audit run: data sources (files or a scenario), the protected and
    differentiating attribute designation, and the measure configuration.
    Field metadata: ``json`` names the key, ``file_mode`` marks one a file-mode
    manifest must give, ``relative`` reads a file name given for it."""

    profiles_path: Path | None = field(default=None, metadata={"json": "profiles", "relative": str, "file_mode": True})
    results_path: Path | None = field(default=None, metadata={"json": "results", "relative": str})
    schema_path: Path | None = field(default=None, metadata={"json": "schema", "relative": str, "file_mode": True})
    ground_truth_path: Path | None = field(default=None, metadata={"json": "ground_truth", "relative": str})
    scenario: ScenarioConfig | None = field(default=None, metadata={"relative": _load_json_doc})
    output_dir: Path | None = field(default=None, metadata={"relative": str})
    protected_attribute: str | None = field(default=None, metadata={"file_mode": True})
    protected_value: object | None = field(default=None, metadata={"file_mode": True})
    differentiating_attribute: str | None = field(default=None, metadata={"file_mode": True})
    config: MeasureConfig = field(default_factory=MeasureConfig)
    significance: SignificanceSpec | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if (self.results_path is None) == (self.scenario is None):
            raise ConfigError("manifest needs exactly one of: results file, scenario")
        for f in fields(self):
            if self.results_path is not None and f.metadata.get("file_mode") and getattr(self, f.name) is None:
                raise ConfigError(f"file-mode manifest is missing {f.metadata.get('json', f.name)!r}")
        if self.seed is not None:
            _check_seed(self.seed)

    @property
    def mode(self) -> str:
        return "simulate" if self.scenario is not None else "measure"


def load_manifest(path: str | Path) -> AuditManifest:
    path = Path(path)
    doc = _load_json_doc(path)
    for f in fields(AuditManifest):
        key, read = f.metadata.get("json", f.name), f.metadata.get("relative")
        if read is not None and isinstance(doc.get(key), str) and doc[key]:
            doc[key] = read(path.parent / doc[key])
    return from_json(AuditManifest, doc, f"{path}: manifest", ConfigError)


def detect_kind(path: str | Path) -> str:
    """Best-effort classification of a data file by extension and keys."""
    path = Path(path)
    if path.suffix == ".jsonl":
        for lineno, line in _json_lines(path):
            record = _json_record(line, f"{path}:{lineno}")
            if "rank" in record and "item_id" in record:
                return "results"
            if "protected" in record or "other" in record or ("user_id" in record and _PROFILE_KEYS.issuperset(record)):
                return "profiles"
            raise FormatError(f"{path}: unrecognized line-record keys {sorted(record)}")
        return "results"  # empty line file: treat as empty results
    doc = _load_json_doc(path)
    if "attributes" in doc:
        return "schema"
    if "probabilities" in doc or "ideal_list" in doc:
        return "ground-truth"
    if "results" in doc or "scenario" in doc:
        return "manifest"
    raise FormatError(f"{path}: unrecognized document keys {sorted(doc)}")


def validate_file(path: str | Path, kind: str | None = None) -> tuple[str, int]:
    """Fully validate a data file; returns (kind, record count)."""
    path = Path(path)
    kind = kind or detect_kind(path)
    if kind == "results":
        return kind, sum(ranked.depth for ranked in load_result_lists(path).values())
    if kind == "profiles":
        return kind, len(load_profiles(path))
    if kind == "schema":
        schemas, _ = load_schema_file(path)
        return kind, len(schemas)
    if kind == "ground-truth":
        load_ground_truth(path, None)
        return kind, 1
    if kind == "manifest":
        load_manifest(path)
        return kind, 1
    raise ConfigError(f"unknown file kind {kind!r}")
