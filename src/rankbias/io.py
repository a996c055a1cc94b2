"""Data ingestion and serialization.

File formats (all JSON-based, language-neutral, diff-friendly):

* Result lists: line-delimited records, one item per line, fields
  ``user_id``, ``query_id``, ``rank`` (1-based), ``item_id``,
  ``annotations`` (attribute -> value -> weight, or the string
  ``"unannotated"``).
* Profiles: line-delimited records with ``user_id``, ``protected``,
  ``other``.
* Schemas: one document with ``attributes`` (name, kind, values) and
  optional ``numeric_ranges`` for numeric profile attributes.
* Ground truth: one document with ``attribute`` and either
  ``probabilities`` or an ``ideal_list`` to convert.
* Manifest: one document wiring the above together with the measure
  configuration; exactly one of ``results`` / ``scenario`` per run.

All writers are atomic (write-temp-then-rename).
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .distances import _is_number
from .errors import ConfigError, FormatError, InputError, SchemaError
from .measures import MeasureConfig
from .simulator import ScenarioConfig
from .types import (
    DIFFERENTIATING,
    UNANNOTATED,
    AttributeSchema,
    GroundTruth,
    RankedList,
    ResultItem,
    UserProfile,
    json_list,
)

#: Loader tolerance for annotation weight sums; vectors within it are
#: normalized exactly, anything further off is rejected.
WEIGHT_SUM_TOL = 1e-6


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _json_lines(path: Path) -> Iterable[tuple[int, dict]]:
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise FormatError(f"{path}:{lineno}: expected an object, got {type(record).__name__}")
            yield lineno, record


def _clean_annotations(raw: object, where: str) -> dict[str, dict[str, float]]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise FormatError(f"{where}: annotations must be an object")
    out: dict[str, dict[str, float]] = {}
    for attr, weights in raw.items():
        if weights == UNANNOTATED or weights is None or weights == {}:
            out[attr] = {}
            continue
        if not isinstance(weights, dict):
            raise FormatError(f"{where}: annotation for {attr!r} must be a value->weight object")
        vector: dict[str, float] = {}
        total = 0.0
        for value, w in weights.items():
            try:
                w = float(w)
            except (TypeError, ValueError):
                raise FormatError(f"{where}: non-numeric weight for {attr!r}/{value!r}") from None
            if not math.isfinite(w):
                raise FormatError(f"{where}: non-finite weight for {attr!r}/{value!r}")
            if w < 0.0:
                raise FormatError(f"{where}: negative weight for {attr!r}/{value!r}")
            vector[str(value)] = w
            total += w
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise FormatError(f"{where}: weights for {attr!r} sum to {total!r}, expected 1")
        if abs(total - 1.0) > 1e-12:
            vector = {value: w / total for value, w in vector.items()}
        out[attr] = vector
    return out


def _canonical(item_id: str, annotations: dict[str, dict[str, float]]) -> str:
    return json.dumps([item_id, annotations], sort_keys=True)


def load_result_lists(path: str | Path) -> dict[tuple[str, str], RankedList]:
    """Load, validate, and de-duplicate line-delimited result lists.

    Every line is checked; records with equal item id and annotations share
    one ``ResultItem``, so items are built once per distinct item in the file.
    """
    path = Path(path)
    pending: dict[tuple[str, str], dict[int, ResultItem]] = {}
    shared: dict[tuple, ResultItem] = {}
    for lineno, record in _json_lines(path):
        where = f"{path}:{lineno}"
        try:
            user_id = str(record["user_id"])
            query_id = str(record["query_id"])
            rank = record["rank"]
            item_id = str(record["item_id"])
        except KeyError as exc:
            raise FormatError(f"{where}: missing field {exc.args[0]!r}") from None
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise FormatError(f"{where}: rank must be a positive integer, got {record['rank']!r}")
        if not user_id or not query_id or not item_id:
            raise FormatError(f"{where}: user_id, query_id and item_id must be non-empty")
        annotations = _clean_annotations(record.get("annotations"), where)
        by_rank = pending.setdefault((user_id, query_id), {})
        if rank in by_rank:
            held = by_rank[rank]
            if _canonical(held.item_id, held.annotations) == _canonical(item_id, annotations):
                warnings.warn(f"{where}: duplicate record ignored", stacklevel=2)
                continue
            raise FormatError(f"{where}: conflicting duplicate for (user, query, rank) {(user_id, query_id, rank)}")
        # equal in value and in order, so a shared item reads exactly as its own would
        key = (item_id, *((attr, *vector.items()) for attr, vector in annotations.items()))
        item = shared.get(key)
        if item is None:
            item = shared[key] = ResultItem(item_id, annotations)
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


def result_lists_text(lists: Mapping[tuple[str, str], RankedList] | Iterable[RankedList]) -> str:
    """One JSON record per item occurrence, lists in (user, query) order.

    The bytes equal ``json.dumps(record, sort_keys=True)`` per record; each
    distinct item's leading ``annotations`` and ``item_id`` fields are
    encoded once and reused.
    """
    ranked_lists = lists.values() if isinstance(lists, Mapping) else lists
    encode = json.JSONEncoder(sort_keys=True).encode
    # Keyed by id(item): the sorted list holds every item alive for the whole call.
    heads: dict[int, str] = {}
    lines = []
    for ranked in sorted(ranked_lists, key=lambda r: (r.user_id, r.query_id)):
        query = f', "query_id": {encode(ranked.query_id)}, "rank": '
        user = f', "user_id": {encode(ranked.user_id)}}}'
        for rank, item in enumerate(ranked.items, start=1):
            head = heads.get(id(item))
            if head is None:
                annotations = {
                    attr: (weights if weights else UNANNOTATED) for attr, weights in item.annotations.items()
                }
                head = heads[id(item)] = f'{{"annotations": {encode(annotations)}, "item_id": {encode(item.item_id)}'
            lines.append(f"{head}{query}{rank}{user}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_result_lists(lists, path: str | Path) -> None:
    atomic_write_text(path, result_lists_text(lists))


def load_profiles(path: str | Path) -> tuple[UserProfile, ...]:
    path = Path(path)
    profiles: dict[str, UserProfile] = {}
    for lineno, record in _json_lines(path):
        where = f"{path}:{lineno}"
        if "user_id" not in record:
            raise FormatError(f"{where}: missing field 'user_id'")
        user_id = str(record["user_id"])
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
    lines = [
        json.dumps(
            {"user_id": p.user_id, "protected": p.protected, "other": p.other}, sort_keys=True
        )
        for p in sorted(profiles, key=lambda p: p.user_id)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_profiles(profiles: Iterable[UserProfile], path: str | Path) -> None:
    atomic_write_text(path, profiles_text(profiles))


def _load_json_doc(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return doc


def load_schema_file(path: str | Path) -> tuple[dict[str, AttributeSchema], dict[str, tuple[float, float]]]:
    """Attribute schemas by name plus declared numeric ranges."""
    path = Path(path)
    doc = _load_json_doc(path)
    if not isinstance(doc.get("attributes"), list):
        raise FormatError(f"{path}: 'attributes' must be a list")
    schemas: dict[str, AttributeSchema] = {}
    for entry in doc["attributes"]:
        try:
            values = json_list(entry["values"], f"{path}: values of attribute {entry['name']!r}", FormatError)
            schema = AttributeSchema(str(entry["name"]), values, str(entry.get("kind", DIFFERENTIATING)))
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: malformed attribute entry {entry!r} ({exc})") from None
        if schema.name in schemas:
            raise FormatError(f"{path}: duplicate attribute {schema.name!r}")
        schemas[schema.name] = schema
    ranges = doc.get("numeric_ranges", {})
    if not isinstance(ranges, dict):
        raise FormatError(f"{path}: 'numeric_ranges' must be an object")
    for name, bounds in ranges.items():
        if not (isinstance(bounds, list) and len(bounds) == 2 and all(map(_is_number, bounds))):
            raise FormatError(f"{path}: numeric range of {name!r} must be two numbers")
    return schemas, {str(name): (float(lo), float(hi)) for name, (lo, hi) in ranges.items()}


def schema_text(schemas: Iterable[AttributeSchema], numeric_ranges: Mapping[str, tuple[float, float]] | None = None) -> str:
    doc = {
        "attributes": [
            {"name": s.name, "kind": s.kind, "values": list(s.values)}
            for s in sorted(schemas, key=lambda s: s.name)
        ],
        "numeric_ranges": {a: list(r) for a, r in sorted((numeric_ranges or {}).items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_ground_truth(path: str | Path, schemas: Mapping[str, AttributeSchema]) -> GroundTruth:
    """A ground truth document: explicit probabilities, or an ideal ranking
    converted through its attribute distribution."""
    path = Path(path)
    doc = _load_json_doc(path)
    if "attribute" not in doc:
        raise FormatError(f"{path}: missing 'attribute'")
    attribute = str(doc["attribute"])
    if "probabilities" in doc:
        probabilities = doc["probabilities"]
        if not isinstance(probabilities, dict) or not all(map(_is_number, probabilities.values())):
            raise FormatError(f"{path}: 'probabilities' must map values to numbers")
        return GroundTruth(attribute, {str(v): float(p) for v, p in probabilities.items()})
    if "ideal_list" in doc:
        if attribute not in schemas:
            raise SchemaError(f"{path}: unknown attribute {attribute!r}")
        items = tuple(
            ResultItem(str(entry["item_id"]), _clean_annotations(entry.get("annotations"), str(path)))
            for entry in doc["ideal_list"]
        )
        ideal = RankedList("ideal", "ideal", items)
        return GroundTruth.from_ranked_list(
            ideal, schemas[attribute], doc.get("k"), doc.get("weighting", "uniform")
        )
    raise FormatError(f"{path}: needs 'probabilities' or 'ideal_list'")


def ground_truth_text(gt: GroundTruth) -> str:
    doc = {"attribute": gt.attribute, "probabilities": dict(sorted(gt.probabilities.items()))}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class SignificanceSpec:
    """Which measures get permutation significance, and how."""

    measures: tuple[str, ...]
    n_permutations: int = 1000
    seed: int | None = None


@dataclass(frozen=True)
class AuditManifest:
    """One audit run: data sources (files or a scenario), the protected and
    differentiating attribute designation, and the measure configuration."""

    profiles_path: Path | None = None
    results_path: Path | None = None
    schema_path: Path | None = None
    ground_truth_path: Path | None = None
    scenario: ScenarioConfig | None = None
    output_dir: Path | None = None
    protected_attribute: str | None = None
    protected_value: object | None = None
    differentiating_attribute: str | None = None
    config: MeasureConfig = field(default_factory=MeasureConfig)
    significance: SignificanceSpec | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if (self.results_path is None) == (self.scenario is None):
            raise ConfigError("manifest needs exactly one of: results file, scenario")
        if self.results_path is not None:
            for name, value in (
                ("profiles", self.profiles_path),
                ("schema", self.schema_path),
                ("protected_attribute", self.protected_attribute),
                ("protected_value", self.protected_value),
                ("differentiating_attribute", self.differentiating_attribute),
            ):
                if value is None:
                    raise ConfigError(f"file-mode manifest is missing {name!r}")

    @property
    def mode(self) -> str:
        return "simulate" if self.scenario is not None else "measure"


def load_manifest(path: str | Path) -> AuditManifest:
    path = Path(path)
    doc = _load_json_doc(path)
    base = path.parent

    def resolve(key: str) -> Path | None:
        value = doc.get(key)
        return (base / value) if value else None

    scenario = None
    if doc.get("scenario") is not None:
        raw = doc["scenario"]
        if isinstance(raw, str):
            raw = _load_json_doc(base / raw)
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: 'scenario' must be an object or a file name")
        try:
            scenario = ScenarioConfig.from_dict(raw)
        except KeyError as exc:
            raise ConfigError(f"{path}: scenario is missing {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ConfigError(f"{path}: malformed scenario ({exc})") from None
    significance = None
    if doc.get("significance") is not None:
        raw = doc["significance"]
        if not isinstance(raw, dict) or "measures" not in raw:
            raise ConfigError(f"{path}: 'significance' needs 'measures'")
        significance = SignificanceSpec(
            measures=json_list(raw["measures"], f"{path}: significance 'measures'", ConfigError),
            n_permutations=int(raw.get("n_permutations", 1000)),
            seed=raw.get("seed"),
        )
    try:
        config = MeasureConfig.from_dict(doc.get("config", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad measure config ({exc})") from None
    return AuditManifest(
        profiles_path=resolve("profiles"),
        results_path=resolve("results"),
        schema_path=resolve("schema"),
        ground_truth_path=resolve("ground_truth"),
        scenario=scenario,
        output_dir=resolve("output_dir"),
        protected_attribute=doc.get("protected_attribute"),
        protected_value=doc.get("protected_value"),
        differentiating_attribute=doc.get("differentiating_attribute"),
        config=config,
        significance=significance,
        seed=doc.get("seed"),
    )


def detect_kind(path: str | Path) -> str:
    """Best-effort classification of a data file by extension and keys."""
    path = Path(path)
    if path.suffix == ".jsonl":
        for _, record in _json_lines(path):
            if "rank" in record and "item_id" in record:
                return "results"
            if "protected" in record or "other" in record:
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
        return kind, len(load_result_lists(path))
    if kind == "profiles":
        return kind, len(load_profiles(path))
    if kind == "schema":
        schemas, _ = load_schema_file(path)
        return kind, len(schemas)
    if kind == "ground-truth":
        schemas = {}
        doc = _load_json_doc(path)
        if "ideal_list" in doc:
            raise ConfigError(f"{path}: validating an ideal-list ground truth needs the schema file")
        load_ground_truth(path, schemas)
        return kind, 1
    if kind == "manifest":
        load_manifest(path)
        return kind, 1
    raise ConfigError(f"unknown file kind {kind!r}")
