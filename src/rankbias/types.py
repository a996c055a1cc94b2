"""Domain types: result items, ranked lists, user profiles, attribute schemas,
and ground-truth distributions.

All types are immutable after construction and validate their invariants at
construction time, so every downstream operation can assume well-formed data.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from numbers import Integral, Real
from pathlib import Path
from types import UnionType
from typing import Any, Mapping, Union, get_args, get_origin, get_type_hints

from .errors import AuditError, InputError, ProfileError, SchemaError

#: Reserved bucket name for mass carried by items without an annotation.
UNANNOTATED = "unannotated"

#: Tolerance used when checking that probability vectors sum to one.
PROB_TOL = 1e-9

#: Annotation weights summing to 1 within it are normalized; further off is rejected.
WEIGHT_SUM_TOL = 1e-6

PROTECTED = "protected"
DIFFERENTIATING = "differentiating"


def _shown(value: object) -> str:
    return {list: "a list", dict: "an object"}.get(type(value)) or repr(value)


def from_json(kind: Any, value: object, where: str, error: type[Exception]) -> Any:
    """Read decoded JSON ``value`` as the declared type ``kind``.

    ``kind`` is a dataclass (read from an object by its fields' type hints;
    a field's ``metadata["json"]`` names its key; unknown and missing keys
    are errors; its ``_json_spellings(doc, where, error)``, if any, first
    rewrites other spellings), ``tuple[X, ...]`` or a fixed tuple (from a
    list), ``dict[str, X]`` (from an object), ``X | None``, ``int`` (an int
    or numpy integer, not a bool), ``float`` (finite; an int is widened, a
    bool is not), ``Path`` (a non-empty string), ``str`` or ``object``. A
    value of another type, and a toolkit error raised by a dataclass's own
    checks, raise ``error`` naming the field path ``where``; ``int`` is also
    the rule of counts in Python.
    """
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = (arg for arg in args if arg is not type(None))
        return from_json(inner, value, where, error)
    if kind is object:
        return value
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise error(f"{where} must be an object, got {_shown(value)}")
        if hasattr(kind, "_json_spellings"):
            value = kind._json_spellings(value, where, error)
        by_key = {f.metadata.get("json", f.name): f for f in fields(kind) if f.init}
        unknown = sorted(set(value) - set(by_key))
        if unknown:
            raise error(f"{where} has unknown keys {unknown}")
        hints = get_type_hints(kind)
        kwargs = {}
        for key, f in by_key.items():
            if key in value:
                kwargs[f.name] = from_json(hints[f.name], value[key], f"{where}.{key}", error)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise error(f"{where} is missing {key!r}")
        try:
            return kind(**kwargs)
        except AuditError as exc:
            raise error(f"{where}: {exc}") from None
    if origin is tuple:
        if not isinstance(value, list):
            raise error(f"{where} must be a list, got {_shown(value)}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise error(f"{where} must be a list of {len(args)} entries, got {len(value)}")
        return tuple(from_json(arg, entry, f"{where}[{i}]", error) for i, (arg, entry) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise error(f"{where} must be an object, got {_shown(value)}")
        return {key: from_json(args[1], entry, f"{where}.{key}", error) for key, entry in value.items()}
    if kind is float:
        # a bool is an int: reject it before widening
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise error(f"{where} must be a number, got {_shown(value)}")
        if not math.isfinite(number := _as_float(value)):
            raise error(f"{where} must be finite, got {number!r}")
        return number
    if kind is Path:
        if not isinstance(value, str) or not value:
            raise error(f"{where} must be a non-empty string, got {_shown(value)}")
        return Path(value)
    expected, accepted = {str: ("a string", str), int: ("an integer", Integral)}[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise error(f"{where} must be {expected}, got {_shown(value)}")
    return value


def to_json(value: object) -> object:
    """The JSON form :func:`from_json` reads back: dataclasses as objects
    keyed by their fields' JSON names, tuples as lists."""
    if is_dataclass(value):
        return {f.metadata.get("json", f.name): to_json(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, (tuple, list)):
        return [to_json(entry) for entry in value]
    if isinstance(value, dict):
        return {key: to_json(entry) for key, entry in value.items()}
    return value


def _is_number(value: object) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _as_float(value: Real) -> float:
    """``float(value)``, or an infinity for an integer too large for a float."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _validate_weights(weights: Mapping[str, float], owner: str) -> dict[str, float]:
    """The annotation-weight rule of every item, built in Python or loaded from a file."""
    clean: dict[str, float] = {}
    total = 0.0
    try:
        pairs = weights.items()
    except AttributeError:
        raise InputError(f"{owner}: annotation weights {weights!r} are not a mapping of values to weights") from None
    for value, w in pairs:
        if not isinstance(w, Real):
            raise InputError(f"{owner}: annotation weight {w!r} for {value!r} is not a number")
        w = _as_float(w)
        if not math.isfinite(w):
            raise InputError(f"{owner}: non-finite annotation weight {w!r} for {value!r}")
        if w < 0.0:
            raise InputError(f"{owner}: negative annotation weight {w!r} for {value!r}")
        clean[str(value)] = w
        total += w
    if clean and abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InputError(f"{owner}: annotation weights sum to {total!r}, expected 1")
    if clean and abs(total - 1.0) > 1e-12:
        clean = {value: w / total for value, w in clean.items()}
    return clean


@dataclass(frozen=True, slots=True)
class ResultItem:
    """One result in a ranked list.

    ``annotations`` maps a differentiating-attribute name to a weight vector
    over that attribute's values (non-negative, summing to 1 within
    ``WEIGHT_SUM_TOL``, normalized when off by more than 1e-12). An attribute
    may instead carry ``"unannotated"`` or ``None`` (stored as an empty
    mapping); an attribute absent from the mapping means the same.

    Items are shared: the simulator and the loader hand the same object to
    every list that holds an equal item, so ``annotations`` is read-only by
    contract.
    """

    item_id: str
    annotations: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.item_id:
            raise InputError("item_id must be non-empty")
        if not isinstance(self.annotations, Mapping):
            raise InputError(f"item {self.item_id!r}: annotations {self.annotations!r} are not a mapping")
        clean: dict[str, dict[str, float]] = {}
        for attr, weights in self.annotations.items():
            if weights == UNANNOTATED or weights is None:
                clean[attr] = {}
            else:
                clean[attr] = _validate_weights(weights, f"item {self.item_id!r}, attribute {attr!r}")
        object.__setattr__(self, "annotations", clean)

    def annotation_for(self, attribute: str) -> dict[str, float]:
        """Weight vector for ``attribute``; empty mapping when unannotated."""
        return self.annotations.get(attribute) or {}


@dataclass(frozen=True, slots=True)
class RankedList:
    """An ordered result list returned to one user for one query.

    The sequence index is the rank (position 0 is rank 1). Item ids are
    unique within a list. Empty lists are permitted only as degenerate
    placeholders; distance functions flag them.
    """

    query_id: str
    user_id: str
    items: tuple[ResultItem, ...]
    _ids: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.query_id or not self.user_id:
            raise InputError("query_id and user_id must be non-empty")
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        ids = tuple(item.item_id for item in items)
        object.__setattr__(self, "_ids", ids)
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            for item_id in ids:
                if item_id in seen:
                    raise InputError(
                        f"duplicate item {item_id!r} in list ({self.user_id!r}, {self.query_id!r})"
                    )
                seen.add(item_id)

    @property
    def depth(self) -> int:
        return len(self.items)

    def item_ids(self) -> tuple[str, ...]:
        return self._ids


@dataclass(frozen=True, slots=True)
class UserProfile:
    """Protected and non-protected attribute values of one user."""

    user_id: str
    protected: dict[str, object] = field(default_factory=dict)
    other: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ProfileError("user_id must be non-empty")
        overlap = set(self.protected) & set(self.other)
        if overlap:
            raise ProfileError(
                f"profile {self.user_id!r}: attributes {sorted(overlap)} are both protected and non-protected"
            )
        for attr, value in (*self.protected.items(), *self.other.items()):
            if _is_number(value) and not math.isfinite(number := _as_float(value)):
                raise ProfileError(f"profile {self.user_id!r}: attribute {attr!r} is not finite ({number!r})")


@dataclass(frozen=True, slots=True)
class AttributeSchema:
    """Declaration of a finite-valued attribute.

    ``kind`` is ``"protected"`` for user attributes that must not influence
    results, or ``"differentiating"`` for content attributes over whose
    values content bias is measured.
    """

    name: str
    values: tuple[str, ...]
    kind: str = DIFFERENTIATING

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        values = tuple(str(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 2:
            raise SchemaError(f"attribute {self.name!r}: needs at least 2 values")
        if len(set(values)) != len(values):
            raise SchemaError(f"attribute {self.name!r}: values must be distinct")
        if self.kind not in (PROTECTED, DIFFERENTIATING):
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if UNANNOTATED in values:
            raise SchemaError(f"attribute {self.name!r}: {UNANNOTATED!r} is a reserved value")


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Reference probability distribution over a differentiating attribute's values."""

    attribute: str
    probabilities: dict[str, float]

    def __post_init__(self) -> None:
        for value, p in self.probabilities.items():
            if not isinstance(p, Real):
                raise SchemaError(f"ground truth for {self.attribute!r}: probability {p!r} for {value!r} is not a number")
        probs = {str(v): _as_float(p) for v, p in self.probabilities.items()}
        object.__setattr__(self, "probabilities", probs)
        if not probs:
            raise SchemaError(f"ground truth for {self.attribute!r} is empty")
        total = 0.0
        for value, p in probs.items():
            if not math.isfinite(p):
                raise SchemaError(f"ground truth for {self.attribute!r}: non-finite probability for {value!r}")
            if p < 0.0:
                raise SchemaError(f"ground truth for {self.attribute!r}: negative probability for {value!r}")
            total += p
        if abs(total - 1.0) > PROB_TOL:
            raise SchemaError(f"ground truth for {self.attribute!r}: probabilities sum to {total!r}")

    @classmethod
    def from_ranked_list(
        cls,
        ideal: RankedList,
        attribute: AttributeSchema,
        k: int | None = None,
        weighting: str = "uniform",
    ) -> "GroundTruth":
        """Build a ground truth from an explicit ideal ranking.

        The ideal list's attribute distribution is taken over its annotated
        mass; the ideal list must not be entirely unannotated.
        """
        from .distances import attribute_distribution

        dist = attribute_distribution(ideal, attribute, ideal.depth if k is None else k, weighting)
        annotated = 1.0 - dist.get(UNANNOTATED, 0.0)
        if annotated <= PROB_TOL:
            raise SchemaError("ideal list carries no annotated mass")
        probs = {v: dist[v] / annotated for v in attribute.values}
        return cls(attribute.name, probs)
