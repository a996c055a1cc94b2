"""Domain types: result items, ranked lists, user profiles, attribute schemas,
and ground-truth distributions.

All types are immutable after construction and validate their invariants at
construction time, so every downstream operation can assume well-formed data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import InputError, ProfileError, SchemaError

#: Reserved bucket name for mass carried by items without an annotation.
UNANNOTATED = "unannotated"

#: Tolerance used when checking that probability vectors sum to one.
PROB_TOL = 1e-9

PROTECTED = "protected"
DIFFERENTIATING = "differentiating"


def json_list(value: object, what: str, error: type[Exception]) -> tuple:
    """A field that must be a list, as a tuple; anything else raises
    ``error``, so a string is never split into its characters."""
    if not isinstance(value, (list, tuple)):
        raise error(f"{what} must be a list, got {type(value).__name__}")
    return tuple(value)


def _validate_weights(weights: Mapping[str, float], owner: str) -> dict[str, float]:
    clean: dict[str, float] = {}
    total = 0.0
    for value, w in weights.items():
        w = float(w)
        if not math.isfinite(w):
            raise InputError(f"{owner}: non-finite annotation weight {w!r} for {value!r}")
        if w < 0.0:
            raise InputError(f"{owner}: negative annotation weight {w!r} for {value!r}")
        clean[str(value)] = w
        total += w
    if clean and abs(total - 1.0) > PROB_TOL:
        raise InputError(f"{owner}: annotation weights sum to {total!r}, expected 1")
    return clean


@dataclass(frozen=True, slots=True)
class ResultItem:
    """One result in a ranked list.

    ``annotations`` maps a differentiating-attribute name to a weight vector
    over that attribute's values (non-negative, summing to 1). An attribute
    may instead carry the reserved marker ``"unannotated"`` (stored as an
    empty mapping); an attribute absent from the mapping means the same.

    Items are shared: the simulator and the loader hand the same object to
    every list that holds an equal item, so ``annotations`` is read-only by
    contract.
    """

    item_id: str
    annotations: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.item_id:
            raise InputError("item_id must be non-empty")
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

    def truncated(self, k: int) -> "RankedList":
        """Copy keeping only the top ``k`` items."""
        if k >= len(self.items):
            return self
        return RankedList(self.query_id, self.user_id, self.items[:k])


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
        probs = {str(v): float(p) for v, p in self.probabilities.items()}
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

        dist = attribute_distribution(ideal, attribute, k or ideal.depth, weighting)
        annotated = 1.0 - dist.get(UNANNOTATED, 0.0)
        if annotated <= PROB_TOL:
            raise SchemaError("ideal list carries no annotated mass")
        probs = {v: dist[v] / annotated for v in attribute.values}
        return cls(attribute.name, probs)
