"""Rank aggregation: build one representative ranked list from a collection
of lists, plus an exact small-instance Kemeny solver used to validate the
cheap aggregators.

All aggregators are deterministic; ties are always broken by lexicographic
item id so that repeated audits are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _vector
from .distances import NEUTRAL_PENALTY
from .errors import ComplexityError, InputError
from .types import RankedList, ResultItem

#: Exact Kemeny aggregation enumerates orderings; refuse beyond this many items.
KEMENY_MAX_ITEMS = 10


@dataclass(frozen=True)
class ListCollection:
    """A multiset of ranked lists to be aggregated, e.g. everything one user
    class saw for a query."""

    lists: tuple[RankedList, ...]
    label: str = "aggregate"

    def __init__(self, lists: Iterable[RankedList], label: str = "aggregate") -> None:
        object.__setattr__(self, "lists", tuple(lists))
        object.__setattr__(self, "label", label)


def _require_nonempty(collection: ListCollection) -> None:
    if not collection.lists:
        raise InputError("cannot aggregate an empty list collection")


def _common_query_id(collection: ListCollection) -> str:
    ids = {lst.query_id for lst in collection.lists}
    return ids.pop() if len(ids) == 1 else "*"


def _merged_annotations(occurrences: Sequence[ResultItem]) -> dict[str, dict[str, float]]:
    """Weight-average the annotation vectors of an item's occurrences.

    Occurrences lacking an attribute do not dilute the attribute's average;
    an attribute entirely absent stays absent (the item stays unannotated
    for it).
    """
    sums: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for occurrence in occurrences:
        for attr, weights in occurrence.annotations.items():
            if not weights:
                continue
            bucket = sums.setdefault(attr, {})
            for value, w in weights.items():
                bucket[value] = bucket.get(value, 0.0) + w
            counts[attr] = counts.get(attr, 0) + 1
    merged: dict[str, dict[str, float]] = {}
    for attr, bucket in sums.items():
        n = counts[attr]
        vector = {value: w / n for value, w in bucket.items()}
        total = sum(vector.values())
        if total > 0.0:
            vector = {value: w / total for value, w in vector.items()}
        merged[attr] = vector
    return merged


def _occurrences_by_item(collection: ListCollection) -> dict[str, list[ResultItem]]:
    occurrences: dict[str, list[ResultItem]] = {}
    for lst in collection.lists:
        for item in lst.items:
            occurrences.setdefault(item.item_id, []).append(item)
    return occurrences


def _build_list(collection: ListCollection, ordered_ids: Sequence[str]) -> RankedList:
    occurrences = _occurrences_by_item(collection)
    items = tuple(
        ResultItem(item_id, _merged_annotations(occurrences[item_id])) for item_id in ordered_ids
    )
    return RankedList(_common_query_id(collection), collection.label or "aggregate", items)


def _aggregate_table(table_type, collection: ListCollection, k: int) -> RankedList:
    """Top ``k`` items under one unit weight per list, ordered by a
    ``_vector`` rank table, with annotations merged."""
    _require_nonempty(collection)
    if k < 1:
        raise InputError(f"aggregation depth must be >= 1, got {k!r}")
    batch = _vector.QueryBatch.of(collection.lists)
    order, _ = table_type(batch).order(np.ones((1, len(batch.lists))))
    return _build_list(collection, [batch.pool[i] for i in order[0, :k].tolist()])


def aggregate_borda(collection: ListCollection, k: int) -> RankedList:
    """Borda-count representative: item score is the sum over lists of
    (list depth - rank + 1), with 0 for lists the item is absent from.

    Returns the top ``k`` items by score (ties by item id) with annotations
    weight-averaged over the item's occurrences.
    """
    return _aggregate_table(_vector.BordaScores, collection, k)


def aggregate_median_rank(collection: ListCollection, k: int) -> RankedList:
    """Median-rank representative: items ordered by the median of their ranks
    across lists, counting absence from a list as rank depth+1.

    Ties break by mean rank, then item id.
    """
    return _aggregate_table(_vector.MedianRanks, collection, k)


def kemeny_score(ordering: Sequence[str] | RankedList, collection: ListCollection) -> float:
    """Total un-normalized Kendall penalty of ``ordering`` against every list
    in the collection (pair-count form, neutral penalty for unseen pairs).

    ``ordering`` must rank every item occurring in the collection.
    """
    _require_nonempty(collection)
    ids = ordering.item_ids() if isinstance(ordering, RankedList) else tuple(ordering)
    position = {item_id: i for i, item_id in enumerate(ids)}
    if len(position) != len(ids):
        raise InputError("ordering contains duplicate items")
    universe = sorted(_occurrences_by_item(collection))
    missing = [item_id for item_id in universe if item_id not in position]
    if missing:
        raise InputError(f"ordering does not rank items {missing}")
    total = 0.0
    for lst in collection.lists:
        in_list = {item.item_id: rank0 for rank0, item in enumerate(lst.items)}
        for i, x in enumerate(universe):
            for y in universe[i + 1 :]:
                first_is_x = position[x] < position[y]
                rx = in_list.get(x)
                ry = in_list.get(y)
                if rx is not None and ry is not None:
                    if (rx < ry) != first_is_x:
                        total += 1.0
                elif rx is not None:
                    if not first_is_x:
                        total += 1.0
                elif ry is not None:
                    if first_is_x:
                        total += 1.0
                else:
                    total += NEUTRAL_PENALTY
    return total


def kemeny_exact(collection: ListCollection) -> RankedList:
    """Exact Kemeny aggregation: the full ordering of all occurring items
    minimizing the summed pair-count Kendall penalty to the collection.

    Solved by dynamic programming over item subsets; ties between optimal
    orderings resolve to the lexicographically smallest one. Guarded to at
    most ``KEMENY_MAX_ITEMS`` distinct items.
    """
    _require_nonempty(collection)
    items = sorted(_occurrences_by_item(collection))
    n = len(items)
    if n > KEMENY_MAX_ITEMS:
        raise ComplexityError(
            f"exact Kemeny aggregation supports at most {KEMENY_MAX_ITEMS} distinct items, got {n}"
        )
    if n <= 1:
        return _build_list(collection, items)

    # cost[i][j]: penalty incurred by ranking item i ahead of item j
    cost = [[0.0] * n for _ in range(n)]
    index = {item_id: i for i, item_id in enumerate(items)}
    for lst in collection.lists:
        in_list = {item.item_id: rank0 for rank0, item in enumerate(lst.items)}
        for i in range(n):
            ri = in_list.get(items[i])
            for j in range(i + 1, n):
                rj = in_list.get(items[j])
                if ri is not None and rj is not None:
                    if ri < rj:
                        cost[j][i] += 1.0
                    else:
                        cost[i][j] += 1.0
                elif ri is not None:
                    cost[j][i] += 1.0
                elif rj is not None:
                    cost[i][j] += 1.0
                else:
                    cost[i][j] += NEUTRAL_PENALTY
                    cost[j][i] += NEUTRAL_PENALTY

    # best[mask]: minimal penalty of ordering the item subset `mask`,
    # counting only pairs inside the subset, with the subset's first element
    # charged against every other member
    full = (1 << n) - 1
    best = [0.0] * (full + 1)
    for mask in range(3, full + 1):
        if mask & (mask - 1) == 0:
            continue
        best_value = float("inf")
        for x in range(n):
            bit = 1 << x
            if not mask & bit:
                continue
            rest = mask ^ bit
            lead = sum(cost[x][y] for y in range(n) if rest & (1 << y))
            value = lead + best[rest]
            if value < best_value:
                best_value = value
        best[mask] = best_value

    ordered: list[str] = []
    mask = full
    while mask:
        for x in range(n):
            bit = 1 << x
            if not mask & bit:
                continue
            rest = mask ^ bit
            lead = sum(cost[x][y] for y in range(n) if rest & (1 << y))
            if abs(lead + best[rest] - best[mask]) < 1e-9:
                ordered.append(items[x])
                mask = rest
                break
    return _build_list(collection, ordered)


AGGREGATORS = {
    "borda": aggregate_borda,
    "median": aggregate_median_rank,
}


def aggregate(collection: ListCollection, k: int, method: str) -> RankedList:
    """Dispatch to the configured aggregator, truncating Kemeny output to ``k``."""
    if method == "kemeny":
        return kemeny_exact(collection).truncated(k)
    try:
        return AGGREGATORS[method](collection, k)
    except KeyError:
        raise InputError(f"unknown aggregation method {method!r}") from None
