"""Rank aggregation: build one representative ranked list from a collection
of lists, plus an exact small-instance Kemeny solver used to validate the
cheap aggregators.

All aggregators are deterministic; ties are always broken by lexicographic
item id so that repeated audits are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import _vector
from .errors import InputError
from .types import RankedList, ResultItem

#: The aggregators, by the name a configuration or the CLI gives them.
AGGREGATOR_NAMES = ("borda", "median", "kemeny")


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


def _build_list(collection: ListCollection, batch: _vector.QueryBatch, chosen: np.ndarray) -> RankedList:
    """The pool items ``chosen``, in order, each with its annotations merged
    over its occurrences in list order."""
    items = list(chain.from_iterable(lst.items for lst in batch.lists))
    flat = np.concatenate(batch.rows)
    by_item = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[by_item], np.stack([chosen, chosen + 1]))
    ranked = tuple(
        ResultItem(batch.pool[c], _merged_annotations([items[i] for i in by_item[lo:hi].tolist()]))
        for c, lo, hi in zip(chosen.tolist(), *bounds.tolist())
    )
    return RankedList(_common_query_id(collection), collection.label or "aggregate", ranked)


def _aggregate_table(collection: ListCollection, k: int | None, method: str) -> RankedList:
    """Top ``k`` items (all of them when ``k`` is None) under ``method`` with
    one unit weight per list, ordered by the collection's rank table."""
    _require_nonempty(collection)
    if k is not None and k < 1:
        raise InputError(f"aggregation depth must be >= 1, got {k!r}")
    batch = _vector.QueryBatch.of(collection.lists)
    order, _ = _vector.RankTable(batch).order(np.ones((1, len(batch.lists))), method)
    return _build_list(collection, batch, order[0, :k])


def aggregate_borda(collection: ListCollection, k: int) -> RankedList:
    """Borda-count representative: item score is the sum over lists of
    (list depth - rank + 1), with 0 for lists the item is absent from.

    Returns the top ``k`` items by score (ties by item id) with annotations
    weight-averaged over the item's occurrences.
    """
    return _aggregate_table(collection, k, "borda")


def aggregate_median_rank(collection: ListCollection, k: int) -> RankedList:
    """Median-rank representative: items ordered by the median of their ranks
    across lists, counting absence from a list as rank depth+1.

    Ties break by mean rank, then item id.
    """
    return _aggregate_table(collection, k, "median")


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
    batch = _vector.QueryBatch.of(collection.lists)
    missing = [item_id for item_id in batch.pool if item_id not in position]
    if missing:
        raise InputError(f"ordering does not rank items {missing}")
    cols = np.argsort([position[item_id] for item_id in batch.pool])
    cost = _vector.RankTable(batch).pair_costs(np.ones(len(batch.lists)), cols)
    return float(np.triu(cost, 1).sum())


def kemeny_exact(collection: ListCollection) -> RankedList:
    """Exact Kemeny aggregation: the full ordering of all occurring items
    minimizing the summed pair-count Kendall penalty to the collection.

    Solved by dynamic programming over item subsets; ties between optimal
    orderings resolve to the lexicographically smallest one. Guarded to at
    most ``_vector.KEMENY_MAX_ITEMS`` distinct items.
    """
    return _aggregate_table(collection, None, "kemeny")


def aggregate(collection: ListCollection, k: int, method: str) -> RankedList:
    """The representative of ``collection`` by aggregator ``method``,
    truncated to ``k`` items."""
    if method not in AGGREGATOR_NAMES:
        raise InputError(f"unknown aggregation method {method!r}")
    return _aggregate_table(collection, k, method)
