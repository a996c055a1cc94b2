"""Rank aggregation: build one representative ranked list from a collection
of lists, plus an exact small-instance Kemeny solver used to validate the
cheap aggregators.

All aggregators are deterministic; ties are always broken by lexicographic
item id so that repeated audits are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import _vector
from .errors import InputError, ParameterError
from .types import RankedList, ResultItem

#: The aggregators, by the name a configuration or the CLI gives them.
AGGREGATOR_NAMES = ("borda", "median", "kemeny")


@dataclass(frozen=True)
class ListCollection:
    """A multiset of ranked lists, e.g. everything one user class saw for a
    query, encoded once at construction for every engine that reads it.

    ``items`` holds the distinct ``ResultItem`` objects in order of first
    appearance, and ``occurrence`` the index among them of every occurrence,
    list by list. ``rows[i]`` holds the pool indices of list i in rank
    order; the rows are read-only views of one flat occurrence array, and
    ``depths`` their lengths. ``pool`` is the sorted union of the item ids.
    Lists with the same item sequence share a label in ``labels``, numbered
    in order of first appearance. The kernels tolerate pool items that no
    compared row holds, so a subset of the rows needs no re-encoding.
    Equality and ``repr`` see ``lists`` and ``label`` only.
    """

    lists: tuple[RankedList, ...]
    label: str = "aggregate"
    items: tuple[ResultItem, ...] = field(init=False, repr=False, compare=False)
    occurrence: np.ndarray = field(init=False, repr=False, compare=False)
    pool: tuple[str, ...] = field(init=False, repr=False, compare=False)
    rows: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    depths: np.ndarray = field(init=False, repr=False, compare=False)
    labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, lists: Iterable[RankedList], label: str = "aggregate") -> None:
        lists = tuple(lists)
        occurrences = list(chain.from_iterable(lst.items for lst in lists))
        # one entry per object, numbered by first appearance, not by address
        distinct = {id(item): item for item in occurrences}
        number = dict(zip(distinct, range(len(distinct))))
        occurrence = np.fromiter(map(number.__getitem__, map(id, occurrences)), dtype=np.int32, count=len(occurrences))
        items = tuple(distinct.values())
        ids = [item.item_id for item in items]
        pool = tuple(sorted(set(ids)))
        index = {item_id: i for i, item_id in enumerate(pool)}
        flat = np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))[occurrence]
        flat.flags.writeable = False
        depths = np.array([lst.depth for lst in lists], dtype=np.int64)
        rows = tuple(np.split(flat, np.cumsum(depths)[:-1])) if lists else ()
        vars(self).update(lists=lists, label=label, items=items, occurrence=occurrence, pool=pool, rows=rows,
                          depths=depths, labels=_vector._sequence_labels(rows))


def _require_nonempty(collection: ListCollection) -> None:
    if not collection.lists:
        raise InputError("cannot aggregate an empty list collection")


def _aggregate_table(collection: ListCollection, k: int | None, method: str) -> RankedList:
    """Top ``k`` items (all of them when ``k`` is None) under ``method`` with
    one unit weight per list, ordered by the collection's rank table. Each
    carries every attribute's annotation merged over its occurrences by
    ``_vector.AnnotationTable``, listing the values they carry; an attribute
    no occurrence annotates stays absent."""
    _require_nonempty(collection)
    if k is not None and k < 1:
        raise ParameterError(f"aggregation depth must be >= 1, got {k!r}")
    everyone = np.ones((1, len(collection.depths)))
    chosen = _vector.RankTable(collection).order(everyone, method)[0][:, :k]
    merged: list[dict[str, dict[str, float]]] = [{} for _ in range(chosen.size)]
    for attr in sorted(set(chain.from_iterable(item.annotations for item in collection.items))):
        table = _vector.AnnotationTable(collection, attr)
        for annotations, on, vector, carried in zip(merged, *(a[0].tolist() for a in table.merged(everyone, chosen))):
            if on:
                annotations[attr] = {value: w for value, w, c in zip(table.values, vector, carried) if c}
    query_ids = {lst.query_id for lst in collection.lists}
    ranked = tuple(ResultItem(collection.pool[c], a) for c, a in zip(chosen[0].tolist(), merged))
    return RankedList(query_ids.pop() if len(query_ids) == 1 else "*", collection.label or "aggregate", ranked)


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
    missing = [item_id for item_id in collection.pool if item_id not in position]
    if missing:
        raise InputError(f"ordering does not rank items {missing}")
    cols = np.argsort([position[item_id] for item_id in collection.pool])
    cost = _vector.RankTable(collection).pair_costs(np.ones(len(collection.depths)), cols)
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
        raise ParameterError(f"unknown aggregation method {method!r}")
    return _aggregate_table(collection, k, method)
