"""Vectorized (numpy) counterparts of the scalar distance functions.

Every many-pair computation runs here: individual bias, variant clustering
and the resampled evaluation loops in the significance module. A query's
lists are encoded once, as a ``QueryBatch`` of pool-index rows; the list
kernels take any sequence of such rows (all of a batch, a subset of its
rows, or rows built from it) and return the all-pairs distance matrix.
Each kernel mirrors its scalar twin, exactly where the arithmetic allows;
the test suite asserts the agreement.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .distances import NEUTRAL_PENALTY
from .errors import ComplexityError, DegenerateInputWarning, ParameterError, ProfileError
from .types import RankedList, UserProfile


@dataclass(frozen=True, eq=False)
class QueryBatch:
    """One query's lists encoded once for every engine that reads them.

    ``rows[i]`` holds the pool indices of ``lists[i]`` in rank order; the
    rows are read-only views of one flat occurrence array, and ``depths``
    their lengths. ``pool`` is the sorted union of the item ids. Lists with
    the same item sequence share a label in ``labels``, numbered in order of
    first appearance. The kernels tolerate pool items that no compared row
    holds, so a subset of the rows needs no re-encoding.
    """

    lists: tuple[RankedList, ...]
    pool: tuple[str, ...]
    rows: tuple[np.ndarray, ...]
    depths: np.ndarray
    labels: np.ndarray

    @classmethod
    def of(cls, lists: Sequence[RankedList]) -> "QueryBatch":
        lists = tuple(lists)
        ids = list(chain.from_iterable(lst.item_ids() for lst in lists))
        pool = tuple(sorted(set(ids)))
        index = {item_id: i for i, item_id in enumerate(pool)}
        flat = np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))
        flat.flags.writeable = False
        depths = np.array([lst.depth for lst in lists], dtype=np.int64)
        rows = tuple(np.split(flat, np.cumsum(depths)[:-1])) if lists else ()
        return cls(lists, pool, rows, depths, _sequence_labels(rows))


def _sequence_labels(seqs: Sequence[np.ndarray]) -> np.ndarray:
    """A label per row, equal for equal sequences, numbered in order of
    first appearance."""
    keys: dict[bytes, int] = {}
    return np.array([keys.setdefault(s.astype(np.int64).tobytes(), len(keys)) for s in seqs], dtype=np.int64)


#: Size of one chunk temporary in the list kernels. A chunk's float32 sums
#: are integers far below 2**24, so every partial sum is exact.
_CHUNK_BYTES = 1 << 20

#: Rank of an absent item: below every present one, at any depth.
_ABSENT = np.iinfo(np.int32).max


def _ranks(seqs: Sequence[np.ndarray]) -> np.ndarray:
    """0-based rank of each pool item per row, ``_ABSENT`` where missing."""
    width = max((int(s.max()) + 1 for s in seqs if s.size), default=0)
    rank = np.full((len(seqs), width), _ABSENT, dtype=np.int32)
    for row, s in enumerate(seqs):
        rank[row, s] = np.arange(s.size)
    return rank


def _prefix_overlaps(rank: np.ndarray, depths) -> np.ndarray:
    """|A[:d] & B[:d]| for every row pair, one matrix per d in ``depths``;
    a row shorter than d keeps all its items."""
    prefix = (rank < np.reshape(depths, (-1, 1, 1))).astype(np.float32)
    return (prefix @ prefix.transpose(0, 2, 1)).astype(np.float64)


def _same(seqs: Sequence[np.ndarray]) -> np.ndarray:
    """Boolean matrix: rows i and j are the same sequence."""
    label = _sequence_labels(seqs)
    return label[:, None] == label[None, :]


def _warn_if_two_empty(depths: np.ndarray, distance: str) -> None:
    if np.count_nonzero(depths == 0) >= 2:
        warnings.warn(f"{distance} distance of two empty lists", DegenerateInputWarning, stacklevel=3)


def _pairs(count: np.ndarray) -> np.ndarray:
    return count * (count - 1.0) / 2.0


def kendall_distance_matrix(seqs: Sequence[np.ndarray]) -> np.ndarray:
    """All-pairs Kendall distance with the neutral 1/2 penalty (mirrors
    kendall_distance): Fagin, Kumar and Sivakumar's K^(1/2).

    Each row becomes a sign vector over the pool's item pairs x < y: +1 when
    x ranks above y, -1 when below, 0 when both are absent (an absent item
    ranks below every present one). With I = |A ∩ B| and U = |A ∪ B| over a
    pool of P items, the charge is (C(U,2) - s_a.s_b + I(P-U)) / 2 and its
    attainable maximum C(U,2) - (C(|A|-I,2) + C(|B|-I,2)) / 2. Both are
    exact, so the quotient equals the scalar distance bit for bit.
    """
    n = len(seqs)
    depths = np.array([s.size for s in seqs], dtype=np.float64)
    _warn_if_two_empty(depths, "kendall")
    rank = _ranks(seqs)
    # an item no row holds cancels out of the charge: drop it, and its pairs.
    # float32 keeps every sign: present ranks are small exact integers and
    # _ABSENT stays above them
    order = np.ascontiguousarray(rank[:, (rank != _ABSENT).any(axis=0)], dtype=np.float32)
    width = order.shape[1]
    dot = np.zeros((n, n), dtype=np.float64)
    step = max(1, _CHUNK_BYTES // (4 * max(n, 1)))
    x0 = 0
    while x0 < width:
        # the signs of the pairs (x, y) for a block of x, masked to y > x
        x1 = min(width, x0 + max(1, step // (width - x0)))
        chunk = order[:, None, x0:] - order[:, x0:x1, None]
        np.sign(chunk, out=chunk)
        chunk *= ~np.tri(x1 - x0, width - x0, dtype=bool)
        chunk = chunk.reshape(n, -1)
        dot += chunk @ chunk.T
        x0 = x1
    inter = _prefix_overlaps(rank, width)[0]
    union = depths[:, None] + depths[None, :] - inter
    num = (_pairs(union) - (dot - inter * (width - union))) / 2.0
    den = _pairs(union) - (_pairs(depths[:, None] - inter) + _pairs(depths[None, :] - inter)) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = num / den
    # nothing to order: a union of at most one item
    unordered = den == 0.0
    dist[unordered] = np.where(_same(seqs), 0.0, 1.0)[unordered]
    return dist


def rbo_distance_matrix(seqs: Sequence[np.ndarray], p: float) -> np.ndarray:
    """All-pairs 1 - extrapolated RBO with persistence ``p`` (mirrors
    rbo_distance).

    The prefix overlaps X_d come from one presence matmul per depth, a few
    depths per chunk; a row shorter than d keeps all its items. Every sum
    runs in the scalar's order, so the result equals it bit for bit.
    """
    n = len(seqs)
    depths = np.array([s.size for s in seqs], dtype=np.int64)
    _warn_if_two_empty(depths, "overlap")
    short = np.minimum.outer(depths, depths)
    long = np.maximum.outer(depths, depths)
    max_depth = int(depths.max(initial=0))
    powers = np.array([p**d for d in range(max_depth + 1)])
    rank = _ranks(seqs)
    head = np.zeros((n, n), dtype=np.float64)
    step = max(1, _CHUNK_BYTES // (8 * max(n * n, n * rank.shape[1], 1)))
    for start in range(1, max_depth + 1, step):
        d = np.arange(start, min(start + step, max_depth + 1))[:, None, None]
        terms = _prefix_overlaps(rank, d)
        terms /= d
        terms *= powers[d]
        # a pair's head stops at its longer depth
        np.copyto(terms, 0.0, where=long < d)
        terms[0] += head
        head = terms.cumsum(axis=0)[-1]
    # X_s and the tail weight depend only on the two depths
    levels, level = np.unique(depths, return_inverse=True)
    short_level = np.minimum.outer(level, level)
    overlap_s = np.zeros((n, n), dtype=np.float64)
    for i, s in enumerate(levels.tolist()):
        np.copyto(overlap_s, _prefix_overlaps(rank, s)[0], where=short_level == i)
    overlap = _prefix_overlaps(rank, max_depth)[0]
    tail_weight = np.array(
        [[sum((d - s) / (s * d) * p**d for d in range(s + 1, l + 1)) if s else 0.0 for l in levels.tolist()]
         for s in levels.tolist()]
    ).reshape(levels.size, levels.size)
    tail = overlap_s * tail_weight[short_level, np.maximum.outer(level, level)]
    with np.errstate(invalid="ignore", divide="ignore"):
        ext = (1.0 - p) / p * (head + tail) + ((overlap - overlap_s) / long + overlap_s / short) * powers[long]
    dist = np.minimum(1.0, np.maximum(0.0, 1.0 - ext))
    empty = depths == 0
    dist[empty, :] = 1.0
    dist[:, empty] = 1.0
    dist[_same(seqs)] = 0.0
    return dist


def topk_distance_matrix(seqs: Sequence[np.ndarray], k: int) -> np.ndarray:
    """All-pairs top-k overlap distance (mirrors topk_overlap_distance)."""
    depths = np.array([min(k, s.size) for s in seqs], dtype=np.int64)
    _warn_if_two_empty(depths, "top-k")
    dist = _prefix_overlaps(_ranks(seqs), k)[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        np.subtract(1.0, np.divide(dist, np.minimum.outer(depths, depths), out=dist), out=dist)
    empty = depths == 0
    if empty.any():
        dist[empty, :] = 1.0
        dist[:, empty] = 1.0
        dist[np.ix_(empty, empty)] = 0.0
    return dist


#: Exact Kemeny aggregation enumerates item subsets; refuse beyond this many items.
KEMENY_MAX_ITEMS = 10


class RankTable:
    """One collection's rank table: the 1-based rank of every pool item in
    every row, ``row depth + 1`` where absent. It orders the pool under a
    block of integer row multiplicities [R x rows] by each aggregator; every
    key is an exact integer or half, so the orders follow the scalar rules
    to the last tie."""

    def __init__(self, batch: QueryBatch) -> None:
        self.absent = batch.depths + 1.0
        self.ranks = np.repeat(self.absent[:, None], len(batch.pool), axis=1)
        for row, s in enumerate(batch.rows):
            self.ranks[row, s] = np.arange(1, s.size + 1)

    def order(self, weights: np.ndarray, aggregator: str) -> tuple[np.ndarray, np.ndarray]:
        """Per row of ``weights``, the pool indices in ``aggregator`` order,
        and how many lead: the items some weighted row holds (the rest
        follow). Borda scores (depth + 1 - rank) per row, 0 where absent,
        ties by pool index; median orders by median rank, mean rank, pool
        index; Kemeny by the first ordering of least summed pair cost."""
        rank_sums = weights @ self.ranks
        score = (weights @ self.absent)[:, None] - rank_sums
        held = (score > 0.0).sum(axis=1)
        if aggregator == "borda":
            return np.argsort(-score, axis=1, kind="stable"), held
        if aggregator == "median":
            n = weights.sum(axis=1)
            return np.lexsort((rank_sums / n[:, None], self._medians(weights, n)), axis=1), held
        order = np.argsort(score <= 0.0, axis=1, kind="stable")
        for r, n in enumerate(held.tolist()):
            if n > KEMENY_MAX_ITEMS:
                raise ComplexityError(
                    f"exact Kemeny aggregation supports at most {KEMENY_MAX_ITEMS} distinct items, got {n}"
                )
            order[r, :n] = order[r, :n][_kemeny_order(self.pair_costs(weights[r], order[r, :n]))]
        return order, held

    @cached_property
    def _column_sort(self) -> tuple[np.ndarray, np.ndarray]:
        sort = np.argsort(self.ranks, axis=0, kind="stable")
        return sort, np.take_along_axis(self.ranks, sort, axis=0)

    def _medians(self, weights: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Weighted median rank per (weight row, item): the mean of the sorted
        ranks at positions (N-1)//2 and N//2 of the multiset, from cumulative
        weights built a chunk of items at a time."""
        sort, ranks = self._column_sort
        lower_k = ((n - 1) // 2)[:, None, None]
        upper_k = (n // 2)[:, None, None]
        width = self.ranks.shape[1]
        median = np.empty((n.size, width), dtype=np.float64)
        step = max(1, _CHUNK_BYTES // (8 * weights.size))
        for c0 in range(0, width, step):
            cols = np.arange(c0, min(c0 + step, width))
            cum = weights[:, sort[:, cols]]
            np.cumsum(cum, axis=1, out=cum)
            lower = ranks[np.argmax(cum > lower_k, axis=1), cols]
            upper = ranks[np.argmax(cum > upper_k, axis=1), cols]
            median[:, cols] = (lower + upper) / 2.0
        return median

    def pair_costs(self, weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Kemeny pair costs over pool columns ``cols`` under one weight row:
        ranking ``cols[a]`` ahead of ``cols[b]`` costs 1 per weighted row
        that ranks ``cols[b]`` above it and the neutral 1/2 per weighted row
        that holds neither (only two absent ranks tie)."""
        ranks = self.ranks[:, cols]
        return np.array([weights @ ((ranks < r) + NEUTRAL_PENALTY * (ranks == r)) for r in ranks.T[:, :, None]])


def _kemeny_order(cost: np.ndarray) -> np.ndarray:
    """Positions 0..n-1 in the order of least summed ``cost`` over ordered
    pairs, by dynamic programming over subsets: ``best[mask]`` is the least
    cost of ordering the subset, whose first member pays ``lead`` against
    the rest. The walk back takes the first optimal lead at each step, so
    ties resolve to the lexicographically first ordering."""
    x, masks = np.arange(len(cost))[:, None], np.arange(1 << len(cost))
    members = (masks >> x) & 1 == 1
    lead = cost @ members
    rest = masks ^ (1 << x)
    best = np.zeros(masks.size)
    for size in range(2, len(cost) + 1):
        layer = np.flatnonzero(members.sum(axis=0) == size)
        value = lead[x, rest[:, layer]] + best[rest[:, layer]]
        best[layer] = np.where(members[:, layer], value, np.inf).min(axis=0)
    order, mask = [], masks[-1]
    while mask:
        value = lead[x[:, 0], rest[:, mask]] + best[rest[:, mask]]
        order.append(np.flatnonzero(members[:, mask] & (value == best[mask]))[0])
        mask = rest[order[-1], mask]
    return np.array(order, dtype=np.int64)


def list_distance_matrix(seqs: Sequence[np.ndarray], kind: str, k: int, rbo_p: float) -> np.ndarray:
    """All-pairs ranked-list distance ``kind`` over one query's encoded lists."""
    if kind == "kendall":
        return kendall_distance_matrix(seqs)
    if kind == "rbo":
        return rbo_distance_matrix(seqs, rbo_p)
    if kind == "topk":
        return topk_distance_matrix(seqs, k)
    raise ParameterError(f"no list kernel for distance {kind!r}")


def chebyshev_matrix(dists: np.ndarray) -> np.ndarray:
    """Pairwise max-absolute-difference matrix between distribution rows."""
    n, m = dists.shape
    out = np.zeros((n, n), dtype=np.float64)
    for col in range(m):
        column = dists[:, col]
        np.maximum(out, np.abs(column[:, None] - column[None, :]), out=out)
    return out


def user_distance_matrix(
    profiles: Sequence[UserProfile],
    relevant_attrs: Sequence[str],
    numeric_ranges: Mapping[str, tuple[float, float]] | None = None,
) -> np.ndarray:
    """Pairwise profile distance matrix (mirrors user_distance)."""
    attrs = sorted(set(relevant_attrs))
    if not attrs:
        raise ParameterError("relevant_attrs must be non-empty")
    ranges = numeric_ranges or {}
    n = len(profiles)
    total = np.zeros((n, n), dtype=np.float64)
    for attr in attrs:
        for profile in profiles:
            if attr in profile.protected:
                raise ProfileError(f"attribute {attr!r} is protected and cannot drive user distance")
            if attr not in profile.other:
                raise ProfileError(f"profile {profile.user_id!r} is missing relevant attribute {attr!r}")
        raw = [profile.other[attr] for profile in profiles]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
        if numeric:
            if attr not in ranges:
                raise ParameterError(f"numeric attribute {attr!r} has no declared range")
            lo, hi = ranges[attr]
            if not hi > lo:
                raise ParameterError(f"attribute {attr!r}: declared range ({lo!r}, {hi!r}) is empty")
            vals = np.asarray(raw, dtype=np.float64)
            total += np.minimum(1.0, np.abs(vals[:, None] - vals[None, :]) / (float(hi) - float(lo)))
        else:
            codes = {}
            enc = np.fromiter((codes.setdefault(v, len(codes)) for v in raw), dtype=np.int64, count=n)
            total += (enc[:, None] != enc[None, :]).astype(np.float64)
    return total / len(attrs)
