"""Vectorized (numpy) counterparts of the scalar distance functions.

Every many-pair computation runs here: individual bias, variant clustering
and the resampled evaluation loops in the significance module. The list
kernels take one query's lists encoded once as pool-index arrays
(``encode_lists``) and return the all-pairs distance matrix. Each kernel
mirrors its scalar twin, exactly where the arithmetic allows; the test
suite asserts the agreement.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

from .distances import rank_weights
from .errors import DegenerateInputWarning, MeasureUndefinedError, ParameterError, ProfileError
from .types import PROB_TOL, AttributeSchema, RankedList, UserProfile


def item_pool(lists: Sequence[RankedList]) -> tuple[str, ...]:
    """Sorted union of item ids across lists."""
    pool: set[str] = set()
    for lst in lists:
        pool.update(lst.item_ids())
    return tuple(sorted(pool))


def encode_lists(lists: Sequence[RankedList], pool: Sequence[str]) -> list[np.ndarray]:
    """Each list as an array of pool indices in rank order."""
    index = {item_id: i for i, item_id in enumerate(pool)}
    return [np.fromiter((index[i] for i in lst.item_ids()), dtype=np.int64, count=lst.depth) for lst in lists]


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
    keys: dict[bytes, int] = {}
    label = np.array([keys.setdefault(s.astype(np.int64).tobytes(), len(keys)) for s in seqs])
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
    overlap = _prefix_overlaps(_ranks(seqs), k)[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = 1.0 - overlap / np.minimum.outer(depths, depths)
    empty = depths == 0
    if empty.any():
        dist[empty, :] = 1.0
        dist[:, empty] = 1.0
        dist[np.ix_(empty, empty)] = 0.0
    return dist


class MedianRanks:
    """One collection's rank table for median-rank aggregation: the 1-based
    rank of every pool item in every row, ``row depth + 1`` where absent,
    and its column-wise stable sort. Built once, it orders the items under
    any row weighting with a few array operations."""

    def __init__(self, seqs: Sequence[np.ndarray], width: int) -> None:
        ranks = np.empty((len(seqs), width), dtype=np.float64)
        for row, s in enumerate(seqs):
            ranks[row] = s.size + 1
            ranks[row, s] = np.arange(1, s.size + 1)
        self.ranks = ranks
        self.absent = np.array([s.size + 1 for s in seqs], dtype=np.float64)
        self.sort = np.argsort(ranks, axis=0, kind="stable")
        self.sorted = np.take_along_axis(ranks, self.sort, axis=0)

    def order(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of ``weights``, the pool indices by weighted median rank,
        then weighted mean rank, then pool index (mirrors
        aggregate_median_rank), and how many lead: the items some weighted
        row holds. An item no weighted row holds ranks last in each of them,
        so it sorts after every held item.

        ``weights`` [R x rows] are integer row multiplicities summing to N
        per replicate. The median averages the sorted ranks at positions
        (N-1)//2 and N//2 of the multiset; the mean is w.ranks / N. Every
        operand is an integer below 2**53, so both keys equal
        statistics.median and statistics.fmean. The cumulative weights
        [R x rows x items] are built a chunk of items at a time.
        """
        n = weights.sum(axis=1)
        lower_k = ((n - 1) // 2)[:, None, None]
        upper_k = (n // 2)[:, None, None]
        width = self.ranks.shape[1]
        median = np.empty((n.size, width), dtype=np.float64)
        step = max(1, _CHUNK_BYTES // (8 * weights.size))
        for c0 in range(0, width, step):
            cols = np.arange(c0, min(c0 + step, width))
            cum = weights[:, self.sort[:, cols]]
            np.cumsum(cum, axis=1, out=cum)
            lower = self.sorted[np.argmax(cum > lower_k, axis=1), cols]
            upper = self.sorted[np.argmax(cum > upper_k, axis=1), cols]
            median[:, cols] = (lower + upper) / 2.0
        rank_sums = weights @ self.ranks
        held = (rank_sums < (weights @ self.absent)[:, None]).sum(axis=1)
        return np.lexsort((rank_sums / n[:, None], median), axis=1), held


def list_distance_matrix(seqs: Sequence[np.ndarray], kind: str, k: int, rbo_p: float) -> np.ndarray:
    """All-pairs ranked-list distance ``kind`` over one query's encoded lists."""
    if kind == "kendall":
        return kendall_distance_matrix(seqs)
    if kind == "rbo":
        return rbo_distance_matrix(seqs, rbo_p)
    if kind == "topk":
        return topk_distance_matrix(seqs, k)
    raise ParameterError(f"no list kernel for distance {kind!r}")


def distribution_matrix(
    lists: Sequence[RankedList],
    attribute: AttributeSchema,
    k: int,
    weighting: str,
) -> np.ndarray:
    """Per-list top-k attribute distributions, renormalized over annotated mass.

    Rows follow the order of ``lists``; columns follow ``attribute.values``.
    Raises when some list carries no annotated mass at all, like the scalar
    distance does.
    """
    values = {value: i for i, value in enumerate(attribute.values)}
    out = np.zeros((len(lists), len(values)), dtype=np.float64)
    for row, lst in enumerate(lists):
        n = min(k, lst.depth)
        if n == 0:
            raise MeasureUndefinedError(
                f"empty list ({lst.user_id!r}, {lst.query_id!r}) has no attribute distribution"
            )
        weights = rank_weights(n, weighting)
        annotated = 0.0
        for w, item in zip(weights, lst.items):
            for value, share in item.annotation_for(attribute.name).items():
                out[row, values[value]] += w * share
                annotated += w * share
        if annotated <= PROB_TOL:
            raise MeasureUndefinedError(
                f"list ({lst.user_id!r}, {lst.query_id!r}) carries no annotated mass"
            )
        out[row] /= annotated
    return out


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
