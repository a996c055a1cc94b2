"""Vectorized (numpy) counterparts of the scalar distance functions.

Every many-pair computation runs here: individual bias, variant clustering
and the resampled evaluation loops in the significance module. A query's
lists are encoded once, as the pool-index rows of an
``aggregation.ListCollection``; the list kernels take any sequence of such
rows (all of a collection's, a subset of them, or rows built from them) and
return the all-pairs distance matrix or, paired, one distance per pair of
rows; the rank and annotation tables read a whole collection, which keeps
them for all its readers. Each kernel mirrors its scalar twin, exactly
where the arithmetic allows; the test suite asserts the agreement.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .distances import NEUTRAL_PENALTY, _profile_columns
from .errors import ComplexityError, DegenerateInputWarning, ParameterError, SchemaError
from .types import AttributeSchema, UserProfile, _is_number

if TYPE_CHECKING:
    from .aggregation import ListCollection


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
    sizes = np.array([s.size for s in seqs], dtype=np.int64)
    flat = np.concatenate(seqs) if seqs else np.empty(0, dtype=np.int64)
    rank = np.full((len(seqs), int(flat.max(initial=-1)) + 1), _ABSENT, dtype=np.int32)
    starts = np.cumsum(sizes) - sizes
    rank[np.repeat(np.arange(len(seqs)), sizes), flat] = np.arange(flat.size) - np.repeat(starts, sizes)
    return rank


def _sides(x: np.ndarray, paired: bool) -> tuple[np.ndarray, np.ndarray]:
    """A per-row vector as the two operands of every compared pair: column
    and row for all pairs, the two halves for the pairs (i, n/2 + i)."""
    half = len(x) // 2
    return (x[:half], x[half:]) if paired else (x[:, None], x[None, :])


def _dot(stack: np.ndarray, paired: bool) -> np.ndarray:
    """Row products of a factor stack [..., rows, m]: every pair of rows, or
    row i of the first half with row i of the second."""
    if paired:
        half = stack.shape[-2] // 2
        return np.einsum("...ij,...ij->...i", stack[..., :half, :], stack[..., half:, :])
    return stack @ stack.swapaxes(-1, -2)


def _prefix_overlaps(rank: np.ndarray, depths, paired: bool) -> np.ndarray:
    """|A[:d] & B[:d]| for every compared pair, one array per d in
    ``depths``; a row shorter than d keeps all its items."""
    prefix = (rank < np.reshape(depths, (-1, 1, 1))).astype(np.float32)
    return _dot(prefix, paired).astype(np.float64)


def _cross_ranks(
    rank: np.ndarray, by_item: np.ndarray, item: np.ndarray, paired: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per compared pair of rows (A, B) and one pool item per row
    (``item``): B's rank of A's item, and A's rank of B's item. All pairs
    read the first from ``by_item``, the rank table transposed, so both
    gathers are row-major."""
    if paired:
        half = len(item) // 2
        rows = np.arange(half)
        return rank[rows + half, item[:half]], rank[rows, item[half:]]
    return by_item[item], rank[:, item]


def _depth_groups(depths: np.ndarray, max_depth: int) -> list[np.ndarray]:
    """Flat indices of the entries of ``depths`` equal to d, for each d in
    0..``max_depth``."""
    order = np.argsort(depths, axis=None, kind="stable")
    bounds = np.searchsorted(depths.ravel()[order], np.arange(max_depth + 2))
    return [order[lo:hi] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def _same(seqs: Sequence[np.ndarray], paired: bool) -> np.ndarray:
    """Per compared pair: the two rows are the same sequence."""
    return np.equal(*_sides(_sequence_labels(seqs), paired))


def _warn_if_two_empty(depths: np.ndarray, distance: str, paired: bool) -> None:
    # a paired call's caller knows what its pairs stand for, and words the warning
    if not paired and np.count_nonzero(depths == 0) >= 2:
        warnings.warn(f"{distance} distance of two empty lists", DegenerateInputWarning, stacklevel=3)


def _pairs(count: np.ndarray) -> np.ndarray:
    return count * (count - 1.0) / 2.0


def kendall_distance_matrix(seqs: Sequence[np.ndarray], paired: bool = False) -> np.ndarray:
    """All-pairs or ``paired`` Kendall distance with the neutral 1/2 penalty
    (mirrors kendall_distance): Fagin, Kumar and Sivakumar's K^(1/2).

    Each row becomes a sign vector over the pool's item pairs x < y: +1 when
    x ranks above y, -1 when below, 0 when both are absent (an absent item
    ranks below every present one). With I = |A ∩ B| and U = |A ∪ B| over a
    pool of P items, the charge is (C(U,2) - s_a.s_b + I(P-U)) / 2 and its
    attainable maximum C(U,2) - (C(|A|-I,2) + C(|B|-I,2)) / 2. Both are
    exact, so the quotient equals the scalar distance bit for bit.
    """
    n = len(seqs)
    depths = np.array([s.size for s in seqs], dtype=np.float64)
    _warn_if_two_empty(depths, "kendall", paired)
    rank = _ranks(seqs)
    # an item no row holds cancels out of the charge: drop it, and its pairs.
    # float32 keeps every sign: present ranks are small exact integers and
    # _ABSENT stays above them
    order = np.ascontiguousarray(rank[:, (rank != _ABSENT).any(axis=0)], dtype=np.float32)
    width = order.shape[1]
    left, right = _sides(depths, paired)
    dot = np.zeros(np.broadcast(left, right).shape, dtype=np.float64)
    # a chunk holds the signs of every row, both halves of a paired call
    step = max(1, _CHUNK_BYTES // (4 * max(n, 1)))
    x0 = 0
    while x0 < width:
        # the signs of the pairs (x, y) for a block of x, masked to y > x
        x1 = min(width, x0 + max(1, step // (width - x0)))
        chunk = order[:, None, x0:] - order[:, x0:x1, None]
        np.sign(chunk, out=chunk)
        chunk *= ~np.tri(x1 - x0, width - x0, dtype=bool)
        dot += _dot(chunk.reshape(n, -1), paired)
        x0 = x1
    inter = _prefix_overlaps(rank, width, paired)[0]
    union = left + right - inter
    num = (_pairs(union) - (dot - inter * (width - union))) / 2.0
    den = _pairs(union) - (_pairs(left - inter) + _pairs(right - inter)) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = num / den
    # nothing to order: a union of at most one item
    unordered = den == 0.0
    dist[unordered] = np.where(_same(seqs, paired), 0.0, 1.0)[unordered]
    return dist


def rbo_distance_matrix(seqs: Sequence[np.ndarray], p: float, paired: bool = False) -> np.ndarray:
    """All-pairs or ``paired`` 1 - extrapolated RBO with persistence ``p``
    (mirrors rbo_distance).

    The prefix overlaps X_d grow by the items that join at depth d, read
    from one gather of ranks per d; a row shorter than d keeps all its
    items. Each pair's X at its shorter depth and head sum at its longer
    depth are read off as the loop over d passes them, so the cost is linear
    in the deepest list and does not grow with the number of distinct
    depths. Every sum runs in the scalar's order, so the result equals it
    bit for bit.
    """
    n = len(seqs)
    depths = np.array([s.size for s in seqs], dtype=np.int64)
    _warn_if_two_empty(depths, "overlap", paired)
    short = np.minimum(*_sides(depths, paired))
    long = np.maximum(*_sides(depths, paired))
    max_depth = int(depths.max(initial=0))
    powers = np.array([p**d for d in range(max_depth + 1)])
    # a last column for an item no row holds: a row's item past its end
    rank = np.hstack([_ranks(seqs), np.full((n, 1), _ABSENT, dtype=np.int32)])
    by_item = None if paired else np.ascontiguousarray(rank.T)
    flat = np.concatenate(seqs) if seqs else np.empty(0, dtype=np.int64)
    starts = np.cumsum(depths) - depths
    overlap, overlap_s = np.zeros(short.shape, dtype=np.int32), np.zeros(short.shape, dtype=np.int32)
    running, head = np.zeros(short.shape), np.zeros(short.shape)
    hit, term = np.empty(short.shape, dtype=bool), np.empty(short.shape)
    at_short, at_long = _depth_groups(short, max_depth), _depth_groups(long, max_depth)
    for d in range(1, max_depth + 1):
        item = np.full(n, rank.shape[1] - 1)
        held = depths >= d
        item[held] = flat[starts[held] + d - 1]
        # X_d - X_{d-1}: A's item d within B[:d], and B's item d within A[:d-1]
        a_in_b, b_in_a = _cross_ranks(rank, by_item, item, paired)
        overlap += np.less_equal(a_in_b, d - 1, out=hit)
        overlap += np.less(b_in_a, d - 1, out=hit)
        overlap_s.reshape(-1)[at_short[d]] = overlap.reshape(-1)[at_short[d]]
        # X_d / d * p^d, in the scalar's order, without a temporary
        running += np.multiply(np.divide(overlap, d, out=term), powers[d], out=term)
        head.reshape(-1)[at_long[d]] = running.reshape(-1)[at_long[d]]
    # the tail weight, the sum over d in (s, l] of (d - s) / (s d) p^d,
    # depends only on the two depths: one running sum over d per shorter
    # depth s, added left to right as the scalar adds it
    levels, level = np.unique(depths, return_inverse=True)
    tail_weight = np.zeros((levels.size, levels.size))
    for i, s in enumerate(levels.tolist()):
        if s:
            d = np.arange(s + 1, max_depth + 1)
            tail_weight[i, i + 1 :] = np.cumsum((d - s) / (s * d) * powers[s + 1 :])[levels[i + 1 :] - s - 1]
    tail = overlap_s * tail_weight[np.minimum(*_sides(level, paired)), np.maximum(*_sides(level, paired))]
    with np.errstate(invalid="ignore", divide="ignore"):
        ext = (1.0 - p) / p * (head + tail) + ((overlap - overlap_s) / long + overlap_s / short) * powers[long]
    dist = np.minimum(1.0, np.maximum(0.0, 1.0 - ext))
    dist[np.logical_or(*_sides(depths == 0, paired))] = 1.0
    dist[_same(seqs, paired)] = 0.0
    return dist


def topk_distance_matrix(seqs: Sequence[np.ndarray], k: int, paired: bool = False) -> np.ndarray:
    """All-pairs or ``paired`` top-k overlap distance (mirrors
    topk_overlap_distance). Every n x n step is in place."""
    depths = np.array([min(k, s.size) for s in seqs], dtype=np.int64)
    _warn_if_two_empty(depths, "top-k", paired)
    dist = _prefix_overlaps(_ranks(seqs), k, paired)[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        np.subtract(1.0, np.divide(dist, np.minimum(*_sides(depths, paired)), out=dist), out=dist)
    empty = depths == 0
    if empty.any():
        left, right = _sides(empty, paired)
        dist[left | right] = 1.0
        dist[left & right] = 0.0
    return dist


#: Exact Kemeny aggregation enumerates item subsets; refuse beyond this many items.
KEMENY_MAX_ITEMS = 10


class RankTable:
    """One collection's rank table: the 1-based rank of every pool item in
    every row, ``row depth + 1`` where absent. It orders the pool under a
    block of integer row multiplicities [R x rows] by each aggregator; every
    key is an exact integer or half, so the orders follow the scalar rules
    to the last tie."""

    def __init__(self, batch: ListCollection) -> None:
        self.absent = batch.depths + 1.0
        self.ranks = np.minimum(_ranks(batch.rows) + 1.0, self.absent[:, None])

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


class AnnotationTable:
    """One attribute's annotations over a list collection, in columns ``values``
    (every value they carry, sorted), and the one rule that merges an item's
    annotation over its occurrences.

    An item's entries are its distinct annotations, in the order of their
    sorted (value, weight) pairs. Under a row of integer list multiplicities
    an entry counts its weighted occurrences, and the item's merged vector
    is the sum of count x weights over its entries in that order, divided by
    its annotated count, then by its total summed in value-name order. The
    counts are exact in any order, and every fractional sum runs in an order
    fixed by the annotations alone: no result depends on the lists, rows or
    blocks a caller passes.
    """

    def __init__(self, batch: ListCollection, attribute: str) -> None:
        annotations = [item.annotation_for(attribute) for item in batch.items]
        self.values = tuple(sorted(set(chain.from_iterable(annotations))))
        pool = np.empty(len(batch.items), dtype=np.int64)
        pool[batch.occurrence] = np.concatenate(batch.rows)
        keys = [(p, tuple(sorted(a.items()))) for p, a in zip(pool.tolist(), annotations)]
        entries = sorted(set(keys))
        number = {key: e for e, key in enumerate(entries)}
        # each occurrence's entry, in list order
        self._entry = np.array([number[key] for key in keys], dtype=np.int64)[batch.occurrence]
        by_entry = np.argsort(self._entry, kind="stable")
        self._lists = np.repeat(np.arange(len(batch.depths), dtype=np.int32), batch.depths)[by_entry]
        self._starts = np.searchsorted(self._entry[by_entry], np.arange(len(entries)))
        # each pool item's entries, [bounds[c], bounds[c + 1])
        self._bounds = np.searchsorted([p for p, _ in entries], np.arange(len(batch.pool) + 1))
        # per entry: its weights, 1 if it is annotated, and 1 per value it carries
        m = len(self.values)
        self._columns = np.zeros((len(entries), 2 * m + 1))
        column = {v: c for c, v in enumerate(self.values)}
        # per value, in order of first carriage: the item of the first entry that carries it
        self._carrier: dict[str, str] = {}
        for e, (p, pairs) in enumerate(entries):
            self._columns[e, m] = bool(pairs)
            for value, w in pairs:
                self._columns[e, column[value]], self._columns[e, m + 1 + column[value]] = w, 1.0
                self._carrier.setdefault(value, batch.pool[p])

    def in_schema(self, schema: AttributeSchema, vectors: np.ndarray) -> np.ndarray:
        """``vectors`` [... x values] in ``schema`` value order, 0 for a value no
        item carries; the first entry to carry a value outside it raises."""
        for value, item_id in self._carrier.items():
            if value not in schema.values:
                raise SchemaError(f"item {item_id!r}: annotation value {value!r} not in schema {schema.name!r}")
        ordered = np.zeros(vectors.shape[:-1] + (len(schema.values),))
        ordered[..., [schema.values.index(v) for v in self.values]] = vectors
        return ordered

    def own(self, occurrences: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per occurrence index ``occurrences`` [R x t]: whether it is
        annotated, and its own weights as given [R x t x values], unmerged."""
        columns = self._columns[self._entry[occurrences]]
        return columns[..., len(self.values)] > 0.0, columns[..., : len(self.values)]

    def merged(self, weights: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row r of list multiplicities ``weights`` [R x lists] and pool
        column ``cols[r, j]`` [R x t]: whether the row's occurrences of the
        item are annotated [R x t], its merged vector [R x t x values] (0
        where not), and the values they carry [R x t x values]. The rows'
        weights are gathered to the occurrences a chunk of rows at a time."""
        m = len(self.values)
        sums = np.zeros(cols.shape + (2 * m + 1,))
        step = max(1, _CHUNK_BYTES // (8 * max(1, self._lists.size)))
        for r0 in range(0, len(weights), step):
            rows = slice(r0, r0 + step)
            counts = np.add.reduceat(weights[rows][:, self._lists], self._starts, axis=1)
            start, stop = self._bounds[cols[rows]], self._bounds[cols[rows] + 1]
            for v in range(int((stop - start).max(initial=0))):
                entry = np.minimum(start + v, stop - 1)
                count = np.where(start + v < stop, np.take_along_axis(counts, entry, axis=1), 0.0)
                sums[rows] += count[..., None] * self._columns[entry]
        on = sums[..., m] > 0.0
        merged = sums[..., :m] / np.where(on, sums[..., m], 1.0)[..., None]
        # cumsum adds left to right: the total in value-name order
        total = np.cumsum(merged, axis=-1)[..., -1:]
        np.divide(merged, total, out=merged, where=total > 0.0)
        return on, merged, sums[..., m + 1 :] > 0.0


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


def list_distance_matrix(seqs: Sequence[np.ndarray], kind: str, k: int, rbo_p: float, paired=False) -> np.ndarray:
    """Ranked-list distance ``kind`` over one query's encoded lists: all
    pairs [n x n], or with ``paired`` row i of the first half against row i
    of the second [n/2]."""
    if kind == "kendall":
        return kendall_distance_matrix(seqs, paired)
    if kind == "rbo":
        return rbo_distance_matrix(seqs, rbo_p, paired)
    if kind == "topk":
        return topk_distance_matrix(seqs, k, paired)
    raise ParameterError(f"no list kernel for distance {kind!r}")


def chebyshev_matrix(dists: np.ndarray) -> np.ndarray:
    """Pairwise max-absolute-difference matrix between distribution rows."""
    n, m = dists.shape
    out = np.zeros((n, n), dtype=np.float64)
    for col in range(m):
        column = dists[:, col]
        np.maximum(out, np.abs(column[:, None] - column[None, :]), out=out)
    return out


#: Tags of the stand-ins for lists and dicts: no profile value equals them.
_LIST, _DICT = object(), object()


def _hashable(value: object) -> object:
    """A hashable stand-in for an unhashable ``value`` that compares (``==``)
    and hashes as the value compares: a list as a tagged tuple, a dict as a
    tagged set of its items, a tuple or set of stand-ins, recursively. Equal
    numbers hash equal (``1 == 1.0 == True``), so equal values stay equal."""
    if isinstance(value, list):
        return (_LIST, *map(_hashable, value))
    if isinstance(value, tuple):
        return tuple(map(_hashable, value))
    if isinstance(value, dict):
        return (_DICT, frozenset((key, _hashable(item)) for key, item in value.items()))
    if isinstance(value, set):
        return frozenset(value)
    return value


def value_codes(values: Sequence[object]) -> np.ndarray:
    """A code per value, numbered in order of first appearance, equal for
    values that compare equal (``==``): through one dict, unhashable values
    (JSON lists and objects) by their hashable stand-ins."""
    codes: dict[object, int] = {}

    def code(value: object) -> int:
        try:
            return codes.setdefault(value, len(codes))
        except TypeError:
            return codes.setdefault(_hashable(value), len(codes))

    return np.fromiter(map(code, values), dtype=np.int64, count=len(values))


def user_distance_matrix(
    profiles: Sequence[UserProfile],
    relevant_attrs: Sequence[str],
    numeric_ranges: Mapping[str, tuple[float, float]] | None = None,
) -> np.ndarray:
    """Pairwise profile distance matrix (mirrors user_distance)."""
    total = np.zeros((len(profiles), len(profiles)), dtype=np.float64)
    for raw, width in _profile_columns(profiles, relevant_attrs, numeric_ranges):
        # per pair, as the scalar: the numeric term where both values are
        # numbers, equality otherwise
        codes = value_codes(raw)
        term = (codes[:, None] != codes[None, :]).astype(np.float64)
        if width is not None:
            number = np.array([_is_number(v) for v in raw], dtype=bool)
            vals = np.array([v if is_number else 0.0 for v, is_number in zip(raw, number)], dtype=np.float64)
            diff = vals[:, None] - vals[None, :]
            np.abs(diff, out=diff)
            np.minimum(1.0, np.divide(diff, width, out=diff), out=diff)
            np.copyto(term, diff, where=np.logical_and.outer(number, number))
        total += term
    return total / len(set(relevant_attrs))
