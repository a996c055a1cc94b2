"""Pairwise distance functions: ranked-list distances, attribute-distribution
distances, and the user-profile distance.

Every distance is symmetric, non-negative, zero on identical inputs, and
normalized to [0, 1] so that list-space and profile-space quantities are
directly comparable.
"""

from __future__ import annotations

import math
import warnings
from itertools import accumulate
from numbers import Real
from typing import Iterator, Mapping, Sequence

from .errors import (
    DegenerateInputWarning,
    InputError,
    MeasureUndefinedError,
    ParameterError,
    ProfileError,
    SchemaError,
)
from .types import DIFFERENTIATING, PROB_TOL, UNANNOTATED, AttributeSchema, RankedList, UserProfile, _is_number

#: Neutral penalty charged for an item pair when some list holds neither of
#: its items, and so says nothing of their order.
NEUTRAL_PENALTY = 0.5


def _kendall_ids(ids_a: Sequence[str], ids_b: Sequence[str]) -> float:
    """Kendall-style distance between two id sequences, defined on
    non-conjoint lists: Fagin, Kumar and Sivakumar's K^(1/2).

    An item absent from a list ranks below every item present in it. Each
    unordered pair of items from the union is charged the neutral penalty
    1/2 when some list holds neither item, and otherwise 1 when the two
    lists order it differently. The total is divided by the largest charge
    attainable for the two membership sets, which reduces to the classic
    discordant-pair count over n(n-1)/2 when the lists are conjoint.
    """
    rank_a = {item: i for i, item in enumerate(ids_a)}
    rank_b = {item: i for i, item in enumerate(ids_b)}
    if not rank_a and not rank_b:
        warnings.warn("kendall distance of two empty lists", DegenerateInputWarning, stacklevel=3)
        return 0.0
    ranks = [(rank_a.get(x, math.inf), rank_b.get(x, math.inf)) for x in sorted(rank_a.keys() | rank_b.keys())]
    neutral = discordant = 0
    for i, (xa, xb) in enumerate(ranks):
        for ya, yb in ranks[i + 1 :]:
            # only two absent ranks tie
            if xa == ya or xb == yb:
                neutral += 1
            elif (xa < ya) != (xb < yb):
                discordant += 1
    pairs = len(ranks) * (len(ranks) - 1) // 2
    if not pairs:
        # a union of one item: nothing to order
        return 0.0 if tuple(ids_a) == tuple(ids_b) else 1.0
    return (discordant + NEUTRAL_PENALTY * neutral) / (pairs - neutral + NEUTRAL_PENALTY * neutral)


def kendall_distance(a: RankedList, b: RankedList) -> float:
    """Normalized Kendall distance between two ranked lists in [0, 1].

    Zero iff the lists are identical id sequences; 1 for exact reversals of
    the same membership and for fully disjoint lists. Missing items use the
    neutral 1/2 penalty convention, so lists need not share membership.
    """
    return _kendall_ids(a.item_ids(), b.item_ids())


def _rbo_ids(ids_a: Sequence[str], ids_b: Sequence[str], p: float) -> float:
    if not ids_a and not ids_b:
        warnings.warn("overlap distance of two empty lists", DegenerateInputWarning, stacklevel=3)
        return 0.0
    if not ids_a or not ids_b:
        return 1.0
    if tuple(ids_a) == tuple(ids_b):
        # identical sequences score exactly 1; skip the float accumulation
        return 0.0
    s, l = sorted((len(ids_a), len(ids_b)))
    # X_d = |A[:d] & B[:d]|: a shared item joins the overlap at the deeper
    # of its two depths
    joins = [0] * (l + 1)
    depth_b = {item: d for d, item in enumerate(ids_b, 1)}
    for d, item in enumerate(ids_a, 1):
        if item in depth_b:
            joins[max(d, depth_b[item])] += 1
    overlaps = list(accumulate(joins))
    # left to right, not with sum(), which compensates from Python 3.12 on:
    # the all-pairs kernel reproduces this order exactly
    head = 0.0
    for d in range(1, l + 1):
        head += overlaps[d] / d * p**d
    tail_weight = 0.0
    for d in range(s + 1, l + 1):
        tail_weight += (d - s) / (s * d) * p**d
    tail = overlaps[s] * tail_weight
    ext = (1.0 - p) / p * (head + tail) + ((overlaps[l] - overlaps[s]) / l + overlaps[s] / s) * p**l
    return min(1.0, max(0.0, 1.0 - ext))


def rbo_distance(a: RankedList, b: RankedList, p: float = 0.9) -> float:
    """Top-weighted overlap distance 1 - RBO between two ranked lists.

    Uses the extrapolated rank-biased-overlap score with persistence ``p``:
    disagreements near the top of the lists cost more than disagreements
    deep down, and the lists need not share membership or length.
    """
    if not isinstance(p, Real) or not (0.0 < p < 1.0):
        raise ParameterError(f"persistence must lie strictly inside (0, 1), got {p!r}")
    return _rbo_ids(a.item_ids(), b.item_ids(), float(p))


def _topk_ids(ids_a: Sequence[str], ids_b: Sequence[str], k: int) -> float:
    ka = min(k, len(ids_a))
    kb = min(k, len(ids_b))
    if ka == 0 and kb == 0:
        warnings.warn("top-k distance of two empty lists", DegenerateInputWarning, stacklevel=3)
        return 0.0
    if ka == 0 or kb == 0:
        return 1.0
    shared = len(set(ids_a[:ka]) & set(ids_b[:kb]))
    return 1.0 - shared / min(ka, kb)


def topk_overlap_distance(a: RankedList, b: RankedList, k: int) -> float:
    """Set-overlap distance between the two lists' top-k prefixes.

    Uses min(k, depth) items per list and normalizes by the attainable
    overlap, so shorter lists are not penalized for their length.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k!r}")
    return _topk_ids(a.item_ids(), b.item_ids(), k)


def rank_weights(n: int, weighting: str) -> list[float]:
    """Per-rank weights over the top ``n`` positions, summing to 1."""
    if weighting == "uniform":
        return [1.0 / n] * n
    if weighting == "rank-discounted":
        raw = [1.0 / math.log2(r + 1.0) for r in range(1, n + 1)]
        total = sum(raw)
        return [w / total for w in raw]
    raise ParameterError(f"unknown weighting {weighting!r}")


def attribute_distribution(
    ranked: RankedList,
    attribute: AttributeSchema,
    k: int,
    weighting: str = "uniform",
) -> dict[str, float]:
    """Distribution of a differentiating attribute's values over the top-k results.

    Each of the top min(k, depth) items contributes its per-rank weight,
    split across the item's annotation weights; items without an annotation
    put their whole contribution on the explicit ``"unannotated"`` bucket.
    The returned mapping covers every schema value plus that bucket and sums
    to 1.
    """
    if attribute.kind != DIFFERENTIATING:
        raise SchemaError(f"attribute {attribute.name!r} is not a differentiating attribute")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k!r}")
    n = min(k, ranked.depth)
    if n == 0:
        raise InputError(f"cannot take attribute distribution of empty list ({ranked.user_id!r}, {ranked.query_id!r})")
    weights = rank_weights(n, weighting)
    dist = {value: 0.0 for value in attribute.values}
    dist[UNANNOTATED] = 0.0
    for w, item in zip(weights, ranked.items):
        annotation = item.annotation_for(attribute.name)
        if not annotation:
            dist[UNANNOTATED] += w
            continue
        for value, share in annotation.items():
            if value not in dist or value == UNANNOTATED:
                raise SchemaError(
                    f"item {item.item_id!r}: annotation value {value!r} not in schema {attribute.name!r}"
                )
            dist[value] += w * share
    return dist


def renormalize_annotated(dist: Mapping[str, float]) -> dict[str, float]:
    """Drop the unannotated bucket and rescale the remaining mass to 1."""
    annotated = 1.0 - dist.get(UNANNOTATED, 0.0)
    if annotated <= PROB_TOL:
        raise MeasureUndefinedError("distribution carries no annotated mass")
    return {v: m / annotated for v, m in dist.items() if v != UNANNOTATED}


def distribution_distance(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Largest absolute probability difference assigned to any single value.

    Both vectors must cover the same value set and sum to 1; unannotated
    mass is excluded, with the annotated mass rescaled to 1 first, so
    annotation coverage differences do not register as bias.
    """
    values_p = set(p) - {UNANNOTATED}
    values_q = set(q) - {UNANNOTATED}
    if values_p != values_q:
        raise SchemaError(
            f"distributions cover different value sets: {sorted(values_p)} vs {sorted(values_q)}"
        )
    for name, vec in (("first", p), ("second", q)):
        total = sum(vec.values())
        if abs(total - 1.0) > PROB_TOL:
            raise InputError(f"{name} distribution sums to {total!r}, expected 1")
    rp = renormalize_annotated(p)
    rq = renormalize_annotated(q)
    return max(abs(rp[v] - rq[v]) for v in rp)


def _check_range(attribute: str, bounds: tuple[float, float], error: type[Exception]) -> None:
    """The rule of every declared numeric range: finite bounds, the high one above the low one."""
    lo, hi = bounds
    if not -math.inf < lo < hi < math.inf:
        raise error(f"attribute {attribute!r}: declared range ({lo!r}, {hi!r}) must be finite and non-empty")


def _profile_columns(
    profiles: Sequence[UserProfile],
    relevant_attrs: Sequence[str],
    numeric_ranges: Mapping[str, tuple[float, float]] | None,
) -> Iterator[tuple[list[object], float | None]]:
    """Each relevant attribute's values across ``profiles``, in name order,
    with the width of its declared range; the width is None unless two of
    the values are numbers, the only case that reads it."""
    attrs = sorted(set(relevant_attrs))
    if not attrs:
        raise ParameterError("relevant_attrs must be non-empty")
    ranges = numeric_ranges or {}
    for attr in attrs:
        for profile in profiles:
            if attr in profile.protected:
                raise ProfileError(f"attribute {attr!r} is protected and cannot drive user distance")
            if attr not in profile.other:
                raise ProfileError(f"profile {profile.user_id!r} is missing relevant attribute {attr!r}")
        values = [profile.other[attr] for profile in profiles]
        if sum(map(_is_number, values)) < 2:
            yield values, None
            continue
        if attr not in ranges:
            raise ParameterError(f"numeric attribute {attr!r} has no declared range")
        lo, hi = ranges[attr]
        _check_range(attr, (lo, hi), ParameterError)
        yield values, float(hi) - float(lo)


def user_distance(
    u1: UserProfile,
    u2: UserProfile,
    relevant_attrs: Sequence[str],
    numeric_ranges: Mapping[str, tuple[float, float]] | None = None,
) -> float:
    """Profile distance in [0, 1]: mean per-attribute dissimilarity over the
    relevant non-protected attributes.

    Categorical attributes contribute 0 on a match and 1 on a mismatch;
    numeric attributes contribute their absolute difference divided by the
    declared range (clipped to 1). Protected attributes never contribute and
    may not appear in ``relevant_attrs``.
    """
    total = 0.0
    for (x, y), width in _profile_columns((u1, u2), relevant_attrs, numeric_ranges):
        # a width means both values are numbers
        total += (0.0 if x == y else 1.0) if width is None else min(1.0, abs(float(x) - float(y)) / width)
    return total / len(set(relevant_attrs))
