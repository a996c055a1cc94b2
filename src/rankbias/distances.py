"""Pairwise distance functions: ranked-list distances, attribute-distribution
distances, and the user-profile distance.

Every distance is symmetric, non-negative, zero on identical inputs, and
normalized to [0, 1] so that list-space and profile-space quantities are
directly comparable.
"""

from __future__ import annotations

import math
import warnings
from numbers import Real
from typing import Mapping, Sequence

from .errors import (
    DegenerateInputWarning,
    InputError,
    MeasureUndefinedError,
    ParameterError,
    ProfileError,
    SchemaError,
)
from .types import DIFFERENTIATING, PROB_TOL, UNANNOTATED, AttributeSchema, RankedList, UserProfile

#: Neutral penalty charged for item pairs whose relative order is known in
#: neither list (both items missing from one of the two lists).
NEUTRAL_PENALTY = 0.5


def _kendall_ids(ids_a: Sequence[str], ids_b: Sequence[str]) -> float:
    """Kendall-style distance between two id sequences, defined on
    non-conjoint lists.

    Each unordered pair of items from the union is charged:

    * 1 if both lists rank the pair and disagree on its order;
    * 1 if one list ranks both items and the other contains exactly one of
      them but ranks it below the item it is missing (a missing item is
      presumed to sit below every present item);
    * 1 if each item appears in only one list (the lists implicitly disagree);
    * the neutral penalty 1/2 if both items are missing from the same list.

    The total is divided by the maximum charge attainable for the two
    membership sets, which reduces to the classic discordant-pair count over
    n(n-1)/2 when the lists are conjoint.
    """
    pos_a = {item: i for i, item in enumerate(ids_a)}
    pos_b = {item: i for i, item in enumerate(ids_b)}
    if not pos_a and not pos_b:
        warnings.warn("kendall distance of two empty lists", DegenerateInputWarning, stacklevel=3)
        return 0.0
    union = sorted(set(pos_a) | set(pos_b))
    total = 0.0
    denom = 0.0
    for i, x in enumerate(union):
        xa = pos_a.get(x)
        xb = pos_b.get(x)
        for y in union[i + 1 :]:
            ya = pos_a.get(y)
            yb = pos_b.get(y)
            in_a = xa is not None and ya is not None
            in_b = xb is not None and yb is not None
            if in_a and in_b:
                denom += 1.0
                if (xa < ya) != (xb < yb):
                    total += 1.0
            elif in_a and (xb is not None or yb is not None):
                denom += 1.0
                # b ranks exactly one of the pair and implies it comes first
                if xb is not None:
                    if ya < xa:
                        total += 1.0
                elif xa < ya:
                    total += 1.0
            elif in_b and (xa is not None or ya is not None):
                denom += 1.0
                if xa is not None:
                    if yb < xb:
                        total += 1.0
                elif xb < yb:
                    total += 1.0
            elif in_a or in_b:
                # both items confined to the same single list
                denom += NEUTRAL_PENALTY
                total += NEUTRAL_PENALTY
            else:
                # one item exclusive to each list: implicit disagreement
                denom += 1.0
                total += 1.0
    if denom == 0.0:
        # union of size one, or one list empty with a single-item peer
        return 0.0 if tuple(ids_a) == tuple(ids_b) else 1.0
    return total / denom


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
    s = min(len(ids_a), len(ids_b))
    l = max(len(ids_a), len(ids_b))
    overlaps = [0.0] * (l + 1)
    seen_a: set[str] = set()
    seen_b: set[str] = set()
    x = 0.0
    for d in range(1, l + 1):
        ea = ids_a[d - 1] if d <= len(ids_a) else None
        eb = ids_b[d - 1] if d <= len(ids_b) else None
        if ea is not None and ea == eb:
            x += 1.0
        else:
            if ea is not None and ea in seen_b:
                x += 1.0
            if eb is not None and eb in seen_a:
                x += 1.0
        if ea is not None:
            seen_a.add(ea)
        if eb is not None:
            seen_b.add(eb)
        overlaps[d] = x
    # left to right, not with sum(), which compensates from Python 3.12 on:
    # the all-pairs kernel reproduces this order exactly
    head = 0.0
    for d in range(1, l + 1):
        head += overlaps[d] / d * p**d
    tail = overlaps[s] * sum((d - s) / (s * d) * p**d for d in range(s + 1, l + 1))
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


def _is_number(value: object) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


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
    attrs = sorted(set(relevant_attrs))
    if not attrs:
        raise ParameterError("relevant_attrs must be non-empty")
    ranges = numeric_ranges or {}
    total = 0.0
    for attr in attrs:
        for profile in (u1, u2):
            if attr in profile.protected:
                raise ProfileError(f"attribute {attr!r} is protected and cannot drive user distance")
            if attr not in profile.other:
                raise ProfileError(f"profile {profile.user_id!r} is missing relevant attribute {attr!r}")
        x, y = u1.other[attr], u2.other[attr]
        if _is_number(x) and _is_number(y):
            if attr not in ranges:
                raise ParameterError(f"numeric attribute {attr!r} has no declared range")
            lo, hi = ranges[attr]
            if not hi > lo:
                raise ParameterError(f"attribute {attr!r}: declared range ({lo!r}, {hi!r}) is empty")
            total += min(1.0, abs(float(x) - float(y)) / (float(hi) - float(lo)))
        else:
            total += 0.0 if x == y else 1.0
    return total / len(attrs)
