"""Object-path reference implementations of the group measures.

Each builds the two classes' representatives with the public aggregators,
one ``RankedList`` per class and query, and measures them with the scalar
distances, for any multiset of class members. The package evaluates every
group measure on one vectorized engine; these loops are what the tests
compare it against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from rankbias.aggregation import ListCollection, aggregate
from rankbias.distances import attribute_distribution, distribution_distance, renormalize_annotated
from rankbias.errors import InputError, ModeError
from rankbias.measures import (
    CLASS_P,
    CLASS_PBAR,
    VARIANT_MERGE_RADIUS,
    AuditInput,
    BiasVerdict,
    _epsilon_space,
    _representative_depth,
    _variant_edges,
    cluster_variants,
    list_space_distance,
)
from rankbias.types import RankedList


def _class_lists(inp: AuditInput, member_ids: Sequence[str], query_id: str) -> list[RankedList]:
    return [inp.list_for(user_id, query_id) for user_id in member_ids]


def _mean_or_max(per_query: dict[str, float], how: str) -> float:
    """The battery aggregate: the max, or a running sum in query order over
    the count (not sum(), which compensates from Python 3.12 on)."""
    values = list(per_query.values())
    if not values:
        raise InputError("no queries to aggregate")
    if how == "max":
        return max(values)
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def single_linkage(n: int, edges: np.ndarray) -> np.ndarray:
    """Connected component of each of ``n`` nodes under ``edges``, numbered
    in first-appearance order: a union-find over the edge list, the labelling
    oracle of the engine's components."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges.tolist():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    labels: dict[int, int] = {}
    return np.array([labels.setdefault(find(i), len(labels)) for i in range(n)], dtype=np.int64)


def class_representatives(
    inp: AuditInput, p_ids: Sequence[str], q_ids: Sequence[str], query_id: str
) -> tuple[RankedList, RankedList]:
    """Aggregate each class's lists for one query into a representative pair
    of common depth."""
    lists_p = _class_lists(inp, p_ids, query_id)
    lists_q = _class_lists(inp, q_ids, query_id)
    depth = int(_representative_depth(inp, max(lst.depth for lst in lists_p + lists_q)))
    rep_p = aggregate(ListCollection(lists_p, CLASS_P), depth, inp.config.aggregator)
    rep_q = aggregate(ListCollection(lists_q, CLASS_PBAR), depth, inp.config.aggregator)
    return rep_p, rep_q


def group_user_bias_members(inp: AuditInput, p_ids: Sequence[str], q_ids: Sequence[str]) -> BiasVerdict:
    cfg = inp.config
    per_query: dict[str, float] = {}
    depths: dict[str, int] = {}
    for query_id in inp.queries():
        rep_p, rep_q = class_representatives(inp, p_ids, q_ids, query_id)
        per_query[query_id] = abs(list_space_distance(rep_p, rep_q, inp.differentiating, cfg))
        depths[query_id] = max(rep_p.depth, rep_q.depth)
    magnitude = _mean_or_max(per_query, cfg.query_aggregation)
    diagnostics = {
        "aggregator": cfg.aggregator,
        "dr_kind": cfg.dr_kind,
        "class_sizes": {CLASS_P: len(p_ids), CLASS_PBAR: len(q_ids)},
        "representative_depths": depths,
    }
    return BiasVerdict(
        "group_user_bias", magnitude, cfg.resolve_epsilon(_epsilon_space(cfg)), per_query, diagnostics
    )


def probabilistic_members(inp: AuditInput, p_ids: Sequence[str], q_ids: Sequence[str]) -> BiasVerdict:
    cfg = inp.config
    per_query: dict[str, float] = {}
    degenerate: list[str] = []
    variant_counts: dict[str, dict[str, int]] = {}
    for query_id in inp.queries():
        lists = _class_lists(inp, p_ids, query_id) + _class_lists(inp, q_ids, query_id)
        # the members' lists encoded on their own: the first of each distinct sequence is its variant
        batch = ListCollection(lists)
        variants = [batch.rows[i] for i in np.unique(batch.labels, return_index=True)[1].tolist()]
        clusters = np.array(cluster_variants(variants, _variant_edges(inp, variants)), dtype=np.int64)[batch.labels]
        n_clusters = int(clusters.max()) + 1
        variant_counts[query_id] = {"raw": len(variants), "merged": n_clusters}
        if n_clusters < 2:
            degenerate.append(query_id)
        # the exact rational total variation, rounded to a float once
        counts_p = np.bincount(clusters[: len(p_ids)], minlength=n_clusters).tolist()
        counts_q = np.bincount(clusters[len(p_ids) :], minlength=n_clusters).tolist()
        tv = sum(abs(Fraction(c_p, len(p_ids)) - Fraction(c_q, len(q_ids))) for c_p, c_q in zip(counts_p, counts_q))
        per_query[query_id] = float(tv / 2)
    magnitude = _mean_or_max(per_query, cfg.query_aggregation)
    diagnostics = {
        "variant_counts": variant_counts,
        "degenerate_queries": degenerate,
        "merge_radius": VARIANT_MERGE_RADIUS,
        "class_sizes": {CLASS_P: len(p_ids), CLASS_PBAR: len(q_ids)},
    }
    if degenerate and len(degenerate) == len(per_query):
        diagnostics["degenerate"] = True
    return BiasVerdict(
        "probabilistic_group_bias", magnitude, cfg.resolve_epsilon("distribution"), per_query, diagnostics
    )


def combined_members(inp: AuditInput, p_ids: Sequence[str], q_ids: Sequence[str]) -> BiasVerdict:
    cfg = inp.config
    per_query: dict[str, float] = {}
    for query_id in inp.queries():
        rep_p, rep_q = class_representatives(inp, p_ids, q_ids, query_id)
        d1 = attribute_distribution(rep_p, inp.differentiating, cfg.k, cfg.weighting)
        d2 = attribute_distribution(rep_q, inp.differentiating, cfg.k, cfg.weighting)
        per_query[query_id] = distribution_distance(d1, d2)
    magnitude = _mean_or_max(per_query, cfg.query_aggregation)
    diagnostics = {"subject_a": f"class:{CLASS_P}", "subject_b": f"class:{CLASS_PBAR}", "aggregator": cfg.aggregator}
    return BiasVerdict("combined_bias", magnitude, cfg.resolve_epsilon("distribution"), per_query, diagnostics)


def echo_members(inp: AuditInput, p_ids: Sequence[str], q_ids: Sequence[str]) -> BiasVerdict:
    cfg = inp.config
    values = inp.differentiating.values
    epsilon = cfg.resolve_epsilon("distribution")
    per_query: dict[str, float] = {}
    dev_sums = {CLASS_P: dict.fromkeys(values, 0.0), CLASS_PBAR: dict.fromkeys(values, 0.0)}
    content_sums = {CLASS_P: 0.0, CLASS_PBAR: 0.0}
    queries = inp.queries()
    for query_id in queries:
        gt = inp.gt_for(query_id)
        if gt is None:
            raise ModeError(f"echo-chamber test needs a ground truth for query {query_id!r}")
        rep_p, rep_q = class_representatives(inp, p_ids, q_ids, query_id)
        dist_p = renormalize_annotated(attribute_distribution(rep_p, inp.differentiating, cfg.k, cfg.weighting))
        dist_q = renormalize_annotated(attribute_distribution(rep_q, inp.differentiating, cfg.k, cfg.weighting))
        dev_p = {v: dist_p[v] - gt.probabilities[v] for v in values}
        dev_q = {v: dist_q[v] - gt.probabilities[v] for v in values}
        per_query[query_id] = max(abs(dev_p[v] - dev_q[v]) for v in values) / 2.0
        for v in values:
            dev_sums[CLASS_P][v] += dev_p[v]
            dev_sums[CLASS_PBAR][v] += dev_q[v]
        content_sums[CLASS_P] += max(abs(d) for d in dev_p.values())
        content_sums[CLASS_PBAR] += max(abs(d) for d in dev_q.values())
    n_q = len(queries)
    deviations = {label: {v: s / n_q for v, s in sums.items()} for label, sums in dev_sums.items()}
    opposite = [
        v
        for v in values
        if (deviations[CLASS_P][v] > epsilon and deviations[CLASS_PBAR][v] < -epsilon)
        or (deviations[CLASS_P][v] < -epsilon and deviations[CLASS_PBAR][v] > epsilon)
    ]
    magnitude = _mean_or_max(per_query, cfg.query_aggregation)
    diagnostics = {
        "echo_flag": bool(opposite),
        "opposite_values": opposite,
        "deviations": deviations,
        "content_bias": {label: s / n_q for label, s in content_sums.items()},
    }
    return BiasVerdict("echo_chamber_test", magnitude, epsilon, per_query, diagnostics)


MEMBER_IMPLS = {
    "group_user_bias": group_user_bias_members,
    "probabilistic_group_bias": probabilistic_members,
    "echo_chamber_test": echo_members,
    "combined_bias": combined_members,
}


def member_ids(users: Sequence[str], weights: np.ndarray) -> list[str]:
    """Each user repeated by its multiplicity in one weight row."""
    return [u for u, w in zip(users, weights.tolist()) for _ in range(int(round(w)))]


def oracle_verdict(inp: AuditInput, measure: str, w_p: np.ndarray, w_q: np.ndarray) -> BiasVerdict:
    """The object-path verdict of one weighting (W_P, W_Q) of sorted users."""
    users = inp.user_ids()
    return MEMBER_IMPLS[measure](inp, member_ids(users, w_p), member_ids(users, w_q))
