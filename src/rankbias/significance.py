"""Statistical significance for group-level measures: permutation tests over
protected-class labels and percentile bootstrap intervals over users.

Both are deterministic given a seed: the full stream of permutations or
resamples is generated up front from one PCG64 generator, so results do not
depend on evaluation order.

For Borda- and median-aggregated audits the replicated evaluations run on a
vectorized context that reproduces the public measures exactly (integer
Borda scores and median-rank keys, identical tie-breaking); Kemeny
aggregation falls back to re-running the measure per replicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _vector
from .distances import rank_weights
from .errors import InputError, ParameterError
from .measures import (
    AuditInput,
    _combined_members,
    _echo_members,
    _group_user_bias_members,
    _individual_violations,
    _probabilistic_members,
    _representative_depth,
    _variant_clusters,
)
from .types import PROB_TOL

GROUP_MEASURES = (
    "group_user_bias",
    "probabilistic_group_bias",
    "echo_chamber_test",
    "combined_bias",
)

RESAMPLABLE_MEASURES = GROUP_MEASURES + ("individual_user_bias",)

_MEMBER_IMPLS = {
    "group_user_bias": _group_user_bias_members,
    "probabilistic_group_bias": _probabilistic_members,
    "echo_chamber_test": _echo_members,
    "combined_bias": _combined_members,
}

_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class SignificanceResult:
    """Outcome of a permutation test with the add-one p-value convention:
    p = (1 + #{null >= observed}) / (1 + n_permutations)."""

    observed: float
    null_mean: float
    null_sd: float
    null_quantiles: dict[str, float]
    p_value: float
    n_permutations: int
    seed: int

    def to_dict(self) -> dict[str, object]:
        return {
            "observed": self.observed,
            "null_mean": self.null_mean,
            "null_sd": self.null_sd,
            "null_quantiles": self.null_quantiles,
            "p_value": self.p_value,
            "n_permutations": self.n_permutations,
            "seed": self.seed,
        }


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0 or seed >= 2**64:
        raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return seed


def permutation_test(
    inp: AuditInput,
    measure: str,
    n_permutations: int,
    seed: int,
) -> SignificanceResult:
    """Shuffle the protected-class labels across profiles ``n_permutations``
    times and recompute the named group-level measure each time.

    One-sided: bias magnitudes are non-negative deviations, so only
    null >= observed counts against the observation. The sampling unit is
    the user; query-level dependence is not modelled.
    """
    if measure not in GROUP_MEASURES:
        raise ParameterError(f"permutation test supports group measures {GROUP_MEASURES}, got {measure!r}")
    if n_permutations < 100:
        raise ParameterError(f"n_permutations must be >= 100, got {n_permutations!r}")
    _check_seed(seed)
    inp.split()  # both classes must be non-empty
    users = inp.user_ids()
    labels = np.array([inp.in_class_p(inp.profile(u)) for u in users], dtype=np.float64)

    evaluator = _make_evaluator(inp, measure)
    observed = evaluator(labels, 1.0 - labels)

    rng = np.random.default_rng(seed)
    # argsort of iid uniforms: one uniform random permutation per row,
    # pre-generated so evaluation order cannot affect the stream
    permutations = np.argsort(rng.random((n_permutations, len(users))), axis=1)
    null = np.empty(n_permutations, dtype=np.float64)
    for r in range(n_permutations):
        shuffled = labels[permutations[r]]
        null[r] = evaluator(shuffled, 1.0 - shuffled)

    p_value = (1.0 + int((null >= observed).sum())) / (1.0 + n_permutations)
    quantiles = {f"q{int(q * 100):02d}": float(v) for q, v in zip(_QUANTILES, np.quantile(null, _QUANTILES))}
    return SignificanceResult(
        observed=float(observed),
        null_mean=float(null.mean()),
        null_sd=float(null.std()),
        null_quantiles=quantiles,
        p_value=float(p_value),
        n_permutations=n_permutations,
        seed=seed,
    )


def bootstrap_ci(
    inp: AuditInput,
    measure: str,
    n_resamples: int,
    confidence_level: float,
    seed: int,
) -> tuple[float, float]:
    """Percentile bootstrap interval for a measure's magnitude, resampling
    users with replacement (stratified by class for group measures) and
    carrying their result lists."""
    if measure not in RESAMPLABLE_MEASURES:
        raise ParameterError(f"bootstrap supports measures {RESAMPLABLE_MEASURES}, got {measure!r}")
    if n_resamples < 100:
        raise ParameterError(f"n_resamples must be >= 100, got {n_resamples!r}")
    if not (0.0 < confidence_level < 1.0):
        raise ParameterError(f"confidence_level must lie in (0, 1), got {confidence_level!r}")
    _check_seed(seed)
    users = inp.user_ids()
    if len(users) < 5:
        raise InputError(f"bootstrap needs at least 5 users, got {len(users)}")
    rng = np.random.default_rng(seed)
    stats = np.empty(n_resamples, dtype=np.float64)

    if measure == "individual_user_bias":
        # duplicate members form zero-violation pairs, so a resample's
        # magnitude is the largest violation among its distinct users
        _, violation = _individual_violations(inp)
        n = len(users)
        draws = rng.integers(0, n, size=(n_resamples, n))
        for r in range(n_resamples):
            members = np.unique(draws[r])
            stats[r] = violation[np.ix_(members, members)].max()
    else:
        p_ids, q_ids = inp.split()
        index = {u: i for i, u in enumerate(users)}
        p_pos = np.array([index[u] for u in p_ids])
        q_pos = np.array([index[u] for u in q_ids])
        evaluator = _make_evaluator(inp, measure)
        draws_p = rng.integers(0, len(p_ids), size=(n_resamples, len(p_ids)))
        draws_q = rng.integers(0, len(q_ids), size=(n_resamples, len(q_ids)))
        for r in range(n_resamples):
            w_p = np.zeros(len(users))
            w_q = np.zeros(len(users))
            np.add.at(w_p, p_pos[draws_p[r]], 1.0)
            np.add.at(w_q, q_pos[draws_q[r]], 1.0)
            stats[r] = evaluator(w_p, w_q)

    alpha = 1.0 - confidence_level
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# replicated evaluation


def _make_evaluator(inp: AuditInput, measure: str) -> Callable[[np.ndarray, np.ndarray], float]:
    """Return f(weights_P, weights_Q) -> magnitude, where the weight vectors
    hold per-user multiplicities in sorted-user order."""
    if inp.config.aggregator != "kemeny":
        context = _RankContext(inp)
        return lambda w_p, w_q: context.evaluate(measure, w_p, w_q)
    users = inp.user_ids()
    impl = _MEMBER_IMPLS[measure]

    def slow(w_p: np.ndarray, w_q: np.ndarray) -> float:
        p_ids = [u for u, w in zip(users, w_p.tolist()) for _ in range(int(round(w)))]
        q_ids = [u for u, w in zip(users, w_q.tolist()) for _ in range(int(round(w)))]
        return impl(inp, p_ids, q_ids).magnitude

    return slow


class _RankContext:
    """Per-query numpy encodings that make one membership evaluation of a
    group measure a few matrix operations.

    Borda scores are integer sums, and median-rank keys come from integer
    rank sums and counts, so the representatives reproduce the public
    aggregators' ordering and tie-breaking exactly.
    """

    def __init__(self, inp: AuditInput) -> None:
        self.inp = inp
        self.cfg = inp.config
        self.users = inp.user_ids()
        self.values = inp.differentiating.values
        self.queries = inp.queries()
        self.per_query: list[dict[str, object]] = []
        attr = inp.differentiating.name
        for query_id in self.queries:
            lists = [inp.list_for(u, query_id) for u in self.users]
            pool = _vector.item_pool(lists)
            seqs = _vector.encode_lists(lists, pool)
            n, m = len(self.users), len(self.values)
            value_col = {v: c for c, v in enumerate(self.values)}
            present = np.zeros((n, len(pool)), dtype=np.float64)
            annotated = np.zeros((n, len(pool)), dtype=np.float64)
            ann = np.zeros((n, len(pool), m), dtype=np.float64)
            for row, (lst, seq) in enumerate(zip(lists, seqs)):
                present[row, seq] = 1.0
                for col, item in zip(seq.tolist(), lst.items):
                    weights = item.annotation_for(attr)
                    if weights:
                        annotated[row, col] = 1.0
                        for value, w in weights.items():
                            ann[row, col, value_col[value]] = w
            gt = inp.gt_for(query_id)
            q: dict[str, object] = {
                "lists": lists,
                "depths": np.array([seq.size for seq in seqs]),
                "present": present,
                "annotated": annotated,
                "ann_flat": ann.reshape(n, -1),
                "m": m,
                "gt": np.array([gt.probabilities[v] for v in self.values]) if gt else None,
            }
            if self.cfg.aggregator == "median":
                q["median"] = _vector.MedianRanks(seqs, len(pool))
            else:
                scores = np.zeros((n, len(pool)), dtype=np.float64)
                for row, seq in enumerate(seqs):
                    scores[row, seq] = seq.size - np.arange(seq.size)
                q["scores"] = scores
            self.per_query.append(q)

    def _ensure_clusters(self, q: dict) -> None:
        # variant clustering is label-independent but quadratic in distinct
        # variants, so it is only computed when a measure needs it
        if "clusters" not in q:
            clusters = np.array(_variant_clusters(self.inp, q["lists"])[0], dtype=np.int64)
            q["clusters"] = clusters
            q["n_clusters"] = int(clusters.max()) + 1 if clusters.size else 0

    def _representative(self, q: dict, weights: np.ndarray, depth: int) -> np.ndarray:
        """Pool indices of the weighted representative, deepest first."""
        occurring = (weights @ q["present"]) > 0.0
        if "median" in q:
            return q["median"].order(weights, occurring)[:depth]
        score = weights @ q["scores"]
        order = np.lexsort((np.arange(score.size), -score))
        return order[occurring[order]][:depth]

    def _rep_distribution(self, q: dict, weights: np.ndarray, rep: np.ndarray) -> np.ndarray:
        """Top-k attribute distribution of a representative, renormalized
        over annotated mass; mirrors attribute_distribution + merging."""
        cfg = self.cfg
        m = q["m"]
        counts = (weights @ q["annotated"])[rep]
        sums = (weights @ q["ann_flat"]).reshape(-1, m)[rep]
        top = min(cfg.k, rep.size)
        rank_w = np.array(rank_weights(top, cfg.weighting))
        dist = np.zeros(m, dtype=np.float64)
        annotated_mass = 0.0
        for i in range(top):
            if counts[i] > 0.0:
                vec = sums[i] / counts[i]
                total = vec.sum()
                if total > 0.0:
                    vec = vec / total
                dist += rank_w[i] * vec
                annotated_mass += rank_w[i]
        if annotated_mass <= PROB_TOL:
            raise InputError("representative list carries no annotated mass")
        return dist / annotated_mass

    def _rep_list_distance(self, q: dict, rep_p: np.ndarray, rep_q: np.ndarray, w_p, w_q) -> float:
        cfg = self.cfg
        if cfg.dr_kind != "distribution":
            return float(_vector.list_distance_matrix([rep_p, rep_q], cfg.dr_kind, cfg.k, cfg.rbo_p)[0, 1])
        d_p = self._rep_distribution(q, w_p, rep_p)
        d_q = self._rep_distribution(q, w_q, rep_q)
        return float(np.abs(d_p - d_q).max())

    def evaluate(self, measure: str, w_p: np.ndarray, w_q: np.ndarray) -> float:
        cfg = self.cfg
        per_query = np.empty(len(self.per_query), dtype=np.float64)
        members = (w_p + w_q) > 0.0
        for qi, q in enumerate(self.per_query):
            if measure == "probabilistic_group_bias":
                self._ensure_clusters(q)
                if q["n_clusters"] < 2:
                    per_query[qi] = 0.0
                    continue
                mass_p = np.bincount(q["clusters"], weights=w_p, minlength=q["n_clusters"]) / w_p.sum()
                mass_q = np.bincount(q["clusters"], weights=w_q, minlength=q["n_clusters"]) / w_q.sum()
                per_query[qi] = 0.5 * np.abs(mass_p - mass_q).sum()
                continue
            depth = _representative_depth(self.inp, q["depths"][members].tolist())
            rep_p = self._representative(q, w_p, depth)
            rep_q = self._representative(q, w_q, depth)
            if measure == "group_user_bias":
                per_query[qi] = self._rep_list_distance(q, rep_p, rep_q, w_p, w_q)
            elif measure == "combined_bias":
                d_p = self._rep_distribution(q, w_p, rep_p)
                d_q = self._rep_distribution(q, w_q, rep_q)
                per_query[qi] = np.abs(d_p - d_q).max()
            elif measure == "echo_chamber_test":
                dev_p = self._rep_distribution(q, w_p, rep_p) - q["gt"]
                dev_q = self._rep_distribution(q, w_q, rep_q) - q["gt"]
                per_query[qi] = np.abs(dev_p - dev_q).max() / 2.0
            else:
                raise ParameterError(f"unsupported measure {measure!r}")
        return float(per_query.max() if cfg.query_aggregation == "max" else per_query.mean())
