"""Statistical significance for group-level measures: permutation tests over
protected-class labels and percentile bootstrap intervals over users.

Both are deterministic given a seed: the full stream of permutations or
resamples is generated up front from one PCG64 generator, so results do not
depend on evaluation order.

For Borda- and median-aggregated audits the replicates run in blocks on a
vectorized context that reproduces the public measures exactly (integer
Borda scores and median-rank keys, identical tie-breaking): each block is a
pair of weight matrices, one row per replicate, evaluated with a few matrix
products and row-wise sorts per query. A block holds as many replicates as
fit one weight row per user in a fixed byte budget, and no result depends
on where the blocks break. Kemeny aggregation falls back to re-running the
measure per replicate.
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
    _distinct_variants,
    _probabilistic_members,
    _representative_depth,
    _single_linkage,
    _variant_edges,
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

    rng = np.random.default_rng(seed)
    # argsort of iid uniforms: one uniform random permutation per row,
    # pre-generated so evaluation order cannot affect the stream
    permutations = np.argsort(rng.random((n_permutations, len(users))), axis=1)

    def labelling(block: slice) -> tuple[np.ndarray, np.ndarray]:
        # replicate 0 is the observed labelling, replicate i the i-th permutation
        order = permutations[max(block.start - 1, 0) : block.stop - 1]
        if block.start == 0:
            order = np.vstack([np.arange(len(users)), order])
        shuffled = labels[order]
        return shuffled, 1.0 - shuffled

    evaluate = _make_evaluator(inp, measure, 1 + n_permutations, labelling)
    observed = evaluate(0)
    null = np.array([evaluate(r) for r in range(1, 1 + n_permutations)], dtype=np.float64)

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
        draws_p = rng.integers(0, len(p_ids), size=(n_resamples, len(p_ids)))
        draws_q = rng.integers(0, len(q_ids), size=(n_resamples, len(q_ids)))

        def resampled(block: slice) -> tuple[np.ndarray, np.ndarray]:
            return (
                _multiplicities(p_pos[draws_p[block]], len(users)),
                _multiplicities(q_pos[draws_q[block]], len(users)),
            )

        evaluate = _make_evaluator(inp, measure, n_resamples, resampled)
        for r in range(n_resamples):
            stats[r] = evaluate(r)

    alpha = 1.0 - confidence_level
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# replicated evaluation


#: Representative pairs compared by one list-kernel call: the kernels are
#: all-pairs, so a wider stack wastes more than it saves in call overhead.
_PAIRS_PER_CALL = 8


def _block_rows(n_users: int) -> int:
    """Replicates per evaluated block: as many weight rows (8 bytes per
    user) as fit the list kernels' chunk budget."""
    return max(1, _vector._CHUNK_BYTES // (8 * n_users))


def _multiplicities(drawn: np.ndarray, n_users: int) -> np.ndarray:
    """Per-user counts [R x users] of each row's drawn user positions."""
    offsets = drawn + n_users * np.arange(len(drawn))[:, None]
    return np.bincount(offsets.ravel(), minlength=n_users * len(drawn)).reshape(-1, n_users).astype(np.float64)


def _make_evaluator(
    inp: AuditInput,
    measure: str,
    n_replicates: int,
    weights: Callable[[slice], tuple[np.ndarray, np.ndarray]],
) -> Callable[[int], float]:
    """Return f(r) -> the magnitude of replicate r < ``n_replicates``, where
    ``weights(block)`` gives the weight blocks (W_P, W_Q) of a slice of
    replicates. Replicates are evaluated a block of ``_block_rows`` at a
    time, when a row of the block is first asked for."""
    evaluate = _block_evaluator(inp, measure)
    rows = _block_rows(len(inp.user_ids()))
    held: dict[int, np.ndarray] = {}

    def replicate(r: int) -> float:
        start = r - r % rows
        if start not in held:
            held.clear()
            held[start] = evaluate(*weights(slice(start, min(start + rows, n_replicates))))
        return held[start][r - start]

    return replicate


def _block_evaluator(inp: AuditInput, measure: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Return f(W_P, W_Q) -> magnitudes, one per row, where the [R x users]
    weight blocks hold per-user multiplicities in sorted-user order."""
    if inp.config.aggregator != "kemeny":
        context = _RankContext(inp)
        return lambda w_p, w_q: context.evaluate(measure, w_p, w_q)
    users = inp.user_ids()
    impl = _MEMBER_IMPLS[measure]

    def ids(weights: np.ndarray) -> list[str]:
        return [u for u, w in zip(users, weights.tolist()) for _ in range(int(round(w)))]

    return lambda w_p, w_q: np.array([impl(inp, ids(p), ids(q)).magnitude for p, q in zip(w_p, w_q)])


class _RankContext:
    """Per-query numpy encodings that evaluate a group measure for a block of
    memberships at once, a few matrix operations per query.

    Borda scores are integer sums, and median-rank keys come from integer
    rank sums and counts, so the representatives reproduce the public
    aggregators' ordering and tie-breaking exactly.
    """

    def __init__(self, inp: AuditInput) -> None:
        self.inp = inp
        self.cfg = inp.config
        self.values = inp.differentiating.values
        self.per_query: list[dict[str, object]] = []
        for query_id in inp.queries():
            lists = [inp.list_for(u, query_id) for u in inp.user_ids()]
            pool = _vector.item_pool(lists)
            seqs = _vector.encode_lists(lists, pool)
            gt = inp.gt_for(query_id)
            q: dict[str, object] = {
                "lists": lists,
                "seqs": seqs,
                "width": len(pool),
                "depths": np.array([seq.size for seq in seqs]),
                "gt": np.array([gt.probabilities[v] for v in self.values]) if gt else None,
            }
            if self.cfg.aggregator == "median":
                q["median"] = _vector.MedianRanks(seqs, len(pool))
            else:
                scores = np.zeros((len(lists), len(pool)), dtype=np.float64)
                for row, seq in enumerate(seqs):
                    scores[row, seq] = seq.size - np.arange(seq.size)
                q["scores"] = scores
            self.per_query.append(q)

    def _annotations(self, q: dict) -> tuple[np.ndarray, np.ndarray]:
        """Per (user, item): annotated or not, and the annotation weights
        [users x items*values]; built on first use, since list-space group
        bias never reads them."""
        if "annotated" not in q:
            attr = self.inp.differentiating.name
            value_col = {v: c for c, v in enumerate(self.values)}
            n, width = len(q["lists"]), q["width"]
            annotated = np.zeros((n, width), dtype=np.float64)
            ann = np.zeros((n, width, len(self.values)), dtype=np.float64)
            for row, (lst, seq) in enumerate(zip(q["lists"], q["seqs"])):
                for col, item in zip(seq.tolist(), lst.items):
                    weights = item.annotation_for(attr)
                    if weights:
                        annotated[row, col] = 1.0
                        for value, w in weights.items():
                            ann[row, col, value_col[value]] = w
            q["annotated"], q["ann_flat"] = annotated, ann.reshape(n, -1)
        return q["annotated"], q["ann_flat"]

    def _ensure_variants(self, q: dict) -> None:
        # variant clustering is label-independent but quadratic in distinct
        # variants, so it is only computed when a measure needs it
        if "variant" not in q:
            variants, q["variant"] = _distinct_variants(q["lists"])
            q["edges"] = _variant_edges(self.inp, variants)
            q["clusters"] = _single_linkage(len(variants), q["edges"])[q["variant"]]

    def _representatives(self, q: dict, weights: np.ndarray, depth: np.ndarray) -> list[np.ndarray]:
        """Pool indices of each row's weighted representative, deepest first."""
        if "median" in q:
            order, held = q["median"].order(weights)
        else:
            # every held item scores at least 1, so the items some weighted
            # list holds are those with a positive score, and sort first
            score = weights @ q["scores"]
            order = np.argsort(-score, axis=1, kind="stable")
            held = (score > 0.0).sum(axis=1)
        return [row[:n] for row, n in zip(order, np.minimum(depth, held).tolist())]

    def _rep_distribution(self, q: dict, weights: np.ndarray, reps: list[np.ndarray]) -> np.ndarray:
        """Top-k attribute distribution of each row's representative [R x
        values], renormalized over annotated mass; mirrors
        attribute_distribution + merging, one rank position at a time."""
        cfg = self.cfg
        m = len(self.values)
        annotated, ann_flat = self._annotations(q)
        top = np.array([min(cfg.k, rep.size) for rep in reps])
        cols = np.zeros((len(reps), top.max(initial=0)), dtype=np.int64)
        rank_w = np.zeros(cols.shape, dtype=np.float64)
        for r, rep in enumerate(reps):
            cols[r, : top[r]] = rep[: top[r]]
            rank_w[r, : top[r]] = rank_weights(int(top[r]), cfg.weighting)
        rows = np.arange(len(reps))[:, None]
        counts = (weights @ annotated)[rows, cols]
        sums = (weights @ ann_flat).reshape(len(reps), -1, m)[rows, cols]
        dist = np.zeros((len(reps), m), dtype=np.float64)
        annotated_mass = np.zeros(len(reps), dtype=np.float64)
        for i in range(cols.shape[1]):
            # past a row's top the rank weight is 0 and adds nothing
            on = counts[:, i] > 0.0
            vec = sums[on, i] / counts[on, i, None]
            total = vec.sum(axis=1, keepdims=True)
            np.divide(vec, total, out=vec, where=total > 0.0)
            dist[on] += rank_w[on, i, None] * vec
            annotated_mass[on] += rank_w[on, i]
        if (annotated_mass <= PROB_TOL).any():
            raise InputError("representative list carries no annotated mass")
        return dist / annotated_mass[:, None]

    def _rep_list_distance(self, reps_p: list[np.ndarray], reps_q: list[np.ndarray]) -> np.ndarray:
        """List distance of each representative pair: the (i, n + i) entries
        of one all-pairs kernel call per stack of pairs."""
        cfg = self.cfg
        out = np.empty(len(reps_p), dtype=np.float64)
        for s in range(0, len(reps_p), _PAIRS_PER_CALL):
            stack = reps_p[s : s + _PAIRS_PER_CALL] + reps_q[s : s + _PAIRS_PER_CALL]
            n = len(stack) // 2
            dist = _vector.list_distance_matrix(stack, cfg.dr_kind, cfg.k, cfg.rbo_p)
            out[s : s + n] = dist[np.arange(n), np.arange(n, 2 * n)]
        return out

    def _variant_tv(self, q: dict, w_p: np.ndarray, w_q: np.ndarray, members: np.ndarray) -> np.ndarray:
        """Total variation between the two classes' masses over merged
        variants. A row that leaves users out merges only its members'
        variants, as the object path does."""
        self._ensure_variants(q)
        out = np.zeros(len(w_p), dtype=np.float64)
        everyone = members.all(axis=1)
        clusters = q["clusters"]
        n_clusters = int(clusters.max(initial=-1)) + 1
        if everyone.any() and n_clusters >= 2:
            onehot = (clusters[:, None] == np.arange(n_clusters)).astype(np.float64)
            w_p_all, w_q_all = w_p[everyone], w_q[everyone]
            mass_p = (w_p_all @ onehot) / w_p_all.sum(axis=1, keepdims=True)
            mass_q = (w_q_all @ onehot) / w_q_all.sum(axis=1, keepdims=True)
            out[everyone] = 0.5 * np.abs(mass_p - mass_q).sum(axis=1)
        n_variants = int(q["variant"].max(initial=-1)) + 1
        for r in np.flatnonzero(~everyone).tolist():
            kept = np.zeros(n_variants, dtype=bool)
            kept[q["variant"][members[r]]] = True
            edges = q["edges"][kept[q["edges"]].all(axis=1)]
            labels = _single_linkage(n_variants, edges)[q["variant"]]
            _, labels = np.unique(labels[members[r]], return_inverse=True)
            if labels.max() >= 1:
                mass_p = np.bincount(labels, weights=w_p[r, members[r]]) / w_p[r].sum()
                mass_q = np.bincount(labels, weights=w_q[r, members[r]]) / w_q[r].sum()
                out[r] = 0.5 * np.abs(mass_p - mass_q).sum()
        return out

    def evaluate(self, measure: str, w_p: np.ndarray, w_q: np.ndarray) -> np.ndarray:
        if measure not in _MEMBER_IMPLS:
            raise ParameterError(f"unsupported measure {measure!r}")
        per_query = np.empty((len(w_p), len(self.per_query)), dtype=np.float64)
        members = (w_p + w_q) > 0.0
        for qi, q in enumerate(self.per_query):
            if measure == "probabilistic_group_bias":
                per_query[:, qi] = self._variant_tv(q, w_p, w_q, members)
                continue
            depth = _representative_depth(self.inp, np.where(members, q["depths"], 0).max(axis=1))
            reps_p = self._representatives(q, w_p, depth)
            reps_q = self._representatives(q, w_q, depth)
            if measure == "group_user_bias" and self.cfg.dr_kind != "distribution":
                per_query[:, qi] = self._rep_list_distance(reps_p, reps_q)
                continue
            d_p = self._rep_distribution(q, w_p, reps_p)
            d_q = self._rep_distribution(q, w_q, reps_q)
            if measure == "echo_chamber_test":
                per_query[:, qi] = np.abs((d_p - q["gt"]) - (d_q - q["gt"])).max(axis=1) / 2.0
            else:
                per_query[:, qi] = np.abs(d_p - d_q).max(axis=1)
        return per_query.max(axis=1) if self.cfg.query_aggregation == "max" else per_query.mean(axis=1)
