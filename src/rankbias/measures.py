"""Bias measures over an audit input: individual user bias, group user bias
(aggregating and probabilistic variants), content bias against a ground
truth, combined user-content bias, echo-chamber detection, and comparative
audits between two providers.

Every measure returns a :class:`BiasVerdict` and is a deterministic pure
function of its inputs.

The group measures share one evaluation engine, ``_RankContext``: per-query
arrays that evaluate a block of class weightings at once, one weight row per
weighting. A verdict is the row of the observed classes; the significance
module's permutation and bootstrap replicates are further rows of the same
engine, so an observed value equals its verdict bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import _vector
# aggregate is not called here: the benchmark harness wraps measures.aggregate
from .aggregation import AGGREGATOR_NAMES, ListCollection, aggregate
from .distances import (
    _check_range,
    attribute_distribution,
    distribution_distance,
    kendall_distance,
    rank_weights,
    rbo_distance,
    topk_overlap_distance,
)
from .errors import (
    ConfigError,
    DegenerateInputWarning,
    InputError,
    MeasureUndefinedError,
    ModeError,
    ParameterError,
    ProfileError,
    SchemaError,
)
from .types import (
    DIFFERENTIATING,
    PROB_TOL,
    AttributeSchema,
    GroundTruth,
    RankedList,
    UserProfile,
    _as_float,
    _is_number,
    from_json,
    to_json,
)

DR_KINDS = ("kendall", "rbo", "topk", "distribution")
WEIGHTINGS = ("uniform", "rank-discounted")
QUERY_AGGREGATIONS = ("mean", "max")

#: Default bias thresholds by the space a measure's magnitude lives in.
DEFAULT_EPSILON = {"list": 0.1, "distribution": 0.05}

#: Lists closer than this are treated as the same variant when estimating
#: list-receipt probabilities (raw personalization noise makes exact
#: equality vacuous).
VARIANT_MERGE_RADIUS = 0.05

CLASS_P = "P"
CLASS_PBAR = "P-bar"


@dataclass(frozen=True)
class MeasureConfig:
    """Knobs shared by all measures.

    ``epsilon`` of None resolves per measure: 0.1 for list-space magnitudes,
    0.05 for distribution-space ones. ``agg_depth`` caps the representative
    lists' depth (default: the maximum input depth per query).
    """

    epsilon: float | None = None
    k: int = 10
    dr_kind: str = "kendall"
    weighting: str = "uniform"
    aggregator: str = "borda"
    query_aggregation: str = "mean"
    rbo_p: float = 0.9
    relevant_attrs: tuple[str, ...] = ()
    numeric_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    agg_depth: int | None = None

    def __post_init__(self) -> None:
        if self.epsilon is not None and not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ParameterError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        if from_json(int, self.k, "k", ParameterError) < 1:
            raise ParameterError(f"k must be >= 1, got {self.k!r}")
        if self.dr_kind not in DR_KINDS:
            raise ParameterError(f"dr_kind must be one of {DR_KINDS}, got {self.dr_kind!r}")
        if self.weighting not in WEIGHTINGS:
            raise ParameterError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if self.aggregator not in AGGREGATOR_NAMES:
            raise ParameterError(f"aggregator must be one of {AGGREGATOR_NAMES}, got {self.aggregator!r}")
        if self.query_aggregation not in QUERY_AGGREGATIONS:
            raise ParameterError(
                f"query_aggregation must be one of {QUERY_AGGREGATIONS}, got {self.query_aggregation!r}"
            )
        if not (0.0 < self.rbo_p < 1.0):
            raise ParameterError(f"rbo_p must lie in (0, 1), got {self.rbo_p!r}")
        if self.agg_depth is not None and from_json(int, self.agg_depth, "agg_depth", ParameterError) < 1:
            raise ParameterError(f"agg_depth must be >= 1, got {self.agg_depth!r}")
        object.__setattr__(self, "relevant_attrs", tuple(self.relevant_attrs))
        ranges = {a: (_as_float(lo), _as_float(hi)) for a, (lo, hi) in self.numeric_ranges.items()}
        object.__setattr__(self, "numeric_ranges", ranges)
        for attr, bounds in ranges.items():
            _check_range(attr, bounds, ParameterError)

    def resolve_epsilon(self, space: str) -> float:
        return self.epsilon if self.epsilon is not None else DEFAULT_EPSILON[space]

    @classmethod
    def from_dict(cls, data: object, where: str = "config") -> "MeasureConfig":
        return from_json(cls, data, where, ConfigError)

    def to_dict(self) -> dict[str, object]:
        return to_json(self)


@dataclass(frozen=True)
class AuditInput:
    """Everything one audit needs: profiles, the (user, query) -> list map,
    the protected-class designation, the differentiating attribute, and an
    optional ground truth (single, or one per query)."""

    profiles: tuple[UserProfile, ...]
    lists: dict[tuple[str, str], RankedList]
    protected_attribute: str
    protected_value: object
    differentiating: AttributeSchema
    ground_truth: GroundTruth | dict[str, GroundTruth] | None = None
    config: MeasureConfig = field(default_factory=MeasureConfig)
    _by_id: dict[str, UserProfile] = field(init=False, repr=False, compare=False)
    _batches: dict[str, ListCollection] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        profiles = tuple(self.profiles)
        object.__setattr__(self, "profiles", profiles)
        if not profiles:
            raise InputError("audit requires at least one profile")
        by_id: dict[str, UserProfile] = {}
        for profile in profiles:
            if profile.user_id in by_id:
                raise ProfileError(f"duplicate profile for user {profile.user_id!r}")
            if self.protected_attribute not in profile.protected:
                raise ProfileError(
                    f"profile {profile.user_id!r} lacks protected attribute {self.protected_attribute!r}"
                )
            by_id[profile.user_id] = profile
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_batches", {})
        for (user_id, query_id), ranked in self.lists.items():
            if user_id not in by_id:
                raise InputError(f"list for unknown user {user_id!r}")
            if ranked.user_id != user_id or ranked.query_id != query_id:
                raise InputError(
                    f"list keyed ({user_id!r}, {query_id!r}) carries ids ({ranked.user_id!r}, {ranked.query_id!r})"
                )
        # every key names a known user, so the keys fill the grid unless some are missing
        grid = len(by_id) * len({query_id for _, query_id in self.lists})
        if len(self.lists) < grid:
            raise InputError(
                f"{grid - len(self.lists)} of {grid} (user, query) result lists are missing: "
                "every user needs a list for every query"
            )
        if self.differentiating.kind != DIFFERENTIATING:
            raise SchemaError(f"attribute {self.differentiating.name!r} is not a differentiating attribute")
        for gt in self._ground_truths():
            if gt.attribute != self.differentiating.name:
                raise SchemaError(
                    f"ground truth is for {gt.attribute!r}, audit differentiates {self.differentiating.name!r}"
                )
            if set(gt.probabilities) != set(self.differentiating.values):
                raise SchemaError("ground-truth values do not match the differentiating attribute schema")

    def _ground_truths(self) -> list[GroundTruth]:
        if self.ground_truth is None:
            return []
        if isinstance(self.ground_truth, GroundTruth):
            return [self.ground_truth]
        return list(self.ground_truth.values())

    def user_ids(self) -> tuple[str, ...]:
        return tuple(sorted(p.user_id for p in self.profiles))

    def queries(self) -> tuple[str, ...]:
        return tuple(sorted({query_id for _, query_id in self.lists}))

    def profile(self, user_id: str) -> UserProfile:
        try:
            return self._by_id[user_id]
        except KeyError:
            raise InputError(f"unknown user {user_id!r}") from None

    def in_class_p(self, profile: UserProfile) -> bool:
        return profile.protected[self.protected_attribute] == self.protected_value

    def split(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Sorted user ids of class P and its complement; both must be non-empty."""
        p_ids = tuple(sorted(p.user_id for p in self.profiles if self.in_class_p(p)))
        q_ids = tuple(sorted(p.user_id for p in self.profiles if not self.in_class_p(p)))
        if not p_ids or not q_ids:
            raise InputError(
                f"group measures need both classes non-empty (|P|={len(p_ids)}, |P-bar|={len(q_ids)})"
            )
        return p_ids, q_ids

    def list_for(self, user_id: str, query_id: str) -> RankedList:
        try:
            return self.lists[(user_id, query_id)]
        except KeyError:
            raise InputError(f"no result list for user {user_id!r} on query {query_id!r}") from None

    def batch(self, query_id: str) -> ListCollection:
        """One query's lists in ``user_ids()`` order, labelled ``"all"``,
        encoded on first use and kept as long as this input."""
        if query_id not in self._batches:
            self._batches[query_id] = ListCollection([self.list_for(u, query_id) for u in self.user_ids()], "all")
        return self._batches[query_id]

    def gt_for(self, query_id: str) -> GroundTruth | None:
        if self.ground_truth is None or isinstance(self.ground_truth, GroundTruth):
            return self.ground_truth
        return self.ground_truth.get(query_id)


@dataclass(frozen=True)
class BiasVerdict:
    """Outcome of one measure: magnitude, threshold, per-query breakdown,
    and free-form diagnostics. ``biased`` is always magnitude > threshold."""

    measure_name: str
    magnitude: float
    threshold: float
    per_query: dict[str, float] = field(default_factory=dict)
    diagnostics: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "magnitude", float(self.magnitude))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "per_query", {q: float(v) for q, v in self.per_query.items()})
        if self.magnitude < 0:
            raise InputError(f"bias magnitude must be >= 0, got {self.magnitude!r}")

    @property
    def biased(self) -> bool:
        return self.magnitude > self.threshold

    def to_dict(self) -> dict[str, object]:
        return {
            "measure": self.measure_name,
            "magnitude": self.magnitude,
            "threshold": self.threshold,
            "biased": self.biased,
            "per_query": dict(sorted(self.per_query.items())),
            "diagnostics": self.diagnostics,
        }


def list_space_distance(a: RankedList, b: RankedList, attribute: AttributeSchema, config: MeasureConfig) -> float:
    """The configured ranked-list distance."""
    if config.dr_kind == "kendall":
        return kendall_distance(a, b)
    if config.dr_kind == "rbo":
        return rbo_distance(a, b, config.rbo_p)
    if config.dr_kind == "topk":
        return topk_overlap_distance(a, b, config.k)
    return distribution_distance(
        attribute_distribution(a, attribute, config.k, config.weighting),
        attribute_distribution(b, attribute, config.k, config.weighting),
    )


def _list_distance_matrix(inp: AuditInput, query_id: str) -> np.ndarray:
    """All-pairs twin of list_space_distance over one query's batch."""
    cfg, batch = inp.config, inp.batch(query_id)
    if cfg.dr_kind != "distribution":
        return _vector.list_distance_matrix(batch.rows, cfg.dr_kind, cfg.k, cfg.rbo_p)
    if not batch.depths.all():
        user = inp.user_ids()[batch.depths.argmin()]
        raise MeasureUndefinedError(f"empty list ({user!r}, {query_id!r}) has no attribute distribution")
    top = np.minimum(batch.depths, cfg.k)
    # each list's first top occurrences; a shorter list repeats its last one under rank weight 0
    start = np.cumsum(batch.depths) - batch.depths
    occurrences = np.minimum(start[:, None] + np.arange(top.max()), (start + top - 1)[:, None])
    table = _vector.AnnotationTable(batch, inp.differentiating.name, inp.differentiating.values)
    return _vector.chebyshev_matrix(_top_distribution(top, cfg.weighting, *table.own(occurrences)))


def _top_distribution(top: np.ndarray, weighting: str, on: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Top-k attribute distribution [R x values] over the first ``top[r]``
    rank positions of row r, annotated or not (``on`` [R x t]) with weights
    ``vec`` [R x t x values]; mirrors attribute_distribution, then
    renormalize_annotated."""
    rank_w = np.zeros(on.shape)
    for t in np.unique(top).tolist():
        rank_w[top == t, :t] = rank_weights(t, weighting)
    # running sums over rank positions, in the order attribute_distribution
    # adds them; past a row's top the rank weight is 0 and adds nothing
    dist = np.cumsum(rank_w[..., None] * vec, axis=1)[:, -1]
    unannotated = np.cumsum(np.where(on, 0.0, rank_w), axis=1)[:, -1]
    # the annotated mass is what the unannotated mass leaves, as in
    # renormalize_annotated, not the sum of the annotated rank weights
    annotated_mass = 1.0 - unannotated
    if (annotated_mass <= PROB_TOL).any():
        raise MeasureUndefinedError("distribution carries no annotated mass")
    return dist / annotated_mass[:, None]


def _aggregate_queries(per_query: Sequence[float] | np.ndarray, how: str) -> np.ndarray:
    """Aggregate per-query values [... x queries] over the battery: their
    max, or their mean summed left to right in query order, as a scalar
    loop adds them."""
    values = np.asarray(per_query, dtype=np.float64)
    if values.shape[-1] == 0:
        raise InputError("no queries to aggregate")
    if how == "max":
        return values.max(axis=-1)
    total = values[..., 0].copy()
    for column in range(1, values.shape[-1]):
        total += values[..., column]
    return total / values.shape[-1]


def _list_kind(config: MeasureConfig) -> str:
    """The ranked-list distance of a measure that needs one: the configured
    distance, or Kendall under the distribution distance."""
    return "kendall" if config.dr_kind == "distribution" else config.dr_kind


def _epsilon_space(config: MeasureConfig) -> str:
    return "distribution" if config.dr_kind == "distribution" else "list"


def _representative_depth(inp: AuditInput, deepest):
    """Common depth of representatives aggregated from lists whose deepest
    is ``deepest`` items deep; elementwise over an array of such depths."""
    if inp.config.agg_depth is not None:
        deepest = np.minimum(deepest, inp.config.agg_depth)
    return np.maximum(deepest, 1)


def attribute_associations(inp: AuditInput) -> dict[str, float]:
    """Association in [0, 1] between protected-class membership and each
    non-protected attribute: Cramer's V for categorical attributes, absolute
    point-biserial correlation for numeric ones.

    A confounding diagnostic only; high association means the population
    cannot separate the protected attribute's effect from that attribute's,
    not that either causes bias.
    """
    labels = np.array([1.0 if inp.in_class_p(p) else 0.0 for p in inp.profiles])
    if labels.std() == 0.0:
        return {}
    out: dict[str, float] = {}
    names = sorted({a for p in inp.profiles for a in p.other})
    for attr in names:
        values = [p.other.get(attr) for p in inp.profiles]
        if any(v is None for v in values):
            continue
        if all(map(_is_number, values)):
            x = np.asarray(values, dtype=np.float64)
            if x.std() == 0.0:
                out[attr] = 0.0
                continue
            out[attr] = float(abs(np.corrcoef(x, labels)[0, 1]))
        else:
            enc = _vector.value_codes(values)
            n = len(enc)
            chi2 = 0.0
            for code in range(int(enc.max()) + 1):
                for cls in (0.0, 1.0):
                    observed = float(((enc == code) & (labels == cls)).sum())
                    expected = (enc == code).sum() * (labels == cls).sum() / n
                    if expected > 0:
                        chi2 += (observed - expected) ** 2 / expected
            # binary class: Cramer's V reduces to sqrt(chi2 / n)
            out[attr] = float(min(1.0, np.sqrt(chi2 / n)))
    return out


# ---------------------------------------------------------------------------
# individual user bias


def individual_user_bias(inp: AuditInput) -> BiasVerdict:
    """Check that similar users receive similar lists: for every user pair
    and query, the violation is max(0, D_R - D_u); the verdict reports the
    largest query-aggregated violation across pairs, with threshold 0.

    Protected attributes never enter D_u, so clones differing only in a
    protected attribute must receive (near-)identical lists to pass.
    """
    per_query, violation = _individual_violations(inp)
    users = inp.user_ids()
    iu, ju = np.triu_indices(len(users), k=1)
    values = violation[iu, ju]
    top = np.lexsort((ju, iu, -values))[:10].tolist()
    diagnostics = {
        "top_pairs": [[users[iu[t]], users[ju[t]], float(values[t])] for t in top],
        "n_pairs": int(values.size),
        "dr_kind": inp.config.dr_kind,
        "query_aggregation": inp.config.query_aggregation,
    }
    return BiasVerdict("individual_user_bias", float(values.max()), 0.0, per_query, diagnostics)


def _individual_violations(inp: AuditInput) -> tuple[dict[str, float], np.ndarray]:
    """Per-query worst violation, and the query-aggregated violation matrix
    max(0, D_R - D_u) over users in sorted order (zero diagonal)."""
    users = inp.user_ids()
    if len(users) < 2:
        raise MeasureUndefinedError("individual user bias needs at least two profiles")
    cfg = inp.config
    if not cfg.relevant_attrs:
        raise ParameterError("individual user bias requires relevant_attrs in the measure config")
    queries = inp.queries()
    if not queries:
        raise InputError("no result lists to audit")
    profiles = [inp.profile(user_id) for user_id in users]
    du = _vector.user_distance_matrix(profiles, cfg.relevant_attrs, cfg.numeric_ranges)
    acc = np.zeros_like(du)
    per_query: dict[str, float] = {}
    for query_id in queries:
        violation = _list_distance_matrix(inp, query_id)
        np.maximum(np.subtract(violation, du, out=violation), 0.0, out=violation)
        np.fill_diagonal(violation, 0.0)
        per_query[query_id] = float(violation.max())
        if cfg.query_aggregation == "max":
            np.maximum(acc, violation, out=acc)
        else:
            acc += violation
    if cfg.query_aggregation == "mean":
        acc /= len(queries)
    return per_query, acc


# ---------------------------------------------------------------------------
# group-measure engine


GROUP_MEASURES = ("group_user_bias", "probabilistic_group_bias", "echo_chamber_test", "combined_bias")

@dataclass(frozen=True)
class _Evaluation:
    """One group measure over a block of class weightings: per-query values
    [rows x queries] and the diagnostics the verdicts report."""

    per_query: np.ndarray
    #: the deeper class representative's depth [rows x queries]
    rep_depths: np.ndarray
    #: distinct list variants, raw and merged [rows x queries x 2]
    variant_counts: np.ndarray
    #: each class's deviation from the ground truth [2 x rows x queries x values]
    deviations: np.ndarray


class _RankContext:
    """Per-query tables over an audit input's batches that evaluate a group
    measure for a block of class weightings at once, a few matrix operations
    per query. A weighting is a pair of rows (W_P, W_Q) of per-user
    multiplicities in sorted-user order: the observed classes, a label
    permutation or a bootstrap resample.

    Representatives come from one rank table per query, whose Borda scores,
    median-rank keys and Kemeny pair costs are exact integers or halves, so
    they follow the public aggregators' ordering and tie-breaking exactly.
    """

    def __init__(self, inp: AuditInput) -> None:
        self.inp = inp
        self.cfg = inp.config
        self.values = inp.differentiating.values
        self.users = inp.user_ids()
        self.queries = inp.queries()
        # per query: its batch, ground truth and the tables built on first use
        self.per_query: list[dict[str, object]] = []
        for query_id in self.queries:
            gt = inp.gt_for(query_id)
            self.per_query.append({
                "query_id": query_id,
                "batch": inp.batch(query_id),
                "gt": np.array([gt.probabilities[v] for v in self.values]) if gt else None,
            })

    def observed(self) -> tuple[np.ndarray, np.ndarray]:
        """The observed classes as one weighting [1 x users]; both classes
        must be non-empty."""
        self.inp.split()
        w_p = np.array([[self.inp.in_class_p(self.inp.profile(u)) for u in self.users]], dtype=np.float64)
        return w_p, 1.0 - w_p

    def _representatives(self, q: dict, weights: np.ndarray, depth: np.ndarray) -> list[np.ndarray]:
        """Pool indices of each row's weighted representative, deepest first."""
        if "table" not in q:
            q["table"] = _vector.RankTable(q["batch"])
        order, held = q["table"].order(weights, self.cfg.aggregator)
        return [row[:n] for row, n in zip(order, np.minimum(depth, held).tolist())]

    def _rep_distribution(self, q: dict, weights: np.ndarray, reps: list[np.ndarray], label: str) -> np.ndarray:
        """Top-k attribute distribution of each row's representative [R x
        values], its annotations merged by the aggregators' table."""
        top = np.array([min(self.cfg.k, rep.size) for rep in reps])
        if (top == 0).any():
            raise InputError(f"cannot take attribute distribution of empty list ({label!r}, {q['query_id']!r})")
        cols = np.zeros((len(reps), top.max()), dtype=np.int64)
        for r, rep in enumerate(reps):
            cols[r, : top[r]] = rep[: top[r]]
        # built on first use: list-space group bias never reads annotations
        if "annotations" not in q:
            q["annotations"] = _vector.AnnotationTable(q["batch"], self.inp.differentiating.name, self.values)
        on, vec, _ = q["annotations"].merged(weights, cols)
        return _top_distribution(top, self.cfg.weighting, on, vec)

    def _variant_tv(self, q: dict, w_p: np.ndarray, w_q: np.ndarray, members: np.ndarray):
        """Total variation between the two classes' masses over merged
        variants, and the raw and merged variant counts, per row. A row merges
        only its members' variants, labelled once per distinct member set."""
        variant = q["batch"].labels
        if "clusters" not in q:
            q["variants"] = [q["batch"].rows[r] for r in np.unique(variant, return_index=True)[1].tolist()]
            q["edges"] = _variant_edges(self.inp, q["variants"])
            q["clusters"] = np.array(cluster_variants(q["variants"], q["edges"]), dtype=np.int64)[variant]
        kept = np.zeros((len(w_p), len(q["variants"])), dtype=bool)
        np.logical_or.at(kept, (np.arange(len(kept))[:, None], variant), members)
        labelled = {np.ones(kept.shape[1], dtype=bool).tobytes(): q["clusters"]}
        labels = np.empty(members.shape, dtype=np.int64)
        for r, row in enumerate(kept):
            key = row.tobytes()
            if key not in labelled:
                labelled[key] = _components(q["edges"], row)[variant]
            labels[r] = labelled[key]
        tv, merged = _class_tv(labels, w_p, w_q)
        return tv, np.stack([kept.sum(axis=1), merged], axis=1)

    def evaluate(self, measure: str, w_p: np.ndarray, w_q: np.ndarray) -> _Evaluation:
        """Evaluate ``measure`` for each row of the weight blocks W_P, W_Q
        [R x users]."""
        if measure not in GROUP_MEASURES:
            raise ParameterError(f"unsupported measure {measure!r}")
        cfg = self.cfg
        shape = (len(w_p), len(self.queries))
        result = _Evaluation(
            np.empty(shape, dtype=np.float64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape + (2,), dtype=np.int64),
            np.zeros((2,) + shape + (len(self.values),), dtype=np.float64),
        )
        members = (w_p + w_q) > 0.0
        for qi, q in enumerate(self.per_query):
            if measure == "echo_chamber_test" and q["gt"] is None:
                raise ModeError(f"echo-chamber test needs a ground truth for query {q['query_id']!r}")
            if measure == "probabilistic_group_bias":
                result.per_query[:, qi], result.variant_counts[:, qi] = self._variant_tv(q, w_p, w_q, members)
                continue
            depth = _representative_depth(self.inp, np.where(members, q["batch"].depths, 0).max(axis=1))
            reps_p = self._representatives(q, w_p, depth)
            reps_q = self._representatives(q, w_q, depth)
            result.rep_depths[:, qi] = [max(a.size, b.size) for a, b in zip(reps_p, reps_q)]
            if measure == "group_user_bias" and cfg.dr_kind != "distribution":
                dist = _vector.list_distance_matrix(reps_p + reps_q, cfg.dr_kind, cfg.k, cfg.rbo_p, paired=True)
                if any(a.size == b.size == 0 for a, b in zip(reps_p, reps_q)):
                    warnings.warn(f"{cfg.dr_kind} distance of two empty representatives", DegenerateInputWarning)
                result.per_query[:, qi] = np.abs(dist)
                continue
            d_p = self._rep_distribution(q, w_p, reps_p, CLASS_P)
            d_q = self._rep_distribution(q, w_q, reps_q, CLASS_PBAR)
            if measure == "echo_chamber_test":
                dev = result.deviations[:, :, qi]
                dev[0], dev[1] = d_p - q["gt"], d_q - q["gt"]
                result.per_query[:, qi] = np.abs(dev[0] - dev[1]).max(axis=1) / 2.0
            else:
                result.per_query[:, qi] = np.abs(d_p - d_q).max(axis=1)
        return result


def _class_tv(labels: np.ndarray, w_p: np.ndarray, w_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Total variation between the two classes' masses over clusters, and
    the clusters that hold a member, per row of cluster labels [R x users]
    (each below the user count) and of the weight blocks. From the integer
    class counts c_P, c_Q per cluster and class sizes n_P, n_Q it is the
    integer sum |c_P n_Q - c_Q n_P| over 2 n_P n_Q, in one division: with
    fewer than 10^8 users every operand is an integer below 2^53, so each
    value is the exact rational rounded once."""
    offsets = (labels + labels.shape[1] * np.arange(len(labels))[:, None]).ravel()
    c_p, c_q = (np.bincount(offsets, w.ravel(), labels.size).reshape(labels.shape).astype(np.int64) for w in (w_p, w_q))
    n_p, n_q = c_p.sum(axis=1, keepdims=True), c_q.sum(axis=1, keepdims=True)
    tv = np.abs(c_p * n_q - c_q * n_p).sum(axis=1) / (2 * n_p * n_q)[:, 0]
    return tv, ((c_p + c_q) > 0).sum(axis=1)


def _group_verdict(context: _RankContext, measure: str) -> BiasVerdict:
    """The verdict of group measure ``measure``: the engine's row of the
    observed classes, and the diagnostics of that row."""
    cfg, queries = context.cfg, context.queries
    result = context.evaluate(measure, *context.observed())
    p_ids, q_ids = context.inp.split()
    class_sizes = {CLASS_P: len(p_ids), CLASS_PBAR: len(q_ids)}
    epsilon = cfg.resolve_epsilon("distribution")
    if measure == "group_user_bias":
        epsilon = cfg.resolve_epsilon(_epsilon_space(cfg))
        diagnostics = {
            "aggregator": cfg.aggregator,
            "dr_kind": cfg.dr_kind,
            "class_sizes": class_sizes,
            "representative_depths": dict(zip(queries, result.rep_depths[0].tolist())),
        }
    elif measure == "probabilistic_group_bias":
        counts = dict(zip(queries, result.variant_counts[0].tolist()))
        degenerate = [query_id for query_id, (_, merged) in counts.items() if merged < 2]
        diagnostics = {
            "variant_counts": {query_id: {"raw": raw, "merged": merged} for query_id, (raw, merged) in counts.items()},
            "degenerate_queries": degenerate,
            "merge_radius": VARIANT_MERGE_RADIUS,
            "class_sizes": class_sizes,
        }
        if degenerate and len(degenerate) == len(queries):
            diagnostics["degenerate"] = True
    elif measure == "combined_bias":
        diagnostics = {
            "subject_a": f"class:{CLASS_P}",
            "subject_b": f"class:{CLASS_PBAR}",
            "aggregator": cfg.aggregator,
        }
    else:
        # each class's deviations [queries x values]: their battery mean per
        # value, and the mean of their largest (the class's content bias)
        dev = result.deviations[:, 0]
        means = _aggregate_queries(dev.transpose(0, 2, 1), "mean").tolist()
        content = _aggregate_queries(np.abs(dev).max(axis=2), "mean").tolist()
        # pushed above the ground truth for one class and below it for the other
        opposite = [v for v, pair in zip(context.values, zip(*means)) if max(pair) > epsilon and min(pair) < -epsilon]
        diagnostics = {
            "echo_flag": bool(opposite),
            "opposite_values": opposite,
            "deviations": {label: dict(zip(context.values, row)) for label, row in zip((CLASS_P, CLASS_PBAR), means)},
            "content_bias": dict(zip((CLASS_P, CLASS_PBAR), content)),
        }
    magnitude = _aggregate_queries(result.per_query[0], cfg.query_aggregation)
    return BiasVerdict(measure, magnitude, epsilon, dict(zip(queries, result.per_query[0].tolist())), diagnostics)


# ---------------------------------------------------------------------------
# group user bias (aggregating form)


def group_user_bias(inp: AuditInput) -> BiasVerdict:
    """Distance between the two classes' representative lists, per query,
    aggregated over the battery; biased when it exceeds epsilon."""
    return _group_verdict(_RankContext(inp), "group_user_bias")


# ---------------------------------------------------------------------------
# group user bias (probabilistic form)


def cluster_variants(variants: Sequence[np.ndarray], edges: np.ndarray) -> list[int]:
    """Merge near-duplicate list variants (pool-index rows of one query
    batch) by single linkage over their ``_variant_edges``, and return a
    cluster index per variant, numbered in first-appearance order."""
    return _components(edges, np.ones(len(variants), dtype=bool)).tolist()


def _variant_edges(inp: AuditInput, variants: Sequence[np.ndarray]) -> np.ndarray:
    """Index pairs i < j of the variants within ``VARIANT_MERGE_RADIUS``
    (configured list distance; Kendall under the distribution distance)."""
    cfg = inp.config
    dist = _vector.list_distance_matrix(variants, _list_kind(cfg), cfg.k, cfg.rbo_p)
    return np.argwhere(np.triu(dist <= VARIANT_MERGE_RADIUS, k=1))


def _components(edges: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Connected component of each node under the ``edges`` [m x 2] whose
    two ends are both ``kept`` (one entry per node), numbered in
    first-appearance order. FastSV hooking (Zhang, Azad & Hu, 2020) moves
    each parent down to the least grandparent across its edges until none
    moves; each tree is then a star rooted at its component's least node."""
    keep = kept[edges].all(axis=1)
    u, v = (end[keep] for end in edges.T)
    parent, hooked = None, np.arange(len(kept))
    while not np.array_equal(parent, hooked):
        parent, grand, hooked = hooked, hooked[hooked], hooked[hooked]
        for a, b in ((u, v), (v, u)):
            np.minimum.at(hooked, parent[a], grand[b])
            np.minimum.at(hooked, a, grand[b])
    return np.unique(parent, return_inverse=True)[1]


def probabilistic_group_bias(inp: AuditInput) -> BiasVerdict:
    """Total-variation distance between the two classes' distributions over
    distinct list variants, per query; near-duplicate variants merge first.

    Zero (with a degenerate flag) when fewer than two distinct variants
    exist.
    """
    return _group_verdict(_RankContext(inp), "probabilistic_group_bias")


# ---------------------------------------------------------------------------
# content bias


def content_bias(inp: AuditInput, subject: RankedList | Mapping[str, RankedList]) -> BiasVerdict:
    """Distance between the subject's attribute distribution and the ground
    truth, per query. The subject is a single list or a per-query mapping
    (e.g. class representatives)."""
    cfg = inp.config
    subjects = {subject.query_id: subject} if isinstance(subject, RankedList) else dict(subject)
    if not subjects:
        raise InputError("content bias needs at least one subject list")
    per_query: dict[str, float] = {}
    distributions: dict[str, dict[str, float]] = {}
    for query_id in sorted(subjects):
        gt = inp.gt_for(query_id)
        if gt is None:
            raise ModeError(
                f"content bias needs a ground truth for query {query_id!r}; use comparative_bias instead"
            )
        dist = attribute_distribution(subjects[query_id], inp.differentiating, cfg.k, cfg.weighting)
        per_query[query_id] = distribution_distance(dist, gt.probabilities)
        distributions[query_id] = dist
    magnitude = _aggregate_queries(list(per_query.values()), cfg.query_aggregation)
    diagnostics = {
        "subject": subjects[sorted(subjects)[0]].user_id,
        "distributions": distributions,
        "k": cfg.k,
        "weighting": cfg.weighting,
    }
    return BiasVerdict("content_bias", magnitude, cfg.resolve_epsilon("distribution"), per_query, diagnostics)


# ---------------------------------------------------------------------------
# combined user-content bias


def combined_bias(inp: AuditInput, u1: str | None = None, u2: str | None = None) -> BiasVerdict:
    """Largest per-value gap between the attribute distributions seen by two
    subjects (two users, or the two classes when no users are named).

    Ground truth does not enter: equally biased content on both sides is no
    user bias.
    """
    if (u1 is None) != (u2 is None):
        raise ParameterError("combined bias needs either two user ids or none (class mode)")
    if u1 is None:
        return _group_verdict(_RankContext(inp), "combined_bias")
    for user_id in (u1, u2):
        inp.profile(user_id)  # validates existence
    per_query: dict[str, float] = {}
    cfg = inp.config
    for query_id in inp.queries():
        d1 = attribute_distribution(inp.list_for(u1, query_id), inp.differentiating, cfg.k, cfg.weighting)
        d2 = attribute_distribution(inp.list_for(u2, query_id), inp.differentiating, cfg.k, cfg.weighting)
        per_query[query_id] = distribution_distance(d1, d2)
    magnitude = _aggregate_queries(list(per_query.values()), cfg.query_aggregation)
    subjects = {"subject_a": u1, "subject_b": u2}
    return BiasVerdict(
        "combined_bias", magnitude, cfg.resolve_epsilon("distribution"), per_query, subjects
    )


# ---------------------------------------------------------------------------
# echo-chamber detection


def echo_chamber_test(inp: AuditInput) -> BiasVerdict:
    """Detect opposite-direction over/under-representation: some attribute
    value pushed above the ground truth for one class and below it for the
    other, each by more than epsilon.

    The magnitude is half the largest per-value gap between the two classes'
    signed deviations; the directional pattern itself is reported as
    ``diagnostics["echo_flag"]``.
    """
    return _group_verdict(_RankContext(inp), "echo_chamber_test")


# ---------------------------------------------------------------------------
# comparative audits (no ground truth needed)


def comparative_bias(
    lists_a: Mapping[str, RankedList],
    lists_b: Mapping[str, RankedList],
    attribute: AttributeSchema,
    config: MeasureConfig,
) -> BiasVerdict:
    """Compare two providers on a shared query battery without any ground
    truth: per query, the per-value distribution gap (primary channel) and
    the configured list-space distance (secondary channel)."""
    shared = sorted(set(lists_a) & set(lists_b))
    if not shared:
        raise InputError("comparative audit needs a shared query battery")
    list_cfg = replace(config, dr_kind=_list_kind(config))
    dist_channel: dict[str, float] = {}
    list_channel: dict[str, float] = {}
    for query_id in shared:
        a, b = lists_a[query_id], lists_b[query_id]
        da = attribute_distribution(a, attribute, config.k, config.weighting)
        db = attribute_distribution(b, attribute, config.k, config.weighting)
        dist_channel[query_id] = distribution_distance(da, db)
        list_channel[query_id] = list_space_distance(a, b, attribute, list_cfg)
    magnitude = _aggregate_queries(list(dist_channel.values()), config.query_aggregation)
    diagnostics = {
        "list_channel": {
            "magnitude": float(_aggregate_queries(list(list_channel.values()), config.query_aggregation)),
            "per_query": list_channel,
            "dr_kind": list_cfg.dr_kind,
        },
        "shared_queries": shared,
    }
    return BiasVerdict(
        "comparative_bias",
        magnitude,
        config.resolve_epsilon("distribution"),
        dist_channel,
        diagnostics,
    )
