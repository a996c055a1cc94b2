"""Bias measures over an audit input: individual user bias, group user bias
(aggregating and probabilistic variants), content bias against a ground
truth, combined user-content bias, echo-chamber detection, and comparative
audits between two providers.

Every measure returns a :class:`BiasVerdict` and is a deterministic pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _vector
from .aggregation import ListCollection, aggregate
from .distances import (
    attribute_distribution,
    distribution_distance,
    kendall_distance,
    rbo_distance,
    renormalize_annotated,
    topk_overlap_distance,
)
from .errors import (
    ConfigError,
    InputError,
    MeasureUndefinedError,
    ModeError,
    ParameterError,
    ProfileError,
    SchemaError,
)
from .types import DIFFERENTIATING, AttributeSchema, GroundTruth, RankedList, UserProfile

DR_KINDS = ("kendall", "rbo", "topk", "distribution")
WEIGHTINGS = ("uniform", "rank-discounted")
AGGREGATOR_NAMES = ("borda", "median", "kemeny")
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
        if self.epsilon is not None and self.epsilon < 0:
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if self.k < 1:
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
        if self.agg_depth is not None and self.agg_depth < 1:
            raise ParameterError(f"agg_depth must be >= 1, got {self.agg_depth!r}")
        object.__setattr__(self, "relevant_attrs", tuple(self.relevant_attrs))
        object.__setattr__(
            self,
            "numeric_ranges",
            {str(a): (float(lo), float(hi)) for a, (lo, hi) in dict(self.numeric_ranges).items()},
        )

    def resolve_epsilon(self, space: str) -> float:
        return self.epsilon if self.epsilon is not None else DEFAULT_EPSILON[space]

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MeasureConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown measure-config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "relevant_attrs" in kwargs:
            kwargs["relevant_attrs"] = tuple(kwargs["relevant_attrs"])
        if "numeric_ranges" in kwargs:
            kwargs["numeric_ranges"] = {a: tuple(r) for a, r in dict(kwargs["numeric_ranges"]).items()}
        return cls(**kwargs)

    def to_dict(self) -> dict[str, object]:
        return {
            "epsilon": self.epsilon,
            "k": self.k,
            "dr_kind": self.dr_kind,
            "weighting": self.weighting,
            "aggregator": self.aggregator,
            "query_aggregation": self.query_aggregation,
            "rbo_p": self.rbo_p,
            "relevant_attrs": list(self.relevant_attrs),
            "numeric_ranges": {a: list(r) for a, r in sorted(self.numeric_ranges.items())},
            "agg_depth": self.agg_depth,
        }


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


def index_lists(ranked_lists: Iterable[RankedList]) -> dict[tuple[str, str], RankedList]:
    """Key lists by (user_id, query_id), rejecting duplicates."""
    out: dict[tuple[str, str], RankedList] = {}
    for ranked in ranked_lists:
        key = (ranked.user_id, ranked.query_id)
        if key in out:
            raise InputError(f"duplicate list for user/query {key}")
        out[key] = ranked
    return out


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


def _list_distance_matrix(inp: AuditInput, lists: Sequence[RankedList], kind: str) -> np.ndarray:
    """All-pairs twin of list_space_distance over one query's lists, with
    list distance ``kind``."""
    cfg = inp.config
    if kind == "distribution":
        return _vector.chebyshev_matrix(_vector.distribution_matrix(lists, inp.differentiating, cfg.k, cfg.weighting))
    seqs = _vector.encode_lists(lists, _vector.item_pool(lists))
    return _vector.list_distance_matrix(seqs, kind, cfg.k, cfg.rbo_p)


def _aggregate_queries(per_query: Mapping[str, float], how: str) -> float:
    values = list(per_query.values())
    if not values:
        raise InputError("no queries to aggregate")
    return max(values) if how == "max" else sum(values) / len(values)


def _epsilon_space(config: MeasureConfig) -> str:
    return "distribution" if config.dr_kind == "distribution" else "list"


def _class_lists(inp: AuditInput, member_ids: Sequence[str], query_id: str) -> list[RankedList]:
    return [inp.list_for(user_id, query_id) for user_id in member_ids]


def _representative_depth(inp: AuditInput, depths: Iterable[int]) -> int:
    """Common depth of representatives aggregated from lists of ``depths``."""
    depth = max(depths)
    if inp.config.agg_depth is not None:
        depth = min(depth, inp.config.agg_depth)
    return max(depth, 1)


def class_representatives(
    inp: AuditInput, p_ids: Sequence[str], q_ids: Sequence[str], query_id: str
) -> tuple[RankedList, RankedList]:
    """Aggregate each class's lists for one query into a representative pair
    of common depth."""
    lists_p = _class_lists(inp, p_ids, query_id)
    lists_q = _class_lists(inp, q_ids, query_id)
    depth = _representative_depth(inp, (lst.depth for lst in lists_p + lists_q))
    rep_p = aggregate(ListCollection(lists_p, CLASS_P), depth, inp.config.aggregator)
    rep_q = aggregate(ListCollection(lists_q, CLASS_PBAR), depth, inp.config.aggregator)
    return rep_p, rep_q


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
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        if numeric:
            x = np.asarray(values, dtype=np.float64)
            if x.std() == 0.0:
                out[attr] = 0.0
                continue
            out[attr] = float(abs(np.corrcoef(x, labels)[0, 1]))
        else:
            codes: dict[object, int] = {}
            enc = np.array([codes.setdefault(v, len(codes)) for v in values])
            n = len(enc)
            chi2 = 0.0
            for code in range(len(codes)):
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
        lists = [inp.list_for(user_id, query_id) for user_id in users]
        violation = np.maximum(_list_distance_matrix(inp, lists, cfg.dr_kind) - du, 0.0)
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
# group user bias (aggregating form)


def group_user_bias(inp: AuditInput) -> BiasVerdict:
    """Distance between the two classes' representative lists, per query,
    aggregated over the battery; biased when it exceeds epsilon."""
    p_ids, q_ids = inp.split()
    return _group_user_bias_members(inp, p_ids, q_ids)


def _group_user_bias_members(
    inp: AuditInput, p_ids: Sequence[str], q_ids: Sequence[str]
) -> BiasVerdict:
    cfg = inp.config
    per_query: dict[str, float] = {}
    depths: dict[str, int] = {}
    for query_id in inp.queries():
        rep_p, rep_q = class_representatives(inp, p_ids, q_ids, query_id)
        per_query[query_id] = abs(list_space_distance(rep_p, rep_q, inp.differentiating, cfg))
        depths[query_id] = max(rep_p.depth, rep_q.depth)
    magnitude = _aggregate_queries(per_query, cfg.query_aggregation)
    diagnostics = {
        "aggregator": cfg.aggregator,
        "dr_kind": cfg.dr_kind,
        "class_sizes": {CLASS_P: len(p_ids), CLASS_PBAR: len(q_ids)},
        "representative_depths": depths,
    }
    return BiasVerdict(
        "group_user_bias", magnitude, cfg.resolve_epsilon(_epsilon_space(cfg)), per_query, diagnostics
    )


# ---------------------------------------------------------------------------
# group user bias (probabilistic form)


def cluster_variants(variants: Sequence[RankedList], inp: AuditInput) -> list[int]:
    """Merge near-duplicate list variants (configured list distance at most
    ``VARIANT_MERGE_RADIUS``; Kendall under the distribution distance) by
    single linkage, and return a cluster index per variant, numbered in
    first-appearance order."""
    n = len(variants)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kind = "kendall" if inp.config.dr_kind == "distribution" else inp.config.dr_kind
    close = np.triu(_list_distance_matrix(inp, variants, kind) <= VARIANT_MERGE_RADIUS, k=1)
    for i, j in np.argwhere(close).tolist():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    labels: dict[int, int] = {}
    out = []
    for i in range(n):
        root = find(i)
        if root not in labels:
            labels[root] = len(labels)
        out.append(labels[root])
    return out


def _variant_clusters(inp: AuditInput, lists: Sequence[RankedList]) -> tuple[list[int], int]:
    """Merged-variant cluster of each list, and the number of distinct raw
    variants among them."""
    variant_of: dict[tuple[str, ...], int] = {}
    reps: list[RankedList] = []
    assignment = []
    for ranked in lists:
        key = ranked.item_ids()
        if key not in variant_of:
            variant_of[key] = len(reps)
            reps.append(ranked)
        assignment.append(variant_of[key])
    clusters = cluster_variants(reps, inp)
    return [clusters[v] for v in assignment], len(reps)


def probabilistic_group_bias(inp: AuditInput) -> BiasVerdict:
    """Total-variation distance between the two classes' distributions over
    distinct list variants, per query; near-duplicate variants merge first.

    Zero (with a degenerate flag) when fewer than two distinct variants
    exist.
    """
    p_ids, q_ids = inp.split()
    return _probabilistic_members(inp, p_ids, q_ids)


def _probabilistic_members(
    inp: AuditInput, p_ids: Sequence[str], q_ids: Sequence[str]
) -> BiasVerdict:
    cfg = inp.config
    per_query: dict[str, float] = {}
    degenerate: list[str] = []
    variant_counts: dict[str, dict[str, int]] = {}
    for query_id in inp.queries():
        lists = _class_lists(inp, p_ids, query_id) + _class_lists(inp, q_ids, query_id)
        clusters, raw = _variant_clusters(inp, lists)
        n_clusters = max(clusters) + 1
        variant_counts[query_id] = {"raw": raw, "merged": n_clusters}
        if n_clusters < 2:
            per_query[query_id] = 0.0
            degenerate.append(query_id)
            continue
        mass_p = np.bincount(clusters[: len(p_ids)], minlength=n_clusters) / len(p_ids)
        mass_q = np.bincount(clusters[len(p_ids) :], minlength=n_clusters) / len(q_ids)
        per_query[query_id] = float(0.5 * np.abs(mass_p - mass_q).sum())
    magnitude = _aggregate_queries(per_query, cfg.query_aggregation)
    diagnostics = {
        "variant_counts": variant_counts,
        "degenerate_queries": degenerate,
        "merge_radius": VARIANT_MERGE_RADIUS,
        "class_sizes": {CLASS_P: len(p_ids), CLASS_PBAR: len(q_ids)},
    }
    if degenerate and len(degenerate) == len(per_query):
        diagnostics["degenerate"] = True
    return BiasVerdict(
        "probabilistic_group_bias",
        magnitude,
        cfg.resolve_epsilon("distribution"),
        per_query,
        diagnostics,
    )


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
    magnitude = _aggregate_queries(per_query, cfg.query_aggregation)
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
        p_ids, q_ids = inp.split()
        return _combined_members(inp, p_ids, q_ids)
    for user_id in (u1, u2):
        inp.profile(user_id)  # validates existence
    per_query: dict[str, float] = {}
    cfg = inp.config
    for query_id in inp.queries():
        d1 = attribute_distribution(inp.list_for(u1, query_id), inp.differentiating, cfg.k, cfg.weighting)
        d2 = attribute_distribution(inp.list_for(u2, query_id), inp.differentiating, cfg.k, cfg.weighting)
        per_query[query_id] = distribution_distance(d1, d2)
    magnitude = _aggregate_queries(per_query, cfg.query_aggregation)
    subjects = {"subject_a": u1, "subject_b": u2}
    return BiasVerdict(
        "combined_bias", magnitude, cfg.resolve_epsilon("distribution"), per_query, subjects
    )


def _combined_members(inp: AuditInput, p_ids: Sequence[str], q_ids: Sequence[str]) -> BiasVerdict:
    cfg = inp.config
    per_query: dict[str, float] = {}
    for query_id in inp.queries():
        rep_p, rep_q = class_representatives(inp, p_ids, q_ids, query_id)
        d1 = attribute_distribution(rep_p, inp.differentiating, cfg.k, cfg.weighting)
        d2 = attribute_distribution(rep_q, inp.differentiating, cfg.k, cfg.weighting)
        per_query[query_id] = distribution_distance(d1, d2)
    magnitude = _aggregate_queries(per_query, cfg.query_aggregation)
    diagnostics = {"subject_a": f"class:{CLASS_P}", "subject_b": f"class:{CLASS_PBAR}", "aggregator": cfg.aggregator}
    return BiasVerdict(
        "combined_bias", magnitude, cfg.resolve_epsilon("distribution"), per_query, diagnostics
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
    p_ids, q_ids = inp.split()
    return _echo_members(inp, p_ids, q_ids)


def _echo_members(inp: AuditInput, p_ids: Sequence[str], q_ids: Sequence[str]) -> BiasVerdict:
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
        dist_p = renormalize_annotated(
            attribute_distribution(rep_p, inp.differentiating, cfg.k, cfg.weighting)
        )
        dist_q = renormalize_annotated(
            attribute_distribution(rep_q, inp.differentiating, cfg.k, cfg.weighting)
        )
        dev_p = {v: dist_p[v] - gt.probabilities[v] for v in values}
        dev_q = {v: dist_q[v] - gt.probabilities[v] for v in values}
        per_query[query_id] = max(abs(dev_p[v] - dev_q[v]) for v in values) / 2.0
        for v in values:
            dev_sums[CLASS_P][v] += dev_p[v]
            dev_sums[CLASS_PBAR][v] += dev_q[v]
        content_sums[CLASS_P] += max(abs(d) for d in dev_p.values())
        content_sums[CLASS_PBAR] += max(abs(d) for d in dev_q.values())
    n_q = len(queries)
    deviations = {
        label: {v: s / n_q for v, s in sums.items()} for label, sums in dev_sums.items()
    }
    opposite = [
        v
        for v in values
        if (deviations[CLASS_P][v] > epsilon and deviations[CLASS_PBAR][v] < -epsilon)
        or (deviations[CLASS_P][v] < -epsilon and deviations[CLASS_PBAR][v] > epsilon)
    ]
    magnitude = _aggregate_queries(per_query, cfg.query_aggregation)
    diagnostics = {
        "echo_flag": bool(opposite),
        "opposite_values": opposite,
        "deviations": deviations,
        "content_bias": {label: s / n_q for label, s in content_sums.items()},
    }
    return BiasVerdict("echo_chamber_test", magnitude, epsilon, per_query, diagnostics)


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
    list_cfg = config if config.dr_kind != "distribution" else None
    dist_channel: dict[str, float] = {}
    list_channel: dict[str, float] = {}
    for query_id in shared:
        a, b = lists_a[query_id], lists_b[query_id]
        da = attribute_distribution(a, attribute, config.k, config.weighting)
        db = attribute_distribution(b, attribute, config.k, config.weighting)
        dist_channel[query_id] = distribution_distance(da, db)
        if list_cfg is not None:
            list_channel[query_id] = list_space_distance(a, b, attribute, list_cfg)
        else:
            list_channel[query_id] = kendall_distance(a, b)
    magnitude = _aggregate_queries(dist_channel, config.query_aggregation)
    diagnostics = {
        "list_channel": {
            "magnitude": _aggregate_queries(list_channel, config.query_aggregation),
            "per_query": list_channel,
            "dr_kind": config.dr_kind if config.dr_kind != "distribution" else "kendall",
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
