"""Synthetic information provider with controllable bias injection.

Serves as the ground-truth-known validation harness: it fabricates a matched
user population, a query battery with attached ground truths, and per-user
ranked result lists whose content bias and ranking divergence are injected
through two knobs.

Generative model (all randomness from seeded PCG64 substreams, so every
output is a pure function of the scenario seed):

* Per query, a pool of ``item_pool_size`` items gets one hidden base order.
  Class P's display template starts from the base order and swaps each
  disjoint adjacent pair ``(2t, 2t+1)`` independently with probability
  ``delta_rank``; the complement class keeps the base order.
* A served list samples ``list_depth`` pool items (keyed by the
  personalization mode) and displays them in the user's class-template
  order.
* Each sampled item is annotated with one attribute value drawn from the
  query's ground truth shifted for the user's class: the first schema
  value's probability moves by the class's content delta and the remaining
  values are rescaled proportionally. The underlying uniform draws are
  shared across classes, so with zero deltas the two classes receive
  identical lists for identical personalization keys.

Personalization modes: ``"user"`` keys the item sample and annotation draws
on the user id (fully independent users), ``"pair"`` on the matched-pair tag
(partners share draws), ``"profile"`` on the non-protected attribute values
(profile clones share draws).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError, ParameterError, ProfileError
from .measures import AuditInput, MeasureConfig
from .types import PROTECTED, AttributeSchema, GroundTruth, RankedList, ResultItem, UserProfile

PERSONALIZATION_MODES = ("user", "pair", "profile")


def substream(seed: int, *context: object) -> np.random.Generator:
    """Child PCG64 generator keyed by the root seed and a context path.

    Context tokens are folded in through SHA-256 (never the salted builtin
    ``hash``), so streams are identical across platforms and processes.
    """
    digest = hashlib.sha256("\x1f".join(str(part) for part in context).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8, 16, 24)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


@dataclass(frozen=True)
class QuerySpec:
    """One battery entry: a query with its differentiating attribute and the
    ground-truth distribution over that attribute's values."""

    query_id: str
    attribute: AttributeSchema
    ground_truth: GroundTruth

    def __post_init__(self) -> None:
        if not self.query_id:
            raise ConfigError("query_id must be non-empty")
        if self.ground_truth.attribute != self.attribute.name:
            raise ConfigError(
                f"query {self.query_id!r}: ground truth is for {self.ground_truth.attribute!r}, "
                f"expected {self.attribute.name!r}"
            )
        if set(self.ground_truth.probabilities) != set(self.attribute.values):
            raise ConfigError(f"query {self.query_id!r}: ground-truth values do not match the schema")


@dataclass(frozen=True)
class OtherAttribute:
    """A non-protected profile attribute: categorical (finite values) or
    numeric (uniform over a closed range)."""

    name: str
    values: tuple[str, ...] | None = None
    value_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if (self.values is None) == (self.value_range is None):
            raise ConfigError(f"attribute {self.name!r}: declare exactly one of values / value_range")
        if self.values is not None:
            object.__setattr__(self, "values", tuple(str(v) for v in self.values))
            if not self.values:
                raise ConfigError(f"attribute {self.name!r}: empty value set")
        else:
            lo, hi = self.value_range
            if not float(hi) > float(lo):
                raise ConfigError(f"attribute {self.name!r}: empty range ({lo!r}, {hi!r})")
            object.__setattr__(self, "value_range", (float(lo), float(hi)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one synthetic provider.

    ``delta_content_p`` / ``delta_content_pbar`` shift the first attribute
    value's ground-truth probability for each class (a single signed knob
    ``delta_content`` expands to +delta for P, -delta for the complement);
    ``delta_rank`` is the per-position adjacent-swap probability between the
    two class display templates.
    """

    n_users: int
    protected: AttributeSchema
    protected_value: str
    queries: tuple[QuerySpec, ...]
    other_attributes: tuple[OtherAttribute, ...] = ()
    list_depth: int = 10
    item_pool_size: int = 50
    delta_content_p: float = 0.0
    delta_content_pbar: float = 0.0
    delta_rank: float = 0.0
    personalization: str = "user"
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(self, "other_attributes", tuple(self.other_attributes))
        if self.protected.kind != PROTECTED:
            raise ConfigError(f"protected attribute {self.protected.name!r} must have kind 'protected'")
        if self.protected_value not in self.protected.values:
            raise ConfigError(
                f"protected value {self.protected_value!r} not among {self.protected.values}"
            )
        if self.list_depth < 1:
            raise ConfigError(f"list_depth must be >= 1, got {self.list_depth!r}")
        if self.item_pool_size < self.list_depth:
            raise ConfigError("item_pool_size must be at least list_depth")
        if not 0.0 <= self.delta_rank <= 1.0:
            raise ConfigError(f"delta_rank must lie in [0, 1], got {self.delta_rank!r}")
        if self.personalization not in PERSONALIZATION_MODES:
            raise ConfigError(
                f"personalization must be one of {PERSONALIZATION_MODES}, got {self.personalization!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed!r}")
        for query in self.queries:
            for delta in (self.delta_content_p, self.delta_content_pbar):
                _shifted_probabilities(query, delta)  # validates

    def numeric_ranges(self) -> dict[str, tuple[float, float]]:
        return {a.name: a.value_range for a in self.other_attributes if a.value_range is not None}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioConfig":
        data = dict(data)
        protected = data.pop("protected")
        scenario_protected = AttributeSchema(
            protected["name"], tuple(protected["values"]), PROTECTED
        )
        protected_value = protected.get("p_value", protected["values"][0])
        queries = []
        for entry in data.pop("queries"):
            schema = AttributeSchema(entry["attribute"]["name"], tuple(entry["attribute"]["values"]))
            queries.append(
                QuerySpec(entry["query_id"], schema, GroundTruth(schema.name, entry["ground_truth"]))
            )
        others = []
        for entry in data.pop("other_attrs", []):
            others.append(
                OtherAttribute(
                    entry["name"],
                    tuple(entry["values"]) if "values" in entry else None,
                    tuple(entry["range"]) if "range" in entry else None,
                )
            )
        if "delta_content" in data:
            delta = float(data.pop("delta_content"))
            data.setdefault("delta_content_p", delta)
            data.setdefault("delta_content_pbar", -delta)
        known = set(cls.__dataclass_fields__) - {"protected", "protected_value", "queries", "other_attributes"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(
            protected=scenario_protected,
            protected_value=str(protected_value),
            queries=tuple(queries),
            other_attributes=tuple(others),
            **data,
        )

    def to_dict(self) -> dict[str, object]:
        others = []
        for attribute in self.other_attributes:
            entry: dict[str, object] = {"name": attribute.name}
            if attribute.values is not None:
                entry["values"] = list(attribute.values)
            else:
                entry["range"] = list(attribute.value_range)
            others.append(entry)
        return {
            "n_users": self.n_users,
            "protected": {
                "name": self.protected.name,
                "values": list(self.protected.values),
                "p_value": self.protected_value,
            },
            "queries": [
                {
                    "query_id": q.query_id,
                    "attribute": {"name": q.attribute.name, "values": list(q.attribute.values)},
                    "ground_truth": dict(sorted(q.ground_truth.probabilities.items())),
                }
                for q in self.queries
            ],
            "other_attrs": others,
            "list_depth": self.list_depth,
            "item_pool_size": self.item_pool_size,
            "delta_content_p": self.delta_content_p,
            "delta_content_pbar": self.delta_content_pbar,
            "delta_rank": self.delta_rank,
            "personalization": self.personalization,
            "seed": self.seed,
        }


def _shifted_probabilities(query: QuerySpec, delta: float) -> np.ndarray:
    """Ground-truth vector with the first value's probability shifted by
    ``delta`` and the rest rescaled proportionally; must stay a valid
    probability vector."""
    values = query.attribute.values
    probs = np.array([query.ground_truth.probabilities[v] for v in values], dtype=np.float64)
    first = probs[0] + delta
    rest_mass = 1.0 - probs[0]
    shifted = np.empty_like(probs)
    shifted[0] = first
    if rest_mass > 0.0:
        shifted[1:] = probs[1:] * (1.0 - first) / rest_mass
    else:
        shifted[1:] = 0.0
    if np.any(shifted < -1e-12) or np.any(shifted > 1.0 + 1e-12) or abs(shifted.sum() - 1.0) > 1e-9:
        raise ConfigError(
            f"query {query.query_id!r}: content shift {delta!r} leaves no valid distribution"
        )
    return np.clip(shifted, 0.0, 1.0)


def pair_tag(user_id: str) -> str:
    """Matched-pair key: the user id up to its last dash-separated suffix."""
    return user_id.rsplit("-", 1)[0]


def generate_profiles(cfg: ScenarioConfig) -> tuple[UserProfile, ...]:
    """Matched-pair population: n_users/2 base profiles drawn from the
    non-protected attribute distributions, each cloned with the protected
    attribute flipped, so the two classes match attribute-for-attribute."""
    if cfg.n_users < 2 or cfg.n_users % 2 != 0:
        raise ParameterError(f"n_users must be even and >= 2, got {cfg.n_users!r}")
    complement = next(v for v in cfg.protected.values if v != cfg.protected_value)
    profiles: list[UserProfile] = []
    for i in range(cfg.n_users // 2):
        rng = substream(cfg.seed, "profile", i)
        other: dict[str, object] = {}
        for attribute in cfg.other_attributes:
            if attribute.values is not None:
                other[attribute.name] = attribute.values[int(rng.integers(len(attribute.values)))]
            else:
                lo, hi = attribute.value_range
                other[attribute.name] = float(rng.uniform(lo, hi))
        tag = f"u{i:05d}"
        profiles.append(
            UserProfile(f"{tag}-a", {cfg.protected.name: cfg.protected_value}, dict(other))
        )
        profiles.append(UserProfile(f"{tag}-b", {cfg.protected.name: complement}, dict(other)))
    return tuple(profiles)


def generate_queries(cfg: ScenarioConfig) -> tuple[QuerySpec, ...]:
    """The configured query battery, in configuration order."""
    if not cfg.queries:
        raise ParameterError("scenario has an empty query battery")
    return cfg.queries


class _QueryModel:
    """Frozen per-query randomness: item pool, class display templates, and
    class-shifted annotation distributions, plus one shared ``ResultItem``
    per (pool item, attribute value) for every list of the query."""

    def __init__(self, cfg: ScenarioConfig, query: QuerySpec) -> None:
        self.query = query
        size = cfg.item_pool_size
        self.pool = tuple(f"{query.query_id}:it{j:04d}" for j in range(size))
        attr, values = query.attribute.name, query.attribute.values
        #: ``items[j * len(values) + v]`` is pool item j annotated with value v.
        self.items = tuple(ResultItem(item_id, {attr: {value: 1.0}}) for item_id in self.pool for value in values)
        base = substream(cfg.seed, "template", query.query_id).permutation(size)
        template_p = base.copy()
        if cfg.delta_rank > 0.0:
            swap_rng = substream(cfg.seed, "swap", query.query_id)
            draws = swap_rng.random(size // 2)
            for t, u in enumerate(draws):
                if u < cfg.delta_rank:
                    a, b = 2 * t, 2 * t + 1
                    template_p[a], template_p[b] = template_p[b], template_p[a]
        self.position = {
            True: _inverse_permutation(template_p),
            False: _inverse_permutation(base),
        }
        self.cdf = {
            True: np.cumsum(_shifted_probabilities(query, cfg.delta_content_p)),
            False: np.cumsum(_shifted_probabilities(query, cfg.delta_content_pbar)),
        }


def _inverse_permutation(perm: np.ndarray) -> np.ndarray:
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return inverse


def _personalization_token(cfg: ScenarioConfig, profile: UserProfile) -> str:
    if cfg.personalization == "user":
        return profile.user_id
    if cfg.personalization == "pair":
        return pair_tag(profile.user_id)
    return json.dumps(profile.other, sort_keys=True)


def _is_class_p(cfg: ScenarioConfig, profile: UserProfile) -> bool:
    value = profile.protected.get(cfg.protected.name)
    if value is None:
        raise ProfileError(f"profile {profile.user_id!r} lacks protected attribute {cfg.protected.name!r}")
    return value == cfg.protected_value


def _sample_for_token(cfg: ScenarioConfig, query_id: str, token: str) -> tuple[np.ndarray, np.ndarray]:
    """Sampled pool indices (ascending) and their annotation uniforms."""
    if cfg.list_depth >= cfg.item_pool_size:
        sample = np.arange(cfg.item_pool_size)
    else:
        rng = substream(cfg.seed, "items", query_id, token)
        sample = np.sort(rng.choice(cfg.item_pool_size, size=cfg.list_depth, replace=False))
    uniforms = substream(cfg.seed, "annot", query_id, token).random(sample.size)
    return sample, uniforms


def _build_list(
    cfg: ScenarioConfig,
    model: _QueryModel,
    profile: UserProfile,
    sample: np.ndarray,
    uniforms: np.ndarray,
) -> RankedList:
    in_p = _is_class_p(cfg, profile)
    n_values = len(model.query.attribute.values)
    picked = np.minimum(np.searchsorted(model.cdf[in_p], uniforms, side="right"), n_values - 1)
    order = np.argsort(model.position[in_p][sample], kind="stable")
    slots = (sample[order] * n_values + picked[order]).tolist()
    return RankedList(model.query.query_id, profile.user_id, tuple(map(model.items.__getitem__, slots)))


def serve(cfg: ScenarioConfig, profile: UserProfile, query_id: str) -> RankedList:
    """The black-box provider: the ranked list this user receives for this
    query. Pure and deterministic in (seed, user_id, query_id)."""
    by_id = {q.query_id: q for q in cfg.queries}
    if query_id not in by_id:
        raise InputError(f"query {query_id!r} is not in the scenario battery")
    model = _QueryModel(cfg, by_id[query_id])
    token = _personalization_token(cfg, profile)
    sample, uniforms = _sample_for_token(cfg, query_id, token)
    return _build_list(cfg, model, profile, sample, uniforms)


def serve_all(
    cfg: ScenarioConfig, profiles: Sequence[UserProfile] | None = None
) -> dict[tuple[str, str], RankedList]:
    """All lists for a population, identical to per-call :func:`serve` but
    sharing the per-query models and per-token samples."""
    population = tuple(profiles) if profiles is not None else generate_profiles(cfg)
    out: dict[tuple[str, str], RankedList] = {}
    for query in generate_queries(cfg):
        model = _QueryModel(cfg, query)
        cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for profile in population:
            token = _personalization_token(cfg, profile)
            if token not in cache:
                cache[token] = _sample_for_token(cfg, query.query_id, token)
            sample, uniforms = cache[token]
            out[(profile.user_id, query.query_id)] = _build_list(cfg, model, profile, sample, uniforms)
    return out


def audit_input_from_scenario(
    cfg: ScenarioConfig, config: MeasureConfig | None = None
) -> AuditInput:
    """Generate the population, serve the battery, and wrap everything as an
    audit input (filling numeric attribute ranges into the measure config)."""
    schemas = {q.attribute.name for q in cfg.queries}
    if len(schemas) != 1:
        raise ConfigError("auditing needs a single differentiating attribute across the battery")
    config = config or MeasureConfig()
    ranges = dict(cfg.numeric_ranges())
    if ranges and not config.numeric_ranges:
        config = replace(config, numeric_ranges=ranges)
    profiles = generate_profiles(cfg)
    lists = serve_all(cfg, profiles)
    return AuditInput(
        profiles=profiles,
        lists=lists,
        protected_attribute=cfg.protected.name,
        protected_value=cfg.protected_value,
        differentiating=cfg.queries[0].attribute,
        ground_truth={q.query_id: q.ground_truth for q in cfg.queries},
        config=config,
    )
