"""Synthetic information provider with controllable bias injection.

Serves as the ground-truth-known validation harness: it fabricates a matched
user population, a query battery with attached ground truths, and per-user
ranked result lists whose content bias and ranking divergence are injected
through two knobs.

Generative model (all randomness from seeded PCG64 substreams, so every
output is a pure function of the scenario seed; each stream is numpy's
``PCG64(SeedSequence([seed, *words]))``, ``words`` the SHA-256 digest of its
context, with the seed states of a query's streams computed in one batch,
byte-identical to earlier releases):

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
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .distances import _check_range
from .errors import ConfigError, InputError, ProfileError
from .measures import AuditInput, MeasureConfig
from .types import PROTECTED, AttributeSchema, GroundTruth, RankedList, ResultItem, UserProfile, from_json, to_json

PERSONALIZATION_MODES = ("user", "pair", "profile")


#: numpy ``SeedSequence``'s entropy and output hashes (initial constant,
#: multiplier) and mixing multipliers, and PCG64's LCG multiplier.
_HASH_IN, _HASH_OUT = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R, _PCG_MULT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _fold(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> np.uint32(16))


def _hasher(const: int, mult: int):
    """``SeedSequence``'s running hash of uint32 arrays: xor with the
    constant, advance it by ``mult``, multiply by the new one, fold."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value, const = value ^ np.uint32(const), const * mult & _MASK32
        return _fold(value * np.uint32(const))

    return hashmix


def _pool_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of a
    uint32 entropy matrix [n, L]: uint64 [n, 4]."""
    hashmix = _hasher(*_HASH_IN)
    columns = list(entropy.T) + [np.zeros(len(entropy), np.uint32)] * (4 - entropy.shape[1])
    pool = [hashmix(column) for column in columns[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _fold(_MIX_L * pool[dst] - _MIX_R * hashmix(pool[src]))
    for column, dst in itertools.product(columns[4:], range(4)):
        pool[dst] = _fold(_MIX_L * pool[dst] - _MIX_R * hashmix(column))
    hashmix = _hasher(*_HASH_OUT)
    words = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _seed_states(seed: int, contexts: Sequence[Sequence[object]]) -> np.ndarray:
    """``SeedSequence([seed, *words]).generate_state(4, np.uint64)`` for every
    context, ``words`` being the SHA-256 digest of its parts joined by
    ``\\x1f`` as four little-endian 64-bit words: uint64 [len(contexts), 4]."""
    seed = int(seed)
    # numpy splits each int into its 32-bit words, low first, keeping at least one
    seed_words = np.uint32([seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)])
    digests = b"".join(hashlib.sha256("\x1f".join(map(str, c)).encode("utf-8")).digest() for c in contexts)
    halves = np.frombuffer(digests, "<u4").reshape(-1, 8)
    keep = (np.arange(8) % 2 == 0) | (halves != 0)
    lengths = keep.sum(axis=1)
    out = np.empty((len(halves), 4), np.uint64)
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        words = halves[rows][keep[rows]].reshape(rows.size, length)
        out[rows] = _pool_states(np.hstack([np.tile(seed_words, (rows.size, 1)), words]))
    return out


def _set_pcg(bit_generator: np.random.PCG64, row: Sequence[int]) -> None:
    """Position ``bit_generator`` where ``PCG64`` seeded with the state words
    ``row`` starts (numpy's ``pcg64_set_seed``)."""
    state_hi, state_lo, inc_hi, inc_lo = map(int, row)
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
    bit_generator.state = dict(bit_generator="PCG64", state={"state": state, "inc": inc}, has_uint32=0, uinteger=0)


def substream(seed: int, *context: object) -> np.random.Generator:
    """Child PCG64 generator keyed by the root seed and a context path,
    identical across platforms and processes."""
    rng = np.random.default_rng(0)
    _set_pcg(rng.bit_generator, _seed_states(seed, [context])[0])
    return rng


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
    value_range: tuple[float, float] | None = field(default=None, metadata={"json": "range"})

    def __post_init__(self) -> None:
        if (self.values is None) == (self.value_range is None):
            raise ConfigError(f"attribute {self.name!r}: declare exactly one of values / value_range")
        if self.values is not None:
            object.__setattr__(self, "values", tuple(str(v) for v in self.values))
            if not self.values:
                raise ConfigError(f"attribute {self.name!r}: empty value set")
        else:
            lo, hi = self.value_range
            object.__setattr__(self, "value_range", (float(lo), float(hi)))
            _check_range(self.name, self.value_range, ConfigError)


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
    other_attributes: tuple[OtherAttribute, ...] = field(default=(), metadata={"json": "other_attrs"})
    list_depth: int = 10
    item_pool_size: int = 50
    delta_content_p: float = 0.0
    delta_content_pbar: float = 0.0
    delta_rank: float = 0.0
    personalization: str = "user"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_users", "list_depth", "item_pool_size", "seed"):
            from_json(int, getattr(self, name), name, ConfigError)
        object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(self, "other_attributes", tuple(self.other_attributes))
        if self.protected.kind != PROTECTED:
            raise ConfigError(f"protected attribute {self.protected.name!r} must have kind 'protected'")
        if self.protected_value not in self.protected.values:
            raise ConfigError(
                f"protected value {self.protected_value!r} not among {self.protected.values}"
            )
        if self.n_users < 2 or self.n_users % 2:
            raise ConfigError(f"n_users must be even and >= 2, got {self.n_users!r}")
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
        if not self.queries:
            raise ConfigError("queries must not be empty")
        if len({query.attribute for query in self.queries}) > 1:
            raise ConfigError("every query must differentiate the same attribute")
        for query in self.queries:
            for delta in (self.delta_content_p, self.delta_content_pbar):
                _shifted_probabilities(query, delta)  # validates

    def numeric_ranges(self) -> dict[str, tuple[float, float]]:
        return {a.name: a.value_range for a in self.other_attributes if a.value_range is not None}

    @classmethod
    def from_dict(cls, data: object, where: str = "scenario") -> "ScenarioConfig":
        return from_json(cls, data, where, ConfigError)

    @staticmethod
    def _json_spellings(doc: dict, where: str, error: type[Exception]) -> dict:
        """A scenario document's three spellings that differ from the fields:
        ``protected.p_value`` (default: the first value), a query's bare
        ``ground_truth`` probabilities, and the ``delta_content`` shorthand
        for ``delta_content_p`` = +delta and ``delta_content_pbar`` = -delta
        (an explicit field wins), rewritten in field form."""
        doc = dict(doc)
        protected = doc.get("protected")
        if isinstance(protected, dict):
            values = protected.get("values")
            first = values[0] if isinstance(values, list) and values else None
            doc["protected"] = {"kind": PROTECTED, **protected}
            doc["protected_value"] = doc["protected"].pop("p_value", first)
        queries = doc.get("queries")
        if isinstance(queries, list):
            doc["queries"] = [
                {**q, "ground_truth": {"attribute": q["attribute"].get("name"), "probabilities": q["ground_truth"]}}
                if isinstance(q, dict) and isinstance(q.get("attribute"), dict) and "ground_truth" in q
                else q
                for q in queries
            ]
        if "delta_content" in doc:
            delta = from_json(float, doc.pop("delta_content"), f"{where}.delta_content", error)
            doc = {"delta_content_p": delta, "delta_content_pbar": -delta, **doc}
        return doc

    def to_dict(self) -> dict[str, object]:
        """The scenario document :meth:`from_dict` reads back."""
        doc = to_json(self)
        doc["protected"]["p_value"] = doc.pop("protected_value")
        for query in doc["queries"]:
            query["ground_truth"] = query["ground_truth"]["probabilities"]
        return doc


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
    if not (np.all(shifted >= -1e-12) and np.all(shifted <= 1.0 + 1e-12) and abs(shifted.sum() - 1.0) <= 1e-9):
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
    complement = next(v for v in cfg.protected.values if v != cfg.protected_value)
    profiles: list[UserProfile] = []
    rng = np.random.default_rng(0)
    states = _seed_states(cfg.seed, [("profile", i) for i in range(cfg.n_users // 2)]).tolist()
    for i, state in enumerate(states):
        _set_pcg(rng.bit_generator, state)
        other: dict[str, object] = {}
        for attribute in cfg.other_attributes:
            if attribute.values is not None:
                other[attribute.name] = attribute.values[int(rng.integers(len(attribute.values)))]
            else:
                lo, hi = attribute.value_range
                other[attribute.name] = float(rng.uniform(lo, hi))
        tag = f"u{i:05d}"
        profiles.append(UserProfile(f"{tag}-a", {cfg.protected.name: cfg.protected_value}, dict(other)))
        profiles.append(UserProfile(f"{tag}-b", {cfg.protected.name: complement}, dict(other)))
    return tuple(profiles)


def generate_queries(cfg: ScenarioConfig) -> tuple[QuerySpec, ...]:
    """The configured query battery, in configuration order."""
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
            swap = 2 * np.flatnonzero(substream(cfg.seed, "swap", query.query_id).random(size // 2) < cfg.delta_rank)
            template_p[swap], template_p[swap + 1] = base[swap + 1], base[swap]
        self.position = {True: np.argsort(template_p), False: np.argsort(base)}
        self.cdf = {
            True: np.cumsum(_shifted_probabilities(query, cfg.delta_content_p)),
            False: np.cumsum(_shifted_probabilities(query, cfg.delta_content_pbar)),
        }


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


def _draw(cfg: ScenarioConfig, query_id: str, profiles: Sequence[UserProfile]) -> tuple[np.ndarray, np.ndarray]:
    """Each profile's sampled pool indices (ascending) and annotation
    uniforms, [len(profiles), list_depth] each: one pair of streams per
    distinct personalization token, all drawn from one repositioned generator."""
    tokens: dict[str, int] = {}
    rows = [tokens.setdefault(_personalization_token(cfg, p), len(tokens)) for p in profiles]
    n, depth, full = len(tokens), cfg.list_depth, cfg.list_depth >= cfg.item_pool_size
    states = _seed_states(cfg.seed, [(kind, query_id, t) for kind in ("annot", "items") for t in tokens]).tolist()
    rng = np.random.default_rng(0)
    uniforms, samples = np.empty((n, depth)), np.tile(np.arange(depth), (n, 1))
    for i in range(n):
        _set_pcg(rng.bit_generator, states[i])
        uniforms[i] = rng.random(depth)
        if not full:
            _set_pcg(rng.bit_generator, states[n + i])
            samples[i] = rng.choice(cfg.item_pool_size, size=depth, replace=False)
    return np.sort(samples, axis=1)[rows], uniforms[rows]


def _build_lists(
    cfg: ScenarioConfig, model: _QueryModel, profiles: Sequence[UserProfile], samples: np.ndarray, uniforms: np.ndarray
) -> list[RankedList]:
    """One list per profile from its row of ascending pool indices and
    annotation uniforms, displayed in its class template's order."""
    in_p = np.array([_is_class_p(cfg, p) for p in profiles], dtype=bool)
    n_values = len(model.query.attribute.values)
    slots = np.empty(samples.shape, np.int64)
    for cls in (True, False):
        rows = np.flatnonzero(in_p == cls)
        sample = samples[rows]
        picked = np.minimum(np.searchsorted(model.cdf[cls], uniforms[rows], side="right"), n_values - 1)
        order = np.argsort(model.position[cls][sample], axis=1, kind="stable")
        slots[rows] = np.take_along_axis(sample * n_values + picked, order, axis=1)
    query_id, items = model.query.query_id, model.items.__getitem__
    return [RankedList(query_id, p.user_id, tuple(map(items, row.tolist()))) for p, row in zip(profiles, slots)]


def serve(cfg: ScenarioConfig, profile: UserProfile, query_id: str) -> RankedList:
    """The black-box provider: the ranked list this user receives for this
    query. Pure and deterministic in (seed, user_id, query_id)."""
    query = next((q for q in cfg.queries if q.query_id == query_id), None)
    if query is None:
        raise InputError(f"query {query_id!r} is not in the scenario battery")
    return _build_lists(cfg, _QueryModel(cfg, query), [profile], *_draw(cfg, query_id, [profile]))[0]


def serve_all(cfg: ScenarioConfig, profiles: Sequence[UserProfile] | None = None) -> dict[tuple[str, str], RankedList]:
    """All lists for a population, identical to per-call :func:`serve` but
    drawn and assembled one query at a time."""
    population = tuple(profiles) if profiles is not None else generate_profiles(cfg)
    out: dict[tuple[str, str], RankedList] = {}
    for query in generate_queries(cfg):
        lists = _build_lists(cfg, _QueryModel(cfg, query), population, *_draw(cfg, query.query_id, population))
        out.update(((ranked.user_id, query.query_id), ranked) for ranked in lists)
    return out


def audit_input_from_scenario(
    cfg: ScenarioConfig, config: MeasureConfig | None = None
) -> AuditInput:
    """Generate the population, serve the battery, and wrap everything as an
    audit input (filling numeric attribute ranges into the measure config)."""
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
