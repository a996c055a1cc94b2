"""Shared builders for tests: compact constructors for lists, profiles, and
audit inputs, and seeded random generators for property checks."""

from __future__ import annotations

import numpy as np
import pytest

from rankbias import (
    AttributeSchema,
    AuditInput,
    MeasureConfig,
    RankedList,
    ResultItem,
    UserProfile,
)


def make_list(ids, query="q0", user="u0", annotations=None):
    """RankedList from item ids; ``annotations`` maps item id -> annotation dict."""
    annotations = annotations or {}
    items = tuple(ResultItem(str(i), dict(annotations.get(str(i), {}))) for i in ids)
    return RankedList(query, user, items)


def one_hot(attr, value):
    return {attr: {value: 1.0}}


def stance_schema(m=2):
    return AttributeSchema("stance", tuple(f"a{i + 1}" for i in range(m)))


def annotated_list(values_by_rank, attr="stance", query="q0", user="u0", prefix="x"):
    """List whose rank-r item is one-hot annotated with values_by_rank[r]."""
    items = tuple(
        ResultItem(f"{prefix}{r}", one_hot(attr, value) if value is not None else {})
        for r, value in enumerate(values_by_rank)
    )
    return RankedList(query, user, items)


def weighted_list(weights_by_rank, attr="stance", query="q0", user="u0", prefix="x"):
    """List whose rank-r item carries the full weight vector weights_by_rank[r]."""
    items = tuple(
        ResultItem(f"{prefix}{r}", {attr: dict(weights)} if weights else {})
        for r, weights in enumerate(weights_by_rank)
    )
    return RankedList(query, user, items)


def profile(user_id, group="x", **other):
    return UserProfile(user_id, {"group": group}, dict(other))


def build_audit(lists, profiles, ground_truth=None, config=None, schema=None):
    """AuditInput over class designation group == 'x'."""
    return AuditInput(
        profiles=tuple(profiles),
        lists={(lst.user_id, lst.query_id): lst for lst in lists},
        protected_attribute="group",
        protected_value="x",
        differentiating=schema or stance_schema(),
        ground_truth=ground_truth,
        config=config or MeasureConfig(),
    )


def random_id_sequence(rng, pool, depth):
    return tuple(str(x) for x in rng.choice(pool, size=depth, replace=False))


def random_list_pair(rng, pool_size=30, max_depth=12, query="q0", min_depth=1):
    """Two random lists over one item pool with random overlap, each
    ``min_depth`` to ``max_depth`` items deep (at most the whole pool)."""
    pool = np.array([f"i{j:03d}" for j in range(pool_size)])
    da = int(rng.integers(min_depth, min(max_depth, pool_size) + 1))
    db = int(rng.integers(min_depth, min(max_depth, pool_size) + 1))
    a = make_list(random_id_sequence(rng, pool, da), query=query, user="ua")
    b = make_list(random_id_sequence(rng, pool, db), query=query, user="ub")
    return a, b


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
