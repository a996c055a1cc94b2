"""Permutation-test and bootstrap tests: determinism, p-value bounds,
fast/slow evaluation parity, and interval behavior."""

from dataclasses import replace

import numpy as np
import pytest

from rankbias import (
    AttributeSchema,
    GroundTruth,
    InputError,
    MeasureConfig,
    ParameterError,
    bootstrap_ci,
    combined_bias,
    group_user_bias,
    permutation_test,
    user_distance,
)
from rankbias.measures import list_space_distance
from rankbias.significance import GROUP_MEASURES, _MEMBER_IMPLS, _make_evaluator
from rankbias.simulator import (
    OtherAttribute,
    QuerySpec,
    ScenarioConfig,
    audit_input_from_scenario,
)
from rankbias.types import PROTECTED

from conftest import build_audit, make_list, profile

UNIFORM_GT = GroundTruth("stance", {"a1": 0.5, "a2": 0.5})


def small_scenario(seed=5, n_users=24, delta_content=0.0, delta_rank=0.3, aggregator="borda",
                   dr_kind="kendall", personalization="user", n_queries=2):
    schema = AttributeSchema("stance", ("a1", "a2"))
    cfg = ScenarioConfig(
        n_users=n_users,
        protected=AttributeSchema("group", ("x", "y"), PROTECTED),
        protected_value="x",
        queries=tuple(QuerySpec(f"q{i}", schema, UNIFORM_GT) for i in range(n_queries)),
        other_attributes=(OtherAttribute("persona", values=("a", "b", "c")),),
        list_depth=6,
        item_pool_size=20,
        delta_content_p=delta_content,
        delta_content_pbar=-delta_content,
        delta_rank=delta_rank,
        personalization=personalization,
        seed=seed,
    )
    return audit_input_from_scenario(
        cfg, MeasureConfig(dr_kind=dr_kind, k=5, aggregator=aggregator, relevant_attrs=("persona",))
    )


def degenerate_audit():
    """Everyone receives the same list."""
    profiles = [profile(f"u{i}", "x" if i % 2 else "y") for i in range(8)]
    lists = [make_list(["x1", "x2", "x3"], user=p.user_id) for p in profiles]
    return build_audit(lists, profiles)


def test_same_seed_same_result():
    inp = small_scenario()
    r1 = permutation_test(inp, "group_user_bias", 120, seed=9)
    r2 = permutation_test(inp, "group_user_bias", 120, seed=9)
    assert r1 == r2
    r3 = permutation_test(inp, "group_user_bias", 120, seed=10)
    assert r3 != r1


def test_p_value_bounds(rng):
    inp = small_scenario()
    for measure in GROUP_MEASURES:
        result = permutation_test(inp, measure, 100, seed=3)
        assert 1.0 / 101.0 <= result.p_value <= 1.0
        assert result.n_permutations == 100


def test_degenerate_population_p_is_one():
    result = permutation_test(degenerate_audit(), "group_user_bias", 150, seed=1)
    assert result.observed == 0.0
    assert result.p_value == 1.0
    assert result.null_sd == 0.0


def test_parameter_validation():
    inp = small_scenario()
    with pytest.raises(ParameterError):
        permutation_test(inp, "individual_user_bias", 100, seed=1)
    with pytest.raises(ParameterError):
        permutation_test(inp, "group_user_bias", 99, seed=1)
    with pytest.raises(ParameterError):
        permutation_test(inp, "group_user_bias", 100, seed=-1)


def test_observed_matches_public_measure():
    for dr_kind in ("kendall", "rbo", "topk", "distribution"):
        inp = small_scenario(dr_kind=dr_kind, delta_content=0.1)
        result = permutation_test(inp, "group_user_bias", 100, seed=2)
        assert result.observed == pytest.approx(group_user_bias(inp).magnitude, abs=1e-9)
        result = permutation_test(inp, "combined_bias", 100, seed=2)
        assert result.observed == pytest.approx(combined_bias(inp).magnitude, abs=1e-9)


def test_fast_context_matches_member_impls(rng):
    inp = small_scenario(delta_content=0.08, delta_rank=0.5)
    users = inp.user_ids()
    by_id = {p.user_id: p for p in inp.profiles}
    labels = np.array([inp.in_class_p(by_id[u]) for u in users], dtype=float)
    for measure in GROUP_MEASURES:
        fast = _make_evaluator(inp, measure)
        for trial in range(5):
            perm = rng.permutation(len(users))
            w_p = labels[perm]
            p_ids = [u for u, w in zip(users, w_p) if w > 0]
            q_ids = [u for u, w in zip(users, w_p) if w == 0]
            assert fast(w_p, 1.0 - w_p) == pytest.approx(
                _MEMBER_IMPLS[measure](inp, p_ids, q_ids).magnitude, abs=1e-9
            )


def test_slow_fallback_for_other_aggregators():
    inp = small_scenario(aggregator="median", n_users=12)
    result = permutation_test(inp, "group_user_bias", 100, seed=4)
    assert result.observed == pytest.approx(group_user_bias(inp).magnitude, abs=1e-12)


def test_permutation_stream_independent_of_measure():
    # the permutation indices depend only on the seed, not on what they feed
    inp = small_scenario()
    r1 = permutation_test(inp, "group_user_bias", 100, seed=77)
    r2 = permutation_test(inp, "group_user_bias", 100, seed=77)
    assert r1.null_quantiles == r2.null_quantiles


# --------------------------------------------------------------------------
# bootstrap


def test_bootstrap_zero_width_for_constant_measure():
    lo, hi = bootstrap_ci(degenerate_audit(), "group_user_bias", 100, 0.95, seed=1)
    assert lo == hi == 0.0


def test_bootstrap_deterministic_and_ordered():
    inp = small_scenario(delta_content=0.15)
    a = bootstrap_ci(inp, "combined_bias", 120, 0.9, seed=8)
    b = bootstrap_ci(inp, "combined_bias", 120, 0.9, seed=8)
    assert a == b
    assert a[0] <= a[1]


def test_bootstrap_contains_point_estimate(rng):
    for seed in (1, 2, 3, 4, 5):
        inp = small_scenario(seed=seed, delta_content=0.12, n_users=30)
        point = combined_bias(inp).magnitude
        lo, hi = bootstrap_ci(inp, "combined_bias", 200, 0.9, seed=seed)
        assert lo - 1e-9 <= point <= hi + 1e-9


def test_bootstrap_validation():
    inp = small_scenario()
    with pytest.raises(ParameterError):
        bootstrap_ci(inp, "group_user_bias", 99, 0.9, seed=1)
    with pytest.raises(ParameterError):
        bootstrap_ci(inp, "group_user_bias", 100, 1.2, seed=1)
    with pytest.raises(ParameterError):
        bootstrap_ci(inp, "nonsense", 100, 0.9, seed=1)
    tiny_profiles = [profile(f"u{i}", "x" if i % 2 else "y") for i in range(4)]
    tiny = build_audit([make_list(["x1"], user=p.user_id) for p in tiny_profiles], tiny_profiles)
    with pytest.raises(InputError):
        bootstrap_ci(tiny, "group_user_bias", 100, 0.9, seed=1)


def test_bootstrap_individual_measure():
    inp = small_scenario(delta_rank=1.0, personalization="pair", n_users=12)
    lo, hi = bootstrap_ci(inp, "individual_user_bias", 100, 0.9, seed=2)
    assert 0.0 <= lo <= hi <= 1.0


def individual_magnitude_multiset(inp, member_ids):
    """Reference individual-bias magnitude over a resampled user multiset:
    every pair of distinct members, scalar distances (duplicate members
    contribute zero-violation pairs)."""
    cfg = inp.config
    best = 0.0
    for i, u in enumerate(member_ids):
        for v in member_ids[i + 1 :]:
            if u == v:
                continue
            du = user_distance(inp.profile(u), inp.profile(v), cfg.relevant_attrs, cfg.numeric_ranges)
            total = 0.0
            for query_id in inp.queries():
                dr = list_space_distance(inp.list_for(u, query_id), inp.list_for(v, query_id), inp.differentiating, cfg)
                violation = max(0.0, dr - du)
                total = max(total, violation) if cfg.query_aggregation == "max" else total + violation
            best = max(best, total if cfg.query_aggregation == "max" else total / len(inp.queries()))
    return best


@pytest.mark.parametrize("how", ["mean", "max"])
def test_bootstrap_individual_matches_multiset_reference(how):
    inp = small_scenario(delta_rank=0.6, personalization="pair", n_users=10)
    inp = replace(inp, config=replace(inp.config, query_aggregation=how))
    users = inp.user_ids()
    draws = np.random.default_rng(6).integers(0, len(users), size=(100, len(users)))
    stats = [individual_magnitude_multiset(inp, sorted(users[i] for i in row)) for row in draws.tolist()]
    expected = tuple(float(v) for v in np.quantile(stats, [0.05, 0.95]))
    assert bootstrap_ci(inp, "individual_user_bias", 100, 0.9, seed=6) == expected
    assert expected[0] < expected[1]


def test_bootstrap_coverage_of_known_shift():
    """95%-level intervals cover the injected class gap in at least 90 of
    100 trials."""
    beta = 0.15
    hits = 0
    trials = 100
    for seed in range(trials):
        inp = small_scenario(seed=1000 + seed, delta_content=beta, delta_rank=0.0, n_users=60, n_queries=1)
        lo, hi = bootstrap_ci(inp, "combined_bias", 150, 0.95, seed=seed)
        if lo <= 2 * beta <= hi:
            hits += 1
    assert hits >= 90, f"coverage {hits}/100"
