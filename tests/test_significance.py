"""Permutation-test and bootstrap tests: determinism, p-value bounds,
fast/slow evaluation parity, and interval behavior."""

import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

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
    echo_chamber_test,
    group_user_bias,
    kendall_distance,
    permutation_test,
    probabilistic_group_bias,
    user_distance,
)
from rankbias import _vector, measures
from rankbias.errors import DegenerateInputWarning, MeasureUndefinedError, ModeError
from rankbias.measures import (
    _aggregate_queries,
    _group_verdicts,
    _RankContext,
    _variant_edges,
    cluster_variants,
    list_space_distance,
)
from rankbias.significance import GROUP_MEASURES, _permutation_tests
from rankbias.simulator import (
    OtherAttribute,
    QuerySpec,
    ScenarioConfig,
    audit_input_from_scenario,
)
from rankbias.types import PROTECTED

from conftest import build_audit, make_list, one_hot, profile
from group_oracles import MEMBER_IMPLS, oracle_verdict

UNIFORM_GT = GroundTruth("stance", {"a1": 0.5, "a2": 0.5})


def small_scenario(seed=5, n_users=24, delta_content=0.0, delta_rank=0.3, aggregator="borda",
                   dr_kind="kendall", personalization="user", n_queries=2, depth=6, pool=20, k=5):
    schema = AttributeSchema("stance", ("a1", "a2"))
    cfg = ScenarioConfig(
        n_users=n_users,
        protected=AttributeSchema("group", ("x", "y"), PROTECTED),
        protected_value="x",
        queries=tuple(QuerySpec(f"q{i}", schema, UNIFORM_GT) for i in range(n_queries)),
        other_attributes=(OtherAttribute("persona", values=("a", "b", "c")),),
        list_depth=depth,
        item_pool_size=pool,
        delta_content_p=delta_content,
        delta_content_pbar=-delta_content,
        delta_rank=delta_rank,
        personalization=personalization,
        seed=seed,
    )
    return audit_input_from_scenario(
        cfg, MeasureConfig(dr_kind=dr_kind, k=k, aggregator=aggregator, relevant_attrs=("persona",))
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


def half_empty_audit(dr_kind, empty_users=3, n_users=6):
    """Users u0.. u{empty_users - 1} receive empty lists; classes alternate."""
    profiles = [profile(f"u{i}", "x" if i % 2 else "y") for i in range(n_users)]
    lists = [make_list([] if i < empty_users else ["x1", "x2", f"y{i}"], user=p.user_id)
             for i, p in enumerate(profiles)]
    return build_audit(lists, profiles, config=MeasureConfig(dr_kind=dr_kind))


@pytest.mark.parametrize("dr_kind", ["kendall", "rbo", "topk"])
def test_permutations_warn_only_of_a_pair_of_empty_representatives(dr_kind):
    # P and Q partition the users, so no label permutation empties both
    # classes; replicates whose P and Q empty in different pairs of one
    # kernel call must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateInputWarning)
        permutation_test(half_empty_audit(dr_kind), "group_user_bias", 100, seed=1)
    with pytest.warns(DegenerateInputWarning, match="two empty representatives"):
        permutation_test(half_empty_audit(dr_kind, empty_users=6), "group_user_bias", 100, seed=1)


def test_parameter_validation():
    inp = small_scenario()
    with pytest.raises(ParameterError):
        permutation_test(inp, "individual_user_bias", 100, seed=1)
    with pytest.raises(ParameterError):
        permutation_test(inp, "group_user_bias", 99, seed=1)
    with pytest.raises(ParameterError):
        permutation_test(inp, "group_user_bias", 100, seed=-1)


PUBLIC_MEASURES = {
    "group_user_bias": group_user_bias,
    "probabilistic_group_bias": probabilistic_group_bias,
    "echo_chamber_test": echo_chamber_test,
    "combined_bias": combined_bias,
}


def test_observed_matches_public_measure():
    # the observed value is the verdict, to the last bit: the same engine
    # evaluates the same weight row. Kemeny stays within its exact solver's
    # reach: at most 7 items a query
    for aggregator in ("borda", "median", "kemeny"):
        shape = dict(n_users=12, n_queries=1, depth=4, pool=7) if aggregator == "kemeny" else {}
        for dr_kind in ("kendall", "rbo", "topk", "distribution"):
            inp = small_scenario(dr_kind=dr_kind, delta_content=0.1, aggregator=aggregator, **shape)
            for measure, fn in PUBLIC_MEASURES.items():
                assert permutation_test(inp, measure, 100, seed=2).observed == fn(inp).magnitude


def test_observed_matches_public_measure_at_benchmark_shape():
    """100 users x 2 queries x depth 50, median, pair personalization: the
    shape where the two used to part in the last bit of combined bias."""
    inp = small_scenario(seed=1, n_users=100, n_queries=2, depth=50, pool=150, k=50, aggregator="median",
                         personalization="pair", delta_content=0.1, delta_rank=0.2)
    for measure in ("group_user_bias", "combined_bias"):
        assert permutation_test(inp, measure, 100, seed=1).observed == PUBLIC_MEASURES[measure](inp).magnitude


@pytest.mark.parametrize("shape", [
    # k = 50: fifty rank weights of 1/50 do not sum to 1 exactly, so the
    # annotated mass must be 1 - the unannotated mass, as the oracle takes it
    dict(seed=1, n_users=100, n_queries=2, depth=50, pool=150, k=50, aggregator="median", personalization="pair"),
    # ten queries: numpy's pairwise mean parts from the oracle's running sum
    dict(seed=5, n_users=16, n_queries=10, dr_kind="rbo"),
])
def test_verdicts_equal_oracles_bit_for_bit(shape):
    inp = small_scenario(delta_content=0.1, delta_rank=0.2, **shape)
    for measure, fn in PUBLIC_MEASURES.items():
        assert fn(inp) == MEMBER_IMPLS[measure](inp, *inp.split())


def dirichlet_audit(rng, n_users, aggregator="borda"):
    """Users alternating between the classes, each list up to 8 of 12
    items, every occurrence with its own Dirichlet weights over three
    stance values."""
    profiles = [profile(f"u{i}", "x" if i % 2 else "y") for i in range(n_users)]
    lists = []
    for p in profiles:
        ids = [str(i) for i in rng.choice(12, size=int(rng.integers(1, 9)), replace=False)]
        shares = {i: {"stance": dict(zip(("a1", "a2", "a3"), rng.dirichlet(np.ones(3)).tolist()))} for i in ids}
        lists.append(make_list(ids, user=p.user_id, annotations=shares))
    gt = GroundTruth("stance", {"a1": 0.4, "a2": 0.3, "a3": 0.3})
    return build_audit(lists, profiles, ground_truth=gt, config=MeasureConfig(k=4, dr_kind="distribution",
                       aggregator=aggregator), schema=AttributeSchema("stance", ("a1", "a2", "a3")))


def test_observed_matches_public_measure_with_fractional_annotations():
    """The observed replicate shares its block with other replicates and
    still equals the verdict bit for bit: fractional annotation sums run in
    an order that no other row of the block changes."""
    rng = np.random.default_rng(8)
    for trial in range(30):
        inp = dirichlet_audit(rng, 2 * int(rng.integers(3, 30)))
        for measure in ("group_user_bias", "combined_bias", "echo_chamber_test"):
            assert permutation_test(inp, measure, 100, seed=1).observed == PUBLIC_MEASURES[measure](inp).magnitude


def engine_magnitudes(inp, measure, w_p, w_q):
    """Replicate magnitudes of a weight block, as the significance tests
    evaluate them."""
    result = _RankContext(inp).evaluate((measure,), w_p, w_q)
    return _aggregate_queries(result.per_query[measure], inp.config.query_aggregation)


def class_weights(rng, labels, kind):
    """One replicate's per-user multiplicities: a label permutation, or a
    bootstrap resample drawn within each class."""
    if kind == "permutation":
        w_p = labels[rng.permutation(labels.size)]
        return w_p, 1.0 - w_p
    out = []
    for members in (np.flatnonzero(labels), np.flatnonzero(1.0 - labels)):
        out.append(np.bincount(rng.choice(members, members.size), minlength=labels.size).astype(float))
    return tuple(out)


def mixed_block(rng, labels, lead, rows=6):
    """A weight block [rows x users] of both kinds: two thirds of its rows
    of the ``lead`` kind, interleaved with rows of the other."""
    other = "bootstrap" if lead == "permutation" else "permutation"
    pairs = [class_weights(rng, labels, other if r % 3 == 2 else lead) for r in range(rows)]
    return np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])


@pytest.mark.parametrize("weights", ["permutation", "bootstrap"])
@pytest.mark.parametrize("aggregator", ["borda", "median"])
def test_fast_context_matches_member_impls(rng, aggregator, weights):
    # every row of a block, exactly: with one-hot annotations every sum the
    # engine forms is an integer or runs in the object path's order
    for dr_kind in ("kendall", "rbo", "topk", "distribution"):
        inp = small_scenario(delta_content=0.08, delta_rank=0.5, aggregator=aggregator, dr_kind=dr_kind)
        labels = np.array([inp.in_class_p(inp.profile(u)) for u in inp.user_ids()], dtype=float)
        for measure in GROUP_MEASURES:
            w_p, w_q = mixed_block(rng, labels, weights)
            fast = engine_magnitudes(inp, measure, w_p, w_q)
            assert fast.shape == (len(w_p),)
            for r in range(len(w_p)):
                assert fast[r] == oracle_verdict(inp, measure, w_p[r], w_q[r]).magnitude


@pytest.mark.parametrize("aggregator", ["borda", "median"])
def test_context_depth_cap_follows_resampled_members(aggregator):
    """A resample that leaves out the one deep list caps the representatives
    at the depth of the lists it keeps, as the object path does, whatever
    else its block holds."""
    stance = {i: one_hot("stance", "a1" if i in "abcgi" else "a2") for i in "abcdefghij"}
    stance.update({f"x{r}": one_hot("stance", f"a{1 + r % 2}") for r in range(9)})
    served = {
        "u0": [f"x{r}" for r in range(9)],
        "u1": ["a", "b", "c"], "u3": ["d", "e", "f"], "u5": ["a", "d", "g"], "u7": ["b", "e", "h"],
        "u2": ["a", "b", "c"], "u4": ["c", "f", "i"], "u6": ["d", "a", "j"],
    }
    profiles = [profile(f"u{i}", "x" if i % 2 else "y") for i in range(8)]
    lists = [make_list(served[p.user_id], user=p.user_id, annotations=stance) for p in profiles]
    inp = build_audit(lists, profiles, config=MeasureConfig(dr_kind="topk", aggregator=aggregator))
    w_p = np.array([
        [0, 1, 0, 1, 0, 1, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [1, 0, 0, 1, 1, 0, 0, 1],
        [0, 2, 0, 0, 0, 1, 0, 1],
    ], dtype=float)
    w_q = np.array([
        [0, 0, 2, 0, 1, 0, 1, 0],  # u0 left out
        [1, 0, 1, 0, 1, 0, 1, 0],  # everyone: the unpermuted labels
        [0, 1, 1, 0, 0, 1, 1, 0],  # a permutation
        [0, 0, 1, 0, 3, 0, 0, 0],  # u0 left out again
    ], dtype=float)
    for measure in ("group_user_bias", "combined_bias"):
        fast = engine_magnitudes(inp, measure, w_p, w_q)
        for r in range(len(w_p)):
            assert fast[r] == oracle_verdict(inp, measure, w_p[r], w_q[r]).magnitude


def adjacent_swaps(ids, starts):
    out = list(ids)
    for i in starts:
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def test_context_merges_only_the_resampled_variants():
    """Variants A-B-C chain within the merge radius (A-C does not); a
    resample without B's users keeps A and C apart, as the object path
    does, while a permutation keeps everyone and merges all three."""
    a = [f"i{j:02d}" for j in range(20)]
    b = adjacent_swaps(a, (0, 3, 6, 9, 12, 15))
    c = adjacent_swaps(b, (1, 4, 7, 10, 13, 16))
    variant = {"u0": a, "u1": a, "u2": b, "u3": c, "u4": c, "u5": b}
    profiles = [profile(f"u{i}", "x" if i < 3 else "y") for i in range(6)]
    lists = [make_list(variant[p.user_id], user=p.user_id) for p in profiles]
    inp = build_audit(lists, profiles, config=MeasureConfig(dr_kind="kendall"))
    assert 0.05 < kendall_distance(lists[0], lists[3]) and kendall_distance(lists[0], lists[2]) <= 0.05
    w_p = np.array([[2, 1, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0]], dtype=float)  # P = {u0, u0, u1}; all of P
    w_q = np.array([[0, 0, 0, 2, 1, 0], [0, 0, 0, 1, 1, 1]], dtype=float)
    fast = engine_magnitudes(inp, "probabilistic_group_bias", w_p, w_q)
    for r, expected in enumerate((1.0, 0.0)):
        slow = oracle_verdict(inp, "probabilistic_group_bias", w_p[r], w_q[r]).magnitude
        assert fast[r] == slow == expected


def window_audit(n_users=24, aggregator="borda"):
    """Near-duplicate variants that chain: each user is served a 50-item
    window of one ranking, and two windows are within the merge radius
    (top-50 overlap) when their offsets are at most two apart. The offsets
    step by two and chain, so a resample that leaves out one window's users
    can split a chain."""
    base = [f"x{i:02d}" for i in range(60)]
    offsets = {"q0": (0, 2, 4, 6, 8, 10), "q1": (0, 2, 4, 7, 9)}
    profiles = [profile(f"u{i:02d}", "x" if i % 2 else "y") for i in range(n_users)]
    lists = [
        make_list(base[at : at + 50], query=query_id, user=p.user_id)
        for query_id, starts in offsets.items()
        for p, at in zip(profiles, starts * n_users)
    ]
    return build_audit(lists, profiles, config=MeasureConfig(dr_kind="topk", k=50, aggregator=aggregator))


def test_rows_with_the_same_member_variants_share_one_labelling(monkeypatch):
    inp = window_audit()
    calls = []
    components = measures._components

    def counted(edges, kept):
        calls.append((edges.tobytes(), kept.tobytes()))
        return components(edges, kept)

    monkeypatch.setattr(measures, "_components", counted)
    # every permutation keeps every variant: the query's one labelling serves all rows
    permutation_test(inp, "probabilistic_group_bias", 200, seed=3)
    assert len(calls) == len(inp.queries())
    calls.clear()
    # one block: each distinct set of resampled variants is labelled once
    bootstrap_ci(inp, "probabilistic_group_bias", 200, 0.9, seed=3)
    assert len(calls) == len(set(calls)) > len(inp.queries())


def test_each_query_builds_its_variant_edges_once(monkeypatch):
    # the full set's labelling and every resample's read one edge list per query
    inp = window_audit()
    calls = {"_variant_edges": 0, "cluster_variants": 0}
    for name in calls:
        original = getattr(measures, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(measures, name, counted)
    bootstrap_ci(inp, "probabilistic_group_bias", 200, 0.9, seed=3)
    assert len(inp.queries()) == 2
    assert calls == {"_variant_edges": 2, "cluster_variants": 2}


def test_resamples_of_chained_variants_equal_the_oracle(rng):
    # each resample merges what it keeps: one that leaves out a window can split a chain
    inp = window_audit()
    labels = np.array([inp.in_class_p(inp.profile(u)) for u in inp.user_ids()], dtype=float)
    w_p, w_q = mixed_block(rng, labels, "bootstrap", rows=30)
    fast = engine_magnitudes(inp, "probabilistic_group_bias", w_p, w_q)
    for r in range(len(w_p)):
        assert fast[r] == oracle_verdict(inp, "probabilistic_group_bias", w_p[r], w_q[r]).magnitude


@pytest.mark.parametrize("aggregator", ["borda", "median"])
def test_results_do_not_depend_on_block_size(monkeypatch, aggregator):
    """One-row blocks (replicate 0 alone), a block boundary inside the
    stream (replicate 0 and 36 permutations first), and one block holding
    every replicate give identical nulls and intervals, one measure at a
    time and every measure in one pass, with one-hot and with fractional
    annotations over three values, and with chained near-duplicate variants,
    whose resamples merge only what they keep."""
    # the bootstrap cycles through the group measures, one per dr_kind
    cases = [
        (small_scenario(delta_content=0.08, aggregator=aggregator, dr_kind=dr_kind, n_users=16, n_queries=1),
         "group_user_bias", measure, GROUP_MEASURES)
        for dr_kind, measure in zip(("kendall", "rbo", "topk", "distribution"), GROUP_MEASURES)
    ]
    cases.append((dirichlet_audit(np.random.default_rng(3), 40, aggregator), "combined_bias", "echo_chamber_test",
                  GROUP_MEASURES))
    # no ground truth and no annotations: two measures apply
    cases.append((window_audit(aggregator=aggregator), "group_user_bias", "probabilistic_group_bias",
                  ("probabilistic_group_bias", "group_user_bias")))
    for inp, tested, resampled, applicable in cases:
        row_bytes = 8 * len(inp.user_ids())
        results = []
        for budget in (row_bytes, 37 * row_bytes, 1 << 30):
            monkeypatch.setattr(_vector, "_CHUNK_BYTES", budget)
            results.append((
                permutation_test(inp, tested, 100, seed=5),
                permutation_test(inp, "probabilistic_group_bias", 100, seed=5),
                bootstrap_ci(inp, resampled, 100, 0.9, seed=5),
                _permutation_tests(_RankContext(inp), applicable, 100, seed=5),
            ))
        assert results[0] == results[1] == results[2], (tested, resampled)
        assert results[0][3][tested] == results[0][0] and results[0][3]["probabilistic_group_bias"] == results[0][1]


@pytest.mark.parametrize("aggregator", ["borda", "median", "kemeny"])
def test_one_pass_equals_a_test_per_measure(aggregator):
    """Every group measure in one permutation pass gives each the result of
    its own test, exactly: the same permutations, and from each block the
    same representatives."""
    shape = dict(n_users=12, n_queries=1, depth=4, pool=7) if aggregator == "kemeny" else {}
    for dr_kind in ("kendall", "rbo", "topk", "distribution"):
        inp = small_scenario(dr_kind=dr_kind, delta_content=0.1, aggregator=aggregator, **shape)
        together = _permutation_tests(_RankContext(inp), GROUP_MEASURES, 100, seed=6)
        assert together == {measure: permutation_test(inp, measure, 100, seed=6) for measure in GROUP_MEASURES}
    # a measure named twice is tested once
    assert _permutation_tests(_RankContext(inp), ("combined_bias",) * 2, 100, seed=1) == {
        "combined_bias": permutation_test(inp, "combined_bias", 100, seed=1)
    }


@pytest.mark.parametrize("aggregator", ["borda", "median"])
def test_one_observed_evaluation_equals_every_public_verdict(aggregator):
    for dr_kind in ("kendall", "rbo", "topk", "distribution"):
        inp = small_scenario(dr_kind=dr_kind, delta_content=0.1, aggregator=aggregator)
        verdicts = _group_verdicts(_RankContext(inp), GROUP_MEASURES)
        assert verdicts == {measure: fn(inp) for measure, fn in PUBLIC_MEASURES.items()}
    inp = dirichlet_audit(np.random.default_rng(4), 30, aggregator)
    assert _group_verdicts(_RankContext(inp), GROUP_MEASURES) == {m: fn(inp) for m, fn in PUBLIC_MEASURES.items()}


def test_a_measure_that_fails_leaves_the_others_in_its_evaluation():
    """Class P sees only unannotated items, and there is no ground truth:
    the class distributions are undefined and the echo-chamber test is
    unavailable. Each failing measure keeps its own error, as its public
    function raises it, and the other two equal their verdicts."""
    stance = {f"x{j}": one_hot("stance", f"a{1 + j % 2}") for j in range(4)}
    profiles = [profile(f"u{i}", "x" if i < 3 else "y") for i in range(6)]
    lists = [make_list(["z0", "z1"] if i < 3 else ["x0", "x1", "x2"], user=p.user_id, annotations=stance)
             for i, p in enumerate(profiles)]
    inp = build_audit(lists, profiles)
    verdicts = _group_verdicts(_RankContext(inp), GROUP_MEASURES)
    for measure in ("group_user_bias", "probabilistic_group_bias"):
        assert verdicts[measure] == PUBLIC_MEASURES[measure](inp)
    for measure, error in (("combined_bias", MeasureUndefinedError), ("echo_chamber_test", ModeError)):
        assert isinstance(verdicts[measure], error)
        with pytest.raises(error, match=str(verdicts[measure])):
            PUBLIC_MEASURES[measure](inp)
    assert str(verdicts["combined_bias"]) == "distribution carries no annotated mass"
    assert str(verdicts["echo_chamber_test"]) == "echo-chamber test needs a ground truth for query 'q0'"


def test_permutation_memory_grows_with_the_users_not_the_permutations():
    """2,000 users x 10,000 permutations: drawing every permutation at once
    takes 16 bytes per (permutation, user), 320 MB; a block at a time stays
    within a few weight blocks."""
    inp = small_scenario(seed=2, n_users=2000, n_queries=1, depth=10, pool=40, k=10, dr_kind="topk")
    inp.batch("q0").rank_table  # built before the test, as in an audit
    tracemalloc.start()
    try:
        result = permutation_test(inp, "group_user_bias", 10_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_permutations == 10_000
    assert peak < 32e6, f"peak {peak / 1e6:.0f} MB"


def test_kemeny_representatives_row_by_row():
    # at most 7 items per query keeps the exact aggregator cheap
    inp = small_scenario(aggregator="kemeny", n_users=12, n_queries=1, depth=4, pool=7)
    for measure in ("group_user_bias", "combined_bias"):
        result = permutation_test(inp, measure, 100, seed=4)
        assert result.observed == MEMBER_IMPLS[measure](inp, *inp.split()).magnitude
        assert 1.0 / 101.0 <= result.p_value <= 1.0


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


# --------------------------------------------------------------------------
# probabilistic group bias is an exact rational rounded once


@pytest.mark.parametrize("n_users", [20, 100, 200, 500])
def test_probabilistic_disjoint_variants_read_exactly_one(n_users):
    # every user gets a list of their own, so the classes share no variant
    inp = small_scenario(n_users=n_users, depth=10, pool=50, k=10, seed=1)
    verdict = probabilistic_group_bias(inp)
    assert all(counts["merged"] == n_users for counts in verdict.diagnostics["variant_counts"].values())
    assert verdict.magnitude == 1.0
    assert set(verdict.per_query.values()) == {1.0}


def exact_tv(clusters, in_p):
    """Total variation between the classes' cluster distributions, as a Fraction."""
    counts_p, counts_q = (np.bincount(clusters[side], minlength=clusters.max() + 1).tolist() for side in (in_p, ~in_p))
    n_p, n_q = sum(counts_p), sum(counts_q)
    return sum(abs(Fraction(c_p, n_p) - Fraction(c_q, n_q)) for c_p, c_q in zip(counts_p, counts_q)) / 2


def test_probabilistic_p_values_are_exact():
    """Over the permutation stream the test draws, the p-value of each
    audit equals the one counted with exact rationals: replicates equal to
    the observation count against it."""
    rng = np.random.default_rng(11)
    for trial in range(60):
        n_users = 2 * int(rng.integers(3, 21))
        bases = [rng.permutation(6)[: int(rng.integers(2, 6))] for _ in range(int(rng.integers(2, 6)))]
        profiles = [profile(f"u{i:02d}", "x" if i % 2 else "y") for i in range(n_users)]
        lists = [make_list(bases[int(rng.integers(len(bases)))], user=p.user_id) for p in profiles]
        inp = build_audit(lists, profiles)
        result = permutation_test(inp, "probabilistic_group_bias", 100, seed=trial)

        batch = inp.batch("q0")
        variants = [batch.rows[i] for i in np.unique(batch.labels, return_index=True)[1].tolist()]
        clusters = np.array(cluster_variants(variants, _variant_edges(inp, variants)), dtype=np.int64)[batch.labels]
        in_p = np.arange(n_users) % 2 == 1
        # the stream permutation_test draws: one argsort of uniforms per replicate
        permutations = np.argsort(np.random.default_rng(trial).random((100, n_users)), axis=1)
        observed = exact_tv(clusters, in_p)
        at_least = sum(exact_tv(clusters, in_p[order]) >= observed for order in permutations)
        assert result.observed == float(observed)
        assert result.p_value == float(Fraction(1 + at_least, 101)), trial
