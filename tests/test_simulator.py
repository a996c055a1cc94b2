"""Simulator tests: determinism, matched-pair construction, injected-bias
recovery against analytic expectations, and scenario validation."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from rankbias import (
    AttributeSchema,
    ConfigError,
    GroundTruth,
    InputError,
    MeasureConfig,
    combined_bias,
    group_user_bias,
    probabilistic_group_bias,
    user_distance,
)
from rankbias.distances import attribute_distribution
from rankbias.simulator import (
    OtherAttribute,
    QuerySpec,
    ScenarioConfig,
    _build_lists,
    _pool_states,
    _QueryModel,
    _seed_states,
    _set_pcg,
    audit_input_from_scenario,
    generate_profiles,
    generate_queries,
    pair_tag,
    serve,
    serve_all,
    substream,
)
from rankbias import simulator
from rankbias.io import result_lists_text
from rankbias.types import PROTECTED, RankedList, ResultItem

STANCE = AttributeSchema("stance", ("a1", "a2"))
UNIFORM_GT = GroundTruth("stance", {"a1": 0.5, "a2": 0.5})


def scenario(**overrides):
    defaults = dict(
        n_users=20,
        protected=AttributeSchema("group", ("x", "y"), PROTECTED),
        protected_value="x",
        queries=(QuerySpec("q0", STANCE, UNIFORM_GT),),
        other_attributes=(
            OtherAttribute("persona", values=("p0", "p1", "p2")),
            OtherAttribute("age", value_range=(18.0, 80.0)),
        ),
        list_depth=8,
        item_pool_size=30,
        seed=42,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def numpy_stream(seed, *context):
    """The generator numpy itself seeds from (seed, SHA-256 words of the context)."""
    digest = hashlib.sha256("\x1f".join(map(str, context)).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8, 16, 24)]
    return np.random.default_rng(np.random.SeedSequence([seed] + words))


# --------------------------------------------------------------------------
# profiles


def test_profiles_matched_pairs():
    cfg = scenario(n_users=6)
    profiles = generate_profiles(cfg)
    assert len(profiles) == 6
    by_id = {p.user_id: p for p in profiles}
    for i in range(3):
        a, b = by_id[f"u{i:05d}-a"], by_id[f"u{i:05d}-b"]
        assert a.protected == {"group": "x"}
        assert b.protected == {"group": "y"}
        assert a.other == b.other
        assert pair_tag(a.user_id) == pair_tag(b.user_id)


def test_profiles_class_attribute_distributions_identical():
    profiles = generate_profiles(scenario(n_users=40))
    p = sorted(str(pr.other) for pr in profiles if pr.protected["group"] == "x")
    q = sorted(str(pr.other) for pr in profiles if pr.protected["group"] == "y")
    assert p == q


def test_partner_user_distance_is_zero():
    cfg = scenario(
        n_users=1000,
        other_attributes=(
            OtherAttribute("persona", values=("p0", "p1", "p2")),
            OtherAttribute("age", value_range=(18.0, 80.0)),
            OtherAttribute("income", value_range=(0.0, 1.0)),
        ),
    )
    profiles = generate_profiles(cfg)
    ranges = cfg.numeric_ranges()
    attrs = ("persona", "age", "income")
    for i in range(0, len(profiles), 2):
        assert user_distance(profiles[i], profiles[i + 1], attrs, ranges) == 0.0


def test_profiles_odd_count_rejected():
    # rejected with the scenario, so validating a manifest catches it too
    for n_users in (7, 0):
        with pytest.raises(ConfigError, match=f"n_users must be even and >= 2, got {n_users}"):
            scenario(n_users=n_users)


def test_profiles_deterministic():
    assert generate_profiles(scenario()) == generate_profiles(scenario())


# --------------------------------------------------------------------------
# queries


def test_queries_carry_ground_truth():
    battery = generate_queries(scenario())
    assert len(battery) == 1
    assert battery[0].ground_truth.probabilities == {"a1": 0.5, "a2": 0.5}


def test_battery_checked_with_the_scenario():
    # rejected with the scenario, so validating a manifest catches it too
    with pytest.raises(ConfigError, match="queries must not be empty"):
        scenario(queries=())
    tone = AttributeSchema("tone", ("t1", "t2"))
    other = QuerySpec("q1", tone, GroundTruth("tone", {"t1": 0.5, "t2": 0.5}))
    with pytest.raises(ConfigError, match="every query must differentiate the same attribute"):
        scenario(queries=(QuerySpec("q0", STANCE, UNIFORM_GT), other))


def test_query_battery_order_stable():
    cfg = scenario(queries=tuple(QuerySpec(f"q{i:02d}", STANCE, UNIFORM_GT) for i in range(20)))
    assert [q.query_id for q in generate_queries(cfg)] == [f"q{i:02d}" for i in range(20)]


# --------------------------------------------------------------------------
# serving


def test_serve_deterministic_and_consistent_with_serve_all():
    cfg = scenario()
    profiles = generate_profiles(cfg)
    lists = serve_all(cfg, profiles)
    for p in profiles:
        ranked = serve(cfg, p, "q0")
        assert ranked == serve(cfg, p, "q0")
        assert ranked == lists[(p.user_id, "q0")]
        assert ranked.depth == cfg.list_depth


def test_serve_all_matches_fresh_items_and_shares_them_within_a_query():
    cfg = scenario(
        n_users=40,
        queries=(QuerySpec("q0", STANCE, UNIFORM_GT), QuerySpec("q1", STANCE, UNIFORM_GT)),
        delta_content_p=0.2,
        delta_content_pbar=-0.2,
        delta_rank=0.5,
    )
    profiles = generate_profiles(cfg)
    lists = serve_all(cfg, profiles)
    for query in cfg.queries:
        model = _QueryModel(cfg, query)
        values = query.attribute.values
        objects: dict[tuple, ResultItem] = {}
        for p in profiles:
            # oracle: fresh items for every list, from numpy's own seeding
            items = numpy_stream(cfg.seed, "items", query.query_id, p.user_id)
            sample = np.sort(items.choice(cfg.item_pool_size, size=cfg.list_depth, replace=False))
            uniforms = numpy_stream(cfg.seed, "annot", query.query_id, p.user_id).random(cfg.list_depth)
            in_p = p.protected["group"] == "x"
            picked = np.searchsorted(model.cdf[in_p], uniforms, side="right")
            order = np.argsort(model.position[in_p][sample], kind="stable")
            expected = tuple(
                ResultItem(model.pool[sample[j]], {"stance": {values[min(picked[j], len(values) - 1)]: 1.0}})
                for j in order
            )
            ranked = lists[(p.user_id, query.query_id)]
            assert ranked == RankedList(query.query_id, p.user_id, expected)
            for item in ranked.items:
                key = (item.item_id, tuple(item.annotations["stance"]))
                assert objects.setdefault(key, item) is item
        assert len(objects) <= cfg.item_pool_size * len(values)


def test_draw_above_the_cdf_end_takes_the_last_value():
    # rounding can leave a cumulative distribution ending just below 1
    cfg = scenario()
    model = _QueryModel(cfg, cfg.queries[0])
    model.cdf = {True: np.array([0.5, 0.75]), False: np.array([0.5, 0.75])}
    ranked = _build_lists(cfg, model, generate_profiles(cfg)[:1], np.array([[3, 7]]), np.array([[0.9, 0.1]]))[0]
    assert {item.item_id: item.annotations for item in ranked.items} == {
        model.pool[3]: {"stance": {"a2": 1.0}},
        model.pool[7]: {"stance": {"a1": 1.0}},
    }


def test_serve_rejects_unknown_query():
    cfg = scenario()
    with pytest.raises(InputError):
        serve(cfg, generate_profiles(cfg)[0], "nope")


def test_null_scenario_partners_get_identical_lists_in_pair_mode():
    cfg = scenario(personalization="pair", delta_rank=0.0)
    profiles = generate_profiles(cfg)
    lists = serve_all(cfg, profiles)
    for i in range(0, len(profiles), 2):
        a, b = profiles[i], profiles[i + 1]
        assert lists[(a.user_id, "q0")].item_ids() == lists[(b.user_id, "q0")].item_ids()
        assert [it.annotations for it in lists[(a.user_id, "q0")].items] == [
            it.annotations for it in lists[(b.user_id, "q0")].items
        ]


def test_profile_mode_clones_share_lists():
    cfg = scenario(personalization="profile", other_attributes=(OtherAttribute("persona", values=("p0",)),))
    profiles = generate_profiles(cfg)
    lists = serve_all(cfg, profiles)
    ids = {lists[(p.user_id, "q0")].item_ids() for p in profiles if p.protected["group"] == "x"}
    assert len(ids) == 1  # single persona: every class-P user sees one ordering


def test_content_shift_changes_class_distributions():
    cfg = scenario(n_users=400, delta_content_p=0.2, delta_content_pbar=-0.2, item_pool_size=40, list_depth=10)
    inp = audit_input_from_scenario(cfg, MeasureConfig(k=10))
    dist_p = np.mean(
        [
            attribute_distribution(inp.list_for(u, "q0"), STANCE, 10)["a1"]
            for u in inp.split()[0]
        ]
    )
    dist_q = np.mean(
        [
            attribute_distribution(inp.list_for(u, "q0"), STANCE, 10)["a1"]
            for u in inp.split()[1]
        ]
    )
    assert dist_p == pytest.approx(0.7, abs=0.05)
    assert dist_q == pytest.approx(0.3, abs=0.05)


def test_full_swap_pass_group_distance_exact():
    # full pool in every list: representatives equal the class templates, so
    # the group distance is exactly (#swapped pairs) / C(k, 2) = 1/(k-1)
    k = 10
    cfg = scenario(n_users=40, list_depth=k, item_pool_size=k, delta_rank=1.0)
    inp = audit_input_from_scenario(cfg, MeasureConfig(dr_kind="kendall"))
    expected = (k / 2) / (k * (k - 1) / 2)
    assert group_user_bias(inp).magnitude == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1 / (k - 1))


def test_partial_swap_group_distance_near_expectation():
    # averaged over queries, the template distance concentrates at
    # delta_rank / (k - 1)
    k = 10
    delta = 0.5
    cfg = scenario(
        n_users=20,
        list_depth=k,
        item_pool_size=k,
        delta_rank=delta,
        queries=tuple(QuerySpec(f"q{i}", STANCE, UNIFORM_GT) for i in range(10)),
        seed=99,
    )
    inp = audit_input_from_scenario(cfg, MeasureConfig(dr_kind="kendall"))
    assert group_user_bias(inp).magnitude == pytest.approx(delta / (k - 1), abs=0.05)


def test_combined_bias_monotone_in_content_shift():
    magnitudes = []
    for delta in (0.0, 0.05, 0.1, 0.15, 0.2):
        cfg = scenario(n_users=2000, delta_content_p=delta, delta_content_pbar=-delta,
                       item_pool_size=40, list_depth=10, seed=7)
        inp = audit_input_from_scenario(cfg, MeasureConfig(k=10))
        magnitudes.append(combined_bias(inp).magnitude)
    for lo, hi in zip(magnitudes, magnitudes[1:]):
        assert hi >= lo - 0.02
    assert magnitudes[-1] == pytest.approx(0.4, abs=0.05)


def test_null_scenario_measures_shrink_with_population():
    small = audit_input_from_scenario(scenario(n_users=40, seed=3), MeasureConfig(k=8))
    large = audit_input_from_scenario(scenario(n_users=1000, seed=3), MeasureConfig(k=8))
    assert combined_bias(large).magnitude < 0.05
    assert combined_bias(large).magnitude <= combined_bias(small).magnitude + 0.02


def test_probabilistic_null_with_few_variants():
    cfg = scenario(
        n_users=2000,
        personalization="profile",
        other_attributes=(OtherAttribute("persona", values=("p0", "p1")),),
        delta_rank=0.0,
    )
    inp = audit_input_from_scenario(cfg, MeasureConfig())
    verdict = probabilistic_group_bias(inp)
    assert verdict.magnitude < 0.1  # labels independent of variant: TV -> 0


# --------------------------------------------------------------------------
# configuration validation


def test_invalid_content_shift_rejected():
    with pytest.raises(ConfigError):
        scenario(delta_content_p=0.6)  # 0.5 + 0.6 > 1
    with pytest.raises(ConfigError):
        scenario(delta_content_pbar=-0.7)
    for delta in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="content shift"):
            scenario(delta_content_p=delta)


def test_scenario_validation():
    with pytest.raises(ConfigError):
        scenario(delta_rank=1.5)
    with pytest.raises(ConfigError):
        scenario(item_pool_size=4, list_depth=8)
    with pytest.raises(ConfigError):
        scenario(personalization="psychic")
    with pytest.raises(ConfigError):
        scenario(protected_value="zzz")
    with pytest.raises(ConfigError):
        scenario(protected=AttributeSchema("group", ("x", "y")))  # wrong kind


def test_scenario_dict_round_trip():
    cfg = scenario(delta_content_p=0.1, delta_content_pbar=-0.1, delta_rank=0.25)
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    # the single-knob shorthand expands to opposite class shifts
    data = cfg.to_dict()
    del data["delta_content_p"], data["delta_content_pbar"]
    data["delta_content"] = 0.1
    assert ScenarioConfig.from_dict(data) == cfg
    # p_value defaults to the first protected value
    del data["protected"]["p_value"]
    data["protected"]["values"] = ["y", "x"]
    assert ScenarioConfig.from_dict(data).protected_value == "y"


def test_substream_is_stable():
    a = substream(7, "items", "q0", "u1").random(4)
    b = substream(7, "items", "q0", "u1").random(4)
    c = substream(7, "items", "q0", "u2").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --------------------------------------------------------------------------
# batched stream seeding


def random_contexts(n, rng):
    parts = ("items", "annot", "q0", "q17", "u00012-a", "", "\u00e9t\u00e9", '{"age": 31.5}')
    return [
        tuple(parts[j] if j < len(parts) else int(j) for j in rng.integers(0, len(parts) + 5, rng.integers(0, 5)))
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 0x9E3779B97F4A7C15F39CC0605CEDC834])
def test_seed_states_equal_numpy_seed_sequence(seed):
    contexts = random_contexts(10_000, np.random.default_rng(seed % 1000))
    expected = np.array([numpy_stream(seed, *c).bit_generator.seed_seq.generate_state(4, np.uint64) for c in contexts])
    assert np.array_equal(_seed_states(seed, contexts), expected)


@pytest.mark.parametrize("length", range(1, 13))
def test_pool_states_equal_numpy_on_every_entropy_length(length):
    rng = np.random.default_rng(length)
    entropy = rng.integers(0, 2**32, (200, length), dtype=np.uint32)
    entropy[:20] = 0
    entropy[20:40, -1] = rng.integers(0, 3, 20)
    expected = [np.random.SeedSequence([int(w) for w in row]).generate_state(4, np.uint64) for row in entropy]
    assert np.array_equal(_pool_states(entropy), np.array(expected))


def test_seed_states_keep_one_word_for_a_sha_word_below_2_to_the_32(monkeypatch):
    # a SHA-256 word below 2**32 gives numpy one entropy word, not two; rows
    # of every length are seeded together in one batch
    rng = np.random.default_rng(3)
    digests = rng.integers(0, 2**32, (64, 8), dtype=np.uint32)
    digests[:, 1::2] *= rng.integers(0, 2, (64, 4), dtype=np.uint32)  # zero about half the high halves
    digests[:4, :] = 0
    by_context = {str(i): digests[i].astype("<u4").tobytes() for i in range(64)}
    fake = SimpleNamespace(sha256=lambda data: SimpleNamespace(digest=lambda: by_context[data.decode()]))
    monkeypatch.setattr(simulator, "hashlib", fake)
    for seed in (0, 2**32 + 1):
        expected = [
            np.random.SeedSequence([seed] + [int(w) for w in digests[i].view("<u8")]).generate_state(4, np.uint64)
            for i in range(64)
        ]
        assert np.array_equal(_seed_states(seed, [(str(i),) for i in range(64)]), np.array(expected))


def test_set_pcg_positions_a_generator_like_numpy_seeding():
    contexts = random_contexts(50, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    for seed in (5, 2**64 + 3):
        for context, row in zip(contexts, _seed_states(seed, contexts)):
            for draw in (lambda g: g.choice(150, 50, replace=False), lambda g: g.random(7)):
                _set_pcg(rng.bit_generator, row)
                assert np.array_equal(draw(rng), draw(numpy_stream(seed, *context)))
    assert np.array_equal(substream(9, "swap", "q0").random(5), numpy_stream(9, "swap", "q0").random(5))


PINNED_LISTS = [
    # (personalization, list_depth, item_pool_size, seed): sha256 of result_lists_text
    (("user", 6, 20, 3), "43b77701c07f9bf6ed882dec3ab240ffd545302f762c84644ff51eab8f3c0dae"),
    (("pair", 6, 20, 3), "3c69b0179284d1d1a466bc4616e24e24ff3006eb9ae59519238f0d7342e62040"),
    (("profile", 6, 20, 3), "29acdf96991aa9e5a4cfb5cb9575622d406bd57e71fc66335dcdd419abe44b30"),
    (("user", 9, 9, 3), "c88a7db18963c75b20e6eaa188e0e49499ff1dab1b14a9b28e444d39f21127d1"),
    (("pair", 7, 7, 0), "7ac8b79d713bf36f3e7bb828a69a2cd1bdb4a9e2aace167264513365121b92b5"),
    (("user", 6, 20, 2**32 + 7), "63a0f00855a3aba117da261c2b2caf712f9ad0b09fd9f1fd0b3e1bf4879b6c7f"),
    (("profile", 6, 20, 2**64 + 3), "fa0494eb621c0e2f22fbc7b64545a3b08f92c1f18b9b7aaee6d41be1aef0de28"),
]


@pytest.mark.parametrize("key, digest", PINNED_LISTS)
def test_served_bytes_are_pinned(key, digest):
    personalization, depth, pool, seed = key
    stance = AttributeSchema("stance", ("a1", "a2", "a3"))
    gt = GroundTruth("stance", {"a1": 0.5, "a2": 0.3, "a3": 0.2})
    cfg = scenario(
        n_users=12,
        queries=(QuerySpec("q0", stance, gt), QuerySpec("q1", stance, gt)),
        other_attributes=(
            OtherAttribute("persona", values=("p0", "p1")),
            OtherAttribute("age", value_range=(18.0, 80.0)),
        ),
        list_depth=depth,
        item_pool_size=pool,
        delta_content_p=0.2,
        delta_content_pbar=-0.1,
        delta_rank=0.5,
        personalization=personalization,
        seed=seed,
    )
    assert hashlib.sha256(result_lists_text(serve_all(cfg)).encode("utf-8")).hexdigest() == digest


def test_serving_seeds_a_constant_number_of_batches_per_query(monkeypatch):
    # template, swap and one batch for all of the query's list streams,
    # however many users there are
    calls = []

    def counted(seed, contexts):
        calls.append(len(contexts))
        return _seed_states(seed, contexts)

    monkeypatch.setattr(simulator, "_seed_states", counted)
    for n_users in (20, 200):
        queries = (QuerySpec("q0", STANCE, UNIFORM_GT), QuerySpec("q1", STANCE, UNIFORM_GT))
        cfg = scenario(n_users=n_users, queries=queries, delta_rank=0.5)
        profiles = generate_profiles(cfg)
        calls.clear()
        serve_all(cfg, profiles)
        assert len(calls) == 3 * len(cfg.queries)
        assert sum(calls) == len(cfg.queries) * (2 + 2 * n_users)
