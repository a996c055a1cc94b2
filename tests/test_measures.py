"""Measure tests: hand-derived verdicts for every documented case plus the
cross-measure invariants (monotonicity, symmetry, determinism)."""

import numpy as np
import pytest

from rankbias import (
    AuditError,
    GroundTruth,
    InputError,
    MeasureConfig,
    MeasureUndefinedError,
    ModeError,
    ParameterError,
    SchemaError,
    combined_bias,
    comparative_bias,
    content_bias,
    echo_chamber_test,
    group_user_bias,
    individual_user_bias,
    kendall_distance,
    probabilistic_group_bias,
    user_distance,
)
from rankbias.aggregation import ListCollection
from rankbias.types import RankedList, ResultItem
from rankbias.measures import (
    VARIANT_MERGE_RADIUS,
    AuditInput,
    _components,
    _variant_edges,
    cluster_variants,
    list_space_distance,
)

from conftest import (
    annotated_list,
    build_audit,
    make_list,
    one_hot,
    profile,
    stance_schema,
    weighted_list,
)
from group_oracles import MEMBER_IMPLS, single_linkage

UNIFORM_GT = GroundTruth("stance", {"a1": 0.5, "a2": 0.5})


def clone_pair(n_pairs=1, attr_value="c0"):
    """Matched clones: identical relevant attribute, opposite protected class."""
    out = []
    for i in range(n_pairs):
        out.append(profile(f"u{i}a", group="x", persona=attr_value))
        out.append(profile(f"u{i}b", group="y", persona=attr_value))
    return out


# --------------------------------------------------------------------------
# individual user bias


def test_individual_zero_when_lists_identical():
    profiles = [profile("u1", "x", persona="p"), profile("u2", "y", persona="p")]
    lists = [make_list(["x1", "x2"], user="u1"), make_list(["x1", "x2"], user="u2")]
    inp = build_audit(lists, profiles, config=MeasureConfig(relevant_attrs=("persona",)))
    verdict = individual_user_bias(inp)
    assert verdict.magnitude == 0.0
    assert not verdict.biased
    assert verdict.threshold == 0.0


def test_individual_maximally_dissimilar_users_never_violate():
    profiles = [profile("u1", "x", persona="p"), profile("u2", "y", persona="q")]
    lists = [make_list(["x1", "x2", "x3"], user="u1"), make_list(["y1", "y2", "y3"], user="u2")]
    inp = build_audit(lists, profiles, config=MeasureConfig(relevant_attrs=("persona",)))
    assert individual_user_bias(inp).magnitude == 0.0


def test_individual_clone_violation_equals_list_distance():
    # clones (D_u = 0) with lists at kendall distance 3/10
    a = make_list(["x1", "x2", "x3", "x4", "x5"], user="u0a")
    b = make_list(["x2", "x1", "x4", "x5", "x3"], user="u0b")
    assert kendall_distance(a, b) == pytest.approx(0.3)
    inp = build_audit([a, b], clone_pair(), config=MeasureConfig(relevant_attrs=("persona",)))
    verdict = individual_user_bias(inp)
    assert verdict.magnitude == pytest.approx(0.3)
    assert verdict.biased
    assert verdict.diagnostics["top_pairs"][0][:2] == ["u0a", "u0b"]


def test_individual_requires_two_users_and_relevant_attrs():
    lone = build_audit(
        [make_list(["x1"], user="u1")],
        [profile("u1", "x", persona="p")],
        config=MeasureConfig(relevant_attrs=("persona",)),
    )
    with pytest.raises(MeasureUndefinedError):
        individual_user_bias(lone)
    pair = build_audit(
        [make_list(["x1"], user="u1"), make_list(["x1"], user="u2")],
        [profile("u1", "x", persona="p"), profile("u2", "y", persona="p")],
    )
    with pytest.raises(ParameterError):
        individual_user_bias(pair)


@pytest.mark.parametrize(
    "bounds",
    [(0.0, float("inf")), (-float("inf"), 1.0), (float("nan"), 1.0), pytest.param((0.0, 10**400), id="int-beyond-float")],
)
def test_measure_config_rejects_a_non_finite_numeric_range(bounds):
    # an infinite width would read every numeric profile term as 0
    with pytest.raises(ParameterError, match="must be finite"):
        MeasureConfig(relevant_attrs=("age",), numeric_ranges={"age": bounds})


def test_individual_distribution_rejects_what_the_scalar_distance_rejects():
    profiles = [profile("u1", "x", persona="p"), profile("u2", "y", persona="q")]
    config = MeasureConfig(dr_kind="distribution", relevant_attrs=("persona",))
    off_schema = [annotated_list(["a1", "a2"], user="u1"), annotated_list(["a1", "a3"], user="u2")]
    with pytest.raises(SchemaError, match="'a3' not in schema"):
        individual_user_bias(build_audit(off_schema, profiles, config=config))
    empty = [annotated_list(["a1"], user="u1"), make_list([], user="u2")]
    with pytest.raises(MeasureUndefinedError, match=r"empty list \('u2', 'q0'\)"):
        individual_user_bias(build_audit(empty, profiles, config=config))


def test_individual_distribution_checks_every_item_against_the_schema():
    # the batch's annotation table reads every item, not only the top k
    profiles = [profile("u1", "x", persona="p"), profile("u2", "y", persona="q")]
    config = MeasureConfig(dr_kind="distribution", k=1, relevant_attrs=("persona",))
    lists = [annotated_list(["a1", "a2"], user="u1"), annotated_list(["a1", "a3"], user="u2")]
    with pytest.raises(SchemaError, match="item 'x1': annotation value 'a3' not in schema 'stance'"):
        individual_user_bias(build_audit(lists, profiles, config=config))


def test_individual_monotone_in_list_divergence():
    # more adjacent swaps -> kendall distance up -> magnitude never decreases
    base = ["x1", "x2", "x3", "x4", "x5", "x6"]
    magnitudes = []
    for swaps in range(4):
        ids = list(base)
        for s in range(swaps):
            ids[2 * s], ids[2 * s + 1] = ids[2 * s + 1], ids[2 * s]
        lists = [make_list(base, user="u0a"), make_list(ids, user="u0b")]
        inp = build_audit(lists, clone_pair(), config=MeasureConfig(relevant_attrs=("persona",)))
        magnitudes.append(individual_user_bias(inp).magnitude)
    assert magnitudes == sorted(magnitudes)
    assert magnitudes[0] == 0.0 < magnitudes[-1]


def test_individual_matches_scalar_oracle(rng):
    """per_query and top_pairs equal a recomputation with the scalar
    list_space_distance and user_distance exactly, for every distance. The
    distribution distance sees weight vectors that do not sum to exactly 1
    (the items keep them: they are within 1e-12 of it), both weightings, k
    below some depths, and unannotated items."""
    users = [profile(f"u{i}", "x" if i % 2 else "y", persona=f"p{i % 3}", age=float(rng.uniform(0, 1)))
             for i in range(8)]
    pool = [f"i{j:02d}" for j in range(12)]
    schema = stance_schema(3)
    stance = {i: {"stance": dict(zip(schema.values, rng.dirichlet(np.ones(3)).tolist()))} for i in pool[:6]}
    stance.update({i: one_hot("stance", schema.values[j % 3]) for j, i in enumerate(pool[6:10])})
    lists = []
    for q in ("qa", "qb"):
        for u in users:
            # an annotated item first, so that every list has annotated mass; i10 and i11 are unannotated
            first = str(rng.choice(pool[:10]))
            rest = rng.choice([i for i in pool if i != first], size=int(rng.integers(0, 6)), replace=False)
            lists.append(make_list([first, *rest], query=q, user=u.user_id, annotations=stance))
    items = {item.item_id: item for lst in lists for item in lst.items}
    assert any(sum(items[i].annotations["stance"].values()) != 1.0 for i in pool[:6] if i in items)
    configs = [(kind, "uniform") for kind in ("kendall", "rbo", "topk")]
    configs += [("distribution", weighting) for weighting in ("uniform", "rank-discounted")]
    for kind, weighting in configs:
        for how in ("mean", "max"):
            cfg = MeasureConfig(dr_kind=kind, k=4, weighting=weighting, query_aggregation=how,
                                relevant_attrs=("persona", "age"), numeric_ranges={"age": (0.0, 1.0)})
            inp = build_audit(lists, users, config=cfg, schema=schema)
            verdict = individual_user_bias(inp)
            ids = inp.user_ids()
            per_query = dict.fromkeys(inp.queries(), 0.0)
            pair_values = {}
            for i, u in enumerate(ids):
                for v in ids[i + 1 :]:
                    du = user_distance(inp.profile(u), inp.profile(v), cfg.relevant_attrs, cfg.numeric_ranges)
                    total = 0.0
                    for q in inp.queries():
                        dr = list_space_distance(inp.list_for(u, q), inp.list_for(v, q), inp.differentiating, cfg)
                        violation = max(0.0, dr - du)
                        per_query[q] = max(per_query[q], violation)
                        total = max(total, violation) if how == "max" else total + violation
                    pair_values[(u, v)] = total if how == "max" else total / len(per_query)
            top = sorted(pair_values.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
            assert verdict.diagnostics["n_pairs"] == len(pair_values)
            assert verdict.per_query == per_query
            assert verdict.diagnostics["top_pairs"] == [[u, v, value] for (u, v), value in top]
            assert verdict.magnitude == max(pair_values.values())


# --------------------------------------------------------------------------
# group user bias


def test_group_zero_when_class_populations_identical():
    profiles = clone_pair(2)
    lists = []
    for p in profiles:
        lists.append(make_list(["x1", "x2", "x3"], user=p.user_id))
    inp = build_audit(lists, profiles)
    verdict = group_user_bias(inp)
    assert verdict.magnitude == 0.0
    assert not verdict.biased


def test_group_disjoint_representatives_are_maximal():
    profiles = clone_pair(2)
    lists = []
    for p in profiles:
        ids = ["x1", "x2", "x3"] if p.protected["group"] == "x" else ["y1", "y2", "y3"]
        lists.append(make_list(ids, user=p.user_id))
    inp = build_audit(lists, profiles, config=MeasureConfig(dr_kind="topk", k=3))
    verdict = group_user_bias(inp)
    assert verdict.magnitude == 1.0
    assert verdict.biased  # default list-space epsilon 0.1


def test_group_requires_both_classes():
    profiles = [profile("u1", "x"), profile("u2", "x")]
    lists = [make_list(["x1"], user=u) for u in ("u1", "u2")]
    with pytest.raises(InputError):
        group_user_bias(build_audit(lists, profiles))


def test_group_default_epsilon_by_space():
    profiles = clone_pair(1)
    lists = [make_list(["x1", "x2"], user=p.user_id) for p in profiles]
    assert group_user_bias(build_audit(lists, profiles)).threshold == 0.1
    ann = {i: one_hot("stance", "a1") for i in ("x1", "x2")}
    lists = [make_list(["x1", "x2"], user=p.user_id, annotations=ann) for p in profiles]
    inp = build_audit(lists, profiles, config=MeasureConfig(dr_kind="distribution"))
    assert group_user_bias(inp).threshold == 0.05


# --------------------------------------------------------------------------
# probabilistic group bias


def variant_audit(p_variants, q_variants):
    """AuditInput whose class members receive the given list variants."""
    profiles, lists = [], []
    for i, ids in enumerate(p_variants):
        profiles.append(profile(f"p{i:02d}", "x"))
        lists.append(make_list(ids, user=f"p{i:02d}"))
    for i, ids in enumerate(q_variants):
        profiles.append(profile(f"q{i:02d}", "y"))
        lists.append(make_list(ids, user=f"q{i:02d}"))
    return build_audit(lists, profiles)


L1 = ["x1", "x2", "x3", "x4"]
L2 = ["y1", "y2", "y3", "y4"]


def test_probabilistic_single_variant_degenerate():
    inp = variant_audit([L1, L1], [L1, L1])
    verdict = probabilistic_group_bias(inp)
    assert verdict.magnitude == 0.0
    assert verdict.diagnostics["degenerate"] is True


def test_probabilistic_disjoint_supports():
    inp = variant_audit([L1, L1], [L2, L2])
    assert probabilistic_group_bias(inp).magnitude == 1.0


def test_probabilistic_tv_example():
    # P: 70%/30% over {L1, L2}; complement: 50%/50% -> TV 0.2
    inp = variant_audit([L1] * 7 + [L2] * 3, [L1] * 5 + [L2] * 5)
    assert probabilistic_group_bias(inp).magnitude == pytest.approx(0.2)


def test_probabilistic_merges_near_duplicates():
    # one adjacent swap deep in a long list stays within the merge radius
    base = [f"x{i}" for i in range(25)]
    near = list(base)
    near[23], near[24] = near[24], near[23]
    assert kendall_distance(make_list(base), make_list(near)) <= 0.05
    inp = variant_audit([base, base], [near, near])
    verdict = probabilistic_group_bias(inp)
    assert verdict.magnitude == 0.0
    assert verdict.per_query == {"q0": 0.0}


def test_probabilistic_in_unit_interval(rng):
    for _ in range(20):
        n_p, n_q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        pool = [f"i{j}" for j in range(10)]
        mk = lambda: list(rng.choice(pool, size=4, replace=False))
        verdict = probabilistic_group_bias(variant_audit([mk() for _ in range(n_p)], [mk() for _ in range(n_q)]))
        assert 0.0 <= verdict.magnitude <= 1.0


def test_variant_merging_is_single_linkage():
    # two adjacent swaps apart (2/45) merge; four (4/45) do not, except
    # through the variant in between
    a = [f"x{i}" for i in range(10)]
    b = ["x1", "x0", "x3", "x2"] + a[4:]
    c = b[:4] + ["x5", "x4", "x7", "x6"] + a[8:]
    lists = [make_list(ids) for ids in (a, b, c)]
    assert kendall_distance(lists[0], lists[1]) <= VARIANT_MERGE_RADIUS
    assert kendall_distance(lists[1], lists[2]) <= VARIANT_MERGE_RADIUS
    assert kendall_distance(lists[0], lists[2]) > VARIANT_MERGE_RADIUS
    inp = variant_audit([a], [c])
    rows = ListCollection(lists).rows
    assert merged_labels([rows[0], rows[2]], inp) == [0, 1]
    assert merged_labels(rows, inp) == [0, 0, 0]
    assert merged_labels([rows[0], rows[2], rows[1]], inp) == [0, 0, 0]


def merged_labels(variants, inp):
    return cluster_variants(variants, _variant_edges(inp, variants))


def scalar_clusters(variants, inp):
    """Reference single-linkage labels from the scalar distance, numbered in
    first-appearance order."""
    cfg = inp.config if inp.config.dr_kind != "distribution" else MeasureConfig(dr_kind="kendall")
    n = len(variants)
    label = [-1] * n
    clusters = 0
    for seed in range(n):
        if label[seed] >= 0:
            continue
        label[seed] = clusters
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if label[j] < 0 and list_space_distance(
                    variants[i], variants[j], inp.differentiating, cfg
                ) <= VARIANT_MERGE_RADIUS:
                    label[j] = clusters
                    frontier.append(j)
        clusters += 1
    return label


def test_variant_merging_matches_scalar_rule(rng):
    # 60 and 70 variants sit on both sides of the size where merging once
    # switched implementations
    base = [f"x{i:02d}" for i in range(20)]
    for n in (60, 70):
        variants = []
        for _ in range(n):
            ids = list(base)
            for _ in range(int(rng.integers(0, 4))):
                at = int(rng.integers(0, len(ids) - 1))
                ids[at], ids[at + 1] = ids[at + 1], ids[at]
            if rng.random() < 0.3:
                ids[int(rng.integers(0, len(ids)))] = f"y{int(rng.integers(0, 5))}"
                ids = list(dict.fromkeys(ids))
            variants.append(make_list(ids))
        for kind in ("kendall", "rbo", "topk", "distribution"):
            inp = build_audit([make_list(base)], [profile("u0")], config=MeasureConfig(dr_kind=kind, k=10, rbo_p=0.98))
            labels = merged_labels(ListCollection(variants).rows, inp)
            assert labels == scalar_clusters(variants, inp), (n, kind)
            assert 1 < max(labels) + 1 < n, (n, kind)


def labelling_cases(rng):
    """Seeded graphs as (n, edges [m x 2]): random graphs of several
    densities, and chains, stars and pairs over nodes in random order."""
    for n in (2, 7, 40, 120):
        for density in (0.02, 0.1, 0.5, 1.0):
            yield n, np.argwhere(np.triu(rng.random((n, n)) < density, k=1))
    for n in (2, 3, 50, 400):
        order = rng.permutation(n)
        yield n, np.stack([order[:-1], order[1:]], axis=1)  # a chain in random order
        yield n, np.stack([np.full(n - 1, order[0]), order[1:]], axis=1)  # a star
        yield n, np.stack([order[: n // 3], order[n // 3 : 2 * (n // 3)]], axis=1)  # pairs, the rest isolated
        yield n, np.empty((0, 2), dtype=np.int64)
    yield 1, np.empty((0, 2), dtype=np.int64)


def test_components_equal_the_union_find_oracle(rng):
    for n, edges in labelling_cases(rng):
        # each edge in either orientation, the edges in random order
        flip = rng.random(len(edges)) < 0.5
        edges = np.where(flip[:, None], edges[:, ::-1], edges)[rng.permutation(len(edges))]
        for kept in (np.ones(n, dtype=bool), rng.random(n) < 0.7, rng.random(n) < 0.2, np.zeros(n, dtype=bool)):
            expected = single_linkage(n, edges[kept[edges].all(axis=1)])
            assert _components(edges, kept).tolist() == expected.tolist(), (n, len(edges), kept.sum())


# --------------------------------------------------------------------------
# content bias


def test_content_bias_examples():
    subject = annotated_list(["a1"] * 5 + ["a2"] * 5, user="s")
    inp = build_audit(
        [make_list(["x1"], user="u1"), make_list(["x1"], user="u2")],
        [profile("u1", "x"), profile("u2", "y")],
        ground_truth=UNIFORM_GT,
    )
    assert content_bias(inp, subject).magnitude == pytest.approx(0.0)

    skewed = annotated_list(["a1"] * 7 + ["a2"] * 3, user="s")
    verdict = content_bias(inp, skewed)
    assert verdict.magnitude == pytest.approx(0.2)
    assert verdict.biased  # epsilon defaults to 0.05


def test_content_bias_concentrated_against_uniform():
    schema = stance_schema(4)
    gt = GroundTruth("stance", {v: 0.25 for v in schema.values})
    subject = annotated_list(["a1"] * 8, user="s")
    inp = build_audit(
        [make_list(["x1"], user="u1"), make_list(["x1"], user="u2")],
        [profile("u1", "x"), profile("u2", "y")],
        ground_truth=gt,
        schema=schema,
    )
    assert content_bias(inp, subject).magnitude == pytest.approx(0.75)


def test_content_bias_requires_ground_truth():
    inp = build_audit(
        [make_list(["x1"], user="u1"), make_list(["x1"], user="u2")],
        [profile("u1", "x"), profile("u2", "y")],
    )
    with pytest.raises(ModeError):
        content_bias(inp, annotated_list(["a1"], user="s"))


def test_content_bias_invariant_under_topk_permutation(rng):
    values = ["a1", "a2", "a1", "a2", "a1"]
    base = annotated_list(values, user="s")
    inp = build_audit(
        [make_list(["x1"], user="u1"), make_list(["x1"], user="u2")],
        [profile("u1", "x"), profile("u2", "y")],
        ground_truth=UNIFORM_GT,
    )
    reference = content_bias(inp, base).magnitude
    for _ in range(10):
        order = rng.permutation(5)
        shuffled = annotated_list([values[i] for i in order], user="s")
        assert content_bias(inp, shuffled).magnitude == pytest.approx(reference, abs=1e-12)


# --------------------------------------------------------------------------
# combined user-content bias


def combined_audit(weights_u1, weights_u2, gt=None):
    lists = [
        weighted_list([weights_u1] * 10, user="u1", prefix="x"),
        weighted_list([weights_u2] * 10, user="u2", prefix="y"),
    ]
    return build_audit(lists, [profile("u1", "x"), profile("u2", "y")], ground_truth=gt)


def test_combined_equal_bias_cancels():
    # both users see (0.9, 0.1): no user bias even though both are far from uniform
    inp = combined_audit({"a1": 0.9, "a2": 0.1}, {"a1": 0.9, "a2": 0.1}, gt=UNIFORM_GT)
    assert combined_bias(inp, "u1", "u2").magnitude == pytest.approx(0.0)


def test_combined_symmetric_shift_doubles():
    beta = 0.15
    inp = combined_audit({"a1": 0.5 + beta, "a2": 0.5 - beta}, {"a1": 0.5 - beta, "a2": 0.5 + beta})
    verdict = combined_bias(inp, "u1", "u2")
    assert verdict.magnitude == pytest.approx(2 * beta)


def test_combined_self_is_zero_and_symmetric(rng):
    for _ in range(20):
        w1 = float(rng.uniform(0.05, 0.95))
        w2 = float(rng.uniform(0.05, 0.95))
        inp = combined_audit({"a1": w1, "a2": 1 - w1}, {"a1": w2, "a2": 1 - w2})
        assert combined_bias(inp, "u1", "u1").magnitude == 0.0
        assert combined_bias(inp, "u1", "u2").magnitude == pytest.approx(
            combined_bias(inp, "u2", "u1").magnitude
        )
        # two-value identity: |p - q| exactly
        assert combined_bias(inp, "u1", "u2").magnitude == pytest.approx(abs(w1 - w2))


def test_combined_class_mode_uses_representatives():
    inp = combined_audit({"a1": 0.8, "a2": 0.2}, {"a1": 0.2, "a2": 0.8})
    assert combined_bias(inp).magnitude == pytest.approx(0.6)
    with pytest.raises(ParameterError):
        combined_bias(inp, "u1", None)


# --------------------------------------------------------------------------
# echo chamber


def echo_audit(p_values, q_values, gt=UNIFORM_GT, epsilon=None):
    lists = [
        annotated_list(p_values, user="u0a", prefix="x"),
        annotated_list(q_values, user="u0b", prefix="y"),
    ]
    cfg = MeasureConfig(epsilon=epsilon) if epsilon is not None else MeasureConfig()
    return build_audit(lists, clone_pair(), ground_truth=gt, config=cfg)


def test_echo_no_flag_when_both_match_truth():
    inp = echo_audit(["a1", "a2"] * 5, ["a2", "a1"] * 5)
    verdict = echo_chamber_test(inp)
    assert verdict.magnitude == pytest.approx(0.0)
    assert verdict.diagnostics["echo_flag"] is False


def test_echo_opposite_skew_flagged():
    inp = echo_audit(["a1"] * 8 + ["a2"] * 2, ["a1"] * 2 + ["a2"] * 8, epsilon=0.1)
    verdict = echo_chamber_test(inp)
    assert verdict.diagnostics["echo_flag"] is True
    assert verdict.magnitude == pytest.approx(0.3)
    assert "a1" in verdict.diagnostics["opposite_values"]


def test_echo_same_direction_skew_not_flagged():
    inp = echo_audit(["a1"] * 8 + ["a2"] * 2, ["a1"] * 8 + ["a2"] * 2, epsilon=0.1)
    verdict = echo_chamber_test(inp)
    assert verdict.diagnostics["echo_flag"] is False
    # both classes are content-biased even though no echo pattern exists
    assert verdict.diagnostics["content_bias"]["P"] == pytest.approx(0.3)
    assert verdict.diagnostics["content_bias"]["P-bar"] == pytest.approx(0.3)


def test_echo_never_flags_when_content_bias_small(rng):
    for _ in range(30):
        eps = 0.1
        # both classes within epsilon of the truth on every value
        shift_p = float(rng.uniform(-eps, eps))
        shift_q = float(rng.uniform(-eps, eps))
        lists = [
            weighted_list([{"a1": 0.5 + shift_p, "a2": 0.5 - shift_p}] * 10, user="u0a", prefix="x"),
            weighted_list([{"a1": 0.5 + shift_q, "a2": 0.5 - shift_q}] * 10, user="u0b", prefix="y"),
        ]
        inp = build_audit(lists, clone_pair(), ground_truth=UNIFORM_GT, config=MeasureConfig(epsilon=eps))
        assert echo_chamber_test(inp).diagnostics["echo_flag"] is False


# --------------------------------------------------------------------------
# comparative audits


def test_comparative_self_is_zero():
    lists = {"q0": annotated_list(["a1", "a2"] * 3, user="ipa")}
    verdict = comparative_bias(lists, lists, stance_schema(), MeasureConfig())
    assert verdict.magnitude == 0.0
    assert verdict.diagnostics["list_channel"]["magnitude"] == 0.0


def test_comparative_distribution_channel_example():
    a = {"q0": weighted_list([{"a1": 0.6, "a2": 0.4}] * 5, user="ipa", prefix="s")}
    b = {"q0": weighted_list([{"a1": 0.4, "a2": 0.6}] * 5, user="ipb", prefix="s")}
    verdict = comparative_bias(a, b, stance_schema(), MeasureConfig())
    assert verdict.magnitude == pytest.approx(0.2)


@pytest.mark.parametrize("dr_kind", ["kendall", "distribution"])
def test_comparative_channels_are_independent(dr_kind):
    # under the distribution distance the list channel falls back to Kendall
    ann = {f"s{i}": one_hot("stance", "a1" if i % 2 else "a2") for i in range(6)}
    ids = [f"s{i}" for i in range(6)]
    a = {"q0": make_list(ids, user="ipa", annotations=ann)}
    b = {"q0": make_list(ids[::-1], user="ipb", annotations=ann)}
    verdict = comparative_bias(a, b, stance_schema(), MeasureConfig(dr_kind=dr_kind))
    assert verdict.magnitude == pytest.approx(0.0)
    assert verdict.diagnostics["list_channel"]["magnitude"] == pytest.approx(1.0)
    assert verdict.diagnostics["list_channel"]["dr_kind"] == "kendall"


def test_comparative_requires_shared_queries():
    a = {"qa": annotated_list(["a1"], user="ipa")}
    b = {"qb": annotated_list(["a1"], user="ipb")}
    with pytest.raises(InputError):
        comparative_bias(a, b, stance_schema(), MeasureConfig())


# --------------------------------------------------------------------------
# cross-cutting


def test_verdicts_are_deterministic():
    inp = echo_audit(["a1"] * 7 + ["a2"] * 3, ["a1"] * 3 + ["a2"] * 7)
    for fn in (group_user_bias, probabilistic_group_bias, combined_bias, echo_chamber_test):
        assert fn(inp).to_dict() == fn(inp).to_dict()


def test_audit_input_validation():
    with pytest.raises(InputError):
        AuditInput(
            profiles=(profile("u1", "x"),),
            lists={("ghost", "q0"): make_list(["x1"], user="ghost")},
            protected_attribute="group",
            protected_value="x",
            differentiating=stance_schema(),
        )
    with pytest.raises(InputError):
        build_audit([make_list(["x1"], user="u1", query="q1")], [profile("u1", "x")]).list_for("u1", "q9")


def test_audit_input_rejects_grid_gaps():
    profiles = [profile("u1", "x"), profile("u2", "y"), profile("u3", "y")]
    lists = [make_list(["x1"], user=p.user_id, query=q) for p in profiles for q in ("q0", "q1")]
    build_audit(lists, profiles)
    with pytest.raises(InputError, match="1 of 6"):
        build_audit(lists[:-1], profiles)
    # a profile with no lists at all misses one per query
    with pytest.raises(InputError, match="2 of 8"):
        build_audit(lists, profiles + [profile("u4", "x")])


@pytest.mark.parametrize("aggregator", ["borda", "median", "kemeny"])
def test_group_bias_under_every_aggregator(aggregator):
    profiles = clone_pair(2)
    lists = []
    for p in profiles:
        ids = ["x1", "x2", "x3"] if p.protected["group"] == "x" else ["x3", "x2", "x1"]
        lists.append(make_list(ids, user=p.user_id))
    inp = build_audit(lists, profiles, config=MeasureConfig(aggregator=aggregator))
    verdict = group_user_bias(inp)
    assert verdict.magnitude == pytest.approx(1.0)  # unanimous opposite orders


def test_query_aggregation_mean_vs_max():
    profiles = clone_pair(1)
    lists = [
        make_list(["x1", "x2"], query="qa", user="u0a"),
        make_list(["x1", "x2"], query="qa", user="u0b"),
        make_list(["x1", "x2"], query="qb", user="u0a"),
        make_list(["x2", "x1"], query="qb", user="u0b"),
    ]
    mean_inp = build_audit(lists, profiles, config=MeasureConfig(query_aggregation="mean"))
    max_inp = build_audit(lists, profiles, config=MeasureConfig(query_aggregation="max"))
    assert group_user_bias(mean_inp).magnitude == pytest.approx(0.5)
    assert group_user_bias(max_inp).magnitude == pytest.approx(1.0)


# --------------------------------------------------------------------------
# the group-measure engine against the object-path oracles


def edge_case_audit(rng, case, aggregator, dr_kind):
    """A seeded random audit of 2-4 users per class and two queries, of one
    edge-case kind; every item is one-hot annotated unless the kind says
    otherwise, and Kemeny audits draw from 6 items a query."""
    n = 2 * int(rng.integers(2, 5))
    profiles = [profile(f"u{i}", "x" if i % 2 else "y") for i in range(n)]
    pool = [f"i{j}" for j in range(6 if aggregator == "kemeny" else 12)]
    lists = []
    for query in ("q0", "q1"):
        for i, p in enumerate(profiles):
            if case == "empty":
                ids = list(rng.choice(pool, size=int(rng.integers(0, 4)), replace=False))
            elif case == "disjoint":
                ids = [f"{p.user_id}-{j}" for j in range(int(rng.integers(1, 4)))]
            elif case == "one_item":
                ids = ["i0"]
            else:  # unequal depths, all-unannotated
                ids = list(rng.choice(pool, size=int(rng.integers(1, 7)), replace=False))
            stance = {} if case == "unannotated" else {
                item: one_hot("stance", f"a{1 + int(rng.integers(2))}") for item in ids
            }
            lists.append(make_list(ids, query=query, user=p.user_id, annotations=stance))
    config = MeasureConfig(k=3, dr_kind=dr_kind, aggregator=aggregator)
    return build_audit(lists, profiles, ground_truth=UNIFORM_GT, config=config)


def outcome(fn, inp):
    """The verdict, or the class and message of the error raised instead."""
    try:
        return fn(inp)
    except AuditError as exc:
        return type(exc), str(exc)


PUBLIC_GROUP_MEASURES = {
    "group_user_bias": group_user_bias,
    "probabilistic_group_bias": probabilistic_group_bias,
    "combined_bias": combined_bias,
    "echo_chamber_test": echo_chamber_test,
}


@pytest.mark.filterwarnings("ignore::rankbias.errors.DegenerateInputWarning")
@pytest.mark.parametrize("case", ["empty", "disjoint", "one_item", "unequal", "unannotated"])
@pytest.mark.parametrize("aggregator", ["borda", "median", "kemeny"])
def test_group_measures_match_oracles_on_edge_cases(case, aggregator):
    rng = np.random.default_rng(sum(map(ord, case + aggregator)))
    for seed in range(3):
        for dr_kind in ("kendall", "rbo", "topk", "distribution"):
            inp = edge_case_audit(rng, case, aggregator, dr_kind)
            for name, fn in PUBLIC_GROUP_MEASURES.items():
                oracle = outcome(lambda inp: MEMBER_IMPLS[name](inp, *inp.split()), inp)
                assert outcome(fn, inp) == oracle, (case, seed, dr_kind, name)


def test_fractional_annotations_equal_the_oracles():
    """The engine and the oracles' aggregators merge annotations by one
    rule, whose fractional sums run in an order fixed by the annotations
    alone, so the verdicts agree bit for bit. Every other trial draws each
    occurrence from four annotation objects per item, shared by all lists,
    which the two classes meet in their own orders."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        m = int(rng.integers(2, 4))
        shared = trial % 2 == 1
        profiles = [profile(f"u{i}", "x" if i % 2 else "y")
                    for i in range(2 * int(rng.integers(8, 16) if shared else rng.integers(2, 5)))]
        pool = [f"i{j}" for j in range(8)]
        objects = {i: [ResultItem(i, {"stance": stance_weights(rng, m)}) for _ in range(4)] for i in pool}
        lists = []
        for p in profiles:
            ids = rng.choice(pool, size=int(rng.integers(1, 7)), replace=False)
            if shared:
                items = tuple(objects[i][int(rng.integers(4))] for i in ids)
            else:
                items = tuple(ResultItem(i, {"stance": stance_weights(rng, m)}) for i in ids)
            lists.append(RankedList("q0", p.user_id, items))
        gt = GroundTruth("stance", {f"a{v + 1}": 1.0 / m for v in range(m)})
        config = MeasureConfig(k=4, dr_kind="distribution", aggregator=("borda", "median")[trial % 4 // 2])
        inp = build_audit(lists, profiles, ground_truth=gt, config=config, schema=stance_schema(m))
        for name in ("group_user_bias", "combined_bias", "echo_chamber_test"):
            assert PUBLIC_GROUP_MEASURES[name](inp) == MEMBER_IMPLS[name](inp, *inp.split()), (trial, name)


def stance_weights(rng, m):
    return {f"a{v + 1}": float(w) for v, w in enumerate(rng.dirichlet(np.ones(m)))}
