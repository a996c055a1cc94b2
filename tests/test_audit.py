"""End-to-end audit orchestration tests: measure/simulate/compare flows,
skip policy, report determinism, and injected-bias recovery through the
full pipeline."""

import json
import weakref
from dataclasses import replace

import numpy as np

import pytest

from rankbias import AttributeSchema, ConfigError, GroundTruth, InputError, SchemaError, permutation_test
from rankbias.audit import compare_audit, run_audit
from rankbias.io import (
    AuditManifest,
    SignificanceSpec,
    ground_truth_text,
    schema_text,
    write_profiles,
    write_result_lists,
)
from rankbias.measures import GROUP_MEASURES, AuditInput, MeasureConfig
from rankbias.simulator import QuerySpec, audit_input_from_scenario, generate_profiles, serve_all
from rankbias.types import PROTECTED
from test_simulator import STANCE, UNIFORM_GT, scenario

PROTECTED_GROUP = AttributeSchema("group", ("x", "y"), PROTECTED)

ALL_MEASURES = {
    "individual_user_bias",
    "group_user_bias",
    "probabilistic_group_bias",
    "combined_bias",
    "content_bias",
    "echo_chamber_test",
}


def file_manifest(tmp_path, cfg=None, with_gt=True, config=None):
    """Materialize a small scenario as data files plus a file-mode manifest."""
    cfg = cfg or scenario(n_users=12, delta_content_p=0.2, delta_content_pbar=-0.2, seed=9)
    profiles = generate_profiles(cfg)
    lists = serve_all(cfg, profiles)
    write_profiles(profiles, tmp_path / "profiles.jsonl")
    write_result_lists(lists, tmp_path / "results.jsonl")
    schemas = [cfg.queries[0].attribute, cfg.protected]
    (tmp_path / "schema.json").write_text(
        schema_text(schemas, cfg.numeric_ranges()), encoding="utf-8"
    )
    if with_gt:
        (tmp_path / "gt.json").write_text(
            ground_truth_text(cfg.queries[0].ground_truth), encoding="utf-8"
        )
    return AuditManifest(
        profiles_path=tmp_path / "profiles.jsonl",
        results_path=tmp_path / "results.jsonl",
        schema_path=tmp_path / "schema.json",
        ground_truth_path=(tmp_path / "gt.json") if with_gt else None,
        output_dir=tmp_path / "out",
        protected_attribute="group",
        protected_value="x",
        differentiating_attribute="stance",
        config=config or MeasureConfig(k=8, relevant_attrs=("persona", "age")),
    )


def test_run_audit_file_mode_all_measures(tmp_path):
    report = run_audit(file_manifest(tmp_path))
    assert set(report.verdicts) == ALL_MEASURES
    assert report.skipped == {}
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "summary.txt").exists()
    assert (tmp_path / "out" / "per_query.csv").exists()
    # verdicts carry their thresholds and the biased flag is consistent
    for verdict in report.verdicts.values():
        assert verdict["biased"] == (verdict["magnitude"] > verdict["threshold"])
    # matched-pair populations show no protected/other attribute association
    associations = report.dataset["attribute_associations"]
    assert set(associations) == {"persona", "age"}
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in associations.values())


def test_attribute_association_flags_confounding():
    from conftest import build_audit, make_list, profile
    from rankbias.measures import attribute_associations

    # persona, and the JSON list tags, perfectly predict the protected class: association 1
    profiles = [profile(f"u{i}", "x" if i < 4 else "y", persona="p0" if i < 4 else "p1",
                        tags=["t", i < 4], age=float(i)) for i in range(8)]
    lists = [make_list(["x1"], user=p.user_id) for p in profiles]
    inp = build_audit(lists, profiles)
    associations = attribute_associations(inp)
    assert associations["persona"] == pytest.approx(1.0)
    assert associations["tags"] == associations["persona"]
    # point-biserial of 0..7 split in half: 4 / sqrt(21) = 0.873
    assert associations["age"] == pytest.approx(4 / np.sqrt(21), abs=1e-9)


def associations_loop(inp):
    """Cramer's V by a loop over the distinct codes, two masks each: the
    oracle of the categorical branch of attribute_associations."""
    from rankbias import _vector

    labels = np.array([1.0 if inp.in_class_p(p) else 0.0 for p in inp.profiles])
    out = {}
    for attr in sorted({a for p in inp.profiles for a in p.other}):
        enc = _vector.value_codes([p.other[attr] for p in inp.profiles])
        n = len(enc)
        chi2 = 0.0
        for code in range(int(enc.max()) + 1):
            for cls in (0.0, 1.0):
                observed = float(((enc == code) & (labels == cls)).sum())
                expected = (enc == code).sum() * (labels == cls).sum() / n
                if expected > 0:
                    chi2 += (observed - expected) ** 2 / expected
        out[attr] = float(min(1.0, np.sqrt(chi2 / n)))
    return out


def test_categorical_associations_equal_the_loop_oracle():
    """The one-pass contingency table gives the loop's Cramer's V bit for bit:
    few codes and many, a unique code per user, unequal classes, and
    list-valued attributes."""
    from conftest import build_audit, make_list, profile
    from rankbias.measures import attribute_associations

    rng = np.random.default_rng(26)
    for trial in range(600):
        n = int(rng.integers(2, 80))
        groups = rng.random(n) < rng.uniform(0.1, 0.9)
        groups[:2] = (True, False)
        attrs = {
            "few": [f"v{c}" for c in rng.integers(0, 3, n)],
            "many": [f"v{c}" for c in rng.integers(0, max(2, n // 2), n)],
            "unique": [f"v{i}" for i in rng.permutation(n)],
            "tags": [[int(c), "t"] for c in rng.integers(0, 4, n)],
            "skewed": [f"v{min(c, 5)}" for c in rng.geometric(0.4, n)],
        }
        profiles = [profile(f"u{i}", "x" if groups[i] else "y", **{a: v[i] for a, v in attrs.items()})
                    for i in range(n)]
        inp = build_audit([make_list(["x1"], user=p.user_id) for p in profiles], profiles)
        assert attribute_associations(inp) == associations_loop(inp), trial
    # a table [code x (P-bar, P)] with a term that a product squares one ulp
    # away from the scalar's pow; the association keeps that ulp
    cells = [(code, group) for code, counts in (("A", (10, 4)), ("B", (10, 2)), ("C", (14, 1)))
             for group, count in zip("yx", counts) for _ in range(count)]
    profiles = [profile(f"u{i:02d}", group, tag=code) for i, (code, group) in enumerate(cells)]
    inp = build_audit([make_list(["x1"], user=p.user_id) for p in profiles], profiles)
    assert attribute_associations(inp) == associations_loop(inp)


def test_run_audit_reads_a_list_valued_profile_attribute(tmp_path):
    """Wrapping each persona in a JSON list keeps which profiles match, so
    every verdict and association stays as it was."""
    manifest = file_manifest(tmp_path)
    plain = run_audit(manifest)
    records = [json.loads(line) for line in manifest.profiles_path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        record["other"]["persona"] = [record["other"]["persona"]]
    manifest.profiles_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    listed = run_audit(replace(manifest, output_dir=tmp_path / "listed"))
    assert listed.verdicts == plain.verdicts
    assert listed.dataset["attribute_associations"] == plain.dataset["attribute_associations"]


def test_run_audit_without_ground_truth_skips_content_measures(tmp_path):
    report = run_audit(file_manifest(tmp_path, with_gt=False))
    assert "content_bias" in report.skipped
    assert "echo_chamber_test" in report.skipped
    assert "group_user_bias" in report.verdicts
    assert "individual_user_bias" in report.verdicts


def test_run_audit_skips_individual_without_relevant_attrs(tmp_path):
    manifest = file_manifest(tmp_path, config=MeasureConfig(k=8))
    report = run_audit(manifest)
    assert report.skipped["individual_user_bias"] == "relevant_attrs not configured"


def test_run_audit_single_class_skips_group_measures(tmp_path):
    manifest = file_manifest(tmp_path)
    # flip the protected designation to a value nobody has
    manifest = AuditManifest(
        **{
            **{f: getattr(manifest, f) for f in manifest.__dataclass_fields__},
            "protected_value": "zzz",
        }
    )
    report = run_audit(manifest)
    assert "group_user_bias" in report.skipped
    assert "probabilistic_group_bias" in report.skipped
    assert "combined_bias" in report.skipped
    assert "content_bias" in report.verdicts


def test_run_audit_nothing_applicable_is_config_error(tmp_path):
    manifest = file_manifest(tmp_path, with_gt=False, config=MeasureConfig())
    manifest = AuditManifest(
        **{
            **{f: getattr(manifest, f) for f in manifest.__dataclass_fields__},
            "protected_value": "zzz",
        }
    )
    with pytest.raises(ConfigError, match="no applicable measures"):
        run_audit(manifest)


def test_simulate_mode_recovers_injected_combined_bias(tmp_path):
    cfg = scenario(
        n_users=1600,
        delta_content_p=0.15,
        delta_content_pbar=-0.15,
        item_pool_size=50,
        list_depth=10,
        seed=17,
    )
    manifest = AuditManifest(
        scenario=cfg,
        output_dir=tmp_path / "out",
        config=MeasureConfig(k=10, dr_kind="topk", relevant_attrs=("persona", "age")),
    )
    report = run_audit(manifest)
    assert report.verdicts["combined_bias"]["magnitude"] == pytest.approx(0.30, abs=0.04)
    # simulate mode also writes the generated data for reuse
    for name in ("profiles.jsonl", "results.jsonl", "schema.json", "ground_truth.json"):
        assert (tmp_path / "out" / name).exists()


def test_simulate_report_byte_identical_across_runs(tmp_path):
    for d in ("a", "b"):
        manifest = AuditManifest(
            scenario=scenario(n_users=30, delta_rank=0.4, seed=5),
            output_dir=tmp_path / d,
            config=MeasureConfig(relevant_attrs=("persona", "age")),
            significance=SignificanceSpec(measures=("group_user_bias",), n_permutations=100, seed=5),
        )
        run_audit(manifest)
    assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()


@pytest.mark.parametrize("numpy_seed", [np.int64(5), np.uint64(5)])
def test_a_numpy_integer_seed_reads_as_the_equal_int(tmp_path, numpy_seed):
    cfg = scenario(n_users=30, delta_rank=0.4, seed=5)
    inp = audit_input_from_scenario(cfg)
    assert permutation_test(inp, "group_user_bias", 100, numpy_seed) == permutation_test(inp, "group_user_bias", 100, 5)
    for d, seed in (("int", 5), ("numpy", numpy_seed)):
        run_audit(
            AuditManifest(
                scenario=cfg,
                output_dir=tmp_path / d,
                config=MeasureConfig(relevant_attrs=("persona", "age")),
                significance=SignificanceSpec(measures=("group_user_bias",), n_permutations=100, seed=seed),
            )
        )
    assert (tmp_path / "int" / "report.json").read_bytes() == (tmp_path / "numpy" / "report.json").read_bytes()


def test_significance_attached_and_validated(tmp_path):
    manifest = AuditManifest(
        scenario=scenario(n_users=20, delta_rank=0.6, seed=2),
        output_dir=None,
        config=MeasureConfig(relevant_attrs=("persona",)),
        significance=SignificanceSpec(measures=("group_user_bias", "combined_bias"), n_permutations=100, seed=1),
    )
    report = run_audit(manifest)
    assert set(report.significance) == {"group_user_bias", "combined_bias"}
    assert 0 < report.significance["group_user_bias"]["p_value"] <= 1
    assert report.notes  # the sampling-unit caveat is recorded

    # a measure without a permutation test is rejected with the manifest, before any audit runs
    with pytest.raises(ConfigError, match="permutation test supports group measures"):
        SignificanceSpec(measures=("individual_user_bias",), seed=1)


def test_significance_seed_falls_back_to_the_manifest_then_the_scenario(tmp_path):
    def seed_used(spec_seed, manifest_seed, base):
        spec = SignificanceSpec(measures=("group_user_bias",), n_permutations=100, seed=spec_seed)
        manifest = replace(base, significance=spec, seed=manifest_seed, output_dir=None)
        return run_audit(manifest).significance["group_user_bias"]["seed"]

    simulated = AuditManifest(scenario=scenario(n_users=20, delta_rank=0.6, seed=2), config=MeasureConfig())
    assert seed_used(5, 7, simulated) == 5
    assert seed_used(None, 7, simulated) == 7
    assert seed_used(None, None, simulated) == 2
    assert seed_used(None, 4, file_manifest(tmp_path)) == 4


def refuse_to_read_input(monkeypatch):
    """Make reading a results file or simulating a scenario fail the test."""

    def refused(*args, **kwargs):
        raise AssertionError("the audit input was read before the significance seed was checked")

    monkeypatch.setattr("rankbias.audit.load_result_lists", refused)
    monkeypatch.setattr("rankbias.audit.audit_input_from_scenario", refused)


def test_a_missing_significance_seed_is_reported_before_the_input_is_read(tmp_path, monkeypatch):
    manifest = replace(file_manifest(tmp_path), significance=SignificanceSpec(("group_user_bias",), 100))
    refuse_to_read_input(monkeypatch)
    with pytest.raises(ConfigError, match="significance requested but no seed available"):
        run_audit(manifest)


def test_an_out_of_range_scenario_seed_fails_significance_before_the_simulation(monkeypatch):
    """A scenario seed beyond 64 bits can drive the simulator, not the
    permutation test; the audit stops before it simulates anything."""
    manifest = AuditManifest(
        scenario=scenario(seed=2**64 + 5),
        config=MeasureConfig(),
        significance=SignificanceSpec(("group_user_bias",), 100),
    )
    refuse_to_read_input(monkeypatch)
    with pytest.raises(ConfigError, match=r"seed must be an unsigned 64-bit integer, got 18446744073709551621"):
        run_audit(manifest)


def test_report_json_round_trips(tmp_path):
    report = run_audit(file_manifest(tmp_path))
    parsed = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert parsed["report_version"] == 1
    assert set(parsed["measures"]) == ALL_MEASURES
    assert parsed["dataset"]["class_sizes"] == {"P": 6, "P-bar": 6}


# --------------------------------------------------------------------------
# comparative mode


def test_compare_manifest_with_itself_is_zero(tmp_path):
    manifest = AuditManifest(scenario=scenario(n_users=12, seed=4), config=MeasureConfig(k=8))
    report = compare_audit(manifest, manifest, output_dir=tmp_path / "cmp")
    verdict = report.verdicts["comparative_bias"]
    assert verdict["magnitude"] == 0.0
    assert verdict["diagnostics"]["list_channel"]["magnitude"] == 0.0
    assert (tmp_path / "cmp" / "report.json").exists()


def test_compare_detects_content_shift(tmp_path):
    base = scenario(n_users=2000, seed=11, item_pool_size=40, list_depth=10)
    shifted = scenario(
        n_users=2000, seed=11, item_pool_size=40, list_depth=10,
        delta_content_p=0.2, delta_content_pbar=0.2,  # same-direction: pooled shift 0.2
    )
    a = AuditManifest(scenario=base, config=MeasureConfig(k=10))
    b = AuditManifest(scenario=shifted, config=MeasureConfig(k=10))
    report = compare_audit(a, b)
    assert report.verdicts["comparative_bias"]["magnitude"] == pytest.approx(0.2, abs=0.04)


def test_compare_disjoint_batteries_rejected():
    from rankbias.simulator import QuerySpec
    from test_simulator import STANCE, UNIFORM_GT

    a = AuditManifest(scenario=scenario(n_users=8), config=MeasureConfig())
    b = AuditManifest(
        scenario=scenario(n_users=8, queries=(QuerySpec("other", STANCE, UNIFORM_GT),)),
        config=MeasureConfig(),
    )
    with pytest.raises(InputError, match="shared query battery"):
        compare_audit(a, b)


def test_compare_rejects_two_differentiated_attributes():
    tone = AttributeSchema("tone", ("t1", "t2"))
    tone_gt = GroundTruth("tone", {"t1": 0.5, "t2": 0.5})
    a = AuditManifest(scenario=scenario(n_users=8), config=MeasureConfig())
    b = AuditManifest(scenario=scenario(n_users=8, queries=(QuerySpec("q0", tone, tone_gt),)), config=MeasureConfig())
    with pytest.raises(SchemaError, match="the two manifests differentiate different attributes"):
        compare_audit(a, b)


def lists_manifest(tmp_path, profiles, lists, config):
    """A file-mode manifest over the given profiles and lists, a stance
    schema and the uniform ground truth."""
    write_profiles(profiles, tmp_path / "profiles.jsonl")
    write_result_lists({(lst.user_id, lst.query_id): lst for lst in lists}, tmp_path / "results.jsonl")
    (tmp_path / "schema.json").write_text(schema_text([STANCE, PROTECTED_GROUP]), encoding="utf-8")
    (tmp_path / "gt.json").write_text(ground_truth_text(UNIFORM_GT), encoding="utf-8")
    return AuditManifest(
        profiles_path=tmp_path / "profiles.jsonl",
        results_path=tmp_path / "results.jsonl",
        schema_path=tmp_path / "schema.json",
        ground_truth_path=tmp_path / "gt.json",
        protected_attribute="group",
        protected_value="x",
        differentiating_attribute="stance",
        config=config,
    )


def test_run_audit_skips_undefined_combined_bias(tmp_path):
    """Class P sees only unannotated items: its distribution is undefined,
    so the distribution measures are listed as skipped, not fatal."""
    from conftest import make_list, one_hot, profile

    profiles = [profile(f"u{i}", "x" if i < 3 else "y", persona="p0") for i in range(6)]
    stance = {f"x{j}": one_hot("stance", f"a{1 + j % 2}") for j in range(4)}
    lists = [
        make_list(["x0", "x1", "x2"] if p.protected["group"] == "y" else ["z0", "z1"], user=p.user_id,
                  annotations=stance)
        for p in profiles
    ]
    report = run_audit(lists_manifest(tmp_path, profiles, lists, MeasureConfig(k=3)))
    assert report.skipped["combined_bias"] == "distribution carries no annotated mass"
    assert report.skipped["echo_chamber_test"] == "distribution carries no annotated mass"
    assert {"group_user_bias", "probabilistic_group_bias", "content_bias"} <= set(report.verdicts)


def test_one_engine_per_audit(tmp_path, monkeypatch):
    """One context serves every group verdict and significance test: it is
    built after individual bias, leaves aggregation to the pooled content
    representative alone, and is gone before the reports are written."""
    from rankbias import audit, measures

    built = []

    class CountedContext(measures._RankContext):
        def __init__(self, inp):
            super().__init__(inp)
            built.append(weakref.ref(self))

    calls = {"audit": 0, "measures": 0}

    def counted(module, original):
        def aggregate(*args, **kwargs):
            calls[module] += 1
            return original(*args, **kwargs)

        return aggregate

    def individual(inp):
        assert not built, "the context exists while individual bias runs"
        return individual_user_bias(inp)

    def write(*args):
        assert built and built[0]() is None, "the context is alive while the reports are written"
        return write_report(*args)

    individual_user_bias, write_report = audit.individual_user_bias, audit.write_report
    monkeypatch.setattr(audit, "_RankContext", CountedContext)
    monkeypatch.setattr(audit, "aggregate", counted("audit", audit.aggregate))
    monkeypatch.setattr(measures, "aggregate", counted("measures", measures.aggregate))
    monkeypatch.setattr(audit, "individual_user_bias", individual)
    monkeypatch.setattr(audit, "write_report", write)
    manifest = AuditManifest(
        scenario=scenario(n_users=20, delta_rank=0.4, seed=3,
                          queries=tuple(QuerySpec(f"q{i}", STANCE, UNIFORM_GT) for i in range(3))),
        output_dir=tmp_path / "out",
        config=MeasureConfig(relevant_attrs=("persona",)),
        significance=SignificanceSpec(measures=("group_user_bias", "combined_bias"), n_permutations=100, seed=3),
    )
    report = run_audit(manifest)
    assert set(report.verdicts) == ALL_MEASURES and set(report.significance) == {"group_user_bias", "combined_bias"}
    assert len(built) == 1
    assert calls == {"audit": report.dataset["n_queries"], "measures": 0}
    assert (tmp_path / "out" / "report.json").exists()


def test_run_audit_skips_undefined_individual_bias(tmp_path):
    """One list carries only unannotated items: its distribution, and so
    individual bias under the distribution distance, is undefined; the
    audit lists it as skipped and reports the other measures."""
    from conftest import make_list, one_hot, profile

    profiles = [profile(f"u{i}", "x" if i % 2 else "y", persona=f"p{i % 3}") for i in range(6)]
    stance = {f"x{j}": one_hot("stance", f"a{1 + j % 2}") for j in range(4)}
    lists = [make_list(["z0", "z1"] if i == 0 else ["x0", "x1", f"x{2 + i % 2}"], user=p.user_id,
                       annotations=stance)
             for i, p in enumerate(profiles)]
    config = MeasureConfig(k=3, dr_kind="distribution", relevant_attrs=("persona",))
    report = run_audit(lists_manifest(tmp_path, profiles, lists, config))
    assert report.skipped == {"individual_user_bias": "distribution carries no annotated mass"}
    assert set(report.verdicts) == ALL_MEASURES - {"individual_user_bias"}


def test_one_batch_encoding_per_query(tmp_path, monkeypatch):
    """Individual bias, the group engine, variant clustering, significance
    and the pooled content representative all read the one collection per
    query that the audit input caches: each query's lists are encoded once,
    and aggregate() receives the very collection that batch() returns."""
    from rankbias import audit
    from rankbias.aggregation import ListCollection

    encoded, batches, aggregated = [], [], []
    init, batch, aggregate = ListCollection.__init__, AuditInput.batch, audit.aggregate

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        encoded.append(self)

    def recorded_batch(self, query_id):
        batches.append((query_id, batch(self, query_id)))
        return batches[-1][1]

    def recorded_aggregate(collection, *args, **kwargs):
        aggregated.append(collection)
        return aggregate(collection, *args, **kwargs)

    monkeypatch.setattr(ListCollection, "__init__", counted_init)
    monkeypatch.setattr(AuditInput, "batch", recorded_batch)
    monkeypatch.setattr(audit, "aggregate", recorded_aggregate)
    queries = tuple(QuerySpec(f"q{i}", STANCE, UNIFORM_GT) for i in range(3))
    manifest = AuditManifest(
        scenario=scenario(n_users=20, delta_rank=0.4, seed=3, queries=queries),
        config=MeasureConfig(relevant_attrs=("persona",)),
        significance=SignificanceSpec(measures=GROUP_MEASURES, n_permutations=100, seed=3),
    )
    report = run_audit(manifest)
    assert set(report.verdicts) == ALL_MEASURES and set(report.significance) == set(GROUP_MEASURES)
    query_ids = [spec.query_id for spec in queries]
    # one collection per query: all 20 users' lists of it, labelled "all"
    assert sorted(collection.lists[0].query_id for collection in encoded) == query_ids
    assert all({lst.query_id for lst in collection.lists} == {collection.lists[0].query_id} for collection in encoded)
    assert all(len(collection.lists) == 20 and collection.label == "all" for collection in encoded)
    # every batch() call returns the one encoding of its query
    assert {(query_id, id(collection)) for query_id, collection in batches} == {
        (collection.lists[0].query_id, id(collection)) for collection in encoded
    }
    assert [id(collection) for collection in aggregated] == [id(dict(batches)[q]) for q in query_ids]


@pytest.mark.parametrize("dr_kind", ["kendall", "distribution"])
def test_one_table_of_each_kind_per_query(monkeypatch, dr_kind):
    """The pooled representative, individual bias, the group engine and
    significance read the tables their query's collection keeps: an audit
    builds one rank table, and one annotation table per attribute, per
    query, and permutation tests on an input build none beyond them."""
    from rankbias import _vector

    rank_tables, annotation_tables = [], []
    rank_init, annotation_init = _vector.RankTable.__init__, _vector.AnnotationTable.__init__

    def counted_rank(self, batch):
        rank_init(self, batch)
        rank_tables.append(batch.lists[0].query_id)

    def counted_annotation(self, batch, attribute):
        annotation_init(self, batch, attribute)
        annotation_tables.append((batch.lists[0].query_id, attribute))

    monkeypatch.setattr(_vector.RankTable, "__init__", counted_rank)
    monkeypatch.setattr(_vector.AnnotationTable, "__init__", counted_annotation)
    queries = tuple(QuerySpec(f"q{i}", STANCE, UNIFORM_GT) for i in range(3))
    config = MeasureConfig(dr_kind=dr_kind, relevant_attrs=("persona",))
    spec = scenario(n_users=20, delta_rank=0.4, seed=3, queries=queries)
    report = run_audit(AuditManifest(
        scenario=spec, config=config,
        significance=SignificanceSpec(measures=GROUP_MEASURES, n_permutations=100, seed=3),
    ))
    assert set(report.verdicts) == ALL_MEASURES and set(report.significance) == set(GROUP_MEASURES)
    query_ids = [query.query_id for query in queries]
    # the simulator annotates each item with the one differentiating attribute
    assert sorted(rank_tables) == query_ids
    assert sorted(annotation_tables) == [(query_id, STANCE.name) for query_id in query_ids]

    rank_tables.clear()
    annotation_tables.clear()
    inp = audit_input_from_scenario(spec, config)
    for measure in ("combined_bias", "group_user_bias"):
        permutation_test(inp, measure, 100, seed=3)
    assert sorted(rank_tables) == query_ids
    assert sorted(annotation_tables) == [(query_id, STANCE.name) for query_id in query_ids]


def test_one_replicate_pass_shares_each_blocks_representatives(monkeypatch):
    """The kendall_median shape, smaller: two queries, median
    representatives, two tested measures. Each class's representative is
    ordered once per query for every group verdict together, and once per
    query and permutation block for both tests together."""
    from rankbias import _vector

    rows = []
    order = _vector.RankTable.order

    def counted(self, weights, aggregator):
        rows.append(len(weights))
        return order(self, weights, aggregator)

    monkeypatch.setattr(_vector.RankTable, "order", counted)
    manifest = AuditManifest(
        scenario=scenario(n_users=40, list_depth=50, item_pool_size=150, personalization="pair", seed=1,
                          delta_content_p=0.1, delta_content_pbar=-0.1, delta_rank=0.2,
                          queries=tuple(QuerySpec(f"q{i}", STANCE, UNIFORM_GT) for i in range(2))),
        config=MeasureConfig(k=50, dr_kind="kendall", aggregator="median", relevant_attrs=("persona", "age")),
        significance=SignificanceSpec(measures=("group_user_bias", "combined_bias"), n_permutations=100, seed=1),
    )
    report = run_audit(manifest)
    assert set(report.significance) == {"group_user_bias", "combined_bias"}
    # one block of 101 replicates (40 users): 2 classes x 2 queries; and one
    # row each for the 2 pooled representatives and the 2 x 2 observed classes
    assert sorted(rows) == [1] * 6 + [101] * 4
