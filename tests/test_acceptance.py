"""Acceptance suite: one test per release criterion, each printing a PASS
line (run with ``pytest tests/test_acceptance.py -v -s``).

All randomized criteria run with frozen seeds, so every run of this suite is
deterministic. Statistical tolerances are stated inline next to each
assertion.
"""

import itertools
import json
import time

import numpy as np
import pytest

from rankbias import (
    AttributeSchema,
    GroundTruth,
    MeasureConfig,
    aggregate_borda,
    combined_bias,
    content_bias,
    distribution_distance,
    individual_user_bias,
    kemeny_exact,
    kemeny_score,
    kendall_distance,
    rbo_distance,
    topk_overlap_distance,
)
from rankbias.audit import run_audit
from rankbias.distances import _kendall_ids
from rankbias.io import AuditManifest, SignificanceSpec, load_result_lists, write_result_lists
from rankbias.measures import echo_chamber_test
from rankbias.significance import permutation_test
from rankbias.simulator import (
    OtherAttribute,
    QuerySpec,
    ScenarioConfig,
    audit_input_from_scenario,
    serve_all,
)
from rankbias.types import PROTECTED

from conftest import make_list, random_list_pair
from group_oracles import class_representatives
from test_aggregation import oracle_kemeny, random_collection
from test_distances import conjoint_kendall_oracle

STANCE = AttributeSchema("stance", ("a1", "a2"))
UNIFORM_GT = GroundTruth("stance", {"a1": 0.5, "a2": 0.5})
PROTECTED_SCHEMA = AttributeSchema("group", ("x", "y"), PROTECTED)


def scenario(seed, n_users=200, n_queries=1, depth=10, pool=50, dp=0.0, dq=0.0, dr=0.0,
             personalization="user", personas=("p0", "p1")):
    return ScenarioConfig(
        n_users=n_users,
        protected=PROTECTED_SCHEMA,
        protected_value="x",
        queries=tuple(QuerySpec(f"q{i:02d}", STANCE, UNIFORM_GT) for i in range(n_queries)),
        other_attributes=(OtherAttribute("persona", values=tuple(personas)),),
        list_depth=depth,
        item_pool_size=pool,
        delta_content_p=dp,
        delta_content_pbar=dq,
        delta_rank=dr,
        personalization=personalization,
        seed=seed,
    )


def report_pass(number, name, detail):
    print(f"\nACCEPTANCE {number} ({name}): PASS ({detail})")


def test_criterion_1_metric_axioms(rng):
    """Symmetry, self-distance zero, and [0, 1] range for every distance
    variant over 1,000 randomized pairs each; zero violations, under 10 s."""
    start = time.monotonic()
    distances = {
        "kendall": kendall_distance,
        "rbo": lambda a, b: rbo_distance(a, b, 0.9),
        "topk": lambda a, b: topk_overlap_distance(a, b, 10),
    }
    checked = 0
    for name, dist in distances.items():
        for _ in range(1000):
            a, b = random_list_pair(rng, pool_size=30, max_depth=15)
            d = dist(a, b)
            assert 0.0 <= d <= 1.0, (name, d)
            assert d == dist(b, a), (name, "symmetry")
            assert dist(a, a) == 0.0, (name, "identity")
            checked += 1
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(m))
        dp = {f"a{i}": float(p[i]) for i in range(m)}
        dq = {f"a{i}": float(q[i]) for i in range(m)}
        d = distribution_distance(dp, dq)
        assert 0.0 <= d <= 1.0
        assert d == distribution_distance(dq, dp)
        assert distribution_distance(dp, dp) == 0.0
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"
    report_pass(1, "metric axioms", f"{checked} pairs across 4 variants, {elapsed:.1f}s")


def test_criterion_2_kendall_oracle_equivalence(rng):
    """Exact agreement with brute-force discordant-pair counting on every
    permutation pair of n <= 6 and on 500 random pairs at n = 8."""
    checked = 0
    for n in range(1, 7):
        ids = tuple(f"x{i}" for i in range(n))
        perms = list(itertools.permutations(ids))
        for pa in perms:
            for pb in perms:
                assert _kendall_ids(pa, pb) == conjoint_kendall_oracle(pa, pb) if n > 1 else True
                checked += 1
    # the public RankedList API wraps the same id-level computation; spot-check it
    ids = tuple(f"x{i}" for i in range(6))
    for _ in range(200):
        pa = tuple(rng.permutation(ids))
        pb = tuple(rng.permutation(ids))
        assert kendall_distance(make_list(pa), make_list(pb)) == conjoint_kendall_oracle(pa, pb)
    ids8 = [f"x{i}" for i in range(8)]
    for _ in range(500):
        pa = tuple(rng.permutation(ids8))
        pb = tuple(rng.permutation(ids8))
        assert _kendall_ids(pa, pb) == conjoint_kendall_oracle(pa, pb)
        checked += 1
    report_pass(2, "kendall oracle equivalence", f"{checked} pairs, exact match")


def test_criterion_3_kemeny_optimality(rng):
    """Exact Kemeny attains the enumeration minimum on 200 random instances
    (<= 7 items, <= 5 lists); Borda stays within 5x of the optimum."""
    worst_ratio = 1.0
    for trial in range(200):
        coll = random_collection(rng, max_items=7, max_lists=5)
        got = kemeny_exact(coll)
        want_order, want_score = oracle_kemeny(coll)
        assert got.item_ids() == want_order, f"instance {trial}"
        assert kemeny_score(got, coll) == pytest.approx(want_score, abs=1e-12)
        universe = sorted({i for lst in coll.lists for i in lst.item_ids()})
        borda_score = kemeny_score(aggregate_borda(coll, len(universe)), coll)
        assert borda_score <= 5.0 * want_score + 1e-9, f"instance {trial}"
        if want_score > 0:
            worst_ratio = max(worst_ratio, borda_score / want_score)
    report_pass(3, "kemeny optimality", f"200 instances, worst borda/optimum ratio {worst_ratio:.2f}")


def test_criterion_4_bias_recovery():
    """Injected content shifts are recovered: combined bias within 0.02 of
    2*delta and class-P content bias within 0.02 of delta, at 10^4 lists per
    class, in under 60 s total; recovery is monotone in delta."""
    start = time.monotonic()
    combined_measured = []
    deltas = (0.0, 0.05, 0.10, 0.15, 0.20)
    for delta in deltas:
        cfg = scenario(seed=1000 + int(delta * 100), n_users=20000, dp=delta, dq=-delta)
        inp = audit_input_from_scenario(cfg, MeasureConfig(k=10))
        measured = combined_bias(inp).magnitude
        combined_measured.append(measured)
        if delta > 0.0:
            assert measured == pytest.approx(2 * delta, abs=0.02), f"delta={delta}"
            rep_p, _ = class_representatives(inp, *inp.split(), "q00")
            content_p = content_bias(inp, rep_p).magnitude
            assert content_p == pytest.approx(delta, abs=0.02), f"delta={delta}"
    for lo, hi in zip(combined_measured, combined_measured[1:]):
        assert hi >= lo - 0.02, "monotonicity in delta"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"recovery suite took {elapsed:.1f}s"
    report_pass(4, "bias recovery", f"deltas {deltas[1:]}, all within ±0.02, {elapsed:.1f}s")


def test_criterion_5_null_calibration():
    """Null simulator, alpha = 0.05 permutation test, 200 independent audits
    of 200 users each: empirical rejection rate inside [0.02, 0.09]."""
    rejections = 0
    for trial in range(200):
        inp = audit_input_from_scenario(
            scenario(seed=140000 + trial), MeasureConfig(dr_kind="distribution", k=10)
        )
        result = permutation_test(inp, "group_user_bias", 199, seed=240000 + trial)
        if result.p_value <= 0.05:
            rejections += 1
    rate = rejections / 200
    assert 0.02 <= rate <= 0.09, f"rejection rate {rate}"
    report_pass(5, "null calibration", f"rejection rate {rate:.3f} in [0.02, 0.09]")


def test_criterion_6_individual_soundness():
    """Matched-pair null: zero violations (clones share lists, non-clones are
    maximally distant). Injecting ranking divergence between partners is
    detected in 100% of 50 trials at delta_rank = 0.5."""
    config = MeasureConfig(dr_kind="kendall", k=10, relevant_attrs=("persona",))
    personas = tuple(f"p{i}" for i in range(12))
    for seed in range(5):
        inp = audit_input_from_scenario(
            scenario(seed=seed, n_users=40, n_queries=4, depth=10, pool=10,
                     personalization="profile", personas=personas),
            config,
        )
        assert individual_user_bias(inp).magnitude == 0.0, f"null violations at seed {seed}"
    detected = 0
    for seed in range(50):
        inp = audit_input_from_scenario(
            scenario(seed=700 + seed, n_users=8, n_queries=4, depth=10, pool=10, dr=0.5,
                     personalization="profile", personas=personas),
            config,
        )
        if individual_user_bias(inp).magnitude > 0.0:
            detected += 1
    assert detected == 50, f"detected {detected}/50"
    report_pass(6, "individual-bias soundness", "null: 0 violations; divergence: 50/50 detected")


def test_criterion_7_echo_chamber_discrimination():
    """Opposite content shifts (+-0.2) flag the echo pattern in >= 95 of 100
    trials; same-direction shifts (both +0.2) in <= 5 of 100."""
    flagged_opposite = 0
    flagged_same = 0
    for seed in range(100):
        opposite = audit_input_from_scenario(
            scenario(seed=4000 + seed, pool=60, dp=0.2, dq=-0.2), MeasureConfig(k=10)
        )
        if echo_chamber_test(opposite).diagnostics["echo_flag"]:
            flagged_opposite += 1
        same = audit_input_from_scenario(
            scenario(seed=4000 + seed, pool=60, dp=0.2, dq=0.2), MeasureConfig(k=10)
        )
        if echo_chamber_test(same).diagnostics["echo_flag"]:
            flagged_same += 1
    assert flagged_opposite >= 95, f"opposite-shift flagged {flagged_opposite}/100"
    assert flagged_same <= 5, f"same-shift flagged {flagged_same}/100"
    report_pass(7, "echo-chamber discrimination", f"opposite {flagged_opposite}/100, same {flagged_same}/100")


def test_criterion_8_determinism_and_round_trip(tmp_path, rng):
    """Fixed-seed simulate->measure runs are byte-identical; serializing and
    reloading 100 random scenarios is structurally lossless."""
    reports = []
    for run in ("one", "two"):
        manifest = AuditManifest(
            scenario=scenario(seed=31, n_users=60, n_queries=2, dr=0.3, dp=0.1, dq=-0.1),
            output_dir=tmp_path / run,
            config=MeasureConfig(relevant_attrs=("persona",)),
            significance=SignificanceSpec(measures=("group_user_bias",), n_permutations=200, seed=31),
        )
        run_audit(manifest)
        reports.append((tmp_path / run / "report.json").read_bytes())
    assert reports[0] == reports[1], "reports differ across identical runs"

    lossless = 0
    for trial in range(100):
        m = int(rng.integers(2, 4))
        values = tuple(f"a{i + 1}" for i in range(m))
        schema = AttributeSchema("stance", values)
        gt = GroundTruth("stance", {v: 1.0 / m for v in values})
        delta = float(rng.uniform(0, 0.25))
        cfg = ScenarioConfig(
            n_users=int(rng.integers(1, 4)) * 2,
            protected=PROTECTED_SCHEMA,
            protected_value="x",
            queries=(QuerySpec("q0", schema, gt),),
            other_attributes=(OtherAttribute("persona", values=("p0", "p1")),),
            list_depth=int(rng.integers(2, 8)),
            item_pool_size=12,
            delta_content_p=delta,
            delta_content_pbar=-delta,
            delta_rank=float(rng.uniform(0, 1)),
            personalization=("user", "pair", "profile")[int(rng.integers(3))],
            seed=trial,
        )
        lists = serve_all(cfg)
        path = tmp_path / f"roundtrip-{trial}.jsonl"
        write_result_lists(lists, path)
        assert load_result_lists(path) == lists, f"scenario {trial} not lossless"
        assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        lossless += 1
    report_pass(8, "determinism & round-trip", f"byte-identical reports; {lossless}/100 scenarios lossless")


def test_criterion_9_scale_sanity(tmp_path):
    """A full audit of 1,000 users x 20 queries x depth-50 lists (every
    measure plus a 1,000-permutation significance run) completes within 60 s."""
    cfg = ScenarioConfig(
        n_users=1000,
        protected=PROTECTED_SCHEMA,
        protected_value="x",
        queries=tuple(QuerySpec(f"q{i:02d}", STANCE, UNIFORM_GT) for i in range(20)),
        other_attributes=(
            OtherAttribute("persona", values=("p0", "p1", "p2", "p3")),
            OtherAttribute("age", value_range=(18.0, 80.0)),
        ),
        list_depth=50,
        item_pool_size=150,
        delta_content_p=0.1,
        delta_content_pbar=-0.1,
        delta_rank=0.2,
        personalization="user",
        seed=2029,
    )
    manifest = AuditManifest(
        scenario=cfg,
        output_dir=tmp_path / "out",
        config=MeasureConfig(k=50, dr_kind="topk", relevant_attrs=("persona", "age")),
        significance=SignificanceSpec(measures=("group_user_bias",), n_permutations=1000, seed=7),
    )
    start = time.monotonic()
    report = run_audit(manifest)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"scale audit took {elapsed:.1f}s"
    assert set(report.verdicts) == {
        "individual_user_bias",
        "group_user_bias",
        "probabilistic_group_bias",
        "combined_bias",
        "content_bias",
        "echo_chamber_test",
    }
    assert report.skipped == {}
    assert "group_user_bias" in report.significance
    assert (tmp_path / "out" / "report.json").exists()
    report_pass(9, "scale sanity", f"{elapsed:.1f}s for 1000x20xdepth-50 with 1000 permutations")
