"""The benchmark's workloads: what each one audits, at which size, and why.

Every input is a pure function of the workload seed. The simulator builds
the population and the lists; the audit only ever sees the resulting
manifest (simulate mode) or the files written from it (measure mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from rankbias import AttributeSchema, GroundTruth, MeasureConfig
from rankbias.io import (
    AuditManifest,
    SignificanceSpec,
    atomic_write_text,
    ground_truth_text,
    schema_text,
    write_profiles,
    write_result_lists,
)
from rankbias.simulator import OtherAttribute, QuerySpec, ScenarioConfig, audit_input_from_scenario
from rankbias.types import PROTECTED

STANCE = AttributeSchema("stance", ("a1", "a2"))
UNIFORM_GT = GroundTruth("stance", {"a1": 0.5, "a2": 0.5})
GROUP = AttributeSchema("group", ("x", "y"), PROTECTED)
OTHER_ATTRIBUTES = (
    OtherAttribute("persona", values=("p0", "p1", "p2", "p3")),
    OtherAttribute("age", value_range=(18.0, 80.0)),
)
RELEVANT = ("persona", "age")

#: Content shift injected for class P (the complement gets its negative), so
#: the class-level combined bias should read 2 * CONTENT_DELTA.
CONTENT_DELTA = 0.1
RANK_DELTA = 0.2
DEPTH = 50
POOL = 150


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: int
    queries: int
    personalization: str
    config: MeasureConfig
    significance: tuple[str, ...] = ()
    permutations: int = 0
    from_files: bool = False
    #: Whether the class-level combined bias must recover the injected 2 * delta.
    check_combined: bool = True

    @property
    def lists(self) -> int:
        return self.users * self.queries

    def sizes(self) -> dict[str, object]:
        return {
            "users": self.users,
            "queries": self.queries,
            "depth": DEPTH,
            "pool": POOL,
            "lists": self.lists,
            "records": self.lists * DEPTH,
            "mode": "measure" if self.from_files else "simulate",
            "personalization": self.personalization,
            "dr_kind": self.config.dr_kind,
            "aggregator": self.config.aggregator,
            "significance": list(self.significance),
            "permutations": self.permutations,
        }

    def scenario(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            n_users=self.users,
            protected=GROUP,
            protected_value="x",
            queries=tuple(QuerySpec(f"q{i:02d}", STANCE, UNIFORM_GT) for i in range(self.queries)),
            other_attributes=OTHER_ATTRIBUTES,
            list_depth=DEPTH,
            item_pool_size=POOL,
            delta_content_p=CONTENT_DELTA,
            delta_content_pbar=-CONTENT_DELTA,
            delta_rank=RANK_DELTA,
            personalization=self.personalization,
            seed=seed,
        )

    def manifest(self, seed: int, fixture_dir: Path, output_dir: Path) -> AuditManifest:
        """The manifest handed to ``run_audit``; building it is the set-up."""
        significance = None
        if self.significance:
            significance = SignificanceSpec(self.significance, self.permutations, seed)
        if not self.from_files:
            return AuditManifest(
                scenario=self.scenario(seed),
                output_dir=output_dir,
                config=self.config,
                significance=significance,
            )
        return AuditManifest(
            profiles_path=fixture_dir / "profiles.jsonl",
            results_path=fixture_dir / "results.jsonl",
            schema_path=fixture_dir / "schema.json",
            ground_truth_path=fixture_dir / "ground_truth.json",
            output_dir=output_dir,
            protected_attribute=GROUP.name,
            protected_value="x",
            differentiating_attribute=STANCE.name,
            config=self.config,
            significance=significance,
        )

    def write_fixture(self, seed: int, fixture_dir: Path) -> None:
        """Write the measure-mode input files from the simulator."""
        scenario = self.scenario(seed)
        inp = audit_input_from_scenario(scenario)
        write_profiles(inp.profiles, fixture_dir / "profiles.jsonl")
        write_result_lists(inp.lists, fixture_dir / "results.jsonl")
        atomic_write_text(fixture_dir / "schema.json", schema_text([STANCE, GROUP], scenario.numeric_ranges()))
        atomic_write_text(fixture_dir / "ground_truth.json", ground_truth_text(UNIFORM_GT))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scale_topk",
            why=(
                "acceptance-9 shape at half its query battery, simulate mode: simulator, types, _vector "
                "top-k matrices, Borda aggregation and significance context, 500k-record write"
            ),
            users=1000,
            queries=10,
            personalization="user",
            config=MeasureConfig(k=50, dr_kind="topk", aggregator="borda", relevant_attrs=RELEVANT),
            significance=("group_user_bias",),
            permutations=1000,
        ),
        Workload(
            name="kendall_median",
            why=(
                "scalar Kendall loops in individual bias and variant clustering, and the median "
                "object fallback in significance; simulator and io negligible"
            ),
            users=100,
            queries=2,
            personalization="pair",
            config=MeasureConfig(k=50, dr_kind="kendall", aggregator="median", relevant_attrs=RELEVANT),
            significance=("group_user_bias", "combined_bias"),
            permutations=100,
            check_combined=False,
        ),
        Workload(
            name="load_topk",
            why=(
                "measure mode from 250k JSONL records: the read side of io plus types validation, "
                "with no simulator work and no significance"
            ),
            users=1000,
            queries=5,
            personalization="user",
            config=MeasureConfig(
                k=50, dr_kind="topk", weighting="rank-discounted", relevant_attrs=RELEVANT
            ),
            from_files=True,
        ),
    )
}
