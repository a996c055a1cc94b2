"""Audit orchestration: resolve a manifest into an audit input, execute
every applicable measure, attach significance, and emit reports.

The machine-readable report is versioned, contains no filesystem paths or
timestamps, and serializes with sorted keys, so a fixed-seed run is
byte-identical from run to run. Every total it carries is summed left to
right, never with ``sum()`` (which compensates from Python 3.12 on), so no
value depends on the Python version; numpy versions are not held to this.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .aggregation import aggregate
from .errors import ConfigError, InputError, MeasureUndefinedError, ModeError, SchemaError
from .io import (
    AuditManifest,
    atomic_write_text,
    ground_truth_text,
    load_ground_truth,
    load_manifest,
    load_profiles,
    load_result_lists,
    load_schema_file,
    profiles_text,
    result_lists_chunks,
    schema_text,
)
from .measures import (
    AuditInput,
    BiasVerdict,
    _group_verdicts,
    _RankContext,
    _representative_depth,
    attribute_associations,
    comparative_bias,
    content_bias,
    individual_user_bias,
)
from .significance import _check_seed, _permutation_tests
from .simulator import audit_input_from_scenario
from .types import RankedList

REPORT_VERSION = 1

#: Caveat attached to every report carrying significance results.
PERMUTATION_NOTE = (
    "permutation significance shuffles user labels; per-query dependence within a user is not modelled"
)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


@dataclass
class AuditReport:
    """Per-measure verdicts (with thresholds and p-values) for one battery."""

    mode: str
    dataset: dict[str, object]
    config: dict[str, object]
    verdicts: dict[str, dict] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    significance: dict[str, dict] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    report_version: int = REPORT_VERSION

    def to_json_dict(self) -> dict[str, object]:
        return _jsonable(
            {
                "report_version": self.report_version,
                "mode": self.mode,
                "dataset": self.dataset,
                "config": self.config,
                "measures": self.verdicts,
                "skipped": self.skipped,
                "significance": self.significance,
                "notes": self.notes,
            }
        )

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def summary_text(self) -> str:
        lines = [f"rankbias audit report v{self.report_version} ({self.mode} mode)"]
        ds = self.dataset
        lines.append(
            "users: {n_users}  queries: {n_queries}  lists: {n_lists}".format(**ds)
            + (
                "  (P: {P}, P-bar: {P-bar})".format(**ds["class_sizes"])
                if "class_sizes" in ds
                else ""
            )
        )
        lines.append("")
        lines.append(f"{'measure':28} {'magnitude':>10} {'threshold':>10} {'biased':>7} {'p-value':>8}")
        for name in sorted(self.verdicts):
            v = self.verdicts[name]
            p = self.significance.get(name, {}).get("p_value")
            lines.append(
                f"{name:28} {v['magnitude']:>10.4f} {v['threshold']:>10.4f} "
                f"{'yes' if v['biased'] else 'no':>7} "
                + (f"{p:>8.4f}" if p is not None else f"{'-':>8}")
            )
        for name in sorted(self.skipped):
            lines.append(f"{name:28} skipped: {self.skipped[name]}")
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines) + "\n"

    def per_query_rows(self) -> list[tuple[str, str, float]]:
        rows = []
        for name in sorted(self.verdicts):
            for query_id, value in sorted(self.verdicts[name]["per_query"].items()):
                rows.append((name, query_id, value))
        return rows


def _pooled_representatives(inp: AuditInput) -> dict[str, RankedList]:
    """One provider-level representative per query, aggregated over the
    input's batch of every user's list."""
    reps: dict[str, RankedList] = {}
    for query_id in inp.queries():
        batch = inp.batch(query_id)
        reps[query_id] = aggregate(batch, int(_representative_depth(inp, batch.depths.max())), inp.config.aggregator)
    return reps


def resolve_audit_input(manifest: AuditManifest) -> AuditInput:
    """Build the audit input from files or from the embedded scenario."""
    if manifest.scenario is not None:
        scenario = manifest.scenario
        if manifest.seed is not None:
            scenario = replace(scenario, seed=manifest.seed)
        return audit_input_from_scenario(scenario, manifest.config)

    schemas, numeric_ranges = load_schema_file(manifest.schema_path)
    name = manifest.differentiating_attribute
    if name not in schemas:
        raise SchemaError(f"differentiating attribute {name!r} not in schema file")
    differentiating = schemas[name]
    profiles = load_profiles(manifest.profiles_path)
    lists = load_result_lists(manifest.results_path)
    ground_truth = None
    if manifest.ground_truth_path is not None:
        ground_truth = load_ground_truth(manifest.ground_truth_path, schemas)
    config = manifest.config
    if numeric_ranges and not config.numeric_ranges:
        config = replace(config, numeric_ranges=numeric_ranges)
    return AuditInput(
        profiles=profiles,
        lists=lists,
        protected_attribute=manifest.protected_attribute,
        protected_value=manifest.protected_value,
        differentiating=differentiating,
        ground_truth=ground_truth,
        config=config,
    )


def run_audit(manifest: AuditManifest | str | Path) -> AuditReport:
    """Execute all applicable measures for one manifest.

    Measures whose prerequisites are unmet (no ground truth, an empty class,
    a single user, no relevant attributes) are listed explicitly as skipped,
    never silently omitted. Raises when nothing at all is applicable.
    """
    if not isinstance(manifest, AuditManifest):
        manifest = load_manifest(manifest)
    # the significance seed is resolved and checked before any input is read
    spec = manifest.significance
    if spec is not None:
        scenario_seed = manifest.scenario.seed if manifest.scenario is not None else None
        seed = next((s for s in (spec.seed, manifest.seed, scenario_seed) if s is not None), None)
        if seed is None:
            raise ConfigError("significance requested but no seed available")
        seed = _check_seed(seed)
    inp = resolve_audit_input(manifest)
    cfg = inp.config

    verdicts: dict[str, BiasVerdict] = {}
    skipped: dict[str, str] = {}

    try:
        p_ids, q_ids = inp.split()
        class_sizes = {"P": len(p_ids), "P-bar": len(q_ids)}
    except InputError as exc:
        p_ids = q_ids = None
        class_sizes = None
        class_reason = str(exc)

    if len(inp.user_ids()) < 2:
        skipped["individual_user_bias"] = "needs at least two users"
    elif not cfg.relevant_attrs:
        skipped["individual_user_bias"] = "relevant_attrs not configured"
    else:
        try:
            verdicts["individual_user_bias"] = individual_user_bias(inp)
        except MeasureUndefinedError as exc:
            skipped["individual_user_bias"] = str(exc)

    has_gt = bool(inp.queries()) and all(inp.gt_for(q) is not None for q in inp.queries())
    if not has_gt:
        skipped["content_bias"] = "no ground truth (use comparative mode)"
    else:
        try:
            verdicts["content_bias"] = content_bias(inp, _pooled_representatives(inp))
        except (ModeError, MeasureUndefinedError) as exc:
            skipped["content_bias"] = str(exc)

    # one engine serves every group verdict and significance test. It reads
    # the tables that each query's batch keeps as long as the input, which
    # the pooled representative has built when content bias ran. Only its
    # variant clustering is its own, and lives between individual bias and
    # the report writes, the two peaks of an audit's memory
    context = _RankContext(inp) if p_ids is not None else None
    group = []
    for name in ("group_user_bias", "probabilistic_group_bias", "combined_bias", "echo_chamber_test"):
        if name == "echo_chamber_test" and not has_gt:
            skipped[name] = "no ground truth"
        elif p_ids is None:
            skipped[name] = class_reason
        else:
            group.append(name)
    # one evaluation of the observed classes serves every group verdict
    for name, verdict in (_group_verdicts(context, group) if group else {}).items():
        if isinstance(verdict, MeasureUndefinedError):
            skipped[name] = str(verdict)
        elif isinstance(verdict, Exception):
            raise verdict
        else:
            verdicts[name] = verdict

    if not verdicts:
        raise ConfigError(f"no applicable measures; skipped: {skipped}")

    significance: dict[str, dict] = {}
    notes: list[str] = []
    if spec is not None:
        for name in spec.measures:
            if name not in verdicts:
                raise ConfigError(f"significance requested for skipped measure {name!r}")
        # one permutation pass tests every measure
        tests = _permutation_tests(context, spec.measures, spec.n_permutations, seed)
        significance = {name: result.to_dict() for name, result in tests.items()}
        notes.append(PERMUTATION_NOTE)
    del context

    dataset = {
        "n_users": len(inp.user_ids()),
        "n_queries": len(inp.queries()),
        "n_lists": len(inp.lists),
        "protected_attribute": inp.protected_attribute,
        "protected_value": inp.protected_value,
        "differentiating_attribute": inp.differentiating.name,
    }
    if class_sizes is not None:
        dataset["class_sizes"] = class_sizes
        # confounding diagnostic, not a causal claim: high association means
        # protected and non-protected attribute effects cannot be separated
        dataset["attribute_associations"] = attribute_associations(inp)

    report = AuditReport(
        mode=manifest.mode,
        dataset=dataset,
        config=cfg.to_dict(),
        verdicts={name: v.to_dict() for name, v in verdicts.items()},
        skipped=skipped,
        significance=significance,
        notes=notes,
    )
    if manifest.output_dir is not None:
        write_report(report, manifest, inp)
    return report


def write_report(report: AuditReport, manifest: AuditManifest, inp: AuditInput) -> None:
    out = Path(manifest.output_dir)
    atomic_write_text(out / "report.json", report.to_json_text())
    atomic_write_text(out / "summary.txt", report.summary_text())
    buffer = _stdio.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["measure", "query_id", "magnitude"])
    writer.writerows(report.per_query_rows())
    atomic_write_text(out / "per_query.csv", buffer.getvalue())
    if manifest.mode == "simulate":
        atomic_write_text(out / "profiles.jsonl", profiles_text(inp.profiles))
        atomic_write_text(out / "results.jsonl", result_lists_chunks(inp.lists))
        schemas = [inp.differentiating]
        scenario = manifest.scenario
        schemas.append(scenario.protected)
        atomic_write_text(out / "schema.json", schema_text(schemas, scenario.numeric_ranges()))
        truths = {q: inp.gt_for(q) for q in inp.queries()}
        unique = {json.dumps(sorted(gt.probabilities.items())) for gt in truths.values()}
        if len(unique) == 1:
            gt = next(iter(truths.values()))
            atomic_write_text(out / "ground_truth.json", ground_truth_text(gt))


def compare_audit(
    manifest_a: AuditManifest | str | Path,
    manifest_b: AuditManifest | str | Path,
    output_dir: str | Path | None = None,
) -> AuditReport:
    """Comparative audit of two providers over their shared query battery:
    no ground truth needed, both the distribution and list-space channels
    are reported. The two measure configs must agree but for the fields a
    comparison does not read."""
    if not isinstance(manifest_a, AuditManifest):
        manifest_a = load_manifest(manifest_a)
    if not isinstance(manifest_b, AuditManifest):
        manifest_b = load_manifest(manifest_b)
    config_a, config_b = manifest_a.config.to_dict(), manifest_b.config.to_dict()
    unread = ("relevant_attrs", "numeric_ranges")
    differing = [name for name in config_a if name not in unread and config_a[name] != config_b[name]]
    if differing:
        raise ConfigError(f"the two manifests' configs differ in {differing}")
    inp_a = resolve_audit_input(manifest_a)
    inp_b = resolve_audit_input(manifest_b)
    attr_a, attr_b = inp_a.differentiating, inp_b.differentiating
    if attr_a.name != attr_b.name or set(attr_a.values) != set(attr_b.values):
        raise SchemaError("the two manifests differentiate different attributes")
    reps_a = _pooled_representatives(inp_a)
    reps_b = _pooled_representatives(inp_b)
    verdict = comparative_bias(reps_a, reps_b, attr_a, inp_a.config)
    dataset = {
        "n_users": len(inp_a.user_ids()) + len(inp_b.user_ids()),
        "n_queries": len(verdict.diagnostics["shared_queries"]),
        "n_lists": len(inp_a.lists) + len(inp_b.lists),
        "provider_a": {"n_users": len(inp_a.user_ids()), "n_lists": len(inp_a.lists)},
        "provider_b": {"n_users": len(inp_b.user_ids()), "n_lists": len(inp_b.lists)},
        "protected_attribute": inp_a.protected_attribute,
        "protected_value": inp_a.protected_value,
        "differentiating_attribute": attr_a.name,
    }
    report = AuditReport(
        mode="compare",
        dataset=dataset,
        config=inp_a.config.to_dict(),
        verdicts={"comparative_bias": verdict.to_dict()},
    )
    out = output_dir if output_dir is not None else manifest_a.output_dir
    if out is not None:
        out = Path(out)
        atomic_write_text(out / "report.json", report.to_json_text())
        atomic_write_text(out / "summary.txt", report.summary_text())
    return report
