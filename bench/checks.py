"""Output checks run on every benchmarked audit.

An audit fails when it raises or when any check here reports a problem. The
individual-bias check recomputes the reported top pairs from the audit's
inputs with the scalar oracles (``user_distance`` and
``list_space_distance``), reading the inputs without going through the
code under test: the simulator's per-list ``serve`` in simulate mode, a
plain JSON scan of the fixture in measure mode.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from rankbias import RankedList, ResultItem, UserProfile, serve, user_distance
from rankbias.measures import list_space_distance
from rankbias.simulator import generate_profiles
from rankbias.types import UNANNOTATED

from tracing import MEASURES
from workloads import CONTENT_DELTA, STANCE, Workload

COMBINED_TOLERANCE = 0.02


class PairOracle:
    """Scalar recomputation of one pair's individual-bias value."""

    def __init__(self, workload: Workload, seed: int, fixture_dir: Path) -> None:
        self.workload = workload
        self.scenario = workload.scenario(seed)
        self.fixture_dir = fixture_dir
        self.config = replace(workload.config, numeric_ranges=self.scenario.numeric_ranges())
        self.queries = tuple(q.query_id for q in self.scenario.queries)
        if workload.from_files:
            self.profiles = self._read_profiles()
        else:
            self.profiles = {p.user_id: p for p in generate_profiles(self.scenario)}
        self.lists: dict[tuple[str, str], RankedList] = {}
        self.values: dict[tuple[str, str], float] = {}

    def _read_profiles(self) -> dict[str, UserProfile]:
        profiles = {}
        with (self.fixture_dir / "profiles.jsonl").open(encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                profiles[record["user_id"]] = UserProfile(record["user_id"], record["protected"], record["other"])
        return profiles

    def _load(self, users: set[str]) -> None:
        missing = {u for u in users if (u, self.queries[0]) not in self.lists}
        if not missing:
            return
        if not self.workload.from_files:
            for user_id in sorted(missing):
                for query_id in self.queries:
                    self.lists[(user_id, query_id)] = serve(self.scenario, self.profiles[user_id], query_id)
            return
        records: dict[tuple[str, str], dict[int, ResultItem]] = {}
        marker = '"user_id": "'
        with (self.fixture_dir / "results.jsonl").open(encoding="utf-8") as handle:
            for line in handle:
                at = line.index(marker) + len(marker)
                if line[at : line.index('"', at)] not in missing:
                    continue
                record = json.loads(line)
                annotations = {
                    attr: ({} if weights == UNANNOTATED else weights)
                    for attr, weights in record["annotations"].items()
                }
                key = (record["user_id"], record["query_id"])
                records.setdefault(key, {})[record["rank"]] = ResultItem(record["item_id"], annotations)
        for (user_id, query_id), by_rank in records.items():
            items = tuple(by_rank[r] for r in sorted(by_rank))
            self.lists[(user_id, query_id)] = RankedList(query_id, user_id, items)

    def pair_value(self, u1: str, u2: str) -> float:
        if (u1, u2) not in self.values:
            self._load({u1, u2})
            cfg = self.config
            du = user_distance(self.profiles[u1], self.profiles[u2], cfg.relevant_attrs, cfg.numeric_ranges)
            violations = [
                max(0.0, list_space_distance(self.lists[(u1, q)], self.lists[(u2, q)], STANCE, cfg) - du)
                for q in self.queries
            ]
            self.values[(u1, u2)] = sum(violations) / len(violations)
        return self.values[(u1, u2)]


def check_report(report: dict, workload: Workload, oracle: PairOracle) -> list[str]:
    """Problems found in one audit's ``report.json`` document."""
    problems = []
    verdicts = report["measures"]
    if set(verdicts) != set(MEASURES):
        problems.append(f"verdicts {sorted(verdicts)} instead of all six")
    if report["skipped"]:
        problems.append(f"skipped measures: {report['skipped']}")
    if "combined_bias" in verdicts and workload.check_combined:
        combined = verdicts["combined_bias"]["magnitude"]
        if abs(combined - 2 * CONTENT_DELTA) > COMBINED_TOLERANCE:
            problems.append(f"combined_bias {combined!r} is not within {COMBINED_TOLERANCE} of {2 * CONTENT_DELTA}")
    if "echo_chamber_test" in verdicts and verdicts["echo_chamber_test"]["diagnostics"]["echo_flag"] is not True:
        problems.append("echo_flag is not set")
    if "individual_user_bias" in verdicts:
        top = verdicts["individual_user_bias"]["diagnostics"]["top_pairs"]
        if not top:
            problems.append("individual_user_bias reports no top pairs")
        for u1, u2, value in top:
            expected = oracle.pair_value(u1, u2)
            if value != expected:
                problems.append(f"pair ({u1}, {u2}): reported {value!r}, scalar oracle {expected!r}")
    return problems
