"""Self-tests of the benchmark harness: span nesting, self-time arithmetic,
and the percentile rule. Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from run import TAIL_SAMPLES, tail_percentile
from tracing import Span, Tracer, covered, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def test_spans_nest_and_leaves_charge_the_calling_span():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.leaf("distances.pair", lambda: clock.work(0.5))
    inner = tracer.span("aggregation.inner", lambda: (clock.work(1.0), leaf(), leaf()))

    def outer_body():
        clock.work(2.0)
        inner()
        inner()
        leaf()

    tracer.span("measures.outer", outer_body)()

    outer_span, first, second = tracer.spans
    assert [s.name for s in tracer.spans] == ["measures.outer", "aggregation.inner", "aggregation.inner"]
    assert outer_span.parent is None
    assert first.parent == second.parent == outer_span.id
    assert (first.start, first.end) == (2.0, 4.0)
    assert first.leaf_s == second.leaf_s == 1.0
    assert outer_span.leaf_s == 0.5
    assert tracer.leaves["distances.pair"] == [5, 2.5]
    selfs = self_times(tracer.spans)
    assert selfs == {0: 2.0, 1: 1.0, 2: 1.0}
    assert tracer.layer_self() == {"measures": 2.0, "aggregation": 2.0, "distances": 2.5}
    assert sum(tracer.layer_self().values()) == outer_span.end - outer_span.start


def test_nested_leaf_is_not_counted_twice():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.leaf("types.inner", lambda: clock.work(1.0))
    outer = tracer.leaf("distances.outer", lambda: (clock.work(1.0), inner()))
    tracer.span("measures.root", outer)()
    assert tracer.leaves == {"types.inner": [0, 0.0], "distances.outer": [1, 2.0]}
    assert tracer.spans[0].leaf_s == 2.0


def test_span_inside_a_leaf_is_refused():
    tracer = Tracer(FakeClock())
    span = tracer.span("aggregation.aggregate", lambda: None)
    with pytest.raises(RuntimeError, match="inside a leaf"):
        tracer.leaf("distances.pair", span)()


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.work(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.span("measures.outer", tracer.span("io.inner", fail))()
    assert [(s.start, s.end) for s in tracer.spans] == [(0.0, 1.0), (0.0, 1.0)]
    tracer.span("audit.next", lambda: None)()
    assert tracer.spans[-1].parent is None


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert covered([(1.0, 2.0), (1.5, 1.8), (5.0, 7.0)], 0.0, 10.0) == 3.0
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_children_and_leaf_seconds():
    spans = [
        Span(0, "audit.root", 0.0, 10.0, None, leaf_s=1.0),
        Span(1, "measures.a", 1.0, 4.0, 0),
        Span(2, "measures.b", 3.0, 6.0, 0, leaf_s=0.5),
        Span(3, "aggregation.c", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 2.5, 3: 1.0}


@pytest.mark.parametrize("n", range(1, 400))
def test_tail_percentile_keeps_ten_samples_beyond_it(n):
    samples = random.Random(n).sample(range(10 * n), n)
    tail = tail_percentile(samples)
    if tail is None:
        # no percentile above the median has enough samples beyond it
        assert n * (1 - 51 / 100) < TAIL_SAMPLES
        return
    p, value = tail
    assert 50 < p < 100
    assert sum(s > value for s in samples) >= TAIL_SAMPLES
    assert n * (1 - (p + 1) / 100) < TAIL_SAMPLES


def test_tail_percentile_examples():
    assert tail_percentile([]) is None
    assert tail_percentile(list(range(20))) is None
    assert tail_percentile(list(range(100))) == (90, 89)
    assert tail_percentile(list(range(1000))) == (99, 989)


def test_traced_audit_adds_up_and_reports_every_listed_metric():
    sys.path.insert(0, str(SRC))
    try:
        from rankbias import MeasureConfig, measures, types
        from rankbias.audit import run_audit

        from tracing import installed, layer_metrics, unit_of
        from workloads import WORKLOADS, Workload
    finally:
        sys.path.remove(str(SRC))
    small = Workload(
        name="small",
        why="test",
        users=12,
        queries=2,
        personalization="pair",
        config=MeasureConfig(k=10, dr_kind="kendall", aggregator="median", relevant_attrs=("persona", "age")),
        significance=("group_user_bias",),
        permutations=100,
        check_combined=False,
    )
    originals = (measures.aggregate, measures.list_space_distance, types._validate_weights)
    tracer = Tracer()
    with installed(tracer):
        report = tracer.span("audit.run_audit", run_audit)(small.manifest(3, Path("unused"), None))
    assert (measures.aggregate, measures.list_space_distance, types._validate_weights) == originals
    root = tracer.spans[0]
    values = layer_metrics(tracer, report.to_json_dict(), 1, root.end - root.start, 0.0)
    assert values["trace.layer_sum_s"] == pytest.approx(values["trace.audit_s"], rel=1e-9)
    assert values["measures.user_pairs"] == 12 * 11 // 2
    assert values["significance.replicates"] == 101
    assert values["aggregation.aggregate_calls"] > 0
    assert 0 < values["aggregation.distinct_rep_ratio"] <= 1

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == {name: unit_of(name) for name in values}
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
