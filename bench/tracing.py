"""Call-site tracing for the traced benchmark run.

The tracer wraps module attributes of ``rankbias`` at the places where one
layer calls into another, so the program itself is never edited. A layer is
a module; every traced name is ``<layer>.<function>``. The ``_vector``
module's layer is called ``vector``, because metric names start with a
letter.

* Functions called a few times per audit become spans: name, start, end
  and the enclosing span. Spans stay in memory until the run ends.
* Functions called once per list pair or per item are leaves: only their
  call count and seconds are kept. A leaf's seconds are charged to the span
  that called it, so that span's self time excludes them. A leaf entered
  while another leaf is running is passed through uncounted, because its
  time is already inside the outer leaf.
* A span's self time is its duration minus the part of it that its child
  spans cover, minus the leaf seconds charged to it. Summed over every span
  and leaf, self times add up to the root span's duration.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager
from functools import partial
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    leaf_s: float = 0.0

    @property
    def layer(self) -> str:
        return layer_of(self.name)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span, by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - covered(children.get(span.id, ()), span.start, span.end) - span.leaf_s
        for span in spans
    }


class Tracer:
    """Spans, leaf counters and tallies of one traced audit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.leaves: dict[str, list[float]] = {}  # name -> [calls, seconds]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._in_leaf = False

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn: Callable, *, after: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``after(tracer, args,
        result)`` runs once the span has closed, to record counts."""

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                raise RuntimeError(f"span {name!r} opened inside a leaf; trace it as a leaf or not at all")
            span = Span(len(self.spans), name, 0.0, parent=self._stack[-1].id if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        counter = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._in_leaf = False
                counter[0] += 1
                counter[1] += elapsed
                if self._stack:
                    self._stack[-1].leaf_s += elapsed

        return wrapper

    def tally(self, name: str, fn: Callable) -> Callable:
        """Count calls and inclusive seconds without touching self times
        (the calls may open spans of their own)."""

        def wrapper(*args, **kwargs):
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(f"{name}_calls")
                self.add(f"{name}_s", self.clock() - start)

        return wrapper

    def self_by(self, key: Callable[[Span], str]) -> dict[str, float]:
        out: dict[str, float] = {}
        selfs = self_times(self.spans)
        for span in self.spans:
            out[key(span)] = out.get(key(span), 0.0) + selfs[span.id]
        return out

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer: span self times plus leaf seconds."""
        out = self.self_by(lambda s: s.layer)
        for name, (_, seconds) in self.leaves.items():
            out[layer_of(name)] = out.get(layer_of(name), 0.0) + seconds
        return out

    def to_dict(self) -> dict[str, object]:
        return {
            "spans": [asdict(span) for span in self.spans],
            "leaves": {name: {"calls": c, "seconds": s} for name, (c, s) in self.leaves.items()},
            "counts": self.counts,
            "missing": self.missing,
        }


# ---------------------------------------------------------------------------
# where the audit is traced


def _count_lists(tracer: Tracer, args, result) -> None:
    tracer.add("simulator.lists_built", len(result))


def _count_records(tracer: Tracer, args, result) -> None:
    tracer.add("io.records_read", sum(ranked.depth for ranked in result.values()))


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.add("io.bytes_written", os.path.getsize(args[0]))


def _make_distinct_counter() -> Callable:
    seen: set[tuple] = set()

    def count(tracer: Tracer, args, result) -> None:
        collection = args[0]
        seen.add((collection.label, tuple((l.user_id, l.query_id) for l in collection.lists), *args[1:]))
        tracer.counts["aggregation.distinct_reps"] = len(seen)

    return count


@contextmanager
def installed(tracer: Tracer):
    """Patch the traced call sites for the duration of the block."""
    from rankbias import _vector, audit, measures, significance, simulator, types

    distinct = _make_distinct_counter()
    spans = [
        (audit, "audit_input_from_scenario", "simulator.audit_input_from_scenario", None),
        (simulator, "generate_profiles", "simulator.generate_profiles", None),
        (simulator, "serve_all", "simulator.serve_all", _count_lists),
        (audit, "load_result_lists", "io.load_result_lists", _count_records),
        (audit, "load_profiles", "io.load_profiles", None),
        (audit, "load_schema_file", "io.load_schema_file", None),
        (audit, "load_ground_truth", "io.load_ground_truth", None),
        (audit, "atomic_write_text", "io.atomic_write_text", _count_bytes),
        (audit, "profiles_text", "io.profiles_text", None),
        (audit, "result_lists_text", "io.result_lists_text", None),
        (audit, "schema_text", "io.schema_text", None),
        (audit, "ground_truth_text", "io.ground_truth_text", None),
        (_vector, "topk_distance_matrix", "vector.topk_distance_matrix", None),
        (_vector, "distribution_matrix", "vector.distribution_matrix", None),
        (_vector, "chebyshev_matrix", "vector.chebyshev_matrix", None),
        (_vector, "user_distance_matrix", "vector.user_distance_matrix", None),
        (measures, "aggregate", "aggregation.aggregate", distinct),
        (audit, "aggregate", "aggregation.aggregate", distinct),
        (audit, "individual_user_bias", "measures.individual_user_bias", None),
        (audit, "group_user_bias", "measures.group_user_bias", None),
        (audit, "probabilistic_group_bias", "measures.probabilistic_group_bias", None),
        (audit, "combined_bias", "measures.combined_bias", None),
        (audit, "content_bias", "measures.content_bias", None),
        (audit, "echo_chamber_test", "measures.echo_chamber_test", None),
        (audit, "attribute_associations", "measures.attribute_associations", None),
        (audit, "permutation_test", "significance.permutation_test", None),
    ]
    leaves = [
        (types, "_validate_weights", "types.validate_weights"),
        (measures, "list_space_distance", "distances.list_distance"),
        (measures, "kendall_distance", "distances.list_distance"),
        (measures, "user_distance", "distances.user_distance"),
        (measures, "attribute_distribution", "distances.attribute_distribution"),
        (measures, "distribution_distance", "distances.distribution_distance"),
    ]

    def count_variants(original: Callable) -> Callable:
        def wrapper(variants, *args, **kwargs):
            result = original(variants, *args, **kwargs)
            tracer.add("measures.raw_variants", len(variants))
            tracer.add("measures.merged_variants", len(set(result)))
            return result

        return wrapper

    def tally_evaluators(original: Callable) -> Callable:
        return lambda *args, **kwargs: tracer.tally("significance.replicate", original(*args, **kwargs))

    patches = [(m, attr, partial(tracer.span, name, after=after)) for m, attr, name, after in spans]
    patches += [(m, attr, partial(tracer.leaf, name)) for m, attr, name in leaves]
    patches += [(measures, "cluster_variants", count_variants), (significance, "_make_evaluator", tally_evaluators)]
    originals = []
    try:
        for module, attr, wrap in patches:
            # a call site the package no longer has is reported, and its metrics read 0
            if not hasattr(module, attr):
                tracer.missing.append(f"{module.__name__}.{attr}")
                continue
            originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrap(getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


MEASURES = (
    "individual_user_bias",
    "group_user_bias",
    "probabilistic_group_bias",
    "combined_bias",
    "content_bias",
    "echo_chamber_test",
)
#: Layers whose whole self time is a metric of its own; the rest, types,
#: vector and significance, each have one traced entry point, whose metric
#: is already the layer's total.
LAYERS = ("simulator", "io", "distances", "aggregation", "measures", "audit")
IO_WRITERS = ("io.atomic_write_text", "io.profiles_text", "io.result_lists_text", "io.schema_text", "io.ground_truth_text")


def layer_metrics(
    tracer: Tracer, report: dict, report_bytes: int, traced_s: float, untraced_s: float
) -> dict[str, float]:
    """The per-layer metrics of one traced audit, by name."""
    by_name = tracer.self_by(lambda s: s.name)
    by_layer = tracer.layer_self()
    calls = Counter(span.name for span in tracer.spans)
    counts = tracer.counts

    def leaf(name: str) -> list[float]:
        return tracer.leaves.get(name, [0, 0.0])

    aggregate_calls = calls["aggregation.aggregate"]
    raw = counts.get("measures.raw_variants", 0)
    replicates = counts.get("significance.replicate_calls", 0)
    out = {
        "simulator.serve_all_s": by_name.get("simulator.serve_all", 0.0),
        "simulator.lists_built": counts.get("simulator.lists_built", 0),
        "types.validate_weights_calls": leaf("types.validate_weights")[0],
        "types.validate_weights_s": leaf("types.validate_weights")[1],
        "io.load_result_lists_s": by_name.get("io.load_result_lists", 0.0),
        "io.records_read": counts.get("io.records_read", 0),
        "io.write_s": sum(by_name.get(name, 0.0) for name in IO_WRITERS),
        "io.bytes_written": counts.get("io.bytes_written", 0),
        "vector.matrix_calls": sum(n for name, n in calls.items() if name.startswith("vector.")),
        "vector.matrix_s": by_layer.get("vector", 0.0),
        "distances.list_distance_calls": leaf("distances.list_distance")[0],
        "distances.list_distance_s": leaf("distances.list_distance")[1],
        "aggregation.aggregate_calls": aggregate_calls,
        "aggregation.aggregate_s": by_name.get("aggregation.aggregate", 0.0),
        "aggregation.distinct_rep_ratio": (
            counts.get("aggregation.distinct_reps", 0) / aggregate_calls if aggregate_calls else 0.0
        ),
    }
    for measure in MEASURES:
        out[f"measures.{measure}_s"] = by_name.get(f"measures.{measure}", 0.0)
    out.update(
        {
            "measures.user_pairs": report["measures"]["individual_user_bias"]["diagnostics"]["n_pairs"],
            "measures.raw_variants": raw,
            "measures.merged_variants": counts.get("measures.merged_variants", 0),
            "measures.variant_merge_ratio": counts.get("measures.merged_variants", 0) / raw if raw else 0.0,
            "significance.permutation_test_s": by_name.get("significance.permutation_test", 0.0),
            "significance.replicates": replicates,
            "significance.replicate_ms": (
                1000.0 * counts["significance.replicate_s"] / replicates if replicates else 0.0
            ),
            "audit.report_bytes": report_bytes,
        }
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    out["trace.audit_s"] = traced_s
    out["trace.layer_sum_s"] = sum(by_layer.values())
    out["trace.overhead_s"] = traced_s - untraced_s
    return out


#: Units of the per-layer metrics; every other name is in seconds.
UNITS = {
    "simulator.lists_built": "count",
    "types.validate_weights_calls": "count",
    "io.records_read": "count",
    "io.bytes_written": "bytes",
    "vector.matrix_calls": "count",
    "distances.list_distance_calls": "count",
    "aggregation.aggregate_calls": "count",
    "aggregation.distinct_rep_ratio": "ratio",
    "measures.user_pairs": "count",
    "measures.raw_variants": "count",
    "measures.merged_variants": "count",
    "measures.variant_merge_ratio": "ratio",
    "significance.replicates": "count",
    "significance.replicate_ms": "ms",
    "audit.report_bytes": "bytes",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s")
