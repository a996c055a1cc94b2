"""Serialization tests: loader acceptance/rejection cases, round-trip
closure with the writers, and manifest validation."""

import json
import math
import random
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import rankbias.io
from rankbias import ConfigError, FormatError, InputError
from rankbias.io import (
    AuditManifest,
    SignificanceSpec,
    atomic_write_text,
    detect_kind,
    ground_truth_text,
    load_ground_truth,
    load_manifest,
    load_profiles,
    load_result_lists,
    load_schema_file,
    result_lists_chunks,
    result_lists_text,
    schema_text,
    validate_file,
    write_profiles,
    write_result_lists,
)
from rankbias.measures import MeasureConfig
from rankbias.simulator import OtherAttribute, QuerySpec, ScenarioConfig, generate_profiles, serve_all
from rankbias.types import UNANNOTATED, AttributeSchema, GroundTruth, RankedList, ResultItem

from test_simulator import STANCE, UNIFORM_GT, scenario


def record(user="u1", query="q1", rank=1, item="x1", annotations=None):
    rec = {"user_id": user, "query_id": query, "rank": rank, "item_id": item}
    if annotations is not None:
        rec["annotations"] = annotations
    return json.dumps(rec)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# result lists


def test_empty_file_warns_and_returns_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.warns(UserWarning):
        assert load_result_lists(path) == {}


def test_three_line_file_one_list(tmp_path):
    path = write_lines(
        tmp_path / "r.jsonl",
        [record(rank=1, item="a"), record(rank=2, item="b"), record(rank=3, item="c")],
    )
    lists = load_result_lists(path)
    assert list(lists) == [("u1", "q1")]
    assert lists[("u1", "q1")].item_ids() == ("a", "b", "c")


def test_duplicate_rank_conflicting_rejected(tmp_path):
    path = write_lines(tmp_path / "r.jsonl", [record(rank=1, item="a"), record(rank=1, item="b")])
    with pytest.raises(FormatError, match="conflicting duplicate"):
        load_result_lists(path)


def test_identical_duplicate_line_deduplicated(tmp_path):
    path = write_lines(tmp_path / "r.jsonl", [record(rank=1, item="a"), record(rank=1, item="a")])
    with pytest.warns(UserWarning):
        lists = load_result_lists(path)
    assert lists[("u1", "q1")].depth == 1


def test_identical_duplicate_with_reordered_annotations_deduplicated(tmp_path):
    first = record(rank=1, item="a", annotations={"stance": {"a1": 0.25, "a2": 0.75}, "tone": "unannotated"})
    again = record(rank=1, item="a", annotations={"tone": None, "stance": {"a2": 0.75, "a1": 0.25}})
    path = write_lines(tmp_path / "r.jsonl", [first, record(rank=2, item="b"), again])
    with pytest.warns(UserWarning, match=r"r\.jsonl:3: duplicate record ignored"):
        lists = load_result_lists(path)
    assert lists[("u1", "q1")].item_ids() == ("a", "b")


def test_duplicate_rank_with_other_annotations_rejected(tmp_path):
    first = record(rank=1, item="a", annotations={"stance": {"a1": 1.0}})
    other = record(rank=1, item="a", annotations={"stance": {"a2": 1.0}})
    path = write_lines(tmp_path / "r.jsonl", [first, other])
    with pytest.raises(FormatError, match=r"r\.jsonl:2: conflicting duplicate for \(user, query, rank\) \('u1', 'q1', 1\)"):
        load_result_lists(path)


def test_equal_records_load_as_one_shared_item(tmp_path):
    one_hot = {"stance": {"a1": 1.0}}
    lines = [
        record(user="u1", rank=1, item="a", annotations=one_hot),
        record(user="u1", rank=2, item="b", annotations=one_hot),
        record(user="u2", rank=1, item="b", annotations=one_hot),
        record(user="u2", rank=2, item="a", annotations=one_hot),
        record(user="u3", rank=1, item="a", annotations={"stance": {"a2": 1.0}}),
        record(user="u3", rank=2, item="b"),
    ]
    lists = load_result_lists(write_lines(tmp_path / "r.jsonl", lines))
    u1, u2, u3 = (lists[(u, "q1")].items for u in ("u1", "u2", "u3"))
    assert u1[0] is u2[1] and u1[1] is u2[0]
    # other annotations, or none, give other objects
    assert u3[0] is not u1[0] and u3[0].annotations == {"stance": {"a2": 1.0}}
    assert u3[1] is not u1[1] and u3[1].annotations == {}
    assert len({id(item) for items in (u1, u2, u3) for item in items}) == 4


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_weight_rejected(tmp_path, weight):
    line = record(rank=1, item="a").replace("}", f', "annotations": {{"stance": {{"a1": {weight}}}}}}}')
    path = write_lines(tmp_path / "r.jsonl", [record(rank=2, item="b"), line])
    shown = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}[weight]
    message = rf"r\.jsonl:2: item 'a', attribute 'stance': non-finite annotation weight {shown} for 'a1'"
    with pytest.raises(FormatError, match=message):
        load_result_lists(path)


# One weight rule, two entry points: each row goes through ``ResultItem`` and
# through the results loader, which names the record's line.
REJECTED_ANNOTATIONS = [
    pytest.param({"stance": {"a1": float("nan")}}, "non-finite annotation weight nan for 'a1'", id="nan"),
    pytest.param({"stance": {"a1": float("inf")}}, "non-finite annotation weight inf for 'a1'", id="inf"),
    pytest.param({"stance": {"a1": -float("inf"), "a2": 1.0}}, "non-finite annotation weight -inf for 'a1'", id="-inf"),
    pytest.param({"stance": {"a1": 10**400}}, "non-finite annotation weight inf for 'a1'", id="int-beyond-float"),
    pytest.param({"stance": {"a1": -0.5, "a2": 1.5}}, "negative annotation weight -0.5 for 'a1'", id="negative"),
    pytest.param({"stance": {"a1": "abc"}}, "annotation weight 'abc' for 'a1' is not a number", id="non-numeric"),
    pytest.param(
        {"stance": {"a1": "0.5", "a2": 0.5}}, "annotation weight '0.5' for 'a1' is not a number", id="numeric-string"
    ),
    pytest.param({"stance": {"a1": [1]}}, "annotation weight [1] for 'a1' is not a number", id="unhashable"),
    pytest.param({"stance": [1]}, "annotation weights [1] are not a mapping of values to weights", id="weights-list"),
    pytest.param(
        {"stance": {"a1": 0.5 + 1e-5, "a2": 0.5}}, "annotation weights sum to 1.00001, expected 1", id="sum-1e-5"
    ),
    pytest.param([], "annotations [] are not a mapping", id="annotations-list"),
    pytest.param(False, "annotations False are not a mapping", id="annotations-false"),
    pytest.param("", "annotations '' are not a mapping", id="annotations-empty-string"),
]


@pytest.mark.parametrize("annotations, tail", REJECTED_ANNOTATIONS)
def test_one_weight_rule_rejects_at_both_entry_points(tmp_path, annotations, tail):
    raw = json.loads(json.dumps(annotations))  # what the loader decodes
    with pytest.raises(InputError) as direct:
        ResultItem("a", raw)
    assert not isinstance(direct.value, FormatError)
    assert str(direct.value).endswith(tail)
    # a good record of the same item first: the bad one still fails at its own line
    good = record(rank=1, item="a", annotations={"stance": {"a1": 1.0}})
    path = write_lines(tmp_path / "r.jsonl", [good, record(user="u2", item="a", annotations=annotations)])
    with pytest.raises(FormatError) as loaded:
        load_result_lists(path)
    assert str(loaded.value) == f"{path}:2: {direct.value}"


@pytest.mark.parametrize(
    "annotations, expected",
    [
        pytest.param({"stance": {"a1": 0.5 + 1e-7, "a2": 0.5}}, None, id="sum-1e-7-normalized"),
        pytest.param({"stance": "unannotated"}, {"stance": {}}, id="marker"),
        pytest.param({"stance": None}, {"stance": {}}, id="null"),
        pytest.param({"stance": {}}, {"stance": {}}, id="empty"),
        pytest.param({"stance": {"a1": 1}}, {"stance": {"a1": 1.0}}, id="int"),
        pytest.param({"stance": {"a1": 1.0}}, {"stance": {"a1": 1.0}}, id="float"),
        pytest.param({"stance": {"a1": True}}, {"stance": {"a1": 1.0}}, id="bool"),
    ],
)
def test_one_weight_rule_accepts_at_both_entry_points(tmp_path, annotations, expected):
    direct = ResultItem("a", json.loads(json.dumps(annotations)))
    path = write_lines(tmp_path / "r.jsonl", [record(item="a", annotations=annotations)])
    loaded = load_result_lists(path)[("u1", "q1")].items[0]
    assert loaded.annotations == direct.annotations
    if expected is None:
        weights = loaded.annotations["stance"]
        assert abs(sum(weights.values()) - 1.0) <= 1e-12
        assert weights["a1"] > weights["a2"]
    else:
        assert loaded.annotations == expected
        assert all(type(w) is float for w in loaded.annotations["stance"].values())


def test_weights_equal_under_float_share_one_item(tmp_path):
    lines = [
        record(user=user, item="a", annotations={"stance": {"a1": weight}})
        for user, weight in (("u1", 1), ("u2", 1.0), ("u3", True))
    ]
    lists = load_result_lists(write_lines(tmp_path / "r.jsonl", lines))
    items = [lists[(user, "q1")].items[0] for user in ("u1", "u2", "u3")]
    assert items[0] is items[1] is items[2]
    assert items[0].annotations == {"stance": {"a1": 1.0}}


def test_missing_or_null_annotations_read_as_none(tmp_path):
    lines = [record(user="u1", item="a"), record(user="u2", item="a", annotations={}),
             record(user="u3", item="a").replace("}", ', "annotations": null}')]
    lists = load_result_lists(write_lines(tmp_path / "r.jsonl", lines))
    assert all(lists[(user, "q1")].items[0].annotations == {} for user in ("u1", "u2", "u3"))


def test_rank_gap_rejected(tmp_path):
    path = write_lines(tmp_path / "r.jsonl", [record(rank=1, item="a"), record(rank=3, item="b")])
    with pytest.raises(FormatError, match="missing"):
        load_result_lists(path)


def test_duplicate_item_rejected(tmp_path):
    path = write_lines(tmp_path / "r.jsonl", [record(rank=1, item="a"), record(rank=2, item="a")])
    with pytest.raises(FormatError, match="duplicate item"):
        load_result_lists(path)


def test_bad_weight_sum_rejected(tmp_path):
    bad = record(annotations={"stance": {"a1": 0.5, "a2": 0.6}})
    with pytest.raises(FormatError, match="sum"):
        load_result_lists(write_lines(tmp_path / "r.jsonl", [bad]))
    # within tolerance 1e-6: accepted and normalized
    ok = record(annotations={"stance": {"a1": 0.5000001, "a2": 0.5}})
    lists = load_result_lists(write_lines(tmp_path / "ok.jsonl", [ok]))
    weights = lists[("u1", "q1")].items[0].annotations["stance"]
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_bad_rank_and_json_rejected(tmp_path):
    with pytest.raises(FormatError, match="rank"):
        load_result_lists(write_lines(tmp_path / "a.jsonl", [record(rank=0)]))
    with pytest.raises(FormatError, match="invalid JSON"):
        load_result_lists(write_lines(tmp_path / "b.jsonl", ["{not json"]))
    with pytest.raises(FormatError, match="missing field"):
        load_result_lists(write_lines(tmp_path / "c.jsonl", ['{"user_id": "u"}']))


#: Ids a JSON record may not give: only a non-empty string names a user, query or item.
BAD_IDS = [pytest.param(None, "None", id="null"), pytest.param(7, "7", id="number"),
           pytest.param("", "''", id="empty"), pytest.param(["u1"], "a list", id="list")]


@pytest.mark.parametrize("value, shown", BAD_IDS)
@pytest.mark.parametrize("field", ["user_id", "query_id", "item_id"])
def test_result_ids_must_be_non_empty_strings(tmp_path, field, value, shown):
    rec = {"user_id": "u1", "query_id": "q1", "rank": 1, "item_id": "x1", field: value}
    path = write_lines(tmp_path / "r.jsonl", [record(), json.dumps(rec)])
    with pytest.raises(FormatError) as caught:
        load_result_lists(path)
    assert str(caught.value) == f"{path}:2: {field} must be a non-empty string, got {shown}"


def test_a_number_id_does_not_merge_with_its_string(tmp_path):
    """Read with ``str``, ``7`` and ``"7"`` would name one user, whose list
    held both records."""
    number = json.dumps({"user_id": 7, "query_id": "q1", "rank": 2, "item_id": "x2"})
    path = write_lines(tmp_path / "r.jsonl", [record(user="7"), number])
    with pytest.raises(FormatError, match=r"r\.jsonl:2: user_id must be a non-empty string, got 7"):
        load_result_lists(path)


@pytest.mark.parametrize("value, shown", BAD_IDS)
def test_profile_ids_must_be_non_empty_strings(tmp_path, value, shown):
    path = write_lines(tmp_path / "p.jsonl", [json.dumps({"user_id": value, "protected": {"g": "x"}, "other": {}})])
    with pytest.raises(FormatError) as caught:
        load_profiles(path)
    assert str(caught.value) == f"{path}:1: user_id must be a non-empty string, got {shown}"


@pytest.mark.parametrize("value, shown", BAD_IDS)
def test_ideal_list_item_ids_must_be_non_empty_strings(tmp_path, value, shown):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps({**IDEAL_DOC, "ideal_list": [{"item_id": value}]}), encoding="utf-8")
    with pytest.raises(FormatError) as caught:
        load_ground_truth(path, {"stance": AttributeSchema("stance", ("a1", "a2"))})
    assert str(caught.value) == f"{path}: ground truth.ideal_list[0].item_id must be a non-empty string, got {shown}"


def test_unannotated_marker_round_trip(tmp_path):
    line = record(annotations={"stance": "unannotated"})
    lists = load_result_lists(write_lines(tmp_path / "r.jsonl", [line]))
    item = lists[("u1", "q1")].items[0]
    assert item.annotation_for("stance") == {}
    text = result_lists_text(lists)
    assert '"unannotated"' in text


# --------------------------------------------------------------------------
# the canonical-line fast path and the full decoder

#: A tail pattern that matches no line, so every line takes the full decoder.
NEVER = re.compile(r"(?!)")


def load_outcome(path):
    """What loading ``path`` gives: the lists, their key order and which
    records share an object, or the error's type and text; and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            lists = load_result_lists(path)
        except Exception as exc:  # compared, type and text, against the other path
            return type(exc), str(exc), [str(w.message) for w in caught]
    seen = {}
    sharing = [[seen.setdefault(id(item), len(seen)) for item in ranked.items] for ranked in lists.values()]
    return lists, list(lists), sharing, [str(w.message) for w in caught]


def canonical_line(line):
    """The record of ``line`` in the writer's key order, with ``annotations``; other text as is."""
    try:
        rec = json.loads(line)
    except ValueError:
        return line
    rec.setdefault("annotations", {})
    return json.dumps(rec, sort_keys=True)


#: The result-loader error and warning cases above, each as a file's lines.
RESULT_ERROR_CASES = [
    pytest.param([record(rank=1, item="a"), record(rank=1, item="b")], id="conflicting-duplicate"),
    pytest.param([record(rank=1, item="a"), record(rank=1, item="a")], id="identical-duplicate"),
    pytest.param(
        [record(rank=1, item="a", annotations={"stance": {"a1": 0.25, "a2": 0.75}, "tone": "unannotated"}),
         record(rank=2, item="b"),
         record(rank=1, item="a", annotations={"tone": None, "stance": {"a2": 0.75, "a1": 0.25}})],
        id="reordered-duplicate",
    ),
    pytest.param(
        [record(rank=1, item="a", annotations={"stance": {"a1": 1.0}}),
         record(rank=1, item="a", annotations={"stance": {"a2": 1.0}})],
        id="duplicate-other-annotations",
    ),
    pytest.param([record(rank=1, item="a"), record(rank=3, item="b")], id="rank-gap"),
    pytest.param([record(rank=1, item="a"), record(rank=2, item="a")], id="duplicate-item"),
    pytest.param([record(annotations={"stance": {"a1": 0.5, "a2": 0.6}})], id="weight-sum"),
    pytest.param([record(rank=0)], id="rank-0"),
    pytest.param([record(rank=True)], id="rank-true"),
    pytest.param([record(), '{"user_id": "u"}'], id="missing-field"),
    pytest.param([record(), "{not json"], id="invalid-json"),
    *(
        pytest.param(
            [record(rank=1, item="a", annotations={"stance": {"a1": 1.0}}),
             record(user="u2", item="a", annotations=case.values[0])],
            id=f"weights-{case.id}",
        )
        for case in REJECTED_ANNOTATIONS
    ),
    *(
        pytest.param([record(), json.dumps({**json.loads(record()), field: case.values[0]})], id=f"{field}-{case.id}")
        for field in ("user_id", "query_id", "item_id")
        for case in BAD_IDS
    ),
]


@pytest.mark.parametrize("lines", RESULT_ERROR_CASES)
def test_result_errors_read_the_same_in_canonical_key_order(tmp_path, lines):
    """``record()`` writes ``user_id`` first, which only the full decoder
    reads; the writer's key order reaches the fast path, with the same result."""
    path = tmp_path / "r.jsonl"
    expected = load_outcome(write_lines(path, lines))
    assert expected[0] is FormatError or expected[-1]  # every case fails or warns
    canonical = [canonical_line(line) for line in lines]
    assert any(line.startswith('{"annotations": ') for line in canonical)
    assert load_outcome(write_lines(path, canonical)) == expected


#: Parts of canonical and near-canonical results lines: heads up to the tail (the
#: common ones take an item id), and odd ids and ranks as JSON text.
COMMON_HEADS = [
    '{"annotations": {"stance": {"a1": 1.0}}, "item_id": "ID"',
    '{"annotations": {"stance": {"a1": 1}}, "item_id": "ID"',
    '{"annotations": {"stance": {"a1": 0.25, "a2": 0.75}}, "item_id": "ID"',
    '{"annotations": {"stance": "unannotated"}, "item_id": "ID"',
    '{"annotations": {}, "item_id": "ID"',
    '{"annotations": null, "item_id": "ID"',
    '{"annotations": {} , "item_id": "ID" ',
]
ODD_HEADS = [
    # duplicate keys: the last one wins
    '{"annotations": {"stance": {"a2": 1.0}}, "annotations": {"stance": {"a1": 1.0}}, "item_id": "x1"',
    '{"annotations": {}, "item_id": "x9", "item_id": "x1"',
    # the tail's text inside an annotation string, escaped and not
    '{"annotations": {"note, \\"query_id\\": \\"q1\\", \\"rank\\": 1": "unannotated"}, "item_id": "x1"',
    '{"annotations": {"note": ", "query_id": "q1", "rank": 1, "user_id": "u1"}"}, "item_id": "x1"',
    # escapes and non-ASCII in the item id
    '{"annotations": {}, "item_id": "x\\u0031"',
    '{"annotations": {}, "item_id": "caf\u00e9 \\"\u2713\\""',
    # invalid weights in a canonical head
    '{"annotations": {"stance": {"a1": -0.5, "a2": 1.5}}, "item_id": "x1"',
    '{"annotations": {"stance": {"a1": NaN}}, "item_id": "x1"',
    '{"annotations": {"stance": {"a1": 0.5, "a2": 0.6}}, "item_id": "x1"',
    '{"annotations": {"stance": {"a1": 1e400}}, "item_id": "x1"',
    '{"annotations": [], "item_id": "x1"',
    # not exactly the two head fields, or a bad item id
    '{"annotations": {}, "item_id": ""',
    '{"annotations": {}, "item_id": 7',
    '{"annotations": {}',
    '{"annotations": {}, "item_id": "x1", "extra": 1',
    '{"annotations": {}, "item_id": "x1", "rank": 1',
    '{"annotations":{}, "item_id": "x1"',
    '{"annotations": {"s": {"a": 1.0}}, "item_id": "x1"}',
]
ODD_IDS = ['"u\\"2"', '"u\\u0032"', '"\u00fc\u2713"', '"u\\\\2"', '"tab\\tid"', '"raw\ttab"', '"nul\\u0000"',
           '"\x7f"', '""', "7", "null", '["u1"]']
ODD_RANKS = ["0", "01", "1.0", "true", "-1", "2e0", '"1"', "1" * 19, "1" + "0" * 18, "9" * 5000]
ENDINGS = ["\n", "\n", "\n", "\r\n", " \n", " \t\r\n", "\r"]


def drawn_file(rng):
    """The text of a results file: a few lists written in the canonical form,
    with odd parts, duplicate and conflicting records and other key orders mixed in."""
    def odd(common, choices):
        return rng.choice(choices) if rng.random() < 0.04 else common

    lines = []
    for user, query in rng.sample([("u1", "q1"), ("u2", "q1"), ("u1", "q2"), ("u3", "q2")], rng.randint(1, 3)):
        for rank, item_id in enumerate(rng.sample(["x1", "x2", "x3", "x4"], rng.randint(1, 4)), start=1):
            head = odd(rng.choice(COMMON_HEADS).replace("ID", item_id), ODD_HEADS)
            fields = (odd(f'"{query}"', ODD_IDS), odd(str(rank), ODD_RANKS), odd(f'"{user}"', ODD_IDS))
            line = '{}, "query_id": {}, "rank": {}, "user_id": {}}}'.format(head, *fields)
            if rng.random() < 0.05:  # the same fields in another key order
                line = '{{"user_id": {2}, "rank": {1}, "query_id": {0}, {3}}}'.format(*fields, head[1:])
            lines.append(line)
            if rng.random() < 0.06:  # a duplicate record, equal or conflicting
                lines.append(rng.choice([line, line.replace(f'"item_id": "{item_id}"', '"item_id": "x5"')]))
    rng.shuffle(lines)
    return "".join(line + rng.choice(ENDINGS) for line in lines)


def test_canonical_lines_load_as_the_full_decoder_does(tmp_path, monkeypatch):
    """Seeded files of canonical and near-canonical lines give the same lists,
    the same shared objects and warnings, or the same error, on both paths."""
    rng = random.Random(20240117)
    real_full_record, full_records = rankbias.io._full_record, {"fast": 0, "full": 0}
    side = "fast"

    def counting_full_record(*args):
        full_records[side] += 1
        return real_full_record(*args)

    monkeypatch.setattr("rankbias.io._full_record", counting_full_record)
    loaded = failed = 0
    for case in range(400):
        path = tmp_path / f"r{case}.jsonl"
        text = drawn_file(rng)
        path.write_bytes(text.encode("utf-8"))
        side = "fast"
        fast = load_outcome(path)
        with monkeypatch.context() as patch:
            patch.setattr("rankbias.io._CANONICAL_TAIL", NEVER)
            side = "full"
            full = load_outcome(path)
        assert fast == full, text
        loaded += isinstance(full[0], dict)
        failed += full[0] is FormatError
    assert loaded >= 100 and failed >= 100, (loaded, failed)
    # most lines took the fast path: the full decoder read them only with the pattern off
    assert full_records["fast"] < full_records["full"] / 4, full_records


def test_written_results_decode_each_distinct_item_once(tmp_path, monkeypatch):
    """A file as the writer emits it takes the fast path on every line: a
    change to the writer's format that turned it off would fail here."""
    lists = serve_all(scenario(n_users=8, delta_content_p=0.1, delta_content_pbar=-0.1))
    path = tmp_path / "results.jsonl"
    write_result_lists(lists, path)
    distinct = len({id(item) for ranked in lists.values() for item in ranked.items})
    records = sum(ranked.depth for ranked in lists.values())
    real_loads, calls = json.loads, []
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: calls.append(1) or real_loads(*args, **kwargs))
    assert load_result_lists(path) == lists
    assert 0 < len(calls) <= distinct < records


def test_line_records_reject_unknown_keys(tmp_path):
    results = write_lines(tmp_path / "r.jsonl", [record(), record(rank=2, item="b").replace("}", ', "othr": 1}')])
    with pytest.raises(FormatError) as caught:
        load_result_lists(results)
    assert str(caught.value) == f"{results}:2: record has unknown keys ['othr']"
    misspelled = json.dumps({**json.loads(canonical_line(record())), "anotations": {"stance": {"a1": 1.0}}})
    with pytest.raises(FormatError, match=r"r\.jsonl:1: record has unknown keys \['anotations'\]"):
        load_result_lists(write_lines(results, [misspelled]))
    profiles = write_lines(
        tmp_path / "p.jsonl", [json.dumps({"user_id": "u1", "protected": {"g": "x"}, "othr": {"age": 3}})]
    )
    with pytest.raises(FormatError) as caught:
        load_profiles(profiles)
    assert str(caught.value) == f"{profiles}:1: record has unknown keys ['othr']"


@pytest.mark.parametrize("space", ["\x0c", "\xa0", "\x1c", "\x85", "\u2003", "\x0c\xa0"])
def test_only_json_whitespace_is_stripped_from_a_line(tmp_path, space):
    profile = json.dumps({"user_id": "u1", "protected": {"g": "x"}, "other": {}})
    for load, first, line in ((load_result_lists, record(rank=2, item="b"), record()),
                              (load_result_lists, record(rank=2, item="b"), canonical_line(record())),
                              (load_profiles, profile.replace("u1", "u2"), profile)):
        for padded in (space + line, line + space):
            path = write_lines(tmp_path / "padded.jsonl", [first, padded])
            with pytest.raises(FormatError, match=r"padded\.jsonl:2: invalid JSON"):
                load(path)


def oracle_result_lists_text(lists):
    """The per-record writer: one ``json.dumps(..., sort_keys=True)`` per item occurrence."""
    ranked_lists = lists.values() if isinstance(lists, dict) else lists
    lines = []
    for ranked in sorted(ranked_lists, key=lambda r: (r.user_id, r.query_id)):
        for rank0, item in enumerate(ranked.items):
            annotations = {
                attr: (weights if weights else UNANNOTATED) for attr, weights in item.annotations.items()
            }
            lines.append(
                json.dumps(
                    {
                        "user_id": ranked.user_id,
                        "query_id": ranked.query_id,
                        "rank": rank0 + 1,
                        "item_id": item.item_id,
                        "annotations": annotations,
                    },
                    sort_keys=True,
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


def writer_cases():
    shared = ResultItem("shared", {"stance": {"a1": 0.25, "a2": 0.75}, "tone": UNANNOTATED, "region": {"n": 1.0}})
    odd = ResultItem('naïve "quote" \\ back\\slash ✓', {"stancé": {'v"1': 0.5, "v\\2": 0.5}, "zz": {}})
    lists = [
        RankedList("q1", "u2", (shared, odd, ResultItem("plain"))),
        RankedList("q1", "u1", (ResultItem("plain"), shared)),
        # the same id with other annotations
        RankedList("q1", "u3", (ResultItem("plain", {"stance": {"a2": 1.0}}), ResultItem("shared"))),
        # equal to `shared` but another object
        RankedList("q0", "u1", (ResultItem("shared", dict(shared.annotations)), odd)),
        RankedList('q"ü\\', 'ü"ser\\', (odd, shared)),
        RankedList("q2", "u0", ()),
        RankedList("q0", "u0", tuple(ResultItem(f"x{r}", {"stance": {"a1": r / 10, "a2": 1 - r / 10}}) for r in range(11))),
    ]
    return lists


@pytest.mark.parametrize("as_mapping", [False, True])
def test_writer_bytes_equal_the_per_record_writer(as_mapping):
    lists = writer_cases()
    given = {(r.user_id, r.query_id): r for r in lists} if as_mapping else iter(lists)
    text = result_lists_text(given)
    assert text == oracle_result_lists_text(lists)
    assert text.count("\n") == sum(r.depth for r in lists)
    assert result_lists_text([]) == oracle_result_lists_text([]) == ""


def test_writer_bytes_equal_the_per_record_writer_on_simulated_lists():
    lists = serve_all(scenario(n_users=8, delta_content_p=0.1, delta_content_pbar=-0.1))
    assert result_lists_text(lists) == oracle_result_lists_text(lists)


@pytest.mark.parametrize("cases", [writer_cases, lambda: []], ids=["cases", "empty"])
def test_streamed_file_equals_the_joined_text(tmp_path, cases):
    lists = cases()
    path = tmp_path / "out.jsonl"
    write_result_lists(iter(lists), path)
    written = path.read_text(encoding="utf-8")
    assert written == result_lists_text(lists) == oracle_result_lists_text(lists)
    in_order = sorted(lists, key=lambda r: (r.user_id, r.query_id))
    assert list(result_lists_chunks(lists)) == [result_lists_text([r]) for r in in_order]
    assert list(tmp_path.iterdir()) == [path]


def failing_chunks():
    yield "first chunk\n"
    raise RuntimeError("chunk source failed")


@pytest.mark.parametrize("text", [failing_chunks, lambda: "ok\n\ud800"], ids=["raising-chunks", "unencodable"])
@pytest.mark.parametrize("old", [None, "old bytes\n"])
def test_a_failed_write_leaves_no_partial_or_temp_file(tmp_path, old, text):
    path = tmp_path / "out.jsonl"
    if old is not None:
        path.write_text(old, encoding="utf-8")
    with pytest.raises((RuntimeError, UnicodeEncodeError)):
        atomic_write_text(path, text())
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else [path.name])
    if old is not None:
        assert path.read_text(encoding="utf-8") == old


def test_writing_lists_holds_one_list_at_a_time(tmp_path):
    """2,000 lists of the benchmark's ``scale_topk`` shape (1000 users x 2
    queries x depth 50, pool 150): the writer's traced peak stays far below
    the bytes it writes, which holding the whole text would exceed."""
    cfg = scenario(
        n_users=1000,
        queries=(QuerySpec("q00", STANCE, UNIFORM_GT), QuerySpec("q01", STANCE, UNIFORM_GT)),
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
        seed=1,
    )
    lists = serve_all(cfg)
    assert len(lists) == 2000
    path = tmp_path / "results.jsonl"
    tracemalloc.start()
    try:
        write_result_lists(lists, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert written > 10_000_000
    assert peak < 0.25 * written, (peak, written)


def test_written_lists_reload_to_the_same_bytes(tmp_path):
    lists = writer_cases()
    path = tmp_path / "out.jsonl"
    write_result_lists(lists, path)
    loaded = load_result_lists(path)
    assert result_lists_text(loaded) == path.read_text(encoding="utf-8")


def test_loader_accepts_everything_writer_emits(tmp_path):
    cfg = scenario(n_users=8, delta_content_p=0.1, delta_content_pbar=-0.1)
    lists = serve_all(cfg)
    path = tmp_path / "out.jsonl"
    write_result_lists(lists, path)
    assert load_result_lists(path) == lists


# --------------------------------------------------------------------------
# profiles


def test_profiles_round_trip(tmp_path):
    profiles = generate_profiles(scenario(n_users=10))
    path = tmp_path / "profiles.jsonl"
    write_profiles(profiles, path)
    assert load_profiles(path) == tuple(sorted(profiles, key=lambda p: p.user_id))


def test_profiles_reject_duplicates_and_collisions(tmp_path):
    line = json.dumps({"user_id": "u1", "protected": {"g": "x"}, "other": {}})
    with pytest.raises(FormatError, match="duplicate profile"):
        load_profiles(write_lines(tmp_path / "p.jsonl", [line, line]))
    collide = json.dumps({"user_id": "u2", "protected": {"g": "x"}, "other": {"g": "y"}})
    with pytest.raises(FormatError):
        load_profiles(write_lines(tmp_path / "q.jsonl", [collide]))


def test_blank_and_whitespace_only_lines_are_skipped(tmp_path):
    profile_line = json.dumps({"user_id": "u1", "protected": {"g": "x"}, "other": {}})
    for load, line in ((load_result_lists, record()), (load_profiles, profile_line)):
        plain = load(write_lines(tmp_path / "plain.jsonl", [line]))
        padded = load(write_lines(tmp_path / "padded.jsonl", ["", "   ", line, "\t", " \r", ""]))
        assert padded == plain and len(plain) == 1


# --------------------------------------------------------------------------
# schema and ground truth documents


STANCE_DOC = {"name": "stance", "kind": "differentiating", "values": ["a1", "a2"]}


def test_schema_file_round_trip(tmp_path):
    schemas = [
        AttributeSchema("stance", ("a1", "a2")),
        AttributeSchema("group", ("x", "y"), "protected"),
    ]
    ranges = {"age": (18.0, 80.0)}
    path = tmp_path / "schema.json"
    path.write_text(schema_text(schemas, ranges), encoding="utf-8")
    loaded, loaded_ranges = load_schema_file(path)
    assert loaded["stance"] == schemas[0]
    assert loaded["group"] == schemas[1]
    assert loaded_ranges == ranges


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"attributes": [STANCE_DOC, STANCE_DOC]}, "schema: duplicate attribute 'stance'"),
        ({"attributes": [STANCE_DOC], "numeric_range": {"age": [18, 80]}}, "schema has unknown keys ['numeric_range']"),
        ({"attributes": [STANCE_DOC], "numeric_ranges": {"age": [80, 18]}},
         "schema: attribute 'age': declared range (80.0, 18.0) must be finite and non-empty"),
        ({"attributes": [STANCE_DOC], "numeric_ranges": {"age": [18, 18]}},
         "schema: attribute 'age': declared range (18.0, 18.0) must be finite and non-empty"),
        ({"numeric_ranges": {}}, "schema is missing 'attributes'"),
    ],
)
def test_a_malformed_schema_document_is_a_format_error(tmp_path, doc, message):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FormatError) as caught:
        load_schema_file(path)
    assert str(caught.value) == f"{path}: {message}"


def test_ground_truth_probabilities(tmp_path):
    gt = GroundTruth("stance", {"a1": 0.6, "a2": 0.4})
    path = tmp_path / "gt.json"
    path.write_text(ground_truth_text(gt), encoding="utf-8")
    assert load_ground_truth(path, {}) == gt


def test_ground_truth_from_ideal_list(tmp_path):
    doc = {
        "attribute": "stance",
        "ideal_list": [
            {"item_id": "x1", "annotations": {"stance": {"a1": 1.0}}},
            {"item_id": "x2", "annotations": {"stance": {"a1": 1.0}}},
            {"item_id": "x3", "annotations": {"stance": {"a2": 1.0}}},
        ],
    }
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    gt = load_ground_truth(path, {"stance": AttributeSchema("stance", ("a1", "a2"))})
    assert gt.probabilities["a1"] == pytest.approx(2 / 3)


IDEAL_DOC = {
    "attribute": "stance",
    "ideal_list": [
        {"item_id": "x1", "annotations": {"stance": {"a1": 1.0}}},
        {"item_id": "x2", "annotations": {"stance": {"a2": 1.0}}},
    ],
}

#: (field, value) set in IDEAL_DOC, and the tail of the error after "<path>: ground truth"
BAD_GROUND_TRUTH = [
    pytest.param("ideal_list", [{"annotations": {}}], ".ideal_list[0] is missing 'item_id'", id="no-item-id"),
    pytest.param("ideal_list", [3], ".ideal_list[0] must be an object, got 3", id="entry-not-object"),
    pytest.param("ideal_list", {"item_id": "x1"}, ".ideal_list must be a list, got an object", id="not-a-list"),
    pytest.param("ideal_list", [{"item_id": "x1", "annotations": {"stance": {"a1": -1}}}],
                 ".ideal_list[0]: item 'x1', attribute 'stance': negative annotation weight -1.0 for 'a1'",
                 id="negative-weight"),
    pytest.param("ideal_list", [{"item_id": "a"}, {"item_id": "b", "annotation": {"stance": {"a2": 1.0}}}],
                 ".ideal_list[1] has unknown keys ['annotation']", id="entry-unknown-key"),
    pytest.param("k", "3", ".k must be an integer, got '3'", id="k-string"),
    pytest.param("k", 0, ": k must be >= 1, got 0", id="k-zero"),
    pytest.param("k", 2.5, ".k must be an integer, got 2.5", id="k-float"),
    pytest.param("weighting", "bogus", ": weighting must be one of ('uniform', 'rank-discounted'), got 'bogus'",
                 id="weighting"),
    pytest.param("wieghting", "uniform", " has unknown keys ['wieghting']", id="unknown-key"),
    pytest.param("probabilities", {"a1": 0.5, "a2": 0.5}, ": needs exactly one of 'probabilities', 'ideal_list'",
                 id="both-sources"),
    pytest.param("attribute", 7, ".attribute must be a string, got 7", id="attribute-not-string"),
]


@pytest.mark.parametrize("key, value, tail", BAD_GROUND_TRUTH)
def test_ground_truth_document_fields_are_typed(tmp_path, key, value, tail):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps({**IDEAL_DOC, key: value}), encoding="utf-8")
    with pytest.raises(FormatError) as caught:
        load_ground_truth(path, {"stance": AttributeSchema("stance", ("a1", "a2"))})
    assert str(caught.value) == f"{path}: ground truth{tail}"


def test_ground_truth_ideal_list_depth_and_weighting(tmp_path):
    path = tmp_path / "gt.json"
    schemas = {"stance": AttributeSchema("stance", ("a1", "a2"))}
    discounted = 1 / (1 + 1 / math.log2(3))
    for k, weighting, a1 in ((1, "uniform", 1.0), (None, "uniform", 0.5), (2, "rank-discounted", discounted)):
        path.write_text(json.dumps({**IDEAL_DOC, "k": k, "weighting": weighting}), encoding="utf-8")
        assert load_ground_truth(path, schemas).probabilities["a1"] == pytest.approx(a1)


# --------------------------------------------------------------------------
# manifest


def test_manifest_needs_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError, match="exactly one"):
        AuditManifest()
    with pytest.raises(ConfigError, match="exactly one"):
        AuditManifest(results_path=tmp_path / "r.jsonl", scenario=scenario())


def test_manifest_file_mode_requires_fields(tmp_path):
    with pytest.raises(ConfigError, match="missing"):
        AuditManifest(results_path=tmp_path / "r.jsonl")


FILE_MODE = {
    "profiles": "p.jsonl",
    "results": "r.jsonl",
    "schema": "s.json",
    "protected_attribute": "group",
    "protected_value": "x",
    "differentiating_attribute": "stance",
}


@pytest.mark.parametrize("key", ["profiles", "schema", "protected_attribute", "protected_value", "differentiating_attribute"])
def test_a_file_mode_manifest_names_the_missing_key(tmp_path, key):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({k: v for k, v in FILE_MODE.items() if k != key}), encoding="utf-8")
    with pytest.raises(ConfigError) as caught:
        load_manifest(path)
    assert str(caught.value) == f"{path}: manifest: file-mode manifest is missing {key!r}"
    # null reads as missing
    path.write_text(json.dumps({**FILE_MODE, key: None}), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"missing {key!r}"):
        load_manifest(path)


@pytest.mark.parametrize("key", ["profiles", "results", "schema", "ground_truth", "output_dir", "scenario"])
def test_an_empty_path_string_is_an_error_naming_the_field(tmp_path, key):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**FILE_MODE, key: ""}), encoding="utf-8")
    expected = "an object" if key == "scenario" else "a non-empty string"
    with pytest.raises(ConfigError) as caught:
        load_manifest(path)
    assert str(caught.value) == f"{path}: manifest.{key} must be {expected}, got ''"


def test_load_manifest_resolves_relative_paths(tmp_path):
    doc = {
        "profiles": str(tmp_path / "abs.jsonl"),
        "results": "r.jsonl",
        "schema": "s.json",
        "ground_truth": "gt/g.json",
        "protected_attribute": "group",
        "protected_value": "x",
        "differentiating_attribute": "stance",
        "config": {"k": 5, "dr_kind": "topk"},
        "output_dir": "out",
    }
    path = tmp_path / "sub" / "m.json"
    path.parent.mkdir()
    path.write_text(json.dumps(doc), encoding="utf-8")
    manifest = load_manifest(path)
    assert manifest.profiles_path == tmp_path / "abs.jsonl"  # an absolute path stays as it is
    assert manifest.results_path == path.parent / "r.jsonl"
    assert manifest.schema_path == path.parent / "s.json"
    assert manifest.ground_truth_path == path.parent / "gt" / "g.json"
    assert manifest.output_dir == path.parent / "out"
    assert manifest.config == MeasureConfig(k=5, dr_kind="topk")
    assert manifest.mode == "measure"


def test_load_manifest_unknown_config_key(tmp_path):
    doc = {"results": "r.jsonl", "profiles": "p", "schema": "s",
           "protected_attribute": "g", "protected_value": "x",
           "differentiating_attribute": "d", "config": {"dr_knd": "topk"}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"config has unknown keys \['dr_knd'\]"):
        load_manifest(path)


def test_measure_config_dict_round_trip():
    cfg = MeasureConfig(epsilon=0.2, k=7, dr_kind="rbo", weighting="rank-discounted", aggregator="median",
                        query_aggregation="max", rbo_p=0.8, relevant_attrs=("persona", "age"),
                        numeric_ranges={"age": (18, 80)}, agg_depth=5)
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert doc["relevant_attrs"] == ["persona", "age"] and doc["numeric_ranges"] == {"age": [18.0, 80.0]}
    assert MeasureConfig.from_dict(doc) == cfg
    assert MeasureConfig.from_dict(MeasureConfig().to_dict()) == MeasureConfig.from_dict({}) == MeasureConfig()


def readme_json(heading):
    """The first JSON example after ``heading`` in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(text[text.index(heading):].split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_manifest_and_scenario_examples_load(tmp_path):
    """The documented formats are the formats the loaders read."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(readme_json("### Manifest")), encoding="utf-8")
    manifest = load_manifest(path)
    assert manifest.mode == "measure"
    assert manifest.results_path == tmp_path / "results.jsonl"
    assert manifest.config.numeric_ranges == {"age": (18.0, 80.0)}
    assert manifest.significance == SignificanceSpec(("group_user_bias",), 1000, 7)
    cfg = ScenarioConfig.from_dict(readme_json("### Scenario"))
    assert cfg.protected_value == "x"
    assert (cfg.delta_content_p, cfg.delta_content_pbar) == (0.15, -0.15)
    assert [a.value_range for a in cfg.other_attributes] == [None, (18.0, 80.0)]
    assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_scenario_manifest(tmp_path):
    doc = {"scenario": scenario(n_users=4).to_dict(), "output_dir": "out"}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    manifest = load_manifest(path)
    assert manifest.mode == "simulate"
    assert manifest.scenario.n_users == 4


def test_scenario_manifest_by_reference(tmp_path):
    (tmp_path / "scn.json").write_text(json.dumps(scenario(n_users=6).to_dict()), encoding="utf-8")
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"scenario": "scn.json"}), encoding="utf-8")
    manifest = load_manifest(path)
    assert manifest.scenario == scenario(n_users=6)


def test_a_scenario_file_reads_its_spellings_like_an_inline_scenario(tmp_path):
    doc = {**scenario(n_users=6).to_dict(), "delta_content": 0.1}
    del doc["delta_content_p"], doc["delta_content_pbar"], doc["protected"]["p_value"]
    (tmp_path / "scn.json").write_text(json.dumps(doc), encoding="utf-8")
    by_name, inline = tmp_path / "by-name.json", tmp_path / "inline.json"
    by_name.write_text(json.dumps({"scenario": "scn.json"}), encoding="utf-8")
    inline.write_text(json.dumps({"scenario": doc}), encoding="utf-8")
    expected = replace(scenario(n_users=6), delta_content_p=0.1, delta_content_pbar=-0.1)
    assert load_manifest(by_name).scenario == load_manifest(inline).scenario == expected
    # an error in a scenario file names the manifest field it was given for
    (tmp_path / "scn.json").write_text(json.dumps({**doc, "delta_content": "x"}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"by-name.json: manifest.scenario.delta_content must be a number, got 'x'"):
        load_manifest(by_name)


# --------------------------------------------------------------------------
# detection / validation


def test_detect_and_validate(tmp_path):
    results = write_lines(tmp_path / "r.jsonl", [record()])
    assert validate_file(results) == ("results", 1)
    profiles = write_lines(
        tmp_path / "p.jsonl", [json.dumps({"user_id": "u1", "protected": {"g": "x"}, "other": {}})]
    )
    assert validate_file(profiles) == ("profiles", 1)
    schema = tmp_path / "s.json"
    schema.write_text(schema_text([AttributeSchema("stance", ("a1", "a2"))]), encoding="utf-8")
    assert validate_file(schema) == ("schema", 1)
    gt = tmp_path / "gt.json"
    gt.write_text(ground_truth_text(GroundTruth("stance", {"a1": 1.0, "a2": 0.0})), encoding="utf-8")
    assert validate_file(gt) == ("ground-truth", 1)
    assert detect_kind(gt) == "ground-truth"
    gt.write_text(json.dumps(IDEAL_DOC), encoding="utf-8")
    assert validate_file(gt) == ("ground-truth", 1)


def test_validate_counts_the_records_of_a_results_file(tmp_path):
    path = write_lines(tmp_path / "r.jsonl", [record(rank=r, item=f"x{r}") for r in (1, 2, 3, 4)])
    assert validate_file(path) == ("results", 4)
    # a duplicate record counts once, and two lists count their records together
    path = write_lines(tmp_path / "r.jsonl", [record(), record(), record(user="u2"), record(user="u2", rank=2, item="b")])
    with pytest.warns(UserWarning, match="duplicate record ignored"):
        assert validate_file(path) == ("results", 3)
