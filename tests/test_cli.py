"""CLI tests: every subcommand, flag overrides, and the exit-code contract
(0 ran, 2 input error, 3 configuration error)."""

import json
import os
import re
import sys
from dataclasses import replace

import pytest

from rankbias.cli import main
from rankbias.io import load_result_lists, write_result_lists
from rankbias.simulator import serve_all

from test_audit import file_manifest
from test_io import BAD_GROUND_TRUTH, IDEAL_DOC
from test_simulator import scenario


def manifest_file(tmp_path, manifest):
    doc = {
        "profiles": str(manifest.profiles_path),
        "results": str(manifest.results_path) if manifest.results_path else None,
        "schema": str(manifest.schema_path),
        "ground_truth": str(manifest.ground_truth_path) if manifest.ground_truth_path else None,
        "output_dir": str(manifest.output_dir),
        "protected_attribute": manifest.protected_attribute,
        "protected_value": manifest.protected_value,
        "differentiating_attribute": manifest.differentiating_attribute,
        "config": manifest.config.to_dict(),
    }
    doc = {k: v for k, v in doc.items() if v is not None}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def scenario_manifest_file(tmp_path, cfg=None, extra=None):
    doc = {
        "scenario": (cfg or scenario(n_users=12, delta_rank=0.5)).to_dict(),
        "output_dir": str(tmp_path / "out"),
        "config": {"relevant_attrs": ["persona", "age"]},
    }
    doc.update(extra or {})
    path = tmp_path / "sim-manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_measure_command(tmp_path, capsys):
    manifest = file_manifest(tmp_path)
    assert main(["measure", str(manifest_file(tmp_path, manifest))]) == 0
    out = capsys.readouterr().out
    assert "group_user_bias" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_measure_flag_overrides(tmp_path):
    manifest = file_manifest(tmp_path)
    path = manifest_file(tmp_path, manifest)
    assert main(["measure", str(path), "--epsilon", "0.9", "--dr-kind", "topk"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["epsilon"] == 0.9
    assert report["config"]["dr_kind"] == "topk"
    assert not report["measures"]["group_user_bias"]["biased"]


def test_measure_grid_gap_is_input_error(tmp_path, capsys):
    manifest = file_manifest(tmp_path)
    records = manifest.results_path.read_text(encoding="utf-8").splitlines(keepends=True)
    # drop every record of the last list: one (user, query) pair goes missing
    last = json.loads(records[-1])
    key = (last["user_id"], last["query_id"])
    kept = [r for r in records if (json.loads(r)["user_id"], json.loads(r)["query_id"]) != key]
    manifest.results_path.write_text("".join(kept), encoding="utf-8")
    assert main(["measure", str(manifest_file(tmp_path, manifest))]) == 2
    assert "1 of" in capsys.readouterr().err


def test_measure_rejects_scenario_manifest(tmp_path):
    path = scenario_manifest_file(tmp_path)
    assert main(["measure", str(path)]) == 3


def test_simulate_command_requires_seed(tmp_path):
    path = scenario_manifest_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(path)])
    assert exc.value.code == 2
    assert main(["simulate", str(path), "--seed", "11"]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_simulate_seed_controls_output(tmp_path):
    path = scenario_manifest_file(tmp_path)
    main(["simulate", str(path), "--seed", "1"])
    first = (tmp_path / "out" / "report.json").read_bytes()
    main(["simulate", str(path), "--seed", "1"])
    assert (tmp_path / "out" / "report.json").read_bytes() == first
    main(["simulate", str(path), "--seed", "2"])
    assert (tmp_path / "out" / "report.json").read_bytes() != first


def test_compare_command(tmp_path, capsys):
    path = scenario_manifest_file(tmp_path)
    out_dir = tmp_path / "cmp"
    assert main(["compare", str(path), str(path), "--output-dir", str(out_dir)]) == 0
    assert "comparative_bias" in capsys.readouterr().out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["measures"]["comparative_bias"]["magnitude"] == 0.0


def test_compare_rejects_two_configurations(tmp_path, capsys):
    paths = []
    for name, config in (("a", {"k": 10}), ("b", {"k": 3, "aggregator": "median", "agg_depth": 2})):
        (tmp_path / name).mkdir()
        paths.append(str(scenario_manifest_file(tmp_path / name, extra={"config": config})))
    assert main(["compare", *paths]) == 3
    assert "differ in ['k', 'aggregator', 'agg_depth']" in capsys.readouterr().err


def test_aggregate_command(tmp_path, capsys):
    cfg = scenario(n_users=6, seed=3)
    write_result_lists(serve_all(cfg), tmp_path / "lists.jsonl")
    assert main(["aggregate", str(tmp_path / "lists.jsonl"), "--method", "borda",
                 "--output", str(tmp_path / "agg.jsonl")]) == 0
    aggregated = load_result_lists(tmp_path / "agg.jsonl")
    assert list(aggregated) == [("aggregate:borda", "q0")]
    assert aggregated[("aggregate:borda", "q0")].depth == cfg.list_depth


def test_aggregate_without_output_prints_the_bytes_output_writes(tmp_path, capsys):
    write_result_lists(serve_all(scenario(n_users=6, seed=3)), tmp_path / "lists.jsonl")
    command = ["aggregate", str(tmp_path / "lists.jsonl"), "--k", "3"]
    assert main(command) == 0
    printed = capsys.readouterr().out
    assert main([*command, "--output", str(tmp_path / "agg.jsonl")]) == 0
    assert printed and printed == (tmp_path / "agg.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["measure", "simulate"])
def test_the_output_dir_flag_replaces_the_manifest_output_dir(tmp_path, capsys, command):
    path = manifest_file(tmp_path, file_manifest(tmp_path)) if command == "measure" else scenario_manifest_file(tmp_path)
    assert main([command, str(path), "--seed", "1", "--output-dir", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "report.json").exists()
    assert not (tmp_path / "out").exists()


def with_significance(tmp_path, significance, with_gt=True):
    """A file-mode manifest file with a ``significance`` block."""
    path = manifest_file(tmp_path, file_manifest(tmp_path, with_gt=with_gt))
    path.write_text(json.dumps({**json.loads(path.read_text()), "significance": significance}), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "significance, with_gt, seed, message",
    [
        ({"measures": ["group_user_bias"], "n_permutations": 100}, True, [], "significance requested but no seed available"),
        ({"measures": ["echo_chamber_test"], "n_permutations": 100}, False, ["--seed", "1"],
         "significance requested for skipped measure 'echo_chamber_test'"),
        ({"measures": [], "seed": 1}, True, [], "significance: measures must not be empty"),
    ],
)
def test_significance_that_cannot_run_is_a_configuration_error(tmp_path, capsys, significance, with_gt, seed, message):
    path = with_significance(tmp_path, significance, with_gt)
    assert main(["measure", str(path), *seed]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_the_measure_seed_flag_replaces_the_significance_seed(tmp_path, capsys):
    path = with_significance(tmp_path, {"measures": ["group_user_bias"], "n_permutations": 100, "seed": 7})
    assert main(["measure", str(path)]) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["significance"]["group_user_bias"]["seed"] == 7
    assert main(["measure", str(path), "--seed", "9"]) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["significance"]["group_user_bias"]["seed"] == 9


def test_aggregate_kemeny_guard_is_input_error(tmp_path):
    cfg = scenario(n_users=4, item_pool_size=30, list_depth=12, seed=3)
    write_result_lists(serve_all(cfg), tmp_path / "lists.jsonl")
    assert main(["aggregate", str(tmp_path / "lists.jsonl"), "--method", "kemeny"]) == 2


def test_validate_command(tmp_path, capsys):
    cfg = scenario(n_users=4)
    write_result_lists(serve_all(cfg), tmp_path / "lists.jsonl")
    assert main(["validate", str(tmp_path / "lists.jsonl")]) == 0
    assert "OK (results" in capsys.readouterr().out

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"user_id": "u", "query_id": "q", "rank": 0, "item_id": "x"}\n', encoding="utf-8")
    assert main(["validate", str(bad)]) == 2


def test_validate_detects_a_profiles_file_of_bare_user_ids(tmp_path, capsys):
    """A first record of profile fields only is a profile, even with no
    ``protected`` or ``other`` key; a record of result fields is not."""
    path = tmp_path / "p.jsonl"
    path.write_text('{"user_id": "u1"}\n', encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "OK (profiles, 1 records)\n"
    path.write_text('{"user_id": "u1", "query_id": "q1"}\n', encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "unrecognized line-record keys ['query_id', 'user_id']" in capsys.readouterr().err


def test_nan_weight_in_results_is_input_error(tmp_path, capsys):
    manifest = file_manifest(tmp_path)
    text = manifest.results_path.read_text(encoding="utf-8")
    assert '{"a1": 1.0}' in text
    manifest.results_path.write_text(text.replace('{"a1": 1.0}', '{"a1": NaN}', 1), encoding="utf-8")
    assert main(["measure", str(manifest_file(tmp_path, manifest))]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"{re.escape(str(manifest.results_path))}:\d+: item '[^']+', attribute 'stance': "
                     r"non-finite annotation weight nan for 'a1'", err), err
    assert main(["validate", str(manifest.results_path)]) == 2


# past Python's integer digit limit (4300 by default, where it has one) the JSON decoder refuses the line
@pytest.mark.parametrize("digits", [400, 5000])
def test_an_integer_weight_beyond_float_range_in_results_is_input_error(tmp_path, capsys, digits):
    manifest = file_manifest(tmp_path)
    text = manifest.results_path.read_text(encoding="utf-8")
    manifest.results_path.write_text(text.replace('{"a1": 1.0}', '{"a1": 1' + "0" * digits + "}", 1), encoding="utf-8")
    assert main(["validate", str(manifest.results_path)]) == 2
    limited = digits > getattr(sys, "get_int_max_str_digits", lambda: digits)() > 0
    tail = "invalid JSON (Exceeds the limit" if limited else "non-finite annotation weight inf for 'a1'"
    lineno = next(n for n, line in enumerate(text.splitlines(), 1) if '{"a1": 1.0}' in line)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest.results_path}:{lineno}: ") and tail in err


@pytest.mark.parametrize("digits", [400, 5000])
def test_an_integer_probability_beyond_float_range_is_input_error(tmp_path, capsys, digits):
    path = tmp_path / "ground_truth.json"
    big = "1" + "0" * digits
    path.write_text('{"attribute": "stance", "probabilities": {"a1": %s, "a2": 0.5}}' % big, encoding="utf-8")
    assert main(["validate", "--kind", "ground-truth", str(path)]) == 2
    limited = digits > getattr(sys, "get_int_max_str_digits", lambda: digits)() > 0
    tail = "invalid JSON (Exceeds the limit" if limited else "ground truth.probabilities.a1 must be finite, got inf"
    assert capsys.readouterr().err.startswith(f"error: {path}: {tail}")


def test_a_numeric_string_weight_in_results_is_input_error(tmp_path, capsys):
    # README documents weights as numbers; a string that reads as one is not
    manifest = file_manifest(tmp_path)
    text = manifest.results_path.read_text(encoding="utf-8")
    manifest.results_path.write_text(text.replace('{"a1": 1.0}', '{"a1": "1"}', 1), encoding="utf-8")
    assert main(["validate", str(manifest.results_path)]) == 2
    assert "annotation weight '1' for 'a1' is not a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, value",
    [
        ("other", "nan"),
        ("other", "-inf"),
        ("protected", "inf"),
        pytest.param("other", "1" + "0" * 400, id="int-beyond-float"),
    ],
)
def test_non_finite_profile_value_is_input_error(tmp_path, capsys, section, value):
    good = {"user_id": "u1", "protected": {"group": "x"}, "other": {"age": 30}}
    bad = {"user_id": "u2", "protected": {"group": "y"}, "other": {"age": 40}}
    # a JSON integer beyond the float range, or a non-finite float
    bad[section]["score"] = int(value) if value.isdigit() else float(value)
    path = tmp_path / "profiles.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in (good, bad)), encoding="utf-8")
    assert main(["validate", "--kind", "profiles", str(path)]) == 2
    assert f"{path}:2: profile 'u2': attribute 'score' is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, tail", BAD_GROUND_TRUTH)
def test_a_malformed_ground_truth_is_input_error(tmp_path, capsys, key, value, tail):
    manifest = file_manifest(tmp_path)
    manifest.ground_truth_path.write_text(json.dumps({**IDEAL_DOC, key: value}), encoding="utf-8")
    assert main(["measure", str(manifest_file(tmp_path, manifest))]) == 2
    assert f"{manifest.ground_truth_path}: ground truth{tail}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, tail", BAD_GROUND_TRUTH)
def test_validate_reads_an_ideal_list_ground_truth_without_its_schema(tmp_path, capsys, key, value, tail):
    """Reading an ideal list needs no schema, so ``validate`` checks every
    field, as ``measure`` does; only the conversion to probabilities needs it."""
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(IDEAL_DOC), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert "OK (ground-truth" in capsys.readouterr().out
    path.write_text(json.dumps({**IDEAL_DOC, key: value}), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert f"{path}: ground truth{tail}" in capsys.readouterr().err


def test_a_protected_attribute_named_differentiating_is_input_error(tmp_path, capsys):
    manifest = replace(file_manifest(tmp_path), differentiating_attribute="group")
    assert main(["measure", str(manifest_file(tmp_path, manifest))]) == 2
    assert "attribute 'group' is not a differentiating attribute" in capsys.readouterr().err


def test_an_unknown_manifest_key_is_a_configuration_error(tmp_path, capsys):
    path = manifest_file(tmp_path, file_manifest(tmp_path))
    path.write_text(json.dumps({**json.loads(path.read_text()), "signficance": {}}), encoding="utf-8")
    for command in (["validate", "--kind", "manifest"], ["measure"]):
        assert main([*command, str(path)]) == 3
        assert f"{path}: manifest has unknown keys ['signficance']" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_missing_file_is_input_error(tmp_path):
    assert main(["measure", str(tmp_path / "nope.json")]) == 2


GOOD_SCHEMA = {"attributes": [{"name": "stance", "kind": "differentiating", "values": ["a1", "a2"]}]}


@pytest.mark.parametrize(
    "doc, code, message",
    [
        ({**GOOD_SCHEMA, "numeric_ranges": [0, 1]}, 2, "numeric_ranges must be an object, got a list"),
        ({**GOOD_SCHEMA, "numeric_ranges": {"age": [1]}}, 2, "numeric_ranges.age must be a list of 2 entries, got 1"),
        ({**GOOD_SCHEMA, "numeric_ranges": {"age": ["x", 2]}}, 2, "numeric_ranges.age[0] must be a number, got 'x'"),
        ({"attributes": {"name": "stance"}}, 2, "attributes must be a list, got an object"),
        ({"attribute": "stance", "probabilities": [0.5, 0.5]}, 2, "probabilities must be an object, got a list"),
        ({"attribute": "stance", "probabilities": {"a1": "x", "a2": 0.5}}, 2, "probabilities.a1 must be a number, got 'x'"),
        ({"scenario": {"n_users": 12, "queries": []}}, 3, "scenario is missing 'protected'"),
        ({"scenario": {"n_users": 12, "protected": {"name": "group", "values": ["x", "y"]}}}, 3,
         "scenario is missing 'queries'"),
        ({"results": "r.jsonl", "significance": {"n_permutations": 100}}, 3, "significance is missing 'measures'"),
        ({**GOOD_SCHEMA, "numeric_ranges": {"age": [0, float("inf")]}}, 2, "numeric_ranges.age[1] must be finite, got inf"),
        ({**GOOD_SCHEMA, "numeric_ranges": {"age": [float("nan"), 1]}}, 2, "numeric_ranges.age[0] must be finite, got nan"),
        ({"scenario": {"queries": []}}, 3, "scenario is missing 'n_users'"),
        ({**GOOD_SCHEMA, "numeric_range": {"age": [18, 80]}}, 2, "schema has unknown keys ['numeric_range']"),
    ],
    # each case keeps the id of the rule it was written for
    ids=[f"doc{i}-{rule}" for i, rule in enumerate([
        "2-'numeric_ranges' must be an object",
        "2-numeric range of 'age' must be two numbers",
        "2-numeric range of 'age' must be two numbers",
        "2-'attributes' must be a list",
        "2-'probabilities' must map values to numbers",
        "2-'probabilities' must map values",
        "3-scenario is missing 'protected'",
        "3-scenario is missing 'queries'",
        "3-'significance' needs 'measures'",
        "2-numeric range of 'age' must be two numbers",
        "2-numeric range of 'age' must be two numbers",
        "3-scenario is missing 'n_users'",
        "2-unknown schema key",
    ])],
)
def test_validate_rejects_malformed_documents(tmp_path, capsys, doc, code, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == code
    assert message in capsys.readouterr().err


def replaced(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


def scenario_doc(path=(), value=None):
    """A valid scenario document, with the field at ``path`` set to ``value``."""
    doc = scenario(n_users=12, delta_rank=0.5).to_dict()
    return {"scenario": replaced(doc, path, value) if path else doc}


@pytest.mark.parametrize(
    "doc, code, message",
    [
        ({"attributes": [{"name": "stance", "values": "ab"}]}, 2, "attributes[0].values must be a list, got 'ab'"),
        ({"results": "r.jsonl", "significance": {"measures": "group_user_bias"}}, 3,
         "significance.measures must be a list, got 'group_user_bias'"),
        ({**scenario_doc(), "config": {"relevant_attrs": "persona"}}, 3, "config.relevant_attrs must be a list, got 'persona'"),
        ({**scenario_doc(), "config": {"numeric_ranges": {"age": "01"}}}, 3,
         "config.numeric_ranges.age must be a list, got '01'"),
        (scenario_doc(("protected", "values"), "xy"), 3, "scenario.protected.values must be a list, got 'xy'"),
        (scenario_doc(("queries", 0, "attribute", "values"), "ab"), 3,
         "scenario.queries[0].attribute.values must be a list, got 'ab'"),
        (scenario_doc(("other_attrs", 0, "values"), "pq"), 3, "scenario.other_attrs[0].values must be a list, got 'pq'"),
        (scenario_doc(("queries",), "q0"), 3, "scenario.queries must be a list, got 'q0'"),
        ({"scenario": [1, 2]}, 3, "scenario must be an object, got a list"),
        (scenario_doc(("protected",), "group"), 3, "scenario.protected must be an object, got 'group'"),
    ],
    # each case keeps the id of the rule it was written for
    ids=[f"doc{i}-{rule}" for i, rule in enumerate([
        "2-values of attribute 'stance' must be a list",
        "3-significance 'measures' must be a list",
        "3-relevant_attrs must be a list",
        "3-range of 'age' must be a list",
        "3-protected values must be a list",
        "3-query values must be a list",
        "3-values of 'persona' must be a list",
        "3-queries must be a list",
        "3-'scenario' must be an object",
        "3-malformed scenario",
    ])],
)
def test_validate_rejects_a_string_or_scalar_for_a_list_or_object(tmp_path, capsys, doc, code, message):
    """A JSON string where a list is expected is not split into characters,
    and a scenario or protected attribute that is not an object is a
    configuration error, not a traceback."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == code
    assert message in capsys.readouterr().err


def test_a_one_value_scenario_attribute_is_a_configuration_error(tmp_path, capsys):
    """A scenario attribute the schema rules reject is bad configuration
    (exit 3) in both commands that read the scenario; the same attribute in
    a schema file is bad input (exit 2)."""
    path = scenario_manifest_file(tmp_path, extra=scenario_doc(("protected",), {"name": "group", "values": ["x"]}))
    assert main(["validate", "--kind", "manifest", str(path)]) == 3
    assert "scenario.protected: attribute 'group': needs at least 2 values" in capsys.readouterr().err
    assert main(["simulate", str(path), "--seed", "1"]) == 3
    assert "needs at least 2 values" in capsys.readouterr().err
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"attributes": [{"name": "group", "values": ["x"]}]}), encoding="utf-8")
    assert main(["validate", "--kind", "schema", str(schema)]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("seed", True),
        ("n_users", "12"),
        ("n_users", 12.0),
        ("list_depth", True),
        ("item_pool_size", "30"),
    ],
)
def test_a_non_integer_scenario_count_or_seed_is_a_configuration_error(tmp_path, capsys, field, value):
    """A float or bool seed would serve some integer seed's lists, and a
    string count would end in a traceback; both commands exit 3 instead."""
    path = scenario_manifest_file(tmp_path, extra=scenario_doc((field,), value))
    assert main(["validate", "--kind", "manifest", str(path)]) == 3
    assert f"{field} must be an integer, got {value!r}" in capsys.readouterr().err
    assert main(["simulate", str(path), "--seed", "1"]) == 3
    assert f"{field} must be an integer, got {value!r}" in capsys.readouterr().err


def test_a_non_finite_numeric_range_is_a_configuration_error(tmp_path, capsys):
    """An infinite range width would zero every numeric profile term."""
    for bounds, bad in (([0, float("inf")], 1), ([float("nan"), 1], 0)):
        path = scenario_manifest_file(tmp_path, extra={"config": {"numeric_ranges": {"age": bounds}}})
        assert main(["validate", "--kind", "manifest", str(path)]) == 3
        assert f"config.numeric_ranges.age[{bad}] must be finite" in capsys.readouterr().err


def test_a_valid_scenario_document_validates(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**scenario_doc(), "config": {"relevant_attrs": ["persona"]}}), encoding="utf-8")
    assert main(["validate", str(path)]) == 0


def test_validate_accepts_declared_numeric_ranges(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({**GOOD_SCHEMA, "numeric_ranges": {"age": [18, 80.5]}}), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert "OK (schema, 1 records)" in capsys.readouterr().out


# --------------------------------------------------------------------------
# every manifest field is type-checked once: a wrong JSON type anywhere is a
# configuration error from both commands that read the manifest

SWEEP_MANIFEST = {
    "scenario": {
        "n_users": 12,
        "protected": {"name": "group", "values": ["x", "y"], "p_value": "x"},
        "queries": [{"query_id": "q0", "attribute": {"name": "stance", "values": ["a1", "a2"]},
                     "ground_truth": {"a1": 0.5, "a2": 0.5}}],
        "other_attrs": [{"name": "persona", "values": ["p0", "p1"]}, {"name": "age", "range": [18.0, 80.0]}],
        "list_depth": 4,
        "item_pool_size": 10,
        "delta_content": 0.1,
        "delta_rank": 0.2,
        "personalization": "user",
        "seed": 3,
    },
    "config": {"epsilon": 0.1, "k": 4, "dr_kind": "kendall", "weighting": "uniform", "aggregator": "borda",
               "query_aggregation": "mean", "rbo_p": 0.9, "relevant_attrs": ["persona", "age"],
               "numeric_ranges": {"age": [18.0, 80.0]}, "agg_depth": 4},
    "significance": {"measures": ["group_user_bias"], "n_permutations": 100, "seed": 7},
}
WRONG_JSON = {"string": "x", "float": 1.5, "bool": True, "list": [1], "object": {"a": 1}, "null": None}
#: fields whose declared type admits null
NULLABLE = {("scenario",), ("significance",), ("config", "epsilon"), ("config", "agg_depth"), ("significance", "seed")}


def json_kind(value):
    kinds = {str: "string", float: "float", bool: "bool", list: "list", dict: "object", type(None): "null"}
    return kinds.get(type(value), "int")


def field_paths(value, path=()):
    if path:
        yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from field_paths(child, (*path, key))


SWEEP = [
    pytest.param(path, kind, id=".".join(map(str, path)) + f"={kind}")
    for path, original in field_paths(SWEEP_MANIFEST)
    for kind in WRONG_JSON
    if kind != json_kind(original) and not (kind == "null" and path in NULLABLE)
    # a string scenario names a scenario file
    and not (kind == "string" and path == ("scenario",))
]


def run_both(tmp_path, doc):
    """Exit codes of ``validate --kind manifest`` and ``simulate --seed 1`` on ``doc``."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}), encoding="utf-8")
    return main(["validate", "--kind", "manifest", str(path)]), main(["simulate", str(path), "--seed", "1"])


def test_the_sweep_manifest_is_valid(tmp_path):
    assert run_both(tmp_path, SWEEP_MANIFEST) == (0, 0)
    assert len(SWEEP) > 200


@pytest.mark.parametrize("path, kind", SWEEP)
def test_a_wrong_json_type_in_any_manifest_field_exits_3(tmp_path, capsys, path, kind):
    assert run_both(tmp_path, replaced(SWEEP_MANIFEST, path, WRONG_JSON[kind])) == (3, 3)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith(f"configuration error: {tmp_path / 'manifest.json'}: manifest.{path[0]}")


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("scenario", "n_users"), 7, "scenario: n_users must be even and >= 2, got 7"),
        (("scenario", "n_users"), 0, "scenario: n_users must be even and >= 2, got 0"),
        (("scenario", "queries", 0, "ground_truth", "a1"), "x", "scenario.queries[0].ground_truth.probabilities.a1 "
         "must be a number, got 'x'"),
        (("scenario", "queries", 0, "ground_truth"), "pro", "scenario.queries[0].ground_truth.probabilities "
         "must be an object, got 'pro'"),
        (("scenario", "delta_content"), "x", "scenario.delta_content must be a number, got 'x'"),
        (("scenario", "other_attrs", 1, "range"), ["a", "b"], "scenario.other_attrs[1].range[0] must be a number"),
        (("config", "k"), 2.5, "config.k must be an integer, got 2.5"),
        (("config", "agg_depth"), 2.5, "config.agg_depth must be an integer, got 2.5"),
        (("config", "rbo_p"), True, "config.rbo_p must be a number, got True"),
        (("config", "epsilon"), float("nan"), "config.epsilon must be finite, got nan"),
        (("significance", "n_permutations"), "many", "significance.n_permutations must be an integer, got 'many'"),
        (("significance", "n_permutations"), 150.5, "significance.n_permutations must be an integer, got 150.5"),
        (("significance", "n_permutations"), 50, "significance: n_permutations must be >= 100, got 50"),
        (("significance", "seed"), "7", "significance.seed must be an integer, got '7'"),
        (("significance", "seed"), False, "significance.seed must be an integer, got False"),
        (("significance", "seed"), -1, "significance: seed must be an unsigned 64-bit integer, got -1"),
        (("significance", "measures", 0), "individual_user_bias", "significance: permutation test supports"),
        (("seed",), "1", "seed must be an integer, got '1'"),
        (("seed",), -1, "seed must be an unsigned 64-bit integer, got -1"),
        (("scenario", "queries"), [], "scenario: queries must not be empty"),
        (("scenario", "queries"), [SWEEP_MANIFEST["scenario"]["queries"][0], {
            "query_id": "q1", "attribute": {"name": "tone", "values": ["t1", "t2"]}, "ground_truth": {"t1": 0.5, "t2": 0.5},
        }], "scenario: every query must differentiate the same attribute"),
        (("signficance",), {"measures": ["group_user_bias"]}, "unknown keys ['signficance']"),
        (("config", "numeric_ranges", "age"), [80, 18],
         "config: attribute 'age': declared range (80.0, 18.0) must be finite and non-empty"),
        (("config", "numeric_ranges", "age"), [18, 18],
         "config: attribute 'age': declared range (18.0, 18.0) must be finite and non-empty"),
        (("significance", "measures"), [], "significance: measures must not be empty"),
        (("scenario",), "", "manifest.scenario must be an object, got ''"),
    ],
)
def test_validate_accepts_nothing_simulate_rejects(tmp_path, capsys, path, value, message):
    assert run_both(tmp_path, replaced(SWEEP_MANIFEST, path, value)) == (3, 3)
    err = capsys.readouterr().err
    assert err.count(message) == 2, err


@pytest.mark.parametrize("command", ["measure", "simulate"])
@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_a_non_finite_epsilon_flag_is_a_configuration_error(tmp_path, capsys, command, epsilon):
    path = manifest_file(tmp_path, file_manifest(tmp_path)) if command == "measure" else scenario_manifest_file(tmp_path)
    assert main([command, str(path), "--seed", "1", f"--epsilon={epsilon}"]) == 3
    assert "epsilon must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_aggregate_depth_zero_is_rejected_like_a_negative_one(tmp_path, capsys):
    """An out-of-range depth is a configuration error, as ``measure --k 0`` is."""
    write_result_lists(serve_all(scenario(n_users=6, seed=3)), tmp_path / "lists.jsonl")
    for k in ("0", "-1"):
        assert main(["aggregate", str(tmp_path / "lists.jsonl"), "--k", k]) == 3
        assert f"aggregation depth must be >= 1, got {k}" in capsys.readouterr().err


@pytest.mark.parametrize("lists_file", ["missing.jsonl", "malformed.jsonl"])
def test_aggregate_depth_is_checked_before_the_lists_are_read(tmp_path, capsys, lists_file):
    """A bad depth is reported with its own message and exit code before the
    lists file is opened, so neither a missing nor a malformed file is read."""
    (tmp_path / "malformed.jsonl").write_text("{not json\n", encoding="utf-8")
    assert main(["aggregate", str(tmp_path / lists_file), "--k", "0"]) == 3
    assert "aggregation depth must be >= 1, got 0" in capsys.readouterr().err


def test_aggregate_output_is_written_atomically(tmp_path, monkeypatch, capsys):
    write_result_lists(serve_all(scenario(n_users=6, seed=3)), tmp_path / "lists.jsonl")
    written = []
    monkeypatch.setattr("rankbias.io.os.replace", lambda src, dst: written.append(dst) or os.rename(src, dst))
    assert main(["aggregate", str(tmp_path / "lists.jsonl"), "--k", "3", "--output", str(tmp_path / "agg.jsonl")]) == 0
    assert written == [tmp_path / "agg.jsonl"]
    assert capsys.readouterr().out == ""
    assert load_result_lists(tmp_path / "agg.jsonl")[("aggregate:borda", "q0")].depth == 3
