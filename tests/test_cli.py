"""CLI tests: every subcommand, flag overrides, and the exit-code contract
(0 ran, 2 input error, 3 configuration error)."""

import json

import pytest

from rankbias.cli import main
from rankbias.io import load_result_lists, write_result_lists
from rankbias.simulator import serve_all

from test_audit import file_manifest
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


def test_aggregate_command(tmp_path, capsys):
    cfg = scenario(n_users=6, seed=3)
    write_result_lists(serve_all(cfg), tmp_path / "lists.jsonl")
    assert main(["aggregate", str(tmp_path / "lists.jsonl"), "--method", "borda",
                 "--output", str(tmp_path / "agg.jsonl")]) == 0
    aggregated = load_result_lists(tmp_path / "agg.jsonl")
    assert list(aggregated) == [("aggregate:borda", "q0")]
    assert aggregated[("aggregate:borda", "q0")].depth == cfg.list_depth


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


def test_nan_weight_in_results_is_input_error(tmp_path, capsys):
    manifest = file_manifest(tmp_path)
    text = manifest.results_path.read_text(encoding="utf-8")
    assert '{"a1": 1.0}' in text
    manifest.results_path.write_text(text.replace('{"a1": 1.0}', '{"a1": NaN}', 1), encoding="utf-8")
    assert main(["measure", str(manifest_file(tmp_path, manifest))]) == 2
    assert "non-finite weight" in capsys.readouterr().err
    assert main(["validate", str(manifest.results_path)]) == 2


def test_missing_file_is_input_error(tmp_path):
    assert main(["measure", str(tmp_path / "nope.json")]) == 2


GOOD_SCHEMA = {"attributes": [{"name": "stance", "kind": "differentiating", "values": ["a1", "a2"]}]}


@pytest.mark.parametrize(
    "doc, code, message",
    [
        ({**GOOD_SCHEMA, "numeric_ranges": [0, 1]}, 2, "'numeric_ranges' must be an object"),
        ({**GOOD_SCHEMA, "numeric_ranges": {"age": [1]}}, 2, "numeric range of 'age' must be two numbers"),
        ({**GOOD_SCHEMA, "numeric_ranges": {"age": ["x", 2]}}, 2, "numeric range of 'age' must be two numbers"),
        ({"attributes": {"name": "stance"}}, 2, "'attributes' must be a list"),
        ({"attribute": "stance", "probabilities": [0.5, 0.5]}, 2, "'probabilities' must map values to numbers"),
        ({"attribute": "stance", "probabilities": {"a1": "x", "a2": 0.5}}, 2, "'probabilities' must map values"),
        ({"scenario": {"queries": []}}, 3, "scenario is missing 'protected'"),
        ({"scenario": {"protected": {"name": "group", "values": ["x", "y"]}}}, 3, "scenario is missing 'queries'"),
        ({"results": "r.jsonl", "significance": {"n_permutations": 100}}, 3, "'significance' needs 'measures'"),
    ],
)
def test_validate_rejects_malformed_documents(tmp_path, capsys, doc, code, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == code
    assert message in capsys.readouterr().err


def scenario_doc(path=(), value=None):
    """A valid scenario document, with the field at ``path`` set to ``value``."""
    doc = scenario(n_users=12, delta_rank=0.5).to_dict()
    if path:
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    return {"scenario": doc}


@pytest.mark.parametrize(
    "doc, code, message",
    [
        ({"attributes": [{"name": "stance", "values": "ab"}]}, 2, "values of attribute 'stance' must be a list"),
        ({"results": "r.jsonl", "significance": {"measures": "group_user_bias"}}, 3,
         "significance 'measures' must be a list"),
        ({**scenario_doc(), "config": {"relevant_attrs": "persona"}}, 3, "relevant_attrs must be a list"),
        ({**scenario_doc(), "config": {"numeric_ranges": {"age": "01"}}}, 3, "range of 'age' must be a list"),
        (scenario_doc(("protected", "values"), "xy"), 3, "protected values must be a list"),
        (scenario_doc(("queries", 0, "attribute", "values"), "ab"), 3, "query values must be a list"),
        (scenario_doc(("other_attrs", 0, "values"), "pq"), 3, "values of 'persona' must be a list"),
        (scenario_doc(("queries",), "q0"), 3, "queries must be a list"),
        ({"scenario": [1, 2]}, 3, "'scenario' must be an object"),
        (scenario_doc(("protected",), "group"), 3, "malformed scenario"),
    ],
)
def test_validate_rejects_a_string_or_scalar_for_a_list_or_object(tmp_path, capsys, doc, code, message):
    """A JSON string where a list is expected is not split into characters,
    and a scenario or protected attribute that is not an object is a
    configuration error, not a traceback."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == code
    assert message in capsys.readouterr().err


def test_a_valid_scenario_document_validates(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**scenario_doc(), "config": {"relevant_attrs": ["persona"]}}), encoding="utf-8")
    assert main(["validate", str(path)]) == 0


def test_validate_accepts_declared_numeric_ranges(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({**GOOD_SCHEMA, "numeric_ranges": {"age": [18, 80.5]}}), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert "OK (schema, 1 records)" in capsys.readouterr().out
