import re
from pathlib import Path

import numpy as np
import pytest

from rankbias import (
    AttributeSchema,
    ConfigError,
    FormatError,
    GroundTruth,
    InputError,
    ParameterError,
    ProfileError,
    RankedList,
    ResultItem,
    SchemaError,
    UserProfile,
    bootstrap_ci,
    combined_bias,
    permutation_test,
)
from rankbias.io import SignificanceSpec
from rankbias.measures import MeasureConfig
from rankbias.significance import _check_seed
from rankbias.types import UNANNOTATED, from_json, to_json

from conftest import annotated_list, build_audit, profile, stance_schema


def test_result_item_validates_weights():
    ResultItem("x", {"stance": {"a1": 0.4, "a2": 0.6}})
    with pytest.raises(InputError):
        ResultItem("x", {"stance": {"a1": 0.4, "a2": 0.5}})
    with pytest.raises(InputError):
        ResultItem("x", {"stance": {"a1": -0.1, "a2": 1.1}})
    with pytest.raises(InputError):
        ResultItem("")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), pytest.param(10**400, id="int-beyond-float")])
def test_result_item_rejects_non_finite_weights(bad):
    with pytest.raises(InputError, match="non-finite"):
        ResultItem("x", {"stance": {"a1": bad}})
    with pytest.raises(InputError, match="non-finite"):
        ResultItem("x", {"stance": {"a1": bad, "a2": 1.0}})


@pytest.mark.parametrize(
    "weights, message",
    [
        ({"a1": "abc"}, "annotation weight 'abc' for 'a1' is not a number"),
        ({"a1": None, "a2": 1.0}, "annotation weight None for 'a1' is not a number"),
        ([1], "annotation weights [1] are not a mapping"),
    ],
)
def test_result_item_rejects_malformed_weights(weights, message):
    with pytest.raises(InputError, match="item 'x', attribute 'stance'") as caught:
        ResultItem("x", {"stance": weights})
    assert message in str(caught.value)


def test_result_item_unannotated_marker():
    item = ResultItem("x", {"stance": UNANNOTATED})
    assert item.annotation_for("stance") == {}
    assert item.annotation_for("missing") == {}


def test_ranked_list_rejects_duplicates():
    items = (ResultItem("a"), ResultItem("a"))
    with pytest.raises(InputError):
        RankedList("q", "u", items)


def test_ranked_list_duplicate_message_names_first_repeat():
    items = (ResultItem("a"), ResultItem("b"), ResultItem("c"), ResultItem("b"), ResultItem("a"))
    with pytest.raises(InputError, match=r"^duplicate item 'b' in list \('u', 'q'\)$"):
        RankedList("q", "u", items)


def test_ranked_list_item_ids_built_once_and_kept_out_of_repr_and_equality():
    lst = annotated_list(["a1", "a2", "a1"])
    assert lst.item_ids() == ("x0", "x1", "x2")
    assert lst.item_ids() is lst.item_ids()
    assert "_ids" not in repr(lst)
    assert repr(lst).startswith("RankedList(query_id='q0', user_id='u0', items=(")
    assert lst == RankedList("q0", "u0", list(lst.items))
    assert RankedList("q", "u", ()).item_ids() == ()


def test_ranked_list_depth_and_truncation():
    lst = annotated_list(["a1", "a2", "a1"])
    assert lst.depth == 3


def test_profile_protected_other_disjoint():
    with pytest.raises(ProfileError):
        UserProfile("u", {"gender": "f"}, {"gender": "x"})


@pytest.mark.parametrize("bad, shown", [(float("nan"), "nan"), pytest.param(10**400, "inf", id="int-beyond-float"), pytest.param(-(10**400), "-inf", id="negative-int-beyond-float")])
def test_profile_rejects_a_number_that_is_not_finite(bad, shown):
    with pytest.raises(ProfileError, match=rf"attribute 'age' is not finite \({shown}\)"):
        UserProfile("u", {"gender": "f"}, {"age": bad})


def test_schema_invariants():
    with pytest.raises(SchemaError):
        AttributeSchema("a", ("only",))
    with pytest.raises(SchemaError):
        AttributeSchema("a", ("x", "x"))
    with pytest.raises(SchemaError):
        AttributeSchema("a", ("x", "y"), kind="bogus")
    with pytest.raises(SchemaError):
        AttributeSchema("a", ("x", UNANNOTATED))


def test_ground_truth_validates():
    GroundTruth("stance", {"a1": 0.5, "a2": 0.5})
    with pytest.raises(SchemaError):
        GroundTruth("stance", {"a1": 0.5, "a2": 0.6})
    with pytest.raises(SchemaError):
        GroundTruth("stance", {"a1": -0.5, "a2": 1.5})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), pytest.param(10**400, id="int-beyond-float")])
def test_ground_truth_rejects_non_finite_probabilities(bad):
    with pytest.raises(SchemaError, match="non-finite"):
        GroundTruth("stance", {"a1": bad, "a2": 0.5})
    with pytest.raises(SchemaError, match="non-finite"):
        GroundTruth("stance", {"a1": 1.0, "a2": bad})


@pytest.mark.parametrize("bad", ["0.5", None, [0.5]])
def test_ground_truth_rejects_probabilities_that_are_not_numbers(bad):
    with pytest.raises(SchemaError, match=f"probability {re.escape(repr(bad))} for 'a1' is not a number"):
        GroundTruth("stance", {"a1": bad, "a2": 0.5})


def test_ground_truth_from_ideal_list():
    ideal = annotated_list(["a1", "a1", "a2", None], user="ideal")
    gt = GroundTruth.from_ranked_list(ideal, stance_schema())
    # three annotated items: 2/3 vs 1/3 after dropping the unannotated one
    assert gt.probabilities["a1"] == pytest.approx(2 / 3)
    assert gt.probabilities["a2"] == pytest.approx(1 / 3)
    # a depth of 0 is rejected, not read as the full list
    with pytest.raises(ParameterError, match="k must be >= 1, got 0"):
        GroundTruth.from_ranked_list(ideal, stance_schema(), k=0)


@pytest.mark.parametrize(
    "kind, value, message",
    [
        (float, True, "x must be a number, got True"),  # a bool is rejected before widening
        (float, "0.5", "x must be a number, got '0.5'"),
        (float, float("nan"), "x must be finite, got nan"),
        pytest.param(float, -(10**400), "x must be finite, got -inf", id="int-beyond-float"),
        (int, False, "x must be an integer, got False"),
        (int, 2.0, "x must be an integer, got 2.0"),
        (str, None, "x must be a string, got None"),
        (tuple[float, float], [1], "x must be a list of 2 entries, got 1"),
        (tuple[str, ...], "ab", "x must be a list, got 'ab'"),
        (dict[str, int], {"a": "1"}, "x.a must be an integer, got '1'"),
        (dict[str, int], [], "x must be an object, got a list"),
        (AttributeSchema, {"name": "a", "values": ["u", "v"], "size": 2}, "x has unknown keys ['size']"),
        (AttributeSchema, {"values": ["u", "v"]}, "x is missing 'name'"),
        (AttributeSchema, {"name": "a", "values": ["u", 1]}, "x.values[1] must be a string, got 1"),
        (AttributeSchema, {"name": "a", "values": ["u"]}, "x: attribute 'a': needs at least 2 values"),
        (Path, "", "x must be a non-empty string, got ''"),
        (Path, 3, "x must be a non-empty string, got 3"),
        (Path | None, ["a"], "x must be a non-empty string, got a list"),
    ],
)
def test_from_json_rejects_a_wrong_type_naming_its_path(kind, value, message):
    for error in (ConfigError, FormatError):
        with pytest.raises(error) as caught:
            from_json(kind, value, "x", error)
        assert str(caught.value) == message


def test_from_json_reads_what_to_json_writes():
    assert from_json(tuple[float, float] | None, [1, 2.5], "x", ConfigError) == (1.0, 2.5)
    assert type(from_json(float, 1, "x", ConfigError)) is float
    assert from_json(int | None, None, "x", ConfigError) is None
    assert from_json(dict[str, object], {"a": [1, None]}, "x", ConfigError) == {"a": [1, None]}
    assert from_json(Path | None, "a/b.json", "x", ConfigError) == Path("a/b.json")
    schema = AttributeSchema("a", ("u", "v"), "protected")
    assert to_json(schema) == {"name": "a", "values": ["u", "v"], "kind": "protected"}
    assert from_json(AttributeSchema, to_json(schema), "x", ConfigError) == schema


def small_audit(config=None):
    profiles = [profile(f"u{i}", "x" if i % 2 else "y") for i in range(6)]
    lists = [annotated_list(["a1", "a2"] if i % 2 else ["a2", "a1"], user=p.user_id) for i, p in enumerate(profiles)]
    return build_audit(lists, profiles, config=config)


@pytest.mark.parametrize(
    "call",
    [
        lambda: MeasureConfig(k=2.5),
        lambda: MeasureConfig(agg_depth=2.5),
        lambda: MeasureConfig(k=True),
        lambda: SignificanceSpec(("group_user_bias",), 150.5),
        lambda: SignificanceSpec((), 150.5),
        lambda: permutation_test(small_audit(), "group_user_bias", 150.5, 1),
        lambda: bootstrap_ci(small_audit(), "combined_bias", 150.5, 0.9, 1),
        lambda: combined_bias(small_audit(MeasureConfig(k=2.5))),
    ],
)
def test_a_non_integer_count_is_a_parameter_error(call):
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


def test_numpy_integer_counts_are_accepted():
    assert MeasureConfig(k=np.int64(3), agg_depth=np.int32(2)).k == 3
    assert SignificanceSpec(("group_user_bias",), np.int64(150)).n_permutations == 150


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3), np.int32(3), np.uint64(2**64 - 1)])
def test_numpy_integer_seeds_are_accepted_as_python_ints(seed):
    assert SignificanceSpec(("group_user_bias",), 1000, seed).seed == seed
    assert type(_check_seed(seed)) is int and _check_seed(seed) == int(seed)


@pytest.mark.parametrize(
    "seed, message",
    [(True, "must be an integer"), (np.bool_(True), "must be an integer"), (3.0, "must be an integer"),
     (np.int64(-1), "unsigned 64-bit integer, got -1"), (2**64, "unsigned 64-bit integer")],
)
def test_a_seed_outside_the_integer_rule_is_a_parameter_error(seed, message):
    with pytest.raises(ParameterError, match=message):
        SignificanceSpec(("group_user_bias",), 1000, seed)
