"""Distance-function tests: frozen hand-derived values, independent
brute-force oracles, and the metric-style invariants."""

import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import rankbias
from rankbias import (
    InputError,
    MeasureUndefinedError,
    ParameterError,
    ProfileError,
    SchemaError,
    UserProfile,
    attribute_distribution,
    distribution_distance,
    kendall_distance,
    rbo_distance,
    topk_overlap_distance,
    user_distance,
)
from rankbias.distances import rank_weights
from rankbias.errors import DegenerateInputWarning
from rankbias.types import UNANNOTATED

from conftest import annotated_list, make_list, random_list_pair, stance_schema, weighted_list


# --------------------------------------------------------------------------
# oracles


def conjoint_kendall_oracle(ids_a, ids_b):
    """Discordant pairs over n(n-1)/2, for two orderings of one item set."""
    pos_b = {item: i for i, item in enumerate(ids_b)}
    discordant = 0
    n = len(ids_a)
    for i in range(n):
        for j in range(i + 1, n):
            if pos_b[ids_a[i]] > pos_b[ids_a[j]]:
                discordant += 1
    return discordant / (n * (n - 1) / 2)


def general_kendall_oracle(ids_a, ids_b, p=0.5):
    """Independent case-by-case reimplementation for non-conjoint lists."""
    pa = {x: i for i, x in enumerate(ids_a)}
    pb = {x: i for i, x in enumerate(ids_b)}
    total = denom = 0.0
    union = sorted(set(pa) | set(pb))
    for x, y in itertools.combinations(union, 2):
        memb = (x in pa, x in pb, y in pa, y in pb)
        if memb == (True, True, True, True):
            denom += 1
            total += (pa[x] < pa[y]) != (pb[x] < pb[y])
        elif memb in ((True, True, True, False), (True, False, True, True)):
            # both in a, exactly one in b: b implies its present item first
            denom += 1
            present_first = pa[x] < pa[y] if x in pb else pa[y] < pa[x]
            total += not present_first
        elif memb in ((True, True, False, True), (False, True, True, True)):
            denom += 1
            present_first = pb[x] < pb[y] if x in pa else pb[y] < pb[x]
            total += not present_first
        elif memb in ((True, False, False, True), (False, True, True, False)):
            denom += 1
            total += 1
        else:  # both confined to the same list
            denom += p
            total += p
    if denom == 0:
        return 0.0 if tuple(ids_a) == tuple(ids_b) else 1.0
    return total / denom


def rbo_ext_reference(ids_a, ids_b, p):
    """Direct evaluation of the extrapolated rank-biased-overlap score."""
    s, l = sorted((len(ids_a), len(ids_b)))
    if l == 0:
        return 1.0
    if s == 0:
        return 0.0
    x = {d: len(set(ids_a[: min(d, len(ids_a))]) & set(ids_b[: min(d, len(ids_b))])) for d in range(1, l + 1)}
    head = sum(x[d] / d * p**d for d in range(1, l + 1))
    tail = x[s] * sum((d - s) / (s * d) * p**d for d in range(s + 1, l + 1))
    return (1 - p) / p * (head + tail) + ((x[l] - x[s]) / l + x[s] / s) * p**l


# --------------------------------------------------------------------------
# kendall


def test_kendall_identity_and_reversal():
    ids = [f"x{i}" for i in range(1, 6)]
    assert kendall_distance(make_list(ids), make_list(ids)) == 0.0
    assert kendall_distance(make_list(ids), make_list(ids[::-1])) == 1.0


def test_kendall_adjacent_swaps_example():
    # [x1,x2,x3,x4] vs [x2,x1,x4,x3]: 2 discordant of C(4,2)=6 pairs
    a = make_list(["x1", "x2", "x3", "x4"])
    b = make_list(["x2", "x1", "x4", "x3"])
    assert kendall_distance(a, b) == pytest.approx(2 / 6)


def test_kendall_disjoint_lists_are_maximal():
    a = make_list(["a1", "a2", "a3"])
    b = make_list(["b1", "b2", "b3"])
    assert kendall_distance(a, b) == 1.0


def test_kendall_degenerate_cases():
    empty = make_list([])
    with pytest.warns(DegenerateInputWarning):
        assert kendall_distance(empty, empty) == 0.0
    assert kendall_distance(make_list(["x"]), empty) == 1.0
    assert kendall_distance(make_list(["x"]), make_list(["x"])) == 0.0
    assert kendall_distance(make_list(["x"]), make_list(["y"])) == 1.0


def test_kendall_matches_conjoint_oracle_exhaustive_small():
    for n in (2, 3, 4):
        ids = [f"x{i}" for i in range(n)]
        for pa in itertools.permutations(ids):
            la = make_list(pa)
            for pb in itertools.permutations(ids):
                assert kendall_distance(la, make_list(pb)) == conjoint_kendall_oracle(pa, pb)


def random_deep_pairs(rng, count):
    """Pairs of lists as deep as the workloads': pools of up to 60 items,
    0 to 50 items per list, so empty and unequal lists occur."""
    for _ in range(count):
        yield random_list_pair(rng, pool_size=int(rng.integers(1, 61)), max_depth=50, min_depth=0)


def test_kendall_matches_general_oracle_nonconjoint(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        for a, b in random_deep_pairs(rng, 300):
            # every charge is a multiple of 1/2: exact
            assert kendall_distance(a, b) == general_kendall_oracle(a.item_ids(), b.item_ids())


@pytest.mark.parametrize(
    "distance",
    [kendall_distance, rbo_distance, lambda a, b: topk_overlap_distance(a, b, 3)],
    ids=["kendall", "rbo", "topk"],
)
def test_two_empty_lists_warn_at_the_caller(distance):
    empty = make_list([])
    with pytest.warns(DegenerateInputWarning) as caught:
        assert distance(empty, empty) == 0.0
    assert [w.filename for w in caught] == [__file__]


def test_kendall_triangle_inequality_conjoint(rng):
    ids = [f"x{i}" for i in range(7)]
    for _ in range(300):
        a, b, c = (make_list(rng.permutation(ids)) for _ in range(3))
        dab, dbc, dac = kendall_distance(a, b), kendall_distance(b, c), kendall_distance(a, c)
        assert dac <= dab + dbc + 1e-12


# --------------------------------------------------------------------------
# rbo


def test_rbo_identity_and_disjoint():
    ids = [f"x{i}" for i in range(6)]
    for p in (0.3, 0.5, 0.9):
        assert rbo_distance(make_list(ids), make_list(ids), p) == pytest.approx(0.0, abs=1e-12)
        assert rbo_distance(make_list(ids), make_list([f"y{i}" for i in range(6)]), p) == 1.0


def test_rbo_two_item_swap_example():
    a = make_list(["x1", "x2"])
    b = make_list(["x2", "x1"])
    expected = 1.0 - rbo_ext_reference(a.item_ids(), b.item_ids(), 0.5)
    assert expected == pytest.approx(0.5)  # derived by direct evaluation
    assert rbo_distance(a, b, 0.5) == pytest.approx(expected)


def test_rbo_matches_reference(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        for a, b in random_deep_pairs(rng, 200):
            p = float(rng.uniform(0.1, 0.95))
            assert rbo_distance(a, b, p) == pytest.approx(
                1.0 - rbo_ext_reference(a.item_ids(), b.item_ids(), p), abs=1e-9
            )


def test_rbo_is_top_weighted():
    base = [f"x{i}" for i in range(10)]
    top_swap = list(base)
    top_swap[0], top_swap[1] = top_swap[1], top_swap[0]
    bottom_swap = list(base)
    bottom_swap[8], bottom_swap[9] = bottom_swap[9], bottom_swap[8]
    d_top = rbo_distance(make_list(base), make_list(top_swap), 0.8)
    d_bottom = rbo_distance(make_list(base), make_list(bottom_swap), 0.8)
    assert d_top > d_bottom


def test_rbo_persistence_validation():
    a = make_list(["x1"])
    for p in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ParameterError):
            rbo_distance(a, a, p)


# --------------------------------------------------------------------------
# top-k overlap


def test_topk_examples():
    ids = [f"x{i}" for i in range(12)]
    assert topk_overlap_distance(make_list(ids), make_list(ids), 10) == 0.0
    assert topk_overlap_distance(make_list(ids[:6]), make_list([f"y{i}" for i in range(6)]), 10) == 1.0
    a = make_list(["x1", "x2", "x3", "x4"])
    b = make_list(["x3", "x4", "x5", "x6"])
    assert topk_overlap_distance(a, b, 4) == pytest.approx(0.5)


def test_topk_short_lists_renormalize():
    # identical 3-item lists at k=10 must still be distance 0
    a = make_list(["x1", "x2", "x3"])
    assert topk_overlap_distance(a, a, 10) == 0.0
    with pytest.raises(ParameterError):
        topk_overlap_distance(a, a, 0)


# --------------------------------------------------------------------------
# shared D_R axioms


@pytest.mark.parametrize("name", ["kendall", "rbo", "topk"])
def test_distance_axioms(rng, name):
    def dist(a, b):
        if name == "kendall":
            return kendall_distance(a, b)
        if name == "rbo":
            return rbo_distance(a, b, 0.8)
        return topk_overlap_distance(a, b, 5)

    for _ in range(250):
        a, b = random_list_pair(rng)
        d = dist(a, b)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(dist(b, a), abs=1e-12)
        assert dist(a, a) == 0.0


# --------------------------------------------------------------------------
# attribute distributions


def test_attribute_distribution_fraction_example():
    # 7 items about a1 and 3 about a2 in the top 10
    lst = annotated_list(["a1"] * 7 + ["a2"] * 3)
    dist = attribute_distribution(lst, stance_schema(), 10)
    assert dist["a1"] == pytest.approx(0.7)
    assert dist["a2"] == pytest.approx(0.3)
    assert dist[UNANNOTATED] == 0.0


def test_attribute_distribution_all_unannotated():
    lst = annotated_list([None, None, None])
    dist = attribute_distribution(lst, stance_schema(), 3)
    assert dist[UNANNOTATED] == pytest.approx(1.0)


def test_attribute_distribution_single_split_item():
    lst = weighted_list([{"a1": 0.5, "a2": 0.5}])
    dist = attribute_distribution(lst, stance_schema(), 1)
    assert dist["a1"] == pytest.approx(0.5)
    assert dist["a2"] == pytest.approx(0.5)


def test_attribute_distribution_sums_to_one(rng):
    schema = stance_schema(3)
    for _ in range(100):
        depth = int(rng.integers(1, 12))
        rows = []
        for _ in range(depth):
            if rng.random() < 0.3:
                rows.append(None)
            else:
                w = rng.dirichlet(np.ones(3))
                rows.append({f"a{i + 1}": float(w[i]) for i in range(3)})
        lst = weighted_list(rows)
        k = int(rng.integers(1, 15))
        for weighting in ("uniform", "rank-discounted"):
            dist = attribute_distribution(lst, schema, k, weighting)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0 for v in dist.values())


def test_attribute_distribution_value_label_equivariance():
    lst = annotated_list(["a1", "a2", "a1", "a3", None], attr="stance")
    schema = stance_schema(3)
    relabeled = annotated_list(["a3", "a1", "a3", "a2", None], attr="stance")
    # swap labels a1->a3, a2->a1, a3->a2; the distribution permutes along
    d1 = attribute_distribution(lst, schema, 5)
    d2 = attribute_distribution(relabeled, schema, 5)
    assert d2["a3"] == pytest.approx(d1["a1"])
    assert d2["a1"] == pytest.approx(d1["a2"])
    assert d2["a2"] == pytest.approx(d1["a3"])


def test_attribute_distribution_rank_discounted():
    lst = annotated_list(["a1", "a2"])
    dist = attribute_distribution(lst, stance_schema(), 2, "rank-discounted")
    w1 = 1.0 / math.log2(2)
    w2 = 1.0 / math.log2(3)
    assert dist["a1"] == pytest.approx(w1 / (w1 + w2))
    assert dist["a2"] == pytest.approx(w2 / (w1 + w2))


def test_attribute_distribution_errors():
    lst = annotated_list(["a1"], attr="stance")
    protected = pytest.importorskip("rankbias.types").AttributeSchema("g", ("x", "y"), "protected")
    with pytest.raises(SchemaError):
        attribute_distribution(lst, protected, 5)
    with pytest.raises(SchemaError):
        attribute_distribution(annotated_list(["bogus"]), stance_schema(), 5)
    with pytest.raises(InputError):
        attribute_distribution(make_list([]), stance_schema(), 5)
    with pytest.raises(ParameterError):
        attribute_distribution(lst, stance_schema(), 0)


# --------------------------------------------------------------------------
# distribution distance


def test_distribution_distance_examples():
    assert distribution_distance({"a1": 0.5, "a2": 0.5}, {"a1": 0.5, "a2": 0.5}) == 0.0
    assert distribution_distance({"a1": 0.7, "a2": 0.3}, {"a1": 0.5, "a2": 0.5}) == pytest.approx(0.2)
    assert distribution_distance({"a1": 1.0, "a2": 0.0}, {"a1": 0.0, "a2": 1.0}) == 1.0


def test_distribution_distance_excludes_unannotated_mass():
    p = {"a1": 0.35, "a2": 0.35, UNANNOTATED: 0.3}
    q = {"a1": 0.5, "a2": 0.5}
    # annotated mass renormalizes to (0.5, 0.5): no distance
    assert distribution_distance(p, q) == pytest.approx(0.0)


def test_distribution_distance_errors():
    with pytest.raises(SchemaError):
        distribution_distance({"a1": 1.0}, {"b1": 1.0})
    with pytest.raises(InputError):
        distribution_distance({"a1": 0.7}, {"a1": 1.0})
    with pytest.raises(MeasureUndefinedError):
        distribution_distance({"a1": 0.0, UNANNOTATED: 1.0}, {"a1": 1.0})


def test_distribution_distance_zero_iff_equal(rng):
    for _ in range(100):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        dp = {f"a{i}": float(p[i]) for i in range(4)}
        dq = {f"a{i}": float(q[i]) for i in range(4)}
        d = distribution_distance(dp, dq)
        assert (d < 1e-12) == bool(np.allclose(p, q, atol=1e-12))
        assert distribution_distance(dp, dp) == 0.0


# --------------------------------------------------------------------------
# user distance


def test_user_distance_examples():
    u1 = UserProfile("u1", {"gender": "f"}, {"city": "A", "age": 30.0})
    u2 = UserProfile("u2", {"gender": "m"}, {"city": "A", "age": 30.0})
    ranges = {"age": (20.0, 40.0)}
    # identical on relevant attributes, protected differs: distance 0
    assert user_distance(u1, u2, ["city", "age"], ranges) == 0.0

    u3 = UserProfile("u3", {"gender": "m"}, {"city": "B", "age": 30.0})
    # one categorical mismatch, one numeric match
    assert user_distance(u1, u3, ["city", "age"], ranges) == pytest.approx(0.5)

    u4 = UserProfile("u4", {"gender": "m"}, {"city": "A", "age": 40.0})
    # categorical match + numeric at half range: mean of {0, 0.5}
    assert user_distance(u1, u4, ["city", "age"], ranges) == pytest.approx(0.25)

    u5 = UserProfile("u5", {"gender": "m"}, {"city": "B", "age": 30.0})
    assert user_distance(u1, u5, ["city"]) == 1.0


def test_user_distance_errors():
    u1 = UserProfile("u1", {"gender": "f"}, {"city": "A", "age": 30.0})
    u2 = UserProfile("u2", {"gender": "m"}, {"city": "A", "age": 35.0})
    with pytest.raises(ParameterError):
        user_distance(u1, u2, [])
    with pytest.raises(ParameterError):
        user_distance(u1, u2, ["age"])  # no declared range
    with pytest.raises(ProfileError):
        user_distance(u1, u2, ["gender"])
    with pytest.raises(ProfileError):
        user_distance(u1, u2, ["missing"])


def test_user_distance_symmetric_and_protected_invariant(rng):
    ranges = {"age": (0.0, 100.0)}
    for _ in range(100):
        others = [
            {"city": str(rng.integers(3)), "age": float(rng.uniform(0, 100))} for _ in range(2)
        ]
        u1 = UserProfile("u1", {"gender": "f"}, others[0])
        u2 = UserProfile("u2", {"gender": str(rng.integers(5))}, others[1])
        d12 = user_distance(u1, u2, ["city", "age"], ranges)
        d21 = user_distance(u2, u1, ["city", "age"], ranges)
        assert d12 == pytest.approx(d21, abs=1e-12)
        assert 0.0 <= d12 <= 1.0
        flipped = UserProfile("u2", {"gender": "zzz"}, others[1])
        assert user_distance(u1, flipped, ["city", "age"], ranges) == d12


@pytest.mark.parametrize("weighting", ["uniform", "rank-discounted"])
def test_rank_weights_total_is_summed_left_to_right(weighting):
    """The rank-discounted total is a plain left-to-right float sum, the
    order every kernel adds in, not ``sum()``, which compensates from
    Python 3.12 on and so changes the weights' last bits there."""
    for n in range(1, 201):
        raw = [1.0 / math.log2(r + 1.0) for r in range(1, n + 1)] if weighting == "rank-discounted" else [1.0] * n
        total = 0.0
        for w in raw:
            total += w
        expected = [w / total for w in raw] if weighting == "rank-discounted" else [1.0 / n] * n
        assert rank_weights(n, weighting) == expected, n


def test_only_integer_counts_and_a_tolerance_check_call_the_builtin_sum():
    """Every float total a report carries is summed left to right: the only
    functions that call the built-in ``sum()`` add integers or check a
    tolerance, where its compensation from Python 3.12 on changes nothing."""
    callers = set()
    for path in sorted(Path(rankbias.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
                        callers.add(getattr(function, "name", "<lambda>"))
    assert callers == {"_profile_columns", "distribution_distance", "validate_file"}
