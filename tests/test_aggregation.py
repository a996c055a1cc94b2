"""Aggregator tests: hand-derived Borda/median cases, unanimity and
neutrality properties, and exact-Kemeny agreement with a brute-force
enumeration oracle."""

import dataclasses
import itertools
import statistics

import numpy as np
import pytest

from rankbias import _vector
from rankbias import (
    ComplexityError,
    InputError,
    ListCollection,
    ParameterError,
    aggregate,
    aggregate_borda,
    aggregate_median_rank,
    kemeny_exact,
    kemeny_score,
)
from rankbias.types import RankedList, ResultItem

from conftest import make_list, weighted_list


# --------------------------------------------------------------------------
# independent oracle


def oracle_pair_penalty(ordering, lst_ids, p=0.5):
    """Score one ordering against one list, independent implementation."""
    pos = {x: i for i, x in enumerate(ordering)}
    in_list = {x: i for i, x in enumerate(lst_ids)}
    total = 0.0
    for x, y in itertools.combinations(ordering, 2):
        x_first = pos[x] < pos[y]
        if x in in_list and y in in_list:
            if (in_list[x] < in_list[y]) != x_first:
                total += 1.0
        elif x in in_list:
            if not x_first:
                total += 1.0
        elif y in in_list:
            if x_first:
                total += 1.0
        else:
            total += p
    return total


def oracle_kemeny(collection):
    """Enumerate all orderings; the lexicographically first optimum wins."""
    universe = sorted({i for lst in collection.lists for i in lst.item_ids()})
    best_order, best_score = None, float("inf")
    for perm in itertools.permutations(universe):
        score = sum(oracle_pair_penalty(perm, lst.item_ids()) for lst in collection.lists)
        if score < best_score - 1e-12:
            best_order, best_score = perm, score
    return best_order, best_score


def random_collection(rng, max_items=7, max_lists=5, conjoint=False):
    n_items = int(rng.integers(3, max_items + 1))
    n_lists = int(rng.integers(1, max_lists + 1))
    universe = np.array([f"x{i}" for i in range(n_items)])
    lists = []
    for li in range(n_lists):
        if conjoint:
            ids = rng.permutation(universe)
        else:
            depth = int(rng.integers(2, n_items + 1))
            ids = rng.choice(universe, size=depth, replace=False)
        lists.append(make_list(ids, user=f"u{li}"))
    return ListCollection(lists)


# --------------------------------------------------------------------------
# borda


def test_borda_single_and_unanimous():
    lst = make_list(["x3", "x1", "x2"])
    single = aggregate_borda(ListCollection([lst]), 3)
    assert single.item_ids() == lst.item_ids()
    two = aggregate_borda(ListCollection([lst, make_list(["x3", "x1", "x2"], user="u1")]), 2)
    assert two.item_ids() == ("x3", "x1")


def test_borda_full_tie_breaks_lexicographically():
    # [x1,x2,x3] and [x3,x2,x1]: every item scores 4, so id order decides
    a = make_list(["x1", "x2", "x3"])
    b = make_list(["x3", "x2", "x1"], user="u1")
    rep = aggregate_borda(ListCollection([a, b]), 3)
    assert rep.item_ids() == ("x1", "x2", "x3")


def test_borda_scores_absent_items_zero():
    a = make_list(["x1", "x2"])
    b = make_list(["x3"], user="u1")
    # scores: x1=2, x2=1, x3=1 -> x2 beats x3 by id on the tie
    rep = aggregate_borda(ListCollection([a, b]), 3)
    assert rep.item_ids() == ("x1", "x2", "x3")


def test_borda_merges_annotations():
    a = weighted_list([{"a1": 1.0}], user="u0", prefix="s")
    b = weighted_list([{"a2": 1.0}], user="u1", prefix="s")
    rep = aggregate_borda(ListCollection([a, b]), 1)
    assert rep.items[0].annotations["stance"] == pytest.approx({"a1": 0.5, "a2": 0.5})


def test_merged_annotations_list_only_the_values_their_occurrences_carry():
    """A merged vector lists each value some occurrence of its item carries,
    with weight 0 too, and no other value of the attribute; an attribute no
    occurrence annotates stays absent."""
    a = RankedList("q0", "u0", (
        ResultItem("s0", {"stance": {"a1": 1.0}, "topic": "unannotated"}),
        ResultItem("s1", {"stance": {"a2": 0.25, "a3": 0.75}}),
    ))
    b = RankedList("q0", "u1", (
        ResultItem("s0", {"stance": {"a2": 1.0}}),
        ResultItem("s1", {"stance": {"a1": 0.0, "a3": 1.0}}),
    ))
    rep = aggregate_borda(ListCollection([a, b]), 2)
    assert [item.annotations for item in rep.items] == [
        {"stance": {"a1": 0.5, "a2": 0.5}},
        {"stance": {"a1": 0.0, "a2": 0.125, "a3": 0.875}},
    ]


def test_borda_empty_collection():
    with pytest.raises(InputError):
        aggregate_borda(ListCollection([]), 3)


def oracle_borda(collection, k):
    """Borda by a dict of scores, independent of the score table."""
    scores = {}
    for lst in collection.lists:
        for rank0, item_id in enumerate(lst.item_ids()):
            scores[item_id] = scores.get(item_id, 0.0) + (lst.depth - rank0)
    return tuple(sorted(scores, key=lambda item_id: (-scores[item_id], item_id))[:k])


def test_borda_matches_oracle(rng):
    # small pools and many lists make score ties common
    for _ in range(300):
        coll = random_collection(rng, max_items=6, max_lists=8)
        k = int(rng.integers(1, 8))
        assert aggregate_borda(coll, k).item_ids() == oracle_borda(coll, k)


# --------------------------------------------------------------------------
# median rank


def test_median_rank_single_and_unanimous():
    lst = make_list(["x2", "x3", "x1"])
    assert aggregate_median_rank(ListCollection([lst]), 3).item_ids() == lst.item_ids()
    two = ListCollection([lst, make_list(["x2", "x3", "x1"], user="u1")])
    assert aggregate_median_rank(two, 3).item_ids() == lst.item_ids()


def test_median_rank_ordering_example():
    # x1 at ranks {1,1,3}, x2 at {2,2,1}: medians 1 vs 2
    lists = [
        make_list(["x1", "x2", "x3"], user="u0"),
        make_list(["x1", "x2", "x3"], user="u1"),
        make_list(["x2", "x3", "x1"], user="u2"),
    ]
    rep = aggregate_median_rank(ListCollection(lists), 3)
    assert rep.item_ids()[0] == "x1"
    assert rep.item_ids()[1] == "x2"


def test_median_rank_absent_items_get_depth_plus_one():
    lists = [make_list(["x1", "x2"], user="u0"), make_list(["x1"], user="u1")]
    rep = aggregate_median_rank(ListCollection(lists), 2)
    # x2 ranks: (2, 2) vs x1 ranks (1, 1)
    assert rep.item_ids() == ("x1", "x2")


def oracle_median_rank(collection, k):
    """Median-rank order by per-item rank lists, statistics.median and
    statistics.fmean, independent of the vectorized aggregator."""
    ranks = {item_id: [] for lst in collection.lists for item_id in lst.item_ids()}
    for lst in collection.lists:
        position = {item.item_id: rank0 + 1 for rank0, item in enumerate(lst.items)}
        for item_id, item_ranks in ranks.items():
            item_ranks.append(position.get(item_id, lst.depth + 1))
    key = lambda item_id: (statistics.median(ranks[item_id]), statistics.fmean(ranks[item_id]), item_id)
    return tuple(sorted(ranks, key=key)[:k])


def random_median_collection(rng):
    """Few short lists over a small universe (ties in median and mean are
    common), unequal depths, now and then an empty list, and now and then
    lists over disjoint universes."""
    n_items = int(rng.integers(1, 13))
    n_lists = int(rng.integers(1, 7))
    disjoint = rng.random() < 0.2
    lists = []
    for li in range(n_lists):
        universe = [f"x{i}" for i in range(n_items)]
        if disjoint:
            universe = [f"{x}_{li}" for x in universe]
        depth = int(rng.integers(0 if rng.random() < 0.1 else 1, n_items + 1))
        lists.append(make_list(rng.choice(universe, size=depth, replace=False), user=f"u{li}"))
    return ListCollection(lists)


def test_median_rank_matches_oracle(rng):
    shapes = set()
    for _ in range(400):
        coll = random_median_collection(rng)
        k = int(rng.integers(1, 15))
        assert aggregate_median_rank(coll, k).item_ids() == oracle_median_rank(coll, k)
        shapes.add(len(coll.lists) == 1)
        shapes.add(len({lst.depth for lst in coll.lists}) > 1)
    assert shapes == {True, False}


def test_median_ranks_order_a_block_of_weightings(rng):
    """Each row of a block of integer row multiplicities orders its
    occurring items like the oracle over the multiset of lists it weights."""
    for _ in range(150):
        coll = random_median_collection(rng)
        batch = ListCollection(coll.lists)
        pool = batch.pool
        weights, multisets = weighted_multisets(rng, coll, int(rng.integers(1, 6)))
        order, held = _vector.RankTable(batch).order(weights, "median")
        for r, multiset in enumerate(multisets):
            expected = oracle_median_rank(multiset, len(pool) + 1)
            assert tuple(pool[i] for i in order[r, : held[r]].tolist()) == expected


def weighted_multisets(rng, coll, rows):
    """A block of integer row multiplicities over ``coll``'s lists, zeros
    included (so some items may be held by no weighted list), and for each
    row the multiset of lists it weights."""
    weights = rng.integers(0, 4, size=(rows, len(coll.lists))).astype(float)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    return weights, [
        ListCollection([lst for lst, times in zip(coll.lists, w) for _ in range(times)])
        for w in weights.astype(int).tolist()
    ]


def test_borda_scores_order_a_block_of_weightings(rng):
    for _ in range(150):
        coll = random_median_collection(rng)
        batch = ListCollection(coll.lists)
        weights, multisets = weighted_multisets(rng, coll, int(rng.integers(1, 6)))
        order, held = _vector.RankTable(batch).order(weights, "borda")
        for r, multiset in enumerate(multisets):
            expected = oracle_borda(multiset, len(batch.pool) + 1)
            assert tuple(batch.pool[i] for i in order[r, : held[r]].tolist()) == expected


def test_kemeny_orders_a_block_of_weightings(rng):
    unheld = 0
    for _ in range(60):
        coll = random_collection(rng, max_items=6, max_lists=4)
        batch = ListCollection(coll.lists)
        weights, multisets = weighted_multisets(rng, coll, int(rng.integers(1, 5)))
        order, held = _vector.RankTable(batch).order(weights, "kemeny")
        for r, multiset in enumerate(multisets):
            expected, _ = oracle_kemeny(multiset)
            assert tuple(batch.pool[i] for i in order[r, : held[r]].tolist()) == expected
            assert sorted(order[r].tolist()) == list(range(len(batch.pool)))
            unheld += held[r] < len(batch.pool)
    assert unheld > 0


def test_kemeny_guard_names_the_row_that_holds_too_many_items():
    lists = [make_list(["x0", "x1"], user="u0"), make_list([f"x{i}" for i in range(11)], user="u1")]
    table = _vector.RankTable(ListCollection(lists))
    assert table.order(np.array([[1.0, 0.0]]), "kemeny")[1].tolist() == [2]
    with pytest.raises(ComplexityError, match="got 11"):
        table.order(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), "kemeny")


def test_median_rank_ties_break_by_mean_then_id():
    # x1 ranks (1, 3, 3): median 3, mean 7/3; x2 ranks (3, 1, 3): same, so
    # x1 wins on id; x3 ranks (2, 2, 2): median 2 first; x4 ranks (3, 3, 1)
    # ties x1 and x2 on both keys
    lists = [
        make_list(["x1", "x3"], user="u0"),
        make_list(["x2", "x3"], user="u1"),
        make_list(["x4", "x3"], user="u2"),
    ]
    coll = ListCollection(lists)
    assert aggregate_median_rank(coll, 4).item_ids() == ("x3", "x1", "x2", "x4")
    # even count: medians average the two middle ranks; mean breaks the tie
    lists = [make_list(["x1", "x2"], user="u0"), make_list(["x2", "x1", "x3"], user="u1")]
    assert aggregate_median_rank(ListCollection(lists), 3).item_ids() == ("x1", "x2", "x3")


def test_median_rank_disjoint_lists():
    lists = [make_list(["a", "b"], user="u0"), make_list(["c"], user="u1"), make_list(["d", "e", "f"], user="u2")]
    # ranks a (1, 2, 4), b (2, 2, 4), c (3, 1, 4), d (3, 2, 1), e (3, 2, 2),
    # f (3, 2, 3): medians 2 2 3 2 2 3, means 7/3 8/3 8/3 2 7/3 8/3
    assert aggregate_median_rank(ListCollection(lists), 6).item_ids() == ("d", "a", "e", "b", "c", "f")
    assert aggregate_median_rank(ListCollection(lists[:2]), 3).item_ids() == ("a", "b", "c")


# --------------------------------------------------------------------------
# kemeny


def test_kemeny_single_list_is_identity():
    lst = make_list(["x2", "x0", "x1"])
    assert kemeny_exact(ListCollection([lst])).item_ids() == lst.item_ids()


def test_kemeny_unanimity():
    lists = [make_list(["x1", "x2", "x0"], user=f"u{i}") for i in range(3)]
    assert kemeny_exact(ListCollection(lists)).item_ids() == ("x1", "x2", "x0")


def test_kemeny_guard():
    lst = make_list([f"x{i}" for i in range(11)])
    with pytest.raises(ComplexityError):
        kemeny_exact(ListCollection([lst]))


def test_kemeny_score_matches_oracle(rng):
    for _ in range(50):
        coll = random_collection(rng, max_items=6)
        universe = sorted({i for lst in coll.lists for i in lst.item_ids()})
        perm = tuple(rng.permutation(universe))
        expected = sum(oracle_pair_penalty(perm, lst.item_ids()) for lst in coll.lists)
        assert kemeny_score(perm, coll) == pytest.approx(expected, abs=1e-12)


def test_kemeny_exact_matches_enumeration(rng):
    for _ in range(60):
        coll = random_collection(rng, max_items=6)
        got = kemeny_exact(coll)
        want_order, want_score = oracle_kemeny(coll)
        assert got.item_ids() == want_order
        assert kemeny_score(got, coll) == pytest.approx(want_score, abs=1e-12)


def test_kemeny_optimal_at_eight_items(rng):
    coll = random_collection(rng, max_items=8, max_lists=3, conjoint=True)
    while len({i for lst in coll.lists for i in lst.item_ids()}) != 8:
        coll = random_collection(rng, max_items=8, max_lists=3, conjoint=True)
    got = kemeny_exact(coll)
    got_score = kemeny_score(got, coll)
    universe = sorted({i for lst in coll.lists for i in lst.item_ids()})
    optimum = min(
        sum(oracle_pair_penalty(perm, lst.item_ids()) for lst in coll.lists)
        for perm in itertools.permutations(universe)
    )
    assert got_score <= optimum + 1e-12
    borda_score = kemeny_score(aggregate_borda(coll, 8), coll)
    assert borda_score <= 5.0 * optimum + 1e-9


# --------------------------------------------------------------------------
# the collection type


def test_collection_compares_and_shows_its_lists_and_label_only():
    """The encoding is derived state: equality and repr see the lists and
    the label, a replaced label re-encodes, and an empty collection is
    refused only when it is aggregated."""
    lists = [make_list(["x1", "x2"], user="u0"), make_list(["x2", "x3"], user="u1")]
    coll = ListCollection(lists, "all")
    assert coll == ListCollection(iter(lists), "all") and coll != ListCollection(lists)
    assert repr(coll) == f"ListCollection(lists={tuple(lists)!r}, label='all')"
    relabeled = dataclasses.replace(coll, label="P")
    assert relabeled.label == "P" and relabeled.lists == coll.lists and relabeled.pool == ("x1", "x2", "x3")
    assert [row.tolist() for row in relabeled.rows] == [[0, 1], [1, 2]]
    empty = ListCollection([])
    assert empty.lists == () and empty.pool == () and empty.depths.size == 0
    with pytest.raises(InputError, match="empty list collection"):
        aggregate_borda(empty, 3)


def test_an_unknown_method_is_a_parameter_error():
    with pytest.raises(ParameterError, match="unknown aggregation method 'bogus'"):
        aggregate(ListCollection([make_list(["x1", "x2"])]), 2, "bogus")


# --------------------------------------------------------------------------
# shared aggregator properties


@pytest.mark.parametrize("agg", [aggregate_borda, aggregate_median_rank])
def test_unanimity_property(rng, agg):
    for _ in range(25):
        ids = rng.permutation([f"x{i}" for i in range(6)])
        lists = [make_list(ids, user=f"u{i}") for i in range(int(rng.integers(1, 5)))]
        k = int(rng.integers(1, 7))
        assert agg(ListCollection(lists), k).item_ids() == tuple(ids)[:k]


def test_neutrality_on_tie_free_instances(rng):
    # consistent item relabeling permutes the output consistently
    for _ in range(25):
        coll = random_collection(rng, max_items=6, conjoint=True)
        rep = aggregate_borda(coll, 6)
        universe = sorted({i for lst in coll.lists for i in lst.item_ids()})
        scores = {}
        for lst in coll.lists:
            for r, item in enumerate(lst.items):
                scores[item.item_id] = scores.get(item.item_id, 0) + lst.depth - r
        if len(set(scores.values())) != len(scores):
            continue  # ties would legitimately break by label
        relabel = {x: f"z{i}" for i, x in enumerate(rng.permutation(universe))}
        relabeled = ListCollection(
            [make_list([relabel[i] for i in lst.item_ids()], user=lst.user_id) for lst in coll.lists]
        )
        rep2 = aggregate_borda(relabeled, 6)
        assert rep2.item_ids() == tuple(relabel[i] for i in rep.item_ids())


def test_borda_kemeny_score_within_factor_five(rng):
    for _ in range(40):
        coll = random_collection(rng, max_items=6, conjoint=True)
        universe = sorted({i for lst in coll.lists for i in lst.item_ids()})
        borda = aggregate_borda(coll, len(universe))
        _, opt = oracle_kemeny(coll)
        assert kemeny_score(borda, coll) <= 5.0 * opt + 1e-9
