"""List kernels, all-pairs and paired, against their scalar oracles: exact
equality on seeded random instances and on the edge cases."""

import warnings

import numpy as np
import pytest

from rankbias import _vector
from rankbias.aggregation import ListCollection
from rankbias.distances import _kendall_ids, _rbo_ids, _topk_ids, user_distance
from rankbias.errors import DegenerateInputWarning, ParameterError
from rankbias.types import RankedList, ResultItem

from conftest import make_list, profile

KINDS = ("kendall", "rbo", "topk")

EDGE_CASES = {
    "no rows": [],
    "one row": [[4, 2]],
    "empty lists": [[], [], [1, 2]],
    "disjoint lists": [[0, 1, 2], [3, 4, 5], [6]],
    "one-item unions": [[0], [0], [], [1]],
    "unequal depths": [[0, 1, 2, 3, 4, 5], [2, 0], [5, 4, 3, 2, 1, 0, 6, 7], [7]],
    "identical rows": [[3, 1, 2], [3, 1, 2], [1, 3, 2], [3, 1, 2, 0]],
}


def oracle(kind, a, b, p, k):
    a, b = [f"i{x:03d}" for x in a], [f"i{x:03d}" for x in b]
    if kind == "kendall":
        return _kendall_ids(a, b)
    if kind == "rbo":
        return _rbo_ids(a, b, p)
    return _topk_ids(a, b, k)


def assert_kernels_match(rows, p=0.9, k=3):
    seqs = [np.asarray(row, dtype=np.int64) for row in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        for kind in KINDS:
            matrix = _vector.list_distance_matrix(seqs, kind, k, p)
            assert matrix.shape == (len(rows), len(rows))
            assert np.array_equal(matrix, matrix.T), kind
            assert not matrix.diagonal().any(), kind
            for i, a in enumerate(rows):
                for j, b in enumerate(rows[:i]):
                    assert matrix[i, j] == oracle(kind, a, b, p, k), (kind, a, b)


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_kernels_match_oracles_on_edge_cases(case):
    assert_kernels_match(EDGE_CASES[case])


def test_kernels_match_oracles_on_random_instances(rng):
    # pools and depths as large as the workloads'
    for _ in range(200):
        pool = int(rng.integers(1, 61))
        rows = [
            rng.choice(pool, size=int(rng.integers(0, min(pool, 50) + 1)), replace=False).tolist()
            for _ in range(int(rng.integers(1, 7)))
        ]
        if len(rows) > 1 and rng.random() < 0.3:
            rows[1] = list(rows[0])
        assert_kernels_match(rows, p=float(rng.choice([0.5, 0.9, 0.98])), k=int(rng.integers(1, 9)))


def test_kernels_match_oracles_across_chunks(rng):
    # 30 rows over a pool of 150 span several Kendall column chunks and
    # several RBO depth chunks
    rows = [rng.choice(150, size=int(rng.integers(40, 51)), replace=False).tolist() for _ in range(30)]
    rows[1] = list(rows[0])
    assert_kernels_match(rows, k=25)


def assert_paired_kernels_match(pairs, p=0.9, k=3):
    """A paired call over the first and second rows of ``pairs`` equals the
    oracle and the all-pairs [i, n + i] entry of every pair, and warns of
    nothing, not even of a pair of two empty rows."""
    seqs = [np.asarray(a, dtype=np.int64) for a, _ in pairs] + [np.asarray(b, dtype=np.int64) for _, b in pairs]
    n = len(pairs)
    for kind in KINDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateInputWarning)
            paired = _vector.list_distance_matrix(seqs, kind, k, p, paired=True)
        assert paired.shape == (n,), kind
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateInputWarning)
            matrix = _vector.list_distance_matrix(seqs, kind, k, p)
            assert np.array_equal(paired, matrix[np.arange(n), np.arange(n, 2 * n)]), kind
            for got, (a, b) in zip(paired.tolist(), pairs):
                assert got == oracle(kind, list(a), list(b), p, k), (kind, a, b)


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_paired_kernels_match_oracles_on_edge_cases(case):
    rows = EDGE_CASES[case]
    assert_paired_kernels_match(list(zip(rows, rows[::-1])))


def test_paired_kernels_match_oracles_across_chunks(rng):
    # 30 pairs over a pool of 150 span several Kendall column chunks and
    # several RBO depth chunks
    def row():
        return rng.choice(150, size=int(rng.integers(40, 51)), replace=False).tolist()

    pairs = [(row(), row()) for _ in range(26)]
    same = row()
    pairs += [([], []), ([], row()), (row(), []), (same, list(same))]
    order = rng.permutation(len(pairs))
    assert_paired_kernels_match([pairs[i] for i in order], p=0.98, k=25)


def test_paired_kernels_match_oracles_on_random_instances(rng):
    for _ in range(100):
        pool = int(rng.integers(1, 20))

        def row():
            return rng.choice(pool, size=int(rng.integers(0, min(pool, 10) + 1)), replace=False).tolist()

        pairs = [(row(), row()) for _ in range(int(rng.integers(1, 6)))]
        if rng.random() < 0.3:
            pairs[0] = (pairs[0][0], list(pairs[0][0]))
        assert_paired_kernels_match(pairs, p=float(rng.choice([0.5, 0.9, 0.98])), k=int(rng.integers(1, 9)))


def test_two_row_call_like_the_significance_context(rng):
    pool_size = 40
    for _ in range(50):
        rep_p = np.lexsort((np.arange(pool_size), -rng.integers(0, 5, pool_size)))[: int(rng.integers(0, 25))]
        rep_q = np.lexsort((np.arange(pool_size), -rng.integers(0, 5, pool_size)))[: int(rng.integers(1, 25))]
        for kind in KINDS:
            (got,) = _vector.list_distance_matrix([rep_p, rep_q], kind, 10, 0.9, paired=True).tolist()
            assert got == oracle(kind, rep_p.tolist(), rep_q.tolist(), 0.9, 10), kind


@pytest.mark.parametrize("kind", KINDS)
def test_kernels_warn_once_per_call_on_two_empty_rows(kind):
    empty = np.empty(0, dtype=np.int64)
    with pytest.warns(DegenerateInputWarning) as caught:
        matrix = _vector.list_distance_matrix([empty, np.array([0, 1]), empty, empty], kind, 5, 0.9)
    assert len(caught) == 1
    assert matrix[0, 2] == 0.0 and matrix[0, 1] == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateInputWarning)
        _vector.list_distance_matrix([empty, np.array([0, 1])], kind, 5, 0.9)


def test_encoding_is_shared_by_every_kernel():
    lists = [make_list(["b", "a", "c"]), make_list(["c", "d"]), make_list([]), make_list(["b", "a", "c"])]
    batch = ListCollection(lists)
    assert batch.pool == ("a", "b", "c", "d")
    assert [s.tolist() for s in batch.rows] == [[1, 0, 2], [2, 3], [], [1, 0, 2]]
    assert batch.depths.tolist() == [3, 2, 0, 3]
    assert batch.labels.tolist() == [0, 1, 2, 0]
    # one flat occurrence array, read-only, under every row
    assert len({id(row.base) for row in batch.rows}) == 1
    assert not batch.rows[0].flags.writeable
    assert_kernels_match([s.tolist() for s in batch.rows])


def test_batch_items_are_the_distinct_objects_in_first_appearance_order(rng):
    a, b, c = ResultItem("a"), ResultItem("b"), ResultItem("c")
    # equal to a, and an item b with another annotation: distinct objects both
    a2, b2 = ResultItem("a"), ResultItem("b", {"stance": {"a1": 1.0}})
    lists = [RankedList("q0", "u0", (c, a)), RankedList("q0", "u1", (a, b, c)), RankedList("q0", "u2", ()),
             RankedList("q0", "u3", (b2, a2))]
    batch = ListCollection(lists)
    assert [id(item) for item in batch.items] == [id(c), id(a), id(b), id(b2), id(a2)]
    assert batch.occurrence.dtype == np.int32 and batch.occurrence.tolist() == [0, 1, 1, 2, 0, 3, 4]
    assert batch.pool == ("a", "b", "c")
    assert [s.tolist() for s in batch.rows] == [[2, 0], [0, 1, 2], [], [1, 0]]
    # shared objects drawn at random: items[occurrence] gives back every occurrence
    shared = [ResultItem(f"i{j:02d}") for j in range(30)]
    lists = [RankedList("q0", f"u{u}", [shared[j] for j in rng.permutation(30)[: int(rng.integers(0, 12))]])
             for u in range(20)]
    batch = ListCollection(lists)
    occurrences = [item for lst in lists for item in lst.items]
    assert [id(batch.items[i]) for i in batch.occurrence.tolist()] == [id(item) for item in occurrences]
    assert [id(item) for item in batch.items] == list({id(item): None for item in occurrences})


def test_empty_batch():
    batch = ListCollection([])
    assert batch.pool == () and batch.rows == () and batch.depths.size == 0 and batch.labels.size == 0
    assert batch.items == () and batch.occurrence.size == 0
    batch = ListCollection([RankedList("q0", "u0", ()), RankedList("q0", "u1", ())])
    assert batch.items == () and batch.occurrence.size == 0 and [s.size for s in batch.rows] == [0, 0]


def assert_subset_matches_reencoding(rows, subset, p=0.9, k=3):
    """Each kernel over ``subset`` of a batch's rows equals the kernel over
    the same lists encoded as a batch of their own, bit for bit."""
    lists = [make_list([f"i{x:03d}" for x in row], user=f"u{i}") for i, row in enumerate(rows)]
    batch = ListCollection(lists)
    alone = ListCollection([lists[i] for i in subset])
    assert [alone.rows[j].size for j in range(len(subset))] == [batch.rows[i].size for i in subset]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        for kind in KINDS:
            got = _vector.list_distance_matrix([batch.rows[i] for i in subset], kind, k, p)
            expected = _vector.list_distance_matrix(alone.rows, kind, k, p)
            assert np.array_equal(got, expected), (kind, rows, subset)


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_kernels_on_a_subset_of_rows_match_reencoding_on_edge_cases(case):
    rows = EDGE_CASES[case]
    # every subset leaving one row out, and the whole batch
    for drop in range(len(rows) + 1):
        assert_subset_matches_reencoding(rows, [i for i in range(len(rows)) if i != drop])


def test_kernels_on_a_subset_of_rows_match_reencoding(rng):
    for _ in range(200):
        pool = int(rng.integers(1, 30))
        rows = [
            rng.choice(pool, size=int(rng.integers(0, min(pool, 10) + 1)), replace=False).tolist()
            for _ in range(int(rng.integers(1, 9)))
        ]
        if len(rows) > 1 and rng.random() < 0.3:
            rows[1] = list(rows[0])
        subset = np.flatnonzero(rng.random(len(rows)) < 0.6).tolist()
        assert_subset_matches_reencoding(rows, subset, p=float(rng.choice([0.5, 0.9, 0.98])), k=int(rng.integers(1, 9)))


def test_user_distance_matrix_follows_the_scalar_per_pair_on_a_mixed_column():
    """Numbers compare by the numeric term and everything else by equality,
    pair by pair: a string in the column changes no pair of numbers, and
    JSON lists and objects, which are not hashable, compare by value."""
    ranges = {"age": (0, 100)}
    ages = [30, 40, "unknown", 55.5, "unknown", True, 1, "30", ["a", 1], {"b": [2]}, ["a", 1.0], {"b": [2]}, [30]]
    profiles = [profile(f"u{i}", age=age, city="AB"[i % 2]) for i, age in enumerate(ages)]
    matrix = _vector.user_distance_matrix(profiles, ["age", "city"], ranges)
    for i, a in enumerate(profiles):
        for j, b in enumerate(profiles):
            assert matrix[i, j] == user_distance(a, b, ["age", "city"], ranges), (ages[i], ages[j])
            pair = _vector.user_distance_matrix([a, b], ["age", "city"], ranges)
            assert pair[0, 1] == matrix[i, j], (ages[i], ages[j])
    assert _vector.user_distance_matrix(profiles[:3], ["age"], ranges)[0, 1] == 0.1


def test_user_distance_matrix_needs_a_range_only_for_two_numbers():
    one_number = [profile("u0", age=30), profile("u1", age="unknown"), profile("u2", age="old")]
    assert _vector.user_distance_matrix(one_number, ["age"]).tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    with pytest.raises(ParameterError, match="no declared range"):
        _vector.user_distance_matrix(one_number + [profile("u3", age=40)], ["age"])
