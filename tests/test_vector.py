"""All-pairs list kernels against their scalar oracles: exact equality on
seeded random instances and on the edge cases."""

import warnings

import numpy as np
import pytest

from rankbias import _vector
from rankbias.distances import _kendall_ids, _rbo_ids, _topk_ids
from rankbias.errors import DegenerateInputWarning

from conftest import make_list

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
    for _ in range(200):
        pool = int(rng.integers(1, 20))
        rows = [
            rng.choice(pool, size=int(rng.integers(0, min(pool, 10) + 1)), replace=False).tolist()
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


def test_two_row_call_like_the_significance_context(rng):
    pool_size = 40
    for _ in range(50):
        rep_p = np.lexsort((np.arange(pool_size), -rng.integers(0, 5, pool_size)))[: int(rng.integers(0, 25))]
        rep_q = np.lexsort((np.arange(pool_size), -rng.integers(0, 5, pool_size)))[: int(rng.integers(1, 25))]
        for kind in KINDS:
            got = float(_vector.list_distance_matrix([rep_p, rep_q], kind, 10, 0.9)[0, 1])
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
    lists = [make_list(["b", "a", "c"]), make_list(["c", "d"]), make_list([])]
    pool = _vector.item_pool(lists)
    assert pool == ("a", "b", "c", "d")
    seqs = _vector.encode_lists(lists, pool)
    assert [s.tolist() for s in seqs] == [[1, 0, 2], [2, 3], []]
    assert_kernels_match([s.tolist() for s in seqs])
