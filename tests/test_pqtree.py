"""The reference PQ-tree's answers are checked against exhaustive
permutation search."""

import random

import pytest

from pqtree_reference import (
    PQTree,
    consecutive_arrangement,
    consecutive_arrangement_exhaustive,
)


def is_consecutive(order, row):
    positions = sorted(order.index(c) for c in row)
    return positions[-1] - positions[0] + 1 == len(positions)


def assert_agreement(rows, size):
    fast = consecutive_arrangement(rows, size)
    slow = consecutive_arrangement_exhaustive(rows, size)
    assert (fast is None) == (slow is None), (rows, size, fast, slow)
    for result in (fast, slow):
        if result is not None:
            assert sorted(result) == list(range(size))
            for row in rows:
                assert is_consecutive(result, row), (rows, result)


def test_trivial_sizes():
    assert consecutive_arrangement([], 0) == []
    assert consecutive_arrangement([{0}], 1) == [0]
    assert consecutive_arrangement([{0, 1}], 2) in ([0, 1], [1, 0])


def test_known_infeasible():
    # three pairwise overlapping doubletons sharing no common column
    rows = [{0, 1}, {1, 2}, {0, 2}, {0, 3}]
    assert_agreement(rows, 4)
    assert consecutive_arrangement(rows, 4) is None


def test_star_incidence_feasible_only_up_to_two_rows():
    # a column required adjacent to three mutually exclusive blocks
    rows = [{0, 1}, {0, 2}, {0, 3}]
    assert consecutive_arrangement(rows, 4) is None


def test_interval_like_instance():
    rows = [{0, 1}, {1, 2}, {2, 3}, {1, 2, 3}]
    assert_agreement(rows, 4)


def test_frontier_respects_all_constraints_incrementally():
    rng = random.Random(7)
    for trial in range(300):
        size = rng.randint(1, 8)
        tree = PQTree(size)
        applied = []
        for _ in range(rng.randint(0, 7)):
            row = set(rng.sample(range(size), rng.randint(1, size)))
            if tree.reduce(row):
                applied.append(row)
                frontier = tree.frontier()
                assert sorted(frontier) == list(range(size))
                for earlier in applied:
                    assert is_consecutive(frontier, earlier), (applied, frontier)


def test_random_agreement_with_exhaustive():
    rng = random.Random(42)
    for trial in range(400):
        size = rng.randint(2, 7)
        rows = [
            set(rng.sample(range(size), rng.randint(2, size)))
            for _ in range(rng.randint(0, 6))
        ]
        assert_agreement(rows, size)


def test_consecutive_runs_instances():
    # rows built from genuine runs of a hidden order are always feasible
    rng = random.Random(99)
    for trial in range(200):
        size = rng.randint(2, 9)
        hidden = list(range(size))
        rng.shuffle(hidden)
        rows = []
        for _ in range(rng.randint(1, 8)):
            a = rng.randint(0, size - 1)
            b = rng.randint(a, size - 1)
            rows.append(set(hidden[a : b + 1]))
        result = consecutive_arrangement(rows, size)
        assert result is not None
        for row in rows:
            assert is_consecutive(result, row)


def test_reduce_rejects_out_of_range():
    tree = PQTree(3)
    with pytest.raises(ValueError):
        tree.reduce({0, 5})


def test_failed_reduce_keeps_tree_usable():
    tree = PQTree(4)
    assert tree.reduce({0, 1})
    assert tree.reduce({1, 2})
    assert tree.reduce({2, 3})
    before = tree.frontier()
    assert not tree.reduce({0, 2})  # would break 0-1-2-3 chain structure
    assert tree.frontier() == before
