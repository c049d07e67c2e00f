"""Focused unit tests for internal helpers that the integration paths only
exercise indirectly."""

import numpy as np
import pytest

from repro.core.cftree import CFTree
from repro.metrics import EuclideanDistance
from repro.metrics.vector import as_matrix


class TestPartitionBySeeds:
    def partition(self, dm):
        return CFTree._partition_by_seeds(np.asarray(dm, dtype=float))

    def test_two_items(self):
        a, b = self.partition([[0, 5], [5, 0]])
        assert sorted(a + b) == [0, 1]
        assert len(a) == len(b) == 1

    def test_two_obvious_groups(self):
        # Items 0,1 close together; 2,3 close together; groups far apart.
        dm = np.array(
            [
                [0.0, 1.0, 10.0, 11.0],
                [1.0, 0.0, 9.0, 10.0],
                [10.0, 9.0, 0.0, 1.0],
                [11.0, 10.0, 1.0, 0.0],
            ]
        )
        a, b = self.partition(dm)
        groups = {frozenset(a), frozenset(b)}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_all_zero_distances_split_by_position(self):
        a, b = self.partition(np.zeros((4, 4)))
        assert sorted(a + b) == [0, 1, 2, 3]
        assert len(a) == 2 and len(b) == 2

    def test_every_index_assigned_exactly_once(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(9, 2))
        dm = EuclideanDistance().pairwise(list(pts))
        a, b = self.partition(dm)
        assert sorted(a + b) == list(range(9))


class TestAsMatrix:
    def test_list_of_arrays(self):
        out = as_matrix([np.zeros(3), np.ones(3)])
        assert out.shape == (2, 3)

    def test_existing_matrix(self):
        m = np.arange(6, dtype=float).reshape(2, 3)
        out = as_matrix(m)
        assert out.shape == (2, 3)

    def test_list_of_tuples(self):
        assert as_matrix([(1, 2), (3, 4)]).shape == (2, 2)

    def test_rejects_3d(self):
        from repro.exceptions import MetricError

        with pytest.raises(MetricError):
            as_matrix(np.zeros((2, 2, 2)))


class TestAsciiHeightGrowth:
    def test_height_grows_logarithmically_with_entries(self):
        """B-bounded nodes: #leaf entries <= B^height."""
        from repro.core.bubble import BubblePolicy

        metric = EuclideanDistance()
        policy = BubblePolicy(metric, representation_number=4, sample_size=8, seed=0)
        tree = CFTree(policy, branching_factor=4, threshold=0.0, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(500):
            tree.insert(rng.uniform(0, 1000, size=2))
        assert tree.n_clusters <= 4**tree.height


class TestReportHelpers:
    def test_results_fmt_large_small(self):
        from repro.experiments.results import _fmt

        assert _fmt(0.5) == "0.5"
        assert _fmt(1.23456789e9) == "1.235e+09"
        assert _fmt(1e-9) == "1.000e-09"
        assert _fmt("text") == "text"
        assert _fmt(0.0) == "0"
