"""Unit and property tests for the M-tree metric index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EmptyDatasetError, ParameterError
from repro.metrics import EditDistance, EuclideanDistance
from repro.mtree import MTree


def brute_knn(metric, objects, query, k):
    dists = sorted((metric._distance(query, o), i) for i, o in enumerate(objects))
    return [d for d, _ in dists[:k]]


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MTree("not a metric")
        with pytest.raises(ParameterError):
            MTree(EuclideanDistance(), node_capacity=1)

    def test_empty(self):
        tree = MTree(EuclideanDistance())
        assert len(tree) == 0
        with pytest.raises(EmptyDatasetError):
            tree.nearest(np.zeros(2), 1)

    def test_build_and_len(self, rng):
        pts = list(rng.normal(size=(50, 2)))
        tree = MTree(EuclideanDistance(), node_capacity=4).build(pts)
        assert len(tree) == 50
        tree.check_invariants()
        assert tree.height >= 2

    def test_items_round_trip(self, rng):
        pts = [tuple(p) for p in rng.normal(size=(30, 2))]
        tree = MTree(EuclideanDistance(), node_capacity=4).build(pts)
        assert sorted(tree.items()) == sorted(pts)

    def test_duplicate_objects(self):
        tree = MTree(EditDistance(), node_capacity=3)
        for _ in range(10):
            tree.insert("same")
        tree.check_invariants()
        assert len(tree.within("same", 0)) == 10


class TestRangeQuery:
    def test_matches_brute_force(self, rng):
        pts = list(rng.uniform(0, 10, size=(80, 2)))
        tree = MTree(EuclideanDistance(), node_capacity=5).build(pts)
        q = np.array([5.0, 5.0])
        got = tree.within(q, 2.0)
        expected = [i for i, p in enumerate(pts) if np.linalg.norm(p - q) <= 2.0]
        assert sorted(got.indices) == expected
        assert {tuple(g) for g in got.objects} == {tuple(pts[i]) for i in expected}

    def test_zero_radius_exact_match(self):
        tree = MTree(EditDistance(), node_capacity=3).build(["a", "b", "ab"])
        assert tree.within("ab", 0).objects == ["ab"]

    def test_negative_radius_rejected(self):
        tree = MTree(EuclideanDistance()).build([np.zeros(2)])
        with pytest.raises(ParameterError):
            tree.within(np.zeros(2), -1.0)

    def test_radius_covers_all(self, rng):
        pts = list(rng.normal(size=(40, 2)))
        tree = MTree(EuclideanDistance(), node_capacity=4).build(pts)
        assert len(tree.within(np.zeros(2), 1e6)) == 40


class TestKnn:
    def test_matches_brute_force(self, rng):
        pts = list(rng.uniform(0, 10, size=(60, 3)))
        metric = EuclideanDistance()
        tree = MTree(metric, node_capacity=4).build(pts)
        q = rng.uniform(0, 10, size=3)
        got = tree.nearest(q, 5)
        np.testing.assert_allclose(
            got.distances, brute_knn(EuclideanDistance(), pts, q, 5)
        )

    def test_knn_on_strings(self):
        words = ["cat", "cart", "carts", "dog", "dig", "cog", "cot"]
        tree = MTree(EditDistance(), node_capacity=3).build(words)
        result = tree.nearest("cat", 2)
        assert result.neighbors[0].obj == "cat"
        assert result.distances == [0.0, 1.0]

    def test_k_larger_than_size(self, rng):
        pts = list(rng.normal(size=(5, 2)))
        tree = MTree(EuclideanDistance()).build(pts)
        assert len(tree.nearest(np.zeros(2), 10)) == 5

    def test_nearest(self, rng):
        pts = list(rng.normal(size=(20, 2)))
        tree = MTree(EuclideanDistance(), node_capacity=4).build(pts)
        result = tree.nearest(pts[7])
        assert result.neighbors[0].index == 7
        assert result.neighbors[0].distance == pytest.approx(0.0, abs=1e-12)

    def test_knn_prunes_versus_linear_scan(self, rng):
        # On clustered data the index must beat the linear scan in calls.
        centers = np.array([[0, 0], [100, 0], [0, 100], [100, 100]], dtype=float)
        pts = []
        for c in centers:
            pts.extend(list(c + rng.normal(size=(100, 2))))
        metric = EuclideanDistance()
        tree = MTree(metric, node_capacity=8).build(pts)
        build_calls = metric.n_calls
        for _ in range(10):
            q = centers[int(rng.integers(0, 4))] + rng.normal(size=2)
            tree.nearest(q, 3)
        per_query = (metric.n_calls - build_calls) / 10
        assert per_query < len(pts) * 0.6


class TestProperties:
    @given(
        words=st.lists(st.text(alphabet="abc", max_size=6), min_size=1, max_size=40),
        query=st.text(alphabet="abc", max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_knn_always_matches_brute_force(self, words, query):
        metric = EditDistance()
        tree = MTree(metric, node_capacity=3).build(words)
        tree.check_invariants()
        got = tree.nearest(query, 3)
        assert got.distances == brute_knn(EditDistance(), words, query, 3)

    @given(
        pts=st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                st.floats(min_value=-50, max_value=50, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        radius=st.floats(min_value=0, max_value=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_query_exact(self, pts, radius):
        pts = [np.asarray(p) for p in pts]
        metric = EuclideanDistance()
        tree = MTree(metric, node_capacity=4).build(pts)
        q = np.zeros(2)
        got = tree.within(q, radius)
        expected = [p for p in pts if float(np.linalg.norm(p)) <= radius]
        assert len(got) == len(expected)
