"""Unit and property tests for the VP-tree and the silhouette score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import silhouette_score
from repro.exceptions import EmptyDatasetError, NotFittedError, ParameterError
from repro.metrics import EditDistance, EuclideanDistance
from repro.index import VPTree


def brute_knn(metric, objects, query, k):
    dists = sorted((metric._distance(query, o), i) for i, o in enumerate(objects))
    return [d for d, _ in dists[:k]]


class TestVPTreeBasics:
    def test_validation(self):
        with pytest.raises(ParameterError):
            VPTree("metric")
        with pytest.raises(ParameterError):
            VPTree(EuclideanDistance(), leaf_size=0)

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            VPTree(EuclideanDistance(), seed=0).build([])

    def test_not_built(self):
        tree = VPTree(EuclideanDistance(), seed=0)
        with pytest.raises(NotFittedError):
            tree.nearest(np.zeros(2), 1)
        with pytest.raises(NotFittedError):
            tree.within(np.zeros(2), 1.0)

    def test_len(self, rng):
        tree = VPTree(EuclideanDistance(), seed=0).build(list(rng.normal(size=(30, 2))))
        assert len(tree) == 30

    def test_duplicates(self):
        tree = VPTree(EditDistance(), leaf_size=2, seed=0).build(["x"] * 12)
        assert len(tree.within("x", 0)) == 12


class TestVPTreeQueries:
    def test_knn_matches_brute_force(self, rng):
        pts = list(rng.uniform(0, 10, size=(80, 3)))
        tree = VPTree(EuclideanDistance(), leaf_size=4, seed=0).build(pts)
        q = rng.uniform(0, 10, size=3)
        got = tree.nearest(q, 6).distances
        np.testing.assert_allclose(got, brute_knn(EuclideanDistance(), pts, q, 6))

    def test_range_matches_brute_force(self, rng):
        pts = list(rng.uniform(0, 10, size=(70, 2)))
        tree = VPTree(EuclideanDistance(), leaf_size=4, seed=1).build(pts)
        q = np.array([5.0, 5.0])
        got = tree.within(q, 2.5)
        expected = [i for i, p in enumerate(pts) if np.linalg.norm(p - q) <= 2.5]
        assert sorted(got.indices) == expected

    def test_knn_prunes_vs_linear(self, rng):
        centers = np.array([[0, 0], [100, 0], [0, 100], [100, 100]], dtype=float)
        pts = []
        for c in centers:
            pts.extend(list(c + rng.normal(size=(100, 2))))
        metric = EuclideanDistance()
        tree = VPTree(metric, leaf_size=8, seed=2).build(pts)
        built = metric.n_calls
        for _ in range(10):
            q = centers[int(rng.integers(0, 4))] + rng.normal(size=2)
            tree.nearest(q, 3)
        per_query = (metric.n_calls - built) / 10
        assert per_query < len(pts) * 0.6

    @given(
        words=st.lists(st.text(alphabet="abc", max_size=5), min_size=1, max_size=30),
        query=st.text(alphabet="abc", max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_knn_property_strings(self, words, query):
        tree = VPTree(EditDistance(), leaf_size=3, seed=0).build(words)
        got = tree.nearest(query, 3).distances
        assert got == brute_knn(EditDistance(), words, query, 3)


class TestSilhouette:
    def test_well_separated_near_one(self, blob_data):
        points, labels, _ = blob_data
        s = silhouette_score(EuclideanDistance(), points, labels, sample_size=None)
        assert s > 0.8

    def test_random_labels_near_zero(self, blob_data):
        points, labels, _ = blob_data
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(labels)
        s = silhouette_score(EuclideanDistance(), points, shuffled, sample_size=None)
        assert abs(s) < 0.2

    def test_sampled_close_to_full(self, blob_data):
        points, labels, _ = blob_data
        full = silhouette_score(EuclideanDistance(), points, labels, sample_size=None)
        sampled = silhouette_score(
            EuclideanDistance(), points, labels, sample_size=100, seed=0
        )
        assert sampled == pytest.approx(full, abs=0.1)

    def test_works_on_strings(self):
        strings = ["cat", "cats", "cart"] * 4 + ["dog", "dogs", "dig"] * 4
        labels = [0] * 12 + [1] * 12
        s = silhouette_score(EditDistance(), strings, labels, sample_size=None)
        assert s > 0.3

    def test_validation(self, euclidean):
        with pytest.raises(ParameterError):
            silhouette_score(euclidean, [np.zeros(2)], [0, 1])
        with pytest.raises(ParameterError):
            silhouette_score(euclidean, [np.zeros(2)], [0])
        with pytest.raises(ParameterError):
            silhouette_score(euclidean, [np.zeros(2), np.ones(2)], [0, 0])

    def test_all_singletons_rejected(self, euclidean):
        pts = [np.zeros(2), np.ones(2), np.full(2, 5.0)]
        with pytest.raises(ParameterError):
            silhouette_score(euclidean, pts, [0, 1, 2])
