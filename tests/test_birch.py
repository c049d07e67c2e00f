"""Unit tests for the vector-space BIRCH instantiation."""

import numpy as np
import pytest

from repro.analysis.audit import audit_tree
from repro.birch import BIRCH, BirchVectorPolicy, VectorClusterFeature
from repro.core.cftree import CFTree
from repro.exceptions import MetricBudgetExceededError, ParameterError
from repro.metrics import EuclideanDistance
from repro.robustness import GuardedMetric


class TestVectorCF:
    def test_single_point(self):
        f = VectorClusterFeature(np.array([1.0, 2.0]))
        assert f.n == 1
        np.testing.assert_allclose(f.centroid, [1.0, 2.0])
        assert f.radius == 0.0

    def test_centroid_and_radius_match_numpy(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 3))
        f = VectorClusterFeature(pts[0])
        for p in pts[1:]:
            f.absorb(p)
        np.testing.assert_allclose(f.centroid, pts.mean(axis=0), atol=1e-9)
        expected_r = np.sqrt(np.mean(np.sum((pts - pts.mean(axis=0)) ** 2, axis=1)))
        assert f.radius == pytest.approx(expected_r)

    def test_radius_stable_far_from_origin(self):
        # The (n, mean, SSE) form keeps the radius exact where the textbook
        # SS/n - |mean|^2 cancels: here 3e16 against a spread of about 1.
        rng = np.random.default_rng(11)
        pts = 1e8 + rng.normal(size=(200, 3))

        def radius(x):
            return np.sqrt(np.mean(np.sum((x - x.mean(axis=0)) ** 2, axis=1)))

        f, g = VectorClusterFeature(pts[0]), VectorClusterFeature(pts[150])
        for p in pts[1:150]:
            f.absorb(p)
        for p in pts[151:]:
            g.absorb(p)
        assert f.radius == pytest.approx(radius(pts[:150]), rel=1e-6)
        both = radius(pts)
        assert f.admits_feature(g, 0.0, both * (1 + 1e-6))
        assert not f.admits_feature(g, 0.0, both * (1 - 1e-6))
        f.merge(g)
        assert f.radius == pytest.approx(both, rel=1e-6)

    def test_merge_equals_bulk(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(10, 2)), rng.normal(size=(15, 2))
        fa = VectorClusterFeature(a[0])
        for p in a[1:]:
            fa.absorb(p)
        fb = VectorClusterFeature(b[0])
        for p in b[1:]:
            fb.absorb(p)
        fa.merge(fb)
        both = np.vstack([a, b])
        assert fa.n == 25
        np.testing.assert_allclose(fa.centroid, both.mean(axis=0), atol=1e-9)

    def test_admits_radius_rule(self):
        f = VectorClusterFeature(np.array([0.0, 0.0]))
        # Absorbing a point at distance 1 gives radius 0.5.
        assert f.admits(np.array([1.0, 0.0]), dist=1.0, threshold=0.5)
        assert not f.admits(np.array([2.0, 0.0]), dist=2.0, threshold=0.5)

    def test_admits_feature(self):
        fa = VectorClusterFeature(np.array([0.0, 0.0]))
        fb = VectorClusterFeature(np.array([1.0, 0.0]))
        assert fa.admits_feature(fb, dist=1.0, threshold=0.5)

    def test_constructor_validation(self):
        with pytest.raises(TypeError):
            VectorClusterFeature()

    def test_clustroid_alias(self):
        f = VectorClusterFeature(np.array([2.0, 4.0]))
        np.testing.assert_allclose(f.clustroid, f.centroid)

    def test_distance_to(self):
        fa = VectorClusterFeature(np.array([0.0, 0.0]))
        fb = VectorClusterFeature(np.array([3.0, 4.0]))
        assert fa.distance_to(fb) == pytest.approx(5.0)


class TestBirchPolicy:
    def test_nonleaf_summaries_exact_after_inserts(self):
        policy = BirchVectorPolicy()
        tree = CFTree(policy, branching_factor=3, threshold=0.0, seed=0)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 100, size=(60, 2))
        for p in pts:
            tree.insert(p)
        audit_tree(tree)
        if tree.root.is_leaf:
            pytest.skip("tree did not grow")
        # Each root entry summary must equal the exact CF of its subtree.
        for entry in tree.root.entries:
            exact = BirchVectorPolicy._subtree_cf(entry.child)
            assert entry.summary.n == exact.n
            np.testing.assert_allclose(entry.summary.mean, exact.mean, atol=1e-9)
            assert entry.summary.sse == pytest.approx(exact.sse)

    def test_total_population_at_root(self):
        policy = BirchVectorPolicy()
        tree = CFTree(policy, branching_factor=3, threshold=0.0, seed=0)
        rng = np.random.default_rng(3)
        for _ in range(40):
            tree.insert(rng.uniform(0, 50, size=2))
        if tree.root.is_leaf:
            pytest.skip("tree did not grow")
        assert sum(e.summary.n for e in tree.root.entries) == 40


class TestBirchDriver:
    def test_recovers_blobs(self, blob_data):
        points, _, centers = blob_data
        model = BIRCH(max_nodes=10, seed=0).fit(points)
        audit_tree(model.tree_)
        found = model.centroids_
        for c in centers:
            assert np.min(np.linalg.norm(found - c, axis=1)) < 1.5

    def test_rebuild_conserves_population(self, blob_data):
        points, _, _ = blob_data
        model = BIRCH(max_nodes=6, seed=0).fit(points)
        assert model.tree_.n_rebuilds >= 1
        assert sum(s.n for s in model.subclusters_) == len(points)

    def test_assign(self, blob_data):
        points, _, _ = blob_data
        model = BIRCH(max_nodes=10, seed=0).fit(points)
        labels = model.assign(points[:20])
        assert labels.shape == (20,)

    def test_tight_clusters_small_radius(self):
        rng = np.random.default_rng(4)
        pts = list(rng.normal(size=(100, 2)) * 0.01)
        model = BIRCH(threshold=0.5, seed=0).fit(pts)
        assert model.n_subclusters_ == 1
        assert model.subclusters_[0].radius < 0.05

    def test_metric_parameter_is_the_fit_metric(self, blob_data):
        points, _, _ = blob_data
        metric = EuclideanDistance()
        model = BIRCH(max_nodes=10, seed=0, metric=metric).fit(points)
        assert model.metric is metric
        assert model.tree_.policy.metric is metric
        assert metric.n_calls > 0

    def test_guarded_budget_stops_the_fit(self, blob_data):
        points, _, _ = blob_data
        metric = GuardedMetric(EuclideanDistance(), max_calls=50)
        with pytest.raises(MetricBudgetExceededError):
            BIRCH(max_nodes=10, seed=0, metric=metric).fit(points)
        assert metric.n_calls <= 50

    def test_metric_must_be_a_distance_function(self):
        with pytest.raises(ParameterError):
            BIRCH(metric="euclidean")
