"""Unit tests for the optional BIRCH-style outlier handling."""

import numpy as np
import pytest

from repro import BUBBLE
from repro.analysis.audit import audit_tree
from repro.core.bubble import BubblePolicy
from repro.core.cftree import CFTree
from repro.exceptions import ParameterError
from repro.metrics import EuclideanDistance


def noisy_blobs(rng, n_noise=30):
    """Two dense blobs plus scattered noise points."""
    pts = []
    for c in (np.array([0.0, 0.0]), np.array([50.0, 50.0])):
        pts.extend(list(c + 0.5 * rng.normal(size=(150, 2))))
    pts.extend(list(rng.uniform(-200, 250, size=(n_noise, 2))))
    order = rng.permutation(len(pts))
    return [pts[i] for i in order]


class TestValidation:
    def test_rejects_bad_fraction(self, euclidean):
        policy = BubblePolicy(euclidean)
        with pytest.raises(ParameterError):
            CFTree(policy, outlier_fraction=0.0)
        with pytest.raises(ParameterError):
            CFTree(policy, outlier_fraction=1.0)
        with pytest.raises(ParameterError):
            CFTree(policy, outlier_fraction=-0.5)

    def test_disabled_by_default(self, euclidean, rng):
        model = BUBBLE(euclidean, max_nodes=8, seed=0).fit(noisy_blobs(rng))
        assert model.tree_.n_outliers_parked == 0


class TestParking:
    def test_rebuilds_park_small_clusters(self, rng):
        metric = EuclideanDistance()
        model = BUBBLE(
            metric, max_nodes=8, outlier_fraction=0.25, seed=0
        ).fit(noisy_blobs(rng))
        tree = model.tree_
        assert tree.n_rebuilds >= 1
        assert tree.n_outliers_parked > 0
        audit_tree(tree)

    def test_population_conserved_through_parking(self, rng):
        pts = noisy_blobs(rng)
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=8, outlier_fraction=0.25, seed=0).fit(pts)
        tree = model.tree_
        in_tree = sum(f.n for f in tree.leaf_features())
        parked = sum(f.n for f in tree.outliers)
        assert in_tree + parked == len(pts)

    def test_reabsorb_empties_parked_list_population(self, rng):
        metric = EuclideanDistance()
        policy = BubblePolicy(metric, representation_number=4, sample_size=10, seed=0)
        tree = CFTree(
            policy, branching_factor=4, max_nodes=6, outlier_fraction=0.25, seed=0
        )
        for p in noisy_blobs(rng):
            tree.insert(p)
        parked_before = len(tree.outliers)
        reabsorbed = tree.reabsorb_outliers()
        assert reabsorbed == parked_before
        audit_tree(tree)

    def test_dense_clusters_survive_parking(self, rng):
        pts = noisy_blobs(rng)
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=8, outlier_fraction=0.25, seed=0).fit(pts)
        clustroids = np.asarray(model.clustroids_)
        for c in (np.array([0.0, 0.0]), np.array([50.0, 50.0])):
            assert np.min(np.linalg.norm(clustroids - c, axis=1)) < 2.0

    def test_uniform_data_parks_nothing_catastrophic(self, rng):
        # With all clusters the same size, the fraction cutoff parks little.
        pts = list(rng.normal(size=(200, 2)) * 0.01)
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=8, outlier_fraction=0.25, seed=0).fit(pts)
        assert sum(s.n for s in model.subclusters_) == 200
