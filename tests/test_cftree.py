"""Unit tests for the CF*-tree: insertion, splitting, rebuild, invariants."""

import numpy as np
import pytest

from repro.analysis.audit import audit_tree
from repro.core.bubble import BubblePolicy
from repro.core.cftree import CFTree
from repro.core.threshold import suggest_next_threshold
from repro.exceptions import ParameterError
from repro.metrics import EuclideanDistance


def make_tree(branching_factor=4, max_nodes=None, threshold=0.0, seed=0, **policy_kw):
    metric = EuclideanDistance()
    policy = BubblePolicy(metric, representation_number=4, sample_size=10, seed=seed, **policy_kw)
    return CFTree(
        policy,
        branching_factor=branching_factor,
        max_nodes=max_nodes,
        threshold=threshold,
        seed=seed,
    )


class TestConstruction:
    def test_requires_policy(self):
        with pytest.raises(ParameterError):
            CFTree("not a policy")

    def test_param_validation(self):
        metric = EuclideanDistance()
        policy = BubblePolicy(metric)
        with pytest.raises(ParameterError):
            CFTree(policy, branching_factor=1)
        with pytest.raises(ParameterError):
            CFTree(policy, max_nodes=2)
        with pytest.raises(ParameterError):
            CFTree(policy, threshold=-1.0)

    def test_starts_as_single_leaf(self):
        tree = make_tree()
        assert tree.n_nodes == 1
        assert tree.height == 1
        assert tree.n_clusters == 0


class TestInsertion:
    def test_single_insert(self):
        tree = make_tree()
        tree.insert(np.array([1.0, 1.0]))
        assert tree.n_objects == 1
        assert tree.n_clusters == 1
        audit_tree(tree)

    def test_duplicates_absorbed_at_zero_threshold(self):
        tree = make_tree(threshold=0.0)
        for _ in range(5):
            tree.insert(np.array([2.0, 3.0]))
        assert tree.n_clusters == 1
        assert tree.leaf_features()[0].n == 5

    def test_distinct_objects_make_distinct_clusters_at_zero_threshold(self):
        tree = make_tree(threshold=0.0)
        for i in range(3):
            tree.insert(np.array([float(i), 0.0]))
        assert tree.n_clusters == 3

    def test_threshold_absorbs_close_objects(self):
        tree = make_tree(threshold=0.5)
        tree.insert(np.array([0.0, 0.0]))
        tree.insert(np.array([0.3, 0.0]))  # within T of first
        tree.insert(np.array([5.0, 0.0]))  # far: new cluster
        assert tree.n_clusters == 2

    def test_split_grows_height(self):
        tree = make_tree(branching_factor=3, threshold=0.0)
        for i in range(4):
            tree.insert(np.array([float(i) * 10, 0.0]))
        assert tree.height == 2
        assert tree.n_nodes == 3  # root + two leaves
        audit_tree(tree)

    def test_many_inserts_keep_invariants(self):
        tree = make_tree(branching_factor=4)
        rng = np.random.default_rng(0)
        for _ in range(300):
            tree.insert(rng.normal(size=2))
        audit_tree(tree)
        assert tree.n_objects == 300

    def test_leaves_at_same_depth_after_growth(self):
        tree = make_tree(branching_factor=3, threshold=0.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            tree.insert(rng.uniform(0, 100, size=2))
        audit_tree(tree)
        assert tree.height >= 3


class TestRebuild:
    def test_rebuild_requires_larger_threshold(self):
        tree = make_tree(threshold=1.0)
        tree.insert(np.zeros(2))
        with pytest.raises(ParameterError):
            tree.rebuild(0.5)

    def test_rebuild_reduces_clusters(self):
        tree = make_tree(branching_factor=4, threshold=0.0)
        rng = np.random.default_rng(2)
        pts = [rng.normal(size=2) * 0.1 for _ in range(50)]
        for p in pts:
            tree.insert(p)
        before = tree.n_clusters
        tree.rebuild(1.0)
        assert tree.n_clusters < before
        audit_tree(tree)

    def test_rebuild_conserves_population(self):
        tree = make_tree(branching_factor=4, threshold=0.0)
        rng = np.random.default_rng(3)
        for _ in range(80):
            tree.insert(rng.normal(size=2))
        tree.rebuild(0.8)
        assert sum(f.n for f in tree.leaf_features()) == 80

    def test_max_nodes_triggers_automatic_rebuild(self):
        tree = make_tree(branching_factor=4, max_nodes=5, threshold=0.0)
        rng = np.random.default_rng(4)
        for _ in range(200):
            tree.insert(rng.uniform(0, 50, size=2))
        assert tree.n_nodes <= 5
        assert tree.n_rebuilds >= 1
        assert tree.threshold > 0.0
        audit_tree(tree)

    def test_threshold_grows_monotonically(self):
        tree = make_tree(branching_factor=4, max_nodes=5, threshold=0.0)
        rng = np.random.default_rng(5)
        last_t = 0.0
        for _ in range(300):
            tree.insert(rng.uniform(0, 100, size=2))
            assert tree.threshold >= last_t
            last_t = tree.threshold


class TestThresholdHeuristic:
    def test_suggests_positive_after_data(self):
        tree = make_tree(branching_factor=4, threshold=0.0)
        rng = np.random.default_rng(6)
        for _ in range(60):
            tree.insert(rng.normal(size=2))
        t = suggest_next_threshold(tree, seed=0)
        assert t > 0.0

    def test_strictly_increases(self):
        tree = make_tree(branching_factor=4, threshold=0.7)
        for i in range(40):
            tree.insert(np.array([float(i * 10), 0.0]))
        t = suggest_next_threshold(tree, seed=0)
        assert t > 0.7

    def test_degenerate_single_cluster(self):
        tree = make_tree(threshold=0.0)
        tree.insert(np.zeros(2))
        t = suggest_next_threshold(tree, seed=0)
        assert t > 0.0  # tiny but positive


class TestIntrospection:
    def test_leaf_features_round_trip(self):
        tree = make_tree(threshold=0.0)
        for i in range(5):
            tree.insert(np.array([float(i), 0.0]))
        feats = tree.leaf_features()
        assert len(feats) == 5
        assert {float(np.asarray(f.clustroid)[0]) for f in feats} == {0, 1, 2, 3, 4}

    def test_repr(self):
        tree = make_tree()
        tree.insert(np.zeros(2))
        assert "CFTree" in repr(tree)


class TestTypeII:
    def test_insert_feature_merges_within_threshold(self):
        tree = make_tree(threshold=1.0)
        tree.insert(np.array([0.0, 0.0]))
        other = tree.policy.new_leaf_feature(np.array([0.5, 0.0]))
        tree.insert_feature(other)
        assert tree.n_clusters == 1
        assert tree.leaf_features()[0].n == 2

    def test_insert_feature_new_cluster_beyond_threshold(self):
        tree = make_tree(threshold=0.1)
        tree.insert(np.array([0.0, 0.0]))
        other = tree.policy.new_leaf_feature(np.array([5.0, 0.0]))
        tree.insert_feature(other)
        assert tree.n_clusters == 2
