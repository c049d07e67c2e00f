"""Unit tests for read-only tree routing and the split image-space reuse."""

import numpy as np
import pytest

from repro import BUBBLE, BUBBLEFM
from repro.core.bubble_fm import BubbleFMPolicy, _FMSampleCache
from repro.core.cftree import CFTree
from repro.exceptions import ParameterError
from repro.metrics import EuclideanDistance


class TestNearestLeafFeature:
    def test_routes_to_containing_cluster(self, euclidean, blob_data):
        points, _, centers = blob_data
        model = BUBBLE(euclidean, max_nodes=10, seed=0).fit(points)
        tree = model.tree_
        for c in centers:
            feature = tree.nearest_leaf_feature(c)
            assert np.linalg.norm(np.asarray(feature.clustroid) - c) < 2.0

    def test_does_not_mutate_tree(self, euclidean, blob_data):
        points, _, _ = blob_data
        model = BUBBLE(euclidean, max_nodes=10, seed=0).fit(points)
        tree = model.tree_
        before = [(f.n, f.radius) for f in tree.leaf_features()]
        for p in points[:50]:
            tree.nearest_leaf_feature(p)
        after = [(f.n, f.radius) for f in tree.leaf_features()]
        assert before == after

    def test_empty_tree_rejected(self, euclidean):
        from repro.core.bubble import BubblePolicy

        tree = CFTree(BubblePolicy(euclidean))
        with pytest.raises(ParameterError):
            tree.nearest_leaf_feature(np.zeros(2))


class TestAssignVia:
    def test_tree_assignment_mostly_matches_linear(self, blob_data):
        points, _, _ = blob_data
        model = BUBBLE(EuclideanDistance(), max_nodes=10, seed=0).fit(points)
        lin = model.assign(points, via="linear")
        tre = model.assign(points, via="tree")
        agreement = float(np.mean(lin == tre))
        assert agreement > 0.8  # tree routing is approximate but close

    def test_tree_assignment_cheaper(self):
        # Many sub-clusters: a linear scan costs O(K) per object, the tree
        # O(samples per path); the gap shows once K is in the hundreds.
        rng = np.random.default_rng(3)
        points = list(rng.uniform(0, 1000, size=(1200, 2)))
        metric = EuclideanDistance()
        model = BUBBLE(
            metric, branching_factor=8, sample_size=30, max_nodes=100, seed=0
        ).fit(points)
        assert model.n_subclusters_ > 100
        points = points[:100]
        before = metric.n_calls
        model.assign(points, via="linear")
        linear_cost = metric.n_calls - before
        before = metric.n_calls
        model.assign(points, via="tree")
        tree_cost = metric.n_calls - before
        assert tree_cost < linear_cost
        # The VP-tree answers exact nearest-clustroid queries.
        np.testing.assert_array_equal(
            model.assign(points, via="vptree"), model.assign(points, via="linear")
        )

    def test_unknown_via_rejected(self, euclidean, blob_data):
        points, _, _ = blob_data
        model = BUBBLE(euclidean, max_nodes=10, seed=0).fit(points)
        with pytest.raises(ParameterError):
            model.assign(points, via="magic")

    def test_labels_in_range(self, blob_data):
        points, _, _ = blob_data
        model = BUBBLEFM(EuclideanDistance(), max_nodes=10, image_dim=2, seed=0).fit(points)
        labels = model.assign(points, via="tree")
        assert labels.min() >= 0
        assert labels.max() < model.n_subclusters_


class TestSplitImageReuse:
    def test_split_halves_share_parent_fastmap(self):
        rng = np.random.default_rng(0)
        metric = EuclideanDistance()
        policy = BubbleFMPolicy(metric, sample_size=30, image_dim=2, seed=0)
        tree = CFTree(policy, branching_factor=4, threshold=0.0, seed=0)
        # Grow until at least one non-leaf split has occurred (height >= 3).
        i = 0
        while tree.height < 3 and i < 3000:
            tree.insert(rng.uniform(0, 1000, size=2))
            i += 1
        assert tree.height >= 3
        tree.check_invariants()
        # Non-root internal nodes exist and have usable caches.
        internal = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                internal.append(node)
                stack.extend(e.child for e in node.entries)
        assert len(internal) >= 3
        for node in internal:
            cache = node.aux
            assert isinstance(cache, _FMSampleCache)
            if cache.mapper is not None:
                assert cache.centroids.shape == (len(node.entries), 2)
                # Centroids must be consistent with the cached images.
                for i_e in range(len(node.entries)):
                    seg = cache.images[cache.offsets[i_e] : cache.offsets[i_e + 1]]
                    np.testing.assert_allclose(
                        cache.centroids[i_e], seg.mean(axis=0), atol=1e-9
                    )

    def test_routing_still_works_after_deep_growth(self):
        rng = np.random.default_rng(1)
        metric = EuclideanDistance()
        model = BUBBLEFM(
            metric, branching_factor=4, sample_size=20, image_dim=2, seed=1
        ).fit(list(rng.uniform(0, 500, size=(800, 2))))
        tree = model.tree_
        assert tree.height >= 3
        labels = model.assign(list(rng.uniform(0, 500, size=(20, 2))), via="tree")
        assert labels.shape == (20,)
