"""Unit tests for BubblePolicy and BubbleFMPolicy: sampling, routing,
refresh behaviour, FastMap fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bubble import BubblePolicy, _segment_rms
from repro.core.bubble_fm import BubbleFMPolicy
from repro.core.cftree import CFTree
from repro.core.features import object_to_set_distance
from repro.exceptions import ParameterError
from repro.metrics import EuclideanDistance


def grown_tree(policy_cls=BubblePolicy, n_points=120, branching_factor=4, **kw):
    metric = EuclideanDistance()
    policy = policy_cls(metric, representation_number=4, sample_size=12, seed=0, **kw)
    tree = CFTree(policy, branching_factor=branching_factor, threshold=0.0, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(n_points):
        tree.insert(rng.uniform(0, 100, size=2))
    return tree, policy, metric


class TestBubblePolicy:
    def test_rejects_non_metric(self):
        with pytest.raises(ParameterError):
            BubblePolicy("euclidean")

    def test_param_validation(self):
        m = EuclideanDistance()
        with pytest.raises(ParameterError):
            BubblePolicy(m, representation_number=1)
        with pytest.raises(ParameterError):
            BubblePolicy(m, sample_size=0)

    def test_every_entry_has_samples_after_growth(self):
        tree, policy, _ = grown_tree()
        assert tree.height >= 2
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            for entry in node.entries:
                assert entry.summary, "non-leaf entry without samples"
                stack.append(entry.child)

    def test_sample_quota_at_least_one_per_child(self):
        tree, policy, _ = grown_tree()
        node = tree.root
        if node.is_leaf:
            pytest.skip("tree did not grow")
        for entry in node.entries:
            assert len(entry.summary) >= 1

    def test_node_samples_bounded_by_sample_size_plus_children(self):
        tree, policy, _ = grown_tree()
        node = tree.root
        if node.is_leaf:
            pytest.skip("tree did not grow")
        total = sum(len(e.summary) for e in node.entries)
        # The MAX(..., 1) floor can push the total slightly above SS.
        assert total <= policy.sample_size + len(node.entries)

    def test_samples_come_from_subtree(self):
        tree, policy, _ = grown_tree()
        node = tree.root
        if node.is_leaf:
            pytest.skip("tree did not grow")
        for entry in node.entries:
            # Collect the subtree's clustroids (as tuples) and check samples
            # are among them or among deeper sample unions.
            pool = set()
            stack = [entry.child]
            while stack:
                child = stack.pop()
                if child.is_leaf:
                    pool.update(tuple(np.asarray(f.clustroid)) for f in child.entries)
                else:
                    stack.extend(e.child for e in child.entries)
            for s in entry.summary:
                assert tuple(np.asarray(s)) in pool

    def test_routing_matches_d2_definition(self):
        tree, policy, metric = grown_tree(prune=False)
        node = tree.root
        if node.is_leaf:
            pytest.skip("tree did not grow")
        obj = np.array([50.0, 50.0])
        dists = policy.nonleaf_distances(node, obj)
        expected = [
            object_to_set_distance(metric, obj, entry.summary) for entry in node.entries
        ]
        np.testing.assert_allclose(dists, expected, rtol=1e-9)

    def test_pruned_routing_picks_same_entry(self):
        # The pruned path may report +inf for pruned entries, but the
        # selected entry (argmin) must match exhaustive D2 exactly.
        tree, policy, metric = grown_tree()
        node = tree.root
        if node.is_leaf:
            pytest.skip("tree did not grow")
        rng = np.random.default_rng(7)
        for _ in range(10):
            obj = rng.uniform(0, 100, size=2)
            dists = policy.nonleaf_distances(node, obj)
            expected = [
                object_to_set_distance(metric, obj, e.summary) for e in node.entries
            ]
            assert int(np.argmin(dists)) == int(np.argmin(expected))
            i = int(np.argmin(dists))
            assert dists[i] == pytest.approx(expected[i], rel=1e-9)

    def test_leaf_entry_matrix_matches_pairwise(self):
        tree, policy, metric = grown_tree()
        leaf = next(iter(tree.leaves()))
        if len(leaf.entries) < 2:
            pytest.skip("need at least two leaf entries")
        dm = policy.leaf_entry_matrix(leaf.entries)
        d01 = policy.leaf_entry_distance(leaf.entries[0], leaf.entries[1])
        assert dm[0, 1] == pytest.approx(d01)


class TestBubbleFMPolicy:
    def test_param_validation(self):
        m = EuclideanDistance()
        with pytest.raises(ParameterError):
            BubbleFMPolicy(m, image_dim=0)
        with pytest.raises(ParameterError):
            BubbleFMPolicy(m, fm_iterations=0)

    def test_builds_image_spaces(self):
        tree, policy, _ = grown_tree(BubbleFMPolicy, image_dim=2)
        assert policy.n_fastmap_fits > 0
        node = tree.root
        if node.is_leaf:
            pytest.skip("tree did not grow")
        assert node.aux.mapper is not None
        assert node.aux.centroids.shape == (len(node.entries), 2)

    def test_fallback_with_few_samples(self):
        # image_dim so large that 2k exceeds any node's sample count.
        tree, policy, metric = grown_tree(BubbleFMPolicy, image_dim=50, prune=False)
        node = tree.root
        if node.is_leaf:
            pytest.skip("tree did not grow")
        assert node.aux.mapper is None
        # Fallback routing must equal plain BUBBLE's D2 routing.
        obj = np.array([10.0, 10.0])
        dists = policy.nonleaf_distances(node, obj)
        expected = [
            object_to_set_distance(metric, obj, e.summary) for e in node.entries
        ]
        np.testing.assert_allclose(dists, expected, rtol=1e-9)

    def test_fallback_pruned_routing_picks_same_entry(self):
        # With pruning on, the fallback may report +inf for pruned entries,
        # but the selected entry (argmin) must match exhaustive D2 exactly.
        tree, policy, metric = grown_tree(BubbleFMPolicy, image_dim=50)
        node = tree.root
        if node.is_leaf:
            pytest.skip("tree did not grow")
        assert node.aux.mapper is None
        rng = np.random.default_rng(5)
        for _ in range(10):
            obj = rng.uniform(0, 100, size=2)
            dists = policy.nonleaf_distances(node, obj)
            expected = [
                object_to_set_distance(metric, obj, e.summary) for e in node.entries
            ]
            assert int(np.argmin(dists)) == int(np.argmin(expected))
            i = int(np.argmin(dists))
            assert dists[i] == pytest.approx(expected[i], rel=1e-9)

    def test_fm_routing_costs_2k_calls(self):
        tree, policy, metric = grown_tree(BubbleFMPolicy, image_dim=2)
        node = tree.root
        if node.is_leaf or node.aux.mapper is None:
            pytest.skip("no image space at root")
        before = metric.n_calls
        policy.nonleaf_distances(node, np.array([1.0, 2.0]))
        assert metric.n_calls - before == 2 * policy.image_dim

    def test_fm_routing_approximates_d2_ordering(self):
        tree, policy, metric = grown_tree(BubbleFMPolicy, image_dim=2)
        node = tree.root
        if node.is_leaf or node.aux.mapper is None:
            pytest.skip("no image space at root")
        rng = np.random.default_rng(1)
        agree = 0
        trials = 20
        for _ in range(trials):
            obj = rng.uniform(0, 100, size=2)
            fm_choice = int(np.argmin(policy.nonleaf_distances(node, obj)))
            d2 = [object_to_set_distance(metric, obj, e.summary) for e in node.entries]
            if fm_choice == int(np.argmin(d2)):
                agree += 1
        # Approximate routing: most, not necessarily all, choices agree.
        assert agree >= trials * 0.6

    def test_entry_distances_euclidean_when_mapped(self):
        tree, policy, metric = grown_tree(BubbleFMPolicy, image_dim=2)
        node = tree.root
        if node.is_leaf or node.aux.mapper is None:
            pytest.skip("no image space at root")
        before = metric.n_calls
        dm = policy.nonleaf_entry_distances(node)
        assert metric.n_calls == before  # zero calls to d
        assert dm.shape == (len(node.entries), len(node.entries))
        np.testing.assert_allclose(dm, dm.T)


class TestSegmentRMS:
    """The exhaustive D2 reduction groups segments by length; it must
    equal one ``np.mean`` per segment bit for bit."""

    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.sampled_from([1e-6, 1.0, 1e3, 1e9]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_entry_mean(self, lengths, seed, scale):
        rng = np.random.default_rng(seed)
        offsets = np.cumsum([0] + lengths).astype(np.intp)
        sq = (rng.uniform(0, scale, size=int(offsets[-1]))) ** 2
        expected = np.array(
            [np.sqrt(sq[a:b].mean()) for a, b in zip(offsets[:-1], offsets[1:])]
        )
        assert _segment_rms(sq, offsets).tobytes() == expected.tobytes()
