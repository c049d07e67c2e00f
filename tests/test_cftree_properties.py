"""Property-based tests: CF*-tree invariants under arbitrary workloads."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.audit import audit_tree
from repro.core.bubble import BubblePolicy
from repro.core.bubble_fm import BubbleFMPolicy
from repro.core.cftree import CFTree
from repro.metrics import EditDistance, EuclideanDistance

point_lists = st.lists(
    st.tuples(
        st.floats(min_value=-1000, max_value=1000, allow_nan=False),
        st.floats(min_value=-1000, max_value=1000, allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)

word_lists = st.lists(
    st.text(alphabet="abcd ", min_size=0, max_size=8), min_size=1, max_size=50
)


def build(points, policy_cls=BubblePolicy, metric=None, **tree_kw):
    metric = metric if metric is not None else EuclideanDistance()
    policy = policy_cls(metric, representation_number=4, sample_size=8, seed=0)
    defaults = dict(branching_factor=4, threshold=0.5, seed=0)
    defaults.update(tree_kw)
    tree = CFTree(policy, **defaults)
    for p in points:
        tree.insert(np.asarray(p, dtype=float))
    return tree


class TestTreeInvariants:
    @given(points=point_lists)
    @settings(max_examples=60, deadline=None)
    def test_structure_after_random_inserts(self, points):
        tree = build(points)
        audit_tree(tree)

    @given(points=point_lists)
    @settings(max_examples=60, deadline=None)
    def test_population_conserved(self, points):
        tree = build(points)
        assert sum(f.n for f in tree.leaf_features()) == len(points)

    @given(points=point_lists)
    @settings(max_examples=40, deadline=None)
    def test_rebuild_preserves_population_and_structure(self, points):
        tree = build(points)
        tree.rebuild(tree.threshold * 2 + 1.0)
        audit_tree(tree)
        assert sum(f.n for f in tree.leaf_features()) == len(points)

    @given(points=point_lists)
    @settings(max_examples=40, deadline=None)
    def test_memory_bound_always_respected(self, points):
        tree = build(points, max_nodes=5)
        assert tree.n_nodes <= 5
        audit_tree(tree)

    @given(points=point_lists)
    @settings(max_examples=30, deadline=None)
    def test_bubble_fm_same_invariants(self, points):
        tree = build(points, policy_cls=BubbleFMPolicy, max_nodes=6)
        audit_tree(tree)
        assert sum(f.n for f in tree.leaf_features()) == len(points)

    @given(points=point_lists)
    @settings(max_examples=40, deadline=None)
    def test_every_cluster_radius_finite(self, points):
        tree = build(points)
        for f in tree.leaf_features():
            assert np.isfinite(f.radius)
            assert f.radius >= 0


class TestStringTreeInvariants:
    @given(words=word_lists)
    @settings(max_examples=40, deadline=None)
    def test_structure_on_strings(self, words):
        metric = EditDistance()
        policy = BubblePolicy(metric, representation_number=4, sample_size=8, seed=0)
        tree = CFTree(policy, branching_factor=4, threshold=1.0, seed=0)
        for w in words:
            tree.insert(w)
        audit_tree(tree)
        assert sum(f.n for f in tree.leaf_features()) == len(words)

    @given(words=word_lists)
    @settings(max_examples=30, deadline=None)
    def test_routing_returns_existing_feature(self, words):
        metric = EditDistance()
        policy = BubblePolicy(metric, representation_number=4, sample_size=8, seed=0)
        tree = CFTree(policy, branching_factor=4, threshold=1.0, seed=0)
        for w in words:
            tree.insert(w)
        features = set(map(id, tree.leaf_features()))
        for w in words[:5]:
            assert id(tree.nearest_leaf_feature(w)) in features
