"""Equivalence and accounting tests for the pruned routing engine.

The engine's contract (:mod:`repro.core.routing`) is *exactness*: with
pruning on, every routing decision — and therefore the whole tree — is
bit-identical to the exhaustive scan, only NCD changes. These tests pin
that contract across random workloads (hypothesis), both policies, vector
and string metrics, with and without a node budget (so Type II rebuild
re-insertion is covered too), plus the PruningStats counter invariants.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bubble import BubblePolicy
from repro.core.bubble_fm import BubbleFMPolicy
from repro.core.cftree import CFTree
from repro.core.routing import PruningStats
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
    st.text(alphabet="abcd ", min_size=0, max_size=8), min_size=2, max_size=60
)


#: Node budgets every equivalence case runs under: unbounded, and small
#: enough that the scan rebuilds (Type II re-insertion) repeatedly.
BUDGETS = (None, 6)


def build(objs, policy_cls=BubblePolicy, metric_factory=EuclideanDistance,
          prune=True, max_nodes=None, **policy_kw):
    metric = metric_factory()
    policy = policy_cls(
        metric, representation_number=4, sample_size=8, seed=0, prune=prune,
        **policy_kw,
    )
    tree = CFTree(
        policy, branching_factor=4, max_nodes=max_nodes, threshold=0.5, seed=0
    )
    for obj in objs:
        tree.insert(obj)
    return tree, policy, metric


def tree_signature(tree):
    """Structure + leaf clustroids, byte-exact — equal iff trees identical."""
    sig = []

    def walk(node):
        if node.is_leaf:
            sig.append(
                tuple(repr(np.asarray(f.clustroid).tolist()) for f in node.entries)
            )
        else:
            sig.append(len(node.entries))
            for entry in node.entries:
                walk(entry.child)

    walk(tree.root)
    return sig


class TestPrunedEquivalence:
    @given(points=point_lists)
    @settings(max_examples=40, deadline=None)
    def test_bubble_tree_identical_to_exhaustive(self, points):
        objs = [np.asarray(p, dtype=float) for p in points]
        for max_nodes in BUDGETS:
            exhaustive, _, m_off = build(objs, prune=False, max_nodes=max_nodes)
            pruned, _, m_on = build(objs, prune=True, max_nodes=max_nodes)
            assert tree_signature(exhaustive) == tree_signature(pruned)
            assert m_on.n_calls <= m_off.n_calls

    @given(points=point_lists)
    @settings(max_examples=25, deadline=None)
    def test_bubble_fm_tree_identical_to_exhaustive(self, points):
        objs = [np.asarray(p, dtype=float) for p in points]
        for max_nodes in BUDGETS:
            exhaustive, _, m_off = build(
                objs, BubbleFMPolicy, prune=False, max_nodes=max_nodes, image_dim=2
            )
            pruned, _, m_on = build(
                objs, BubbleFMPolicy, prune=True, max_nodes=max_nodes, image_dim=2
            )
            assert tree_signature(exhaustive) == tree_signature(pruned)
            assert m_on.n_calls <= m_off.n_calls

    @given(words=word_lists)
    @settings(max_examples=25, deadline=None)
    def test_string_metric_tree_identical(self, words):
        def sig(tree):
            out = []

            def walk(node):
                if node.is_leaf:
                    out.append(tuple(f.clustroid for f in node.entries))
                else:
                    out.append(len(node.entries))
                    for entry in node.entries:
                        walk(entry.child)

            walk(tree.root)
            return out

        for max_nodes in BUDGETS:
            exhaustive, _, m_off = build(
                words, metric_factory=EditDistance, prune=False, max_nodes=max_nodes
            )
            pruned, _, m_on = build(
                words, metric_factory=EditDistance, prune=True, max_nodes=max_nodes
            )
            assert sig(exhaustive) == sig(pruned)
            assert m_on.n_calls <= m_off.n_calls

    def test_assignments_identical_on_clustered_data(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(0, 100, size=(8, 5))
        objs = [
            centers[i % 8] + rng.normal(0, 0.5, size=5) for i in range(400)
        ]
        for max_nodes in BUDGETS:
            exhaustive, p_off, m_off = build(objs, prune=False, max_nodes=max_nodes)
            pruned, p_on, m_on = build(objs, prune=True, max_nodes=max_nodes)
            assert tree_signature(exhaustive) == tree_signature(pruned)
            assert pruned.n_rebuilds == exhaustive.n_rebuilds
            assert (pruned.n_rebuilds > 0) == (max_nodes is not None)
            # The pruned scan must show a real saving on clustered data.
            assert m_on.n_calls < m_off.n_calls
            assert p_on.pruning_stats.candidates_pruned > 0


class TestFeatureBatch:
    def test_empty_feature_batch_is_noop(self):
        tree, _, metric = build([np.zeros(2)], prune=True)
        before = metric.n_calls
        tree.insert_feature_batch([])
        assert metric.n_calls == before
        assert tree.n_objects == 1


class TestPruningStats:
    def test_counter_invariants(self):
        rng = np.random.default_rng(9)
        objs = [rng.uniform(0, 50, size=4) for _ in range(300)]
        _, policy, _ = build(objs, prune=True)
        stats = policy.pruning_stats
        assert stats.queries > 0
        assert (
            stats.candidates_evaluated + stats.candidates_pruned
            == stats.candidates_total
        )
        assert stats.candidates_pruned >= 0
        assert stats.maintenance_evals >= 0
        assert stats.geometry_builds > 0

    def test_as_dict_round_trip_and_reset(self):
        stats = PruningStats(queries=3, candidates_total=10,
                             candidates_evaluated=7, candidates_pruned=3)
        d = stats.as_dict()
        assert d["queries"] == 3
        assert d["candidates_pruned"] == 3
        stats.reset()
        assert all(v == 0 for v in stats.as_dict().values())

    def test_prune_off_leaves_stats_empty(self):
        rng = np.random.default_rng(2)
        objs = [rng.uniform(0, 50, size=2) for _ in range(150)]
        _, policy, _ = build(objs, prune=False)
        assert policy.pruning_stats.queries == 0
        assert policy.pruning_stats.maintenance_evals == 0

    def test_snapshot_surfaces_pruning(self):
        from repro.observability.stats import StatsSnapshot

        rng = np.random.default_rng(6)
        objs = [rng.uniform(0, 50, size=2) for _ in range(200)]
        tree, policy, metric = build(objs, prune=True)
        snap = StatsSnapshot.from_tree(tree, metric=metric)
        assert snap.pruning is not None
        assert snap.pruning["queries"] == policy.pruning_stats.queries
        assert "pruned candidates" in snap.format()
        assert snap.to_dict()["pruning"] == snap.pruning


class TestConservationLaw:
    def test_site_attribution_sums_to_total_with_pruning(self):
        from repro.observability import Tracer

        rng = np.random.default_rng(12)
        objs = [rng.uniform(0, 100, size=3) for _ in range(400)]
        metric = EuclideanDistance()
        tracer = Tracer()
        with tracer:
            policy = BubblePolicy(
                metric, representation_number=4, sample_size=8, seed=0, prune=True
            )
            tree = CFTree(policy, branching_factor=4, threshold=0.5, seed=0)
            for obj in objs:
                tree.insert(obj)
        tracer.close()
        summary = tracer.summary()
        assert summary["ncd_total"] == metric.n_calls
        assert sum(summary["ncd_by_site"].values()) == summary["ncd_total"]
