"""Unit tests for the unified metric-index layer (:mod:`repro.index`)."""

from __future__ import annotations

import pickle
import weakref

import numpy as np
import pytest
from oracles import InnerCounting, InnerCountingEuclidean

from repro.core.preclusterer import BUBBLE
from repro.exceptions import (
    EmptyDatasetError,
    NotFittedError,
    ParameterError,
    StaleIndexError,
)
from repro.index import (
    CFTreeIndex,
    NeighborHeap,
    QueryBoundCache,
    available_backends,
    make_index,
)
from repro.metrics import EditDistance, EuclideanDistance
from repro.persistence import load_checkpoint, save_checkpoint


def _points(n=40, seed=0, dim=3):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=dim) for _ in range(n)]


def _fit_bubble(objects, metric=None):
    metric = metric if metric is not None else EuclideanDistance()
    return BUBBLE(
        metric,
        threshold=0.0,
        max_nodes=None,
        branching_factor=4,
        sample_size=8,
        representation_number=4,
        seed=0,
    ).fit(objects)


class TestQueryBoundCache:
    def test_whole_query_lru_eviction(self):
        cache = QueryBoundCache(maxsize=4)
        objects = [np.full(2, float(i)) for i in range(3)]
        a = cache.row_for("a")
        a.update({id(o): (o, 1.0) for o in objects})
        b = cache.row_for("b")  # 3 pairs held, within maxsize
        b.update({id(o): (o, 2.0) for o in objects[:2]})
        # A running query's row may push past maxsize; nothing is evicted
        # until the next query starts.
        assert len(cache) == 5 and cache.n_evictions == 0
        assert cache.row_for("a") is a  # refreshes "a", so "b" is the LRU
        assert cache.n_evictions == 1
        assert cache.as_dict()["queries"] == 1 and len(cache) == 3
        # The starting query's own row is never evicted, however large.
        cache.row_for("c")[id(objects[0])] = (objects[0], 3.0)
        big = QueryBoundCache(maxsize=1)
        row = big.row_for("a")
        row.update({id(o): (o, 1.0) for o in objects})
        assert big.row_for("a") is row and len(big) == 3
        big.row_for("b")
        assert big.as_dict()["queries"] == 1 and len(big) == 0

    def test_hit_miss_counters_and_rate(self):
        cache = QueryBoundCache()
        assert cache.hit_rate == 0.0
        index = make_index("brute", EuclideanDistance(), bound_cache=cache)
        index.build(_points(5, seed=9))
        first = index.nearest(np.zeros(3), k=2)
        second = index.nearest(np.zeros(3), k=2)
        assert (first.n_calls, first.cache_hits) == (5, 0)
        assert (second.n_calls, second.cache_hits) == (0, 5)
        doc = cache.as_dict()
        assert doc["hits"] == 5 and doc["misses"] == 5
        assert doc["hit_rate"] == 0.5
        assert doc["queries"] == 1 and doc["pairs"] == 5

    def test_unhashable_key_bypasses(self):
        cache = QueryBoundCache()
        # Tuples holding ndarrays hash-fail -> key_for signals bypass.
        assert cache.key_for((np.zeros(2), np.ones(2))) is None
        assert cache.row_for((np.zeros(2), np.ones(2))) is None
        assert cache.key_for("abc") == "abc"
        key = cache.key_for(np.zeros(2))
        assert key is not None  # ndarrays key by (dtype, shape, bytes)
        # An unkeyable query pays in full every time and leaves no row.
        listed = QueryBoundCache(key=lambda q: [q])
        index = make_index("brute", EditDistance(), bound_cache=listed)
        index.build(["abc", "abd", "xyz"])
        assert index.nearest("abc").n_calls == index.nearest("abc").n_calls == 3
        assert len(listed) == 0 and listed.as_dict()["misses"] == 0

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ParameterError):
            QueryBoundCache(maxsize=0)

    def test_evicted_object_id_never_served_stale(self):
        metric = EuclideanDistance()
        cache = QueryBoundCache(maxsize=1)
        query = np.zeros(2)
        old = [np.full(2, float(i + 1)) for i in range(3)]
        alive = weakref.ref(old[0])
        index = make_index("brute", metric, bound_cache=cache)
        index.build(old)
        index.nearest(query)
        del old, index
        # The row holds its objects, so their ids cannot be reused yet.
        assert alive() is not None
        make_index("brute", metric, bound_cache=cache).build(_points(2, dim=2)).nearest(
            np.ones(2)
        )  # this query's start evicts the row of ``query``
        assert alive() is None
        for trial in range(20):
            # Fresh objects, often at the freed addresses: whatever their
            # ids, ``query`` must pay for every one and answer exactly.
            new = [np.full(2, float(-i - trial)) for i in range(3)]
            index = make_index("brute", metric, bound_cache=cache).build(new)
            result = index.nearest(query, k=3)
            assert result.n_calls == 3 and result.cache_hits == 0
            row = metric.one_to_many(query, new)
            assert [(n.distance, n.index) for n in result] == sorted(
                (float(v), i) for i, v in enumerate(row)
            )


def _anchor_pairs(tree):
    """The ``(anchor, child anchor)`` pairs a cf-tree adoption measures."""
    pairs = []

    def anchor(node):
        if node.is_leaf:
            return node.entries[0].clustroid
        first, *rest = [anchor(entry.child) for entry in node.entries]
        pairs.extend((first, other) for other in rest)
        return first

    anchor(tree.root)
    return pairs


class TestCacheSurvivesReadoption:
    """One model-owned cache serves queries and anchor pairs across inserts."""

    def _model(self):
        return _fit_bubble(_points(60, seed=11), InnerCountingEuclidean())

    def test_repeat_after_insert_pays_only_new_objects(self):
        model = self._model()
        query = np.full(3, 0.1)
        first = model.index().within(query, 1e9)  # measures every clustroid
        measured = {id(n.obj): n.obj for n in first}
        # Re-inserting an indexed object changes no clustroid.
        model.partial_fit([model.clustroids_[3]])
        index = model.index()
        assert all(id(obj) in measured for obj in index.objects)
        InnerCounting.reset()
        again = index.within(query, 1e9)
        knn = index.nearest(query, k=4)
        assert InnerCounting.evals == again.n_calls == knn.n_calls == 0
        assert again.cache_hits == len(index)
        # A new far point becomes a new clustroid: the repeat pays for it
        # and nothing else.
        model.partial_fit([np.full(3, 40.0)])
        index = model.index()
        new = [obj for obj in index.objects if id(obj) not in measured]
        assert new
        InnerCounting.reset()
        again = index.within(query, 1e9)
        assert InnerCounting.evals == again.n_calls == len(new)
        expected = model.metric.one_to_many(query, list(index.objects))
        assert [(n.distance, n.index) for n in again] == sorted(
            (float(v), i) for i, v in enumerate(expected)
        )

    def test_readoption_pays_exactly_the_anchor_pairs_not_held(self):
        model = self._model()
        first = model.index()
        before = _anchor_pairs(model.tree_)
        assert len(before) > 2  # the tree has non-leaf levels
        assert first.stats.build_calls == len(before)
        held = {(id(a), id(b)) for a, b in before}
        reused = first.bound_cache.n_anchor_reused
        for x in (np.full(3, 25.0), np.full(3, -25.0), np.array([25.0, -25.0, 0.0])):
            model.partial_fit([x])
        after = _anchor_pairs(model.tree_)
        unheld = [(a, b) for a, b in after if (id(a), id(b)) not in held]
        InnerCounting.reset()
        second = model.index()
        assert second.bound_cache is first.bound_cache
        assert second.stats.build_calls == len(unheld) < len(after)
        assert (
            InnerCounting.evals
            == second.stats.build_calls + second.build_stats.maintenance_evals
        )
        assert second.bound_cache.n_anchor_reused - reused == len(after) - len(unheld)
        # Copied pairs equal what a fresh adoption measures.
        standalone = CFTreeIndex.from_tree(model.tree_, metric=EuclideanDistance())
        stack = [(second._root, standalone._root)]
        while stack:
            got, want = stack.pop()
            if want.children is not None:
                assert np.array_equal(got.child_dists, want.child_dists)
                stack.extend(zip(got.children, want.children))
        # The held pairs were replaced by exactly this tree's, so the next
        # adoption pays nothing.
        cache = second.bound_cache
        assert sum(len(row) for _, row in cache.anchor_rows.values()) == len(after)
        assert model.index().stats.build_calls == 0
        # Adopting another tree drops every pair of this one.
        other = _fit_bubble(_points(30, seed=12))
        CFTreeIndex.from_tree(other.tree_, bound_cache=cache)
        held = sum(len(row) for _, row in cache.anchor_rows.values())
        assert held == len(_anchor_pairs(other.tree_))

    def test_pickled_model_starts_with_an_empty_cache(self):
        model = self._model()
        index = model.index()
        query = np.zeros(3)
        index.nearest(query, k=3)
        assert len(index.bound_cache) > 0
        clone = pickle.loads(pickle.dumps(model))
        restored = clone.index()
        assert restored.bound_cache is not index.bound_cache
        assert len(restored.bound_cache) == 0
        assert restored.bound_cache.n_anchor_reused == 0
        assert restored.stats.build_calls == len(_anchor_pairs(clone.tree_))
        result = restored.nearest(query, k=3)
        assert result.cache_hits == 0
        objects = list(restored.objects)
        want = sorted(
            (float(v), i)
            for i, v in enumerate(EuclideanDistance().one_to_many(query, objects))
        )[:3]
        assert [(n.distance, n.index) for n in result] == want

    def test_new_metric_starts_a_fresh_cache(self):
        model = self._model()
        cache = model.index().bound_cache
        assert model.index(backend="vptree").bound_cache is cache
        own = QueryBoundCache()
        assert model.index(bound_cache=own).bound_cache is own
        model.metric = EuclideanDistance()
        index = model.index()
        assert index.bound_cache is not cache and index.metric is model.metric
        assert index.bound_cache.n_anchor_reused == 0

class TestNeighborHeap:
    def test_keeps_k_best_with_lowest_index_ties(self):
        heap = NeighborHeap(2)
        heap.offer(5, 1.0)
        heap.offer(3, 1.0)
        heap.offer(9, 0.5)
        assert heap.items() == [(0.5, 9), (1.0, 3)]
        assert heap.tau == 1.0

    def test_offer_is_idempotent_per_index(self):
        heap = NeighborHeap(3)
        heap.offer(1, 2.0)
        heap.offer(1, 2.0)
        heap.offer(2, 1.0)
        assert heap.items() == [(1.0, 2), (2.0, 1)]

    def test_tau_infinite_until_full(self):
        heap = NeighborHeap(2)
        assert heap.tau == np.inf
        heap.offer(0, 1.0)
        assert heap.tau == np.inf
        heap.offer(1, 3.0)
        assert heap.tau == 3.0


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(available_backends()) == {"brute", "cftree", "vptree"}

    def test_make_index_builds_queryable_backend(self):
        objects = _points(12)
        for backend in ("brute", "vptree"):
            index = make_index(backend, EuclideanDistance())
            index.build(objects)
            assert len(index) == 12
            assert all(a is b for a, b in zip(index.objects, objects))
            assert index.nearest(np.zeros(3)).neighbors
            # An indexed object is its own nearest neighbour at distance 0.
            self_hit = index.nearest(objects[7]).neighbors[0]
            assert (self_hit.index, self_hit.distance) == (7, 0.0)
            # k beyond the index size and a radius covering everything
            # both return every object.
            assert len(index.nearest(np.zeros(3), k=50)) == 12
            assert len(index.within(np.zeros(3), 1e6)) == 12
            with pytest.raises(ParameterError):
                index.within(np.zeros(3), -1.0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="unknown index backend"):
            make_index("kd-tree", EuclideanDistance())

    def test_non_metric_rejected(self):
        with pytest.raises(ParameterError, match="DistanceFunction"):
            make_index("brute", object())  # type: ignore[arg-type]


class TestQueryResult:
    def test_as_dict_and_sequence_protocol(self):
        index = make_index("brute", EuclideanDistance())
        index.build(_points(10))
        result = index.nearest(np.zeros(3), k=3)
        assert len(result) == 3
        assert [n.index for n in result] == result.indices
        doc = result.as_dict()
        assert doc["kind"] == "knn"
        assert doc["n_candidates"] == 10
        assert doc["n_evaluated"] + doc["n_pruned"] == 10
        assert doc["neighbors"] == [(n.index, n.distance) for n in result]

    def test_invalid_query_parameters(self):
        index = make_index("brute", EuclideanDistance())
        index.build(_points(5))
        with pytest.raises(ParameterError):
            index.nearest(np.zeros(3), k=0)
        with pytest.raises(ParameterError):
            index.within(np.zeros(3), -1.0)


class TestRepeatedQueriesAreFree:
    def test_second_identical_query_costs_zero(self):
        index = make_index("vptree", EuclideanDistance(), seed=0)
        index.build(_points(30))
        query = np.full(3, 0.25)
        first = index.nearest(query, k=3)
        second = index.nearest(query, k=3)
        assert first.n_calls > 0
        assert second.n_calls == 0
        assert second.cache_hits > 0
        assert [(n.distance, n.index) for n in second] == [
            (n.distance, n.index) for n in first
        ]

    def test_shared_cache_across_backends(self):
        cache = QueryBoundCache()
        objects = _points(20, seed=3)
        brute = make_index("brute", EuclideanDistance(), bound_cache=cache)
        brute.build(objects)
        vp = make_index("vptree", EuclideanDistance(), seed=0, bound_cache=cache)
        vp.build(objects)
        query = np.zeros(3)
        brute.nearest(query, k=2)  # pays for all 20 distances
        result = vp.nearest(query, k=2)
        assert result.n_calls == 0  # vp-tree serves entirely from the cache


class TestCFTreeIndex:
    def test_from_tree_queries_match_brute(self):
        metric = EuclideanDistance()
        model = _fit_bubble(_points(60, seed=1), metric)
        index = CFTreeIndex.from_tree(model.tree_, metric=metric)
        query = np.zeros(3)
        row = metric.one_to_many(query, list(index.objects))
        expected = sorted((float(v), i) for i, v in enumerate(row))[:4]
        got = [(n.distance, n.index) for n in index.nearest(query, k=4)]
        assert got == expected

    def test_stale_after_tree_mutation(self):
        model = _fit_bubble(_points(30, seed=2))
        index = CFTreeIndex.from_tree(model.tree_)
        index.nearest(np.zeros(3))  # fine while fresh
        model.tree_.insert(np.full(3, 50.0))
        with pytest.raises(StaleIndexError):
            index.nearest(np.zeros(3))

    def test_empty_tree_rejected(self):
        metric = EuclideanDistance()
        model = BUBBLE(metric, threshold=0.0, max_nodes=None, seed=0)
        with pytest.raises((EmptyDatasetError, NotFittedError)):
            model.index()

    def test_build_grows_private_tree(self):
        index = make_index("cftree", EuclideanDistance())
        index.build(_points(25, seed=4))
        result = index.nearest(np.zeros(3), k=2)
        assert result.neighbors
        assert index.stats.build_calls > 0

    def test_model_index_accessor(self):
        model = _fit_bubble(_points(40, seed=5))
        index = model.index()
        assert index.backend == "cftree"
        assert len(index) == len(model.clustroids_)
        vp = model.index(backend="vptree")
        assert vp.backend == "vptree"
        assert len(vp) == len(model.clustroids_)


class TestCheckpointRoundTrip:
    def test_restored_checkpoint_serves_queries(self, tmp_path):
        metric = EuclideanDistance()
        model = _fit_bubble(_points(50, seed=6), metric)
        path = tmp_path / "scan.ckpt"
        save_checkpoint(path, model.tree_, cursor=50)
        fresh_metric = EuclideanDistance()
        ck = load_checkpoint(path, fresh_metric)
        index = ck.index()
        # Leaf geometry travels in the pickle: building the index costs
        # only the non-leaf anchor gathers, far below one brute scan.
        assert index.stats.build_calls < len(index)
        query = np.zeros(3)
        row = fresh_metric.one_to_many(query, list(index.objects))
        expected = sorted((float(v), i) for i, v in enumerate(row))[:3]
        assert [(n.distance, n.index) for n in index.nearest(query, k=3)] == expected

    def test_restored_index_stats_flow(self, tmp_path):
        metric = EuclideanDistance()
        model = _fit_bubble(_points(30, seed=7), metric)
        path = tmp_path / "scan.ckpt"
        save_checkpoint(path, model.tree_, cursor=30)
        ck = load_checkpoint(path, EuclideanDistance())
        index = ck.index()
        index.nearest(np.zeros(3), k=2)
        doc = index.stats.as_dict()
        assert doc["n_queries"] == 1 and doc["n_knn"] == 1
        assert doc["query_calls"] == doc["last_query_calls"] > 0


class TestStatsSnapshotIntegration:
    def test_apply_index_embeds_query_counters(self):
        from repro.observability.stats import StatsSnapshot

        metric = EuclideanDistance()
        model = _fit_bubble(_points(40, seed=8), metric)
        index = model.index()
        index.nearest(np.zeros(3), k=2)
        index.within(np.zeros(3), 1.0)
        snapshot = StatsSnapshot.from_tree(model.tree_, metric=metric)
        snapshot.apply_index(index)
        assert snapshot.query is not None
        assert snapshot.query["n_queries"] == 2
        assert snapshot.query["backend"] == "cftree"
        bound = snapshot.query["bound_cache"]
        assert bound["misses"] > 0 and bound["queries"] == 1
        assert bound["pairs"] == bound["misses"]
        assert bound["anchor_pairs_reused"] == 0
        text = snapshot.format()
        assert "queries served" in text
        assert "query NCD" in text
        assert "1 queries / " in text and "0 anchor pairs reused" in text
        # The counters are cumulative over the model's adoptions.
        model.partial_fit([np.full(3, 9.0)])
        readopted = model.index()
        snapshot.apply_index(readopted)
        again = snapshot.query["bound_cache"]
        assert again["misses"] == bound["misses"]
        assert again["anchor_pairs_reused"] > 0


class TestStringBackends:
    def test_edit_distance_queries_exact(self):
        words = ["cat", "cot", "dog", "dogs", "cart", "", "act"]
        metric = EditDistance()
        expected_row = metric.one_to_many("cat", words)
        expected = sorted((float(v), i) for i, v in enumerate(expected_row))
        for backend in ("brute", "vptree"):
            index = make_index(backend, EditDistance())
            index.build(words)
            got = [(n.distance, n.index) for n in index.nearest("cat", k=3)]
            assert got == expected[:3], backend
            within = index.within("cat", 1.0)
            assert [(n.distance, n.index) for n in within] == [
                (v, i) for v, i in expected if v <= 1.0
            ], backend
            # A zero radius returns exactly the equal objects.
            assert index.within("cart", 0.0).objects == ["cart"], backend
