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
    QuerySession,
    available_backends,
    brute_force_reference,
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
        assert first.build_calls == len(before)
        held = {(id(a), id(b)) for a, b in before}
        reused = first.bound_cache.n_anchor_reused
        for x in (np.full(3, 25.0), np.full(3, -25.0), np.array([25.0, -25.0, 0.0])):
            model.partial_fit([x])
        after = _anchor_pairs(model.tree_)
        unheld = [(a, b) for a, b in after if (id(a), id(b)) not in held]
        InnerCounting.reset()
        second = model.index()
        assert second.bound_cache is first.bound_cache
        assert second.build_calls == len(unheld) < len(after)
        assert (
            InnerCounting.evals
            == second.build_calls + second.build_stats.maintenance_evals
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
        assert model.index().build_calls == 0
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
        assert restored.build_calls == len(_anchor_pairs(clone.tree_))
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

def _same_index(got, want):
    """Assert two cf-tree indexes agree in objects (identity and order),
    numbering, and every ball's radius, nearest bound and anchor
    distances, bit for bit."""
    assert len(got.objects) == len(want.objects)
    assert all(a is b for a, b in zip(got.objects, want.objects))
    stack = [(got._root, want._root)]
    while stack:
        g, w = stack.pop()
        assert g.node is w.node
        assert (g.offset, g.anchor, g.size) == (w.offset, w.anchor, w.size)
        assert float(g.radius).hex() == float(w.radius).hex()
        assert float(g.near).hex() == float(w.near).hex()
        if w.children is None:
            assert g.children is None
            assert g.pair.tobytes() == w.pair.tobytes()
        else:
            assert g.child_dists.tobytes() == w.child_dists.tobytes()
            assert len(g.children) == len(w.children)
            stack.extend(zip(g.children, w.children))


def _answers_match_brute(index, queries, k=3, radius=1.5):
    reference = EuclideanDistance()
    objects = list(index.objects)
    for query in queries:
        got = [(n.distance, n.index) for n in index.nearest(query, k=k)]
        assert got == brute_force_reference(reference, objects, query, k)
        row = reference.one_to_many(query, objects)
        want = sorted((float(v), i) for i, v in enumerate(row) if v <= radius)
        assert [(n.distance, n.index) for n in index.within(query, radius)] == want


def _count_leaf_refreshes(monkeypatch):
    """Count the index's calls to ``ensure_leaf_geometry``."""
    import repro.index.cftree as cftree_index

    calls = []
    original = cftree_index.ensure_leaf_geometry

    def counting(metric, node, stats):
        calls.append(node)
        return original(metric, node, stats)

    monkeypatch.setattr(cftree_index, "ensure_leaf_geometry", counting)
    return calls


def _absorbing_copy(model):
    """A copy of a clustroid: inserting it is an absorb at distance 0."""
    return np.array(model.clustroids_[len(model.clustroids_) // 2], copy=True)


class TestIncrementalReadoption:
    """``model.index()`` rewraps only the insertion path, and equals an
    adoption from scratch after every kind of insert."""

    def _stream(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(scale=6.0, size=(8, 3))
        return [centers[i % 8] + rng.normal(scale=0.5, size=3) for i in range(80)]

    def _model(self, objects, **options):
        config = dict(
            threshold=0.6, max_nodes=40, branching_factor=3,
            sample_size=6, representation_number=4, seed=0,
        )
        config.update(options)
        return BUBBLE(EuclideanDistance(), **config).fit(objects)

    def test_every_insert_equals_a_fresh_adoption(self, monkeypatch):
        from repro.core.cftree import CFTree

        splits = {"leaf": 0, "nonleaf": 0}
        for kind in splits:
            original = getattr(CFTree, f"_split_{kind}")

            def counted(self, node, kind=kind, original=original):
                splits[kind] += 1
                return original(self, node)

            monkeypatch.setattr(CFTree, f"_split_{kind}", counted)
        stream = self._stream()
        queries = _points(4, seed=21)
        model = self._model(stream[:20])
        model.index()
        seen = dict(absorb=0, new=0, leaf=0, nonleaf=0, root=0, rebuild=0)
        for obj in stream[20:]:
            tree = model.tree_
            height, clusters, rebuilds = tree.height, tree.n_clusters, tree.n_rebuilds
            before = dict(splits)
            model.partial_fit([obj])
            index = model.index()
            fresh = CFTreeIndex.from_tree(model.tree_, bound_cache=QueryBoundCache())
            _same_index(index, fresh)
            _answers_match_brute(index, queries)
            if tree.n_rebuilds > rebuilds:
                seen["rebuild"] += 1
                continue
            seen["absorb" if tree.n_clusters == clusters else "new"] += 1
            seen["root"] += tree.height > height
            for kind in splits:
                seen[kind] += splits[kind] > before[kind]
        assert seen["rebuild"] == 1
        assert all(seen.values()), seen

    def test_absorb_refreshes_one_leaf(self, monkeypatch):
        model = _fit_bubble(_points(60, seed=11))
        model.index()
        calls = _count_leaf_refreshes(monkeypatch)
        model.partial_fit([_absorbing_copy(model)])
        leaves = list(model.tree_.leaves())
        assert len(leaves) > 1
        index = model.index()
        assert len(calls) == 1 and calls[0] in leaves
        # Every anchor pair was copied from the kept wrappers or the held rows.
        assert index.build_calls == 0
        _same_index(index, CFTreeIndex.from_tree(model.tree_, bound_cache=QueryBoundCache()))

    def test_insert_bumps_the_path_only(self):
        model = _fit_bubble(_points(60, seed=11))
        tree = model.tree_
        before = {id(n): (n, n.version) for n in _nodes(tree.root)}
        model.partial_fit([_absorbing_copy(model)])
        moved = [n for n in _nodes(tree.root) if n.version != before[id(n)][1]]
        # One node per level, each the parent of the next.
        assert len(moved) == tree.height and moved[0] is tree.root
        for parent, child in zip(moved, moved[1:]):
            assert child in [entry.child for entry in parent.entries]
        assert all(n.version == before[id(n)][1] + 1 for n in moved)

    def test_unpickled_model_adopts_in_full_then_incrementally(self, monkeypatch):
        model = _fit_bubble(_points(60, seed=11))
        model.index()
        clone = pickle.loads(pickle.dumps(model))
        calls = _count_leaf_refreshes(monkeypatch)
        first = clone.index()
        assert len(calls) == sum(1 for _ in clone.tree_.leaves())
        assert first.build_calls == len(_anchor_pairs(clone.tree_))
        assert first.bound_cache.n_anchor_reused == 0
        calls.clear()
        clone.partial_fit([_absorbing_copy(clone)])
        again = clone.index()
        assert len(calls) == 1 and again.build_calls == 0
        assert again.bound_cache.n_anchor_reused == len(_anchor_pairs(clone.tree_))

    def test_checkpointed_model_adopts_in_full_then_incrementally(
        self, tmp_path, monkeypatch
    ):
        def bubble():
            return BUBBLE(
                EuclideanDistance(), threshold=0.0, max_nodes=None,
                branching_factor=4, sample_size=8, representation_number=4, seed=0,
            )

        objects = _points(60, seed=11)
        path = tmp_path / "scan.ckpt"
        bubble().fit(objects, checkpoint_path=path, checkpoint_every=60)
        resumed = bubble().fit(objects, resume_from=path)
        assert resumed.ingest_report_.resumed_at == 60
        calls = _count_leaf_refreshes(monkeypatch)
        first = resumed.index()
        assert len(calls) == sum(1 for _ in resumed.tree_.leaves())
        assert first.build_calls == len(_anchor_pairs(resumed.tree_))
        calls.clear()
        resumed.partial_fit([_absorbing_copy(resumed)])
        assert len(calls) == 0
        again = resumed.index()
        assert len(calls) == 1 and again.build_calls == 0
        _answers_match_brute(again, _points(3, seed=5))

    def test_later_adoption_never_renumbers_a_live_index(self):
        model = _fit_bubble(_points(60, seed=11))
        queries = _points(3, seed=5)
        first = model.index()
        numbering = [(n.offset, n.anchor) for n in _wrappers(first._root)]
        objects = list(first.objects)
        # Same tree, shared wrappers: the numbering is reproduced, not moved.
        second = model.index()
        assert second._root is first._root
        # Another tree through the same cache shares no wrapper.
        other = _fit_bubble(_points(30, seed=12))
        CFTreeIndex.from_tree(other.tree_, bound_cache=first.bound_cache)
        assert [(n.offset, n.anchor) for n in _wrappers(first._root)] == numbering
        assert all(a is b for a, b in zip(first.objects, objects))
        _answers_match_brute(first, queries)
        # Once the tree moves, a later adoption renumbers shared wrappers,
        # and the earlier index refuses to answer.
        model.partial_fit([np.full(3, -30.0)])
        model.index()
        with pytest.raises(StaleIndexError):
            first.nearest(queries[0])
        with pytest.raises(StaleIndexError):
            second.within(queries[0], 1.0)

    def test_pickled_cache_holds_no_wrappers(self):
        model = _fit_bubble(_points(60, seed=11))
        cache = model.index().bound_cache
        assert cache.anchor_nodes and cache.anchor_rows
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.anchor_nodes == {} and clone.anchor_rows == {}
        index = CFTreeIndex.from_tree(model.tree_, bound_cache=clone)
        assert index.build_calls == len(_anchor_pairs(model.tree_))


def _nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.extend(entry.child for entry in node.entries)


def _wrappers(root):
    stack = [root]
    while stack:
        wrapper = stack.pop()
        yield wrapper
        stack.extend(wrapper.children or ())


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


def _clustroid_copy(tree):
    """An object equal to, but not identical with, a leaf clustroid."""
    return np.array(tree.leaf_features()[0].clustroid, copy=True)


def _shape_counters(tree):
    return (tree.n_objects, tree.n_rebuilds, tree.n_nodes, tree.n_clusters)


def _near_full_leaf(tree):
    """An object a threshold-0 tree places in a full leaf (branching 4)."""
    full = next(leaf for leaf in tree.leaves() if len(leaf.entries) == 4)
    return full.entries[0].clustroid + 1e-3


class _RecordingEuclidean(EuclideanDistance):
    """Euclidean distance that records the identity of every object its
    batch hook measures."""

    def __init__(self):
        super().__init__()
        self.measured: list[int] = []

    def _one_to_many(self, obj, objects):
        self.measured.extend(map(id, objects))
        return super()._one_to_many(obj, objects)


class TestDuplicateObjects:
    """An object held at several positions is measured once per query."""

    @staticmethod
    def _objects():
        points = _points(30, seed=6)
        # Positions 30-33 repeat objects 0, 3, 3 and 7 (by identity).
        return points + [points[0], points[3], points[3], points[7]]

    @pytest.mark.parametrize("backend", ["brute", "vptree"])
    @pytest.mark.parametrize("cached", [True, False])
    def test_each_distinct_object_measured_once(self, backend, cached):
        objects = self._objects()
        metric = _RecordingEuclidean()
        # A key that is never hashable makes every query bypass the cache.
        cache = QueryBoundCache() if cached else QueryBoundCache(key=lambda q: [q])
        kwargs = {"seed": 0} if backend == "vptree" else {}
        index = make_index(backend, metric, bound_cache=cache, **kwargs).build(objects)
        reference = EuclideanDistance()
        for q in _points(6, seed=7):
            metric.measured.clear()
            got = index.nearest(q, k=4)
            assert [(n.distance, n.index) for n in got] == brute_force_reference(
                reference, objects, q, 4
            )
            assert len(set(metric.measured)) == len(metric.measured) == got.n_calls
            if backend == "brute" and not cached:
                assert got.n_calls == 30  # every distinct object, once
            metric.measured.clear()
            radius = 1.5
            within = index.within(q, radius)
            row = reference.one_to_many(q, objects)
            assert [(n.distance, n.index) for n in within] == sorted(
                (float(v), i) for i, v in enumerate(row) if v <= radius
            )
            assert len(set(metric.measured)) == len(metric.measured) == within.n_calls

    def test_session_measures_a_repeated_object_once(self):
        objects = self._objects()
        metric = EuclideanDistance()
        session = QuerySession(metric, np.zeros(3), objects, None)
        values = session.measure_many(range(len(objects)))
        assert metric.n_calls == 30
        assert values[30] == values[0] and values[31] == values[32] == values[3]
        fresh = QuerySession(metric, np.zeros(3), objects, None)
        assert [fresh.measure(i) for i in range(len(objects))] == values.tolist()
        assert metric.n_calls == 60
        # Without a bound cache nothing counts as a cache hit.
        assert session.cache_hits == fresh.cache_hits == 0


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

    #: name -> (mutation, which of (n_objects, n_rebuilds, n_nodes,
    #: n_clusters) it moves). Each covers one path that changes the tree.
    MUTATIONS = {
        "absorbing insert": (
            lambda t: t.insert(_clustroid_copy(t)),
            (True, False, False, False),
        ),
        "new leaf entry": (
            lambda t: t.insert(_points(1, seed=9)[0]),
            (True, False, False, True),
        ),
        "leaf split": (
            lambda t: t.insert(_near_full_leaf(t)),
            (True, False, True, True),
        ),
        "rebuild": (lambda t: t.rebuild(5.0), (False, True, True, True)),
        "insert_feature, new entry": (
            lambda t: t.insert_feature(t.policy.new_leaf_feature(np.full(3, 0.01))),
            (False, False, False, True),
        ),
        "insert_feature, merge": (
            lambda t: t.insert_feature(t.policy.new_leaf_feature(_clustroid_copy(t))),
            (False, False, False, False),
        ),
        "insert_feature_batch": (
            lambda t: t.insert_feature_batch(
                [t.policy.new_leaf_feature(np.full(3, 0.02 * i)) for i in range(3)]
            ),
            (True, False, True, True),
        ),
    }

    def test_stale_after_tree_mutation(self):
        for path, (mutate, moved) in self.MUTATIONS.items():
            tree = _fit_bubble(_points(30, seed=2)).tree_
            index = CFTreeIndex.from_tree(tree)
            index.nearest(np.zeros(3))  # fine while fresh
            before = _shape_counters(tree)
            mutate(tree)
            # The path moves exactly the counters it claims; a merging
            # insert_feature moves none of them, only the tree's version.
            after = _shape_counters(tree)
            assert tuple(a != b for a, b in zip(before, after)) == moved, path
            with pytest.raises(StaleIndexError):
                index.nearest(np.zeros(3))
            assert CFTreeIndex.from_tree(tree).nearest(np.zeros(3)).neighbors, path

    def test_empty_tree_rejected(self):
        metric = EuclideanDistance()
        model = BUBBLE(metric, threshold=0.0, max_nodes=None, seed=0)
        with pytest.raises((EmptyDatasetError, NotFittedError)):
            model.index()

    def test_adopting_an_empty_tree_raises(self):
        from repro.core.bubble import BubblePolicy
        from repro.core.cftree import CFTree

        tree = CFTree(BubblePolicy(EuclideanDistance()))
        with pytest.raises(EmptyDatasetError):
            CFTreeIndex.from_tree(tree)
        tree.insert(np.zeros(3))
        assert len(CFTreeIndex.from_tree(tree)) == 1

    def test_build_grows_private_tree(self):
        index = make_index("cftree", EuclideanDistance())
        index.build(_points(25, seed=4))
        result = index.nearest(np.zeros(3), k=2)
        assert result.neighbors
        assert index.build_calls > 0

    def test_model_index_accessor(self):
        model = _fit_bubble(_points(40, seed=5))
        index = model.index()
        assert index.backend == "cftree"
        assert len(index) == len(model.clustroids_)
        vp = model.index(backend="vptree")
        assert vp.backend == "vptree"
        assert len(vp) == len(model.clustroids_)


def _largest_leaf(node):
    if node.children is None:
        return node
    return max((_largest_leaf(c) for c in node.children), key=lambda leaf: leaf.size)


def _clustered_points():
    rng = np.random.default_rng(11)
    centers = rng.normal(scale=6.0, size=(8, 3))
    return centers, [centers[i % 8] + rng.normal(size=3) for i in range(240)]


class TestWholeLeafPrune:
    """A leaf every off-anchor bound of which exceeds ``tau`` is pruned in
    O(1): only its anchor is measured and offered."""

    def _leaf_session(self, monkeypatch, offset):
        import repro.index.cftree as cftree_module

        def no_walk(*args):
            raise AssertionError("the whole-leaf prune should skip the walk")

        monkeypatch.setattr(cftree_module, "best_first_leaf_scan", no_walk)
        metric = EuclideanDistance()
        index = CFTreeIndex.from_tree(
            _fit_bubble(_points(60, seed=1), metric).tree_, metric=metric
        )
        leaf = _largest_leaf(index._root)
        assert leaf.size > 2
        query = index.objects[leaf.anchor] + offset
        session = QuerySession(metric, query, index.objects, None)
        d_anchor = session.measure(leaf.anchor, leaf.anchor_row)
        return metric, index, leaf, session, d_anchor

    def _scan(self, index, leaf, session, d_anchor, tau):
        offered = []
        index._scan_leaf(
            session, leaf, d_anchor, lambda: tau, lambda i, d: offered.append(i)
        )
        return offered

    def test_far_query_beyond_the_leaf_radius(self, monkeypatch):
        metric, index, leaf, session, d_anchor = self._leaf_session(
            monkeypatch, np.full(3, 50.0)
        )
        calls = metric.n_calls
        tau = (d_anchor - leaf.radius) / 2
        assert self._scan(index, leaf, session, d_anchor, tau) == [leaf.anchor]
        assert metric.n_calls == calls
        assert session.bound_checks == leaf.size - 1

    def test_query_at_the_anchor_inside_the_nearest_sibling(self, monkeypatch):
        metric, index, leaf, session, d_anchor = self._leaf_session(
            monkeypatch, np.zeros(3)
        )
        assert d_anchor == 0.0
        calls = metric.n_calls
        assert self._scan(index, leaf, session, d_anchor, leaf.near / 2) == [leaf.anchor]
        assert metric.n_calls == calls
        assert session.bound_checks == leaf.size - 1

    def test_fixed_query_script_is_unchanged(self, monkeypatch):
        import repro.index.cftree as cftree_module

        centers, objects = _clustered_points()
        metric = EuclideanDistance()
        model = _fit_bubble(objects, metric)
        index = CFTreeIndex.from_tree(model.tree_, metric=metric)
        walks = []
        walk = cftree_module.best_first_leaf_scan

        def counted_walk(*args):
            walks.append(1)
            return walk(*args)

        monkeypatch.setattr(cftree_module, "best_first_leaf_scan", counted_walk)
        rng = np.random.default_rng(5)
        queries = [centers[i % 8] + rng.normal(size=3) for i in range(30)]
        start, checks = metric.n_calls, 0
        reference = EuclideanDistance()
        for j, query in enumerate(queries):
            knn = index.nearest(query, k=1 + j % 4)
            expected = brute_force_reference(reference, index.objects, query, 1 + j % 4)
            assert [(n.distance, n.index) for n in knn] == expected
            hits = index.within(query, radius=1.5)
            row = reference.one_to_many(query, list(index.objects))
            assert sorted((n.index, n.distance) for n in hits) == [
                (i, float(v)) for i, v in enumerate(row) if v <= 1.5
            ]
            checks += knn.bound_checks + hits.bound_checks
        # Counts measured before the prune existed: it changes neither.
        assert (metric.n_calls - start, checks) == (1244, 7099)
        # Some of the script's 701 leaf scans were pruned whole, without a walk.
        assert 0 < len(walks) < 701


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
        assert index.build_calls < len(index)
        query = np.zeros(3)
        row = fresh_metric.one_to_many(query, list(index.objects))
        expected = sorted((float(v), i) for i, v in enumerate(row))[:3]
        assert [(n.distance, n.index) for n in index.nearest(query, k=3)] == expected

    def test_restored_index_stats_flow(self, tmp_path):
        metric = EuclideanDistance()
        model = _fit_bubble(_points(30, seed=7), metric)
        path = tmp_path / "scan.ckpt"
        save_checkpoint(path, model.tree_, cursor=30)
        from repro.observability.stats import StatsSnapshot

        ck = load_checkpoint(path, EuclideanDistance())
        index = ck.index()
        result = index.nearest(np.zeros(3), k=2)
        snapshot = StatsSnapshot.from_tree(ck.tree, metric=index.metric)
        snapshot.apply_index(index, [result])
        doc = snapshot.query
        assert doc["n_queries"] == 1 and doc["n_knn"] == 1
        assert doc["query_calls"] == doc["last_query_calls"] > 0


class TestStatsSnapshotIntegration:
    def test_apply_index_embeds_query_counters(self):
        from repro.observability.stats import StatsSnapshot

        metric = EuclideanDistance()
        model = _fit_bubble(_points(40, seed=8), metric)
        index = model.index()
        results = [index.nearest(np.zeros(3), k=2), index.within(np.zeros(3), 1.0)]
        snapshot = StatsSnapshot.from_tree(model.tree_, metric=metric)
        snapshot.apply_index(index, results)
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
        snapshot.apply_index(readopted, [])
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
