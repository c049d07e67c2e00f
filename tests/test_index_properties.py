"""Property-based tests: every index backend is bit-identical to brute force.

The :class:`~repro.index.MetricIndex` exactness contract (ordering by
``(distance, index)``, strict-inequality pruning, per-query memoization)
must make ``nearest``/``within`` answers indistinguishable across the
brute, vp-tree, and cf-tree backends — indices *and* distances,
including tie resolution — while never spending more counted calls per
query than the linear scan, and while keeping the per-site call ledger
an exact partition of the total even with query traffic in the mix.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preclusterer import BUBBLE
from repro.index import CFTreeIndex, brute_force_reference, make_index
from repro.metrics import EditDistance, EuclideanDistance
from repro.metrics.base import CallLedger
from repro.metrics.cache import CachedDistance
from repro.robustness import GuardedMetric

point_lists = st.lists(
    st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    min_size=2,
    max_size=30,
)

word_lists = st.lists(
    st.text(alphabet="abcd", min_size=0, max_size=7),
    min_size=2,
    max_size=25,
)

BACKENDS = ("brute", "vptree")


def _vectors(points):
    return [np.asarray(p, dtype=np.float64) for p in points]


def _cftree_index(metric, objects):
    """A cf-tree index over a freshly fitted BUBBLE tree on ``objects``."""
    model = BUBBLE(
        metric,
        threshold=0.0,
        max_nodes=None,
        branching_factor=4,
        sample_size=min(8, len(objects)),
        representation_number=4,
        seed=0,
    ).fit(objects)
    return CFTreeIndex.from_tree(model.tree_, metric=metric)


def _brute_pairs(metric, objects, query):
    row = metric.one_to_many(query, list(objects))
    return sorted((float(v), i) for i, v in enumerate(row))


def _assert_same_answers(metric_factory, objects, query, k, radius):
    """All backends (and cf-tree over its own clustroids) match brute force."""
    reference_metric = metric_factory()
    cf = _cftree_index(metric_factory(), objects)
    # The cf-tree indexes the leaf clustroids of its tree; feed that exact
    # object list to every other backend so neighbour indices agree.
    indexed = list(cf.objects)
    expected = _brute_pairs(reference_metric, indexed, query)

    for backend, index in _all_indexes(metric_factory, indexed, cf):
        knn = index.nearest(query, k=k)
        want = expected[: min(k, len(indexed))]
        got = [(n.distance, n.index) for n in knn.neighbors]
        assert got == want, f"{backend} k-NN diverged from brute force"
        assert knn.n_calls <= len(indexed), f"{backend} k-NN cost exceeds brute"

        rng_result = index.within(query, radius)
        want_range = [(v, i) for v, i in expected if v <= radius]
        got_range = [(n.distance, n.index) for n in rng_result.neighbors]
        assert got_range == want_range, f"{backend} range diverged from brute force"
        assert rng_result.n_calls <= len(indexed)


def _all_indexes(metric_factory, indexed, cf):
    yield "cftree", cf
    for backend in BACKENDS:
        index = make_index(backend, metric_factory(), **_backend_kwargs(backend))
        index.build(indexed)
        yield backend, index


def _backend_kwargs(backend):
    if backend == "vptree":
        return {"leaf_size": 4, "seed": 0}
    return {}


class TestBackendEquivalenceVectors:
    @given(points=point_lists, k=st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_knn_and_range_bit_identical(self, points, k):
        objects = _vectors(points)
        query = np.asarray(points[0], dtype=np.float64) + 0.25
        _assert_same_answers(EuclideanDistance, objects, query, k, radius=30.0)

    @given(points=point_lists)
    @settings(max_examples=20, deadline=None)
    def test_duplicate_points_resolve_ties_to_lowest_index(self, points):
        # Duplicates force exact distance ties; (distance, index) ordering
        # must resolve them to the lowest index identically everywhere.
        # (cf-tree is exercised elsewhere: its tree collapses duplicates.)
        objects = _vectors(points) + _vectors(points)
        query = np.asarray(points[-1], dtype=np.float64)
        expected = _brute_pairs(EuclideanDistance(), objects, query)
        for backend in BACKENDS:
            index = make_index(
                backend, EuclideanDistance(), **_backend_kwargs(backend)
            )
            index.build(objects)
            got = [(n.distance, n.index) for n in index.nearest(query, k=3)]
            assert got == expected[: min(3, len(objects))], backend
            got_range = [
                (n.distance, n.index) for n in index.within(query, 5.0)
            ]
            assert got_range == [(v, i) for v, i in expected if v <= 5.0], backend


class TestBackendEquivalenceStrings:
    @given(words=word_lists, k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_knn_and_range_bit_identical(self, words, k):
        _assert_same_answers(EditDistance, words, words[0] + "a", k, radius=3.0)


class TestQueryCostNeverExceedsBrute:
    @given(points=point_lists, k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_per_query_ncd_bounded_by_linear_scan(self, points, k):
        objects = _vectors(points)
        query = np.zeros(3)
        for backend in BACKENDS:
            metric = EuclideanDistance()
            index = make_index(backend, metric, **_backend_kwargs(backend))
            index.build(objects)
            result = index.nearest(query, k=k)
            assert result.n_calls <= len(objects)
            assert result.n_evaluated + result.n_pruned == len(objects)


class TestLedgerConservationWithQueryTraffic:
    @given(points=point_lists)
    @settings(max_examples=15, deadline=None)
    def test_sites_partition_total_under_guard(self, points):
        metric = GuardedMetric(EuclideanDistance())
        objects = _vectors(points)
        with CallLedger() as ledger:
            index = make_index("vptree", metric, leaf_size=4, seed=0)
            index.build(objects)
            index.nearest(np.zeros(3), k=2)
            index.within(np.ones(3), 10.0)
        assert sum(ledger.by_site.values()) == ledger.total
        assert "query-knn" in ledger.by_site
        if len(objects) > 4:  # a single leaf bucket builds for free
            assert ledger.by_site.get("query-build", 0) > 0

    @given(words=word_lists)
    @settings(max_examples=15, deadline=None)
    def test_sites_partition_total_under_cache(self, words):
        metric = CachedDistance(EditDistance())
        with CallLedger() as ledger:
            index = make_index("vptree", metric, leaf_size=4, seed=0)
            index.build(words)
            index.nearest("ab", k=2)
            index.within("ab", 2.0)
        assert sum(ledger.by_site.values()) == ledger.total

    @given(points=point_lists)
    @settings(max_examples=10, deadline=None)
    def test_cftree_query_sites_conserve_with_build_traffic(self, points):
        metric = EuclideanDistance()
        objects = _vectors(points)
        with CallLedger() as ledger:
            index = _cftree_index(metric, objects)
            index.nearest(np.zeros(3), k=2)
            index.within(np.zeros(3), 25.0)
        assert sum(ledger.by_site.values()) == ledger.total
        assert "query-knn" in ledger.by_site


#: One serving op: kind, which pooled query (few, so queries repeat), k.
serving_ops = st.lists(
    st.tuples(
        st.sampled_from(("knn", "range", "insert", "adopt")),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=16,
)


def _serve_across_inserts(metric_factory, fit, extra, queries, ops, radius):
    """Replay ``ops`` on one fitted model; check every answer and the ledger.

    Inserts leave the index stale until the next adoption (an explicit
    ``adopt`` op or the next query), so the model-owned bound cache is
    carried across re-adoptions of a changing tree.
    """
    metric = GuardedMetric(metric_factory())
    served = []
    with CallLedger() as ledger:
        model = BUBBLE(
            metric,
            threshold=0.0,
            max_nodes=None,
            branching_factor=4,
            sample_size=min(8, len(fit)),
            representation_number=4,
            seed=0,
        ).fit(fit)
        index = model.index()
        inserts = iter(extra)
        stale = False
        for kind, pick, k in ops:
            if kind == "insert":
                obj = next(inserts, None)
                if obj is not None:
                    model.partial_fit([obj])
                    stale = True
                continue
            if kind == "adopt" or stale:
                index, stale = model.index(), False
            if kind == "adopt":
                continue
            query = queries[pick]
            result = (
                index.nearest(query, k=k) if kind == "knn" else index.within(query, radius)
            )
            served.append((kind, query, k, list(index.objects), result))
    assert sum(ledger.by_site.values()) == ledger.total == metric.n_calls
    reference = metric_factory()
    for kind, query, k, objects, result in served:
        if kind == "knn":
            want = brute_force_reference(reference, objects, query, k)
        else:
            row = reference.one_to_many(query, objects)
            want = sorted((float(v), i) for i, v in enumerate(row) if v <= radius)
        assert [(n.distance, n.index) for n in result] == want, kind
        assert result.n_calls <= len(objects)


class TestServingAcrossInserts:
    """The model-owned bound cache never changes an answer across inserts."""

    @given(points=point_lists, extra=point_lists, ops=serving_ops)
    @settings(max_examples=25, deadline=None)
    def test_vectors(self, points, extra, ops):
        objects = _vectors(points)
        queries = [objects[0] + 0.25, objects[-1], np.zeros(3), objects[0] + 0.25]
        _serve_across_inserts(
            EuclideanDistance, objects, _vectors(extra), queries, ops, radius=40.0
        )

    @given(words=word_lists, extra=word_lists, ops=serving_ops)
    @settings(max_examples=20, deadline=None)
    def test_strings(self, words, extra, ops):
        queries = [words[0] + "a", words[-1], "abc", words[0] + "a"]
        _serve_across_inserts(EditDistance, words, extra, queries, ops, radius=3.0)
