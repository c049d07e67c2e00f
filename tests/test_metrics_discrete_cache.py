"""Unit tests for the caching wrapper."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.metrics import CachedDistance, EditDistance


class TestCachedDistance:
    def test_cache_hit_avoids_call(self):
        inner = EditDistance()
        m = CachedDistance(inner)
        d1 = m.distance("kitten", "sitting")
        d2 = m.distance("kitten", "sitting")
        assert d1 == d2 == 3
        assert inner.n_calls == 1
        assert m.n_hits == 1

    def test_symmetric_key(self):
        inner = EditDistance()
        m = CachedDistance(inner)
        m.distance("abc", "abd")
        m.distance("abd", "abc")
        assert inner.n_calls == 1

    def test_eviction(self):
        inner = EditDistance()
        m = CachedDistance(inner, maxsize=2)
        m.distance("a", "b")
        m.distance("c", "d")
        m.distance("e", "f")  # evicts (a, b)
        m.distance("a", "b")
        assert inner.n_calls == 4

    def test_one_to_many_uses_cache(self):
        inner = EditDistance()
        m = CachedDistance(inner)
        m.one_to_many("cat", ["car", "cut"])
        m.one_to_many("cat", ["car", "bat"])
        assert inner.n_calls == 3
        assert m.n_hits == 1

    def test_reset_clears_hits(self):
        m = CachedDistance(EditDistance())
        m.distance("a", "b")
        m.distance("a", "b")
        m.reset_counter()
        assert m.n_hits == 0
        assert m.n_calls == 0

    def test_rejects_bad_inner(self):
        with pytest.raises(ParameterError):
            CachedDistance(lambda a, b: 0)

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ParameterError):
            CachedDistance(EditDistance(), maxsize=0)

    def test_custom_key_for_vectors(self):
        from repro.metrics import EuclideanDistance

        inner = EuclideanDistance()
        m = CachedDistance(inner, key=lambda v: np.asarray(v).tobytes())
        a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert m.distance(a, b) == pytest.approx(5.0)
        assert m.distance(a, b) == pytest.approx(5.0)
        assert inner.n_calls == 1


class TestCachedDistanceAccounting:
    """Regression tests: symmetric canonicalization and exact hit/miss counts."""

    def test_symmetric_pairs_share_one_slot(self):
        m = CachedDistance(EditDistance())
        assert m.distance("kitten", "sitting") == m.distance("sitting", "kitten")
        assert m.n_calls == 1
        assert m.n_hits == 1
        assert len(m._cache) == 1

    def test_pairwise_routes_through_cache(self):
        m = CachedDistance(EditDistance())
        objs = ["ab", "abc", "abcd", "b"]
        first = m.pairwise(objs)
        n_pairs = len(objs) * (len(objs) - 1) // 2
        assert m.n_calls == n_pairs  # one true evaluation per unordered pair
        assert m.n_hits == 0
        second = m.pairwise(objs)
        assert np.array_equal(first, second)
        assert m.n_calls == n_pairs  # fully served from cache
        assert m.n_hits == n_pairs
        assert np.allclose(first, first.T)
        assert np.all(np.diag(first) == 0.0)

    def test_pairwise_counts_inner_metric_calls(self):
        # The base-class fallback used the raw hook, leaving the inner
        # counter at zero; the override must keep NCD accounting honest.
        inner = EditDistance()
        m = CachedDistance(inner)
        m.pairwise(["x", "xy", "xyz"])
        assert inner.n_calls == 3

    def test_one_to_many_then_pairwise_shares_cache(self):
        m = CachedDistance(EditDistance())
        objs = ["a", "ab", "abc"]
        m.one_to_many("a", objs)  # caches (a,a), (a,ab), (a,abc)
        assert m.n_calls == 3
        m.pairwise(objs)  # only (ab,abc) is new
        assert m.n_calls == 4
        assert m.n_hits == 2

    def test_unorderable_keys_still_canonicalized(self):
        # Keys whose ordering comparison raises (numpy-style ValueError)
        # must fall back to repr ordering, not lose symmetry.
        class AmbiguousKey:
            def __init__(self, payload):
                self.payload = payload

            def __hash__(self):
                return hash(self.payload)

            def __eq__(self, other):
                return self.payload == other.payload

            def __lt__(self, other):
                raise ValueError("truth value is ambiguous")

            def __repr__(self):
                return f"AmbiguousKey({self.payload!r})"

        from repro.metrics import EuclideanDistance

        m = CachedDistance(EuclideanDistance(), key=lambda v: AmbiguousKey(v.tobytes()))
        a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert m.distance(a, b) == pytest.approx(5.0)
        assert m.distance(b, a) == pytest.approx(5.0)
        assert m.n_calls == 1
        assert m.n_hits == 1

    def test_cross_routes_through_cache(self):
        m = CachedDistance(EditDistance())
        a, b = ["cat", "dog"], ["cart", "dot"]
        first = m.cross(a, b)
        assert first.shape == (2, 2)
        assert m.n_calls == 4
        second = m.cross(a, b)
        assert np.array_equal(first, second)
        assert m.n_calls == 4  # fully served from cache
        assert m.n_hits == 4

    def test_mixed_type_keys_still_canonicalized(self):
        from repro.metrics import FunctionDistance

        inner = FunctionDistance(lambda a, b: abs(float(a) - float(b)), name="absdiff")
        m = CachedDistance(inner)
        assert m.distance(1, "2") == 1.0  # int vs str: `<` raises TypeError
        assert m.distance("2", 1) == 1.0
        assert m.n_calls == 1
        assert m.n_hits == 1


class TestCachedDistanceEviction:
    """Regression tests: bounded cache, LRU order, and eviction accounting."""

    def test_eviction_counter(self):
        m = CachedDistance(EditDistance(), maxsize=2)
        m.distance("a", "b")
        m.distance("c", "d")
        assert m.n_evictions == 0
        m.distance("e", "f")
        assert m.n_evictions == 1
        assert len(m._cache) == 2

    def test_cache_never_exceeds_maxsize(self):
        m = CachedDistance(EditDistance(), maxsize=3)
        words = ["a", "ab", "abc", "abcd", "abcde", "b"]
        for i, x in enumerate(words):
            for y in words[i + 1 :]:
                m.distance(x, y)
        assert len(m._cache) <= 3

    def test_reevaluated_evicted_pair_counts_as_miss(self):
        inner = EditDistance()
        m = CachedDistance(inner, maxsize=1)
        m.distance("a", "b")
        m.distance("c", "d")  # evicts (a, b)
        before_hits = m.n_hits
        m.distance("a", "b")  # genuine re-evaluation
        assert inner.n_calls == 3
        assert m.n_hits == before_hits
        assert m.n_evictions == 2

    def test_hit_refreshes_lru_order(self):
        inner = EditDistance()
        m = CachedDistance(inner, maxsize=2)
        m.distance("a", "b")
        m.distance("c", "d")
        m.distance("a", "b")  # hit: (a, b) becomes most recently used
        m.distance("e", "f")  # must evict (c, d), not (a, b)
        m.distance("a", "b")
        assert m.n_hits == 2  # both (a, b) re-reads were hits
        m.distance("c", "d")  # was evicted: a miss
        assert inner.n_calls == 4

    def test_unbounded_cache_never_evicts(self):
        m = CachedDistance(EditDistance(), maxsize=None)
        for i in range(50):
            m.distance("a" * (i + 1), "b")
        assert m.n_evictions == 0
        assert len(m._cache) == 50


class TestCachedDistanceBatching:
    """Regression tests for the batched gathers: ``one_to_many``/``cross``
    must hit the inner metric's *vectorized* path exactly once per batch of
    unique misses, with scalar-loop-exact hit/miss accounting, and the
    default key must make the wrapper work on (and pickle with) ndarrays."""

    def test_cross_counts_pinned_with_overlap(self):
        m = CachedDistance(EditDistance())
        first = m.cross(["abc", "abd"], ["abc", "xyz", "abd"])
        assert first.shape == (2, 3)
        # (abc,abc) self-pair and (abc,abd)/(abd,abc) share one slot:
        # 6 lookups, 5 true evaluations, 1 symmetric hit.
        assert m.n_calls == 5
        assert m.n_hits == 1
        second = m.cross(["abc", "abd"], ["abc", "xyz", "abd"])
        assert np.array_equal(first, second)
        assert m.n_calls == 5
        assert m.n_hits == 7

    def test_unique_misses_gathered_in_one_inner_batch(self):
        calls = []

        class SpyMetric(EditDistance):
            def one_to_many(self, obj, objects):
                calls.append(len(objects))
                return super().one_to_many(obj, objects)

        m = CachedDistance(SpyMetric())
        m.one_to_many("cat", ["car", "cut", "car", "cat"])
        # One vectorized gather for the three unique misses; the duplicate
        # "car" is a within-batch hit served from the resolved values.
        assert calls == [3]
        assert m.n_calls == 3
        assert m.n_hits == 1

    def test_within_batch_repeat_is_a_hit(self):
        inner = EditDistance()
        m = CachedDistance(inner)
        out = m.one_to_many("a", ["ab", "ab", "ab"])
        assert np.array_equal(out, [1.0, 1.0, 1.0])
        assert inner.n_calls == 1
        assert m.n_calls == 1
        assert m.n_hits == 2

    def test_default_key_handles_ndarrays(self):
        from repro.metrics import EuclideanDistance

        m = CachedDistance(EuclideanDistance())
        a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert m.distance(a, b) == pytest.approx(5.0)
        assert m.distance(b, a) == pytest.approx(5.0)
        assert m.n_calls == 1
        assert m.n_hits == 1

    def test_default_key_distinguishes_dtype_and_shape(self):
        from repro.metrics.cache import _default_key as probe
        a64 = np.array([1.0, 2.0])
        a32 = np.array([1.0, 2.0], dtype=np.float32)
        assert probe(a64) != probe(a32)
        assert probe(np.array([[1.0, 2.0]])) != probe(a64)
        assert probe("abc") == "abc"

    def test_default_cache_pickles(self):
        import pickle

        m = CachedDistance(EditDistance())
        m.distance("kitten", "sitting")
        clone = pickle.loads(pickle.dumps(m))
        assert clone.distance("kitten", "sitting") == 3.0

    def test_pairwise_uses_batched_rows(self):
        gathers = []

        class SpyMetric(EditDistance):
            def one_to_many(self, obj, objects):
                gathers.append(len(objects))
                return super().one_to_many(obj, objects)

        m = CachedDistance(SpyMetric())
        m.pairwise(["a", "ab", "abc", "abcd"])
        # Row-batched: one gather per leading row over its trailing objects.
        assert gathers == [3, 2, 1]
        assert m.n_calls == 6
