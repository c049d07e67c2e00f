"""VP-tree contract tests: construction, range and k-NN queries, and
properties against brute force, for the library's exact general-purpose
metric index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EmptyDatasetError, NotFittedError, ParameterError
from repro.index import VPTree
from repro.index.vptree import _Node
from repro.metrics import EditDistance, EuclideanDistance


def brute_knn(metric, objects, query, k):
    dists = sorted((metric._distance(query, o), i) for i, o in enumerate(objects))
    return [d for d, _ in dists[:k]]


def check_invariants(tree, metric):
    """Every object sits in exactly one place, on the right side of each split.

    ``metric`` is a fresh copy of the tree's metric, so checking adds no
    calls to the tree's own count. Returns the height of the tree (a
    bucket counts as one level).
    """
    objects = tree.objects
    seen = []

    def walk(node):
        if node is None:
            return [], 0
        if isinstance(node, list):
            seen.extend(node)
            return list(node), 1
        seen.append(node.index)
        inside, h_in = walk(node.inside)
        outside, h_out = walk(node.outside)
        vp = objects[node.index]
        if inside:
            d_in = metric.one_to_many(vp, [objects[i] for i in inside])
            assert all(d <= node.mu for d in d_in)
        if outside:
            d_out = metric.one_to_many(vp, [objects[i] for i in outside])
            assert all(d > node.mu for d in d_out)
        return [node.index] + inside + outside, 1 + max(h_in, h_out)

    _, height = walk(tree._root)
    assert sorted(seen) == list(range(len(tree)))
    return height


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ParameterError):
            VPTree("not a metric")
        with pytest.raises(ParameterError):
            VPTree(EuclideanDistance(), leaf_size=0)

    def test_empty(self):
        tree = VPTree(EuclideanDistance(), seed=0)
        assert len(tree) == 0
        assert list(tree.objects) == []
        with pytest.raises(NotFittedError):
            tree.nearest(np.zeros(2), 1)
        with pytest.raises(EmptyDatasetError):
            tree.build([])

    def test_build_and_len(self, rng):
        pts = list(rng.normal(size=(50, 2)))
        tree = VPTree(EuclideanDistance(), leaf_size=4, seed=0).build(pts)
        assert len(tree) == 50
        assert isinstance(tree._root, _Node)
        assert check_invariants(tree, EuclideanDistance()) >= 2

    def test_items_round_trip(self, rng):
        pts = [tuple(p) for p in rng.normal(size=(30, 2))]
        tree = VPTree(EuclideanDistance(), leaf_size=4, seed=0).build(pts)
        assert sorted(tree.objects) == sorted(pts)

    def test_duplicate_objects(self):
        tree = VPTree(EditDistance(), leaf_size=3, seed=0).build(["same"] * 10)
        check_invariants(tree, EditDistance())
        assert len(tree.within("same", 0)) == 10


class TestRangeQuery:
    def test_matches_brute_force(self, rng):
        pts = list(rng.uniform(0, 10, size=(80, 2)))
        tree = VPTree(EuclideanDistance(), leaf_size=5, seed=0).build(pts)
        q = np.array([5.0, 5.0])
        got = tree.within(q, 2.0)
        expected = [i for i, p in enumerate(pts) if np.linalg.norm(p - q) <= 2.0]
        assert sorted(got.indices) == expected
        assert {tuple(g) for g in got.objects} == {tuple(pts[i]) for i in expected}

    def test_zero_radius_exact_match(self):
        tree = VPTree(EditDistance(), leaf_size=1, seed=0).build(["a", "b", "ab"])
        assert tree.within("ab", 0).objects == ["ab"]

    def test_negative_radius_rejected(self):
        tree = VPTree(EuclideanDistance(), seed=0).build([np.zeros(2)])
        with pytest.raises(ParameterError):
            tree.within(np.zeros(2), -1.0)

    def test_radius_covers_all(self, rng):
        pts = list(rng.normal(size=(40, 2)))
        tree = VPTree(EuclideanDistance(), leaf_size=4, seed=0).build(pts)
        assert len(tree.within(np.zeros(2), 1e6)) == 40


class TestKnn:
    def test_matches_brute_force(self, rng):
        pts = list(rng.uniform(0, 10, size=(60, 3)))
        metric = EuclideanDistance()
        tree = VPTree(metric, leaf_size=4, seed=0).build(pts)
        q = rng.uniform(0, 10, size=3)
        got = tree.nearest(q, 5)
        np.testing.assert_allclose(
            got.distances, brute_knn(EuclideanDistance(), pts, q, 5)
        )

    def test_knn_on_strings(self):
        words = ["cat", "cart", "carts", "dog", "dig", "cog", "cot"]
        tree = VPTree(EditDistance(), leaf_size=1, seed=0).build(words)
        result = tree.nearest("cat", 2)
        assert result.neighbors[0].obj == "cat"
        assert result.distances == [0.0, 1.0]

    def test_k_larger_than_size(self, rng):
        pts = list(rng.normal(size=(5, 2)))
        tree = VPTree(EuclideanDistance(), seed=0).build(pts)
        assert len(tree.nearest(np.zeros(2), 10)) == 5

    def test_nearest(self, rng):
        pts = list(rng.normal(size=(20, 2)))
        tree = VPTree(EuclideanDistance(), leaf_size=4, seed=0).build(pts)
        result = tree.nearest(pts[7])
        assert result.neighbors[0].index == 7
        assert result.neighbors[0].distance == pytest.approx(0.0, abs=1e-12)

    def test_knn_prunes_versus_linear_scan(self, rng):
        # On clustered data the index must beat the linear scan in calls.
        centers = np.array([[0, 0], [100, 0], [0, 100], [100, 100]], dtype=float)
        pts = []
        for c in centers:
            pts.extend(list(c + rng.normal(size=(100, 2))))
        metric = EuclideanDistance()
        tree = VPTree(metric, leaf_size=8, seed=0).build(pts)
        build_calls = metric.n_calls
        for _ in range(10):
            q = centers[int(rng.integers(0, 4))] + rng.normal(size=2)
            tree.nearest(q, 3)
        per_query = (metric.n_calls - build_calls) / 10
        assert per_query < len(pts) * 0.6


class TestProperties:
    @given(
        words=st.lists(st.text(alphabet="abc", max_size=6), min_size=1, max_size=40),
        query=st.text(alphabet="abc", max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_knn_always_matches_brute_force(self, words, query):
        metric = EditDistance()
        tree = VPTree(metric, leaf_size=3, seed=0).build(words)
        check_invariants(tree, EditDistance())
        got = tree.nearest(query, 3)
        assert got.distances == brute_knn(EditDistance(), words, query, 3)

    @given(
        pts=st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                st.floats(min_value=-50, max_value=50, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        radius=st.floats(min_value=0, max_value=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_query_exact(self, pts, radius):
        pts = [np.asarray(p) for p in pts]
        metric = EuclideanDistance()
        tree = VPTree(metric, leaf_size=4, seed=0).build(pts)
        q = np.zeros(2)
        got = tree.within(q, radius)
        expected = [p for p in pts if float(np.linalg.norm(p)) <= radius]
        assert len(got) == len(expected)
