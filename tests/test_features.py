"""Unit tests for the BUBBLE leaf-level CF*: clustroid, RowSum,
representatives, radius, Type I/II maintenance."""

import numpy as np
import pytest

from repro.core.features import (
    BubbleClusterFeature,
    SubCluster,
    average_inter_cluster_distance,
    object_to_set_distance,
)
from repro.exceptions import ParameterError
from repro.metrics import EuclideanDistance, FunctionDistance


def brute_force_clustroid(metric, objects):
    """Reference implementation of Definition 4.1."""
    best, best_rowsum = None, np.inf
    for o in objects:
        rowsum = sum(metric._distance(o, x) ** 2 for x in objects)
        if rowsum < best_rowsum:
            best, best_rowsum = o, rowsum
    return best, best_rowsum


class TestExactMode:
    def test_single_object(self, euclidean):
        f = BubbleClusterFeature(euclidean, np.array([1.0, 2.0]))
        assert f.n == 1
        assert f.radius == 0.0
        np.testing.assert_allclose(f.clustroid, [1.0, 2.0])

    def test_clustroid_matches_brute_force_while_exact(self, euclidean):
        rng = np.random.default_rng(0)
        objs = list(rng.normal(size=(8, 2)))
        f = BubbleClusterFeature(euclidean, objs[0], representation_number=10)
        for o in objs[1:]:
            f.absorb(o)
        assert f.exact
        expected, expected_rowsum = brute_force_clustroid(euclidean, objs)
        np.testing.assert_allclose(f.clustroid, expected)
        # Radius definition 4.3: sqrt(RowSum(clustroid) / n).
        assert f.radius == pytest.approx(np.sqrt(expected_rowsum / len(objs)))

    def test_rowsums_exact(self, euclidean):
        objs = [np.array([0.0]), np.array([1.0]), np.array([3.0])]
        f = BubbleClusterFeature(euclidean, objs[0])
        f.absorb(objs[1])
        f.absorb(objs[2])
        # RowSum(0)=1+9=10, RowSum(1)=1+4=5, RowSum(3)=9+4=13.
        assert sorted(f.rowsums) == pytest.approx([5.0, 10.0, 13.0])
        np.testing.assert_allclose(f.clustroid, [1.0])

    def test_representation_number_validation(self, euclidean):
        with pytest.raises(ParameterError):
            BubbleClusterFeature(euclidean, np.zeros(1), representation_number=3)
        with pytest.raises(ParameterError):
            BubbleClusterFeature(euclidean, np.zeros(1), representation_number=0)


class TestHeuristicMode:
    def test_switches_after_cap(self, euclidean):
        f = BubbleClusterFeature(euclidean, np.zeros(2), representation_number=4)
        rng = np.random.default_rng(1)
        for _ in range(10):
            f.absorb(rng.normal(size=2) * 0.1)
        assert not f.exact
        assert len(f.representatives) == 4
        assert f.n == 11

    def test_clustroid_stays_near_center_of_dense_cluster(self, euclidean):
        rng = np.random.default_rng(2)
        center = np.array([5.0, 5.0])
        f = BubbleClusterFeature(euclidean, center + 0.1 * rng.normal(size=2))
        for _ in range(200):
            f.absorb(center + 0.1 * rng.normal(size=2))
        assert np.linalg.norm(np.asarray(f.clustroid) - center) < 0.2
        assert f.radius == pytest.approx(0.14, abs=0.08)

    def test_nearest_and_peripheral_split(self, euclidean):
        f = BubbleClusterFeature(euclidean, np.zeros(1), representation_number=4)
        for v in [0.1, -0.1, 2.0, -2.0, 0.05, -0.05, 0.2]:
            f.absorb(np.array([v]))
        near = [float(x[0]) for x in f.nearest_representatives]
        far = [float(x[0]) for x in f.peripheral_representatives]
        assert max(abs(v) for v in near) <= min(abs(v) for v in far) + 1e-12

    def test_n_counts_all_insertions(self, euclidean):
        f = BubbleClusterFeature(euclidean, np.zeros(2), representation_number=2)
        for i in range(50):
            f.absorb(np.full(2, 0.01 * i))
        assert f.n == 51


class TestAbsorbReusesClustroidDistance:
    """The tree hands ``absorb`` the clustroid distance it measured; only
    the other ``k - 1`` representatives are measured."""

    @pytest.mark.parametrize("n_before", [1, 2, 3, 5, 9])
    def test_pays_k_minus_one_and_matches_a_full_gather(self, inner_euclidean, n_before):
        rng = np.random.default_rng(n_before)
        objs = list(rng.normal(size=(n_before + 1, 3)))
        metric = inner_euclidean()
        reused = BubbleClusterFeature(metric, objs[0], representation_number=4)
        full = BubbleClusterFeature(EuclideanDistance(), objs[0], representation_number=4)
        for o in objs[1:-1]:
            d = EuclideanDistance().one_to_many(o, [reused.clustroid])[0]
            reused.absorb(o, d)
            full.absorb(o)
        k = len(reused.representatives)
        q = objs[-1]
        d = EuclideanDistance().one_to_many(q, [reused.clustroid])[0]
        before = (metric.evals, metric.n_calls)
        reused.absorb(q, d)
        assert (metric.evals - before[0], metric.n_calls - before[1]) == (k - 1, k - 1)
        full.absorb(q)
        assert reused.n == full.n
        assert np.array_equal(reused.clustroid, full.clustroid)
        assert [r.tobytes() for r in reused.representatives] == [
            r.tobytes() for r in full.representatives
        ]
        assert np.asarray(reused.rowsums).tobytes() == np.asarray(full.rowsums).tobytes()


class TestMerge:
    def test_exact_merge_preserves_brute_force_clustroid(self, euclidean):
        objs_a = [np.array([0.0]), np.array([0.5])]
        objs_b = [np.array([1.0]), np.array([1.5])]
        fa = BubbleClusterFeature(euclidean, objs_a[0], representation_number=10)
        fa.absorb(objs_a[1])
        fb = BubbleClusterFeature(euclidean, objs_b[0], representation_number=10)
        fb.absorb(objs_b[1])
        fa.merge(fb)
        assert fa.n == 4
        assert fa.exact
        expected, _ = brute_force_clustroid(euclidean, objs_a + objs_b)
        np.testing.assert_allclose(fa.clustroid, expected)

    def test_heuristic_merge_clustroid_between_old_clustroids(self, euclidean):
        rng = np.random.default_rng(3)
        fa = BubbleClusterFeature(euclidean, np.zeros(2), representation_number=6)
        fb = BubbleClusterFeature(euclidean, np.array([1.0, 0.0]), representation_number=6)
        for _ in range(50):
            fa.absorb(0.2 * rng.normal(size=2))
            fb.absorb(np.array([1.0, 0.0]) + 0.2 * rng.normal(size=2))
        ca, cb = np.asarray(fa.clustroid), np.asarray(fb.clustroid)
        fa.merge(fb)
        assert fa.n == 102
        merged = np.asarray(fa.clustroid)
        # New clustroid lies between the two old ones (Type II geometry).
        assert np.linalg.norm(merged - 0.5 * (ca + cb)) < 0.6

    def test_merge_caps_representatives(self, euclidean):
        rng = np.random.default_rng(4)
        fa = BubbleClusterFeature(euclidean, np.zeros(2), representation_number=4)
        fb = BubbleClusterFeature(euclidean, np.ones(2), representation_number=4)
        for _ in range(20):
            fa.absorb(0.1 * rng.normal(size=2))
            fb.absorb(np.ones(2) + 0.1 * rng.normal(size=2))
        fa.merge(fb)
        assert len(fa.representatives) <= 4

    def test_merge_type_check(self, euclidean):
        f = BubbleClusterFeature(euclidean, np.zeros(1))
        with pytest.raises(ParameterError):
            f.merge("not a feature")

    def test_admits_uses_d0_rule(self, euclidean):
        f = BubbleClusterFeature(euclidean, np.zeros(2))
        assert f.admits(np.array([0.5, 0.0]), dist=0.5, threshold=0.5)
        assert not f.admits(np.array([0.6, 0.0]), dist=0.6, threshold=0.5)


class TestDistanceHelpers:
    def test_d0_between_features(self, euclidean):
        fa = BubbleClusterFeature(euclidean, np.array([0.0, 0.0]))
        fb = BubbleClusterFeature(euclidean, np.array([3.0, 4.0]))
        assert fa.distance_to(fb) == pytest.approx(5.0)

    def test_object_to_set_distance(self, euclidean):
        # D2({o}, S) = sqrt(mean of squared distances).
        s = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        d = object_to_set_distance(euclidean, np.zeros(2), s)
        assert d == pytest.approx(1.0)

    def test_average_inter_cluster_distance_symmetric(self, euclidean):
        rng = np.random.default_rng(5)
        a = list(rng.normal(size=(4, 2)))
        b = list(rng.normal(size=(3, 2)))
        dab = average_inter_cluster_distance(euclidean, a, b)
        dba = average_inter_cluster_distance(euclidean, b, a)
        assert dab == pytest.approx(dba)

    def test_average_inter_cluster_distance_known(self, euclidean):
        a = [np.array([0.0])]
        b = [np.array([3.0]), np.array([4.0])]
        # sqrt((9 + 16) / 2)
        assert average_inter_cluster_distance(euclidean, a, b) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_empty_set_rejected(self, euclidean):
        with pytest.raises(ParameterError):
            average_inter_cluster_distance(euclidean, [], [np.zeros(1)])


class TestSubCluster:
    def test_valid(self):
        s = SubCluster(clustroid="abc", n=3, radius=1.0, representatives=["abc"])
        assert s.n == 3

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            SubCluster(clustroid="abc", n=0, radius=0.0)

    def test_invalid_radius(self):
        with pytest.raises(ParameterError):
            SubCluster(clustroid="abc", n=1, radius=-1.0)


class TestStrings:
    def test_feature_works_on_strings(self):
        from repro.metrics import EditDistance

        m = EditDistance()
        f = BubbleClusterFeature(m, "clustering", representation_number=4)
        for s in ["clusterin", "lustering", "clusteringg", "clustreing"]:
            f.absorb(s)
        assert f.n == 5
        assert isinstance(f.clustroid, str)
        # The canonical form should win: it is closest to all variants.
        assert f.clustroid == "clustering"
