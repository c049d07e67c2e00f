"""Unit tests for the end-to-end pipelines."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exhaustive_assignment
from repro.datasets import make_authority_dataset, make_cell_dataset
from repro.evaluation import adjusted_rand_index, distortion
from repro.exceptions import ParameterError
from repro.metrics import CachedDistance, EditDistance, EuclideanDistance
from repro.metrics.base import CallLedger, site
from repro.pipelines import (
    cluster_dataset,
    labeling,
    map_first_cluster,
    nearest_assignment,
)
from repro.robustness import GuardedMetric

#: Points of a small integer grid: many exact ties, duplicate centers.
grid_points = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda xy: np.array(xy, dtype=np.float64)
    ),
    max_size=40,
)
ab_strings = st.lists(st.text(alphabet="ab", max_size=5), max_size=30)


class TestNearestAssignment:
    def test_basic(self, euclidean):
        centers = [np.array([0.0, 0.0]), np.array([10.0, 0.0])]
        labels = nearest_assignment(
            euclidean, [np.array([1.0, 0.0]), np.array([9.0, 0.0])], centers
        )
        np.testing.assert_array_equal(labels, [0, 1])

    def test_empty_centers(self, euclidean):
        with pytest.raises(ParameterError):
            nearest_assignment(euclidean, [np.zeros(2)], [])

    def test_call_count(self, euclidean):
        # One call for the center matrix, then one per object: d(obj, c0)
        # is 0 and the bound |0 - d(c0, c1)| prunes c1.
        centers = [np.zeros(2), np.ones(2)]
        euclidean.reset_counter()
        nearest_assignment(euclidean, [np.zeros(2)] * 5, centers)
        assert euclidean.n_calls == 6


def _check_walk(make_metric, objects, centers, as_generator=False):
    """The walk's labels equal the exhaustive oracle's, its counted calls
    stay within ``[N, N*K + K(K-1)/2]``, and the ledger partitions them."""
    want = exhaustive_assignment(make_metric(), objects, centers)
    metric = make_metric()
    ledger = CallLedger()
    with ledger, site("redistribute"):
        got = nearest_assignment(
            metric, (o for o in objects) if as_generator else objects, centers
        )
    np.testing.assert_array_equal(got, want)
    assert got.dtype == np.intp
    n, k = len(objects), len(centers)
    assert metric.n_calls <= n * k + k * (k - 1) // 2
    if not isinstance(metric, CachedDistance):  # cache hits are not calls
        assert n <= metric.n_calls
    assert sum(ledger.by_site.values()) == ledger.total == metric.n_calls
    return metric.n_calls


def _guarded_euclidean():
    return GuardedMetric(EuclideanDistance(), sleep=lambda s: None)


def _cached_euclidean():
    return CachedDistance(EuclideanDistance(), key=lambda v: tuple(v))


class TestNearestAssignmentWalk:
    """The pruned second scan returns the exhaustive scan's labels."""

    @settings(max_examples=150, deadline=None)
    @given(objects=grid_points, centers=grid_points.filter(len))
    def test_euclidean_grid_ties(self, objects, centers):
        _check_walk(EuclideanDistance, objects, centers)

    @settings(max_examples=100, deadline=None)
    @given(objects=ab_strings, centers=ab_strings.filter(len))
    def test_edit_distance_ab_strings(self, objects, centers):
        _check_walk(EditDistance, objects, centers)

    @settings(max_examples=60, deadline=None)
    @given(objects=grid_points, centers=grid_points.filter(len))
    def test_generator_input(self, objects, centers):
        _check_walk(EuclideanDistance, objects, centers, as_generator=True)

    @settings(max_examples=60, deadline=None)
    @given(objects=grid_points, centers=grid_points.filter(len))
    def test_guarded_metric(self, objects, centers):
        _check_walk(_guarded_euclidean, objects, centers)

    @settings(max_examples=60, deadline=None)
    @given(objects=grid_points, centers=grid_points.filter(len))
    def test_cached_distance(self, objects, centers):
        _check_walk(_cached_euclidean, objects, centers)

    @settings(max_examples=60, deadline=None)
    @given(objects=grid_points, centers=grid_points.filter(len))
    def test_small_blocks_stream(self, objects, centers):
        # Blocks of 3 objects: several blocks per input, and the center
        # matrix arrives mid-stream once more than K/2 objects are read.
        with mock.patch.object(labeling, "_BLOCK", 3):
            _check_walk(EuclideanDistance, objects, centers, as_generator=True)

    def test_single_center_costs_one_call_per_object(self):
        objects = [np.array([float(i), 0.0]) for i in range(7)]
        calls = _check_walk(EuclideanDistance, objects, [np.array([1.0, 1.0])])
        assert calls == len(objects)

    def test_small_input_skips_the_center_matrix(self):
        # N <= K/2: no matrix, so every pair is measured and nothing else.
        centers = [np.array([float(i), 0.0]) for i in range(8)]
        objects = [np.array([2.5, 1.0]), np.array([7.0, 0.0]), np.array([0.0, 0.0])]
        calls = _check_walk(EuclideanDistance, objects, centers)
        assert calls == len(objects) * len(centers)

    def test_empty_input(self, euclidean):
        labels = nearest_assignment(euclidean, [], [np.zeros(2)])
        assert labels.shape == (0,) and labels.dtype == np.intp
        assert euclidean.n_calls == 0

    def test_prunes_clustered_data(self):
        ds = make_cell_dataset(dim=5, n_clusters=10, n_points=400, seed=3)
        centers = [ds.points[np.flatnonzero(ds.labels == c)[0]] for c in range(10)]
        calls = _check_walk(EuclideanDistance, list(ds.points), centers)
        assert calls <= 0.5 * len(ds.points) * len(centers)


class TestClusterDataset:
    @pytest.mark.parametrize("algorithm", ["bubble", "bubble-fm"])
    def test_recovers_blob_structure(self, blob_data, algorithm):
        points, labels, centers = blob_data
        res = cluster_dataset(
            points,
            EuclideanDistance(),
            n_clusters=5,
            algorithm=algorithm,
            max_nodes=10,
            image_dim=2,
            seed=0,
        )
        assert res.n_clusters == 5
        assert adjusted_rand_index(labels, res.labels) > 0.95

    def test_rejects_unknown_algorithm(self, blob_data):
        points, _, _ = blob_data
        with pytest.raises(ParameterError):
            cluster_dataset(points, EuclideanDistance(), 3, algorithm="kmeans")

    def test_rejects_unknown_center_method(self, blob_data):
        points, _, _ = blob_data
        with pytest.raises(ParameterError):
            cluster_dataset(points, EuclideanDistance(), 3, center_method="mean")

    def test_skip_assignment(self, blob_data):
        points, _, _ = blob_data
        res = cluster_dataset(
            points, EuclideanDistance(), 5, max_nodes=10, assign=False, seed=0
        )
        assert res.labels is None
        assert res.n_clusters == 5

    def test_vector_centers_are_centroids(self, blob_data):
        points, _, centers = blob_data
        res = cluster_dataset(points, EuclideanDistance(), 5, max_nodes=10, seed=0)
        found = np.vstack(res.centers)
        for c in centers:
            assert np.min(np.linalg.norm(found - c, axis=1)) < 0.5

    def test_string_centers_are_medoids(self):
        ds = make_authority_dataset(n_classes=8, n_strings=60, seed=0)
        metric = EditDistance()
        res = cluster_dataset(
            ds.strings, metric, n_clusters=8, algorithm="bubble", seed=0
        )
        # Medoid centers must be actual strings from the dataset.
        for c in res.centers:
            assert isinstance(c, str)
            assert c in ds.strings

    def test_diagnostics_populated(self, blob_data):
        points, _, _ = blob_data
        res = cluster_dataset(points, EuclideanDistance(), 5, max_nodes=10, seed=0)
        assert res.n_distance_calls > 0
        assert 0 < res.scan_seconds <= res.total_seconds
        assert res.model is not None
        assert len(res.subcluster_labels) == len(res.subclusters)

    def test_n_clusters_capped_by_subclusters(self, euclidean):
        # Only 2 distinct objects -> at most 2 clusters even if 10 requested.
        points = [np.zeros(2)] * 10 + [np.ones(2) * 5] * 10
        res = cluster_dataset(points, euclidean, 10, seed=0)
        assert res.n_clusters == 2


class TestMapFirst:
    def test_runs_and_labels(self, blob_data):
        points, labels, _ = blob_data
        res = map_first_cluster(
            points, EuclideanDistance(), n_clusters=5, image_dim=2, max_nodes=10, seed=0
        )
        assert res.labels.shape == (len(points),)
        assert res.images.shape == (len(points), 2)
        assert res.n_clusters == 5

    def test_quality_on_easy_data(self, blob_data):
        points, labels, _ = blob_data
        res = map_first_cluster(
            points, EuclideanDistance(), n_clusters=5, image_dim=2, max_nodes=10, seed=0
        )
        # 2-d Euclidean data maps near-isometrically: quality should be fine.
        assert adjusted_rand_index(labels, res.labels) > 0.8

    def test_ncd_only_from_fastmap(self, blob_data):
        points, _, _ = blob_data
        metric = EuclideanDistance()
        res = map_first_cluster(points, metric, 5, image_dim=2, max_nodes=10, seed=0)
        # FastMap cost is O(N * k); nothing else may touch the metric.
        n, k = len(points), 2
        assert res.n_distance_calls <= (2 * 1 + 1) * n * k + 4 * k * k

    def test_rejects_bad_n_clusters(self, blob_data):
        points, _, _ = blob_data
        with pytest.raises(ParameterError):
            map_first_cluster(points, EuclideanDistance(), 0, image_dim=2)


class TestQualityComparison:
    def test_bubble_beats_or_ties_map_first_on_high_dim(self):
        """Table 1's qualitative claim at miniature scale: pre-clustering in
        the original space is at least as good as Map-First on the
        cell dataset."""
        ds = make_cell_dataset(dim=10, n_clusters=8, n_points=800, seed=0)
        bubble = cluster_dataset(
            ds.as_objects(), EuclideanDistance(), 8, max_nodes=30, seed=1
        )
        mf = map_first_cluster(
            ds.as_objects(), EuclideanDistance(), 8, image_dim=10, max_nodes=30, seed=1
        )
        d_bubble = distortion(ds.points, bubble.labels)
        d_mf = distortion(ds.points, mf.labels)
        assert d_bubble <= d_mf * 1.05


class TestGlobalMethod:
    def test_clarans_global_phase(self, blob_data):
        points, labels, _ = blob_data
        res = cluster_dataset(
            points,
            EuclideanDistance(),
            n_clusters=5,
            global_method="clarans",
            max_nodes=10,
            seed=0,
        )
        assert res.n_clusters == 5
        assert adjusted_rand_index(labels, res.labels) > 0.9

    def test_unknown_global_method(self, blob_data):
        points, _, _ = blob_data
        with pytest.raises(ParameterError):
            cluster_dataset(points, EuclideanDistance(), 3, global_method="kmeans")
