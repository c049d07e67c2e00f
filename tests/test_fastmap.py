"""Unit tests for FastMap: embedding quality, incremental mapping, NCD cost."""

import numpy as np
import pytest

from oracles import stress
from repro.exceptions import EmptyDatasetError, NotFittedError, ParameterError
from repro.fastmap import FastMap
from repro.metrics import EuclideanDistance, FunctionDistance


def euclidean_points(seed, n=40, dim=3):
    return list(np.random.default_rng(seed).normal(size=(n, dim)))


class TestFit:
    def test_embedding_shape(self):
        pts = euclidean_points(0)
        fm = FastMap(EuclideanDistance(), k=3, seed=0)
        images = fm.fit(pts)
        assert images.shape == (40, 3)
        assert fm.embedding_ is images

    def test_empty_raises(self):
        with pytest.raises(EmptyDatasetError):
            FastMap(EuclideanDistance(), k=2, seed=0).fit([])

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            FastMap(EuclideanDistance(), k=0)
        with pytest.raises(ParameterError):
            FastMap(EuclideanDistance(), k=2, iterations=0)
        with pytest.raises(ParameterError):
            FastMap(lambda a, b: 0, k=2)

    def test_preserves_euclidean_distances_with_full_dim(self):
        # Euclidean data embedded into its own dimensionality: low stress.
        pts = euclidean_points(1, n=30, dim=2)
        metric = EuclideanDistance()
        fm = FastMap(metric, k=2, iterations=2, seed=1)
        images = fm.fit(pts)
        s = stress(pts, images, EuclideanDistance())
        assert s < 0.15

    def test_exact_for_collinear_points(self):
        pts = [np.array([float(i), 0.0]) for i in range(10)]
        fm = FastMap(EuclideanDistance(), k=1, seed=0)
        images = fm.fit(pts)
        dm = np.abs(images[:, 0][:, None] - images[:, 0][None, :])
        true = np.abs(np.arange(10)[:, None] - np.arange(10)[None, :]).astype(float)
        np.testing.assert_allclose(dm, true, atol=1e-9)

    def test_identical_objects_degenerate_axis(self):
        pts = [np.zeros(2)] * 5
        fm = FastMap(EuclideanDistance(), k=2, seed=0)
        images = fm.fit(pts)
        np.testing.assert_allclose(images, 0.0)
        assert fm.axis_lengths_ == [0.0, 0.0]

    def test_single_object(self):
        fm = FastMap(EuclideanDistance(), k=2, seed=0)
        images = fm.fit([np.array([1.0, 2.0])])
        assert images.shape == (1, 2)


class TestTransform:
    def test_requires_fit(self):
        fm = FastMap(EuclideanDistance(), k=2, seed=0)
        with pytest.raises(NotFittedError):
            fm.transform(np.zeros(2))

    def test_transform_consistent_with_fit(self):
        # Mapping a fitted object incrementally should land near its image.
        pts = euclidean_points(2, n=25, dim=2)
        fm = FastMap(EuclideanDistance(), k=2, iterations=2, seed=2)
        images = fm.fit(pts)
        for i in [0, 7, 19]:
            v = fm.transform(pts[i])
            assert np.linalg.norm(v - images[i]) < 1e-6

    def test_transform_costs_2k_calls(self):
        pts = euclidean_points(3, n=20, dim=3)
        metric = EuclideanDistance()
        fm = FastMap(metric, k=3, seed=3)
        fm.fit(pts)
        before = metric.n_calls
        fm.transform(np.zeros(3))
        assert metric.n_calls - before == 2 * 3
        assert fm.n_pivot_calls_per_object == 6

    def test_transform_many(self):
        pts = euclidean_points(4, n=15, dim=2)
        fm = FastMap(EuclideanDistance(), k=2, seed=4)
        fm.fit(pts)
        out = fm.transform_many(pts[:5])
        assert out.shape == (5, 2)

    def test_transform_many_empty(self):
        pts = euclidean_points(5, n=10, dim=2)
        fm = FastMap(EuclideanDistance(), k=2, seed=5)
        fm.fit(pts)
        assert fm.transform_many([]).shape == (0, 2)

    def test_new_object_distance_preserved(self):
        rng = np.random.default_rng(6)
        pts = list(rng.normal(size=(30, 2)))
        metric = EuclideanDistance()
        fm = FastMap(metric, k=2, iterations=2, seed=6)
        images = fm.fit(pts)
        new = rng.normal(size=2)
        v = fm.transform(new)
        # Image-space distances to fitted objects approximate true ones.
        true = np.array([float(np.linalg.norm(new - p)) for p in pts])
        approx = np.linalg.norm(images - v, axis=1)
        rel_err = np.abs(true - approx) / (true + 1e-9)
        assert np.median(rel_err) < 0.25


class TestCostModel:
    def test_fit_linear_in_n(self):
        metric = EuclideanDistance()
        pts = euclidean_points(7, n=50, dim=2)
        fm = FastMap(metric, k=2, iterations=1, seed=7)
        fm.fit(pts)
        # Per axis: 2 pivot scans + 1 projection scan of N objects each,
        # i.e. <= (2c + 1) * N * k (paper: "3Nkc").
        assert metric.n_calls <= (2 * 1 + 1) * 50 * 2

    def test_works_on_non_euclidean_metric(self):
        metric = FunctionDistance(lambda a, b: abs(a - b) ** 0.5, name="sqrt-diff")
        objs = list(range(20))
        fm = FastMap(metric, k=2, seed=8)
        images = fm.fit(objs)
        assert images.shape == (20, 2)
        assert np.all(np.isfinite(images))
