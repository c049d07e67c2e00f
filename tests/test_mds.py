"""Unit tests for the classical MDS oracle and the stress diagnostic."""

import numpy as np
import pytest

from oracles import classical_mds, stress
from repro.exceptions import EmptyDatasetError, ParameterError
from repro.metrics import EuclideanDistance


class TestClassicalMDS:
    def test_reconstructs_euclidean_distances_exactly(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 3))
        dm = EuclideanDistance().pairwise(list(pts))
        coords = classical_mds(dm, k=3)
        dm2 = EuclideanDistance().pairwise(list(coords))
        np.testing.assert_allclose(dm, dm2, atol=1e-8)

    def test_paper_example_three_objects(self):
        # The paper's example: distances 3, 4, 5 embed exactly in R^2.
        dm = np.array([[0, 3, 5], [3, 0, 4], [5, 4, 0]], dtype=float)
        coords = classical_mds(dm, k=2)
        out = EuclideanDistance().pairwise(list(coords))
        np.testing.assert_allclose(out, dm, atol=1e-9)

    def test_pads_with_zero_columns(self):
        dm = np.array([[0.0, 2.0], [2.0, 0.0]])
        coords = classical_mds(dm, k=3)
        assert coords.shape == (2, 3)
        # Only one dimension is needed; others must carry nothing.
        assert np.allclose(coords[:, 1:], 0.0, atol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            classical_mds(np.zeros((2, 3)), k=1)

    def test_rejects_empty(self):
        with pytest.raises(EmptyDatasetError):
            classical_mds(np.zeros((0, 0)), k=1)

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            classical_mds(np.zeros((2, 2)), k=0)

    def test_dimension_reduction_is_projection(self):
        # Embedding 3-d data into 2-d keeps stress moderate.
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(15, 3))
        pts[:, 2] *= 0.05  # nearly planar
        dm = EuclideanDistance().pairwise(list(pts))
        coords = classical_mds(dm, k=2)
        s = stress(list(pts), coords, EuclideanDistance())
        assert s < 0.05


class TestStress:
    def test_zero_for_exact_embedding(self):
        pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert stress(pts, np.asarray(pts), EuclideanDistance()) == pytest.approx(0.0)

    def test_single_object(self):
        assert stress([np.zeros(2)], np.zeros((1, 2)), EuclideanDistance()) == 0.0

    def test_positive_for_distorted_embedding(self):
        pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        bad = np.zeros((3, 2))
        assert stress(pts, bad, EuclideanDistance()) > 0.9
