"""Unit tests for the synthetic vector dataset generators."""

import numpy as np
import pytest

from repro.datasets import make_cell_dataset, make_ds1, make_ds2
from repro.exceptions import ParameterError


class TestDS1:
    def test_shapes(self):
        ds = make_ds1(n_points=1000, grid_side=5, seed=0)
        assert ds.points.shape == (1000, 2)
        assert ds.labels.shape == (1000,)
        assert ds.centers.shape == (25, 2)
        assert ds.n_clusters == 25

    def test_centers_on_grid(self):
        ds = make_ds1(n_points=100, grid_side=3, spacing=6.0, seed=0)
        xs = np.unique(ds.centers[:, 0])
        np.testing.assert_allclose(xs, [0.0, 6.0, 12.0])

    def test_points_near_their_center(self):
        ds = make_ds1(n_points=2000, grid_side=4, spacing=10.0, std=0.5, seed=1)
        dists = np.linalg.norm(ds.points - ds.centers[ds.labels], axis=1)
        assert np.percentile(dists, 99) < 2.5  # ~5 sigma

    def test_deterministic(self):
        a = make_ds1(n_points=500, seed=7)
        b = make_ds1(n_points=500, seed=7)
        np.testing.assert_array_equal(a.points, b.points)

    def test_balanced_cluster_sizes(self):
        ds = make_ds1(n_points=1003, grid_side=10, seed=0)
        counts = np.bincount(ds.labels, minlength=100)
        assert counts.min() >= 10
        assert counts.max() <= 11

    def test_rejects_bad_grid(self):
        with pytest.raises(ParameterError):
            make_ds1(grid_side=0)


class TestDS2:
    def test_centers_trace_sine(self):
        ds = make_ds2(n_points=100, n_clusters=50, amplitude=20.0, seed=0)
        assert np.abs(ds.centers[:, 1]).max() <= 20.0 + 1e-9
        assert ds.centers[:, 0].min() == 0.0
        assert ds.centers[:, 0].max() == pytest.approx(600.0)

    def test_wave_oscillates(self):
        ds = make_ds2(n_points=100, n_clusters=100, seed=0)
        y = ds.centers[:, 1]
        assert (y > 15).any() and (y < -15).any()

    def test_shuffled_preserves_content(self):
        ds = make_ds2(n_points=300, n_clusters=10, seed=0)
        sh = ds.shuffled(seed=1)
        assert sorted(map(tuple, sh.points.tolist())) == sorted(
            map(tuple, ds.points.tolist())
        )
        # labels permuted consistently with points
        lookup = {tuple(p): l for p, l in zip(ds.points.tolist(), ds.labels.tolist())}
        for p, l in zip(sh.points.tolist(), sh.labels.tolist()):
            assert lookup[tuple(p)] == l

    def test_rejects_bad_clusters(self):
        with pytest.raises(ParameterError):
            make_ds2(n_clusters=0)


class TestCellDataset:
    def test_name_convention(self):
        ds = make_cell_dataset(dim=5, n_clusters=8, n_points=400, seed=0)
        assert ds.name == "DS5d.8c.400"

    def test_shapes(self):
        ds = make_cell_dataset(dim=5, n_clusters=8, n_points=400, seed=0)
        assert ds.points.shape == (400, 5)
        assert ds.centers.shape == (8, 5)
        assert ds.dim == 5

    def test_points_within_radius_of_center(self):
        ds = make_cell_dataset(dim=4, n_clusters=6, n_points=600, seed=1)
        dists = np.linalg.norm(ds.points - ds.centers[ds.labels], axis=1)
        assert dists.max() <= 1.0 + 1e-9  # radius drawn from [0.5, 1.0]

    def test_centers_in_distinct_cells(self):
        ds = make_cell_dataset(dim=3, n_clusters=8, n_points=80, seed=2)
        cells = {tuple((c // 5.0).astype(int)) for c in ds.centers}
        assert len(cells) == 8  # 2^3 cells, all 8 used

    def test_centers_inside_box(self):
        ds = make_cell_dataset(dim=6, n_clusters=10, n_points=100, seed=3)
        assert ds.centers.min() >= 0.0
        assert ds.centers.max() <= 10.0

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            make_cell_dataset(dim=0)
        with pytest.raises(ParameterError):
            make_cell_dataset(n_clusters=0)
        with pytest.raises(ParameterError):
            make_cell_dataset(radius_range=(1.0, 0.5))
        # Only 2**dim distinct cells exist; asking for more must not loop.
        with pytest.raises(ParameterError, match="2\\*\\*dim=4"):
            make_cell_dataset(dim=2, n_clusters=10, n_points=600, seed=3)
        assert len(make_cell_dataset(dim=2, n_clusters=4, n_points=40, seed=3).centers) == 4

    def test_deterministic(self):
        a = make_cell_dataset(dim=3, n_clusters=4, n_points=100, seed=9)
        b = make_cell_dataset(dim=3, n_clusters=4, n_points=100, seed=9)
        np.testing.assert_array_equal(a.points, b.points)

    def test_as_objects(self):
        ds = make_cell_dataset(dim=2, n_clusters=2, n_points=10, seed=0)
        objs = ds.as_objects()
        assert len(objs) == 10
        assert objs[0].shape == (2,)
