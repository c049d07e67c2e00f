"""Synthetic vector datasets of the paper's evaluation (Section 6.1).

All generators return a :class:`VectorDataset` carrying the points, the
ground-truth labels and cluster centers, and a name following the paper's
``DSkd.Kc.N`` convention. The points are meant to be handed to BUBBLE as
*opaque objects* — the evaluation deliberately ignores their coordinate
structure except inside the Euclidean distance function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.rng import ensure_rng

__all__ = ["VectorDataset", "make_ds1", "make_ds2", "make_cell_dataset"]


@dataclass
class VectorDataset:
    """A labeled synthetic clustering workload."""

    #: ``(N, dim)`` data points.
    points: np.ndarray
    #: Ground-truth cluster index per point.
    labels: np.ndarray
    #: ``(K, dim)`` true cluster centers.
    centers: np.ndarray
    #: Dataset name, e.g. ``"DS20d.50c.100000"``.
    name: str

    def __post_init__(self) -> None:
        if len(self.points) != len(self.labels):
            raise ParameterError("points and labels must have equal length")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_clusters(self) -> int:
        return len(self.centers)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def as_objects(self) -> list[np.ndarray]:
        """The points as a list of opaque objects (one vector each)."""
        return list(self.points)

    def shuffled(self, seed=None) -> "VectorDataset":
        """A copy with the input order permuted (order-independence tests)."""
        rng = ensure_rng(seed)
        perm = rng.permutation(self.n_points)
        return VectorDataset(
            points=self.points[perm],
            labels=self.labels[perm],
            centers=self.centers,
            name=self.name,
        )


def _spread_points(
    centers: np.ndarray,
    n_points: int,
    std: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian points around centers, sizes as even as possible."""
    k, dim = centers.shape
    base, extra = divmod(n_points, k)
    counts = np.full(k, base)
    counts[:extra] += 1
    points = np.empty((n_points, dim))
    labels = np.empty(n_points, dtype=np.intp)
    pos = 0
    for i in range(k):
        c = counts[i]
        points[pos : pos + c] = centers[i] + std * rng.standard_normal((c, dim))
        labels[pos : pos + c] = i
        pos += c
    perm = rng.permutation(n_points)
    return points[perm], labels[perm]


def make_ds1(
    n_points: int = 100_000,
    grid_side: int = 10,
    spacing: float = 6.0,
    std: float = 0.75,
    seed=None,
) -> VectorDataset:
    """DS1: 2-d points around ``grid_side**2`` centers on a uniform grid.

    The BIRCH/BUBBLE papers use 100k points in 100 grid clusters; defaults
    match. ``spacing/std = 8`` keeps clusters visually distinct, as in
    the paper's figures.
    """
    if grid_side < 1:
        raise ParameterError(f"grid_side must be >= 1, got {grid_side}")
    rng = ensure_rng(seed)
    xs, ys = np.meshgrid(np.arange(grid_side), np.arange(grid_side))
    centers = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64) * spacing
    points, labels = _spread_points(centers, n_points, std, rng)
    return VectorDataset(points, labels, centers, name=f"DS1({n_points})")


def make_ds2(
    n_points: int = 100_000,
    n_clusters: int = 100,
    x_max: float = 600.0,
    amplitude: float = 20.0,
    periods: float = 2.5,
    std: float = 0.75,
    seed=None,
) -> VectorDataset:
    """DS2: 2-d points around centers placed along a sine wave.

    Matches the figures in the paper: x spans [0, 600], y oscillates within
    roughly ±20 over a few periods.
    """
    if n_clusters < 1:
        raise ParameterError(f"n_clusters must be >= 1, got {n_clusters}")
    rng = ensure_rng(seed)
    x = np.linspace(0.0, x_max, n_clusters)
    y = amplitude * np.sin(2.0 * np.pi * periods * x / x_max)
    centers = np.column_stack([x, y])
    points, labels = _spread_points(centers, n_points, std, rng)
    return VectorDataset(points, labels, centers, name=f"DS2({n_points})")


def make_cell_dataset(
    dim: int = 20,
    n_clusters: int = 50,
    n_points: int = 100_000,
    box: float = 10.0,
    radius_range: tuple[float, float] = (0.5, 1.0),
    seed=None,
) -> VectorDataset:
    """The ``DSkd.Kc.N`` family described by Agrawal et al. (Section 6.1).

    The box ``[0, box]^dim`` is split into ``2^dim`` cells by halving every
    dimension. ``n_clusters`` distinct cells are chosen at random, a center
    placed uniformly inside each, and ``n_points / n_clusters`` points are
    distributed uniformly within a per-cluster radius drawn from
    ``radius_range``.
    """
    if n_clusters < 1:
        raise ParameterError(f"n_clusters must be >= 1, got {n_clusters}")
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if n_clusters > 2**dim:
        raise ParameterError(
            f"n_clusters={n_clusters} exceeds the 2**dim={2**dim} cells of a "
            f"{dim}-dimensional box"
        )
    lo, hi = radius_range
    if not 0 < lo <= hi:
        raise ParameterError(f"invalid radius_range {radius_range}")
    rng = ensure_rng(seed)
    half = box / 2.0

    # Choose distinct cells: each cell is a bit pattern over the dimensions.
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < n_clusters:
        chosen.add(tuple(int(b) for b in rng.integers(0, 2, size=dim)))
    cells = np.array(sorted(chosen), dtype=np.float64)
    centers = cells * half + rng.uniform(0.0, half, size=(n_clusters, dim))

    base, extra = divmod(n_points, n_clusters)
    counts = np.full(n_clusters, base)
    counts[:extra] += 1
    points = np.empty((n_points, dim))
    labels = np.empty(n_points, dtype=np.intp)
    pos = 0
    for i in range(n_clusters):
        c = int(counts[i])
        radius = rng.uniform(lo, hi)
        # Uniform in the L2 ball: random direction, radius scaled by u^(1/dim).
        direction = rng.standard_normal((c, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        scale = radius * rng.uniform(0.0, 1.0, size=c) ** (1.0 / dim)
        points[pos : pos + c] = centers[i] + direction * scale[:, None]
        labels[pos : pos + c] = i
        pos += c
    perm = rng.permutation(n_points)
    return VectorDataset(
        points[perm],
        labels[perm],
        centers,
        name=f"DS{dim}d.{n_clusters}c.{n_points}",
    )
