"""FastMap: linear-time approximate distance-preserving embedding.

Following Faloutsos & Lin (SIGMOD 1995), each of the ``k`` image-space axes
is defined by a pair of *pivot objects* ``(O_a, O_b)`` chosen to be far
apart. An object ``O`` projects onto the axis through the cosine law::

    x = (d'^2(O_a, O) + d'^2(O_a, O_b) - d'^2(O_b, O)) / (2 * d'(O_a, O_b))

where ``d'`` is the distance *in the hyperplane orthogonal to all previous
axes*, computed from the original distance and the coordinates found so
far::

    d'^2(x, y) = d^2(x, y) - sum_{previous axes j} (x_j - y_j)^2

Fitting N objects costs ``(2 * iterations + 1) * N`` distance calls per axis
(the pivot search scans the dataset ``2 * iterations`` times, projection
reuses the final scan plus one more); the paper summarizes this as
``3 N k c``. Incrementally mapping one new object costs exactly ``2k`` calls
— this is what BUBBLE-FM banks on.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import EmptyDatasetError, NotFittedError, ParameterError
from repro.metrics.base import DistanceFunction
from repro.utils.rng import ensure_rng

__all__ = ["FastMap"]


class FastMap:
    """Embed a distance space into R^k, with incremental mapping of new objects.

    Parameters
    ----------
    metric:
        The distance function of the space. Call counts accumulate on it.
    k:
        Image dimensionality (number of axes).
    iterations:
        Passes of the choose-distant-objects heuristic per axis (the
        parameter ``c`` in the paper, "typically set to 1 or 2").
    seed:
        Seed or generator for the random starting object of the pivot search.

    Attributes
    ----------
    embedding_:
        ``(N, k)`` array of image vectors for the fitted objects.
    pivot_objects_:
        List of ``k`` pivot pairs ``(O_a, O_b)``.
    axis_lengths_:
        ``d'(O_a, O_b)`` per axis; an entry of 0 marks a degenerate axis
        (all remaining coordinates are 0).

    Examples
    --------
    >>> from repro.metrics import EuclideanDistance
    >>> import numpy as np
    >>> pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [3.0, 4.0]])
    >>> fm = FastMap(EuclideanDistance(), k=2, seed=0)
    >>> images = fm.fit(list(pts))
    >>> images.shape
    (4, 2)
    """

    def __init__(
        self,
        metric: DistanceFunction,
        k: int,
        iterations: int = 2,
        seed: int | np.random.Generator | None = None,
    ):
        if not isinstance(metric, DistanceFunction):
            raise ParameterError("metric must be a DistanceFunction")
        if k < 1:
            raise ParameterError(f"image dimensionality k must be >= 1, got {k}")
        if iterations < 1:
            raise ParameterError(f"iterations must be >= 1, got {iterations}")
        self.metric = metric
        self.k = int(k)
        self.iterations = int(iterations)
        self._rng = ensure_rng(seed)
        self.embedding_: np.ndarray | None = None
        self.pivot_objects_: list[tuple[object, object]] = []
        self.axis_lengths_: list[float] = []
        # Image coordinates of each axis's pivots on all *previous* axes,
        # needed to reduce original distances during incremental mapping.
        self._pivot_coords_a: list[np.ndarray] = []
        self._pivot_coords_b: list[np.ndarray] = []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, objects: Sequence) -> np.ndarray:
        """Compute image vectors for ``objects`` and remember the pivots.

        Returns the ``(N, k)`` embedding; also stored as ``embedding_``.
        """
        n = len(objects)
        if n == 0:
            raise EmptyDatasetError("FastMap.fit requires at least one object")
        objects = list(objects)
        # Every scan of the fit gathers over the same objects: prepare them
        # once (a stacked matrix, packed string lanes) for all of them.
        batch = self.metric.prepare(objects)
        coords = np.zeros((n, self.k), dtype=np.float64)
        self.pivot_objects_ = []
        self.axis_lengths_ = []
        self._pivot_coords_a = []
        self._pivot_coords_b = []

        for axis in range(self.k):
            ia, ib, dist_ab2, dists_a2 = self._choose_pivots(objects, batch, coords, axis)
            self.pivot_objects_.append((objects[ia], objects[ib]))
            self._pivot_coords_a.append(coords[ia, :axis].copy())
            self._pivot_coords_b.append(coords[ib, :axis].copy())
            if dist_ab2 <= 0.0:
                # All remaining inter-object distance is exhausted: every
                # object is at the same point in the residual space.
                self.axis_lengths_.append(0.0)
                continue
            dist_ab = float(np.sqrt(dist_ab2))
            self.axis_lengths_.append(dist_ab)
            dists_b2 = self._reduced_sq_to_all(objects[ib], coords[ib, :axis], batch, coords, axis)
            # FastMap's projection (Eq. 3) is *defined* on squared residual
            # distances; it is a single-shot cosine-law evaluation, not an
            # accumulation, so there is no stable incremental form to rewrite
            # into.
            coords[:, axis] = (dists_a2 + dist_ab2 - dists_b2) / (2.0 * dist_ab)
        self.embedding_ = coords
        return coords

    def _choose_pivots(
        self,
        objects: list,
        batch: Sequence,
        coords: np.ndarray,
        axis: int,
    ) -> tuple[int, int, float, np.ndarray]:
        """Choose-distant-objects heuristic for axis ``axis``; ``batch`` is
        ``objects`` as the metric prepared them.

        Returns ``(index_a, index_b, d'^2(a, b), d'^2(a, *))`` where the last
        element is reused for the projection step (saving a scan).
        """
        n = len(objects)
        ib = int(self._rng.integers(0, n))
        ia = ib
        dists_from_a = np.zeros(n)
        for _ in range(self.iterations):
            dists_from_b = self._reduced_sq_to_all(
                objects[ib], coords[ib, :axis], batch, coords, axis
            )
            ia_new = int(np.argmax(dists_from_b))
            dists_from_a = self._reduced_sq_to_all(
                objects[ia_new], coords[ia_new, :axis], batch, coords, axis
            )
            ib_new = int(np.argmax(dists_from_a))
            ia, ib = ia_new, ib_new
            if ia == ib:
                break
        dist_ab2 = float(dists_from_a[ib]) if ia != ib else 0.0
        return ia, ib, dist_ab2, dists_from_a

    def _reduced_sq_to_all(
        self,
        obj,
        obj_coords: np.ndarray,
        batch: Sequence,
        coords: np.ndarray,
        axis: int,
    ) -> np.ndarray:
        """``d'^2`` from ``obj`` to every fitted object in the residual space;
        ``batch`` is the fitted objects as the metric prepared them."""
        orig = self.metric.one_to_many(obj, batch)
        reduced = orig**2
        if axis > 0:
            diffs = coords[:, :axis] - obj_coords
            reduced -= np.einsum("ij,ij->i", diffs, diffs)
            np.maximum(reduced, 0.0, out=reduced)
        return reduced

    # ------------------------------------------------------------------
    # Incremental mapping
    # ------------------------------------------------------------------
    def transform(self, obj) -> np.ndarray:
        """Map one new object into the image space with exactly 2k distance calls."""
        if self.embedding_ is None:
            raise NotFittedError("FastMap.transform called before fit")
        x = np.zeros(self.k, dtype=np.float64)
        for axis, (pivot_a, pivot_b) in enumerate(self.pivot_objects_):
            d_oa = self.metric.distance(obj, pivot_a)
            d_ob = self.metric.distance(obj, pivot_b)
            length = self.axis_lengths_[axis]
            if length <= 0.0:
                continue
            da2 = d_oa**2 - _sq_norm(x[:axis] - self._pivot_coords_a[axis])
            db2 = d_ob**2 - _sq_norm(x[:axis] - self._pivot_coords_b[axis])
            da2 = max(da2, 0.0)
            db2 = max(db2, 0.0)
            # Same single-shot FastMap projection formula as fit(); defined on
            # squared distances, nothing accumulates across calls.
            x[axis] = (da2 + length**2 - db2) / (2.0 * length)
        return x

    def transform_many(self, objects: Sequence) -> np.ndarray:
        """Map a sequence of new objects; ``2k`` calls each."""
        if len(objects) == 0:
            return np.empty((0, self.k), dtype=np.float64)
        return np.vstack([self.transform(o) for o in objects])

    @property
    def n_pivot_calls_per_object(self) -> int:
        """Distance calls needed to incrementally map one object (= 2k)."""
        return 2 * self.k


def _sq_norm(v: np.ndarray) -> float:
    return float(np.dot(v, v)) if v.size else 0.0
