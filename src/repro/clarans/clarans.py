"""CLARANS: Clustering Large Applications based on RANdomized Search.

K-medoid clustering as a search over the graph whose nodes are medoid sets
and whose edges swap one medoid for one non-medoid. From a random node,
CLARANS examines up to ``max_neighbors`` random swaps; any cost-improving
swap is taken immediately, and a node none of whose sampled neighbours
improves it is a local optimum. The best of ``num_local`` local optima wins.

The swap evaluation uses the standard incremental cost delta from cached
nearest/second-nearest medoid distances, so one candidate swap costs O(N)
distance calls rather than O(N * K). The caches stay exact throughout —
the initial assignment and every accepted swap recompute them in full —
so the winning restart's nearest/label arrays are reused directly for
``labels_``/``cost_`` instead of paying a final k×n re-derivation pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.exceptions import EmptyDatasetError, NotFittedError, ParameterError
from repro.metrics.base import DistanceFunction
from repro.utils.rng import ensure_rng

__all__ = ["CLARANS"]

#: The three exact per-restart caches: nearest distance, second-nearest
#: distance, and nearest-medoid label for every object.
_Caches = tuple[np.ndarray, np.ndarray, np.ndarray]


class CLARANS:
    """Randomized k-medoid search over a distance space.

    Parameters
    ----------
    n_clusters:
        Number of medoids ``k``.
    metric:
        The distance function (NCD accumulates on it).
    num_local:
        Local optima to collect (the paper's ``numlocal``; default 2).
    max_neighbors:
        Random swaps examined per node before declaring a local optimum;
        defaults to ``max(250, 1.25% of k * (N - k))`` as recommended by
        Ng & Han.
    seed:
        Seed or generator.

    Attributes
    ----------
    medoids_:
        The winning medoid objects.
    medoid_indices_:
        Position of each winning medoid in the fitted object sequence.
    labels_:
        Index of the closest medoid per object.
    cost_:
        Total distance of objects to their closest medoid.
    """

    def __init__(
        self,
        n_clusters: int,
        metric: DistanceFunction,
        num_local: int = 2,
        max_neighbors: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1, got {n_clusters}")
        if num_local < 1:
            raise ParameterError(f"num_local must be >= 1, got {num_local}")
        if max_neighbors is not None and max_neighbors < 1:
            raise ParameterError(f"max_neighbors must be >= 1, got {max_neighbors}")
        self.n_clusters = int(n_clusters)
        self.metric = metric
        self.num_local = int(num_local)
        self.max_neighbors = max_neighbors
        self._rng = ensure_rng(seed)
        self.medoids_: list[Any] | None = None
        self.medoid_indices_: list[int] | None = None
        self.labels_: np.ndarray | None = None
        self.cost_: float | None = None

    # ------------------------------------------------------------------
    def fit(self, objects: Sequence[Any]) -> "CLARANS":
        objs = list(objects)
        n = len(objs)
        if n == 0:
            raise EmptyDatasetError("CLARANS.fit requires at least one object")
        if self.n_clusters > n:
            raise ParameterError(f"n_clusters={self.n_clusters} exceeds dataset size {n}")
        k = self.n_clusters
        max_neighbors = self.max_neighbors
        if max_neighbors is None:
            max_neighbors = max(250, int(0.0125 * k * (n - k)))

        # Every gather of the search reads the same collection: prepare it
        # once (a stacked matrix, packed string lanes) for the whole fit.
        batch = self.metric.prepare(objs)
        best_cost = np.inf
        best: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        for _ in range(self.num_local):
            medoids = np.asarray(self._rng.choice(n, size=k, replace=False))
            nearest, second, near_lab = self._distances_to_medoids(objs, batch, medoids)
            cost = float(nearest.sum())
            examined = 0
            while examined < max_neighbors:
                swap_out = int(self._rng.integers(0, k))
                swap_in = int(self._rng.integers(0, n))
                if swap_in in medoids:
                    examined += 1
                    continue
                delta, d_new = self._swap_delta(
                    objs, batch, swap_out, swap_in, nearest, second, near_lab
                )
                if delta < -1e-12:
                    medoids[swap_out] = swap_in
                    nearest, second, near_lab = self._apply_swap(
                        objs, batch, medoids, swap_out, d_new
                    )
                    cost += delta
                    examined = 0
                else:
                    examined += 1
            if cost < best_cost:
                best_cost = cost
                # The caches are exact for the restart's final medoid set
                # (full recomputation at init and after every accepted
                # swap), so keep them instead of re-deriving nearest/labels
                # with a k*n pass after the restarts.
                best = (medoids.copy(), nearest.copy(), near_lab.copy())

        if best is None:  # pragma: no cover - num_local >= 1 guarantees a best
            raise NotFittedError("CLARANS found no restart result")
        best_medoids, best_nearest, best_labels = best
        self.medoid_indices_ = [int(i) for i in best_medoids]
        self.medoids_ = [objs[int(i)] for i in best_medoids]
        self.labels_ = best_labels
        self.cost_ = float(best_nearest.sum())
        return self

    # ------------------------------------------------------------------
    def _distances_to_medoids(
        self, objects: list[Any], batch: Sequence[Any], medoids: np.ndarray
    ) -> _Caches:
        """Nearest and second-nearest medoid distance (and nearest label)
        for every object; ``batch`` is ``objects`` as the metric prepared
        them."""
        cols = [self.metric.one_to_many(objects[int(m)], batch) for m in medoids]
        return self._caches_from_columns(cols)

    def _caches_from_columns(self, cols: list[np.ndarray]) -> _Caches:
        """Exact nearest/second/label caches from per-medoid distance rows."""
        dmat = np.vstack(cols)  # (k, n)
        order = np.argsort(dmat, axis=0)
        near_lab = order[0]
        nearest = dmat[near_lab, np.arange(dmat.shape[1])]
        if dmat.shape[0] > 1:
            second = dmat[order[1], np.arange(dmat.shape[1])]
        else:
            second = np.full(dmat.shape[1], np.inf)
        return nearest, second, near_lab.astype(np.intp)

    def _swap_delta(
        self,
        objects: list[Any],
        batch: Sequence[Any],
        swap_out: int,
        swap_in: int,
        nearest: np.ndarray,
        second: np.ndarray,
        near_lab: np.ndarray,
    ) -> tuple[float, np.ndarray]:
        """Cost change of replacing medoid ``swap_out`` with object
        ``swap_in`` — O(N) distance calls."""
        d_new = self.metric.one_to_many(objects[swap_in], batch)
        lost = near_lab == swap_out
        # Objects losing their medoid go to min(second-best, new); the rest
        # may only improve by switching to the new medoid.
        new_assign = np.where(lost, np.minimum(second, d_new), np.minimum(nearest, d_new))
        return float(new_assign.sum() - nearest.sum()), d_new

    def _apply_swap(
        self,
        objects: list[Any],
        batch: Sequence[Any],
        medoids: np.ndarray,
        swap_out: int,
        d_new: np.ndarray,
    ) -> _Caches:
        """Recompute the nearest/second caches after an accepted swap.

        A full recomputation against the current medoid set keeps the cache
        exact; it reuses the just-computed column for the incoming medoid.
        """
        cols = []
        for j, m in enumerate(medoids):
            if j == swap_out:
                cols.append(d_new)
            else:
                cols.append(self.metric.one_to_many(objects[int(m)], batch))
        return self._caches_from_columns(cols)

    # ------------------------------------------------------------------
    @property
    def n_clusters_(self) -> int:
        if self.medoids_ is None:
            raise NotFittedError("CLARANS has not been fitted")
        return len(self.medoids_)
