"""Brute-force exactness oracles the test suite checks the library against.

None is fast enough, or needed, in the library itself:

* :func:`generic_hac` is the O(n^3) repeated-global-argmin agglomerative
  loop. The library's nearest-neighbour chain is exact for all four
  supported linkages (they are reducible), and this loop is what it is
  tested against. It applies its own Lance–Williams update, so a slip in
  the library's update cannot hide in both.
* :func:`classical_mds` is the Torgerson construction behind Lemma 4.1 of
  the paper: any finite distance space embeds exactly into R^k for some
  ``k < N`` *when the distances are Euclidean-realizable*. It needs all
  ``N(N-1)/2`` distances and cubic time, which is exactly why the paper
  dismisses plain MDS for large N and reaches for FastMap — but for small
  object sets it is exact ground truth to compare FastMap against.
  :func:`stress` scores an embedding against the true distances.
* :func:`exhaustive_assignment` is the second scan as the paper states it:
  every object measured against every center, labeled with the first
  index of the minimum. The library's pruned walk
  (:func:`repro.pipelines.nearest_assignment`) must return its labels
  exactly.
* :class:`InnerCounting` metrics count every evaluation of ``d`` in their
  raw hooks, below the library's counting wrappers, and every hook
  dispatch. ``tests/test_evaluation_oracle.py`` checks the library's NCD
  against them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import EmptyDatasetError, ParameterError
from repro.metrics import EditDistance, EuclideanDistance, RelativeEditDistance
from repro.metrics.base import DistanceFunction

__all__ = ["classical_mds", "exhaustive_assignment", "generic_hac", "stress"]


def _lance_williams(
    linkage: str, di: np.ndarray, dj: np.ndarray, ni: float, nj: float
) -> np.ndarray:
    """Distance from every cluster to the union of clusters i and j."""
    if linkage == "single":
        return np.minimum(di, dj)
    if linkage == "complete":
        return np.maximum(di, dj)
    if linkage == "average":
        return (ni * di + nj * dj) / (ni + nj)
    if linkage == "weighted":
        return 0.5 * (di + dj)
    raise ParameterError(f"unknown linkage {linkage!r}")


def generic_hac(
    distance_matrix: np.ndarray,
    n_clusters: int | None = None,
    linkage: str = "average",
    distance_threshold: float | None = None,
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Flat labels from merging the globally closest pair until the stop rule.

    Same contract as :class:`repro.hac.AgglomerativeClusterer`: stop at
    ``n_clusters`` clusters, or once the closest pair is farther than
    ``distance_threshold``. ``weights`` are the initial cluster sizes.
    """
    dm = np.array(distance_matrix, dtype=np.float64, copy=True)
    n = dm.shape[0]
    sizes = np.ones(n) if weights is None else np.array(weights, dtype=np.float64)
    np.fill_diagonal(dm, np.inf)
    active = np.ones(n, dtype=bool)
    members: list[list[int]] = [[i] for i in range(n)]

    target = n_clusters if n_clusters is not None else 1
    remaining = n
    while remaining > target:
        masked = np.where(active[:, None] & active[None, :], dm, np.inf)
        i, j = divmod(int(np.argmin(masked)), n)
        best = masked[i, j]
        if not np.isfinite(best):
            break
        if distance_threshold is not None and best > distance_threshold:
            break
        if j < i:
            i, j = j, i
        new_row = _lance_williams(linkage, dm[i], dm[j], sizes[i], sizes[j])
        dm[i, :] = new_row
        dm[:, i] = new_row
        dm[i, i] = np.inf
        sizes[i] += sizes[j]
        active[j] = False
        members[i].extend(members[j])
        remaining -= 1

    labels = np.empty(n, dtype=np.intp)
    for flat_label, row in enumerate(np.flatnonzero(active)):
        labels[members[row]] = flat_label
    return labels


def classical_mds(
    distance_matrix: np.ndarray,
    k: int,
) -> np.ndarray:
    """Embed objects into R^k from their full distance matrix.

    Parameters
    ----------
    distance_matrix:
        Symmetric ``(N, N)`` matrix of pairwise distances.
    k:
        Target dimensionality. If the space embeds exactly in fewer than
        ``k`` dimensions the extra coordinates are zero.

    Returns
    -------
    ``(N, k)`` array of coordinates whose pairwise Euclidean distances best
    approximate (exactly reproduce, when realizable) the input distances.
    """
    dm = np.asarray(distance_matrix, dtype=np.float64)
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1]:
        raise ParameterError(f"distance_matrix must be square, got shape {dm.shape}")
    n = dm.shape[0]
    if n == 0:
        raise EmptyDatasetError("classical_mds requires at least one object")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    # Double centering: B = -1/2 * J D^2 J with J = I - 1/n 11^T.
    d2 = dm**2
    row_mean = d2.mean(axis=1, keepdims=True)
    col_mean = d2.mean(axis=0, keepdims=True)
    grand_mean = d2.mean()
    b = -0.5 * (d2 - row_mean - col_mean + grand_mean)
    eigvals, eigvecs = np.linalg.eigh(b)
    # eigh returns ascending order; take the k largest non-negative components.
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order][:k]
    eigvecs = eigvecs[:, order][:, :k]
    eigvals = np.clip(eigvals, 0.0, None)
    coords = eigvecs * np.sqrt(eigvals)
    if coords.shape[1] < k:
        coords = np.hstack([coords, np.zeros((n, k - coords.shape[1]))])
    return coords


def stress(
    objects: Sequence,
    images: np.ndarray,
    metric: DistanceFunction,
) -> float:
    """Kruskal stress-1 of an embedding: 0 means exact distance preservation.

    ``sqrt( sum (d_ij - ||x_i - x_j||)^2 / sum d_ij^2 )`` over all pairs.
    Counts ``N(N-1)/2`` distance calls.
    """
    n = len(objects)
    if n < 2:
        return 0.0
    images = np.asarray(images, dtype=np.float64)
    d_true = metric.pairwise(objects)
    diff = images[:, None, :] - images[None, :, :]
    d_img = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    iu = np.triu_indices(n, k=1)
    num = float(((d_true[iu] - d_img[iu]) ** 2).sum())
    den = float((d_true[iu] ** 2).sum())
    if den == 0.0:
        return 0.0
    return float(np.sqrt(num / den))


def exhaustive_assignment(
    metric: DistanceFunction, objects: Iterable, centers: Sequence
) -> np.ndarray:
    """Index of each object's nearest center, lowest index on ties.

    Costs ``len(objects) * len(centers)`` distance calls.
    """
    batch = metric.prepare(centers)
    labels = [int(np.argmin(metric.one_to_many(obj, batch))) for obj in objects]
    return np.asarray(labels, dtype=np.intp)


class InnerCounting:
    """Mixin: a metric that counts the pairs it evaluates, in its hooks.

    The hooks sit below the library's counting wrappers, so the metric sees
    every evaluation of ``d``, counted or not. It also counts hook
    *dispatches*: one per outermost hook entry, the unit a batched call
    saves over a Python loop of scalar calls. A hook that delegates to a
    sibling hook (``EditDistance._pairwise`` runs ``_one_to_many`` rows) is
    booked once, at the outer call. Both totals live on the mixin, so
    pickled copies (a sharded build makes one per shard) add to them too.
    """

    evals = 0
    dispatches = 0
    _depth = 0

    @staticmethod
    def reset():
        InnerCounting.evals = InnerCounting.dispatches = InnerCounting._depth = 0

    def _hook(self, hook, pairs, *args):
        if InnerCounting._depth == 0:
            InnerCounting.evals += pairs
            InnerCounting.dispatches += 1
        InnerCounting._depth += 1
        try:
            return getattr(super(), hook)(*args)
        finally:
            InnerCounting._depth -= 1

    def _distance(self, a, b):
        return self._hook("_distance", 1, a, b)

    def _one_to_many(self, obj, objects):
        return self._hook("_one_to_many", len(objects), obj, objects)

    def _pairwise(self, objects):
        return self._hook("_pairwise", len(objects) * (len(objects) - 1) // 2, objects)

    def _cross(self, objects_a, objects_b):
        return self._hook("_cross", len(objects_a) * len(objects_b), objects_a, objects_b)


class InnerCountingEuclidean(InnerCounting, EuclideanDistance):
    """Euclidean distance under :class:`InnerCounting`."""


class InnerCountingEditDistance(InnerCounting, EditDistance):
    """Unit-cost edit distance under :class:`InnerCounting`."""


class InnerCountingRelativeEditDistance(InnerCounting, RelativeEditDistance):
    """Relative edit distance (RED's metric) under :class:`InnerCounting`."""
