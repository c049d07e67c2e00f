"""Agglomerative clustering over a distance matrix (Lance–Williams).

Works in any distance space: it only needs the pairwise distance matrix of
the items (for the paper's pipelines, the clustroids of the sub-clusters
found by the pre-clustering phase — a few hundred items). Merging follows
the O(n^2) nearest-neighbour chain, which is exact for all four linkages
below because each is reducible.

Supported linkages (Lance–Williams update coefficients):

========== =====================================================
single      d(k, i∪j) = min(d(k,i), d(k,j))
complete    d(k, i∪j) = max(d(k,i), d(k,j))
average     size-weighted UPGMA: (n_i d(k,i) + n_j d(k,j)) / (n_i + n_j)
weighted    WPGMA: (d(k,i) + d(k,j)) / 2
========== =====================================================

Initial item sizes default to 1 but may be set to sub-cluster populations
via ``weights``, which makes ``average`` linkage respect how many objects
each clustroid stands for.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import EmptyDatasetError, NotFittedError, ParameterError
from repro.metrics.base import DistanceFunction

__all__ = ["AgglomerativeClusterer", "linkage_matrix"]

_LINKAGES = ("single", "complete", "average", "weighted")


def _lw_update(linkage: str, di: np.ndarray, dj: np.ndarray, ni: float, nj: float) -> np.ndarray:
    """Lance-Williams distance update for merging clusters i and j."""
    if linkage == "single":
        return np.minimum(di, dj)
    if linkage == "complete":
        return np.maximum(di, dj)
    if linkage == "average":
        return (ni * di + nj * dj) / (ni + nj)
    return 0.5 * (di + dj)  # weighted


class AgglomerativeClusterer:
    """Bottom-up hierarchical clustering with a chosen linkage.

    Parameters
    ----------
    n_clusters:
        Number of flat clusters to cut the dendrogram into. Mutually
        exclusive with ``distance_threshold``.
    linkage:
        One of ``single``, ``complete``, ``average``, ``weighted``.
    distance_threshold:
        Stop merging once the closest pair is farther than this; the number
        of clusters then depends on the data.

    Attributes
    ----------
    labels_:
        Flat cluster index per input item.
    merges_:
        List of ``(a, b, dist)`` in merge order, where ``a``/``b`` are
        cluster ids (item index for originals, ``n + k`` for the cluster
        created by merge ``k``) — the dendrogram.
    """

    def __init__(
        self,
        n_clusters: int | None = None,
        linkage: str = "average",
        distance_threshold: float | None = None,
    ):
        if linkage not in _LINKAGES:
            raise ParameterError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
        if (n_clusters is None) == (distance_threshold is None):
            raise ParameterError(
                "exactly one of n_clusters and distance_threshold must be given"
            )
        if n_clusters is not None and n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1, got {n_clusters}")
        if distance_threshold is not None and distance_threshold < 0:
            raise ParameterError("distance_threshold must be >= 0")
        self.n_clusters = n_clusters
        self.linkage = linkage
        self.distance_threshold = distance_threshold
        self.labels_: np.ndarray | None = None
        self.merges_: list[tuple[int, int, float]] = []

    # ------------------------------------------------------------------
    def fit(
        self,
        distance_matrix: np.ndarray | None = None,
        objects: Sequence | None = None,
        metric: DistanceFunction | None = None,
        weights: Sequence[float] | None = None,
    ) -> "AgglomerativeClusterer":
        """Cluster from a distance matrix, or from objects plus a metric.

        Exactly one of ``distance_matrix`` or (``objects`` and ``metric``)
        must be supplied. ``weights`` sets initial item sizes (sub-cluster
        populations) for size-aware linkages.
        """
        if distance_matrix is None:
            if objects is None or metric is None:
                raise ParameterError(
                    "provide either distance_matrix or both objects and metric"
                )
            distance_matrix = metric.pairwise(objects)
        dm = np.array(distance_matrix, dtype=np.float64, copy=True)
        if dm.ndim != 2 or dm.shape[0] != dm.shape[1]:
            raise ParameterError(f"distance matrix must be square, got {dm.shape}")
        n = dm.shape[0]
        if n == 0:
            raise EmptyDatasetError("cannot cluster zero items")
        if self.n_clusters is not None and self.n_clusters > n:
            raise ParameterError(
                f"n_clusters={self.n_clusters} exceeds number of items {n}"
            )
        sizes = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        if sizes.shape != (n,):
            raise ParameterError(f"weights must have shape ({n},), got {sizes.shape}")

        np.fill_diagonal(dm, np.inf)
        self._fit_nn_chain(dm, sizes)
        return self

    # ------------------------------------------------------------------
    # O(n^2) nearest-neighbour chain (Benzecri / Murtagh).
    # ------------------------------------------------------------------
    def _fit_nn_chain(self, dm: np.ndarray, sizes: np.ndarray) -> None:
        """Build the full dendrogram by following chains of nearest
        neighbours until a reciprocal pair is found, then cut it.

        Valid because every supported linkage is *reducible*: merging two
        clusters never brings the merged cluster closer to a third than
        either constituent was, so a reciprocal-nearest-neighbour pair
        remains one under unrelated merges and the chain never invalidates.
        The merges are discovered out of height order; cutting sorts them.
        """
        n = dm.shape[0]
        if n == 1:
            self.merges_ = []
            self.labels_ = np.zeros(1, dtype=np.intp)
            return
        active = np.ones(n, dtype=bool)
        cluster_id = list(range(n))
        dendrogram: list[tuple[int, int, float]] = []
        chain: list[int] = []

        while len(dendrogram) < n - 1:
            if not chain:
                chain.append(int(np.flatnonzero(active)[0]))
            while True:
                top = chain[-1]
                row = np.where(active, dm[top], np.inf)
                row[top] = np.inf
                nn = int(np.argmin(row))
                # Prefer the chain predecessor on ties to guarantee
                # reciprocal pairs terminate the walk.
                if len(chain) >= 2 and row[chain[-2]] <= row[nn]:
                    nn = chain[-2]
                if len(chain) >= 2 and nn == chain[-2]:
                    break
                chain.append(nn)
            b = chain.pop()
            a = chain.pop()
            dist = float(dm[a, b])
            new_row = _lw_update(self.linkage, dm[a], dm[b], sizes[a], sizes[b])
            dm[a, :] = new_row
            dm[:, a] = new_row
            dm[a, a] = np.inf
            sizes[a] += sizes[b]
            active[b] = False
            dendrogram.append((cluster_id[a], cluster_id[b], dist))
            cluster_id[a] = n + len(dendrogram) - 1

        self._cut_dendrogram(dendrogram, n)

    def _cut_dendrogram(self, dendrogram: list[tuple[int, int, float]], n: int) -> None:
        """Apply merges in height order until the stop rule fires."""
        order = sorted(range(len(dendrogram)), key=lambda k: dendrogram[k][2])
        # Union-find over original cluster ids (0..2n-2).
        parent = list(range(2 * n - 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        target = self.n_clusters if self.n_clusters is not None else 1
        remaining = n
        applied: list[tuple[int, int, float]] = []
        for k in order:
            if remaining <= target:
                break
            a, b, dist = dendrogram[k]
            if self.distance_threshold is not None and dist > self.distance_threshold:
                break
            new_id = n + k
            root = find(a)
            parent[root] = new_id
            root = find(b)
            parent[root] = new_id
            applied.append((a, b, dist))
            remaining -= 1
        self.merges_ = applied

        roots: dict[int, int] = {}
        labels = np.empty(n, dtype=np.intp)
        for item in range(n):
            root = find(item)
            if root not in roots:
                roots[root] = len(roots)
            labels[item] = roots[root]
        self.labels_ = labels

    # ------------------------------------------------------------------
    @property
    def n_clusters_(self) -> int:
        """Number of flat clusters actually produced."""
        if self.labels_ is None:
            raise NotFittedError("AgglomerativeClusterer has not been fitted")
        return int(self.labels_.max()) + 1

    def cluster_members(self) -> list[list[int]]:
        """Item indices of each flat cluster, by label."""
        if self.labels_ is None:
            raise NotFittedError("AgglomerativeClusterer has not been fitted")
        out: list[list[int]] = [[] for _ in range(self.n_clusters_)]
        for idx, lab in enumerate(self.labels_):
            out[int(lab)].append(idx)
        return out


def linkage_matrix(merges: list[tuple[int, int, float]], n: int) -> np.ndarray:
    """Convert a merge history to a scipy-style ``(n-1, 4)`` linkage matrix.

    Column 3 (the new cluster's size) is reconstructed from the history.
    Useful for plotting dendrograms with scipy without depending on it here.
    """
    sizes = {i: 1 for i in range(n)}
    out = np.zeros((len(merges), 4), dtype=np.float64)
    for k, (a, b, dist) in enumerate(merges):
        size = sizes[a] + sizes[b]
        sizes[n + k] = size
        out[k] = (a, b, dist, size)
    return out
