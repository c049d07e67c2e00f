"""DBSCAN (Ester, Kriegel, Sander & Xu, KDD 1996) over an M-tree.

Standard definitions: an object is a *core* object if at least ``min_pts``
objects (itself included) lie within ``eps`` of it; clusters are the
transitive closure of core objects over the eps-neighbourhood relation;
non-core objects within eps of a core object join its cluster (border
objects); everything else is noise.

Region queries go through :class:`repro.mtree.MTree`, so the only
requirement on the data is a distance function with the triangle
inequality — exactly the paper's distance-space contract.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.exceptions import EmptyDatasetError, NotFittedError, ParameterError
from repro.metrics.base import DistanceFunction
from repro.mtree import MTree
from repro.utils.validation import check_integer, check_positive

__all__ = ["MetricDBSCAN", "NOISE"]

#: Label assigned to noise objects.
NOISE = -1


class MetricDBSCAN:
    """Density-based clustering of any metric space via M-tree region queries.

    Parameters
    ----------
    eps:
        Neighbourhood radius.
    min_pts:
        Minimum neighbourhood size (including the object itself) for a core
        object.
    metric:
        The distance function; NCD accumulates on it.
    node_capacity:
        M-tree node capacity.

    Attributes
    ----------
    labels_:
        Cluster index per object; ``NOISE`` (= -1) marks noise.
    core_mask_:
        Boolean array marking core objects.
    n_clusters_:
        Number of clusters discovered.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.metrics import EuclideanDistance
    >>> pts = [np.array([0.0, i * 0.1]) for i in range(20)]
    >>> pts += [np.array([10.0, 0.0])]
    >>> model = MetricDBSCAN(eps=0.2, min_pts=3, metric=EuclideanDistance())
    >>> model.fit(pts).n_clusters_
    1
    >>> int(model.labels_[-1]) == NOISE
    True
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        metric: DistanceFunction,
        node_capacity: int = 8,
    ):
        if not isinstance(metric, DistanceFunction):
            raise ParameterError("metric must be a DistanceFunction")
        self.eps = check_positive(eps, "eps")
        self.min_pts = check_integer(min_pts, "min_pts", minimum=1)
        self.metric = metric
        self.node_capacity = check_integer(node_capacity, "node_capacity", minimum=2)
        self.labels_: np.ndarray | None = None
        self.core_mask_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(self, objects: Sequence) -> "MetricDBSCAN":
        objects = list(objects)
        n = len(objects)
        if n == 0:
            raise EmptyDatasetError("MetricDBSCAN.fit requires at least one object")

        # Neighbour indices are positions in ``objects``. Labels do not
        # depend on hit order: each cluster's reachable set is a closure,
        # and clusters expand in ``start`` order.
        index = MTree(self.metric, node_capacity=self.node_capacity).build(objects)

        labels = np.full(n, NOISE, dtype=np.intp)
        core = np.zeros(n, dtype=bool)
        visited = np.zeros(n, dtype=bool)
        neighbour_cache: dict[int, list[int]] = {}

        def region(i: int) -> list[int]:
            if i not in neighbour_cache:
                hits = index.within(objects[i], self.eps)
                neighbour_cache[i] = [hit.index for hit in hits]
            return neighbour_cache[i]

        cluster_id = 0
        for start in range(n):
            if visited[start]:
                continue
            visited[start] = True
            neighbours = region(start)
            if len(neighbours) < self.min_pts:
                continue  # stays noise unless later claimed as border
            core[start] = True
            labels[start] = cluster_id
            queue = deque(neighbours)
            while queue:
                j = queue.popleft()
                if labels[j] == NOISE:
                    labels[j] = cluster_id  # border or soon-to-be core
                if visited[j]:
                    continue
                visited[j] = True
                j_neighbours = region(j)
                if len(j_neighbours) >= self.min_pts:
                    core[j] = True
                    queue.extend(j_neighbours)
            # Expansion done: free cached neighbourhoods of this cluster.
            neighbour_cache.clear()
            cluster_id += 1

        self.labels_ = labels
        self.core_mask_ = core
        return self

    # ------------------------------------------------------------------
    @property
    def n_clusters_(self) -> int:
        if self.labels_ is None:
            raise NotFittedError("MetricDBSCAN has not been fitted")
        non_noise = self.labels_[self.labels_ != NOISE]
        return int(non_noise.max()) + 1 if non_noise.size else 0

    @property
    def n_noise_(self) -> int:
        if self.labels_ is None:
            raise NotFittedError("MetricDBSCAN has not been fitted")
        return int(np.sum(self.labels_ == NOISE))
