"""Vantage-point tree for exact similarity search in metric spaces.

The VP-tree (Yianilos, SODA 1993) is the repository's one general-purpose
exact index: it serves object sets that have no fitted CF*-tree to adopt
(region queries in :class:`~repro.dbscan.MetricDBSCAN`, exact second-phase
labeling via ``assign(via="vptree")``). A fitted tree is served by the
``cftree`` backend instead.

Construction: pick a vantage point, measure every remaining object against
it, split at the median distance into an *inside* and an *outside* subtree,
recurse. Search prunes a subtree whenever the triangle inequality proves it
cannot contain anything within the current radius:

* inside is reachable only if ``d(q, vp) - tau <= mu``;
* outside is reachable only if ``d(q, vp) + tau >= mu``

where ``mu`` is the node's median split distance and ``tau`` the current
search radius (shrinking during kNN).

The tree implements the :class:`repro.index.MetricIndex` protocol: objects
are indexed by build-sequence position, :meth:`~VPTree.nearest` and
:meth:`~VPTree.within` return typed :class:`~repro.index.QueryResult`
records, bucket scans go through one counted ``one_to_many`` gather, and
measured distances persist across queries in the shared
:class:`~repro.index.QueryBoundCache`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.exceptions import EmptyDatasetError, NotFittedError
from repro.index.base import (
    QUERY_BUILD_SITE,
    MetricIndex,
    NeighborHeap,
    QueryBoundCache,
    QuerySession,
)
from repro.metrics.base import DistanceFunction, site
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_integer

__all__ = ["VPTree"]


class _Node:
    __slots__ = ("index", "mu", "inside", "outside")

    def __init__(self, index: int, mu: float | None, inside: Any, outside: Any):
        self.index = index
        self.mu = mu
        self.inside = inside
        self.outside = outside


class VPTree(MetricIndex):
    """Static exact metric index built by median partitioning.

    Parameters
    ----------
    metric:
        The distance function; NCD accumulates on it.
    leaf_size:
        Subtrees at or below this size are stored as flat buckets and
        scanned linearly (cheaper than deep recursion for tiny sets).
    seed:
        Seed/generator for vantage-point selection.
    bound_cache:
        Optional shared :class:`~repro.index.QueryBoundCache`; defaults to
        a private one.

    Examples
    --------
    >>> from repro.metrics import EditDistance
    >>> tree = VPTree(EditDistance(), leaf_size=2, seed=0)
    >>> tree = tree.build(["cat", "cart", "dog", "dig", "cog"])
    >>> sorted(tree.nearest("cot", 2).objects)
    ['cat', 'cog']
    >>> [n.index for n in tree.nearest("cot", 1)]
    [0]
    """

    backend = "vptree"

    def __init__(
        self,
        metric: DistanceFunction,
        leaf_size: int = 8,
        seed: Any = None,
        bound_cache: QueryBoundCache | None = None,
    ):
        super().__init__(metric, bound_cache=bound_cache)
        self.leaf_size = check_integer(leaf_size, "leaf_size", minimum=1)
        self._rng = ensure_rng(seed)
        self._objects: list[Any] | None = None
        self._root: Any = None

    # ------------------------------------------------------------------
    def build(self, objects: Sequence[Any]) -> "VPTree":
        """Index ``objects``; they are referenced, not copied."""
        objects = list(objects)
        if not objects:
            raise EmptyDatasetError("VPTree.build requires at least one object")
        self._objects = objects
        start_calls = self.metric.n_calls
        with site(QUERY_BUILD_SITE):
            self._root = self._build(list(range(len(objects))))
        self._count_build(start_calls)
        return self

    def _build(self, indices: list[int]) -> Any:
        if not indices:
            return None
        if len(indices) <= self.leaf_size:
            return list(indices)  # flat bucket
        assert self._objects is not None
        vp_pos = int(self._rng.integers(0, len(indices)))
        vp = indices.pop(vp_pos)
        dists = self.metric.one_to_many(
            self._objects[vp], [self._objects[i] for i in indices]
        )
        mu = float(np.median(dists))
        inside = [i for i, d in zip(indices, dists) if d <= mu]
        outside = [i for i, d in zip(indices, dists) if d > mu]
        if not inside or not outside:
            # Degenerate split (many ties): store as a bucket to guarantee
            # termination.
            return [vp] + indices
        return _Node(vp, mu, self._build(inside), self._build(outside))

    # ------------------------------------------------------------------
    # MetricIndex protocol
    # ------------------------------------------------------------------
    @property
    def objects(self) -> Sequence[Any]:
        if self._objects is None:
            return []
        return self._objects

    def __len__(self) -> int:
        return len(self._objects) if self._objects is not None else 0

    def _check_ready(self) -> None:
        if self._root is None:
            raise NotFittedError("VPTree queried before build")

    def _knn(
        self, session: QuerySession, obj: Any, k: int
    ) -> list[tuple[float, int]]:
        heap = NeighborHeap(k)

        def search(node: Any) -> None:
            if node is None:
                return
            if isinstance(node, list):
                dists = session.measure_many(node)
                for i, value in zip(node, dists):
                    heap.offer(i, float(value))
                return
            d_vp = session.measure(node.index)
            heap.offer(node.index, d_vp)
            # Visit the more promising side first to shrink tau early;
            # boundary tests keep equality so median ties are never lost.
            if d_vp <= node.mu:
                search(node.inside)
                session.bound_checks += 1
                if d_vp + heap.tau >= node.mu:
                    search(node.outside)
            else:
                search(node.outside)
                session.bound_checks += 1
                if d_vp - heap.tau <= node.mu:
                    search(node.inside)

        search(self._root)
        return heap.items()

    def _range(
        self, session: QuerySession, obj: Any, radius: float
    ) -> list[tuple[float, int]]:
        out: list[tuple[float, int]] = []

        def search(node: Any) -> None:
            if node is None:
                return
            if isinstance(node, list):
                dists = session.measure_many(node)
                out.extend(
                    (float(value), i)
                    for i, value in zip(node, dists)
                    if value <= radius
                )
                return
            d_vp = session.measure(node.index)
            if d_vp <= radius:
                out.append((d_vp, node.index))
            session.bound_checks += 2
            if d_vp - radius <= node.mu:
                search(node.inside)
            if d_vp + radius >= node.mu:
                search(node.outside)

        search(self._root)
        return out
