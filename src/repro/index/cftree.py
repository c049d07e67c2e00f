"""``cftree`` backend: query the clustroid hierarchy of a built CF*-tree.

An already-fitted BUBBLE/BUBBLE-FM tree is itself a metric index: every
leaf keeps a :class:`~repro.core.routing.LeafGeometry` pairwise matrix
``d(clustroid_i, clustroid_j)`` that the pruned routing engine paid for
during the build. This backend turns those cached build-time distances
into query-time bounds (the Cascading-Metric-Tree recipe over the Anchors
Hierarchy idea of cached sufficient statistics):

* each leaf becomes an *anchor ball* centred on its first clustroid with
  covering radius ``max_j d(c_0, c_j)`` read from the cached matrix;
* each non-leaf node becomes an anchor ball around its first child's
  anchor, with child anchor distances measured at index-build time (the
  only counted calls :meth:`CFTreeIndex.from_tree` issues, and only for
  the pairs the bound cache does not already hold from the last adoption);
* a k-NN query descends best-first by ball lower bound, and inside a
  leaf runs the AESA refinement loop seeded by the anchor distance —
  every exactly measured clustroid tightens the lower bounds of its
  unmeasured siblings through the cached matrix, and the scan stops as
  soon as the smallest open bound strictly exceeds the current ``tau``.

Results are exact and bit-identical to brute force (ties resolve to the
lowest index; pruning requires a *strictly* larger lower bound), and the
indexed objects are the tree's leaf clustroids in
:meth:`~repro.core.cftree.CFTree.leaves` order — the same order as
``PreClusterer.clustroids_``.

The index snapshots the tree shape it was built over; querying after the
tree inserted objects or rebuilt raises
:class:`~repro.exceptions.StaleIndexError` instead of silently answering
from stale geometry.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.core.routing import PruningStats, ensure_leaf_geometry
from repro.exceptions import EmptyDatasetError, NotFittedError, StaleIndexError
from repro.index.base import (
    QUERY_BUILD_SITE,
    MetricIndex,
    NeighborHeap,
    QueryBoundCache,
    QuerySession,
)
from repro.metrics.base import DistanceFunction, site

__all__ = ["CFTreeIndex"]

#: ``id(anchor) -> (anchor, {id(other): (other, d(anchor, other))})``.
_AnchorRows = dict[int, tuple[Any, dict[int, tuple[Any, float]]]]


class _AnchorNode:
    """One ball of the anchor hierarchy mirrored off the CF*-tree.

    A leaf wrapper keeps the leaf's cached pairwise matrix (``pair``) and
    the global offset of its first clustroid; an internal wrapper keeps
    its children plus the anchor-to-child-anchor distances measured at
    index-build time. ``anchor`` is always a global clustroid index, and
    an internal node shares its anchor with its first child, so one
    measured distance serves every level it anchors.
    """

    __slots__ = ("anchor", "radius", "children", "child_dists", "offset", "pair", "size")

    def __init__(self) -> None:
        self.anchor = 0
        self.radius = 0.0
        self.children: list["_AnchorNode"] | None = None
        self.child_dists: np.ndarray | None = None
        self.offset = 0
        self.pair: np.ndarray | None = None
        self.size = 0


class CFTreeIndex(MetricIndex):
    """Exact :class:`~repro.index.base.MetricIndex` over CF*-tree clustroids.

    Build it from a fitted tree (:meth:`from_tree`, the cheap path that
    reuses the build's cached geometry) or from raw objects
    (:meth:`build`, which fits an internal :class:`~repro.core.BUBBLE`
    with ``threshold=0`` so every distinct object becomes its own
    clustroid).
    """

    backend = "cftree"

    def __init__(
        self,
        metric: DistanceFunction,
        bound_cache: QueryBoundCache | None = None,
    ):
        super().__init__(metric, bound_cache=bound_cache)
        self._objects: list[Any] = []
        self._root: _AnchorNode | None = None
        self._tree: Any = None
        self._fingerprint: tuple[int, int, int, int] | None = None
        #: Geometry-maintenance counters of the index build (NCD-neutral
        #: work re-measuring stale leaf rows; zero when the tree was built
        #: with pruning enabled and its caches are fresh).
        self.build_stats = PruningStats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(
        cls,
        tree: Any,
        metric: DistanceFunction | None = None,
        bound_cache: QueryBoundCache | None = None,
    ) -> "CFTreeIndex":
        """Index the leaf clustroids of a fitted CF*-tree.

        ``metric`` defaults to the tree policy's metric. Leaf geometry
        comes from the build's cached pairwise matrices. The only counted
        calls are the anchor-to-child-anchor pairs of non-leaf nodes that
        ``bound_cache`` does not already hold, charged to the
        ``query-build`` site. The cache holds the pairs of the last
        adoption it served, keyed by object identity, so re-adopting a tree
        after an insert pays only for the pairs whose objects changed;
        with nothing held (a fresh cache) each non-leaf node pays one
        gather over its child anchors. Each adoption replaces the held
        pairs with the current tree's.
        """
        resolved: Any = (
            metric
            if metric is not None
            else getattr(getattr(tree, "policy", None), "metric", None)
        )
        index = cls(resolved, bound_cache=bound_cache)
        index._adopt(tree)
        return index

    def build(self, objects: Sequence[Any]) -> "CFTreeIndex":
        """Fit an internal BUBBLE tree over ``objects`` and index it.

        With ``threshold=0`` and no node budget every *distinct* object
        becomes its own clustroid; duplicates collapse into one indexed
        entry, and the indexed order is the tree's leaf order, not the
        input order (read it back from :attr:`objects`).
        """
        objects = list(objects)
        if not objects:
            raise EmptyDatasetError("cannot index an empty object sequence")
        from repro.core.preclusterer import BUBBLE

        model = BUBBLE(
            self.metric,
            threshold=0.0,
            max_nodes=None,
            sample_size=min(75, len(objects)),
            seed=0,
        ).fit(objects)
        self._adopt(model.tree_)
        return self

    def _adopt(self, tree: Any) -> None:
        if tree is None or tree.n_clusters == 0:
            raise EmptyDatasetError("cannot index an empty CF*-tree")
        self._objects = []
        held: _AnchorRows = self.bound_cache.anchor_rows
        fresh: _AnchorRows = {}
        start_calls = self.metric.n_calls
        with site(QUERY_BUILD_SITE):
            self._root = self._wrap(tree.root, held, fresh)
        self._count_build(start_calls)
        self.bound_cache.anchor_rows = fresh
        self._tree = tree
        self._fingerprint = self._tree_fingerprint(tree)
        self.stats.extras["maintenance_evals"] = self.build_stats.maintenance_evals
        self.stats.extras["geometry_builds"] = self.build_stats.geometry_builds

    def _wrap(self, node: Any, held: _AnchorRows, fresh: _AnchorRows) -> _AnchorNode:
        out = _AnchorNode()
        if node.is_leaf:
            geom, clustroids = ensure_leaf_geometry(
                self.metric, node, self.build_stats
            )
            out.offset = len(self._objects)
            self._objects.extend(clustroids)
            out.size = len(clustroids)
            out.pair = geom.pair
            out.anchor = out.offset
            out.radius = float(geom.pair[0].max()) if out.size else 0.0
            return out
        children = [self._wrap(entry.child, held, fresh) for entry in node.entries]
        child_dists = np.zeros(len(children), dtype=np.float64)
        if len(children) > 1:
            # The first child shares this node's anchor, distance 0.
            child_dists[1:] = self._anchor_dists(
                self._objects[children[0].anchor],
                [self._objects[c.anchor] for c in children[1:]],
                held,
                fresh,
            )
        out.children = children
        out.child_dists = child_dists
        out.anchor = children[0].anchor
        out.size = sum(c.size for c in children)
        out.radius = float(
            max(d + c.radius for d, c in zip(child_dists, children))
        )
        return out

    def _anchor_dists(
        self, anchor: Any, others: list[Any], held: _AnchorRows, fresh: _AnchorRows
    ) -> np.ndarray:
        """``d(anchor, other)`` for each of ``others``, recorded in ``fresh``.

        The only counted index-build calls: pairs the last adoption held
        (``held``, both objects unchanged by identity) are copied, and the
        rest are measured in one gather.
        """
        keys = list(map(id, others))
        prior = held.get(id(anchor))
        if prior is None:
            dists = np.asarray(self.metric.one_to_many(anchor, others), dtype=np.float64)
        else:
            dists = np.empty(len(others), dtype=np.float64)
            missing: list[int] = []
            for j, key in enumerate(keys):
                pair = prior[1].get(key)
                if pair is None:
                    missing.append(j)
                else:
                    dists[j] = pair[1]
            if missing:
                dists[missing] = self.metric.one_to_many(
                    anchor, [others[j] for j in missing]
                )
            self.bound_cache.n_anchor_reused += len(others) - len(missing)
        row = fresh.setdefault(id(anchor), (anchor, {}))[1]
        row.update(zip(keys, zip(others, dists.tolist())))
        return dists

    @staticmethod
    def _tree_fingerprint(tree: Any) -> tuple[int, int, int, int]:
        return (tree.n_objects, tree.n_rebuilds, tree.n_nodes, tree.n_clusters)

    # ------------------------------------------------------------------
    # MetricIndex protocol
    # ------------------------------------------------------------------
    @property
    def objects(self) -> Sequence[Any]:
        return self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def _check_ready(self) -> None:
        if self._root is None:
            raise NotFittedError("CFTreeIndex queried before from_tree/build")
        if (
            self._tree is not None
            and self._tree_fingerprint(self._tree) != self._fingerprint
        ):
            raise StaleIndexError(
                "the CF*-tree changed since this index was built "
                f"(was {self._fingerprint}, now "
                f"{self._tree_fingerprint(self._tree)}); rebuild with "
                "CFTreeIndex.from_tree"
            )

    def _scan_leaf(
        self,
        session: QuerySession,
        node: _AnchorNode,
        d_anchor: float,
        tau: Callable[[], float],
        offer: Callable[[int, float], None],
    ) -> None:
        """AESA refinement over one leaf, seeded by the anchor distance.

        Measures candidates best-first by cached-matrix lower bound; every
        measurement tightens the remaining bounds; stops when the smallest
        open bound strictly exceeds ``tau()`` (ties are always measured,
        preserving bit-identical results).
        """
        n = node.size
        pair = node.pair
        assert pair is not None
        lb = np.abs(pair[0] - d_anchor)
        known = np.zeros(n, dtype=bool)
        known[0] = True
        offer(node.offset, d_anchor)
        while not known.all():
            open_lb = np.where(known, np.inf, lb)
            i = int(np.argmin(open_lb))
            session.bound_checks += int(n - known.sum())
            if open_lb[i] > tau():
                break
            d = session.measure(node.offset + i)
            known[i] = True
            np.maximum(lb, np.abs(pair[i] - d), out=lb)
            offer(node.offset + i, d)

    def _knn(
        self, session: QuerySession, obj: Any, k: int
    ) -> list[tuple[float, int]]:
        heap = NeighborHeap(k)
        counter = itertools.count()  # tie-breaker: nodes are not orderable
        assert self._root is not None
        frontier: list[tuple[float, int, _AnchorNode]] = [
            (0.0, next(counter), self._root)
        ]
        while frontier:
            lower, _, node = heapq.heappop(frontier)
            session.bound_checks += 1
            if lower > heap.tau:
                break
            d_anchor = session.measure(node.anchor)
            if node.children is None:
                self._scan_leaf(
                    session, node, d_anchor, lambda: heap.tau, heap.offer
                )
                continue
            heap.offer(node.anchor, d_anchor)
            assert node.child_dists is not None
            for child, dc in zip(node.children, node.child_dists):
                bound = max(abs(d_anchor - float(dc)) - child.radius, lower, 0.0)
                session.bound_checks += 1
                if bound <= heap.tau:
                    heapq.heappush(frontier, (bound, next(counter), child))
        return heap.items()

    def _range(
        self, session: QuerySession, obj: Any, radius: float
    ) -> list[tuple[float, int]]:
        hits: dict[int, float] = {}

        def collect(index: int, value: float) -> None:
            if value <= radius:
                hits[index] = value

        assert self._root is not None
        stack: list[tuple[float, _AnchorNode]] = [(0.0, self._root)]
        while stack:
            lower, node = stack.pop()
            d_anchor = session.measure(node.anchor)
            collect(node.anchor, d_anchor)
            if node.children is None:
                self._scan_leaf(session, node, d_anchor, lambda: radius, collect)
                continue
            assert node.child_dists is not None
            for child, dc in zip(node.children, node.child_dists):
                bound = max(abs(d_anchor - float(dc)) - child.radius, lower, 0.0)
                session.bound_checks += 1
                if bound <= radius:
                    stack.append((bound, child))
        return [(value, i) for i, value in hits.items()]
