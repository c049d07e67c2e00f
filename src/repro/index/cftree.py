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
  leaf runs the routing engine's best-first leaf loop
  (:func:`~repro.core.routing.best_first_leaf_scan`) seeded by the anchor
  distance — every exactly measured clustroid tightens the lower bounds
  of its unmeasured siblings through the cached matrix, and the scan
  stops as soon as the smallest open bound strictly exceeds the current
  ``tau`` (the radius, for a range query). A leaf whose covering radius
  and nearest off-anchor clustroid already prove that stop is pruned
  whole in O(1), before the loop starts;
* every clustroid is measured through a one-row slice of its leaf's
  prepared batch (``LeafGeometry.batch``, built with the geometry), so a
  vector metric reads a ready float64 row instead of re-stacking the
  object on every call; the per-query memo, the bound-cache lookup and
  the ``query-knn``/``query-range`` charging are those of every backend.

Results are exact and bit-identical to brute force (ties resolve to the
lowest index; pruning requires a *strictly* larger lower bound), and the
indexed objects are the tree's leaf clustroids in
:meth:`~repro.core.cftree.CFTree.leaves` order — the same order as
``PreClusterer.clustroids_``.

Re-adoption after an insert follows the tree incrementally. An insertion
touches one root-to-leaf path plus its split products, and bumps the
node-local :attr:`~repro.core.nodes.LeafNode.version` of every node on that
path (split products are new nodes). The wrappers of the last adoption are
held on the model-owned :class:`~repro.index.base.QueryBoundCache`, keyed by
node identity. A node that is the same object at the same version keeps its
wrapper, and with it the whole subtree's leaf geometry, radii and anchor
distances; only changed or new nodes are rewrapped, so an absorb-only insert
re-reads one leaf's clustroids. One pass over the wrappers then renumbers
the leaf offsets and anchors and lists the clustroids in
:meth:`~repro.core.cftree.CFTree.leaves` order. The answers, the counted
calls and every wrapper field equal those of an adoption from scratch.

The index remembers the tree's :attr:`~repro.core.cftree.CFTree.version`,
which every insertion (of an object or a feature) and every rebuild bumps;
querying after the tree changed raises
:class:`~repro.exceptions.StaleIndexError` instead of silently answering
from stale geometry. The check is one integer comparison per query.
Wrappers are shared only between adoptions of the same nodes, and
renumbering an unchanged tree gives the same numbers, so a later adoption
moves the numbering only under an index that is already stale.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.core.routing import PruningStats, best_first_leaf_scan, ensure_leaf_geometry
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

    A leaf wrapper keeps the leaf's clustroids, its cached pairwise matrix
    (``pair``), its prepared clustroid batch (``batch``, which the scan
    measures through) and the global offset of its first clustroid; an
    internal wrapper keeps its children plus the anchor-to-child-anchor
    distances measured at index-build time (``child_dists``, and the same
    pairs by object identity in ``pairs``). ``anchor`` is always a global
    clustroid index, and an internal node shares its anchor (``anchor_obj``)
    with its first child, so one measured distance serves every level it
    anchors; ``anchor_row`` is the anchor's one-row slice of its leaf's
    batch. ``node`` and ``version`` name the tree node wrapped and the
    version it had; ``n_pairs`` counts the anchor pairs in the subtree.
    ``offset`` and ``anchor`` are the only fields that depend on the rest
    of the tree: each adoption renumbers them.
    """

    __slots__ = (
        "node",
        "version",
        "anchor",
        "anchor_obj",
        "anchor_row",
        "radius",
        "near",
        "children",
        "child_dists",
        "pairs",
        "n_pairs",
        "offset",
        "clustroids",
        "pair",
        "batch",
        "size",
    )

    def __init__(self, node: Any) -> None:
        self.node = node
        self.version = node.version
        self.anchor = 0
        self.anchor_obj: Any = None
        self.radius = 0.0
        self.near = np.inf
        self.children: list["_AnchorNode"] | None = None
        self.child_dists: np.ndarray | None = None
        self.pairs: dict[int, tuple[Any, float]] | None = None
        self.n_pairs = 0
        self.offset = 0
        self.clustroids: list[Any] = []
        self.pair: np.ndarray | None = None
        self.batch: Any = None
        self.anchor_row: Any = None
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
        #: :attr:`~repro.core.cftree.CFTree.version` of the adopted tree.
        self._version = 0
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
        ``query-build`` site.

        ``bound_cache`` holds the wrappers of the last adoption it served,
        keyed by node identity. A node that is the same object at the same
        :attr:`~repro.core.nodes.LeafNode.version` keeps its wrapper and
        its whole subtree, so re-adopting a tree after an insert rewraps
        only the insertion path and any split products. A rewrapped
        non-leaf node copies the anchor pairs whose objects the last
        adoption held (by object identity) and measures the rest in one
        gather; with nothing held (a fresh or unpickled cache) every node
        is wrapped and each non-leaf node pays one gather over its child
        anchors. Each adoption replaces the held wrappers with the current
        tree's. Every pair not measured, in a copied pair or a kept
        subtree, counts in :attr:`QueryBoundCache.n_anchor_reused`.
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
        # A tree with no clusters is a leaf root with no entries: every
        # other node holds at least one entry below it.
        if tree is None or (tree.root.is_leaf and not tree.root.entries):
            raise EmptyDatasetError("cannot index an empty CF*-tree")
        cache = self.bound_cache
        held = cache.anchor_nodes
        rows = cache.anchor_rows
        start_calls = self.metric.n_calls
        with site(QUERY_BUILD_SITE):
            root = self._wrap(tree.root, held, rows)
        self._count_build(start_calls)
        fresh: dict[Any, _AnchorNode] = {}
        self._objects = []
        self._number(root, fresh)
        cache.anchor_nodes = fresh
        self._root = root
        self._tree = tree
        self._version = tree.version

    def _wrap(
        self, node: Any, held: dict[Any, _AnchorNode], rows: _AnchorRows
    ) -> _AnchorNode:
        """The wrapper of ``node``: the held one if ``node`` is unchanged
        since it was wrapped, else a new one over rewrapped children."""
        out = held.get(node)
        if out is not None and out.version == node.version:
            self.bound_cache.n_anchor_reused += out.n_pairs
            return out
        out = _AnchorNode(node)
        if node.is_leaf:
            geom, clustroids = ensure_leaf_geometry(
                self.metric, node, self.build_stats
            )
            out.clustroids = clustroids
            out.size = len(clustroids)
            out.pair = geom.pair
            out.batch = geom.batch
            out.anchor_obj = clustroids[0]
            out.anchor_row = geom.batch[0:1]
            # Python's max/min over a short row cost less than numpy's
            # reductions, and pick the same float.
            row = geom.pair[0].tolist()
            out.radius = max(row)
            out.near = min(row[1:], default=np.inf)
            return out
        children = [self._wrap(entry.child, held, rows) for entry in node.entries]
        anchor = children[0].anchor_obj
        others = [c.anchor_obj for c in children[1:]]
        child_dists = np.zeros(len(children), dtype=np.float64)
        if others:
            # The first child shares this node's anchor, distance 0.
            child_dists[1:] = self._anchor_dists(anchor, others, rows)
        out.pairs = dict(zip(map(id, others), zip(others, child_dists[1:].tolist())))
        out.children = children
        out.child_dists = child_dists
        out.anchor_obj = anchor
        out.anchor_row = children[0].anchor_row
        out.size = sum(c.size for c in children)
        out.n_pairs = len(children) - 1 + sum(c.n_pairs for c in children)
        out.radius = float(
            max(d + c.radius for d, c in zip(child_dists, children))
        )
        return out

    def _number(self, out: _AnchorNode, fresh: dict[Any, _AnchorNode]) -> None:
        """Give ``out``'s subtree its global offsets and anchors, list its
        clustroids in leaf order, and hold its wrappers in ``fresh``."""
        fresh[out.node] = out
        if out.children is None:
            out.offset = out.anchor = len(self._objects)
            self._objects.extend(out.clustroids)
            return
        for child in out.children:
            self._number(child, fresh)
        out.anchor = out.children[0].anchor

    def _anchor_dists(
        self, anchor: Any, others: list[Any], rows: _AnchorRows
    ) -> np.ndarray:
        """``d(anchor, other)`` for each of ``others``.

        The only counted index-build calls: pairs the last adoption held
        (``rows``, both objects unchanged by identity) are copied, and the
        rest are measured in one gather.
        """
        prior = rows.get(id(anchor))
        if prior is None:
            return np.asarray(self.metric.one_to_many(anchor, others), dtype=np.float64)
        dists = np.empty(len(others), dtype=np.float64)
        missing: list[int] = []
        for j, other in enumerate(others):
            pair = prior[1].get(id(other))
            if pair is None:
                missing.append(j)
            else:
                dists[j] = pair[1]
        if missing:
            dists[missing] = self.metric.one_to_many(
                anchor, [others[j] for j in missing]
            )
        self.bound_cache.n_anchor_reused += len(others) - len(missing)
        return dists

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
        if self._tree is not None and self._tree.version != self._version:
            raise StaleIndexError(
                "the CF*-tree changed since this index was built "
                f"(was version {self._version}, now {self._tree.version}); "
                "rebuild with CFTreeIndex.from_tree"
            )

    def _scan_leaf(
        self,
        session: QuerySession,
        node: _AnchorNode,
        d_anchor: float,
        tau: Callable[[], float],
        offer: Callable[[int, float], None],
    ) -> None:
        """Offer every clustroid of one leaf that the best-first walk
        (:func:`~repro.core.routing.best_first_leaf_scan`, seeded by the
        anchor distance) cannot prune against ``tau()``.

        Each candidate is measured through a one-row slice of the leaf's
        prepared batch; ties with ``tau()`` are always measured, preserving
        bit-identical results.

        A leaf whose every off-anchor bound ``|d_anchor - D[0, i]|``
        exceeds ``tau()`` is pruned whole in O(1), before the walk: every
        ``D[0, i]`` lies in ``[near, radius]`` and rounding is monotone,
        so ``d_anchor - radius > tau()`` or ``near - d_anchor > tau()``
        says exactly that. It books the ``size - 1`` bound checks of the
        walk's one stopping round.
        """
        offset, batch, pair = node.offset, node.batch, node.pair
        assert pair is not None

        def measure(i: int) -> float:
            d = session.measure(offset + i, batch[i : i + 1])
            offer(offset + i, d)
            return d

        offer(offset, d_anchor)
        limit = tau()
        if d_anchor - node.radius > limit or node.near - d_anchor > limit:
            session.bound_checks += node.size - 1
            return
        # The anchor, clustroid 0, seeds the walk.
        session.bound_checks += best_first_leaf_scan(pair, [0], [d_anchor], measure, tau)[1]

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
            d_anchor = session.measure(node.anchor, node.anchor_row)
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
            d_anchor = session.measure(node.anchor, node.anchor_row)
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
