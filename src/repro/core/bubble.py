"""BUBBLE: the first BIRCH* instantiation for distance spaces (Section 4).

Leaf level: the :class:`~repro.core.features.BubbleClusterFeature` with
clustroid/RowSum/representative maintenance, routed and threshold-tested via
the clustroid distance ``D0``.

Non-leaf level: each entry NL_i carries **sample objects** ``S(NL_i)`` drawn
bottom-up from its child — random clustroids if the child is a leaf, random
members of the child's own samples otherwise (Section 4.2.1). The number of
samples at a node is capped by the *sample size* ``SS``; child ``i`` with
``n_i`` entries contributes ``max(floor(n_i * SS / sum_j n_j), 1)`` so every
child keeps at least one representative. A new object is routed to the entry
minimizing ``D2({O}, S(NL_i))``, the average inter-cluster distance of
Definition 4.4. Samples at a node are refreshed whenever one of its children
splits (Section 4.2.2).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.features import (
    BubbleClusterFeature,
    average_inter_cluster_distance,
)
from repro.core.nodes import LeafNode, NonLeafNode
from repro.core.policy import BirchStarPolicy
from repro.core.routing import (
    LeafGeometry,
    PruningStats,
    geometry_donor,
    pruned_leaf_distances,
    pruned_segment_distances,
    remember_leaf_walk,
    segment_seeds,
)
from repro.exceptions import ParameterError, TreeInvariantError
from repro.metrics.base import DistanceFunction, site
from repro.utils.rng import ensure_rng
from repro.utils.sampling import sample_without_replacement
from repro.utils.validation import check_integer

__all__ = ["BubblePolicy"]

#: Below this many leaf entries, pruning cannot beat the exhaustive gather
#: (pivot + seed measurements already cover most of the node).
_MIN_PRUNE_LEAF_ENTRIES = 4


def _segment_rms(sq: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``sqrt(mean(sq[offsets[i]:offsets[i + 1]]))`` for every segment ``i``,
    bit-identical to one ``np.mean`` per segment.

    ``np.mean`` is ``np.add.reduce`` divided by the count, so each segment
    takes that sum and division without ``np.mean``'s dispatch, and one
    ``np.sqrt`` covers them all. Gathering the segments of each length
    into one ``(k, length)`` block reduces in the same order too, but
    segment lengths are mostly distinct (about 6 lengths per 7.5 entries
    on the vec-bubble inputs), so the blocks cost more than they save.
    """
    bounds = offsets.tolist()
    add = np.add.reduce
    return np.sqrt(
        np.array([add(sq[a:b]) / (b - a) for a, b in zip(bounds[:-1], bounds[1:])])
    )


class _SampleCache:
    """Node-level cache: the concatenation of all entry samples plus the
    segment boundaries, so one batched ``one_to_many`` serves a whole node.

    ``batch`` is ``flat`` as the metric prepared it at refresh time
    (:meth:`~repro.metrics.base.DistanceFunction.prepare`); gathers pass it,
    or slices of it, instead of re-stacking ``flat`` on every call.
    ``geometry`` is lazily-built pivot geometry for the pruned routing
    engine (:mod:`repro.core.routing`); ``None`` is always legal. ``prior``
    holds measured pairs the geometry build may copy, as ``(objects,
    pair)``, until that build drops it."""

    __slots__ = ("flat", "offsets", "batch", "geometry", "prior")

    def __init__(
        self,
        flat: list,
        offsets: np.ndarray,
        batch: Any,
        prior: tuple[list, np.ndarray] | None = None,
    ):
        self.flat = flat
        self.offsets = offsets
        self.batch = batch
        self.geometry = None
        self.prior = prior


class BubblePolicy(BirchStarPolicy):
    """The components BUBBLE plugs into the BIRCH* framework.

    Parameters
    ----------
    metric:
        Distance function of the space.
    representation_number:
        ``2p``, the number of representative objects per leaf cluster
        (paper default 10).
    sample_size:
        ``SS``, the cap on sample objects per non-leaf node (paper default
        75 = 5 * branching factor).
    seed:
        Seed/generator driving sample selection.
    prune:
        Route through the exact triangle-inequality pruned engine
        (:mod:`repro.core.routing`). Routing decisions are bit-identical to
        the exhaustive scan either way; pruning only reduces NCD. On by
        default.
    """

    #: ``(obj, samples, distances)`` of the entry the last pruned non-leaf
    #: walk chose, consumed by the leaf walk that follows for the same
    #: object. Never pickled.
    _handoff: tuple[Any, list, np.ndarray] | None = None

    def __init__(
        self,
        metric: DistanceFunction,
        representation_number: int = 10,
        sample_size: int = 75,
        seed: int | np.random.Generator | None = None,
        prune: bool = True,
    ):
        if not isinstance(metric, DistanceFunction):
            raise ParameterError("metric must be a DistanceFunction")
        self.metric = metric
        self.representation_number = check_integer(
            representation_number, "representation_number", minimum=2
        )
        self.sample_size = check_integer(sample_size, "sample_size", minimum=1)
        self._rng = ensure_rng(seed)
        self.prune = bool(prune)
        #: Counters for the pruned routing engine (always present; all zero
        #: when ``prune`` is off or no node met the pruning gates).
        self.pruning_stats = PruningStats()

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_handoff", None)
        return state

    # ------------------------------------------------------------------
    # Leaf level (D0 everywhere)
    # ------------------------------------------------------------------
    def new_leaf_feature(self, obj: Any) -> BubbleClusterFeature:
        return BubbleClusterFeature(self.metric, obj, self.representation_number)

    def leaf_distances(self, node: LeafNode, obj: Any) -> np.ndarray:
        # The last non-leaf walk's chosen segment, if it routed this object.
        segment, self._handoff = self._handoff, None
        if segment is not None:
            segment = segment[1:] if segment[0] is obj else None
        if self.prune and len(node.entries) >= _MIN_PRUNE_LEAF_ENTRIES:
            return pruned_leaf_distances(
                self.metric, node, obj, self.pruning_stats, segment
            )
        clustroids = [feature.clustroid for feature in node.entries]
        seeded = None if segment is None else segment_seeds(segment, clustroids)
        with site("leaf-d0"):
            if seeded is None:
                dists = self.metric.one_to_many(obj, clustroids)
            else:
                at, values = seeded
                dists = np.empty(len(clustroids), dtype=np.float64)
                dists[at] = values
                unknown = np.ones(len(clustroids), dtype=bool)
                unknown[at] = False
                rest = np.flatnonzero(unknown)
                if len(rest):
                    dists[rest] = self.metric.one_to_many(
                        obj, [clustroids[i] for i in rest]
                    )
        if self.prune:
            remember_leaf_walk(node, obj, clustroids, dists)
        return dists

    def leaf_entry_distance(self, a: Any, b: Any) -> float:
        return self.metric.distance(a.clustroid, b.clustroid)

    def leaf_entry_matrix(self, entries: Any) -> np.ndarray:
        return self.metric.pairwise([feature.clustroid for feature in entries])

    # ------------------------------------------------------------------
    # Non-leaf level (sample objects, D2)
    # ------------------------------------------------------------------
    def nonleaf_distances(self, node: NonLeafNode, obj: Any) -> np.ndarray:
        cache = self._node_cache(node)
        # Pruning needs two entries (something to prune) and two samples (a
        # pivot plus something it can bound).
        if self.prune and len(node.entries) >= 2 and len(cache.flat) >= 2:
            out, self._handoff = pruned_segment_distances(
                self.metric, cache, len(node.entries), obj, self.pruning_stats
            )
            return out
        with site("nonleaf-d2"):
            dists = self.metric.one_to_many(obj, cache.batch)
        return _segment_rms(dists**2, cache.offsets)

    def nonleaf_entry_distances(self, node: NonLeafNode) -> np.ndarray:
        entries = node.entries
        n = len(entries)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                d = average_inter_cluster_distance(
                    self.metric, entries[i].summary, entries[j].summary
                )
                out[i, j] = d
                out[j, i] = d
        return out

    def refresh_node(self, node: NonLeafNode) -> None:
        """Redraw sample objects for every entry of ``node`` (Section 4.2.2)."""
        with site("sample-refresh"):
            entry_sizes = [len(entry.child.entries) for entry in node.entries]
            total = sum(entry_sizes)
            flat: list = []
            offsets = [0]
            for entry, n_i in zip(node.entries, entry_sizes):
                quota = max((n_i * self.sample_size) // max(total, 1), 1)
                pool = self._sample_pool(entry.child)
                entry.summary = sample_without_replacement(pool, quota, self._rng)
                flat.extend(entry.summary)
                offsets.append(len(flat))
            node.aux = _SampleCache(
                flat,
                np.asarray(offsets, dtype=np.intp),
                self.metric.prepare(flat),
                self._geometry_donor(node),
            )

    def _geometry_donor(self, node: NonLeafNode) -> tuple[list, np.ndarray] | None:
        """Measured pairs ``node``'s next sample cache may copy: the
        outgoing cache's, or, for a node with no cache yet (a new root),
        its first child's."""
        if not self.prune:
            return None
        aux = node.aux
        if aux is None:
            aux = node.entries[0].child.aux
        return geometry_donor(aux)

    def on_node_split(
        self, old: NonLeafNode, left: NonLeafNode, right: NonLeafNode
    ) -> None:
        """Refresh both halves with the split node's geometry as their
        donor: their samples are drawn from the same children's pools.
        Each half holds the old cache only until its own refresh replaces
        it."""
        left.aux = right.aux = old.aux
        super().on_node_split(old, left, right)

    def on_leaf_split(self, old: LeafNode, left: LeafNode, right: LeafNode) -> None:
        """Hand the split leaf's geometry to both halves: their clustroids
        are the old leaf's, so each half measures only the rows the old
        geometry never held (the overflow entry's)."""
        geom = old.aux
        if isinstance(geom, LeafGeometry):
            left.aux = geom
            right.aux = geom.copy()

    def _sample_pool(self, child: Any) -> list:
        """Objects a non-leaf entry may sample from: the child's clustroids
        if it is a leaf, otherwise the union of the child's own samples."""
        if child.is_leaf:
            return [feature.clustroid for feature in child.entries]
        pool: list = []
        for entry in child.entries:
            if entry.summary:
                pool.extend(entry.summary)
        if not pool:
            raise TreeInvariantError(
                "non-leaf child has no samples to draw from; refresh order violated"
            )
        return pool

    def _node_cache(self, node: NonLeafNode) -> _SampleCache:
        if node.aux is None or not isinstance(node.aux, _SampleCache):
            # Defensive: a node should always be refreshed on creation.
            self.refresh_node(node)
        return node.aux
