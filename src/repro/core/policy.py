"""The BIRCH* instantiation interface (Section 3, closing paragraph).

    "In summary, CF*s, their incremental maintenance, the distance
    measures, and the threshold requirement are the components of the
    BIRCH* framework, which have to be instantiated to derive a concrete
    clustering algorithm."

A :class:`BirchStarPolicy` supplies exactly those components:

* how to create a leaf CF* from a single object;
* the distance from an inserted object (or re-inserted cluster) to each
  leaf entry and to each non-leaf entry;
* pairwise distances among a node's entries (needed to pick split seeds);
* the content and refresh procedure of non-leaf summaries;
* optional per-descent bookkeeping (BIRCH's additive CFs update on every
  descent; BUBBLE's samples only refresh on child splits).

The framework (:mod:`repro.core.cftree`) is written purely against this
interface, so BUBBLE, BUBBLE-FM and the vector-space BIRCH baseline all
share one tree implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.core.features import ClusterFeature
from repro.core.nodes import LeafNode, NonLeafNode
from repro.metrics.base import DistanceFunction

__all__ = ["BirchStarPolicy"]


class BirchStarPolicy(ABC):
    """Everything a concrete BIRCH* algorithm must provide to the CF*-tree."""

    #: The distance function of the space (used for NCD accounting).
    metric: DistanceFunction

    # ------------------------------------------------------------------
    # Leaf level
    # ------------------------------------------------------------------
    @abstractmethod
    def new_leaf_feature(self, obj: Any) -> ClusterFeature:
        """Create the CF* of a brand-new cluster containing only ``obj``."""

    @abstractmethod
    def leaf_distances(self, node: LeafNode, obj: Any) -> np.ndarray:
        """Distances from ``obj`` to every leaf entry of ``node`` (the D0
        column the insertion step minimizes)."""

    @abstractmethod
    def leaf_entry_distance(self, a: ClusterFeature, b: ClusterFeature) -> float:
        """Distance between two leaf entries (split seeds, merge test)."""

    def leaf_entry_matrix(self, entries: list[ClusterFeature]) -> np.ndarray:
        """Symmetric pairwise distance matrix among leaf entries.

        Used for split-seed selection and the threshold heuristic. The
        default loops over :meth:`leaf_entry_distance`; policies whose
        metric batches well should override it.
        """
        n = len(entries)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                # Bounded by B+1 entries of one overflowing node, not by the
                # dataset: this is the paper's split-seed cost, not a scan.
                d = self.leaf_entry_distance(entries[i], entries[j])
                out[i, j] = d
                out[j, i] = d
        return out

    def routing_object(self, feature: ClusterFeature) -> Any:
        """The object used to route a re-inserted cluster down the tree.

        Type II insertions re-insert a whole CF*; BUBBLE routes it by its
        clustroid.
        """
        return feature.clustroid

    # ------------------------------------------------------------------
    # Non-leaf level
    # ------------------------------------------------------------------
    @abstractmethod
    def nonleaf_distances(self, node: NonLeafNode, obj: Any) -> np.ndarray:
        """Distances from ``obj`` to every entry of non-leaf ``node``."""

    @abstractmethod
    def nonleaf_entry_distances(self, node: NonLeafNode) -> np.ndarray:
        """Symmetric pairwise distance matrix among ``node``'s entries,
        used to choose split seeds when the node overflows."""

    @abstractmethod
    def refresh_node(self, node: NonLeafNode) -> None:
        """(Re)build the summaries of all entries of ``node`` and its
        node-level ``aux`` state.

        The framework calls this whenever one of ``node``'s children split
        (Section 4.2.2) and when ``node`` itself was just created by a
        split.
        """

    # ------------------------------------------------------------------
    # Optional hooks
    # ------------------------------------------------------------------
    def on_node_split(
        self, old: NonLeafNode, left: NonLeafNode, right: NonLeafNode
    ) -> None:
        """Called when non-leaf ``old`` was split into ``left`` and ``right``.

        Each half's entries keep their summaries (their children are
        untouched), but node-level state must be re-derived. The default
        simply refreshes both halves; BUBBLE-FM overrides this to *reuse*
        the old node's image space — the halves' samples are a subset of the
        old samples, whose image vectors are already known, so no new
        distance calls are needed.
        """
        self.refresh_node(left)
        self.refresh_node(right)

    def on_leaf_split(self, old: LeafNode, left: LeafNode, right: LeafNode) -> None:
        """Called when leaf ``old`` was split into ``left`` and ``right``.

        Each half holds a subset of the old leaf's entries. The default does
        nothing; BUBBLE hands the old leaf's routing geometry to both halves
        so the pairs it already measured are not measured again.
        """

    def on_descend(self, node: NonLeafNode, entry_index: int, obj: Any, feature: Any) -> None:
        """Called as an insertion descends through ``node`` via
        ``entry_index``. BUBBLE ignores it; the BIRCH instantiation uses it
        to keep its additive non-leaf CFs exact."""

    def on_leaf_updated(self, node: LeafNode, feature: ClusterFeature) -> None:
        """Called after a leaf entry absorbed an object or merged a cluster."""
