"""BIRCH as a BIRCH* instantiation.

Non-leaf summaries are the exact CF sums of their subtrees. Two framework
hooks keep them exact without extra passes:

* ``on_descend`` adds the inserted object/cluster to the chosen entry's
  summary as the insertion walks down;
* ``refresh_node`` recomputes summaries bottom-up after splits (CF
  additivity makes this exact and cheap).

Distances between an object and an entry, and between entries, are centroid
distances — the vector operations a distance space lacks.
"""

from __future__ import annotations

import numpy as np

from repro.birch.cf import VectorClusterFeature
from repro.core.nodes import LeafNode, NonLeafNode
from repro.core.policy import BirchStarPolicy
from repro.exceptions import ParameterError
from repro.metrics.base import DistanceFunction
from repro.metrics.vector import EuclideanDistance, as_matrix

__all__ = ["BirchVectorPolicy"]


class BirchVectorPolicy(BirchStarPolicy):
    """Framework components of vector-space BIRCH.

    Parameters
    ----------
    metric:
        Measures the centroid distances routing and splits compare;
        ``EuclideanDistance()`` if omitted. Every such distance goes
        through it, so a counting, caching or budgeted wrapper
        (:class:`~repro.robustness.GuardedMetric`) sees them all.
    """

    def __init__(self, metric: DistanceFunction | None = None) -> None:
        if metric is None:
            metric = EuclideanDistance()
        if not isinstance(metric, DistanceFunction):
            raise ParameterError("metric must be a DistanceFunction")
        self.metric = metric

    # ------------------------------------------------------------------
    # Leaf level
    # ------------------------------------------------------------------
    def new_leaf_feature(self, obj) -> VectorClusterFeature:
        return VectorClusterFeature(obj)

    def leaf_distances(self, node: LeafNode, obj) -> np.ndarray:
        centroids = [f.centroid for f in node.entries]
        return self.metric.one_to_many(obj, centroids)

    def leaf_entry_distance(self, a, b) -> float:
        return self.metric.distance(a.centroid, b.centroid)

    def leaf_entry_matrix(self, entries) -> np.ndarray:
        return self.metric.pairwise([f.centroid for f in entries])

    # ------------------------------------------------------------------
    # Non-leaf level
    # ------------------------------------------------------------------
    def nonleaf_distances(self, node: NonLeafNode, obj) -> np.ndarray:
        centroids = [entry.summary.centroid for entry in node.entries]
        return self.metric.one_to_many(obj, centroids)

    def nonleaf_entry_distances(self, node: NonLeafNode) -> np.ndarray:
        centroids = as_matrix([entry.summary.centroid for entry in node.entries])
        return self.metric.pairwise(centroids)

    def refresh_node(self, node: NonLeafNode) -> None:
        for entry in node.entries:
            entry.summary = self._subtree_cf(entry.child)

    def on_descend(self, node: NonLeafNode, entry_index: int, obj, feature) -> None:
        summary = node.entries[entry_index].summary
        if feature is None:
            summary.absorb(obj)
        else:
            summary.merge(feature)

    # ------------------------------------------------------------------
    @staticmethod
    def _subtree_cf(child) -> VectorClusterFeature:
        """Exact CF of everything below ``child`` (CF additivity)."""
        if child.is_leaf:
            features = child.entries
        else:
            features = [entry.summary for entry in child.entries]
        total = features[0].copy()
        for f in features[1:]:
            total.merge(f)
        return total
