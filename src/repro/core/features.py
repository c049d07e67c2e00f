"""Generalized cluster features (CF*) — Sections 3.1 and 4.1 of the paper.

A CF* is the condensed representation of one evolving cluster. It must be
(1) incrementally updatable when an object is inserted and (2) sufficient to
compute inter-cluster distances and quality metrics such as the radius.

:class:`BubbleClusterFeature` is the leaf-level CF* of BUBBLE and BUBBLE-FM:

* ``n`` — number of objects in the cluster;
* the **clustroid** — the member object minimizing RowSum (the sum of
  squared distances to all other members), i.e. the generalization of the
  centroid to distance spaces (Definition 4.1 / Lemma 4.2);
* up to ``2p`` **representative objects**: the ``p`` lowest-RowSum members
  (nearest the clustroid — these track clustroid drift under Type I
  insertions, justified by Observation 2) and the ``p`` highest-RowSum
  members (the cluster periphery — these track the clustroid jump under
  Type II merges, whose new clustroid lands midway between the old ones);
* the RowSum value of each representative;
* the cluster **radius** ``r = sqrt(RowSum(clustroid) / n)``
  (Definition 4.3).

While the cluster holds at most ``2p`` objects the feature keeps *all* of
them and every RowSum is exact; beyond that it switches to the heuristic
maintenance of Section 4.1.2, estimating the RowSum of an incoming object by
Observation 1::

    RowSum(O_new)  ≈  n * r^2 + n * d^2(clustroid, O_new)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ParameterError
from repro.metrics.base import DistanceFunction, site
from repro.utils.numerics import compensated_add

__all__ = [
    "ClusterFeature",
    "BubbleClusterFeature",
    "SubCluster",
    "average_inter_cluster_distance",
    "object_to_set_distance",
]


def object_to_set_distance(metric: DistanceFunction, obj: Any, objects: Sequence) -> float:
    """``D2({obj}, objects)``: the average inter-cluster distance of Def. 4.4
    between a singleton and a set — the routing distance BUBBLE uses at
    non-leaf nodes. Counts ``len(objects)`` distance calls."""
    dists = metric.one_to_many(obj, objects)
    return float(np.sqrt(np.mean(dists**2)))


def average_inter_cluster_distance(
    metric: DistanceFunction, objects_a: Sequence, objects_b: Sequence
) -> float:
    """``D2(A, B)`` of Definition 4.4 between two object sets.

    Counts ``|A| * |B|`` distance calls, paid in a single batched
    :meth:`~repro.metrics.base.DistanceFunction.cross` dispatch; used
    between non-leaf entries when a node must be split and no image space
    is available.
    """
    if not objects_a or not objects_b:
        raise ParameterError("D2 requires two non-empty object sets")
    cross = metric.cross(objects_a, objects_b)
    total = float(np.einsum("ij,ij->", cross, cross))
    return float(np.sqrt(total / (len(objects_a) * len(objects_b))))


class ClusterFeature(ABC):
    """Abstract CF*: what the BIRCH* framework requires of a leaf feature."""

    #: Number of objects summarized by this feature.
    n: int

    @property
    @abstractmethod
    def clustroid(self) -> Any:
        """The representative center object of the cluster."""

    @property
    @abstractmethod
    def radius(self) -> float:
        """Root-mean-square distance of members to the clustroid."""

    @abstractmethod
    def absorb(self, obj: Any, dist_to_clustroid: float | None = None) -> None:
        """Type I insertion: add a single object to the cluster."""

    @abstractmethod
    def merge(self, other: "ClusterFeature") -> None:
        """Type II insertion: absorb another whole cluster (tree rebuild)."""

    @abstractmethod
    def distance_to(self, other: "ClusterFeature") -> float:
        """Inter-cluster distance used for the threshold test and splits."""

    def admits(self, obj: Any, dist: float, threshold: float) -> bool:
        """Threshold requirement: may ``obj`` (at distance ``dist`` from this
        cluster) be absorbed without violating quality ``threshold``?

        The default is the paper's D0 rule for BUBBLE: ``dist <= T``.
        """
        return dist <= threshold

    def admits_feature(self, other: "ClusterFeature", dist: float, threshold: float) -> bool:
        """Threshold requirement for merging another cluster into this one."""
        return dist <= threshold


class BubbleClusterFeature(ClusterFeature):
    """Leaf-level CF* of BUBBLE/BUBBLE-FM (Section 4.1).

    The feature owns its state: the representative objects in a list, and
    their RowSums with a Neumaier compensation term each in two float64
    arrays ``2p`` wide, of which the first ``len(representatives)`` slots
    are live. Every RowSum update is one vectorized compensated add (see
    :func:`repro.utils.numerics.compensated_add`). The *effective* RowSum
    of a slot is ``rowsum + compensation``; all decisions (clustroid
    argmin, radius, Observation 1 estimates) use the effective values, so
    incremental drift stays ``O(eps)`` relative regardless of stream
    length.

    Parameters
    ----------
    metric:
        Distance function of the space; all maintenance goes through it (and
        is therefore counted toward NCD).
    obj:
        The first member of the new cluster.
    representation_number:
        The paper's ``2p``: total representative objects kept once the
        cluster outgrows exact maintenance. Must be an even integer >= 2.
    """

    __slots__ = (
        "metric", "n", "rep_cap", "p", "exact", "_reps", "_sums", "_comps", "_clustroid_idx",
    )

    def __init__(self, metric: DistanceFunction, obj: Any, representation_number: int = 10):
        if representation_number < 2 or representation_number % 2 != 0:
            raise ParameterError(
                f"representation_number (2p) must be an even integer >= 2, "
                f"got {representation_number}"
            )
        self.metric = metric
        self.rep_cap = int(representation_number)
        self.p = self.rep_cap // 2
        self.n = 1
        #: True while every member object is kept and RowSums are exact.
        self.exact = True
        self._reps: list = [obj]
        #: Raw RowSum and Neumaier compensation of each representative slot.
        self._sums = np.zeros(self.rep_cap, dtype=np.float64)
        self._comps = np.zeros(self.rep_cap, dtype=np.float64)
        self._clustroid_idx = 0

    # ------------------------------------------------------------------
    # RowSum storage
    # ------------------------------------------------------------------
    @property
    def _rowsums(self) -> np.ndarray:
        """Writable view of the *raw* (uncompensated) RowSum slots.

        Exposed for the audit layer's corruption probes; algorithmic reads
        go through :meth:`_effective_rowsums` which folds compensation in.
        """
        return self._sums[: len(self._reps)]

    @_rowsums.setter
    def _rowsums(self, values: Any) -> None:
        k = len(self._reps)
        self._sums[:k] = np.asarray(values, dtype=np.float64)[:k]
        self._comps[:k] = 0.0

    def _effective_rowsums(self) -> np.ndarray:
        k = len(self._reps)
        return self._sums[:k] + self._comps[:k]

    def _store(self, objs: list, rowsums: np.ndarray, comps: np.ndarray) -> None:
        """Replace the representative set and its RowSum slots."""
        k = len(objs)
        self._reps = objs
        self._sums[:k] = rowsums
        self._sums[k:] = 0.0
        self._comps[:k] = comps
        self._comps[k:] = 0.0

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    @property
    def clustroid(self) -> Any:
        return self._reps[self._clustroid_idx]

    @property
    def radius(self) -> float:
        c = self._clustroid_idx
        rowsum = float(self._sums[c] + self._comps[c])
        return float(np.sqrt(max(rowsum, 0.0) / self.n))

    @property
    def representatives(self) -> list:
        """The representative objects currently kept (all members while exact)."""
        return list(self._reps)

    @property
    def rowsums(self) -> list[float]:
        """Effective (compensated) RowSum values parallel to :attr:`representatives`."""
        return [float(v) for v in self._effective_rowsums()]

    @property
    def nearest_representatives(self) -> list:
        """The (at most) ``p`` kept members closest to the clustroid."""
        order = np.argsort(self._effective_rowsums())
        return [self._reps[i] for i in order[: self.p]]

    @property
    def peripheral_representatives(self) -> list:
        """The kept members farthest from the clustroid (cluster periphery)."""
        order = np.argsort(self._effective_rowsums())
        return [self._reps[i] for i in order[self.p :]]

    # ------------------------------------------------------------------
    # Type I insertion
    # ------------------------------------------------------------------
    def absorb(self, obj: Any, dist_to_clustroid: float | None = None) -> None:
        """Insert a single object (Section 4.1.2, Type I).

        ``dist_to_clustroid`` is ``d(obj, clustroid)`` when the caller has
        measured it, as the tree has when it picked this cluster. Then only
        the other representatives are measured, in one ``one_to_many``
        gather; without it the clustroid is measured with them.
        """
        reps = self._reps
        c = self._clustroid_idx
        with site("leaf-update"):
            if dist_to_clustroid is None:
                dists = np.asarray(self.metric.one_to_many(obj, reps), dtype=np.float64)
            else:
                dists = np.empty(len(reps), dtype=np.float64)
                dists[c] = dist_to_clustroid
                if len(reps) > 1:
                    others = self.metric.one_to_many(obj, reps[:c] + reps[c + 1 :])
                    dists[:c] = others[:c]
                    dists[c + 1 :] = others[c:]
        sq = dists**2
        if self.exact:
            rowsum_new = float(sq.sum())
        else:
            # Observation 1 estimate against the *current* cluster of size n.
            d0 = float(dists[c])
            rowsum_new = self.n * (self.radius**2 + d0**2)
        k = len(reps)
        compensated_add(self._sums[:k], self._comps[:k], sq)
        self.n += 1

        if k < self.rep_cap:
            reps.append(obj)
            self._sums[k] = rowsum_new
            self._comps[k] = 0.0
        else:
            if self.exact:
                self.exact = False
            # Replace the highest-RowSum member of the *nearest* set if the
            # newcomer beats it (the paper's O_p replacement rule).
            eff = self._effective_rowsums()
            order = np.argsort(eff)
            worst_near = int(order[self.p - 1])
            if rowsum_new < eff[worst_near]:
                reps[worst_near] = obj
                self._sums[worst_near] = rowsum_new
                self._comps[worst_near] = 0.0
        self._clustroid_idx = int(np.argmin(self._effective_rowsums()))

    # ------------------------------------------------------------------
    # Type II insertion
    # ------------------------------------------------------------------
    def merge(self, other: "BubbleClusterFeature") -> None:
        """Merge another cluster into this one (Section 4.1.2, Type II).

        While both clusters are exact and the union fits within ``2p``
        objects, the merged feature stays exact (all cross distances are
        computed). Otherwise every kept representative of either side
        becomes a clustroid candidate, its RowSum against the *other*
        cluster estimated via Observation 1 from the other side's clustroid
        and radius; the new clustroid is the candidate with the smallest
        combined estimate — in practice an object midway between the two old
        clustroids, which is why the periphery representatives are kept.
        """
        if not isinstance(other, BubbleClusterFeature):
            raise ParameterError("BubbleClusterFeature can only merge with its own kind")
        n1, n2 = self.n, other.n
        reps_self, reps_other = self._reps, other._reps
        if self.exact and other.exact and len(reps_self) + len(reps_other) <= self.rep_cap:
            self._merge_exact(other)
            return

        r1_sq, r2_sq = self.radius**2, other.radius**2
        c1, c2 = self.clustroid, other.clustroid
        # d(o, other's clustroid) for each of our candidates, and vice versa.
        with site("leaf-update"):
            d_to_c2 = self.metric.one_to_many(c2, reps_self)
            d_to_c1 = self.metric.one_to_many(c1, reps_other)

        cand_objs = reps_self + reps_other
        cand_rs = np.concatenate([self._rowsums, other._rowsums])
        cand_comp = np.concatenate(
            [self._comps[: len(reps_self)], other._comps[: len(reps_other)]]
        )
        deltas = np.concatenate(
            [
                n2 * (r2_sq + np.asarray(d_to_c2, dtype=np.float64) ** 2),
                n1 * (r1_sq + np.asarray(d_to_c1, dtype=np.float64) ** 2),
            ]
        )
        compensated_add(cand_rs, cand_comp, deltas)

        self.n = n1 + n2
        self.exact = False
        if len(cand_objs) > self.rep_cap:
            order = np.argsort(cand_rs + cand_comp)
            keep = list(order[: self.p]) + list(order[len(order) - self.p :])
            cand_objs = [cand_objs[i] for i in keep]
            cand_rs = cand_rs[keep]
            cand_comp = cand_comp[keep]
        self._store(cand_objs, cand_rs, cand_comp)
        self._clustroid_idx = int(np.argmin(self._effective_rowsums()))

    def _merge_exact(self, other: "BubbleClusterFeature") -> None:
        """Exact merge: both member lists are complete, so recompute RowSums
        from the full cross-distance matrix (``n1 * n2`` calls, one batched
        gather)."""
        reps_self, reps_other = self._reps, other._reps
        with site("leaf-update"):
            cross = self.metric.cross(reps_self, reps_other)
        cross_sq = np.asarray(cross, dtype=np.float64) ** 2
        new_rs = np.concatenate([self._rowsums, other._rowsums])
        new_comp = np.concatenate(
            [self._comps[: len(reps_self)], other._comps[: len(reps_other)]]
        )
        compensated_add(new_rs, new_comp, np.concatenate([cross_sq.sum(axis=1), cross_sq.sum(axis=0)]))
        self._store(reps_self + reps_other, new_rs, new_comp)
        self.n += other.n
        self._clustroid_idx = int(np.argmin(self._effective_rowsums()))

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def distance_to(self, other: "BubbleClusterFeature") -> float:
        """``D0`` of Definition 4.4: distance between the two clustroids."""
        return self.metric.distance(self.clustroid, other.clustroid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BubbleClusterFeature(n={self.n}, radius={self.radius:.4g}, "
            f"reps={len(self._reps)}, exact={self.exact})"
        )


@dataclass
class SubCluster:
    """Immutable snapshot of one discovered sub-cluster.

    This is what a pre-clustering run returns for downstream analysis
    (Section 2: the output of the pre-clustering phase feeds domain-specific
    methods, in our pipelines a hierarchical clustering of the clustroids).
    """

    #: The cluster's clustroid (an actual member object).
    clustroid: object
    #: Number of objects absorbed into the cluster.
    n: int
    #: RMS distance of members to the clustroid.
    radius: float
    #: Representative member objects (including the clustroid).
    representatives: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"SubCluster.n must be >= 1, got {self.n}")
        if self.radius < 0:
            raise ParameterError(f"SubCluster.radius must be >= 0, got {self.radius}")
