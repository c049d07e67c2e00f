"""The full BUBBLE/BUBBLE-FM pipeline of the paper's evaluation (Section 6.1).

Phase 1  pre-cluster the data in one scan (BUBBLE or BUBBLE-FM);
Phase 2  hierarchically cluster the sub-cluster clustroids down to the
         requested number of clusters, weighting clustroids by sub-cluster
         population;
Phase 3  derive one center per final cluster — the centroid of the merged
         clustroids for coordinate data (exactly the paper's rule:
         "the clustroid of the final cluster is the centroid of the
         clustroids of sub-clusters merged"), or their weighted medoid in a
         general distance space where centroids do not exist;
Phase 4  (optional) scan the data a second time, labeling each object with
         its closest final center.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.features import SubCluster
from repro.core.preclusterer import BUBBLE, BUBBLEFM, PreClusterer
from repro.exceptions import ParameterError
from repro.hac import AgglomerativeClusterer
from repro.metrics.base import CallLedger, DistanceFunction, site
from repro.pipelines.labeling import nearest_assignment

__all__ = ["ClusteringResult", "cluster_dataset"]

_ALGORITHMS = ("bubble", "bubble-fm")
_CENTER_METHODS = ("auto", "centroid", "medoid")
_GLOBAL_METHODS = ("hac", "clarans", "clara")


@dataclass
class ClusteringResult:
    """Everything a pipeline run produces, for evaluation and inspection."""

    #: Final cluster centers (vectors for centroid method, member objects
    #: for medoid method), one per final cluster.
    centers: list
    #: Sub-clusters found by the pre-clustering phase.
    subclusters: list[SubCluster]
    #: Final-cluster index of each sub-cluster.
    subcluster_labels: np.ndarray
    #: Per-object labels from the second scan (``None`` when skipped).
    labels: np.ndarray | None
    #: Calls to the distance function over the whole pipeline.
    n_distance_calls: int
    #: Wall-clock seconds of the pre-clustering scan.
    scan_seconds: float
    #: Wall-clock seconds of the whole pipeline.
    total_seconds: float
    #: The fitted pre-clustering model (tree introspection, diagnostics).
    model: PreClusterer = field(repr=False, default=None)

    @property
    def ingest_report(self):
        """Fault-tolerance accounting of the pre-clustering scan
        (:class:`repro.robustness.IngestReport`)."""
        return self.model.ingest_report_ if self.model is not None else None

    @property
    def n_clusters(self) -> int:
        return len(self.centers)


def _weighted_medoid(
    metric: DistanceFunction, objects: Sequence, weights: Sequence[float]
):
    """The member minimizing the weighted sum of squared distances."""
    best_obj, best_cost = None, np.inf
    w = np.asarray(weights, dtype=np.float64)
    batch = metric.prepare(objects)
    for obj in objects:
        dists = metric.one_to_many(obj, batch)
        cost = float(np.dot(w, dists**2))
        if cost < best_cost:
            best_obj, best_cost = obj, cost
    return best_obj


def cluster_dataset(
    objects: Sequence,
    metric: DistanceFunction,
    n_clusters: int,
    algorithm: str = "bubble",
    linkage: str = "average",
    center_method: str = "auto",
    global_method: str = "hac",
    global_samples: int = 5,
    global_sample_size: int | None = None,
    assign: bool = True,
    seed=None,
    on_error: str = "raise",
    max_quarantine: int | None = None,
    checkpoint_path=None,
    checkpoint_every: int = 1000,
    resume_from=None,
    tracer: CallLedger | None = None,
    **options,
) -> ClusteringResult:
    """Run the complete pre-cluster → global-phase → label pipeline.

    ``options`` are the pre-clusterer's build knobs (``max_nodes``,
    ``threshold``, ``n_jobs``, ...), forwarded unchanged: the fields of
    :class:`~repro.core.config.BuildConfig`, plus
    :class:`~repro.core.config.BUBBLEFMConfig`'s ``image_dim`` and
    ``fm_iterations`` for ``algorithm="bubble-fm"``. Their defaults are the
    Section 6.1 settings (``SS=75, B=15, 2p=10``). ``image_dim`` is
    accepted, and ignored, for ``algorithm="bubble"`` too, so one sweep can
    drive both algorithms.

    ``center_method="auto"`` takes centroids when the sub-cluster clustroids
    are numeric vectors and weighted medoids otherwise.

    ``global_method`` selects the phase that merges sub-clusters down to
    ``n_clusters``: ``"hac"`` is the paper's hierarchical clustering;
    ``"clarans"`` runs the randomized medoid search over the clustroids
    instead (a domain-specific alternative in the spirit of Section 2's
    "a domain-specific clustering method can further analyze the
    sub-clusters output by our algorithm"); ``"clara"`` is the sampled
    variant of that search — ``global_samples`` population-weighted
    subsamples of the clustroids searched one after another, best
    candidate by full-clustroid-set cost (see ``docs/performance.md``,
    "Sampled global phase").
    ``global_sample_size`` pins the per-subsample size (default
    ``40 + 2k``).

    ``on_error``, ``max_quarantine``, ``checkpoint_path``,
    ``checkpoint_every`` and ``resume_from`` are forwarded to the
    pre-clusterer's ``fit`` — see
    :meth:`repro.core.preclusterer.PreClusterer.fit` for the fault-handling
    and checkpoint/resume semantics. Quarantined objects are excluded from
    the global phase; under ``assign=True`` they are still labeled with
    their nearest center in the second scan (labeling is read-only, so a
    previously failing object simply fails again and would raise there).

    ``tracer`` (a :class:`repro.observability.Tracer`, or any
    :class:`~repro.metrics.base.CallLedger`) is activated once around the
    whole run, the same as wrapping the call in ``with tracer:``: the
    scan's sites come from the pre-clusterer, the global phase runs under
    a ``global-phase`` site, and the second scan under ``redistribute`` —
    so per-site NCD and timings cover the whole pipeline. Without it the
    sites are booked on whichever ledger the caller has active.

    ``n_jobs`` parallelizes the pre-clustering scan only: it becomes a
    sharded build (see :mod:`repro.parallel`), which requires a picklable
    metric. The global phase always runs sequentially in the parent, so
    under ``global_method="hac"`` the clustroid distance matrix is gathered
    with the metric's own ``pairwise`` and HAC reads the same values for
    any ``n_jobs``. With ``checkpoint_path``/``resume_from`` the sharded
    build keeps per-shard checkpoints in a directory (see
    :meth:`PreClusterer.fit`).
    """
    if algorithm not in _ALGORITHMS:
        raise ParameterError(f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}")
    if center_method not in _CENTER_METHODS:
        raise ParameterError(
            f"center_method must be one of {_CENTER_METHODS}, got {center_method!r}"
        )
    if global_method not in _GLOBAL_METHODS:
        raise ParameterError(
            f"global_method must be one of {_GLOBAL_METHODS}, got {global_method!r}"
        )
    with tracer if tracer is not None else nullcontext():
        start = time.perf_counter()
        calls_before = metric.n_calls

        if algorithm == "bubble":
            options.pop("image_dim", None)
            model: PreClusterer = BUBBLE(metric, seed=seed, **options)
        else:
            model = BUBBLEFM(metric, seed=seed, **options)
        model.fit(
            objects,
            on_error=on_error,
            max_quarantine=max_quarantine,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
        )
        scan_seconds = time.perf_counter() - start

        subclusters = model.subclusters_
        clustroids = [s.clustroid for s in subclusters]
        weights = [s.n for s in subclusters]
        k = min(n_clusters, len(subclusters))
        if global_method == "hac":
            with site("global-phase"):
                hac = AgglomerativeClusterer(n_clusters=k, linkage=linkage)
                hac.fit(objects=clustroids, metric=metric, weights=weights)
            sub_labels = hac.labels_
            n_final = hac.n_clusters_
        else:
            # The driver owns the medoid global phase: exact CLARANS runs
            # under a "global-phase" site, CLARA under its own
            # "global-sample"/"global-assign" sites, and CLARA sample
            # diagnostics land in the model's report.
            search = model.global_phase(
                k,
                method=global_method,
                num_local=2,
                global_samples=global_samples,
                global_sample_size=global_sample_size,
                seed=seed,
            )
            sub_labels = search.labels_
            n_final = search.n_clusters_

        with site("global-phase"):
            if center_method == "auto":
                center_method = "centroid" if _is_vector(clustroids[0]) else "medoid"
            centers: list = []
            remap = {}
            for cluster in range(n_final):
                idx = np.flatnonzero(sub_labels == cluster)
                if len(idx) == 0:  # possible only under duplicate-medoid ties
                    continue
                remap[cluster] = len(centers)
                group = [clustroids[i] for i in idx]
                group_w = np.asarray([weights[i] for i in idx], dtype=np.float64)
                if center_method == "centroid":
                    mat = np.asarray(group, dtype=np.float64)
                    centers.append(mat.mean(axis=0))
                else:
                    centers.append(_weighted_medoid(metric, group, group_w))
        sub_labels = np.asarray([remap[int(c)] for c in sub_labels], dtype=np.intp)

        if assign:
            with site("redistribute"):
                labels = nearest_assignment(metric, objects, centers)
        else:
            labels = None
        return ClusteringResult(
            centers=centers,
            subclusters=subclusters,
            subcluster_labels=sub_labels,
            labels=labels,
            n_distance_calls=metric.n_calls - calls_before,
            scan_seconds=scan_seconds,
            total_seconds=time.perf_counter() - start,
            model=model,
        )


def _is_vector(obj) -> bool:
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError):
        return False
    return arr.ndim == 1 and arr.size > 0
