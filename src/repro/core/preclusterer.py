"""User-facing single-scan pre-clustering drivers.

:class:`BUBBLE` and :class:`BUBBLEFM` wrap a CF*-tree with the corresponding
policy and expose an estimator-style API::

    model = BUBBLE(metric=EditDistance(), max_nodes=200, seed=0)
    model.fit(strings)                 # one sequential scan
    model.subclusters_                 # condensed sub-cluster summaries
    labels = model.assign(strings)     # optional second scan (Section 6.1)

Following the paper's positioning (Section 2), these are *pre-clustering*
algorithms: they compress the dataset into sub-clusters a domain-specific
method can refine — :mod:`repro.pipelines` chains them with a hierarchical
global phase exactly as the evaluation methodology does.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable
from dataclasses import asdict
from typing import Any

import numpy as np

from repro.core.bubble import BubblePolicy
from repro.core.bubble_fm import BubbleFMPolicy
from repro.core.cftree import CFTree
from repro.core.config import BUBBLEFMConfig, BuildConfig
from repro.core.features import SubCluster
from repro.exceptions import (
    CheckpointError,
    DeadlineExceededError,
    EmptyDatasetError,
    MetricBudgetExceededError,
    NotFittedError,
    ParameterError,
    QuarantineOverflowError,
    TreeInvariantError,
)
from repro.metrics.base import DistanceFunction
from repro.observability import NULL_TRACER, NullTracer
from repro.robustness.report import IngestReport
from repro.robustness.quarantine import Quarantine
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_integer

__all__ = ["PreClusterer", "BUBBLE", "BUBBLEFM"]

#: Failures that must abort the scan even under ``on_error="quarantine"``:
#: budget/deadline exhaustion is a global stop condition, quarantine
#: overflow is the circuit breaker itself, and an invariant violation means
#: the tree is no longer trustworthy.
_NON_QUARANTINABLE = (
    MetricBudgetExceededError,
    DeadlineExceededError,
    QuarantineOverflowError,
    TreeInvariantError,
)


class PreClusterer:
    """Base driver: scan objects once, maintain a CF*-tree, expose results.

    Parameters
    ----------
    metric:
        The distance function defining the space.
    seed:
        Seed or generator for all stochastic choices (sampling, pivots).
    tracer:
        A :class:`repro.observability.Tracer` recording phase spans and
        per-site NCD attribution for every scan this model runs. The
        default no-op :data:`~repro.observability.NULL_TRACER` adds no
        overhead (and no extra distance calls).
    **options:
        The build knobs, one keyword per field of :attr:`config_type`
        (:class:`~repro.core.config.BuildConfig` here); they become the
        frozen :attr:`config`.
    """

    #: The configuration record this driver's keyword options build.
    config_type: type[BuildConfig] = BuildConfig
    #: The frozen build configuration (rebind with ``dataclasses.replace``).
    config: BuildConfig

    def __init__(
        self,
        metric: DistanceFunction,
        *,
        seed: int | np.random.Generator | None = None,
        tracer: NullTracer = NULL_TRACER,
        **options: Any,
    ):
        self.metric = metric
        self.tracer = tracer
        self.config = self.config_type(**options)
        #: The raw seed argument, kept so a sharded build can derive
        #: independent, reproducible per-shard seeds from it.
        self._seed = seed
        self._rng = ensure_rng(seed)
        self.tree_: CFTree | None = None
        self.quarantine_: Quarantine = Quarantine()
        self.ingest_report_: IngestReport = IngestReport()
        #: Per-shard diagnostics of the last parallel build (empty for a
        #: sequential fit): shard id, objects, sub-clusters, NCD, wall
        #: time, and worker peak RSS.
        self.shard_summaries_: list[dict] = []
        #: Per-sample diagnostics of the last sampled global phase (empty
        #: until :meth:`global_phase` runs with ``method="clara"``).
        self.global_phase_samples_: list[dict] = []
        self._cursor = 0
        #: ``(metric, QueryBoundCache)`` shared by every :meth:`index`.
        self._serving: tuple[DistanceFunction, Any] | None = None

    # -- subclasses supply the policy ---------------------------------
    def _make_policy(self) -> BubblePolicy:
        raise NotImplementedError

    def _new_tree(self) -> CFTree:
        """An empty CF*-tree over a fresh policy, built from :attr:`config`."""
        policy = self._make_policy()
        policy.tracer = self.tracer
        config = self.config
        return CFTree(
            policy,
            branching_factor=config.branching_factor,
            max_nodes=config.max_nodes,
            threshold=config.threshold,
            outlier_fraction=config.outlier_fraction,
            seed=self._rng,
            tracer=self.tracer,
            validate=config.validate,
        )

    # ------------------------------------------------------------------
    def fit(
        self,
        objects: Iterable,
        *,
        on_error: str = "raise",
        max_quarantine: int | None = None,
        checkpoint_path: Any=None,
        checkpoint_every: int = 1000,
        resume_from: Any=None,
    ) -> "PreClusterer":
        """Cluster ``objects`` in a single sequential scan.

        Parameters
        ----------
        on_error:
            ``"raise"`` (default) propagates any insertion failure;
            ``"quarantine"`` parks the failing object in
            :attr:`quarantine_` and continues the scan (see
            :meth:`partial_fit` for the exact rules).
        max_quarantine:
            Quarantine capacity; overflowing it raises
            :class:`~repro.exceptions.QuarantineOverflowError`.
        checkpoint_path:
            When set, a full tree snapshot is written here (atomically)
            every ``checkpoint_every`` objects via
            :func:`repro.persistence.save_checkpoint`. For a sharded
            build (``n_jobs > 1`` or ``n_shards`` set) this is a
            *directory*: each worker checkpoints its own shard into it,
            next to a manifest pinning the partition.
        checkpoint_every:
            Snapshot period, in objects consumed from the stream.
        resume_from:
            Path of a checkpoint written by a previous, interrupted scan
            over the *same* object sequence. The tree, RNG state,
            quarantine buffer, and report are restored, and the first
            ``cursor`` objects of ``objects`` are skipped, so the resumed
            run reproduces the uninterrupted one exactly (same seed, same
            metric). A sharded build resumes from a sharded checkpoint
            directory written with the same ``n_shards``, algorithm, and
            seed; mixing sequential and sharded checkpoints raises
            :class:`~repro.exceptions.CheckpointError`.
        """
        if self.config.n_jobs > 1 or self.config.n_shards is not None:
            from repro.parallel import parallel_fit

            parallel_fit(
                self,
                objects,
                on_error=on_error,
                max_quarantine=max_quarantine,
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
                resume_from=resume_from,
            )
            return self
        if resume_from is not None:
            self._restore_checkpoint(resume_from)
            objects = itertools.islice(iter(objects), self._cursor, None)
        else:
            self.tree_ = None
            self._cursor = 0
            self.quarantine_ = Quarantine(max_size=max_quarantine)
            self.ingest_report_ = IngestReport()
        self.partial_fit(
            objects,
            on_error=on_error,
            max_quarantine=max_quarantine,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        if self.tree_.n_objects == 0:
            n_parked = len(self.quarantine_)
            self.tree_ = None
            if n_parked:
                raise EmptyDatasetError(
                    f"every one of the {n_parked} scanned objects was "
                    "quarantined; nothing to cluster"
                )
            raise EmptyDatasetError("fit requires at least one object")
        if self.config.outlier_fraction is not None:
            finish = time.perf_counter()
            with self.tracer.activation():
                self.tree_.reabsorb_outliers()
            self.ingest_report_.elapsed_seconds += time.perf_counter() - finish
        self._sync_report()
        return self

    def partial_fit(
        self,
        objects: Iterable,
        *,
        on_error: str = "raise",
        max_quarantine: int | None = None,
        checkpoint_path: Any=None,
        checkpoint_every: int = 1000,
    ) -> "PreClusterer":
        """Absorb one more batch of objects into the evolving clustering.

        BIRCH*'s incremental nature makes streaming ingestion free: batches
        arriving over time are simply a segmented version of the single
        scan. Unlike :meth:`fit`, an existing tree is extended rather than
        replaced, and parked outliers are *not* re-absorbed (call
        :meth:`finalize` when the stream ends).

        With ``on_error="quarantine"``, an object whose insertion raises is
        parked in :attr:`quarantine_` and the scan continues — but only
        when the failure provably left the tree untouched (the object was
        not counted and a structural invariant check passes). Failures
        mid-rebuild or mid-split, budget/deadline exhaustion, and
        quarantine overflow still propagate; recover from those with
        checkpoints.
        """
        if on_error not in ("raise", "quarantine"):
            raise ParameterError(
                f'on_error must be "raise" or "quarantine", got {on_error!r}'
            )
        if checkpoint_path is not None:
            checkpoint_every = check_integer(
                checkpoint_every, "checkpoint_every", minimum=1
            )
        start = time.perf_counter()
        if self.tree_ is None:
            self.tree_ = self._new_tree()
        elif self.tree_.tracer is not self.tracer:
            # A tree restored from a checkpoint carries the no-op tracer;
            # re-attach this model's so the resumed scan is traced too.
            self.tree_.tracer = self.tracer
            self.tree_.policy.tracer = self.tracer
        if max_quarantine is not None and self.quarantine_.max_size is None:
            self.quarantine_.max_size = max_quarantine
        tree = self.tree_
        report = self.ingest_report_
        try:
            with self.tracer.activation():
                for obj in objects:
                    index = self._cursor
                    self._cursor += 1
                    report.n_seen += 1
                    if on_error == "raise":
                        tree.insert(obj)
                        report.n_inserted += 1
                    else:
                        self._insert_or_quarantine(obj, index)
                    if checkpoint_path is not None and self._cursor % checkpoint_every == 0:
                        self._write_checkpoint(checkpoint_path)
        finally:
            report.elapsed_seconds += time.perf_counter() - start
            self._sync_report()
        return self

    # ------------------------------------------------------------------
    # Fault-tolerant insertion
    # ------------------------------------------------------------------
    def _insert_or_quarantine(self, obj: Any, index: int) -> None:
        tree = self.tree_
        n_before = tree.n_objects
        try:
            tree.insert(obj)
            self.ingest_report_.n_inserted += 1
        except _NON_QUARANTINABLE:
            raise
        except Exception as exc:
            if tree.n_objects != n_before or not self._tree_is_sound():
                # The object was (partially) applied, or the failure left
                # structural damage: continuing would corrupt results.
                raise
            self.quarantine_.add(index, obj, exc)
            self.ingest_report_.n_quarantined += 1

    def _tree_is_sound(self) -> bool:
        """Metric-free structural check after a failed insert."""
        # Imported lazily: repro.analysis depends on repro.core, not vice versa.
        from repro.analysis.audit import audit_tree

        return audit_tree(
            self.tree_,
            recompute_exact=False,
            check_samples=False,
            check_threshold=False,
            raise_on_error=False,
        ).ok

    def _sync_report(self) -> None:
        """Pull metric-side and tree-side counters into the report."""
        report = self.ingest_report_
        report.n_distance_calls = self.metric.n_calls
        if self.tree_ is not None:
            report.n_rebuilds = self.tree_.n_rebuilds
        metric = self.metric
        report.n_retries = getattr(metric, "n_retries", 0)
        report.n_substitutions = getattr(metric, "n_substitutions", 0)
        report.n_metric_faults = getattr(metric, "n_faults", 0)

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def _write_checkpoint(self, path: Any) -> None:
        from repro.persistence import save_checkpoint

        self._sync_report()
        save_checkpoint(
            path,
            self.tree_,
            cursor=self._cursor,
            state={
                "quarantine": self.quarantine_.get_state(),
                "report": self.ingest_report_.to_dict(),
            },
            metadata={"algorithm": type(self).__name__, "config": asdict(self.config)},
        )
        self.ingest_report_.n_checkpoints += 1

    def _restore_checkpoint(self, path: Any) -> None:
        from repro.persistence import load_checkpoint

        ck = load_checkpoint(path, metric=self.metric)
        algorithm = ck.metadata.get("algorithm")
        if algorithm is not None and algorithm != type(self).__name__:
            raise CheckpointError(
                f"checkpoint was written by {algorithm}, "
                f"cannot resume with {type(self).__name__}"
            )
        self.config.check_resume(ck.metadata.get("config"), "checkpoint")
        if not isinstance(ck.tree, CFTree):
            raise CheckpointError("checkpoint does not hold a CF*-tree")
        self.tree_ = ck.tree
        # The tree, its policy, and this model must keep sharing one
        # generator — pickle preserved the tree/policy identity, so adopt it.
        self._rng = ck.tree._rng
        self._cursor = ck.cursor
        self.quarantine_ = Quarantine.from_state(ck.state.get("quarantine"))
        self.ingest_report_ = IngestReport.from_dict(ck.state.get("report"))
        self.ingest_report_.resumed_at = ck.cursor
        self.ingest_report_.n_checkpoints = 0

    def finalize(self) -> "PreClusterer":
        """End a :meth:`partial_fit` stream: re-absorb parked outliers."""
        tree = self._require_tree()
        if self.config.outlier_fraction is not None:
            with self.tracer.activation():
                tree.reabsorb_outliers()
        return self

    def summary(self) -> dict:
        """Diagnostics for the fitted model, ready for logging."""
        tree = self._require_tree()
        return {
            "algorithm": type(self).__name__,
            "n_objects": tree.n_objects,
            "n_subclusters": tree.n_clusters,
            "n_nodes": tree.n_nodes,
            "height": tree.height,
            "threshold": tree.threshold,
            "n_rebuilds": tree.n_rebuilds,
            "n_outliers_parked": tree.n_outliers_parked,
            "n_quarantined": len(self.quarantine_),
            "n_distance_calls": self.metric.n_calls,
        }

    def _require_tree(self) -> CFTree:
        if self.tree_ is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted yet")
        return self.tree_

    # ------------------------------------------------------------------
    # Global phase (Section 3.2): medoid search over the leaf clustroids
    # ------------------------------------------------------------------
    def global_phase(
        self,
        n_clusters: int,
        *,
        method: str = "clarans",
        num_local: int = 2,
        max_neighbors: int | None = None,
        global_samples: int = 5,
        global_sample_size: int | None = None,
        seed: Any = None,
    ) -> Any:
        """Run a medoid global phase over the fitted tree's clustroids.

        ``method="clarans"`` is the exact sequential search (the quality
        reference); ``"clara"`` draws ``global_samples`` population-weighted
        subsamples of the clustroids, searches each in turn on this
        model's metric, and keeps the candidate with the best
        full-clustroid-set weighted cost — see :class:`repro.clarans.CLARA`.
        Sub-cluster populations weight both the draws and the scoring, so
        big leaves count proportionally.

        Returns the fitted search object (``CLARANS`` or ``CLARA``); CLARA
        runs also record per-sample diagnostics in
        :attr:`global_phase_samples_` and fold sample totals into
        :attr:`ingest_report_`.
        """
        if method not in ("clarans", "clara"):
            raise ParameterError(
                f'global-phase method must be "clarans" or "clara", got {method!r}'
            )
        subclusters = self.subclusters_
        clustroids = [s.clustroid for s in subclusters]
        weights = [float(s.n) for s in subclusters]
        k = min(int(n_clusters), len(clustroids))
        if seed is None:
            seed = self._seed
        if method == "clarans":
            from repro.clarans import CLARANS

            search: Any = CLARANS(
                k,
                self.metric,
                num_local=num_local,
                max_neighbors=max_neighbors,
                seed=seed,
            )
            with self.tracer.activation(), self.tracer.span("global-phase"):
                search.fit(clustroids)
            self.global_phase_samples_ = []
        else:
            from repro.clarans import CLARA

            search = CLARA(
                k,
                self.metric,
                n_samples=global_samples,
                sample_size=global_sample_size,
                num_local=num_local,
                max_neighbors=max_neighbors,
                seed=seed,
                tracer=self.tracer,
            )
            search.fit(clustroids, weights=weights)
            self.global_phase_samples_ = list(search.sample_summaries_)
            report = self.ingest_report_
            report.global_samples = len(search.sample_summaries_)
            report.global_sample_ncd = sum(
                int(s["n_calls"]) for s in search.sample_summaries_
            )
            report.global_sample_seconds = sum(
                float(s["elapsed_seconds"]) for s in search.sample_summaries_
            )
            report.n_distance_calls = self.metric.n_calls
        return search

    @property
    def subclusters_(self) -> list[SubCluster]:
        """Condensed summaries of the discovered sub-clusters."""
        return [
            SubCluster(
                clustroid=f.clustroid,
                n=f.n,
                radius=f.radius,
                representatives=f.representatives,
            )
            for f in self._require_tree().leaf_features()
        ]

    @property
    def clustroids_(self) -> list:
        """Clustroid of each sub-cluster, in leaf order."""
        return [f.clustroid for f in self._require_tree().leaf_features()]

    @property
    def n_subclusters_(self) -> int:
        return self._require_tree().n_clusters

    @property
    def n_distance_calls_(self) -> int:
        """NCD so far on this model's metric (fit + any later scans)."""
        return self.metric.n_calls

    def index(self, backend: str = "cftree", **kwargs: Any):
        """A ready :class:`~repro.index.MetricIndex` over the sub-cluster
        clustroids (in :attr:`clustroids_` order, any backend).

        ``backend="cftree"`` (default) is the cheap path: it reuses the
        fitted tree's cached leaf geometry, so the only counted calls are
        the non-leaf anchor pairs its last adoption did not already hold.
        The other backends (``"vptree"``, ``"brute"``) build from scratch
        over the clustroid list. Extra keyword arguments go to the backend
        constructor.

        Every index gets the model's one
        :class:`~repro.index.QueryBoundCache` unless ``bound_cache=`` is
        passed. It is keyed by indexed object, so the distances queries
        paid for, and the anchor pairs of the last adoption, survive
        :meth:`partial_fit` and the next ``index()`` call. It is created
        on first use, tied to :attr:`metric` (assigning a new metric
        starts a fresh one), and never pickled with the model.
        """
        tree = self._require_tree()
        if "bound_cache" not in kwargs:
            kwargs["bound_cache"] = self._bound_cache()
        if backend == "cftree":
            from repro.index.cftree import CFTreeIndex

            return CFTreeIndex.from_tree(tree, metric=self.metric, **kwargs)
        from repro.index import make_index

        idx = make_index(backend, self.metric, **kwargs)
        idx.build(self.clustroids_)
        return idx

    def _bound_cache(self) -> Any:
        """The model-owned query bound cache for the current :attr:`metric`."""
        if self._serving is None or self._serving[0] is not self.metric:
            from repro.index import QueryBoundCache

            self._serving = (self.metric, QueryBoundCache())
        return self._serving[1]

    def __getstate__(self) -> dict[str, Any]:
        # The bound cache keys objects by ``id``, which means nothing in
        # another process: it never travels.
        state = self.__dict__.copy()
        state["_serving"] = None
        return state

    def assign(self, objects: Iterable, via: str = "linear") -> np.ndarray:
        """Second scan: label each object with its nearest sub-cluster.

        Mirrors the evaluation methodology of Section 6.1: "the dataset is
        scanned a second time to associate each object with a cluster whose
        representative object is closest to it."

        Parameters
        ----------
        via:
            ``"linear"`` compares each object against every clustroid
            (exact; ``K`` distance calls per object). It stays exhaustive
            on purpose: it is the baseline ablation A6 measures the other
            two against. The pipeline's second scan,
            :func:`repro.pipelines.nearest_assignment`, returns the same
            labels from a pruned walk. ``"tree"`` routes
            each object down the CF*-tree (logarithmic cost, slightly
            approximate) — the option that makes the second phase viable
            when there are thousands of sub-clusters and the metric is
            expensive, as in the data-cleaning application of Section 7.
            ``"vptree"`` builds a VP-tree over the clustroids once and
            answers each lookup with an exact nearest-neighbour query —
            exact like ``"linear"``, sublinear per object like ``"tree"``.
        """
        tree = self._require_tree()
        with self.tracer.activation(), self.tracer.span("redistribute"):
            if via == "linear":
                clustroids = self.clustroids_
                labels = [
                    int(np.argmin(self.metric.one_to_many(obj, clustroids)))
                    for obj in objects
                ]
            elif via == "tree":
                index = {id(f): i for i, f in enumerate(tree.leaf_features())}
                labels = [index[id(tree.nearest_leaf_feature(obj))] for obj in objects]
            elif via == "vptree":
                # Neighbour indices are clustroid positions, so repeated
                # clustroids (equal-valued objects in different clusters)
                # stay unambiguous, and the (distance, index) tie-break
                # matches the linear scan's argmin-first-index exactly.
                index = self.index("vptree", seed=0)
                labels = [
                    index.nearest(obj).neighbors[0].index for obj in objects
                ]
            else:
                raise ParameterError(
                    f'via must be "linear", "tree" or "vptree", got {via!r}'
                )
        return np.asarray(labels, dtype=np.intp)


class BUBBLE(PreClusterer):
    """BUBBLE: scalable pre-clustering for arbitrary metric spaces.

    Examples
    --------
    >>> from repro.metrics import EuclideanDistance
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> data = list(rng.normal(size=(200, 2)))
    >>> model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=1).fit(data)
    >>> model.n_subclusters_ >= 1
    True
    """

    def _make_policy(self) -> BubblePolicy:
        config = self.config
        return BubblePolicy(
            self.metric,
            representation_number=config.representation_number,
            sample_size=config.sample_size,
            seed=self._rng,
            prune=config.prune,
        )


class BUBBLEFM(PreClusterer):
    """BUBBLE-FM: BUBBLE with FastMap routing to cut calls to expensive metrics.

    Takes BUBBLE's options plus ``image_dim`` and ``fm_iterations`` (see
    :class:`~repro.core.config.BUBBLEFMConfig`).
    """

    config_type = BUBBLEFMConfig
    config: BUBBLEFMConfig

    def _make_policy(self) -> BubbleFMPolicy:
        config = self.config
        return BubbleFMPolicy(
            self.metric,
            representation_number=config.representation_number,
            sample_size=config.sample_size,
            image_dim=config.image_dim,
            fm_iterations=config.fm_iterations,
            seed=self._rng,
            prune=config.prune,
        )
