"""The shard worker: one fault-tolerant sequential scan per process.

A :class:`ShardTask` carries everything a worker needs to run the existing
``PreClusterer.fit`` path on its shard: the driver class, its sequential
build configuration, a private metric copy, a shard-derived seed, and (optionally) a
slice of the NCD budget. :func:`run_shard` is a module-level function so the
``spawn`` start method can pickle it, and it works identically in-process —
the ``n_jobs=1`` backend calls it directly, which is what makes the merged
tree independent of the executor.

The trip home reuses the checkpoint machinery: leaf CF*s reference the
worker's metric copy, so they are serialized with the metric-stripping
pickler from :mod:`repro.persistence` and re-attached to the parent's
metric on arrival — exactly how checkpoint resume re-homes a tree.
"""

from __future__ import annotations

import io
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.core.config import BuildConfig
from repro.exceptions import CheckpointError, EmptyDatasetError
from repro.metrics.base import CallLedger, DistanceFunction
from repro.persistence import _MetricStrippingPickler
from repro.robustness.injection import ChaosPolicy
from repro.utils.proc import peak_rss_kb

__all__ = ["ShardTask", "ShardResult", "run_shard"]


@dataclass
class ShardTask:
    """Everything one worker needs to scan one shard."""

    #: Position of this shard in the round-robin partition.
    shard_id: int
    #: Total shard count (needed to restore global scan indices).
    n_shards: int
    #: The shard's objects, in scan order.
    objects: list[Any]
    #: Driver class (``BUBBLE``/``BUBBLEFM``/a ``PreClusterer`` subclass).
    driver: type
    #: The shard's build configuration: the parent's, run sequentially
    #: (``n_jobs=1``, ``n_shards=None``).
    config: BuildConfig
    #: This worker's private metric copy (counter reset on arrival).
    metric: DistanceFunction
    #: Shard-derived seed for all of the worker's stochastic choices.
    seed: int | None
    #: ``fit(on_error=...)`` — per-shard quarantine works as usual.
    on_error: str = "raise"
    #: ``fit(max_quarantine=...)``, enforced per shard.
    max_quarantine: int | None = None
    #: This shard's slice of a guarded metric's NCD budget (``None`` when
    #: the parent metric is unbudgeted).
    max_calls: int | None = None
    #: Zero-based attempt number (the supervisor bumps this on retries).
    attempt: int = 0
    #: Where this shard writes its atomic checkpoints (``None`` disables).
    checkpoint_path: str | None = None
    #: Checkpoint cadence in objects, as in sequential ``fit``.
    checkpoint_every: int = 1000
    #: Shard checkpoint to resume from (``None`` for a fresh scan). A
    #: missing file is not an error — the shard simply rescans from zero.
    resume_from: str | None = None
    #: Seeded fault schedule for chaos drills (``None`` in production).
    chaos: ChaosPolicy | None = None


@dataclass
class ShardResult:
    """What one worker sends home. Plain data plus a metric-stripped pickle
    payload, so it crosses the process boundary with standard pickling."""

    shard_id: int
    #: ``{"features": [...], "threshold": T}`` via the stripping pickler.
    payload: bytes
    #: Objects absorbed into the shard tree.
    n_objects: int
    #: Leaf clusters the shard tree condensed its objects into.
    n_subclusters: int
    #: Distance calls spent by this worker (its metric copy's NCD).
    n_calls: int
    #: Per-site split of ``n_calls`` (sums exactly to it).
    by_site: dict[str, int] = field(default_factory=dict)
    #: ``IngestReport.to_dict()`` of the shard scan.
    report: dict[str, Any] = field(default_factory=dict)
    #: ``Quarantine.get_state()`` with shard-local indices.
    quarantine: dict[str, Any] = field(default_factory=dict)
    #: ``PruningStats.as_dict()`` of the shard's routing engine.
    pruning: dict[str, int] = field(default_factory=dict)
    #: Worker wall-clock seconds for the whole shard.
    elapsed_seconds: float = 0.0
    #: Worker peak RSS in KiB.
    peak_rss_kb: int = 0
    #: Scan cursor restored from the shard checkpoint (``None`` = fresh).
    resumed_at: int | None = None
    #: True when a resume checkpoint was unreadable and discarded.
    checkpoint_discarded: bool = False


def run_shard(task: ShardTask) -> ShardResult:
    """Scan one shard with the standard sequential ``fit`` and package the
    shard tree's leaf CF*s for the deterministic merge."""
    start = time.perf_counter()
    metric = task.metric
    if task.chaos is not None:
        # Chaos drills splice their flaky/slow wrappers *under* any guard
        # in the chain, so the injected faults hit the same machinery real
        # faults would.
        metric = task.chaos.wrap_metric(metric, task.shard_id, task.attempt)
    metric.reset_counter()
    if task.max_calls is not None:
        # A guarded metric: open a fresh budget window sized to this
        # shard's slice of the global budget.
        reset_budget = getattr(metric, "reset_budget", None)
        if reset_budget is not None:
            reset_budget()
            metric.max_calls = task.max_calls  # type: ignore[attr-defined]

    def stream() -> Any:
        if task.chaos is not None:
            return task.chaos.stream(task.objects, task.shard_id, task.attempt)
        return task.objects

    resume_from = task.resume_from
    if resume_from is not None and not os.path.exists(resume_from):
        # The shard died before its first checkpoint: nothing to resume.
        resume_from = None

    model = task.driver(metric, seed=task.seed, **asdict(task.config))
    checkpoint_discarded = False
    ledger = CallLedger()
    with ledger:
        try:
            try:
                model.fit(
                    stream(),
                    on_error=task.on_error,
                    max_quarantine=task.max_quarantine,
                    checkpoint_path=task.checkpoint_path,
                    checkpoint_every=task.checkpoint_every,
                    resume_from=resume_from,
                )
            except CheckpointError:
                if resume_from is None:
                    raise
                # Corrupt or incompatible shard checkpoint: recovery is a
                # rescan from zero, not a build failure. The restore fails
                # before any object is consumed, so a fresh driver replays
                # the shard exactly.
                checkpoint_discarded = True
                model = task.driver(metric, seed=task.seed, **asdict(task.config))
                model.fit(
                    stream(),
                    on_error=task.on_error,
                    max_quarantine=task.max_quarantine,
                    checkpoint_path=task.checkpoint_path,
                    checkpoint_every=task.checkpoint_every,
                )
            tree = model.tree_
            features = tree.leaf_features()
            threshold = tree.threshold
        except EmptyDatasetError:
            # An empty shard, or one whose every object was quarantined:
            # contribute no clusters, but do report what happened.
            features = []
            threshold = model.config.threshold
    buf = io.BytesIO()
    _MetricStrippingPickler(buf).dump(
        {"features": features, "threshold": threshold}
    )
    pruning_stats = getattr(model.tree_.policy, "pruning_stats", None) if model.tree_ is not None else None
    return ShardResult(
        shard_id=task.shard_id,
        payload=buf.getvalue(),
        n_objects=sum(f.n for f in features),
        n_subclusters=len(features),
        n_calls=metric.n_calls,
        by_site=dict(ledger.by_site),
        report=model.ingest_report_.to_dict(),
        quarantine=model.quarantine_.get_state(),
        pruning=dict(pruning_stats.as_dict()) if pruning_stats is not None else {},
        elapsed_seconds=time.perf_counter() - start,
        peak_rss_kb=peak_rss_kb(),
        resumed_at=model.ingest_report_.resumed_at,
        checkpoint_discarded=checkpoint_discarded,
    )
