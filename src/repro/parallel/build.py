"""Parallel sharded build: fan out the scan, merge the shard trees.

The paper's single scan (Section 3) is embarrassingly partitionable
because the global phase (Section 3.2) never needed one tree — only one
set of leaf clusters. :func:`parallel_fit` splits the stream round-robin
into ``n_shards`` shards, runs the existing fault-tolerant ``fit`` path on
each shard (supervised worker processes, or inline when ``n_jobs=1``),
then performs a **deterministic merge**: every shard tree's leaf CF*s are
re-inserted — ordered by shard id, then leaf position — into the parent
model's final tree one at a time, the Type II insertion that rebuilds
use (Section 3.2).

Determinism: the partition depends only on ``n_shards``; each shard's seed
is derived from the model seed with ``SeedSequence.spawn``; the merge order
is fixed. The merged tree is therefore a pure function of
``(objects, seed, n_shards)`` — ``n_jobs`` only chooses how many processes
execute it. Merge quality can drift from the sequential build's (the
shards' thresholds grow on partial views of the data; see Section 4.2.2 and
``docs/performance.md``), but the result is reproducible run-to-run and
audit-clean.

Fault tolerance (see ``docs/robustness.md``): shards execute under the
:class:`~repro.parallel.pool.ShardSupervisor`, which detects worker death,
kills stragglers, retries failed shards with exponential backoff (each
retry gets a *fresh* metric copy, so a rescan replays the original shard
exactly), and enforces a pool-wide wall-clock deadline. With
``checkpoint_path`` set, every worker checkpoints its shard atomically
into a shared directory next to a manifest pinning the partition; a
killed build resumes from ``resume_from`` to the same merged tree an
uninterrupted run produces. A corrupt shard checkpoint is discarded and
that shard rescanned. A seeded
:class:`~repro.robustness.injection.ChaosPolicy` can inject all of these
failures on purpose.

Accounting: each worker counts NCD on its own metric copy under its own
:class:`~repro.metrics.base.CallLedger`; the parent re-books every
*successful* attempt's calls on its metric via
:meth:`~repro.metrics.base.DistanceFunction.count_external`, per original
site label, under a ``shard-ingest`` site (``shard-resume`` for shards
restored from a checkpoint) — so one metric still carries the
authoritative total and the per-site ledger still partitions ``n_calls``
exactly. Calls spent by crashed or failed attempts die with the attempt
and are never booked, keeping the conservation law
``sum(by_site) == n_calls`` intact by construction. A guarded metric's
call budget is split evenly across the shards with one share held back
for the merge and later phases, and absorption re-checks the global
budget — a breach mid-build cancels the remaining workers.
"""

from __future__ import annotations

import io
import os
import pickle
import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import asdict, replace
from typing import Any

import numpy as np

from repro.exceptions import (
    CheckpointError,
    EmptyDatasetError,
    MetricBudgetExceededError,
    ParameterError,
    QuarantineOverflowError,
)
from repro.metrics.base import site
from repro.parallel.pool import ShardFailure, ShardSupervisor
from repro.parallel.shard import global_index, shard_objects
from repro.parallel.worker import ShardResult, ShardTask
from repro.persistence import (
    _MetricRestoringUnpickler,
    load_shard_manifest,
    save_shard_manifest,
    shard_checkpoint_file,
)
from repro.robustness.injection import ChaosPolicy
from repro.robustness.quarantine import Quarantine
from repro.robustness.report import IngestReport

__all__ = ["parallel_fit", "rebook_worker_calls", "resolve_n_shards"]


def rebook_worker_calls(metric: Any, by_site: dict[str, int], n_calls: int) -> None:
    """Re-book one worker attempt's distance calls on the parent metric.

    The worker counted ``n_calls`` on its own metric copy under its own
    :class:`~repro.metrics.base.CallLedger`; booking them here, per
    original site label, keeps the parent's per-site ledger partitioning
    its ``n_calls`` exactly. The unconditional residual booking at the end
    charges any calls the worker ledger did not attribute to the caller's
    innermost open site — ``count_external(0)`` is a no-op, and an
    over-attributed worker (negative residual) raises rather than silently
    skewing ``sum(by_site)`` vs ``n_calls``. This is the one sanctioned
    absorb path for the sharded build; call it inside the site the calls
    belong to.
    """
    attributed = 0
    for site in sorted(by_site):
        n = int(by_site[site])
        metric.count_external(n, site=site)
        attributed += n
    metric.count_external(n_calls - attributed)


def resolve_n_shards(model: Any) -> int:
    """The logical shard count of a model's parallel build (defaults to
    ``n_jobs`` when ``n_shards`` was not pinned explicitly)."""
    config = model.config
    return int(config.n_shards if config.n_shards is not None else config.n_jobs)


def _shard_seeds(seed: Any, n_shards: int) -> list[int | None]:
    """Independent, reproducible per-shard seeds derived from the model seed."""
    if isinstance(seed, np.random.Generator):
        raise ParameterError(
            "a sharded build derives per-shard seeds from the model seed, "
            "so seed must be an int or None, not a Generator"
        )
    if seed is None:
        # Nondeterministic run: let each worker draw fresh entropy.
        return [None] * n_shards
    children = np.random.SeedSequence(int(seed)).spawn(n_shards)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


def _metric_blob(metric: Any) -> bytes:
    """The metric as a pickle blob — the worker-shipping round trip, with a
    pre-flight error that names the actual requirement. Every shard attempt
    is seeded from this one blob, so retries start from the identical
    metric state the first attempt had."""
    try:
        return pickle.dumps(metric, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ParameterError(
            "a sharded build ships a copy of the metric to every worker, "
            f"but this metric does not pickle: {exc!r}"
        ) from exc


def _shard_budgets(metric: Any, n_shards: int) -> int | None:
    """Each shard's slice of a guarded metric's NCD budget.

    The remaining budget is split into ``n_shards + 1`` equal shares — one
    per shard plus one held back for the parent's merge and any later
    phases. Workers enforce their share locally; the parent re-checks the
    global budget when it absorbs the worker counts, so the cap stays
    authoritative end to end.
    """
    if getattr(metric, "max_calls", None) is None:
        return None
    remaining = metric.remaining_calls
    share = int(remaining) // (n_shards + 1)
    if share < 1:
        raise MetricBudgetExceededError(
            f"distance-call budget too small to shard: {remaining} calls "
            f"remain, which cannot cover {n_shards} shards plus a merge"
        )
    return share


def _prepare_checkpoint_dir(
    model: Any, checkpoint_path: Any, n_shards: int, checkpoint_every: int
) -> str | None:
    """Create the sharded checkpoint directory and write its manifest."""
    if checkpoint_path is None:
        return None
    directory = os.fspath(checkpoint_path)
    if os.path.exists(directory) and not os.path.isdir(directory):
        raise ParameterError(
            f"a sharded build checkpoints into a directory, but "
            f"{directory!r} is an existing file; pass a directory path"
        )
    save_shard_manifest(
        directory,
        {
            "n_shards": n_shards,
            "algorithm": type(model).__name__,
            "seed": None if model._seed is None else int(model._seed),
            "checkpoint_every": int(checkpoint_every),
            "config": asdict(model.config),
        },
    )
    return directory


def _validate_resume_dir(model: Any, resume_from: Any, n_shards: int) -> str | None:
    """Check a sharded resume directory matches this build's partition."""
    if resume_from is None:
        return None
    directory = os.fspath(resume_from)
    manifest = load_shard_manifest(directory)
    saved_shards = int(manifest.get("n_shards", -1))
    if saved_shards != n_shards:
        raise CheckpointError(
            f"sharded checkpoint {directory!r} was written with "
            f"n_shards={saved_shards}, cannot resume with n_shards={n_shards} "
            "(the round-robin partition would redistribute every object)"
        )
    algorithm = manifest.get("algorithm")
    if algorithm is not None and algorithm != type(model).__name__:
        raise CheckpointError(
            f"sharded checkpoint was written by {algorithm}, "
            f"cannot resume with {type(model).__name__}"
        )
    saved_seed = manifest.get("seed")
    current_seed = None if model._seed is None else int(model._seed)
    if saved_seed != current_seed:
        raise CheckpointError(
            f"sharded checkpoint was written with seed={saved_seed!r}, "
            f"cannot resume with seed={current_seed!r} (per-shard seeds "
            "would diverge and break resume equivalence)"
        )
    model.config.check_resume(
        manifest.get("config"), f"sharded checkpoint {directory!r}"
    )
    return directory


def parallel_fit(
    model: Any,
    objects: Iterable[Any],
    *,
    on_error: str = "raise",
    max_quarantine: int | None = None,
    checkpoint_path: Any = None,
    checkpoint_every: int = 1000,
    resume_from: Any = None,
    chaos: ChaosPolicy | None = None,
) -> Any:
    """Shard, scan (crash-safely), and deterministically merge.

    Called by ``PreClusterer.fit`` whenever ``n_jobs > 1`` or ``n_shards``
    is set; not meant to be invoked directly (the driver's ``fit`` is the
    public API). ``chaos`` injects a seeded fault schedule for drills and
    tests. Returns ``model``.
    """
    if on_error not in ("raise", "quarantine"):
        raise ParameterError(
            f'on_error must be "raise" or "quarantine", got {on_error!r}'
        )
    start = time.perf_counter()
    items = list(objects)
    if not items:
        raise EmptyDatasetError("fit requires at least one object")
    n_shards = resolve_n_shards(model)
    shards = shard_objects(items, n_shards)
    seeds = _shard_seeds(model._seed, n_shards)
    blob = _metric_blob(model.metric)
    shard_budget = _shard_budgets(model.metric, n_shards)
    shard_config = replace(model.config, n_jobs=1, n_shards=None)

    checkpoint_dir = _prepare_checkpoint_dir(
        model, checkpoint_path, n_shards, checkpoint_every
    )
    resume_dir = _validate_resume_dir(model, resume_from, n_shards)
    if chaos is not None:
        # Arm the kill schedule with this (parent) PID so a scheduled kill
        # can only ever take down a worker, never the supervisor itself.
        chaos.arm(os.getpid())

    tasks = [
        ShardTask(
            shard_id=shard_id,
            n_shards=n_shards,
            objects=shard,
            driver=type(model),
            config=shard_config,
            metric=pickle.loads(blob),
            seed=seeds[shard_id],
            on_error=on_error,
            max_quarantine=max_quarantine,
            max_calls=shard_budget,
            checkpoint_path=(
                shard_checkpoint_file(checkpoint_dir, shard_id)
                if checkpoint_dir is not None
                else None
            ),
            checkpoint_every=checkpoint_every,
            resume_from=(
                shard_checkpoint_file(resume_dir, shard_id)
                if resume_dir is not None
                else None
            ),
            chaos=chaos,
        )
        for shard_id, shard in enumerate(shards)
    ]

    metric = model.metric

    def prepare_attempt(task: ShardTask, attempt: int) -> ShardTask:
        if attempt > 0:
            # Fresh metric copy per attempt: a retry must replay the shard
            # from the exact starting state, not from whatever the failed
            # attempt left behind (determinism + budget-window reset).
            task.metric = pickle.loads(blob)
            if task.checkpoint_path is not None:
                # Resume from the shard's own latest checkpoint; run_shard
                # treats a missing file as "rescan from zero".
                task.resume_from = task.checkpoint_path
        return task

    def absorb(result: ShardResult) -> None:
        # Re-book the successful attempt's calls on the parent metric,
        # preserving the workers' site labels so the ledger's per-site
        # totals keep partitioning n_calls exactly. Booking re-checks the
        # global budget: a breach aborts the pool mid-build.
        label = "shard-resume" if result.resumed_at is not None else "shard-ingest"
        with site(label):
            rebook_worker_calls(metric, result.by_site, result.n_calls)

    def on_retry(task: ShardTask, failure: ShardFailure, delay: float) -> None:
        with site("shard-retry"):
            if chaos is not None:
                chaos.before_retry(
                    task.shard_id, failure.attempt + 1, task.checkpoint_path
                )

    config = model.config
    supervisor = ShardSupervisor(
        tasks,
        n_jobs=config.n_jobs,
        max_retries=config.max_shard_retries,
        backoff=config.shard_retry_backoff,
        shard_timeout=config.shard_timeout_seconds,
        deadline_seconds=getattr(metric, "remaining_seconds", None),
        prepare_attempt=prepare_attempt,
        on_result=absorb,
        on_retry=on_retry,
    )

    results = supervisor.run()

    failures_by_shard = Counter(f.shard_id for f in supervisor.failures)
    model.shard_summaries_ = [
        {
            "shard_id": result.shard_id,
            "n_objects": result.n_objects,
            "n_subclusters": result.n_subclusters,
            "n_calls": result.n_calls,
            "elapsed_seconds": result.elapsed_seconds,
            "peak_rss_kb": result.peak_rss_kb,
            "n_attempts": failures_by_shard.get(result.shard_id, 0) + 1,
            "resumed_at": result.resumed_at,
            "checkpoint_discarded": result.checkpoint_discarded,
        }
        for result in results
    ]

    model.quarantine_ = _merge_quarantines(results, n_shards, max_quarantine)
    model._cursor = len(items)
    if max_quarantine is not None and len(model.quarantine_) > max_quarantine:
        # Each shard stayed under the cap on its own, but the build as
        # a whole crossed the circuit-breaker threshold: abort, exactly
        # as a sequential scan would have at the same global count.
        model.tree_ = None
        model.ingest_report_ = _merge_reports(
            model, results, start, supervisor.report
        )
        raise QuarantineOverflowError(
            f"merged quarantine holds {len(model.quarantine_)} objects, "
            f"over the global cap of {max_quarantine}; the metric or the "
            "data feed looks systematically broken"
        )

    # Deterministic merge: shard order, then leaf order, fixed seed.
    features: list[Any] = []
    start_threshold = float(config.threshold)
    for result in results:
        payload = _MetricRestoringUnpickler(
            io.BytesIO(result.payload), metric
        ).load()
        features.extend(payload["features"])
        start_threshold = max(start_threshold, float(payload["threshold"]))

    if not features:
        model.tree_ = None
        model.ingest_report_ = _merge_reports(
            model, results, start, supervisor.report
        )
        n_parked = len(model.quarantine_)
        if n_parked:
            raise EmptyDatasetError(
                f"every one of the {n_parked} scanned objects was "
                "quarantined; nothing to cluster"
            )
        raise EmptyDatasetError("fit requires at least one object")

    tree = model._new_tree()
    # Start the merge at the most mature shard threshold: every shard
    # cluster already satisfies its own shard's T, so a tighter start
    # would only shatter them and rebuild straight back here.
    tree.threshold = max(start_threshold, tree.threshold)
    model.tree_ = tree
    with site("merge"):
        tree.insert_feature_batch(features)
        if config.outlier_fraction is not None:
            tree.reabsorb_outliers()

    stats = getattr(tree.policy, "pruning_stats", None)
    if stats is not None:
        for result in results:
            stats.absorb(result.pruning)

    model.ingest_report_ = _merge_reports(model, results, start, supervisor.report)
    return model


def _merge_quarantines(
    results: list[ShardResult], n_shards: int, max_quarantine: int | None
) -> Quarantine:
    """One quarantine buffer with *global* scan indices, in scan order.

    Capacity was enforced per shard during the scans, so the merged buffer
    may hold more records than ``max_quarantine``; :func:`parallel_fit`
    enforces the cap globally right after this merge (the buffer itself
    keeps the limit as metadata so later ``partial_fit`` calls respect it).
    """
    records = []
    for result in results:
        for local, obj, error_type, error in result.quarantine.get("records", []):
            records.append(
                (global_index(result.shard_id, int(local), n_shards), obj, error_type, error)
            )
    records.sort(key=lambda record: record[0])
    merged = Quarantine.from_state({"max_size": None, "records": records})
    merged.max_size = max_quarantine
    return merged


def _merge_reports(
    model: Any,
    results: list[ShardResult],
    start: float,
    recovery: IngestReport,
) -> IngestReport:
    """Fold the shard reports and the supervisor's ``recovery`` report
    into the model's build-wide report."""
    report = IngestReport.merged(
        [IngestReport.from_dict(result.report) for result in results] + [recovery]
    )
    report.elapsed_seconds = time.perf_counter() - start
    # A shard that resumed from its checkpoint re-booked only the calls it
    # made since; its report also counts the calls it made before.
    model._resumed_calls = report.n_distance_calls - sum(r.n_calls for r in results)
    report.n_distance_calls = model.metric.n_calls + model._resumed_calls
    if model.tree_ is not None:
        report.n_rebuilds += model.tree_.n_rebuilds
    # Shard-side guarded-metric counters are already in the merged sums;
    # the parent metric only saw the merge phase, so its counters add on.
    metric = model.metric
    report.n_retries += getattr(metric, "n_retries", 0)
    report.n_substitutions += getattr(metric, "n_substitutions", 0)
    report.n_metric_faults += getattr(metric, "n_faults", 0)
    return report
