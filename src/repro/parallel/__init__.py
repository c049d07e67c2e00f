"""Parallel sharded BIRCH* build.

Sharding multiplies scan throughput on the same NCD budget: the input
stream is split round-robin across worker processes, each runs the
existing fault-tolerant ``fit`` path on its shard with its own CF*-tree,
call ledger, and pruning geometry, and the shard trees' leaf CF*s are merged
deterministically into one final tree (summaries compose — the global
phase only ever needed one set of leaf clusters, not one tree).

Entry points: ``BUBBLE``/``BUBBLEFM``/``PreClusterer`` accept ``n_jobs=``
and ``n_shards=`` and route their ``fit`` through :func:`parallel_fit`;
``cluster_dataset`` and the CLI's ``--jobs`` thread the same knob through
to the scan. See ``docs/performance.md`` ("Parallel build") for
shard/merge semantics, determinism guarantees, and quality caveats.

Shards execute under the :class:`~repro.parallel.pool.ShardSupervisor`,
which survives worker crashes, hangs, and per-shard budget aborts via
retry-with-backoff, inline fallback, per-shard checkpoints, and pool-wide
deadline supervision — see ``docs/robustness.md`` ("Fault-tolerant
parallel builds").
"""

from __future__ import annotations

from repro.parallel.build import parallel_fit, resolve_n_shards
from repro.parallel.pool import ShardFailure, ShardSupervisor
from repro.parallel.shard import global_index, shard_objects
from repro.parallel.worker import ShardResult, ShardTask, run_shard

__all__ = [
    "parallel_fit",
    "resolve_n_shards",
    "shard_objects",
    "global_index",
    "ShardTask",
    "ShardResult",
    "ShardFailure",
    "ShardSupervisor",
    "run_shard",
]
