"""The build configuration of a pre-clustering driver, declared once.

BIRCH* is set up by a handful of knobs (Section 6.1): the branching factor
``B``, the sample size ``SS``, the representation number ``2p``, the node
budget ``M`` and the initial threshold ``T``; BUBBLE-FM adds the image
dimensionality ``k`` and FastMap's pivot passes ``c``. :class:`BuildConfig`
declares every knob exactly once — name, default, validation, and doc —
and every layer reads that one record: the drivers build
``config_type(**options)`` from the keywords they are given, a shard
worker runs ``replace(config, n_jobs=1, n_shards=None)``, checkpoints
record ``asdict(config)``, and :func:`~repro.pipelines.cluster_dataset` and
the CLI forward options instead of re-listing them.

The seed is a runtime argument of a driver, not part of its
configuration: it chooses *which* random stream, not what tree the knobs
describe. Observation is not a driver argument at all: the caller
activates a ledger (``with tracer:``) around whatever it measures.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Any

from repro.exceptions import CheckpointError, ParameterError
from repro.utils.validation import check_integer

__all__ = ["BuildConfig", "BUBBLEFMConfig"]

#: Fields that choose how a build executes, never what it computes, so a
#: resumed scan may change them freely. ``n_shards`` is checked in its
#: resolved form by the sharded resume (the partition itself).
_EXECUTION_FIELDS = frozenset(
    {
        "n_jobs",
        "n_shards",
        "max_shard_retries",
        "shard_timeout_seconds",
        "shard_retry_backoff",
    }
)


@dataclass(frozen=True)
class BuildConfig:
    """Every build knob of BUBBLE (and of the BIRCH* drivers generally)."""

    #: Max entries per tree node (``B``; paper experiments use 15).
    branching_factor: int = 15
    #: Sample objects per non-leaf node (``SS``; paper experiments use 75,
    #: i.e. ``5 * B``).
    sample_size: int = 75
    #: Representatives per leaf cluster (``2p``; paper experiments use 10).
    representation_number: int = 10
    #: Node budget ``M``; the tree rebuilds with a larger threshold when it
    #: exceeds this. ``None`` disables rebuilds.
    max_nodes: int | None = None
    #: Initial threshold ``T`` (default 0, as in BIRCH).
    threshold: float = 0.0
    #: Optional BIRCH-style outlier handling: during rebuilds, clusters
    #: smaller than this fraction of the average size are parked rather
    #: than re-inserted, then re-absorbed after the scan. ``None`` (the
    #: paper's setting) disables it.
    outlier_fraction: float | None = None
    #: ``"debug"`` audits every split/rebuild with the invariant sanitizer
    #: (:func:`repro.analysis.audit.audit_tree`); ``None`` skips runtime
    #: checking.
    validate: str | None = None
    #: Route through the exact triangle-inequality pruned engine
    #: (:mod:`repro.core.routing`). The clustering is bit-identical either
    #: way; pruning only reduces NCD.
    prune: bool = True
    #: Worker processes for a sharded build. 1 keeps the paper's
    #: sequential single scan. Any other value (or an explicit
    #: ``n_shards``) routes ``fit`` through :mod:`repro.parallel`: the
    #: stream is split into shards, each worker scans its shard with its
    #: own metric copy, and the shard trees' leaf CF*s are merged
    #: deterministically into the model's final tree. Requires a picklable
    #: metric.
    n_jobs: int = 1
    #: Logical shard count of the parallel build — the determinism-bearing
    #: knob: for a fixed ``(seed, n_shards)`` the merged tree is identical
    #: whatever ``n_jobs`` executes it. Defaults to ``n_jobs``.
    n_shards: int | None = None
    #: Recoverable shard failures (worker crash, timeout, budget abort,
    #: metric exception) are retried up to this many times with
    #: exponential backoff before the shard is re-run inline in the parent
    #: as a last resort. 0 disables retries (the inline fallback still
    #: runs).
    max_shard_retries: int = 2
    #: Per-shard wall-clock limit in a parallel build: a worker exceeding
    #: it is killed and its shard retried. ``None`` never times out.
    shard_timeout_seconds: float | None = None
    #: Base delay of the exponential backoff between shard retries
    #: (doubles per attempt).
    shard_retry_backoff: float = 0.25

    def __post_init__(self) -> None:
        set_field = object.__setattr__
        set_field(self, "prune", bool(self.prune))
        set_field(self, "n_jobs", check_integer(self.n_jobs, "n_jobs", minimum=1))
        if self.n_shards is not None:
            set_field(
                self, "n_shards", check_integer(self.n_shards, "n_shards", minimum=1)
            )
        set_field(
            self,
            "max_shard_retries",
            check_integer(self.max_shard_retries, "max_shard_retries", minimum=0),
        )
        if self.shard_timeout_seconds is not None and self.shard_timeout_seconds <= 0:
            raise ParameterError(
                f"shard_timeout_seconds must be > 0, got {self.shard_timeout_seconds}"
            )
        if self.shard_retry_backoff < 0:
            raise ParameterError(
                f"shard_retry_backoff must be >= 0, got {self.shard_retry_backoff}"
            )
        set_field(self, "shard_retry_backoff", float(self.shard_retry_backoff))

    def check_resume(self, recorded: Mapping[str, Any] | None, source: str) -> None:
        """Refuse to resume ``source`` unless it was written by a build with
        this configuration.

        ``recorded`` is the ``asdict`` of the writer's config. Execution-only
        fields (worker count and shard-retry tuning) may differ; any other
        difference would silently continue one tree under another's knobs,
        so it raises :class:`~repro.exceptions.CheckpointError` naming the
        field. ``None`` — a tree snapshot saved without driver metadata —
        is trusted as-is, like its missing algorithm name.
        """
        if recorded is None:
            return
        for f in fields(self):
            if f.name in _EXECUTION_FIELDS:
                continue
            current = getattr(self, f.name)
            saved = recorded.get(f.name, "<absent>")
            if saved != current:
                raise CheckpointError(
                    f"{source} was written with {f.name}={saved!r}, "
                    f"cannot resume with {f.name}={current!r}"
                )


@dataclass(frozen=True)
class BUBBLEFMConfig(BuildConfig):
    """BUBBLE's knobs plus the image space of BUBBLE-FM (Section 5.2)."""

    #: Image dimensionality ``k`` of the per-node image spaces. The paper
    #: sets one global value (Section 5.2.2); the experiments use the data
    #: dimensionality.
    image_dim: int = 2
    #: FastMap's choose-distant-objects passes (the parameter ``c``).
    fm_iterations: int = 1
