"""Structured accounting of one fault-tolerant ingestion run.

An :class:`IngestReport` is attached to the pre-clusterer as
``model.ingest_report_`` after every ``fit`` / ``partial_fit`` and printed
by the CLI. It answers the operational questions the paper's NCD metric
(Section 6.1) only begins to ask: how many objects made it in, how many were
quarantined, how much of the distance budget was spent, how often the metric
had to be retried, and where the last checkpoint left off.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

__all__ = ["IngestReport"]


@dataclass
class IngestReport:
    """Counters describing one ingestion scan (cumulative across batches)."""

    #: Objects consumed from the input stream (inserted + quarantined).
    n_seen: int = 0
    #: Objects successfully absorbed into the CF*-tree.
    n_inserted: int = 0
    #: Objects parked in the quarantine buffer.
    n_quarantined: int = 0
    #: Metric re-evaluations performed by a guarded metric's retry policy.
    n_retries: int = 0
    #: Distances substituted by a guarded metric instead of raised.
    n_substitutions: int = 0
    #: Total metric faults recorded (exceptions, invalid values, asymmetry).
    n_metric_faults: int = 0
    #: Distance calls (NCD) on the model's metric at the end of the scan,
    #: plus, after a resume, those the scan made before its checkpoint.
    n_distance_calls: int = 0
    #: CF*-tree rebuilds triggered during the scan.
    n_rebuilds: int = 0
    #: Checkpoints written during the scan.
    n_checkpoints: int = 0
    #: Scan cursor restored from a checkpoint (``None`` for a fresh scan).
    resumed_at: int | None = None
    #: Shard attempts retried after a recoverable failure (parallel builds).
    shards_retried: int = 0
    #: Worker processes that died or were killed for overrunning a timeout.
    workers_crashed: int = 0
    #: Shards that restored state from a per-shard checkpoint.
    shards_resumed: int = 0
    #: Total exponential-backoff delay scheduled between shard retries.
    backoff_seconds_total: float = 0.0
    #: Subsamples searched by a CLARA-style sampled global phase (0 when
    #: the global phase was exact or never ran).
    global_samples: int = 0
    #: Distance calls spent inside the sample searches (booked under the
    #: ``global-sample`` site).
    global_sample_ncd: int = 0
    #: Aggregate wall-clock seconds across the sample searches.
    global_sample_seconds: float = 0.0
    #: Wall-clock seconds spent scanning (cumulative).
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict | None) -> "IngestReport":
        if not payload:
            return cls()
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    @classmethod
    def merged(cls, reports: "list[IngestReport]") -> "IngestReport":
        """Fold per-shard scan reports into one build-wide report.

        Object and fault counters sum across shards. ``elapsed_seconds``
        sums too — for a parallel build that is aggregate *worker* scan
        time, which the caller (:mod:`repro.parallel`) overwrites with the
        build's wall-clock time. ``n_distance_calls`` is likewise summed
        here but re-synced by the caller once the merge and any later
        phases have spent their own calls on the parent metric.
        ``resumed_at`` stays ``None`` (it is a sequential-scan cursor);
        parallel resumes are counted in ``shards_resumed``, which, like
        the other recovery counters, the shard supervisor books into a
        report of its own that the caller merges in with the shards'.
        """
        out = cls()
        for f in fields(cls):
            if f.name != "resumed_at":
                total = sum((getattr(r, f.name) for r in reports), f.default)
                setattr(out, f.name, total)
        return out

    def format(self) -> str:
        """Multi-line human-readable summary (what the CLI prints)."""
        lines = [
            f"objects seen:        {self.n_seen}",
            f"objects inserted:    {self.n_inserted}",
            f"objects quarantined: {self.n_quarantined}",
        ]
        if self.n_retries or self.n_substitutions or self.n_metric_faults:
            lines.append(
                f"metric faults:       {self.n_metric_faults} "
                f"({self.n_retries} retries, {self.n_substitutions} substitutions)"
            )
        lines.append(f"distance calls:      {self.n_distance_calls}")
        if self.n_rebuilds:
            lines.append(f"tree rebuilds:       {self.n_rebuilds}")
        if self.n_checkpoints:
            lines.append(f"checkpoints written: {self.n_checkpoints}")
        if self.resumed_at is not None:
            lines.append(f"resumed at object:   {self.resumed_at}")
        if self.shards_retried or self.workers_crashed or self.shards_resumed:
            lines.append(
                f"shard recovery:      {self.shards_retried} retries, "
                f"{self.workers_crashed} worker crashes, "
                f"{self.shards_resumed} shards resumed "
                f"({self.backoff_seconds_total:.2f}s backoff)"
            )
        if self.global_samples:
            lines.append(
                f"global samples:      {self.global_samples} "
                f"({self.global_sample_ncd} calls, "
                f"{self.global_sample_seconds:.2f}s search)"
            )
        lines.append(f"scan time:           {self.elapsed_seconds:.2f}s")
        return "\n".join(lines)
