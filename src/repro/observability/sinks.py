"""Trace sinks: where :class:`~repro.observability.Tracer` events go.

Events are flat dicts, an enter/exit pair per ledger site the tracer
opens (see ``docs/observability.md`` for the schema):

* ``{"ev": "enter", "span": ..., "seq": ..., "depth": ..., "t": ..., "ncd": ...}``
* ``{"ev": "exit", ...same..., "dt": ..., "dncd": ...}``
* ``{"ev": "summary", "elapsed_seconds": ..., "ncd_total": ...,
  "ncd_by_site": {...}, "spans": {...}}`` — once, from ``Tracer.close()``.

Three sinks ship: :class:`JsonlSink` (one JSON object per line, the
machine-readable trace), :class:`SummarySink` (end-of-run table on a
stream), and :class:`ListSink` (in-memory, for tests).
"""

from __future__ import annotations

import json
from typing import IO, Any

__all__ = ["TraceSink", "JsonlSink", "SummarySink", "ListSink", "format_summary"]


class TraceSink:
    """Interface: receives every tracer event, then a ``close()``."""

    def emit(self, event: dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (default: nothing)."""


class ListSink(TraceSink):
    """Collects events in memory — the sink the test suite inspects."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: dict[str, Any]) -> None:
        self.events.append(dict(event))


class JsonlSink(TraceSink):
    """Writes one compact JSON object per event line.

    Parameters
    ----------
    target:
        A path (opened and owned by the sink) or an open text stream
        (flushed but not closed).
    """

    def __init__(self, target: str | IO[str]):
        if isinstance(target, str):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._file = target
            self._owns = False

    def emit(self, event: dict[str, Any]) -> None:
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")

    def close(self) -> None:
        self._file.flush()
        if self._owns:
            self._file.close()


def format_summary(summary: dict[str, Any]) -> str:
    """Render a ``Tracer.summary()`` dict as an aligned two-table report."""
    lines = [
        f"elapsed: {summary.get('elapsed_seconds', 0.0):.3f}s, "
        f"distance calls: {summary.get('ncd_total', 0)}"
    ]
    by_site = summary.get("ncd_by_site") or {}
    if by_site:
        total = max(sum(by_site.values()), 1)
        width = max(len(site) for site in by_site)
        lines.append("NCD by site (disjoint; sums to the total):")
        for site, calls in sorted(by_site.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {site:<{width}}  {calls:>12}  {100.0 * calls / total:5.1f}%")
    spans = summary.get("spans") or {}
    if spans:
        width = max(len(name) for name in spans)
        lines.append("time by site (inclusive; nested sites double-count):")
        for name, agg in sorted(spans.items(), key=lambda kv: -kv[1]["seconds"]):
            lines.append(
                f"  {name:<{width}}  x{int(agg['count']):<8} "
                f"{agg['seconds']:>9.3f}s  {int(agg['ncd']):>12} calls"
            )
    return "\n".join(lines)


class SummarySink(TraceSink):
    """Prints the final ``summary`` event as a table when the trace closes."""

    def __init__(self, stream: IO[str]):
        self._stream = stream
        self._summary: dict[str, Any] | None = None

    def emit(self, event: dict[str, Any]) -> None:
        if event.get("ev") == "summary":
            self._summary = dict(event)

    def close(self) -> None:
        if self._summary is not None:
            self._stream.write(format_summary(self._summary) + "\n")
