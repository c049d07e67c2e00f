"""Phase tracing: every ledger site timed, with per-site NCD deltas.

The paper's cost model is NCD — the number of calls to the (expensive)
distance function — so the first question about any run is *where the calls
went*: leaf ``D0`` threshold tests, non-leaf ``D2`` sample routing,
FastMap's ``2k`` incremental mapping, rebuilds. Library code names every
phase the same way, ``with site(label):`` (:class:`~repro.metrics.base.site`),
on whatever :class:`~repro.metrics.base.CallLedger` is active. A
:class:`Tracer` is such a ledger, so it answers two questions about one
set of labels:

* **calls by site** — every counted call is booked once, against the
  innermost open site. Site totals partition NCD exactly: their sum equals
  the global counter of :class:`~repro.metrics.base.DistanceFunction`;
* **span aggregates** — each time a site closes, the tracer adds its wall
  time and its NCD delta to that label's ``{count, seconds, ncd}``. Sites
  nest, so these totals are *inclusive* (a rebuild triggered inside an
  insert is counted in both).

Given a ``jsonl=`` target, the tracer writes one JSON object per line:
an ``enter``/``exit`` event pair per site, then one ``summary`` event from
:meth:`Tracer.close` (see ``docs/observability.md`` for the schema):

* ``{"ev": "enter", "span": ..., "seq": ..., "depth": ..., "t": ..., "ncd": ...}``
* ``{"ev": "exit", ...same..., "dt": ..., "dncd": ...}``
* ``{"ev": "summary", "elapsed_seconds": ..., "ncd_total": ...,
  "ncd_by_site": {...}, "spans": {...}}``

:func:`format_summary` renders :meth:`Tracer.summary` as the end-of-run
table the CLI prints.

Tracing is opt-in and owned by the caller: ``with tracer:`` activates it
(a tracer is a ledger, so activation is re-entrant like any other's). Only
:func:`repro.pipelines.cluster_dataset` takes a tracer, and it wraps its
whole run in that one block. With no ledger active each site costs one
``None`` check and no extra distance call is made.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from typing import IO, Any

from repro.metrics.base import CallLedger

__all__ = ["Tracer", "format_summary"]


class Tracer(CallLedger):
    """A :class:`~repro.metrics.base.CallLedger` that also times its sites.

    Parameters
    ----------
    jsonl:
        Where the event stream goes, one JSON object per line: a path
        (opened and owned by the tracer) or an open text stream (flushed
        by :meth:`close`, never closed). ``None`` writes nothing — span
        aggregates and the site histogram are kept in memory regardless.
    clock:
        Monotonic time source (injectable for deterministic tests).

    Examples
    --------
    >>> import io, json
    >>> import numpy as np
    >>> from repro.core.preclusterer import BUBBLE
    >>> from repro.metrics import EuclideanDistance
    >>> data = list(np.random.default_rng(0).normal(size=(100, 2)))
    >>> metric = EuclideanDistance()
    >>> stream = io.StringIO()
    >>> tracer = Tracer(jsonl=stream)
    >>> with tracer:                      # activates site attribution
    ...     model = BUBBLE(metric, max_nodes=10, seed=0).fit(data)
    >>> tracer.close()                    # writes the summary event
    >>> sum(tracer.by_site.values()) == metric.n_calls
    True
    >>> events = [json.loads(line) for line in stream.getvalue().splitlines()]
    >>> events[0]["ev"], events[-1]["ev"]
    ('enter', 'summary')
    >>> events[-1]["ncd_total"] == metric.n_calls
    True
    """

    __slots__ = (
        "_jsonl",
        "_owns_jsonl",
        "_clock",
        "_t0",
        "_seq",
        "_open",
        "_aggregates",
        "_closed",
    )

    def __init__(
        self,
        jsonl: str | IO[str] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        super().__init__()
        self._owns_jsonl = isinstance(jsonl, str)
        if isinstance(jsonl, str):
            jsonl = open(jsonl, "w", encoding="utf-8")
        self._jsonl: IO[str] | None = jsonl
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        #: ``(seq, t, ncd)`` at entry of each open site, parallel to ``stack``.
        self._open: list[tuple[int, float, int]] = []
        self._aggregates: dict[str, dict[str, float]] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Sites
    # ------------------------------------------------------------------
    def enter(self, label: str) -> None:
        """Open site ``label`` and start timing it."""
        seq = self._seq
        self._seq += 1
        depth = len(self._open)
        t = self._clock() - self._t0
        self.stack.append(label)
        self._open.append((seq, t, self.total))
        if self._jsonl is not None:
            _write(
                self._jsonl,
                {"ev": "enter", "span": label, "seq": seq, "depth": depth,
                 "t": t, "ncd": self.total}
            )

    def exit(self) -> None:
        """Close the innermost site and add it to its label's totals."""
        label = self.stack.pop()
        seq, t0, ncd0 = self._open.pop()
        t1 = self._clock() - self._t0
        ncd1 = self.total
        agg = self._aggregates.get(label)
        if agg is None:
            agg = self._aggregates[label] = {"count": 0, "seconds": 0.0, "ncd": 0}
        agg["count"] += 1
        agg["seconds"] += t1 - t0
        agg["ncd"] += ncd1 - ncd0
        if self._jsonl is not None:
            _write(
                self._jsonl,
                {"ev": "exit", "span": label, "seq": seq, "depth": len(self._open),
                 "t": t1, "ncd": ncd1, "dt": t1 - t0, "dncd": ncd1 - ncd0}
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def span_aggregates(self) -> dict[str, dict[str, float]]:
        """Per-label totals of the closed sites: ``{label: {count, seconds, ncd}}``.

        Sites nest, so these are inclusive totals — unlike
        :attr:`by_site`, they do not partition NCD.
        """
        return {name: dict(agg) for name, agg in self._aggregates.items()}

    def summary(self) -> dict[str, Any]:
        """Everything measured so far, as one JSON-compatible dict."""
        return {
            "elapsed_seconds": self._clock() - self._t0,
            "ncd_total": self.total,
            "ncd_by_site": dict(self.by_site),
            "spans": self.span_aggregates(),
        }

    def close(self) -> None:
        """Write the final ``summary`` event and flush the JSONL target,
        closing it if the tracer opened it (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._jsonl is None:
            return
        event = {"ev": "summary"}
        event.update(self.summary())
        _write(self._jsonl, event)
        self._jsonl.flush()
        if self._owns_jsonl:
            self._jsonl.close()


def _write(stream: IO[str], event: dict[str, Any]) -> None:
    """One compact JSON object per line."""
    stream.write(json.dumps(event, separators=(",", ":")) + "\n")


def format_summary(summary: dict[str, Any]) -> str:
    """Render a :meth:`Tracer.summary` dict as an aligned two-table report."""
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
