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

Sinks receive one ``enter``/``exit`` event pair per site.

Tracing is opt-in and owned by the caller: ``with tracer:`` activates it
(a tracer is a ledger, so activation is re-entrant like any other's). Only
:func:`repro.pipelines.cluster_dataset` takes a tracer, and it wraps its
whole run in that one block. With no ledger active each site costs one
``None`` check and no extra distance call is made.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from typing import Any

from repro.metrics.base import CallLedger

__all__ = ["Tracer"]


class Tracer(CallLedger):
    """A :class:`~repro.metrics.base.CallLedger` that also times its sites.

    Parameters
    ----------
    sinks:
        :class:`~repro.observability.sinks.TraceSink` instances receiving
        one event dict per site enter/exit (and a final ``summary`` event
        on :meth:`close`). No sinks is fine — span aggregates and the site
        histogram are kept in memory regardless.
    clock:
        Monotonic time source (injectable for deterministic tests).

    Usage::

        tracer = Tracer(sinks=[JsonlSink("trace.jsonl")])
        model = BUBBLE(metric, max_nodes=50, seed=0)
        with tracer:                      # activates site attribution
            model.fit(objects)
        tracer.close()                    # flush sinks
        tracer.by_site                    # {'leaf-d0': ..., 'nonleaf-d2': ...}
    """

    __slots__ = (
        "sinks",
        "_clock",
        "_t0",
        "_seq",
        "_open",
        "_aggregates",
        "_closed",
    )

    def __init__(
        self,
        sinks: Iterable[Any] = (),
        clock: Callable[[], float] = time.perf_counter,
    ):
        super().__init__()
        self.sinks = list(sinks)
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
        if self.sinks:
            self._emit(
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
        if self.sinks:
            self._emit(
                {"ev": "exit", "span": label, "seq": seq, "depth": len(self._open),
                 "t": t1, "ncd": ncd1, "dt": t1 - t0, "dncd": ncd1 - ncd0}
            )

    def _emit(self, event: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(event)

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
        """Emit a final ``summary`` event and close all sinks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.sinks:
            event = {"ev": "summary"}
            event.update(self.summary())
            self._emit(event)
        for sink in self.sinks:
            sink.close()
