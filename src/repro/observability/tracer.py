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

The default tracer of every driver is the :data:`NULL_TRACER` singleton:
its activation is one shared no-op context manager, so with tracing off no
ledger is active, each site costs one ``None`` check, and no extra
distance call is made.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from contextlib import AbstractContextManager
from types import TracebackType
from typing import Any

from repro.exceptions import ParameterError
from repro.metrics.base import CallLedger, activate_ledger, deactivate_ledger

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]


class _NullContext:
    """A reusable, allocation-free no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The do-nothing tracer: the default of every driver.

    Its activation is a shared no-op context, so an untraced run activates
    no ledger.
    """

    __slots__ = ()

    #: False on the null tracer, True on :class:`Tracer`; lets callers skip
    #: work that only matters when a trace is actually recorded.
    enabled = False

    def activation(self) -> AbstractContextManager[Any]:
        """A no-op ledger-activation context."""
        return _NULL_CONTEXT

    def close(self) -> None:
        """Nothing to flush."""


#: Process-wide shared no-op tracer (stateless, safe to share).
NULL_TRACER = NullTracer()


class Tracer(CallLedger, NullTracer):
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
        model = BUBBLE(metric, max_nodes=50, seed=0, tracer=tracer)
        with tracer:                      # activates site attribution
            model.fit(objects)
        tracer.close()                    # flush sinks
        tracer.calls_by_site              # {'leaf-d0': ..., 'nonleaf-d2': ...}

    The drivers also activate the tracer around their own scans, so the
    explicit ``with tracer:`` is only needed when measuring user code
    outside ``fit``/``assign``.
    """

    __slots__ = (
        "sinks",
        "_clock",
        "_t0",
        "_seq",
        "_open",
        "_aggregates",
        "_activation_depth",
        "_previous_ledger",
        "_closed",
    )

    enabled = True

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
        self._activation_depth = 0
        self._previous_ledger: CallLedger | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Activation (ledger binding)
    # ------------------------------------------------------------------
    def activation(self) -> "Tracer":
        """This tracer, whose ``with`` block makes it the active ledger.

        Re-entrant: the drivers wrap their scans in it, and a user-level
        ``with tracer:`` around a whole pipeline nests harmlessly.
        """
        return self

    def __enter__(self) -> "Tracer":
        if self._activation_depth == 0:
            self._previous_ledger = activate_ledger(self)
        self._activation_depth += 1
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if self._activation_depth == 0:
            raise ParameterError("tracer deactivated more times than activated")
        self._activation_depth -= 1
        if self._activation_depth == 0:
            deactivate_ledger(self._previous_ledger)
            self._previous_ledger = None
        return False

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
    @property
    def calls_by_site(self) -> dict[str, int]:
        """Distance calls charged per site (a copy; sums to ``total_calls``)."""
        return dict(self.by_site)

    @property
    def total_calls(self) -> int:
        """Total distance calls charged while this tracer was active."""
        return self.total

    def span_aggregates(self) -> dict[str, dict[str, float]]:
        """Per-label totals of the closed sites: ``{label: {count, seconds, ncd}}``.

        Sites nest, so these are inclusive totals — unlike
        :attr:`calls_by_site`, they do not partition NCD.
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
