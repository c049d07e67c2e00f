"""Phase tracing: nestable spans with wall-time and per-span NCD deltas.

The paper's cost model is NCD — the number of calls to the (expensive)
distance function — so the first question about any run is *where the calls
went*: leaf ``D0`` threshold tests, non-leaf ``D2`` sample routing,
FastMap's ``2k`` incremental mapping, rebuilds. A :class:`Tracer` answers it
two ways at once:

* **spans** — nestable phases (``insert``, ``split``, ``rebuild``,
  ``sample-refresh``, ``fastmap-refit``, ``redistribute``, ...) recording
  wall time and the NCD delta between enter and exit. Spans nest, so their
  aggregates are *inclusive* (a rebuild triggered inside an insert is
  counted in both);
* **sites** — the disjoint attribution of every counted call to the
  innermost open span/site on the shared
  :class:`~repro.metrics.base.CallLedger` stack. Site totals partition NCD
  exactly: their sum equals the global counter of
  :class:`~repro.metrics.base.DistanceFunction`.

Entering a span pushes its name as a site, so un-instrumented calls inside
a phase are charged to the phase itself; instrumented call sites (the
policies push ``leaf-d0``, ``nonleaf-d2``, ``fastmap-map``, ...) win by
being innermost.

The default tracer everywhere is the :data:`NULL_TRACER` singleton whose
``span()`` returns one shared no-op context manager — the disabled hot
insert loop allocates nothing and performs no extra distance calls.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
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
    """The do-nothing tracer: the default on every tree, policy, and driver.

    All methods return shared singletons; tracing code paths stay on the
    hot loop unconditionally, and this class is what makes them free when
    tracing is off.
    """

    __slots__ = ()

    #: False on the null tracer, True on :class:`Tracer`; lets callers skip
    #: work that only matters when a trace is actually recorded.
    enabled = False

    def span(self, name: str) -> _NullContext:
        """A no-op span context."""
        return _NULL_CONTEXT

    def activation(self) -> _NullContext:
        """A no-op ledger-activation context."""
        return _NULL_CONTEXT

    def close(self) -> None:
        """Nothing to flush."""


#: Process-wide shared no-op tracer (stateless, safe to share).
NULL_TRACER = NullTracer()


class _Span:
    """One open span; a context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "seq", "depth", "t0", "ncd0")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.seq = -1
        self.depth = -1
        self.t0 = 0.0
        self.ncd0 = 0

    def __enter__(self) -> "_Span":
        self.tracer._enter_span(self)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.tracer._exit_span(self)
        return False


class _Activation:
    """Re-entrant activation context binding the tracer's ledger."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer

    def __enter__(self) -> "_Activation":
        self.tracer._activate()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.tracer._deactivate()
        return False


class Tracer(NullTracer):
    """Records phase spans and site-attributed NCD, feeding zero or more sinks.

    Parameters
    ----------
    sinks:
        :class:`~repro.observability.sinks.TraceSink` instances receiving
        one event dict per span enter/exit (and a final ``summary`` event
        on :meth:`close`). No sinks is fine — span aggregates and the site
        ledger are kept in memory regardless.
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
        "ledger",
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
        #: The site-attribution ledger this tracer activates.
        self.ledger = CallLedger()
        self.sinks = list(sinks)
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        self._open: list[_Span] = []
        self._aggregates: dict[str, dict[str, float]] = {}
        self._activation_depth = 0
        self._previous_ledger: CallLedger | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Activation (ledger binding)
    # ------------------------------------------------------------------
    def activation(self) -> _Activation:
        """Context manager binding this tracer's ledger for attribution.

        Re-entrant: the drivers wrap their scans in it, and a user-level
        ``with tracer:`` around a whole pipeline nests harmlessly.
        """
        return _Activation(self)

    def __enter__(self) -> "Tracer":
        self._activate()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self._deactivate()
        return False

    def _activate(self) -> None:
        if self._activation_depth == 0:
            self._previous_ledger = activate_ledger(self.ledger)
        self._activation_depth += 1

    def _deactivate(self) -> None:
        if self._activation_depth == 0:
            raise ParameterError("tracer deactivated more times than activated")
        self._activation_depth -= 1
        if self._activation_depth == 0:
            deactivate_ledger(self._previous_ledger)
            self._previous_ledger = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str) -> _Span:
        """Open a span named ``name`` (use as a context manager)."""
        return _Span(self, name)

    def _enter_span(self, span: _Span) -> None:
        span.seq = self._seq
        self._seq += 1
        span.depth = len(self._open)
        span.t0 = self._clock() - self._t0
        span.ncd0 = self.ledger.total
        self._open.append(span)
        self.ledger.stack.append(span.name)
        if self.sinks:
            self._emit(
                {
                    "ev": "enter",
                    "span": span.name,
                    "seq": span.seq,
                    "depth": span.depth,
                    "t": span.t0,
                    "ncd": span.ncd0,
                }
            )

    def _exit_span(self, span: _Span) -> None:
        if not self._open or self._open[-1] is not span:
            raise ParameterError(
                f"span {span.name!r} exited out of order; spans must nest"
            )
        stack = self.ledger.stack
        if not stack or stack[-1] != span.name:
            leaked = stack[-1] if stack else None
            raise ParameterError(
                f"span {span.name!r} exited while ledger site {leaked!r} is "
                "still open; sites must close inside the span that opened them"
            )
        self._open.pop()
        stack.pop()
        t1 = self._clock() - self._t0
        ncd1 = self.ledger.total
        agg = self._aggregates.get(span.name)
        if agg is None:
            agg = {"count": 0, "seconds": 0.0, "ncd": 0}
            self._aggregates[span.name] = agg
        agg["count"] += 1
        agg["seconds"] += t1 - span.t0
        agg["ncd"] += ncd1 - span.ncd0
        if self.sinks:
            self._emit(
                {
                    "ev": "exit",
                    "span": span.name,
                    "seq": span.seq,
                    "depth": span.depth,
                    "t": t1,
                    "ncd": ncd1,
                    "dt": t1 - span.t0,
                    "dncd": ncd1 - span.ncd0,
                }
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
        return dict(self.ledger.by_site)

    @property
    def total_calls(self) -> int:
        """Total distance calls charged while this tracer was active."""
        return self.ledger.total

    @property
    def open_spans(self) -> list[str]:
        """Names of currently open spans, outermost first."""
        return [span.name for span in self._open]

    def span_aggregates(self) -> dict[str, dict[str, float]]:
        """Per-span-name totals: ``{name: {count, seconds, ncd}}``.

        Spans nest, so these are inclusive totals — unlike
        :attr:`calls_by_site`, they do not partition NCD.
        """
        return {name: dict(agg) for name, agg in self._aggregates.items()}

    def summary(self) -> dict[str, Any]:
        """Everything measured so far, as one JSON-compatible dict."""
        return {
            "elapsed_seconds": self._clock() - self._t0,
            "ncd_total": self.ledger.total,
            "ncd_by_site": dict(self.ledger.by_site),
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
