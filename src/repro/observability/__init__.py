"""Observability: phase tracing, NCD site attribution, and run statistics.

The paper evaluates everything in NCD — the number of calls to the
distance function — so this package makes NCD *legible*: a
:class:`Tracer` is a :class:`~repro.metrics.base.CallLedger` (from
:mod:`repro.metrics.base`) that charges every counted distance call to the
innermost open site, times each site (wall time + NCD deltas), and can
write its site events as JSON lines; :func:`format_summary` renders the
end-of-run table; :class:`StatsSnapshot` packages tree shape, cache
behaviour, and the attribution histogram into one record.

Tracing is opt-in and owned by the caller: ``with tracer:`` activates
attribution around whatever it wraps. With no ledger active the disabled
path performs no extra distance calls (the overhead regression test pins
this).

See ``docs/observability.md`` for the site taxonomy and trace schema.
"""

from __future__ import annotations

from repro.observability.stats import StatsSnapshot
from repro.observability.tracer import Tracer, format_summary

#: Kept importable for older callers that pass ``tracer=NULL_TRACER`` to
#: :func:`repro.pipelines.cluster_dataset`; ``None`` means "no tracer".
NULL_TRACER = None

__all__ = [
    "Tracer",
    "format_summary",
    "StatsSnapshot",
]
