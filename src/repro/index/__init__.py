"""Unified metric-index layer (ROADMAP item 2).

One protocol — :class:`MetricIndex` — over every triangle-inequality
engine in the repository:

========  ==============================================================
backend   engine
========  ==============================================================
brute     linear scan (the control group every backend is pinned to)
vptree    :class:`VPTree` — the one general-purpose exact index, for
          object sets that have no fitted CF*-tree (static median
          partitioning)
cftree    :class:`CFTreeIndex` — the clustroid hierarchy of a fitted
          BUBBLE/BUBBLE-FM tree, reusing the build's cached pairwise
          geometry as query-time bounds
========  ==============================================================

All backends answer ``nearest(obj, k)`` / ``within(obj, r)`` with exact,
bit-identical results (ordered by ``(distance, index)``), report the
per-query NCD in a typed :class:`QueryResult`, charge query traffic to
dedicated :class:`~repro.metrics.base.CallLedger` sites, and share exact
distances across successive queries through a bounded
:class:`QueryBoundCache`. The cache keys distances by indexed object, so
a model's one cache (``PreClusterer.index()`` passes it to every index)
keeps serving repeated queries, and the cf-tree's anchor pairs, after an
insert forces a re-adoption.
"""

from typing import Any

from repro.exceptions import ParameterError
from repro.index.base import (
    QUERY_BUILD_SITE,
    QUERY_KNN_SITE,
    QUERY_RANGE_SITE,
    IndexQueryStats,
    MetricIndex,
    Neighbor,
    NeighborHeap,
    QueryBoundCache,
    QueryResult,
    QuerySession,
    brute_force_reference,
)
from repro.index.brute import BruteForceIndex
from repro.index.cftree import CFTreeIndex
from repro.index.vptree import VPTree
from repro.metrics.base import DistanceFunction

__all__ = [
    "QUERY_KNN_SITE",
    "QUERY_RANGE_SITE",
    "QUERY_BUILD_SITE",
    "Neighbor",
    "NeighborHeap",
    "QueryResult",
    "QueryBoundCache",
    "QuerySession",
    "IndexQueryStats",
    "MetricIndex",
    "BruteForceIndex",
    "CFTreeIndex",
    "VPTree",
    "available_backends",
    "make_index",
    "brute_force_reference",
]

_BACKENDS: dict[str, type[MetricIndex]] = {
    "brute": BruteForceIndex,
    "cftree": CFTreeIndex,
    "vptree": VPTree,
}


def available_backends() -> tuple[str, ...]:
    """Backend names accepted by :func:`make_index`, sorted."""
    return tuple(sorted(_BACKENDS))


def make_index(backend: str, metric: DistanceFunction, **kwargs: Any) -> MetricIndex:
    """Construct a backend by name (``build`` it yourself afterwards)."""
    cls = _BACKENDS.get(backend)
    if cls is None:
        raise ParameterError(
            f"unknown index backend {backend!r}; have {available_backends()}"
        )
    return cls(metric, **kwargs)
