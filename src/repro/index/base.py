"""The unified metric-index protocol: one query surface over every engine.

The repository has two triangle-inequality engines for exact queries: the
VP-tree (:mod:`repro.index.vptree`) over any object set, and the AESA-style
geometry caches routing a fitted CF*-tree (:mod:`repro.core.routing`, served
by :mod:`repro.index.cftree`). This module puts them, and the brute-force
control, behind one :class:`MetricIndex` protocol:

* ``build(objects)`` indexes a sequence of objects (position = index);
* ``nearest(obj, k)`` and ``within(obj, r)`` answer exact queries with a
  typed :class:`QueryResult` carrying the per-query NCD and pruning stats;
* a process of repeated queries shares a bounded :class:`QueryBoundCache`
  (Anchors-Hierarchy-style cached sufficient statistics: every exactly
  measured ``d(query, indexed[i])`` persists across queries, so a repeated
  or similar query starts from already-paid distances instead of zero).

Exactness contract
------------------
Every backend returns results **bit-identical to brute force**: neighbours
ordered by ``(distance, index)``, distances produced by the same counted
``one_to_many`` gathers a linear scan would issue, pruning only when a
lower bound *strictly* exceeds the current worst kept distance (ties are
always visited, so equal-distance neighbours resolve to the lowest index
on every backend). A per-query memo guarantees no indexed object is ever
measured twice, hence no query can cost more counted calls than the brute
scan it replaces.

Accounting
----------
Query traffic is charged to dedicated :class:`~repro.metrics.base.CallLedger`
sites — ``query-knn``, ``query-range``, and ``query-build`` for distances
paid while constructing an index — so the conservation law
``sum(by_site) == n_calls`` keeps holding with query serving in the mix.
Bound-cache hits cost nothing and are tracked separately
(:attr:`QueryResult.cache_hits`, :meth:`QueryBoundCache.as_dict`).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Callable, Iterator, Sequence
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import EmptyDatasetError, ParameterError
from repro.metrics.base import DistanceFunction, pop_site, push_site
from repro.metrics.cache import _default_key
from repro.utils.validation import check_integer

__all__ = [
    "QUERY_KNN_SITE",
    "QUERY_RANGE_SITE",
    "QUERY_BUILD_SITE",
    "Neighbor",
    "QueryResult",
    "QueryBoundCache",
    "QuerySession",
    "NeighborHeap",
    "IndexQueryStats",
    "MetricIndex",
]

#: Ledger site charged by :meth:`MetricIndex.nearest`.
QUERY_KNN_SITE = "query-knn"
#: Ledger site charged by :meth:`MetricIndex.within`.
QUERY_RANGE_SITE = "query-range"
#: Ledger site charged by index construction (``build``/``from_tree``).
QUERY_BUILD_SITE = "query-build"


@dataclass(frozen=True)
class Neighbor:
    """One query answer: the indexed position, the object, its distance."""

    #: Position of the object in the indexed sequence (== brute-force index).
    index: int
    #: The indexed object itself.
    obj: Any
    #: Exact distance from the query to :attr:`obj`.
    distance: float


@dataclass(frozen=True)
class QueryResult:
    """Typed result of one ``nearest``/``within`` query.

    Neighbours are ordered by ``(distance, index)`` — the brute-force
    order — on every backend. The counters describe what this single
    query cost: ``n_calls`` is the true NCD delta on the metric,
    ``n_evaluated``/``n_pruned`` partition the candidate set, and
    ``cache_hits`` counts distances served free by the cross-query
    :class:`QueryBoundCache`.
    """

    #: ``"knn"`` or ``"range"``.
    kind: str
    #: The answers, ordered by ``(distance, index)``.
    neighbors: tuple[Neighbor, ...]
    #: Counted distance calls this query paid (the per-query NCD).
    n_calls: int
    #: Indexed objects the query could have measured (== len(index)).
    n_candidates: int
    #: Distinct indexed objects whose exact distance became known.
    n_evaluated: int
    #: Candidates never measured (pruned or never reached).
    n_pruned: int
    #: Triangle-inequality lower-bound evaluations performed.
    bound_checks: int
    #: Distances served by the cross-query bound cache at zero NCD.
    cache_hits: int

    @property
    def distances(self) -> list[float]:
        return [n.distance for n in self.neighbors]

    @property
    def indices(self) -> list[int]:
        return [n.index for n in self.neighbors]

    @property
    def objects(self) -> list[Any]:
        return [n.obj for n in self.neighbors]

    def __iter__(self) -> Iterator[Neighbor]:
        return iter(self.neighbors)

    def __len__(self) -> int:
        return len(self.neighbors)

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible record (neighbours as ``(index, distance)``)."""
        return {
            "kind": self.kind,
            "neighbors": [(n.index, n.distance) for n in self.neighbors],
            "n_calls": self.n_calls,
            "n_candidates": self.n_candidates,
            "n_evaluated": self.n_evaluated,
            "n_pruned": self.n_pruned,
            "bound_checks": self.bound_checks,
            "cache_hits": self.cache_hits,
        }


class QueryBoundCache:
    """Bounded LRU of exact query→indexed-object distances across queries.

    Keys are ``(query_key, index)`` pairs; values are the *exact* measured
    distances, so serving a hit changes nothing about a query's result —
    only its cost. A query object whose key is unhashable (e.g. a tuple
    holding an ndarray) simply bypasses the cache.
    """

    def __init__(
        self,
        maxsize: int | None = 200_000,
        key: Callable[[Any], Any] | None = None,
    ):
        if maxsize is not None and maxsize <= 0:
            raise ParameterError(f"maxsize must be positive or None, got {maxsize}")
        self.maxsize = maxsize
        self._key = key if key is not None else _default_key
        self._store: OrderedDict[tuple[Any, int], float] = OrderedDict()
        self.n_hits = 0
        self.n_misses = 0
        self.n_evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def key_for(self, obj: Any) -> Any:
        """Hashable cache key for a query object, or ``None`` if unkeyable."""
        k = self._key(obj)
        try:
            hash(k)
        except TypeError:
            return None
        return k

    def get(self, query_key: Any, index: int) -> float | None:
        """The cached exact distance, or ``None`` (counted as hit/miss)."""
        value = self._store.get((query_key, index))
        if value is None:
            self.n_misses += 1
            return None
        self._store.move_to_end((query_key, index))
        self.n_hits += 1
        return value

    def put(self, query_key: Any, index: int, value: float) -> None:
        self._store[(query_key, index)] = value
        if self.maxsize is not None and len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.n_evictions += 1

    @property
    def hit_rate(self) -> float:
        total = self.n_hits + self.n_misses
        return self.n_hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.n_hits,
            "misses": self.n_misses,
            "evictions": self.n_evictions,
            "size": len(self._store),
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }


class QuerySession:
    """Per-query measurement state shared by every backend.

    Memoizes every exact distance by indexed position (so no object is
    measured twice within a query — the structural guarantee that query
    NCD never exceeds the brute scan) and consults the cross-query
    :class:`QueryBoundCache` before paying a counted call.
    """

    __slots__ = (
        "metric",
        "query",
        "objects",
        "memo",
        "bound_cache",
        "qkey",
        "cache_hits",
        "bound_checks",
    )

    def __init__(
        self,
        metric: DistanceFunction,
        query: Any,
        objects: Sequence[Any],
        bound_cache: QueryBoundCache | None,
    ):
        self.metric = metric
        self.query = query
        self.objects = objects
        self.memo: dict[int, float] = {}
        self.bound_cache = bound_cache
        self.qkey = bound_cache.key_for(query) if bound_cache is not None else None
        self.cache_hits = 0
        self.bound_checks = 0

    def known(self, index: int) -> float | None:
        """The already-measured distance to ``objects[index]``, if any."""
        return self.memo.get(index)

    def measure(self, index: int) -> float:
        """Exact ``d(query, objects[index])``; memo and bound-cache aware."""
        value = self.memo.get(index)
        if value is not None:
            return value
        if self.qkey is not None and self.bound_cache is not None:
            cached = self.bound_cache.get(self.qkey, index)
            if cached is not None:
                self.memo[index] = cached
                self.cache_hits += 1
                return cached
        value = float(self.metric.one_to_many(self.query, [self.objects[index]])[0])
        self.memo[index] = value
        if self.qkey is not None and self.bound_cache is not None:
            self.bound_cache.put(self.qkey, index, value)
        return value

    def measure_many(self, indices: Sequence[int]) -> np.ndarray:
        """Batched exact distances; unique misses pay one counted gather."""
        out = np.empty(len(indices), dtype=np.float64)
        missing: list[int] = []
        positions: list[int] = []
        for pos, index in enumerate(indices):
            value = self.memo.get(index)
            if value is not None:
                out[pos] = value
                continue
            if self.qkey is not None and self.bound_cache is not None:
                cached = self.bound_cache.get(self.qkey, index)
                if cached is not None:
                    self.memo[index] = cached
                    self.cache_hits += 1
                    out[pos] = cached
                    continue
            missing.append(index)
            positions.append(pos)
        if missing:
            values = self.metric.one_to_many(
                self.query, [self.objects[i] for i in missing]
            )
            for pos, index, value in zip(positions, missing, values):
                v = float(value)
                out[pos] = v
                self.memo[index] = v
                if self.qkey is not None and self.bound_cache is not None:
                    self.bound_cache.put(self.qkey, index, v)
        return out


class NeighborHeap:
    """Keep the ``k`` best ``(distance, index)`` pairs deterministically.

    The kept set — and therefore the pruning radius ``tau`` — is exactly
    what a brute-force sort by ``(distance, index)`` would keep, so ties
    at the boundary resolve to the lowest index on every backend.
    """

    __slots__ = ("k", "_heap", "_offered")

    def __init__(self, k: int):
        self.k = k
        # Max-heap via negation: heap[0] is the worst kept (d, index).
        self._heap: list[tuple[float, int]] = []
        self._offered: set[int] = set()

    def offer(self, index: int, value: float) -> None:
        """Consider one exact ``(distance, index)`` candidate (idempotent)."""
        if index in self._offered:
            return
        self._offered.add(index)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-value, -index))
            return
        worst_value, worst_index = -self._heap[0][0], -self._heap[0][1]
        if (value, index) < (worst_value, worst_index):
            heapq.heapreplace(self._heap, (-value, -index))

    @property
    def tau(self) -> float:
        """Current pruning radius: the worst kept distance (inf until full)."""
        return -self._heap[0][0] if len(self._heap) == self.k else float(np.inf)

    def items(self) -> list[tuple[float, int]]:
        """The kept pairs, ordered by ``(distance, index)``."""
        return sorted((-nv, -ni) for nv, ni in self._heap)


@dataclass
class IndexQueryStats:
    """Cumulative query counters of one :class:`MetricIndex` instance."""

    #: Queries answered (kNN + range).
    n_queries: int = 0
    #: kNN queries answered.
    n_knn: int = 0
    #: Range queries answered.
    n_range: int = 0
    #: Counted distance calls across all queries.
    query_calls: int = 0
    #: Counted distance calls paid building the index.
    build_calls: int = 0
    #: Candidates across all queries (``n_queries * len(index)``).
    candidates_total: int = 0
    #: Candidates measured exactly.
    candidates_evaluated: int = 0
    #: Candidates never measured.
    candidates_pruned: int = 0
    #: Lower-bound evaluations across all queries.
    bound_checks: int = 0
    #: Cross-query bound-cache hits across all queries.
    cache_hits: int = 0
    #: Per-query NCD of the most recent query.
    last_query_calls: int = 0
    #: Extra per-backend counters (e.g. geometry maintenance).
    extras: dict[str, int] = field(default_factory=dict)

    def record(self, result: QueryResult) -> None:
        self.n_queries += 1
        if result.kind == "knn":
            self.n_knn += 1
        else:
            self.n_range += 1
        self.query_calls += result.n_calls
        self.candidates_total += result.n_candidates
        self.candidates_evaluated += result.n_evaluated
        self.candidates_pruned += result.n_pruned
        self.bound_checks += result.bound_checks
        self.cache_hits += result.cache_hits
        self.last_query_calls = result.n_calls

    @property
    def mean_query_calls(self) -> float:
        return self.query_calls / self.n_queries if self.n_queries else 0.0

    def as_dict(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["mean_query_calls"] = round(self.mean_query_calls, 3)
        return doc


class MetricIndex(ABC):
    """Protocol base: an exact similarity index over an arbitrary metric.

    Subclasses implement :meth:`build`, :meth:`_knn`, :meth:`_range`,
    :meth:`_check_ready`, ``__len__``, and the :attr:`objects` sequence;
    this base provides the public :meth:`nearest`/:meth:`within` wrappers
    that open the query ledger sites, run a :class:`QuerySession`, order
    the answers by ``(distance, index)``, and fold per-query counters
    into :attr:`stats`.
    """

    #: Registry name of the backend (``"brute"``, ``"vptree"``, ...).
    backend: str = "?"

    def __init__(
        self,
        metric: DistanceFunction,
        bound_cache: QueryBoundCache | None = None,
    ):
        if not isinstance(metric, DistanceFunction):
            raise ParameterError("metric must be a DistanceFunction")
        self.metric = metric
        #: Cross-query distance cache; pass an explicit instance to share
        #: one cache between several indexes over the same objects.
        self.bound_cache = bound_cache if bound_cache is not None else QueryBoundCache()
        #: Cumulative query statistics.
        self.stats = IndexQueryStats()

    # ------------------------------------------------------------------
    # Protocol surface
    # ------------------------------------------------------------------
    @abstractmethod
    def build(self, objects: Sequence[Any]) -> "MetricIndex":
        """Index ``objects`` (position in the sequence == neighbour index)."""

    @property
    @abstractmethod
    def objects(self) -> Sequence[Any]:
        """The indexed objects, in index order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of indexed objects."""

    @abstractmethod
    def _check_ready(self) -> None:
        """Raise the backend's not-fitted/empty error if queries can't run."""

    @abstractmethod
    def _knn(self, session: QuerySession, obj: Any, k: int) -> list[tuple[float, int]]:
        """Exact k-NN candidates as ``(distance, index)`` (order free)."""

    @abstractmethod
    def _range(
        self, session: QuerySession, obj: Any, radius: float
    ) -> list[tuple[float, int]]:
        """Exact within-radius candidates as ``(distance, index)``."""

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def nearest(self, obj: Any, k: int = 1) -> QueryResult:
        """The ``k`` nearest indexed objects, ordered by ``(distance, index)``."""
        k = check_integer(k, "k", minimum=1)
        self._check_ready()
        session = QuerySession(self.metric, obj, self.objects, self.bound_cache)
        start_calls = self.metric.n_calls
        push_site(QUERY_KNN_SITE)
        try:
            pairs = self._knn(session, obj, min(k, len(self)))
        finally:
            pop_site()
        return self._finish("knn", session, pairs, start_calls)

    def within(self, obj: Any, radius: float) -> QueryResult:
        """All indexed objects within ``radius`` (inclusive), ordered."""
        if radius < 0:
            raise ParameterError(f"radius must be >= 0, got {radius}")
        self._check_ready()
        session = QuerySession(self.metric, obj, self.objects, self.bound_cache)
        start_calls = self.metric.n_calls
        push_site(QUERY_RANGE_SITE)
        try:
            pairs = self._range(session, obj, float(radius))
        finally:
            pop_site()
        return self._finish("range", session, pairs, start_calls)

    def _finish(
        self,
        kind: str,
        session: QuerySession,
        pairs: list[tuple[float, int]],
        start_calls: int,
    ) -> QueryResult:
        objects = self.objects
        neighbors = tuple(
            Neighbor(index=i, obj=objects[i], distance=value)
            for value, i in sorted(pairs)
        )
        n = len(self)
        result = QueryResult(
            kind=kind,
            neighbors=neighbors,
            n_calls=self.metric.n_calls - start_calls,
            n_candidates=n,
            n_evaluated=len(session.memo),
            n_pruned=n - len(session.memo),
            bound_checks=session.bound_checks,
            cache_hits=session.cache_hits,
        )
        self.stats.record(result)
        return result

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    def _count_build(self, start_calls: int) -> None:
        """Fold the NCD paid since ``start_calls`` into build accounting."""
        self.stats.build_calls += self.metric.n_calls - start_calls

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(backend={self.backend!r}, size={len(self)})"


def brute_force_reference(
    metric: DistanceFunction, objects: Sequence[Any], query: Any, k: int
) -> list[tuple[float, int]]:
    """Uncached exact k-NN reference: one full counted gather, then sort.

    Used by tests and benchmarks to pin backend results bit-identically.
    """
    if not objects:
        raise EmptyDatasetError("brute_force_reference over no objects")
    push_site(QUERY_KNN_SITE)
    try:
        row = metric.one_to_many(query, list(objects))
    finally:
        pop_site()
    order = sorted((float(value), i) for i, value in enumerate(row))
    return order[: min(k, len(order))]
