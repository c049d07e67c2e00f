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
  measured ``d(query, obj)`` persists across queries, so a repeated query
  starts from already-paid distances instead of zero). Distances are keyed
  by the indexed object, not its position, so they outlive the index that
  paid for them: a model that re-adopts its index after an insert keeps
  serving them, and the cf-tree backend copies the anchor pairs its last
  adoption measured.

Exactness contract
------------------
Every backend returns results **bit-identical to brute force**: neighbours
ordered by ``(distance, index)``, distances produced by the same counted
``one_to_many`` gathers a linear scan would issue, pruning only when a
lower bound *strictly* exceeds the current worst kept distance (ties are
always visited, so equal-distance neighbours resolve to the lowest index
on every backend). A per-query memo, by position and by object identity,
guarantees no indexed object is ever measured twice, even one held at
several positions, hence no query can cost more counted calls than the
brute scan it replaces. The bound cache is consulted only after the memo
misses, and holds exact values, so it can lower that cost but never change
an answer.

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
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import EmptyDatasetError, ParameterError
from repro.metrics.base import DistanceFunction, site
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
    """Exact distances paid for by queries, kept across queries and inserts.

    For each recent query the cache holds a *row*: a map from an indexed
    object's ``id`` to ``(object, distance)``. Keying by object rather than
    by index position keeps a row valid when a model re-adopts its index
    after an insert and the clustroids move to new positions. Each entry
    holds a reference to its object for as long as the entry lives, so the
    ``id`` cannot be reused by another object while it could be served.
    Values are *exact* measured distances, so a hit changes a query's cost,
    never its answer. A query whose key is unhashable (e.g. a tuple
    holding an ndarray) bypasses the cache.

    ``maxsize`` bounds the pairs held across all rows. Whole rows are
    evicted, least recently used first, while the pairs held exceed it;
    eviction runs only when a query starts, so a running query never
    loses its own row (the newest row is never evicted).

    The cache also keeps the wrappers of the last cf-tree adoption
    (:attr:`anchor_nodes`, see
    :meth:`~repro.index.cftree.CFTreeIndex.from_tree`), keyed by node
    identity with the node held, so a re-adoption keeps the wrapper of
    every node that has not changed and copies the anchor pairs
    (:attr:`anchor_rows`) whose objects are unchanged. They are replaced
    wholesale at each adoption, so they stay bounded by the current tree
    and do not count against ``maxsize``, and they are never pickled: an
    unpickled cache, like a fresh one, reuses nothing.

    Every counter is cumulative over the cache's life, which for the cache
    a model owns spans all of its :meth:`~repro.core.PreClusterer.index`
    calls.
    """

    def __init__(
        self,
        maxsize: int | None = 8192,
        key: Callable[[Any], Any] | None = None,
    ):
        if maxsize is not None and maxsize <= 0:
            raise ParameterError(f"maxsize must be positive or None, got {maxsize}")
        self.maxsize = maxsize
        self._key = key if key is not None else _default_key
        self._rows: OrderedDict[Any, dict[int, tuple[Any, float]]] = OrderedDict()
        #: ``node -> wrapper`` of every node of the last cf-tree adoption.
        self.anchor_nodes: dict[Any, Any] = {}
        self.n_hits = 0
        self.n_misses = 0
        #: Whole query rows evicted.
        self.n_evictions = 0
        #: Anchor pairs a cf-tree adoption copied instead of measuring.
        self.n_anchor_reused = 0

    def __len__(self) -> int:
        """Query→object pairs held."""
        return sum(map(len, self._rows.values()))

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["anchor_nodes"] = {}
        return state

    @property
    def anchor_rows(self) -> dict[int, tuple[Any, dict[int, tuple[Any, float]]]]:
        """``id(anchor) -> (anchor, {id(child anchor): (child anchor, d)})``:
        the anchor pairs of the last cf-tree adoption, merged from its
        non-leaf wrappers."""
        rows: dict[int, tuple[Any, dict[int, tuple[Any, float]]]] = {}
        for wrapper in self.anchor_nodes.values():
            if wrapper.pairs:
                anchor = wrapper.anchor_obj
                rows.setdefault(id(anchor), (anchor, {}))[1].update(wrapper.pairs)
        return rows

    def key_for(self, obj: Any) -> Any:
        """Hashable cache key for a query object, or ``None`` if unkeyable."""
        k = self._key(obj)
        try:
            hash(k)
        except TypeError:
            return None
        return k

    def row_for(self, query: Any) -> dict[int, tuple[Any, float]] | None:
        """Open (or refresh) the row of a starting query; ``None`` bypasses.

        The row is the live map the query's session reads and writes. This
        is the only place rows are evicted.
        """
        key = self.key_for(query)
        if key is None:
            return None
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = {}
        else:
            self._rows.move_to_end(key)
        if self.maxsize is not None:
            pairs = len(self)
            while pairs > self.maxsize and len(self._rows) > 1:
                pairs -= len(self._rows.popitem(last=False)[1])
                self.n_evictions += 1
        return row

    @property
    def hit_rate(self) -> float:
        total = self.n_hits + self.n_misses
        return self.n_hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.n_hits,
            "misses": self.n_misses,
            "evictions": self.n_evictions,
            "queries": len(self._rows),
            "pairs": len(self),
            "maxsize": self.maxsize,
            "anchor_pairs_reused": self.n_anchor_reused,
            "hit_rate": round(self.hit_rate, 4),
        }


class QuerySession:
    """Per-query measurement state shared by every backend.

    Memoizes every exact distance by indexed position (so no position is
    measured twice within a query — the structural guarantee that query
    NCD never exceeds the brute scan) and, after a memo miss, looks the
    position's object up in the query's row by identity before paying a
    counted call. The row is the query's :class:`QueryBoundCache` row, or a
    private one when there is no cache (or the query is unkeyable), so an
    object held at several positions is measured once per query either
    way; only lookups in a bound-cache row count as cache hits and misses.
    """

    __slots__ = (
        "metric",
        "query",
        "objects",
        "memo",
        "row",
        "shared",
        "cache_hits",
        "cache_misses",
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
        row = bound_cache.row_for(query) if bound_cache is not None else None
        #: Whether :attr:`row` is the query's live bound-cache row.
        self.shared = row is not None
        #: ``id(obj) -> (obj, d(query, obj))`` for every object measured.
        self.row: dict[int, tuple[Any, float]] = row if row is not None else {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.bound_checks = 0

    def measure(self, index: int, batch: Sequence[Any] | None = None) -> float:
        """Exact ``d(query, objects[index])``; memo and bound-cache aware.

        A miss measures ``batch``, a one-row batch holding
        ``objects[index]`` (such as a slice of a batch the metric
        prepared), or ``[objects[index]]`` when it is ``None``.
        """
        value = self.memo.get(index)
        if value is not None:
            return value
        obj = self.objects[index]
        row = self.row
        held = row.get(id(obj))
        if held is not None:
            value = self.memo[index] = held[1]
            if self.shared:
                self.cache_hits += 1
            return value
        if self.shared:
            self.cache_misses += 1
        value = self.memo[index] = float(
            self.metric.one_to_many(self.query, [obj] if batch is None else batch)[0]
        )
        row[id(obj)] = (obj, value)
        return value

    def measure_many(self, indices: Sequence[int]) -> np.ndarray:
        """Batched exact distances; the distinct missing objects pay one
        counted gather."""
        out = np.empty(len(indices), dtype=np.float64)
        objects, memo, row = self.objects, self.memo, self.row
        # ``id(obj) -> slot in gathered``: an object held at several
        # positions is gathered once; as in :meth:`measure`, its later
        # positions count as bound-cache hits.
        slots: dict[int, int] = {}
        gathered: list[Any] = []
        waiting: list[tuple[int, int, int]] = []
        hits = 0
        for pos, index in enumerate(indices):
            value = memo.get(index)
            if value is None:
                obj = objects[index]
                key = id(obj)
                held = row.get(key)
                if held is not None:
                    value = memo[index] = held[1]
                    hits += 1
                else:
                    slot = slots.get(key)
                    if slot is None:
                        slot = slots[key] = len(gathered)
                        gathered.append(obj)
                    waiting.append((pos, index, slot))
                    continue
            out[pos] = value
        if self.shared:
            self.cache_hits += hits + len(waiting) - len(gathered)
            self.cache_misses += len(gathered)
        if gathered:
            values = [float(v) for v in self.metric.one_to_many(self.query, gathered)]
            for obj, value in zip(gathered, values):
                row[id(obj)] = (obj, value)
            for pos, index, slot in waiting:
                out[pos] = memo[index] = values[slot]
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


class MetricIndex(ABC):
    """Protocol base: an exact similarity index over an arbitrary metric.

    Subclasses implement :meth:`build`, :meth:`_knn`, :meth:`_range`,
    :meth:`_check_ready`, ``__len__``, and the :attr:`objects` sequence;
    this base provides the public :meth:`nearest`/:meth:`within` wrappers
    that open the query ledger sites, run a :class:`QuerySession`, and
    order the answers by ``(distance, index)``. Each query's costs stay in
    the :class:`QueryResult` it returns;
    :meth:`~repro.observability.StatsSnapshot.apply_index` totals them.
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
        #: Counted distance calls paid building (or adopting) the index.
        self.build_calls = 0

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
        with site(QUERY_KNN_SITE):
            pairs = self._knn(session, obj, min(k, len(self)))
        return self._finish("knn", session, pairs, start_calls)

    def within(self, obj: Any, radius: float) -> QueryResult:
        """All indexed objects within ``radius`` (inclusive), ordered."""
        if radius < 0:
            raise ParameterError(f"radius must be >= 0, got {radius}")
        self._check_ready()
        session = QuerySession(self.metric, obj, self.objects, self.bound_cache)
        start_calls = self.metric.n_calls
        with site(QUERY_RANGE_SITE):
            pairs = self._range(session, obj, float(radius))
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
        self.bound_cache.n_hits += session.cache_hits
        self.bound_cache.n_misses += session.cache_misses
        return result

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    def _count_build(self, start_calls: int) -> None:
        """Fold the NCD paid since ``start_calls`` into build accounting."""
        self.build_calls += self.metric.n_calls - start_calls

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
    with site(QUERY_KNN_SITE):
        row = metric.one_to_many(query, list(objects))
    order = sorted((float(value), i) for i, value in enumerate(row))
    return order[: min(k, len(order))]
