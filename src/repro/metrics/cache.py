"""Memoizing wrapper around a distance function.

Hierarchical post-clustering and the RED comparator repeatedly measure the
same object pairs; caching those pairs trades memory for NCD. The wrapper
delegates counting to the inner metric, so NCD reflects *actual* evaluations
— a cache hit costs nothing, exactly as it would in a real deployment.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.exceptions import ParameterError
from repro.metrics.base import DistanceFunction

__all__ = ["CachedDistance"]


def _default_key(obj: object) -> object:
    """Hashable cache key for the object types the library ships.

    Hashable objects (strings, tuples, numbers) pass through unchanged;
    numpy arrays — unhashable — are keyed by dtype, shape, and raw bytes.
    Module-level (not a lambda) so a :class:`CachedDistance` with the
    default key survives pickling, e.g. when shipped to a shard worker by
    :mod:`repro.parallel`.
    """
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    return obj


class CachedDistance(DistanceFunction):
    """LRU cache in front of another :class:`DistanceFunction`.

    Parameters
    ----------
    inner:
        The metric whose evaluations are cached.
    maxsize:
        Maximum number of cached pairs; the least recently used pair is
        evicted beyond this. ``None`` means unbounded.
    key:
        Function mapping an object to a hashable cache key. The default
        passes hashable objects through and keys numpy vectors by their
        dtype, shape, and bytes; pass a custom callable for other
        unhashable object types.

    Notes
    -----
    ``n_calls`` on the wrapper counts only cache *misses* (true evaluations,
    mirroring the inner metric); ``n_hits`` counts avoided evaluations, and
    ``n_evictions`` how many pairs LRU eviction dropped. Eviction never
    skews accounting: a re-measured evicted pair is a genuine miss (the
    evaluation really happens again), so hit + miss totals stay exact.

    The batched entry points (:meth:`one_to_many`, :meth:`pairwise`,
    :meth:`cross`) route every pair through the cache with scalar-loop
    accounting — per batch row, cached pairs are hits, repeated pairs
    within the row are hits after their first occurrence, and the remaining
    unique misses are gathered with **one** ``inner.one_to_many`` dispatch,
    so vectorized inner metrics keep their batch advantage while ``n_hits``
    and ``n_calls`` land exactly where a pair-by-pair loop would put them.
    """

    def __init__(
        self,
        inner: DistanceFunction,
        maxsize: int | None = 1_000_000,
        key: Callable[[object], object] | None = None,
    ):
        super().__init__()
        if not isinstance(inner, DistanceFunction):
            raise ParameterError("inner must be a DistanceFunction")
        if maxsize is not None and maxsize <= 0:
            raise ParameterError(f"maxsize must be positive or None, got {maxsize}")
        self.inner = inner
        self.maxsize = maxsize
        self._key = key if key is not None else _default_key
        self._cache: OrderedDict[tuple, float] = OrderedDict()
        self.n_hits = 0
        self.n_evictions = 0
        self.name = f"cached({inner.name})"

    @property
    def n_calls(self) -> int:
        """True evaluations performed by the wrapped metric."""
        return self.inner.n_calls

    @property
    def size(self) -> int:
        """Pairs currently held by the LRU store."""
        return len(self._cache)

    @property
    def hit_rate(self) -> float:
        """Share of lookups served from the cache (0.0 when unused)."""
        total = self.n_hits + self.n_calls
        return self.n_hits / total if total else 0.0

    def counters(self) -> dict[str, object]:
        """JSON-compatible record of the LRU counters (what
        :class:`~repro.observability.StatsSnapshot` embeds as ``cache``)."""
        return {
            "hits": self.n_hits,
            "misses": self.n_calls,
            "evictions": self.n_evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }

    def reset_counter(self) -> None:
        self.inner.reset_counter()
        self.n_hits = 0

    @staticmethod
    def _order(ka: Any, kb: Any) -> tuple:
        # Symmetric key: order the two halves so d(a,b) and d(b,a) share one
        # slot. Mixed-type keys raise TypeError; numpy-like keys raise
        # ValueError (elementwise comparison) — canonicalize via repr then.
        try:
            if kb < ka:
                ka, kb = kb, ka
        except (TypeError, ValueError):
            if repr(kb) < repr(ka):
                ka, kb = kb, ka
        return (ka, kb)

    def _pair_key(self, a: Any, b: Any) -> tuple:
        return self._order(self._key(a), self._key(b))

    def _store(self, key: tuple, value: float) -> None:
        self._cache[key] = value
        if self.maxsize is not None and len(self._cache) > self.maxsize:
            self._cache.popitem(last=False)
            self.n_evictions += 1

    def distance(self, a: Any, b: Any) -> float:
        key = self._pair_key(a, b)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.n_hits += 1
            return cached
        value = self.inner.distance(a, b)
        self._store(key, value)
        return value

    def one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        n = len(objects)
        out = np.empty(n, dtype=np.float64)
        if n == 0:
            return out
        ka = self._key(obj)
        keys = [self._order(ka, self._key(o)) for o in objects]
        missing: list[int] = []
        pending: set = set()
        repeats: list[int] = []
        for j, key in enumerate(keys):
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.n_hits += 1
                out[j] = cached
            elif key in pending:
                # A pair already missed earlier in this batch: the scalar
                # loop would find it freshly cached, so it is a hit.
                self.n_hits += 1
                repeats.append(j)
            else:
                pending.add(key)
                missing.append(j)
        if missing:
            values = self.inner.one_to_many(obj, [objects[j] for j in missing])
            resolved: dict[tuple, float] = {}
            for pos, j in enumerate(missing):
                value = float(values[pos])
                out[j] = value
                resolved[keys[j]] = value
                self._store(keys[j], value)
            for j in repeats:
                out[j] = resolved[keys[j]]
        return out

    def pairwise(self, objects: Sequence) -> np.ndarray:
        # Route every pair through the cache: the base-class implementation
        # would call the raw hook, bypassing both memoization and the inner
        # metric's NCD counter. Each row above the diagonal is one batched
        # cache-aware gather.
        n = len(objects)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n - 1):
            row = self.one_to_many(objects[i], objects[i + 1 :])
            out[i, i + 1 :] = row
            out[i + 1 :, i] = row
        return out

    def cross(self, objects_a: Sequence, objects_b: Sequence) -> np.ndarray:
        # Route every pair through the cache so repeated cross-gathers (D2
        # between the same entry summaries, exact merges) hit memoized
        # pairs; each row's unique misses go to the inner metric as one
        # batched gather.
        out = np.empty((len(objects_a), len(objects_b)), dtype=np.float64)
        for i, a in enumerate(objects_a):
            out[i] = self.one_to_many(a, objects_b)
        return out

    def _distance(self, a: Any, b: Any) -> float:  # pragma: no cover - bypassed by distance()
        # Wrapper hook-to-hook delegation: counting happens in the inner
        # metric's public API, which every overridden entry point above uses.
        return self.inner._distance(a, b)  # hook delegation; the public wrapper counts
