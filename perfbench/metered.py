"""Metered distance kernels: count and time the hooks that evaluate ``d``.

The library counts *calls* (NCD) in its public wrappers. These subclasses
count *evaluations* where they happen, in the uncounted implementation
hooks, so work that reaches the hooks directly (the routing engine's
geometry upkeep) is counted too. Only the outermost hook of a nested call
is counted and timed: the default ``_pairwise`` loops over ``_distance``.

The meter is process-global on purpose. CLARA's inline path pickles the
metric and evaluates through the copy, so a per-instance counter would
miss those evaluations; the classes are module-level so the copy unpickles.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import Any

from repro.metrics import EditDistance, EuclideanDistance

__all__ = ["METER", "KernelMeter", "MeteredEuclidean", "MeteredEdit"]


class KernelMeter:
    """Totals over every outermost hook call in this process."""

    __slots__ = ("evals", "hooks", "seconds", "timed", "_busy")

    def __init__(self) -> None:
        #: When False only counts are kept (no clock reads per hook).
        self.timed = False
        self.reset()

    def reset(self) -> None:
        self.evals = 0
        self.hooks = 0
        self.seconds = 0.0
        self._busy = False

    def snapshot(self) -> tuple[int, int, float]:
        return self.evals, self.hooks, self.seconds

    def run(self, fn: Callable[..., Any], pairs: int, *args: Any) -> Any:
        if self._busy:
            return fn(*args)
        self._busy = True
        t0 = time.perf_counter() if self.timed else 0.0
        try:
            return fn(*args)
        finally:
            self._busy = False
            self.hooks += 1
            self.evals += pairs
            if self.timed:
                self.seconds += time.perf_counter() - t0


METER = KernelMeter()


class _Metered:
    """Mixin placed before a concrete metric in the MRO."""

    def _distance(self, a: Any, b: Any) -> float:
        return METER.run(super()._distance, 1, a, b)

    def _one_to_many(self, obj: Any, objects: Any) -> Any:
        return METER.run(super()._one_to_many, len(objects), obj, objects)

    def _pairwise(self, objects: Any) -> Any:
        n = len(objects)
        return METER.run(super()._pairwise, n * (n - 1) // 2, objects)

    def _cross(self, objects_a: Any, objects_b: Any) -> Any:
        pairs = len(objects_a) * len(objects_b)
        return METER.run(super()._cross, pairs, objects_a, objects_b)


class MeteredEuclidean(_Metered, EuclideanDistance):
    """:class:`~repro.metrics.EuclideanDistance` feeding :data:`METER`."""


class MeteredEdit(_Metered, EditDistance):
    """:class:`~repro.metrics.EditDistance` feeding :data:`METER`."""
