"""Abstract distance function with NCD (number-of-calls-to-d) accounting.

The BIRCH* framework and both BUBBLE algorithms interact with data objects
*only* through a :class:`DistanceFunction`. Implementations provide a scalar
``_distance`` and may override ``_one_to_many`` with a vectorized version;
the public wrappers maintain the call counter that the paper reports as NCD
(Section 6.1).

Besides the per-metric total, this module hosts the **site-attribution
ledger** behind :mod:`repro.observability`: while a :class:`CallLedger` is
active (``with ledger:``, the one way to activate one), every counted call
is additionally charged to the innermost *site* label on the ledger's
stack (``leaf-d0`` leaf routing, ``nonleaf-d2`` sample routing,
``fastmap-map`` incremental mapping, ...; see
``docs/observability.md`` for the taxonomy). Library code opens a site,
phases included, only as ``with site(label):``, which closes it on every
path out of the block, raises included, so no path can leave a stale label
on the stack. A :class:`~repro.observability.Tracer` is a ledger that also
times each site it opens. Counting and charging share one
code path (:meth:`DistanceFunction._count`), so the attributed totals sum
*exactly* to ``n_calls`` — the conservation law the regression tests pin.
With no ledger active the cost is a single ``None`` check per counted batch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "DistanceFunction",
    "FunctionDistance",
    "CallLedger",
    "UNATTRIBUTED_SITE",
    "active_ledger",
    "site",
    "take",
]

#: Site label for calls counted while a ledger is active but no site is
#: open (e.g. user code measuring distances between phases).
UNATTRIBUTED_SITE = "unattributed"


class CallLedger:
    """Site-attributed NCD accounting: who spent the distance calls.

    A ledger keeps a stack of *site* labels, opened and closed by
    :class:`site` through :meth:`enter` and :meth:`exit`, and a ``by_site``
    histogram; :meth:`charge` books ``n`` calls against the innermost open
    site (or :data:`UNATTRIBUTED_SITE` when the stack is empty).

    ``with ledger:`` is the one way to activate a ledger. At most one is
    active at a time; while it is, every :class:`DistanceFunction` in the
    process charges it from the same statement that increments its own
    ``n_calls`` counter, so

    ``sum(ledger.by_site.values()) == ledger.total``

    always holds, and equals the per-metric NCD delta whenever a single
    metric is in play for the whole activation window. Activation is
    re-entrant: a nested ``with ledger:`` on the active ledger is a no-op,
    and the outermost exit restores whichever ledger was active before.
    """

    __slots__ = ("stack", "by_site", "total", "_depth", "_previous")

    def __init__(self) -> None:
        #: Innermost-last stack of open site labels.
        self.stack: list[str] = []
        #: Calls charged per site label.
        self.by_site: dict[str, int] = {}
        #: Total calls charged (== sum of ``by_site`` values).
        self.total = 0
        self._depth = 0
        self._previous: CallLedger | None = None

    def __enter__(self) -> "CallLedger":
        global _ACTIVE_LEDGER
        if self._depth == 0:
            self._previous = _ACTIVE_LEDGER
            _ACTIVE_LEDGER = self
        self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE_LEDGER
        if self._depth == 0:
            raise ParameterError("ledger deactivated more times than activated")
        self._depth -= 1
        if self._depth == 0:
            _ACTIVE_LEDGER = self._previous
            self._previous = None

    def enter(self, label: str) -> None:
        """Open site ``label``; calls are charged to it until :meth:`exit`."""
        self.stack.append(label)

    def exit(self) -> None:
        """Close the innermost open site."""
        self.stack.pop()

    def charge(self, n: int, site: str | None = None) -> None:
        """Book ``n`` distance calls against ``site``, by default the
        innermost open one."""
        if site is None:
            site = self.stack[-1] if self.stack else UNATTRIBUTED_SITE
        by_site = self.by_site
        by_site[site] = by_site.get(site, 0) + n
        self.total += n


#: The process-wide active ledger (``None`` = attribution disabled).
_ACTIVE_LEDGER: CallLedger | None = None


def active_ledger() -> CallLedger | None:
    """The currently active :class:`CallLedger`, or ``None``."""
    return _ACTIVE_LEDGER


class site:
    """Context manager charging the calls made inside it to site ``label``.

    ``with site("leaf-d0"): ...`` opens ``label`` on the ledger active at
    entry and closes it on that same ledger at exit, on every path out of
    the block, so a raise inside the block cannot leak the site and a
    ledger switched inside the block cannot be popped in its place. With
    no active ledger it does nothing.
    """

    __slots__ = ("label", "_ledger")

    def __init__(self, label: str) -> None:
        self.label = label
        self._ledger: CallLedger | None = None

    def __enter__(self) -> None:
        ledger = self._ledger = _ACTIVE_LEDGER
        if ledger is not None:
            ledger.enter(self.label)

    def __exit__(self, *exc_info: object) -> None:
        ledger = self._ledger
        if ledger is not None:
            self._ledger = None
            ledger.exit()


class DistanceFunction(ABC):
    """A distance function ``d : S x S -> R`` over a domain of objects.

    Implementations must satisfy the metric axioms the paper assumes:
    non-negativity, identity of indiscernibles, symmetry, and the triangle
    inequality. The library never verifies them at runtime (that would cost
    extra distance calls), but the test suite property-checks each shipped
    metric.

    Attributes
    ----------
    n_calls:
        Number of object pairs measured so far; the paper's NCD metric.
        Batch methods count one call per pair.
    """

    #: Human-readable identifier used in experiment reports.
    name: str = "distance"

    def __init__(self) -> None:
        self._n_calls = 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def n_calls(self) -> int:
        """Total number of distance evaluations (the paper's NCD)."""
        return self._n_calls

    def reset_counter(self) -> None:
        """Reset the NCD counter to zero (e.g. between experiment phases)."""
        self._n_calls = 0

    def _count(self, n: int, site: str | None = None) -> None:
        """Book ``n`` true evaluations: the NCD counter plus, when a
        :class:`CallLedger` is active, site attribution (to ``site``, by
        default the innermost open one).

        Every counted path — here and in wrappers that own their counting,
        like :class:`~repro.robustness.GuardedMetric` — must go through
        this method; it is what keeps the per-site ledger and ``n_calls``
        in exact agreement.
        """
        self._n_calls += n
        ledger = _ACTIVE_LEDGER
        if ledger is not None:
            ledger.charge(n, site)

    def count_external(self, n: int, site: str | None = None) -> None:
        """Book ``n`` evaluations performed *outside* this process or object.

        The parallel build (:mod:`repro.parallel`) runs each shard with its
        own metric copy in a worker process; when the shard results come
        home, the parent re-books the worker-side call counts here so a
        single metric keeps the authoritative NCD total and, via
        :meth:`_count`, the active :class:`CallLedger` keeps partitioning
        ``n_calls`` exactly. ``site`` attributes the absorbed calls to the
        worker's original site label (``leaf-d0``, ``nonleaf-d2``, ...)
        without opening it, so no phase is timed; ``None`` books them
        against the innermost open site.

        No distance values flow through this method — only accounting.
        """
        if n < 0:
            raise ValueError(f"cannot absorb a negative call count ({n})")
        if n:
            self._count(n, site)

    # ------------------------------------------------------------------
    # Public measuring API (counted)
    # ------------------------------------------------------------------
    def distance(self, a: Any, b: Any) -> float:
        """Return ``d(a, b)`` as a ``float``; counts one call.

        The result is coerced to ``float`` so user-supplied callables that
        return ints or numpy scalars (common for edit distances and other
        counting metrics) still satisfy the scalar contract downstream code
        relies on.
        """
        self._count(1)
        return float(self._distance(a, b))

    def one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        """Return distances from ``obj`` to each element of ``objects``.

        Counts ``len(objects)`` calls. Subclasses with vectorizable metrics
        override :meth:`_one_to_many`; the default loops over
        :meth:`_distance`.
        """
        n = len(objects)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        self._count(n)
        return self._one_to_many(obj, objects)

    def pairwise(self, objects: Sequence) -> np.ndarray:
        """Return the full symmetric distance matrix over ``objects``.

        Counts ``n * (n - 1) / 2`` calls (symmetry is exploited; the
        diagonal is free).
        """
        n = len(objects)
        pairs = n * (n - 1) // 2
        if pairs:
            self._count(pairs)
        return self._pairwise(objects)

    def cross(self, objects_a: Sequence, objects_b: Sequence) -> np.ndarray:
        """Return the ``|A| x |B|`` cross-distance matrix between two sets.

        Counts ``|A| * |B|`` calls. This is the batched gather behind D2
        computations and exact CF* merges: vectorized metrics pay one
        dispatch for the whole block instead of one per row.
        """
        na, nb = len(objects_a), len(objects_b)
        if na == 0 or nb == 0:
            return np.empty((na, nb), dtype=np.float64)
        self._count(na * nb)
        return self._cross(objects_a, objects_b)

    def __call__(self, a: Any, b: Any) -> float:
        return self.distance(a, b)

    def prepare(self, objects: Sequence) -> Sequence:
        """Return ``objects`` in the form this metric's batch hooks read
        fastest; costs no distance calls.

        Callers that measure against the same collection many times (sample
        caches, leaf clustroids, labeling centers) prepare it once and pass
        the result, or slices of it, wherever a sequence of objects is
        accepted. Every counted method returns bit-identical values and
        counts the same calls for a prepared batch as for the original
        sequence. The default returns ``objects`` unchanged; wrappers such as
        :class:`~repro.robustness.GuardedMetric` keep it, so their inner
        metric always sees the objects themselves.
        """
        return objects

    # ------------------------------------------------------------------
    # Implementation hooks (uncounted)
    # ------------------------------------------------------------------
    @abstractmethod
    def _distance(self, a: Any, b: Any) -> float:
        """Compute ``d(a, b)`` without touching the counter."""

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        return np.fromiter(
            (self._distance(obj, o) for o in objects),
            dtype=np.float64,
            count=len(objects),
        )

    def _pairwise(self, objects: Sequence) -> np.ndarray:
        n = len(objects)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                d = self._distance(objects[i], objects[j])
                out[i, j] = d
                out[j, i] = d
        return out

    def _cross(self, objects_a: Sequence, objects_b: Sequence) -> np.ndarray:
        return np.stack([self._one_to_many(a, objects_b) for a in objects_a])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_calls={self._n_calls})"


def take(batch: Any, positions: Any) -> Any:
    """The items of ``batch`` at ``positions``: a fancy-indexed slice of a
    prepared matrix, else a list.

    This is how a caller hands a subset of a prepared collection to a
    gather without preparing it again; a vector metric reads the rows as
    they are.
    """
    if isinstance(batch, np.ndarray):
        return batch[positions]
    return [batch[j] for j in positions]


class FunctionDistance(DistanceFunction):
    """Adapt a plain Python callable ``f(a, b) -> float`` into a metric.

    This is the extension point for user-defined distance spaces: any
    function satisfying the metric axioms can drive BUBBLE/BUBBLE-FM.

    Examples
    --------
    >>> metric = FunctionDistance(lambda a, b: abs(a - b), name="abs-diff")
    >>> metric.distance(3, 7)
    4.0
    >>> metric.n_calls
    1
    """

    def __init__(self, func: Callable[[object, object], float], name: str = "custom"):
        super().__init__()
        if not callable(func):
            raise TypeError("func must be callable")
        self._func = func
        self.name = name

    def _distance(self, a: Any, b: Any) -> float:
        return self._func(a, b)
