"""Compensated (Neumaier) floating-point accumulation.

The BIRCH*-family features maintain running sums of squared distances —
RowSums at BUBBLE leaves, the squared-deviation total of the vector CF —
over arbitrarily long insertion streams. A naive ``acc += x`` loop loses
up to one ulp *of the running total* per addition, so after ``n`` absorbs
the drift is ``O(n * eps * max_prefix)``: a single large addend early in
the stream silently swallows every small addend that follows (classic
example: ``1e16 + 1.0 + 1.0 + ...`` never moves).

Neumaier's variant of Kahan summation keeps a second float carrying the
rounding error of every addition, restoring the lost low-order bits when
the compensated value is read back. The error of ``sum + compensation``
is ``O(eps)`` relative, *independent of stream length and magnitude
spread* — which is what BETULA (Lang & Schubert, PAPERS.md) exploits to
keep BIRCH cluster features stable at scale, and what every BUBBLE leaf
CF* (:class:`repro.core.features.BubbleClusterFeature`) uses for its
RowSums.

Three entry points:

* :func:`neumaier_sum` — one-shot compensated sum of a 1-D array;
* :func:`compensated_add` — **vectorized** in-place Neumaier update of
  parallel ``(sums, comps)`` ndarrays, the batch RowSum primitive (one
  fused update for a feature's whole RowSum array instead of a scalar
  Python loop);
* :class:`CompensatedAccumulator` — a scalar running accumulator for
  single-value streams (the vector CF's SSE).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CompensatedAccumulator",
    "compensated_add",
    "neumaier_sum",
]


def compensated_add(
    sums: np.ndarray, comps: np.ndarray, deltas: np.ndarray
) -> None:
    """Add ``deltas`` into the ``(sums, comps)`` pair in place, Neumaier-style.

    ``sums`` and ``comps`` are parallel float64 arrays (typically views
    into one feature's RowSum storage); the represented value of slot ``i`` is
    ``sums[i] + comps[i]``. Each slot absorbs ``deltas[i]`` with its
    rounding error captured in ``comps[i]``, so a slot's drift stays
    ``O(eps)`` relative no matter how many times it is updated or how the
    addend magnitudes are spread.

    All three arrays must share a shape; ``sums`` and ``comps`` must be
    writable float64 (views are fine — the update is fully vectorized).
    """
    totals = sums + deltas
    # Neumaier: whichever operand is larger in magnitude determines which
    # low-order bits the addition just rounded away.
    err_big_sum = (sums - totals) + deltas
    err_big_delta = (deltas - totals) + sums
    comps += np.where(np.abs(sums) >= np.abs(deltas), err_big_sum, err_big_delta)
    sums[...] = totals


def neumaier_sum(values: np.ndarray) -> float:
    """Compensated sum of a 1-D array; error ``O(eps)`` relative.

    Equivalent to ``math.fsum`` for practical purposes at a fraction of
    the cost for float64 inputs (single pass, two floats of state).
    """
    total = 0.0
    comp = 0.0
    for x in np.asarray(values, dtype=np.float64).ravel():
        v = float(x)
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


class CompensatedAccumulator:
    """Scalar Neumaier accumulator for long single-value streams.

    >>> acc = CompensatedAccumulator(1e16)
    >>> for _ in range(1000):
    ...     acc.add(1.0)
    >>> acc.value == 1e16 + 1000.0
    True

    The pair ``(total, compensation)`` is exposed so container types (the
    leaf CF*, checkpoints) can persist the exact accumulator state and
    resume bit-equivalently.
    """

    __slots__ = ("total", "compensation")

    def __init__(self, value: float = 0.0, compensation: float = 0.0) -> None:
        self.total = float(value)
        self.compensation = float(compensation)

    def add(self, x: float) -> None:
        """Absorb one addend, capturing its rounding error."""
        v = float(x)
        t = self.total + v
        if abs(self.total) >= abs(v):
            self.compensation += (self.total - t) + v
        else:
            self.compensation += (v - t) + self.total
        self.total = t

    def add_many(self, values: np.ndarray) -> None:
        """Absorb a batch of addends (order-stable, same as repeated add)."""
        for x in np.asarray(values, dtype=np.float64).ravel():
            self.add(float(x))

    def merge(self, other: "CompensatedAccumulator") -> None:
        """Fold another accumulator in without losing either compensation."""
        self.add(other.total)
        self.add(other.compensation)

    @property
    def value(self) -> float:
        """The compensated running total."""
        return self.total + self.compensation

    def copy(self) -> "CompensatedAccumulator":
        return CompensatedAccumulator(self.total, self.compensation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompensatedAccumulator({self.value!r})"
