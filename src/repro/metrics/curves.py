"""Metrics on curves/trajectories.

A showcase of the paper's central premise: BUBBLE clusters *anything* with a
metric. The discrete Fréchet distance is a true metric on polygonal curves
(sequences of points) — the classic "dog-walking" distance: the smallest
leash length that lets a walker traverse one curve and the dog the other,
both moving monotonically. Like the edit distance it is an O(mn) dynamic
program, i.e. exactly the kind of expensive ``d`` that motivates BUBBLE-FM.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import MetricError
from repro.metrics.base import DistanceFunction

__all__ = ["DiscreteFrechetDistance", "discrete_frechet"]


def discrete_frechet(curve_a: Any, curve_b: Any) -> float:
    """Discrete Fréchet distance between two point sequences.

    Parameters
    ----------
    curve_a, curve_b:
        Arrays of shape ``(m, dim)`` and ``(n, dim)`` (or nested sequences
        coercible to them).

    Returns
    -------
    The min-over-couplings max-leash-length, via the standard O(mn) dynamic
    program (Eiter & Mannila 1994).
    """
    a = np.asarray(curve_a, dtype=np.float64)
    b = np.asarray(curve_b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise MetricError(
            f"curves must be (m, dim) arrays of equal dim, got {a.shape} and {b.shape}"
        )
    if len(a) == 0 or len(b) == 0:
        raise MetricError("curves must contain at least one point")
    m, n = len(a), len(b)
    # Pairwise point distances, vectorized.
    diff = a[:, None, :] - b[None, :, :]
    pd = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    # ca[i, j] = Fréchet distance of prefixes a[:i+1], b[:j+1].
    ca = np.empty((m, n), dtype=np.float64)
    ca[0, 0] = pd[0, 0]
    for j in range(1, n):
        ca[0, j] = max(ca[0, j - 1], pd[0, j])
    for i in range(1, m):
        ca[i, 0] = max(ca[i - 1, 0], pd[i, 0])
        row_prev = ca[i - 1]
        row = ca[i]
        for j in range(1, n):
            row[j] = max(min(row_prev[j], row_prev[j - 1], row[j - 1]), pd[i, j])
    return float(ca[m - 1, n - 1])


class DiscreteFrechetDistance(DistanceFunction):
    """Discrete Fréchet distance as a :class:`DistanceFunction`.

    Objects are point sequences (``(m, dim)`` arrays or nested lists). A
    true metric on curves — symmetric, zero only between identical
    sequences' geometries, and triangle-inequality-respecting — so the whole
    BUBBLE/BUBBLE-FM machinery (and the VP-tree index) applies to
    trajectory data unchanged.

    Examples
    --------
    >>> m = DiscreteFrechetDistance()
    >>> m.distance([[0, 0], [1, 0]], [[0, 1], [1, 1]])
    1.0
    """

    name = "discrete-frechet"

    def _distance(self, a: Any, b: Any) -> float:
        return discrete_frechet(a, b)
