"""Second-scan labeling: associate every object with its closest center.

Section 6.1: "The dataset D is scanned a second time to associate each
object O in D with a cluster whose representative object is closest to O."

The exhaustive scan measures every (object, center) pair. This module
returns the same labels, bit for bit, from a triangle-inequality walk over
the centers (the leaf walk of :mod:`repro.core.routing`, run for a block
of objects at once):

* The ``K x K`` center matrix ``D`` is measured once, counted, as
  ``one_to_many`` rows over its upper triangle. It is skipped while the
  input is too small for it to pay (at most ``K / 2`` objects read); the
  bounds below then stay 0 and the walk measures every pair.
* Objects are read in blocks of ``_BLOCK``, so memory stays
  ``O(_BLOCK * K)`` and a generator input still streams.
* Every object is measured against center 0 first, so each object is
  measured (and, under :class:`~repro.robustness.GuardedMetric`,
  validated) at least once. Every measured center ``a`` bounds each open
  center ``i`` from below by ``|d(q, a) - D[a, i]| <= d(q, c_i)``.
* Each round, every still-open object picks its open center with the
  smallest bound. Objects are grouped by that center and each group is one
  counted ``metric.cross(group, centers[j : j + 1])`` gather, whose rows
  are the values the exhaustive ``one_to_many(obj, centers)`` returns at
  ``j``. The walk never reads a distance in the other direction.
* An object stops once its smallest open bound exceeds ``best * (1 +
  TIE_RTOL)``, the margin the routing walks use, so rounding in a bound
  can never prune a center that ties the best. Among measured centers
  exact ties go to the lowest index, as ``np.argmin`` does.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import islice

import numpy as np

from repro.core.routing import TIE_RTOL
from repro.exceptions import ParameterError
from repro.metrics.base import DistanceFunction, take

__all__ = ["nearest_assignment"]

#: Objects labeled per block of the walk.
_BLOCK = 1024


def nearest_assignment(
    metric: DistanceFunction,
    objects: Iterable,
    centers: Sequence,
) -> np.ndarray:
    """Label each object with the index of its nearest center.

    Returns exactly the labels of ``argmin(metric.one_to_many(obj,
    centers))`` per object (lowest index on ties), with triangle-inequality
    pruning over the centers (see module docstring). Costs at least one
    distance call per object and at most ``len(centers)``, plus
    ``K (K - 1) / 2`` for the center matrix once more than ``K / 2``
    objects have been read.
    """
    k = len(centers)
    if k == 0:
        raise ParameterError("nearest_assignment requires at least one center")
    batch = metric.prepare(centers)
    pair = None
    seen = 0
    labels = [np.empty(0, dtype=np.intp)]
    stream = iter(objects)
    for block in iter(lambda: list(islice(stream, _BLOCK)), []):
        seen += len(block)
        if pair is None and 2 * seen > k:
            pair = _center_matrix(metric, centers, batch)
        labels.append(_label_block(metric, block, batch, pair))
    return np.concatenate(labels)


def _center_matrix(
    metric: DistanceFunction, centers: Sequence, batch: Sequence
) -> np.ndarray:
    """``D[i, j] = d(c_i, c_j)``, one counted row per center."""
    k = len(centers)
    pair = np.zeros((k, k), dtype=np.float64)
    for i in range(k - 1):
        row = metric.one_to_many(centers[i], batch[i + 1 :])
        pair[i, i + 1 :] = row
        pair[i + 1 :, i] = row
    return pair


def _label_block(
    metric: DistanceFunction, block: list, batch: Sequence, pair: np.ndarray | None
) -> np.ndarray:
    """Nearest-center labels of one block of objects (the walk). Without
    a center matrix (``pair`` is ``None``) every bound stays 0."""
    m = len(block)
    queries = metric.prepare(block)
    best = np.full(m, np.inf, dtype=np.float64)
    label = np.zeros(m, dtype=np.intp)
    # The open objects, each one's next center, and the lower bounds of
    # its centers; measured centers hold +inf, so a pick is a row argmin.
    rows = np.arange(m)
    picks = np.zeros(m, dtype=np.intp)
    lb = np.zeros((m, len(batch)), dtype=np.float64)
    while len(rows):
        values = _gather(metric, queries, batch, rows, picks)
        held = best[rows]
        better = (values < held) | ((values <= held) & (picks < label[rows]))
        best[rows[better]] = values[better]
        label[rows[better]] = picks[better]
        if pair is not None:
            gap = pair[picks]
            gap -= values[:, None]
            np.maximum(lb, np.abs(gap, out=gap), out=lb)
        at = np.arange(len(rows))
        lb[at, picks] = np.inf
        picks = lb.argmin(axis=1)
        bound = lb[at, picks]
        # A finite bound keeps an object whose best is still +inf from
        # re-picking a measured center.
        go = (bound <= best[rows] * (1.0 + TIE_RTOL)) & (bound < np.inf)
        rows, picks, lb = rows[go], picks[go], lb[go]
    return label


def _gather(
    metric: DistanceFunction,
    queries: Sequence,
    batch: Sequence,
    rows: np.ndarray,
    picks: np.ndarray,
) -> np.ndarray:
    """``d(queries[rows[t]], batch[picks[t]])`` for every ``t``: one counted
    ``cross`` gather per distinct center, in ascending center order."""
    order = np.argsort(picks, kind="stable")
    starts = np.flatnonzero(np.diff(picks[order], prepend=-1))
    values = np.empty(len(rows), dtype=np.float64)
    for group in np.split(order, starts[1:]):
        j = int(picks[group[0]])
        values[group] = metric.cross(take(queries, rows[group]), batch[j : j + 1])[:, 0]
    return values
