"""Second-scan labeling: associate every object with its closest center.

Section 6.1: "The dataset D is scanned a second time to associate each
object O in D with a cluster whose representative object is closest to O."
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import ParameterError
from repro.metrics.base import DistanceFunction

__all__ = ["nearest_assignment"]


def nearest_assignment(
    metric: DistanceFunction,
    objects: Iterable,
    centers: Sequence,
) -> np.ndarray:
    """Label each object with the index of its nearest center.

    Costs ``len(objects) * len(centers)`` distance calls — the dominant cost
    of the second phase that Table 3 attributes "more than 50% of the time"
    to.
    """
    if len(centers) == 0:
        raise ParameterError("nearest_assignment requires at least one center")
    batch = metric.prepare(centers)
    labels = [int(np.argmin(metric.one_to_many(obj, batch))) for obj in objects]
    return np.asarray(labels, dtype=np.intp)
