"""User-facing BIRCH driver (vector data only)."""

from __future__ import annotations

import numpy as np

from repro.birch.policy import BirchVectorPolicy
from repro.core.preclusterer import PreClusterer
from repro.metrics.base import DistanceFunction

__all__ = ["BIRCH"]


class BIRCH(PreClusterer):
    """Single-scan BIRCH pre-clustering of n-dimensional vectors.

    Shares the estimator API of :class:`~repro.core.preclusterer.BUBBLE`,
    but note the semantic differences inherited from the original BIRCH:

    * cluster centers are **centroids** (synthetic points), not clustroids;
    * the threshold requirement bounds the cluster *radius after insertion*
      rather than the center distance.

    ``metric`` measures the centroid distances (``EuclideanDistance()`` if
    omitted); pass a counting or :class:`~repro.robustness.GuardedMetric`
    wrapper to count, budget or time-limit them.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.birch import BIRCH
    >>> data = list(np.random.default_rng(0).normal(size=(300, 2)))
    >>> model = BIRCH(max_nodes=20, seed=0).fit(data)
    >>> model.n_subclusters_ >= 1
    True
    """

    def __init__(
        self,
        branching_factor: int = 15,
        max_nodes: int | None = None,
        threshold: float = 0.0,
        seed: int | np.random.Generator | None = None,
        metric: DistanceFunction | None = None,
    ):
        super().__init__(
            metric=BirchVectorPolicy(metric).metric,
            branching_factor=branching_factor,
            max_nodes=max_nodes,
            threshold=threshold,
            seed=seed,
        )

    def _make_policy(self) -> BirchVectorPolicy:
        # The driver and the policy share one metric, so NCD, budgets and
        # deadlines cover every centroid distance of the fit.
        return BirchVectorPolicy(self.metric)

    @property
    def centroids_(self) -> np.ndarray:
        """Centroid of each sub-cluster as a ``(k, dim)`` array."""
        return np.vstack([f.centroid for f in self._require_tree().leaf_features()])
