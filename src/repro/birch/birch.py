"""User-facing BIRCH driver (vector data only)."""

from __future__ import annotations

import numpy as np

from repro.birch.policy import BirchVectorPolicy
from repro.core.preclusterer import PreClusterer

__all__ = ["BIRCH"]


class BIRCH(PreClusterer):
    """Single-scan BIRCH pre-clustering of n-dimensional vectors.

    Shares the estimator API of :class:`~repro.core.preclusterer.BUBBLE`,
    but note the semantic differences inherited from the original BIRCH:

    * cluster centers are **centroids** (synthetic points), not clustroids;
    * the threshold requirement bounds the cluster *radius after insertion*
      rather than the center distance.

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
    ):
        super().__init__(
            metric=BirchVectorPolicy().metric,
            branching_factor=branching_factor,
            max_nodes=max_nodes,
            threshold=threshold,
            seed=seed,
        )

    def _make_policy(self) -> BirchVectorPolicy:
        policy = BirchVectorPolicy()
        # Share one counter between driver and policy for NCD-style reports.
        policy.metric = self.metric
        return policy

    @property
    def centroids_(self) -> np.ndarray:
        """Centroid of each sub-cluster as a ``(k, dim)`` array."""
        return np.vstack([f.centroid for f in self._require_tree().leaf_features()])
