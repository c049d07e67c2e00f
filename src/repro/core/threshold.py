"""Threshold-growth heuristic for CF*-tree rebuilds.

When the tree outgrows its node budget ``M``, BIRCH* "merges clusters by
increasing the threshold value T associated with the leaf clusters and
re-inserting them into a new tree" (Section 3.2). The paper inherits BIRCH's
threshold heuristic; we implement its core idea: the next threshold should
be about the distance between close leaf entries, so that re-insertion
actually merges neighbours and the new tree is measurably smaller.

The estimate samples a handful of leaf nodes, computes the nearest-neighbour
distance of each entry *within its leaf* (entries sharing a leaf are already
spatially close, so these are the pairs a larger T would merge), and takes
the median. A floor of ``1.5 * T_old`` guarantees strictly increasing
thresholds, hence termination of the rebuild loop.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.metrics.base import site
from repro.utils.rng import ensure_rng

__all__ = ["suggest_next_threshold"]

#: Leaves examined per estimate; keeps the NCD cost of a rebuild bounded.
_MAX_SAMPLED_LEAVES = 10
#: Minimum multiplicative growth of the threshold between rebuilds.
_GROWTH_FLOOR = 1.5


def suggest_next_threshold(tree: Any, seed: int | np.random.Generator | None = None) -> float:
    """Propose a strictly larger threshold for ``tree``'s next rebuild."""
    rng = ensure_rng(seed)
    candidates = [leaf for leaf in tree.leaves() if len(leaf.entries) >= 2]
    nn_dists: list[float] = []
    if candidates:
        if len(candidates) > _MAX_SAMPLED_LEAVES:
            idx = rng.choice(len(candidates), size=_MAX_SAMPLED_LEAVES, replace=False)
            candidates = [candidates[int(i)] for i in idx]
        with site("threshold"):
            for leaf in candidates:
                dm = tree.policy.leaf_entry_matrix(leaf.entries)
                np.fill_diagonal(dm, np.inf)
                nn_dists.extend(dm.min(axis=1).tolist())

    old_t = tree.threshold
    estimate = float(np.median(nn_dists)) if nn_dists else 0.0
    new_t = max(estimate, _GROWTH_FLOOR * old_t)
    if new_t <= old_t:
        # Degenerate tree (e.g. every leaf holds a single entry): force growth.
        new_t = old_t * _GROWTH_FLOOR if old_t > 0 else np.finfo(float).tiny
    return new_t
