"""The CF*-tree: the in-memory index at the heart of BIRCH* (Section 3.2).

The tree directs each new object to the cluster closest to it in time
logarithmic in the number of clusters. Non-leaf entries "guide" objects to
the right subtree; leaf entries are the dynamically evolving clusters. Key
mechanics reproduced from the paper:

* descent always follows the closest non-leaf entry;
* at the leaf, the object is absorbed by the closest cluster if the
  threshold requirement ``T`` holds, otherwise it starts a new cluster;
* an overflowing node splits into two around the farthest pair of entries,
  and splits may propagate to the root (growing the tree's height);
* whenever a child of a non-leaf node splits, the policy refreshes that
  node's summaries (Section 4.2.2);
* when the node count exceeds the budget ``M``, the threshold grows and all
  leaf clusters are re-inserted into a fresh tree (Type II insertions).
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.core.features import ClusterFeature
from repro.core.nodes import LeafNode, NonLeafEntry, NonLeafNode
from repro.core.policy import BirchStarPolicy
from repro.core.threshold import suggest_next_threshold
from repro.exceptions import ParameterError, TreeInvariantError
from repro.metrics.base import site
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_integer, check_positive

__all__ = ["CFTree"]

logger = logging.getLogger("repro.cftree")


class CFTree:
    """Height-balanced tree of generalized cluster features.

    Parameters
    ----------
    policy:
        The BIRCH* instantiation (BUBBLE, BUBBLE-FM, or vector BIRCH).
    branching_factor:
        Maximum entries per node (the paper's ``B``; default 15 matches the
        experimental setup of Section 6.1).
    max_nodes:
        Node budget ``M``. ``None`` disables rebuilding (unbounded memory).
    threshold:
        Initial threshold requirement ``T``; 0 makes every distinct object
        its own cluster until the first rebuild, as in BIRCH.
    seed:
        Seed/generator for the threshold heuristic's leaf sampling.
    validate:
        ``None`` (default) for no runtime checking; ``"debug"`` runs the
        full invariant sanitizer (:func:`repro.analysis.audit.audit_tree`)
        after every insertion that split a node and after every rebuild,
        raising :class:`~repro.exceptions.TreeInvariantError` at the first
        violation. Expensive — meant for tests and bug hunts, not
        production scans.
    """

    #: Bumped when an insertion of any kind starts and when a rebuild
    #: starts, so an unchanged version means an unchanged tree (an index
    #: over the tree compares it in O(1)). Held as a class default, which
    #: also covers trees pickled before the counter existed.
    version = 0

    def __init__(
        self,
        policy: BirchStarPolicy,
        branching_factor: int = 15,
        max_nodes: int | None = None,
        threshold: float = 0.0,
        outlier_fraction: float | None = None,
        seed: int | np.random.Generator | None = None,
        validate: str | None = None,
    ):
        if not isinstance(policy, BirchStarPolicy):
            raise ParameterError("policy must be a BirchStarPolicy")
        self.policy = policy
        self.branching_factor = check_integer(branching_factor, "branching_factor", minimum=2)
        if max_nodes is not None:
            max_nodes = check_integer(max_nodes, "max_nodes", minimum=3)
        self.max_nodes = max_nodes
        self.threshold = check_positive(threshold, "threshold", allow_zero=True)
        if outlier_fraction is not None:
            outlier_fraction = check_positive(outlier_fraction, "outlier_fraction")
            if outlier_fraction >= 1.0:
                raise ParameterError(
                    f"outlier_fraction must be < 1, got {outlier_fraction}"
                )
        #: BIRCH-style optional outlier handling: during a rebuild, leaf
        #: clusters holding fewer than ``outlier_fraction * average`` objects
        #: are parked instead of re-inserted, freeing nodes for real
        #: clusters; :meth:`reabsorb_outliers` re-inserts them once the
        #: threshold has stabilized. ``None`` disables the feature (the
        #: BUBBLE paper does not evaluate it).
        self.outlier_fraction = outlier_fraction
        self._outliers: list[ClusterFeature] = []
        self.n_outliers_parked = 0
        if validate not in (None, "debug"):
            raise ParameterError(f'validate must be None or "debug", got {validate!r}')
        self.validate = validate
        self._rng = ensure_rng(seed)
        self.root: LeafNode | NonLeafNode = LeafNode()
        self.n_nodes = 1
        self.n_objects = 0
        self.n_rebuilds = 0
        self._split_since_audit = False

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, obj: Any) -> None:
        """Type I insertion of a single object; may trigger a rebuild."""
        with site("insert"):
            self._insert_top(None, obj)
            self.n_objects += 1
            self._enforce_budget()
        if self.validate is not None and self._split_since_audit:
            self._audit()

    def insert_feature(self, feature: ClusterFeature) -> None:
        """Type II insertion of a whole cluster (used by :meth:`rebuild`)."""
        self._insert_top(feature, self.policy.routing_object(feature))

    def insert_feature_batch(self, features: list[ClusterFeature]) -> None:
        """Type II insertion of a block of whole clusters.

        This is the merge primitive of the parallel build
        (:mod:`repro.parallel`): leaf CF*s harvested from shard trees are
        re-inserted here one at a time in a deterministic order, so the
        merged tree is reproducible run-to-run. Unlike
        :meth:`insert_feature` (which :meth:`rebuild` calls with the object
        count already on the books), this method *adds* the features'
        populations to :attr:`n_objects` and then enforces the node budget,
        so invariants and audits hold on the merged tree.
        """
        # Sum populations before inserting: a feature absorbed into an
        # earlier one from this same batch mutates that entry's n in place,
        # so summing afterwards would double-count the absorbed objects.
        total = sum(feature.n for feature in features)
        for feature in features:
            self.insert_feature(feature)
        self.n_objects += total
        self._enforce_budget()
        if self.validate is not None and self._split_since_audit:
            self._audit()

    def _enforce_budget(self) -> None:
        """Rebuild with a larger threshold until the node budget ``M`` holds."""
        if self.max_nodes is not None:
            while self.n_nodes > self.max_nodes:
                self.rebuild(suggest_next_threshold(self, self._rng))

    def _insert_top(self, feature: Any, routing_obj: Any) -> None:
        self.version += 1
        split = self._insert_into(self.root, feature, routing_obj)
        if split is not None:
            left, right = split
            new_root = NonLeafNode([NonLeafEntry(left), NonLeafEntry(right)])
            self.root = new_root
            self.n_nodes += 1
            self.policy.refresh_node(new_root)

    def _insert_into(
        self, node: Any, feature: Any, routing_obj: Any
    ) -> tuple[Any, Any] | None:
        """Insert below ``node``; return ``(left, right)`` if it split.

        Every node on the insertion path gets its
        :attr:`~repro.core.nodes.LeafNode.version` bumped; split products
        are new nodes.
        """
        node.version += 1
        if node.is_leaf:
            return self._insert_into_leaf(node, feature, routing_obj)

        dists = self.policy.nonleaf_distances(node, routing_obj)
        idx = int(np.argmin(dists))
        self.policy.on_descend(node, idx, routing_obj, feature)
        split = self._insert_into(node.entries[idx].child, feature, routing_obj)
        if split is None:
            return None
        left, right = split
        node.entries[idx] = NonLeafEntry(left)
        node.entries.insert(idx + 1, NonLeafEntry(right))
        # A child of this node split: refresh summaries at *all* entries
        # (Section 4.2.2).
        self.policy.refresh_node(node)
        if len(node.entries) > self.branching_factor:
            return self._split_nonleaf(node)
        return None

    def _insert_into_leaf(
        self, node: LeafNode, feature: Any, routing_obj: Any
    ) -> tuple[Any, Any] | None:
        if node.entries:
            dists = self.policy.leaf_distances(node, routing_obj)
            idx = int(np.argmin(dists))
            target = node.entries[idx]
            dist = float(dists[idx])
            if feature is None:
                if target.admits(routing_obj, dist, self.threshold):
                    target.absorb(routing_obj, dist)
                    self.policy.on_leaf_updated(node, target)
                    return None
            elif target.admits_feature(feature, dist, self.threshold):
                target.merge(feature)
                self.policy.on_leaf_updated(node, target)
                return None
        new_feature = feature if feature is not None else self.policy.new_leaf_feature(routing_obj)
        node.entries.append(new_feature)
        if len(node.entries) > self.branching_factor:
            return self._split_leaf(node)
        return None

    # ------------------------------------------------------------------
    # Node splitting
    # ------------------------------------------------------------------
    @staticmethod
    def _partition_by_seeds(dist_matrix: np.ndarray) -> tuple[list[int], list[int]]:
        """Pick the farthest pair as seeds; attach every other index to the
        closer seed. Returns the two index groups."""
        n = dist_matrix.shape[0]
        flat = int(np.argmax(dist_matrix))
        seed_a, seed_b = divmod(flat, n)
        if seed_a == seed_b:
            # All pairwise distances are zero; split by position.
            half = n // 2
            return list(range(half)), list(range(half, n))
        group_a, group_b = [seed_a], [seed_b]
        for i in range(n):
            if i in (seed_a, seed_b):
                continue
            if dist_matrix[i, seed_a] <= dist_matrix[i, seed_b]:
                group_a.append(i)
            else:
                group_b.append(i)
        return group_a, group_b

    def _split_leaf(self, node: LeafNode) -> tuple[LeafNode, LeafNode]:
        with site("split"):
            dm = self.policy.leaf_entry_matrix(node.entries)
        group_a, group_b = self._partition_by_seeds(dm)
        left = LeafNode([node.entries[i] for i in group_a])
        right = LeafNode([node.entries[i] for i in group_b])
        self.n_nodes += 1
        self._split_since_audit = True
        self.policy.on_leaf_split(node, left, right)
        return left, right

    def _split_nonleaf(self, node: NonLeafNode) -> tuple[NonLeafNode, NonLeafNode]:
        with site("split"):
            dm = self.policy.nonleaf_entry_distances(node)
        group_a, group_b = self._partition_by_seeds(dm)
        left = NonLeafNode([node.entries[i] for i in group_a])
        right = NonLeafNode([node.entries[i] for i in group_b])
        self.n_nodes += 1
        self._split_since_audit = True
        # Both halves are new nodes: re-derive their node-level summaries
        # (policies may reuse the old node's state instead of refreshing).
        self.policy.on_node_split(node, left, right)
        return left, right

    # ------------------------------------------------------------------
    # Rebuilding
    # ------------------------------------------------------------------
    def rebuild(self, new_threshold: float) -> None:
        """Shrink the tree by raising ``T`` and re-inserting all leaf clusters.

        Re-insertion treats each leaf cluster collectively through its CF*
        (a Type II insertion); no data objects are revisited.
        """
        if not np.isfinite(new_threshold):
            raise TreeInvariantError(
                f"rebuild threshold is not finite ({new_threshold}); the "
                "distance function returned non-finite values"
            )
        if new_threshold <= self.threshold:
            raise ParameterError(
                f"rebuild threshold must exceed the current one "
                f"({new_threshold} <= {self.threshold})"
            )
        with site("rebuild"):
            self._rebuild(new_threshold)
        if self.validate is not None:
            self._audit()

    def _rebuild(self, new_threshold: float) -> None:
        features = self.leaf_features()
        if self.outlier_fraction is not None and features:
            average = sum(f.n for f in features) / len(features)
            cutoff = self.outlier_fraction * average
            parked = [f for f in features if f.n < cutoff]
            if parked:
                features = [f for f in features if f.n >= cutoff]
                self._outliers.extend(parked)
                self.n_outliers_parked += len(parked)
        logger.debug(
            "rebuild #%d: threshold %.6g -> %.6g, re-inserting %d clusters "
            "(%d currently parked as outliers)",
            self.n_rebuilds + 1,
            self.threshold,
            new_threshold,
            len(features),
            len(self._outliers),
        )
        self.threshold = new_threshold
        self.version += 1
        self.root = LeafNode()
        self.n_nodes = 1
        self.n_rebuilds += 1
        for feature in features:
            self.insert_feature(feature)
        logger.debug(
            "rebuild #%d done: %d nodes, %d clusters",
            self.n_rebuilds,
            self.n_nodes,
            self.n_clusters,
        )

    def reabsorb_outliers(self) -> int:
        """Re-insert all parked outlier clusters; returns how many.

        Call once the data scan is complete (the threshold has stopped
        growing): parked clusters that were only noise against an immature
        threshold now merge into real clusters; genuine outliers become
        small leaf entries again.
        """
        parked, self._outliers = self._outliers, []
        for feature in parked:
            self.insert_feature(feature)
            self._enforce_budget()
        return len(parked)

    @property
    def outliers(self) -> list[ClusterFeature]:
        """Currently parked outlier clusters (empty unless outlier handling
        is enabled and a rebuild parked some)."""
        return list(self._outliers)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def nearest_leaf_feature(self, obj: Any) -> ClusterFeature:
        """Route ``obj`` down the tree and return the closest leaf cluster.

        This is the read-only counterpart of insertion — the CF*-tree's
        purpose is "to direct a new object O to the cluster closest to it"
        (Section 3.2) — and it is how the data-cleaning application labels
        records in its second scan at logarithmic rather than linear cost.
        The routing is approximate in the same way insertion is: non-leaf
        summaries may send an object to a neighbouring leaf.
        """
        node = self.root
        while not node.is_leaf:
            dists = self.policy.nonleaf_distances(node, obj)
            node = node.entries[int(np.argmin(dists))].child
        if not node.entries:
            raise ParameterError("cannot route in an empty tree")
        dists = self.policy.leaf_distances(node, obj)
        return node.entries[int(np.argmin(dists))]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def leaves(self) -> Iterator[LeafNode]:
        """Yield every leaf node, left to right."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(entry.child for entry in reversed(node.entries))

    def leaf_features(self) -> list[ClusterFeature]:
        """All leaf-level cluster features (the current sub-clusters)."""
        return [feature for leaf in self.leaves() for feature in leaf.entries]

    @property
    def n_clusters(self) -> int:
        """Number of sub-clusters currently maintained."""
        return sum(len(leaf.entries) for leaf in self.leaves())

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        height, node = 1, self.root
        while not node.is_leaf:
            node = node.entries[0].child
            height += 1
        return height

    def _audit(self) -> None:
        """Run the full invariant sanitizer (``validate="debug"`` hook)."""
        # Imported lazily: repro.analysis depends on repro.core, not vice versa.
        from repro.analysis.audit import audit_tree

        self._split_since_audit = False
        audit_tree(self, raise_on_error=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CFTree(nodes={self.n_nodes}, clusters={self.n_clusters}, "
            f"height={self.height}, T={self.threshold:.4g}, "
            f"rebuilds={self.n_rebuilds})"
        )
