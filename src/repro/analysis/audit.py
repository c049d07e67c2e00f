"""CF*-tree invariant sanitizer.

:func:`audit_tree` walks a live :class:`~repro.core.cftree.CFTree` and
verifies the invariants the paper states and the implementation relies
on:

* **structure** — uniform leaf depth (height balance), at most ``B``
  entries per node, no empty non-leaf nodes, and the tree's ``n_nodes``
  / ``n_objects`` accounting matching a fresh walk;
* **leaf CF* internal consistency** (Section 4.1, Lemma 4.2,
  Observation 1) — representative/RowSum arrays in step, the clustroid
  minimizing RowSum among kept representatives, non-negative RowSums, a
  finite radius with ``r = sqrt(RowSum(clustroid) / n)``, and — for
  clusters still in exact mode — RowSums matching a from-scratch
  recomputation over the kept members;
* **non-leaf summaries** (Section 4.2) — every entry carrying a
  non-empty sample set, the node-level sample cache consistent with the
  per-entry samples, and BUBBLE-FM image-space caches whose centroids
  match the cached image vectors;
* **threshold sanity** — ``T`` finite and non-negative; co-located leaf
  clusters closer than ``T`` are reported as *warnings* (legal under
  insertion order and clustroid drift, but worth eyeballing).

Violations carry the offending node path (``root.child[2].entry[0]``).
Audits are **NCD-neutral**: they measure distances through the raw
metric hook so the paper's cost accounting is not perturbed — the one
sanctioned use of that bypass outside ``metrics/base.py``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.features import BubbleClusterFeature, ClusterFeature
from repro.exceptions import TreeInvariantError
from repro.metrics.base import DistanceFunction

__all__ = ["AuditIssue", "AuditReport", "audit_tree"]


def _uncounted_distance(metric: DistanceFunction, a: Any, b: Any) -> float:
    # The audit must not perturb NCD (the paper's headline cost metric),
    # so it deliberately bypasses the counted wrappers.
    return float(metric._distance(a, b))  # NCD-neutral audit


@dataclass(frozen=True)
class AuditIssue:
    """One invariant finding at a tree location."""

    #: ``"error"`` for a broken invariant, ``"warning"`` for a legal but
    #: suspicious state (e.g. clustroid drift artifacts).
    severity: str
    #: Short identifier of the check, e.g. ``"branching"``, ``"clustroid"``.
    check: str
    #: Node/entry path from the root, e.g. ``"root.child[1].entry[3]"``.
    path: str
    #: Human-readable description.
    message: str

    def format(self) -> str:
        return f"[{self.severity}] {self.check} at {self.path}: {self.message}"


@dataclass
class AuditReport:
    """Outcome of one :func:`audit_tree` pass."""

    issues: list[AuditIssue] = field(default_factory=list)
    #: Nodes walked (compared against the tree's own counter).
    n_nodes: int = 0
    #: Leaf cluster features inspected.
    n_features: int = 0

    @property
    def errors(self) -> list[AuditIssue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> list[AuditIssue]:
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity issue was found."""
        return not self.errors

    def format(self) -> str:
        if not self.issues:
            return (
                f"audit clean: {self.n_nodes} nodes, "
                f"{self.n_features} leaf features checked"
            )
        return "\n".join(issue.format() for issue in self.issues)

    def raise_if_failed(self) -> None:
        """Raise :class:`TreeInvariantError` when any error was recorded."""
        errors = self.errors
        if errors:
            head = errors[0]
            raise TreeInvariantError(
                f"CF*-tree audit failed with {len(errors)} error(s); first: "
                f"{head.check} at {head.path}: {head.message}"
            )


class _TreeAuditor:
    def __init__(
        self,
        tree: Any,
        *,
        recompute_exact: bool,
        check_samples: bool,
        check_threshold: bool,
        tolerance: float,
    ) -> None:
        self.tree = tree
        self.recompute_exact = recompute_exact
        self.check_samples = check_samples
        self.check_threshold = check_threshold
        self.tolerance = tolerance
        self.report = AuditReport()
        self.metric: DistanceFunction | None = getattr(tree.policy, "metric", None)

    # ------------------------------------------------------------------
    def _error(self, check: str, path: str, message: str) -> None:
        self.report.issues.append(AuditIssue("error", check, path, message))

    def _warn(self, check: str, path: str, message: str) -> None:
        self.report.issues.append(AuditIssue("warning", check, path, message))

    # ------------------------------------------------------------------
    def run(self) -> AuditReport:
        tree = self.tree
        if not math.isfinite(tree.threshold) or tree.threshold < 0:
            self._error(
                "threshold", "root",
                f"threshold T={tree.threshold!r} must be finite and >= 0",
            )
        leaf_depths: set[int] = set()
        n_walked = 0
        total_objects = 0
        stack: list[tuple[Any, str, int]] = [(tree.root, "root", 1)]
        while stack:
            node, path, depth = stack.pop()
            n_walked += 1
            if len(node.entries) > tree.branching_factor:
                self._error(
                    "branching", path,
                    f"{len(node.entries)} entries exceed B={tree.branching_factor}",
                )
            if node.is_leaf:
                leaf_depths.add(depth)
                total_objects += sum(f.n for f in node.entries)
                self._audit_leaf(node, path)
            else:
                if not node.entries:
                    self._error("structure", path, "non-leaf node with no entries")
                if self.check_samples:
                    self._audit_nonleaf(node, path)
                for i, entry in enumerate(node.entries):
                    child = getattr(entry, "child", None)
                    if child is None:
                        self._error(
                            "structure", f"{path}.child[{i}]",
                            "non-leaf entry without a child node",
                        )
                        continue
                    stack.append((child, f"{path}.child[{i}]", depth + 1))
        if len(leaf_depths) > 1:
            self._error(
                "leaf-depth", "root",
                f"leaves at unequal depths {sorted(leaf_depths)}; the CF*-tree "
                "must stay height-balanced",
            )
        if n_walked != tree.n_nodes:
            self._error(
                "node-count", "root",
                f"tree.n_nodes={tree.n_nodes} but the walk found {n_walked} nodes",
            )
        total_objects += sum(f.n for f in getattr(tree, "_outliers", []))
        if total_objects != tree.n_objects:
            self._error(
                "object-count", "root",
                f"leaf features plus parked outliers hold {total_objects} "
                f"objects, expected n_objects={tree.n_objects}",
            )
        self.report.n_nodes = n_walked
        return self.report

    # ------------------------------------------------------------------
    # Leaf level
    # ------------------------------------------------------------------
    def _audit_leaf(self, node: Any, path: str) -> None:
        for j, feature in enumerate(node.entries):
            self.report.n_features += 1
            fpath = f"{path}.entry[{j}]"
            if isinstance(feature, BubbleClusterFeature):
                self._audit_bubble_feature(feature, fpath)
            elif isinstance(feature, ClusterFeature):
                self._audit_generic_feature(feature, fpath)
        if self.check_threshold and self.metric is not None and len(node.entries) >= 2:
            self._audit_leaf_separation(node, path)

    def _audit_generic_feature(self, feature: ClusterFeature, fpath: str) -> None:
        if feature.n < 1:
            self._error("feature-count", fpath, f"cluster with n={feature.n} < 1")
        radius = feature.radius
        if not math.isfinite(radius) or radius < 0:
            self._error("radius", fpath, f"radius {radius!r} is not finite and >= 0")

    def _audit_bubble_feature(self, feature: BubbleClusterFeature, fpath: str) -> None:
        reps = feature._reps
        # Effective (compensated) RowSums — the values every maintenance
        # decision is made against; raw RowSum plus compensation.
        rowsums = feature.rowsums
        idx = feature._clustroid_idx
        tol = self.tolerance
        if not reps or len(reps) != len(rowsums):
            self._error(
                "feature-shape", fpath,
                f"{len(reps)} representatives vs {len(rowsums)} RowSums",
            )
            return
        if not 0 <= idx < len(reps):
            self._error(
                "clustroid", fpath,
                f"clustroid index {idx} outside the representative array",
            )
            return
        if feature.n < 1:
            self._error("feature-count", fpath, f"cluster with n={feature.n} < 1")
        if feature.exact and feature.n != len(reps):
            self._error(
                "feature-count", fpath,
                f"exact cluster keeps all members, but n={feature.n} != "
                f"{len(reps)} representatives",
            )
        if not feature.exact and feature.n < len(reps):
            self._error(
                "feature-count", fpath,
                f"n={feature.n} smaller than the {len(reps)} kept representatives",
            )
        if len(reps) > feature.rep_cap:
            self._error(
                "feature-shape", fpath,
                f"{len(reps)} representatives exceed the 2p cap {feature.rep_cap}",
            )
        scale = max(1.0, max(abs(r) for r in rowsums))
        for r in rowsums:
            if not math.isfinite(r) or r < -tol * scale:
                self._error(
                    "rowsum", fpath,
                    f"RowSum {r!r} is negative or non-finite",
                )
                break
        # Lemma 4.2 / Definition 4.1: the clustroid minimizes RowSum over
        # the kept representatives (ties broken arbitrarily).
        min_rowsum = min(rowsums)
        if rowsums[idx] > min_rowsum + tol * scale:
            self._error(
                "clustroid", fpath,
                f"clustroid RowSum {rowsums[idx]:.6g} does not minimize the "
                f"representative RowSums (min {min_rowsum:.6g})",
            )
        # Definition 4.3: r = sqrt(RowSum(clustroid) / n).
        expected_radius = math.sqrt(max(rowsums[idx], 0.0) / feature.n)
        radius = feature.radius
        if not math.isfinite(radius) or abs(radius - expected_radius) > tol * max(
            1.0, expected_radius
        ):
            self._error(
                "radius", fpath,
                f"radius {radius!r} != sqrt(RowSum(clustroid)/n) = "
                f"{expected_radius:.6g}",
            )
        if (
            self.recompute_exact
            and feature.exact
            and len(reps) >= 2
            and self.metric is not None
        ):
            self._recompute_exact_rowsums(feature, fpath)

    def _recompute_exact_rowsums(self, feature: BubbleClusterFeature, fpath: str) -> None:
        """While a cluster is exact every member is kept and every RowSum is
        exact — so a from-scratch recomputation must agree (stale-RowSum
        detection)."""
        assert self.metric is not None
        reps = feature._reps
        # One raw-hook gather for the whole member set (NCD-neutral), then a
        # vectorized row reduction — no scalar distance loop.
        dists = self.metric._pairwise(reps)  # NCD-neutral audit
        fresh = (np.asarray(dists, dtype=np.float64) ** 2).sum(axis=1)
        stored = np.asarray(feature.rowsums, dtype=np.float64)
        scale = max(1.0, float(fresh.max()))
        bad = np.flatnonzero(np.abs(fresh - stored) > self.tolerance * scale)
        if bad.size:
            k = int(bad[0])
            self._error(
                "rowsum-stale", fpath,
                f"stored RowSum[{k}]={stored[k]:.6g} but recomputation over the "
                f"kept members gives {fresh[k]:.6g}",
            )

    def _audit_leaf_separation(self, node: Any, path: str) -> None:
        """Warning-level: two clusters in one leaf closer than ``T`` suggest
        a missed merge. Legal (the threshold test ran against an older
        clustroid), but a cluster-quality smell worth surfacing."""
        assert self.metric is not None
        threshold = self.tree.threshold
        if threshold <= 0:
            return
        entries = node.entries
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                d = _uncounted_distance(
                    self.metric, entries[a].clustroid, entries[b].clustroid
                )
                if d < threshold * (1.0 - self.tolerance):
                    self._warn(
                        "threshold", f"{path}.entry[{a}]",
                        f"clustroids of entries {a} and {b} are {d:.6g} apart, "
                        f"inside T={threshold:.6g} (clustroid drift after the "
                        "admission test)",
                    )

    # ------------------------------------------------------------------
    # Non-leaf level
    # ------------------------------------------------------------------
    def _audit_nonleaf(self, node: Any, path: str) -> None:
        summaries: list[Sequence[Any]] = []
        have_samples = True
        for i, entry in enumerate(node.entries):
            summary = getattr(entry, "summary", None)
            if isinstance(summary, list):
                if not summary:
                    self._error(
                        "samples", f"{path}.child[{i}]",
                        "non-leaf entry carries an empty sample set",
                    )
                summaries.append(summary)
            else:
                # Policies without object samples (e.g. vector BIRCH's
                # additive CFs) are outside this check's scope.
                have_samples = False
        if not have_samples or not summaries:
            return
        self._audit_sample_cache(node, path, summaries)
        for i, entry in enumerate(node.entries):
            self._audit_sample_provenance(entry, f"{path}.child[{i}]")

    def _audit_sample_cache(
        self, node: Any, path: str, summaries: list[Sequence[Any]]
    ) -> None:
        cache = getattr(node, "aux", None)
        if cache is None:
            return  # lazily rebuilt on first routing; absence is legal
        flat = getattr(cache, "flat", None)
        offsets = getattr(cache, "offsets", None)
        if flat is None or offsets is None:
            return
        expected = [obj for summary in summaries for obj in summary]
        if len(offsets) != len(summaries) + 1 or list(offsets) != [
            sum(len(s) for s in summaries[:k]) for k in range(len(summaries) + 1)
        ]:
            self._error(
                "sample-cache", path,
                f"cached sample offsets {list(offsets)!r} disagree with the "
                f"entry sample sizes {[len(s) for s in summaries]}",
            )
            return
        if len(flat) != len(expected) or any(
            a is not b for a, b in zip(flat, expected)
        ):
            self._error(
                "sample-cache", path,
                "cached flat sample list is not the concatenation of the "
                "entry sample sets",
            )
            return
        self._audit_image_cache(node, path, cache)

    def _audit_image_cache(self, node: Any, path: str, cache: Any) -> None:
        mapper = getattr(cache, "mapper", None)
        images = getattr(cache, "images", None)
        centroids = getattr(cache, "centroids", None)
        if mapper is None or images is None or centroids is None:
            return
        n_flat = len(cache.flat)
        if images.shape[0] != n_flat:
            self._error(
                "image-cache", path,
                f"{images.shape[0]} cached image vectors for {n_flat} samples",
            )
            return
        if centroids.shape[0] != len(node.entries):
            self._error(
                "image-cache", path,
                f"{centroids.shape[0]} image centroids for "
                f"{len(node.entries)} entries",
            )
            return
        offsets = cache.offsets
        for i in range(len(node.entries)):
            segment = images[int(offsets[i]): int(offsets[i + 1])]
            if segment.size == 0:
                continue
            want = segment.mean(axis=0)
            if not np.allclose(centroids[i], want, rtol=1e-9, atol=self.tolerance):
                self._error(
                    "image-cache", f"{path}.child[{i}]",
                    "image centroid disagrees with the mean of the cached "
                    "sample images",
                )

    def _audit_sample_provenance(self, entry: Any, path: str) -> None:
        """Samples are drawn from descendant leaves at refresh time
        (Section 4.2.1); Type-I insertions may later replace the sampled
        objects inside their features, so a miss is a *warning* (staleness),
        not an error."""
        summary = getattr(entry, "summary", None)
        child = getattr(entry, "child", None)
        if not summary or child is None:
            return
        pool_ids = {id(obj) for obj in self._descendant_representatives(child)}
        missing = sum(1 for obj in summary if id(obj) not in pool_ids)
        if missing:
            self._warn(
                "sample-stale", path,
                f"{missing}/{len(summary)} sample objects are no longer held "
                "by the descendant leaf features (expected drift under "
                "Type-I insertions since the last refresh)",
            )

    def _descendant_representatives(self, node: Any) -> Iterator[Any]:
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                for feature in current.entries:
                    reps = getattr(feature, "_reps", None)
                    if reps is not None:
                        yield from reps
                    else:
                        yield feature.clustroid
            else:
                stack.extend(e.child for e in current.entries)


def audit_tree(
    tree: Any,
    *,
    recompute_exact: bool = True,
    check_samples: bool = True,
    check_threshold: bool = True,
    tolerance: float = 1e-6,
    raise_on_error: bool = True,
) -> AuditReport:
    """Audit a live CF*-tree; return the report, raising on broken invariants.

    Parameters
    ----------
    tree:
        A :class:`~repro.core.cftree.CFTree` (any policy; BUBBLE-specific
        checks activate when the features/summaries match).
    recompute_exact:
        Recompute the RowSums of exact-mode clusters from scratch and
        compare (catches stale RowSums). Costs uncounted distance
        evaluations over at most ``2p`` members per exact cluster.
    check_samples:
        Verify non-leaf sample sets, node-level sample caches, and
        BUBBLE-FM image-space caches.
    check_threshold:
        Verify ``T`` itself and emit warnings for co-located leaf
        clusters closer than ``T``.
    tolerance:
        Relative tolerance for floating-point comparisons.
    raise_on_error:
        Raise :class:`~repro.exceptions.TreeInvariantError` naming the
        offending node path when any error-severity issue is found;
        pass ``False`` to inspect the report instead.

    All distance evaluations performed by the audit bypass NCD counting,
    so auditing never changes reported experiment costs.
    """
    auditor = _TreeAuditor(
        tree,
        recompute_exact=recompute_exact,
        check_samples=check_samples,
        check_threshold=check_threshold,
        tolerance=tolerance,
    )
    report = auditor.run()
    if raise_on_error:
        report.raise_if_failed()
    return report
