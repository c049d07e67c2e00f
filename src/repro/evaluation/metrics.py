"""Quality metrics: distortion, clustroid quality, misplacement, Rand indices."""

from __future__ import annotations

import numpy as np

from repro.evaluation.matching import _check_labels, majority_mapping
from repro.exceptions import ParameterError
from repro.metrics.base import take

__all__ = [
    "distortion",
    "clustroid_quality",
    "min_possible_clustroid_quality",
    "misplaced_count",
    "rand_index",
    "adjusted_rand_index",
    "silhouette_score",
]


def distortion(points, labels, centers=None) -> float:
    """Sum of squared distances of points to their cluster centers.

    The paper's definition (Section 6.1) measures against the **centroid**
    of each discovered cluster; pass ``centers`` to measure against other
    representatives (e.g. clustroids) instead.
    """
    pts = np.asarray(points, dtype=np.float64)
    labs = np.asarray(labels, dtype=np.intp)
    if len(pts) != len(labs):
        raise ParameterError("points and labels must have equal length")
    if len(pts) == 0:
        raise ParameterError("distortion of an empty dataset is undefined")
    total = 0.0
    for cluster in np.unique(labs):
        member = pts[labs == cluster]
        ref = (
            member.mean(axis=0)
            if centers is None
            else np.asarray(centers[int(cluster)], dtype=np.float64)
        )
        diff = member - ref
        total += float(np.einsum("ij,ij->", diff, diff))
    return total


def clustroid_quality(true_centers, found_centers) -> float:
    """CQ: mean distance from each actual centroid to its closest discovered
    center (Section 6.1). Lower is better; bounded below by how close any
    dataset object can be to the centroid (see
    :func:`min_possible_clustroid_quality`)."""
    tc = np.asarray(true_centers, dtype=np.float64)
    fc = np.asarray(found_centers, dtype=np.float64)
    if tc.ndim != 2 or fc.ndim != 2 or tc.shape[1] != fc.shape[1]:
        raise ParameterError("centers must be 2-d arrays of equal dimensionality")
    if len(tc) == 0 or len(fc) == 0:
        raise ParameterError("center sets must be non-empty")
    total = 0.0
    for center in tc:
        diff = fc - center
        total += float(np.sqrt(np.einsum("ij,ij->i", diff, diff).min()))
    return total / len(tc)


def min_possible_clustroid_quality(true_centers, points, labels) -> float:
    """The floor on CQ for clustroid-producing algorithms: the mean distance
    from each actual centroid to the closest *actual point* of its cluster
    (the paper reports 0.212 for DS20d.50c.100K)."""
    tc = np.asarray(true_centers, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    labs = np.asarray(labels, dtype=np.intp)
    total = 0.0
    for cluster, center in enumerate(tc):
        member = pts[labs == cluster]
        if len(member) == 0:
            raise ParameterError(f"true cluster {cluster} has no points")
        diff = member - center
        total += float(np.sqrt(np.einsum("ij,ij->i", diff, diff).min()))
    return total / len(tc)


def misplaced_count(labels_true, labels_pred) -> int:
    """Number of records placed in the "wrong" cluster (Section 7).

    A record is counted as misplaced when its true class differs from the
    majority true class of the cluster it was assigned to.
    """
    lt, lp = _check_labels(labels_true, labels_pred)
    mapping = majority_mapping(lt, lp)
    return int(np.sum(mapping[lp] != lt))


def rand_index(labels_true, labels_pred) -> float:
    """Fraction of object pairs on which the two labelings agree."""
    lt, lp = _check_labels(labels_true, labels_pred)
    n = lt.size
    if n < 2:
        return 1.0
    same_true = lt[:, None] == lt[None, :]
    same_pred = lp[:, None] == lp[None, :]
    agree = np.triu(same_true == same_pred, k=1).sum()
    return float(agree) / (n * (n - 1) // 2)


def adjusted_rand_index(labels_true, labels_pred) -> float:
    """Rand index adjusted for chance (Hubert & Arabie)."""
    from repro.evaluation.matching import confusion_matrix

    cm = confusion_matrix(labels_true, labels_pred).astype(np.float64)
    n = cm.sum()
    sum_comb_cells = (cm * (cm - 1) / 2).sum()
    a = cm.sum(axis=1)
    b = cm.sum(axis=0)
    sum_comb_a = (a * (a - 1) / 2).sum()
    sum_comb_b = (b * (b - 1) / 2).sum()
    total_pairs = n * (n - 1) / 2
    expected = sum_comb_a * sum_comb_b / total_pairs if total_pairs else 0.0
    max_index = 0.5 * (sum_comb_a + sum_comb_b)
    if max_index == expected:
        return 1.0
    return float((sum_comb_cells - expected) / (max_index - expected))


def silhouette_score(
    metric,
    objects,
    labels,
    sample_size: int | None = 500,
    seed=None,
) -> float:
    """Mean silhouette coefficient — a quality metric that needs only ``d``.

    For each object, ``a`` is its mean distance to its own cluster's other
    members and ``b`` the smallest mean distance to another cluster; the
    silhouette is ``(b - a) / max(a, b)`` in [-1, 1]. Unlike distortion this
    works in *any* distance space (no centroids required), which makes it
    the natural internal quality measure for BUBBLE's output.

    Parameters
    ----------
    metric:
        The distance function (NCD accumulates on it).
    objects, labels:
        The clustering to score.
    sample_size:
        Objects sampled for scoring (the full computation is O(n^2) distance
        calls); ``None`` scores every object. All objects still serve as
        potential neighbours.
    seed:
        Sampling seed.
    """
    from repro.utils.rng import ensure_rng

    labs = np.asarray(labels, dtype=np.intp)
    objects = list(objects)
    if len(objects) != len(labs):
        raise ParameterError("objects and labels must have equal length")
    if len(objects) < 2:
        raise ParameterError("silhouette requires at least two objects")
    clusters: dict[int, list[int]] = {}
    for i, lab in enumerate(labs):
        clusters.setdefault(int(lab), []).append(i)
    if len(clusters) < 2:
        raise ParameterError("silhouette requires at least two clusters")

    rng = ensure_rng(seed)
    indices = np.arange(len(objects))
    if sample_size is not None and sample_size < len(objects):
        indices = rng.choice(len(objects), size=sample_size, replace=False)

    # Every gather reads a member subset of the same objects: prepare them
    # once and take the subsets from the prepared batch.
    batch = metric.prepare(objects)
    total, counted = 0.0, 0
    for i in indices:
        own = int(labs[i])
        own_members = [j for j in clusters[own] if j != i]
        if not own_members:
            continue  # singleton clusters have no defined silhouette
        obj = objects[int(i)]
        a = float(np.mean(metric.one_to_many(obj, take(batch, own_members))))
        b = np.inf
        for other, members in clusters.items():
            if other == own:
                continue
            mean_d = float(np.mean(metric.one_to_many(obj, take(batch, members))))
            b = min(b, mean_d)
        denom = max(a, b)
        total += 0.0 if denom == 0 else (b - a) / denom
        counted += 1
    if counted == 0:
        raise ParameterError("all sampled objects were singletons")
    return total / counted
