"""Clustering trajectories under the discrete Fréchet distance.

The paper's thesis is that clustering should work in *any* metric space.
This example pushes past strings: the objects are 2-d trajectories
(commute-like paths), the metric is the discrete Fréchet distance (an
O(mn) dynamic program — expensive, exactly BUBBLE-FM's target regime), and
we compare three of this library's clusterers on the same space:

* BUBBLE-FM (single-scan pre-clustering),
* metric DBSCAN over the VP-tree (density view of the same data),
* plus silhouette scoring, which needs only distances.

Run:  python examples/trajectory_clustering.py
"""

from __future__ import annotations

import numpy as np

from repro import BUBBLEFM, MetricDBSCAN
from repro.evaluation import misplaced_count, silhouette_score
from repro.metrics import CachedDistance, DiscreteFrechetDistance


def make_commutes(seed: int = 0):
    """Three families of routes between landmarks, with GPS-like noise."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, 15)

    def highway():  # straight shot east
        base = np.column_stack([t * 10, np.zeros_like(t)])
        return base + 0.15 * rng.normal(size=base.shape)

    def scenic():  # an arc over the hill
        base = np.column_stack([t * 10, 5 * np.sin(np.pi * t)])
        return base + 0.15 * rng.normal(size=base.shape)

    def detour():  # dogleg through downtown
        x = t * 10
        y = np.where(t < 0.5, t * 8, (1 - t) * 8)
        return np.column_stack([x, y]) + 0.15 * rng.normal(size=(len(t), 2))

    routes, labels = [], []
    for family, make in enumerate((highway, scenic, detour)):
        for _ in range(25):
            routes.append(make())
            labels.append(family)
    order = rng.permutation(len(routes))
    return [routes[i] for i in order], np.asarray(labels)[order]


def main() -> None:
    routes, truth = make_commutes()
    print(f"{len(routes)} trajectories of {routes[0].shape[0]} points each, "
          f"3 route families")

    metric = CachedDistance(
        DiscreteFrechetDistance(), key=lambda c: np.asarray(c).tobytes()
    )

    # --- BUBBLE-FM -----------------------------------------------------
    model = BUBBLEFM(
        metric,
        image_dim=2,       # routes live on a low-dimensional shape manifold
        threshold=1.2,     # routes within Fréchet distance 1.2 merge
        seed=0,
    ).fit(routes)
    labels = model.assign(routes)
    mis = misplaced_count(truth, labels)
    sil = silhouette_score(metric, routes, labels, sample_size=None)
    print(f"\nBUBBLE-FM: {model.n_subclusters_} sub-clusters, "
          f"{mis} misplaced, silhouette {sil:.2f}, "
          f"{metric.n_calls} Fréchet evaluations")
    for sub in sorted(model.subclusters_, key=lambda s: -s.n)[:3]:
        start = np.asarray(sub.clustroid)[0]
        end = np.asarray(sub.clustroid)[-1]
        print(f"  cluster of {sub.n}: clustroid runs "
              f"({start[0]:.1f},{start[1]:.1f}) -> ({end[0]:.1f},{end[1]:.1f}), "
              f"radius {sub.radius:.2f}")

    # --- metric DBSCAN ---------------------------------------------------
    db_metric = CachedDistance(
        DiscreteFrechetDistance(), key=lambda c: np.asarray(c).tobytes()
    )
    db = MetricDBSCAN(eps=1.0, min_pts=4, metric=db_metric).fit(routes)
    print(f"\nmetric DBSCAN: {db.n_clusters_} clusters, {db.n_noise_} noise "
          f"({db_metric.n_calls} Fréchet evaluations)")
    print(f"  misplaced vs truth: {misplaced_count(truth, np.maximum(db.labels_, 0))}")

    print("\nSame library, no vector operations anywhere: the trajectories "
          "were only ever\ncompared through d(curve_a, curve_b).")


if __name__ == "__main__":
    main()
