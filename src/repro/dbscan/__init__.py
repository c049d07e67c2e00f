"""Density-based clustering for arbitrary metric spaces.

Section 2 of the paper rules DBSCAN out for distance spaces: "Since DBSCAN
relies on the R*-Tree for speed and scalability in its nearest neighbor
search queries, it cannot cluster data in a distance space." The limitation
is the *index*, not the algorithm — DBSCAN's region queries only need a
metric. This package pairs the classic DBSCAN expansion with this
repository's VP-tree (which indexes any metric space) to lift the
restriction, giving a density-based comparator for workloads where clusters
are not convex.
"""

from repro.dbscan.dbscan import NOISE, MetricDBSCAN

__all__ = ["MetricDBSCAN", "NOISE"]
