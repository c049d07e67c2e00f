"""End-to-end clustering pipelines mirroring the paper's methodology.

* :func:`cluster_dataset` — BUBBLE or BUBBLE-FM pre-clustering, a
  hierarchical global phase over the sub-cluster clustroids, and an optional
  second labeling scan (Section 6.1);
* :func:`map_first_cluster` — the **Map-First** baseline of Section 6.2:
  FastMap the whole dataset into a coordinate space, then run BIRCH on the
  image vectors;
* :func:`nearest_assignment` — the shared second-scan labeling primitive.
"""

from repro.pipelines.authority import AuthorityFile, build_authority_file
from repro.pipelines.cluster import ClusteringResult, cluster_dataset
from repro.pipelines.labeling import nearest_assignment
from repro.pipelines.map_first import map_first_cluster

__all__ = [
    "ClusteringResult",
    "cluster_dataset",
    "map_first_cluster",
    "nearest_assignment",
    "AuthorityFile",
    "build_authority_file",
]
