"""repro — clustering large datasets in arbitrary metric spaces.

A production-quality reimplementation of the ICDE 1999 paper by Ganti,
Ramakrishnan, Gehrke, Powell and French: the BIRCH* framework and its two
distance-space instantiations **BUBBLE** and **BUBBLE-FM**, together with
every substrate the paper's evaluation depends on (FastMap, vector-space
BIRCH, hierarchical global clustering, synthetic workload generators, the
RED data-cleaning comparator, and the evaluation metrics distortion /
clustroid quality / NCD).

Quickstart
----------
>>> from repro import BUBBLE
>>> from repro.metrics import EuclideanDistance
>>> import numpy as np
>>> data = list(np.random.default_rng(0).normal(size=(500, 2)))
>>> model = BUBBLE(EuclideanDistance(), max_nodes=30, seed=0).fit(data)
>>> len(model.subclusters_) > 0
True
"""

from repro.birch import BIRCH
from repro.exceptions import (
    DeadlineExceededError,
    MetricBudgetExceededError,
    QuarantineOverflowError,
    ReproError,
)
from repro.robustness import (
    FaultInjector,
    FlakyMetric,
    GuardedMetric,
    IngestReport,
    Quarantine,
)
from repro.clarans import CLARANS
from repro.dbscan import MetricDBSCAN
from repro.core import BUBBLE, BUBBLEFM, CFTree, PreClusterer, SubCluster
from repro.fastmap import FastMap
from repro.hac import AgglomerativeClusterer
from repro.index import MetricIndex, QueryResult, available_backends, make_index
from repro.metrics import (
    DistanceFunction,
    EditDistance,
    EuclideanDistance,
    FunctionDistance,
)
from repro.pipelines import cluster_dataset, map_first_cluster, nearest_assignment
from repro.red import REDClusterer

__version__ = "1.0.0"

__all__ = [
    "BUBBLE",
    "BUBBLEFM",
    "BIRCH",
    "CLARANS",
    "MetricDBSCAN",
    "REDClusterer",
    "AgglomerativeClusterer",
    "CFTree",
    "PreClusterer",
    "SubCluster",
    "FastMap",
    "MetricIndex",
    "QueryResult",
    "make_index",
    "available_backends",
    "DistanceFunction",
    "FunctionDistance",
    "EuclideanDistance",
    "EditDistance",
    "cluster_dataset",
    "map_first_cluster",
    "nearest_assignment",
    "GuardedMetric",
    "FlakyMetric",
    "FaultInjector",
    "IngestReport",
    "Quarantine",
    "ReproError",
    "MetricBudgetExceededError",
    "DeadlineExceededError",
    "QuarantineOverflowError",
    "__version__",
]
