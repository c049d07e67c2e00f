"""Distance functions over arbitrary metric spaces.

The paper's cost model treats the distance function ``d`` as a black box that
may be expensive (e.g. edit distance), so the *number of calls to d* (NCD) is
a first-class evaluation metric. Every distance function in this package
counts its calls; batch entry points (:meth:`DistanceFunction.one_to_many`,
:meth:`DistanceFunction.pairwise`) count one call per object pair while
letting vector metrics vectorize the arithmetic with numpy.
"""

from repro.metrics.base import DistanceFunction, FunctionDistance
from repro.metrics.cache import CachedDistance
from repro.metrics.discrete import DiscreteMetric, HammingDistance, JaccardDistance
from repro.metrics.string import (
    DamerauLevenshteinDistance,
    EditDistance,
    RelativeEditDistance,
    WeightedEditDistance,
    edit_distance,
)
from repro.metrics.vector import (
    AngularDistance,
    CanberraDistance,
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
)

__all__ = [
    "DistanceFunction",
    "FunctionDistance",
    "CachedDistance",
    "EuclideanDistance",
    "ManhattanDistance",
    "ChebyshevDistance",
    "AngularDistance",
    "CanberraDistance",
    "MinkowskiDistance",
    "EditDistance",
    "WeightedEditDistance",
    "DamerauLevenshteinDistance",
    "RelativeEditDistance",
    "edit_distance",
    "HammingDistance",
    "JaccardDistance",
    "DiscreteMetric",
]
