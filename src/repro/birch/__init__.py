"""Vector-space BIRCH (Zhang, Ramakrishnan & Livny, SIGMOD 1996).

The paper abstracts BIRCH into the BIRCH* framework; this package closes the
loop by *re-instantiating* BIRCH from that same framework: the classic
additive cluster feature, kept in BETULA's stable ``(N, mean, SSE)`` form,
becomes the leaf feature, and
non-leaf summaries are exact sums of their subtrees' CFs (kept exact through
the framework's ``on_descend`` hook).

BIRCH only works on coordinate-space data. In this reproduction it serves
as the clustering stage of the **Map-First** baseline (Section 6.2) and
produces the Figure 3 centroids.
"""

from repro.birch.birch import BIRCH
from repro.birch.cf import VectorClusterFeature
from repro.birch.policy import BirchVectorPolicy

__all__ = ["BIRCH", "VectorClusterFeature", "BirchVectorPolicy"]
