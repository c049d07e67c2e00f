"""The classic BIRCH cluster feature, stored in BETULA's stable form.

BIRCH's paper CF is the additive triple ``(N, LS, SS)`` — point count,
vector sum, and sum of squared norms. The triple is algebraically
sufficient but numerically treacherous: every derived quantity is a
difference of squared magnitudes (``radius² = SS/N − |LS/N|²``) that
cancels catastrophically once clusters are far from the origin relative to
their spread. BETULA (Lang & Schubert, PAPERS.md) replaces the triple with
``(N, mean, SSE)`` — the running mean and the *sum of squared deviations
from the mean* — updated with Welford's recurrence per point and Chan's
parallel rule per merge, so ``radius² = SSE/N`` needs no subtraction at
all.

This module stores only the BETULA form; there is no ``(N, LS, SS)``
entry point. The SSE itself accumulates through a Neumaier compensated
accumulator (:mod:`repro.utils.numerics`), so drift stays ``O(eps)``
relative over arbitrarily long insertion streams.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import ClusterFeature
from repro.utils.numerics import CompensatedAccumulator

__all__ = ["VectorClusterFeature"]


class VectorClusterFeature(ClusterFeature):
    """Vector CF in BETULA ``(N, mean, SSE)`` form; centroid/radius in O(dim).

    The threshold requirement follows BIRCH: an insertion is admitted only
    if the cluster's *radius after the insertion* stays within ``T``
    (computable from CF algebra alone, no distance calls — Chan's merge
    rule evaluated without mutation).
    """

    __slots__ = ("n", "mean", "_sse")

    def __init__(self, obj) -> None:
        self.n = 1
        self.mean = np.asarray(obj, dtype=np.float64).copy()
        self._sse = CompensatedAccumulator()

    # ------------------------------------------------------------------
    @property
    def centroid(self) -> np.ndarray:
        return self.mean.copy()

    @property
    def clustroid(self) -> np.ndarray:
        """Alias so the framework's routing/reporting code works unchanged.

        BIRCH's cluster center is the true centroid — generally not a member
        object, which is precisely what a distance space cannot offer.
        """
        return self.centroid

    @property
    def radius(self) -> float:
        # BETULA form: radius² = SSE/N directly — no |centroid|² subtraction.
        return float(np.sqrt(max(self._sse.value, 0.0) / self.n))

    @property
    def sse(self) -> float:
        """Sum of squared deviations from the mean (BETULA's stable state)."""
        return max(self._sse.value, 0.0)

    @property
    def representatives(self) -> list:
        return [self.centroid]

    # ------------------------------------------------------------------
    def absorb(self, obj, dist_to_clustroid: float | None = None) -> None:
        # Welford: mean and SSE update without ever forming |LS|² or SS.
        vec = np.asarray(obj, dtype=np.float64)
        delta = vec - self.mean
        self.n += 1
        self.mean = self.mean + delta / self.n
        self._sse.add(float(np.dot(delta, vec - self.mean)))

    def merge(self, other: "VectorClusterFeature") -> None:
        # Chan's parallel rule: SSE = SSE₁ + SSE₂ + n₁n₂/n · |mean₂ − mean₁|².
        n = self.n + other.n
        diff = other.mean - self.mean
        self._sse.merge(other._sse)
        self._sse.add(self.n * other.n / n * float(np.dot(diff, diff)))
        self.mean = self.mean + (other.n / n) * diff
        self.n = n

    def distance_to(self, other: "VectorClusterFeature") -> float:
        return float(np.linalg.norm(self.mean - other.mean))

    # ------------------------------------------------------------------
    def admits(self, obj, dist: float, threshold: float) -> bool:
        vec = np.asarray(obj, dtype=np.float64)
        return self._radius_after(1, vec, 0.0) <= threshold

    def admits_feature(self, other: "VectorClusterFeature", dist: float, threshold: float) -> bool:
        return self._radius_after(other.n, other.mean, other.sse) <= threshold

    def _radius_after(self, dn: int, dmean: np.ndarray, dsse: float) -> float:
        """Radius of the would-be merge of ``(dn, dmean, dsse)`` into this CF,
        via Chan's rule — evaluated without mutating either side."""
        n = self.n + dn
        diff = np.asarray(dmean, dtype=np.float64) - self.mean
        sse_new = self._sse.value + dsse + self.n * dn / n * float(np.dot(diff, diff))
        return float(np.sqrt(max(sse_new, 0.0) / n))

    def copy(self) -> "VectorClusterFeature":
        dup = VectorClusterFeature.__new__(VectorClusterFeature)
        dup.n = self.n
        dup.mean = self.mean.copy()
        dup._sse = self._sse.copy()
        return dup

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorClusterFeature(n={self.n}, radius={self.radius:.4g})"
