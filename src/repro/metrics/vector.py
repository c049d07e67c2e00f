"""Minkowski-family metrics over coordinate vectors.

The paper's synthetic experiments (Section 6.1) generate k-dimensional
vectors but deliberately treat them as opaque objects: "we do not exploit the
operations specific to coordinate spaces, and treat the vectors in the
dataset merely as objects. The distance between any two objects is returned
by the Euclidean distance function." These classes implement that contract —
the tree code only ever calls ``distance``/``one_to_many`` — while the
numpy-backed batch path keeps pure-Python overhead off the critical loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.exceptions import MetricError, ParameterError
from repro.metrics.base import DistanceFunction

__all__ = [
    "MinkowskiDistance",
    "EuclideanDistance",
    "ManhattanDistance",
    "ChebyshevDistance",
    "AngularDistance",
    "CanberraDistance",
    "as_matrix",
]


def as_matrix(objects: Sequence) -> np.ndarray:
    """Stack a sequence of vectors into a 2-d float64 matrix.

    Accepts an existing 2-d array (returned as-is after dtype coercion), a
    list of 1-d arrays, or a list of tuples/lists.
    """
    mat = np.asarray(objects, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(len(objects), -1)
    if mat.ndim != 2:
        raise MetricError(
            f"vector metric expects a sequence of 1-d vectors; got shape {mat.shape}"
        )
    return mat


class _VectorMetric(DistanceFunction):
    """Base of the coordinate-vector metrics: their batch hooks read a
    stacked float64 matrix, so :meth:`prepare` stacks once up front."""

    def prepare(self, objects: Sequence) -> Sequence:
        return as_matrix(objects) if len(objects) else objects


class MinkowskiDistance(_VectorMetric):
    """The Lp metric ``d(x, y) = (sum |x_i - y_i|^p)^(1/p)`` for ``p >= 1``."""

    def __init__(self, p: float = 2.0):
        super().__init__()
        if not np.isfinite(p) or p < 1:
            raise ParameterError(f"Minkowski order p must satisfy p >= 1, got {p}")
        self.p = float(p)
        self.name = f"minkowski(p={self.p:g})"

    def _distance(self, a: Any, b: Any) -> float:
        va = np.asarray(a, dtype=np.float64)
        vb = np.asarray(b, dtype=np.float64)
        if va.ndim != 1 or vb.ndim != 1:
            raise MetricError(
                f"vector metric expects 1-d vectors, got shapes {va.shape} and {vb.shape}"
            )
        diff = np.abs(va - vb)
        if self.p == 2.0:
            return float(np.sqrt(np.dot(diff, diff)))
        if self.p == 1.0:
            return float(diff.sum())
        return float((diff**self.p).sum() ** (1.0 / self.p))

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        # A batch ``prepare`` stacked, and a float64 query vector, are used
        # as they are: re-coercing them costs more than a short row.
        if isinstance(objects, np.ndarray) and objects.ndim == 2 and objects.dtype == np.float64:
            mat = objects
        else:
            mat = as_matrix(objects)
        if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
            vec = obj
        else:
            vec = np.asarray(obj, dtype=np.float64)
        if vec.ndim != 1:
            raise MetricError(f"vector metric expects a 1-d vector, got shape {vec.shape}")
        if vec.shape[-1] != mat.shape[1]:
            raise MetricError(
                f"dimension mismatch: object has {vec.shape[-1]} coordinates, "
                f"collection has {mat.shape[1]}"
            )
        # Squaring makes |x| redundant on the Euclidean path: (-x)**2 == x**2.
        diff = mat - vec
        if self.p == 2.0:
            return np.sqrt(np.einsum("ij,ij->i", diff, diff))
        np.abs(diff, out=diff)
        if self.p == 1.0:
            return diff.sum(axis=1)
        return (diff**self.p).sum(axis=1) ** (1.0 / self.p)

    def _pairwise(self, objects: Sequence) -> np.ndarray:
        mat = as_matrix(objects)
        if self.p == 2.0:
            sq = np.einsum("ij,ij->i", mat, mat)
            gram = mat @ mat.T
            d2 = sq[:, None] + sq[None, :] - 2.0 * gram
            np.maximum(d2, 0.0, out=d2)
            np.fill_diagonal(d2, 0.0)
            return np.sqrt(d2)
        diff = np.abs(mat[:, None, :] - mat[None, :, :])
        if self.p == 1.0:
            return diff.sum(axis=2)
        return (diff**self.p).sum(axis=2) ** (1.0 / self.p)

    def _cross(self, objects_a: Sequence, objects_b: Sequence) -> np.ndarray:
        mat_a = as_matrix(objects_a)
        mat_b = as_matrix(objects_b)
        if mat_a.shape[1] != mat_b.shape[1]:
            raise MetricError(
                f"dimension mismatch: {mat_a.shape[1]} vs {mat_b.shape[1]} coordinates"
            )
        # Row-by-row |a_i - B| keeps each row bit-identical to the
        # corresponding `_one_to_many(a_i, objects_b)` result, which the
        # pruned-routing equivalence guarantee relies on.
        diff = mat_a[:, None, :] - mat_b[None, :, :]
        if self.p == 2.0:
            return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.abs(diff, out=diff)
        if self.p == 1.0:
            return diff.sum(axis=2)
        return (diff**self.p).sum(axis=2) ** (1.0 / self.p)


class EuclideanDistance(MinkowskiDistance):
    """The L2 metric; the distance function for all synthetic vector datasets."""

    def __init__(self) -> None:
        super().__init__(p=2.0)
        self.name = "euclidean"


class ManhattanDistance(MinkowskiDistance):
    """The L1 (city-block) metric."""

    def __init__(self) -> None:
        super().__init__(p=1.0)
        self.name = "manhattan"


class ChebyshevDistance(_VectorMetric):
    """The L-infinity metric ``d(x, y) = max_i |x_i - y_i|``."""

    name = "chebyshev"

    def _distance(self, a: Any, b: Any) -> float:
        diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
        return float(diff.max()) if diff.size else 0.0

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        mat = as_matrix(objects)
        vec = np.asarray(obj, dtype=np.float64)
        return np.abs(mat - vec).max(axis=1)


class AngularDistance(_VectorMetric):
    """The angle between two vectors, ``arccos(cos_sim) / pi`` in [0, 1].

    Unlike raw cosine *dissimilarity* (``1 - cos``), the angle satisfies the
    triangle inequality, so BUBBLE's pruning and threshold logic remain
    sound. Useful for direction-only data (text embeddings, spectra). Zero
    vectors are not measurable.
    """

    name = "angular"

    def _distance(self, a: Any, b: Any) -> float:
        va = np.asarray(a, dtype=np.float64)
        vb = np.asarray(b, dtype=np.float64)
        na = float(np.linalg.norm(va))
        nb = float(np.linalg.norm(vb))
        if na == 0.0 or nb == 0.0:
            raise MetricError("angular distance is undefined for zero vectors")
        cos = float(np.dot(va, vb)) / (na * nb)
        return float(np.arccos(np.clip(cos, -1.0, 1.0)) / np.pi)

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        mat = as_matrix(objects)
        vec = np.asarray(obj, dtype=np.float64)
        nv = float(np.linalg.norm(vec))
        norms = np.linalg.norm(mat, axis=1)
        if nv == 0.0 or np.any(norms == 0.0):
            raise MetricError("angular distance is undefined for zero vectors")
        cos = (mat @ vec) / (norms * nv)
        return np.arccos(np.clip(cos, -1.0, 1.0)) / np.pi


class CanberraDistance(_VectorMetric):
    """Canberra distance: ``sum_i |x_i - y_i| / (|x_i| + |y_i|)``.

    A metric that weights differences near zero heavily; common for
    non-negative count data. Terms where both coordinates are zero
    contribute nothing (the standard convention).
    """

    name = "canberra"

    def _distance(self, a: Any, b: Any) -> float:
        va = np.asarray(a, dtype=np.float64)
        vb = np.asarray(b, dtype=np.float64)
        num = np.abs(va - vb)
        den = np.abs(va) + np.abs(vb)
        mask = den > 0
        return float((num[mask] / den[mask]).sum())

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        mat = as_matrix(objects)
        vec = np.asarray(obj, dtype=np.float64)
        num = np.abs(mat - vec)
        den = np.abs(mat) + np.abs(vec)
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(den > 0, num / den, 0.0)
        return terms.sum(axis=1)
