"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import EuclideanDistance


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def euclidean():
    return EuclideanDistance()


@pytest.fixture
def blob_data(rng):
    """Five well-separated 2-d Gaussian blobs with ground-truth labels."""
    centers = np.array(
        [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0], [5.0, 5.0]]
    )
    points, labels = [], []
    for i, c in enumerate(centers):
        pts = c + 0.3 * rng.normal(size=(60, 2))
        points.extend(pts)
        labels.extend([i] * len(pts))
    order = rng.permutation(len(points))
    points = [points[i] for i in order]
    labels = np.asarray(labels)[order]
    return points, labels, centers


@pytest.fixture
def audit():
    """Run the full CF*-tree invariant sanitizer, failing the test on errors.

    Usage: ``report = audit(tree)`` — returns the :class:`AuditReport` so
    tests can additionally inspect warnings.
    """
    from repro.analysis.audit import audit_tree

    def _audit(tree, **kwargs):
        kwargs.setdefault("raise_on_error", True)
        return audit_tree(tree, **kwargs)

    return _audit


@pytest.fixture
def tiny_strings():
    """A handful of author-name variants in three classes."""
    return (
        [
            "powell, allison l.",
            "powell, a. l.",
            "powell allison l.",
            "french, james c.",
            "french, j. c.",
            "frnech, james c.",
            "ganti, venkatesh",
            "ganti, v.",
        ],
        np.array([0, 0, 0, 1, 1, 1, 2, 2]),
    )


class InnerCountingEuclidean(EuclideanDistance):
    """Euclidean distance that counts the pairs it evaluates, in its hooks.

    The hooks sit below the library's counting wrappers, so this metric
    sees every evaluation of ``d``, counted or not. ``evals`` is a class
    total, so pickled copies (a sharded build makes one per shard) add to
    it too.
    """

    evals = 0

    def _distance(self, a, b):
        InnerCountingEuclidean.evals += 1
        return super()._distance(a, b)

    def _one_to_many(self, obj, objects):
        InnerCountingEuclidean.evals += len(objects)
        return super()._one_to_many(obj, objects)

    def _pairwise(self, objects):
        InnerCountingEuclidean.evals += len(objects) * (len(objects) - 1) // 2
        return super()._pairwise(objects)

    def _cross(self, objects_a, objects_b):
        InnerCountingEuclidean.evals += len(objects_a) * len(objects_b)
        return super()._cross(objects_a, objects_b)


@pytest.fixture
def inner_euclidean():
    """Factory for the innermost counting metric; each call resets ``evals``.

    The factory holds no state, so hypothesis tests may share it across
    examples.
    """

    def make():
        InnerCountingEuclidean.evals = 0
        return InnerCountingEuclidean()

    return make
