"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import InnerCounting, InnerCountingEditDistance, InnerCountingEuclidean
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


@pytest.fixture
def inner_euclidean():
    """Factory for the innermost counting metric; each call resets the
    totals.

    The factory holds no state, so hypothesis tests may share it across
    examples.
    """

    def make():
        InnerCounting.reset()
        return InnerCountingEuclidean()

    return make


@pytest.fixture
def inner_edit_distance():
    """Like :func:`inner_euclidean`, over strings."""

    def make():
        InnerCounting.reset()
        return InnerCountingEditDistance()

    return make
