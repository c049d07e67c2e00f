"""CLARANS and FastMap fits prepare their objects once for every gather.

Each fit measures one fixed collection hundreds of times. It calls
``metric.prepare`` once and every gather reads that batch, so a vector
metric stacks its matrix once per fit and a string metric packs its lanes
once. The prepared batch holds the same float64 rows and the same strings,
so medoids, labels, costs, embeddings and counted calls are the same as
with a metric whose ``prepare`` hands the objects back unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.metrics.string as string_module
import repro.metrics.vector as vector_module
from repro.clarans.clarans import CLARANS
from repro.datasets import make_authority_dataset
from repro.fastmap import FastMap
from repro.metrics import EditDistance, EuclideanDistance
from repro.robustness import GuardedMetric


class _PlainEuclidean(EuclideanDistance):
    """Euclidean distance whose ``prepare`` returns its input unchanged."""

    def prepare(self, objects):
        return objects


class _PlainEdit(EditDistance):
    """Edit distance whose ``prepare`` returns its input unchanged."""

    def prepare(self, objects):
        return objects


def _vectors():
    rng = np.random.default_rng(7)
    return [rng.normal(size=4) for _ in range(120)]


def _strings():
    return list(make_authority_dataset(n_classes=5, n_strings=50, seed=2).strings)


#: name -> (objects, metric factories that must agree bit for bit).
CASES = {
    "vectors": (
        _vectors,
        [
            _PlainEuclidean,
            EuclideanDistance,
            lambda: GuardedMetric(EuclideanDistance()),
        ],
    ),
    "strings": (
        _strings,
        [
            _PlainEdit,
            EditDistance,
            lambda: GuardedMetric(EditDistance()),
        ],
    ),
}


def _clarans(metric, objects):
    model = CLARANS(4, metric, num_local=2, max_neighbors=40, seed=3).fit(objects)
    return (
        model.medoid_indices_,
        model.labels_.tolist(),
        model.cost_,
        metric.n_calls,
    )


def _fastmap(metric, objects):
    mapper = FastMap(metric, k=3, iterations=2, seed=5)
    embedding = mapper.fit(objects)
    return embedding.tobytes(), mapper.axis_lengths_, metric.n_calls


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("run", [_clarans, _fastmap], ids=["clarans", "fastmap"])
def test_fit_is_identical_through_every_prepare(name, run):
    make_objects, factories = CASES[name]
    objects = make_objects()
    results = [run(factory(), objects) for factory in factories]
    assert results[0][-1] > 0
    for result in results[1:]:
        assert result == results[0]


class _Counted:
    """Wraps a one-argument callable and counts the calls whose argument
    ``counts`` accepts."""

    def __init__(self, real, counts=lambda arg: True):
        self.n = 0
        self._real = real
        self._counts = counts

    def __call__(self, arg):
        if self._counts(arg):
            self.n += 1
        return self._real(arg)


@pytest.mark.parametrize("run", [_clarans, _fastmap], ids=["clarans", "fastmap"])
def test_one_fit_stacks_vectors_once(monkeypatch, run):
    # A sequence that is not yet a matrix is stacked.
    stackings = _Counted(
        vector_module.as_matrix, lambda objects: not isinstance(objects, np.ndarray)
    )
    monkeypatch.setattr(vector_module, "as_matrix", stackings)
    run(EuclideanDistance(), _vectors())
    assert stackings.n == 1


@pytest.mark.parametrize("run", [_clarans, _fastmap], ids=["clarans", "fastmap"])
def test_one_fit_packs_string_lanes_once(monkeypatch, run):
    builds = _Counted(string_module._Lanes)
    monkeypatch.setattr(string_module, "_Lanes", builds)
    run(EditDistance(), _strings())
    assert builds.n == 1
