"""Runtime oracle: every evaluation of ``d`` is on the books.

The inner-counting metrics (``InnerCounting`` in ``oracles.py``) count
pairs where they are really evaluated, in their uncounted implementation
hooks, so they see every evaluation, counted through the public wrappers
or not. Across each path below, that count must equal the model's NCD plus
the two records of deliberately uncounted geometry upkeep: the routing
policy's ``pruning_stats`` and the cftree index's ``build_stats``. Any
other evaluation would be invisible to the budget and the ledger.

The paths: ``cluster_dataset`` (BUBBLE scan and rebuilds, every global
phase, centroid and weighted-medoid centers, the second scan), streaming
``partial_fit`` and index queries, a sharded build, a ``BIRCH`` fit,
``build_authority_file`` over edit distance (BUBBLE-FM scan, assignment,
canonical forms) and ``silhouette_score``. ``BIRCH`` and
``silhouette_score`` have no upkeep, so there the count must equal NCD.

The same metrics count hook dispatches, and ``TestDispatchPins`` pins
them for fixed-seed runs: a batched gather turned into a loop of scalar
calls keeps NCD but multiplies dispatches.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import InnerCounting, InnerCountingRelativeEditDistance
from repro.birch import BIRCH
from repro.core.preclusterer import BUBBLE, BUBBLEFM
from repro.datasets import make_authority_dataset
from repro.evaluation.metrics import silhouette_score
from repro.pipelines import build_authority_file, cluster_dataset
from repro.red import REDClusterer


def _points(seed, n):
    rng = np.random.default_rng(seed)
    return list(rng.normal(size=(n, 3)) + 5.0 * rng.integers(0, 4, size=(n, 1)))


def _maintenance(model):
    stats = getattr(model.tree_.policy, "pruning_stats", None)
    return 0 if stats is None else stats.maintenance_evals


#: ``inner_euclidean`` is a stateless factory, safe to share across examples.
_CASES = settings(
    deadline=None, max_examples=5,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_SEEDS = st.integers(min_value=0, max_value=2**16)
_SIZES = st.integers(min_value=40, max_value=160)


class TestEveryEvaluationIsAccounted:
    @_CASES
    @given(
        seed=_SEEDS, n=_SIZES, method=st.sampled_from(["hac", "clarans", "clara"]),
        centers=st.sampled_from(["centroid", "medoid"]),
    )
    def test_cluster_dataset_with_assign(self, inner_euclidean, seed, n, method, centers):
        metric = inner_euclidean()
        result = cluster_dataset(
            _points(seed, n), metric, n_clusters=4, global_method=method,
            center_method=centers, assign=True, seed=seed, max_nodes=12,
        )
        assert metric.evals == metric.n_calls + _maintenance(result.model)

    @_CASES
    @given(seed=_SEEDS, n=_SIZES)
    def test_partial_fit_then_index_queries(self, inner_euclidean, seed, n):
        points = _points(seed, n)
        metric = inner_euclidean()
        model = BUBBLE(metric, max_nodes=12, seed=seed)
        for start in range(0, n, 40):
            model.partial_fit(points[start:start + 40])
        assert metric.evals == metric.n_calls + _maintenance(model)
        index = model.index()
        index.nearest(points[0], k=3)
        index.within(points[-1], 1.0)
        assert metric.evals == (
            metric.n_calls + _maintenance(model) + index.build_stats.maintenance_evals
        )

    @_CASES
    @given(seed=_SEEDS, n=_SIZES)
    def test_sharded_fit(self, inner_euclidean, seed, n):
        metric = inner_euclidean()
        model = BUBBLE(metric, max_nodes=12, seed=seed, n_jobs=1, n_shards=2)
        model.fit(_points(seed, n))
        assert metric.evals == metric.n_calls + _maintenance(model)

    @_CASES
    @given(seed=_SEEDS, n=_SIZES)
    def test_birch_fit(self, inner_euclidean, seed, n):
        metric = inner_euclidean()
        model = BIRCH(max_nodes=12, seed=seed, metric=metric)
        model.fit(_points(seed, n))
        assert metric.n_calls > 0
        assert metric.evals == metric.n_calls

    @_CASES
    @given(seed=_SEEDS, n=_SIZES)
    def test_silhouette_score(self, inner_euclidean, seed, n):
        metric = inner_euclidean()
        points = _points(seed, n)
        labels = np.arange(n) % 3
        silhouette_score(metric, points, labels, sample_size=20, seed=seed)
        assert metric.evals == metric.n_calls > 0

    @_CASES
    @given(seed=_SEEDS, assignment=st.sampled_from(["tree", "linear"]))
    def test_authority_file(self, inner_edit_distance, seed, assignment):
        records = make_authority_dataset(n_classes=8, n_strings=60, seed=seed).strings
        metric = inner_edit_distance()
        models = []

        class Recording(BUBBLEFM):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

        with mock.patch("repro.pipelines.authority.BUBBLEFM", Recording):
            build_authority_file(
                records, metric, cache=False, assignment=assignment, seed=seed, max_nodes=10,
            )
        (model,) = models
        assert metric.evals == metric.n_calls + _maintenance(model)


class TestDispatchPins:
    """Fixed-seed runs pin NCD and hook dispatches exactly.

    The clustering run is small enough to rebuild several times, so exact
    feature merges run, then the global phase, the centers and the second
    scan. The authority run covers BUBBLE-FM, the exhaustive
    ``assign(via="linear")`` and the canonical forms; the RED run covers
    the leader scan and its relabeling. The NCD pin alone misses a batched
    gather rewritten as a loop of scalar calls; the dispatch pin catches
    it. A change that moves either number on purpose updates the pin and
    says why.
    """

    #: (global_method, center_method) -> (NCD, dispatches) for 300 points,
    #: max_nodes=12, seed 1.
    PINS = {
        ("hac", "centroid"): (14_837, 2_241),
        ("hac", "medoid"): (16_247, 2_313),
        ("clarans", "centroid"): (131_009, 3_889),
        ("clara", "medoid"): (266_480, 7_554),
    }

    @pytest.mark.parametrize("method,centers", sorted(PINS))
    def test_cluster_dataset(self, inner_euclidean, method, centers):
        metric = inner_euclidean()
        cluster_dataset(
            _points(1, 300), metric, n_clusters=4, global_method=method,
            center_method=centers, seed=1, max_nodes=12,
        )
        assert (metric.n_calls, metric.dispatches) == self.PINS[method, centers]

    def test_authority_file(self, inner_edit_distance):
        records = make_authority_dataset(n_classes=8, n_strings=60, seed=1).strings
        metric = inner_edit_distance()
        build_authority_file(
            records, metric, cache=False, assignment="linear", seed=1, max_nodes=10,
        )
        assert (metric.n_calls, metric.dispatches) == (2_473, 542)

    def test_red_leader(self):
        InnerCounting.reset()
        metric = InnerCountingRelativeEditDistance()
        records = make_authority_dataset(n_classes=8, n_strings=60, seed=1).strings
        REDClusterer(threshold=0.3, metric=metric).fit(records).assign(records[:10])
        assert (metric.n_calls, metric.dispatches) == (470, 40)
