"""Runtime oracle: every evaluation of ``d`` is on the books.

The ``inner_euclidean`` metric (see ``conftest.py``) counts pairs where
they are really evaluated, in its uncounted implementation hooks, so it
sees every evaluation, counted through the public wrappers or not. Across
each path below, that count must equal the model's NCD plus the two
records of deliberately uncounted geometry upkeep: the routing policy's
``pruning_stats`` and the cftree index's ``build_stats``. Any other
evaluation would be invisible to the budget and the ledger.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.preclusterer import BUBBLE
from repro.pipelines import cluster_dataset


def _points(seed, n):
    rng = np.random.default_rng(seed)
    return list(rng.normal(size=(n, 3)) + 5.0 * rng.integers(0, 4, size=(n, 1)))


def _maintenance(model):
    return model.tree_.policy.pruning_stats.maintenance_evals


#: ``inner_euclidean`` is a stateless factory, safe to share across examples.
_CASES = settings(
    deadline=None, max_examples=5,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_SEEDS = st.integers(min_value=0, max_value=2**16)
_SIZES = st.integers(min_value=40, max_value=160)


class TestEveryEvaluationIsAccounted:
    @_CASES
    @given(seed=_SEEDS, n=_SIZES, method=st.sampled_from(["hac", "clarans", "clara"]))
    def test_cluster_dataset_with_assign(self, inner_euclidean, seed, n, method):
        metric = inner_euclidean()
        result = cluster_dataset(
            _points(seed, n), metric, n_clusters=4, global_method=method,
            assign=True, seed=seed, max_nodes=12,
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
