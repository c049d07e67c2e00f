"""Property and accounting tests for the CLARA sampled global phase.

The sampled search is only trustworthy if it is (a) a pure function of
``(objects, weights, seed, n_samples)``, (b) quality-gated against the
exact sequential CLARANS, and (c) accounted like every other phase: each
evaluation of ``d`` is counted, budgeted and guarded on the model's own
metric. These properties are pinned here; the benchmark gate
(``benchmarks/test_clara_gate.py``) re-checks (a) and (b) at paper scale.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clarans import CLARA, CLARANS
from repro.core.preclusterer import BUBBLE
from repro.datasets import make_cell_dataset
from repro.evaluation import distortion
from repro.exceptions import (
    EmptyDatasetError,
    MetricBudgetExceededError,
    NotFittedError,
    ParameterError,
)
from repro.metrics import CachedDistance, EuclideanDistance, FunctionDistance
from repro.observability import Tracer
from repro.pipelines import cluster_dataset
from repro.robustness import GuardedMetric


def _fit_clara(objects, *, seed=7, n_samples=3, tracer=None):
    metric = EuclideanDistance()
    model = CLARA(
        3,
        metric,
        n_samples=n_samples,
        sample_size=25,
        num_local=1,
        max_neighbors=20,
        seed=seed,
    )
    with tracer if tracer is not None else nullcontext():
        model.fit(objects)
    return model, metric


class TestDeterminism:
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n_samples=st.integers(min_value=1, max_value=4))
    def test_repeated_runs_bit_identical(self, seed, n_samples):
        rng = np.random.default_rng(0)
        points = list(rng.normal(size=(40, 2)))
        first, m1 = _fit_clara(points, seed=seed, n_samples=n_samples)
        second, m2 = _fit_clara(points, seed=seed, n_samples=n_samples)
        assert first.medoid_indices_ == second.medoid_indices_
        assert first.cost_ == second.cost_
        assert np.array_equal(first.labels_, second.labels_)
        assert m1.n_calls == m2.n_calls

    def test_weighted_cost_matches_manual(self, blob_data):
        points, _, _ = blob_data
        weights = np.linspace(1.0, 3.0, len(points))
        metric = EuclideanDistance()
        model = CLARA(
            3, metric, n_samples=2, sample_size=25, num_local=1,
            max_neighbors=20, seed=5,
        ).fit(points, weights=weights)
        medoids = np.asarray(model.medoids_)
        dists = np.min(
            np.linalg.norm(
                np.asarray(points)[:, None, :] - medoids[None, :, :], axis=2
            ),
            axis=1,
        )
        assert model.cost_ == pytest.approx(float(np.dot(dists, weights)), rel=1e-9)


class TestAccounting:
    def test_ledger_conservation_and_spans(self, blob_data):
        points, _, _ = blob_data
        tracer = Tracer()
        model, metric = _fit_clara(points, tracer=tracer)
        by_site = dict(tracer.by_site)
        assert sum(by_site.values()) == tracer.total == metric.n_calls
        assert by_site["global-sample"] > 0
        assert by_site["global-assign"] == 3 * 3 * len(points)
        assert by_site["global-sample"] == sum(
            s["n_calls"] for s in model.sample_summaries_
        )
        spans = tracer.span_aggregates()
        assert spans["global-sample"]["count"] == 3
        assert spans["global-assign"]["count"] == 1
        assert spans["global-assign"]["ncd"] == by_site["global-assign"]

    def test_sample_summaries_shape(self, blob_data):
        points, _, _ = blob_data
        model, _ = _fit_clara(points)
        assert len(model.sample_summaries_) == 3
        for summary in model.sample_summaries_:
            assert summary["sample_size"] == 25
            assert summary["n_calls"] > 0
        assert model.best_sample_ == int(np.argmin(model.sample_costs_))
        assert [s["full_cost"] for s in model.sample_summaries_] == model.sample_costs_

    def test_budget_caps_inner_evaluations(self, inner_euclidean):
        rng = np.random.default_rng(0)
        points = list(rng.normal(size=(300, 2)))
        budget = 20_000
        inner = inner_euclidean()
        metric = GuardedMetric(inner, max_calls=budget)
        with pytest.raises(MetricBudgetExceededError):
            CLARA(6, metric, n_samples=5, seed=0).fit(points)
        # The guard refuses the call that would overrun the budget before
        # evaluating it, so nothing runs past the cap and nothing goes
        # uncounted.
        assert inner.evals <= budget
        assert inner.evals == metric.n_calls

    def test_cached_metric_counts_every_true_evaluation(self, blob_data, inner_euclidean):
        points, _, _ = blob_data
        inner = inner_euclidean()
        metric = CachedDistance(inner)
        CLARA(3, metric, n_samples=3, sample_size=25, max_neighbors=20,
              seed=7).fit(points)
        assert metric.n_calls == inner.evals > 0


class TestQuality:
    def test_distortion_within_tolerance_of_exact_on_fig4_cell(self):
        ds = make_cell_dataset(dim=20, n_clusters=5, n_points=500, seed=50)
        points = ds.as_objects()
        results = {}
        for phase in ("clarans", "clara"):
            result = cluster_dataset(
                points,
                EuclideanDistance(),
                n_clusters=5,
                max_nodes=60,
                global_method=phase,
                global_samples=4,
                seed=50,
            )
            results[phase] = distortion(points, result.labels, result.centers)
        assert results["clara"] <= 1.05 * results["clarans"]


class TestDriverIntegration:
    def test_global_phase_method_populates_report(self, blob_data):
        points, _, _ = blob_data
        model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=3).fit(points)
        search = model.global_phase(
            3, method="clara", global_samples=2, global_sample_size=25,
            max_neighbors=20,
        )
        assert search.n_clusters_ == 3
        assert len(model.global_phase_samples_) == 2
        report = model.ingest_report_
        assert report.global_samples == 2
        assert report.global_sample_ncd == sum(
            s["n_calls"] for s in model.global_phase_samples_
        )
        assert report.global_sample_seconds > 0
        assert "global samples:" in report.format()

    def test_global_phase_exact_records_no_samples(self, blob_data):
        points, _, _ = blob_data
        model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=3).fit(points)
        search = model.global_phase(3, method="clarans", max_neighbors=20)
        assert search.n_clusters_ == 3
        assert model.global_phase_samples_ == []
        assert model.ingest_report_.global_samples == 0

    def test_global_phase_rejects_unknown_method(self, blob_data):
        points, _, _ = blob_data
        model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=3).fit(points)
        with pytest.raises(ParameterError):
            model.global_phase(3, method="pam")

    def test_stats_snapshot_carries_samples(self, blob_data):
        from repro.observability import StatsSnapshot

        points, _, _ = blob_data
        model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=3).fit(points)
        model.global_phase(3, method="clara", global_samples=2,
                           global_sample_size=25, max_neighbors=20)
        snapshot = StatsSnapshot.from_model(model)
        assert snapshot.report["global_samples"] == 2
        assert len(snapshot.global_phase_samples) == 2
        assert "global samples" in snapshot.format()
        assert snapshot.to_dict()["report"]["global_samples"] == 2


class TestValidation:
    def test_parameter_validation(self):
        metric = EuclideanDistance()
        with pytest.raises(ParameterError):
            CLARA(0, metric)
        with pytest.raises(ParameterError):
            CLARA(2, metric, n_samples=0)
        with pytest.raises(ParameterError):
            CLARA(2, metric, sample_size=0)
        with pytest.raises(ParameterError):
            CLARA(2, metric, seed=np.random.default_rng(0))

    def test_fit_validation(self, blob_data):
        points, _, _ = blob_data
        metric = EuclideanDistance()
        with pytest.raises(EmptyDatasetError):
            CLARA(2, metric).fit([])
        with pytest.raises(ParameterError):
            CLARA(5, metric).fit(list(points[:3]))
        with pytest.raises(ParameterError):
            CLARA(2, metric).fit(list(points[:10]), weights=[1.0] * 9)
        with pytest.raises(ParameterError):
            CLARA(2, metric).fit(list(points[:10]), weights=[0.0] * 10)

    def test_not_fitted(self):
        model = CLARA(2, EuclideanDistance())
        with pytest.raises(NotFittedError):
            _ = model.n_clusters_

    def test_tiny_dataset_uses_every_object(self):
        points = [np.array([float(i), 0.0]) for i in range(5)]
        model = CLARA(2, EuclideanDistance(), n_samples=2, sample_size=100,
                      max_neighbors=10, seed=1).fit(points)
        assert model.n_clusters_ == 2
        assert all(s["sample_size"] == 5 for s in model.sample_summaries_)

    def test_exact_reference_close_on_blobs(self, blob_data):
        points, _, _ = blob_data
        clara, _ = _fit_clara(points, n_samples=4)
        exact = CLARANS(3, EuclideanDistance(), num_local=1,
                        max_neighbors=20, seed=7).fit(points)
        # Same criterion (unweighted full cost): sampling may win or lose a
        # little, but stays within the gate tolerance.
        assert clara.cost_ <= 1.05 * exact.cost_

    def test_accepts_unpicklable_metric(self):
        points = [float(x) for x in np.random.default_rng(2).normal(size=60)]
        metric = FunctionDistance(lambda a, b: abs(a - b))
        model = CLARA(2, metric, n_samples=2, sample_size=20, max_neighbors=10,
                      seed=1).fit(points)
        assert model.n_clusters_ == 2
        assert metric.n_calls == sum(
            s["n_calls"] for s in model.sample_summaries_
        ) + 2 * 2 * len(points)
