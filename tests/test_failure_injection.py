"""Failure injection: misbehaving metrics must fail loudly and leave
recoverable state, never corrupt results silently."""

import numpy as np
import pytest

from repro import BUBBLE, BUBBLEFM
from repro.core.bubble import BubblePolicy
from repro.core.cftree import CFTree
from repro.metrics import EuclideanDistance, FunctionDistance
from repro.metrics.base import DistanceFunction


class FlakyMetric(DistanceFunction):
    """Euclidean distance that raises after a set number of calls."""

    name = "flaky"

    def __init__(self, fail_after: int):
        super().__init__()
        self.fail_after = fail_after

    def _distance(self, a, b) -> float:
        if self._n_calls > self.fail_after:
            raise RuntimeError("metric backend went away")
        return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


class TestMetricFailures:
    def test_error_propagates_from_fit(self, rng):
        points = list(rng.normal(size=(200, 2)))
        metric = FlakyMetric(fail_after=150)
        with pytest.raises(RuntimeError, match="went away"):
            BUBBLE(metric, max_nodes=10, seed=0).fit(points)

    def test_tree_survives_failed_insert(self, rng):
        """A failed insertion aborts, but earlier state remains queryable."""
        metric = FlakyMetric(fail_after=10_000)
        policy = BubblePolicy(metric, representation_number=4, sample_size=8, seed=0)
        tree = CFTree(policy, branching_factor=4, threshold=0.5, seed=0)
        inserted = 0
        try:
            for p in rng.normal(size=(5000, 2)):
                tree.insert(p)
                inserted += 1
        except RuntimeError:
            pass
        assert 0 < inserted < 5000
        # Structure is still sound (object count may be off by the one
        # aborted insert, so verify structure manually).
        clusters = tree.leaf_features()
        assert clusters
        assert all(f.n >= 1 for f in clusters)

    def test_nan_distances_fail_loudly_not_forever(self, rng):
        """A metric emitting NaN is a contract violation; the tree must not
        loop forever (a NaN threshold once made the rebuild loop spin) —
        it either completes or raises a clear invariant error."""
        from repro.exceptions import TreeInvariantError

        calls = {"n": 0}

        def sometimes_nan(a, b):
            calls["n"] += 1
            if calls["n"] % 97 == 0:
                return float("nan")
            return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))

        metric = FunctionDistance(sometimes_nan, name="nan-metric")
        model = BUBBLE(metric, max_nodes=10, seed=0)
        try:
            model.fit(list(rng.normal(size=(300, 2))))
            assert model.tree_.n_objects == 300
        except TreeInvariantError as exc:
            assert "not finite" in str(exc)

    def test_negative_distance_contract_violation_detected(self):
        """BUBBLE trusts the metric; a negative distance shows up as a
        negative radius estimate being clamped, not as a crash."""
        metric = FunctionDistance(lambda a, b: -1.0, name="broken")
        model = BUBBLE(metric, threshold=10.0, seed=0)
        model.fit(["a", "b", "c"])
        for sub in model.subclusters_:
            assert sub.radius >= 0.0

    def test_bubble_fm_error_propagates_during_mapping(self, rng):
        points = list(rng.uniform(0, 100, size=(500, 2)))
        metric = FlakyMetric(fail_after=2_000)
        with pytest.raises(RuntimeError):
            BUBBLEFM(metric, max_nodes=8, image_dim=2, seed=0).fit(points)


class TrippedEuclidean(EuclideanDistance):
    """Euclidean distance whose hooks fail the test once ``tripped`` is set."""

    tripped = False

    def _check(self) -> None:
        assert not self.tripped, "the soundness check evaluated the metric"

    def _distance(self, a, b):
        self._check()
        return super()._distance(a, b)

    def _one_to_many(self, obj, objects):
        self._check()
        return super()._one_to_many(obj, objects)

    def _pairwise(self, objects):
        self._check()
        return super()._pairwise(objects)

    def _cross(self, objects_a, objects_b):
        self._check()
        return super()._cross(objects_a, objects_b)


class TestQuarantineSoundnessCheck:
    """Under ``on_error="quarantine"`` a failed insert is quarantined only if
    the tree is still sound; that check is structural and metric-free."""

    @pytest.mark.parametrize("damage", [False, True])
    def test_damaged_tree_reraises_instead_of_quarantining(
        self, rng, monkeypatch, damage
    ):
        points = list(rng.normal(size=(300, 2)))
        points[200] = np.array([1e6, 1e6])
        metric = TrippedEuclidean()
        calls_at_failure = []
        real_insert = CFTree.insert

        def failing_insert(tree, obj):
            if obj[0] < 1e5:
                return real_insert(tree, obj)
            if damage:
                tree.n_nodes += 1  # a node the walk will not find
            calls_at_failure.append(metric.n_calls)
            metric.tripped = True
            raise RuntimeError("insert failed mid-update")

        monkeypatch.setattr(CFTree, "insert", failing_insert)
        model = BUBBLE(metric, max_nodes=10, seed=0)
        if damage:
            with pytest.raises(RuntimeError, match="mid-update"):
                model.fit(points, on_error="quarantine")
            assert len(model.quarantine_) == 0
        else:
            model.fit(points[:201], on_error="quarantine")
            assert [r.index for r in model.quarantine_] == [200]
        assert metric.n_calls == calls_at_failure[0]


class TestObjectContract:
    def test_unhashable_objects_supported(self, rng):
        """Objects never need to be hashable (lists work)."""
        metric = FunctionDistance(
            lambda a, b: abs(sum(a) - sum(b)), name="sumdiff"
        )
        points = [[float(i), float(i % 3)] for i in range(100)]
        model = BUBBLE(metric, threshold=0.5, seed=0).fit(points)
        assert model.tree_.n_objects == 100

    def test_none_objects_rejected_by_vector_metric(self):
        from repro.exceptions import MetricError
        from repro.metrics import EuclideanDistance

        model = BUBBLE(EuclideanDistance(), seed=0)
        with pytest.raises((MetricError, TypeError, ValueError)):
            model.fit([np.zeros(2), None, np.zeros(2)])
