"""Unit tests for Minkowski-family vector metrics."""

import numpy as np
import pytest

from repro.exceptions import MetricError, ParameterError
from repro.metrics import (
    AngularDistance,
    CanberraDistance,
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
)
from repro.metrics.base import DistanceFunction

#: Every shipped vector metric; each overrides ``prepare``.
VECTOR_METRICS = [
    EuclideanDistance,
    ManhattanDistance,
    lambda: MinkowskiDistance(3.0),
    ChebyshevDistance,
    AngularDistance,
    CanberraDistance,
]


class TestEuclidean:
    def test_known_value(self):
        m = EuclideanDistance()
        assert m.distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_zero_distance(self):
        m = EuclideanDistance()
        assert m.distance([1.5, -2.0], [1.5, -2.0]) == 0.0

    def test_one_to_many_matches_scalar(self):
        m = EuclideanDistance()
        rng = np.random.default_rng(0)
        obj = rng.normal(size=5)
        others = list(rng.normal(size=(10, 5)))
        batch = m.one_to_many(obj, others)
        scalars = [m._distance(obj, o) for o in others]
        np.testing.assert_allclose(batch, scalars)

    def test_one_to_many_accepts_2d_array(self):
        m = EuclideanDistance()
        mat = np.arange(12, dtype=float).reshape(4, 3)
        out = m.one_to_many(np.zeros(3), mat)
        assert out.shape == (4,)

    def test_dimension_mismatch_raises(self):
        m = EuclideanDistance()
        with pytest.raises(MetricError):
            m.one_to_many(np.zeros(2), [np.zeros(3)])

    def test_pairwise_matches_scalar(self):
        m = EuclideanDistance()
        rng = np.random.default_rng(1)
        pts = list(rng.normal(size=(8, 3)))
        dm = m.pairwise(pts)
        for i in range(8):
            for j in range(8):
                assert dm[i, j] == pytest.approx(m._distance(pts[i], pts[j]), abs=1e-9)

    def test_pairwise_no_negative_sqrt(self):
        # Identical points can yield tiny negative d^2 from cancellation.
        m = EuclideanDistance()
        pts = [np.array([1e8, 1e8])] * 3
        dm = m.pairwise(pts)
        assert np.all(np.isfinite(dm))
        assert np.all(dm >= 0)


class TestManhattanChebyshev:
    def test_manhattan_known(self):
        assert ManhattanDistance().distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev_known(self):
        assert ChebyshevDistance().distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_chebyshev_batch_matches_scalar(self):
        m = ChebyshevDistance()
        rng = np.random.default_rng(2)
        obj = rng.normal(size=4)
        others = list(rng.normal(size=(6, 4)))
        np.testing.assert_allclose(
            m.one_to_many(obj, others), [m._distance(obj, o) for o in others]
        )


class TestMinkowski:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_batch_matches_scalar(self, p):
        m = MinkowskiDistance(p)
        rng = np.random.default_rng(3)
        obj = rng.normal(size=4)
        others = list(rng.normal(size=(7, 4)))
        np.testing.assert_allclose(
            m.one_to_many(obj, others),
            [m._distance(obj, o) for o in others],
            rtol=1e-9,
        )

    def test_rejects_p_below_one(self):
        with pytest.raises(ParameterError):
            MinkowskiDistance(0.5)

    def test_rejects_nan_p(self):
        with pytest.raises(ParameterError):
            MinkowskiDistance(float("nan"))

    def test_p_order_monotone(self):
        # For the same pair, Lp distance is non-increasing in p.
        a, b = np.zeros(4), np.ones(4)
        d = [MinkowskiDistance(p).distance(a, b) for p in (1, 2, 4)]
        assert d[0] >= d[1] >= d[2]

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_pairwise_general_p(self, p):
        m = MinkowskiDistance(p)
        rng = np.random.default_rng(4)
        pts = list(rng.normal(size=(5, 3)))
        dm = m.pairwise(pts)
        assert dm[1, 2] == pytest.approx(m._distance(pts[1], pts[2]))


class TestPreparedBatches:
    """``prepare`` stacks once; every counted method must return the same
    bytes and count the same calls over the batch, or a slice of it, as
    over the original list."""

    @pytest.fixture
    def objs(self):
        return list(np.random.default_rng(5).uniform(-2.0, 3.0, size=(9, 4)))

    @pytest.mark.parametrize("factory", VECTOR_METRICS)
    def test_overrides_prepare_with_a_matrix(self, factory, objs):
        metric = factory()
        assert type(metric).prepare is not DistanceFunction.prepare
        batch = metric.prepare(objs)
        assert isinstance(batch, np.ndarray) and batch.shape == (9, 4)
        assert metric.prepare([]) == []
        assert metric.n_calls == 0

    @pytest.mark.parametrize("factory", VECTOR_METRICS)
    def test_batch_and_slices_match_lists(self, factory, objs):
        on_list, on_batch = factory(), factory()
        batch = on_batch.prepare(objs)
        query = objs[0] + 0.25
        for lo, hi in ((0, 9), (2, 3), (4, 9)):
            assert (
                on_list.one_to_many(query, objs[lo:hi]).tobytes()
                == on_batch.one_to_many(query, batch[lo:hi]).tobytes()
            )
        assert (
            on_list.cross(objs[:3], objs[3:]).tobytes()
            == on_batch.cross(batch[:3], batch[3:]).tobytes()
        )
        assert on_list.pairwise(objs).tobytes() == on_batch.pairwise(batch).tobytes()
        assert on_list.n_calls == on_batch.n_calls

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_minkowski_prepared_inputs_match_coerced_ones(self, p, objs):
        # A prepared float64 batch and a float64 query skip coercion; the
        # rows must still equal those of list and tuple inputs bit for bit.
        metric = MinkowskiDistance(p)
        batch = metric.prepare(objs)
        query = objs[0] + 0.25
        want = metric.one_to_many(list(query), [list(o) for o in objs]).tobytes()
        assert metric.one_to_many(query, batch).tobytes() == want
        assert metric.one_to_many(tuple(query), objs).tobytes() == want
        for i in range(len(objs)):
            assert (
                metric.one_to_many(query, batch[i : i + 1]).tobytes()
                == metric.one_to_many(list(query), [objs[i]]).tobytes()
            )
        # The same error, whichever form the inputs take.
        for bad_query in (np.zeros(3), [0.0, 0.0, 0.0]):
            errors = []
            for others in (batch, objs):
                with pytest.raises(MetricError) as info:
                    metric.one_to_many(bad_query, others)
                errors.append(str(info.value))
            assert errors[0] == errors[1]
        with pytest.raises(MetricError, match="1-d vector"):
            metric.one_to_many(batch[:2], batch)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_cross_rows_equal_one_to_many(self, p, objs):
        metric = MinkowskiDistance(p)
        block = metric.cross(objs[:4], objs)
        for k in range(4):
            assert block[k].tobytes() == metric.one_to_many(objs[k], objs).tobytes()
