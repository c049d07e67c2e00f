"""Unit tests for the distance-function base layer and NCD accounting."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.metrics import CachedDistance, EuclideanDistance, FunctionDistance
from repro.metrics.base import DistanceFunction
from repro.robustness import GuardedMetric


def abs_diff(a, b):
    return abs(a - b)


class TestFunctionDistance:
    def test_wraps_callable(self):
        m = FunctionDistance(abs_diff)
        result = m.distance(3, 7)
        assert result == 4.0
        assert isinstance(result, float)  # int results are coerced

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            FunctionDistance(42)

    def test_name(self):
        m = FunctionDistance(abs_diff, name="absdiff")
        assert m.name == "absdiff"

    def test_call_dunder(self):
        m = FunctionDistance(abs_diff)
        assert m(1, 5) == 4
        assert m.n_calls == 1


class TestCounting:
    def test_distance_counts_one(self):
        m = FunctionDistance(abs_diff)
        m.distance(0, 1)
        m.distance(2, 3)
        assert m.n_calls == 2

    def test_one_to_many_counts_len(self):
        m = FunctionDistance(abs_diff)
        out = m.one_to_many(0, [1, 2, 3, 4])
        assert m.n_calls == 4
        np.testing.assert_allclose(out, [1, 2, 3, 4])

    def test_one_to_many_empty(self):
        m = FunctionDistance(abs_diff)
        out = m.one_to_many(0, [])
        assert out.shape == (0,)
        assert m.n_calls == 0

    def test_pairwise_counts_half_matrix(self):
        m = FunctionDistance(abs_diff)
        out = m.pairwise([0, 1, 3])
        assert m.n_calls == 3  # 3*2/2
        expected = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
        np.testing.assert_allclose(out, expected)

    def test_reset_counter(self):
        m = FunctionDistance(abs_diff)
        m.distance(0, 1)
        m.reset_counter()
        assert m.n_calls == 0

    def test_pairwise_symmetric_zero_diagonal(self):
        m = FunctionDistance(abs_diff)
        out = m.pairwise(list(range(6)))
        np.testing.assert_allclose(out, out.T)
        np.testing.assert_allclose(np.diag(out), 0)


class TestPrepare:
    def test_default_returns_its_argument(self):
        m = FunctionDistance(abs_diff)
        objs = [3, 1, 2]
        assert m.prepare(objs) is objs
        assert m.n_calls == 0

    @pytest.mark.parametrize("wrap", ["guarded", "cached"])
    def test_wrappers_do_not_forward_it(self, wrap):
        # The wrappers gather object by object (validation, cache keys), so
        # they keep the default even around a metric that stacks.
        inner = EuclideanDistance()
        m = GuardedMetric(inner) if wrap == "guarded" else CachedDistance(inner)
        objs = [np.zeros(2), np.ones(2)]
        assert m.prepare(objs) is objs
        assert isinstance(inner.prepare(objs), np.ndarray)


class TestAbstract:
    def test_cannot_instantiate_base(self):
        with pytest.raises(TypeError):
            DistanceFunction()
