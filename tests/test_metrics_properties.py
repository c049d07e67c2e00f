"""Property-based tests: every shipped metric satisfies the metric axioms
the paper's algorithms assume (non-negativity, identity, symmetry, triangle
inequality)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    ChebyshevDistance,
    DamerauLevenshteinDistance,
    EditDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
    RelativeEditDistance,
)

vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=3, max_size=3
).map(np.asarray)

words = st.text(alphabet="abcdef ,.", min_size=0, max_size=12)


VECTOR_METRICS = [EuclideanDistance(), ManhattanDistance(), ChebyshevDistance(), MinkowskiDistance(3)]
STRING_METRICS = [EditDistance(), DamerauLevenshteinDistance(), RelativeEditDistance()]


def assert_metric_axioms(metric, a, b, c, tol=1e-9):
    dab = metric.distance(a, b)
    dba = metric.distance(b, a)
    dac = metric.distance(a, c)
    dbc = metric.distance(b, c)
    assert dab >= 0
    assert dab == dba
    # Triangle inequality with float slack.
    assert dab <= dac + dbc + tol
    daa = metric.distance(a, a)
    assert daa <= tol


class TestVectorMetricAxioms:
    @given(a=vectors, b=vectors, c=vectors)
    @settings(max_examples=150, deadline=None)
    def test_axioms(self, a, b, c):
        for metric in VECTOR_METRICS:
            assert_metric_axioms(metric, a, b, c, tol=1e-6)

    @given(a=vectors, b=vectors)
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_scalar(self, a, b):
        for metric in VECTOR_METRICS:
            batch = metric.one_to_many(a, [b, a])
            assert np.isclose(batch[0], metric.distance(a, b), rtol=1e-9, atol=1e-12)
            assert batch[1] <= 1e-9


class TestStringMetricAxioms:
    @given(a=words, b=words, c=words)
    @settings(max_examples=150, deadline=None)
    def test_axioms(self, a, b, c):
        for metric in STRING_METRICS[:2]:  # edit + damerau (integral)
            assert_metric_axioms(metric, a, b, c)

    @given(a=words, b=words)
    @settings(max_examples=100, deadline=None)
    def test_edit_distance_bounds(self, a, b):
        d = EditDistance().distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(a=words, b=words)
    @settings(max_examples=100, deadline=None)
    def test_relative_in_unit_interval(self, a, b):
        assert 0.0 <= RelativeEditDistance().distance(a, b) <= 1.0

    @given(a=words, b=words)
    @settings(max_examples=100, deadline=None)
    def test_damerau_never_exceeds_levenshtein(self, a, b):
        assert (
            DamerauLevenshteinDistance().distance(a, b)
            <= EditDistance().distance(a, b)
        )

