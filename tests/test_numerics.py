"""Tests for ``repro.utils.numerics`` — compensated (Neumaier) accumulation.

The drift properties pin the module's reason to exist: on adversarial
magnitude-spread streams (one huge addend swallowing many small ones),
naive ``+=`` accumulation loses the small addends entirely while the
compensated forms stay within a few eps of ``math.fsum``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.numerics import CompensatedAccumulator, compensated_add, neumaier_sum


def naive_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1.0)


def adversarial_stream(huge: float, n_small: int, small: float) -> list[float]:
    """One huge addend followed by many small ones below its ulp."""
    return [huge] + [small] * n_small


# ----------------------------------------------------------------------
# Scalar accumulator
# ----------------------------------------------------------------------
class TestCompensatedAccumulator:
    def test_recovers_swallowed_addends(self):
        acc = CompensatedAccumulator()
        acc.add(1e16)
        for _ in range(1000):
            acc.add(1.0)
        assert acc.value == 1e16 + 1000.0
        # The same stream through naive += loses every small addend.
        assert naive_sum(adversarial_stream(1e16, 1000, 1.0)) == 1e16

    def test_add_many_matches_repeated_add(self):
        values = np.array([1e16, 1.0, -2.0, 3.5, 1e-8])
        a = CompensatedAccumulator()
        a.add_many(values)
        b = CompensatedAccumulator()
        for v in values:
            b.add(float(v))
        assert a.value == b.value
        assert a.total == b.total and a.compensation == b.compensation

    def test_merge_keeps_both_compensations(self):
        a = CompensatedAccumulator(1e16)
        for _ in range(500):
            a.add(1.0)
        b = CompensatedAccumulator()
        for _ in range(500):
            b.add(1.0)
        a.merge(b)
        assert a.value == 1e16 + 1000.0

    def test_copy_is_independent(self):
        a = CompensatedAccumulator(2.0)
        dup = a.copy()
        dup.add(5.0)
        assert a.value == 2.0
        assert dup.value == 7.0

    def test_state_round_trips(self):
        a = CompensatedAccumulator(1e16)
        a.add(1.0)
        b = CompensatedAccumulator(a.total, a.compensation)
        assert b.value == a.value

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=10, max_value=2000),
        spread=st.integers(min_value=6, max_value=14),
    )
    def test_drift_beats_naive_on_magnitude_spreads(self, seed, n, spread):
        """Compensated error stays ~eps while naive error grows with the
        magnitude spread — the BETULA failure mode at large n."""
        rng = np.random.default_rng(seed)
        values = [10.0**spread] + list(rng.uniform(0.1, 1.0, size=n))
        want = math.fsum(values)
        acc = CompensatedAccumulator()
        for v in values:
            acc.add(v)
        comp_err = rel_err(acc.value, want)
        naive_err = rel_err(naive_sum(values), want)
        assert comp_err <= 1e-15
        assert comp_err <= naive_err


# ----------------------------------------------------------------------
# One-shot sum
# ----------------------------------------------------------------------
class TestNeumaierSum:
    def test_matches_fsum_on_adversarial_stream(self):
        values = adversarial_stream(1e16, 5000, 0.25)
        assert neumaier_sum(np.array(values)) == math.fsum(values)

    def test_empty_and_single(self):
        assert neumaier_sum(np.array([])) == 0.0
        assert neumaier_sum(np.array([3.75])) == 3.75

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=500),
    )
    def test_matches_fsum_within_eps(self, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=10.0 ** rng.integers(0, 12), size=n)
        want = math.fsum(values)
        assert rel_err(neumaier_sum(values), want) <= 1e-14


# ----------------------------------------------------------------------
# Vectorized in-place update (the leaf CF* RowSum primitive)
# ----------------------------------------------------------------------
class TestCompensatedAdd:
    def test_slots_update_independently(self):
        sums = np.array([1e16, 0.0, -3.0])
        comps = np.zeros(3)
        compensated_add(sums, comps, np.array([1.0, 2.0, 4.0]))
        assert (sums + comps).tolist() == [1e16 + 1.0, 2.0, 1.0]

    def test_recovers_swallowed_addends_per_slot(self):
        sums = np.array([1e16, 1e16])
        comps = np.zeros(2)
        for _ in range(5000):
            compensated_add(sums, comps, np.array([0.25, 1.0]))
        assert sums[0] + comps[0] == 1e16 + 5000 * 0.25
        assert sums[1] + comps[1] == 1e16 + 5000.0

    def test_works_on_slab_row_views(self):
        slab_s = np.zeros((4, 3))
        slab_c = np.zeros((4, 3))
        compensated_add(slab_s[2, :2], slab_c[2, :2], np.array([1e16, 5.0]))
        compensated_add(slab_s[2, :2], slab_c[2, :2], np.array([1.0, 5.0]))
        assert slab_s[2, 0] + slab_c[2, 0] == 1e16 + 1.0
        assert slab_s[2, 1] + slab_c[2, 1] == 10.0
        # Untouched rows and the slot past the view stay zero.
        assert not slab_s[[0, 1, 3]].any() and slab_s[2, 2] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        width=st.integers(min_value=1, max_value=10),
        n_updates=st.integers(min_value=1, max_value=300),
    )
    def test_each_slot_matches_scalar_accumulator(self, seed, width, n_updates):
        rng = np.random.default_rng(seed)
        deltas = rng.uniform(0.0, 2.0, size=(n_updates, width))
        deltas[0] = 10.0 ** rng.integers(10, 16)  # adversarial first row
        sums = np.zeros(width)
        comps = np.zeros(width)
        scalars = [CompensatedAccumulator() for _ in range(width)]
        for row in deltas:
            compensated_add(sums, comps, row)
            for acc, d in zip(scalars, row):
                acc.add(float(d))
        for i, acc in enumerate(scalars):
            assert sums[i] + comps[i] == pytest.approx(acc.value, rel=1e-15, abs=0.0)
