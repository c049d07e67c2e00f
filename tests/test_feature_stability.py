"""Leaf CF* numerical stability and feature-owned state.

* the long-stream drift regression — a ≥50k-absorb BUBBLE tree with a
  large-magnitude offset whose exact-vs-incremental RowSum error stays
  under a bound that naive ``+=`` accumulation measurably violates;
* each feature owns its representative list and RowSum accumulators:
  no two live leaf features share either, through merges, splits,
  rebuilds, checkpoint resume and a sharded merge;
* checkpoint/resume bit-equivalence of RowSum and compensation state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import BUBBLE, EuclideanDistance
from repro.analysis.audit import audit_tree
from repro.core.bubble import BubblePolicy
from repro.core.cftree import CFTree
from repro.core.features import BubbleClusterFeature
from repro.persistence import load_checkpoint, save_checkpoint

#: Exact-vs-incremental RowSum relative error bound for the long-stream
#: cell. The compensated RowSum stays orders of magnitude below it (~1e-16);
#: the pre-refactor scalar ``+=`` loop violates it by more than 10x
#: (~1.25e-12 on this stream).
DRIFT_BOUND = 1e-13


def adversarial_stream(n_small: int = 50_000, seed: int = 0):
    """Two tight representatives, one huge-offset point, then ``n_small``
    points whose squared distances (~0.25) sit far below the ulp of the
    huge RowSum (~2.0 at 1e16) — naive accumulation drops every one."""
    rng = np.random.default_rng(seed)
    rep_a = np.array([0.0, 0.0])
    rep_b = np.array([1.0, 0.0])
    huge = np.array([1e8, 0.0])
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_small)
    small = 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return rep_a, rep_b, huge, list(small)


# ----------------------------------------------------------------------
# Long-stream drift regression (the tentpole's numerical claim)
# ----------------------------------------------------------------------
class TestLongStreamDrift:
    @pytest.fixture(scope="class")
    def long_stream_tree(self):
        rep_a, rep_b, huge, small = adversarial_stream()
        metric = EuclideanDistance()
        policy = BubblePolicy(metric, representation_number=2, sample_size=10, seed=0)
        tree = CFTree(policy, threshold=1e9, seed=0)
        for obj in [rep_a, rep_b, huge, *small]:
            tree.insert(obj)
        return tree, metric, rep_a, [rep_b, huge, *small]

    def test_absorbs_into_single_feature(self, long_stream_tree):
        tree, _, rep_a, rest = long_stream_tree
        features = tree.leaf_features()
        assert len(features) == 1
        assert features[0].n == 1 + len(rest)
        # The two seed points stay the permanent representatives, so their
        # incrementally-maintained RowSums are comparable to a replay.
        assert np.allclose(features[0]._reps[0], rep_a)

    def test_compensated_rowsum_tracks_exact_replay(self, long_stream_tree):
        tree, metric, rep_a, rest = long_stream_tree
        feature = tree.leaf_features()[0]
        sq = np.asarray(metric.one_to_many(rep_a, rest), dtype=np.float64) ** 2
        exact = math.fsum(sq.tolist())
        stored = feature.rowsums[0]
        assert abs(stored - exact) / exact <= DRIFT_BOUND

    def test_naive_accumulation_violates_the_bound(self, long_stream_tree):
        """Replay of the pre-refactor scalar ``+=`` loop over the identical
        update stream: the huge offset swallows every later addend, so the
        naive total misses ~n_small * 0.25 — measurably past DRIFT_BOUND."""
        _, metric, rep_a, rest = long_stream_tree
        sq = np.asarray(metric.one_to_many(rep_a, rest), dtype=np.float64) ** 2
        exact = math.fsum(sq.tolist())
        naive = 0.0
        for v in sq:
            naive += float(v)
        assert abs(naive - exact) / exact > 10 * DRIFT_BOUND

    def test_compensation_actually_engaged(self, long_stream_tree):
        """The feature's compensation slot carries the sub-ulp mass naive += loses —
        it must be large in absolute terms (~n_small * 0.25) even though
        it is tiny relative to the RowSum."""
        tree, _, _, _ = long_stream_tree
        feature = tree.leaf_features()[0]
        comp = float(feature._comps[0])
        assert comp > 1e3

    def test_long_stream_tree_audits_clean(self, long_stream_tree):
        tree, _, _, _ = long_stream_tree
        report = audit_tree(tree, raise_on_error=False)
        assert report.errors == [], report.format()


    def test_exact_merges_keep_sub_ulp_mass(self):
        """Exact merges add their cross-distance sums through the compensated
        slots too. Next to a 1e16 RowSum an addend of 1 is half an ulp, so a
        plain ``+=`` would round each of the 62 away."""
        metric = EuclideanDistance()
        feature = BubbleClusterFeature(metric, np.zeros(2), representation_number=64)
        feature.absorb(np.array([1e8, 0.0]))
        for _ in range(62):
            feature.merge(
                BubbleClusterFeature(metric, np.array([0.0, 1.0]), representation_number=64)
            )
        assert feature.exact and feature.n == 64
        assert feature.rowsums[0] == 1e16 + 62


def assert_owns_its_state(tree):
    """No two live leaf features share a representative list, and no two
    share any byte of RowSum or compensation storage."""
    features = tree.leaf_features()
    assert features
    lists = [id(f._reps) for f in features]
    assert len(set(lists)) == len(lists)
    spans = sorted(
        (a.__array_interface__["data"][0], a.nbytes)
        for f in features
        for a in (f._sums, f._comps)
    )
    for (start, size), (next_start, _) in zip(spans, spans[1:]):
        assert start + size <= next_start


# ----------------------------------------------------------------------
# Feature-owned state
# ----------------------------------------------------------------------
class TestFeatureOwnedState:
    def test_live_features_share_no_state(self, rng, tmp_path):
        points = list(rng.normal(size=(300, 2)))
        model = BUBBLE(EuclideanDistance(), max_nodes=10, representation_number=4, seed=7)
        model.partial_fit(points[:150])
        tree = model.tree_
        # A max_nodes rebuild re-inserts whole features, merging some.
        assert tree.n_rebuilds >= 1
        assert len(tree.leaf_features()) > tree.branching_factor  # leaves split
        assert any(not f.exact for f in tree.leaf_features())  # merged past 2p
        assert_owns_its_state(tree)

        path = tmp_path / "scan.ckpt"
        save_checkpoint(path, tree, cursor=150)
        restored = load_checkpoint(path, metric=EuclideanDistance()).tree
        assert_owns_its_state(restored)
        for obj in points[150:]:
            restored.insert(obj)
        assert_owns_its_state(restored)

        sharded = BUBBLE(
            EuclideanDistance(), max_nodes=10, representation_number=4, seed=7, n_shards=3
        )
        sharded.fit(points)
        assert sharded.tree_.n_objects == len(points)
        assert_owns_its_state(sharded.tree_)

    def test_rowsums_property_is_compensated(self):
        metric = EuclideanDistance()
        f = BubbleClusterFeature(metric, np.zeros(2), 2)
        f.absorb(np.array([1.0, 0.0]))   # reps full: [A, B]
        f.absorb(np.array([1e8, 0.0]))   # rowsums jump to ~1e16, no replace
        for k in range(100):             # each d^2 ~ 0.25, below ulp(1e16)
            theta = 2.0 * np.pi * k / 100
            f.absorb(0.5 * np.array([np.cos(theta), np.sin(theta)]))
        raw = float(f._rowsums[0])
        effective = f.rowsums[0]
        assert effective > raw  # compensation holds the swallowed mass
        swallowed = effective - raw
        assert 20.0 < swallowed < 30.0  # ~100 * 0.25 of sub-ulp mass


# ----------------------------------------------------------------------
# Checkpoint round-trip
# ----------------------------------------------------------------------
class TestCheckpointRoundTrip:
    def test_feature_state_round_trips_bit_exactly(self, rng, tmp_path):
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=20, seed=7)
        model.partial_fit(list(rng.normal(size=(250, 2))))
        tree = model.tree_
        path = tmp_path / "features.ckpt"
        save_checkpoint(path, tree, cursor=250)
        restored = load_checkpoint(path, metric=EuclideanDistance()).tree

        def state(t):
            return [
                (f.n, f._rowsums.tolist(), f._comps.tolist(), f._clustroid_idx)
                for f in t.leaf_features()
            ]

        assert state(restored) == state(tree)  # float64 bits, not approximations
        assert audit_tree(restored, raise_on_error=False).errors == []
