"""Slab-arena CF* storage: drift, lifecycle, adoption, and round-trips.

Covers the BETULA-style refactor of leaf CF* state:

* the long-stream drift regression — a ≥50k-absorb BUBBLE tree with a
  large-magnitude offset whose exact-vs-incremental RowSum error stays
  under a bound the pre-refactor naive ``+=`` accumulation measurably
  violates;
* :class:`~repro.core.arena.FeatureArena` row lifecycle (alloc, release,
  recycle, growth, adopt) and memory accounting (slab vs the legacy
  list-of-objects layout);
* checkpoint/resume bit-equivalence of slab state;
* worker-arena adoption through ``insert_feature_batch`` (the parallel
  merge path).
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro import BUBBLE, EuclideanDistance
from repro.analysis.audit import audit_tree
from repro.core.arena import FeatureArena
from repro.core.bubble import BubblePolicy
from repro.core.cftree import CFTree
from repro.core.features import BubbleClusterFeature
from repro.exceptions import ParameterError
from repro.observability import StatsSnapshot
from repro.persistence import load_checkpoint, save_checkpoint

#: Exact-vs-incremental RowSum relative error bound for the long-stream
#: cell. The compensated slab stays orders of magnitude below it (~1e-16);
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
        """The compensation slot carries the sub-ulp mass naive += loses —
        it must be large in absolute terms (~n_small * 0.25) even though
        it is tiny relative to the RowSum."""
        tree, _, _, _ = long_stream_tree
        feature = tree.leaf_features()[0]
        comp = float(tree.policy.arena.compensations[feature._row, 0])
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


# ----------------------------------------------------------------------
# Arena lifecycle
# ----------------------------------------------------------------------
class TestFeatureArena:
    def test_alloc_release_recycle(self):
        arena = FeatureArena(4, capacity=2)
        r0, r1 = arena.alloc(), arena.alloc()
        assert arena.rows_used == 2
        arena.reps[r0, 0] = "x"
        arena.counts[r0] = 1
        arena.release(r0)
        assert arena.rows_used == 1
        assert arena.reps[r0, 0] is None and arena.counts[r0] == 0
        assert arena.alloc() == r0  # LIFO recycling
        assert r1 in arena.used_rows()

    def test_growth_preserves_rows(self):
        arena = FeatureArena(3, capacity=1)
        rows = []
        for i in range(9):
            row = arena.alloc()
            arena.rowsums[row, 0] = float(i)
            arena.reps[row, 0] = ("obj", i)
            arena.counts[row] = 1
            rows.append(row)
        assert arena.capacity >= 9
        for i, row in enumerate(rows):
            assert arena.rowsums[row, 0] == float(i)
            assert arena.reps[row, 0] == ("obj", i)

    def test_adopt_row_is_bit_exact(self):
        src = FeatureArena(4, capacity=1)
        row = src.alloc()
        src.rowsums[row, :2] = [1e16, 0.125]
        src.compensations[row, :2] = [12501.0, -3e-12]
        src.reps[row, 0] = "a"
        src.reps[row, 1] = "b"
        src.counts[row] = 2
        dst = FeatureArena(6)
        new_row = dst.adopt_row(src, row)
        assert dst.rowsums[new_row, :2].tolist() == [1e16, 0.125]
        assert dst.compensations[new_row, :2].tolist() == [12501.0, -3e-12]
        assert dst.reps[new_row, 0] is src.reps[row, 0]
        assert int(dst.counts[new_row]) == 2

    def test_adopt_row_rejects_wider_source(self):
        src = FeatureArena(8, capacity=1)
        row = src.alloc()
        with pytest.raises(ParameterError):
            FeatureArena(4).adopt_row(src, row)

    def test_bytes_reduction_vs_legacy_layout(self):
        """The headline memory claim: full slab rows cost >=30% less than
        the legacy two-lists-plus-boxed-floats layout they replaced."""
        arena = FeatureArena(10)
        for _ in range(100):
            row = arena.alloc()
            arena.counts[row] = 10
        snap = arena.snapshot()
        assert snap["rows_used"] == 100
        assert snap["bytes_per_leaf"] <= 0.7 * snap["legacy_bytes_per_leaf"]
        assert snap["bytes_reduction"] >= 0.3

    def test_snapshot_keys_and_occupancy(self):
        arena = FeatureArena(4, capacity=8)
        arena.alloc()
        snap = arena.snapshot()
        assert set(snap) == {
            "rows_used", "capacity", "width", "occupancy", "bytes_total",
            "bytes_per_leaf", "legacy_bytes_per_leaf", "bytes_reduction",
        }
        assert snap["occupancy"] == pytest.approx(1 / 8)
        assert snap["width"] == 4


# ----------------------------------------------------------------------
# Feature lifecycle on the slab
# ----------------------------------------------------------------------
class TestSlabFeatureLifecycle:
    def test_direct_construction_uses_private_arena(self):
        metric = EuclideanDistance()
        f = BubbleClusterFeature(metric, np.zeros(2), 4)
        assert f.arena.rows_used == 1
        assert f.arena.width == 4

    def test_arena_narrower_than_rep_cap_rejected(self):
        with pytest.raises(ParameterError):
            BubbleClusterFeature(
                EuclideanDistance(), np.zeros(2), 10, arena=FeatureArena(4)
            )

    def test_merge_releases_victim_row(self):
        metric = EuclideanDistance()
        arena = FeatureArena(4)
        fa = BubbleClusterFeature(metric, np.zeros(2), 4, arena=arena)
        fb = BubbleClusterFeature(metric, np.ones(2), 4, arena=arena)
        assert arena.rows_used == 2
        fa.merge(fb)
        assert arena.rows_used == 1
        assert fa.n == 2

    def test_tree_occupancy_matches_leaf_count(self, rng):
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=20, seed=7)
        model.fit(list(rng.normal(size=(300, 2))))
        tree = model.tree_
        assert tree.policy.arena.rows_used == len(tree.leaf_features())

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
class TestSlabCheckpointRoundTrip:
    def test_slab_state_round_trips_bit_exactly(self, rng, tmp_path):
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=20, seed=7)
        model.partial_fit(list(rng.normal(size=(250, 2))))
        tree = model.tree_
        path = tmp_path / "slab.ckpt"
        save_checkpoint(path, tree, cursor=250)
        restored = load_checkpoint(path, metric=EuclideanDistance()).tree

        arena, r_arena = tree.policy.arena, restored.policy.arena
        assert r_arena.width == arena.width
        assert r_arena.rows_used == arena.rows_used
        before = sorted(
            (f._row, f.n, tuple(f._rowsums.tolist())) for f in tree.leaf_features()
        )
        after = sorted(
            (f._row, f.n, tuple(f._rowsums.tolist())) for f in restored.leaf_features()
        )
        assert before == after  # float64 bits, not approximations
        np.testing.assert_array_equal(
            arena.compensations[arena.used_rows()],
            r_arena.compensations[r_arena.used_rows()],
        )
        for f in restored.leaf_features():
            assert f.arena is r_arena  # one shared arena in the pickle graph
        assert audit_tree(restored, raise_on_error=False).errors == []


# ----------------------------------------------------------------------
# Worker-arena adoption (the parallel merge path)
# ----------------------------------------------------------------------
class TestWorkerArenaAdoption:
    def _worker_features(self, seed: int):
        """Features built under their own policy/arena, shipped via pickle —
        exactly how shard harvests come home."""
        rng = np.random.default_rng(seed)
        metric = EuclideanDistance()
        policy = BubblePolicy(metric, representation_number=4, sample_size=10, seed=seed)
        features = []
        for center in (0.0, 10.0, 20.0):
            f = policy.new_leaf_feature(rng.normal(center, 0.1, size=2))
            for _ in range(8):
                f.absorb(rng.normal(center, 0.1, size=2))
            features.append(f)
        return pickle.loads(pickle.dumps(features))

    def test_insert_feature_batch_adopts_into_tree_arena(self):
        features = self._worker_features(seed=3)
        want = [(f.n, tuple(f.rowsums)) for f in features]
        metric = EuclideanDistance()
        policy = BubblePolicy(metric, representation_number=4, sample_size=10, seed=0)
        tree = CFTree(policy, threshold=1.0, seed=0)
        tree.insert_feature_batch(features)

        assert tree.n_objects == sum(n for n, _ in want)
        for f in tree.leaf_features():
            assert f.arena is policy.arena
        # Adoption copied the rows bit-for-bit (clusters are far apart, so
        # no merges perturbed them).
        got = sorted((f.n, tuple(f.rowsums)) for f in tree.leaf_features())
        assert got == sorted(want)
        assert policy.arena.rows_used == len(tree.leaf_features())
        assert audit_tree(tree, raise_on_error=False).errors == []

    def test_adoption_releases_worker_rows(self):
        features = self._worker_features(seed=5)
        worker_arena = features[0].arena
        assert worker_arena.rows_used == len(features)
        policy = BubblePolicy(
            EuclideanDistance(), representation_number=4, sample_size=10, seed=0
        )
        tree = CFTree(policy, threshold=1.0, seed=0)
        tree.insert_feature_batch(features)
        assert worker_arena.rows_used == 0


# ----------------------------------------------------------------------
# Observability surface
# ----------------------------------------------------------------------
class TestSlabStats:
    def test_snapshot_and_format_carry_slab_accounting(self, rng):
        model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=7)
        model.fit(list(rng.normal(size=(200, 2))))
        snap = StatsSnapshot.from_model(model)
        assert snap.slab is not None
        assert snap.slab["rows_used"] == len(model.tree_.leaf_features())
        assert snap.slab["bytes_per_leaf"] > 0
        assert snap.to_dict()["slab"] == snap.slab
        text = snap.format()
        assert "slab occupancy" in text
        assert "slab bytes/leaf" in text
