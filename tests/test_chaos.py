"""Chaos drills for the fault-tolerant parallel build.

Every test follows the same shape: a *clean* reference build with no
faults, then the same build under a seeded :class:`ChaosPolicy` schedule —
worker SIGKILL mid-shard, flaky metric, pathologically slow shard, corrupt
shard checkpoint. The invariant under test is the tentpole contract of
``docs/robustness.md``: after every recoverable fault the merged tree is
**bit-identical** to the uninterrupted run, audit-clean, and the NCD
conservation law ``sum(by_site) == n_calls`` holds.

Kill drills need real worker processes (``n_jobs > 1``) — an unarmed or
in-parent policy never kills, by design. Flaky drills run inline too,
which is what the hypothesis sweep exploits for speed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BuildConfig
from repro.core.preclusterer import BUBBLE
from repro.metrics import EuclideanDistance
from repro.metrics.base import CallLedger
from repro.observability import StatsSnapshot
from repro.parallel import parallel_fit
from repro.parallel.pool import ShardSupervisor
from repro.parallel.worker import ShardTask
from repro.robustness import ChaosPolicy, FaultInjector, FlakyMetric

__all__: list[str] = []


def tree_signature(tree):
    """Structure + leaf clustroids, byte-exact — equal iff trees identical."""
    sig = []

    def walk(node):
        if node.is_leaf:
            sig.append(
                tuple(repr(np.asarray(f.clustroid).tolist()) for f in node.entries)
            )
        else:
            sig.append(len(node.entries))
            for entry in node.entries:
                walk(entry.child)

    walk(tree.root)
    return sig


def make_blobs(n=120, seed=3, n_centers=5, dim=2):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 20.0, size=(n_centers, dim))
    return [
        centers[i % n_centers] + 0.4 * rng.normal(size=dim) for i in range(n)
    ]


def build(points, *, n_shards=3, n_jobs=1, **fit_kwargs):
    """One parallel build with fast retry backoff, on a fresh ledger;
    returns the model and the ledger."""
    model = BUBBLE(
        EuclideanDistance(),
        max_nodes=12,
        seed=5,
        n_shards=n_shards,
        n_jobs=n_jobs,
        shard_retry_backoff=0.01,
    )
    ledger = CallLedger()
    with ledger:
        parallel_fit(model, points, **fit_kwargs)
    return model, ledger


def assert_conserved(model, ledger):
    """The site-attributed ledger must partition the metric's NCD exactly."""
    assert sum(ledger.by_site.values()) == ledger.total == model.metric.n_calls


class TestKillRecovery:
    def test_sigkill_with_checkpoint_resumes_bit_identical(self, tmp_path, audit):
        # The acceptance drill: a worker is SIGKILLed mid-shard, the retry
        # resumes from the shard's atomic checkpoint, and the merged tree
        # is byte-identical to the uninterrupted run.
        points = make_blobs(n=120)
        clean, _ = build(points)

        chaos = ChaosPolicy(kill_at={1: 35}, seed=7)
        model, ledger = build(
            points,
            n_jobs=2,
            checkpoint_path=tmp_path / "ck",
            checkpoint_every=10,
            chaos=chaos,
        )
        assert tree_signature(model.tree_) == tree_signature(clean.tree_)
        audit(model.tree_)
        assert_conserved(model, ledger)

        report = model.ingest_report_
        assert report.workers_crashed >= 1
        assert report.shards_retried >= 1
        assert report.shards_resumed >= 1
        assert report.backoff_seconds_total > 0
        resumed = [s for s in model.shard_summaries_ if s["resumed_at"] is not None]
        assert any(s["shard_id"] == 1 for s in resumed)

    def test_sigkill_without_checkpoint_rescans_from_zero(self, audit):
        # No checkpoint directory: recovery degrades to a deterministic
        # full rescan of the lost shard, still bit-identical.
        points = make_blobs(n=120)
        clean, _ = build(points)

        chaos = ChaosPolicy(kill_at={0: 25}, seed=11)
        model, ledger = build(points, n_jobs=2, chaos=chaos)
        assert tree_signature(model.tree_) == tree_signature(clean.tree_)
        audit(model.tree_)
        assert_conserved(model, ledger)
        assert model.ingest_report_.workers_crashed >= 1
        assert model.ingest_report_.shards_resumed == 0

    def test_persistent_killer_degrades_to_inline_fallback(self, audit):
        # A kill schedule that fires on *every* worker attempt exhausts the
        # retries; the supervisor's last stand runs the shard in-parent,
        # where an armed policy never kills — graceful degradation.
        points = make_blobs(n=90)
        clean, _ = build(points)

        chaos = ChaosPolicy(kill_at={2: 10}, kill_attempts=99, seed=13)
        model, ledger = build(points, n_jobs=2, chaos=chaos)
        assert tree_signature(model.tree_) == tree_signature(clean.tree_)
        audit(model.tree_)
        assert_conserved(model, ledger)
        # max_shard_retries=2 → attempts 0,1,2 killed, then the fallback.
        assert model.ingest_report_.workers_crashed == 3
        assert model.ingest_report_.shards_retried == 2
        # The snapshot carries the build's report as its own record.
        snapshot = StatsSnapshot.from_model(model)
        doc = snapshot.to_dict()["report"]
        assert doc["workers_crashed"] == 3 and doc["shards_retried"] == 2
        assert doc["backoff_seconds_total"] == model.ingest_report_.backoff_seconds_total
        assert "worker crashes" in snapshot.format()


class TestMetricFaults:
    def test_flaky_shard_retried_to_identical_tree(self, audit):
        points = make_blobs(n=90)
        clean, _ = build(points)

        chaos = ChaosPolicy(flaky_shards=(1,), flaky_rate=1.0, seed=3)
        model, ledger = build(points, chaos=chaos)
        assert tree_signature(model.tree_) == tree_signature(clean.tree_)
        audit(model.tree_)
        assert_conserved(model, ledger)
        assert model.ingest_report_.shards_retried >= 1
        assert model.ingest_report_.workers_crashed == 0

    def test_slow_shard_killed_by_timeout_and_retried(self, audit):
        # Shard 1's metric sleeps per call, overrunning the per-shard
        # timeout; the straggler is killed individually and the clean
        # retry still merges bit-identically.
        points = make_blobs(n=40)
        clean, _ = build(points, n_shards=2)

        chaos = ChaosPolicy(slow_shards=(1,), slow_seconds=0.05, seed=5)
        model = BUBBLE(
            EuclideanDistance(),
            max_nodes=12,
            seed=5,
            n_shards=2,
            n_jobs=2,
            shard_retry_backoff=0.01,
            shard_timeout_seconds=1.0,
        )
        ledger = CallLedger()
        with ledger:
            parallel_fit(model, points, chaos=chaos)
        assert tree_signature(model.tree_) == tree_signature(clean.tree_)
        audit(model.tree_)
        assert_conserved(model, ledger)
        assert model.ingest_report_.workers_crashed >= 1
        assert model.ingest_report_.shards_retried >= 1


class TestCorruptCheckpoint:
    def test_corrupt_shard_checkpoint_discarded_and_rescanned(self, tmp_path, audit):
        # The worker dies, the chaos policy then corrupts the checkpoint
        # the retry would resume from; the retry must detect the damage,
        # discard it, and rescan the shard from zero — not crash, not
        # resume into garbage.
        points = make_blobs(n=120)
        clean, _ = build(points)

        chaos = ChaosPolicy(kill_at={0: 25}, corrupt_checkpoints=(0,), seed=17)
        model, ledger = build(
            points,
            n_jobs=2,
            checkpoint_path=tmp_path / "ck",
            checkpoint_every=5,
            chaos=chaos,
        )
        assert tree_signature(model.tree_) == tree_signature(clean.tree_)
        audit(model.tree_)
        assert_conserved(model, ledger)
        summary = next(s for s in model.shard_summaries_ if s["shard_id"] == 0)
        assert summary["checkpoint_discarded"]
        assert summary["resumed_at"] is None


class _FirstCallFails(FaultInjector):
    """Fails the first decision of its stream and no other."""

    def should_fail(self) -> bool:
        self.n_calls += 1
        return self.n_calls == 1


class TestSupervisorEdges:
    def test_inline_retry_books_recovery_counters(self):
        # The first attempt hits the one injected fault; the retry runs
        # clean. The supervisor's own report holds the recovery counters.
        task = ShardTask(
            shard_id=0,
            n_shards=1,
            objects=[np.zeros(2), np.ones(2), np.full(2, 2.0), np.full(2, 3.0)],
            driver=BUBBLE,
            config=BuildConfig(),
            metric=FlakyMetric(EuclideanDistance(), _FirstCallFails()),
            seed=0,
        )
        supervisor = ShardSupervisor(
            [task], n_jobs=1, max_retries=2, backoff=0.5, sleep=lambda s: None
        )
        (result,) = supervisor.run()
        assert result.n_objects == 4
        assert supervisor.report.shards_retried == 1
        assert supervisor.report.workers_crashed == 0
        assert supervisor.report.shards_resumed == 0
        assert supervisor.report.backoff_seconds_total == 0.5
        assert [(f.shard_id, f.attempt, f.kind) for f in supervisor.failures] == [
            (0, 0, "error")
        ]

    def test_unarmed_policy_never_kills_inline(self):
        # Safety property: running a kill schedule inline (parent PID ==
        # armed PID) must never take down the calling process.
        points = make_blobs(n=60)
        chaos = ChaosPolicy(kill_at={0: 1, 1: 1, 2: 1}, kill_attempts=99, seed=1)
        model, _ = build(points, n_jobs=1, chaos=chaos)
        assert model.tree_ is not None
        assert model.ingest_report_.workers_crashed == 0


class TestChaosSweep:
    @given(
        flaky_shard=st.integers(min_value=0, max_value=2),
        chaos_seed=st.integers(min_value=0, max_value=1000),
        flaky_rate=st.sampled_from([0.02, 0.2, 1.0]),
    )
    @settings(max_examples=8, deadline=None)
    def test_inline_flaky_faults_never_change_the_tree(
        self, flaky_shard, chaos_seed, flaky_rate
    ):
        # Property: for every seeded recoverable fault schedule, the build
        # converges to the exact tree the clean run produces (the retry
        # replays the shard deterministically), and conservation holds.
        points = make_blobs(n=60)
        clean, _ = build(points)

        chaos = ChaosPolicy(
            flaky_shards=(flaky_shard,), flaky_rate=flaky_rate, seed=chaos_seed
        )
        model, ledger = build(points, chaos=chaos)
        assert tree_signature(model.tree_) == tree_signature(clean.tree_)
        assert_conserved(model, ledger)
