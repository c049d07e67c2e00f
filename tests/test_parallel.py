"""Tests for the parallel sharded build.

Process-pool legs (``n_jobs > 1``) spawn real worker processes, so
everything they ship — metrics, poison predicates — lives at module level
to stay picklable. The determinism contract under test: the merged tree
is a pure function of ``(objects, seed, n_shards)``; ``n_jobs`` only
chooses the executor.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preclusterer import BUBBLE
from repro.datasets.vector import make_cell_dataset
from repro.evaluation.metrics import clustroid_quality, distortion
from repro.exceptions import (
    EmptyDatasetError,
    MetricBudgetExceededError,
    ParameterError,
)
from repro.metrics import EuclideanDistance
from repro.metrics.base import site
from repro.experiments.config import paper_max_nodes
from repro.observability import Tracer
from repro.parallel import (
    global_index,
    parallel_fit,
    resolve_n_shards,
    shard_objects,
)
from repro.parallel.build import rebook_worker_calls
from repro.pipelines.cluster import cluster_dataset
from repro.robustness import FlakyMetric, GuardedMetric

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


def tree_fingerprint(tree) -> str:
    """SHA-256 of :func:`tree_signature`: equal iff trees are byte-identical."""
    return hashlib.sha256(repr(tree_signature(tree)).encode("utf-8")).hexdigest()


def make_blobs(n=200, seed=3, n_centers=5, dim=2):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 20.0, size=(n_centers, dim))
    points = [
        centers[i % n_centers] + 0.4 * rng.normal(size=dim) for i in range(n)
    ]
    return points


def poisoned(obj) -> bool:
    """Module-level poison predicate so FlakyMetric survives the pool pickle."""
    return bool(np.asarray(obj)[0] > 1e5)


class TestShardHelpers:
    def test_round_robin_partition(self):
        items = list(range(10))
        shards = shard_objects(items, 3)
        assert shards == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]

    def test_global_index_inverts_round_robin(self):
        items = list(range(23))
        n_shards = 4
        shards = shard_objects(items, n_shards)
        recovered = {
            global_index(sid, local, n_shards): obj
            for sid, shard in enumerate(shards)
            for local, obj in enumerate(shard)
        }
        assert recovered == {i: i for i in items}

    def test_resolve_n_shards(self):
        model = BUBBLE(EuclideanDistance(), n_jobs=3)
        assert resolve_n_shards(model) == 3
        model = BUBBLE(EuclideanDistance(), n_jobs=3, n_shards=5)
        assert resolve_n_shards(model) == 5


class TestDeterminism:
    def test_inline_build_is_reproducible(self):
        points = make_blobs(n=150)
        sigs, calls = [], []
        for _ in range(2):
            model = BUBBLE(
                EuclideanDistance(), max_nodes=12, seed=7, n_shards=3
            ).fit(points)
            sigs.append(tree_signature(model.tree_))
            calls.append(model.metric.n_calls)
        assert sigs[0] == sigs[1]
        assert calls[0] == calls[1]

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_shards=st.sampled_from([2, 3, 4]),
        data_seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=15, deadline=None)
    def test_merged_tree_is_pure_function_of_seed_and_shards(
        self, seed, n_shards, data_seed
    ):
        points = make_blobs(n=60, seed=data_seed)
        runs = [
            BUBBLE(
                EuclideanDistance(), max_nodes=10, seed=seed, n_shards=n_shards
            ).fit(points)
            for _ in range(2)
        ]
        assert tree_signature(runs[0].tree_) == tree_signature(runs[1].tree_)
        assert runs[0].metric.n_calls == runs[1].metric.n_calls
        total = sum(s.n for s in runs[0].subclusters_)
        assert total == len(points)

    def test_n_jobs_never_changes_the_tree(self):
        # The executor is invisible: 1 (inline), 2, and 4 worker processes
        # over the same 4 logical shards build byte-identical trees with
        # identical NCD.
        points = make_blobs(n=120)
        runs = {
            jobs: BUBBLE(
                EuclideanDistance(), max_nodes=12, seed=11, n_jobs=jobs, n_shards=4
            ).fit(points)
            for jobs in (1, 2, 4)
        }
        inline = runs[1]
        for jobs in (2, 4):
            assert tree_signature(inline.tree_) == tree_signature(runs[jobs].tree_)
            assert inline.metric.n_calls == runs[jobs].metric.n_calls
            assert len(runs[jobs].shard_summaries_) == 4

    def test_n_jobs_never_changes_the_pipeline(self):
        # The global phase runs in the parent for any n_jobs: HAC reads the
        # same clustroid distance matrix, so sub-cluster labels, centers and
        # NCD match the inline build exactly, over a HAC of 64+ clustroids.
        points = make_blobs(n=1500, n_centers=8, dim=8)
        runs = {
            jobs: cluster_dataset(
                points, EuclideanDistance(), n_clusters=8, max_nodes=40,
                seed=0, n_jobs=jobs, n_shards=2,
            )
            for jobs in (1, 2)
        }
        inline, pooled = runs[1], runs[2]
        assert len(inline.subclusters) >= 64
        np.testing.assert_array_equal(
            inline.subcluster_labels, pooled.subcluster_labels
        )
        assert len(inline.centers) == len(pooled.centers)
        for a, b in zip(inline.centers, pooled.centers):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert inline.n_distance_calls == pooled.n_distance_calls

    def test_merged_tree_is_audit_clean(self, audit):
        points = make_blobs(n=150)
        model = BUBBLE(
            EuclideanDistance(), max_nodes=12, seed=5, n_shards=3
        ).fit(points)
        report = audit(model.tree_)
        assert not report.errors


class TestMergeEfficiency:
    def test_merge_cheaper_than_rescanning_raw_points(self):
        """The merge re-inserts condensed leaf CF*s — far fewer items than
        the raw stream — so its NCD must undercut a fresh sequential scan."""
        points = make_blobs(n=800, seed=9)
        tracer = Tracer()
        with tracer:
            model = BUBBLE(EuclideanDistance(), max_nodes=12, seed=2, n_shards=4).fit(points)
        merge_ncd = tracer.span_aggregates()["merge"]["ncd"]
        n_merged = sum(s.n for s in model.subclusters_)
        assert n_merged == len(points)
        assert len(model.subclusters_) < len(points) // 4

        rescan = BUBBLE(EuclideanDistance(), max_nodes=12, seed=2).fit(points)
        assert merge_ncd < rescan.metric.n_calls


class TestAccounting:
    def test_ledger_partitions_total_ncd(self):
        points = make_blobs(n=150)
        tracer = Tracer()
        metric = EuclideanDistance()
        with tracer:
            BUBBLE(metric, max_nodes=12, seed=1, n_shards=3).fit(points)
        by_site = tracer.by_site
        assert sum(by_site.values()) == metric.n_calls
        assert tracer.total == metric.n_calls

    def test_shard_ingest_and_merge_spans_present(self):
        points = make_blobs(n=150)
        tracer = Tracer()
        with tracer:
            BUBBLE(EuclideanDistance(), max_nodes=12, seed=1, n_shards=3).fit(points)
        aggregates = tracer.span_aggregates()
        assert "shard-ingest" in aggregates
        assert "merge" in aggregates
        assert aggregates["shard-ingest"]["ncd"] > 0

    def test_merged_report_totals(self):
        points = make_blobs(n=150)
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=12, seed=1, n_shards=3).fit(points)
        report = model.ingest_report_
        assert report.n_seen == len(points)
        assert report.n_inserted == len(points)
        assert report.n_quarantined == 0
        assert report.n_distance_calls == metric.n_calls
        assert report.elapsed_seconds > 0

    def test_merge_absorption_preserves_object_count(self):
        # Regression: a shard feature absorbed into an earlier one from the
        # same merge batch mutates that entry's n in place; the merge must
        # not double-count the absorbed objects in tree.n_objects.
        from repro.datasets.vector import make_cell_dataset

        ds = make_cell_dataset(dim=10, n_clusters=50, n_points=600, seed=50)
        model = BUBBLE(
            EuclideanDistance(), max_nodes=10, seed=0, n_shards=4
        ).fit(list(ds.points))
        tree = model.tree_
        assert tree.n_objects == 600
        assert sum(f.n for f in tree.leaf_features()) == 600

    def test_shard_summaries(self):
        points = make_blobs(n=150)
        model = BUBBLE(
            EuclideanDistance(), max_nodes=12, seed=1, n_shards=3
        ).fit(points)
        summaries = model.shard_summaries_
        assert [s["shard_id"] for s in summaries] == [0, 1, 2]
        assert sum(s["n_objects"] for s in summaries) == len(points)
        assert all(s["n_calls"] > 0 for s in summaries)
        assert all(s["peak_rss_kb"] > 0 for s in summaries)


class TestRebookWorkerCalls:
    """``rebook_worker_calls`` books a worker's per-site calls on the
    parent metric, then charges whatever the worker left unattributed to
    the parent's innermost open site."""

    def _rebook(self, by_site, n_calls):
        metric, tracer = EuclideanDistance(), Tracer()
        with tracer, site("merge"), site("absorb"):
            rebook_worker_calls(metric, by_site, n_calls)
        return metric, tracer

    def test_residual_is_charged_to_the_innermost_open_site(self):
        metric, tracer = self._rebook({"leaf-d0": 5, "nonleaf-d2": 3}, 10)
        assert tracer.by_site == {"leaf-d0": 5, "nonleaf-d2": 3, "absorb": 2}
        assert metric.n_calls == 10

    @pytest.mark.parametrize(
        "by_site, n_calls",
        [({}, 0), ({"leaf-d0": 4}, 4), ({"leaf-d0": 4, "split": 1}, 9), ({}, 7)],
    )
    def test_sites_partition_the_booked_calls(self, by_site, n_calls):
        metric, tracer = self._rebook(by_site, n_calls)
        assert sum(tracer.by_site.values()) == metric.n_calls == n_calls

    def test_negative_residual_raises(self):
        with pytest.raises(ValueError, match="negative"):
            self._rebook({"leaf-d0": 5}, 3)


class TestQuarantineMerge:
    def test_global_indices_restored_in_scan_order(self):
        points = make_blobs(n=80, seed=4)
        bad_positions = [5, 17, 42]
        for position in bad_positions:
            points[position] = np.array([1e6, 1e6])
        metric = FlakyMetric(EuclideanDistance(), failure_rate=0.0, poison=poisoned)
        model = BUBBLE(metric, max_nodes=12, seed=3, n_shards=3).fit(
            points, on_error="quarantine"
        )
        indices = [record.index for record in model.quarantine_.records]
        assert indices == bad_positions
        assert model.ingest_report_.n_quarantined == len(bad_positions)
        assert model.ingest_report_.n_inserted == len(points) - len(bad_positions)

    def test_quarantine_limit_enforced_per_shard(self):
        from repro.exceptions import QuarantineOverflowError

        points = make_blobs(n=80, seed=4)
        for position in (4, 6, 8, 10):  # all land in shard 0 of 2
            points[position] = np.array([1e6, 1e6])
        metric = FlakyMetric(EuclideanDistance(), failure_rate=0.0, poison=poisoned)
        model = BUBBLE(metric, max_nodes=12, seed=3, n_shards=2)
        with pytest.raises(QuarantineOverflowError):
            model.fit(points, on_error="quarantine", max_quarantine=2)


class TestBudget:
    def test_budget_too_small_to_shard(self):
        metric = GuardedMetric(EuclideanDistance(), max_calls=3)
        model = BUBBLE(metric, max_nodes=12, seed=3, n_shards=4)
        with pytest.raises(MetricBudgetExceededError, match="too small to shard"):
            model.fit(make_blobs(n=40))

    def test_generous_budget_respected_globally(self):
        points = make_blobs(n=100)
        metric = GuardedMetric(EuclideanDistance(), max_calls=500_000)
        model = BUBBLE(metric, max_nodes=12, seed=3, n_shards=3).fit(points)
        assert model.ingest_report_.n_distance_calls == metric.n_calls
        assert metric.n_calls <= 500_000


class TestValidation:
    def test_checkpoint_path_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "ck.pkl"
        target.write_bytes(b"not a directory")
        model = BUBBLE(EuclideanDistance(), n_shards=2)
        with pytest.raises(ParameterError, match="existing file"):
            model.fit(make_blobs(n=20), checkpoint_path=target)

    def test_generator_seed_rejected(self):
        model = BUBBLE(
            EuclideanDistance(), seed=np.random.default_rng(0), n_shards=2
        )
        with pytest.raises(ParameterError, match="Generator"):
            model.fit(make_blobs(n=20))

    def test_unpicklable_metric_named(self):
        from repro.metrics import FunctionDistance

        metric = FunctionDistance(lambda a, b: float(abs(a - b)))
        model = BUBBLE(metric, n_shards=2)
        with pytest.raises(ParameterError, match="pickle"):
            model.fit([float(i) for i in range(20)])

    def test_empty_input_rejected(self):
        model = BUBBLE(EuclideanDistance(), n_shards=2)
        with pytest.raises(EmptyDatasetError):
            model.fit([])

    def test_parallel_fit_validates_on_error(self):
        model = BUBBLE(EuclideanDistance(), n_shards=2)
        with pytest.raises(ParameterError, match="on_error"):
            parallel_fit(model, make_blobs(n=10), on_error="ignore")


class TestShardedCheckpoint:
    def test_checkpoint_dir_holds_manifest_and_shard_files(self, tmp_path):
        from repro.persistence import (
            is_sharded_checkpoint,
            load_shard_manifest,
            shard_checkpoint_file,
        )

        ckdir = tmp_path / "ck"
        BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=3).fit(
            make_blobs(n=90), checkpoint_path=ckdir, checkpoint_every=10
        )
        assert is_sharded_checkpoint(ckdir)
        manifest = load_shard_manifest(ckdir)
        assert manifest["n_shards"] == 3
        assert manifest["algorithm"] == "BUBBLE"
        assert manifest["seed"] == 5
        for shard_id in range(3):
            assert (tmp_path / "ck" / f"shard-{shard_id:04d}.ckpt").exists()
            assert shard_checkpoint_file(ckdir, shard_id).endswith(
                f"shard-{shard_id:04d}.ckpt"
            )

    def test_resume_completed_checkpoint_is_equivalent(self, tmp_path):
        points = make_blobs(n=90)
        ckdir = tmp_path / "ck"
        clean = BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=3).fit(
            points, checkpoint_path=ckdir, checkpoint_every=10
        )
        resumed = BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=3).fit(
            points, resume_from=ckdir
        )
        assert tree_signature(clean.tree_) == tree_signature(resumed.tree_)
        assert resumed.ingest_report_.shards_resumed >= 1

    def test_resumed_report_counts_the_whole_scan(self, tmp_path):
        # Each shard's checkpoint is a prefix of that shard in the full
        # build, so the resume finishes the interrupted scan; its report
        # must count the calls the shards made before their checkpoints.
        points = make_blobs(n=300)
        kwargs = dict(max_nodes=12, seed=5, n_shards=3)
        ckdir = tmp_path / "ck"
        ref = BUBBLE(EuclideanDistance(), **kwargs).fit(points)
        BUBBLE(EuclideanDistance(), **kwargs).fit(
            points[:150], checkpoint_path=ckdir, checkpoint_every=25
        )
        resumed = BUBBLE(EuclideanDistance(), **kwargs).fit(points, resume_from=ckdir)
        report, ref_report = resumed.ingest_report_, ref.ingest_report_
        assert report.shards_resumed == 3
        assert resumed.metric.n_calls < ref.metric.n_calls
        assert report.n_distance_calls == ref_report.n_distance_calls
        assert (report.n_seen, report.n_rebuilds) == (ref_report.n_seen, ref_report.n_rebuilds)

    def test_resume_rejects_different_n_shards(self, tmp_path):
        from repro.exceptions import CheckpointError

        ckdir = tmp_path / "ck"
        BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=3).fit(
            make_blobs(n=60), checkpoint_path=ckdir
        )
        model = BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=2)
        with pytest.raises(CheckpointError, match="n_shards"):
            model.fit(make_blobs(n=60), resume_from=ckdir)

    def test_resume_rejects_different_seed(self, tmp_path):
        from repro.exceptions import CheckpointError

        ckdir = tmp_path / "ck"
        BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=2).fit(
            make_blobs(n=60), checkpoint_path=ckdir
        )
        model = BUBBLE(EuclideanDistance(), max_nodes=12, seed=6, n_shards=2)
        with pytest.raises(CheckpointError, match="seed"):
            model.fit(make_blobs(n=60), resume_from=ckdir)

    def test_resume_rejects_different_algorithm(self, tmp_path):
        from repro.core.preclusterer import BUBBLEFM
        from repro.exceptions import CheckpointError

        ckdir = tmp_path / "ck"
        BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=2).fit(
            make_blobs(n=60), checkpoint_path=ckdir
        )
        model = BUBBLEFM(EuclideanDistance(), max_nodes=12, seed=5, n_shards=2)
        with pytest.raises(CheckpointError, match="BUBBLE"):
            model.fit(make_blobs(n=60), resume_from=ckdir)

    def test_resume_rejects_different_config(self, tmp_path):
        from repro.exceptions import CheckpointError

        ckdir = tmp_path / "ck"
        BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=2).fit(
            make_blobs(n=60), checkpoint_path=ckdir
        )
        model = BUBBLE(EuclideanDistance(), max_nodes=30, seed=5, n_shards=2)
        with pytest.raises(CheckpointError, match="max_nodes"):
            model.fit(make_blobs(n=60), resume_from=ckdir)

    def test_resume_may_change_execution_knobs(self, tmp_path):
        points = make_blobs(n=90)
        ckdir = tmp_path / "ck"
        clean = BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=2).fit(
            points, checkpoint_path=ckdir, checkpoint_every=10
        )
        resumed = BUBBLE(
            EuclideanDistance(), max_nodes=12, seed=5, n_jobs=2,
            max_shard_retries=0, shard_retry_backoff=1.0,
        ).fit(points, resume_from=ckdir)
        assert tree_signature(clean.tree_) == tree_signature(resumed.tree_)

    def test_sequential_file_rejected_as_sharded_resume(self, tmp_path):
        from repro.exceptions import CheckpointError

        ckfile = tmp_path / "sequential.ckpt"
        BUBBLE(EuclideanDistance(), max_nodes=12, seed=5).fit(
            make_blobs(n=60), checkpoint_path=ckfile, checkpoint_every=10
        )
        model = BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=2)
        with pytest.raises(CheckpointError, match="sequential checkpoint file"):
            model.fit(make_blobs(n=60), resume_from=ckfile)

    def test_sharded_dir_rejected_as_sequential_resume(self, tmp_path):
        from repro.exceptions import CheckpointError

        ckdir = tmp_path / "ck"
        BUBBLE(EuclideanDistance(), max_nodes=12, seed=5, n_shards=2).fit(
            make_blobs(n=60), checkpoint_path=ckdir
        )
        model = BUBBLE(EuclideanDistance(), max_nodes=12, seed=5)
        with pytest.raises(CheckpointError, match="sharded checkpoint directory"):
            model.fit(make_blobs(n=60), resume_from=ckdir)


class TestGlobalQuarantine:
    def test_cap_enforced_across_shards_after_merge(self):
        # Two poisons per shard, each under the cap of 3 locally; the
        # merged total of 4 must still trip the global circuit breaker.
        from repro.exceptions import QuarantineOverflowError

        points = make_blobs(n=80, seed=4)
        for position in (4, 5, 6, 7):  # 2 land in each shard of 2
            points[position] = np.array([1e6, 1e6])
        metric = FlakyMetric(EuclideanDistance(), failure_rate=0.0, poison=poisoned)
        model = BUBBLE(metric, max_nodes=12, seed=3, n_shards=2)
        with pytest.raises(QuarantineOverflowError, match="merged quarantine"):
            model.fit(points, on_error="quarantine", max_quarantine=3)
        assert len(model.quarantine_) == 4
        assert model.ingest_report_ is not None


#: CPUs this process may actually schedule on (affinity-aware).
USABLE_CPUS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


class TestFig4ShardedBaseline:
    """The Figure 4 smoke workload (1,500 cell points, 50 clusters), built
    end to end once sequentially and twice as ``SHARDS`` merged shards on
    two workers. ``SHARDS`` is fixed independently of ``n_jobs``, so the
    merged tree and its NCD are the same for any worker count.

    The pinned constants are the baseline. After an intentional change that
    moves them, update them and say why in CHANGES.md.
    """

    SHARDS = 4

    #: Relative tolerance vs the pinned NCD totals.
    TOLERANCE = 0.02

    #: Allowed relative drift of the sharded build's quality metrics vs the
    #: sequential build (the shards grow their thresholds on partial views;
    #: Section 4.2.2 bounds the effect, it does not zero it).
    QUALITY_TOLERANCE = 0.25

    #: The acceptance bar for the scan speedup on four workers.
    MIN_SPEEDUP = 1.5

    #: (NCD total, tree fingerprint) per build.
    SEQUENTIAL = (60_742, "f2e256c39fa08af8d19a146837953000d58ac8ce263681c0b33f20ad5b82a5ca")
    PARALLEL = (95_036, "faf759f5317c97032951422b8fb735d7480a90fdfe4ad039fbfbad132a426d8f")

    @classmethod
    def build(cls, ds, n_jobs):
        """One traced ``cluster_dataset`` run; returns (result, summary)."""
        tracer = Tracer()
        with tracer:
            result = cluster_dataset(
                list(ds.points), EuclideanDistance(), n_clusters=50,
                max_nodes=paper_max_nodes(50), seed=0, assign=True,
                n_jobs=n_jobs, n_shards=cls.SHARDS if n_jobs > 1 else None,
            )
        tracer.close()
        return result, tracer.summary()

    @pytest.fixture(scope="class")
    def fig4(self):
        ds = make_cell_dataset(dim=20, n_clusters=50, n_points=1500, seed=50)
        runs = {
            name: self.build(ds, jobs)
            for name, jobs in (("sequential", 1), ("parallel", 2), ("repeat", 2))
        }
        return ds, runs

    def test_tree_fingerprints_match_pins(self, fig4):
        _, runs = fig4
        fingerprints = {
            name: tree_fingerprint(result.model.tree_)
            for name, (result, _summary) in runs.items()
        }
        assert fingerprints["sequential"] == self.SEQUENTIAL[1]
        assert fingerprints["parallel"] == self.PARALLEL[1]
        assert fingerprints["repeat"] == fingerprints["parallel"], (
            "two parallel runs produced different merged trees"
        )

    def test_ncd_within_tolerance_of_pins(self, fig4):
        _, runs = fig4
        ncd = {name: summary["ncd_total"] for name, (_result, summary) in runs.items()}
        for name, (want, _) in (
            ("sequential", self.SEQUENTIAL), ("parallel", self.PARALLEL)
        ):
            assert ncd[name] == pytest.approx(want, rel=self.TOLERANCE), (
                f"{name} NCD drifted: {ncd[name]} vs pinned {want}"
            )
        # NCD is part of the determinism contract, not just the tree shape.
        assert ncd["repeat"] == ncd["parallel"]

    def test_merged_tree_is_audit_clean(self, fig4, audit):
        _, runs = fig4
        assert not audit(runs["parallel"][0].model.tree_).errors

    def test_conservation_law_holds_across_shards(self, fig4):
        _, runs = fig4
        for name in ("sequential", "parallel"):
            _result, summary = runs[name]
            assert sum(summary["ncd_by_site"].values()) == summary["ncd_total"], name

    def test_shards_partition_the_input(self, fig4):
        ds, runs = fig4
        shards = runs["parallel"][0].model.shard_summaries_
        assert len(shards) == self.SHARDS
        assert sum(shard["n_objects"] for shard in shards) == len(ds.points)

    def test_quality_within_tolerance_of_sequential(self, fig4):
        ds, runs = fig4
        seq, par = runs["sequential"][0], runs["parallel"][0]
        for key, measure in (
            ("clustroid_quality", lambda r: clustroid_quality(ds.centers, r.centers)),
            ("distortion", lambda r: distortion(ds.points, r.labels)),
        ):
            assert measure(par) == pytest.approx(
                measure(seq), rel=self.QUALITY_TOLERANCE
            ), f"sharded build's {key} drifted from sequential"

    @pytest.mark.skipif(
        USABLE_CPUS < 4,
        reason=f"speedup gate needs >= 4 usable CPUs; this machine has {USABLE_CPUS}",
    )
    def test_speedup_on_four_workers(self, fig4):
        ds, runs = fig4
        sequential = runs["sequential"][0].scan_seconds
        parallel = self.build(ds, 4)[0].scan_seconds
        assert sequential / parallel >= self.MIN_SPEEDUP, (
            f"scan speedup {sequential / parallel:.2f}x on {USABLE_CPUS} CPUs "
            f"is below the {self.MIN_SPEEDUP}x bar"
        )
