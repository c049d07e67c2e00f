"""Checkpoint/resume: a scan killed mid-flight restarts from its last
snapshot and converges to the same result as an uninterrupted run."""

import pickle
import sys
import types

import numpy as np
import pytest

from repro import BUBBLE, BUBBLEFM, EuclideanDistance, persistence
from repro.exceptions import CheckpointError, MetricBudgetExceededError
from repro.metrics import EditDistance, FunctionDistance
from repro.persistence import Checkpoint, load_checkpoint, save_checkpoint
from repro.robustness import GuardedMetric


def signatures(model):
    return sorted((s.n, round(s.radius, 9)) for s in model.subclusters_)


@pytest.fixture
def points(rng):
    return list(rng.normal(size=(500, 2)))


class TestCheckpointPrimitives:
    def test_round_trip_tree_and_state(self, points, tmp_path):
        path = tmp_path / "scan.ckpt"
        model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=3)
        model.partial_fit(points[:200])
        save_checkpoint(
            path, model.tree_, cursor=200,
            state={"custom": [1, 2]}, metadata={"note": "unit"},
        )
        ck = load_checkpoint(path, metric=EuclideanDistance())
        assert isinstance(ck, Checkpoint)
        assert ck.cursor == 200
        assert ck.state == {"custom": [1, 2]}
        assert ck.metadata == {"note": "unit"}
        assert ck.tree.n_objects == 200
        assert signatures_from_tree(ck.tree) == signatures_from_tree(model.tree_)

    def test_metric_reattached_everywhere(self, points, tmp_path):
        path = tmp_path / "scan.ckpt"
        model = BUBBLE(EuclideanDistance(), max_nodes=15, seed=0)
        model.partial_fit(points[:150])
        save_checkpoint(path, model.tree_, cursor=150)
        fresh = EuclideanDistance()
        ck = load_checkpoint(path, metric=fresh)
        assert ck.tree.policy.metric is fresh
        for feature in ck.tree.leaf_features():
            assert feature.metric is fresh

    def test_unpicklable_metric_is_stripped(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        metric = FunctionDistance(lambda a, b: abs(a - b), name="lam")
        model = BUBBLE(metric, threshold=0.5, seed=0)
        model.partial_fit([float(i % 7) for i in range(50)])
        save_checkpoint(path, model.tree_, cursor=50)  # must not raise
        ck = load_checkpoint(path, metric=metric)
        assert ck.tree.n_objects == 50

    # pickle reports corruption through several exception types depending on
    # which opcode the garbage happens to hit; all must map to CheckpointError
    @pytest.mark.parametrize(
        "garbage", [b"this is not a pickle", b"garbage\n", b"", b"\x80\x05"]
    )
    def test_corrupt_file_raises_checkpoint_error(self, tmp_path, garbage):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(garbage)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, metric=EuclideanDistance())

    # Routing caches travel in the pickle and gain fields between versions,
    # so any other version must be refused up front, not fail mid-resume.
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 9, "8", None])
    def test_other_format_version_raises_checkpoint_error(
        self, points, tmp_path, monkeypatch, version
    ):
        path = tmp_path / "scan.ckpt"
        model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=3)
        model.partial_fit(points[:100])
        monkeypatch.setattr(persistence, "_CHECKPOINT_VERSION", version)
        save_checkpoint(path, model.tree_, cursor=100)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            load_checkpoint(path, metric=EuclideanDistance())

    def test_checkpoint_naming_a_removed_class_raises_checkpoint_error(
        self, tmp_path, monkeypatch
    ):
        """Version-6 checkpoints pickled each BUBBLE policy's
        ``repro.core.arena.FeatureArena``, a module this build does not
        have. Files from before version 8 carry no version header, so the
        load refuses them by version before it looks up any class."""
        arena = types.ModuleType("repro.core.arena")
        arena.FeatureArena = type("FeatureArena", (), {"__module__": arena.__name__})
        monkeypatch.setitem(sys.modules, arena.__name__, arena)
        payload = {"format_version": 6, "cursor": 0, "tree": arena.FeatureArena()}
        path = tmp_path / "v6.ckpt"
        path.write_bytes(pickle.dumps(payload))
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            load_checkpoint(path, metric=EuclideanDistance())

    def test_atomic_write_replaces_existing(self, points, tmp_path):
        path = tmp_path / "scan.ckpt"
        model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=3)
        model.partial_fit(points[:100])
        save_checkpoint(path, model.tree_, cursor=100)
        model.partial_fit(points[100:200])
        save_checkpoint(path, model.tree_, cursor=200)
        assert load_checkpoint(path, metric=EuclideanDistance()).cursor == 200
        assert not list(tmp_path.glob("*.tmp.*"))


def _scan_counters(report):
    """A report's counters, without wall time and resume bookkeeping."""
    counters = report.to_dict()
    for key in ("elapsed_seconds", "resumed_at", "shards_resumed"):
        del counters[key]
    return counters


def signatures_from_tree(tree):
    return sorted((f.n, round(f.radius, 9)) for f in tree.leaf_features())


class TestResumeEquivalence:
    def test_bubble_resume_matches_uninterrupted(self, points, tmp_path):
        path = tmp_path / "scan.ckpt"
        ref = BUBBLE(EuclideanDistance(), max_nodes=20, seed=5).fit(points)

        interrupted = BUBBLE(EuclideanDistance(), max_nodes=20, seed=5)
        # "Kill" the build partway: scan only a prefix, checkpointing as we go.
        interrupted.fit(points[:317], checkpoint_path=path, checkpoint_every=100)
        assert interrupted.ingest_report_.n_checkpoints == 3

        resumed = BUBBLE(EuclideanDistance(), max_nodes=20, seed=5)
        resumed.fit(points, resume_from=path)
        assert resumed.ingest_report_.resumed_at == 300
        assert resumed.tree_.n_objects == len(points)
        assert signatures(resumed) == signatures(ref)

    def test_resumed_report_counts_the_whole_scan(self, tmp_path):
        # The resumed run's metric starts at zero; the report must still
        # count the calls made before the checkpoint.
        points = list(np.random.default_rng(0).uniform(0, 100, size=(600, 2)))
        path = tmp_path / "scan.ckpt"
        ref = BUBBLE(EuclideanDistance(), max_nodes=20, seed=0).fit(points)
        BUBBLE(EuclideanDistance(), max_nodes=20, seed=0).fit(
            points[:300], checkpoint_path=path, checkpoint_every=300
        )
        resumed = BUBBLE(EuclideanDistance(), max_nodes=20, seed=0)
        resumed.fit(points, resume_from=path)
        assert resumed.metric.n_calls < ref.metric.n_calls
        assert _scan_counters(resumed.ingest_report_) == _scan_counters(
            ref.ingest_report_
        )

    def test_bubble_fm_resume_matches_uninterrupted(self, rng, tmp_path):
        data = list(rng.uniform(0, 100, size=(400, 2)))
        path = tmp_path / "scan.ckpt"
        kwargs = dict(max_nodes=15, image_dim=2, seed=4)
        ref = BUBBLEFM(EuclideanDistance(), **kwargs).fit(data)

        interrupted = BUBBLEFM(EuclideanDistance(), **kwargs)
        interrupted.fit(data[:250], checkpoint_path=path, checkpoint_every=125)

        resumed = BUBBLEFM(EuclideanDistance(), **kwargs)
        resumed.fit(data, resume_from=path)
        assert signatures(resumed) == signatures(ref)

    def test_crash_via_budget_then_resume(self, points, tmp_path):
        """A realistic kill: the metric budget aborts the scan mid-flight;
        the resumed run (fresh budget) matches the uninterrupted result."""
        path = tmp_path / "scan.ckpt"
        ref = BUBBLE(EuclideanDistance(), max_nodes=20, seed=5).fit(points)

        budgeted = GuardedMetric(EuclideanDistance(), max_calls=20_000)
        crashed = BUBBLE(budgeted, max_nodes=20, seed=5)
        with pytest.raises(MetricBudgetExceededError):
            crashed.fit(points, checkpoint_path=path, checkpoint_every=50)
        cursor = load_checkpoint(path, metric=EuclideanDistance()).cursor
        assert 0 < cursor < len(points)

        resumed = BUBBLE(EuclideanDistance(), max_nodes=20, seed=5)
        resumed.fit(points, resume_from=path)
        assert signatures(resumed) == signatures(ref)

    def test_resume_restores_rng_stream(self, points, tmp_path):
        """The threshold heuristic samples leaves from the shared generator;
        equivalence across resume proves the RNG state round-trips."""
        path = tmp_path / "scan.ckpt"
        model = BUBBLE(EuclideanDistance(), max_nodes=10, seed=9)
        model.fit(points[:400], checkpoint_path=path, checkpoint_every=200)
        assert model.tree_.n_rebuilds > 0  # the heuristic actually ran

        resumed = BUBBLE(EuclideanDistance(), max_nodes=10, seed=9)
        resumed.fit(points[:400], resume_from=path)
        ref = BUBBLE(EuclideanDistance(), max_nodes=10, seed=9).fit(points[:400])
        assert signatures(resumed) == signatures(ref)

    def test_string_scan_resume(self, tmp_path):
        words = [w + str(i % 9) for i, w in enumerate(
            ["smith", "smyth", "jones", "joness", "brown", "braun"] * 25
        )]
        path = tmp_path / "scan.ckpt"
        ref = BUBBLE(EditDistance(), threshold=2.0, seed=2).fit(words)
        interrupted = BUBBLE(EditDistance(), threshold=2.0, seed=2)
        interrupted.fit(words[:80], checkpoint_path=path, checkpoint_every=40)
        resumed = BUBBLE(EditDistance(), threshold=2.0, seed=2)
        resumed.fit(words, resume_from=path)
        assert signatures(resumed) == signatures(ref)


class TestResumeState:
    def test_quarantine_survives_checkpoint(self, tmp_path):
        from repro.robustness import FlakyMetric

        path = tmp_path / "scan.ckpt"
        objects = [0.0] + [float(i) for i in range(1, 60)]
        objects[10] = "bad"
        objects[45] = "bad"
        metric = FlakyMetric(
            FunctionDistance(lambda a, b: abs(a - b)),
            failure_rate=0.0,
            poison=lambda o: o == "bad",
        )
        model = BUBBLE(metric, threshold=3.0, seed=0)
        model.fit(
            objects[:30], on_error="quarantine",
            checkpoint_path=path, checkpoint_every=15,
        )
        resumed = BUBBLE(metric, threshold=3.0, seed=0)
        resumed.fit(objects, on_error="quarantine", resume_from=path)
        assert resumed.ingest_report_.n_quarantined == 2
        assert {r.index for r in resumed.quarantine_} == {10, 45}
        assert resumed.ingest_report_.n_seen == 60

    def test_algorithm_mismatch_rejected(self, points, tmp_path):
        path = tmp_path / "scan.ckpt"
        model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=0)
        model.fit(points[:100], checkpoint_path=path, checkpoint_every=50)
        other = BUBBLEFM(EuclideanDistance(), max_nodes=20, seed=0)
        with pytest.raises(CheckpointError, match="BUBBLE"):
            other.fit(points, resume_from=path)

    @pytest.mark.parametrize(
        "field, value",
        [("max_nodes", 500), ("sample_size", 75), ("threshold", 1.0), ("prune", False)],
    )
    def test_config_mismatch_rejected(self, points, tmp_path, field, value):
        path = tmp_path / "scan.ckpt"
        written = dict(max_nodes=20, sample_size=30, seed=0)
        BUBBLE(EuclideanDistance(), **written).fit(
            points[:100], checkpoint_path=path, checkpoint_every=50
        )
        other = BUBBLE(EuclideanDistance(), **{**written, field: value})
        with pytest.raises(CheckpointError, match=field):
            other.fit(points, resume_from=path)

    def test_execution_knobs_may_change_on_resume(self, points, tmp_path):
        path = tmp_path / "scan.ckpt"
        ref = BUBBLE(EuclideanDistance(), max_nodes=20, seed=5).fit(points)
        BUBBLE(EuclideanDistance(), max_nodes=20, seed=5).fit(
            points[:300], checkpoint_path=path, checkpoint_every=100
        )
        resumed = BUBBLE(
            EuclideanDistance(), max_nodes=20, seed=5,
            max_shard_retries=0, shard_retry_backoff=1.0,
        )
        resumed.fit(points, resume_from=path)
        assert signatures(resumed) == signatures(ref)

    def test_missing_checkpoint_raises(self, points, tmp_path):
        model = BUBBLE(EuclideanDistance(), seed=0)
        with pytest.raises((CheckpointError, FileNotFoundError)):
            model.fit(points, resume_from=tmp_path / "nope.ckpt")

    def test_report_counts_checkpoints(self, points, tmp_path):
        path = tmp_path / "scan.ckpt"
        model = BUBBLE(EuclideanDistance(), max_nodes=20, seed=0)
        model.fit(points[:220], checkpoint_path=path, checkpoint_every=100)
        assert model.ingest_report_.n_checkpoints == 2
        assert model.ingest_report_.n_seen == 220


class TestPipelineAndCliIntegration:
    def test_cluster_dataset_forwards_fault_kwargs(self, blob_data, tmp_path):
        from repro.pipelines import cluster_dataset

        points, _, _ = blob_data
        path = tmp_path / "scan.ckpt"
        result = cluster_dataset(
            points, EuclideanDistance(), n_clusters=5, max_nodes=20, seed=0,
            on_error="quarantine", checkpoint_path=path, checkpoint_every=100,
        )
        assert result.ingest_report.n_seen == len(points)
        assert result.ingest_report.n_checkpoints >= 1
        assert path.exists()

    def test_cli_checkpoint_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "data.csv"
        ckpt = tmp_path / "scan.ckpt"
        labels = tmp_path / "labels.txt"
        assert main([
            "generate", "ds2", str(data), "--n-points", "400",
            "--n-clusters", "10", "--seed", "1",
        ]) == 0
        assert main([
            "cluster", str(data), "--type", "vectors", "--max-nodes", "30",
            "--n-clusters", "10", "--checkpoint", str(ckpt),
            "--checkpoint-every", "100", "--seed", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "checkpoints written" in out
        assert ckpt.exists()
        assert main([
            "cluster", str(data), "--type", "vectors", "--max-nodes", "30",
            "--n-clusters", "10", "--resume-from", str(ckpt),
            "--output", str(labels), "--seed", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed at object" in out
        assert labels.exists()

    def test_cli_budget_abort_exits_3(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "data.csv"
        assert main([
            "generate", "ds2", str(data), "--n-points", "300",
            "--n-clusters", "5", "--seed", "1",
        ]) == 0
        code = main([
            "cluster", str(data), "--type", "vectors", "--max-nodes", "20",
            "--n-clusters", "5", "--max-distance-calls", "500", "--seed", "0",
        ])
        assert code == 3
        assert "scan aborted" in capsys.readouterr().err
