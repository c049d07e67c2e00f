"""The one build configuration: drivers, shards and checkpoints share it."""

from __future__ import annotations

import dataclasses

import pytest

from repro import BUBBLE, BUBBLEFM, EuclideanDistance
from repro.core.config import BUBBLEFMConfig, BuildConfig
from repro.exceptions import ParameterError
from repro.persistence import load_checkpoint, shard_checkpoint_file
from repro.pipelines import cluster_dataset


class TestDriverConfig:
    def test_options_become_the_frozen_config(self):
        model = BUBBLE(EuclideanDistance(), max_nodes=20, threshold=1.5, seed=1)
        assert model.config == BuildConfig(max_nodes=20, threshold=1.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.config.max_nodes = 30  # type: ignore[misc]

    def test_bubble_fm_adds_its_image_space_knobs(self):
        model = BUBBLEFM(EuclideanDistance(), image_dim=3, fm_iterations=2)
        assert isinstance(model.config, BUBBLEFMConfig)
        assert (model.config.image_dim, model.config.fm_iterations) == (3, 2)
        assert "__init__" not in BUBBLEFM.__dict__

    def test_bubble_rejects_bubble_fm_knobs(self):
        with pytest.raises(TypeError):
            BUBBLE(EuclideanDistance(), image_dim=3)

    @pytest.mark.parametrize(
        "options",
        [
            {"n_jobs": 0},
            {"n_shards": 0},
            {"max_shard_retries": -1},
            {"shard_timeout_seconds": 0.0},
            {"shard_retry_backoff": -0.1},
        ],
    )
    def test_validation(self, options):
        with pytest.raises(ParameterError):
            BuildConfig(**options)

    def test_cluster_dataset_forwards_options(self, blob_data):
        points, _, _ = blob_data
        result = cluster_dataset(
            points, EuclideanDistance(), n_clusters=5, algorithm="bubble-fm",
            max_nodes=20, threshold=0.25, fm_iterations=2, seed=0,
        )
        config = result.model.config
        assert (config.max_nodes, config.threshold, config.fm_iterations) == (20, 0.25, 2)

    def test_cluster_dataset_rejects_unknown_option(self, blob_data):
        points, _, _ = blob_data
        with pytest.raises(TypeError):
            cluster_dataset(points, EuclideanDistance(), n_clusters=5, max_node=20)


class TestRecordedConfig:
    def test_sequential_checkpoint_records_config(self, blob_data, tmp_path):
        points, _, _ = blob_data
        path = tmp_path / "scan.ckpt"
        model = BUBBLEFM(EuclideanDistance(), max_nodes=20, image_dim=3, seed=0)
        model.fit(points, checkpoint_path=path, checkpoint_every=100)
        ck = load_checkpoint(path, metric=EuclideanDistance())
        assert ck.metadata["algorithm"] == "BUBBLEFM"
        assert ck.metadata["config"] == dataclasses.asdict(model.config)

    def test_shards_run_the_parent_config_sequentially(self, blob_data, tmp_path):
        points, _, _ = blob_data
        ckdir = tmp_path / "ck"
        model = BUBBLE(
            EuclideanDistance(), max_nodes=12, seed=5, n_shards=2, max_shard_retries=1
        )
        model.fit(points, checkpoint_path=ckdir, checkpoint_every=20)
        shard = load_checkpoint(shard_checkpoint_file(ckdir, 0), EuclideanDistance())
        expected = dataclasses.replace(model.config, n_jobs=1, n_shards=None)
        assert shard.metadata["config"] == dataclasses.asdict(expected)
