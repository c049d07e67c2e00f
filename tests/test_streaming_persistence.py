"""Unit tests for partial_fit streaming, model summary, and persistence."""

import numpy as np
import pytest

from repro import BUBBLE
from repro.core.features import SubCluster
from repro.exceptions import NotFittedError, ParameterError
from repro.metrics import EditDistance, EuclideanDistance
from repro.observability import StatsSnapshot
from repro.persistence import load_subclusters, save_subclusters


class TestPartialFit:
    def test_batches_equal_single_scan(self, blob_data):
        points, _, _ = blob_data
        a = BUBBLE(EuclideanDistance(), max_nodes=10, seed=7).fit(points)
        b = BUBBLE(EuclideanDistance(), max_nodes=10, seed=7)
        b.partial_fit(points[:100])
        b.partial_fit(points[100:])
        b.finalize()
        sig_a = sorted((s.n, round(s.radius, 9)) for s in a.subclusters_)
        sig_b = sorted((s.n, round(s.radius, 9)) for s in b.subclusters_)
        assert sig_a == sig_b

    def test_counts_accumulate(self, euclidean, rng):
        model = BUBBLE(euclidean, seed=0)
        model.partial_fit(list(rng.normal(size=(50, 2))))
        model.partial_fit(list(rng.normal(size=(30, 2))))
        assert model.tree_.n_objects == 80

    def test_finalize_requires_tree(self, euclidean):
        with pytest.raises(NotFittedError):
            BUBBLE(euclidean).finalize()

    def test_refit_resets(self, euclidean, rng):
        model = BUBBLE(euclidean, seed=0)
        model.fit(list(rng.normal(size=(40, 2))))
        model.fit(list(rng.normal(size=(25, 2))))
        assert model.tree_.n_objects == 25


class TestSummary:
    def test_keys_and_values(self, euclidean, blob_data):
        points, _, _ = blob_data
        model = BUBBLE(euclidean, max_nodes=10, seed=0).fit(points)
        s = StatsSnapshot.from_model(model).to_dict()
        assert s["n_objects"] == len(points)
        assert s["n_clusters"] == model.n_subclusters_
        assert s["ncd_total"] == model.ingest_report_.n_distance_calls > 0
        assert s["n_nodes"] <= 10
        assert s["report"] == model.ingest_report_.to_dict()

    def test_requires_fit(self, euclidean):
        with pytest.raises(NotFittedError):
            StatsSnapshot.from_model(BUBBLE(euclidean))


class TestPersistence:
    def test_vector_round_trip(self, tmp_path, euclidean, blob_data):
        points, _, _ = blob_data
        model = BUBBLE(euclidean, max_nodes=10, seed=0).fit(points)
        path = tmp_path / "subclusters.json"
        save_subclusters(path, model.subclusters_, metadata={"metric": "euclidean"})
        loaded, meta = load_subclusters(path)
        assert meta == {"metric": "euclidean"}
        assert len(loaded) == len(model.subclusters_)
        for orig, back in zip(model.subclusters_, loaded):
            assert back.n == orig.n
            assert back.radius == pytest.approx(orig.radius)
            np.testing.assert_allclose(back.clustroid, np.asarray(orig.clustroid))
            assert len(back.representatives) == len(orig.representatives)

    def test_string_round_trip(self, tmp_path):
        model = BUBBLE(EditDistance(), threshold=1.0, seed=0).fit(
            ["data", "date", "data", "web", "wib"]
        )
        path = tmp_path / "strings.json"
        save_subclusters(path, model.subclusters_)
        loaded, _ = load_subclusters(path)
        assert {s.clustroid for s in loaded} == {
            s.clustroid for s in model.subclusters_
        }
        assert all(isinstance(s.clustroid, str) for s in loaded)

    def test_loaded_centers_usable_for_labeling(self, tmp_path, blob_data):
        from repro.pipelines import nearest_assignment

        points, _, _ = blob_data
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=10, seed=0).fit(points)
        path = tmp_path / "subclusters.json"
        save_subclusters(path, model.subclusters_)
        loaded, _ = load_subclusters(path)
        labels = nearest_assignment(metric, points[:20], [s.clustroid for s in loaded])
        assert labels.shape == (20,)

    def test_unknown_object_type_rejected(self, tmp_path):
        bad = [SubCluster(clustroid={1, 2}, n=1, radius=0.0, representatives=[{1, 2}])]
        with pytest.raises(ParameterError):
            save_subclusters(tmp_path / "bad.json", bad)

    def test_custom_codec(self, tmp_path):
        subs = [SubCluster(clustroid=(1, 2), n=3, radius=0.5, representatives=[(1, 2)])]
        path = tmp_path / "tuples.json"
        save_subclusters(path, subs, encode=lambda t: list(t))
        loaded, _ = load_subclusters(path, decode=lambda v: tuple(v))
        assert loaded[0].clustroid == (1, 2)

    def test_version_check(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"format_version": 99, "subclusters": []}')
        with pytest.raises(ParameterError):
            load_subclusters(path)


class TestPersistenceAcrossRebuilds:
    """Round-trips must survive the rebuild path: trees that grew through
    Type II re-insertions (and outlier parking) produce summaries whose
    serialized form is identical to the in-memory one."""

    def _assert_identical(self, saved, loaded):
        assert len(loaded) == len(saved)
        for orig, back in zip(saved, loaded):
            assert back.n == orig.n
            assert back.radius == pytest.approx(orig.radius, rel=0, abs=0)
            np.testing.assert_array_equal(
                np.asarray(back.clustroid), np.asarray(orig.clustroid)
            )
            assert len(back.representatives) == len(orig.representatives)
            for r_orig, r_back in zip(orig.representatives, back.representatives):
                np.testing.assert_array_equal(
                    np.asarray(r_back), np.asarray(r_orig)
                )

    def test_rebuilt_tree_round_trip(self, tmp_path, euclidean, rng):
        points = list(rng.normal(size=(600, 2)))
        model = BUBBLE(euclidean, max_nodes=8, seed=0).fit(points)
        assert model.tree_.n_rebuilds > 0  # the rebuild path actually ran
        path = tmp_path / "rebuilt.json"
        save_subclusters(path, model.subclusters_)
        loaded, _ = load_subclusters(path)
        self._assert_identical(model.subclusters_, loaded)

    def test_rebuilds_with_outlier_parking_round_trip(self, tmp_path, euclidean, rng):
        dense = list(rng.normal(size=(400, 2)))
        stragglers = list(rng.normal(size=(20, 2)) * 50 + 500)
        order = rng.permutation(420)
        points = [(dense + stragglers)[i] for i in order]
        model = BUBBLE(
            euclidean, max_nodes=8, outlier_fraction=0.5, seed=0
        ).fit(points)
        assert model.tree_.n_rebuilds > 0
        assert model.tree_.n_outliers_parked > 0
        assert model.tree_.n_objects == 420  # parked clusters were re-absorbed
        path = tmp_path / "outliers.json"
        save_subclusters(path, model.subclusters_)
        loaded, _ = load_subclusters(path)
        self._assert_identical(model.subclusters_, loaded)
        assert sum(s.n for s in loaded) == 420

    def test_string_tree_with_rebuilds_round_trip(self, tmp_path, rng):
        pool = ["smith", "smyth", "jones", "brown", "braun", "taylor"]
        words = [pool[i % 6] + str(int(x)) for i, x in enumerate(rng.uniform(0, 100, 300))]
        model = BUBBLE(EditDistance(), max_nodes=4, seed=1).fit(words)
        assert model.tree_.n_rebuilds > 0
        path = tmp_path / "strings_rebuilt.json"
        save_subclusters(path, model.subclusters_)
        loaded, _ = load_subclusters(path)
        assert sorted((s.n, s.clustroid) for s in loaded) == sorted(
            (s.n, s.clustroid) for s in model.subclusters_
        )
