"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import stream_strings, stream_vectors
from repro.metrics import EuclideanDistance


class TestGenerate:
    def test_vectors(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        labels = tmp_path / "labels.txt"
        code = main([
            "generate", "cell", str(out), "--labels", str(labels),
            "--n-points", "200", "--n-clusters", "4", "--dim", "3",
        ])
        assert code == 0
        pts = list(stream_vectors(out))
        assert len(pts) == 200
        assert pts[0].shape == (3,)
        labs = labels.read_text().splitlines()
        assert len(labs) == 200
        assert set(map(int, labs)) == {0, 1, 2, 3}

    def test_strings(self, tmp_path):
        out = tmp_path / "records.txt"
        code = main([
            "generate", "strings", str(out),
            "--n-points", "100", "--n-clusters", "10",
        ])
        assert code == 0
        assert len(list(stream_strings(out))) == 100

    @pytest.mark.parametrize("name", ["ds1", "ds2"])
    def test_paper_datasets(self, tmp_path, name):
        out = tmp_path / "pts.csv"
        assert main(["generate", name, str(out), "--n-points", "300"]) == 0
        assert len(list(stream_vectors(out))) == 300


class TestCluster:
    def test_vectors_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        main(["generate", "cell", str(data), "--n-points", "300",
              "--n-clusters", "3", "--dim", "2"])
        labels_file = tmp_path / "labels.txt"
        code = main([
            "cluster", str(data), "--type", "vectors",
            "--n-clusters", "3", "--max-nodes", "10",
            "--output", str(labels_file),
        ])
        assert code == 0
        labels = [int(x) for x in labels_file.read_text().splitlines()]
        assert len(labels) == 300
        assert set(labels) == {0, 1, 2}
        assert "sub-clusters" in capsys.readouterr().out

    def test_strings_with_bubble_fm(self, tmp_path):
        data = tmp_path / "records.txt"
        main(["generate", "strings", str(data), "--n-points", "80",
              "--n-clusters", "8"])
        code = main([
            "cluster", str(data), "--type", "strings",
            "--algorithm", "bubble-fm", "--threshold", "2.0",
            "--n-clusters", "8",
        ])
        assert code == 0

    def test_unknown_metric_fails(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        main(["generate", "cell", str(data), "--n-points", "50",
              "--n-clusters", "2", "--dim", "2"])
        code = main(["cluster", str(data), "--type", "vectors",
                     "--metric", "cosine"])
        assert code == 2
        assert "unknown vector metric" in capsys.readouterr().err

    def test_empty_input_fails(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["cluster", str(data), "--type", "vectors"]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [("1,2\n3,4\n5,6,7\n", "bad.csv:3: 3 coordinates"),
         ("1,2\nnot,a,number\n", "bad.csv:2: malformed vector line")],
        ids=["ragged", "unparsable"],
    )
    def test_malformed_vector_file_fails_cleanly(self, tmp_path, capsys, text, message):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        assert main(["cluster", str(data), "--type", "vectors"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", ["cluster", "authority"])
    def test_non_utf8_string_file_fails_cleanly(self, tmp_path, capsys, command):
        data = tmp_path / "bad.txt"
        data.write_bytes(b"abc\n\xff\xfe\n")
        argv = (
            ["cluster", str(data), "--type", "strings"] if command == "cluster"
            else ["authority", str(data), str(tmp_path / "o.tsv")]
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.txt:2: not valid UTF-8" in err

    def test_non_finite_vector_file_fails_cleanly(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("1,2\n3,nan\n4,5\n")
        assert main(["cluster", str(data), "--type", "vectors"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nan.csv:2: non-finite coordinate" in err

    @pytest.mark.parametrize("command", ["cluster", "authority"])
    def test_missing_input_file_fails_cleanly(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.txt")
        argv = (
            ["cluster", missing, "--type", "strings"] if command == "cluster"
            else ["authority", missing, str(tmp_path / "o.tsv")]
        )
        assert main(argv) == 2
        assert "error: cannot read" in capsys.readouterr().err


class TestAuthority:
    def test_builds_file(self, tmp_path, capsys):
        data = tmp_path / "records.txt"
        main(["generate", "strings", str(data), "--n-points", "120",
              "--n-clusters", "12"])
        out = tmp_path / "authority.tsv"
        code = main(["authority", str(data), str(out), "--threshold", "2.0"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            canonical, member = line.split("\t")
            assert canonical and member
        assert "classes" in capsys.readouterr().out

    def test_empty_input_fails(self, tmp_path):
        data = tmp_path / "empty.txt"
        data.write_text("")
        assert main(["authority", str(data), str(tmp_path / "o.tsv")]) == 2


class TestMisc:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestEvaluate:
    def test_scores_labels(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        labels = tmp_path / "truth.txt"
        main(["generate", "cell", str(data), "--labels", str(labels),
              "--n-points", "200", "--n-clusters", "4", "--dim", "2"])
        pred = tmp_path / "pred.txt"
        main(["cluster", str(data), "--type", "vectors", "--n-clusters", "4",
              "--max-nodes", "10", "--output", str(pred)])
        capsys.readouterr()
        code = main(["evaluate", str(pred), str(labels)])
        out = capsys.readouterr().out
        assert code == 0
        assert "adjusted Rand index" in out
        assert "misplaced objects" in out

    def test_perfect_labels(self, tmp_path, capsys):
        truth = tmp_path / "t.txt"
        truth.write_text("0\n0\n1\n1\n")
        code = main(["evaluate", str(truth), str(truth)])
        out = capsys.readouterr().out
        assert code == 0
        assert "adjusted Rand index: 1.0000" in out

    def test_malformed_label_file_fails_cleanly(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("0\nzero\n")
        assert main(["evaluate", str(a), str(a)]) == 2
        assert "a.txt:2: malformed label line" in capsys.readouterr().err

    def test_length_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n1\n")
        b.write_text("0\n")
        assert main(["evaluate", str(a), str(b)]) == 2


class TestLogging:
    def test_rebuilds_logged_at_debug(self, tmp_path, caplog):
        import logging
        import numpy as np
        from repro import BUBBLE
        from repro.metrics import EuclideanDistance

        rng = np.random.default_rng(0)
        with caplog.at_level(logging.DEBUG, logger="repro.cftree"):
            BUBBLE(EuclideanDistance(), max_nodes=6, seed=0).fit(
                list(rng.uniform(0, 100, size=(400, 2)))
            )
        assert any("rebuild #" in r.message for r in caplog.records)


class TestAuditVerb:
    def _make_checkpoint(self, tmp_path):
        from repro import BUBBLE
        from repro.metrics import EuclideanDistance
        from repro.persistence import save_checkpoint

        rng = np.random.default_rng(4)
        model = BUBBLE(EuclideanDistance(), max_nodes=15, seed=4)
        model.partial_fit(list(rng.normal(size=(200, 2))))
        path = tmp_path / "scan.ckpt"
        save_checkpoint(path, model.tree_, cursor=200)
        return path, model

    def test_clean_checkpoint_exits_zero(self, tmp_path, capsys):
        path, _ = self._make_checkpoint(tmp_path)
        assert main(["audit", str(path), "--type", "vectors"]) == 0
        out = capsys.readouterr().out
        assert "audit:" in out
        assert "0 error(s)" in out

    def test_corrupt_checkpoint_exits_one(self, tmp_path, capsys):
        from repro.persistence import save_checkpoint

        path, model = self._make_checkpoint(tmp_path)
        model.tree_.leaf_features()[0].n += 7  # break object-count accounting
        save_checkpoint(path, model.tree_, cursor=200)
        assert main(["audit", str(path), "--type", "vectors"]) == 1
        out = capsys.readouterr().out
        assert "error" in out

    def test_missing_checkpoint_exits_two(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "nope.ckpt"), "--type", "vectors"]) == 2

    def test_truncated_pickle_exits_two(self, tmp_path, capsys):
        path, _ = self._make_checkpoint(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # simulate a torn write
        assert main(["audit", str(path), "--type", "vectors"]) == 2
        assert "error:" in capsys.readouterr().err


class TestStatsVerb:
    def _make_checkpoint(self, tmp_path):
        from repro import BUBBLE
        from repro.metrics import EuclideanDistance
        from repro.persistence import save_checkpoint

        rng = np.random.default_rng(4)
        model = BUBBLE(EuclideanDistance(), max_nodes=15, seed=4)
        model.partial_fit(list(rng.normal(size=(200, 2))))
        path = tmp_path / "scan.ckpt"
        save_checkpoint(path, model.tree_, cursor=200)
        return path, model

    def test_clean_checkpoint_prints_table(self, tmp_path, capsys):
        path, model = self._make_checkpoint(tmp_path)
        assert main(["stats", str(path), "--type", "vectors"]) == 0
        out = capsys.readouterr().out
        assert "cursor 200" in out
        assert "sub-clusters" in out
        assert "M-pressure" in out
        import re

        assert re.search(rf"^nodes\s+{model.tree_.n_nodes}$", out, re.MULTILINE)

    def test_json_output_round_trips(self, tmp_path, capsys):
        import json

        path, model = self._make_checkpoint(tmp_path)
        assert main(["stats", str(path), "--type", "vectors", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cursor"] == 200
        assert doc["n_objects"] == 200
        assert doc["n_nodes"] == model.tree_.n_nodes
        assert doc["max_nodes"] == 15

    def test_truncated_pickle_exits_two(self, tmp_path, capsys):
        path, _ = self._make_checkpoint(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert main(["stats", str(path), "--type", "vectors"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_garbage_bytes_exit_two(self, tmp_path, capsys):
        path = tmp_path / "scan.ckpt"
        path.write_bytes(b"not a pickle at all")
        assert main(["stats", str(path), "--type", "vectors"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_checkpoint_exits_two(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.ckpt"), "--type", "vectors"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_metric_exits_two(self, tmp_path, capsys):
        path, _ = self._make_checkpoint(tmp_path)
        assert main(["stats", str(path), "--type", "vectors", "--metric", "cosine"]) == 2


class TestQueryVerb:
    def test_knn_json_matches_brute_force(self, tmp_path, capsys):
        import json

        from repro.metrics import EuclideanDistance
        from repro.persistence import load_checkpoint

        data = tmp_path / "pts.csv"
        main(["generate", "cell", str(data), "--n-points", "300",
              "--n-clusters", "3", "--dim", "2"])
        ckpt = tmp_path / "scan.ckpt"
        assert main([
            "cluster", str(data), "--type", "vectors", "--n-clusters", "3",
            "--max-nodes", "10", "--checkpoint", str(ckpt),
            "--checkpoint-every", "100",
        ]) == 0
        capsys.readouterr()
        queries = ["0,0", "5.5,-2", "12,7.25"]
        args = ["query", str(ckpt), "--type", "vectors", "--k", "3"]
        for q in queries:
            args += ["--query", q]
        assert main(args + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        clustroids = [
            f.clustroid
            for f in load_checkpoint(ckpt, metric=EuclideanDistance()).tree.leaf_features()
        ]
        assert doc["backend"] == "cftree" and doc["n_indexed"] == len(clustroids)
        reference = EuclideanDistance()
        for q, result in zip(queries, doc["results"]):
            row = reference.one_to_many(np.array(q.split(","), dtype=float), clustroids)
            want = sorted((float(v), i) for i, v in enumerate(row))[:3]
            assert [(d, i) for i, d in result["neighbors"]] == want
        held = doc["query"]["bound_cache"]
        assert held["misses"] > 0 and held["queries"] == len(queries)
        # The text report prints the bound-cache rows.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "bound cache " in out and "bound cache held" in out

    @pytest.mark.parametrize("backend", ["cftree", "vptree"])
    def test_json_query_record_is_the_fold_of_its_results(
        self, tmp_path, capsys, backend
    ):
        import json

        data = tmp_path / "pts.csv"
        main(["generate", "cell", str(data), "--n-points", "300",
              "--n-clusters", "3", "--dim", "2"])
        ckpt = tmp_path / "scan.ckpt"
        assert main([
            "cluster", str(data), "--type", "vectors", "--n-clusters", "3",
            "--max-nodes", "10", "--checkpoint", str(ckpt),
            "--checkpoint-every", "100",
        ]) == 0
        capsys.readouterr()
        args = ["query", str(ckpt), "--type", "vectors", "--radius", "2.5",
                "--backend", backend, "--json"]
        for q in ["0,0", "5.5,-2", "12,7.25", "0,0"]:
            args += ["--query", q]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        results, query = doc["results"], doc["query"]
        assert query["n_queries"] == len(results) == 4
        assert query["n_range"] == 4 and query["n_knn"] == 0
        assert query["query_calls"] == sum(r["n_calls"] for r in results)
        assert query["candidates_pruned"] == sum(r["n_pruned"] for r in results)
        assert query["last_query_calls"] == results[-1]["n_calls"]
        assert query["build_calls"] == doc["ncd_by_site"].get("query-build", 0)
        assert query["build_calls"] > 0


class TestTraceOption:
    def test_cluster_trace_writes_jsonl_and_summary(self, tmp_path, capsys):
        import json

        data = tmp_path / "pts.csv"
        main(["generate", "cell", str(data), "--n-points", "200",
              "--n-clusters", "3", "--dim", "2"])
        trace = tmp_path / "trace.jsonl"
        capsys.readouterr()
        code = main([
            "cluster", str(data), "--type", "vectors",
            "--n-clusters", "3", "--max-nodes", "10",
            "--trace", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "--- trace summary ---" in out
        assert "NCD by site" in out
        assert f"trace written to {trace}" in out
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events[-1]["ev"] == "summary"
        by_site = events[-1]["ncd_by_site"]
        assert sum(by_site.values()) == events[-1]["ncd_total"] > 0
        assert "leaf-d0" in by_site
        assert any(e["ev"] == "enter" and e["span"] == "insert" for e in events)
        assert any(e["ev"] == "enter" and e["span"] == "redistribute" for e in events)

    def test_trace_with_checkpoint_keeps_checkpoint_loadable(self, tmp_path, capsys):
        # The trace file stays open while the scan writes checkpoints; the
        # model never holds the tracer, so the snapshots pickle cleanly.
        data = tmp_path / "pts.csv"
        main(["generate", "cell", str(data), "--n-points", "300",
              "--n-clusters", "3", "--dim", "2"])
        trace = tmp_path / "trace.jsonl"
        ckpt = tmp_path / "scan.ckpt"
        code = main([
            "cluster", str(data), "--type", "vectors",
            "--n-clusters", "3", "--max-nodes", "10",
            "--trace", str(trace), "--checkpoint", str(ckpt),
            "--checkpoint-every", "100",
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["stats", str(ckpt), "--type", "vectors"]) == 0
        assert "distance calls" in capsys.readouterr().out

    def test_authority_trace_writes_jsonl_and_summary(self, tmp_path, capsys):
        import json

        data = tmp_path / "records.txt"
        main(["generate", "strings", str(data), "--n-points", "60",
              "--n-clusters", "6"])
        trace = tmp_path / "trace.jsonl"
        capsys.readouterr()
        code = main([
            "authority", str(data), str(tmp_path / "authority.tsv"),
            "--threshold", "2.0", "--trace", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "--- trace summary ---" in out
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events[-1]["ev"] == "summary"
        assert sum(events[-1]["ncd_by_site"].values()) == events[-1]["ncd_total"] > 0
        assert any(e["ev"] == "enter" and e["span"] == "global-phase" for e in events)

    @pytest.mark.parametrize("command", ["cluster", "authority"])
    def test_trace_ends_with_summary_when_the_run_raises(
        self, tmp_path, monkeypatch, command
    ):
        import json

        from repro.exceptions import MetricError
        from repro.metrics.base import site

        def fail(objects, metric=None, *args, **kwargs):
            with site("insert"):
                EuclideanDistance().distance(np.zeros(2), np.ones(2))
            raise MetricError("dimension mismatch")

        monkeypatch.setattr(
            "repro.cli.cluster_dataset" if command == "cluster"
            else "repro.cli.build_authority_file",
            fail,
        )
        data = tmp_path / "input.txt"
        data.write_text("1,2\n3,4\n")
        trace = tmp_path / "t.jsonl"
        argv = (
            ["cluster", str(data), "--type", "vectors"] if command == "cluster"
            else ["authority", str(data), str(tmp_path / "o.tsv")]
        )
        with pytest.raises(MetricError):
            main([*argv, "--trace", str(trace)])
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [e["ev"] for e in events] == ["enter", "exit", "summary"]
        assert events[-1]["ncd_by_site"] == {"insert": 1}


def _cluster_config_actions():
    """The ``cluster`` flags whose dest names a build-config field."""
    import argparse
    import dataclasses

    from repro.cli import _build_parser
    from repro.core.config import BUBBLEFMConfig

    parser = _build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    names = {f.name for f in dataclasses.fields(BUBBLEFMConfig)}
    return [a for a in subparsers.choices["cluster"]._actions if a.dest in names]


#: A valid, non-default command-line value per config-backed flag.
_NON_DEFAULT = {
    "max_nodes": "12",
    "threshold": "0.5",
    "image_dim": "4",
    "n_jobs": "2",
    "max_shard_retries": "1",
    "shard_timeout_seconds": "60",
    "shard_retry_backoff": "0.5",
}


class TestClusterOptions:
    @staticmethod
    def _subclusters(out: str) -> int:
        line = next(x for x in out.splitlines() if "sub-clusters" in x)
        return int(line.split("->")[1].split()[0])

    def test_threshold_reaches_the_build(self, tmp_path, capsys):
        data = tmp_path / "cells.csv"
        main(["generate", "cell", str(data), "--n-points", "600",
              "--n-clusters", "10", "--dim", "5", "--seed", "1"])
        base = ["cluster", str(data), "--type", "vectors", "--n-clusters", "10"]
        capsys.readouterr()
        assert main(base) == 0
        default = self._subclusters(capsys.readouterr().out)
        assert main(base + ["--threshold", "50"]) == 0
        coarse = self._subclusters(capsys.readouterr().out)
        assert coarse < default

    @pytest.mark.parametrize(
        "action", _cluster_config_actions(), ids=lambda a: a.option_strings[0]
    )
    def test_config_flag_lands_on_model_config(self, action, tmp_path, monkeypatch):
        import repro.cli as cli

        raw = _NON_DEFAULT[action.dest]
        value = action.type(raw)
        assert value != action.default
        results = []
        real = cli.cluster_dataset

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "cluster_dataset", spy)
        data = tmp_path / "cells.csv"
        main(["generate", "cell", str(data), "--n-points", "120",
              "--n-clusters", "3", "--dim", "5"])
        code = main([
            "cluster", str(data), "--type", "vectors", "--algorithm", "bubble-fm",
            "--n-clusters", "3", action.option_strings[0], raw,
        ])
        assert code == 0
        assert getattr(results[0].model.config, action.dest) == value

    def test_image_dim_only_reaches_bubble_fm(self, tmp_path, monkeypatch):
        import repro.cli as cli

        results = []
        real = cli.cluster_dataset

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "cluster_dataset", spy)
        data = tmp_path / "cells.csv"
        main(["generate", "cell", str(data), "--n-points", "100",
              "--n-clusters", "3", "--dim", "2"])
        assert main([
            "cluster", str(data), "--type", "vectors", "--image-dim", "4",
            "--n-clusters", "3",
        ]) == 0
        assert not hasattr(results[0].model.config, "image_dim")
