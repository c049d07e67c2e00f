"""Unit tests for the experiments CLI (python -m repro.experiments)."""

import json

import pytest

from repro.experiments.__main__ import _EXPERIMENTS, main


class TestExperimentsCLI:
    def test_registry_covers_every_table_and_figure(self):
        assert set(_EXPERIMENTS) == {
            "table1", "table1b", "table2", "table3",
            "fig123", "fig4", "fig5", "fig6",
            "a1", "a2", "a3", "a4", "a6", "a7", "a8",
        }

    def test_single_experiment_prints_table(self, capsys):
        code = main(["a7", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Ablation A7" in out
        assert "CLARANS" in out

    def test_out_file_written(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        code = main(["a7", "--scale", "smoke", "--out", str(out_file)])
        assert code == 0
        docs = json.loads(out_file.read_text())
        assert len(docs) == 1
        assert docs[0]["experiment"] == "Ablation A7"
        assert docs[0]["context"]["scale"] == "smoke"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["a7", "--scale", "galactic"])
