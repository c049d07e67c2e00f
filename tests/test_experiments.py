"""Unit tests for the experiments package: results containers, config, and
smoke-scale runs of each experiment function."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.experiments import (
    SCALES,
    Scale,
    TableResult,
    run_ablation_clarans,
    run_ablation_labeling,
    run_ablation_mappers,
    run_table1b_strings,
    run_table3,
)
from repro.experiments.config import paper_max_nodes, resolve_scale
from repro.experiments.results import load_results, save_results

TINY = Scale(
    name="tiny",
    table_points=600,
    sweep_points=(200, 400),
    sweep_clusters=(4, 8),
    fig6_points=400,
    string_classes=15,
    string_records=150,
    ablation_points=600,
)


class TestTableResult:
    def test_row_width_validated(self):
        with pytest.raises(ParameterError):
            TableResult("T", "d", ["a", "b"], [[1]])

    def test_render_contains_everything(self):
        r = TableResult("T9", "demo", ["x", "y"], [[1, 2.5], [3, 4.0]])
        out = r.render()
        assert "T9" in out and "demo" in out
        assert "2.5" in out

    def test_column_access(self):
        r = TableResult("T", "d", ["x", "y"], [[1, 2], [3, 4]])
        assert r.column("y") == [2, 4]
        with pytest.raises(ParameterError):
            r.column("z")

    def test_row_map(self):
        r = TableResult("T", "d", ["name", "v"], [["a", 1], ["b", 2]])
        assert r.row_map()["b"] == ["b", 2]
        assert r.row_map(key_column="name")["a"][1] == 1

    def test_round_trip(self, tmp_path):
        r = TableResult("T", "d", ["x"], [[1.5]], context={"seed": 3})
        path = tmp_path / "r.json"
        save_results(path, [r])
        [back] = load_results(path)
        assert back.experiment == "T"
        assert back.rows == [[1.5]]
        assert back.context == {"seed": 3}

    def test_empty_rows_render(self):
        r = TableResult("T", "d", ["x"], [])
        assert "T" in r.render()


class TestConfig:
    def test_presets_exist(self):
        assert set(SCALES) == {"smoke", "laptop", "paper"}

    def test_resolve_by_name(self):
        assert resolve_scale("smoke").name == "smoke"

    def test_resolve_passthrough(self):
        assert resolve_scale(TINY) is TINY

    def test_resolve_unknown(self):
        with pytest.raises(ParameterError):
            resolve_scale("galactic")

    def test_paper_max_nodes_monotone(self):
        values = [paper_max_nodes(k) for k in (10, 50, 100, 250)]
        assert values == sorted(values)
        assert values[0] >= 8

    def test_scales_ordered_by_size(self):
        assert (
            SCALES["smoke"].table_points
            < SCALES["laptop"].table_points
            < SCALES["paper"].table_points
        )


class TestSmokeRuns:
    """Each experiment function runs end to end at tiny scale and produces
    a structurally complete result. (The laptop-scale shape assertions live
    in benchmarks/.)"""

    def test_table1b(self):
        r = run_table1b_strings(scale=TINY)
        assert r.experiment == "Table 1b"
        assert len(r.rows) == 2
        assert all(0.0 <= row[1] <= 1.0 for row in r.rows)

    def test_table3(self):
        r = run_table3(scale=TINY)
        assert len(r.rows) == 3
        assert r.columns[0] == "algorithm"
        for row in r.rows:
            assert row[1] > 0  # clusters
            assert row[4] > 0  # NCD

    def test_ablation_mappers(self):
        r = run_ablation_mappers(scale=TINY)
        assert {row[0] for row in r.rows} == {"fastmap", "landmark"}

    def test_ablation_labeling(self):
        r = run_ablation_labeling(scale=TINY)
        by = r.row_map()
        assert by["linear"][3] == 1.0  # self-agreement
        assert set(by) == {"linear", "tree", "vptree"}

    def test_ablation_clarans(self):
        r = run_ablation_clarans(scale=TINY)
        assert len(r.rows) == 2
        assert r.context["scale"] == "tiny"


class TestFigureSmokeRuns:
    def test_fig123(self):
        from repro.experiments import run_fig123_ds2_centers

        r = run_fig123_ds2_centers(scale=TINY)
        assert len(r.rows) == 3
        # Raw coordinates preserved for replotting.
        assert set(r.context["centers"]) == {row[0] for row in r.rows}
        assert len(r.context["true_centers"]) == 100

    def test_fig4(self):
        from repro.experiments import run_fig4_time_vs_points

        r = run_fig4_time_vs_points(scale=TINY)
        assert r.column("#points") == [200, 400]
        assert all(t > 0 for t in r.column("BUBBLE (s)"))

    def test_fig5(self):
        from repro.experiments import run_fig5_ncd_vs_points

        r = run_fig5_ncd_vs_points(scale=TINY, seeds=(6,))
        assert all(v > 0 for v in r.column("BUBBLE NCD"))
        assert all(v > 0 for v in r.column("BUBBLE-FM NCD"))

    def test_fig6(self):
        from repro.experiments import run_fig6_time_vs_clusters

        r = run_fig6_time_vs_clusters(scale=TINY)
        assert r.column("#clusters") == [4, 8]

    def test_table1(self):
        from repro.experiments import run_table1

        r = run_table1(scale=TINY)
        assert [row[0] for row in r.rows] == ["DS1", "DS2", "DS20d.50c"]
        for row in r.rows:
            assert all(v > 0 for v in row[1:4])

    def test_table2(self):
        from repro.experiments import run_table2

        r = run_table2(scale=TINY)
        assert {row[0] for row in r.rows} == {"bubble", "bubble-fm"}

    def test_indexes(self):
        from repro.experiments import run_ablation_indexes

        r = run_ablation_indexes(scale=TINY)
        assert {row[0] for row in r.rows} == {
            "linear scan",
            "vp-tree",
            "cf-tree",
        }
        assert all(row[5] == 1.0 for row in r.rows)  # exactness
