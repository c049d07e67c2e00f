"""Ablations A6-A8 — design choices beyond the paper's reported experiments.

* A6: the four second-phase labeling strategies (exact linear scan — the
  paper's method; the pipeline's exact pruned walk over the clustroids;
  CF*-tree routing; VP-tree nearest-neighbour);
* A7: BUBBLE vs CLARANS, the related-work medoid method of Section 2;
* A8: exact metric indexes against the linear scan.
"""

from __future__ import annotations

from repro.experiments import (
    run_ablation_clarans,
    run_ablation_labeling,
)


def test_a6_labeling_strategies(benchmark, report, scale):
    result = benchmark.pedantic(
        run_ablation_labeling, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    report.record(result)
    by = result.row_map()
    ncd, agreement = 1, 3
    # The pipeline's walk is exact and prunes most of the linear scan.
    assert by["walk"][agreement] == 1.0
    assert by["walk"][ncd] < by["linear"][ncd]
    # VP-tree is exact and cheaper than the linear scan at this cluster count.
    assert by["vptree"][agreement] == 1.0
    assert by["vptree"][ncd] < by["linear"][ncd]
    # CF*-tree routing is cheaper than the linear scan but approximate —
    # with hundreds of fine-grained sub-clusters the exact VP-tree is the
    # better second-phase index.
    assert by["tree"][ncd] < by["linear"][ncd]
    assert by["tree"][agreement] > 0.5


def test_a7_bubble_vs_clarans(benchmark, report, scale):
    result = benchmark.pedantic(
        run_ablation_clarans, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    report.record(result)
    by = result.row_map()
    # Both reach good quality on separable data; CLARANS pays the
    # swap-evaluation cost the paper's related-work section criticizes.
    assert by["BUBBLE pipeline"][3] > 0.8
    assert by["CLARANS"][1] > by["BUBBLE pipeline"][1]


def test_a8_metric_indexes(benchmark, report, scale):
    from repro.experiments import run_ablation_indexes

    result = benchmark.pedantic(
        run_ablation_indexes, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    report.record(result)
    by = result.row_map()
    per_query, agreement = 3, 5
    # The VP-tree is exact and beats the linear scan per query.
    assert by["vp-tree"][agreement] == 1.0
    assert by["vp-tree"][per_query] < by["linear scan"][per_query]
