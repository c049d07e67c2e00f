"""Programmatic reproduction of the paper's evaluation (Sections 6–7).

Every table and figure is a function here returning a
:class:`~repro.experiments.results.TableResult`; the pytest benchmarks under
``benchmarks/`` are thin wrappers that run these functions and assert the
paper's shapes. Running outside pytest works too::

    python -m repro.experiments table1 --scale smoke
    python -m repro.experiments all --scale laptop --out results.json

Scales: ``smoke`` (seconds; CI-sized), ``laptop`` (minutes; the default the
benchmarks use), ``paper`` (the original workload sizes; hours in pure
Python).
"""

from repro.experiments.ablations import (
    run_ablation_clarans,
    run_ablation_image_dim,
    run_ablation_indexes,
    run_ablation_labeling,
    run_ablation_order,
    run_ablation_representation,
    run_ablation_sample_size,
)
from repro.experiments.config import SCALES, Scale
from repro.experiments.figures import (
    run_fig123_ds2_centers,
    run_fig4_time_vs_points,
    run_fig5_ncd_vs_points,
    run_fig6_time_vs_clusters,
)
from repro.experiments.results import TableResult
from repro.experiments.table1 import run_table1, run_table1b_strings
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3

__all__ = [
    "Scale",
    "SCALES",
    "TableResult",
    "run_table1",
    "run_table1b_strings",
    "run_table2",
    "run_table3",
    "run_fig123_ds2_centers",
    "run_fig4_time_vs_points",
    "run_fig5_ncd_vs_points",
    "run_fig6_time_vs_clusters",
    "run_ablation_representation",
    "run_ablation_sample_size",
    "run_ablation_image_dim",
    "run_ablation_order",
    "run_ablation_labeling",
    "run_ablation_clarans",
    "run_ablation_indexes",
]
