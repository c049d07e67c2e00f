"""Figures 1–6: DS2 center scatter, time/NCD scaling (Sections 6.3–6.4)."""

from __future__ import annotations

import time

import numpy as np

from repro.core.preclusterer import BUBBLE, BUBBLEFM
from repro.datasets import make_cell_dataset, make_ds2
from repro.evaluation import clustroid_quality
from repro.experiments.config import Scale, paper_max_nodes, resolve_scale
from repro.experiments.results import TableResult
from repro.metrics import EuclideanDistance
from repro.pipelines import cluster_dataset, map_first_cluster

__all__ = [
    "run_fig123_ds2_centers",
    "run_fig4_time_vs_points",
    "run_fig5_ncd_vs_points",
    "run_fig6_time_vs_clusters",
]

_PARAMS = dict(branching_factor=15, sample_size=75, representation_number=10)


def run_fig123_ds2_centers(scale: str | Scale = "laptop", seed: int = 4) -> TableResult:
    """The DS2 scatter plots, summarized as CQ + wave coverage per method.

    The raw center coordinates are included in the result context so the
    figures can be re-plotted (see ``examples/paper_figures.py``).
    """
    scale = resolve_scale(scale)
    ds = make_ds2(n_points=scale.table_points, seed=40)
    max_nodes = paper_max_nodes(100)
    centers_by_method = {}
    for figure, algorithm in (
        ("Figure 1 (BUBBLE)", "bubble"),
        ("Figure 2 (BUBBLE-FM)", "bubble-fm"),
    ):
        res = cluster_dataset(
            ds.as_objects(), EuclideanDistance(), n_clusters=100,
            algorithm=algorithm, image_dim=2, max_nodes=max_nodes,
            assign=False, seed=seed,
        )
        centers_by_method[figure] = np.vstack(res.centers)
    mf = map_first_cluster(
        ds.as_objects(), EuclideanDistance(), n_clusters=100,
        image_dim=2, max_nodes=max_nodes, seed=seed,
    )
    centers_by_method["Figure 3 (BIRCH/Map-First)"] = mf.image_centers

    rows = []
    for figure, centers in centers_by_method.items():
        hit = sum(
            1 for c in ds.centers if np.min(np.linalg.norm(centers - c, axis=1)) < 1.5
        )
        rows.append(
            [figure, len(centers), clustroid_quality(ds.centers, centers),
             hit / len(ds.centers)]
        )
    return TableResult(
        experiment="Figures 1-3",
        description=(
            "DS2 cluster centers trace the sine wave (coverage = true "
            "centers with a found center within 1.5)"
        ),
        columns=["figure", "#centers", "CQ", "coverage"],
        rows=rows,
        context={
            "scale": scale.name,
            "seed": seed,
            "centers": {k: v.tolist() for k, v in centers_by_method.items()},
            "true_centers": ds.centers.tolist(),
        },
    )


def _scan(
    algorithm: str,
    objs,
    max_nodes: int,
    seed: int,
    prune: bool = True,
) -> tuple[float, int]:
    metric = EuclideanDistance()
    params = dict(_PARAMS, max_nodes=max_nodes, seed=seed, prune=prune)
    if algorithm == "bubble":
        model = BUBBLE(metric, **params)
    else:
        model = BUBBLEFM(metric, image_dim=20, **params)
    start = time.perf_counter()
    model.fit(objs)
    return time.perf_counter() - start, metric.n_calls


def run_fig4_time_vs_points(
    scale: str | Scale = "laptop", seed: int = 5
) -> TableResult:
    """Scan wall time vs number of points on DS20d.50c."""
    scale = resolve_scale(scale)
    max_nodes = paper_max_nodes(50)
    rows = []
    for n in scale.sweep_points:
        ds = make_cell_dataset(dim=20, n_clusters=50, n_points=n, seed=50)
        objs = ds.as_objects()
        t_b, _ = _scan("bubble", objs, max_nodes, seed)
        t_fm, _ = _scan("bubble-fm", objs, max_nodes, seed)
        rows.append([n, t_b, t_fm])
    return TableResult(
        experiment="Figure 4",
        description=(
            "Scan time vs #points on DS20d.50c (seconds; paper: linear, "
            "BUBBLE below BUBBLE-FM)"
        ),
        columns=["#points", "BUBBLE (s)", "BUBBLE-FM (s)"],
        rows=rows,
        context={"scale": scale.name, "seed": seed},
    )


def run_fig5_ncd_vs_points(
    scale: str | Scale = "laptop",
    seeds: tuple[int, ...] = (6, 7, 8),
) -> TableResult:
    """NCD vs number of points, averaged over seeds (tree evolution is
    discrete, so single runs are noisy at reduced scale).

    BUBBLE and BUBBLE-FM run as published, with exhaustive routing
    (``prune=False``); the gap is theirs. The "BUBBLE (pruned)" column is
    the library default, whose triangle-inequality routing is not in the
    paper.
    """
    scale = resolve_scale(scale)
    max_nodes = paper_max_nodes(50)

    def mean_ncd(algorithm: str, objs, prune: bool) -> float:
        return float(
            np.mean(
                [_scan(algorithm, objs, max_nodes, s, prune)[1] for s in seeds]
            )
        )

    rows = []
    for n in scale.sweep_points:
        ds = make_cell_dataset(dim=20, n_clusters=50, n_points=n, seed=60)
        objs = ds.as_objects()
        ncd_b = mean_ncd("bubble", objs, prune=False)
        ncd_fm = mean_ncd("bubble-fm", objs, prune=False)
        ncd_pruned = mean_ncd("bubble", objs, prune=True)
        rows.append([n, ncd_b, ncd_fm, ncd_b - ncd_fm, ncd_pruned])
    return TableResult(
        experiment="Figure 5",
        description=(
            "NCD vs #points on DS20d.50c, exhaustive routing as published "
            "(paper: linear; BUBBLE-FM lower, gap grows with N); BUBBLE "
            "(pruned) is the library default"
        ),
        columns=["#points", "BUBBLE NCD", "BUBBLE-FM NCD", "gap", "BUBBLE (pruned) NCD"],
        rows=rows,
        context={"scale": scale.name, "seeds": list(seeds)},
    )


def run_fig6_time_vs_clusters(
    scale: str | Scale = "laptop", seed: int = 7
) -> TableResult:
    """Scan wall time vs number of clusters at fixed N."""
    scale = resolve_scale(scale)
    rows = []
    for k in scale.sweep_clusters:
        ds = make_cell_dataset(dim=20, n_clusters=k, n_points=scale.fig6_points, seed=70)
        objs = ds.as_objects()
        max_nodes = paper_max_nodes(k)
        t_b, _ = _scan("bubble", objs, max_nodes, seed)
        t_fm, _ = _scan("bubble-fm", objs, max_nodes, seed)
        rows.append([k, t_b, t_fm])
    return TableResult(
        experiment="Figure 6",
        description=(
            f"Scan time vs #clusters at {scale.fig6_points} points "
            "(paper: almost linear)"
        ),
        columns=["#clusters", "BUBBLE (s)", "BUBBLE-FM (s)"],
        rows=rows,
        context={"scale": scale.name, "seed": seed},
    )
