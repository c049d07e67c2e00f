"""Ablations: parameter sensitivity, order independence, mapper choice,
labeling strategies, and the CLARANS related-work comparison."""

from __future__ import annotations

import time

import numpy as np

from repro.clarans import CLARANS
from repro.core.preclusterer import BUBBLE, BUBBLEFM
from repro.datasets import make_cell_dataset, make_ds1
from repro.evaluation import adjusted_rand_index, distortion
from repro.experiments.config import Scale, paper_max_nodes, resolve_scale
from repro.experiments.results import TableResult
from repro.metrics import EuclideanDistance
from repro.pipelines import cluster_dataset

__all__ = [
    "run_ablation_representation",
    "run_ablation_sample_size",
    "run_ablation_image_dim",
    "run_ablation_order",
    "run_ablation_mappers",
    "run_ablation_labeling",
    "run_ablation_clarans",
    "run_ablation_indexes",
]

_K = 25


def _overlapping_grid(scale: Scale):
    """A grid with mildly overlapping clusters, so parameters can matter."""
    return make_ds1(
        n_points=scale.ablation_points, grid_side=5, spacing=4.0, std=1.0, seed=80
    )


def _distortion_with(ds, seed=8, **kw):
    defaults = dict(n_clusters=_K, algorithm="bubble", max_nodes=paper_max_nodes(_K))
    defaults.update(kw)
    res = cluster_dataset(ds.as_objects(), EuclideanDistance(), seed=seed, **defaults)
    return distortion(ds.points, res.labels)


def run_ablation_representation(scale: str | Scale = "laptop") -> TableResult:
    """A1: sensitivity to the representation number 2p (paper: 10 works well)."""
    scale = resolve_scale(scale)
    ds = _overlapping_grid(scale)
    rows = [[rn, _distortion_with(ds, representation_number=rn)] for rn in (4, 10, 20)]
    return TableResult(
        experiment="Ablation A1",
        description="Distortion vs representation number 2p (paper: insensitive, 10 good)",
        columns=["2p", "distortion"],
        rows=rows,
        context={"scale": scale.name},
    )


def run_ablation_sample_size(scale: str | Scale = "laptop") -> TableResult:
    """A2: sensitivity to the sample size SS (paper: 5 * BF works well)."""
    scale = resolve_scale(scale)
    ds = _overlapping_grid(scale)
    rows = [[ss, _distortion_with(ds, sample_size=ss)] for ss in (30, 75, 150)]
    return TableResult(
        experiment="Ablation A2",
        description="Distortion vs sample size SS (paper: 5*BF = 75 works well)",
        columns=["SS", "distortion"],
        rows=rows,
        context={"scale": scale.name},
    )


def run_ablation_image_dim(scale: str | Scale = "laptop") -> TableResult:
    """A3: BUBBLE-FM's image dimensionality vs quality and NCD (Section 5.2.2)."""
    scale = resolve_scale(scale)
    ds = _overlapping_grid(scale)
    rows = []
    for k in (2, 5, 10):
        metric = EuclideanDistance()
        res = cluster_dataset(
            ds.as_objects(), metric, n_clusters=_K, algorithm="bubble-fm",
            image_dim=k, max_nodes=paper_max_nodes(_K), seed=8,
        )
        rows.append([k, distortion(ds.points, res.labels), res.n_distance_calls])
    return TableResult(
        experiment="Ablation A3",
        description="BUBBLE-FM distortion and NCD vs image dimensionality k",
        columns=["k", "distortion", "NCD"],
        rows=rows,
        context={"scale": scale.name},
    )


def run_ablation_order(
    scale: str | Scale = "laptop", order_seeds: tuple[int, ...] = (0, 1, 2)
) -> TableResult:
    """A4: input-order independence (paper footnote 5)."""
    scale = resolve_scale(scale)
    ds = make_cell_dataset(
        dim=10, n_clusters=20, n_points=max(scale.ablation_points // 2, 1_000), seed=90
    )
    rows = []
    for algorithm in ("bubble", "bubble-fm"):
        values = []
        for order_seed in order_seeds:
            shuffled = ds.shuffled(seed=order_seed)
            res = cluster_dataset(
                shuffled.as_objects(), EuclideanDistance(), n_clusters=20,
                algorithm=algorithm, image_dim=10,
                max_nodes=paper_max_nodes(20), seed=9,
            )
            values.append(distortion(shuffled.points, res.labels))
        rows.append([algorithm, *values, max(values) / min(values)])
    return TableResult(
        experiment="Ablation A4",
        description="Distortion across input orders (paper: order-independent)",
        columns=["algorithm"]
        + [f"order {s}" for s in order_seeds]
        + ["max/min"],
        rows=rows,
        context={"scale": scale.name, "order_seeds": list(order_seeds)},
    )


def run_ablation_mappers(scale: str | Scale = "laptop", seed: int = 10) -> TableResult:
    """A5: FastMap vs Landmark MDS as BUBBLE-FM's image-space mapper."""
    scale = resolve_scale(scale)
    ds = make_cell_dataset(
        dim=10, n_clusters=20, n_points=max(scale.ablation_points // 2, 1_000), seed=100
    )
    rows = []
    for mapper in ("fastmap", "landmark"):
        metric = EuclideanDistance()
        model = BUBBLEFM(
            metric, image_dim=10, max_nodes=paper_max_nodes(20),
            mapper=mapper, seed=seed,
        ).fit(ds.as_objects())
        labels = model.assign(ds.as_objects())
        rows.append(
            [mapper, metric.n_calls, distortion(ds.points, labels), model.n_subclusters_]
        )
    return TableResult(
        experiment="Ablation A5",
        description="BUBBLE-FM image-space mapper: FastMap (paper) vs Landmark MDS",
        columns=["mapper", "NCD", "distortion", "#subclusters"],
        rows=rows,
        context={"scale": scale.name, "seed": seed},
    )


def run_ablation_labeling(scale: str | Scale = "laptop", seed: int = 11) -> TableResult:
    """A6: the three second-phase labeling strategies on cost vs accuracy.

    ``linear`` is the paper's exact scan; ``tree`` routes through the
    CF*-tree; ``vptree`` is an exact nearest-neighbour index over the
    clustroids. Agreement is measured against the exact scan.
    """
    scale = resolve_scale(scale)
    ds = make_cell_dataset(
        dim=10, n_clusters=20, n_points=max(scale.ablation_points // 2, 1_000), seed=101
    )
    metric = EuclideanDistance()
    model = BUBBLE(
        metric, branching_factor=8, sample_size=40, max_nodes=80, seed=seed
    ).fit(ds.as_objects())
    reference = model.assign(ds.as_objects(), via="linear")
    rows = []
    for via in ("linear", "vptree", "tree"):
        before = metric.n_calls
        start = time.perf_counter()
        labels = model.assign(ds.as_objects(), via=via)
        rows.append(
            [
                via,
                metric.n_calls - before,
                time.perf_counter() - start,
                float(np.mean(labels == reference)),
            ]
        )
    return TableResult(
        experiment="Ablation A6",
        description=(
            f"Second-phase labeling over {model.n_subclusters_} sub-clusters "
            "(agreement vs the exact linear scan)"
        ),
        columns=["strategy", "NCD", "seconds", "agreement"],
        rows=rows,
        context={"scale": scale.name, "seed": seed,
                 "n_subclusters": model.n_subclusters_},
    )


def run_ablation_clarans(scale: str | Scale = "laptop", seed: int = 12) -> TableResult:
    """A7: BUBBLE pipeline vs CLARANS (Section 2's medoid-based related work)."""
    scale = resolve_scale(scale)
    ds = make_cell_dataset(
        dim=10, n_clusters=8, n_points=max(scale.ablation_points // 5, 500), seed=102
    )
    metric_b = EuclideanDistance()
    start = time.perf_counter()
    res = cluster_dataset(
        ds.as_objects(), metric_b, n_clusters=8, max_nodes=paper_max_nodes(8), seed=seed
    )
    t_bubble = time.perf_counter() - start

    metric_c = EuclideanDistance()
    start = time.perf_counter()
    clarans = CLARANS(8, metric_c, num_local=2, max_neighbors=150, seed=seed)
    clarans.fit(ds.as_objects())
    t_clarans = time.perf_counter() - start
    return TableResult(
        experiment="Ablation A7",
        description="BUBBLE vs CLARANS (Section 2 related work) on DS10d.8c",
        columns=["algorithm", "NCD", "seconds", "ARI"],
        rows=[
            ["BUBBLE pipeline", metric_b.n_calls, t_bubble,
             adjusted_rand_index(ds.labels, res.labels)],
            ["CLARANS", metric_c.n_calls, t_clarans,
             adjusted_rand_index(ds.labels, clarans.labels_)],
        ],
        context={"scale": scale.name, "seed": seed},
    )


def run_ablation_indexes(scale: str | Scale = "laptop", seed: int = 13) -> TableResult:
    """A8: exact metric indexes vs the linear scan for clustroid lookup.

    Simulates the second-phase workload: K clustroids from a BUBBLE run,
    queried with a batch of objects. Reports distance calls per query and
    verifies all three methods return identical nearest neighbours.
    """
    from repro.index import CFTreeIndex, make_index

    scale = resolve_scale(scale)
    ds = make_cell_dataset(
        dim=10, n_clusters=20, n_points=max(scale.ablation_points // 2, 1_000), seed=103
    )
    fit_metric = EuclideanDistance()
    model = BUBBLE(
        fit_metric, branching_factor=8, sample_size=40, max_nodes=80, seed=seed
    ).fit(ds.as_objects())
    clustroids = model.clustroids_
    queries = ds.as_objects()[:200]

    rows = []
    reference: list[int] | None = None
    for name in ("linear scan", "vp-tree", "cf-tree"):
        metric = EuclideanDistance()
        start = time.perf_counter()
        if name == "linear scan":
            answers = [int(np.argmin(metric.one_to_many(q, clustroids))) for q in queries]
            build_calls = 0
        else:
            if name == "cf-tree":
                # Reuses the fitted tree's cached leaf geometry; only the
                # non-leaf anchor distances are counted at build time.
                index = CFTreeIndex.from_tree(model.tree_, metric=metric)
            else:
                index = make_index("vptree", metric, leaf_size=8, seed=seed)
                index.build(clustroids)
            build_calls = metric.n_calls
            answers = [index.nearest(q).neighbors[0].index for q in queries]
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = answers
        agreement = float(np.mean(np.asarray(answers) == np.asarray(reference)))
        rows.append(
            [name, len(clustroids), build_calls,
             (metric.n_calls - build_calls) / len(queries), elapsed, agreement]
        )
    return TableResult(
        experiment="Ablation A8",
        description=(
            "Exact nearest-clustroid lookup: linear scan vs metric indexes "
            "(build cost amortizes over the whole second phase)"
        ),
        columns=["method", "#clustroids", "build NCD", "NCD/query", "seconds", "agreement"],
        rows=rows,
        context={"scale": scale.name, "seed": seed, "n_queries": len(queries)},
    )
