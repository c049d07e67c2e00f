"""Table 1: distortion of Map-First vs BUBBLE vs BUBBLE-FM (Section 6.2)."""

from __future__ import annotations

from repro.datasets import make_authority_dataset, make_cell_dataset, make_ds1, make_ds2
from repro.evaluation import adjusted_rand_index, distortion
from repro.experiments.config import Scale, paper_max_nodes, resolve_scale
from repro.experiments.results import TableResult
from repro.metrics import EditDistance, EuclideanDistance
from repro.pipelines import cluster_dataset, map_first_cluster

__all__ = ["run_table1", "run_table1b_strings", "PAPER_TABLE1"]

#: The paper's reported distortions (100k-point datasets).
PAPER_TABLE1 = {
    "DS1": {"map-first": 195_146, "bubble": 129_798, "bubble-fm": 122_544},
    "DS2": {"map-first": 1_147_830, "bubble": 125_093, "bubble-fm": 125_094},
    "DS20d.50c": {"map-first": 2.214e6, "bubble": 21_127.5, "bubble-fm": 21_127.5},
}


def _datasets(scale: Scale):
    n = scale.table_points
    return [
        ("DS1", make_ds1(n_points=n, seed=10), 100, 2),
        ("DS2", make_ds2(n_points=n, seed=11), 100, 2),
        ("DS20d.50c", make_cell_dataset(dim=20, n_clusters=50, n_points=n, seed=12), 50, 20),
    ]


def run_table1(
    scale: str | Scale = "laptop", seed: int = 1
) -> TableResult:
    """Distortion of the three pipelines on DS1, DS2 and DS20d.50c."""
    scale = resolve_scale(scale)
    rows = []
    for name, ds, k, dim in _datasets(scale):
        max_nodes = paper_max_nodes(k)
        objs = ds.as_objects()
        res_b = cluster_dataset(
            objs, EuclideanDistance(), k, algorithm="bubble",
            max_nodes=max_nodes, seed=seed,
        )
        res_fm = cluster_dataset(
            objs, EuclideanDistance(), k, algorithm="bubble-fm",
            image_dim=dim, max_nodes=max_nodes, seed=seed,
        )
        res_mf = map_first_cluster(
            objs, EuclideanDistance(), k, image_dim=dim,
            max_nodes=max_nodes, seed=seed,
        )
        paper = PAPER_TABLE1[name]
        rows.append(
            [
                name,
                distortion(ds.points, res_mf.labels),
                distortion(ds.points, res_b.labels),
                distortion(ds.points, res_fm.labels),
                paper["map-first"],
                paper["bubble"],
                paper["bubble-fm"],
            ]
        )
    return TableResult(
        experiment="Table 1",
        description=(
            "Distortion: Map-First vs BUBBLE vs BUBBLE-FM "
            "(paper values at 100k points)"
        ),
        columns=["dataset", "map-first", "bubble", "bubble-fm",
                 "paper:mf", "paper:b", "paper:bfm"],
        rows=rows,
        context={"scale": scale.name, "seed": seed},
    )


def run_table1b_strings(scale: str | Scale = "laptop", seed: int = 5) -> TableResult:
    """Map-First vs BUBBLE on a non-embeddable space (string workload).

    The structural version of Section 6.2's conclusion: edit distance has no
    low-dimensional Euclidean embedding, so mapping first loses information
    regardless of implementation quality. Quality measured as ARI against
    the known variant classes at matched cluster count.
    """
    scale = resolve_scale(scale)
    n_classes = max(scale.string_classes // 2, 10)
    n_records = max(scale.string_records // 2, 10 * n_classes)
    ds = make_authority_dataset(n_classes=n_classes, n_strings=n_records, seed=35)

    bubble = cluster_dataset(
        ds.strings, EditDistance(), n_clusters=n_classes,
        algorithm="bubble", max_nodes=40, seed=seed,
    )
    ari_bubble = adjusted_rand_index(ds.labels, bubble.labels)
    mf = map_first_cluster(
        ds.strings, EditDistance(), n_clusters=n_classes, image_dim=4,
        max_nodes=40, seed=seed,
    )
    ari_mf = adjusted_rand_index(ds.labels, mf.labels)
    return TableResult(
        experiment="Table 1b",
        description=(
            "Clustering quality (ARI) on the string workload: distance space "
            "vs Map-First (paper: Map-First quality 'not good')"
        ),
        columns=["algorithm", "ARI"],
        rows=[
            ["BUBBLE (distance space)", ari_bubble],
            ["Map-First (FastMap+BIRCH)", ari_mf],
        ],
        context={"scale": scale.name, "seed": seed,
                 "n_classes": n_classes, "n_records": n_records},
    )
