"""Benchmark-regression harness: traced Fig 4/5/6 + Table 1 runs.

Runs the paper's scaling experiments (Figures 4–6) and the distortion
comparison (Table 1) through a fresh :class:`repro.observability.Tracer`
each, then writes ``BENCH_birchstar.json`` — one record per experiment with

* ``ncd_total`` and ``ncd_by_site`` — where the distance calls went
  (disjoint attribution; the sites sum to the total);
* ``spans`` — inclusive per-phase wall time and NCD;
* ``wall_seconds`` — harness-measured wall time of the whole experiment;
* ``quality`` — the experiment's own result table (columns + rows), i.e.
  the numbers the paper reports.

Committed alongside the code, the file is the regression baseline: a change
that silently doubles ``fastmap-refit`` calls or shifts cost between sites
shows up as a diff. Regenerate with::

    PYTHONPATH=src python benchmarks/harness.py --scale smoke

Scale ``smoke`` keeps the whole run under a minute; ``laptop``/``paper``
follow :mod:`repro.experiments.config`. Sites named in the output are
documented in ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.preclusterer import BUBBLE, BUBBLEFM
from repro.datasets.vector import make_cell_dataset
from repro.experiments.config import paper_max_nodes, resolve_scale
from repro.experiments.figures import (
    run_fig4_time_vs_points,
    run_fig5_ncd_vs_points,
    run_fig6_time_vs_clusters,
)
from repro.experiments.table1 import run_table1
from repro.metrics import EuclideanDistance
from repro.observability import Tracer, format_summary
from repro.utils import peak_rss_kb

__all__ = [
    "run_harness",
    "run_pruning_benchmark",
    "run_parallel_benchmark",
    "run_clara_benchmark",
    "run_memory_benchmark",
    "run_query_benchmark",
    "main",
]

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_birchstar.json"
PRUNING_OUTPUT = Path(__file__).parent / "BENCH_pruning.json"
PARALLEL_OUTPUT = Path(__file__).parent / "BENCH_parallel.json"
CLARA_OUTPUT = Path(__file__).parent / "BENCH_clara.json"
MEMORY_OUTPUT = Path(__file__).parent / "BENCH_memory.json"
QUERY_OUTPUT = Path(__file__).parent / "BENCH_query.json"

#: Small points in the adversarial long-stream drift cell.
DRIFT_STREAM_POINTS = 50_000

#: Subsamples per CLARA leg (the classic recommendation).
CLARA_SAMPLES = 5

#: Logical shard count of the parallel benchmark. Pinned independently of
#: ``n_jobs`` so the merged tree — and hence the committed NCD baseline —
#: is identical no matter how many workers execute the build.
PARALLEL_SHARDS = 4

#: Tree parameters shared with the figure experiments (Section 6.1).
_TREE_PARAMS = dict(branching_factor=15, sample_size=75, representation_number=10)

#: The experiments the harness drives: name -> callable(scale, tracer).
EXPERIMENTS: dict[str, Callable[..., Any]] = {
    "fig4_time_vs_points": run_fig4_time_vs_points,
    "fig5_ncd_vs_points": run_fig5_ncd_vs_points,
    "fig6_time_vs_clusters": run_fig6_time_vs_clusters,
    "table1_distortion": run_table1,
}


def _run_one(name: str, runner: Callable[..., Any], scale: str) -> dict[str, Any]:
    """Run one experiment under a fresh tracer; return its benchmark record."""
    tracer = Tracer()
    start = time.perf_counter()
    # The activation makes every metric the experiment creates internally
    # charge this tracer's ledger; the tracer= argument additionally threads
    # phase spans through the drivers.
    with tracer:
        result = runner(scale=scale, tracer=tracer)
    wall = time.perf_counter() - start
    tracer.close()
    summary = tracer.summary()
    return {
        "experiment": name,
        "scale": scale,
        "wall_seconds": round(wall, 3),
        "ncd_total": summary["ncd_total"],
        "ncd_by_site": summary["ncd_by_site"],
        "spans": {
            span: {"count": int(agg["count"]), "ncd": int(agg["ncd"])}
            for span, agg in sorted(summary["spans"].items())
        },
        "quality": {
            "description": result.description,
            "columns": result.columns,
            "rows": result.rows,
        },
        "peak_rss_kb": peak_rss_kb(),
    }


def run_harness(
    scale: str = "smoke",
    output: str | Path = DEFAULT_OUTPUT,
    only: list[str] | None = None,
    verbose: bool = True,
) -> dict[str, Any]:
    """Run the benchmark suite; write and return the ``BENCH`` document.

    Per-experiment wall times and span seconds vary run to run, so the
    committed baseline is compared on the NCD columns (deterministic for a
    fixed scale and the experiments' built-in seeds), not on timings.
    """
    resolve_scale(scale)  # fail fast on an unknown scale name
    selected = {
        name: runner
        for name, runner in EXPERIMENTS.items()
        if only is None or name in only
    }
    if not selected:
        raise SystemExit(f"no experiment matches {only!r}; have {list(EXPERIMENTS)}")
    records = []
    for name, runner in selected.items():
        if verbose:
            print(f"[harness] running {name} at scale {scale!r} ...", flush=True)
        record = _run_one(name, runner, scale)
        records.append(record)
        if verbose:
            print(format_summary(
                {"ncd_total": record["ncd_total"], "ncd_by_site": record["ncd_by_site"]}
            ))
    doc = {
        "format": "repro-bench-v1",
        "scale": scale,
        "experiments": records,
    }
    output = Path(output)
    output.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    if verbose:
        print(f"[harness] wrote {output}")
    return doc


def _pruning_workloads(scale: str) -> list[dict[str, Any]]:
    """Figure 4–6 style cell-grid workloads at the requested scale."""
    cfg = resolve_scale(scale)
    return [
        {"name": "fig4_cells", "dim": 20, "n_clusters": 50,
         "n_points": max(cfg.sweep_points), "seed": 50},
        {"name": "fig5_cells", "dim": 20, "n_clusters": 50,
         "n_points": max(cfg.sweep_points), "seed": 60},
        {"name": "fig6_cells", "dim": 20, "n_clusters": max(cfg.sweep_clusters),
         "n_points": cfg.fig6_points, "seed": 70},
    ]


def _pruning_scan(
    algorithm: str, objs: Any, max_nodes: int, prune: bool
) -> dict[str, Any]:
    """One traced scan; returns NCD totals, per-site NCD, and pruning stats."""
    metric = EuclideanDistance()
    tracer = Tracer()
    with tracer:
        if algorithm == "bubble":
            model = BUBBLE(
                metric, max_nodes=max_nodes, seed=0, tracer=tracer,
                prune=prune, **_TREE_PARAMS,
            )
        else:
            model = BUBBLEFM(
                metric, max_nodes=max_nodes, image_dim=20, seed=0, tracer=tracer,
                prune=prune, **_TREE_PARAMS,
            )
        model.fit(objs)
    tracer.close()
    summary = tracer.summary()
    return {
        "ncd_total": summary["ncd_total"],
        "ncd_by_site": summary["ncd_by_site"],
        "n_subclusters": model.n_subclusters_,
        "pruning": model.tree_.policy.pruning_stats.as_dict(),
        "peak_rss_kb": peak_rss_kb(),
    }


def run_pruning_benchmark(
    scale: str = "smoke",
    output: str | Path = PRUNING_OUTPUT,
    verbose: bool = True,
) -> dict[str, Any]:
    """Exhaustive-vs-pruned NCD comparison; writes ``BENCH_pruning.json``.

    Each Figure 4–6 workload is scanned twice per algorithm — once with the
    pruned routing engine disabled, once enabled — with everything else
    (data, seeds, tree parameters) identical. Because pruning is exact, the
    two scans build the same tree; only NCD changes. The committed file is
    the regression baseline the NCD gate test compares against.

    ``pruning.maintenance_evals`` in each record counts the raw
    (NCD-neutral) evaluations spent maintaining pivot geometry — reported
    so the accounting policy stays honest.
    """
    records = []
    for workload in _pruning_workloads(scale):
        ds = make_cell_dataset(
            dim=workload["dim"], n_clusters=workload["n_clusters"],
            n_points=workload["n_points"], seed=workload["seed"],
        )
        objs = list(ds.points)
        max_nodes = paper_max_nodes(workload["n_clusters"])
        for algorithm in ("bubble", "bubble-fm"):
            if verbose:
                print(f"[harness] pruning benchmark: {workload['name']} / "
                      f"{algorithm} at scale {scale!r} ...", flush=True)
            exhaustive = _pruning_scan(algorithm, objs, max_nodes, prune=False)
            pruned = _pruning_scan(algorithm, objs, max_nodes, prune=True)
            site_reduction = {}
            for site, before in exhaustive["ncd_by_site"].items():
                after = pruned["ncd_by_site"].get(site, 0)
                site_reduction[site] = round(1.0 - after / before, 4) if before else 0.0
            total_before = exhaustive["ncd_total"]
            record = {
                "workload": workload,
                "algorithm": algorithm,
                "max_nodes": max_nodes,
                "exhaustive": exhaustive,
                "pruned": pruned,
                "ncd_reduction_total": (
                    round(1.0 - pruned["ncd_total"] / total_before, 4)
                    if total_before else 0.0
                ),
                "ncd_reduction_by_site": site_reduction,
            }
            records.append(record)
            if verbose:
                print(f"[harness]   NCD {total_before} -> {pruned['ncd_total']} "
                      f"({record['ncd_reduction_total']:.1%} saved)")
    doc = {
        "format": "repro-bench-pruning-v1",
        "scale": scale,
        "records": records,
    }
    output = Path(output)
    output.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    if verbose:
        print(f"[harness] wrote {output}")
    return doc


def _tree_fingerprint(tree: Any) -> str:
    """Order-sensitive digest of structure + leaf clustroids: two trees
    share a fingerprint iff they are byte-identical."""
    sig: list[Any] = []

    def walk(node: Any) -> None:
        if node.is_leaf:
            sig.append(
                tuple(repr(np.asarray(f.clustroid).tolist()) for f in node.entries)
            )
        else:
            sig.append(len(node.entries))
            for entry in node.entries:
                walk(entry.child)

    walk(tree.root)
    return hashlib.sha256(repr(sig).encode("utf-8")).hexdigest()


def usable_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parallel_run(
    objects: list, ds: Any, n_clusters: int, max_nodes: int, n_jobs: int
) -> dict[str, Any]:
    """One traced end-to-end pipeline run; returns the benchmark record."""
    from repro.analysis.audit import audit_tree
    from repro.evaluation.metrics import clustroid_quality, distortion
    from repro.pipelines.cluster import cluster_dataset

    metric = EuclideanDistance()
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        result = cluster_dataset(
            objects,
            metric,
            n_clusters=n_clusters,
            max_nodes=max_nodes,
            seed=0,
            assign=True,
            tracer=tracer,
            n_jobs=n_jobs,
            n_shards=PARALLEL_SHARDS if n_jobs > 1 else None,
        )
    wall = time.perf_counter() - start
    tracer.close()
    summary = tracer.summary()
    audit = audit_tree(result.model.tree_, raise_on_error=False)
    return {
        "n_jobs": n_jobs,
        "n_shards": PARALLEL_SHARDS if n_jobs > 1 else 1,
        "wall_seconds": round(wall, 3),
        "scan_seconds": round(result.scan_seconds, 3),
        "ncd_total": summary["ncd_total"],
        "ncd_by_site": summary["ncd_by_site"],
        "spans": {
            span: {"count": int(agg["count"]), "ncd": int(agg["ncd"])}
            for span, agg in sorted(summary["spans"].items())
        },
        "n_subclusters": len(result.subclusters),
        "tree_fingerprint": _tree_fingerprint(result.model.tree_),
        "quality": {
            "clustroid_quality": round(
                clustroid_quality(ds.centers, result.centers), 6
            ),
            "distortion": round(distortion(ds.points, result.labels), 6),
        },
        "audit": {
            "n_errors": len(audit.errors),
            "n_warnings": len(audit.warnings),
        },
        "shards": getattr(result.model, "shard_summaries_", []),
        "peak_rss_kb": peak_rss_kb(),
    }


def run_parallel_benchmark(
    scale: str = "smoke",
    output: str | Path = PARALLEL_OUTPUT,
    n_jobs: int = 4,
    verbose: bool = True,
) -> dict[str, Any]:
    """Sequential-vs-sharded build comparison; writes ``BENCH_parallel.json``.

    The Figure 4 cell workload is clustered three times: once sequentially,
    once with the sharded build on ``n_jobs`` workers (``PARALLEL_SHARDS``
    logical shards), and once more in parallel to witness determinism (the
    merged-tree fingerprints must match). The record keeps the evidence the
    gate test checks — speedup, determinism, audit cleanliness, per-site
    NCD conservation, and Table 2-style quality for both builds — plus the
    honest ``cpu_count``/``usable_cpus`` of the machine that produced it
    (speedup on a single-core box is expected to be < 1 and is only gated
    where ≥ 4 CPUs are usable).
    """
    cfg = resolve_scale(scale)
    workload = {
        "name": "fig4_cells",
        "dim": 20,
        "n_clusters": 50,
        "n_points": max(cfg.sweep_points),
        "seed": 50,
    }
    ds = make_cell_dataset(
        dim=workload["dim"],
        n_clusters=workload["n_clusters"],
        n_points=workload["n_points"],
        seed=workload["seed"],
    )
    objects = list(ds.points)
    max_nodes = paper_max_nodes(workload["n_clusters"])

    legs = [("sequential", 1), ("parallel", n_jobs), ("parallel_repeat", n_jobs)]
    records: dict[str, dict[str, Any]] = {}
    for name, jobs in legs:
        if verbose:
            print(f"[harness] parallel benchmark: {name} (n_jobs={jobs}) "
                  f"at scale {scale!r} ...", flush=True)
        records[name] = _parallel_run(
            objects, ds, workload["n_clusters"], max_nodes, jobs
        )
    seq, par, repeat = (records[name] for name, _ in legs)
    conservation = sum(par["ncd_by_site"].values()) == par["ncd_total"]
    doc = {
        "format": "repro-bench-parallel-v1",
        "scale": scale,
        "workload": workload,
        "max_nodes": max_nodes,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "sequential": seq,
        "parallel": par,
        "parallel_repeat": repeat,
        "speedup_scan": round(seq["scan_seconds"] / par["scan_seconds"], 3)
        if par["scan_seconds"] else 0.0,
        "speedup_total": round(seq["wall_seconds"] / par["wall_seconds"], 3)
        if par["wall_seconds"] else 0.0,
        "deterministic": par["tree_fingerprint"] == repeat["tree_fingerprint"],
        "audit_clean": par["audit"]["n_errors"] == 0,
        "conservation": conservation,
    }
    output = Path(output)
    output.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    if verbose:
        print(f"[harness]   scan speedup {doc['speedup_scan']}x on "
              f"{doc['usable_cpus']} usable CPUs; deterministic="
              f"{doc['deterministic']} audit_clean={doc['audit_clean']}")
        print(f"[harness] wrote {output}")
    return doc


def _clara_workloads(scale: str) -> list[dict[str, Any]]:
    """Figure 4–6 cells with generous node budgets.

    The sampled global phase only pays off when the scan leaves *many*
    leaf clustroids (its per-swap cost is O(sample) instead of O(N_sub));
    the paper-style tiny budgets of the pruning benchmark consolidate to
    ~k clustroids, where every "subsample" is the whole set. The budgets
    here are tuned to land each smoke-scale scan in the several-hundred
    clustroid regime the sampled phase targets.
    """
    cfg = resolve_scale(scale)
    return [
        {"name": "fig4_cells", "dim": 20, "n_clusters": 50,
         "n_points": max(cfg.sweep_points), "seed": 50, "max_nodes": 100},
        {"name": "fig5_cells", "dim": 20, "n_clusters": 50,
         "n_points": max(cfg.sweep_points), "seed": 60, "max_nodes": 110},
        {"name": "fig6_cells", "dim": 20, "n_clusters": max(cfg.sweep_clusters),
         "n_points": cfg.fig6_points, "seed": 70, "max_nodes": 100},
    ]


#: Tracer sites charged by each kind of global phase.
_EXACT_SITES = ("global-phase",)
_SAMPLED_SITES = ("global-sample", "global-assign")


def _clara_run(
    objects: list, ds: Any, workload: dict[str, Any], method: str, n_jobs: int
) -> dict[str, Any]:
    """One traced scan + global phase + labeling; returns the leg record.

    The scan always runs sequentially so every leg owns a byte-identical
    tree; only the sampled searches fan out (``model.config`` is rebound
    with the leg's ``n_jobs`` after the fit, before the global phase).
    """
    from repro.evaluation.metrics import clustroid_quality, distortion
    from repro.pipelines.labeling import nearest_assignment

    k = workload["n_clusters"]
    metric = EuclideanDistance()
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        model = BUBBLE(
            metric, max_nodes=workload["max_nodes"], seed=0, tracer=tracer,
            **_TREE_PARAMS,
        )
        model.fit(objects)
        scan_seconds = time.perf_counter() - start
        model.config = replace(model.config, n_jobs=n_jobs)
        global_start = time.perf_counter()
        search = model.global_phase(
            k, method=method, global_samples=CLARA_SAMPLES, seed=0
        )
        global_seconds = time.perf_counter() - global_start
        with tracer.span("redistribute"):
            labels = nearest_assignment(metric, objects, search.medoids_)
    wall = time.perf_counter() - start
    tracer.close()
    summary = tracer.summary()
    sites = _SAMPLED_SITES if method == "clara" else _EXACT_SITES
    return {
        "method": method,
        "n_jobs": n_jobs,
        "wall_seconds": round(wall, 3),
        "scan_seconds": round(scan_seconds, 3),
        "global_seconds": round(global_seconds, 3),
        "n_subclusters": len(model.subclusters_),
        "ncd_total": summary["ncd_total"],
        "ncd_by_site": summary["ncd_by_site"],
        "ncd_global": sum(summary["ncd_by_site"].get(s, 0) for s in sites),
        "medoid_indices": list(search.medoid_indices_),
        "search_cost": round(float(search.cost_), 6),
        "samples": model.global_phase_samples_,
        "quality": {
            "clustroid_quality": round(
                clustroid_quality(ds.centers, search.medoids_), 6
            ),
            "distortion": round(distortion(ds.points, labels), 6),
        },
        "conservation": sum(summary["ncd_by_site"].values()) == summary["ncd_total"],
        "peak_rss_kb": peak_rss_kb(),
    }


def run_clara_benchmark(
    scale: str = "smoke",
    output: str | Path = CLARA_OUTPUT,
    n_jobs: int = 2,
    verbose: bool = True,
) -> dict[str, Any]:
    """Exact-vs-sampled global phase comparison; writes ``BENCH_clara.json``.

    Each Figure 4–6 workload runs three legs over byte-identical trees:
    the exact sequential CLARANS reference, CLARA on ``n_jobs`` workers,
    and CLARA again on one worker — the sampled result must be bit-
    identical across the two worker counts, spend fewer global-phase
    distance calls than the exact search at equal ``k``, and stay within
    5% of its distortion. The committed file is the baseline the
    ``test_clara_gate.py`` CI gate compares against; wall-clock columns
    are recorded for the ≥ 4-CPU speedup leg but never gated elsewhere.
    """
    records = []
    for workload in _clara_workloads(scale):
        ds = make_cell_dataset(
            dim=workload["dim"], n_clusters=workload["n_clusters"],
            n_points=workload["n_points"], seed=workload["seed"],
        )
        objects = list(ds.points)
        legs = {}
        for leg_name, method, jobs in (
            ("exact", "clarans", 1),
            ("clara", "clara", n_jobs),
            ("clara_repeat", "clara", 1),
        ):
            if verbose:
                print(f"[harness] clara benchmark: {workload['name']} / "
                      f"{leg_name} (n_jobs={jobs}) at scale {scale!r} ...",
                      flush=True)
            legs[leg_name] = _clara_run(objects, ds, workload, method, jobs)
        exact, clara, repeat = legs["exact"], legs["clara"], legs["clara_repeat"]
        record = {
            "workload": workload,
            "exact": exact,
            "clara": clara,
            "clara_repeat": repeat,
            "ncd_global_exact": exact["ncd_global"],
            "ncd_global_sampled": clara["ncd_global"],
            "ncd_saving": (
                round(1.0 - clara["ncd_global"] / exact["ncd_global"], 4)
                if exact["ncd_global"] else 0.0
            ),
            "distortion_ratio": (
                round(
                    clara["quality"]["distortion"] / exact["quality"]["distortion"],
                    6,
                )
                if exact["quality"]["distortion"] else 1.0
            ),
            "deterministic": (
                clara["medoid_indices"] == repeat["medoid_indices"]
                and clara["search_cost"] == repeat["search_cost"]
            ),
            "conservation": all(
                leg["conservation"] for leg in (exact, clara, repeat)
            ),
        }
        records.append(record)
        if verbose:
            print(f"[harness]   global NCD {record['ncd_global_exact']} -> "
                  f"{record['ncd_global_sampled']} "
                  f"({record['ncd_saving']:.1%} saved); "
                  f"distortion ratio {record['distortion_ratio']:.3f}; "
                  f"deterministic={record['deterministic']}")
    doc = {
        "format": "repro-bench-clara-v1",
        "scale": scale,
        "global_samples": CLARA_SAMPLES,
        "n_jobs": n_jobs,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "records": records,
    }
    output = Path(output)
    output.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    if verbose:
        print(f"[harness] wrote {output}")
    return doc


def _memory_scan(algorithm: str, objs: Any, max_nodes: int) -> dict[str, Any]:
    """One traced scan recording slab-arena memory accounting + audit."""
    from repro.analysis.audit import audit_tree

    metric = EuclideanDistance()
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        if algorithm == "bubble":
            model = BUBBLE(
                metric, max_nodes=max_nodes, seed=0, tracer=tracer, **_TREE_PARAMS
            )
        else:
            model = BUBBLEFM(
                metric, max_nodes=max_nodes, image_dim=20, seed=0, tracer=tracer,
                **_TREE_PARAMS,
            )
        model.fit(objs)
    wall = time.perf_counter() - start
    tracer.close()
    summary = tracer.summary()
    audit = audit_tree(model.tree_, raise_on_error=False)
    return {
        "wall_seconds": round(wall, 3),
        "ncd_total": summary["ncd_total"],
        "ncd_by_site": summary["ncd_by_site"],
        "conservation": sum(summary["ncd_by_site"].values()) == summary["ncd_total"],
        "n_subclusters": model.n_subclusters_,
        "slab": model.tree_.policy.arena.snapshot(),
        "audit": {
            "n_errors": len(audit.errors),
            "n_warnings": len(audit.warnings),
        },
        "peak_rss_kb": peak_rss_kb(),
    }


def _drift_cell(n_small: int = DRIFT_STREAM_POINTS) -> dict[str, Any]:
    """Long-stream RowSum drift measurement on an adversarial magnitude mix.

    Two tight seed points become the permanent representatives, a third
    point at offset 1e8 hoists their RowSums to ~1e16, and ``n_small``
    points at radius 0.5 follow — each contributing a squared distance
    (~0.25) far below the ulp of the running sum (2.0 at 1e16). The cell
    reports the relative error of the slab's compensated RowSum against a
    ``math.fsum`` reference, next to a replay of the pre-slab scalar
    ``+=`` accumulation over the identical update stream, which loses
    every small addend.
    """
    import math

    from repro.core.bubble import BubblePolicy
    from repro.core.cftree import CFTree

    rng = np.random.default_rng(0)
    rep_a = np.array([0.0, 0.0])
    rep_b = np.array([1.0, 0.0])
    huge = np.array([1e8, 0.0])
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_small)
    small = list(0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1))

    metric = EuclideanDistance()
    policy = BubblePolicy(metric, representation_number=2, sample_size=10, seed=0)
    tree = CFTree(policy, threshold=1e9, seed=0)
    start = time.perf_counter()
    for obj in [rep_a, rep_b, huge, *small]:
        tree.insert(obj)
    wall = time.perf_counter() - start

    feature = tree.leaf_features()[0]
    rest = [rep_b, huge, *small]
    sq = np.asarray(metric.one_to_many(rep_a, rest), dtype=np.float64) ** 2
    exact = math.fsum(sq.tolist())
    stored = feature.rowsums[0]
    naive = 0.0
    for v in sq:
        naive += float(v)
    return {
        "n_points": 3 + n_small,
        "n_features": len(tree.leaf_features()),
        "wall_seconds": round(wall, 3),
        "exact_rowsum": exact,
        "compensated_rel_err": abs(stored - exact) / exact,
        "naive_rel_err": abs(naive - exact) / exact,
        "compensation_term": float(
            policy.arena.compensations[feature._row, 0]
        ),
    }


def run_memory_benchmark(
    scale: str = "smoke",
    output: str | Path = MEMORY_OUTPUT,
    verbose: bool = True,
) -> dict[str, Any]:
    """Slab-arena memory + RowSum drift evidence; writes ``BENCH_memory.json``.

    Each Figure 4–6 workload is scanned once per algorithm with the same
    seeds and tree parameters as the pruning benchmark (so ``ncd_total``
    cross-checks against the pruned legs of ``BENCH_pruning.json``), and
    the record keeps the slab arena's memory accounting — bytes per leaf
    in the contiguous layout vs the legacy two-lists-of-boxed-floats
    layout it replaced — plus audit cleanliness, the NCD conservation
    check, and ``peak_rss_kb``. A separate long-stream drift cell measures
    compensated-vs-naive RowSum error on an adversarial magnitude spread.
    The committed file is the baseline ``test_memory_gate.py`` enforces.
    """
    records = []
    for workload in _pruning_workloads(scale):
        ds = make_cell_dataset(
            dim=workload["dim"], n_clusters=workload["n_clusters"],
            n_points=workload["n_points"], seed=workload["seed"],
        )
        objs = list(ds.points)
        max_nodes = paper_max_nodes(workload["n_clusters"])
        for algorithm in ("bubble", "bubble-fm"):
            if verbose:
                print(f"[harness] memory benchmark: {workload['name']} / "
                      f"{algorithm} at scale {scale!r} ...", flush=True)
            scan = _memory_scan(algorithm, objs, max_nodes)
            record = {
                "workload": workload,
                "algorithm": algorithm,
                "max_nodes": max_nodes,
                **scan,
            }
            records.append(record)
            if verbose:
                slab = scan["slab"]
                print(f"[harness]   {slab['rows_used']} leaves, "
                      f"{slab['bytes_per_leaf']} B/leaf "
                      f"(legacy {slab['legacy_bytes_per_leaf']}, "
                      f"-{slab['bytes_reduction']:.1%}); "
                      f"audit errors {scan['audit']['n_errors']}")
    if verbose:
        print(f"[harness] memory benchmark: long-stream drift cell "
              f"({DRIFT_STREAM_POINTS} absorbs) ...", flush=True)
    drift = _drift_cell()
    if verbose:
        print(f"[harness]   compensated rel err {drift['compensated_rel_err']:.3e} "
              f"vs naive {drift['naive_rel_err']:.3e}")
    doc = {
        "format": "repro-bench-memory-v1",
        "scale": scale,
        "records": records,
        "drift": drift,
        "peak_rss_kb": peak_rss_kb(),
    }
    output = Path(output)
    output.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    if verbose:
        print(f"[harness] wrote {output}")
    return doc


#: Index backends the query benchmark compares (brute is the reference).
QUERY_BACKENDS = ("brute", "vptree", "cftree")

#: Neighbours per k-NN query.
QUERY_K = 3

#: Queries per workload (distinct points, so the cross-query bound cache
#: cannot trivially serve them — repeats are measured separately).
QUERY_COUNT = 25


def _query_vector_workloads(scale: str) -> list[dict[str, Any]]:
    return _pruning_workloads(scale)


def _query_string_workload(scale: str) -> dict[str, Any]:
    cfg = resolve_scale(scale)
    n_strings = min(400, max(cfg.sweep_points) // 4)
    return {"name": "authority_strings", "n_classes": max(20, n_strings // 8),
            "n_strings": n_strings, "seed": 80}


def _query_scan(
    metric_factory: Callable[[], Any],
    model: Any,
    queries: list[Any],
    radius: float,
) -> dict[str, Any]:
    """Query every backend over one fitted model's clustroids.

    Each backend gets a fresh metric and its own bound cache, so the
    recorded NCD is exactly what that backend spent. Returns per-backend
    records plus the cross-backend exact-equivalence verdict.
    """
    from repro.index import CFTreeIndex, make_index

    indexed = [f.clustroid for f in model.tree_.leaf_features()]
    backends: dict[str, dict[str, Any]] = {}
    answers: dict[str, list[Any]] = {}
    for backend in QUERY_BACKENDS:
        metric = metric_factory()
        tracer = Tracer()
        with tracer:
            if backend == "cftree":
                index = CFTreeIndex.from_tree(model.tree_, metric=metric)
            else:
                # A fixed seed makes the vantage points, hence the
                # recorded NCD, regenerate exactly.
                kwargs = {"seed": 0} if backend == "vptree" else {}
                index = make_index(backend, metric, **kwargs)
                index.build(indexed)
            keyed = []
            knn_calls = 0
            range_calls = 0
            for q in queries:
                knn = index.nearest(q, k=QUERY_K)
                knn_calls += knn.n_calls
                # Incremental: the range query reuses the distances its
                # k-NN twin just paid for through the bound cache.
                rng_result = index.within(q, radius)
                range_calls += rng_result.n_calls
                keyed.append((
                    [(n.index, round(n.distance, 9)) for n in knn],
                    [(n.index, round(n.distance, 9)) for n in rng_result],
                ))
            # A repeated query must be served by the bound cache for free.
            repeat_calls = index.nearest(queries[0], k=QUERY_K).n_calls
        tracer.close()
        summary = tracer.summary()
        stats = index.stats
        answers[backend] = keyed
        backends[backend] = {
            "build_calls": stats.build_calls,
            "knn_mean_ncd": round(knn_calls / len(queries), 3),
            "range_mean_ncd": round(range_calls / len(queries), 3),
            "repeat_query_calls": repeat_calls,
            "pruned_fraction": round(
                stats.candidates_pruned / stats.candidates_total, 4
            ) if stats.candidates_total else 0.0,
            "bound_cache": index.bound_cache.as_dict(),
            "ncd_total": summary["ncd_total"],
            "ncd_by_site": summary["ncd_by_site"],
            "conservation": (
                sum(summary["ncd_by_site"].values()) == summary["ncd_total"]
            ),
        }
    reference = answers["brute"]
    exact = all(answers[b] == reference for b in QUERY_BACKENDS)
    brute_knn = backends["brute"]["knn_mean_ncd"]
    for backend in QUERY_BACKENDS:
        saved = 1.0 - backends[backend]["knn_mean_ncd"] / brute_knn if brute_knn else 0.0
        backends[backend]["ncd_saved_knn"] = round(saved, 4)
    return {
        "n_indexed": len(indexed),
        "radius": round(radius, 6),
        "backends": backends,
        "exact_equivalence": exact,
    }


def run_query_benchmark(
    scale: str = "smoke",
    output: str | Path = QUERY_OUTPUT,
    verbose: bool = True,
) -> dict[str, Any]:
    """Per-backend query NCD vs brute force; writes ``BENCH_query.json``.

    Each Figure 4–6 vector workload (and the authority-strings workload)
    is preclustered once per backend-metric with identical parameters;
    every index backend then answers the same ``QUERY_COUNT`` k-NN and
    range queries over the leaf clustroids. Recorded per backend: build
    NCD, mean per-query NCD (the headline number — the cf-tree backend
    must save >= 50% of the brute-scan cost at leaf level, enforced by
    ``test_query_gate.py``), pruning fraction, bound-cache counters, the
    repeated-query cost (must be 0 — served entirely from the cross-query
    cache), per-site ledger totals, and the conservation verdict. The
    ``exact_equivalence`` flag asserts all backends returned bit-identical
    ``(index, distance)`` answers.
    """
    from repro.datasets import make_authority_dataset
    from repro.metrics import EditDistance

    records = []
    workloads: list[tuple[dict[str, Any], Callable[[], Any], str]] = [
        (w, EuclideanDistance, "vector") for w in _query_vector_workloads(scale)
    ]
    workloads.append((_query_string_workload(scale), EditDistance, "string"))
    for workload, metric_factory, kind in workloads:
        if verbose:
            print(f"[harness] query benchmark: {workload['name']} at scale "
                  f"{scale!r} ...", flush=True)
        rng = np.random.default_rng(workload["seed"])
        if kind == "vector":
            ds = make_cell_dataset(
                dim=workload["dim"], n_clusters=workload["n_clusters"],
                n_points=workload["n_points"], seed=workload["seed"],
            )
            objs = list(ds.points)
        else:
            ds = make_authority_dataset(
                n_classes=workload["n_classes"], n_strings=workload["n_strings"],
                seed=workload["seed"],
            )
            objs = list(ds.strings)
        # Index-serving configuration: no memory cap and zero threshold, so
        # the clustroid hierarchy stays fine-grained (the paper's max_nodes
        # compression would leave a handful of coarse leaves — the right
        # shape for preclustering, the wrong one for serving queries).
        model = BUBBLE(
            metric_factory(), threshold=0.0, max_nodes=None, seed=0,
            **_TREE_PARAMS,
        ).fit(objs)
        queries = [objs[i] for i in rng.choice(len(objs), QUERY_COUNT, replace=False)]
        probe = metric_factory().one_to_many(
            queries[0], [f.clustroid for f in model.tree_.leaf_features()]
        )
        radius = float(np.median(probe))
        record = {"workload": workload, "kind": kind,
                  **_query_scan(metric_factory, model, queries, radius)}
        records.append(record)
        if verbose:
            for backend in QUERY_BACKENDS:
                b = record["backends"][backend]
                print(f"[harness]   {backend:>6}: knn {b['knn_mean_ncd']:.1f} "
                      f"calls/query ({b['ncd_saved_knn']:.1%} saved), "
                      f"build {b['build_calls']}, repeat {b['repeat_query_calls']}")
            assert record["exact_equivalence"], "backends diverged from brute force"
    doc = {
        "format": "repro-bench-query-v1",
        "scale": scale,
        "k": QUERY_K,
        "n_queries": QUERY_COUNT,
        "records": records,
    }
    output = Path(output)
    output.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    if verbose:
        print(f"[harness] wrote {output}")
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="harness", description="traced benchmark runs -> BENCH_birchstar.json"
    )
    parser.add_argument("--scale", default="smoke", help="smoke|laptop|paper")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    parser.add_argument(
        "--only", nargs="*", default=None, metavar="NAME",
        help=f"subset of experiments to run (choices: {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--pruning", action="store_true",
        help="run the exhaustive-vs-pruned NCD comparison instead "
             "(writes BENCH_pruning.json)",
    )
    parser.add_argument("--pruning-output", default=str(PRUNING_OUTPUT))
    parser.add_argument(
        "--parallel", action="store_true",
        help="run the sequential-vs-sharded build comparison instead "
             "(writes BENCH_parallel.json)",
    )
    parser.add_argument(
        "--jobs", type=int, default=4, metavar="N",
        help="worker processes for the parallel benchmark legs (default 4)",
    )
    parser.add_argument("--parallel-output", default=str(PARALLEL_OUTPUT))
    parser.add_argument(
        "--clara", action="store_true",
        help="run the exact-vs-sampled global phase comparison instead "
             "(writes BENCH_clara.json)",
    )
    parser.add_argument(
        "--clara-jobs", type=int, default=2, metavar="N",
        help="worker processes for the parallel CLARA leg (default 2)",
    )
    parser.add_argument("--clara-output", default=str(CLARA_OUTPUT))
    parser.add_argument(
        "--memory", action="store_true",
        help="run the slab-arena memory + RowSum drift benchmark instead "
             "(writes BENCH_memory.json)",
    )
    parser.add_argument("--memory-output", default=str(MEMORY_OUTPUT))
    parser.add_argument(
        "--query", action="store_true",
        help="run the per-backend query NCD comparison instead "
             "(writes BENCH_query.json)",
    )
    parser.add_argument("--query-output", default=str(QUERY_OUTPUT))
    args = parser.parse_args(argv)
    if args.pruning:
        run_pruning_benchmark(scale=args.scale, output=args.pruning_output)
    elif args.parallel:
        run_parallel_benchmark(
            scale=args.scale, output=args.parallel_output, n_jobs=args.jobs
        )
    elif args.clara:
        run_clara_benchmark(
            scale=args.scale, output=args.clara_output, n_jobs=args.clara_jobs
        )
    elif args.memory:
        run_memory_benchmark(scale=args.scale, output=args.memory_output)
    elif args.query:
        run_query_benchmark(scale=args.scale, output=args.query_output)
    else:
        run_harness(scale=args.scale, output=args.output, only=args.only)
    return 0


if __name__ == "__main__":
    sys.exit(main())
