"""StatsSnapshot: one structured picture of a tree, its metric, and a trace.

The CF*-tree, the distance function, the cache, and the tracer each hold a
piece of the run's story; :class:`StatsSnapshot` collects them into a
single JSON-compatible record — what ``repro stats <checkpoint>`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.metrics.base import DistanceFunction
from repro.metrics.cache import CachedDistance

__all__ = ["StatsSnapshot"]


def _find_cache(metric: Any) -> CachedDistance | None:
    """Walk a wrapper chain (guarded(cached(...)), ...) to the first cache."""
    seen = 0
    while metric is not None and seen < 10:
        if isinstance(metric, CachedDistance):
            return metric
        metric = getattr(metric, "inner", None)
        seen += 1
    return None


@dataclass
class StatsSnapshot:
    """Point-in-time statistics of a (possibly traced) pre-clustering run."""

    #: Objects inserted into the tree so far.
    n_objects: int = 0
    #: Tree nodes (leaf + non-leaf).
    n_nodes: int = 0
    #: Leaf nodes.
    n_leaves: int = 0
    #: Leaf-level sub-clusters.
    n_clusters: int = 0
    #: Tree height (a lone leaf root has height 1).
    height: int = 0
    #: Current threshold requirement ``T``.
    threshold: float = 0.0
    #: Rebuilds performed (Type II re-insertion passes).
    n_rebuilds: int = 0
    #: Node budget ``M`` (``None`` = unbounded).
    max_nodes: int | None = None
    #: ``n_nodes / max_nodes`` — how close the tree is to its next rebuild.
    m_pressure: float | None = None
    #: Outlier clusters currently parked (BIRCH-style outlier handling).
    n_outliers_parked: int = 0
    #: The metric's NCD counter (true evaluations).
    ncd_total: int = 0
    #: Site-attributed NCD (empty unless a tracer/ledger was supplied).
    ncd_by_site: dict[str, int] = field(default_factory=dict)
    #: Cache hits (``None`` when no :class:`CachedDistance` is in the chain).
    cache_hits: int | None = None
    #: Cache misses == true evaluations through the cache.
    cache_misses: int | None = None
    #: Full LRU cache counters (hits/misses/evictions/size/maxsize/
    #: hit_rate; ``None`` when no :class:`CachedDistance` is in the chain).
    cache: dict[str, Any] | None = None
    #: Query-serving counters of a :class:`repro.index.MetricIndex`
    #: (:meth:`~repro.index.IndexQueryStats.as_dict` plus, under
    #: ``"bound_cache"``, :meth:`~repro.index.QueryBoundCache.as_dict`:
    #: hits, misses, queries evicted, queries and pairs held, and anchor
    #: pairs reused; ``None`` until :meth:`apply_index` runs). The
    #: bound-cache counters are cumulative over every index sharing the
    #: cache, which for ``model.index()`` means over all of the model's
    #: adoptions; the other counters cover this index only.
    query: dict[str, Any] | None = None
    #: Pruned-routing counters (:class:`repro.core.routing.PruningStats`
    #: as a dict; ``None`` when the policy has no pruning engine).
    pruning: dict[str, int] | None = None
    #: CF* slab-arena occupancy and memory accounting
    #: (:meth:`repro.core.arena.FeatureArena.snapshot`; ``None`` when the
    #: policy keeps no slab arena).
    slab: dict[str, Any] | None = None
    #: Shard attempts retried during a fault-tolerant parallel build.
    shards_retried: int = 0
    #: Worker processes that crashed or were killed for timing out.
    workers_crashed: int = 0
    #: Shards that resumed from a per-shard checkpoint.
    shards_resumed: int = 0
    #: Total exponential-backoff delay scheduled between shard retries.
    backoff_seconds_total: float = 0.0
    #: Subsamples searched by a CLARA-style sampled global phase.
    global_samples: int = 0
    #: Distance calls spent inside those sample searches.
    global_sample_ncd: int = 0
    #: Aggregate wall-clock seconds across the sample searches.
    global_sample_seconds: float = 0.0
    #: Per-sample diagnostics of the sampled global phase (size, NCD,
    #: wall, costs), in sample order.
    global_phase_samples: list[dict] = field(default_factory=list)

    @classmethod
    def from_tree(
        cls,
        tree: Any,
        metric: DistanceFunction | None = None,
        tracer: Any = None,
    ) -> "StatsSnapshot":
        """Snapshot a CF*-tree (anything with the tree's introspection API).

        ``metric`` defaults to the tree policy's metric; ``tracer`` (a
        :class:`~repro.observability.Tracer`) contributes per-site NCD.
        """
        if metric is None:
            metric = getattr(getattr(tree, "policy", None), "metric", None)
        n_leaves = sum(1 for _ in tree.leaves())
        max_nodes = getattr(tree, "max_nodes", None)
        snapshot = cls(
            n_objects=tree.n_objects,
            n_nodes=tree.n_nodes,
            n_leaves=n_leaves,
            n_clusters=tree.n_clusters,
            height=tree.height,
            threshold=float(tree.threshold),
            n_rebuilds=tree.n_rebuilds,
            max_nodes=max_nodes,
            m_pressure=(tree.n_nodes / max_nodes) if max_nodes else None,
            n_outliers_parked=getattr(tree, "n_outliers_parked", 0),
        )
        if metric is not None:
            snapshot.ncd_total = metric.n_calls
            cache = _find_cache(metric)
            if cache is not None:
                snapshot.cache_hits = cache.n_hits
                snapshot.cache_misses = cache.n_calls
                snapshot.cache = cache.counters()
        if tracer is not None and getattr(tracer, "enabled", False):
            snapshot.ncd_by_site = dict(tracer.calls_by_site)
        pruning_stats = getattr(getattr(tree, "policy", None), "pruning_stats", None)
        if pruning_stats is not None:
            snapshot.pruning = pruning_stats.as_dict()
        arena = getattr(getattr(tree, "policy", None), "arena", None)
        if arena is not None and hasattr(arena, "snapshot"):
            snapshot.slab = arena.snapshot()
        return snapshot

    @classmethod
    def from_model(cls, model: Any, tracer: Any = None) -> "StatsSnapshot":
        """Snapshot a fitted driver (``BUBBLE``/``BUBBLEFM``)."""
        if tracer is None:
            tracer = getattr(model, "tracer", None)
        snapshot = cls.from_tree(model.tree_, metric=model.metric, tracer=tracer)
        report = getattr(model, "ingest_report_", None)
        if report is not None:
            snapshot.apply_report(report)
        snapshot.global_phase_samples = [
            dict(s) for s in getattr(model, "global_phase_samples_", [])
        ]
        return snapshot

    def apply_report(self, report: Any) -> None:
        """Pull fault-tolerance counters from an ingest report (object or
        ``to_dict()`` payload)."""
        if isinstance(report, dict):
            get = report.get
        else:
            def get(name: str, default: Any = 0) -> Any:
                return getattr(report, name, default)
        self.shards_retried = int(get("shards_retried", 0) or 0)
        self.workers_crashed = int(get("workers_crashed", 0) or 0)
        self.shards_resumed = int(get("shards_resumed", 0) or 0)
        self.backoff_seconds_total = float(get("backoff_seconds_total", 0.0) or 0.0)
        self.global_samples = int(get("global_samples", 0) or 0)
        self.global_sample_ncd = int(get("global_sample_ncd", 0) or 0)
        self.global_sample_seconds = float(get("global_sample_seconds", 0.0) or 0.0)

    def apply_index(self, index: Any) -> None:
        """Fold a :class:`repro.index.MetricIndex`'s query counters in.

        Populates :attr:`query` with the cumulative
        :class:`~repro.index.IndexQueryStats` record plus the cross-query
        bound cache's record (cumulative over every index sharing it).
        """
        self.query = dict(index.stats.as_dict())
        self.query["backend"] = getattr(index, "backend", "?")
        self.query["n_indexed"] = len(index)
        self.query["bound_cache"] = index.bound_cache.as_dict()

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict (what ``repro stats --json`` prints)."""
        return {
            "n_objects": self.n_objects,
            "n_nodes": self.n_nodes,
            "n_leaves": self.n_leaves,
            "n_clusters": self.n_clusters,
            "height": self.height,
            "threshold": self.threshold,
            "n_rebuilds": self.n_rebuilds,
            "max_nodes": self.max_nodes,
            "m_pressure": self.m_pressure,
            "n_outliers_parked": self.n_outliers_parked,
            "ncd_total": self.ncd_total,
            "ncd_by_site": dict(self.ncd_by_site),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache": dict(self.cache) if self.cache is not None else None,
            "query": dict(self.query) if self.query is not None else None,
            "pruning": dict(self.pruning) if self.pruning is not None else None,
            "slab": dict(self.slab) if self.slab is not None else None,
            "shards_retried": self.shards_retried,
            "workers_crashed": self.workers_crashed,
            "shards_resumed": self.shards_resumed,
            "backoff_seconds_total": self.backoff_seconds_total,
            "global_samples": self.global_samples,
            "global_sample_ncd": self.global_sample_ncd,
            "global_sample_seconds": self.global_sample_seconds,
            "global_phase_samples": [dict(s) for s in self.global_phase_samples],
        }

    def format(self) -> str:
        """Aligned key/value table for terminal output."""
        rows: list[tuple[str, str]] = [
            ("objects", str(self.n_objects)),
            ("nodes", str(self.n_nodes)),
            ("leaves", str(self.n_leaves)),
            ("sub-clusters", str(self.n_clusters)),
            ("height", str(self.height)),
            ("threshold", f"{self.threshold:.6g}"),
            ("rebuilds", str(self.n_rebuilds)),
            ("node budget M", str(self.max_nodes) if self.max_nodes else "unbounded"),
        ]
        if self.m_pressure is not None:
            rows.append(("M-pressure", f"{self.m_pressure:.1%}"))
        if self.n_outliers_parked:
            rows.append(("outliers parked", str(self.n_outliers_parked)))
        rows.append(("distance calls", str(self.ncd_total)))
        if self.cache_hits is not None:
            rows.append(("cache hits", str(self.cache_hits)))
            rows.append(("cache misses", str(self.cache_misses)))
        if self.cache is not None:
            rows.append(("cache evictions", str(self.cache.get("evictions", 0))))
            rows.append(
                (
                    "cache occupancy",
                    f"{self.cache.get('size')}/{self.cache.get('maxsize')} "
                    f"(hit rate {float(self.cache.get('hit_rate', 0.0)):.1%})",
                )
            )
        if self.query is not None and self.query.get("n_queries"):
            rows.append(
                (
                    "queries served",
                    f"{self.query.get('n_queries')} "
                    f"({self.query.get('n_knn')} kNN, "
                    f"{self.query.get('n_range')} range, "
                    f"backend {self.query.get('backend')})",
                )
            )
            rows.append(
                (
                    "query NCD",
                    f"{self.query.get('query_calls')} total "
                    f"({float(self.query.get('mean_query_calls', 0.0)):.1f}/query, "
                    f"build {self.query.get('build_calls')})",
                )
            )
            q_total = self.query.get("candidates_total", 0)
            q_pruned = self.query.get("candidates_pruned", 0)
            q_share = q_pruned / q_total if q_total else 0.0
            rows.append(
                ("query pruned", f"{q_pruned}/{q_total} ({q_share:.1%})")
            )
            bc = self.query.get("bound_cache") or {}
            rows.append(
                (
                    "bound cache",
                    f"{bc.get('hits', 0)} hits / {bc.get('misses', 0)} misses "
                    f"(hit rate {float(bc.get('hit_rate', 0.0)):.1%})",
                )
            )
            rows.append(
                (
                    "bound cache held",
                    f"{bc.get('queries', 0)} queries / {bc.get('pairs', 0)} pairs "
                    f"({bc.get('evictions', 0)} queries evicted, "
                    f"{bc.get('anchor_pairs_reused', 0)} anchor pairs reused)",
                )
            )
        if self.pruning is not None and self.pruning.get("queries"):
            total = self.pruning.get("candidates_total", 0)
            pruned = self.pruning.get("candidates_pruned", 0)
            share = pruned / total if total else 0.0
            rows.append(("pruned candidates", f"{pruned}/{total} ({share:.1%})"))
            rows.append(
                ("pruning maintenance", str(self.pruning.get("maintenance_evals", 0)))
            )
        if self.slab is not None and self.slab.get("rows_used"):
            rows.append(
                (
                    "slab occupancy",
                    f"{self.slab.get('rows_used')}/{self.slab.get('capacity')} rows "
                    f"({float(self.slab.get('occupancy', 0.0)):.1%})",
                )
            )
            # Negative reduction (near-singleton leaves where the fixed-width
            # slab overallocates) renders as "+x%".
            rows.append(
                (
                    "slab bytes/leaf",
                    f"{self.slab.get('bytes_per_leaf')} "
                    f"(legacy {self.slab.get('legacy_bytes_per_leaf')}, "
                    f"{-float(self.slab.get('bytes_reduction', 0.0)):+.1%})",
                )
            )
        if self.shards_retried or self.workers_crashed or self.shards_resumed:
            rows.append(("shard retries", str(self.shards_retried)))
            rows.append(("worker crashes", str(self.workers_crashed)))
            rows.append(("shards resumed", str(self.shards_resumed)))
            rows.append(("retry backoff", f"{self.backoff_seconds_total:.2f}s"))
        if self.global_samples:
            rows.append(("global samples", str(self.global_samples)))
            rows.append(("sample search NCD", str(self.global_sample_ncd)))
            rows.append(("sample search wall", f"{self.global_sample_seconds:.2f}s"))
        width = max(len(k) for k, _ in rows)
        lines = [f"{k:<{width}}  {v}" for k, v in rows]
        if self.ncd_by_site:
            lines.append("NCD by site:")
            site_width = max(len(site) for site in self.ncd_by_site)
            for site, calls in sorted(self.ncd_by_site.items(), key=lambda kv: -kv[1]):
                lines.append(f"  {site:<{site_width}}  {calls}")
        if self.global_phase_samples:
            lines.append("global-phase samples:")
            for s in self.global_phase_samples:
                lines.append(
                    f"  sample {s.get('sample_id')}: "
                    f"size={s.get('sample_size')} "
                    f"calls={s.get('n_calls')} "
                    f"cost={float(s.get('full_cost', 0.0)):.6g} "
                    f"wall={float(s.get('elapsed_seconds', 0.0)):.2f}s"
                )
        return "\n".join(lines)
