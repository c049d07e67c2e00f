"""StatsSnapshot: one structured picture of a tree, its metric, and a trace.

The CF*-tree, the distance function, the cache, and the ledger each hold a
piece of the run's story; :class:`StatsSnapshot` collects them into a
single JSON-compatible record — what ``repro stats <checkpoint>`` prints.
Each owner's counters appear once, as that owner's own record (``cache``,
``query``, ``pruning``, ``report``), never copied into fields
of the snapshot.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import NotFittedError
from repro.metrics.base import CallLedger, DistanceFunction
from repro.metrics.cache import CachedDistance

__all__ = ["StatsSnapshot"]

#: ``query`` keys that total a :class:`~repro.index.QueryResult` field.
_QUERY_TOTALS = (
    ("query_calls", "n_calls"),
    ("candidates_total", "n_candidates"),
    ("candidates_evaluated", "n_evaluated"),
    ("candidates_pruned", "n_pruned"),
    ("bound_checks", "bound_checks"),
    ("cache_hits", "cache_hits"),
)


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
    #: Site-attributed NCD (empty unless a ledger was supplied).
    ncd_by_site: dict[str, int] = field(default_factory=dict)
    #: LRU cache counters (hits/misses/evictions/size/maxsize/
    #: hit_rate; ``None`` when no :class:`CachedDistance` is in the chain).
    cache: dict[str, Any] | None = None
    #: Query-serving totals of a :class:`repro.index.MetricIndex`: its
    #: build NCD, the :class:`~repro.index.QueryResult` counters summed
    #: over the queries passed to :meth:`apply_index`, and, under
    #: ``"bound_cache"``, :meth:`~repro.index.QueryBoundCache.as_dict`
    #: (hits, misses, queries evicted, queries and pairs held, anchor
    #: pairs reused; cumulative over every index sharing the cache, which
    #: for ``model.index()`` means over all of the model's adoptions).
    #: ``None`` until :meth:`apply_index` runs.
    query: dict[str, Any] | None = None
    #: Pruned-routing counters (:class:`repro.core.routing.PruningStats`
    #: as a dict; ``None`` when the policy has no pruning engine).
    pruning: dict[str, int] | None = None
    #: The run's :class:`~repro.robustness.report.IngestReport` as a dict
    #: (``to_dict()``; ingestion, shard-recovery and sampled-global-phase
    #: counters), from the model or the checkpoint; ``None`` when neither
    #: carries one.
    report: dict[str, Any] | None = None
    #: Per-sample diagnostics of the sampled global phase (size, NCD,
    #: wall, costs), in sample order.
    global_phase_samples: list[dict] = field(default_factory=list)

    @classmethod
    def from_tree(
        cls,
        tree: Any,
        metric: DistanceFunction | None = None,
        ledger: CallLedger | None = None,
    ) -> "StatsSnapshot":
        """Snapshot a CF*-tree (anything with the tree's introspection API).

        ``metric`` defaults to the tree policy's metric; ``ledger`` (any
        :class:`~repro.metrics.base.CallLedger`, a
        :class:`~repro.observability.Tracer` included) contributes its
        per-site NCD.
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
                snapshot.cache = cache.counters()
        if ledger is not None:
            snapshot.ncd_by_site = dict(ledger.by_site)
        pruning_stats = getattr(getattr(tree, "policy", None), "pruning_stats", None)
        if pruning_stats is not None:
            snapshot.pruning = pruning_stats.as_dict()
        return snapshot

    @classmethod
    def from_model(cls, model: Any, ledger: CallLedger | None = None) -> "StatsSnapshot":
        """Snapshot a fitted driver (``BUBBLE``/``BUBBLEFM``); ``ledger`` as
        in :meth:`from_tree`."""
        if model.tree_ is None:
            raise NotFittedError(f"{type(model).__name__} has not been fitted yet")
        snapshot = cls.from_tree(model.tree_, metric=model.metric, ledger=ledger)
        report = getattr(model, "ingest_report_", None)
        if report is not None:
            snapshot.report = report.to_dict()
        snapshot.global_phase_samples = [
            dict(s) for s in getattr(model, "global_phase_samples_", [])
        ]
        return snapshot

    def apply_index(self, index: Any, results: Iterable[Any]) -> None:
        """Fold a :class:`repro.index.MetricIndex` and the
        :class:`~repro.index.QueryResult` records of the queries it served
        into :attr:`query`."""
        results = list(results)
        n_queries = len(results)
        n_knn = sum(1 for r in results if r.kind == "knn")
        self.query = {
            key: sum(getattr(r, attr) for r in results)
            for key, attr in _QUERY_TOTALS
        }
        calls = self.query["query_calls"]
        self.query.update(
            backend=index.backend,
            n_indexed=len(index),
            build_calls=index.build_calls,
            n_queries=n_queries,
            n_knn=n_knn,
            n_range=n_queries - n_knn,
            mean_query_calls=round(calls / n_queries, 3) if n_queries else 0.0,
            last_query_calls=results[-1].n_calls if results else 0,
            bound_cache=index.bound_cache.as_dict(),
        )

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
            "cache": dict(self.cache) if self.cache is not None else None,
            "query": dict(self.query) if self.query is not None else None,
            "pruning": dict(self.pruning) if self.pruning is not None else None,
            "report": dict(self.report) if self.report is not None else None,
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
        if self.cache is not None:
            rows.append(("cache hits", str(self.cache.get("hits"))))
            rows.append(("cache misses", str(self.cache.get("misses"))))
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
        report = self.report or {}
        retried = report.get("shards_retried", 0)
        crashed = report.get("workers_crashed", 0)
        resumed = report.get("shards_resumed", 0)
        if retried or crashed or resumed:
            backoff = float(report.get("backoff_seconds_total", 0.0))
            rows.append(("shard retries", str(retried)))
            rows.append(("worker crashes", str(crashed)))
            rows.append(("shards resumed", str(resumed)))
            rows.append(("retry backoff", f"{backoff:.2f}s"))
        if report.get("global_samples"):
            rows.append(("global samples", str(report["global_samples"])))
            rows.append(("sample search NCD", str(report.get("global_sample_ncd", 0))))
            rows.append(
                (
                    "sample search wall",
                    f"{float(report.get('global_sample_seconds', 0.0)):.2f}s",
                )
            )
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
