"""The benchmark's four workloads and the closed loop that measures them.

Every workload is a closed loop with one client: the next call starts only
after the previous one returned. ``--seed`` seeds the data generators and
the serving op mix only; every model seed stays fixed at 0.

BUBBLE's cost is a step function of its input (one more rebuild or split
moves the whole scan), so one input per run would make a run's numbers
swing with the seed. A run therefore draws several independent inputs from
the seed and cycles its ops over them; its metrics are totals over all of
them. A run has three steps:

1. **set-up**, repeated (the median is ``setup_s``): make the inputs and,
   for ``vec-serve``, fit the trees and adopt each as an index;
2. **count**: run each input once, untimed, on the metered kernel. This
   gives the deterministic counts (counted NCD, true evaluations) and the
   reference outputs every timed op is checked against;
3. **window**: cycle the ops over the inputs until ``--seconds`` have
   passed. Untraced ops use the plain library metric. With ``--trace 1``
   every other cycle is traced instead, and the two kinds' medians give
   the tracing overhead.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.preclusterer import BUBBLE
from repro.datasets import make_authority_dataset
from repro.datasets.vector import make_cell_dataset
from repro.evaluation.metrics import adjusted_rand_index
from repro.experiments.config import paper_max_nodes
from repro.index.base import brute_force_reference
from repro.metrics import EditDistance, EuclideanDistance
from repro.observability import NULL_TRACER, Tracer
from repro.pipelines.cluster import cluster_dataset
from repro.utils import peak_rss_kb

from metered import METER, MeteredEdit, MeteredEuclidean
from tracing import SpanRecorder

__all__ = ["WORKLOADS", "run_workload"]

#: Set-up repetitions per timed run; ``setup_s`` is their median.
SETUP_REPS = 5
SERVE_SETUP_REPS = 3

#: Ledger sites of the CF*-tree scan reported one by one.
CORE_SITES = ("leaf-d0", "nonleaf-d2", "leaf-update", "split", "threshold", "rebuild")
FASTMAP_SITES = ("fastmap-map", "fastmap-refit")
CLARANS_SITES = ("global-sample", "global-assign")


class Tally:
    """Attempted and failed checks of one run; failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {message}", file=sys.stderr)

    def crash(self) -> None:
        self.attempted += 1
        self.failed += 1
        traceback.print_exc()


@dataclass
class TraceTotals:
    """What the traced ops of one run spent, summed over those ops."""

    ops: int = 0
    ncd: int = 0
    evals: int = 0
    hooks: int = 0
    kernel_s: float = 0.0
    queries: dict[str, Counter] = field(
        default_factory=lambda: {"knn": Counter(), "range": Counter()}
    )

    def add_query(self, kind: str, result: Any) -> None:
        q = self.queries[kind]
        q["n"] += 1
        q["calls"] += result.n_calls
        q["candidates"] += result.n_candidates
        q["pruned"] += result.n_pruned
        q["evaluated"] += result.n_evaluated
        q["hits"] += result.cache_hits


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _tail(values: list[float]) -> float:
    """The highest of p99, p90 and p50 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(values) * (100 - q) >= 1000:
            return statistics.quantiles(values, n=100)[q - 1]
    return statistics.median(values)


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterWorkload:
    """One ``cluster_dataset`` call over one generated input is one op."""

    name: str
    strings: bool
    n_objects: int
    n_classes: int
    #: Independent inputs per run.
    inputs: int
    params: dict[str, Any]
    #: Mean ARI against the generator's labels below which a run fails;
    #: set well under the lowest value seen over many seeds.
    ari_floor: float
    smoke_objects: int
    smoke_classes: int

    def sizes(self, smoke: bool) -> tuple[int, int, int]:
        if smoke:
            return self.smoke_objects, self.smoke_classes, 2
        return self.n_objects, self.n_classes, self.inputs

    def make_inputs(self, seed: int, smoke: bool) -> list[tuple[list[Any], np.ndarray]]:
        n, k, count = self.sizes(smoke)
        out = []
        for j in range(count):
            rng = np.random.default_rng([seed, j])
            if self.strings:
                ds = make_authority_dataset(n_classes=k, n_strings=n, seed=rng)
                out.append((list(ds.strings), ds.labels))
            else:
                cells = make_cell_dataset(dim=20, n_clusters=k, n_points=n, seed=rng)
                out.append((list(cells.points), cells.labels))
        return out

    def metric(self, metered: bool) -> Any:
        if self.strings:
            return MeteredEdit() if metered else EditDistance()
        return MeteredEuclidean() if metered else EuclideanDistance()

    def cluster(self, objects: list[Any], metric: Any, smoke: bool, **extra: Any) -> Any:
        _, k, _ = self.sizes(smoke)
        params = dict(self.params)
        if params.get("max_nodes") == "paper":
            params["max_nodes"] = paper_max_nodes(k)
        return cluster_dataset(
            objects, metric, n_clusters=k, seed=0, n_jobs=1, assign=True,
            **params, **extra,
        )


@dataclass(frozen=True)
class ServeWorkload:
    """Fitted trees serve as indexes; one query or insert is one op."""

    name: str
    n_fit: int
    #: Independent trees per run, served round-robin.
    trees: int
    #: Script length per tree (longer than any window needs).
    n_ops: int
    #: Ops per tree replayed on the metered kernel for the counts.
    count_ops: int
    smoke_fit: int
    smoke_ops: int
    k: int = 3
    #: Every block of ten ops holds exactly this mix, in a seeded order.
    block: tuple[str, ...] = ("knn",) * 6 + ("range",) * 3 + ("insert",)
    #: Share of queries re-asking one of the last ``recent`` queries.
    repeat_share: float = 0.2
    recent: int = 50
    #: Fresh query objects per tree, cycled.
    query_pool: int = 2000


WORKLOADS: dict[str, ClusterWorkload | ServeWorkload] = {
    w.name: w
    for w in (
        ClusterWorkload(
            name="vec-bubble", strings=False, n_objects=2000, n_classes=50, inputs=6,
            params=dict(algorithm="bubble", max_nodes="paper", global_method="hac"),
            ari_floor=0.8, smoke_objects=300, smoke_classes=10,
        ),
        ClusterWorkload(
            name="str-bubble", strings=True, n_objects=80, n_classes=10, inputs=30,
            params=dict(algorithm="bubble", max_nodes="paper", global_method="hac"),
            ari_floor=0.4, smoke_objects=30, smoke_classes=5,
        ),
        ClusterWorkload(
            name="vec-fm-clara", strings=False, n_objects=400, n_classes=20, inputs=10,
            params=dict(
                algorithm="bubble-fm", image_dim=20, max_nodes=60, global_method="clara",
            ),
            ari_floor=0.8, smoke_objects=200, smoke_classes=10,
        ),
        ServeWorkload(
            name="vec-serve", n_fit=800, trees=3, n_ops=8000, count_ops=300,
            smoke_fit=200, smoke_ops=60,
        ),
    )
}


# ----------------------------------------------------------------------
# The measuring loop
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    tally: Tally
    metrics: dict[str, float]
    samples: dict[str, int]
    #: Context printed next to the samples (not a metric).
    detail: dict[str, Any] = field(default_factory=dict)


def _window(
    seconds: float, inputs: int, trace: bool,
    step: Callable[[int, int, bool], None], limit: int | None = None,
) -> None:
    """Call ``step(i, input, traced)`` until ``seconds`` passed.

    Op ``i`` runs on input ``i % inputs``; in a traced run every other
    cycle over the inputs is traced. At least one cycle of each kind runs.
    """
    deadline = time.perf_counter() + seconds
    min_ops = inputs * (2 if trace else 1)
    i = 0
    while (i < min_ops or time.perf_counter() < deadline) and (limit is None or i < limit):
        step(i, i % inputs, trace and (i // inputs) % 2 == 1)
        i += 1


def _traced(
    recorder: SpanRecorder, tracer: Tracer, totals: TraceTotals, latencies: list[float],
    i: int, metric: Any, fn: Callable[[], Any],
) -> Any:
    """Run ``fn`` as traced op ``i``: layer spans, ledger, timed kernel."""
    evals, hooks, kernel_s = METER.snapshot()
    ncd_before = metric.n_calls
    first = len(recorder.spans)
    recorder.op = i
    METER.timed = True
    recorder.install()
    try:
        with tracer, recorder.span("op"):
            result = fn()
    finally:
        recorder.uninstall()
        METER.timed = False
    op = recorder.spans[first]
    latencies.append(op["end"] - op["start"])
    totals.ops += 1
    totals.ncd += metric.n_calls - ncd_before
    totals.evals += METER.evals - evals
    totals.hooks += METER.hooks - hooks
    totals.kernel_s += METER.seconds - kernel_s
    return result


def _overhead(plain: list[list[float]], traced: list[list[float]]) -> float:
    """Traced over untraced op time, per input medians, minus one."""
    pairs = [(statistics.median(t), statistics.median(p)) for p, t in zip(plain, traced) if p and t]
    return sum(t for t, _ in pairs) / sum(p for _, p in pairs) - 1.0


def _end_to_end(
    setup: list[float], throughput: float, p50_s: float, tail_s: float,
    ncd: int, evals: int, counted_objects: int,
) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "objs_per_s": throughput,
        "op_p50_ms": 1e3 * p50_s,
        "op_tail_ms": 1e3 * tail_s,
        "ncd_per_obj": ncd / counted_objects,
        "true_evals_per_obj": evals / counted_objects,
        "peak_rss_mb": peak_rss_kb() / 1024.0,
    }


def _check_conservation(tally: Tally, name: str, summary: dict[str, Any], totals: TraceTotals) -> None:
    tally.check(
        sum(summary["ncd_by_site"].values()) == summary["ncd_total"] == totals.ncd,
        f"{name}: ledger sites do not sum to the counted NCD",
    )


@dataclass
class _Reference:
    labels: np.ndarray
    ncd: int
    evals: int
    ari: float


def run_cluster(
    w: ClusterWorkload, seed: int, seconds: float, trace: bool, smoke: bool,
    recorder: SpanRecorder,
) -> RunResult:
    tally = Tally()
    setup: list[float] = []

    def set_up() -> list[tuple[list[Any], np.ndarray]]:
        t0 = time.perf_counter()
        made = w.make_inputs(seed, smoke)
        setup.append(time.perf_counter() - t0)
        return made

    # Set-up takes milliseconds here, so its repeats are spread over the
    # run, one per cycle: a burst of load from another process moves few.
    inputs = set_up()

    # A traced run takes its references from its first, untraced cycle.
    refs: list[_Reference | None] = [None] * len(inputs)
    for j, (objects, truth) in enumerate([] if trace else inputs):
        metric = w.metric(metered=True)
        evals = METER.evals
        result = w.cluster(objects, metric, smoke)
        refs[j] = _Reference(
            result.labels, metric.n_calls, METER.evals - evals,
            adjusted_rand_index(truth, result.labels),
        )

    plain: list[list[float]] = [[] for _ in inputs]
    traced: list[list[float]] = [[] for _ in inputs]
    tracer = Tracer()
    totals = TraceTotals()

    def step(i: int, j: int, traced_op: bool) -> None:
        objects, truth = inputs[j]
        if not trace and j == 0:
            set_up()
        try:
            if traced_op:
                metric = w.metric(metered=True)
                result = _traced(
                    recorder, tracer, totals, traced[j], i, metric,
                    lambda: w.cluster(objects, metric, smoke, tracer=tracer),
                )
            else:
                metric = w.metric(metered=False)
                t0 = time.perf_counter()
                result = w.cluster(objects, metric, smoke)
                plain[j].append(time.perf_counter() - t0)
        except Exception:
            tally.crash()
            return
        ref = refs[j]
        if ref is None:
            refs[j] = _Reference(
                result.labels, metric.n_calls, 0, adjusted_rand_index(truth, result.labels)
            )
            return
        tally.check(
            np.array_equal(result.labels, ref.labels),
            f"{w.name}: labels of input {j} differ from its first run",
        )
        tally.check(metric.n_calls == ref.ncd, f"{w.name}: NCD {metric.n_calls} != {ref.ncd}")

    _window(seconds, len(inputs), trace, step)
    while not trace and len(setup) < SETUP_REPS:
        set_up()
    done = [r for r in refs if r is not None]
    ari = statistics.mean(r.ari for r in done)
    tally.check(
        len(done) == len(refs) and ari >= w.ari_floor,
        f"{w.name}: mean ARI {ari:.4f} below floor {w.ari_floor}",
    )
    sizes = [len(objects) for objects, _ in inputs]
    detail = {"ari": ari}
    if trace:
        summary = tracer.summary()
        _check_conservation(tally, w.name, summary, totals)
        metrics = layer_metrics(recorder, summary, totals, _overhead(plain, traced))
        samples = {"ops": sum(map(len, plain)), "traced_ops": totals.ops}
        return RunResult(tally, metrics, samples, detail)
    # The op a user waits for is clustering the whole batch of inputs. Its
    # time sums each input's low median: with two repeats that is the
    # faster one, so a short burst of load from another process does not count.
    batch_s = sum(statistics.median_low(times) for times in plain)
    metrics = _end_to_end(
        setup, sum(sizes) / batch_s, batch_s, batch_s,
        sum(r.ncd for r in done), sum(r.evals for r in done), sum(sizes),
    )
    samples = {"setup": len(setup), "inputs": len(inputs), "ops": sum(map(len, plain))}
    return RunResult(tally, metrics, samples, detail)


# ----------------------------------------------------------------------
# vec-serve
# ----------------------------------------------------------------------
class ServeState:
    """One fitted tree, its index, and its op script, built from a seed."""

    def __init__(self, w: ServeWorkload, seed: int, tree: int, smoke: bool, metered: bool):
        n_fit = w.smoke_fit if smoke else w.n_fit
        n_ops = w.smoke_ops if smoke else w.n_ops
        rng = np.random.default_rng([seed, tree])
        n_inserts = n_ops // len(w.block) * w.block.count("insert")
        cells = make_cell_dataset(
            dim=20, n_clusters=50, n_points=n_fit + w.query_pool + n_inserts, seed=rng
        )
        points = list(cells.points)
        fit, queries = points[:n_fit], points[n_fit : n_fit + w.query_pool]
        inserts = points[n_fit + w.query_pool :]
        self.model = BUBBLE(
            MeteredEuclidean() if metered else EuclideanDistance(),
            threshold=0.0, max_nodes=None, seed=0,
        ).fit(fit)
        self.index = self.model.index()
        #: Separate, unmetered metric for the brute-force reference answers.
        self.reference = EuclideanDistance()
        self.k = w.k
        self.radius = self._radius(fit, queries[:20])
        self.script = self._script(w, rng, queries, inserts, n_ops)

    def _radius(self, fit: list[Any], probes: list[Any]) -> float:
        """Median distance to the 5th-nearest fitted object: a few answers each."""
        fifth = [np.partition(self.reference.one_to_many(q, fit), 4)[4] for q in probes]
        return float(np.median(fifth))

    @staticmethod
    def _script(
        w: ServeWorkload, rng: np.random.Generator,
        queries: list[Any], inserts: list[Any], n_ops: int,
    ) -> list[tuple[str, Any]]:
        kinds = [
            w.block[k] for _ in range(n_ops // len(w.block)) for k in rng.permutation(len(w.block))
        ]
        script: list[tuple[str, Any]] = []
        recent: list[Any] = []
        fresh = iter(queries * (n_ops // len(queries) + 1))
        new = iter(inserts)
        for kind, repeat, pick in zip(kinds, rng.random(len(kinds)), rng.random(len(kinds))):
            if kind == "insert":
                script.append((kind, next(new)))
            elif recent and repeat < w.repeat_share:
                script.append((kind, recent[int(pick * len(recent))]))
            else:
                query = next(fresh)
                recent = (recent + [query])[-w.recent :]
                script.append((kind, query))
        return script

    def run(self, kind: str, payload: Any) -> Any:
        if kind == "knn":
            return self.index.nearest(payload, k=self.k)
        if kind == "range":
            return self.index.within(payload, self.radius)
        self.model.partial_fit([payload])
        self.index = self.model.index()
        return None

    def check(self, tally: Tally, kind: str, payload: Any, result: Any, n_before: int) -> None:
        if kind == "insert":
            n_after = self.model.tree_.n_objects
            tally.check(n_after == n_before + 1, f"insert left {n_after} objects, not {n_before + 1}")
            return
        objects = list(self.index.objects)
        if kind == "knn":
            expected = brute_force_reference(self.reference, objects, payload, self.k)
        else:
            row = self.reference.one_to_many(payload, objects)
            expected = sorted((float(d), i) for i, d in enumerate(row) if d <= self.radius)
        got = [(n.distance, n.index) for n in result]
        tally.check(got == expected, f"{kind} answer differs from brute force")

    def timed(self, tally: Tally, i: int) -> float:
        """Run script op ``i``, check it, and return its seconds."""
        kind, payload = self.script[i]
        n_before = self.model.tree_.n_objects
        t0 = time.perf_counter()
        result = self.run(kind, payload)
        seconds = time.perf_counter() - t0
        self.check(tally, kind, payload, result, n_before)
        return seconds


def run_serve(
    w: ServeWorkload, seed: int, seconds: float, trace: bool, smoke: bool,
    recorder: SpanRecorder,
) -> RunResult:
    tally = Tally()
    trees = 2 if smoke else w.trees
    setup = []
    for _ in range(1 if trace else SERVE_SETUP_REPS):
        t0 = time.perf_counter()
        states = [ServeState(w, seed, j, smoke, metered=trace) for j in range(trees)]
        setup.append(time.perf_counter() - t0)

    if not trace:
        # The counts come from replaying each script's head on a metered twin.
        count_ops = min(w.count_ops, w.smoke_ops if smoke else w.n_ops)
        ncd = evals = 0
        for j in range(trees):
            twin = ServeState(w, seed, j, smoke, metered=True)
            ncd0, evals0 = twin.model.metric.n_calls, METER.evals
            for i in range(count_ops):
                try:
                    twin.timed(tally, i)
                except Exception:
                    tally.crash()
            ncd += twin.model.metric.n_calls - ncd0
            evals += METER.evals - evals0

    plain: list[list[float]] = [[] for _ in states]
    traced: list[list[float]] = [[] for _ in states]
    tracer = Tracer()
    totals = TraceTotals()

    def step(i: int, j: int, traced_op: bool) -> None:
        state = states[j]
        try:
            if not traced_op:
                plain[j].append(state.timed(tally, i // trees))
                return
            kind, payload = state.script[i // trees]
            n_before = state.model.tree_.n_objects
            # partial_fit hands the model's tracer on to its tree.
            state.model.tracer = tracer
            try:
                result = _traced(
                    recorder, tracer, totals, traced[j], i, state.model.metric,
                    lambda: state.run(kind, payload),
                )
            finally:
                state.model.tracer = NULL_TRACER
            if result is not None:
                totals.add_query(kind, result)
            state.check(tally, kind, payload, result, n_before)
        except Exception:
            tally.crash()

    _window(seconds, trees, trace, step, limit=trees * len(states[0].script))
    if trace:
        summary = tracer.summary()
        _check_conservation(tally, w.name, summary, totals)
        metrics = layer_metrics(recorder, summary, totals, _overhead(plain, traced))
        return RunResult(tally, metrics, {"ops": sum(map(len, plain)), "traced_ops": totals.ops})
    ops = [t for per_tree in plain for t in per_tree]
    metrics = _end_to_end(
        setup, len(ops) / sum(ops), statistics.median(ops), _tail(ops),
        ncd, evals, trees * count_ops,
    )
    samples = {"setup": len(setup), "inputs": trees, "ops": len(ops), "count_ops": trees * count_ops}
    return RunResult(tally, metrics, samples)


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def layer_metrics(
    recorder: SpanRecorder, summary: dict[str, Any], totals: TraceTotals, overhead: float,
) -> dict[str, float]:
    """Per traced op unless the name says otherwise; shares are of op wall."""
    n = totals.ops
    wall = recorder.total(recorder.named("op"))
    sites: dict[str, int] = summary["ncd_by_site"]
    spans: dict[str, dict[str, float]] = summary["spans"]

    def site(name: str) -> int:
        return sites.get(name, 0)

    def lib_span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    core = recorder.outermost("core")
    core_s = recorder.total(core)
    layer_s = {
        layer: recorder.total(recorder.outermost(layer))
        for layer in ("clarans", "hac", "pipelines", "index")
    }
    adopt = recorder.named("index.adopt")
    queries = recorder.named("index.nearest") + recorder.named("index.within")
    query_s = recorder.total(queries)
    partial_fits = recorder.named("core.partial_fit")
    knn, rng = totals.queries["knn"], totals.queries["range"]
    return {
        "trace_overhead_frac": overhead,
        "trace.coverage_frac": _ratio(core_s + sum(layer_s.values()), wall),
        "metrics.kernel_s": totals.kernel_s / n,
        "metrics.kernel_share": _ratio(totals.kernel_s, wall),
        "metrics.true_evals": totals.evals / n,
        "metrics.uncounted_evals": (totals.evals - totals.ncd) / n,
        "metrics.hook_calls": totals.hooks / n,
        "metrics.pairs_per_hook": _ratio(totals.evals, totals.hooks),
        "core.fit_s": core_s / n,
        "core.self_s": (core_s - recorder.total(core, "kernel_s")) / n,
        "core.ncd": recorder.total(core, "ncd") / n,
        **{f"core.ncd.{name}": site(name) / n for name in CORE_SITES},
        "core.rebuilds": lib_span("rebuild", "count") / n,
        "core.rebuild_share": _ratio(lib_span("rebuild", "seconds"), wall),
        "core.partial_fit_ms": 1e3 * _ratio(recorder.total(partial_fits), len(partial_fits)),
        "fastmap.ncd": sum(site(name) for name in FASTMAP_SITES) / n,
        "fastmap.refit_share": _ratio(lib_span("fastmap-refit", "seconds"), wall),
        "clarans.global_share": _ratio(layer_s["clarans"], wall),
        "clarans.ncd": sum(site(name) for name in CLARANS_SITES) / n,
        "hac.fit_share": _ratio(layer_s["hac"], wall),
        "hac.ncd": recorder.total(recorder.outermost("hac"), "ncd") / n,
        "pipelines.label_share": _ratio(layer_s["pipelines"], wall),
        "pipelines.label_ncd": site("redistribute") / n,
        "index.adopt_share": _ratio(recorder.total(adopt), wall),
        "index.adopt_ncd": _ratio(site("query-build"), len(adopt)),
        "index.knn_ncd": _ratio(knn["calls"], knn["n"]),
        "index.range_ncd": _ratio(rng["calls"], rng["n"]),
        "index.pruned_frac": _ratio(
            knn["pruned"] + rng["pruned"], knn["candidates"] + rng["candidates"]
        ),
        "index.cache_hit_frac": _ratio(
            knn["hits"] + rng["hits"], knn["evaluated"] + rng["evaluated"]
        ),
        "index.query_share": _ratio(query_s, wall),
        "index.query_self_share": _ratio(query_s - recorder.total(queries, "kernel_s"), wall),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, trace_dir: Path
) -> RunResult:
    """Run one workload; a traced run also writes ``trace-<name>.jsonl``."""
    w = WORKLOADS[name]
    recorder = SpanRecorder()
    if isinstance(w, ServeWorkload):
        result = run_serve(w, seed, seconds, trace, smoke, recorder)
    else:
        result = run_cluster(w, seed, seconds, trace, smoke, recorder)
    if trace:
        recorder.dump(trace_dir / f"trace-{name}.jsonl")
    return result
