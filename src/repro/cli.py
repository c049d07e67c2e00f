"""Command-line interface: ``python -m repro <command>``.

The workflow commands:

* ``generate`` — write a synthetic workload (ds1 / ds2 / cell / strings) to
  a file, with ground-truth labels alongside;
* ``cluster`` — single-scan pre-clustering of a vector CSV or a string file,
  optional hierarchical global phase, labels written one per line;
* ``authority`` — build an authority file from records (Section 7), writing
  ``canonical<TAB>member`` lines;
* ``evaluate`` — score predicted labels against ground truth.

And the analysis commands (see ``docs/analysis.md``):

* ``lint`` — run **reprolint**, the project-specific static analyzer;
* ``audit`` — load a scan checkpoint and run the CF*-tree invariant
  sanitizer over it;
* ``stats`` — load a scan checkpoint and print its
  :class:`~repro.observability.StatsSnapshot` (tree shape, threshold,
  M-pressure);
* ``query`` — load a scan checkpoint and answer exact ``--k`` nearest /
  ``--radius`` range queries over its sub-cluster clustroids through a
  :class:`~repro.index.MetricIndex` backend (default ``cftree``, which
  reuses the checkpointed tree's cached geometry).

``cluster`` and ``authority`` accept ``--trace PATH`` to stream a JSONL
phase trace (see ``docs/observability.md``) and print an end-of-run
NCD-by-site summary.

The CLI is a thin veneer over the library; every option maps 1:1 onto an
API parameter documented there.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import __version__
from repro.datasets import (
    make_authority_dataset,
    make_cell_dataset,
    make_ds1,
    make_ds2,
    stream_strings,
    stream_vectors,
    write_string_file,
    write_vector_file,
)
from repro.index import available_backends
from repro.metrics import (
    DamerauLevenshteinDistance,
    EditDistance,
    EuclideanDistance,
    ManhattanDistance,
)
from repro.pipelines import build_authority_file, cluster_dataset

__all__ = ["main"]

_VECTOR_METRICS = {
    "euclidean": EuclideanDistance,
    "manhattan": ManhattanDistance,
}
_STRING_METRICS = {
    "edit": EditDistance,
    "damerau": DamerauLevenshteinDistance,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BUBBLE/BUBBLE-FM: clustering large datasets in arbitrary metric spaces",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic workload to a file")
    gen.add_argument("dataset", choices=["ds1", "ds2", "cell", "strings"])
    gen.add_argument("output", help="output file (CSV for vectors, lines for strings)")
    gen.add_argument("--labels", help="also write ground-truth labels here")
    gen.add_argument("--n-points", type=int, default=10_000)
    gen.add_argument("--n-clusters", type=int, default=50)
    gen.add_argument("--dim", type=int, default=20, help="dimensionality (cell only)")
    gen.add_argument("--seed", type=int, default=0)

    clu = sub.add_parser("cluster", help="cluster a vector CSV or string file")
    clu.add_argument("input", help="input file")
    clu.add_argument("--type", choices=["vectors", "strings"], required=True)
    clu.add_argument("--metric", default=None,
                     help="euclidean|manhattan (vectors), edit|damerau (strings)")
    clu.add_argument("--algorithm", choices=["bubble", "bubble-fm"], default="bubble")
    clu.add_argument("--n-clusters", type=int, default=None,
                     help="run the hierarchical global phase down to K clusters")
    clu.add_argument(
        "--global-phase", choices=["hac", "clarans", "clara"], default="hac",
        help="global phase over the sub-cluster clustroids: hac (paper "
             "default), clarans (exact medoid search), or clara (sampled "
             "parallel medoid search; see docs/performance.md)",
    )
    clu.add_argument(
        "--global-samples", type=int, default=5, metavar="N",
        help="subsamples searched by the clara global phase (default 5)",
    )
    clu.add_argument(
        "--global-sample-size", type=int, default=None, metavar="N",
        help="clustroids per clara subsample (default 40 + 2K)",
    )
    clu.add_argument("--max-nodes", type=int, default=None)
    clu.add_argument("--threshold", type=float, default=0.0)
    clu.add_argument("--image-dim", type=int, default=3)
    clu.add_argument("--output", help="write one label per input line here")
    clu.add_argument("--seed", type=int, default=0)
    clu.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parallel sharded build: scan in N worker processes and merge "
             "the shard trees deterministically (see docs/performance.md)",
    )
    clu.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream a JSONL phase trace here and print an NCD-by-site summary",
    )
    fault = clu.add_argument_group("fault tolerance")
    fault.add_argument(
        "--on-error", choices=["raise", "quarantine"], default="raise",
        help="quarantine objects whose insertion fails instead of aborting",
    )
    fault.add_argument(
        "--quarantine-limit", type=int, default=None, metavar="N",
        help="abort once more than N objects are quarantined",
    )
    fault.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry transient metric failures up to N times (guarded metric)",
    )
    fault.add_argument(
        "--max-distance-calls", type=int, default=None, metavar="N",
        help="hard NCD budget; the scan stops cleanly when exhausted",
    )
    fault.add_argument(
        "--deadline-seconds", type=float, default=None, metavar="S",
        help="wall-clock budget for all distance calls",
    )
    fault.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a resumable tree snapshot here during the scan "
             "(with --jobs > 1: a directory of per-shard checkpoints)",
    )
    fault.add_argument(
        "--checkpoint-every", type=int, default=1000, metavar="N",
        help="snapshot period in objects (default 1000)",
    )
    fault.add_argument(
        "--resume-from", default=None, metavar="PATH",
        help="resume an interrupted scan from this checkpoint "
             "(sharded runs resume from the checkpoint directory, "
             "with the same shard count)",
    )
    fault.add_argument(
        "--shard-retries", type=int, default=2, metavar="N",
        help="retry a crashed/hung/aborted shard up to N times before "
             "falling back to an in-process run (default 2; sharded builds)",
    )
    fault.add_argument(
        "--shard-timeout", type=float, default=None, metavar="S",
        help="kill and retry any shard worker running longer than S seconds",
    )
    fault.add_argument(
        "--shard-backoff", type=float, default=0.25, metavar="S",
        help="base delay between shard retries, doubled per attempt "
             "(default 0.25)",
    )

    auth = sub.add_parser("authority", help="build an authority file from records")
    auth.add_argument("input", help="one record per line")
    auth.add_argument("output", help="canonical<TAB>member lines")
    auth.add_argument("--threshold", type=float, default=2.0)
    auth.add_argument("--image-dim", type=int, default=3)
    auth.add_argument("--assignment", choices=["tree", "linear"], default="tree")
    auth.add_argument("--seed", type=int, default=0)
    auth.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream a JSONL phase trace here and print an NCD-by-site summary",
    )

    ev = sub.add_parser(
        "evaluate", help="score predicted labels against ground truth"
    )
    ev.add_argument("predicted", help="one integer label per line")
    ev.add_argument("truth", help="one integer label per line")

    # The real argument surface lives in repro.analysis.lint.main; main()
    # forwards before this parser runs. Registered here so `repro --help`
    # lists it.
    sub.add_parser("lint", help="run reprolint, the project static analyzer")

    aud = sub.add_parser(
        "audit", help="audit the CF*-tree invariants of a scan checkpoint"
    )
    aud.add_argument("checkpoint", help="checkpoint file written during a scan")
    aud.add_argument("--type", choices=["vectors", "strings"], required=True)
    aud.add_argument("--metric", default=None,
                     help="euclidean|manhattan (vectors), edit|damerau (strings)")
    aud.add_argument(
        "--no-recompute", action="store_true",
        help="skip the from-scratch RowSum recomputation of exact clusters",
    )
    aud.add_argument(
        "--show-warnings", action="store_true",
        help="also print warning-severity findings (drift diagnostics)",
    )

    qr = sub.add_parser(
        "query",
        help="answer nearest/range queries over a scan checkpoint's "
             "sub-cluster clustroids",
    )
    qr.add_argument(
        "checkpoint", help="checkpoint file written during a scan"
    )
    qr.add_argument("--type", choices=["vectors", "strings"], required=True)
    qr.add_argument("--metric", default=None,
                    help="euclidean|manhattan (vectors), edit|damerau (strings)")
    qr.add_argument(
        "--backend", choices=available_backends(),
        default="cftree",
        help="index engine (default cftree: reuses the checkpointed tree's "
             "cached geometry)",
    )
    qr.add_argument(
        "--k", type=int, default=None, metavar="K",
        help="k-nearest-neighbour query (default k=1 when --radius is absent)",
    )
    qr.add_argument(
        "--radius", type=float, default=None, metavar="R",
        help="range query: everything within distance R (inclusive)",
    )
    qr.add_argument(
        "--query", action="append", default=None, metavar="Q",
        help="inline query object: comma-separated floats (vectors) or a "
             "string; repeatable",
    )
    qr.add_argument(
        "--query-file", default=None, metavar="PATH",
        help="file of query objects (CSV rows for vectors, one string per line)",
    )
    qr.add_argument("--seed", type=int, default=0,
                    help="seed for the vptree backend's vantage points")
    qr.add_argument(
        "--json", action="store_true",
        help="emit neighbours and query statistics as one JSON object",
    )

    st = sub.add_parser(
        "stats", help="print tree/NCD statistics of a scan checkpoint"
    )
    st.add_argument(
        "checkpoint",
        help="checkpoint file written during a scan, or a sharded "
             "checkpoint directory from a parallel build",
    )
    st.add_argument("--type", choices=["vectors", "strings"], required=True)
    st.add_argument("--metric", default=None,
                    help="euclidean|manhattan (vectors), edit|damerau (strings)")
    st.add_argument(
        "--json", action="store_true",
        help="emit the snapshot as one JSON object instead of a table",
    )
    return parser


def _make_tracer(trace_path: str | None):
    """A JSONL-streaming tracer for ``--trace PATH``, or the no-op default."""
    from repro.observability import NULL_TRACER, JsonlSink, Tracer

    if trace_path is None:
        return NULL_TRACER
    return Tracer(sinks=[JsonlSink(trace_path)])


def _finish_trace(tracer, trace_path: str | None) -> None:
    """Flush the trace file and print the NCD-by-site summary table."""
    from repro.observability import format_summary

    if not tracer.enabled:
        return
    summary = tracer.summary()
    tracer.close()
    print("--- trace summary ---")
    print(format_summary(summary))
    print(f"trace written to {trace_path}")


def _make_metric(kind: str, name: str | None):
    """Construct the metric a CLI command asked for, or None + stderr note."""
    if kind == "vectors":
        label = "vector"
        metric_name = name or "euclidean"
        registry = _VECTOR_METRICS
    else:
        label = "string"
        metric_name = name or "edit"
        registry = _STRING_METRICS
    if metric_name not in registry:
        print(f"error: unknown {label} metric {metric_name!r}", file=sys.stderr)
        return None
    return registry[metric_name]()


def _cmd_generate(args) -> int:
    if args.dataset == "strings":
        ds = make_authority_dataset(
            n_classes=args.n_clusters, n_strings=args.n_points, seed=args.seed
        )
        write_string_file(args.output, ds.strings)
        labels = ds.labels
    else:
        if args.dataset == "ds1":
            ds = make_ds1(n_points=args.n_points, seed=args.seed)
        elif args.dataset == "ds2":
            ds = make_ds2(n_points=args.n_points, n_clusters=args.n_clusters, seed=args.seed)
        else:
            ds = make_cell_dataset(
                dim=args.dim, n_clusters=args.n_clusters,
                n_points=args.n_points, seed=args.seed,
            )
        write_vector_file(args.output, ds.as_objects())
        labels = ds.labels
    if args.labels:
        with open(args.labels, "w", encoding="ascii") as f:
            for lab in labels:
                f.write(f"{int(lab)}\n")
    print(f"wrote {args.n_points} objects to {args.output}")
    return 0


def _cmd_cluster(args) -> int:
    metric = _make_metric(args.type, args.metric)
    if metric is None:
        return 2
    if args.type == "vectors":
        objects = list(stream_vectors(args.input))
    else:
        objects = list(stream_strings(args.input))
    if not objects:
        print("error: input file holds no objects", file=sys.stderr)
        return 2

    if args.retries or args.max_distance_calls or args.deadline_seconds:
        from repro.robustness import GuardedMetric

        metric = GuardedMetric(
            metric,
            on_fault="retry" if args.retries else "raise",
            max_retries=args.retries,
            max_calls=args.max_distance_calls,
            deadline_seconds=args.deadline_seconds,
            seed=args.seed,
        )

    from repro.exceptions import (
        CheckpointError,
        DeadlineExceededError,
        MetricBudgetExceededError,
        ParameterError,
        QuarantineOverflowError,
    )

    n_clusters = args.n_clusters if args.n_clusters is not None else 0
    tracer = _make_tracer(args.trace)
    try:
        result = cluster_dataset(
            objects,
            metric,
            n_clusters=n_clusters if n_clusters > 0 else max(1, len(objects)),
            algorithm=args.algorithm,
            max_nodes=args.max_nodes,
            image_dim=args.image_dim,
            global_phase=args.global_phase,
            global_samples=args.global_samples,
            global_sample_size=args.global_sample_size,
            assign=True,
            seed=args.seed,
            on_error=args.on_error,
            max_quarantine=args.quarantine_limit,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume_from,
            tracer=tracer,
            n_jobs=args.jobs,
            max_shard_retries=args.shard_retries,
            shard_timeout_seconds=args.shard_timeout,
            shard_retry_backoff=args.shard_backoff,
        )
    except (MetricBudgetExceededError, DeadlineExceededError, QuarantineOverflowError) as exc:
        tracer.close()
        print(f"error: scan aborted: {exc}", file=sys.stderr)
        if args.checkpoint:
            print(f"resume with --resume-from {args.checkpoint}", file=sys.stderr)
        return 3
    except (CheckpointError, ParameterError) as exc:
        tracer.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        tracer.close()
        print(f"error: cannot read checkpoint: {exc}", file=sys.stderr)
        return 2
    labels = result.labels
    print(f"{len(objects)} objects -> {len(result.subclusters)} sub-clusters"
          f" -> {result.n_clusters} clusters")
    print(f"distance calls: {result.n_distance_calls}, "
          f"time: {result.total_seconds:.2f}s")
    report = result.ingest_report
    if report is not None and (
        report.n_quarantined
        or report.n_metric_faults
        or report.n_checkpoints
        or report.resumed_at is not None
        or report.shards_retried
        or report.workers_crashed
        or report.shards_resumed
        or report.global_samples
    ):
        print("--- ingest report ---")
        print(report.format())
        quarantine = result.model.quarantine_
        if quarantine:
            counts = ", ".join(
                f"{name}: {n}" for name, n in sorted(quarantine.counts_by_error().items())
            )
            print(f"quarantine by error: {counts}")
    _finish_trace(tracer, args.trace)
    if args.output:
        with open(args.output, "w", encoding="ascii") as f:
            for lab in labels:
                f.write(f"{int(lab)}\n")
        print(f"labels written to {args.output}")
    return 0


def _cmd_authority(args) -> int:
    records = list(stream_strings(args.input))
    if not records:
        print("error: input file holds no records", file=sys.stderr)
        return 2
    tracer = _make_tracer(args.trace)
    try:
        af = build_authority_file(
            records,
            threshold=args.threshold,
            image_dim=args.image_dim,
            assignment=args.assignment,
            seed=args.seed,
            tracer=tracer,
        )
    except Exception:
        tracer.close()
        raise
    with open(args.output, "w", encoding="utf-8") as f:
        for canonical, members in zip(af.canonical, af.members):
            for member in members:
                f.write(f"{canonical}\t{member}\n")
    print(f"{len(records)} records -> {af.n_classes} classes "
          f"({af.n_distance_calls} distance calls, {af.seconds:.2f}s)")
    _finish_trace(tracer, args.trace)
    print(f"authority file written to {args.output}")
    return 0


def _read_labels(path: str) -> np.ndarray:
    with open(path, "r", encoding="ascii") as f:
        return np.asarray([int(line) for line in f if line.strip()], dtype=np.intp)


def _cmd_evaluate(args) -> int:
    from repro.evaluation import (
        adjusted_rand_index,
        hungarian_accuracy,
        misplaced_count,
        rand_index,
    )

    predicted = _read_labels(args.predicted)
    truth = _read_labels(args.truth)
    if predicted.shape != truth.shape:
        print(
            f"error: {len(predicted)} predictions vs {len(truth)} truth labels",
            file=sys.stderr,
        )
        return 2
    print(f"objects:             {len(predicted)}")
    print(f"predicted clusters:  {len(set(predicted.tolist()))}")
    print(f"true classes:        {len(set(truth.tolist()))}")
    print(f"adjusted Rand index: {adjusted_rand_index(truth, predicted):.4f}")
    print(f"Rand index:          {rand_index(truth, predicted):.4f}")
    print(f"misplaced objects:   {misplaced_count(truth, predicted)}")
    print(f"Hungarian accuracy:  {hungarian_accuracy(truth, predicted):.4f}")
    return 0


def _cmd_audit(args) -> int:
    from repro.analysis import audit_tree
    from repro.core.cftree import CFTree
    from repro.exceptions import CheckpointError
    from repro.persistence import load_checkpoint

    metric = _make_metric(args.type, args.metric)
    if metric is None:
        return 2
    try:
        ck = load_checkpoint(args.checkpoint, metric=metric)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: cannot read checkpoint: {exc}", file=sys.stderr)
        return 2
    if not isinstance(ck.tree, CFTree):
        print("error: checkpoint does not hold a CF*-tree", file=sys.stderr)
        return 2
    report = audit_tree(
        ck.tree,
        recompute_exact=not args.no_recompute,
        raise_on_error=False,
    )
    algorithm = ck.metadata.get("algorithm", "?")
    print(
        f"checkpoint: {algorithm} at cursor {ck.cursor}; "
        f"{ck.tree.n_nodes} nodes, {ck.tree.n_clusters} clusters, "
        f"T={ck.tree.threshold:.6g}, rebuilds={ck.tree.n_rebuilds}"
    )
    print(
        f"audit: {report.n_nodes} nodes and {report.n_features} leaf features "
        f"checked; {len(report.errors)} error(s), {len(report.warnings)} warning(s)"
    )
    for issue in report.errors:
        print(issue.format())
    if args.show_warnings:
        for issue in report.warnings:
            print(issue.format())
    return 0 if report.ok else 1


def _load_snapshot(path: str, metric):
    """(snapshot, algorithm, cursor) of one sequential checkpoint file."""
    from repro.core.cftree import CFTree
    from repro.exceptions import CheckpointError
    from repro.observability import StatsSnapshot
    from repro.persistence import load_checkpoint

    ck = load_checkpoint(path, metric=metric)
    if not isinstance(ck.tree, CFTree):
        raise CheckpointError("checkpoint does not hold a CF*-tree")
    snapshot = StatsSnapshot.from_tree(ck.tree, metric=metric)
    # The freshly attached metric has counted nothing; the scan's NCD lives
    # in the checkpointed ingest report.
    report = ck.state.get("report") or {}
    snapshot.ncd_total = int(report.get("n_distance_calls", snapshot.ncd_total))
    snapshot.apply_report(report)
    return snapshot, ck.metadata.get("algorithm", "?"), ck.cursor


def _cmd_stats_sharded(args, metric) -> int:
    """``repro stats`` on a sharded checkpoint directory: manifest summary
    plus one row (or JSON record) per shard checkpoint present so far."""
    import json as _json
    import os

    from repro.exceptions import CheckpointError
    from repro.persistence import load_shard_manifest, shard_checkpoint_file

    try:
        manifest = load_shard_manifest(args.checkpoint)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_shards = int(manifest["n_shards"])
    shards = []
    for shard_id in range(n_shards):
        path = shard_checkpoint_file(args.checkpoint, shard_id)
        if not os.path.exists(path):
            shards.append((shard_id, None, None))
            continue
        try:
            snapshot, _, cursor = _load_snapshot(path, metric)
        except CheckpointError as exc:
            print(f"error: shard {shard_id}: {exc}", file=sys.stderr)
            return 2
        shards.append((shard_id, snapshot, cursor))
    if args.json:
        doc = {
            "sharded": True,
            "algorithm": manifest.get("algorithm", "?"),
            "n_shards": n_shards,
            "seed": manifest.get("seed"),
            "checkpoint_every": manifest.get("checkpoint_every"),
            "shards": [
                {"shard": shard_id, "cursor": cursor, **snapshot.to_dict()}
                if snapshot is not None
                else {"shard": shard_id, "cursor": None}
                for shard_id, snapshot, cursor in shards
            ],
        }
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0
    present = sum(1 for _, snapshot, _ in shards if snapshot is not None)
    print(
        f"sharded checkpoint: {manifest.get('algorithm', '?')}, "
        f"{present}/{n_shards} shard checkpoint(s) present"
    )
    for shard_id, snapshot, cursor in shards:
        if snapshot is None:
            print(f"shard {shard_id}: no checkpoint yet")
            continue
        print(
            f"shard {shard_id}: cursor {cursor}, {snapshot.n_objects} objects, "
            f"{snapshot.n_clusters} sub-clusters, T={snapshot.threshold:.6g}, "
            f"{snapshot.ncd_total} distance calls"
        )
    return 0


def _parse_queries(args) -> list | None:
    """Query objects from ``--query``/``--query-file``, or None + stderr note."""
    queries: list = []
    if args.query:
        for raw in args.query:
            if args.type == "vectors":
                try:
                    queries.append(
                        np.asarray(
                            [float(x) for x in raw.replace(",", " ").split()],
                            dtype=np.float64,
                        )
                    )
                except ValueError:
                    print(f"error: cannot parse vector query {raw!r}", file=sys.stderr)
                    return None
            else:
                queries.append(raw)
    if args.query_file:
        if args.type == "vectors":
            queries.extend(stream_vectors(args.query_file))
        else:
            queries.extend(stream_strings(args.query_file))
    if not queries:
        print("error: no queries given (use --query and/or --query-file)",
              file=sys.stderr)
        return None
    return queries


def _cmd_query(args) -> int:
    import json as _json

    from repro.exceptions import CheckpointError, ParameterError
    from repro.index import make_index
    from repro.observability import StatsSnapshot, Tracer
    from repro.persistence import is_sharded_checkpoint, load_checkpoint

    metric = _make_metric(args.type, args.metric)
    if metric is None:
        return 2
    if args.k is not None and args.radius is not None:
        print("error: --k and --radius are mutually exclusive", file=sys.stderr)
        return 2
    if is_sharded_checkpoint(args.checkpoint):
        print(
            "error: query serves sequential checkpoints; merge the sharded "
            "scan first (resume it to completion)",
            file=sys.stderr,
        )
        return 2
    queries = _parse_queries(args)
    if queries is None:
        return 2
    try:
        ck = load_checkpoint(args.checkpoint, metric=metric)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: cannot read checkpoint: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer()
    with tracer.activation():
        try:
            if args.backend == "cftree":
                index = ck.index(metric=metric)
            else:
                kwargs = {"seed": args.seed} if args.backend == "vptree" else {}
                index = make_index(args.backend, metric, **kwargs)
                index.build(
                    [f.clustroid for f in ck.tree.leaf_features()]
                )
        except (CheckpointError, ParameterError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results = []
        for q in queries:
            if args.radius is not None:
                results.append(index.within(q, args.radius))
            else:
                results.append(index.nearest(q, args.k if args.k else 1))

    snapshot = StatsSnapshot.from_tree(ck.tree, metric=metric, tracer=tracer)
    snapshot.apply_index(index)
    if args.json:
        doc = {
            "backend": index.backend,
            "n_indexed": len(index),
            "results": [r.as_dict() for r in results],
        }
        doc.update(snapshot.to_dict())
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(
        f"{args.backend} index over {len(index)} clustroids "
        f"(build NCD {index.stats.build_calls})"
    )
    for q, result in zip(queries, results):
        label = repr(q) if args.type == "strings" else f"vector[{len(q)}]"
        print(
            f"query {label}: {len(result)} neighbour(s), "
            f"{result.n_calls} distance call(s), {result.n_pruned} pruned"
        )
        for n in result:
            shown = repr(n.obj) if args.type == "strings" else f"#{n.index}"
            print(f"  {shown}  index={n.index}  distance={n.distance:.6g}")
    print(snapshot.format())
    return 0


def _cmd_stats(args) -> int:
    import json as _json

    from repro.exceptions import CheckpointError
    from repro.persistence import is_sharded_checkpoint

    metric = _make_metric(args.type, args.metric)
    if metric is None:
        return 2
    if is_sharded_checkpoint(args.checkpoint):
        return _cmd_stats_sharded(args, metric)
    try:
        snapshot, algorithm, cursor = _load_snapshot(args.checkpoint, metric)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: cannot read checkpoint: {exc}", file=sys.stderr)
        return 2
    if args.json:
        doc = {"algorithm": algorithm, "cursor": cursor}
        doc.update(snapshot.to_dict())
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"checkpoint: {algorithm} at cursor {cursor}")
        print(snapshot.format())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arg_list = list(sys.argv[1:] if argv is None else argv)
    if arg_list and arg_list[0] == "lint":
        # reprolint owns its argument surface (shared with
        # `python -m repro.analysis`); forward everything after the verb.
        from repro.analysis.lint import main as lint_main

        return lint_main(arg_list[1:])
    args = _build_parser().parse_args(arg_list)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "query":
        return _cmd_query(args)
    return _cmd_authority(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
