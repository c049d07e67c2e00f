"""Benchmark-regression harness: traced Fig 4/5/6 + Table 1 runs.

Runs the paper's scaling experiments (Figures 4–6) and the distortion
comparison (Table 1) through a fresh :class:`repro.observability.Tracer`
each, then writes ``BENCH_birchstar.json`` — one record per experiment with

* ``ncd_total`` and ``ncd_by_site`` — where the distance calls went
  (disjoint attribution; the sites sum to the total);
* ``spans`` — inclusive per-site count and NCD;
* ``wall_seconds`` — harness-measured wall time of the whole experiment
  (the document records ``cpu_count`` and ``usable_cpus`` beside it);
* ``quality`` — the experiment's own result table (columns + rows), i.e.
  the numbers the paper reports.

Committed alongside the code, the smoke-scale file is the regression
baseline: ``benchmarks/test_birchstar_gate.py`` regenerates it and holds
every experiment's ``ncd_total`` within 2% of the committed value, and a
change that silently doubles ``fastmap-refit`` calls or shifts cost
between sites shows up as a diff. Regenerate with::

    PYTHONPATH=src python benchmarks/harness.py --scale smoke

Scale ``smoke`` keeps the whole run under a minute; ``laptop``/``paper``
follow :mod:`repro.experiments.config`. Sites named in the output are
documented in ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.experiments.config import resolve_scale
from repro.experiments.figures import (
    run_fig4_time_vs_points,
    run_fig5_ncd_vs_points,
    run_fig6_time_vs_clusters,
)
from repro.experiments.table1 import run_table1
from repro.observability import Tracer, format_summary
from repro.utils import peak_rss_kb

__all__ = ["run_harness", "main"]

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_birchstar.json"

#: The experiments the harness drives: name -> callable(scale).
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
    # charge this tracer, so every site the library opens is booked and
    # timed here.
    with tracer:
        result = runner(scale=scale)
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
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "experiments": records,
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
    args = parser.parse_args(argv)
    run_harness(scale=args.scale, output=args.output, only=args.only)
    return 0


if __name__ == "__main__":
    sys.exit(main())
