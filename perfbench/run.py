"""One benchmark for the whole system: wall time and true evaluations.

One run of one workload::

    python3 perfbench/run.py --workload vec-bubble --seed 0 --seconds 15 --trace 0

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` metric with
``--trace 1``. The line before it holds the sample counts. It exits 1 when
any output check failed.

Without ``--workload`` it runs every workload, each in a fresh process:
first the timed pass, then the traced pass. ``--runs N`` repeats that N
times, alternating the workload order, and reports each metric's median and
quartiles; ``--output`` receives the whole record as JSON. ``--smoke`` uses
tiny inputs. Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Keep every run single-threaded: one client, whatever the CPU count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-process limit of a single run, in seconds.
RUN_TIMEOUT_S = 170


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, OUT_DIR
    )
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result.metrics):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: missing "
            f"{sorted(set(units) - set(result.metrics))}, "
            f"extra {sorted(set(result.metrics) - set(units))}"
        )
    tally = result.tally
    print(json.dumps({"workload": args.workload, "samples": result.samples, **result.detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if tally.failed == 0 else 1


def _spawn(args: argparse.Namespace, workload: str, trace: int) -> dict[str, Any]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} (trace {trace}) exited {proc.returncode} without a result")
    record = json.loads(lines[-1])
    record["detail"] = json.loads(lines[-2])
    record["exit"] = proc.returncode
    return record


def _spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def run_all(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    import numpy

    names = [w["name"] for w in spec["workloads"]]
    passes = (("end_to_end", 0), ("per_layer", 1))
    records: dict[str, dict[str, list[dict[str, Any]]]] = {
        name: {section: [] for section, _ in passes} for name in names
    }
    for run in range(args.runs):
        order = names if run % 2 == 0 else names[::-1]
        for section, trace in passes:
            for name in order:
                print(f"[run {run + 1}/{args.runs}] {name} trace={trace}", file=sys.stderr, flush=True)
                records[name][section].append(_spawn(args, name, trace))

    ok = True
    report: dict[str, Any] = {}
    for name in names:
        report[name] = {}
        for section, _ in passes:
            runs = records[name][section]
            ok &= all(r["correct"] and r["exit"] == 0 for r in runs)
            summary: dict[str, Any] = {
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "runs": [r["detail"] for r in runs],
                "metrics": {},
            }
            for metric in spec[section]:
                emitted = [r["metrics"][metric["name"]] for r in runs]
                values = [e["value"] for e in emitted]
                summary["metrics"][metric["name"]] = {
                    "unit": emitted[0]["unit"],
                    **{k: metric[k] for k in ("better", "bound") if k in metric},
                    **_spread(values),
                    "values": values,
                }
            report[name][section] = summary

    print(f"{'workload':<13} {'metric':<26} {'unit':<11} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'bound':>6}")
    for name in names:
        for section, _ in passes:
            for metric, s in report[name][section]["metrics"].items():
                bound = f"{s['bound']:.2f}" if "bound" in s else "-"
                print(f"{name:<13} {metric:<26} {s['unit']:<11} {s['median']:>12.6g} "
                      f"{s['q1']:>12.6g} {s['q3']:>12.6g} {bound:>6}")
        e2e = report[name]["end_to_end"]
        print(f"{name:<13} {'error_rate':<26} {'failed/att':<11} "
              f"{e2e['failed'] / max(e2e['attempted'], 1):>12.6g}")

    doc = {
        "format": "perfbench-v1",
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "smoke": args.smoke,
        "context": {
            "cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workloads": report,
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}", file=sys.stderr)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0, help="seeds the data and the op mix")
    parser.add_argument("--seconds", type=float, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="full runs to alternate")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--output", default=str(OUT_DIR / "results.json"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(spec["run_seconds"])

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: the library source is not at {src}", file=sys.stderr)
        return 2
    # Before numpy is imported, so its thread pools start with one thread.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    if args.workload is not None:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
