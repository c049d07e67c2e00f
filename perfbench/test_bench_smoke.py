"""Smoke test of the benchmark: every workload on tiny inputs, both passes.

Run with ``python -m pytest perfbench/test_bench_smoke.py``; it takes well
under 30 s.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_spec_names_and_sizes() -> None:
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_smoke_run_emits_every_metric(tmp_path: Path) -> None:
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--output", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    for workload in SPEC["workloads"]:
        record = doc["workloads"][workload["name"]]
        for section in ("end_to_end", "per_layer"):
            summary = record[section]
            # The traced pass checks ledger conservation; any failed check,
            # raise or wrong answer counts here, so this is error_rate == 0.
            assert summary["attempted"] > 0
            assert summary["failed"] == 0
            for metric in SPEC[section]:
                emitted = summary["metrics"][metric["name"]]
                assert emitted["unit"] == metric["unit"]
                assert all(isinstance(v, (int, float)) for v in emitted["values"])
