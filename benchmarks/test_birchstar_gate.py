"""Gate for the committed paper-experiment baseline ``BENCH_birchstar.json``.

Regenerates the traced Figure 4–6 + Table 1 runs at the committed file's
scale and holds each experiment's ``ncd_total`` within 2% of the
committed value. After an intentional change that moves them, re-record
the file with ``PYTHONPATH=src python benchmarks/harness.py --scale
smoke`` and say why in CHANGES.md.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.harness import DEFAULT_OUTPUT, run_harness

#: Relative tolerance vs the committed NCD totals.
TOLERANCE = 0.02


def test_ncd_within_tolerance_of_committed_baseline(tmp_path):
    committed = json.loads(DEFAULT_OUTPUT.read_text(encoding="utf-8"))
    fresh = run_harness(
        scale=committed["scale"], output=tmp_path / "BENCH_birchstar.json",
        verbose=False,
    )
    want = {e["experiment"]: e["ncd_total"] for e in committed["experiments"]}
    got = {e["experiment"]: e["ncd_total"] for e in fresh["experiments"]}
    assert got.keys() == want.keys()
    for name, total in got.items():
        assert total == pytest.approx(want[name], rel=TOLERANCE), (
            f"{name}: NCD drifted: {total} vs committed {want[name]}"
        )
