"""NCD regression gate for the pruned routing engine.

Re-runs the exhaustive-vs-pruned comparison (same workloads, seeds, and
tree parameters as the committed ``BENCH_pruning.json``) and asserts the
engine's contract:

* pruning never issues more distance calls than the exhaustive scan —
  in total and at every attributed site;
* the routing sites (``leaf-d0``, ``nonleaf-d2``) show a real saving
  (>= 25% on at least one Figure 4-6 workload);
* the per-site ledger still satisfies the conservation law;
* totals stay within tolerance of the committed baseline, so a change
  that silently erodes the pruning rate fails CI instead of landing.

The comparison is deterministic for a fixed scale (fresh metrics, fixed
seeds), so the tolerance only absorbs cross-platform float ordering.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.harness import PRUNING_OUTPUT, run_pruning_benchmark

#: Relative tolerance vs the committed baseline's NCD totals.
TOLERANCE = 0.02

#: Acceptance bar: at least one workload must save this much at the
#: routing sites.
MIN_SITE_REDUCTION = 0.25


@pytest.fixture(scope="module")
def pruning_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("pruning") / "BENCH_pruning.json"
    return run_pruning_benchmark(scale="smoke", output=out, verbose=False)


@pytest.fixture(scope="module")
def baseline_doc():
    if not PRUNING_OUTPUT.exists():
        pytest.skip("no committed BENCH_pruning.json baseline")
    return json.loads(Path(PRUNING_OUTPUT).read_text(encoding="utf-8"))


def test_pruned_never_exceeds_exhaustive(pruning_doc):
    for record in pruning_doc["records"]:
        name = f"{record['workload']['name']}/{record['algorithm']}"
        exhaustive, pruned = record["exhaustive"], record["pruned"]
        assert pruned["ncd_total"] <= exhaustive["ncd_total"], name
        for site, after in pruned["ncd_by_site"].items():
            before = exhaustive["ncd_by_site"].get(site, 0)
            assert after <= before, f"{name}: site {site} regressed"


def test_routing_sites_meet_reduction_bar(pruning_doc):
    meets = [
        record
        for record in pruning_doc["records"]
        if record["ncd_reduction_by_site"].get("leaf-d0", 0.0) >= MIN_SITE_REDUCTION
        and record["ncd_reduction_by_site"].get("nonleaf-d2", 0.0)
        >= MIN_SITE_REDUCTION
    ]
    assert meets, "no workload reaches 25% reduction at both routing sites"


def test_trees_unchanged_by_pruning(pruning_doc):
    # Exactness witness at benchmark scale: same number of sub-clusters
    # out of both scans (the equivalence tests pin full tree identity).
    for record in pruning_doc["records"]:
        assert (
            record["pruned"]["n_subclusters"]
            == record["exhaustive"]["n_subclusters"]
        ), f"{record['workload']['name']}/{record['algorithm']}"


def test_conservation_law_still_pinned(pruning_doc):
    for record in pruning_doc["records"]:
        for scan in (record["exhaustive"], record["pruned"]):
            assert sum(scan["ncd_by_site"].values()) == scan["ncd_total"]


def test_within_tolerance_of_committed_baseline(pruning_doc, baseline_doc):
    assert baseline_doc["format"] == pruning_doc["format"]
    baseline = {
        (r["workload"]["name"], r["algorithm"]): r for r in baseline_doc["records"]
    }
    for record in pruning_doc["records"]:
        key = (record["workload"]["name"], record["algorithm"])
        assert key in baseline, f"workload {key} missing from committed baseline"
        for side in ("exhaustive", "pruned"):
            got = record[side]["ncd_total"]
            want = baseline[key][side]["ncd_total"]
            assert got == pytest.approx(want, rel=TOLERANCE), (
                f"{key} {side} NCD drifted: {got} vs baseline {want}"
            )


def test_pruning_counters_consistent(pruning_doc):
    for record in pruning_doc["records"]:
        stats = record["pruned"]["pruning"]
        assert (
            stats["candidates_evaluated"] + stats["candidates_pruned"]
            == stats["candidates_total"]
        )
        assert stats["queries"] > 0
