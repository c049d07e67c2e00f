"""Regression gate for the unified metric-index query layer.

Re-runs the per-backend query benchmark (same workloads, seeds, and tree
parameters as the committed ``BENCH_query.json``) and asserts the layer's
contract:

* **exactness** — every backend (vp-tree, cf-tree) answers each
  k-NN and range query bit-identically to the brute scan, indices and
  distances both;
* **the headline perf claim** — the cf-tree backend serves k-NN queries
  over a built Figure-4 tree for at most half the brute-force NCD (the
  measured numbers sit near 90% saved; the gate is 50%);
* **cost ceiling** — no backend ever spends more counted calls per query
  than the linear scan it replaces (the per-query memo guarantees this
  structurally; the gate pins it empirically);
* **free repeats** — a repeated query is served entirely from the
  cross-query bound cache at zero NCD;
* **conservation** — the per-site call ledger still partitions the total
  exactly with ``query-build``/``query-knn``/``query-range`` traffic in
  the mix;
* **baseline** — per-query NCD stays within tolerance of the committed
  ``BENCH_query.json``, so pruning regressions fail CI instead of landing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.harness import QUERY_OUTPUT, run_query_benchmark

#: Relative tolerance vs the committed baseline's per-query NCD.
TOLERANCE = 0.02

#: The acceptance bar: fraction of the brute-scan cost the cf-tree backend
#: must save per k-NN query on the vector workloads.
MIN_SAVED = 0.5


@pytest.fixture(scope="module")
def query_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("query") / "BENCH_query.json"
    return run_query_benchmark(scale="smoke", output=out, verbose=False)


@pytest.fixture(scope="module")
def baseline_doc():
    if not QUERY_OUTPUT.exists():
        pytest.skip("no committed BENCH_query.json baseline")
    return json.loads(Path(QUERY_OUTPUT).read_text(encoding="utf-8"))


def _vector_records(doc):
    return [r for r in doc["records"] if r["kind"] == "vector"]


def test_all_backends_exactly_match_brute_force(query_doc):
    for record in query_doc["records"]:
        assert record["exact_equivalence"], (
            f"{record['workload']['name']}: some backend diverged from the "
            "brute-force answers"
        )


def test_cftree_saves_half_the_brute_cost_on_vector_workloads(query_doc):
    for record in _vector_records(query_doc):
        saved = record["backends"]["cftree"]["ncd_saved_knn"]
        assert saved >= MIN_SAVED, (
            f"{record['workload']['name']}: cf-tree k-NN saved only "
            f"{saved:.1%} of the brute scan (gate is {MIN_SAVED:.0%})"
        )


def test_no_backend_exceeds_brute_cost(query_doc):
    for record in query_doc["records"]:
        brute = record["backends"]["brute"]["knn_mean_ncd"]
        # Equality only on the vector cells: the string workload contains
        # duplicate records, so a duplicated query string is served from
        # the cross-query bound cache even by the brute backend.
        if record["kind"] == "vector":
            assert brute == record["n_indexed"], "brute scan must measure everything"
        assert brute <= record["n_indexed"]
        for name, backend in record["backends"].items():
            assert backend["knn_mean_ncd"] <= brute, (
                f"{record['workload']['name']}/{name} spent more than brute"
            )


def test_repeated_queries_are_free(query_doc):
    for record in query_doc["records"]:
        for name, backend in record["backends"].items():
            assert backend["repeat_query_calls"] == 0, (
                f"{record['workload']['name']}/{name}: a repeated query "
                f"cost {backend['repeat_query_calls']} calls"
            )


def test_ledger_conservation_with_query_traffic(query_doc):
    for record in query_doc["records"]:
        for name, backend in record["backends"].items():
            assert backend["conservation"], (
                f"{record['workload']['name']}/{name}: per-site ledger does "
                "not partition the total"
            )
            assert "query-knn" in backend["ncd_by_site"]
        # Index construction is charged to its own site on the tree backends.
        assert "query-build" in record["backends"]["vptree"]["ncd_by_site"]
        assert "query-build" in record["backends"]["cftree"]["ncd_by_site"]


def test_cftree_build_rides_on_cached_geometry(query_doc):
    # Adopting an already-built tree must cost orders of magnitude less
    # than building a dedicated index: only the non-leaf anchor gathers.
    for record in query_doc["records"]:
        cf = record["backends"]["cftree"]["build_calls"]
        vp = record["backends"]["vptree"]["build_calls"]
        assert cf < vp / 10, (
            f"{record['workload']['name']}: cf-tree adoption cost {cf} vs "
            f"vp-tree build {vp}"
        )


def test_within_tolerance_of_committed_baseline(query_doc, baseline_doc):
    assert baseline_doc["format"] == query_doc["format"]
    assert baseline_doc["k"] == query_doc["k"]
    by_name = {r["workload"]["name"]: r for r in baseline_doc["records"]}
    for record in query_doc["records"]:
        want = by_name[record["workload"]["name"]]
        assert want["workload"] == record["workload"]
        for name in ("brute", "vptree", "cftree"):
            got = record["backends"][name]["knn_mean_ncd"]
            ref = want["backends"][name]["knn_mean_ncd"]
            assert got == pytest.approx(ref, rel=TOLERANCE), (
                f"{record['workload']['name']}/{name}: per-query NCD drifted "
                f"({got} vs committed {ref})"
            )
