"""Gate for the BUBBLE / BUBBLE-FM scan: pruned routing and tree health.

Each Figure 4–6 cell workload is scanned at smoke scale by both
algorithms twice, with identical data, seeds and tree parameters: once at
default settings (pruned routing on) and once with ``prune=False``. The
default scan feeds both sets of checks.

Pruning:

* pruning never issues more distance calls than the exhaustive scan, in
  total and at every attributed site;
* the routing sites (``leaf-d0``, ``nonleaf-d2``) both save >= 25% on at
  least one workload;
* both scans end with the same number of sub-clusters (the equivalence
  tests pin full tree identity);
* the pruning counters add up.

Tree health:

* every default tree audits clean, with the pinned sub-cluster count.

Both: NCD totals stay within 2% of the pinned values, and the per-site
ledger partitions each scan's total exactly.

Geometry reuse: each default scan's uncounted geometry upkeep
(``PruningStats.maintenance_evals``) stays within 2% of its pinned value,
so a change that stops carrying measured pairs forward fails here.

The pinned constants are the baseline. After an intentional change that
moves them, update them and say why in CHANGES.md.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import pytest

from benchmarks.workloads import TREE_PARAMS, cell_workloads
from repro.analysis.audit import audit_tree
from repro.core.preclusterer import BUBBLE, BUBBLEFM
from repro.metrics import EuclideanDistance
from repro.observability import Tracer

#: Relative tolerance vs the pinned NCD totals.
TOLERANCE = 0.02

#: At least one workload must save this much at both routing sites.
MIN_SITE_REDUCTION = 0.25

#: (workload, algorithm) -> (exhaustive NCD, pruned NCD, sub-clusters).
PINNED = {
    ("fig4_cells", "bubble"): (109_210, 53_786, 60),
    ("fig4_cells", "bubble-fm"): (149_344, 134_963, 55),
    ("fig5_cells", "bubble"): (119_918, 60_199, 63),
    ("fig5_cells", "bubble-fm"): (148_462, 132_523, 60),
    ("fig6_cells", "bubble"): (60_810, 34_162, 18),
    ("fig6_cells", "bubble-fm"): (77_754, 57_532, 18),
}

#: (workload, algorithm) -> pruned scan's maintenance_evals.
PINNED_MAINTENANCE = {
    ("fig4_cells", "bubble"): 12_314,
    ("fig4_cells", "bubble-fm"): 4_977,
    ("fig5_cells", "bubble"): 12_785,
    ("fig5_cells", "bubble-fm"): 4_764,
    ("fig6_cells", "bubble"): 6_664,
    ("fig6_cells", "bubble-fm"): 2_801,
}

ALGORITHMS = {
    "bubble": (BUBBLE, {}),
    "bubble-fm": (BUBBLEFM, {"image_dim": 20}),
}


class Scan(NamedTuple):
    model: Any
    summary: dict


def _scan(algorithm, objects, max_nodes, prune):
    """One traced scan: the fitted model and its tracer summary."""
    cls, options = ALGORITHMS[algorithm]
    tracer = Tracer()
    with tracer:
        model = cls(
            EuclideanDistance(), max_nodes=max_nodes, seed=0,
            prune=prune, **options, **TREE_PARAMS,
        ).fit(objects)
    tracer.close()
    return Scan(model, tracer.summary())


@pytest.fixture(scope="module")
def scans():
    """(workload, algorithm) -> {"pruned": Scan, "exhaustive": Scan}."""
    out = {}
    for workload in cell_workloads("smoke"):
        objects = list(workload.dataset().points)
        for algorithm in ALGORITHMS:
            out[workload.name, algorithm] = {
                side: _scan(algorithm, objects, workload.max_nodes, prune)
                for side, prune in (("pruned", True), ("exhaustive", False))
            }
    assert out.keys() == PINNED.keys()
    return out


def _site_reduction(legs, site):
    before = legs["exhaustive"].summary["ncd_by_site"].get(site, 0)
    after = legs["pruned"].summary["ncd_by_site"].get(site, 0)
    return 1.0 - after / before if before else 0.0


def test_pruned_never_exceeds_exhaustive(scans):
    for key, legs in scans.items():
        exhaustive, pruned = legs["exhaustive"].summary, legs["pruned"].summary
        assert pruned["ncd_total"] <= exhaustive["ncd_total"], key
        for site, after in pruned["ncd_by_site"].items():
            before = exhaustive["ncd_by_site"].get(site, 0)
            assert after <= before, f"{key}: site {site} regressed"


def test_routing_sites_meet_reduction_bar(scans):
    meets = [
        key
        for key, legs in scans.items()
        if _site_reduction(legs, "leaf-d0") >= MIN_SITE_REDUCTION
        and _site_reduction(legs, "nonleaf-d2") >= MIN_SITE_REDUCTION
    ]
    assert meets, "no workload reaches 25% reduction at both routing sites"


def test_trees_unchanged_by_pruning(scans):
    for key, legs in scans.items():
        pruned, exhaustive = legs["pruned"].model, legs["exhaustive"].model
        assert pruned.n_subclusters_ == exhaustive.n_subclusters_, key


def test_pruning_counters_consistent(scans):
    for key, legs in scans.items():
        stats = legs["pruned"].model.tree_.policy.pruning_stats.as_dict()
        assert (
            stats["candidates_evaluated"] + stats["candidates_pruned"]
            == stats["candidates_total"]
        ), key
        assert stats["queries"] > 0, key


def test_conservation_law_holds(scans):
    for key, legs in scans.items():
        for side, (_, summary) in legs.items():
            assert sum(summary["ncd_by_site"].values()) == summary["ncd_total"], (
                key, side,
            )


def test_ncd_within_tolerance_of_pins(scans):
    for key, legs in scans.items():
        want_exhaustive, want_pruned, _ = PINNED[key]
        for side, want in (("exhaustive", want_exhaustive), ("pruned", want_pruned)):
            got = legs[side].summary["ncd_total"]
            assert got == pytest.approx(want, rel=TOLERANCE), (
                f"{key} {side} NCD drifted: {got} vs pinned {want}"
            )


def test_maintenance_within_tolerance_of_pins(scans):
    for key, legs in scans.items():
        got = legs["pruned"].model.tree_.policy.pruning_stats.maintenance_evals
        want = PINNED_MAINTENANCE[key]
        assert got == pytest.approx(want, rel=TOLERANCE), (
            f"{key} geometry upkeep drifted: {got} vs pinned {want}"
        )


def test_default_trees_audit_clean_with_pinned_size(scans):
    for key, legs in scans.items():
        model = legs["pruned"].model
        report = audit_tree(model.tree_, raise_on_error=False)
        assert report.errors == [], f"{key}: {report.format()}"
        assert model.n_subclusters_ == PINNED[key][2], key
