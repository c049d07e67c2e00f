"""Gate for the CLARA sampled global phase.

Each Figure 4–6 cell workload is scanned with a generous node budget, so
the scan leaves the several hundred leaf clustroids the sampled phase
targets (the paper's tiny budgets consolidate to ~k clustroids, where
every "subsample" is the whole set). Two legs run over byte-identical
trees: the exact CLARANS reference and CLARA. The gate asserts:

* **economy** — at equal ``k`` the sampled phase spends strictly fewer
  global-phase distance calls than the exact reference on every workload;
* **quality** — full-dataset distortion under the sampled medoids stays
  within 5% of the exact reference's (it may also beat it: five restarts
  over five subsamples escape local optima the single exact search falls
  into);
* **conservation** — the per-site ledger partitions each leg's total NCD
  exactly, and ``global-sample`` is exactly the sum of the per-sample NCD;
* **baseline** — global-phase NCD stays within 2% of the pinned values.

The pinned constants are the baseline. After an intentional change that
moves them, update them and say why in CHANGES.md.
"""

from __future__ import annotations

import pytest

from benchmarks.workloads import TREE_PARAMS, cell_workloads
from repro.core.preclusterer import BUBBLE
from repro.evaluation.metrics import distortion
from repro.metrics import EuclideanDistance
from repro.metrics.base import site
from repro.observability import Tracer
from repro.pipelines.labeling import nearest_assignment

#: Relative tolerance vs the pinned global-phase NCD.
TOLERANCE = 0.02

#: Allowed relative excess of CLARA's distortion over exact CLARANS's.
DISTORTION_TOLERANCE = 0.05

#: Subsamples per CLARA leg (the classic recommendation).
CLARA_SAMPLES = 5

#: Node budget per workload, tuned to leave several hundred clustroids.
MAX_NODES = {"fig4_cells": 100, "fig5_cells": 110, "fig6_cells": 100}

#: workload -> (exact global NCD, sampled global NCD).
PINNED = {
    "fig4_cells": (11_697_664, 4_803_970),
    "fig5_cells": (13_391_736, 4_654_410),
    "fig6_cells": (3_627_809, 906_425),
}

#: Tracer sites charged by each kind of global phase.
GLOBAL_SITES = {"clarans": ("global-phase",), "clara": ("global-sample", "global-assign")}


def _leg(workload, ds, method):
    """One traced scan + global phase + labeling (every leg owns a
    byte-identical tree)."""
    objects = list(ds.points)
    metric = EuclideanDistance()
    tracer = Tracer()
    with tracer:
        model = BUBBLE(
            metric, max_nodes=MAX_NODES[workload.name], seed=0,
            **TREE_PARAMS,
        ).fit(objects)
        search = model.global_phase(
            workload.n_clusters, method=method, global_samples=CLARA_SAMPLES, seed=0
        )
        with site("redistribute"):
            labels = nearest_assignment(metric, objects, search.medoids_)
    tracer.close()
    summary = tracer.summary()
    return {
        "ncd_total": summary["ncd_total"],
        "ncd_by_site": summary["ncd_by_site"],
        "ncd_global": sum(
            summary["ncd_by_site"].get(s, 0) for s in GLOBAL_SITES[method]
        ),
        "samples": model.global_phase_samples_,
        "distortion": distortion(ds.points, labels),
    }


@pytest.fixture(scope="module")
def legs():
    """workload name -> {"exact", "clara"} leg records."""
    out = {}
    for workload in cell_workloads("smoke"):
        ds = workload.dataset()
        out[workload.name] = {
            "exact": _leg(workload, ds, "clarans"),
            "clara": _leg(workload, ds, "clara"),
        }
    assert out.keys() == PINNED.keys()
    return out


def test_sampled_ncd_below_exact(legs):
    for name, leg in legs.items():
        sampled, exact = leg["clara"]["ncd_global"], leg["exact"]["ncd_global"]
        assert sampled < exact, (
            f"{name}: sampled global phase spent {sampled} calls vs exact "
            f"{exact} — sampling must be cheaper at equal k"
        )


def test_distortion_within_tolerance_of_exact(legs):
    for name, leg in legs.items():
        ratio = leg["clara"]["distortion"] / leg["exact"]["distortion"]
        assert ratio <= 1.0 + DISTORTION_TOLERANCE, (
            f"{name}: CLARA distortion is {ratio:.3f}x the exact reference "
            f"(bar: {1.0 + DISTORTION_TOLERANCE:.2f}x)"
        )


def test_conservation_law_holds_per_leg(legs):
    for name, leg in legs.items():
        for leg_name, record in leg.items():
            assert sum(record["ncd_by_site"].values()) == record["ncd_total"], (
                f"{name}/{leg_name}"
            )


def test_sample_accounting_sums_to_site(legs):
    # The global-sample site must be exactly the sum of the per-sample
    # NCD deltas — no sample search may spend calls off the ledger.
    for name, leg in legs.items():
        clara = leg["clara"]
        booked = clara["ncd_by_site"].get("global-sample", 0)
        assert booked == sum(s["n_calls"] for s in clara["samples"]), name


def test_global_ncd_within_tolerance_of_pins(legs):
    for name, leg in legs.items():
        for side, want in zip(("exact", "clara"), PINNED[name]):
            got = leg[side]["ncd_global"]
            assert got == pytest.approx(want, rel=TOLERANCE), (
                f"{name}: {side} global NCD drifted: {got} vs pinned {want}"
            )
