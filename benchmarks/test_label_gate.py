"""Gate for the second scan: the pruned labeling walk.

Each Figure 4–6 cell workload is scanned at smoke scale by BUBBLE at
default settings, and every object is then labeled against the tree's
clustroids with :func:`repro.pipelines.nearest_assignment`:

* the labels equal the exhaustive scan's (``tests/oracles.py``);
* the walk's counted NCD, center matrix included, is at most
  ``MAX_NCD_SHARE`` of the exhaustive ``N * K``;
* that NCD stays within 2% of its pinned value.

The pinned constants are the baseline. After an intentional change that
moves them, update them and say why in CHANGES.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.workloads import TREE_PARAMS, cell_workloads
from repro.core.preclusterer import BUBBLE
from repro.metrics import EuclideanDistance
from repro.pipelines import nearest_assignment
from tests.oracles import exhaustive_assignment

#: Relative tolerance vs the pinned NCD.
TOLERANCE = 0.02

#: The walk's NCD must stay at or below this share of ``N * K``.
MAX_NCD_SHARE = 0.25

#: workload -> (objects, clustroids, labeling NCD).
PINNED = {
    "fig4_cells": (1_500, 60, 6_035),
    "fig5_cells": (1_500, 63, 6_434),
    "fig6_cells": (1_500, 18, 3_954),
}


@pytest.fixture(scope="module")
def labelings():
    """workload -> (objects, clustroids, walk labels, walk NCD)."""
    out = {}
    for workload in cell_workloads("smoke"):
        objects = list(workload.dataset().points)
        model = BUBBLE(
            EuclideanDistance(), max_nodes=workload.max_nodes, seed=0, **TREE_PARAMS
        ).fit(objects)
        clustroids = model.clustroids_
        metric = EuclideanDistance()
        labels = nearest_assignment(metric, objects, clustroids)
        out[workload.name] = (objects, clustroids, labels, metric.n_calls)
    assert out.keys() == PINNED.keys()
    return out


def test_labels_equal_the_exhaustive_scan(labelings):
    for name, (objects, clustroids, labels, _) in labelings.items():
        want = exhaustive_assignment(EuclideanDistance(), objects, clustroids)
        np.testing.assert_array_equal(labels, want, err_msg=name)


def test_ncd_share_of_exhaustive(labelings):
    for name, (objects, clustroids, _, ncd) in labelings.items():
        exhaustive = len(objects) * len(clustroids)
        assert ncd <= MAX_NCD_SHARE * exhaustive, (
            f"{name}: labeling NCD {ncd} is over {MAX_NCD_SHARE:.0%} of {exhaustive}"
        )


def test_ncd_within_tolerance_of_pins(labelings):
    for name, (objects, clustroids, _, ncd) in labelings.items():
        n, k, want = PINNED[name]
        assert (len(objects), len(clustroids)) == (n, k), name
        assert ncd == pytest.approx(want, rel=TOLERANCE), (
            f"{name} labeling NCD drifted: {ncd} vs pinned {want}"
        )
