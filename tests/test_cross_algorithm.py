"""Cross-algorithm consistency: every clusterer in the library must agree on
an unambiguous dataset."""

import numpy as np
import pytest

from repro import BIRCH, BUBBLE, BUBBLEFM, CLARANS
from repro.evaluation import adjusted_rand_index
from repro.metrics import EuclideanDistance
from repro.pipelines import cluster_dataset, map_first_cluster


@pytest.fixture(scope="module")
def easy_blobs():
    rng = np.random.default_rng(123)
    centers = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]])
    points, labels = [], []
    for i, c in enumerate(centers):
        points.extend(list(c + 0.5 * rng.normal(size=(80, 2))))
        labels.extend([i] * 80)
    order = rng.permutation(len(points))
    return [points[i] for i in order], np.asarray(labels)[order]


class TestEveryAlgorithmAgrees:
    def test_bubble(self, easy_blobs):
        points, truth = easy_blobs
        res = cluster_dataset(points, EuclideanDistance(), 3, max_nodes=10, seed=0)
        assert adjusted_rand_index(truth, res.labels) == 1.0

    def test_bubble_fm(self, easy_blobs):
        points, truth = easy_blobs
        res = cluster_dataset(
            points, EuclideanDistance(), 3, algorithm="bubble-fm",
            image_dim=2, max_nodes=10, seed=0,
        )
        assert adjusted_rand_index(truth, res.labels) == 1.0

    def test_map_first(self, easy_blobs):
        points, truth = easy_blobs
        res = map_first_cluster(points, EuclideanDistance(), 3, image_dim=2,
                                max_nodes=10, seed=0)
        assert adjusted_rand_index(truth, res.labels) == 1.0

    def test_birch_subclusters_cover(self, easy_blobs):
        points, truth = easy_blobs
        model = BIRCH(max_nodes=10, seed=0).fit(points)
        labels = model.assign(points)
        # Sub-clusters are finer than truth; majority purity must be total.
        from repro.evaluation import misplaced_count

        assert misplaced_count(truth, labels) == 0

    def test_clarans(self, easy_blobs):
        points, truth = easy_blobs
        model = CLARANS(3, EuclideanDistance(), max_neighbors=60, seed=0).fit(points)
        assert adjusted_rand_index(truth, model.labels_) == 1.0


class TestNCDOrdering:
    def test_ncd_sanity_across_algorithms(self, easy_blobs):
        """On this easy workload the single-scan algorithms must use far
        fewer distance calls than CLARANS' randomized search."""
        points, _ = easy_blobs
        costs = {}
        for name, run in {
            "bubble": lambda m: BUBBLE(m, max_nodes=10, seed=0).fit(points),
            "bubble-fm": lambda m: BUBBLEFM(m, max_nodes=10, image_dim=2, seed=0).fit(points),
            "clarans": lambda m: CLARANS(3, m, max_neighbors=60, seed=0).fit(points),
        }.items():
            metric = EuclideanDistance()
            run(metric)
            costs[name] = metric.n_calls
        assert costs["bubble"] < costs["clarans"]
        assert costs["bubble-fm"] < costs["clarans"]
