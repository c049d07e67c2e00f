"""Golden regression tests: fixed tiny inputs with hand-verified outputs.

These protect the exact semantics of the paper's definitions against
behavioural drift during refactoring. Every expected value below was
derived by hand from the definitions in Section 4.
"""

import numpy as np
import pytest

from oracles import classical_mds
from repro import BUBBLE
from repro.core.features import BubbleClusterFeature
from repro.hac import AgglomerativeClusterer
from repro.metrics import EditDistance, EuclideanDistance, edit_distance


class TestDefinition41:
    """Clustroid = argmin RowSum (Definition 4.1)."""

    def test_line_of_three(self, euclidean):
        # Objects 0, 1, 5 on a line.
        # RowSum(0) = 1 + 25 = 26; RowSum(1) = 1 + 16 = 17; RowSum(5) = 41.
        f = BubbleClusterFeature(euclidean, np.array([0.0]))
        f.absorb(np.array([1.0]))
        f.absorb(np.array([5.0]))
        assert float(np.asarray(f.clustroid)[0]) == 1.0
        assert sorted(f.rowsums) == [17.0, 26.0, 41.0]

    def test_radius_definition_43(self, euclidean):
        # radius = sqrt(RowSum(clustroid) / n) = sqrt(17 / 3).
        f = BubbleClusterFeature(euclidean, np.array([0.0]))
        f.absorb(np.array([1.0]))
        f.absorb(np.array([5.0]))
        assert f.radius == pytest.approx(np.sqrt(17.0 / 3.0))


class TestDefinition44:
    """D0 and D2 (Definition 4.4)."""

    def test_d0(self, euclidean):
        fa = BubbleClusterFeature(euclidean, np.array([0.0, 0.0]))
        fb = BubbleClusterFeature(euclidean, np.array([6.0, 8.0]))
        assert fa.distance_to(fb) == 10.0

    def test_d2(self, euclidean):
        from repro.core.features import average_inter_cluster_distance

        a = [np.array([0.0]), np.array([2.0])]
        b = [np.array([4.0])]
        # d^2: (0-4)^2=16, (2-4)^2=4 -> sqrt(20/2) = sqrt(10).
        assert average_inter_cluster_distance(euclidean, a, b) == pytest.approx(
            np.sqrt(10.0)
        )


class TestPaperExamples:
    def test_lemma41_triangle_embedding(self):
        """The paper's example: distances (3, 4, 5) -> (0,0), (3,0), (0,4)."""
        dm = np.array([[0.0, 3.0, 5.0], [3.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
        coords = classical_mds(dm, k=2)
        rebuilt = EuclideanDistance().pairwise(list(coords))
        np.testing.assert_allclose(rebuilt, dm, atol=1e-9)

    def test_edit_distance_examples(self):
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance("abc", "") == 3


class TestEndToEndGolden:
    def test_two_point_cluster_exact_state(self, euclidean):
        model = BUBBLE(euclidean, threshold=2.0, seed=0).fit(
            [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
        )
        [sub] = model.subclusters_
        assert sub.n == 2
        # RowSum of both members is 1; the first becomes the clustroid.
        assert sub.radius == pytest.approx(np.sqrt(1.0 / 2.0))

    def test_three_well_separated_singletons(self, euclidean):
        model = BUBBLE(euclidean, threshold=0.5, seed=0).fit(
            [np.array([0.0, 0.0]), np.array([10.0, 0.0]), np.array([0.0, 10.0])]
        )
        assert model.n_subclusters_ == 3
        assert all(s.n == 1 and s.radius == 0.0 for s in model.subclusters_)

    def test_hac_merge_order_on_line(self):
        # Points 0, 1, 10: first merge must be (0, 1) at distance 1.
        pts = [np.array([0.0]), np.array([1.0]), np.array([10.0])]
        model = AgglomerativeClusterer(n_clusters=1, linkage="single")
        model.fit(objects=pts, metric=EuclideanDistance())
        (a, b, d0), (_, _, d1) = model.merges_
        assert {a, b} == {0, 1}
        assert d0 == 1.0
        assert d1 == 9.0  # single linkage: min(10-1, 10-0)

    def test_string_cluster_canonical_recovery(self):
        strings = ["data", "date", "dat", "data", "data"]
        model = BUBBLE(EditDistance(), threshold=1.0, seed=0).fit(strings)
        assert model.n_subclusters_ == 1
        assert model.subclusters_[0].clustroid == "data"
