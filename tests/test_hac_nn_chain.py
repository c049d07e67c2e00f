"""Equivalence and property tests for the nearest-neighbour-chain HAC.

The reference is :func:`oracles.generic_hac`, the O(n^3) repeated global
argmin loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import generic_hac
from repro.hac import AgglomerativeClusterer
from repro.metrics import EuclideanDistance


def partitions_equal(labels_a, labels_b) -> bool:
    """Same partition up to label renaming."""
    mapping = {}
    for a, b in zip(labels_a, labels_b):
        if a in mapping and mapping[a] != b:
            return False
        mapping[a] = b
    return len(set(mapping.values())) == len(mapping)


point_sets = st.lists(
    st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    min_size=2,
    max_size=25,
    unique=True,
)


class TestEquivalence:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "weighted"])
    def test_methods_agree_on_random_data(self, linkage, rng):
        pts = list(rng.normal(size=(30, 2)))
        dm = EuclideanDistance().pairwise(pts)
        for k in (1, 3, 7):
            generic = generic_hac(dm, n_clusters=k, linkage=linkage)
            chain = AgglomerativeClusterer(n_clusters=k, linkage=linkage).fit(
                distance_matrix=dm
            )
            assert partitions_equal(generic, chain.labels_), (linkage, k)

    @pytest.mark.parametrize("linkage", ["single", "average"])
    def test_methods_agree_with_threshold(self, linkage, rng):
        pts = list(rng.normal(size=(25, 2)))
        dm = EuclideanDistance().pairwise(pts)
        for t in (0.3, 1.0, 3.0):
            generic = generic_hac(dm, distance_threshold=t, linkage=linkage)
            chain = AgglomerativeClusterer(
                distance_threshold=t, linkage=linkage
            ).fit(distance_matrix=dm)
            assert int(generic.max()) + 1 == chain.n_clusters_
            assert partitions_equal(generic, chain.labels_)

    @given(pts=point_sets)
    @settings(max_examples=50, deadline=None)
    def test_property_agreement_average_linkage(self, pts):
        dm = EuclideanDistance().pairwise([np.asarray(p) for p in pts])
        k = max(1, len(pts) // 3)
        generic = generic_hac(dm, n_clusters=k)
        chain = AgglomerativeClusterer(n_clusters=k).fit(distance_matrix=dm)
        assert partitions_equal(generic, chain.labels_)


class TestNNChainDetails:
    def test_unknown_method_rejected(self):
        # The nearest-neighbour chain is the only merge path, so no method
        # keyword is accepted.
        with pytest.raises(TypeError):
            AgglomerativeClusterer(n_clusters=1, method="generic")

    def test_single_item(self):
        model = AgglomerativeClusterer(n_clusters=1).fit(distance_matrix=np.zeros((1, 1)))
        assert model.labels_.tolist() == [0]

    def test_merges_heights_valid(self, rng):
        pts = list(rng.normal(size=(20, 2)))
        dm = EuclideanDistance().pairwise(pts)
        model = AgglomerativeClusterer(n_clusters=1).fit(distance_matrix=dm)
        assert len(model.merges_) == 19
        heights = [d for _, _, d in model.merges_]
        assert heights == sorted(heights)  # applied in height order

    def test_weighted_sizes_respected(self, rng):
        pts = [np.array([0.0]), np.array([1.0]), np.array([5.0])]
        dm = EuclideanDistance().pairwise(pts)
        weights = [10.0, 1.0, 1.0]
        generic = generic_hac(dm, n_clusters=2, weights=weights)
        assert generic[0] == generic[1] != generic[2]
        model = AgglomerativeClusterer(n_clusters=2).fit(
            distance_matrix=dm, weights=weights
        )
        assert model.labels_[0] == model.labels_[1] != model.labels_[2]

    def test_faster_than_generic_at_scale(self, rng):
        import time

        pts = list(rng.normal(size=(300, 2)))
        dm = EuclideanDistance().pairwise(pts)
        start = time.perf_counter()
        generic_hac(dm, n_clusters=5)
        t_generic = time.perf_counter() - start
        start = time.perf_counter()
        AgglomerativeClusterer(n_clusters=5).fit(distance_matrix=dm)
        t_chain = time.perf_counter() - start
        # Not a strict benchmark; just ensure the chain path is not
        # pathologically slower while its asymptotics are better.
        assert t_chain < max(t_generic * 2, 1.0)
