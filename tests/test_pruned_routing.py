"""Equivalence and accounting tests for the pruned routing engine.

The engine's contract (:mod:`repro.core.routing`) is *exactness*: with
pruning on, every routing decision — and therefore the whole tree — is
bit-identical to the exhaustive scan, only NCD changes. These tests pin
that contract across random workloads (hypothesis), both policies, vector
and string metrics, with and without a node budget (so Type II rebuild
re-insertion is covered too), plus the PruningStats counter invariants.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BUBBLE
from repro.core import routing
from repro.core.bubble import BubblePolicy, _SampleCache
from repro.core.bubble_fm import BubbleFMPolicy
from repro.core.cftree import CFTree
from repro.core.routing import (
    TIE_RTOL,
    LeafGeometry,
    PruningStats,
    SampleGeometry,
    best_first_leaf_scan,
    ensure_leaf_geometry,
    ensure_sample_geometry,
    geometry_donor,
    pruned_leaf_distances,
    pruned_segment_distances,
)
from repro.datasets.vector import make_cell_dataset
from repro.metrics import EditDistance, EuclideanDistance
from repro.metrics.base import site
from repro.persistence import load_checkpoint, save_checkpoint

point_lists = st.lists(
    st.tuples(
        st.floats(min_value=-1000, max_value=1000, allow_nan=False),
        st.floats(min_value=-1000, max_value=1000, allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)

word_lists = st.lists(
    st.text(alphabet="abcd ", min_size=0, max_size=8), min_size=2, max_size=60
)


#: Node budgets every equivalence case runs under: unbounded, and small
#: enough that the scan rebuilds (Type II re-insertion) repeatedly.
BUDGETS = (None, 6)


def build(objs, policy_cls=BubblePolicy, metric_factory=EuclideanDistance,
          prune=True, max_nodes=None, **policy_kw):
    metric = metric_factory()
    policy = policy_cls(
        metric, representation_number=4, sample_size=8, seed=0, prune=prune,
        **policy_kw,
    )
    tree = CFTree(
        policy, branching_factor=4, max_nodes=max_nodes, threshold=0.5, seed=0
    )
    for obj in objs:
        tree.insert(obj)
    return tree, policy, metric


def tree_signature(tree):
    """Structure + leaf clustroids, byte-exact — equal iff trees identical."""
    sig = []

    def walk(node):
        if node.is_leaf:
            sig.append(
                tuple(repr(np.asarray(f.clustroid).tolist()) for f in node.entries)
            )
        else:
            sig.append(len(node.entries))
            for entry in node.entries:
                walk(entry.child)

    walk(tree.root)
    return sig


class TestPrunedEquivalence:
    @given(points=point_lists)
    @settings(max_examples=40, deadline=None)
    def test_bubble_tree_identical_to_exhaustive(self, points):
        objs = [np.asarray(p, dtype=float) for p in points]
        for max_nodes in BUDGETS:
            exhaustive, _, m_off = build(objs, prune=False, max_nodes=max_nodes)
            pruned, _, m_on = build(objs, prune=True, max_nodes=max_nodes)
            assert tree_signature(exhaustive) == tree_signature(pruned)
            assert m_on.n_calls <= m_off.n_calls

    @given(points=point_lists)
    @settings(max_examples=25, deadline=None)
    def test_bubble_fm_tree_identical_to_exhaustive(self, points):
        objs = [np.asarray(p, dtype=float) for p in points]
        for max_nodes in BUDGETS:
            exhaustive, _, m_off = build(
                objs, BubbleFMPolicy, prune=False, max_nodes=max_nodes, image_dim=2
            )
            pruned, _, m_on = build(
                objs, BubbleFMPolicy, prune=True, max_nodes=max_nodes, image_dim=2
            )
            assert tree_signature(exhaustive) == tree_signature(pruned)
            assert m_on.n_calls <= m_off.n_calls

    @given(words=word_lists)
    @settings(max_examples=25, deadline=None)
    def test_string_metric_tree_identical(self, words):
        def sig(tree):
            out = []

            def walk(node):
                if node.is_leaf:
                    out.append(tuple(f.clustroid for f in node.entries))
                else:
                    out.append(len(node.entries))
                    for entry in node.entries:
                        walk(entry.child)

            walk(tree.root)
            return out

        for max_nodes in BUDGETS:
            exhaustive, _, m_off = build(
                words, metric_factory=EditDistance, prune=False, max_nodes=max_nodes
            )
            pruned, _, m_on = build(
                words, metric_factory=EditDistance, prune=True, max_nodes=max_nodes
            )
            assert sig(exhaustive) == sig(pruned)
            assert m_on.n_calls <= m_off.n_calls

    def test_assignments_identical_on_clustered_data(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(0, 100, size=(8, 5))
        objs = [
            centers[i % 8] + rng.normal(0, 0.5, size=5) for i in range(400)
        ]
        for max_nodes in BUDGETS:
            exhaustive, p_off, m_off = build(objs, prune=False, max_nodes=max_nodes)
            pruned, p_on, m_on = build(objs, prune=True, max_nodes=max_nodes)
            assert tree_signature(exhaustive) == tree_signature(pruned)
            assert pruned.n_rebuilds == exhaustive.n_rebuilds
            assert (pruned.n_rebuilds > 0) == (max_nodes is not None)
            # The pruned scan must show a real saving on clustered data.
            assert m_on.n_calls < m_off.n_calls
            assert p_on.pruning_stats.candidates_pruned > 0


class TestFeatureBatch:
    def test_empty_feature_batch_is_noop(self):
        tree, _, metric = build([np.zeros(2)], prune=True)
        before = metric.n_calls
        tree.insert_feature_batch([])
        assert metric.n_calls == before
        assert tree.n_objects == 1


class TestBestFirstLeafScan:
    """The one leaf walk routing and the cf-tree index share."""

    # Clustroids at 0, 1 and 3 on a line; the query sits on clustroid 0.
    PAIR = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])

    def _scan(self, limit):
        measured = []

        def measure(i):
            measured.append(i)
            return float(self.PAIR[0, i])

        return best_first_leaf_scan(self.PAIR, [0], [0.0], measure, lambda: limit), measured

    def test_a_bound_equal_to_the_limit_is_measured(self):
        # Bounds open as [1, 3]: 1 is not past the limit, 3 is.
        assert self._scan(1.0) == ((1, 3), [1])

    def test_stops_at_the_first_bound_past_the_limit(self):
        assert self._scan(np.nextafter(1.0, 0.0)) == ((0, 2), [])

    def test_measures_everything_under_an_infinite_limit(self):
        assert self._scan(np.inf) == ((2, 3), [1, 2])

    def test_a_lone_candidate_opens_nothing(self):
        assert best_first_leaf_scan(np.zeros((1, 1)), [0], [0.0], None, None) == (0, 0)

    def test_seeds_tighten_the_bounds_together(self):
        # Seeds 0 and 2 bound candidate 1 by max(|1 - 0|, |2 - 3|) = 1.
        measured = []

        def measure(i):
            measured.append(i)
            return float(self.PAIR[0, i])

        seeds, values = np.array([0, 2]), np.array([0.0, 3.0])
        assert best_first_leaf_scan(self.PAIR, seeds, values, measure, lambda: 1.0) == (1, 1)
        assert best_first_leaf_scan(
            self.PAIR, seeds, values, measure, lambda: np.nextafter(1.0, 0.0)
        ) == (0, 1)
        assert measured == [1]


class TestPruningStats:
    def test_counter_invariants(self):
        rng = np.random.default_rng(9)
        objs = [rng.uniform(0, 50, size=4) for _ in range(300)]
        _, policy, _ = build(objs, prune=True)
        stats = policy.pruning_stats
        assert stats.queries > 0
        assert (
            stats.candidates_evaluated + stats.candidates_pruned
            == stats.candidates_total
        )
        assert stats.candidates_pruned >= 0
        assert stats.maintenance_evals >= 0
        assert stats.geometry_builds > 0

    def test_as_dict_round_trip(self):
        stats = PruningStats(queries=3, candidates_total=10,
                             candidates_evaluated=7, candidates_pruned=3)
        d = stats.as_dict()
        assert d["queries"] == 3
        assert d["candidates_pruned"] == 3

    def test_prune_off_leaves_stats_empty(self):
        rng = np.random.default_rng(2)
        objs = [rng.uniform(0, 50, size=2) for _ in range(150)]
        _, policy, _ = build(objs, prune=False)
        assert policy.pruning_stats.queries == 0
        assert policy.pruning_stats.maintenance_evals == 0

    def test_snapshot_surfaces_pruning(self):
        from repro.observability.stats import StatsSnapshot

        rng = np.random.default_rng(6)
        objs = [rng.uniform(0, 50, size=2) for _ in range(200)]
        tree, policy, metric = build(objs, prune=True)
        snap = StatsSnapshot.from_tree(tree, metric=metric)
        assert snap.pruning is not None
        assert snap.pruning["queries"] == policy.pruning_stats.queries
        assert "pruned candidates" in snap.format()
        assert snap.to_dict()["pruning"] == snap.pruning


class TestConservationLaw:
    def test_site_attribution_sums_to_total_with_pruning(self):
        from repro.observability import Tracer

        rng = np.random.default_rng(12)
        objs = [rng.uniform(0, 100, size=3) for _ in range(400)]
        metric = EuclideanDistance()
        tracer = Tracer()
        with tracer:
            policy = BubblePolicy(
                metric, representation_number=4, sample_size=8, seed=0, prune=True
            )
            tree = CFTree(policy, branching_factor=4, threshold=0.5, seed=0)
            for obj in objs:
                tree.insert(obj)
        tracer.close()
        summary = tracer.summary()
        assert summary["ncd_total"] == metric.n_calls
        assert sum(summary["ncd_by_site"].values()) == summary["ncd_total"]


# ----------------------------------------------------------------------
# The vectorised walks against their scalar reference
# ----------------------------------------------------------------------
def scalar_leaf_distances(metric, node, obj, stats, segment=None):
    """Reference leaf walk: one Python-level bound mask per round, one
    re-stacked clustroid list per measurement, the engine's stop margin.
    The clustroids ``segment = (samples, distances)`` holds, matched by
    identity one at a time, are admitted before the walk; with none,
    clustroid 0 is measured first."""
    geom, clustroids = ensure_leaf_geometry(metric, node, stats)
    n = len(clustroids)
    pair = geom.pair
    with site("leaf-d0"):
        out = np.full(n, np.inf, dtype=np.float64)
        known = np.zeros(n, dtype=bool)
        lb = np.zeros(n, dtype=np.float64)

        def admit(i, value):
            out[i] = value
            known[i] = True
            np.maximum(lb, np.abs(pair[i] - value), out=lb)

        n_evaluated = 0
        for i, c in enumerate(clustroids):
            for sample, value in zip(*segment) if segment is not None else ():
                if sample is c:
                    admit(i, float(value))
                    n_evaluated += 1
                    break
        if not n_evaluated:
            admit(0, float(metric.one_to_many(obj, [clustroids[0]])[0]))
            n_evaluated = 1
        best = float(out[known].min())
        while not known.all():
            open_lb = np.where(known, np.inf, lb)
            i = int(np.argmin(open_lb))
            stats.bound_checks += int(n - known.sum())
            if open_lb[i] > best * (1.0 + TIE_RTOL):
                break
            admit(i, float(metric.one_to_many(obj, [clustroids[i]])[0]))
            n_evaluated += 1
            if out[i] < best:
                best = float(out[i])
        stats.queries += 1
        stats.candidates_total += n
        stats.candidates_evaluated += n_evaluated
        stats.candidates_pruned += n - n_evaluated
        return out


def scalar_segment_distances(metric, cache, n_entries, obj, stats):
    """Reference non-leaf walk: one ``np.mean`` per open entry per round,
    the engine's stop margin."""
    flat = cache.flat
    offsets = cache.offsets
    geom = ensure_sample_geometry(metric, cache, stats)
    pair = geom.pair
    n = len(flat)
    with site("nonleaf-d2"):
        d_full = np.full(n, np.nan, dtype=np.float64)
        known = np.zeros(n, dtype=bool)
        lb = np.zeros(n, dtype=np.float64)

        def admit(positions, values):
            d_full[positions] = values
            known[positions] = True
            np.maximum(
                lb, np.abs(pair[positions] - values[:, None]).max(axis=0), out=lb
            )

        pivots = [int(p) for p in geom.positions]
        admit(pivots, np.asarray(metric.one_to_many(obj, [flat[p] for p in pivots])))
        out = np.full(n_entries, np.inf, dtype=np.float64)
        open_entries = list(range(n_entries))
        best = np.inf
        n_evaluated = 0
        while open_entries:
            lb_sq = lb * lb
            entry_lb = [
                float(np.sqrt(lb_sq[offsets[i] : offsets[i + 1]].mean()))
                for i in open_entries
            ]
            stats.bound_checks += len(open_entries)
            pick = int(np.argmin(entry_lb))
            if entry_lb[pick] > best * (1.0 + TIE_RTOL):
                break
            i = open_entries.pop(pick)
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            unknown = [p for p in range(lo, hi) if not known[p]]
            if unknown:
                admit(unknown, metric.one_to_many(obj, [flat[p] for p in unknown]))
            seg = d_full[lo:hi]
            out[i] = float(np.sqrt((seg**2).mean()))
            n_evaluated += 1
            if out[i] < best:
                best = float(out[i])
        stats.queries += 1
        stats.candidates_total += n_entries
        stats.candidates_evaluated += n_evaluated
        stats.candidates_pruned += n_entries - n_evaluated
        return out


def sample_cache(metric, segments):
    flat = [np.asarray(p, dtype=float) for seg in segments for p in seg]
    offsets = np.cumsum([0] + [len(seg) for seg in segments]).astype(np.intp)
    return _SampleCache(flat, offsets, metric.prepare(flat))


def leaf_node(clustroids):
    entries = [SimpleNamespace(clustroid=np.asarray(c, dtype=float)) for c in clustroids]
    return SimpleNamespace(entries=entries, aux=None)


small_ints = st.integers(min_value=-3, max_value=3)
int_points = st.tuples(small_ints, small_ints)


class TestVectorisedWalkExactness:
    #: Six segments whose entries 1 and 4 tie exactly at D2 = sqrt(21):
    #: reducing the bounds in a different summation order from ``np.mean``
    #: prunes entry 1 and returns entry 4.
    TIE_POINTS = [
        [-2, -3], [0, 0], [2, -3], [2, -2], [0, -1], [-3, 0], [2, 1], [-3, -2],
        [1, 3], [-1, 2], [-3, -3], [1, -2], [3, 3], [-3, -3], [1, 3], [-3, -2],
        [-2, 0], [2, -1], [1, -3], [2, -3], [3, -2], [2, -2], [-2, 1], [-1, 1],
        [-1, 3], [-2, 1], [-1, -2], [-2, -3], [3, 0], [0, -1], [2, 2], [-3, 0],
        [0, 0], [-2, -2], [-3, -3], [3, -3], [0, -2], [-2, -2], [0, 2], [-3, 0],
        [2, 1], [0, -3], [3, -3], [-1, 2],
    ]
    TIE_SEGMENTS = (3, 6, 9, 7, 7, 12)

    def test_exact_tie_keeps_the_first_entry(self):
        bounds = np.cumsum((0,) + self.TIE_SEGMENTS)
        segments = [self.TIE_POINTS[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        metric = EuclideanDistance()
        stats = PruningStats()
        out, _ = pruned_segment_distances(
            metric, sample_cache(metric, segments), 6, np.array([-2.0, 3.0]), stats
        )
        assert out[1] == out[4] == np.sqrt(21.0)
        assert int(np.argmin(out)) == 1
        assert metric.n_calls == 36
        assert stats.bound_checks == 20
        assert stats.candidates_evaluated == 4

    @given(
        segments=st.lists(
            st.lists(int_points, min_size=1, max_size=14), min_size=2, max_size=8
        ),
        queries=st.lists(int_points, min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_segment_walk_matches_scalar_reference(self, segments, queries):
        runs = []
        def pruned_walk(*args):
            return pruned_segment_distances(*args)[0]

        for walk in (scalar_segment_distances, pruned_walk):
            metric, stats = EuclideanDistance(), PruningStats()
            cache = sample_cache(metric, segments)
            outs = [
                walk(metric, cache, len(segments), np.asarray(q, dtype=float), stats)
                for q in queries
            ]
            runs.append(([o.tobytes() for o in outs], metric.n_calls, stats.as_dict()))
        assert runs[0] == runs[1]

    @given(
        clustroids=st.lists(int_points, min_size=4, max_size=24),
        queries=st.lists(
            st.tuples(int_points, int_points, st.lists(st.booleans(), max_size=24)),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_leaf_walk_matches_scalar_reference(self, clustroids, queries):
        runs = []
        for walk in (scalar_leaf_distances, pruned_leaf_distances):
            metric, stats = EuclideanDistance(), PruningStats()
            node = leaf_node(clustroids)
            outs = []
            for k, (q, moved, seeded) in enumerate(queries):
                q = np.asarray(q, dtype=float)
                # A random seed set, measured the way a non-leaf walk
                # measures its chosen segment, plus a stale sample that is
                # no longer a clustroid and must match nothing.
                samples = [e.clustroid for e, s in zip(node.entries, seeded) if s]
                samples.append(np.asarray(moved, dtype=float))
                values = EuclideanDistance().one_to_many(q, samples)
                segment = (samples, values) if seeded else None
                outs.append(walk(metric, node, q, stats, segment).tobytes())
                # A clustroid drifts between queries: its geometry row and
                # its slot of the prepared batch go stale.
                node.entries[k % len(clustroids)].clustroid = np.asarray(moved, dtype=float)
            runs.append((outs, metric.n_calls, stats.as_dict()))
        assert runs[0] == runs[1]

    def test_fit_counters_pinned(self):
        cells = make_cell_dataset(dim=20, n_clusters=20, n_points=800, seed=3)
        model = BUBBLE(EuclideanDistance(), threshold=0.0, max_nodes=None, seed=0)
        model.fit(list(cells.points))
        assert model.metric.n_calls == 66_928
        stats = model.tree_.policy.pruning_stats.as_dict()
        assert stats == {
            "bound_checks": 37_712,
            "candidates_total": 19_525,
            "candidates_evaluated": 10_814,
            "candidates_pruned": 8_711,
            "maintenance_evals": 116_101,
            "geometry_builds": 89,
            "queries": 2_212,
        }


# ----------------------------------------------------------------------
# The descent hands the non-leaf walk's distances to the leaf walk
# ----------------------------------------------------------------------
def _two_level_tree(metric, objects, sample_size):
    """A height-2 BUBBLE tree over ``objects`` whose root samples were
    redrawn after the last insert, so they are current clustroids."""
    policy = BubblePolicy(
        metric, representation_number=4, sample_size=sample_size, seed=0
    )
    tree = CFTree(policy, branching_factor=6, threshold=0.0, seed=0)
    for obj in objects:
        tree.insert(obj)
    assert tree.height == 2
    policy.refresh_node(tree.root)
    for leaf in tree.leaves():
        ensure_leaf_geometry(metric, leaf, policy.pruning_stats)
    return tree, policy


def _descend(tree, policy, q):
    """The root walk for ``q``: the chosen leaf and the handed-on segment."""
    leaf = tree.root.entries[int(np.argmin(policy.nonleaf_distances(tree.root, q)))].child
    return leaf, policy._handoff


class TestDescentHandoff:
    #: Leaves of 3, 4, 5 and 6 clustroids: both leaf branches run.
    POINTS = np.random.default_rng(5).uniform(0, 100, size=(18, 2))

    def test_leaf_walk_pays_nothing_for_a_sampled_leaf(self, inner_euclidean):
        # Every clustroid is a sample: each leaf walk after the root walk
        # is free, in the pruned and in the small-leaf branch alike.
        metric = inner_euclidean()
        tree, policy = _two_level_tree(metric, list(self.POINTS), sample_size=100)
        sizes = set()
        for q in np.random.default_rng(6).uniform(0, 100, size=(20, 2)):
            leaf, _ = _descend(tree, policy, q)
            before = (metric.evals, metric.n_calls)
            out = policy.leaf_distances(leaf, q)
            assert (metric.evals, metric.n_calls) == before
            fresh = EuclideanDistance().one_to_many(q, [f.clustroid for f in leaf.entries])
            assert out.tobytes() == fresh.tobytes()
            sizes.add(len(leaf.entries) >= 4)
        assert sizes == {False, True}

    def test_leaf_walk_measures_only_unseeded_clustroids(self, inner_euclidean):
        metric = inner_euclidean()
        tree, policy = _two_level_tree(metric, list(self.POINTS), sample_size=8)
        stats = policy.pruning_stats
        seeded_total = 0
        for q in np.random.default_rng(7).uniform(0, 100, size=(20, 2)):
            leaf, (obj, samples, values) = _descend(tree, policy, q)
            assert obj is q
            clustroids = [f.clustroid for f in leaf.entries]
            seeded = sum(any(s is c for s in samples) for c in clustroids)
            evaluated = stats.candidates_evaluated
            before = (metric.evals, metric.n_calls)
            policy.leaf_distances(leaf, q)
            paid = metric.n_calls - before[1]
            assert metric.evals - before[0] == paid
            if len(clustroids) >= 4:
                assert paid == stats.candidates_evaluated - evaluated - seeded
            else:
                assert paid == len(clustroids) - seeded
            assert policy._handoff is None
            seeded_total += seeded
        assert seeded_total > 0

    def test_handoff_is_for_the_routed_object_only(self, inner_euclidean):
        metric = inner_euclidean()
        tree, policy = _two_level_tree(metric, list(self.POINTS), sample_size=100)
        q = np.array([50.0, 50.0])
        leaf, _ = _descend(tree, policy, q)
        other = q + 7.0
        before = metric.n_calls
        out = policy.leaf_distances(leaf, other)
        assert metric.n_calls > before
        assert policy._handoff is None
        fresh = EuclideanDistance().one_to_many(other, [f.clustroid for f in leaf.entries])
        measured = np.isfinite(out)
        assert out[measured].tobytes() == fresh[measured].tobytes()

    @pytest.mark.parametrize(
        "metric_factory, make_objects",
        [
            (EuclideanDistance, lambda rng: list(rng.normal(size=(18, 5)) * 10.0)),
            (
                EditDistance,
                lambda rng: ["".join(rng.choice(list("abcdef"), size=rng.integers(2, 10)))
                             for _ in range(18)],
            ),
        ],
        ids=["euclidean", "edit"],
    )
    def test_seeded_values_equal_fresh_one_row_measurements(
        self, metric_factory, make_objects
    ):
        rng = np.random.default_rng(8)
        metric = metric_factory()
        objects = make_objects(rng)
        tree, policy = _two_level_tree(metric, objects, sample_size=100)
        for q in make_objects(rng)[:10]:
            leaf, (_, samples, values) = _descend(tree, policy, q)
            geom = leaf.aux
            for sample, value in zip(samples, values):
                fresh = metric.one_to_many(q, metric.prepare([sample]))
                assert value.tobytes() == fresh[0].tobytes()
                i = next(i for i, c in enumerate(geom.clustroids) if c is sample)
                row = metric.one_to_many(q, geom.batch[i : i + 1])
                assert value.tobytes() == row[0].tobytes()
            policy.leaf_distances(leaf, q)

    def test_policy_pickles_without_handoff(self):
        import pickle

        tree, policy = _two_level_tree(EuclideanDistance(), list(self.POINTS), 100)
        _descend(tree, policy, np.array([1.0, 2.0]))
        assert policy._handoff is not None
        assert pickle.loads(pickle.dumps(policy))._handoff is None


# ----------------------------------------------------------------------
# Geometry upkeep measures each pair once
# ----------------------------------------------------------------------
#: Two tight groups of clustroids far apart: a query near the first group
#: prunes most of the second.
GROUPED = [[0, 0], [1, 0], [0, 1], [1, 1], [40, 40], [41, 40], [40, 41], [41, 41]]


class TestUpkeepMeasuresEachPairOnce:
    @pytest.mark.parametrize("placement", ["new entry", "absorb moves clustroid"])
    def test_placed_object_row_comes_from_its_walk(self, inner_euclidean, placement):
        metric, stats = inner_euclidean(), PruningStats()
        node = leaf_node(GROUPED)
        ensure_leaf_geometry(metric, node, stats)
        q = np.array([0.4, 0.3])
        out = pruned_leaf_distances(metric, node, q, stats)
        pruned = int(np.isinf(out).sum())
        assert pruned == stats.candidates_pruned > 0
        if placement == "new entry":
            node.entries.append(SimpleNamespace(clustroid=q))
        else:
            node.entries[int(np.argmin(out))].clustroid = q
        before = metric.evals
        geom, clustroids = ensure_leaf_geometry(metric, node, stats)
        assert metric.evals - before == pruned
        for i, obj in enumerate(clustroids):
            row = EuclideanDistance()._one_to_many(obj, clustroids)
            assert geom.pair[i].tobytes() == row.tobytes()

    @pytest.mark.parametrize("n_fresh", [0, 1, 5, 11, 12])
    def test_carried_build_measures_fresh_pairs_once(self, inner_euclidean, n_fresh):
        rng = np.random.default_rng(n_fresh)
        n = 12
        metric, stats = inner_euclidean(), PruningStats()
        old = sample_cache(metric, [list(rng.normal(size=(n, 3)))])
        ensure_sample_geometry(metric, old, stats)
        flat = old.flat[: n - n_fresh] + list(rng.normal(size=(n_fresh, 3)))
        order = rng.permutation(n)
        flat = [flat[i] for i in order]
        cache = _SampleCache(
            flat, np.array([0, 4, n], dtype=np.intp), metric.prepare(flat),
            geometry_donor(old),
        )
        before = metric.evals
        geom = ensure_sample_geometry(metric, cache, stats)
        f = n_fresh
        assert metric.evals - before == f * (n - f) + f * (f - 1) // 2
        for i, obj in enumerate(flat):
            row = EuclideanDistance()._one_to_many(obj, flat)
            assert geom.pair[i].tobytes() == row.tobytes()


# ----------------------------------------------------------------------
# Ties in real arithmetic
# ----------------------------------------------------------------------
def _mirrored(rng, q, v):
    """``v`` reflected through a random coordinate permutation and sign
    flip: an isometry about the origin, so ``|q + result - q| == |v|`` in
    real arithmetic but not always in floating point."""
    perm = rng.permutation(len(v))
    return q + rng.choice([-1.0, 1.0], size=len(v)) * v[perm]


class TestMirroredTies:
    """Pruned and exhaustive argmins agree where candidates tie in real
    arithmetic. Rounding then decides the exhaustive argmin, and a
    triangle bound may exceed a tied distance by a few ulps; the walks'
    relative stop margin keeps such a candidate measured. Each example
    runs a batch of seeded instances, since any one of them trips a
    margin-free walk only a few times in a hundred."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_leaf_walk_keeps_the_exhaustive_argmin(self, seed):
        rng = np.random.default_rng(seed)
        metric = EuclideanDistance()
        for _ in range(50):
            dim = int(rng.integers(1, 3))
            q = rng.uniform(-10, 10, size=dim)
            v = rng.uniform(-5, 5, size=dim)
            radius = float(np.linalg.norm(v))
            clustroids = [q + v, q - v]
            clustroids += [_mirrored(rng, q, v) for _ in range(int(rng.integers(0, 3)))]
            for _ in range(int(rng.integers(2, 5))):
                u = rng.normal(size=dim)
                clustroids.append(q + u * radius * rng.uniform(1.0, 3.0) / np.linalg.norm(u))
            clustroids = [clustroids[i] for i in rng.permutation(len(clustroids))]
            node = SimpleNamespace(
                entries=[SimpleNamespace(clustroid=c) for c in clustroids], aux=None
            )
            out = pruned_leaf_distances(metric, node, q, PruningStats())
            exhaustive = metric.one_to_many(q, clustroids)
            i = int(np.argmin(exhaustive))
            assert int(np.argmin(out)) == i
            assert out[i] == exhaustive[i]

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_segment_walk_keeps_the_exhaustive_argmin(self, seed):
        rng = np.random.default_rng(seed)
        metric = EuclideanDistance()
        for _ in range(50):
            dim = int(rng.integers(1, 3))
            q = rng.uniform(-10, 10, size=dim)
            base = rng.uniform(-5, 5, size=(int(rng.integers(1, 5)), dim))
            # Every entry's segment mirrors the first around the query.
            segments = [[q + v for v in base]]
            for _ in range(int(rng.integers(1, 4))):
                perm = rng.permutation(dim)
                signs = rng.choice([-1.0, 1.0], size=dim)
                segments.append([q + signs * v[perm] for v in base])
            cache = sample_cache(metric, segments)
            out, _ = pruned_segment_distances(
                metric, cache, len(segments), q, PruningStats()
            )
            sq = metric.one_to_many(q, cache.flat) ** 2
            offsets = cache.offsets
            exhaustive = np.array(
                [np.sqrt(sq[offsets[k] : offsets[k + 1]].mean())
                 for k in range(len(segments))]
            )
            i = int(np.argmin(exhaustive))
            assert int(np.argmin(out)) == i
            assert out[i] == exhaustive[i]


# ----------------------------------------------------------------------
# Geometry carried over between caches and across splits
# ----------------------------------------------------------------------
def _geometries(tree):
    """Every (objects, pair) the tree's routing geometry caches hold."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        aux = node.aux
        if node.is_leaf:
            if isinstance(aux, LeafGeometry):
                out.append((aux.clustroids, aux.pair))
            continue
        stack.extend(entry.child for entry in node.entries)
        if isinstance(aux.geometry, SampleGeometry):
            out.append((aux.flat, aux.geometry.pair))
        if aux.prior is not None:
            out.append(aux.prior)
    return out


class TestCarriedGeometry:
    @pytest.mark.parametrize(
        "metric_factory, make_objects",
        [
            (
                EuclideanDistance,
                lambda rng: [rng.normal(size=3) + 8.0 * rng.integers(0, 6)
                             for _ in range(500)],
            ),
            (
                EditDistance,
                lambda rng: ["".join(rng.choice(list("abcde"), size=rng.integers(3, 9)))
                             for _ in range(400)],
            ),
        ],
        ids=["euclidean", "edit"],
    )
    def test_cached_pairs_equal_fresh_rows_after_checkpoint(
        self, tmp_path, monkeypatch, metric_factory, make_objects
    ):
        donated = {"leaf": 0, "nonleaf": 0, "walk": 0}
        leaf_split = BubblePolicy.on_leaf_split
        node_split = BubblePolicy.on_node_split
        assemble = routing._assemble_pairs

        def spy_assemble(metric, objects, batch, base, walk, stats):
            # A leaf refresh whose walked object became a clustroid.
            donated["walk"] += walk is not None and any(o is walk[0] for o in objects)
            return assemble(metric, objects, batch, base, walk, stats)

        def spy_leaf(policy, old, left, right):
            donated["leaf"] += isinstance(old.aux, LeafGeometry)
            leaf_split(policy, old, left, right)

        def spy_node(policy, old, left, right):
            donated["nonleaf"] += policy._geometry_donor(old) is not None
            node_split(policy, old, left, right)

        monkeypatch.setattr(BubblePolicy, "on_leaf_split", spy_leaf)
        monkeypatch.setattr(BubblePolicy, "on_node_split", spy_node)
        monkeypatch.setattr(routing, "_assemble_pairs", spy_assemble)
        objs = make_objects(np.random.default_rng(5))
        tree, _, _ = build(objs, metric_factory=metric_factory, max_nodes=40)
        # The scan exercised every way geometry is handed on.
        assert tree.n_rebuilds > 0
        assert donated["leaf"] > 0 and donated["nonleaf"] > 0 and donated["walk"] > 0

        path = tmp_path / "tree.ckpt"
        save_checkpoint(path, tree)
        restored = load_checkpoint(path, metric_factory()).tree
        fresh = metric_factory()
        geometries = _geometries(restored)
        assert len(geometries) > 10
        for objects, pair in geometries:
            assert pair.shape == (len(objects), len(objects))
            for i, obj in enumerate(objects):
                row = np.asarray(fresh._one_to_many(obj, objects), dtype=np.float64)
                assert pair[i].tobytes() == row.tobytes()
