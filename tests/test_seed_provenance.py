"""Every random generator in the library is derived from the caller's seed.

Two families of constructions, each checked at run time:

* classes that keep a generator in ``_rng``: after construction with
  ``seed=s`` it must sit in exactly the state ``np.random.default_rng(s)``
  starts in, and a passed-in ``Generator`` must be threaded through as-is;
* functions that draw from a generator built per call: the same seed
  twice gives the same output, and two different seeds give different
  output.

A literal seed, a ``None`` seed or a wall-clock seed at any of these sites
fails one of the two checks. Seeds below are nonzero so that a hard-coded
``0`` cannot pass by coincidence.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.clarans import CLARANS
from repro.clarans.clara import CLARA
from repro.core.bubble import BubblePolicy
from repro.core.cftree import CFTree
from repro.core.preclusterer import BUBBLE, BUBBLEFM
from repro.core.threshold import suggest_next_threshold
from repro.datasets import make_authority_dataset, make_ds1, make_ds2
from repro.datasets.vector import make_cell_dataset
from repro.evaluation.metrics import silhouette_score
from repro.fastmap import FastMap
from repro.index import VPTree
from repro.metrics import EuclideanDistance, FunctionDistance
from repro.parallel.build import _shard_seeds
from repro.robustness import ChaosPolicy, FaultInjector, GuardedMetric
from repro.utils.sampling import reservoir_sample, sample_without_replacement

SEEDS = (7, 2**40 + 3)

#: One factory per class that stores ``ensure_rng(seed)`` as ``_rng``.
RNG_HOLDERS = {
    "FastMap": lambda seed: FastMap(EuclideanDistance(), k=2, seed=seed),
    "VPTree": lambda seed: VPTree(EuclideanDistance(), seed=seed),
    "CLARANS": lambda seed: CLARANS(3, EuclideanDistance(), seed=seed),
    "GuardedMetric": lambda seed: GuardedMetric(EuclideanDistance(), seed=seed),
    "FaultInjector": lambda seed: FaultInjector(seed=seed),
    "CFTree": lambda seed: CFTree(BubblePolicy(EuclideanDistance()), seed=seed),
    "BubblePolicy": lambda seed: BubblePolicy(EuclideanDistance(), seed=seed),
    "PreClusterer": lambda seed: BUBBLE(EuclideanDistance(), seed=seed),
}


def _state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(RNG_HOLDERS))
class TestGeneratorHolders:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_int_seed_gives_the_seeded_stream(self, name, seed):
        holder = RNG_HOLDERS[name](seed)
        assert _state(holder._rng) == _state(np.random.default_rng(seed))

    def test_generator_is_threaded_through(self, name):
        rng = np.random.default_rng(SEEDS[0])
        assert RNG_HOLDERS[name](rng)._rng is rng


def _threshold_tree():
    # threshold=0 and no node budget: every object is its own entry, so
    # well over ten leaves hold two or more entries and the estimate
    # samples leaves (the growth floor 1.5 * 0 never wins).
    objs = make_ds2(n_points=400, n_clusters=8, seed=5).as_objects()
    return BUBBLE(EuclideanDistance(), threshold=0.0, seed=1).fit(objs).tree_


def _chaos_fault_pattern(seed):
    policy = ChaosPolicy(flaky_shards=[1], flaky_rate=0.5, seed=seed)
    flaky = policy.wrap_metric(EuclideanDistance(), shard_id=1, attempt=0)
    return [flaky.injector.should_fail() for _ in range(64)]


def _chaos_corruption(seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shard-0002.ckpt"
        path.write_bytes(bytes(256))
        ChaosPolicy(corrupt_checkpoints=[2], seed=seed).before_retry(2, 1, str(path))
        return path.read_bytes()


_POINTS = make_ds2(n_points=120, n_clusters=4, seed=3)
#: Ten dimensions, so FastMap's 2-d image depends on which pivots it draws.
_FM_POINTS = make_cell_dataset(dim=10, n_clusters=10, n_points=400, seed=3).as_objects()


def _retry_delays(seed):
    def failing(a, b):
        raise RuntimeError("flaky")

    delays = []
    guard = GuardedMetric(
        FunctionDistance(failing), on_fault="retry", max_retries=8, seed=seed,
        sleep=delays.append,
    )
    with pytest.raises(RuntimeError):
        guard.distance(0.0, 1.0)
    return delays


def _symmetry_checks(seed):
    guard = GuardedMetric(EuclideanDistance(), symmetry_check_rate=0.5, seed=seed)
    checked = []
    for _ in range(64):
        guard.distance(np.zeros(2), np.ones(2))
        checked.append(guard.n_symmetry_checks)
    return checked


def _vptree_build(seed):
    """Vantage points in pre-order, then the build NCD."""
    index = VPTree(EuclideanDistance(), leaf_size=4, seed=seed).build(_POINTS.as_objects())
    vantage, stack = [], [index._root]
    while stack:
        node = stack.pop()
        if node is not None and not isinstance(node, list):
            vantage.append(node.index)
            stack += [node.outside, node.inside]
    return (*vantage, index.build_calls)


def _bubble_fm_fit(seed):
    """NCD and sub-cluster sizes of a fit whose image spaces are refitted."""
    metric = EuclideanDistance()
    model = BUBBLEFM(metric, max_nodes=10, seed=seed).fit(_FM_POINTS)
    return (metric.n_calls, *(s.n for s in model.subclusters_))


#: One draw per function that builds its generator from a seed argument.
SEEDED_DRAWS = {
    "make_ds1": lambda seed: make_ds1(n_points=90, grid_side=3, seed=seed).points,
    "make_ds2": lambda seed: make_ds2(n_points=90, n_clusters=3, seed=seed).points,
    "make_cell_dataset": lambda seed: make_cell_dataset(
        dim=4, n_clusters=3, n_points=60, seed=seed
    ).points,
    "VectorDataset.shuffled": lambda seed: _POINTS.shuffled(seed=seed).points,
    "make_authority_dataset": lambda seed: make_authority_dataset(
        n_classes=6, n_strings=40, seed=seed
    ).strings,
    "sample_without_replacement": lambda seed: sample_without_replacement(
        list(range(100)), 10, seed=seed
    ),
    "reservoir_sample": lambda seed: reservoir_sample(iter(range(100)), 10, seed=seed),
    "suggest_next_threshold": lambda seed: suggest_next_threshold(
        _threshold_tree(), seed=seed
    ),
    "VPTree.build": _vptree_build,
    "BUBBLEFM.fit": _bubble_fm_fit,
    "FastMap.fit": lambda seed: FastMap(
        EuclideanDistance(), k=2, iterations=1, seed=seed
    ).fit(_POINTS.as_objects()),
    "silhouette_score": lambda seed: silhouette_score(
        EuclideanDistance(), _POINTS.as_objects(), _POINTS.labels, sample_size=10, seed=seed
    ),
    "CLARA._sample_seeds": lambda seed: CLARA(
        3, EuclideanDistance(), n_samples=3, seed=seed
    )._sample_seeds(),
    "CLARA._draw_indices": lambda seed: CLARA(3, EuclideanDistance())._draw_indices(
        50, 10, np.ones(50), seed
    ),
    "parallel.build._shard_seeds": lambda seed: _shard_seeds(seed, 4),
    "GuardedMetric retry jitter": _retry_delays,
    "GuardedMetric symmetry sampling": _symmetry_checks,
    "ChaosPolicy.wrap_metric": lambda seed: _chaos_fault_pattern(seed),
    "ChaosPolicy.before_retry": _chaos_corruption,
}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(SEEDED_DRAWS))
class TestSeededDraws:
    def test_same_seed_same_output(self, name):
        draw = SEEDED_DRAWS[name]
        assert _same(draw(SEEDS[0]), draw(SEEDS[0]))

    def test_different_seeds_differ(self, name):
        draw = SEEDED_DRAWS[name]
        assert not _same(draw(SEEDS[0]), draw(SEEDS[1]))
