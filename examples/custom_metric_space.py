"""Clustering a user-defined distance space.

BUBBLE's contract with the data is a single function ``d(a, b)`` satisfying
the metric axioms — objects can be anything. This example clusters Python
sets (customer "shopping baskets") under the Jaccard distance, written as a
plain function and plugged in with ``FunctionDistance``.

Run:  python examples/custom_metric_space.py
"""

from __future__ import annotations

import numpy as np

from repro import BUBBLE, FunctionDistance
from repro.evaluation import adjusted_rand_index
from repro.hac import AgglomerativeClusterer


def make_baskets(seed: int = 0):
    """Three shopper archetypes, each drawing mostly from its own catalog."""
    rng = np.random.default_rng(seed)
    catalogs = [
        [f"grocery:{i}" for i in range(30)],
        [f"electronics:{i}" for i in range(30)],
        [f"garden:{i}" for i in range(30)],
    ]
    baskets, labels = [], []
    for archetype, catalog in enumerate(catalogs):
        for _ in range(80):
            k = int(rng.integers(4, 10))
            own = rng.choice(catalog, size=k, replace=False).tolist()
            # A little cross-catalog noise.
            other = catalogs[(archetype + 1) % 3]
            noise = rng.choice(other, size=1).tolist() if rng.random() < 0.3 else []
            baskets.append(frozenset(own + noise))
            labels.append(archetype)
    order = rng.permutation(len(baskets))
    return [baskets[i] for i in order], np.asarray(labels)[order]


def jaccard(a: frozenset, b: frozenset) -> float:
    """``1 - |A & B| / |A | B|``: a metric on finite sets."""
    if not a and not b:
        return 0.0
    return 1.0 - len(a & b) / len(a | b)


def main() -> None:
    baskets, truth = make_baskets()
    print(f"{len(baskets)} baskets, e.g. {sorted(baskets[0])[:4]} ...")

    # Any function satisfying the metric axioms works: BUBBLE never looks
    # inside the objects, and FunctionDistance counts every call (NCD).
    metric = FunctionDistance(jaccard, name="jaccard")
    model = BUBBLE(
        metric,
        threshold=0.8,   # baskets within Jaccard distance 0.8 may merge
        max_nodes=10,
        seed=0,
    ).fit(baskets)
    print(f"\nBUBBLE found {model.n_subclusters_} sub-clusters "
          f"({metric.n_calls} Jaccard evaluations)")

    # Global phase: merge sub-clusters down to the 3 archetypes.
    clustroids = model.clustroids_
    weights = [s.n for s in model.subclusters_]
    hac = AgglomerativeClusterer(n_clusters=3, linkage="average").fit(
        objects=clustroids, metric=metric, weights=weights
    )
    # Label every basket by its sub-cluster, then map to the merged cluster.
    sub_labels = model.assign(baskets)
    final = hac.labels_[sub_labels]
    print(f"after hierarchical merge: ARI vs archetypes = "
          f"{adjusted_rand_index(truth, final):.3f}")


if __name__ == "__main__":
    main()
