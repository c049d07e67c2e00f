"""CLARA: sampled medoid search over subsamples of the clustroids.

CLARANS over all leaf clustroids costs O(N) distance calls per swap
evaluation against the full clustroid set. CLARA (Kaufman & Rousseeuw)
sidesteps the quadratic blow-up by drawing ``n_samples`` small
subsamples, running the medoid search on each sample, and keeping
whichever candidate medoid set scores best on the *full* dataset. The
searches run one after another in this process, on the model's own
metric, so every evaluation of ``d`` is counted, guarded and charged
against the metric's budget like any other.

Determinism: the sample draws and the per-sample search seeds both derive
from the root seed via ``SeedSequence.spawn``, and candidates are scored
in sample order with a strict ``<`` best — so the fitted medoids are a
pure function of ``(objects, weights, seed, n_samples, sample_size)``.

Accounting: each sample search runs under a ``global-sample`` site, and
candidates are scored with batched ``cross()`` gathers under a
``global-assign`` site — so ``sum(by_site) == n_calls`` keeps holding
through the sampled global phase on whatever ledger is active. A sample's
``n_calls`` is the metric's NCD delta across its search.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.clarans.clarans import CLARANS
from repro.exceptions import EmptyDatasetError, NotFittedError, ParameterError
from repro.metrics.base import DistanceFunction, site

__all__ = ["CLARA"]

#: Site label for the per-sample medoid searches.
SAMPLE_SITE = "global-sample"
#: Site label for the full-dataset candidate scoring.
ASSIGN_SITE = "global-assign"


class CLARA:
    """Sampled k-medoid search: CLARANS per subsample, best by full cost.

    Parameters
    ----------
    n_clusters:
        Number of medoids ``k``.
    metric:
        The distance function; every sample search and the full-dataset
        scoring evaluate through it, so it keeps the NCD total.
    n_samples:
        Subsamples to draw and search (the classic recommendation is 5).
    sample_size:
        Objects per subsample; defaults to the classic ``40 + 2k``, and is
        clamped into ``[k, N]``.
    num_local, max_neighbors:
        Passed through to each per-sample :class:`CLARANS` search.
    seed:
        Root seed. Must be an int or ``None`` — per-sample draw and search
        seeds are spawned from it, so a ``Generator`` (whose state the
        spawn cannot reproduce) is rejected.

    Attributes
    ----------
    medoids_:
        The winning medoid objects.
    medoid_indices_:
        Their positions in the fitted object sequence.
    labels_:
        Index of the closest winning medoid per object.
    cost_:
        Weighted full-dataset cost of the winning medoid set.
    sample_costs_:
        Full-dataset cost of every candidate, in sample order.
    best_sample_:
        Index of the winning sample.
    sample_summaries_:
        Per-sample dicts (size, NCD, wall, costs) for reports.
    """

    def __init__(
        self,
        n_clusters: int,
        metric: DistanceFunction,
        *,
        n_samples: int = 5,
        sample_size: int | None = None,
        num_local: int = 2,
        max_neighbors: int | None = None,
        seed: int | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_samples < 1:
            raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
        if sample_size is not None and sample_size < 1:
            raise ParameterError(f"sample_size must be >= 1, got {sample_size}")
        if isinstance(seed, np.random.Generator):
            raise ParameterError(
                "CLARA derives per-sample seeds from the root seed with "
                "SeedSequence.spawn, so seed must be an int or None, not a "
                "Generator"
            )
        self.n_clusters = int(n_clusters)
        self.metric = metric
        self.n_samples = int(n_samples)
        self.sample_size = None if sample_size is None else int(sample_size)
        self.num_local = int(num_local)
        self.max_neighbors = max_neighbors
        self.seed = seed if seed is None else int(seed)
        self.medoids_: list[Any] | None = None
        self.medoid_indices_: list[int] | None = None
        self.labels_: np.ndarray | None = None
        self.cost_: float | None = None
        self.sample_costs_: list[float] | None = None
        self.best_sample_: int | None = None
        self.sample_summaries_: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def _sample_seeds(self) -> list[tuple[int | None, int | None]]:
        """``(draw_seed, search_seed)`` per sample, spawned from the root."""
        if self.seed is None:
            return [(None, None)] * self.n_samples
        children = np.random.SeedSequence(self.seed).spawn(self.n_samples)
        seeds = []
        for child in children:
            draw, search = child.spawn(2)
            seeds.append(
                (
                    int(draw.generate_state(1, dtype=np.uint64)[0]),
                    int(search.generate_state(1, dtype=np.uint64)[0]),
                )
            )
        return seeds

    def _draw_indices(
        self, n: int, size: int, weights: np.ndarray, draw_seed: int | None
    ) -> np.ndarray:
        """Population-weighted sample of ``size`` distinct object indices."""
        if size >= n:
            return np.arange(n)
        rng = np.random.default_rng(draw_seed)
        return np.sort(
            rng.choice(n, size=size, replace=False, p=weights / weights.sum())
        )

    # ------------------------------------------------------------------
    def fit(
        self, objects: Sequence[Any], weights: Sequence[float] | None = None
    ) -> "CLARA":
        """Draw, search, and score the samples; keep the best medoid set.

        ``weights`` (e.g. leaf-cluster populations when the objects are
        clustroids) bias both the subsample draws and the full-dataset
        cost; omitted, every object weighs 1.
        """
        objs = list(objects)
        n = len(objs)
        if n == 0:
            raise EmptyDatasetError("CLARA.fit requires at least one object")
        if self.n_clusters > n:
            raise ParameterError(
                f"n_clusters={self.n_clusters} exceeds dataset size {n}"
            )
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ParameterError(f"weights must have length {n}, got shape {w.shape}")
        if not np.all(w > 0):
            raise ParameterError("weights must be strictly positive")

        k = self.n_clusters
        size = self.sample_size if self.sample_size is not None else 40 + 2 * k
        size = min(n, max(k, size))
        seeds = self._sample_seeds()
        metric = self.metric

        candidates: list[list[int]] = []
        summaries: list[dict[str, Any]] = []
        for sample_id, (draw_seed, search_seed) in enumerate(seeds):
            indices = self._draw_indices(n, size, w, draw_seed)
            search = CLARANS(
                k,
                metric,
                num_local=self.num_local,
                max_neighbors=self.max_neighbors,
                seed=search_seed,
            )
            start = time.perf_counter()
            calls_before = metric.n_calls
            with site(SAMPLE_SITE):
                search.fit([objs[int(i)] for i in indices])
            assert search.medoid_indices_ is not None and search.cost_ is not None
            candidates.append([int(indices[i]) for i in search.medoid_indices_])
            summaries.append(
                {
                    "sample_id": sample_id,
                    "sample_size": len(indices),
                    "n_calls": metric.n_calls - calls_before,
                    "elapsed_seconds": time.perf_counter() - start,
                    "sample_cost": float(search.cost_),
                }
            )

        # Score every candidate on the full dataset in sample order;
        # strict < makes ties resolve to the lowest sample id.
        best_cost = np.inf
        best_sample = -1
        best_labels: np.ndarray | None = None
        best_indices: list[int] | None = None
        sample_costs: list[float] = []
        with site(ASSIGN_SITE):
            for sample_id, medoid_indices in enumerate(candidates):
                medoid_objs = [objs[i] for i in medoid_indices]
                dmat = metric.cross(medoid_objs, objs)
                cost = float((dmat.min(axis=0) * w).sum())
                sample_costs.append(cost)
                summaries[sample_id]["full_cost"] = cost
                if cost < best_cost:
                    best_cost = cost
                    best_sample = sample_id
                    best_labels = np.asarray(dmat.argmin(axis=0), dtype=np.intp)
                    best_indices = medoid_indices

        if best_labels is None or best_indices is None:  # pragma: no cover
            raise NotFittedError("CLARA produced no candidate medoid set")

        self.sample_summaries_ = summaries
        self.sample_costs_ = sample_costs
        self.best_sample_ = best_sample
        self.medoid_indices_ = best_indices
        self.medoids_ = [objs[i] for i in best_indices]
        self.labels_ = best_labels
        self.cost_ = float(best_cost)
        return self

    # ------------------------------------------------------------------
    @property
    def n_clusters_(self) -> int:
        if self.medoids_ is None:
            raise NotFittedError("CLARA has not been fitted")
        return len(self.medoids_)
