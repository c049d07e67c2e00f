"""Exact triangle-inequality pruned routing for the CF*-tree.

Descent through the tree is dominated by distance gathers: at a leaf the
insertion step needs ``argmin_i D0(obj, CF_i)`` over the node's clustroids,
and at a non-leaf it needs ``argmin_i D2({obj}, S(NL_i))`` over the entries'
sample sets. The exhaustive implementations measure *every* candidate. This
module prunes candidates with the triangle inequality instead, without
changing a single routing decision:

* Each node keeps the **full pairwise distance matrix** ``D[i, j] =
  d(c_i, c_j)`` over its candidate objects (clustroids at a leaf, sample
  objects at a non-leaf), maintained lazily outside the counted path.
* Routing an object ``q`` measures a small set of initial **pivots**
  exactly. Every exactly-measured candidate ``a`` (pivot or not) becomes
  an *anchor*: the triangle inequality gives the lower bound ``lb_i =
  max_a |d(q, a) - D[a, i]| <= d(q, c_i)`` for every still-unmeasured
  candidate without touching the metric.
* Candidates are then measured **best-first** in ascending lower-bound
  order — each measurement is a batched ``one_to_many`` gather whose
  results immediately tighten the remaining bounds (the AESA refinement
  loop of Vidal Ruiz, adapted to the D0/D2 aggregates) — and the walk
  stops as soon as the smallest open lower bound exceeds the best exact
  distance seen so far. The rest are pruned.

Non-leaf nodes seed the walk with up to ``_MAX_SEGMENT_PIVOTS`` pivots
spread across their sample segments — in clustered data a single reference
point cannot separate two clusters that happen to be equidistant from it,
while pivots in distinct clusters can. Every pivot measurement fills an
exact sample slot, so even a query that prunes nothing issues no more
counted calls than the exhaustive gather.

Exactness
---------
Pruning happens only when ``lb_i`` is *strictly* greater than an exactly
measured distance ``best >= min_j d(q, c_j)``, so a pruned candidate
satisfies ``d(q, c_i) >= lb_i > min_j d(q, c_j)`` — it can never achieve,
or even tie, the minimum. (The best-first walk visits candidates in
ascending ``lb`` order, so when it stops at the first ``lb_i > best``
every remaining candidate is pruned by the same argument.) Pruned slots are reported as ``+inf``; every
measured slot is produced by the same ``one_to_many`` row computation the
exhaustive gather would have used, so the returned array has bit-identical
values at every index that matters and ``np.argmin`` (first minimal index)
selects exactly the entry the exhaustive scan would select. At non-leaf
nodes the same argument lifts through the D2 aggregate because the RMS is
monotone: ``lb_j <= d(q, s_j)`` pointwise (both non-negative) implies
``rms(lb) <= rms(d)`` per segment.

Each refinement round reduces every segment's squared bounds at once
(``np.add.reduceat``), which sums in a different order from the per-entry
``np.mean`` the measured values use and may differ from it in the last ulp.
That is harmless for the pruning argument — any order gives a valid bound —
but it can flip which entry an exact tie picks, or whether a bound that
equals ``best`` is pruned. So whenever several open entries lie within a
relative ``1e-9`` of the smallest bound, or that bound lies within ``1e-9``
of ``best``, the candidates' bounds are re-reduced in ``np.mean``'s order
and those values decide; a sum of ``k`` non-negative terms differs between
orders by at most ``~k`` ulps, far inside the window.

Accounting
----------
Cached geometry maintenance — measuring ``d(p, c_i)`` when a clustroid
drifts or a sample set is redrawn — goes through the *raw* metric hooks and
is deliberately **not** counted toward NCD: the pivot distances are a
reusable index structure, not part of the clustering decision procedure,
and charging them would double-count work the exhaustive algorithm never
performs either. The maintenance volume is tracked honestly in
:class:`PruningStats` (``maintenance_evals``) and surfaced by the stats
snapshot. This module is on the reprolint RPL001 allowlist for exactly
these reads; every *routing* evaluation goes through the counted public
API under the same call site (``leaf-d0`` / ``nonleaf-d2``) as the
exhaustive path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.metrics.base import DistanceFunction, site

__all__ = [
    "PruningStats",
    "LeafGeometry",
    "SampleGeometry",
    "ensure_leaf_geometry",
    "ensure_sample_geometry",
    "pruned_leaf_distances",
    "pruned_segment_distances",
]


@dataclass
class PruningStats:
    """Counters describing what the pruned routing engine did.

    All counters are cumulative since construction (or :meth:`reset`).
    ``candidates_evaluated + candidates_pruned == candidates_total`` holds
    at all times; ``maintenance_evals`` are raw (uncounted) metric
    evaluations spent keeping pivot geometry fresh.
    """

    #: Routing decisions served by the pruned path.
    queries: int = 0
    #: Lower-bound evaluations (one per open candidate per refinement
    #: round of the best-first walk).
    bound_checks: int = 0
    #: Candidate entries considered across all queries.
    candidates_total: int = 0
    #: Candidates measured exactly (pivot slot, seed, surviving candidates).
    candidates_evaluated: int = 0
    #: Candidates skipped because their lower bound exceeded the best.
    candidates_pruned: int = 0
    #: Raw (NCD-neutral) evaluations spent refreshing cached geometry.
    maintenance_evals: int = 0
    #: Pivot geometries built or rebuilt.
    geometry_builds: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-compatible copy of every counter."""
        return asdict(self)

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def absorb(self, counters: dict[str, int]) -> None:
        """Add another engine's counters into this one.

        Used when merging shard results: each worker process routed with
        its own :class:`PruningStats`, and the parent folds the per-shard
        counters in so one object still summarizes the whole build.
        Unknown keys are ignored.
        """
        for name in self.__dataclass_fields__:
            value = counters.get(name)
            if value:
                setattr(self, name, getattr(self, name) + int(value))


class LeafGeometry:
    """Anchor geometry of one leaf node.

    ``pair[i, j]`` caches ``d(clustroid_i, clustroid_j)`` and
    ``clustroids[i]`` remembers *which* object row ``i`` was measured
    against, so clustroid drift (an absorb that moved the clustroid) is
    detected by identity and only the stale rows are re-measured; rows of
    surviving clustroids are carried over across entry insertions and
    removals. Identity survives pickling because the features and the
    geometry travel in one pickle graph.
    """

    __slots__ = ("clustroids", "pair", "batch")

    def __init__(self) -> None:
        self.clustroids: list[Any] = []
        self.pair: np.ndarray = np.zeros((0, 0), dtype=np.float64)
        #: ``metric.prepare(clustroids)``, rebuilt whenever a row goes stale.
        self.batch: Any = []


#: Cap on reference pivots per non-leaf sample cache: one per sample
#: segment, evenly spread, at most this many. More pivots tighten the D2
#: lower bounds (pivots in distinct clusters separate cluster pairs a
#: single reference point cannot) at a fixed per-query cost of one counted
#: call each — recovered because every pivot call fills an exact sample
#: slot.
_MAX_SEGMENT_PIVOTS = 8


class SampleGeometry:
    """Anchor geometry of one non-leaf sample cache.

    ``positions`` holds the flat indices of the initial pivots — the first
    sample of up to ``_MAX_SEGMENT_PIVOTS`` evenly spread segments, always
    including the first and the last segment — and ``pivots`` the prepared
    batch of those samples. ``pair[i, j] == d(flat[i], flat[j])`` is the
    full sample-to-sample matrix feeding the anchor bounds. ``gather_from[i]``
    is the first sample of segment ``i`` the pivots leave unmeasured (one
    past the segment start for a pivot segment), and ``counts[i]`` the
    segment's length. Sample sets are immutable between refreshes and a
    refresh installs a brand-new cache object, so this is built once per
    cache lifetime and never invalidated in place.
    """

    __slots__ = ("positions", "pivots", "pair", "gather_from", "counts")

    def __init__(
        self,
        positions: np.ndarray,
        pivots: Any,
        pair: np.ndarray,
        gather_from: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.positions = positions
        self.pivots = pivots
        self.pair = pair
        self.gather_from = gather_from
        self.counts = counts


def ensure_leaf_geometry(
    metric: DistanceFunction, node: Any, stats: PruningStats
) -> tuple[LeafGeometry, list[Any]]:
    """Return ``node``'s leaf geometry, refreshing any stale rows.

    Rows whose clustroid object is unchanged (by identity) are carried
    over; every other row is re-measured through the raw hooks.
    """
    clustroids = [feature.clustroid for feature in node.entries]
    n = len(clustroids)
    geom = node.aux
    if not isinstance(geom, LeafGeometry):
        geom = LeafGeometry()
        node.aux = geom
        stats.geometry_builds += 1
    old = geom.clustroids
    if len(old) == n and all(old[i] is clustroids[i] for i in range(n)):
        return geom, clustroids
    old_pos = {id(c): j for j, c in enumerate(old)}
    pair = np.zeros((n, n), dtype=np.float64)
    kept_new, kept_old, stale = [], [], []
    for i, clustroid in enumerate(clustroids):
        j = old_pos.get(id(clustroid))
        if j is None:
            stale.append(i)
        else:
            kept_new.append(i)
            kept_old.append(j)
    if kept_new:
        pair[np.ix_(kept_new, kept_new)] = geom.pair[np.ix_(kept_old, kept_old)]
    if stale:
        # One raw-hook cross gather covers every stale row at once (same
        # evaluation count as row-at-a-time, one batched dispatch).
        # Geometry maintenance is NCD-neutral by design (see module
        # docstring); tracked via stats.maintenance_evals.
        block = np.asarray(
            metric._cross([clustroids[i] for i in stale], clustroids),
            dtype=np.float64,
        )
        stats.maintenance_evals += len(stale) * n
        for k, i in enumerate(stale):
            pair[i, :] = block[k]
            pair[:, i] = block[k]
    geom.clustroids = clustroids
    geom.pair = pair
    geom.batch = metric.prepare(clustroids)
    return geom, clustroids


def ensure_sample_geometry(
    metric: DistanceFunction, cache: Any, stats: PruningStats
) -> SampleGeometry:
    """Return the pivot geometry of a non-leaf sample cache, building it
    on first use (raw, NCD-neutral)."""
    geom = cache.geometry
    flat = cache.flat
    if isinstance(geom, SampleGeometry) and geom.pair.shape[0] == len(flat):
        return geom
    offsets = np.asarray(cache.offsets)
    n_segments = len(offsets) - 1
    n_pivots = min(n_segments, _MAX_SEGMENT_PIVOTS)
    spread = np.linspace(0, n_segments - 1, num=max(n_pivots, 1)).astype(int)
    seg_ids = sorted({int(i) for i in spread})
    positions = offsets[seg_ids].astype(np.intp)
    gather_from = offsets[:-1].astype(np.intp)
    gather_from[seg_ids] += 1
    # Raw hook: geometry maintenance is NCD-neutral by design (see module
    # docstring); tracked via stats.maintenance_evals.
    pair = np.asarray(metric._pairwise(flat), dtype=np.float64)
    stats.maintenance_evals += len(flat) * (len(flat) - 1) // 2
    geom = SampleGeometry(
        positions,
        metric.prepare([flat[int(p)] for p in positions]),
        pair,
        gather_from,
        np.diff(offsets).astype(np.float64),
    )
    cache.geometry = geom
    stats.geometry_builds += 1
    return geom


def pruned_leaf_distances(
    metric: DistanceFunction, node: Any, obj: Any, stats: PruningStats
) -> np.ndarray:
    """D0 distances from ``obj`` to every entry of leaf ``node``, with
    triangle-inequality pruning.

    Pruned slots hold ``+inf``; measured slots are bit-identical to the
    exhaustive ``one_to_many`` gather, and ``argmin`` over the result equals
    the exhaustive ``argmin`` (see module docstring). Never issues more
    counted calls than the exhaustive gather would.
    """
    geom, clustroids = ensure_leaf_geometry(metric, node, stats)
    n = len(clustroids)
    pair = geom.pair
    batch = geom.batch
    with site("leaf-d0"):
        out = np.full(n, np.inf, dtype=np.float64)
        # Lower bounds of the unmeasured clustroids; measured slots hold
        # +inf, so the best-first pick is a plain argmin.
        open_lb = np.zeros(n, dtype=np.float64)

        def admit(i: int) -> float:
            # An exactly-measured clustroid becomes an anchor tightening
            # every remaining lower bound (AESA refinement).
            value = float(metric.one_to_many(obj, batch[i : i + 1])[0])
            out[i] = value
            np.maximum(open_lb, np.abs(pair[i] - value), out=open_lb)
            open_lb[i] = np.inf
            return value

        best = admit(0)
        n_evaluated = 1
        while n_evaluated < n:
            i = int(open_lb.argmin())
            stats.bound_checks += n - n_evaluated
            if open_lb[i] > best:
                break
            value = admit(i)
            n_evaluated += 1
            if value < best:
                best = value
        stats.queries += 1
        stats.candidates_total += n
        stats.candidates_evaluated += n_evaluated
        stats.candidates_pruned += n - n_evaluated
        return out


#: Relative window within which a vectorised segment bound is re-reduced in
#: ``np.mean``'s summation order before it decides (see module docstring).
_TIE_RTOL = 1e-9


def pruned_segment_distances(
    metric: DistanceFunction,
    cache: Any,
    n_entries: int,
    obj: Any,
    stats: PruningStats,
) -> np.ndarray:
    """D2 distances from ``obj`` to every entry of a non-leaf node, with
    per-segment triangle-inequality pruning over the node's sample cache.

    Pruned entries hold ``+inf``; measured entries are bit-identical
    to the exhaustive computation. Never issues more counted calls than the
    exhaustive gather (``len(flat)``) would.
    """
    batch = cache.batch
    offsets = cache.offsets
    geom = ensure_sample_geometry(metric, cache, stats)
    pair = geom.pair
    gather_from = geom.gather_from
    starts = offsets[:-1]
    n = len(cache.flat)
    with site("nonleaf-d2"):
        d_full = np.full(n, np.nan, dtype=np.float64)
        lb = np.zeros(n, dtype=np.float64)

        def admit(positions: Any, values: np.ndarray) -> None:
            # Exactly-measured samples become anchors tightening every
            # remaining per-sample lower bound (AESA refinement). At an
            # anchor's own column the bound collapses to the exact
            # distance, so bounds and exact values mix consistently
            # inside a segment's RMS.
            d_full[positions] = values
            np.maximum(
                lb, np.abs(pair[positions] - values[:, None]).max(axis=0), out=lb
            )

        dq = np.asarray(metric.one_to_many(obj, geom.pivots), dtype=np.float64)
        admit(geom.positions, dq)

        out = np.full(n_entries, np.inf, dtype=np.float64)
        lb_sq = np.empty(n, dtype=np.float64)
        entry_lb = np.empty(n_entries, dtype=np.float64)
        # 0 for open entries, +inf for measured ones: added to the bounds,
        # it masks measured entries out of the argmin.
        closed = np.zeros(n_entries, dtype=np.float64)
        n_open = n_entries
        best = np.inf
        # Best-first walk: measure the open entry with the smallest RMS
        # lower bound (one batched gather per entry), let its samples
        # tighten the remaining bounds, and stop once the smallest open
        # bound exceeds the best exact D2 — which prunes everything left.
        while n_open:
            np.multiply(lb, lb, out=lb_sq)
            np.add.reduceat(lb_sq, starts, out=entry_lb)
            np.divide(entry_lb, geom.counts, out=entry_lb)
            np.sqrt(entry_lb, out=entry_lb)
            np.add(entry_lb, closed, out=entry_lb)
            stats.bound_checks += n_open
            i = int(entry_lb.argmin())
            bound = float(entry_lb[i])
            window = bound * _TIE_RTOL
            near = entry_lb <= bound + window
            if abs(bound - best) <= window or np.count_nonzero(near) > 1:
                # Near a tie or the stopping bound: decide on the bounds as
                # the scalar walk reduces them (see module docstring).
                candidates = np.flatnonzero(near & (closed == 0.0))
                exact = [
                    float(np.sqrt(lb_sq[offsets[j] : offsets[j + 1]].mean()))
                    for j in candidates
                ]
                k = int(np.argmin(exact))
                i, bound = int(candidates[k]), exact[k]
            if bound > best:
                break
            closed[i] = np.inf
            n_open -= 1
            lo, first, hi = int(offsets[i]), int(gather_from[i]), int(offsets[i + 1])
            if first < hi:
                # Only a segment's first sample can be a pivot, so the
                # unmeasured samples are one contiguous run.
                admit(slice(first, hi), metric.one_to_many(obj, batch[first:hi]))
            seg = d_full[lo:hi]
            out[i] = float(np.sqrt((seg**2).mean()))
            if out[i] < best:
                best = float(out[i])
        stats.queries += 1
        stats.candidates_total += n_entries
        stats.candidates_evaluated += n_entries - n_open
        stats.candidates_pruned += n_open
        return out
