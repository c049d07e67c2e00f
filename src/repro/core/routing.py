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

One leaf loop, :func:`best_first_leaf_scan`, runs this walk both for
routing, which stops past ``best * (1 + TIE_RTOL)`` (see below), and for
the query scan of the cf-tree index (:mod:`repro.index.cftree`), which
stops past the k-NN radius ``tau`` or the range radius. The caller hands
it the candidates whose distances are already known (its seeds), the
counted measurement of a candidate and the stop limit.

Non-leaf nodes seed the walk with up to ``_MAX_SEGMENT_PIVOTS`` pivots
spread across their sample segments — in clustered data a single reference
point cannot separate two clusters that happen to be equidistant from it,
while pivots in distinct clusters can. Every pivot measurement fills an
exact sample slot, so even a query that prunes nothing issues no more
counted calls than the exhaustive gather.

Exactness
---------
In real arithmetic a pruned candidate satisfies ``d(q, c_i) >= lb_i > best
>= min_j d(q, c_j)``: it can never achieve, or even tie, the minimum. (The
best-first walk visits candidates in ascending ``lb`` order, so when it
stops at the first ``lb_i`` past the stop rule every remaining candidate is
pruned by the same argument.) At non-leaf nodes the argument lifts through
the D2 aggregate because the RMS is monotone: ``lb_j <= d(q, s_j)``
pointwise (both non-negative) implies ``rms(lb) <= rms(d)`` per segment.

Floating point needs two more things:

* **Row-built geometry.** Every ``D[i, j]`` is a value a ``one_to_many``
  row returns: fresh rows come from ``_one_to_many`` or from ``_cross``
  (row-identical to it), and carried pairs are copies of such values. No
  geometry comes from ``_pairwise``, whose Euclidean Gram identity
  ``|a|^2 + |b|^2 - 2a.b`` can be off by up to ~1% on near-duplicates.
* **A stop margin.** Even so, ``|d(q, a) - D[a, i]|`` may round a few ulps
  above ``d(q, c_i)``, so a candidate tying ``best`` in real arithmetic
  could be pruned while rounding makes it the exhaustive argmin. Both
  walks therefore stop only when the smallest open bound exceeds ``best *
  (1 + 1e-9)``, far above that rounding and far below any real gap.

Pruned slots are reported as ``+inf``; every measured slot is produced by
the same ``one_to_many`` row computation the exhaustive gather would have
used, so the returned array has bit-identical values at every index that
matters and ``np.argmin`` (first minimal index) selects exactly the entry
the exhaustive scan would select.

Each refinement round reduces every segment's squared bounds at once
(``np.add.reduceat``), which sums in a different order from the per-entry
``np.mean`` the measured values use and may differ from it in the last ulp.
That is harmless for the pruning argument — any order gives a valid bound —
but it can flip which entry an exact tie picks, or which side of the stop
threshold a bound lands on. So whenever several open entries lie within a
relative ``1e-9`` of the smallest bound, or that bound lies within ``1e-9``
of the stop threshold, the candidates' bounds are re-reduced in
``np.mean``'s order and those values decide; a sum of ``k`` non-negative
terms differs between orders by at most ``~k`` ulps, far inside the window.

Accounting
----------
Cached geometry maintenance — measuring ``d(p, c_i)`` when a clustroid
drifts or a sample set is redrawn — goes through the *raw* metric hooks and
is deliberately **not** counted toward NCD: the pivot distances are a
reusable index structure, not part of the clustering decision procedure,
and charging them would double-count work the exhaustive algorithm never
performs either. The maintenance volume is tracked honestly in
:class:`PruningStats` (``maintenance_evals``) and surfaced by the stats
snapshot, and ``tests/test_evaluation_oracle.py`` checks at run time that
these are the only raw reads. Every *routing* evaluation goes through the
counted public API under the same call site (``leaf-d0`` / ``nonleaf-d2``)
as the exhaustive path. Upkeep reuses what the walks measured, though: a
counted walk distance that lands in the geometry is not measured again.

One insertion measures each routing distance once. The descent's last
non-leaf walk hands the leaf walk that follows the entry it chose, as
``(obj, samples, distances)``; that segment is always measured in full.
A leaf entry's samples are clustroids of its leaf child, so the leaf walk
starts from the distances of those that are still clustroids (matched by
identity) instead of measuring them again, in the pruned and in the
small-leaf branch alike. The absorb that may follow takes the clustroid
distance from the leaf walk and measures only the other
representatives. Only counted distances of the same insertion, for the
same object, are reused: the handoff is consumed by the next leaf walk,
is never pickled, and nothing is read off the ledger.

Each pair is measured at most once per geometry lineage, carried forward
by object identity (never by a bare ``id()`` without a live reference,
never through a process-global memo). One routine assembles every matrix:
it copies the pairs its donors hold, then measures each unknown pair once.

* A leaf keeps the rows of clustroids that survive an absorb, and a split
  leaf's halves inherit its geometry. The leaf also keeps its last walk's
  row, ``d(q, c_i)`` for every clustroid the walk did not prune, so when
  ``q`` becomes a clustroid (a new entry, or an absorb that moves a
  clustroid to it) only its pruned columns are measured.
* A refreshed sample cache — including each half of a split non-leaf —
  holds the geometry of the cache it replaced (``prior``) until its own is
  built, and copies the pairs of the samples both hold; a new root borrows
  its first child's geometry the same way. The ``f`` new samples of ``n``
  are measured against the kept ones in one ``_cross`` gather and among
  themselves over the upper triangle, ``f(n - f) + f(f - 1) / 2``
  evaluations; with nothing carried over that is ``n(n - 1) / 2``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.metrics.base import DistanceFunction, site, take

__all__ = [
    "TIE_RTOL",
    "PruningStats",
    "LeafGeometry",
    "SampleGeometry",
    "ensure_leaf_geometry",
    "remember_leaf_walk",
    "geometry_donor",
    "ensure_sample_geometry",
    "best_first_leaf_scan",
    "segment_seeds",
    "pruned_leaf_distances",
    "pruned_segment_distances",
]


@dataclass
class PruningStats:
    """Counters describing what the pruned routing engine did.

    All counters are cumulative since construction.
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
    #: Geometry objects built: one per sample cache routed through, and one
    #: per leaf that did not inherit its split parent's geometry.
    geometry_builds: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-compatible copy of every counter."""
        return asdict(self)

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
    removals. ``walk`` holds the last routing walk through the leaf as
    ``(obj, clustroids, row)``: the object routed, the clustroids it was
    measured against and the distances measured (``+inf`` where pruned),
    so an object that becomes a clustroid brings most of its row along.
    Identity survives pickling because the features and the geometry
    travel in one pickle graph.
    """

    __slots__ = ("clustroids", "pair", "batch", "walk")

    def __init__(self) -> None:
        self.clustroids: list[Any] = []
        self.pair: np.ndarray = np.zeros((0, 0), dtype=np.float64)
        #: ``metric.prepare(clustroids)``, rebuilt whenever a row goes stale.
        self.batch: Any = []
        self.walk: tuple[Any, list[Any], np.ndarray] | None = None

    def copy(self) -> LeafGeometry:
        """A second geometry over the same rows. Shallow: refreshes replace
        the fields rather than mutate them, so the two never interfere."""
        twin = LeafGeometry()
        twin.clustroids, twin.pair, twin.batch = self.clustroids, self.pair, self.batch
        twin.walk = self.walk
        return twin


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


def _assemble_pairs(
    metric: DistanceFunction,
    objects: list[Any],
    batch: Any,
    base: tuple[list[Any], np.ndarray] | None,
    walk: tuple[Any, list[Any], np.ndarray] | None,
    stats: PruningStats,
) -> np.ndarray:
    """The pairwise matrix over ``objects``, each pair measured at most once.

    Measured distances are copied, matched by identity (the donors hold
    their objects, so the ids are live): the pairs of ``base``, an
    ``(objects, pair)`` matrix, and the row of ``walk``, an ``(obj,
    objects, row)`` walk with ``+inf`` where it pruned. The objects
    ``base`` holds are kept, the others fresh, so every pair left unknown
    involves a fresh object. Those are measured through the raw hooks
    against ``batch`` (``objects`` as the metric prepared them). With no
    walk row to copy, the fresh objects are measured against the kept ones
    in one ``_cross`` gather and among themselves over the upper triangle,
    one ``_one_to_many`` row each: ``f(n - f) + f(f - 1) / 2`` evaluations
    for ``f`` fresh objects of ``n``. Otherwise each fresh object measures
    its unknown pairs in one gather. Geometry maintenance is NCD-neutral by
    design (see module docstring); tracked via ``stats.maintenance_evals``.
    """
    n = len(objects)
    if base is not None and len(base[0]):
        held, block = base
        where = {id(obj): j for j, obj in enumerate(held)}
        src = [where.get(id(obj), -1) for obj in objects]
        fresh = [i for i, j in enumerate(src) if j < 0]
        # Fresh rows and columns copy arbitrary held pairs here; every one
        # of them is overwritten below.
        pair = block.take(src, axis=0).take(src, axis=1)
    else:
        held, src, fresh = None, None, list(range(n))
        pair = np.empty((n, n), dtype=np.float64)
    if not fresh:
        return pair
    walked_row = at = None
    if walk is not None:
        obj, walked, row = walk
        at = [i for i in range(n) if objects[i] is obj]
        if at:
            index = src
            if walked is not held:
                where = {id(o): j for j, o in enumerate(walked)}
                index = [where.get(id(o), -1) for o in objects]
            # ``walked_row[i] == d(obj, objects[i])``, +inf where unknown
            # (index -1 reads the appended +inf).
            walked_row = np.append(row, np.inf).take(index)
    if walked_row is None:
        # Nothing measured involves a fresh object: fresh against kept in
        # one gather, then the fresh upper triangle row by row.
        rows = np.asarray(fresh)[:, None]
        fresh_objects = [objects[i] for i in fresh]
        fresh_batch = batch
        kept = [i for i, j in enumerate(src) if j >= 0] if src is not None else []
        if kept:
            across = np.asarray(
                metric._cross(fresh_objects, take(batch, kept)), dtype=np.float64
            )
            stats.maintenance_evals += across.size
            pair[rows, kept] = across
            pair[np.asarray(kept, dtype=np.intp)[:, None], fresh] = across.T
            fresh_batch = take(batch, fresh)
        f = len(fresh)
        among = np.zeros((f, f), dtype=np.float64)
        for r in range(f - 1):
            among[r, r + 1 :] = metric._one_to_many(fresh_objects[r], fresh_batch[r + 1 :])
        stats.maintenance_evals += f * (f - 1) // 2
        pair[rows, fresh] = among + among.T
        return pair
    # Each fresh object measures the pairs neither the walk nor an earlier
    # fresh row holds, in one gather.
    done: list[int] = []
    for i in fresh:
        if objects[i] is walk[0]:
            # Measured slots of the walk row only gain values below, so
            # later rows may still read it.
            values = walked_row
        else:
            values = np.full(n, np.inf)
            values[at] = walked_row[i]
        if done:
            values[done] = pair[i, done]
        values[i] = 0.0
        cols = np.flatnonzero(np.isinf(values))
        if len(cols):
            values[cols] = metric._one_to_many(objects[i], take(batch, cols))
            stats.maintenance_evals += len(cols)
        pair[i] = values
        pair[:, i] = values
        done.append(i)
    return pair


def geometry_donor(aux: Any) -> tuple[list[Any], np.ndarray] | None:
    """The measured pairs ``aux`` can hand to a new sample cache, as
    ``(objects, pair)``: a leaf's geometry, a sample cache's built
    geometry, or the donor a sample cache still holds; else ``None``. A
    donor is always built geometry, which holds no donor itself, so donors
    never chain."""
    if isinstance(aux, LeafGeometry):
        return aux.clustroids, aux.pair
    geom = getattr(aux, "geometry", None)
    if isinstance(geom, SampleGeometry):
        return aux.flat, geom.pair
    return getattr(aux, "prior", None)


def ensure_leaf_geometry(
    metric: DistanceFunction, node: Any, stats: PruningStats
) -> tuple[LeafGeometry, list[Any]]:
    """Return ``node``'s leaf geometry, refreshing any stale rows.

    Rows whose clustroid object is unchanged (by identity) are carried
    over, and a clustroid that is the object of the leaf's last walk takes
    the distances that walk measured. Only the remaining pairs are measured
    through the raw hooks. A leaf that inherited its split parent's
    geometry therefore measures only the overflow entry's pruned columns.
    """
    clustroids = [feature.clustroid for feature in node.entries]
    n = len(clustroids)
    geom = node.aux
    if not isinstance(geom, LeafGeometry):
        geom = LeafGeometry()
        node.aux = geom
    old = geom.clustroids
    if len(old) == n and all(old[i] is clustroids[i] for i in range(n)):
        return geom, clustroids
    if not old:
        stats.geometry_builds += 1
    batch = metric.prepare(clustroids)
    geom.pair = _assemble_pairs(metric, clustroids, batch, (old, geom.pair), geom.walk, stats)
    geom.walk = None
    geom.clustroids = clustroids
    geom.batch = batch
    return geom, clustroids


def remember_leaf_walk(node: Any, obj: Any, clustroids: list[Any], row: np.ndarray) -> None:
    """Keep the distances a walk measured from ``obj`` to ``clustroids``
    (``+inf`` where pruned) on ``node``'s leaf geometry, creating an
    unbuilt one if the leaf has none, so the next refresh copies them if
    ``obj`` has become a clustroid. The row is shared, not copied."""
    geom = node.aux
    if not isinstance(geom, LeafGeometry):
        geom = LeafGeometry()
        node.aux = geom
    geom.walk = (obj, clustroids, row)


def ensure_sample_geometry(
    metric: DistanceFunction, cache: Any, stats: PruningStats
) -> SampleGeometry:
    """Return the pivot geometry of a non-leaf sample cache, building it
    on first use (raw, NCD-neutral).

    When the cache holds a donor (``cache.prior``, the ``(objects, pair)``
    of geometry built earlier), the pairs of samples present in both are
    copied; every other pair is measured once (see
    :func:`_assemble_pairs`). The cache drops its donor here, so donors
    never chain.
    """
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
    prior, cache.prior = cache.prior, None
    pair = _assemble_pairs(metric, flat, cache.batch, prior, None, stats)
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


#: Relative stop margin of both walks (and of the second scan's walk in
#: :mod:`repro.pipelines.labeling`), and the window within which a
#: vectorised segment bound is re-reduced in ``np.mean``'s summation order
#: before it decides (see module docstring).
TIE_RTOL = 1e-9


def best_first_leaf_scan(
    pair: np.ndarray,
    seeds: Any,
    values: Any,
    measure: Callable[[int], float],
    limit: Callable[[], float],
) -> tuple[int, int]:
    """The best-first (AESA) walk over one leaf's candidates.

    ``pair`` is the leaf's cached ``d(c_i, c_j)`` matrix. ``seeds`` are the
    candidates whose exact distances from the query, ``values``, are
    already known: candidate 0 measured by the caller when nothing else
    is, or the clustroids a routing descent's non-leaf walk measured. All
    seeds tighten the lower bounds in one step. Each round then picks the
    open candidate with the smallest bound (lowest index on ties) and
    stops when that bound strictly exceeds ``limit()``; otherwise
    ``measure(i)`` returns the candidate's counted exact distance, which
    tightens every remaining bound. Routing stops past ``best * (1 +
    TIE_RTOL)``, query serving past the k-NN radius ``tau`` or the range
    radius.

    Returns ``(measured, bound_checks)``: the candidates measured besides
    the seeds, and one bound check per open candidate per round.
    """
    # Open lower bounds; measured slots hold +inf, so the best-first pick
    # is a plain argmin.
    if len(seeds) == 1:
        bounds = np.abs(pair[seeds[0]] - values[0])
    else:
        bounds = np.maximum.reduce(np.abs(pair[seeds] - values[:, None]))
    bounds[seeds] = np.inf
    n_open = start = len(bounds) - len(seeds)
    checks = 0
    while n_open:
        i = int(bounds.argmin())
        checks += n_open
        if bounds[i] > limit():
            break
        value = measure(i)
        np.maximum(bounds, np.abs(pair[i] - value), out=bounds)
        bounds[i] = np.inf
        n_open -= 1
    return start - n_open, checks


def segment_seeds(
    segment: tuple[list[Any], np.ndarray], clustroids: list[Any]
) -> tuple[np.ndarray, np.ndarray] | None:
    """The clustroids a non-leaf walk already measured, as ``(indices,
    distances)`` into ``clustroids``, or ``None`` if it measured none.

    ``segment`` is the ``(samples, distances)`` part of the chosen entry
    :func:`pruned_segment_distances` hands on. A leaf entry's samples are
    clustroids of its leaf child, matched here by identity (the segment
    holds its samples, so the ids are live); a sample that has since
    stopped being a clustroid simply matches nothing.
    """
    samples, distances = segment
    where = {id(obj): j for j, obj in enumerate(samples)}
    at: list[int] = []
    src: list[int] = []
    for i, obj in enumerate(clustroids):
        j = where.get(id(obj))
        if j is not None:
            at.append(i)
            src.append(j)
    if not at:
        return None
    return np.asarray(at, dtype=np.intp), distances[src]


#: The seed of a leaf walk that knows nothing yet: candidate 0.
_FIRST = np.zeros(1, dtype=np.intp)


def pruned_leaf_distances(
    metric: DistanceFunction,
    node: Any,
    obj: Any,
    stats: PruningStats,
    segment: tuple[list[Any], np.ndarray] | None = None,
) -> np.ndarray:
    """D0 distances from ``obj`` to every entry of leaf ``node``, with
    triangle-inequality pruning.

    ``segment`` is what the descent's last non-leaf walk measured from
    ``obj`` (see :func:`segment_seeds`); the clustroids it holds seed the
    walk at no counted cost. Without a match the walk measures candidate
    0 first. Pruned slots hold ``+inf``; measured slots are bit-identical
    to the exhaustive ``one_to_many`` gather, and ``argmin`` over the
    result equals the exhaustive ``argmin`` (see module docstring). Never
    issues more counted calls than the exhaustive gather would.
    """
    geom, clustroids = ensure_leaf_geometry(metric, node, stats)
    n = len(clustroids)
    batch = geom.batch
    with site("leaf-d0"):
        out = np.full(n, np.inf, dtype=np.float64)
        seeded = None if segment is None else segment_seeds(segment, clustroids)
        if seeded is None:
            seeds: Any = _FIRST
            best = out[0] = float(metric.one_to_many(obj, batch[0:1])[0])
        else:
            seeds, values = seeded
            out[seeds] = values
            best = float(values.min())
        stop = best * (1.0 + TIE_RTOL)

        def measure(i: int) -> float:
            nonlocal best, stop
            value = out[i] = float(metric.one_to_many(obj, batch[i : i + 1])[0])
            if value < best:
                best = value
                stop = best * (1.0 + TIE_RTOL)
            return value

        measured, checks = best_first_leaf_scan(
            geom.pair, seeds, out[seeds], measure, lambda: stop
        )
        evaluated = len(seeds) + measured
        stats.queries += 1
        stats.bound_checks += checks
        stats.candidates_total += n
        stats.candidates_evaluated += evaluated
        stats.candidates_pruned += n - evaluated
        geom.walk = (obj, clustroids, out)
        return out


def pruned_segment_distances(
    metric: DistanceFunction,
    cache: Any,
    n_entries: int,
    obj: Any,
    stats: PruningStats,
) -> tuple[np.ndarray, tuple[Any, list[Any], np.ndarray]]:
    """D2 distances from ``obj`` to every entry of a non-leaf node, with
    per-segment triangle-inequality pruning over the node's sample cache.

    Pruned entries hold ``+inf``; measured entries are bit-identical
    to the exhaustive computation. Never issues more counted calls than the
    exhaustive gather (``len(flat)``) would.

    Returns ``(out, segment)``. ``segment`` is ``(obj, samples,
    distances)`` for the chosen entry, ``argmin(out)``, which is always
    measured in full, so a leaf walk that follows for the same object can
    start from those distances (:func:`pruned_leaf_distances`).
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
                lb, np.maximum.reduce(np.abs(pair[positions] - values[:, None])), out=lb
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
        checks = 0
        best = stop = np.inf
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
            checks += n_open
            i = int(entry_lb.argmin())
            bound = float(entry_lb[i])
            window = bound * TIE_RTOL
            if abs(bound - stop) <= window or (
                n_open > 1 and np.count_nonzero(entry_lb <= bound + window) > 1
            ):
                # Near a tie or the stopping bound: decide on the bounds as
                # the scalar walk reduces them (see module docstring).
                candidates = np.flatnonzero((entry_lb <= bound + window) & (closed == 0.0))
                exact = [
                    float(np.sqrt(lb_sq[offsets[j] : offsets[j + 1]].mean()))
                    for j in candidates
                ]
                k = int(np.argmin(exact))
                i, bound = int(candidates[k]), exact[k]
            if bound > stop:
                break
            closed[i] = np.inf
            n_open -= 1
            lo, first, hi = int(offsets[i]), int(gather_from[i]), int(offsets[i + 1])
            if first < hi:
                # Only a segment's first sample can be a pivot, so the
                # unmeasured samples are one contiguous run.
                admit(slice(first, hi), metric.one_to_many(obj, batch[first:hi]))
            seg = d_full[lo:hi]
            # Bit-identical to ``np.sqrt((seg**2).mean())``: the same
            # pairwise sum, divided by the count, correctly rounded root.
            value = out[i] = math.sqrt(np.add.reduce(seg * seg) / (hi - lo))
            if value < best:
                best = value
                stop = best * (1.0 + TIE_RTOL)
        stats.queries += 1
        stats.bound_checks += checks
        stats.candidates_total += n_entries
        stats.candidates_evaluated += n_entries - n_open
        stats.candidates_pruned += n_open
        i = int(out.argmin())
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        return out, (obj, cache.flat[lo:hi], d_full[lo:hi])
