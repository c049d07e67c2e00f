"""String metrics: edit distance and variants.

The paper motivates the distance-space setting with the edit distance, whose
``O(mn)`` cost dominates clustering time on string data (Sections 1 and 7).
This module provides:

* :class:`EditDistance` — Levenshtein distance, the metric used by the
  data-cleaning application (Section 7);
* :class:`WeightedEditDistance` — per-operation costs (a metric as long as
  the costs are symmetric and positive);
* :class:`DamerauLevenshteinDistance` — adds adjacent transposition, which
  matches one of the corruption classes in bibliographic data;
* :class:`RelativeEditDistance` — length-normalized edit distance as used by
  the RED comparator of French, Powell and Schulman.

:func:`edit_distance` is the general two-row DP (any operation costs).
With an ``upper_bound`` it caps the result at the bound, and it stops early
once every entry of the current row exceeds it.

The unit-cost metrics (:class:`EditDistance`, :class:`RelativeEditDistance`)
run one exact kernel instead: Myers' bit-parallel algorithm (J. ACM 46(3),
1999) in Hyyrö's Levenshtein form. One string's per-character match masks
are built once; each character of the other string then advances a whole
DP column with a fixed number of word operations on Python ints, so there
is no 64-character limit. The distance is the column's bottom cell, read
at the end as ``len`` plus the column's +1 bits minus its -1 bits.

**Lanes.** A gather measures one query against many targets, and every
word operation costs about the same whether the int holds one column or
forty. So the *targets* are the patterns, one per lane of a single int,
and the *query's* characters drive one pass that advances every lane at
once (the multiple-pattern packing of Hyyrö, Fredriksson and Navarro,
2005). Edit distance is symmetric, so the roles may swap. The layout:

* the lane width ``W`` is 32 bits while every target is shorter than 32
  characters, else the next multiple of 64 that leaves one spare bit;
* each target sits at the top of its lane, so lane ``k``'s bottom cell
  is bit ``k·W + W − 1``, and the spare bits below it never match;
* a character's match mask ORs every lane's mask of it;
* ``(ph << 1) | bottoms`` enters row 0 at every lane's lowest target bit,
  and ``pv`` is masked to the target bits: a carry or shift out of one
  lane lands in the next lane's spare bits, where ``pv`` and the masks
  are 0, and goes no further;
* the distances come out together: the lanes' +1 and -1 bits are
  popcounted per 32-bit unit in place (SWAR), and one ``int.to_bytes``
  plus a numpy view sums the units per lane.

Packing costs a few µs per target, so it pays only with reuse:
:meth:`EditDistance.prepare` returns a :class:`StringBatch`, which packs
itself on first use. Its slices read a range of the same lanes by
shifting, and ``pairwise`` packs its objects once and takes row ``i``
from the lanes above ``i``. ``cross`` runs the rows of its shorter side,
so labeling's ``cross(group, [center])`` is one pass from the center.

**Crossover.** :func:`levenshtein_block`'s routine is the one row entry
point: a gather of ``_PACKED_MIN`` (4) or more targets runs the packed
pass, a smaller one the scalar kernel per target, over the query's masks
(``EditDistance`` keeps the last query's). µs per gather from a query of
authority-file names (18.7 characters on average; Intel Xeon, 2 CPUs,
Python 3.11):

=======  ======  ==================  ===================
targets  scalar  packed, lanes kept  packed, lanes built
=======  ======  ==================  ===================
1        13.0    19.8                23.1
2        17.4    19.8                28.3
3        28.9    20.1                30.0
4        32.0    18.5                32.3
5        43.8    18.7                35.7
8        67.7    19.8                47.3
10       82.6    20.4                57.7
20       156.3   22.2                85.4
=======  ======  ==================  ===================

At 4 targets the pass wins with kept lanes and ties when it packs a
plain list itself. Every hook returns the scalar DP's integers for exactly
the pairs asked, and counting stays in the public wrappers, so counted
calls are unchanged.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.exceptions import MetricError, ParameterError
from repro.metrics.base import DistanceFunction

__all__ = [
    "edit_distance",
    "damerau_levenshtein",
    "levenshtein",
    "levenshtein_block",
    "StringBatch",
    "EditDistance",
    "WeightedEditDistance",
    "DamerauLevenshteinDistance",
    "RelativeEditDistance",
]


def edit_distance(
    a: str,
    b: str,
    insert_cost: float = 1.0,
    delete_cost: float = 1.0,
    substitute_cost: float = 1.0,
    upper_bound: float | None = None,
) -> float:
    """Weighted Levenshtein distance between two strings.

    Parameters
    ----------
    a, b:
        The strings to compare.
    insert_cost, delete_cost, substitute_cost:
        Per-operation costs. Defaults give the classic unit-cost edit
        distance. ``insert_cost`` must equal ``delete_cost`` for the result
        to be symmetric (and hence a metric); :class:`WeightedEditDistance`
        enforces this.
    upper_bound:
        If given, the result is capped at it: ``min(distance, upper_bound)``,
        whatever the argument order. The computation stops as soon as the
        distance provably exceeds the bound. Useful when the caller only
        needs to know whether two strings are within a threshold.

    Returns
    -------
    float
        The minimum total cost of transforming ``a`` into ``b`` (capped at
        ``upper_bound`` if given). Integral for unit costs.
    """
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    if la == 0:
        total = lb * insert_cost
        return min(total, upper_bound) if upper_bound is not None else total
    if lb == 0:
        total = la * delete_cost
        return min(total, upper_bound) if upper_bound is not None else total
    prev = [j * insert_cost for j in range(lb + 1)]
    curr = [0.0] * (lb + 1)
    for i in range(1, la + 1):
        curr[0] = i * delete_cost
        ca = a[i - 1]
        row_min = curr[0]
        for j in range(1, lb + 1):
            cost_sub = prev[j - 1] + (0.0 if ca == b[j - 1] else substitute_cost)
            cost_del = prev[j] + delete_cost
            cost_ins = curr[j - 1] + insert_cost
            best = cost_sub
            if cost_del < best:
                best = cost_del
            if cost_ins < best:
                best = cost_ins
            curr[j] = best
            if best < row_min:
                row_min = best
        if upper_bound is not None and row_min > upper_bound:
            return float(upper_bound)
        prev, curr = curr, prev
    total = prev[lb]
    return float(min(total, upper_bound) if upper_bound is not None else total)


def damerau_levenshtein(a: str, b: str) -> float:
    """Restricted Damerau-Levenshtein distance (adjacent transpositions).

    Uses the optimal-string-alignment recurrence with three rows; each pair
    of adjacent characters may be transposed at cost 1.
    """
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    if la == 0:
        return float(lb)
    if lb == 0:
        return float(la)
    prev2 = [0.0] * (lb + 1)
    prev = [float(j) for j in range(lb + 1)]
    curr = [0.0] * (lb + 1)
    for i in range(1, la + 1):
        curr[0] = float(i)
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cb = b[j - 1]
            cost = 0.0 if ca == cb else 1.0
            best = min(prev[j - 1] + cost, prev[j] + 1.0, curr[j - 1] + 1.0)
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb:
                best = min(best, prev2[j - 2] + 1.0)
            curr[j] = best
        prev2, prev, curr = prev, curr, prev2
    return float(prev[lb])


def _match_masks(query: str) -> dict[str, int]:
    """Per-character match masks of ``query``: bit ``i`` of ``masks[c]`` is
    set iff ``query[i] == c``. Built once per query, shared by every target."""
    masks: dict[str, int] = {}
    bit = 1
    for c in query:
        masks[c] = masks.get(c, 0) | bit
        bit <<= 1
    return masks


def _myers(masks: dict[str, int], m: int, target: str) -> int:
    """Unit-cost Levenshtein distance from a length-``m`` query to ``target``.

    Myers' bit-vector recurrence in Hyyrö's global-distance form: one DP
    column of the query is held as vertical +1/-1 delta bit-vectors
    (``pv``/``mv``) and each target character advances the whole column
    with a fixed number of word operations. The bottom cell of the last
    column is row 0's ``len(target)`` plus the column's deltas. Python ints
    make the vectors as wide as the query, so there is no length limit and
    the result is exact.
    """
    if m == 0:
        return len(target)
    mask = (1 << m) - 1
    pv, mv = mask, 0
    get = masks.get
    for c in target:
        eq = get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # Row 0 of the DP is 0, 1, 2, ...: every column enters with a +1.
        ph = ((mv | ~(xh | pv)) << 1) | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return len(target) + pv.bit_count() - mv.bit_count()


def levenshtein(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, computed bit-parallel (exact)."""
    return _myers(_match_masks(a), len(a), b)


#: Gathers of at least this many targets run one lane-packed pass; smaller
#: ones run the scalar kernel once per target. The module docstring gives
#: the table it was measured from.
_PACKED_MIN = 4


class _Lanes:
    """Targets packed one per lane of a Python int (see module docstring).

    ``width`` is the lane width ``W``; lane ``k`` holds target ``k`` in
    its top bits. ``masks[c]`` ORs every lane's match mask of ``c``,
    ``rows`` sets every lane's target bits and ``bottoms`` each lane's
    lowest target bit.
    """

    __slots__ = ("width", "size", "masks", "rows", "bottoms")

    def __init__(self, targets: Sequence[Any]) -> None:
        longest = max(len(_require_str(t)) for t in targets)
        width = 32 if longest < 32 else 64 * (longest // 64 + 1)
        masks: dict[str, int] = {}
        get = masks.get
        rows = bottoms = top = 0
        for t in targets:
            top += width
            if t:
                bit = 1 << (top - len(t))
                bottoms |= bit
                rows |= (bit << len(t)) - bit
                for c in t:
                    masks[c] = get(c, 0) | bit
                    bit <<= 1
        self.width = width
        self.size = len(targets)
        self.masks = masks
        self.rows = rows
        self.bottoms = bottoms


@functools.lru_cache(maxsize=64)
def _unit_masks(nbits: int) -> tuple[int, int, int, int, int]:
    """The SWAR popcount masks ``0x55.., 0x33.., 0x0f.., 0x00ff..,
    0x0000ffff..`` over ``nbits`` bits (a multiple of 32)."""
    ones = (1 << nbits) - 1
    return ones // 3, ones // 5, ones // 17, ones // 257, ones // 65537


def _packed_row(lanes: _Lanes, lo: int, hi: int, query: str) -> np.ndarray:
    """Distances from ``query`` to the targets in lanes ``lo..hi-1``.

    One Myers pass, driven by the query's characters, advances every lane
    at once. A lane's distance is then ``len(query)`` plus its ``pv``
    bits minus its ``mv`` bits: each 32-bit unit is popcounted in place
    (SWAR), and one ``to_bytes`` plus a numpy view sums the units per lane.
    """
    width = lanes.width
    masks, rows, bottoms = lanes.masks, lanes.rows, lanes.bottoms
    if lo or hi < lanes.size:
        # A sub-range: shift its lanes down and drop the ones above it.
        shift = lo * width
        cut = (1 << (hi * width)) - 1
        masks = {c: (masks[c] & cut) >> shift for c in set(query) if c in masks}
        rows = (rows & cut) >> shift
        bottoms = (bottoms & cut) >> shift
    pv, mv = rows, 0
    get = masks.get
    for c in query:
        eq = get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # Row 0 enters every lane at its bottom; bits shifted out of a
        # lane's top land in the next lane's spare bit, where ``pv`` is 0.
        ph = ((mv | ~(xh | pv)) << 1) | bottoms
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & rows
        mv = ph & xv
    n = hi - lo
    nbits = n * width
    x = pv | (mv << nbits)
    m1, m2, m4, m8, m16 = _unit_masks(2 * nbits)
    x -= (x >> 1) & m1
    x = (x & m2) + ((x >> 2) & m2)
    x = (x + (x >> 4)) & m4
    x = (x + (x >> 8)) & m8
    x = (x + (x >> 16)) & m16
    units = np.frombuffer(x.to_bytes(nbits // 4, "little"), dtype="<u4")
    counts = units.reshape(2, n, width // 32).sum(axis=2, dtype=np.int64)
    return (len(query) + counts[0] - counts[1]).astype(np.float64)


class StringBatch(Sequence[Any]):
    """A sequence of strings as :meth:`EditDistance.prepare` returns it.

    It indexes like a list: an int gives a string, a slice of at least
    ``_PACKED_MIN`` strings a batch over the same strings, made in O(1),
    and a shorter slice a plain list, as no packed pass reads it. The
    lanes are packed on the first packed pass through the batch or any
    slice of it, once for all of them, and a slice reads its range of
    those lanes. A batch pickles as a plain list of its own strings: no
    lanes, no other strings, and no new type in a checkpoint. Every hook
    reads a list the same way, only without kept lanes.
    """

    __slots__ = ("strings", "lo", "hi", "_lanes")

    def __init__(self, strings: Sequence[Any]) -> None:
        self.strings = list(strings)
        self.lo = 0
        self.hi = len(self.strings)
        #: The packed lanes of ``strings``, shared by every slice.
        self._lanes: list[_Lanes | None] = [None]

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, slice):
            start, stop, step = key.indices(self.hi - self.lo)
            if step != 1:
                return self.strings[self.lo : self.hi][key]
            if stop - start < _PACKED_MIN:
                # Too short for a packed pass: a plain list slice.
                return self.strings[self.lo + start : self.lo + stop]
            view = StringBatch.__new__(StringBatch)
            view.strings, view._lanes = self.strings, self._lanes
            view.lo = self.lo + start
            view.hi = self.lo + stop
            return view
        return self.strings[range(self.lo, self.hi)[key]]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.strings[self.lo : self.hi])

    def __reduce__(self) -> tuple[Any, ...]:
        return list, (self.strings[self.lo : self.hi],)

    def lanes(self) -> tuple[_Lanes, int]:
        """The packed lanes and the lane this batch starts at."""
        lanes = self._lanes[0]
        if lanes is None:
            lanes = self._lanes[0] = _Lanes(self.strings)
        return lanes, self.lo


def _as_batch(objects: Sequence[Any]) -> StringBatch:
    return objects if isinstance(objects, StringBatch) else StringBatch(objects)


def _levenshtein_row(
    query: str,
    targets: Sequence[Any],
    masks_of: Callable[[str], dict[str, int]] | None = None,
) -> np.ndarray:
    """Unit-cost Levenshtein distances from ``query`` to every target: one
    packed pass from ``_PACKED_MIN`` targets up, else the scalar kernel per
    target over ``masks_of(query)`` (default :func:`_match_masks`). Every
    row of the module goes here."""
    n = len(targets)
    if n >= _PACKED_MIN:
        lanes, lo = _as_batch(targets).lanes()
        return _packed_row(lanes, lo, lo + n, query)
    masks, m = (masks_of or _match_masks)(query), len(query)
    return np.fromiter(
        (_myers(masks, m, _require_str(t)) for t in targets), dtype=np.float64, count=n
    )


def levenshtein_block(query: str, targets: Sequence[str]) -> np.ndarray:
    """Unit-cost Levenshtein distances from ``query`` to every target.

    Exact — integral distances, equal to :func:`edit_distance` per pair.
    ``targets`` may be a list or a :class:`StringBatch`, whose packed
    lanes are reused across calls.
    """
    return _levenshtein_row(query, targets)


def _require_str(x: Any) -> str:
    if not isinstance(x, str):
        raise MetricError(f"string metric expects str objects, got {type(x).__name__}")
    return x


class _LevenshteinMetric(DistanceFunction):
    """Batch hooks shared by the unit-cost metrics, over ``_one_to_many``.

    :meth:`prepare` returns a :class:`StringBatch`. ``pairwise`` packs its
    objects once and takes row ``i`` from the lanes above ``i``. ``cross``
    runs the rows of the shorter side: the distance is symmetric, so
    ``cross(A, [c])`` is one row from ``c``.
    """

    def prepare(self, objects: Sequence) -> Sequence:
        return _as_batch(objects) if len(objects) else objects

    def _pairwise(self, objects: Sequence) -> np.ndarray:
        n = len(objects)
        batch = _as_batch(objects)
        upper = np.zeros((n, n), dtype=np.float64)
        for i in range(n - 1):
            upper[i, i + 1 :] = self._one_to_many(batch[i], batch[i + 1 :])
        return upper + upper.T

    def _cross(self, objects_a: Sequence, objects_b: Sequence) -> np.ndarray:
        if len(objects_b) < len(objects_a):
            batch = _as_batch(objects_a)
            return np.stack([self._one_to_many(b, batch) for b in objects_b], axis=1)
        batch = _as_batch(objects_b)
        return np.stack([self._one_to_many(a, batch) for a in objects_a])


class EditDistance(_LevenshteinMetric):
    """Unit-cost Levenshtein distance — the paper's canonical expensive metric.

    Every hook runs :func:`levenshtein_block`'s row routine. The scalar
    kernel reuses the previous query's match masks when it is the same
    object. The public wrappers charge by batch size before dispatch,
    so counted calls do not depend on the hook. With ``upper_bound`` every
    distance is capped at it (``min(d, upper_bound)``), which keeps the
    capped function symmetric.
    """

    name = "edit-distance"

    #: The last scalar query and its match masks. A routing descent
    #: gathers for one object several times in a row, so the masks are
    #: built once per run of gathers. Keyed by identity; never pickled.
    _last_query: str | None = None
    _last_masks: dict[str, int] = {}

    def __init__(self, upper_bound: float | None = None):
        super().__init__()
        if upper_bound is not None and upper_bound <= 0:
            raise ParameterError(f"upper_bound must be > 0, got {upper_bound}")
        self.upper_bound = None if upper_bound is None else float(upper_bound)

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_last_query", None)
        state.pop("_last_masks", None)
        return state

    def _distance(self, a: Any, b: Any) -> float:
        d = float(levenshtein(_require_str(a), _require_str(b)))
        return d if self.upper_bound is None else min(d, self.upper_bound)

    def _query_masks(self, query: str) -> dict[str, int]:
        if query is not self._last_query:
            self._last_masks = _match_masks(query)
            self._last_query = query
        return self._last_masks

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        row = _levenshtein_row(_require_str(obj), objects, self._query_masks)
        return row if self.upper_bound is None else np.minimum(row, self.upper_bound)


class WeightedEditDistance(DistanceFunction):
    """Edit distance with custom operation costs.

    ``indel_cost`` is shared by insertion and deletion so the function stays
    symmetric; ``substitute_cost`` must not exceed ``2 * indel_cost`` or the
    triangle inequality could be violated through delete+insert paths.
    """

    def __init__(self, indel_cost: float = 1.0, substitute_cost: float = 1.0):
        super().__init__()
        if indel_cost <= 0 or substitute_cost <= 0:
            raise ParameterError("edit operation costs must be positive")
        if substitute_cost > 2 * indel_cost:
            raise ParameterError(
                "substitute_cost must be <= 2 * indel_cost to remain a metric "
                f"(got substitute={substitute_cost}, indel={indel_cost})"
            )
        self.indel_cost = float(indel_cost)
        self.substitute_cost = float(substitute_cost)
        self.name = f"weighted-edit(indel={indel_cost:g},sub={substitute_cost:g})"

    def _distance(self, a: Any, b: Any) -> float:
        return edit_distance(
            _require_str(a),
            _require_str(b),
            insert_cost=self.indel_cost,
            delete_cost=self.indel_cost,
            substitute_cost=self.substitute_cost,
        )


class DamerauLevenshteinDistance(DistanceFunction):
    """Edit distance that also counts adjacent transpositions as one operation.

    Matches the "transposition of characters" corruption class the paper
    lists for bibliographic strings. Note the restricted (OSA) variant is not
    a true metric in pathological cases; the unrestricted variant is, but the
    OSA form is what approximate-matching systems typically deploy and it
    behaves metrically on natural-language name data.
    """

    name = "damerau-levenshtein"

    def _distance(self, a: Any, b: Any) -> float:
        return damerau_levenshtein(_require_str(a), _require_str(b))


class RelativeEditDistance(_LevenshteinMetric):
    """Length-normalized edit distance ``ed(a, b) / max(|a|, |b|)``.

    This is the similarity notion behind the RED clustering comparator
    (French, Powell & Schulman; used as the baseline in Table 3): two
    variants of one long name can differ by several characters, so the
    threshold must scale with string length. A gather runs one
    :func:`levenshtein_block` row and divides it by the lengths, which is
    bit-identical to the scalar quotient: both divide the same two exact
    integers with one correctly rounded division.
    """

    name = "relative-edit-distance"

    def _distance(self, a: Any, b: Any) -> float:
        a, b = _require_str(a), _require_str(b)
        longer = max(len(a), len(b))
        if longer == 0:
            return 0.0
        return levenshtein(a, b) / longer

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        query = _require_str(obj)
        row = _levenshtein_row(query, objects)
        longer = np.fromiter(map(len, objects), dtype=np.float64, count=len(objects))
        np.maximum(longer, len(query), out=longer)
        return np.divide(row, longer, out=np.zeros_like(row), where=longer > 0)
