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
1999) in Hyyrö's Levenshtein form. A query's per-character match masks are
built once; each target character then advances a whole DP column with a
fixed number of word operations on Python ints, so there is no 64-character
limit. :func:`levenshtein_block` is the one row function: masks once, the
kernel per target. ``EditDistance``'s ``one_to_many`` runs its kernel and
keeps the last query's masks, so consecutive gathers for one object build
them once; ``pairwise`` fills the upper triangle one row at a time, and
``cross`` stacks rows. The integer distances equal the scalar DP's;
counting stays in the public wrappers, so counted calls are unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.exceptions import MetricError, ParameterError
from repro.metrics.base import DistanceFunction

__all__ = [
    "edit_distance",
    "damerau_levenshtein",
    "levenshtein",
    "levenshtein_block",
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
    with a fixed number of word operations; ``score`` tracks the bottom
    cell. Python ints make the vectors as wide as the query, so there is
    no length limit and the result is exact.
    """
    if m == 0:
        return len(target)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    get = masks.get
    for c in target:
        eq = get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # Row 0 of the DP is 0, 1, 2, ...: every column enters with a +1.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def levenshtein(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, computed bit-parallel (exact)."""
    return _myers(_match_masks(a), len(a), b)


def levenshtein_block(query: str, targets: Sequence[str]) -> np.ndarray:
    """Unit-cost Levenshtein distances from ``query`` to every target.

    The query's match masks are built once and the bit-parallel kernel
    runs per target: ``O(ceil(len(query) / w) * len(target))`` operations
    on ``w``-bit words per pair. Exact — integral distances, equal to
    :func:`edit_distance` per pair.
    """
    return _levenshtein_row(_match_masks(query), len(query), targets)


def _levenshtein_row(masks: dict[str, int], m: int, targets: Sequence[str]) -> np.ndarray:
    """The kernel of :func:`levenshtein_block` over prepared match masks."""
    return np.fromiter(
        (_myers(masks, m, t) for t in targets), dtype=np.float64, count=len(targets)
    )


def _require_str(x: Any) -> str:
    if not isinstance(x, str):
        raise MetricError(f"string metric expects str objects, got {type(x).__name__}")
    return x


class EditDistance(DistanceFunction):
    """Unit-cost Levenshtein distance — the paper's canonical expensive metric.

    Every hook runs the bit-parallel kernel: ``one_to_many`` is one
    :func:`levenshtein_block` row (reusing the masks of the previous
    call's query when it is the same object), ``pairwise`` fills its
    upper triangle row by row and mirrors it, and the inherited ``cross``
    stacks rows. The public wrappers charge by batch size before dispatch,
    so counted calls do not depend on the hook. With ``upper_bound`` every
    distance is capped at it (``min(d, upper_bound)``), which keeps the
    capped function symmetric.
    """

    name = "edit-distance"

    #: The last ``one_to_many`` query and its match masks. A routing
    #: descent gathers for one object several times in a row, so the masks
    #: are built once per run of gathers. Keyed by identity; never pickled.
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

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        if obj is not self._last_query:
            self._last_masks = _match_masks(_require_str(obj))
            self._last_query = obj
        row = _levenshtein_row(
            self._last_masks, len(obj), [_require_str(t) for t in objects]
        )
        return row if self.upper_bound is None else np.minimum(row, self.upper_bound)

    def _pairwise(self, objects: Sequence) -> np.ndarray:
        n = len(objects)
        upper = np.zeros((n, n), dtype=np.float64)
        for i in range(n - 1):
            upper[i, i + 1 :] = self._one_to_many(objects[i], objects[i + 1 :])
        return upper + upper.T


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


class RelativeEditDistance(DistanceFunction):
    """Length-normalized edit distance ``ed(a, b) / max(|a|, |b|)``.

    This is the similarity notion behind the RED clustering comparator
    (French, Powell & Schulman; used as the baseline in Table 3): two
    variants of one long name can differ by several characters, so the
    threshold must scale with string length.
    """

    name = "relative-edit-distance"

    def _distance(self, a: Any, b: Any) -> float:
        a, b = _require_str(a), _require_str(b)
        longer = max(len(a), len(b))
        if longer == 0:
            return 0.0
        return levenshtein(a, b) / longer
