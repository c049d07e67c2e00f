"""Authority-file construction — the end-to-end application of Section 7.

When bibliographic databases are integrated, variant spellings of the same
author must be reconciled into a joint *authority file*: classes of
equivalent strings, each with a canonical form. The paper uses BUBBLE-FM
with the edit distance as the "first pass" that a domain expert then
refines. This module packages that workflow:

1. cluster the records with BUBBLE-FM (single scan, edit distance);
2. assign every record to a cluster (tree-routed or exact second scan);
3. pick a canonical form per cluster — the clustroid, i.e. the variant
   closest to all others, optionally weighted by record frequency.

The output is an :class:`AuthorityFile` mapping every distinct string to its
class and canonical form, exactly the artifact "early aggregation" is meant
to produce: a reduced dataset for the (expensive) detailed analysis.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.preclusterer import BUBBLEFM
from repro.exceptions import EmptyDatasetError, ParameterError
from repro.metrics.base import DistanceFunction, site
from repro.metrics.cache import CachedDistance
from repro.metrics.string import EditDistance

__all__ = ["AuthorityFile", "build_authority_file"]


@dataclass
class AuthorityFile:
    """Equivalence classes of variant strings with canonical forms."""

    #: Canonical form of each class.
    canonical: list[str]
    #: Distinct member strings of each class.
    members: list[list[str]]
    #: Class index per input record (same order as the input scan).
    record_labels: np.ndarray
    #: True distance evaluations spent building the file.
    n_distance_calls: int
    #: Wall-clock seconds for the whole build.
    seconds: float
    #: Lookup from a distinct string to its class index.
    _index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self._index:
            for cls, group in enumerate(self.members):
                for s in group:
                    self._index[s] = cls

    @property
    def n_classes(self) -> int:
        return len(self.canonical)

    def lookup(self, record: str) -> str | None:
        """Canonical form for ``record``, or ``None`` if it is unknown."""
        cls = self._index.get(record)
        return self.canonical[cls] if cls is not None else None

    def class_of(self, record: str) -> int | None:
        """Class index for ``record``, or ``None`` if it is unknown."""
        return self._index.get(record)


def build_authority_file(
    records: Sequence[str],
    metric: DistanceFunction | None = None,
    threshold: float = 2.0,
    image_dim: int = 3,
    assignment: str = "tree",
    cache: bool = True,
    seed=None,
    **options,
) -> AuthorityFile:
    """Cluster variant strings into an authority file with BUBBLE-FM.

    Parameters
    ----------
    records:
        The raw record strings (duplicates expected and welcome).
    metric:
        Distance over strings; defaults to the unit-cost edit distance.
    threshold:
        Initial threshold ``T``: records within this distance of a cluster's
        clustroid join it. Lower = more, purer classes (the paper's
        tolerance knob from Table 3).
    image_dim:
        BUBBLE-FM's image dimensionality ``k``.
    assignment:
        ``"tree"`` (fast, approximate) or ``"linear"`` (exact) second scan.
    cache:
        Dedupe exact repeats so each distinct pair is measured once.
    **options:
        Further BUBBLE-FM build knobs (``max_nodes``, ``branching_factor``,
        ...; see :class:`~repro.core.config.BUBBLEFMConfig`).

    Returns
    -------
    :class:`AuthorityFile`
    """
    records = list(records)
    if not records:
        raise EmptyDatasetError("build_authority_file requires at least one record")
    if assignment not in ("tree", "linear"):
        raise ParameterError(f'assignment must be "tree" or "linear", got {assignment!r}')

    base = metric if metric is not None else EditDistance()
    effective: DistanceFunction = CachedDistance(base) if cache else base

    start = time.perf_counter()
    calls_before = effective.n_calls
    model = BUBBLEFM(
        effective,
        seed=seed,
        threshold=threshold,
        image_dim=image_dim,
        **options,
    ).fit(records)
    labels = model.assign(records, via=assignment)

    # Group distinct strings per class; canonical form = the member closest
    # to all distinct members, ties broken toward the most frequent record.
    frequency = Counter(records)
    members: list[list[str]] = [[] for _ in range(model.n_subclusters_)]
    seen: set[tuple[int, str]] = set()
    for record, cls in zip(records, labels):
        key = (int(cls), record)
        if key not in seen:
            seen.add(key)
            members[int(cls)].append(record)
    # Drop empty classes (sub-clusters that won no records in the scan).
    kept = [(i, group) for i, group in enumerate(members) if group]
    remap = {old: new for new, (old, _) in enumerate(kept)}
    members = [group for _, group in kept]
    labels = np.asarray([remap[int(c)] for c in labels], dtype=np.intp)

    with site("global-phase"):
        canonical = [_canonical_form(effective, group, frequency) for group in members]
    return AuthorityFile(
        canonical=canonical,
        members=members,
        record_labels=labels,
        n_distance_calls=effective.n_calls - calls_before,
        seconds=time.perf_counter() - start,
    )


def _canonical_form(
    metric: DistanceFunction, group: list[str], frequency: Counter
) -> str:
    if len(group) == 1:
        return group[0]
    best, best_key = group[0], (np.inf, 0)
    for candidate in group:
        dists = metric.one_to_many(candidate, group)
        rowsum = float(np.dot(dists, dists))
        key = (rowsum, -frequency[candidate])
        if key < best_key:
            best, best_key = candidate, key
    return best
