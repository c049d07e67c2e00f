"""CF*-tree node structures (Section 3.2).

A CF*-tree is a height-balanced tree. Leaf nodes hold up to ``B`` leaf
entries, each the CF* of one evolving cluster. Non-leaf nodes hold up to
``B`` entries of the form ``(CF*, child)``; the non-leaf CF* exists only to
*guide* new objects toward their prospective cluster, and its concrete
content is owned by the algorithm policy (sample objects for BUBBLE, sample
objects plus an image-space centroid for BUBBLE-FM, an additive vector CF
for BIRCH).
"""

from __future__ import annotations

from typing import Any

from repro.core.features import ClusterFeature

__all__ = ["LeafNode", "NonLeafNode", "NonLeafEntry"]


class _Node:
    """What both node kinds share: their ``entries``, policy-owned ``aux``
    state, and a ``version``.

    ``version`` counts the insertions that passed through this node (see
    :meth:`~repro.core.cftree.CFTree._insert_into`). It is node-local, not
    a copy of the tree's counter, so an index that remembered a node at
    some version knows the node and everything below it are unchanged
    while the two still match.
    """

    __slots__ = ("entries", "aux", "version")

    def __init__(self, entries: list[Any] | None = None) -> None:
        self.entries = entries if entries is not None else []
        self.aux: Any = None
        self.version = 0

    def __len__(self) -> int:
        return len(self.entries)


class LeafNode(_Node):
    """A leaf node: a list of leaf-level cluster features.

    ``aux`` is policy-owned acceleration state (the pruned routing engine
    caches pivot geometry there); the framework never inspects it, and a
    ``None`` value is always legal — caches are rebuilt lazily.
    """

    __slots__ = ()
    is_leaf = True
    entries: list[ClusterFeature]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LeafNode({len(self.entries)} entries)"


class NonLeafEntry:
    """One ``(CF*, child)`` pair of a non-leaf node.

    ``summary`` is policy-owned: the BIRCH* framework never inspects it, it
    only asks the policy to refresh it and to measure distances against it.
    """

    __slots__ = ("child", "summary")

    def __init__(self, child: Any, summary: Any=None):
        self.child = child
        self.summary = summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.child.is_leaf else "non-leaf"
        return f"NonLeafEntry({kind} child, {len(self.child.entries)} entries)"


class NonLeafNode(_Node):
    """A non-leaf node: entries guiding descent, plus policy-owned ``aux``
    state shared by the whole node (BUBBLE-FM stores its per-node FastMap
    there)."""

    __slots__ = ()
    is_leaf = False
    entries: list[NonLeafEntry]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NonLeafNode({len(self.entries)} entries)"
