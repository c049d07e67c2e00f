"""Ratchets on reprolint suppression counts.

The BETULA refactor replaced every ``ss - n*|c|^2``-style catastrophic
cancellation in the CF* code with stable incremental forms (Welford/Chan
in ``birch/cf.py``, compensated slab RowSums in ``core/features.py``), so
the ``BETULA:`` marker that tagged "known-unstable, rewrite pending"
suppressions must never reappear. The irreducible remainder — FastMap's
cosine-law projection and Landmark-MDS double-centering, which are
*defined* on squared distances and accumulate nothing — is pinned site by
site. These counts may only go down; growing them means a new suppression
slipped in and needs the same scrutiny the originals got.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

#: The only RPL105 suppressions allowed to remain, pinned per file.
#: Each is a single-shot geometric formula defined on squared distances
#: (no running accumulation), so no stable incremental rewrite exists.
ALLOWED_RPL105 = {
    "repro/fastmap/fastmap.py": 2,
    "repro/fastmap/landmark.py": 1,
}


def _python_sources() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def _count(pattern: str, text: str) -> int:
    return len(re.findall(pattern, text))


def test_betula_marker_is_gone() -> None:
    """Zero ``BETULA:`` markers: every tagged suppression was rewritten
    into a stable form or re-justified as irreducible without the tag."""
    offenders = [
        str(path.relative_to(SRC))
        for path in _python_sources()
        if "BETULA:" in path.read_text()
    ]
    assert offenders == []


def test_rpl105_suppressions_pinned_to_irreducible_sites() -> None:
    census = {
        str(path.relative_to(SRC)): n
        for path in _python_sources()
        if (n := _count(r"disable=RPL105", path.read_text()))
    }
    assert census == ALLOWED_RPL105


def test_remaining_rpl105_suppressions_carry_justifications() -> None:
    """Every surviving suppression must say *why* it is irreducible —
    a bare ``disable=RPL105`` with no rationale is not acceptable."""
    for rel in ALLOWED_RPL105:
        for line in (SRC / rel).read_text().splitlines():
            if "disable=RPL105" in line:
                assert "irreducible" in line, f"{rel}: unjustified suppression"


def test_total_suppression_count_only_ratchets_down() -> None:
    """Global ceiling across all reprolint rules. Lower it when
    suppressions are removed; never raise it without removing the need."""
    total = sum(
        _count(r"reprolint:\s*disable=RPL\d+", path.read_text())
        for path in _python_sources()
    )
    assert total <= 15, (
        f"{total} reprolint suppressions in src/ — the ratchet allows at "
        "most 15. Rewrite the code instead of suppressing the rule."
    )
