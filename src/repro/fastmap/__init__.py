"""Distance-preserving transformations into coordinate ("image") spaces.

:class:`FastMap` (Faloutsos & Lin, SIGMOD 1995) is the workhorse: it embeds
N objects of any distance space into R^k with O(N·k) distance calls and can
*incrementally* map a new object with just 2k calls — the property BUBBLE-FM
exploits at non-leaf nodes (Section 5.1 of the paper).

:func:`classical_mds` is the exact (but O(N^2)-distance, O(N^3)-time)
Torgerson construction behind Lemma 4.1; the tests use it as ground truth
for FastMap's approximation on small inputs.
"""

from repro.fastmap.fastmap import FastMap
from repro.fastmap.mds import classical_mds, stress

__all__ = ["FastMap", "classical_mds", "stress"]
