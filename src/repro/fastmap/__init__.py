"""Distance-preserving transformations into coordinate ("image") spaces.

:class:`FastMap` (Faloutsos & Lin, SIGMOD 1995) embeds N objects of any
distance space into R^k with O(N·k) distance calls and can *incrementally*
map a new object with just 2k calls — the property BUBBLE-FM exploits at
non-leaf nodes (Section 5.1 of the paper).
"""

from repro.fastmap.fastmap import FastMap

__all__ = ["FastMap"]
