"""CLARANS: randomized medoid search (Ng & Han, VLDB 1994).

Section 2 discusses CLARANS as the prior medoid-based method for spatial
data mining; we include a faithful implementation as a main-memory
comparator — it illustrates exactly the drawbacks the paper cites (all
objects must fit in memory; cost grows steeply with N), which the
ablation benchmarks quantify.

:mod:`repro.clarans.clara` adds the CLARA-style sampled variant: multiple
subsamples searched one after another, candidates scored by full-dataset
cost, exact CLARANS kept as the quality reference.
"""

from repro.clarans.clara import CLARA
from repro.clarans.clarans import CLARANS

__all__ = ["CLARANS", "CLARA"]
