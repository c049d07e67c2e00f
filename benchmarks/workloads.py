"""Workloads shared by the benchmark gates.

The gates scan the Figure 4–6 cell-grid workloads with the tree
parameters of Section 6.1. Each gate builds what it checks directly and
compares against constants pinned in its own module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.datasets.vector import make_cell_dataset
from repro.experiments.config import paper_max_nodes, resolve_scale

__all__ = ["TREE_PARAMS", "CellWorkload", "cell_workloads"]

#: Tree parameters shared with the figure experiments (Section 6.1).
TREE_PARAMS = dict(branching_factor=15, sample_size=75, representation_number=10)


@dataclass(frozen=True)
class CellWorkload:
    """One Figure 4–6 style cell-grid dataset."""

    name: str
    n_clusters: int
    n_points: int
    seed: int
    dim: int = 20

    @property
    def max_nodes(self) -> int:
        """The paper's node budget for this many clusters."""
        return paper_max_nodes(self.n_clusters)

    def dataset(self) -> Any:
        return make_cell_dataset(
            dim=self.dim, n_clusters=self.n_clusters,
            n_points=self.n_points, seed=self.seed,
        )


def cell_workloads(scale: str = "smoke") -> list[CellWorkload]:
    """The Figure 4, 5 and 6 cell workloads at ``scale``."""
    cfg = resolve_scale(scale)
    return [
        CellWorkload("fig4_cells", 50, max(cfg.sweep_points), 50),
        CellWorkload("fig5_cells", 50, max(cfg.sweep_points), 60),
        CellWorkload("fig6_cells", max(cfg.sweep_clusters), cfg.fig6_points, 70),
    ]

