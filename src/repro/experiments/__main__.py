"""CLI for the experiment suite: ``python -m repro.experiments <which>``."""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    SCALES,
    run_ablation_clarans,
    run_ablation_image_dim,
    run_ablation_indexes,
    run_ablation_labeling,
    run_ablation_order,
    run_ablation_representation,
    run_ablation_sample_size,
    run_fig123_ds2_centers,
    run_fig4_time_vs_points,
    run_fig5_ncd_vs_points,
    run_fig6_time_vs_clusters,
    run_table1,
    run_table1b_strings,
    run_table2,
    run_table3,
)
from repro.experiments.results import save_results

_EXPERIMENTS = {
    "table1": run_table1,
    "table1b": run_table1b_strings,
    "table2": run_table2,
    "table3": run_table3,
    "fig123": run_fig123_ds2_centers,
    "fig4": run_fig4_time_vs_points,
    "fig5": run_fig5_ncd_vs_points,
    "fig6": run_fig6_time_vs_clusters,
    "a1": run_ablation_representation,
    "a2": run_ablation_sample_size,
    "a3": run_ablation_image_dim,
    "a4": run_ablation_order,
    "a6": run_ablation_labeling,
    "a7": run_ablation_clarans,
    "a8": run_ablation_indexes,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "which",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="experiment id, or 'all'",
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="laptop")
    parser.add_argument("--out", help="also save results to this JSON file")
    args = parser.parse_args(argv)

    names = sorted(_EXPERIMENTS) if args.which == "all" else [args.which]
    results = []
    for name in names:
        result = _EXPERIMENTS[name](scale=args.scale)
        results.append(result)
        print(result.render())
        print()
    if args.out:
        save_results(args.out, results)
        print(f"results saved to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
