"""Command-line reproduction report: every table and figure in one run.

Usage::

    python -m repro.experiments.report [scale] [--only table1,fig3,...]
        [--jobs N] [--no-cache] [--cache-dir DIR]

``scale`` is ``smoke``, ``bench``, ``default`` (the default) or ``full``.
The analytic experiments (Table 1, Figures 3-6) ignore the scale's
simulation parameters and use their own signal sizes.

``--jobs`` fans simulation cells over pool workers (byte-identical
simulation output at any N; Table 1's timings always run serially); the
run-result cache is on by default, so a repeated report recomputes only
the cells whose configuration or code changed -- ``--no-cache`` forces
everything fresh.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cli import non_negative_int
from repro.config import WorkloadKind
from repro.experiments import (
    chaos,
    fig3,
    fig4,
    fig5,
    fig6,
    fig8,
    fig9,
    fig10,
    fig11,
    table1,
)
from repro.experiments.ascii_plot import line_chart

ALL_EXPERIMENTS = (
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "chaos",
)


def _banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def run_report(scale: str, only, jobs: int = 0, cache=None) -> None:
    """Print every selected section."""
    selected = set(only) if only else set(ALL_EXPERIMENTS)
    started = time.time()

    if "table1" in selected:
        _banner("Table 1 -- CPU time: full DFT vs incremental DFT vs AGMS")
        print(table1.format_result(table1.run()))

    if "fig3" in selected:
        _banner("Figure 3 -- uniform-data bounds (Theorems 1-2)")
        rows = fig3.run(50)
        print(fig3.format_result(rows[:8] + rows[-8:]))
        print()
        print(
            line_chart(
                {
                    "eps T=1": [(r.num_nodes, r.error_t1) for r in rows],
                    "eps T=logN": [(r.num_nodes, r.error_tlog) for r in rows],
                },
                y_label="epsilon (uniform)",
            )
        )

    if "fig4" in selected:
        _banner("Figure 4 -- Zipf-data bounds (Theorem 3, alpha = 0.4)")
        zipf_rows = fig4.run(20)
        print(fig4.format_result(zipf_rows))
        print()
        print(
            line_chart(
                {
                    "zipf O(1)": [(r.num_nodes, r.error_o1) for r in zipf_rows],
                    "zipf O(logN)": [(r.num_nodes, r.error_olog) for r in zipf_rows],
                    "uniform O(logN)": [
                        (r.num_nodes, r.uniform_error_olog) for r in zipf_rows
                    ],
                },
                y_label="epsilon",
            )
        )

    if "fig5" in selected:
        _banner("Figure 5 -- reconstruction squared errors (stock stream)")
        print(fig5.format_result(fig5.run()))

    if "fig6" in selected:
        _banner("Figure 6 -- E[MSE] vs compression factor (0.25 line)")
        print(fig6.format_result(fig6.run()))

    if "fig8" in selected:
        _banner("Figure 8 -- coefficient overhead %% vs nodes (scale=%s)" % scale)
        print(fig8.format_result(fig8.run(scale, jobs=jobs, cache=cache)))

    if "fig9" in selected:
        _banner("Figure 9 -- messages per result tuple at eps=15%% (scale=%s)" % scale)
        cells = fig9.run(
            scale,
            workloads=(WorkloadKind.UNIFORM, WorkloadKind.ZIPF),
            jobs=jobs,
            cache=cache,
        )
        print(fig9.format_result(cells))

    if "fig10" in selected:
        _banner("Figure 10a -- error vs kappa (scale=%s)" % scale)
        panel_a = fig10.run_panel_a(scale, jobs=jobs, cache=cache)
        print(fig10.format_panel_a(panel_a))
        print()
        series_a = {}
        for row in panel_a:
            series_a.setdefault(row.algorithm, []).append((row.kappa, row.epsilon))
        print(line_chart(series_a, y_label="epsilon vs kappa"))
        _banner("Figure 10b -- error vs nodes (scale=%s)" % scale)
        panel_b = fig10.run_panel_b(scale, jobs=jobs, cache=cache)
        print(fig10.format_panel_b(panel_b))
        print()
        series_b = {}
        for row in panel_b:
            series_b.setdefault(row.algorithm, []).append((row.num_nodes, row.epsilon))
        print(line_chart(series_b, y_label="epsilon vs N"))

    if "fig11" in selected:
        _banner("Figure 11 -- throughput at eps=15%% (scale=%s)" % scale)
        throughput_rows = fig11.run(scale, jobs=jobs, cache=cache)
        print(fig11.format_result(throughput_rows))
        print()
        series_t = {}
        for row in throughput_rows:
            series_t.setdefault(row.algorithm, []).append(
                (row.num_nodes, row.sustained_throughput)
            )
        print(line_chart(series_t, y_label="sustained results/s"))

    if "chaos" in selected:
        _banner("Chaos sweep -- accuracy vs failure rate (scale=%s)" % scale)
        chaos_rows = chaos.run(scale, jobs=jobs, cache=cache)
        print(chaos.format_result(chaos_rows))
        print()
        print(chaos.figure(chaos_rows))

    print()
    print("report complete in %.1f s" % (time.time() - started))
    # Cache provenance prints *after* the timing line.  Everything above
    # it except Table 1's wall-clock rows is byte-identical across jobs
    # and cache settings; everything below is run provenance.
    if cache is not None:
        print(cache.stats_line())
        cache.write_manifest({"sweep": "report", "scale": scale})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", default="bench",
                        choices=["smoke", "bench", "default", "full"])
    parser.add_argument(
        "--only",
        help="comma-separated subset of: %s" % ", ".join(ALL_EXPERIMENTS),
    )
    parser.add_argument(
        "--jobs",
        type=non_negative_int,
        default=0,
        metavar="N",
        help="pool workers for simulation sweeps (default: 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell instead of reusing the run-result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default="",
        metavar="DIR",
        help="run-result cache location (default: REPRO_CACHE_DIR or .repro-cache)",
    )
    return parser


def main(argv=None) -> int:
    from repro.parallel import resolve_cache

    parser = build_parser()
    args = parser.parse_args(argv)
    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",")]
        unknown = set(only) - set(ALL_EXPERIMENTS)
        if unknown:
            parser.error("unknown experiments: %s" % ", ".join(sorted(unknown)))
    cache = resolve_cache(args.no_cache, args.cache_dir)
    run_report(args.scale, only, jobs=args.jobs, cache=cache)
    return 0


if __name__ == "__main__":
    sys.exit(main())
