"""Experiment harnesses: one module per table/figure of Section 6.

Each module exposes ``run(scale)`` returning a structured result and
``format_result(...)`` rendering the same rows/series the paper reports.
``scale`` selects a parameter preset: ``smoke`` (seconds; CI tests),
``default`` (the benchmark suite), and ``full`` (closest to the paper's
sizes that remains laptop-friendly).

Index:

====================  =======================================================
module                reproduces
====================  =======================================================
``table1``            Table 1 -- CPU time of DFT vs iDFT vs AGMS updates
``fig3``              Figure 3 -- uniform-data error/message bounds
``fig4``              Figure 4 -- Zipf-data error bounds
``fig5``              Figure 5 -- per-value reconstruction squared errors
``fig6``              Figure 6 -- MSE vs compression factor (0.25 line)
``fig8``              Figure 8 -- coefficient overhead %% vs nodes
``fig9``              Figure 9 -- messages per result tuple at eps = 15%%
``fig10``             Figure 10 -- error vs kappa (a) and vs nodes (b)
``fig11``             Figure 11 -- throughput vs nodes at eps = 15%%
``chaos``             accuracy / cost / recovery vs injected failure rate
====================  =======================================================
"""

from repro.experiments.ascii_plot import bar_chart, line_chart
from repro.experiments.calibrate import calibrate_budget
from repro.experiments.harness import ExperimentScale, get_scale
from repro.experiments.reporting import format_table

__all__ = [
    "ExperimentScale",
    "get_scale",
    "calibrate_budget",
    "format_table",
    "bar_chart",
    "line_chart",
]
