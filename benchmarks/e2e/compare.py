"""Compare two ledgers written by ``python -m benchmarks.e2e.run --out``.

    python -m benchmarks.e2e.compare A.json B.json

One row per (workload, end-to-end metric): both values, the ratio B / A
with its base, the bound, and a verdict:

* ``ok``          B is no worse than A by more than the bound (host
                  metrics) or equal to A (model outputs: simulated, so
                  they must match exactly on one seed);
* ``worse``       it is not;
* ``unresolved``  the two runs' own samples scatter too widely for this
                  pair to tell: the quartile distance of the samples as
                  a share of their median, over the square root of
                  their number (the scatter of their mean), is wider
                  than the bound.  The samples are the twelve per-slice
                  ratios B / A for ``tuples_per_s`` and each side's
                  set-up times for ``setup_s``.

Result digests are reported as same / different.  The exit code is
non-zero if any row is ``worse``.  A is the base of every ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from typing import Dict, List, Optional

from benchmarks.e2e import ledger


def _resolution(values: List[float]) -> float:
    """Scatter of the mean of ``values``: their quartile distance as a
    share of the median, over sqrt(n) (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    spread = (quartiles[2] - quartiles[0]) / abs(statistics.median(values))
    return spread / math.sqrt(len(values))


def resolution(metric: str, a: Dict[str, object], b: Dict[str, object]) -> Optional[float]:
    """The smallest change this pair of runs can tell, where they carry
    samples to judge by."""
    if metric == "tuples_per_s":
        if len(a["slice_rates"]) != len(b["slice_rates"]):
            return None
        return _resolution([y / x for x, y in zip(a["slice_rates"], b["slice_rates"])])
    if metric == "setup_s":
        return max(_resolution(a["setup_samples"]), _resolution(b["setup_samples"]))
    return None


def verdict(metric: ledger.Metric, a: Dict[str, object], b: Dict[str, object]) -> str:
    before, after = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
    if metric.bound is None:
        return "ok" if before == after else "worse"
    scatter = resolution(metric.name, a, b)
    if scatter is not None and scatter > metric.bound:
        return "unresolved"
    worsening = (before - after if metric.better == "higher" else after - before) / before
    return "worse" if worsening > metric.bound else "ok"


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Dict[str, object]]:
    """The rows of the comparison, workloads in A's order."""
    rows = []
    for name, before in a["workloads"].items():
        after = b["workloads"].get(name)
        if after is None:
            rows.append({"workload": name, "metric": "(workload)", "verdict": "worse", "note": "missing in B"})
            continue
        for metric in ledger.END_TO_END:
            x, y = before["end_to_end"][metric.name], after["end_to_end"][metric.name]
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "a": x,
                    "b": y,
                    "ratio": y / x if x else None,
                    "bound": metric.bound,
                    "verdict": verdict(metric, before, after),
                }
            )
        same = before["result_digest"] == after["result_digest"]
        rows.append(
            {
                "workload": name,
                "metric": "result_digest",
                "verdict": "ok" if same else "worse",
                "note": "same" if same else "different",
            }
        )
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    lines = [
        "%-16s %-18s %14s %14s  %-22s %-7s %s"
        % ("workload", "metric", "A", "B", "B / A", "bound", "verdict")
    ]
    for row in rows:
        if "a" not in row:
            lines.append(
                "%-16s %-18s %14s %14s  %-22s %-7s %s"
                % (row["workload"], row["metric"], "", "", row["note"], "", row["verdict"])
            )
            continue
        ratio = (
            "%.4fx of %.6g %s" % (row["ratio"], row["a"], row["unit"])
            if row["ratio"] is not None
            else "base is 0"
        )
        bound = "exact" if row["bound"] is None else "%.0f %%" % (100 * row["bound"])
        lines.append(
            "%-16s %-18s %14.6g %14.6g  %-22s %-7s %s"
            % (row["workload"], row["metric"], row["a"], row["b"], ratio, bound, row["verdict"])
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the base ledger")
    parser.add_argument("b", help="the ledger compared against it")
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        a = json.load(handle)
    with open(args.b) as handle:
        b = json.load(handle)
    for key in ("seed", "seconds", "smoke"):
        if a[key] != b[key]:
            print("note: %s differs (%r vs %r): model outputs and digests cannot match" % (key, a[key], b[key]))
    rows = compare(a, b)
    print(format_rows(rows))
    worse = [row for row in rows if row["verdict"] == "worse"]
    print("%d rows, %d worse, %d unresolved" % (
        len(rows), len(worse), sum(row["verdict"] == "unresolved" for row in rows)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
