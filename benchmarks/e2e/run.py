"""The repo's benchmark: four workloads on the N=20 cell, one after another.

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 7 --out benchmarks/e2e/out/head.json
    PYTHONPATH=src python -m benchmarks.e2e.run --seed 7 --trace --out benchmarks/e2e/out/head-traced.json
    python3 benchmarks/e2e/run.py --workload dftt-zipf-n20 --seed 7 --seconds 6 --trace 0

Every workload runs in its own fresh child process, never two at once
(the box has two cores and the simulator is single-threaded).  The
runner prints every metric by name with its unit, checks the outputs
(fatal on failure) and, with ``--out``, writes the JSON ledger that
``python -m benchmarks.e2e.compare`` reads.  ``--trace`` runs every
workload a second time with spans recorded from the benchmark's own
files; end-to-end metrics always come from the untraced run.

With ``--workload`` the last line of standard output is the one JSON
object the benchmark driver reads (``BENCHMARK.json``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    # Run as a script: import the package by its full name from the repo
    # root (and keep this directory's module names off ``sys.path``).
    sys.path[0] = str(ROOT)

from benchmarks.e2e import ledger  # noqa: E402
from benchmarks.e2e.cell import (  # noqa: E402
    BY_NAME,
    CELL,
    DEFAULT_SECONDS,
    SMOKE_CELL,
    SMOKE_TOTAL_TUPLES,
    WORKLOADS,
    Workload,
)

SETUP_REPEATS = 5
"""Fresh processes whose set-up is timed per run (one on the smoke cell);
``setup_s`` is their median."""

CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A child failed or an output check did not hold."""


def _child(arguments: List[str]) -> Dict[str, object]:
    """Run one child to completion and return the record it printed."""
    environment = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [path for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path]
    )
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child"] + arguments,
        cwd=str(ROOT),
        env=environment,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise BenchmarkError(
            "child %s exited with code %d" % (" ".join(arguments), completed.returncode)
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    spans_out: Optional[str] = None,
) -> Dict[str, object]:
    """Run one workload (untraced, then traced if asked) and derive its metrics.

    Raises :class:`BenchmarkError` if a child fails; output-check
    failures are returned in ``entry["failures"]`` for the caller to act on.
    """
    cell = SMOKE_CELL if smoke else CELL
    measured = (
        SMOKE_TOTAL_TUPLES - cell.warmup_tuples
        if smoke
        else workload.measured_tuples(seconds)
    )
    arguments = [
        "--workload", workload.name, "--seed", str(seed), "--measured", str(measured),
    ] + (["--smoke"] if smoke else [])
    untraced = _child(arguments)
    setup_samples = [untraced["phases"]["setup"]["ref_s"]] + [
        _child(arguments + ["--setup-only"])["ref_s"]
        for _ in range(0 if smoke else SETUP_REPEATS - 1)
    ]
    exact = workload.algorithm == "BASE"
    failures = ledger.check_outputs(untraced, workload.clean, exact)
    rates = ledger.slice_rates(untraced)
    entry: Dict[str, object] = {
        "why": workload.why,
        "warmup_tuples": untraced["warmup_tuples"],
        "measured_tuples": measured,
        "end_to_end": ledger.end_to_end(untraced, setup_samples),
        "ops_attempted": untraced["ops_attempted"],
        "ops_failed": untraced["ops_failed"],
        "result_digest": untraced["result_digest"],
        "slice_rates": rates,
        "setup_samples": setup_samples,
        "cpu_share": untraced["cpu_share"],
        "noisy": untraced["cpu_share"] < ledger.NOISY_CPU_SHARE,
        "wall_s": {name: phase["wall_s"] for name, phase in untraced["phases"].items()},
        "versions": untraced["versions"],
    }
    if trace:
        traced = _child(arguments + ["--trace"] + (["--spans-out", spans_out] if spans_out else []))
        failures += ledger.check_outputs(traced, workload.clean, exact)
        if traced["result_digest"] != untraced["result_digest"]:
            failures.append(
                "traced and untraced runs of seed %d differ: %s vs %s"
                % (seed, traced["result_digest"], untraced["result_digest"])
            )
        entry["traced_digest"] = traced["result_digest"]
        entry["per_layer"] = ledger.per_layer(traced, untraced)
        entry["spans"] = traced["spans"]
    entry["failures"] = failures
    return entry


def environment(entries: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Where the numbers came from; recorded in every output file."""
    versions = next(iter(entries.values()))["versions"]
    return {
        "nproc": os.cpu_count(),
        "load_average": list(os.getloadavg()),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "machine": platform.machine(),
        "system": "%s %s" % (platform.system(), platform.release()),
    }


def print_entry(name: str, entry: Dict[str, object]) -> None:
    rates = entry["slice_rates"]
    print(
        "%s  (%d + %d tuples, cpu/wall %.3f%s; slice rates: median %.1f, min %.1f, n = %d)"
        % (
            name,
            entry["warmup_tuples"],
            entry["measured_tuples"],
            entry["cpu_share"],
            ", noisy" if entry["noisy"] else "",
            statistics.median(rates),
            min(rates),
            len(rates),
        )
    )
    for section in ("end_to_end", "per_layer"):
        for metric, value in entry.get(section, {}).items():
            print("  %-44s %16.6g %s" % (metric, value, ledger.UNITS[metric]))
    print("  %-44s %16d count" % ("ops_attempted", entry["ops_attempted"]))
    print("  %-44s %16d count" % ("ops_failed", entry["ops_failed"]))
    print("  %-44s %s" % ("result_digest", entry["result_digest"]))
    for failure in entry["failures"]:
        print("  CHECK FAILED: %s" % failure)


def driver_line(entry: Dict[str, object], trace: bool) -> str:
    """The one JSON object ``BENCHMARK.json``'s driver reads."""
    if trace:
        values = entry["per_layer"]
    else:
        values = {name: entry["end_to_end"][name] for name in ledger.DRIVER_END_TO_END}
    return json.dumps(
        {
            "correct": not entry["failures"],
            "attempted": entry["ops_attempted"],
            "failed": entry["ops_failed"],
            "metrics": {
                name: {"value": value, "unit": ledger.UNITS[name]}
                for name, value in values.items()
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="one workload; default all four")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="measured-phase size, in seconds it takes on the reference box (default %(default)s)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="also run every workload with spans recorded",
    )
    parser.add_argument("--smoke", action="store_true", help="N = 6, W = 32, 1500 tuples per workload")
    parser.add_argument("--out", help="write the JSON ledger here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e needs the simulator under %s" % (ROOT / "src" / "repro"), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    selected = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    entries: Dict[str, Dict[str, object]] = {}
    try:
        for workload in selected:
            spans_out = None
            if args.out and args.trace:
                spans_out = "%s.%s.spans.npz" % (os.path.abspath(args.out), workload.name)
            entries[workload.name] = run_workload(
                workload,
                args.seed,
                args.seconds,
                bool(args.trace),
                smoke=args.smoke,
                spans_out=spans_out,
            )
            print_entry(workload.name, entries[workload.name])
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print("benchmark failed: %s" % error, file=sys.stderr)
        return 1
    if args.out:
        document = {
            "schema": 1,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "traced": bool(args.trace),
            "environment": environment(entries),
            "workloads": entries,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print("wrote %s" % out)
    correct = not any(entry["failures"] for entry in entries.values())
    if args.workload:
        print(driver_line(entries[args.workload], bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
