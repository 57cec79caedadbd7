"""Census: what the entry points reach under ``src/repro``.

Runs a fixed list of entry-point invocations, one process each: the
``repro`` CLI over all six algorithms, every workload and every flag
group (among them a fault plan read from a JSON file, BLOOM and SKCH
over time windows, and restartable crashes under BLOOM, SKCH and RR),
chaos sweeps with and without ``--recovery`` / ``--overload``,
``experiments report smoke``, every example, the two benchmark files
that set settings fields, and the end-to-end ledger's smoke cell.  Then
it prints

* for each field of the settings dataclasses that
  ``tests/unit/test_option_surface.py`` pins, whether any construction
  passed a value other than the field's default -- read from the
  arguments of the generated ``__init__``;
* every function under ``src/repro`` that no process entered, per
  module, with line counts; stubs no call can enter (protocol members,
  bodiless abstract methods) are not counted.

Every process gets the hook from a ``sitecustomize`` module in a
temporary directory placed first on ``PYTHONPATH``, so the processes an
entry point starts itself (pool workers, ledger children) are counted
too.  The hook sits in the trace slot (``sys.settrace``), not the
profile slot: ``--profile`` puts cProfile in the profile slot for the
whole run, and a hook there would miss everything that run enters.

Usage, from anywhere (stdlib only; several minutes on 2 cores)::

    python tools/census.py [--report FILE]

Exits 1 if an invocation exits non-zero, if a long option of the
three ``build_parser()``s is exercised by no invocation, if a field of
a pinned dataclass is never given a non-default value (other than the
one exemption the tier-1 twin names too), or if more functions go
unentered than :data:`MAX_UNREACHED`.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

PINNED = (
    "repro.recovery.settings:RecoverySettings",
    "repro.net.reliable:ReliabilitySettings",
    "repro.overload.settings:OverloadSettings",
    "repro.telemetry.settings:TelemetrySettings",
    "repro.core.flow:FlowSettings",
    "repro.config:PolicyConfig",
    "repro.config:SystemConfig",
    "repro.config:WorkloadConfig",
    "repro.net.link:LinkSpec",
    "repro.streams.partitioner:PartitionerConfig",
)
"""The settings dataclasses whose field counts tier-1 pins."""

NEVER_SET = {"repro.config:SystemConfig": {"landmark_key"}}
"""Fields no entry point sets, on purpose: LANDMARK windows are the
paper's (Section 2), held by the tests, but no entry point builds one."""

MAX_UNREACHED = 16
"""The most functions under ``src/repro`` that may go unentered: a
ratchet, lowered whenever a change leaves fewer, so code that only the
tests reach cannot grow back unnoticed."""

PARSERS = {
    "run": "repro.cli:build_parser",
    "experiments chaos": "repro.experiments.chaos:build_parser",
    "experiments report": "repro.experiments.report:build_parser",
}

SMALL = ("--nodes", "4", "--tuples", "1200", "--window", "64", "--kappa", "8")
STORM = "clean; storm@loss=0.4,part=2s,crash=1"
RESTART = "crash@t=1.5,d=1.5,node=2,downtime=1.5"
SURGE = "overload@t=1,d=2,node=1,factor=12"
PLAN_JSON = json.dumps(
    [
        {"kind": "partition", "start_s": 1, "duration_s": 2, "nodes": [0, 1]},
        {"kind": "loss_burst", "start_s": 3, "duration_s": 1, "loss_probability": 0.3},
        {"kind": "latency_spike", "start_s": 4, "duration_s": 1,
         "links": [[0, 1]], "extra_latency_s": 0.2},
    ]
)
"""What ``{work}/plan.json`` holds: the file form of ``--fault-plan``, read
by ``FaultPlan.from_json`` (the inline spec takes another path)."""

INVOCATIONS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    # (label, parser the options go to, arguments after the interpreter);
    # "{work}" is the census' scratch directory.
    ("run BASE", "run", ("-m", "repro", "--algorithm", "BASE") + SMALL),
    ("run RR", "run", ("-m", "repro", "--algorithm", "RR") + SMALL),
    ("run DFT UNI", "run",
     ("-m", "repro", "--algorithm", "DFT", "--workload", "UNI") + SMALL),
    ("run DFTT FIN", "run",
     ("-m", "repro.cli", "--algorithm", "DFTT", "--workload", "FIN") + SMALL),
    ("run BLOOM NWRK", "run",
     ("-m", "repro", "--algorithm", "BLOOM", "--workload", "NWRK") + SMALL),
    ("run SKCH json", "run",
     ("-m", "repro", "--algorithm", "SKCH", "--json", "--verbose") + SMALL),
    ("run DFT time windows", "run",
     ("-m", "repro", "--algorithm", "DFT", "--window-seconds", "2", "--verbose")
     + SMALL),
    ("run DFTT workload knobs", "run",
     ("-m", "repro", "--algorithm", "DFTT", "--budget", "2", "--domain", "2048",
      "--alpha", "0.8", "--rate", "300", "--skew", "0.5", "--loss", "0.05",
      "--seed", "3") + SMALL),
    ("run SKCH time windows", "run",
     ("-m", "repro", "--algorithm", "SKCH", "--window-seconds", "2") + SMALL),
    ("run BLOOM time windows", "run",
     ("-m", "repro", "--algorithm", "BLOOM", "--window-seconds", "2") + SMALL),
    ("run DFTT reliability", "run",
     ("-m", "repro", "--algorithm", "DFTT", "--fault-plan",
      "partition@t=1,d=2,nodes=0+1; crash@t=3,d=2.5,node=2", "--reliable",
      "--retransmit-timeout", "0.3", "--staleness-budget", "2",
      "--degradation", "suppress") + SMALL),
    ("run BASE fault-plan file", "run",
     ("-m", "repro", "--algorithm", "BASE", "--fault-plan", "{work}/plan.json",
      "--reliable") + SMALL),
    ("run BLOOM recovery", "run",
     ("-m", "repro", "--algorithm", "BLOOM", "--fault-plan", RESTART,
      "--recovery", "--checkpoint-interval", "0.5", "--json") + SMALL),
    ("run SKCH recovery", "run",
     ("-m", "repro", "--algorithm", "SKCH", "--fault-plan", RESTART,
      "--recovery") + SMALL),
    ("run RR recovery", "run",
     ("-m", "repro", "--algorithm", "RR", "--fault-plan", RESTART,
      "--recovery") + SMALL),
    ("run DFTT overload", "run",
     ("-m", "repro", "--algorithm", "DFTT", "--fault-plan", SURGE, "--overload",
      "--link-backlog-bound", "0.5") + SMALL),
    ("run DFTT shedding", "run",
     ("-m", "repro", "--algorithm", "DFTT", "--fault-plan", SURGE, "--reliable",
      "--queue-bound", "8", "--rate", "300") + SMALL),
    ("run DFTT telemetry export", "run",
     ("-m", "repro", "--algorithm", "DFTT", "--telemetry-export",
      "{work}/telemetry", "--telemetry-sample", "0.5") + SMALL),
    ("validate trace", "",
     ("-m", "repro.telemetry.validate", "{work}/telemetry/trace.json")),
    ("run BLOOM dashboard", "run",
     ("-m", "repro", "--algorithm", "BLOOM", "--dashboard", "--loss", "0.05")
     + SMALL),
    ("run SKCH profile", "run",
     ("-m", "repro", "--algorithm", "SKCH", "--telemetry", "--profile", "5")
     + SMALL),
    ("chaos stock grid", "experiments chaos",
     ("-m", "repro", "experiments", "chaos", "smoke", "--no-cache")),
    ("chaos storm, 2 jobs", "experiments chaos",
     ("-m", "repro", "experiments", "chaos", "smoke", "--algorithms", "DFTT,BASE",
      "--fault-grid", STORM, "--jobs", "2", "--cache-dir", "{work}/chaos-cache",
      "--out", "{work}/chaos-a.json", "--figure", "{work}/chaos-figure.txt")),
    ("chaos storm baseline", "experiments chaos",
     ("-m", "repro", "experiments", "chaos", "smoke", "--algorithms", "DFTT,BASE",
      "--fault-grid", STORM, "--no-cache", "--baseline", "{work}/chaos-a.json",
      "--tolerance", "0.2")),
    ("chaos recovery", "experiments chaos",
     ("-m", "repro.experiments.chaos", "smoke", "--algorithms", "DFTT,BLOOM",
      "--nodes", "3", "--fault-grid", "clean; gusty@loss=0.15,part=0.5,crash=1",
      "--recovery", "--checkpoint-interval", "0.5")),
    ("chaos overload", "experiments chaos",
     ("-m", "repro", "experiments", "chaos", "smoke", "--algorithms", "DFTT",
      "--fault-grid", "clean; surge@over=8", "--overload", "--queue-bound", "16")),
    ("report smoke", "experiments report",
     ("-m", "repro", "experiments", "report", "smoke")),
    ("report fig9, 2 jobs", "experiments report",
     ("-m", "repro.experiments.report", "smoke", "--only", "fig9", "--jobs", "2",
      "--cache-dir", "{work}/report-cache")),
    ("report table1 uncached", "experiments report",
     ("-m", "repro", "experiments", "report", "smoke", "--only", "table1",
      "--no-cache")),
    ("example chaos_run", "", ("examples/chaos_run.py",)),
    ("example compression_tuning", "", ("examples/compression_tuning.py",)),
    ("example financial_arbitrage", "", ("examples/financial_arbitrage.py",)),
    ("example inspect_traffic", "", ("examples/inspect_traffic.py",)),
    ("example network_monitoring", "", ("examples/network_monitoring.py",)),
    ("example quickstart", "", ("examples/quickstart.py",)),
    ("example telemetry_tour", "", ("examples/telemetry_tour.py", "{work}/tour")),
    ("example worst_case_detection", "", ("examples/worst_case_detection.py",)),
    # These benchmarks are the only callers outside the tests that set
    # PolicyConfig.similarity / summary_refresh_interval and
    # FlowSettings.adaptive / congestion_low / congestion_high.
    # pytest-benchmark pauses every trace and profile hook while it times;
    # --benchmark-disable runs each body once, untimed.
    ("bench ablations + adaptive flow", "",
     ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
      "benchmarks/test_bench_ablations.py::test_ablation_similarity_measure",
      "benchmarks/test_bench_ablations.py::test_ablation_refresh_cadence",
      "benchmarks/test_bench_adaptive_flow.py")),
    ("e2e ledger smoke", "",
     ("-m", "benchmarks.e2e.run", "--smoke", "--out", "{work}/e2e-smoke.json")),
)

HOOK = '''\
"""Census hook, written by tools/census.py: records every code object
this process enters and the field values the named dataclasses are
built with, and writes both to CENSUS_DIR at exit."""

import atexit
import dataclasses
import json
import os
import sys
import threading

_PACKAGE = os.environ["CENSUS_PACKAGE"] + os.sep
_TARGETS = frozenset(os.environ["CENSUS_CLASSES"].split(","))
_FACTORY = dataclasses._HAS_DEFAULT_FACTORY
_REQUIRED = object()
_known = {}
_built = {}
_set = {}


def _classify(frame):
    code = frame.f_code
    if code.co_name != "__init__":
        return None
    cls = type(frame.f_locals.get("self"))
    name = "%s:%s" % (cls.__module__, cls.__qualname__)
    if name not in _TARGETS or cls.__init__.__code__ is not code:
        return None
    defaults = []
    for field in dataclasses.fields(cls):
        if field.default is not dataclasses.MISSING:
            defaults.append((field.name, field.default))
        elif field.default_factory is not dataclasses.MISSING:
            defaults.append((field.name, field.default_factory()))
        else:
            defaults.append((field.name, _REQUIRED))  # always given a value
    return name, defaults


def _hook(frame, event, arg):
    code = frame.f_code
    try:
        target = _known[code]
    except KeyError:
        target = _known[code] = _classify(frame)
    if target is not None:
        name, defaults = target
        _built[name] = _built.get(name, 0) + 1
        values = frame.f_locals
        for field, default in defaults:
            value = values[field]
            if value is not _FACTORY and value != default:
                _set.setdefault(name, set()).add(field)


def _dump():
    sys.settrace(None)
    entered = sorted(
        {
            (code.co_filename[len(_PACKAGE):], code.co_firstlineno, code.co_name)
            for code in _known
            if code.co_filename.startswith(_PACKAGE)
        }
    )
    path = os.path.join(os.environ["CENSUS_DIR"], "%d.json" % os.getpid())
    with open(path, "w") as handle:
        json.dump(
            {
                "entered": entered,
                "built": _built,
                "set": {name: sorted(fields) for name, fields in _set.items()},
            },
            handle,
        )


atexit.register(_dump)
threading.settrace(_hook)
sys.settrace(_hook)
'''


def load(reference: str):
    module, name = reference.split(":")
    return getattr(importlib.import_module(module), name)


def unexercised_options() -> Dict[str, List[str]]:
    """Long options of each parser that no invocation passes."""
    missing = {}
    for key, reference in PARSERS.items():
        options = {
            option
            for action in load(reference)()._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        used = {
            token.split("=")[0]
            for _, parser, arguments in INVOCATIONS
            if parser == key
            for token in arguments
            if token.startswith("--")
        }
        if options - used:
            missing[key] = sorted(options - used)
    return missing


def _named(node: ast.AST, name: str) -> bool:
    """Whether ``node`` is ``name`` or ``something.name``."""
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def is_stub(function: ast.AST, in_protocol: bool) -> bool:
    """A def no call can enter for its body: a ``Protocol`` member, an
    ``@abstractmethod`` without a body, or a body that only raises
    ``NotImplementedError``.  A docstring does not count as a body; a
    default method that does something (even ``return``) is not a stub."""
    body = list(function.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring, or a bare ``...``
    raises = len(body) == 1 and isinstance(body[0], ast.Raise) and _named(
        getattr(body[0].exc, "func", body[0].exc), "NotImplementedError"
    )
    abstract = any(_named(d, "abstractmethod") for d in function.decorator_list)
    return in_protocol or raises or (abstract and not body)


def functions(path: Path, source: str = "") -> List[Tuple[int, str, int]]:
    """``(first line, qualified name, lines)`` of every def in a module
    (``source``, when given, instead of the file), stubs left out
    (:func:`is_stub`).

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found = []

    def visit(node: ast.AST, prefix: str, in_protocol: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if is_stub(child, in_protocol):
                    continue
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((first, name, child.end_lineno - first + 1))
                visit(child, name + ".<locals>.", False)
            elif isinstance(child, ast.ClassDef):
                protocol = any(_named(base, "Protocol") for base in child.bases)
                visit(child, prefix + child.name + ".", protocol)
            else:
                visit(child, prefix, in_protocol)

    visit(ast.parse(source or path.read_text(), str(path)), "", False)
    return sorted(found)


def run_invocations(work: Path, data: Path, site: Path) -> List[str]:
    """Run every invocation under the hook; return the failed labels."""
    environment = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    environment.update(
        PYTHONPATH=os.pathsep.join([str(site), str(ROOT / "src"), str(ROOT)]),
        CENSUS_DIR=str(data),
        CENSUS_PACKAGE=str(PACKAGE),
        CENSUS_CLASSES=",".join(PINNED),
        REPRO_CACHE_DIR=str(work / "cache"),
    )
    failed = []
    for index, (label, _, arguments) in enumerate(INVOCATIONS, 1):
        command = [sys.executable] + [
            argument.replace("{work}", str(work)) for argument in arguments
        ]
        started = time.perf_counter()
        completed = subprocess.run(
            command,
            cwd=str(ROOT),
            env=environment,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        elapsed = time.perf_counter() - started
        status = "ok" if completed.returncode == 0 else "exit %d" % completed.returncode
        print(
            "[%2d/%d] %-32s %6.1f s  %s"
            % (index, len(INVOCATIONS), label, elapsed, status),
            file=sys.stderr,
        )
        if completed.returncode != 0:
            failed.append(label)
            print(completed.stdout[-4000:], file=sys.stderr)
    return failed


def field_report(records: Iterable[dict]) -> Tuple[List[str], List[str]]:
    """Lines saying which fields were ever given a non-default value, and
    the never-set fields that are not exempt."""
    built: Dict[str, int] = {}
    given: Dict[str, Set[str]] = {}
    for record in records:
        for name, count in record["built"].items():
            built[name] = built.get(name, 0) + count
        for name, fields in record["set"].items():
            given.setdefault(name, set()).update(fields)
    lines = ["settings fields: given a non-default value by any construction?"]
    pinned_never = pinned_total = 0
    unexpected = []
    for reference in PINNED:
        names = [field.name for field in dataclasses.fields(load(reference))]
        never = [name for name in names if name not in given.get(reference, set())]
        pinned_total += len(names)
        pinned_never += len(never)
        unexpected.extend(
            "%s.%s" % (reference.split(":")[1], name)
            for name in never
            if name not in NEVER_SET.get(reference, ())
        )
        lines.append(
            "  %-20s %2d fields, %2d set, %2d never set (%d constructions)%s"
            % (
                reference.split(":")[1],
                len(names),
                len(names) - len(never),
                len(never),
                built.get(reference, 0),
                ": " + ", ".join(never) if never else "",
            )
        )
    lines.append(
        "never set among the %d pinned dataclasses: %d of %d fields"
        % (len(PINNED), pinned_never, pinned_total)
    )
    return lines, unexpected


def function_report(records: Iterable[dict]) -> Tuple[List[str], int]:
    """Lines listing every function no process entered, per module, and
    how many there are."""
    entered: Set[Tuple[str, int]] = set()
    imported: Set[str] = set()
    for record in records:
        for relative, line, name in record["entered"]:
            entered.add((relative, line))
            if name == "<module>":
                imported.add(relative)
    body = []
    total = missed = missed_lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = str(path.relative_to(PACKAGE))
        defs = functions(path)
        unreached = [d for d in defs if (relative, d[0]) not in entered]
        total += len(defs)
        if not unreached:
            continue
        lines = sum(count for _, _, count in unreached)
        missed += len(unreached)
        missed_lines += lines
        body.append(
            "  repro/%s: %d of %d functions, %d lines%s"
            % (
                relative,
                len(unreached),
                len(defs),
                lines,
                "" if relative in imported else " (module never imported)",
            )
        )
        for first, name, count in unreached:
            body.append("      %-56s line %4d, %3d lines" % (name, first, count))
    return [
        "functions under src/repro no process entered: %d of %d (%d lines)"
        % (missed, total, missed_lines)
    ] + body, missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", default="", metavar="FILE",
                        help="also write the report to FILE")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    missing = unexercised_options()
    if missing:
        for key, options in missing.items():
            print("error: no invocation passes %s %s" % (key, " ".join(options)),
                  file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        site, data, work = (Path(scratch) / name for name in ("site", "data", "work"))
        for directory in (site, data, work):
            directory.mkdir()
        (site / "sitecustomize.py").write_text(HOOK)
        (work / "plan.json").write_text(PLAN_JSON)
        started = time.perf_counter()
        failed = run_invocations(work, data, site)
        records = [json.loads(path.read_text()) for path in sorted(data.glob("*.json"))]
    fields, never_set = field_report(records)
    functions_lines, unreached = function_report(records)
    lines = [
        "census: %d invocations, %d processes, %d failed, %.0f s"
        % (len(INVOCATIONS), len(records), len(failed), time.perf_counter() - started),
        "",
    ] + fields + [""] + functions_lines
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.report:
        Path(args.report).write_text(report)
    if failed:
        print("error: failed invocations: %s" % ", ".join(failed), file=sys.stderr)
    if never_set:
        print("error: never set by any entry point: %s" % ", ".join(never_set),
              file=sys.stderr)
    grown = unreached > MAX_UNREACHED
    if grown:
        print("error: %d functions unreached, more than MAX_UNREACHED = %d"
              % (unreached, MAX_UNREACHED), file=sys.stderr)
    return 1 if failed or never_set or grown else 0


if __name__ == "__main__":
    sys.exit(main())
