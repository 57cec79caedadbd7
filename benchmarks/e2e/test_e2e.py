"""Self-checks of the benchmark, run on its ``--smoke`` cell (< 1 min).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Not part of tier-1 (``testpaths = ["tests"]``); CI may run it as is.
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import child, compare, ledger, run, spans  # noqa: E402
from benchmarks.e2e.cell import (  # noqa: E402
    BY_NAME,
    DEFAULT_SECONDS,
    SMOKE_CELL,
    SMOKE_TOTAL_TUPLES,
    WORKLOADS,
    system_config,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE_MEASURED = SMOKE_TOTAL_TUPLES - SMOKE_CELL.warmup_tuples
CLEAN = [workload.name for workload in WORKLOADS if workload.clean]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run of all four workloads through the real runner."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    assert run.main(["--smoke", "--trace", "--seed", "7", "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_limits_and_benchmark_json_agree(smoke, spec):
    entries = smoke["workloads"]
    assert {item["name"] for item in spec["workloads"]} == set(entries) == set(BY_NAME)
    assert {item["name"]: item["why"] for item in spec["workloads"]} == {
        workload.name: workload.why for workload in WORKLOADS
    }
    assert spec["run_seconds"] == DEFAULT_SECONDS
    assert spec["paths"] == ["benchmarks/e2e"]
    tables = {metric.name: metric for metric in ledger.END_TO_END + ledger.PER_LAYER}
    for entry in entries.values():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            printed = json.loads(run.driver_line(entry, trace))
            assert set(printed) == {"correct", "attempted", "failed", "metrics"}
            assert printed["correct"] is True and printed["attempted"] >= 1
            assert set(printed["metrics"]) == {item["name"] for item in spec[section]}
            for item in spec[section]:
                metric = tables[item["name"]]
                assert printed["metrics"][item["name"]]["unit"] == item["unit"] == metric.unit
                assert item["better"] == metric.better
                if section == "end_to_end":
                    assert item["bound"] == ledger.DRIVER_END_TO_END[item["name"]]
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer") for item in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(NAME.fullmatch(name) for entry in entries.values() for name in entry["spans"])
    assert len(spec["workloads"]) <= 8
    assert len(spec["end_to_end"]) <= 16
    assert len(spec["per_layer"]) <= 128
    assert "setup_s" in {item["name"] for item in spec["end_to_end"]}


@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_split_phase_run_equals_one_shot_run(name, smoke):
    from repro.core.system import run_experiment

    workload = BY_NAME[name]
    one_shot = run_experiment(system_config(SMOKE_CELL, workload, 7, SMOKE_MEASURED))
    record = child.run_workload(workload, SMOKE_CELL, 7, SMOKE_MEASURED)
    assert record["result_digest"] == child.result_digest(one_shot)
    entry = smoke["workloads"][name]
    assert entry["result_digest"] == entry["traced_digest"] == record["result_digest"]


def test_self_times_add_up_to_the_root_span(smoke):
    for name, entry in smoke["workloads"].items():
        root = entry["spans"][spans.ROOT_SPAN]["busy_s"]
        total = sum(item["self_s"] for item in entry["spans"].values())
        assert total == pytest.approx(root, rel=0.01), name
        assert 0.0 < entry["per_layer"]["trace.coverage_share"] <= 1.0
        assert "trace.overhead_share" in entry["per_layer"]


def test_optional_subsystems_only_run_on_the_chaos_workload(smoke):
    for layer in ("telemetry.emit", "recovery.take_checkpoint", "net.reliable.send"):
        for name in CLEAN:
            assert smoke["workloads"][name]["per_layer"][layer + ".calls"] == 0
        assert smoke["workloads"]["chaos-bloom-n20"]["per_layer"][layer + ".calls"] > 0
    for name, entry in smoke["workloads"].items():
        assert entry["ops_failed"] == 0 and entry["failures"] == [], name
    assert smoke["workloads"]["base-zipf-n20"]["end_to_end"]["epsilon"] == 0


def test_wrappers_are_gone_after_a_traced_run():
    record = child.run_workload(BY_NAME["dftt-zipf-n20"], SMOKE_CELL, 7, SMOKE_MEASURED, trace=True)
    assert record["spans"]["core.policies.choose_destinations"]["calls"] > 0
    for _, path, attribute, _ in spans._targets():
        installed = vars(spans._resolve(path)).get(attribute)
        assert not hasattr(installed, "__wrapped__"), (path, attribute)


def test_output_file_records_its_environment(smoke):
    assert set(smoke["environment"]) >= {"nproc", "load_average", "python", "numpy"}
    for entry in smoke["workloads"].values():
        assert isinstance(entry["noisy"], bool) and 0.0 < entry["cpu_share"] <= 1.05


def test_compare_passes_a_file_against_itself_and_fails_a_regression(smoke, tmp_path, capsys):
    base = tmp_path / "a.json"
    base.write_text(json.dumps(smoke))
    assert compare.main([str(base), str(base)]) == 0
    rows = compare.compare(smoke, smoke)
    assert len(rows) == len(WORKLOADS) * (len(ledger.END_TO_END) + 1)
    assert {row["verdict"] for row in rows} == {"ok"}

    slower = copy.deepcopy(smoke)
    entry = slower["workloads"]["dftt-zipf-n20"]
    entry["end_to_end"]["tuples_per_s"] *= 0.8
    entry["slice_rates"] = [rate * 0.8 for rate in entry["slice_rates"]]
    entry["end_to_end"]["epsilon"] += 0.01
    entry["result_digest"] = "0" * 64
    changed = tmp_path / "b.json"
    changed.write_text(json.dumps(slower))
    assert compare.main([str(base), str(changed)]) == 1
    worse = {(row["workload"], row["metric"]) for row in compare.compare(smoke, slower) if row["verdict"] == "worse"}
    assert worse == {
        ("dftt-zipf-n20", "tuples_per_s"),
        ("dftt-zipf-n20", "epsilon"),
        ("dftt-zipf-n20", "result_digest"),
    }
    noisy = copy.deepcopy(smoke)
    rates = noisy["workloads"]["base-zipf-n20"]["slice_rates"]
    noisy["workloads"]["base-zipf-n20"]["slice_rates"] = [
        rate * (3.0 if index % 2 else 0.4) for index, rate in enumerate(rates)
    ]
    verdicts = {
        (row["workload"], row["metric"]): row["verdict"] for row in compare.compare(smoke, noisy)
    }
    assert verdicts[("base-zipf-n20", "tuples_per_s")] == "unresolved"
    capsys.readouterr()
