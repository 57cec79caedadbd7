"""Every telemetry export file of two seeded runs, pinned by sha256.

The exports are a pure function of the seed and the simulated clock, so
a change that only moves where the hub's work happens (when a counter is
set, how an event is stored) must leave every byte of them as it was.
Two small runs cover the two ways a hub is fed:

* DFTT with default tracing -- CI's telemetry smoke, scaled down: one
  event per send, delivery and drop;
* BLOOM with ``trace_messages=False`` and reliability, recovery with a
  restartable crash, overload protection (a bounded link backlog sheds)
  and a loss / partition fault plan -- the counters without the events.

The manifest's interpreter and numpy versions are replaced by constants
before it is written, so the pins hold on any environment.  A change
that is meant to alter an export re-pins the values here.
"""

import hashlib

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    TelemetrySettings,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.system import DistributedJoinSystem
from repro.net.faults import FaultPlan
from repro.net.link import LinkSpec
from repro.net.reliable import ReliabilitySettings
from repro.overload import OverloadSettings
from repro.recovery import RecoverySettings
from repro.telemetry import export_all


def dftt_traced():
    return SystemConfig(
        num_nodes=4,
        window_size=64,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=8.0),
        workload=WorkloadConfig(kind=WorkloadKind.ZIPF, total_tuples=600),
        link=LinkSpec(bandwidth_bps=float("inf")),
        telemetry=TelemetrySettings(enabled=True),
        seed=7,
    )


def bloom_chaos_untraced():
    return SystemConfig(
        num_nodes=4,
        window_size=64,
        policy=PolicyConfig(algorithm=Algorithm.BLOOM, kappa=4.0),
        workload=WorkloadConfig(total_tuples=900, domain=256, arrival_rate=150.0),
        link=LinkSpec(),  # 90 kbps, so the backlog bound sheds
        faults=FaultPlan.parse(
            "loss@t=1,d=2,p=0.3; partition@t=3,d=2.5,nodes=0; "
            "crash@t=4,d=1.5,node=3,downtime=1.5",
            num_nodes=4,
        ),
        reliability=ReliabilitySettings(enabled=True),
        recovery=RecoverySettings(enabled=True),
        overload=OverloadSettings.for_queue_bound(64, link_backlog_bound_s=0.01),
        telemetry=TelemetrySettings(enabled=True, trace_messages=False),
        seed=3,
    )


PINNED = {
    "dftt_traced": {
        "events.jsonl": "a457aa2ce85bc3bff574788e41ac65e377bc5b8934c22e25e94e3aed2a7a3640",
        "trace.json": "821b13414e1c682ce7baa3a272663794e584ffed6b1237d9d61fe93640c8592c",
        "metrics.prom": "359881cce1d163bc31f960bdb929b4be202409620149551b1f5b123e5442a22a",
        "timeseries.csv": "ce57cd89eea12443cdb1cd25f87d2519a98f04016a787176a26d6680c89b1a8d",
        "manifest.json": "df5e8fc9b0347b04ee5e3b874fd6a69a0a468bf39e31b05249988506e560517c",
    },
    "bloom_chaos_untraced": {
        "events.jsonl": "9c020bcbac69c082c2a86860babef9966cb7ee26b9b3b6a2cb86d391f3f77ae8",
        "trace.json": "fd794e67193a1ab5e6370c00d2e322f9353026c153e89ddee862a1c6645edcf9",
        "metrics.prom": "16e50dd91e12973ff622db6323f41c778cf8e61c67d90b3975eaacb3bb18646e",
        "timeseries.csv": "d37aab6a45d5432b81bb36519b5868c8437311d153d082cc0b9644b6af49401f",
        "manifest.json": "6b955fbbc4939c1350d7732817d0354a8ce877c170d5e5ccc90b8e08d0a4de15",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_every_export_file_keeps_its_bytes(tmp_path, name):
    system = DistributedJoinSystem(globals()[name]())
    result = system.run()
    if name == "bloom_chaos_untraced":
        # The run reaches what its name says it does.
        assert result.recovery["restarts"] == 1
        assert result.overload["link_messages_shed"] > 0
        assert result.telemetry["events_emitted"] > 0
        assert "events_net" not in result.telemetry
    manifest = dict(result.manifest, python_version="-", numpy_version="-")
    paths = export_all(system.telemetry, tmp_path, manifest=manifest)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths.values()
    }
    assert digests == PINNED[name]
