"""Policy state bytes pinned across commits.

Every algorithm runs one small cell with every path that reads or writes
a policy's durable and soft state: reliable links, recovery with a
restartable crash (checkpoints written, one read back, remote summaries
replayed, peers resynced), adaptive flow budgets (so the congestion scale
moves) and overload protection with a small queue bound (so the refresh
cadence stretches).  One time-window cell reaches ``on_evictions`` too.

A sha256 folds, per cell and in order:

* every blob handed to :meth:`CheckpointStore.save`;
* every :class:`SummaryUpdate` a resync queues for one peer (its fields
  and its canonical payload encoding);
* the pickled :class:`RunResult`.

The digests are constants: a refactor of the policy layer must leave
every one of those bytes where it was.
"""

import hashlib
import json
import pickle
from collections import Counter

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WindowKind,
    WorkloadConfig,
)
from repro.core.flow import FlowSettings
from repro.core.summaries import SummaryOutbox
from repro.core.system import run_experiment
from repro.net.faults import FaultPlan
from repro.net.reliable import ReliabilitySettings
from repro.overload import OverloadSettings
from repro.recovery import RecoverySettings
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.delta import encode_payload

NUM_NODES = 3
CRASH_SPEC = "crash@t=1.5,d=1,node=2,downtime=1"

CELLS = [(algorithm, WindowKind.COUNT) for algorithm in Algorithm] + [
    (Algorithm.BLOOM, WindowKind.TIME),
    (Algorithm.SKCH, WindowKind.TIME),
]

DIGESTS = {
    ("BASE", "count"): "037286765e4d6b80d92768e86451dc6daa84cee6343848c9af093ff59a2296e2",
    ("RR", "count"): "f8612b2b5b08686fae04540bf287695d317575bcf4d8bb8af56d5c59cb803876",
    ("DFT", "count"): "3b1c799497d34ac4eff30ed2ad670e57b2fa7c08147b9655bc54932c781dcced",
    ("DFTT", "count"): "bc7fcf99a62310d04366498667fcd4fa656f02fc79f7a0480da6cc8240465613",
    ("BLOOM", "count"): "742ce0df7141e7a6912fb0b6db2936c17c4aba9d07017387b6f493d1e879ec85",
    ("SKCH", "count"): "d939338c73ff6249a868136d5382fa6a1cb23a623fb57163b79ca39318be4dfe",
    ("BLOOM", "time"): "76ac4ea958a2cfce05065845066b89640f8a4cb8050d46f4c53bcde5d1275f07",
    ("SKCH", "time"): "3e52d718fd95a7181c29bec055bdb85b96837eb73206f2511710ac25ac8edd1a",
}


def make_config(algorithm, window_kind):
    shape = {}
    if window_kind is WindowKind.TIME:
        shape = {"window_kind": window_kind, "window_seconds": 0.4}
    return SystemConfig(
        num_nodes=NUM_NODES,
        window_size=48,
        policy=PolicyConfig(
            algorithm=algorithm,
            kappa=4.0,
            flow=FlowSettings(adaptive=True, congestion_low=2, congestion_high=12),
        ),
        workload=WorkloadConfig(total_tuples=1_200, domain=256, arrival_rate=400.0),
        faults=FaultPlan.parse(CRASH_SPEC, num_nodes=NUM_NODES),
        reliability=ReliabilitySettings(enabled=True),
        recovery=RecoverySettings(enabled=True, checkpoint_interval_s=0.5),
        overload=OverloadSettings.for_queue_bound(32),
        seed=7,
        **shape,
    )


def update_record(peer, update):
    return json.dumps(
        [
            peer,
            update.algorithm,
            update.stream.value,
            update.version,
            update.window_size,
            update.entries,
            update.full_state,
            encode_payload(update.payload),
        ],
        sort_keys=True,
    )


def run_digest(config, monkeypatch):
    """The run's digest, and how often each pinned path was reached."""
    digest = hashlib.sha256()
    reached = Counter()
    save, queue_for = CheckpointStore.save, SummaryOutbox.queue_for
    scale = FlowSettings.congestion_scale

    def recording_save(store, node_id, taken_at, blob):
        reached["checkpoints"] += 1
        digest.update(b"blob %d %r " % (node_id, taken_at) + blob)
        return save(store, node_id, taken_at, blob)

    def recording_queue_for(outbox, peer, update):
        reached["resync_updates"] += 1
        digest.update(("resync " + update_record(peer, update)).encode("ascii"))
        return queue_for(outbox, peer, update)

    def recording_scale(settings, queue_depth):
        value = scale(settings, queue_depth)
        if value < 1.0:
            reached["throttled_decisions"] += 1
        return value

    with monkeypatch.context() as patch:
        patch.setattr(CheckpointStore, "save", recording_save)
        patch.setattr(SummaryOutbox, "queue_for", recording_queue_for)
        patch.setattr(FlowSettings, "congestion_scale", recording_scale)
        result = run_experiment(config)
    digest.update(b"result " + pickle.dumps(result))
    return digest.hexdigest(), reached, result


@pytest.mark.parametrize(
    "algorithm,window_kind", CELLS, ids=lambda value: value.value
)
def test_policy_state_bytes_are_pinned(algorithm, window_kind, monkeypatch):
    hexdigest, reached, result = run_digest(
        make_config(algorithm, window_kind), monkeypatch
    )
    assert result.recovery["restarts"] >= 1
    assert reached["checkpoints"] > 0
    assert reached["throttled_decisions"] > 0
    assert result.overload["mode_transitions"] > 0
    if algorithm not in (Algorithm.BASE, Algorithm.ROUND_ROBIN):
        assert reached["resync_updates"] > 0
    assert hexdigest == DIGESTS[algorithm.value, window_kind.value]
