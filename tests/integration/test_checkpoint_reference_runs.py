"""Whole runs: checkpoints written from kept text change nothing.

A recovery-enabled run that crashes and restarts a node is executed
twice: as ``src/`` has it (``window_state`` and the remote summary table
return canonical JSON text they keep between ticks, and the coordinator
writes the blob's layout around it) and with the re-encode-everything
writer of ``tests/reference_checkpoint.py`` patched back in.  The two
:class:`~repro.core.results.RunResult` objects pickle to the same bytes
and the checkpoint store is handed the same blobs in the same order --
for all six algorithms, on count, time and landmark windows.  The
restart matters: it *reads* a blob written from kept text (on
the ledger's ``chaos-bloom-n20`` no node restarts, so that workload
writes such blobs and never reads one).
"""

import dataclasses
import pickle

import pytest

from repro.config import Algorithm, WindowKind
from repro.core.system import run_experiment
from repro.experiments.harness import get_scale, system_config
from repro.net.faults import FaultPlan
from repro.net.reliable import ReliabilitySettings
from repro.recovery import RecoverySettings
from repro.core.summaries import RemoteSummaryTable
from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from tests import reference_checkpoint

NUM_NODES = 3
CRASHED = 2
CRASH_SPEC = "crash@t=2,d=1.5,node=%d,downtime=1.5" % CRASHED

SHAPES = {
    "count": {},
    "time": {"window_kind": WindowKind.TIME, "window_seconds": 0.8},
    "landmark": {"window_kind": WindowKind.LANDMARK, "landmark_key": 3},
}


def make_config(algorithm, shape):
    config = system_config(
        get_scale("smoke"),
        algorithm,
        num_nodes=NUM_NODES,
        total_tuples=1_200,
        faults=FaultPlan.parse(CRASH_SPEC, num_nodes=NUM_NODES),
        reliability=ReliabilitySettings(enabled=True),
        recovery=RecoverySettings(enabled=True, checkpoint_interval_s=0.5),
    )
    return dataclasses.replace(config, seed=7, **SHAPES[shape])


def run_recording(config, patch):
    """The result, every blob saved and every blob read back, in order."""
    saved, read = [], []
    save, state = CheckpointStore.save, Checkpoint.state

    def recording_save(store, node_id, taken_at, blob):
        saved.append((node_id, blob))
        return save(store, node_id, taken_at, blob)

    def recording_state(checkpoint):
        read.append((checkpoint.node_id, checkpoint.blob))
        return state(checkpoint)

    patch.setattr(CheckpointStore, "save", recording_save)
    patch.setattr(Checkpoint, "state", recording_state)
    return run_experiment(config), saved, read


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_remembered_text_reproduces_the_reference_run(algorithm, shape, monkeypatch):
    with monkeypatch.context() as patch:
        result, saved, read = run_recording(make_config(algorithm, shape), patch)
    with monkeypatch.context() as patch:
        reference_checkpoint.patch_in(patch)
        reference, reference_saved, reference_read = run_recording(
            make_config(algorithm, shape), patch
        )

    assert result.recovery["restarts"] == 1.0
    assert saved == reference_saved
    assert read == reference_read
    assert pickle.dumps(result) == pickle.dumps(reference)
    # The restart read a blob, and not the node's first: its windows and
    # remote table had been rendered before, so it held remembered text.
    (node_id, blob), = read
    assert node_id == CRASHED
    assert [b for n, b in saved if n == CRASHED].index(blob) >= 1
    if shape == "landmark":  # the key does come by, on this seed
        assert any(b'"resets":1' in blob for _, blob in saved)


def test_reference_patches_reach_the_checkpoint_path(monkeypatch):
    """The comparison above means something only while the patched name
    is where a node takes its writer from: with the reference in, a run
    checkpoints without rendering a window, a tuple or a remote table."""
    rendered = []

    def refuse(name):
        return lambda *args: rendered.append(name)

    reference_checkpoint.patch_in(monkeypatch)
    monkeypatch.setattr("repro.recovery.coordinator.window_state", refuse("window"))
    monkeypatch.setattr("repro.recovery.checkpoint.tuple_text", refuse("tuple"))
    monkeypatch.setattr(RemoteSummaryTable, "checkpoint_text", refuse("remote"))
    result = run_experiment(make_config(Algorithm.BLOOM, "count"))
    assert result.recovery["checkpoints_taken"] > 0
    assert not rendered
