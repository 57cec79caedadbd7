"""End-to-end determinism: the fast kernels change nothing observable.

A chaos-free reference run executed with the vectorized fast paths
(twiddle tables, batched sketch updates, sign caches) must produce a
:class:`~repro.core.results.RunResult` that is byte-identical to the same
run on the historical scalar kernels: the per-update ``np.exp`` sliding
DFT of ``tests/reference_kernels.py`` patched in where the summary
manager builds its DFT, and the sign cache sized 0.  This is the
system-level counterpart of the bit-level kernel equivalence suite.
"""

import dataclasses
import pickle

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.system import DistributedJoinSystem, run_experiment
from repro.streams.tuples import StreamId
from tests.reference_kernels import ReferenceSlidingDFT


def reference_config(algorithm):
    return SystemConfig(
        num_nodes=4,
        window_size=96,
        policy=PolicyConfig(algorithm=algorithm, kappa=4.0),
        workload=WorkloadConfig(
            kind=WorkloadKind.ZIPF,
            total_tuples=1200,
            domain=512,
            arrival_rate=150.0,
        ),
        seed=11,
    )


def build_on_reference_kernels(config, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.summaries.SlidingDFT", ReferenceSlidingDFT)
        patch.setattr("repro.sketches.hashing.DEFAULT_SIGN_CACHE_SIZE", 0)
        return DistributedJoinSystem(config)


def run_on_reference_kernels(config, monkeypatch):
    return build_on_reference_kernels(config, monkeypatch).run()


def test_reference_patches_reach_the_kernels(monkeypatch):
    """The comparisons below mean something only while the two patched
    names are where a system takes its kernels from."""
    for node in build_on_reference_kernels(
        reference_config(Algorithm.DFTT), monkeypatch
    ).nodes:
        managers = node.policy.managers
        assert type(managers[StreamId.R].dft) is ReferenceSlidingDFT
    for node in build_on_reference_kernels(
        reference_config(Algorithm.SKCH), monkeypatch
    ).nodes:
        assert node.policy.sketches[StreamId.R].hashes.cache_size == 0
    fast = DistributedJoinSystem(reference_config(Algorithm.DFTT)).nodes[0]
    assert fast.policy.managers[StreamId.R].dft.mode == "table"


@pytest.mark.parametrize(
    "algorithm", [Algorithm.DFTT, Algorithm.SKCH, Algorithm.BLOOM]
)
def test_fast_kernels_reproduce_naive_run_exactly(algorithm, monkeypatch):
    fast = run_experiment(reference_config(algorithm))
    naive = run_on_reference_kernels(reference_config(algorithm), monkeypatch)

    assert fast.summary() == naive.summary()
    assert fast.messages_by_kind == naive.messages_by_kind
    assert fast.traffic == naive.traffic
    assert fast.node_diagnostics == naive.node_diagnostics
    assert fast.throughput_series == naive.throughput_series
    # The whole result object, manifest included, is byte-identical.
    assert fast.manifest == naive.manifest
    assert pickle.dumps(fast) == pickle.dumps(naive)


def test_fast_kernels_reproduce_naive_run_with_reliability(monkeypatch):
    """The reliable-transport control plane stays deterministic too."""
    from repro.net.reliable import ReliabilitySettings

    def config():
        base = reference_config(Algorithm.DFTT)

        return dataclasses.replace(
            base,
            reliability=dataclasses.replace(ReliabilitySettings(), enabled=True),
        )

    fast = run_experiment(config())
    naive = run_on_reference_kernels(config(), monkeypatch)
    assert pickle.dumps(fast) == pickle.dumps(naive)
