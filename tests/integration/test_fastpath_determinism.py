"""End-to-end determinism: the fast kernels change nothing observable.

A chaos-free reference run executed with the fast paths (twiddle tables,
the sign cache, the Bloom filters' shared probe-position table) must
produce a :class:`~repro.core.results.RunResult` that is byte-identical
to the same run on the historical scalar kernels patched in where a
system takes its kernels from: the per-update ``np.exp`` sliding DFT and
the uncached hash family of ``tests/reference_kernels.py``, and the
table-free filter of ``tests/reference_bloom.py``.  SKCH and BLOOM also
run on TIME windows, whose expirations evict several tuples at once.
This is the system-level counterpart of the bit-level kernel
equivalence suite.
"""

import dataclasses
import pickle

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WindowKind,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.system import DistributedJoinSystem, run_experiment
from repro.streams.tuples import StreamId
from tests.reference_bloom import ReferenceCountingBloomFilter
from tests.reference_kernels import ReferenceHashFamily, ReferenceSlidingDFT

TIME_WINDOW_SECONDS = 1.0
"""At 150 tuples/s over four nodes, an arrival often expires several
tuples at once."""


def reference_config(algorithm, window_kind=WindowKind.COUNT):
    return SystemConfig(
        num_nodes=4,
        window_size=96,
        window_kind=window_kind,
        window_seconds=TIME_WINDOW_SECONDS if window_kind is WindowKind.TIME else 0.0,
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
        patch.setattr("repro.sketches.agms.FourWiseHashFamily", ReferenceHashFamily)
        patch.setattr(
            "repro.core.policies.bloom.CountingBloomFilter",
            ReferenceCountingBloomFilter,
        )
        return DistributedJoinSystem(config)


def run_on_reference_kernels(config, monkeypatch):
    return build_on_reference_kernels(config, monkeypatch).run()


def assert_reproduces_naive_run(config, monkeypatch):
    fast = run_experiment(config)
    naive = run_on_reference_kernels(config, monkeypatch)

    assert fast.summary() == naive.summary()
    assert fast.messages_by_kind == naive.messages_by_kind
    assert fast.traffic == naive.traffic
    assert fast.node_diagnostics == naive.node_diagnostics
    assert fast.throughput_series == naive.throughput_series
    # The whole result object, manifest included, is byte-identical.
    assert fast.manifest == naive.manifest
    assert pickle.dumps(fast) == pickle.dumps(naive)


def test_reference_patches_reach_the_kernels(monkeypatch):
    """The comparisons below mean something only while the three patched
    names are where a system takes its kernels from."""
    for node in build_on_reference_kernels(
        reference_config(Algorithm.DFTT), monkeypatch
    ).nodes:
        managers = node.policy.managers
        assert type(managers[StreamId.R].dft) is ReferenceSlidingDFT
    for node in build_on_reference_kernels(
        reference_config(Algorithm.SKCH, WindowKind.TIME), monkeypatch
    ).nodes:
        for stream in (StreamId.R, StreamId.S):
            assert type(node.policy.sketches[stream].hashes) is ReferenceHashFamily
    for node in build_on_reference_kernels(
        reference_config(Algorithm.BLOOM, WindowKind.TIME), monkeypatch
    ).nodes:
        for stream in (StreamId.R, StreamId.S):
            assert type(node.policy.filters[stream]) is ReferenceCountingBloomFilter
    fast = DistributedJoinSystem(reference_config(Algorithm.DFTT)).nodes[0]
    assert fast.policy.managers[StreamId.R].dft.mode == "table"


@pytest.mark.parametrize(
    "algorithm", [Algorithm.DFTT, Algorithm.SKCH, Algorithm.BLOOM]
)
def test_fast_kernels_reproduce_naive_run_exactly(algorithm, monkeypatch):
    assert_reproduces_naive_run(reference_config(algorithm), monkeypatch)


@pytest.mark.parametrize("algorithm", [Algorithm.SKCH, Algorithm.BLOOM])
def test_fast_kernels_reproduce_naive_run_on_time_windows(algorithm, monkeypatch):
    assert_reproduces_naive_run(
        reference_config(algorithm, WindowKind.TIME), monkeypatch
    )


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
