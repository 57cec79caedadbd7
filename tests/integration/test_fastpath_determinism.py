"""End-to-end determinism: the fast kernels change nothing observable.

A chaos-free reference run executed with the vectorized fast paths
(twiddle tables, batched sketch updates, sign caches) must produce a
:class:`~repro.core.results.RunResult` that is byte-identical to the same
run forced onto the historical scalar kernels via
``REPRO_NAIVE_KERNELS``.  This is the system-level counterpart of the
bit-level kernel equivalence suite.
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
from repro.core.system import run_experiment
from repro.dft.sliding import NAIVE_KERNELS_ENV


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


def _without_manifest(result):
    return dataclasses.replace(result, manifest={})


@pytest.mark.parametrize(
    "algorithm", [Algorithm.DFTT, Algorithm.SKCH, Algorithm.BLOOM]
)
def test_fast_kernels_reproduce_naive_run_exactly(algorithm, monkeypatch):
    monkeypatch.delenv(NAIVE_KERNELS_ENV, raising=False)
    fast = run_experiment(reference_config(algorithm))
    monkeypatch.setenv(NAIVE_KERNELS_ENV, "1")
    naive = run_experiment(reference_config(algorithm))

    assert fast.summary() == naive.summary()
    assert fast.messages_by_kind == naive.messages_by_kind
    assert fast.traffic == naive.traffic
    assert fast.node_diagnostics == naive.node_diagnostics
    assert fast.throughput_series == naive.throughput_series
    # The whole result object, serialized, is byte-identical -- except
    # the run manifest, whose kernel_mode field records (correctly) that
    # one run used the naive kernels.
    assert fast.manifest["kernel_mode"] == "fast"
    assert naive.manifest["kernel_mode"] == "naive"
    assert pickle.dumps(_without_manifest(fast)) == pickle.dumps(
        _without_manifest(naive)
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

    monkeypatch.delenv(NAIVE_KERNELS_ENV, raising=False)
    fast = run_experiment(config())
    monkeypatch.setenv(NAIVE_KERNELS_ENV, "1")
    naive = run_experiment(config())
    assert pickle.dumps(_without_manifest(fast)) == pickle.dumps(
        _without_manifest(naive)
    )
