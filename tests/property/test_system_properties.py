"""Property-based end-to-end invariants over random configurations.

Each example builds and runs a tiny but complete system.  Whatever the
algorithm, workload, or topology, these must hold:

* |Psi_hat| <= |Psi| (MAX-subset semantics; spurious results excluded);
* every scheduled tuple is eventually processed (queues drain);
* message conservation: the exact BASE tuple count is (N-1) per arrival;
* determinism: the run is a pure function of its configuration.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.system import run_experiment

configs = st.builds(
    lambda algorithm, nodes, window, kind, seed: SystemConfig(
        num_nodes=nodes,
        window_size=window,
        policy=PolicyConfig(algorithm=algorithm, kappa=4.0),
        workload=WorkloadConfig(
            kind=kind, total_tuples=400, domain=256, arrival_rate=200.0
        ),
        seed=seed,
    ),
    algorithm=st.sampled_from(list(Algorithm)),
    nodes=st.integers(min_value=2, max_value=5),
    window=st.sampled_from([16, 48, 96]),
    kind=st.sampled_from(list(WorkloadKind)),
    seed=st.integers(min_value=0, max_value=10_000),
)


@given(configs)
@settings(max_examples=15, deadline=None)
def test_run_invariants(config):
    result = run_experiment(config)
    assert result.tuples_arrived == 400
    assert 0 <= result.reported_pairs <= result.truth_pairs
    assert 0.0 <= result.epsilon <= 1.0
    assert result.duration_seconds >= result.arrival_span_seconds
    assert result.traffic["total_bytes"] >= 0
    per_node_processed = sum(
        d["tuples_processed"] for d in result.node_diagnostics.values()
    )
    assert per_node_processed == 400


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=8, deadline=None)
def test_base_message_conservation(seed):
    config = SystemConfig(
        num_nodes=3,
        window_size=32,
        policy=PolicyConfig(algorithm=Algorithm.BASE),
        workload=WorkloadConfig(total_tuples=300, domain=128, arrival_rate=100.0),
        seed=seed,
    )
    result = run_experiment(config)
    assert result.messages_by_kind.get("tuple", 0) == 300 * 2
    assert result.epsilon < 0.05


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=5, deadline=None)
def test_runs_are_deterministic(seed):
    config = SystemConfig(
        num_nodes=3,
        window_size=32,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=4.0),
        workload=WorkloadConfig(total_tuples=300, domain=128, arrival_rate=100.0),
        seed=seed,
    )
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.reported_pairs == second.reported_pairs
    assert first.truth_pairs == second.truth_pairs
    assert first.messages_by_kind == second.messages_by_kind
