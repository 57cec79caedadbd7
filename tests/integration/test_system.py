"""Integration tests: full simulated runs of the distributed join."""

import math

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.flow import FlowSettings
from repro.core.service import work_kind
from repro.core.system import DistributedJoinSystem, run_experiment


def small_config(algorithm, **overrides):
    defaults = dict(
        num_nodes=4,
        window_size=96,
        policy=PolicyConfig(algorithm=algorithm, kappa=4.0),
        workload=WorkloadConfig(total_tuples=1500, domain=512, arrival_rate=120.0),
        seed=11,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


class TestBaseExactness:
    def test_base_is_exact_at_light_load(self):
        result = run_experiment(small_config(Algorithm.BASE))
        assert result.truth_pairs > 0
        assert result.epsilon < 0.01

    def test_base_message_complexity_is_n_minus_1(self):
        result = run_experiment(small_config(Algorithm.BASE))
        tuple_messages = result.messages_by_kind.get("tuple", 0)
        assert tuple_messages == result.tuples_arrived * 3


class TestFilteredAlgorithms:
    @pytest.mark.parametrize(
        "algorithm",
        [Algorithm.ROUND_ROBIN, Algorithm.DFT, Algorithm.DFTT, Algorithm.BLOOM, Algorithm.SKCH],
    )
    def test_runs_to_completion_with_sane_metrics(self, algorithm):
        result = run_experiment(small_config(algorithm))
        assert result.truth_pairs > 0
        assert 0.0 <= result.epsilon <= 1.0
        assert result.reported_pairs <= result.truth_pairs
        assert result.tuples_arrived == 1500
        assert result.duration_seconds > 0

    @pytest.mark.parametrize(
        "algorithm", [Algorithm.DFT, Algorithm.DFTT, Algorithm.BLOOM, Algorithm.SKCH]
    )
    def test_filtered_send_fewer_messages_than_base(self, algorithm):
        base = run_experiment(small_config(Algorithm.BASE))
        filtered = run_experiment(small_config(algorithm))
        assert filtered.data_messages < base.data_messages

    def test_budget_zero_point_five_vs_three_error_ordering(self):
        small_budget = run_experiment(
            small_config(
                Algorithm.DFT,
                policy=PolicyConfig(
                    algorithm=Algorithm.DFT,
                    kappa=4.0,
                    flow=FlowSettings(budget_override=0.5),
                ),
            )
        )
        big_budget = run_experiment(
            small_config(
                Algorithm.DFT,
                policy=PolicyConfig(
                    algorithm=Algorithm.DFT,
                    kappa=4.0,
                    flow=FlowSettings(budget_override=3.0),
                ),
            )
        )
        assert big_budget.epsilon < small_budget.epsilon
        assert big_budget.data_messages > small_budget.data_messages


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_experiment(small_config(Algorithm.DFTT))
        b = run_experiment(small_config(Algorithm.DFTT))
        assert a.truth_pairs == b.truth_pairs
        assert a.reported_pairs == b.reported_pairs
        assert a.data_messages == b.data_messages
        assert a.duration_seconds == pytest.approx(b.duration_seconds)

    def test_different_seed_different_stream(self):
        a = run_experiment(small_config(Algorithm.DFTT))
        b = run_experiment(small_config(Algorithm.DFTT, seed=12))
        assert (a.truth_pairs, a.reported_pairs) != (b.truth_pairs, b.reported_pairs)


class TestWorkloads:
    @pytest.mark.parametrize("kind", list(WorkloadKind))
    def test_all_workloads_run(self, kind):
        config = small_config(
            Algorithm.DFTT,
            workload=WorkloadConfig(
                kind=kind, total_tuples=800, domain=512, arrival_rate=120.0
            ),
        )
        result = run_experiment(config)
        assert result.tuples_arrived == 800


class TestSummaryTraffic:
    def test_dft_summaries_account_bytes(self):
        result = run_experiment(small_config(Algorithm.DFT))
        assert result.traffic["summary_bytes"] > 0
        assert 0.0 < result.summary_overhead_fraction < 1.0

    def test_base_has_no_summary_traffic(self):
        result = run_experiment(small_config(Algorithm.BASE))
        assert result.traffic["summary_bytes"] == 0


class TestSystemAssembly:
    def test_node_count_and_registration(self):
        system = DistributedJoinSystem(small_config(Algorithm.DFTT))
        assert len(system.nodes) == 4
        assert system.network.node_ids == (0, 1, 2, 3)

    def test_schedule_then_run_explicitly(self):
        """A clean run keeps each scheduled arrival in its node's inbox,
        not as an event, and serves each once, in index order."""
        system = DistributedJoinSystem(small_config(Algorithm.BASE))
        served = {node.node_id: [] for node in system.nodes}
        for node in system.nodes:
            process = node.service

            def serve(work, log=served[node.node_id], original=process.serve):
                if work_kind(work) == "local":
                    log.append(work.arrival_index)
                return original(work)

            process.serve = serve
        system.schedule_workload()
        local_entries = [
            entry
            for node in system.nodes
            for entry in node.service.inbox
            if entry[1] == 0
        ]
        assert len(local_entries) == 1500
        # At most one wake per node.
        assert system.scheduler.pending <= len(system.nodes)
        result = system.run()
        assert result.tuples_arrived == 1500
        assert all(log == sorted(log) for log in served.values())
        assert sorted(sum(served.values(), [])) == list(range(1500))

    def test_per_query_is_one_entry_echoing_the_headline(self):
        result = run_experiment(small_config(Algorithm.DFTT))
        assert result.per_query == [
            {
                "query_id": 0.0,
                "truth_pairs": float(result.truth_pairs),
                "reported_pairs": float(result.reported_pairs),
                "epsilon": result.epsilon,
            }
        ]

    def test_overloaded_base_queues_grow_and_drain(self):
        config = small_config(
            Algorithm.BASE,
            num_nodes=5,
            workload=WorkloadConfig(total_tuples=1200, domain=512, arrival_rate=2000.0),
        )
        result = run_experiment(config)
        max_depth = max(d["max_queue_depth"] for d in result.node_diagnostics.values())
        assert max_depth > 10  # saturation built real backlogs
        assert result.duration_seconds > result.arrival_span_seconds * 2
