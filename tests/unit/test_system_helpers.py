"""Unit tests for system-assembly helpers."""

import itertools

import numpy as np
import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.system import DistributedJoinSystem, build_key_stream
from repro.net.message import MessageKind


class TestBuildKeyStream:
    @pytest.mark.parametrize("kind", list(WorkloadKind))
    def test_streams_stay_in_domain(self, kind):
        workload = WorkloadConfig(kind=kind, domain=256)
        stream = build_key_stream(workload, np.random.default_rng(1))
        keys = list(itertools.islice(stream, 500))
        assert min(keys) >= 1
        assert max(keys) <= 256

    def test_deterministic_per_rng_seed(self):
        workload = WorkloadConfig(kind=WorkloadKind.ZIPF, domain=256)
        first = list(
            itertools.islice(build_key_stream(workload, np.random.default_rng(5)), 100)
        )
        second = list(
            itertools.islice(build_key_stream(workload, np.random.default_rng(5)), 100)
        )
        assert first == second

    def test_financial_stream_is_autocorrelated(self):
        workload = WorkloadConfig(kind=WorkloadKind.FINANCIAL, domain=4096)
        stream = build_key_stream(workload, np.random.default_rng(2))
        keys = np.array(list(itertools.islice(stream, 1000)), dtype=float)
        centered = keys - keys.mean()
        if centered.std() > 0:
            lag1 = np.corrcoef(centered[:-1], centered[1:])[0, 1]
            assert lag1 > 0.5


class TestQueryDissemination:
    def _system(self):
        return DistributedJoinSystem(
            SystemConfig(
                num_nodes=4,
                window_size=32,
                policy=PolicyConfig(algorithm=Algorithm.BASE),
                workload=WorkloadConfig(total_tuples=50, domain=64, arrival_rate=100.0),
                seed=3,
            )
        )

    def test_control_messages_reach_all_peers(self):
        system = self._system()
        system.disseminate_query()
        assert system.network.stats.messages_by_kind[MessageKind.CONTROL.value] == 3

    def test_schedule_workload_disseminates_once(self):
        system = self._system()
        system.schedule_workload()
        assert system.network.stats.messages_by_kind[MessageKind.CONTROL.value] == 3

    def test_control_traffic_not_in_data_plane(self):
        system = self._system()
        result = system.run()
        assert result.messages_by_kind.get("control", 0) == 3
        assert result.data_messages == result.messages_by_kind.get(
            "tuple", 0
        ) + result.messages_by_kind.get("summary", 0)


class TestArrivalSchedule:
    def test_arrival_span_positive_and_rate_consistent(self):
        config = SystemConfig(
            num_nodes=3,
            window_size=32,
            policy=PolicyConfig(algorithm=Algorithm.BASE),
            workload=WorkloadConfig(total_tuples=2000, domain=64, arrival_rate=500.0),
            seed=7,
        )
        system = DistributedJoinSystem(config)
        system.schedule_workload()
        # 2000 arrivals at 500/s: span concentrates near 4 s.
        assert 3.0 < system._arrival_span < 5.5

    def test_streams_are_roughly_balanced(self):
        config = SystemConfig(
            num_nodes=3,
            window_size=64,
            policy=PolicyConfig(algorithm=Algorithm.BASE),
            workload=WorkloadConfig(total_tuples=2000, domain=128, arrival_rate=400.0),
            seed=11,
        )
        system = DistributedJoinSystem(config)
        result = system.run()
        from repro.streams.tuples import StreamId

        r_pop = sum(len(node.join.window(StreamId.R)) for node in system.nodes)
        s_pop = sum(len(node.join.window(StreamId.S)) for node in system.nodes)
        # Windows full on both sides at run end (3 nodes x 64 capacity).
        assert r_pop + s_pop == 2 * 3 * 64 or abs(r_pop - s_pop) < 100
