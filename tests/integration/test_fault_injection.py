"""Fault-injection tests: the system degrades gracefully under message loss."""

import numpy as np
import pytest

from repro.config import Algorithm
from repro.core.system import DistributedJoinSystem, run_experiment
from repro.errors import ConfigurationError
from repro.net.faults import FaultPlan
from repro.net.link import Link, LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventKeySource, EventScheduler
from tests.ingress import event_ingress


class TestLinkLoss:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(loss_probability=1.0).validate()
        with pytest.raises(ConfigurationError):
            LinkSpec(loss_probability=-0.1).validate()

    def test_lossless_by_default(self):
        delivered = []
        scheduler = EventScheduler()
        link = Link(
            scheduler,
            LinkSpec(),
            delivered.append,
            event_ingress(scheduler),
            EventKeySource(0),
            rng=np.random.default_rng(0),
        )
        for _ in range(50):
            link.send(Message(kind=MessageKind.TUPLE, source=0))
        scheduler.run()
        assert len(delivered) == 50
        assert link.messages_lost == 0
        assert link.bytes_lost == 0

    def test_loss_rate_is_respected(self):
        delivered = []
        scheduler = EventScheduler()
        link = Link(
            scheduler,
            LinkSpec(loss_probability=0.3),
            delivered.append,
            event_ingress(scheduler),
            EventKeySource(0),
            rng=np.random.default_rng(1),
        )
        for _ in range(1000):
            link.send(Message(kind=MessageKind.TUPLE, source=0))
        scheduler.run()
        assert link.messages_lost + len(delivered) == 1000
        assert 0.25 < link.messages_lost / 1000 < 0.35
        assert link.bytes_lost == link.messages_lost * 72

    def test_lost_messages_still_cost_bandwidth(self):
        scheduler = EventScheduler()
        link = Link(
            scheduler,
            LinkSpec(loss_probability=0.5),
            lambda m: None,
            event_ingress(scheduler),
            EventKeySource(0),
            rng=np.random.default_rng(2),
        )
        for _ in range(20):
            link.send(Message(kind=MessageKind.TUPLE, source=0))
        assert link.queue_depth_seconds() == pytest.approx(20 * 72 * 8 / 90_000)
        assert link.bytes_sent == 20 * 72


class TestSystemUnderLoss:
    def test_base_loses_exactly_the_dropped_matches(self, lossy_config):
        clean = run_experiment(lossy_config(Algorithm.BASE, 0.0))
        lossy = run_experiment(lossy_config(Algorithm.BASE, 0.2))
        assert clean.epsilon < 0.02
        assert lossy.epsilon > clean.epsilon
        assert lossy.epsilon < 0.5  # local + surviving-copy results remain

    @pytest.mark.parametrize("algorithm", [Algorithm.DFT, Algorithm.DFTT, Algorithm.BLOOM])
    def test_filtered_algorithms_survive_loss(self, lossy_config, algorithm):
        result = run_experiment(lossy_config(algorithm, 0.2))
        assert result.truth_pairs > 0
        assert result.reported_pairs > 0
        assert 0.0 <= result.epsilon <= 1.0

    def test_error_monotone_in_loss_rate(self, lossy_config):
        errors = [
            run_experiment(lossy_config(Algorithm.BASE, loss)).epsilon
            for loss in (0.0, 0.3, 0.6)
        ]
        assert errors[0] <= errors[1] <= errors[2]


class TestLossAccounting:
    """Satellite fix: in-transit drops surface in stats and run results."""

    def test_run_result_reports_losses(self, lossy_config):
        result = run_experiment(lossy_config(Algorithm.BASE, 0.3))
        assert result.messages_lost > 0
        assert result.traffic["messages_lost"] == result.messages_lost
        assert result.traffic["bytes_lost"] > 0
        # Lost messages were sent (serialized) before dying in transit.
        assert result.messages_lost < result.traffic["total_messages"]

    def test_clean_run_reports_zero_losses(self, lossy_config):
        result = run_experiment(lossy_config(Algorithm.BASE, 0.0))
        assert result.messages_lost == 0
        assert result.traffic["bytes_lost"] == 0

    def test_loss_matrices(self, lossy_config):
        """The per-link loss table (``link_stats`` columns 2 and 3: the
        sender x receiver loss matrices) adds up to the network totals."""
        system = DistributedJoinSystem(lossy_config(Algorithm.BASE, 0.3))
        system.run()
        links = system.network.link_stats()
        assert sum(row[2] for row in links.values()) == system.network.stats.messages_lost
        assert sum(row[3] for row in links.values()) == system.network.stats.bytes_lost
        assert all(source != destination for source, destination in links)

    def test_fault_blocked_messages_are_accounted_as_lost(self, lossy_config):
        plan = FaultPlan.parse("outage@t=1,d=2,link=0-1,link=0-2,link=0-3", num_nodes=4)
        result = run_experiment(lossy_config(Algorithm.BASE, 0.0, faults=plan))
        assert result.faults["messages_blocked"] > 0
        assert result.messages_lost >= result.faults["messages_blocked"]
        assert result.traffic["bytes_lost"] > 0
