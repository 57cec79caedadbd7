"""Unit tests for the reliable control-plane transport (ARQ edge cases)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net import reliable
from repro.net.message import Message, MessageKind
from repro.net.reliable import ReliabilitySettings, ReliableTransport
from repro.net.simulator import EventScheduler


SETTINGS = ReliabilitySettings(enabled=True, retransmit_timeout_s=0.1)


class LossyWire:
    """An injectable send_fn that drops the first ``drop_first`` sends."""

    def __init__(self, drop_first=0):
        self.sent = []
        self.destinations = []
        self.drop_first = drop_first

    def __call__(self, message, destination):
        self.sent.append(message)
        self.destinations.append(destination)
        if len(self.sent) <= self.drop_first:
            return None  # dropped: never delivered
        return message


def make_transport(scheduler, wire, seed=0, settings=SETTINGS, node_id=0):
    return ReliableTransport(
        node_id=node_id,
        scheduler=scheduler,
        send_fn=wire,
        settings=settings,
        rng=np.random.default_rng(seed),
    )


def control(source=0):
    return Message(kind=MessageKind.CONTROL, source=source, payload=(None, []))


class TestSettings:
    def test_validation(self):
        for bad in (
            dict(retransmit_timeout_s=0.0),
            dict(staleness_budget_s=-1.0),
            dict(degradation_mode="panic"),
        ):
            with pytest.raises(ConfigurationError):
                ReliabilitySettings(**bad).validate()
        ReliabilitySettings().validate()


class TestRetransmission:
    def test_retransmits_until_a_copy_survives(self):
        scheduler = EventScheduler()
        wire = LossyWire(drop_first=3)
        sender = make_transport(scheduler, wire)
        sender.send(control(), 1)
        # Simulate: first 3 transmissions die, the 4th is delivered and acked.
        scheduler.run()  # drains all retransmit timers
        assert sender.retransmits >= 3
        survivors = wire.sent[3:]
        assert survivors, "a retransmission should eventually get through"
        assert all(m.seq == 0 for m in wire.sent)
        # Every retransmit goes to the channel's peer.
        assert wire.destinations == [1] * len(wire.sent)

    def test_ack_stops_retransmission(self):
        scheduler = EventScheduler()
        wire = LossyWire()
        sender = make_transport(scheduler, wire)
        message = control()
        sender.send(message, 1)
        ack = Message(kind=MessageKind.ACK, source=1, seq=message.seq)
        sender.on_ack(ack)
        scheduler.run()
        assert sender.retransmits == 0
        assert not sender._channel(1).in_flight
        assert len(wire.sent) == 1

    def test_delivery_failure_after_max_retries(self):
        scheduler = EventScheduler()
        wire = LossyWire(drop_first=10**9)  # nothing ever arrives
        sender = make_transport(scheduler, wire)
        sender.send(control(), 1)
        scheduler.run()
        assert sender.retransmits == reliable.MAX_RETRIES
        assert sender.delivery_failures == 1
        assert len(wire.sent) == 1 + reliable.MAX_RETRIES

    def test_backoff_grows_the_gaps(self, monkeypatch):
        monkeypatch.setattr(reliable, "MAX_RETRIES", 3)
        monkeypatch.setattr(reliable, "JITTER_FRACTION", 0.0)
        scheduler = EventScheduler()
        times = []
        wire = LossyWire(drop_first=10**9)

        def recording_wire(message, destination):
            times.append(scheduler.now)
            return wire(message, destination)

        sender = make_transport(scheduler, recording_wire)
        sender.send(control(), 1)
        scheduler.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps == pytest.approx([0.1, 0.2, 0.4])

    def test_jitter_is_deterministic_under_a_fixed_seed(self):
        def timeline(seed):
            scheduler = EventScheduler()
            times = []

            def wire(message, destination):
                times.append(scheduler.now)

            sender = make_transport(scheduler, wire, seed=seed)
            sender.send(control(), 1)
            scheduler.run()
            return times

        assert timeline(42) == timeline(42)
        assert timeline(42) != timeline(43)  # the jitter does something


class TestSequencing:
    def test_a_sequenced_message_is_refused(self):
        """One object carries one ``seq``: a message already sent reliably
        (or stamped by hand) cannot be sequenced again, so a shared or
        reused message never goes out under two sequence numbers."""
        scheduler = EventScheduler()
        wire = LossyWire()
        sender = make_transport(scheduler, wire)
        message = control()
        sender.send(message, 1)
        with pytest.raises(SimulationError):
            sender.send(message, 2)
        with pytest.raises(SimulationError):
            sender.send(message, 1)
        stamped = control()
        stamped.seq = 7
        with pytest.raises(SimulationError):
            sender.send(stamped, 1)
        assert wire.sent == [message]
        assert message.seq == 0
        assert sender._channel(1).next_seq == 1
        assert 2 not in sender._channels

    def test_retransmits_still_resend_the_sequenced_message(self):
        scheduler = EventScheduler()
        wire = LossyWire(drop_first=2)
        sender = make_transport(scheduler, wire)
        message = control()
        sender.send(message, 1)
        scheduler.run(until=1.0)
        assert sender.retransmits >= 2
        assert all(sent is message for sent in wire.sent)
        assert message.seq == 0


class TestReceiver:
    def test_ack_lost_then_duplicate_suppressed_but_reacked(self):
        scheduler = EventScheduler()
        wire = LossyWire()
        receiver = make_transport(scheduler, wire, node_id=1)
        message = control()
        message.seq = 0
        released = receiver.on_receive(message)
        assert released == [message]
        # The ack died; the sender retransmits the same sequence number.
        duplicate = control()
        duplicate.seq = 0
        assert receiver.on_receive(duplicate) == []
        assert receiver.duplicates_suppressed == 1
        # Every arrival is acked -- the retransmission's ack replaces the
        # lost one, or the sender would retry forever.
        acks = [
            (m, destination)
            for m, destination in zip(wire.sent, wire.destinations)
            if m.kind is MessageKind.ACK
        ]
        assert len(acks) == 2
        # An ACK goes back to the acknowledged message's source.
        assert all(a.seq == 0 and destination == 0 for a, destination in acks)

    def test_in_order_release_across_retransmits(self):
        scheduler = EventScheduler()
        receiver = make_transport(scheduler, LossyWire(), node_id=1)
        first, second, third = control(), control(), control()
        first.seq, second.seq, third.seq = 0, 1, 2
        # seq 0 is lost in transit; 1 and 2 arrive and must wait.
        assert receiver.on_receive(second) == []
        assert receiver.on_receive(third) == []
        assert receiver.out_of_order_buffered == 2
        # The retransmitted seq 0 releases the whole run, in order.
        released = receiver.on_receive(first)
        assert [m.seq for m in released] == [0, 1, 2]

    def test_rejects_unsequenced_messages(self):
        scheduler = EventScheduler()
        receiver = make_transport(scheduler, LossyWire(), node_id=1)
        with pytest.raises(ConfigurationError):
            receiver.on_receive(control())  # seq is None

    def test_counters_snapshot(self):
        scheduler = EventScheduler()
        transport = make_transport(scheduler, LossyWire())
        counters = transport.counters()
        assert set(counters) == {
            "retransmits",
            "acks_sent",
            "acks_received",
            "duplicates_suppressed",
            "delivery_failures",
            "out_of_order_buffered",
            "channel_resets",
        }
        assert all(value == 0.0 for value in counters.values())


class TestEndToEnd:
    def test_two_transports_over_a_perfect_wire(self):
        scheduler = EventScheduler()
        inboxes = {0: [], 1: []}

        def wire(message, destination):
            # Deliver instantly to the destination transport.
            target = transports[destination]
            if message.kind is MessageKind.ACK:
                target.on_ack(message)
            else:
                inboxes[destination].extend(target.on_receive(message))

        transports = {
            node: make_transport(scheduler, wire, node_id=node) for node in (0, 1)
        }
        for _ in range(5):
            transports[0].send(control(), 1)
        scheduler.run()
        assert [m.seq for m in inboxes[1]] == [0, 1, 2, 3, 4]
        assert transports[0].retransmits == 0
        assert transports[0].acks_received == 5
        assert transports[1].acks_sent == 5
