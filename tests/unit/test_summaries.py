"""Unit tests for summary dissemination machinery."""

import numpy as np
import pytest

from repro.core.summaries import (
    DftSummaryManager,
    RemoteSummaryTable,
    SnapshotSummaryManager,
    SummaryOutbox,
    SummaryUpdate,
)
from repro.errors import SummaryError
from repro.streams.tuples import StreamId


def make_update(version=1, stream=StreamId.R, algorithm="dft", payload=None, full=False):
    return SummaryUpdate(
        algorithm=algorithm,
        stream=stream,
        version=version,
        window_size=8,
        entries=len(payload) if isinstance(payload, dict) else 1,
        payload=payload if payload is not None else {0: 1 + 0j},
        full_state=full,
    )


class TestSummaryOutbox:
    def test_broadcast_queues_for_all_peers(self):
        outbox = SummaryOutbox([1, 2, 3])
        outbox.broadcast(make_update())
        for peer in (1, 2, 3):
            assert outbox.has_pending(peer)

    def test_take_clears_queue(self):
        outbox = SummaryOutbox([1, 2])
        outbox.broadcast(make_update())
        updates = outbox.take(1)
        assert len(updates) == 1
        assert not outbox.has_pending(1)
        assert outbox.has_pending(2)

    def test_newer_update_supersedes_queued(self):
        outbox = SummaryOutbox([1])
        outbox.broadcast(make_update(version=1))
        outbox.broadcast(make_update(version=2))
        updates = outbox.take(1)
        assert len(updates) == 1
        assert updates[0].version == 2

    def test_different_slots_coexist(self):
        outbox = SummaryOutbox([1])
        outbox.broadcast(make_update(stream=StreamId.R))
        outbox.broadcast(make_update(stream=StreamId.S))
        assert len(outbox.take(1)) == 2

    def test_pending_entries_sum(self):
        outbox = SummaryOutbox([1])
        outbox.broadcast(make_update(payload={0: 1j, 1: 2j}))
        outbox.broadcast(make_update(stream=StreamId.S, payload={0: 1j}))
        assert sum(update.entries for update in outbox.take(1)) == 3

    def test_peers_with_pending(self):
        outbox = SummaryOutbox([1, 2])
        assert outbox.peers_with_pending() == []
        outbox.queue_for(2, make_update())
        assert outbox.peers_with_pending() == [2]


class TestRemoteSummaryTable:
    def test_apply_and_get(self):
        table = RemoteSummaryTable()
        assert table.apply(7, make_update(payload={0: 1j}))
        assert table.get(7, StreamId.R) == {0: 1j}
        assert table.get(7, StreamId.S) is None

    def test_stale_versions_dropped(self):
        table = RemoteSummaryTable()
        table.apply(7, make_update(version=5, payload={0: 5j}))
        assert not table.apply(7, make_update(version=4, payload={0: 4j}))
        assert table.get(7, StreamId.R) == {0: 5j}

    def test_delta_updates_merge(self):
        table = RemoteSummaryTable()
        table.apply(1, make_update(version=1, payload={0: 1j, 1: 2j}))
        table.apply(1, make_update(version=2, payload={1: 9j, 2: 3j}))
        assert table.get(1, StreamId.R) == {0: 1j, 1: 9j, 2: 3j}

    def test_snapshot_updates_replace(self):
        table = RemoteSummaryTable()
        table.apply(1, make_update(version=1, payload={0: 1j, 1: 2j}, full=True))
        table.apply(1, make_update(version=2, payload={5: 5j}, full=True))
        assert table.get(1, StreamId.R) == {5: 5j}

    def test_known_peers_by_stream(self):
        table = RemoteSummaryTable()
        table.apply(1, make_update(stream=StreamId.R))
        table.apply(2, make_update(stream=StreamId.S))
        assert table.get(1, StreamId.R) is not None
        assert table.get(1, StreamId.S) is None
        assert table.get(2, StreamId.S) is not None
        assert table.get(2, StreamId.R) is None


class TestDftSummaryManager:
    def _manager(self, budget=4, refresh=4, tolerance=0.05):
        outbox = SummaryOutbox([1, 2])
        manager = DftSummaryManager(
            stream=StreamId.R,
            window_size=16,
            budget=budget,
            refresh_interval=refresh,
            delta_tolerance=tolerance,
            outbox=outbox,
        )
        return manager, outbox

    def test_first_refresh_broadcasts_everything(self):
        manager, outbox = self._manager(refresh=4)
        for value in (5.0, 6.0, 7.0, 8.0):
            manager.observe(value)
        assert manager.broadcasts == 1
        updates = outbox.take(1)
        assert len(updates) == 1
        assert set(updates[0].payload) == {0, 1, 2, 3}

    def test_unchanged_coefficients_not_resent(self):
        manager, outbox = self._manager(refresh=2, tolerance=0.05)
        # Fill the window with a constant: after that, sliding in the same
        # value leaves the DC bin fixed and the other bins at ~zero.
        for _ in range(16):
            manager.observe(5.0)
        outbox.take(1)
        for _ in range(4):
            manager.observe(5.0)
        assert not outbox.has_pending(1)

    def test_versions_increase(self):
        manager, _ = self._manager(refresh=100, tolerance=0.0)
        manager.observe(1.0)
        first = manager.refresh()
        manager.observe(100.0)
        second = manager.refresh()
        assert first is not None and second is not None
        assert second.version > first.version

    def test_local_coefficients_match_sliding_dft(self):
        manager, _ = self._manager()
        for value in range(10):
            manager.observe(float(value))
        mapping = manager.local_coefficients()
        assert set(mapping) == set(int(b) for b in manager.dft.coefficient_view()[0])

    def test_validation(self):
        outbox = SummaryOutbox([1])
        with pytest.raises(SummaryError):
            DftSummaryManager(StreamId.R, 16, 4, 0, 0.1, outbox)
        with pytest.raises(SummaryError):
            DftSummaryManager(StreamId.R, 16, 4, 1, -0.1, outbox)


class TestSnapshotSummaryManager:
    def test_tick_cadence(self):
        outbox = SummaryOutbox([1])
        state = {"value": 0}
        manager = SnapshotSummaryManager(
            algorithm="bloom",
            stream=StreamId.S,
            window_size=16,
            entries=3,
            refresh_interval=3,
            outbox=outbox,
            snapshot_fn=lambda: dict(state),
        )
        assert manager.tick() is None
        assert manager.tick() is None
        update = manager.tick()
        assert update is not None
        assert update.full_state
        assert update.entries == 3
        assert manager.broadcasts == 1

    def test_snapshot_captures_current_state(self):
        outbox = SummaryOutbox([1])
        state = {"value": 0}
        manager = SnapshotSummaryManager(
            "skch", StreamId.R, 16, 1, 1, outbox, lambda: dict(state)
        )
        state["value"] = 42
        update = manager.tick()
        assert update.payload == {"value": 42}
