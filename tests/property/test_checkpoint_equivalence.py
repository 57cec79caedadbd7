"""Blobs written from kept text equal the re-encoded ones, byte for byte.

``window_state`` and ``RemoteSummaryTable.checkpoint_text`` keep the
canonical JSON text of what did not change since their last call, and
``RecoveryCoordinator._checkpoint_blob`` writes the blob's fixed layout
around it.  ``tests/reference_checkpoint.py`` holds the bodies they
replaced, which re-encode everything on every call.  Here random
histories run against both, checkpoints interleaved at random points,
and every section and blob must be ``==`` the reference's bytes --
through the events that can make kept text stale: a window restored to
an earlier state and refilled to a count it was already rendered at, a
time window expiring tuples without an append, a landmark reset, a
remote table cleared and refilled at version numbers it has used
before, one payload object stored at a new version.
"""

import json
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import summaries
from repro.core.summaries import RemoteSummaryTable, SummaryUpdate
from repro.recovery import delta
from repro.recovery.checkpoint import (
    canonical_json,
    restore_window,
    tuple_text,
    window_state,
)
from repro.recovery.coordinator import RecoveryCoordinator
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import CountWindow, LandmarkWindow, TimeWindow
from tests.reference_checkpoint import (
    reference_checkpoint_blob,
    reference_encode_blob,
    reference_encode_tuple,
    reference_remote_state,
    reference_window_state,
)

LANDMARK = 0

awkward_floats = st.sampled_from(
    [5e-324, 2.2250738585072014e-308, 1e308, -0.0, 0.0, 3.0, 1e16, 0.1, 1 / 3]
)
floats = awkward_floats | st.floats(allow_nan=False, allow_infinity=False)
payloads = st.none() | floats | st.text(max_size=4) | st.lists(floats, max_size=2)

window_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 5), floats.map(abs), payloads),
        st.tuples(st.just("append"), st.integers(0, 5), st.just(0.0), st.none()),
        st.tuples(st.just("advance"), st.floats(0.0, 8.0)),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("restore"), st.integers(0, 7)),
    ),
    max_size=40,
)

window_makers = st.sampled_from(
    [
        lambda: CountWindow(1),
        lambda: CountWindow(4),
        lambda: TimeWindow(2.5),
        lambda: LandmarkWindow(LANDMARK),
        lambda: LandmarkWindow(LANDMARK, max_size=3),
    ]
)


def contents(window):
    return (
        list(window),
        window.total_appended,
        getattr(window, "resets", None),
        dict(window._key_counts),
    )


def checkpoint(window, make):
    """One tick: the section, checked against the reference and read back."""
    text = window_state(window)
    assert text.encode("ascii") == reference_encode_blob(reference_window_state(window))
    # Nothing changed since: the kept text itself comes back.
    assert window_state(window) is text
    state = json.loads(text)
    twin = make()
    restore_window(twin, state)
    assert contents(twin) == contents(window)
    # The kept text describes exactly the tuples in the window.
    _, kept, start, lengths = window.rendered
    assert kept is text
    assert len(lengths) == len(window)
    assert sum(lengths) + max(0, len(lengths) - 1) == len(text[start:-2])
    return state


class TestWindows:
    @settings(max_examples=300, deadline=None)
    @given(make=window_makers, ops=window_ops)
    def test_every_blob_equals_the_reference(self, make, ops):
        window = make()
        clock = 0.0
        saved = []
        for index, op in enumerate(ops):
            if op[0] == "append":
                clock = min(clock + op[2], 1e300)
                window.append(
                    StreamTuple(
                        stream=StreamId.R if index % 3 else StreamId.S,
                        key=op[1],
                        origin_node=index % 4,
                        arrival_index=index,
                        payload=op[3],
                        timestamp=clock,
                    )
                )
            elif op[0] == "advance" and isinstance(window, TimeWindow):
                clock += op[1]
                window.advance_to(clock)
            elif op[0] == "checkpoint":
                saved.append((checkpoint(window, make), clock))
            elif op[0] == "restore" and saved:
                state, clock = saved[op[1] % len(saved)]
                restore_window(window, state)
        checkpoint(window, make)

    def test_restore_then_recount_to_a_rendered_total(self):
        """The trap of a cache keyed on ``total_appended``: restore rolls
        the counter back, replay brings it to the rendered value again,
        the length is the same -- and two of the four tuples differ."""
        window = CountWindow(4)
        items = [
            StreamTuple(stream=StreamId.R, key=key, origin_node=0, arrival_index=key)
            for key in range(6)
        ]
        window.append(items[0])
        window.append(items[1])
        early = checkpoint(window, lambda: CountWindow(4))
        window.append(items[2])
        window.append(items[3])
        checkpoint(window, lambda: CountWindow(4))  # rendered at total 4
        restore_window(window, early)
        window.append(items[4])
        window.append(items[5])
        assert window.total_appended == 4 and len(window) == 4
        late = checkpoint(window, lambda: CountWindow(4))
        assert [entry[1] for entry in late["tuples"]] == [0, 1, 4, 5]

    def test_expiry_without_an_append_and_a_landmark_reset(self):
        timed = TimeWindow(1.0)
        for index in range(3):
            timed.append(
                StreamTuple(
                    stream=StreamId.S, key=index, origin_node=1,
                    arrival_index=index, timestamp=float(index) / 2,
                )
            )
        checkpoint(timed, lambda: TimeWindow(1.0))
        timed.advance_to(1.75)  # total_appended stands still, one tuple left
        assert len(checkpoint(timed, lambda: TimeWindow(1.0))["tuples"]) == 1
        timed.advance_to(9.0)
        assert checkpoint(timed, lambda: TimeWindow(1.0))["tuples"] == []

        marked = LandmarkWindow(LANDMARK)
        for index, key in enumerate([3, 4, 5]):
            marked.append(
                StreamTuple(stream=StreamId.R, key=key, origin_node=0, arrival_index=index)
            )
        checkpoint(marked, lambda: LandmarkWindow(LANDMARK))
        marked.append(
            StreamTuple(stream=StreamId.R, key=LANDMARK, origin_node=0, arrival_index=3)
        )
        state = checkpoint(marked, lambda: LandmarkWindow(LANDMARK))
        assert state["resets"] == 1 and len(state["tuples"]) == 1


# ----------------------------------------------------------------------
# the remote summary table
# ----------------------------------------------------------------------

table_ops = st.lists(
    st.one_of(
        # (op, peer, stream, version step, payload seed, full_state)
        st.tuples(
            st.just("apply"),
            st.integers(0, 2),
            st.sampled_from(list(StreamId)),
            st.integers(-1, 2),
            st.integers(0, 3),
            st.booleans(),
        ),
        st.tuples(st.just("reapply"), st.integers(0, 7)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("checkpoint")),
    ),
    max_size=40,
)


def remote_checkpoint(table):
    text = table.checkpoint_text()
    assert text.encode("ascii") == reference_encode_blob(reference_remote_state(table))
    # Bounded by what it mirrors: no text for a slot the table dropped.
    assert len(table._rendered) == len(table._state)
    return json.loads(text)


def snapshot(seed):
    return np.arange(6, dtype=np.int32) * (seed + 1)


def coefficient_map(seed):
    return {bin_: complex(seed + bin_, -0.0) for bin_ in range(seed % 3 + 1)}


class TestRemoteTable:
    @settings(max_examples=300, deadline=None)
    @given(arrays=st.booleans(), ops=table_ops)
    def test_every_blob_equals_the_reference(self, arrays, ops):
        """A table of snapshots (Bloom, sketch) or of coefficient maps
        (DFT: deltas merge, full states replace), with versions that
        stall, go back (dropped by ``apply``) and -- after ``clear`` --
        come round again over different payloads."""
        table = RemoteSummaryTable()
        versions = {}
        stored = []
        for op in ops:
            if op[0] == "apply":
                _, peer, stream, step, seed, full_state = op
                version = max(0, versions.get((peer, stream), 0) + step)
                versions[(peer, stream)] = version
                payload = snapshot(seed) if arrays else coefficient_map(seed)
                stored.append(payload)
                table.apply(
                    peer, make_update(stream, version, payload, arrays or full_state)
                )
            elif op[0] == "reapply" and versions:
                # One payload object, stored before, at the next version
                # of some slot: same object, other entry text.
                payload = stored[op[1] % len(stored)]
                peer, stream = min(versions, key=lambda slot: (slot[0], slot[1].value))
                versions[(peer, stream)] += 1
                table.apply(
                    peer, make_update(stream, versions[(peer, stream)], payload, True)
                )
            elif op[0] == "clear":
                table.clear()
                versions = {}  # the restored counters rolled back
                assert table._rendered is None
            elif op[0] == "checkpoint":
                remote_checkpoint(table)
        remote_checkpoint(table)

    def test_reused_version_number_over_another_payload(self):
        table = RemoteSummaryTable()
        table.apply(1, make_update(StreamId.R, 3, snapshot(1), True))
        first = remote_checkpoint(table)
        table.clear()
        table.apply(1, make_update(StreamId.R, 3, snapshot(2), True))
        second = remote_checkpoint(table)
        assert first[0][:3] == second[0][:3] == [1, "R", 3]
        assert first[0][3] != second[0][3]

    def test_one_payload_object_at_two_versions(self):
        table = RemoteSummaryTable()
        payload = snapshot(1)
        table.apply(1, make_update(StreamId.S, 1, payload, True))
        assert remote_checkpoint(table)[0][2] == 1
        table.apply(1, make_update(StreamId.S, 2, payload, True))
        assert remote_checkpoint(table)[0][2] == 2

    def test_a_broadcast_snapshot_is_rendered_once_for_all_recipients(self, monkeypatch):
        encoded = []
        original = delta.encode_payload

        def counting(payload):
            encoded.append(id(payload))
            return original(payload)

        monkeypatch.setattr(delta, "encode_payload", counting)
        update = make_update(StreamId.R, 1, snapshot(3), True)
        shared = id(update.payload)
        tables = [RemoteSummaryTable() for _ in range(5)]
        for table in tables:
            table.apply(0, update)
        blobs = {table.checkpoint_text() for table in tables}
        assert len(blobs) == 1 and encoded == [shared]
        # The shared text lives exactly as long as the array does.
        assert shared in summaries._snapshot_texts
        del update
        for table in tables:
            table.clear()
        assert shared not in summaries._snapshot_texts


def make_update(stream, version, payload, full_state):
    return SummaryUpdate(
        algorithm="any",
        stream=stream,
        version=version,
        window_size=8,
        entries=len(payload),
        payload=payload,
        full_state=full_state,
    )


# ----------------------------------------------------------------------
# the tuple formatter and the blob writer
# ----------------------------------------------------------------------

big_ints = st.integers(-(2**70), 2**70)
odd_timestamps = st.none() | st.integers(-3, 3) | st.sampled_from(
    [float("inf"), -float("inf"), float("nan")]
)

keys = st.sampled_from(["2", "10", "a", "B", "", "tuples", "é", '"']) | st.text(max_size=3)
leaves = st.none() | st.booleans() | big_ints | floats | st.text(max_size=5)
trees = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=20,
)


@st.composite
def stream_tuples(draw, plain=False):
    """A plain tuple, or (``plain`` false) one with at most one field the
    formatter must leave to the encoder: a bool for an int, a payload, an
    int or missing or non-finite timestamp."""
    fields = {
        "stream": draw(st.sampled_from(list(StreamId))),
        "key": draw(big_ints),
        "origin_node": draw(big_ints),
        "arrival_index": draw(big_ints),
        "payload": None,
        "tuple_id": draw(big_ints),
        "timestamp": draw(floats),
    }
    odd = None if plain else draw(st.sampled_from([None] + sorted(fields)))
    if odd == "payload":
        fields["payload"] = draw(payloads | trees)
    elif odd == "timestamp":
        fields["timestamp"] = draw(odd_timestamps)
    elif odd in ("key", "origin_node", "arrival_index", "tuple_id"):
        fields[odd] = draw(st.booleans())
    return StreamTuple(**fields)


writer_ops = st.lists(
    st.one_of(
        # (op, window: -1 local R, -2 local S, else a shadow origin, tuple)
        st.tuples(st.just("append"), st.integers(-2, 12), stream_tuples(plain=True)),
        st.tuples(st.just("append"), st.integers(-2, 12), stream_tuples()),
        st.tuples(
            st.just("remote"),
            st.integers(0, 12),
            st.sampled_from(list(StreamId)),
            st.integers(0, 3),
        ),
        st.tuples(st.just("clear")),
        st.tuples(st.just("checkpoint"), floats, st.none() | floats, floats, big_ints),
    ),
    max_size=30,
)


class FakePolicy:
    """What the writer reads of a policy: its state tree and remote text."""

    def __init__(self, state, remote):
        self.state = state
        self.remote = remote

    def checkpoint_state(self):
        return self.state

    def remote_text(self):
        return "[]" if self.remote is None else self.remote.checkpoint_text()


def make_coordinator(policy_state, remote):
    windows = {StreamId.R: CountWindow(3), StreamId.S: CountWindow(3)}
    node = SimpleNamespace(
        node_id=3,
        join=SimpleNamespace(
            window=windows.__getitem__, local_results=0, probe_results=0
        ),
        shadow_windows={StreamId.R: {}, StreamId.S: {}},
        policy=FakePolicy(policy_state, remote),
        _last_arrival_time=None,
        _mean_interarrival=0.0,
    )
    return RecoveryCoordinator(node, None)


def tick(coordinator, now):
    blob = coordinator._checkpoint_blob(now)
    assert blob == reference_checkpoint_blob(coordinator, now)
    return blob


class TestEncoder:
    @settings(max_examples=300, deadline=None)
    @given(item=stream_tuples())
    def test_tuple_text_equals_the_encoder(self, item):
        """Plain or not: -0.0, 5e-324, 1e16, ints past 64 bits, a bool
        for an int, payloads, an int or missing or non-finite timestamp."""
        assert tuple_text(item) == canonical_json(reference_encode_tuple(item))

    @settings(max_examples=300, deadline=None)
    @given(
        policy_state=st.dictionaries(keys, trees, max_size=5),
        tables=st.booleans(),
        ops=writer_ops,
    )
    def test_written_layout_equals_the_reference(self, policy_state, tables, ops):
        """The whole blob, as windows, shadow windows, the remote table,
        the counters and the interarrival clock move between ticks."""
        remote = RemoteSummaryTable() if tables else None
        coordinator = make_coordinator(policy_state, remote)
        node = coordinator.node
        versions = {}
        for op in ops:
            if op[0] == "append":
                _, target, item = op
                if target < 0:
                    node.join.window(StreamId.R if target == -1 else StreamId.S).append(item)
                else:
                    shadows = node.shadow_windows[item.stream]
                    shadows.setdefault(target, CountWindow(2)).append(item)
            elif op[0] == "remote" and remote is not None:
                _, peer, stream, seed = op
                version = versions[(peer, stream)] = versions.get((peer, stream), 0) + 1
                remote.apply(peer, make_update(stream, version, snapshot(seed), True))
            elif op[0] == "clear" and remote is not None:
                remote.clear()
                versions = {}
            elif op[0] == "checkpoint":
                _, now, last, mean, results = op
                node._last_arrival_time, node._mean_interarrival = last, mean
                node.join.local_results = node.join.probe_results = results
                tick(coordinator, now)
        blob = tick(coordinator, 1.5)
        assert json.loads(blob)["queries"]["0"]["policy"] == json.loads(
            canonical_json(policy_state)
        )

    def test_keys_sort_as_the_strings_json_sees(self):
        coordinator = make_coordinator({}, None)
        for origin in (2, 10, 1):
            window = coordinator.node.shadow_windows[StreamId.R][origin] = CountWindow(2)
            window.append(
                StreamTuple(
                    stream=StreamId.R, key=origin, origin_node=origin,
                    arrival_index=0, tuple_id=origin, timestamp=0.5,
                )
            )
        blob = tick(coordinator, 2.0)
        shadows = blob[blob.index(b'"shadows":') :]
        assert shadows.index(b'"1":') < shadows.index(b'"10":') < shadows.index(b'"2":')
