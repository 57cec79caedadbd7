"""Blobs assembled from remembered text equal the re-encoded ones, byte for byte.

``window_state`` and ``RemoteSummaryTable.checkpoint_state`` keep the
canonical JSON text of what did not change since their last call and
``encode_blob`` splices it in (PR 24).  ``tests/reference_checkpoint.py``
holds the bodies they replaced, which re-encode everything on every call.
Here random histories run against both, checkpoints interleaved at random
points, and every blob must be ``==`` the reference's bytes -- through
the events that can make remembered text stale: a window restored to an
earlier state and refilled to a count it was already rendered at, a time
window expiring tuples without an append, a landmark reset, a remote
table cleared and refilled at version numbers it has used before, one
payload object stored at a new version.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import summaries
from repro.core.summaries import RemoteSummaryTable, SummaryUpdate
from repro.recovery import delta
from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    Rendered,
    decode_blob,
    encode_blob,
    restore_window,
    window_state,
)
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import CountWindow, LandmarkWindow, TimeWindow
from tests.reference_checkpoint import (
    reference_encode_blob,
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
    """One tick: the blob, checked against the reference and read back."""
    blob = encode_blob({"version": CHECKPOINT_VERSION, "window": window_state(window)})
    assert blob == reference_encode_blob(
        {"version": CHECKPOINT_VERSION, "window": reference_window_state(window)}
    )
    state = decode_blob(blob)["window"]
    twin = make()
    restore_window(twin, state)
    assert contents(twin) == contents(window)
    # The remembered text describes exactly the tuples in the window.
    _, text, lengths = window.checkpoint_text
    assert len(lengths) == len(window)
    assert sum(lengths) + max(0, len(lengths) - 1) == len(text)
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
    blob = encode_blob({"version": CHECKPOINT_VERSION, "remote": table.checkpoint_state()})
    assert blob == reference_encode_blob(
        {"version": CHECKPOINT_VERSION, "remote": reference_remote_state(table)}
    )
    # Bounded by what it mirrors: no text for a slot the table dropped.
    assert set(table._rendered) == set(table._state)
    return decode_blob(blob)["remote"]


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
        blobs = {encode_blob({"remote": table.checkpoint_state()}) for table in tables}
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
# the encoder
# ----------------------------------------------------------------------

keys = st.sampled_from(["2", "10", "a", "B", "", "tuples", "é", '"']) | st.text(max_size=3)
leaves = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | floats | st.text(max_size=5)
trees = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=20,
)


def canonical(node):
    return reference_encode_blob(node).decode("ascii")


def with_rendered_parts(node, random):
    """``node`` with some subtrees swapped for their canonical text."""
    if random.random() < 0.3:
        return Rendered(canonical(node))
    if isinstance(node, dict):
        return {key: with_rendered_parts(value, random) for key, value in node.items()}
    if isinstance(node, list):
        return [with_rendered_parts(value, random) for value in node]
    return node


def loaded_back(node):
    if isinstance(node, Rendered):
        return json.loads(node.text)
    if isinstance(node, dict):
        return {key: loaded_back(value) for key, value in node.items()}
    if isinstance(node, list):
        return [loaded_back(value) for value in node]
    return node


class TestEncoder:
    @settings(max_examples=500, deadline=None)
    @given(tree=st.dictionaries(keys, trees, max_size=5), random=st.randoms())
    def test_rendered_parts_do_not_change_the_bytes(self, tree, random):
        marked = with_rendered_parts(tree, random)
        assert encode_blob(marked) == reference_encode_blob(tree)
        assert encode_blob(marked) == encode_blob(loaded_back(marked))
        assert encode_blob(tree) == reference_encode_blob(tree)

    def test_keys_sort_as_the_strings_json_sees(self):
        shadows = {str(origin): Rendered("[%d]" % origin) for origin in (2, 10, 1)}
        assert encode_blob({"shadows": shadows}) == b'{"shadows":{"1":[1],"10":[10],"2":[2]}}'
