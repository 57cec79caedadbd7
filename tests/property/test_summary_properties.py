"""Property-based tests for summary dissemination and reconstruction."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.summaries import SummaryOutbox, SummaryUpdate
from repro.dft.reconstruction import compress_spectrum, reconstruct_values
from repro.streams.tuples import StreamId


def make_update(version, stream=StreamId.R, entries=1):
    return SummaryUpdate(
        algorithm="dft",
        stream=stream,
        version=version,
        window_size=8,
        entries=entries,
        payload={0: complex(version)},
        full_state=False,
    )


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=50))
@settings(max_examples=60)
def test_outbox_delivers_only_latest_per_slot(versions):
    outbox = SummaryOutbox([1])
    for version in versions:
        outbox.broadcast(make_update(version))
    taken = outbox.take(1)
    assert len(taken) == 1
    assert taken[0].version == versions[-1]
    assert not outbox.has_pending(1)


@given(
    st.lists(
        st.tuples(
            st.sampled_from([StreamId.R, StreamId.S]),
            st.integers(min_value=1, max_value=50),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60)
def test_outbox_pending_entries_match_taken(plan):
    outbox = SummaryOutbox([1, 2])
    for stream, version in plan:
        outbox.broadcast(make_update(version, stream=stream, entries=version))
    latest = {}
    for stream, version in plan:
        latest[stream] = version  # a newer update replaces the queued one
    expected = sum(latest.values())
    taken = outbox.take(1)
    assert sum(update.entries for update in taken) == expected
    # Peer 2's queue is untouched by peer 1's take.
    assert sum(update.entries for update in outbox.take(2)) == expected


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=16))
@settings(max_examples=60)
def test_constant_window_reconstruction_recovers_the_key(value, kappa):
    """A window full of one key reconstructs to exactly that key at any
    compression factor -- all its energy sits in the DC bin."""
    window = 32
    signal = np.full(window, float(value))
    budget = max(1, window // kappa)
    kept = compress_spectrum(np.fft.fft(signal), budget)
    assert set(reconstruct_values(kept, window).tolist()) == {value}
