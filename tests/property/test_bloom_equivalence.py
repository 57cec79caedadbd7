"""The table-backed counting filter equals the hash-per-call filter.

PR 23 lets the filters of one ``spawn_compatible`` family share a bounded
key -> probe-positions table.  That is only admissible because no answer
and no counter can tell: every assertion here is ``==`` against
``tests/reference_bloom.py`` (the pre-change filter), never ``approx``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import counting
from repro.bloom.counting import CountingBloomFilter
from repro.errors import SummaryError
from tests.reference_bloom import ReferenceCountingBloomFilter

FAMILY = 4
"""Filters 0..3 are one family (a template, two twins and a twin of a
twin); filter 4, the outsider, is built directly on the same hash
functions with another ``num_counters``, so the same key probes other
positions there."""

# Few counters and a low ceiling, so positions collide, counters saturate
# and a removal can hit a counter another key emptied.
NUM_COUNTERS, NUM_HASHES, MAX_COUNT = 24, 3, 3

keys = st.one_of(
    st.integers(min_value=0, max_value=11),
    st.sampled_from([-1, 2**31 - 1, 2**31, 2**40 + 7]),
)
filters = st.integers(min_value=0, max_value=FAMILY)
family_members = st.integers(min_value=0, max_value=FAMILY - 1)
steps = st.one_of(
    st.tuples(st.sampled_from(["add", "remove", "in", "count_estimate"]), filters, keys),
    st.tuples(st.sampled_from(["load_snapshot", "checkpoint"]), family_members, family_members),
)


def build(filter_class, seed):
    template = filter_class(
        NUM_COUNTERS, NUM_HASHES, max_count=MAX_COUNT, rng=np.random.default_rng(seed)
    )
    first, second = template.spawn_compatible(), template.spawn_compatible()
    outsider = filter_class(
        NUM_COUNTERS + 7, NUM_HASHES, max_count=MAX_COUNT, hashes=template._hashes
    )
    return [template, first, second, first.spawn_compatible(), outsider]


def apply(members, step):
    """One step's observable outcome: the answer, or the error it raised."""
    action, target, argument = step
    bloom = members[target]
    try:
        if action == "add":
            return bloom.add(argument)
        if action == "remove":
            return bloom.remove(argument)
        if action == "in":
            return argument in bloom
        if action == "count_estimate":
            return bloom.count_estimate(argument)
        if action == "load_snapshot":
            return bloom.load_snapshot(members[argument].snapshot())
        return bloom.restore_state(members[argument].checkpoint_state())
    except SummaryError as error:
        return str(error)


def state(members):
    return [
        (bloom.items, bloom.saturations, bloom.snapshot().tolist(), bloom.snapshot().dtype)
        for bloom in members
    ]


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([counting.DEFAULT_SIGN_CACHE_SIZE] * 2 + [0, 1, 3]),
    st.lists(steps, max_size=80),
)
@settings(max_examples=200, deadline=None)
def test_filter_family_equals_the_hash_per_call_reference(seed, bound, script):
    """add / remove / in / count_estimate / load_snapshot / checkpoint ->
    restore over a template, its twins and an outsider on the same hash
    functions, with the table at its real bound and squeezed to 0, 1 and 3
    entries (so most lookups evict): every answer, every error, ``items``,
    ``saturations`` and the counter arrays agree after every step."""
    with mock.patch.object(counting, "DEFAULT_SIGN_CACHE_SIZE", bound):
        ours = build(CountingBloomFilter, seed)
        reference = build(ReferenceCountingBloomFilter, seed)
        for step in script:
            assert apply(ours, step) == apply(reference, step)
            assert state(ours) == state(reference)
        assert len(ours[0]._position_table) <= bound


def test_the_table_belongs_to_the_family_and_hands_out_read_only_arrays():
    template, first, second, grandchild, outsider = build(CountingBloomFilter, 11)
    for twin in (first, second, grandchild):
        assert twin._position_table is template._position_table
    assert outsider._position_table is not template._position_table

    miss = template._positions(5)
    hit = grandchild._positions(5)
    assert hit is miss  # worked out once for the whole family
    assert not miss.flags.writeable
    with pytest.raises(ValueError):
        miss[0] = 0
    # The same key on the same hash functions, other num_counters: other positions.
    reference = ReferenceCountingBloomFilter(
        NUM_COUNTERS + 7, NUM_HASHES, max_count=MAX_COUNT, hashes=template._hashes
    )
    assert outsider._positions(5).tolist() == reference._positions(5).tolist()
    assert outsider._positions(5) is not miss


def test_the_table_is_bounded_and_evicts_first_in_first_out():
    with mock.patch.object(counting, "DEFAULT_SIGN_CACHE_SIZE", 4):
        template = CountingBloomFilter(64, 3, rng=np.random.default_rng(0))
        twin = template.spawn_compatible()
        for key in range(10):
            (template if key % 2 else twin).add(key)
        assert list(template._position_table) == [6, 7, 8, 9]
        # Evicted keys are simply hashed again: still no false negatives.
        assert all(key in twin for key in range(0, 10, 2))
        assert all(key in template for key in range(1, 10, 2))
        assert len(template._position_table) == 4


snapshot_counters = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=MAX_COUNT),
        st.just(15),  # the default ceiling, saturated
        st.integers(min_value=0, max_value=300),  # past a byte: the numpy path
        st.integers(min_value=-3, max_value=-1),
    ),
    min_size=NUM_COUNTERS,
    max_size=NUM_COUNTERS,
)
after_load = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "remove", "count_estimate"]), keys),
        st.tuples(st.just("restore_state"), st.integers(0, 11)),
        st.tuples(st.just("load_snapshot"), st.integers(0, 11)),
    ),
    max_size=12,
)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    snapshot_counters,
    after_load,
)
@settings(max_examples=200, deadline=None)
def test_a_loaded_snapshot_answers_the_min_over_its_probed_counters(seed, counters, script):
    """``count_estimate`` on a snapshot-loaded filter reads a bytes copy;
    it must equal ``int(counters[positions].min())`` on the counter array
    (saturated and out-of-byte counters included), and stay equal after
    ``add``, ``remove``, ``restore_state`` or another load drop the copy."""
    bloom = CountingBloomFilter(
        NUM_COUNTERS, NUM_HASHES, max_count=MAX_COUNT, rng=np.random.default_rng(seed)
    )
    donor = bloom.spawn_compatible()
    for key in range(6):
        donor.add(key)
    bloom.load_snapshot(np.array(counters, dtype=np.int32))

    def check():
        for key in range(12):
            expected = int(bloom.snapshot()[bloom._positions(key)].min())
            answer = bloom.count_estimate(key)
            assert answer == expected and type(answer) is int

    check()
    for action, argument in script:
        try:
            if action == "restore_state":
                bloom.restore_state(donor.checkpoint_state())
            elif action == "load_snapshot":
                shifted = np.roll(np.array(counters, dtype=np.int32), argument)
                bloom.load_snapshot(shifted)
            elif action != "count_estimate":
                getattr(bloom, action)(argument)
        except SummaryError:
            pass
        check()


def test_the_bytes_copy_lives_only_while_the_snapshot_is_untouched():
    bloom = CountingBloomFilter(NUM_COUNTERS, NUM_HASHES, rng=np.random.default_rng(1))
    bloom.load_snapshot(np.full(NUM_COUNTERS, 15, dtype=np.int32))
    assert bloom._counter_bytes == bytes([15] * NUM_COUNTERS)
    bloom.load_snapshot(np.full(NUM_COUNTERS, 256, dtype=np.int32))
    assert bloom._counter_bytes is None  # does not fit a byte: numpy answers
    for mutate in (
        lambda: bloom.add(3),
        lambda: bloom.remove(3),
        lambda: bloom.restore_state(bloom.spawn_compatible().checkpoint_state()),
    ):
        bloom.load_snapshot(np.ones(NUM_COUNTERS, dtype=np.int32))
        assert bloom._counter_bytes is not None
        mutate()
        assert bloom._counter_bytes is None
