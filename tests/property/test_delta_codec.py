"""Property tests: the watermark-delta state-transfer codec.

The protocol contract is ``apply_delta(base, encode_delta(base, target))
== target`` *bit for bit* -- comparisons inside the codec are bitwise,
so adversarial float payloads (``-0.0`` vs ``0.0``, NaN) must round
trip exactly, not merely compare equal.  The wire-cost model must be
honest (a delta never models more entries than the full snapshot), and
forward-compatibility failures and damaged blobs must surface as the
configuration error the CLI knows how to print, never a bare
``ValueError``/``KeyError``/``IndexError`` -- and never as a wrong array.
Deltas are array-only: coefficient maps always resync as full snapshots
(``encode_delta`` answers ``None``), though the *payload* codec and the
digest still carry maps, because checkpoints do.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ReproError
from repro.recovery.delta import (
    DELTA_FORMAT_VERSION,
    SummaryHistory,
    apply_delta,
    decode_payload,
    delta_wire_entries,
    encode_delta,
    encode_payload,
    payload_digest,
)
from tests.damage import damaged

array_dtypes = st.sampled_from(["float64", "float32", "int32", "int64"])


@st.composite
def array_pairs(draw):
    """Two same-dtype, same-shape arrays built from raw bytes.

    Raw buffers exercise every bit pattern -- including NaNs, signed
    zeros, and subnormals -- which is the whole point of the bitwise
    contract."""
    dtype = np.dtype(draw(array_dtypes))
    shape = tuple(
        draw(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=2))
    )
    count = int(np.prod(shape)) if shape else 0
    size = count * dtype.itemsize
    base = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), dtype=dtype)
    target = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), dtype=dtype)
    return base.reshape(shape).copy(), target.reshape(shape).copy()


finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e12, allow_nan=False, allow_infinity=False
)
coefficient_maps = st.dictionaries(
    st.integers(min_value=0, max_value=63), finite_complex, max_size=12
)


def bit_equal(a, b) -> bool:
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.tobytes() == b.tobytes()
    )


class TestArrayDeltas:
    @given(array_pairs())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bit_exact(self, pair):
        base, target = pair
        blob = encode_delta(base, target)
        assert blob is not None
        assert bit_equal(apply_delta(base, blob), target)

    @given(array_pairs())
    @settings(max_examples=100, deadline=None)
    def test_identical_states_encode_an_empty_delta(self, pair):
        base, _ = pair
        blob = encode_delta(base, base.copy())
        assert blob["changed"] == []
        assert bit_equal(apply_delta(base, blob), base)

    def test_signed_zero_is_a_change(self):
        base = np.array([0.0, 1.0])
        target = np.array([-0.0, 1.0])
        blob = encode_delta(base, target)
        assert blob["changed"] == [0]
        restored = apply_delta(base, blob)
        assert np.signbit(restored[0])

    def test_nan_payloads_round_trip(self):
        base = np.array([np.nan, 2.0])
        target = np.array([np.nan, 3.0])
        blob = encode_delta(base, target)
        # The NaN cell is bitwise-unchanged, so only cell 1 ships.
        assert blob["changed"] == [1]
        assert bit_equal(apply_delta(base, blob), target)

    def test_shape_or_dtype_mismatch_is_not_delta_compatible(self):
        assert encode_delta(np.zeros(3), np.zeros(4)) is None
        assert encode_delta(np.zeros(3), np.zeros(3, dtype=np.int32)) is None
        assert encode_delta(np.zeros(3), {0: 1j}) is None

    @given(coefficient_maps, coefficient_maps)
    @settings(max_examples=50, deadline=None)
    def test_coefficient_maps_are_not_delta_compatible(self, base, target):
        """DFT maps always ship as full snapshots (see SummaryHistory)."""
        assert encode_delta(base, target) is None


class TestErrorContract:
    def test_unknown_version_raises_configuration_error(self):
        base = np.zeros(4)
        blob = encode_delta(base, base)
        blob["version"] = DELTA_FORMAT_VERSION + 1
        with pytest.raises(ConfigurationError):
            apply_delta(base, blob)

    def test_missing_version_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            apply_delta(np.zeros(4), {"kind": "array"})

    def test_unknown_kind_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            apply_delta(
                np.zeros(4), {"version": DELTA_FORMAT_VERSION, "kind": "tarball"}
            )
        with pytest.raises(ConfigurationError):
            delta_wire_entries({"kind": "tarball"}, 8)

    def test_mismatched_base_raises_configuration_error(self):
        base = np.zeros(4)
        blob = encode_delta(base, np.ones(4))
        with pytest.raises(ConfigurationError):
            apply_delta(np.zeros(5), blob)
        with pytest.raises(ConfigurationError):
            apply_delta({0: 1j}, blob)

    def test_unencodable_payload_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            encode_payload("not a summary")
        with pytest.raises(ConfigurationError):
            decode_payload(["tarball", {}])

    def test_map_delta_kind_is_gone(self):
        blob = {"version": DELTA_FORMAT_VERSION, "kind": "map", "changed": [], "removed": []}
        with pytest.raises(ConfigurationError, match="map"):
            apply_delta({0: 1j}, blob)
        with pytest.raises(ConfigurationError, match="map"):
            delta_wire_entries(blob, 8)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param({"values": "00" * 7}, id="truncated-values"),
            pytest.param({"values": "zz" * 8}, id="values-not-hex"),
            pytest.param({"values": None}, id="null-values"),
            pytest.param({"changed": [100]}, id="index-past-the-end"),
            # NumPy alone would write the last cell for -1 and broadcast
            # one value over two cells: [0 99 99 3 ...].
            pytest.param({"changed": [-1]}, id="negative-index"),
            pytest.param({"changed": [1, 2]}, id="one-value-for-two-cells"),
            pytest.param({"changed": [2, 1], "values": "00" * 16}, id="decreasing"),
            pytest.param({"changed": [1, 1], "values": "00" * 16}, id="duplicate"),
            pytest.param({"changed": [1.0]}, id="float-index"),
            pytest.param({"changed": "1"}, id="string-indices"),
            pytest.param({"changed": None}, id="null-indices"),
            pytest.param({"shape": 8}, id="scalar-shape"),
        ],
    )
    def test_malformed_array_delta_raises_configuration_error(self, damage):
        base = np.arange(8, dtype=np.int64)
        target = base.copy()
        target[1] = 99
        blob = encode_delta(base, target)
        blob.update(damage)
        with pytest.raises(ConfigurationError):
            apply_delta(base, blob)
        assert base.tolist() == list(range(8))

    @pytest.mark.parametrize("field", ["dtype", "shape", "changed", "values"])
    def test_missing_field_raises_configuration_error(self, field):
        base = np.zeros(4)
        blob = encode_delta(base, np.ones(4))
        del blob[field]
        with pytest.raises(ConfigurationError):
            apply_delta(base, blob)

    def test_non_mapping_blob_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            apply_delta(np.zeros(4), [1, 2])

    @pytest.mark.parametrize(
        "encoded",
        [
            pytest.param(["map", [[1, "zz"]]], id="not-hex"),
            pytest.param(["map", [[1, "00"]]], id="not-sixteen-bytes"),
            pytest.param(["map", [[1]]], id="key-without-value"),
            pytest.param(["map", 7], id="scalar-body"),
            pytest.param(["map", [["one", "00" * 16]]], id="non-integer-key"),
        ],
    )
    def test_malformed_encoded_map_raises_configuration_error(self, encoded):
        with pytest.raises(ConfigurationError):
            decode_payload(encoded)


class TestDamagedBlobs:
    """Truncations and single bit flips of a delta's JSON form.

    A delta travels as a plain dictionary with no checksum of its own,
    so a flip that turns one hex digit of ``values`` into another is a
    well-formed delta for a different target and applies as one.  What
    the decoder owes is: a ``ReproError`` for anything that is not a
    well-formed delta, and otherwise *exactly* the array the blob
    describes -- base cells kept, listed cells overwritten one for one.
    """

    @given(array_pairs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_delta_raises_or_applies_exactly_what_it_says(self, pair, data):
        base, target = pair
        text = json.dumps(encode_delta(base, target))
        try:
            blob = json.loads(data.draw(damaged(text)))
        except ValueError:
            return  # never reaches the codec: the transport's problem
        try:
            restored = apply_delta(base, blob)
        except ReproError:
            return
        if blob == json.loads(text):
            assert bit_equal(restored, target)
        expected = base.reshape(-1).copy()
        cells = np.frombuffer(bytes.fromhex(blob["values"]), dtype=base.dtype)
        assert len(blob["changed"]) == cells.size
        for index, cell in zip(blob["changed"], cells):
            assert 0 <= index < base.size
            expected[index] = cell
        assert bit_equal(restored, expected.reshape(base.shape))

    @given(st.one_of(array_pairs().map(lambda pair: pair[0]), coefficient_maps), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_payload_raises_or_decodes_what_it_says(self, payload, data):
        text = json.dumps(encode_payload(payload))
        try:
            encoded = json.loads(data.draw(damaged(text)))
        except ValueError:
            return
        try:
            decoded = decode_payload(encoded)
        except ReproError:
            return
        # Whatever decoded is a payload whose canonical encoding is the
        # damaged one's content: no cell invented, dropped or reshaped.
        again = encode_payload(decoded)
        assert again[0] == encoded[0]
        if again[0] == "array":
            assert again[1]["shape"] == encoded[1]["shape"]
            assert again[1]["dtype"] == encoded[1]["dtype"]
            assert again[1]["data"] == encoded[1]["data"].lower()
        else:
            assert len(decoded) == len({int(key) for key, _ in encoded[1]})
        if encoded == json.loads(text):
            assert payload_digest(decoded) == payload_digest(payload)


class TestWireCost:
    @given(array_pairs(), st.integers(min_value=0, max_value=512))
    @settings(max_examples=200, deadline=None)
    def test_delta_never_costs_more_than_the_snapshot(self, pair, full_entries):
        base, target = pair
        blob = encode_delta(base, target)
        assert 0 <= delta_wire_entries(blob, full_entries) <= full_entries

    def test_small_change_in_large_array_is_cheap(self):
        # 5120 counters presented as a 128-entry snapshot (the BLOOM
        # shape at window 2048, kappa 16): one changed counter costs the
        # presence bitmap plus its pro-rata share, far below 128.
        base = np.zeros(5120, dtype=np.int32)
        target = base.copy()
        target[17] = 3
        blob = encode_delta(base, target)
        assert delta_wire_entries(blob, 128) < 128 // 2


class TestPayloadDigest:
    @given(array_pairs())
    @settings(max_examples=100, deadline=None)
    def test_digest_tracks_content(self, pair):
        base, target = pair
        assert payload_digest(base) == payload_digest(base.copy())
        if base.tobytes() != target.tobytes():
            assert payload_digest(base) != payload_digest(target)

    def test_digest_ignores_map_insertion_order(self):
        forward = {1: 1j, 2: 2j}
        backward = {2: 2j, 1: 1j}
        assert payload_digest(forward) == payload_digest(backward)

    @given(array_pairs())
    @settings(max_examples=50, deadline=None)
    def test_payload_codec_round_trips(self, pair):
        base, _ = pair
        assert bit_equal(decode_payload(encode_payload(base)), base)


class TestSummaryHistory:
    def make_update(self, version, payload, full_state=True):
        from repro.core.summaries import SummaryUpdate
        from repro.streams.tuples import StreamId

        return SummaryUpdate(
            algorithm="bloom",
            stream=StreamId.R,
            version=version,
            window_size=64,
            entries=4,
            payload=payload,
            full_state=full_state,
        )

    def test_ring_keeps_only_the_newest_versions(self):
        history = SummaryHistory(limit=2)
        for version in range(1, 5):
            history.record(
                self.make_update(version, np.full(4, version, dtype=np.int32))
            )
        from repro.streams.tuples import StreamId

        assert history.view("bloom", StreamId.R, 1) is None
        assert history.view("bloom", StreamId.R, 2) is None
        assert history.view("bloom", StreamId.R, 4)[0] == 4

    def test_non_snapshot_updates_are_not_recorded(self):
        from repro.streams.tuples import StreamId

        history = SummaryHistory(limit=4)
        history.record(self.make_update(1, {0: 1j}, full_state=True))
        history.record(self.make_update(2, np.zeros(4), full_state=False))
        assert history.view("bloom", StreamId.R, 1) is None
        assert history.view("bloom", StreamId.R, 2) is None

    def test_invalid_limit_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            SummaryHistory(limit=0)
