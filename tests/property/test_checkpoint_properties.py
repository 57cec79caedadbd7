"""Property tests: checkpoint codec and policy snapshots round trip exactly.

Two contracts back the rerun-identity guarantee of the recovery
subsystem: the low-level codec is a bit-exact inverse pair
(``decode_array(encode_array(a))`` reproduces the buffer, not a decimal
approximation), and every forwarding policy's
``checkpoint_state -> restore_state -> checkpoint_state`` loop lands on
the *same canonical bytes* when restored onto a freshly built twin.
Equality of the :data:`~repro.recovery.checkpoint.canonical_json` text
is the strongest form of the property -- it is exactly what the seed-pinned
integration reruns compare.

The decoders owe one more thing: damaged input (a truncated blob, a
flipped bit, a buffer that does not fit its shape) is a
``SimulationError``, never a bare ``ValueError`` / ``TypeError`` /
``AttributeError`` and never an array other than the one encoded.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Algorithm, PolicyConfig
from repro.core.policies import PolicyContext, make_policy, make_shared_state
from repro.errors import ReproError, SimulationError
from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    decode_array,
    decode_blob,
    decode_tuple,
    canonical_json,
    encode_array,
    restore_window,
    tuple_text,
    window_state,
)
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import CountWindow
from tests.damage import bit_flips, damaged, truncations
from tests.reference_checkpoint import reference_encode_tuple

WINDOW = 32
DOMAIN = 256
NUM_NODES = 4

array_dtypes = st.sampled_from(["float64", "float32", "int64", "uint32", "complex128"])


@st.composite
def arrays(draw):
    dtype = np.dtype(draw(array_dtypes))
    shape = draw(
        st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=3)
    )
    count = int(np.prod(shape)) if shape else 0
    raw = draw(st.binary(min_size=count * dtype.itemsize, max_size=count * dtype.itemsize))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


@st.composite
def stream_tuples(draw):
    # ``tuple_id`` is drawn, not left to the global counter: the encoded
    # length must be a function of the draws, or the damage strategies
    # sized from it draw differently when hypothesis replays an example.
    return StreamTuple(
        stream=draw(st.sampled_from(list(StreamId))),
        key=draw(st.integers(min_value=0, max_value=DOMAIN - 1)),
        origin_node=draw(st.integers(min_value=0, max_value=NUM_NODES - 1)),
        arrival_index=draw(st.integers(min_value=0, max_value=10_000)),
        tuple_id=draw(st.integers(min_value=0, max_value=2**40)),
        timestamp=draw(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
        ),
    )


class TestCodec:
    @settings(max_examples=100, deadline=None)
    @given(array=arrays())
    def test_array_round_trip_is_bit_exact(self, array):
        restored = decode_array(encode_array(array))
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        assert restored.tobytes() == array.tobytes()
        assert restored.flags.writeable

    @pytest.mark.parametrize("dtype", ["int32", "float64", "complex128", "bool", ">i4"])
    def test_array_dtype_name_is_str_of_the_dtype(self, dtype):
        """The encoder looks a dtype's name up once; asked twice (the
        second answer is the remembered one), it is still ``str(dtype)``
        -- byte order included, so ``>i4`` never reads back as ``int32``."""
        array = np.arange(6).astype(dtype)
        for _ in range(2):
            payload = encode_array(array)
            assert payload["dtype"] == str(array.dtype)
            assert decode_array(payload).dtype == array.dtype

    @settings(max_examples=100, deadline=None)
    @given(item=stream_tuples())
    def test_tuple_round_trip_preserves_identity(self, item):
        encoded = json.loads(tuple_text(item))
        assert encoded[0] == item.stream.value
        restored = decode_tuple(encoded)
        assert restored == item
        assert restored.tuple_id == item.tuple_id

    @settings(max_examples=50, deadline=None)
    @given(item=stream_tuples())
    def test_tuple_encoding_is_json_safe(self, item):
        assert json.loads('{"version":1,"t":%s}' % tuple_text(item))["t"][-1] == 0


class TestDamagedInput:
    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param({"data": "00" * 31}, id="truncated-hex"),
            pytest.param({"data": "00" * 31 + "0"}, id="half-a-byte"),
            pytest.param({"data": "zz" * 32}, id="not-hex"),
            pytest.param({"shape": [5]}, id="shape-larger-than-data"),
            pytest.param({"shape": [2, 2, 2]}, id="shape-of-other-rank"),
            pytest.param({"shape": [-4]}, id="negative-extent"),
            pytest.param({"shape": [4.0]}, id="float-extent"),
            pytest.param({"shape": 4}, id="scalar-shape"),
            pytest.param({"dtype": "float65"}, id="unknown-dtype"),
            pytest.param({"dtype": "f8"}, id="non-canonical-dtype"),
            pytest.param({"dtype": None}, id="null-dtype"),
            pytest.param({"dtype": "object"}, id="object-dtype"),
        ],
    )
    def test_malformed_array_raises_simulation_error(self, damage):
        payload = encode_array(np.arange(4, dtype=np.float64))
        payload.update(damage)
        with pytest.raises(SimulationError):
            decode_array(payload)

    @pytest.mark.parametrize(
        "payload",
        [None, [], "array", {"dtype": "float64"}],
        ids=["null", "list", "string", "dtype-only"],
    )
    def test_non_array_payload_raises_simulation_error(self, payload):
        with pytest.raises(SimulationError):
            decode_array(payload)

    @pytest.mark.parametrize(
        "blob",
        [b"", b'{"version":2', b"[1,2]", b'"x"', b"\xff{}", "{\u00e9}".encode("utf-8")],
        ids=["empty", "truncated", "list", "string", "high-byte", "utf8"],
    )
    def test_malformed_blob_raises_simulation_error(self, blob):
        with pytest.raises(SimulationError):
            decode_blob(blob)

    @pytest.mark.parametrize(
        "payload",
        [
            ["R", 1, 2],
            ["R", 1, 2, 3, None, 4, 0.5, 0, 9],
            ["X", 1, 2, 3, None, 4, 0.5, 0],
            [None, 1, 2, 3, None, 4, 0.5, 0],
            ["R", 1, 2, 3, None, 4, 0.5, 1],
            {"stream": "R"},
            "RRRRRRRR",
            None,
        ],
        ids=[
            "short",
            "long",
            "unknown-stream",
            "null-stream",
            "non-zero-echo",
            "mapping",
            "string",
            "null",
        ],
    )
    def test_malformed_tuple_raises_simulation_error(self, payload):
        with pytest.raises(SimulationError):
            decode_tuple(payload)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param({"total_appended": ...}, id="no-total"),
            pytest.param({"tuples": ...}, id="no-tuples"),
            pytest.param({"tuples": {"0": []}}, id="tuples-a-mapping"),
            pytest.param({"tuples": "RS"}, id="tuples-a-string"),
            pytest.param({"tuples": None}, id="tuples-null"),
            pytest.param({"tuples": [["R", 1, 2]]}, id="short-tuple"),
            pytest.param({"total_appended": "many"}, id="total-a-word"),
            pytest.param({"total_appended": None}, id="total-null"),
            pytest.param({"resets": []}, id="resets-a-list"),
        ],
    )
    def test_malformed_window_section_raises_simulation_error(self, damage):
        state = {"tuples": [], "total_appended": 3}
        for key, value in damage.items():
            if value is ...:
                del state[key]
            else:
                state[key] = value
        window = CountWindow(4)
        with pytest.raises(SimulationError):
            restore_window(window, state)
        assert len(window) == 0 and window.total_appended == 0  # untouched

    @pytest.mark.parametrize("state", [None, [], "window", 7])
    def test_non_mapping_window_section_raises_simulation_error(self, state):
        with pytest.raises(SimulationError):
            restore_window(CountWindow(4), state)

    @settings(max_examples=300, deadline=None)
    @given(
        items=st.lists(stream_tuples(), max_size=4),
        wrong=st.none() | st.integers() | st.text(max_size=3) | st.lists(st.integers(), max_size=9),
        data=st.data(),
    )
    def test_damaged_window_section_raises_or_restores_what_it_says(self, items, wrong, data):
        """Truncate or flip one bit of a window section's text, or put a
        value of another type where a tuple, the list or the count was:
        ``restore_window`` raises its ``ReproError`` or restores exactly
        the tuples and the count the damaged section names."""
        source = CountWindow(4)
        for item in items:
            source.append(item)
        text = window_state(source)
        if data.draw(st.booleans()):
            try:
                state = json.loads(data.draw(damaged(text)))
            except ValueError:
                return  # decode_blob's half
        else:
            state = json.loads(text)
            spot = data.draw(st.sampled_from(["tuples", "total_appended", "entry", "field"]))
            if spot == "entry" and state["tuples"]:
                state["tuples"][0] = wrong
            elif spot == "field" and state["tuples"]:
                state["tuples"][0][0] = wrong
            elif spot in state:
                state[spot] = wrong
        window = CountWindow(4)
        try:
            restore_window(window, state)
        except ReproError:
            return
        assert [reference_encode_tuple(item) for item in window] == state["tuples"]
        assert window.total_appended == int(state["total_appended"])

    @settings(max_examples=300, deadline=None)
    @given(array=arrays(), data=st.data())
    def test_damaged_array_raises_or_decodes_what_it_says(self, array, data):
        """Truncate or flip one bit of an encoded array's JSON text.

        The encoding has no checksum, so a flip from one hex digit to
        another *is* an encoding of a different array.  Everything else
        -- length, shape, dtype, structure -- is checked: the decoder
        either raises or returns exactly the bytes, shape and dtype the
        damaged text names.
        """
        text = json.dumps(encode_array(array))
        try:
            payload = json.loads(data.draw(damaged(text)))
        except ValueError:
            return  # decode_blob's half, below
        try:
            restored = decode_array(payload)
        except ReproError:
            return
        assert str(restored.dtype) == payload["dtype"]
        assert list(restored.shape) == payload["shape"]
        assert restored.tobytes().hex() == payload["data"].lower()
        if payload == json.loads(text):
            assert restored.tobytes() == array.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(array=arrays(), item=stream_tuples(), data=st.data())
    def test_damaged_blob_raises_or_decodes_to_a_versioned_state(self, array, item, data):
        state = {
            "version": CHECKPOINT_VERSION,
            "array": encode_array(array),
            "tuples": [reference_encode_tuple(item)],
        }
        blob = canonical_json(state).encode("ascii")
        # Every proper prefix of a JSON object is malformed.
        with pytest.raises(SimulationError):
            decode_blob(data.draw(truncations(blob)))
        flipped = data.draw(bit_flips(blob))
        try:
            decoded = decode_blob(flipped)
        except ReproError:
            return
        assert isinstance(decoded, dict)
        assert decoded["version"] == CHECKPOINT_VERSION
        assert canonical_json(decoded) == canonical_json(json.loads(flipped))


def build_policy(algorithm, seed):
    config = PolicyConfig(algorithm=algorithm, kappa=4.0)
    context = PolicyContext(
        node_id=0,
        peer_ids=tuple(range(1, NUM_NODES)),
        window_size=WINDOW,
        domain=DOMAIN,
        config=config,
        rng=np.random.default_rng(seed),
    )
    shared = make_shared_state(config, WINDOW, rng=np.random.default_rng(seed + 1))
    return make_policy(context, shared)


def feed(policy, keys):
    for index, key in enumerate(keys):
        stream = StreamId.R if index % 2 == 0 else StreamId.S
        policy.on_local_insert(
            StreamTuple(stream=stream, key=key, origin_node=0, arrival_index=index),
            [],
        )


class TestPolicySnapshots:
    @settings(max_examples=20, deadline=None)
    @given(
        algorithm=st.sampled_from(list(Algorithm)),
        seed=st.integers(min_value=0, max_value=2**16),
        keys=st.lists(
            st.integers(min_value=0, max_value=DOMAIN - 1), min_size=0, max_size=64
        ),
    )
    def test_restore_onto_twin_reproduces_canonical_bytes(self, algorithm, seed, keys):
        source = build_policy(algorithm, seed)
        feed(source, keys)
        state = source.checkpoint_state()
        text = canonical_json(state)

        twin = build_policy(algorithm, seed)
        twin.restore_state(state)
        assert canonical_json(twin.checkpoint_state()) == text

    @settings(max_examples=20, deadline=None)
    @given(
        algorithm=st.sampled_from(list(Algorithm)),
        keys=st.lists(
            st.integers(min_value=0, max_value=DOMAIN - 1), min_size=1, max_size=32
        ),
    )
    def test_checkpoint_does_not_mutate_policy(self, algorithm, keys):
        policy = build_policy(algorithm, seed=7)
        feed(policy, keys)
        first = canonical_json(policy.checkpoint_state())
        second = canonical_json(policy.checkpoint_state())
        assert first == second
