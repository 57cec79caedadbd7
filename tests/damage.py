"""Hypothesis strategies for damaged encodings: truncations and bit flips.

Shared by the decoder fuzz cases (checkpoint blobs, delta blobs, chaos
row files): each takes a valid encoding, ``str`` or ``bytes``, and draws
a proper prefix of it or a copy with exactly one bit flipped (7 bits per
character of ASCII text, so the result stays text; 8 per byte).
"""

from hypothesis import strategies as st


def truncations(encoded):
    """Every proper prefix of ``encoded``, the empty one included."""
    return st.integers(0, len(encoded) - 1).map(lambda cut: encoded[:cut])


def bit_flips(encoded):
    """``encoded`` with one bit of one position flipped."""
    binary = isinstance(encoded, bytes)

    def flip(where):
        position, bit = where
        if binary:
            flipped = bytes([encoded[position] ^ (1 << bit)])
        else:
            flipped = chr(ord(encoded[position]) ^ (1 << bit))
        return encoded[:position] + flipped + encoded[position + 1 :]

    return st.tuples(
        st.integers(0, len(encoded) - 1), st.integers(0, 7 if binary else 6)
    ).map(flip)


def damaged(encoded):
    return truncations(encoded) | bit_flips(encoded)
