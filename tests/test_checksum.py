"""Internet checksum tests."""

import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packet.checksum import (
    checksum,
    ones_complement_sum,
    tcp_checksum,
    verify_tcp_checksum,
)


class TestOnesComplement:
    def test_known_rfc1071_example(self):
        # RFC 1071 example: 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0xddf2
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert ones_complement_sum(data) == 0xDDF2

    def test_odd_length_padding(self):
        assert ones_complement_sum(b"\x01") == ones_complement_sum(b"\x01\x00")

    def test_empty(self):
        assert ones_complement_sum(b"") == 0


def reference_sum(data: bytes) -> int:
    """RFC 1071 word by word: the end-around-carry loop the big-integer
    ``ones_complement_sum`` replaced, kept as its reference."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


class TestAgainstReference:
    @given(st.binary(min_size=0, max_size=300))
    def test_random_inputs(self, data):
        assert ones_complement_sum(data) == reference_sum(data)

    @pytest.mark.parametrize("length", [1, 3, 7, 41, 1501])
    def test_odd_lengths(self, length):
        rng = random.Random(length)
        data = bytes(rng.randrange(256) for _ in range(length))
        assert ones_complement_sum(data) == reference_sum(data)

    @pytest.mark.parametrize("length", [0, 1, 2, 5, 40, 1500])
    def test_all_zero_input_sums_to_zero(self, length):
        data = bytes(length)
        assert ones_complement_sum(data) == reference_sum(data) == 0

    @pytest.mark.parametrize(
        "words",
        [
            [0xFFFF],
            [0xFFFF, 0xFFFF],
            [0x8000, 0x7FFF],
            [0x0001, 0xFFFE, 0xFFFF],
            [0x1234, 0x0000, 0xEDCB],
        ],
    )
    def test_nonzero_multiples_of_ffff_fold_to_ffff(self, words):
        data = b"".join(w.to_bytes(2, "big") for w in words)
        assert sum(words) % 0xFFFF == 0
        assert ones_complement_sum(data) == reference_sum(data) == 0xFFFF

    def test_odd_trailing_byte_multiple_of_ffff(self):
        # 0x00FF + 0xFF00 (the padded trailing byte) = 0xFFFF.
        data = b"\x00\xff\xff"
        assert ones_complement_sum(data) == reference_sum(data) == 0xFFFF


class TestChecksum:
    def test_checksum_of_zeroes(self):
        assert checksum(b"\x00\x00") == 0xFFFF

    def test_checksum_complements_sum(self):
        data = b"\x12\x34\x56\x78"
        assert checksum(data) == (~ones_complement_sum(data)) & 0xFFFF

    @given(st.binary(min_size=0, max_size=200))
    def test_data_plus_checksum_verifies(self, data):
        csum = checksum(data)
        if len(data) % 2:
            data += b"\x00"
        total = ones_complement_sum(data + csum.to_bytes(2, "big"))
        assert total == 0xFFFF


class TestTcpChecksum:
    def test_verify_roundtrip(self):
        segment = bytearray(24)
        segment[0:2] = (8080).to_bytes(2, "big")
        csum = tcp_checksum(0x0A000001, 0x0A000002, bytes(segment))
        segment[16:18] = csum.to_bytes(2, "big")
        assert verify_tcp_checksum(0x0A000001, 0x0A000002, bytes(segment))

    def test_corruption_detected(self):
        segment = bytearray(24)
        csum = tcp_checksum(1, 2, bytes(segment))
        segment[16:18] = csum.to_bytes(2, "big")
        segment[5] ^= 0xFF
        assert not verify_tcp_checksum(1, 2, bytes(segment))

    @given(
        st.integers(0, (1 << 32) - 1),
        st.integers(0, (1 << 32) - 1),
        st.binary(min_size=20, max_size=100),
    )
    def test_checksummed_segment_always_verifies(self, src, dst, payload):
        segment = bytearray(payload)
        segment[16:18] = b"\x00\x00"
        csum = tcp_checksum(src, dst, bytes(segment))
        segment[16:18] = csum.to_bytes(2, "big")
        assert verify_tcp_checksum(src, dst, bytes(segment))
