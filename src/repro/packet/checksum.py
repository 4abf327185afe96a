"""Internet checksum (RFC 1071) used by the IPv4 and TCP headers."""

from __future__ import annotations

import struct


def ones_complement_sum(data: bytes) -> int:
    """Return the 16-bit one's-complement sum of ``data``.

    Odd-length input is padded with a trailing zero byte, as RFC 1071
    specifies.

    Computed in one big-integer step: reading ``data`` as a base-2^16
    number, ``2^16 = 1 (mod 0xFFFF)`` makes it congruent to the sum of
    its 16-bit words, and the end-around-carry fold is that sum reduced
    modulo 0xFFFF, except that the fold of a non-zero sum is never 0:
    a non-zero multiple of 0xFFFF folds to 0xFFFF.  Only all-zero input
    sums to 0.
    """
    if len(data) % 2:
        data += b"\x00"
    value = int.from_bytes(data, "big")
    if not value:
        return 0
    return value % 0xFFFF or 0xFFFF


def checksum(data: bytes) -> int:
    """Return the Internet checksum of ``data``."""
    return (~ones_complement_sum(data)) & 0xFFFF


def tcp_pseudo_header(src_ip: int, dst_ip: int, tcp_length: int) -> bytes:
    """Build the IPv4 pseudo-header used in the TCP checksum."""
    return struct.pack("!IIBBH", src_ip, dst_ip, 0, 6, tcp_length)


def tcp_checksum(src_ip: int, dst_ip: int, segment: bytes) -> int:
    """Compute the TCP checksum over pseudo-header + segment."""
    pseudo = tcp_pseudo_header(src_ip, dst_ip, len(segment))
    return checksum(pseudo + segment)


def verify_tcp_checksum(src_ip: int, dst_ip: int, segment: bytes) -> bool:
    """True when ``segment`` (with its checksum field filled) verifies."""
    pseudo = tcp_pseudo_header(src_ip, dst_ip, len(segment))
    return ones_complement_sum(pseudo + segment) == 0xFFFF
