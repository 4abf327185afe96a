"""The sender's retransmission queue and SACK scoreboard.

Tracks every transmitted-but-unacknowledged segment with the per-segment
flags the Linux stack keeps in ``TCP_SKB_CB``: SACKed, lost, number of
(re)transmissions, and whether any retransmission was timeout-driven.
From these it derives the kernel variables that both the sender and the
paper's Table 2 use::

    packets_out = snd_nxt - snd_una                 (in segments)
    in_flight   = packets_out + retrans_out - (sacked_out + lost_out)

The scoreboard also implements the loss-marking rule that creates the
paper's *f-double* stalls: a segment that has already been fast-
retransmitted is never eligible for another fast retransmit — if the
retransmission is lost too, only the RTO can recover it.

Hot-path invariants (the sender consults ``in_flight`` several times
per ACK, so nothing here re-scans the queue to answer it):

* Sequence numbers are *unwrapped*: plain, monotonically increasing
  integers that never wrap at 2^32, so every comparison is an ordinary
  ``<``.  The sender unwraps wire values before they reach the
  scoreboard and wraps them again where they leave it.
* Segments are contiguous and sorted, so both ``seq`` and ``end_seq``
  increase strictly along the queue and a SACK block's left edge is
  found by bisection.
* ``sacked_out``, ``lost_out`` and ``retrans_out`` are counters kept in
  step with the segment flags.  The three counted flags (``sacked``,
  ``lost``, ``retrans_outstanding``) may therefore only change through
  a scoreboard method; writing them directly desynchronizes Equation
  (1).  A segment is never both SACKed and lost.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

from ..packet.options import SackBlock

_seq_of = attrgetter("seq")


@dataclass(slots=True)
class Segment:
    """One transmitted segment awaiting acknowledgment.

    ``sacked``, ``lost`` and ``retrans_outstanding`` are counted by the
    owning :class:`Scoreboard`; change them only through its methods.
    """

    seq: int
    end_seq: int
    first_tx_time: float
    last_tx_time: float
    sacked: bool = False
    sacked_time: float | None = None
    lost: bool = False
    retrans_count: int = 0
    rto_retrans: bool = False
    fast_retrans: bool = False
    probe_retrans: bool = False
    retrans_outstanding: bool = False
    is_fin: bool = False

    @property
    def length(self) -> int:
        return self.end_seq - self.seq

    @property
    def retransmitted(self) -> bool:
        return self.retrans_count > 0


@dataclass
class SackResult:
    """Outcome of applying one ACK's SACK blocks."""

    newly_sacked: int = 0
    dsack_seen: bool = False
    dsack_ranges: list[SackBlock] = field(default_factory=list)
    newly_sacked_segments: list["Segment"] = field(default_factory=list)


class Scoreboard:
    """Ordered collection of outstanding segments."""

    def __init__(self) -> None:
        self._segments: list[Segment] = []
        self.highest_sacked: int | None = None
        #: Segments SACKed.
        self.sacked_out = 0
        #: Segments marked lost (never SACKed ones, see the invariants).
        self.lost_out = 0
        #: Segments whose latest retransmission is still in the network:
        #: ``retrans_outstanding`` set and not SACKed.
        #:
        #: The flag is cleared when the RTO marks everything lost (the
        #: kernel zeroes ``retrans_out`` in ``tcp_enter_loss``), so a
        #: lost-then-retransmitted segment contributes ``+1`` here and
        #: ``-1`` through ``lost_out``, keeping Equation (1) correct.
        self.retrans_out = 0

    # -- queue management ---------------------------------------------
    def add(self, segment: Segment) -> None:
        """Append a newly transmitted segment (must be in seq order, and
        fresh: none of the counted flags set)."""
        segments = self._segments
        if segments and segment.seq < segments[-1].end_seq:
            raise ValueError(
                f"segment {segment.seq} not after queue tail "
                f"{segments[-1].end_seq}"
            )
        segments.append(segment)

    def ack_through(self, ack: int) -> list[Segment]:
        """Remove and return all segments fully covered by ``ack``."""
        segments = self._segments
        count = 0
        for seg in segments:
            if seg.end_seq > ack:
                break
            count += 1
            if seg.sacked:
                self.sacked_out -= 1
            elif seg.retrans_outstanding:
                self.retrans_out -= 1
            if seg.lost:
                self.lost_out -= 1
        if not count:
            return []
        acked = segments[:count]
        del segments[:count]
        return acked

    def clear(self) -> None:
        self._segments.clear()
        self.highest_sacked = None
        self.sacked_out = self.lost_out = self.retrans_out = 0

    # -- SACK processing -----------------------------------------------
    def apply_sack(
        self,
        blocks: list[SackBlock],
        snd_una: int,
        now: float | None = None,
    ) -> SackResult:
        """Mark segments covered by SACK blocks; detect DSACK.

        A block is a DSACK when it lies at or below ``snd_una`` or is
        contained in a later block of the same ACK (RFC 2883).

        Each block costs a bisection to its left edge plus a walk over
        the segments it covers.
        """
        result = SackResult()
        segments = self._segments
        count = len(segments)
        for index, (left, right) in enumerate(blocks):
            if right <= snd_una:
                result.dsack_seen = True
                result.dsack_ranges.append((left, right))
                continue
            if index == 0 and len(blocks) > 1:
                outer_left, outer_right = blocks[1]
                if left >= outer_left and right <= outer_right:
                    result.dsack_seen = True
                    result.dsack_ranges.append((left, right))
                    continue
            i = bisect_left(segments, left, key=_seq_of)
            while i < count:
                seg = segments[i]
                if seg.end_seq > right:
                    break
                i += 1
                if seg.sacked:
                    continue
                seg.sacked = True
                seg.sacked_time = now
                self.sacked_out += 1
                if seg.lost:
                    seg.lost = False
                    self.lost_out -= 1
                if seg.retrans_outstanding:
                    self.retrans_out -= 1
                result.newly_sacked += 1
                result.newly_sacked_segments.append(seg)
                highest = self.highest_sacked
                if highest is None or seg.end_seq > highest:
                    self.highest_sacked = seg.end_seq
        return result

    def mark_lost_by_sack(self, dup_thresh: int) -> int:
        """Apply the "dupthres SACKed segments above" loss rule.

        A not-yet-SACKed segment is marked lost when at least
        ``dup_thresh`` SACKed segments lie above it.  Returns the number
        of segments newly marked lost.  The count of SACKed segments
        above only falls along the queue, so the walk stops where it
        drops below ``dup_thresh``.
        """
        sacked_above = self.sacked_out
        newly_lost = 0
        for seg in self._segments:
            if sacked_above < dup_thresh:
                break
            if seg.sacked:
                sacked_above -= 1
            elif not seg.lost:
                seg.lost = True
                newly_lost += 1
        self.lost_out += newly_lost
        return newly_lost

    def mark_head_lost(self) -> Segment | None:
        """Mark the first unSACKed segment lost (NewReno partial ACK)."""
        for seg in self._segments:
            if not seg.sacked:
                if not seg.lost:
                    seg.lost = True
                    self.lost_out += 1
                return seg
        return None

    def mark_all_lost(self) -> int:
        """RTO expiry: every outstanding unSACKed segment is lost and
        becomes retransmittable again (the kernel clears the fast-
        retransmit mark in ``tcp_enter_loss``)."""
        count = 0
        for seg in self._segments:
            if not seg.sacked:
                seg.lost = True
                seg.fast_retrans = False
                seg.retrans_outstanding = False
                count += 1
        self.lost_out = count
        self.retrans_out = 0
        return count

    def clear_lost(self) -> None:
        """Undo: forget every loss mark (DSACK or F-RTO proved the
        retransmissions spurious)."""
        for seg in self._segments:
            seg.lost = False
        self.lost_out = 0

    def mark_retransmitted(
        self,
        seg: Segment,
        now: float,
        fast: bool = False,
        rto: bool = False,
        probe: bool = False,
    ) -> None:
        """Record a (re)transmission of ``seg`` at time ``now``."""
        seg.retrans_count += 1
        seg.last_tx_time = now
        if not seg.retrans_outstanding:
            seg.retrans_outstanding = True
            if not seg.sacked:
                self.retrans_out += 1
        if fast:
            seg.fast_retrans = True
        if rto:
            seg.rto_retrans = True
        if probe:
            seg.probe_retrans = True

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self):
        return iter(self._segments)

    @property
    def empty(self) -> bool:
        return not self._segments

    def head(self) -> Segment | None:
        return self._segments[0] if self._segments else None

    def tail(self) -> Segment | None:
        return self._segments[-1] if self._segments else None

    @property
    def packets_out(self) -> int:
        return len(self._segments)

    @property
    def in_flight(self) -> int:
        """Equation (1) of the paper."""
        return (
            len(self._segments)
            + self.retrans_out
            - (self.sacked_out + self.lost_out)
        )

    def next_retransmittable(self) -> Segment | None:
        """First segment eligible for (re)transmission during recovery.

        Eligible = marked lost, not SACKed, and — the crucial 2.6.32
        behaviour — not already fast-retransmitted.
        """
        for seg in self._segments:
            if seg.lost and not seg.sacked and not seg.fast_retrans:
                return seg
        return None

    def next_rto_retransmittable(self) -> Segment | None:
        """First lost segment for timeout-driven go-back-N retransmit."""
        for seg in self._segments:
            if seg.lost and not seg.sacked:
                return seg
        return None

    def find(self, seq: int) -> Segment | None:
        segments = self._segments
        i = bisect_left(segments, seq, key=_seq_of)
        if i < len(segments) and segments[i].seq == seq:
            return segments[i]
        return None

    def holes(self) -> int:
        """Unacked, unSACKed segments below the highest SACK (Table 2)."""
        if self.highest_sacked is None:
            return 0
        return sum(
            1
            for seg in self._segments
            if not seg.sacked and seg.seq < self.highest_sacked
        )
