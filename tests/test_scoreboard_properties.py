"""Property tests: scoreboard invariants under random ACK/SACK storms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.scoreboard import Scoreboard, Segment

MSS = 1000
WINDOW = 20  # segments in the test window


def fresh_board():
    board = Scoreboard()
    for i in range(WINDOW):
        board.add(
            Segment(
                seq=1 + i * MSS,
                end_seq=1 + (i + 1) * MSS,
                first_tx_time=0.0,
                last_tx_time=0.0,
            )
        )
    return board


# An "event" is either a cumulative ACK (to a segment boundary) or a
# SACK block covering a random segment range.
ack_events = st.tuples(
    st.just("ack"), st.integers(0, WINDOW), st.just(0)
)
sack_events = st.tuples(
    st.just("sack"), st.integers(0, WINDOW - 1), st.integers(1, 5)
)
mark_events = st.tuples(
    st.sampled_from(["mark_lost", "mark_all", "mark_head"]),
    st.just(0),
    st.just(0),
)
# A retransmission of the a-th outstanding segment (b picks fast / RTO
# / probe), and the DSACK / F-RTO undo that forgets every loss mark.
retransmit_events = st.tuples(
    st.just("retransmit"), st.integers(0, WINDOW - 1), st.integers(0, 2)
)
undo_events = st.tuples(st.just("undo"), st.just(0), st.just(0))
events = st.lists(
    st.one_of(
        ack_events, sack_events, mark_events, retransmit_events, undo_events
    ),
    max_size=40,
)


def recount(board):
    """The counted flags, recounted from scratch over the queue."""
    segments = list(board)
    return {
        "sacked_out": sum(1 for seg in segments if seg.sacked),
        "lost_out": sum(1 for seg in segments if seg.lost),
        "retrans_out": sum(
            1
            for seg in segments
            if seg.retrans_outstanding and not seg.sacked
        ),
    }


def counters(board):
    return {
        "sacked_out": board.sacked_out,
        "lost_out": board.lost_out,
        "retrans_out": board.retrans_out,
    }


def apply_events(board, event_list, check=None):
    """Apply ``event_list``; ``check(board)`` runs after every event."""
    snd_una = 1
    for kind, a, b in event_list:
        if kind == "ack":
            ack = 1 + a * MSS
            if ack > snd_una:
                board.ack_through(ack)
                snd_una = ack
        elif kind == "sack":
            left = 1 + a * MSS
            right = 1 + min(WINDOW, a + b) * MSS
            board.apply_sack([(left, right)], snd_una, now=1.0)
        elif kind == "mark_lost":
            board.mark_lost_by_sack(3)
        elif kind == "mark_all":
            board.mark_all_lost()
        elif kind == "mark_head":
            board.mark_head_lost()
        elif kind == "retransmit":
            outstanding = list(board)
            if outstanding:
                seg = outstanding[a % len(outstanding)]
                board.mark_retransmitted(
                    seg, now=2.0, fast=b == 0, rto=b == 1, probe=b == 2
                )
        elif kind == "undo":
            board.clear_lost()
        if check is not None:
            check(board)
    return snd_una


class TestInvariants:
    @given(events)
    @settings(max_examples=300)
    def test_counters_match_a_fresh_recount_after_every_event(
        self, event_list
    ):
        def check(board):
            fresh = recount(board)
            assert counters(board) == fresh
            assert board.in_flight == len(list(board)) + fresh[
                "retrans_out"
            ] - (fresh["sacked_out"] + fresh["lost_out"])

        apply_events(fresh_board(), event_list, check)

    @given(events)
    @settings(max_examples=200)
    def test_counts_stay_consistent(self, event_list):
        board = fresh_board()
        apply_events(board, event_list)
        assert 0 <= board.sacked_out <= board.packets_out
        assert 0 <= board.lost_out <= board.packets_out
        assert 0 <= board.retrans_out <= board.packets_out
        assert board.holes() <= board.packets_out
        # Equation (1) can legitimately dip negative transiently in the
        # kernel; our accessor mirrors the formula, so just bound it.
        assert board.in_flight <= 2 * board.packets_out

    @given(events)
    @settings(max_examples=200)
    def test_segments_never_sacked_and_lost(self, event_list):
        board = fresh_board()
        apply_events(board, event_list)
        for segment in board:
            assert not (segment.sacked and segment.lost)

    @given(events)
    @settings(max_examples=100)
    def test_retransmittable_is_lost_unsacked_unfastretransmitted(
        self, event_list
    ):
        board = fresh_board()
        apply_events(board, event_list)
        candidate = board.next_retransmittable()
        if candidate is not None:
            assert candidate.lost
            assert not candidate.sacked
            assert not candidate.fast_retrans

    @given(events)
    @settings(max_examples=100)
    def test_queue_stays_seq_ordered(self, event_list):
        board = fresh_board()
        apply_events(board, event_list)
        seqs = [segment.seq for segment in board]
        assert seqs == sorted(seqs)

    @given(events)
    @settings(max_examples=100)
    def test_ack_removes_prefix_only(self, event_list):
        board = fresh_board()
        snd_una = apply_events(board, event_list)
        head = board.head()
        if head is not None:
            assert head.end_seq > snd_una
