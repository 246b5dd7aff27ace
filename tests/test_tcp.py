"""Tests for the TCP implementation (sender, receiver, SACK, CC laws)."""

from __future__ import annotations

import pytest

from repro.mac.ap import Scheme
from repro.sim.engine import Simulator
from repro.traffic.tcp import (
    TCP_MSS,
    TcpConnection,
    _Receiver,
    _Sender,
)
from tests.conftest import make_testbed


class SenderHarness:
    """Drives a _Sender against a perfect or scripted network."""

    def __init__(self, total_segments=None, cc="reno"):
        self.sim = Simulator()
        self.sent = []
        self.sender = _Sender(self.sim, self.sent.append, total_segments, cc=cc)


class ReceiverHarness:
    def __init__(self):
        self.sim = Simulator()
        self.acks = []
        self.receiver = _Receiver(self.sim, lambda a, s: self.acks.append((a, s)))

    def data(self, seq, size=1500):
        from repro.core.packet import Packet

        self.receiver.on_data(Packet(1, size, seq=seq))


class TestSenderWindow:
    def test_initial_window_is_ten(self):
        h = SenderHarness()
        h.sender.try_send()
        assert h.sent == list(range(10))

    def test_ack_advances_and_releases_more(self):
        h = SenderHarness()
        h.sender.try_send()
        h.sender.on_ack(2)
        # Slow start: cwnd 10 + 2 = 12; una=2 -> can send up to seq 13.
        assert max(h.sent) == 13

    def test_finite_transfer_stops_at_total(self):
        h = SenderHarness(total_segments=3)
        h.sender.try_send()
        assert h.sent == [0, 1, 2]

    def test_completion_callback_fires_once(self):
        h = SenderHarness(total_segments=3)
        fired = []
        h.sender.on_complete(lambda: fired.append(1))
        h.sender.try_send()
        h.sender.on_ack(3)
        h.sender.on_ack(3)
        assert fired == [1]

    def test_add_segments_resumes_transfer(self):
        h = SenderHarness(total_segments=2)
        h.sender.try_send()
        h.sender.on_ack(2)
        h.sender.add_segments(2)
        assert max(h.sent) == 3

    def test_add_segments_requires_finite_transfer(self):
        h = SenderHarness(total_segments=None)
        with pytest.raises(ValueError):
            h.sender.add_segments(1)


class TestSlowStartAndAvoidance:
    def test_slow_start_doubles_per_window(self):
        h = SenderHarness()
        h.sender.try_send()
        for ack in range(1, 11):
            h.sender.on_ack(ack)
        assert h.sender.cwnd == pytest.approx(20.0)

    def test_reno_linear_growth_after_ssthresh(self):
        h = SenderHarness(cc="reno")
        h.sender.ssthresh = 10.0
        h.sender.cwnd = 10.0
        h.sender.try_send()
        for ack in range(1, 11):
            h.sender.on_ack(ack)
        # ~1 segment growth per RTT worth of acks.
        assert h.sender.cwnd == pytest.approx(11.0, abs=0.2)

    def test_cubic_regrows_toward_wmax(self):
        h = SenderHarness(cc="cubic")
        h.sender.cwnd = 100.0
        h.sender.ssthresh = 100.0
        h.sender._w_max = 140.0
        h.sender._cubic_k = 1.0
        h.sender._epoch_start_us = 0.0
        h.sender.try_send()
        # Far past K: target well above cwnd; growth should be fast.
        h.sim.now = 3_000_000.0
        before = h.sender.cwnd
        h.sender.on_ack(5)
        assert h.sender.cwnd > before + 1

    def test_cubic_decrease_is_point_seven(self):
        h = SenderHarness(cc="cubic")
        h.sender.cwnd = 100.0
        assert h.sender._multiplicative_decrease() == pytest.approx(70.0)

    def test_reno_decrease_is_half(self):
        h = SenderHarness(cc="reno")
        h.sender.cwnd = 100.0
        assert h.sender._multiplicative_decrease() == pytest.approx(50.0)

    def test_invalid_cc_rejected(self):
        with pytest.raises(ValueError):
            SenderHarness(cc="vegas")


class TestFastRecovery:
    def make_loss_scenario(self):
        """Send a window, lose segment 0, deliver sacks for 1..n."""
        h = SenderHarness(cc="reno")
        h.sender.try_send()  # 0..9 in flight
        return h

    def test_three_dupacks_enter_recovery(self):
        h = self.make_loss_scenario()
        for i in range(2, 5):
            h.sender.on_ack(0, sack=((1, i),))
        assert h.sender._in_recovery

    def test_lost_head_is_retransmitted(self):
        h = self.make_loss_scenario()
        h.sent.clear()
        for i in range(2, 8):
            h.sender.on_ack(0, sack=((1, i),))
        assert 0 in h.sent

    def test_in_flight_segments_not_retransmitted(self):
        """The RFC 6675 IsLost rule: only the hole with >=3 SACKed
        segments above it is repaired."""
        h = self.make_loss_scenario()
        h.sent.clear()
        for i in range(2, 8):
            h.sender.on_ack(0, sack=((1, i),))
        retransmitted = [s for s in h.sent if s < 10 and s != 0]
        assert retransmitted == []

    def test_recovery_exits_on_full_ack(self):
        h = self.make_loss_scenario()
        for i in range(2, 6):
            h.sender.on_ack(0, sack=((1, i),))
        assert h.sender._in_recovery
        h.sender.on_ack(10)
        assert not h.sender._in_recovery
        assert h.sender.cwnd == pytest.approx(h.sender.ssthresh)

    def test_window_halved_once_per_episode(self):
        h = self.make_loss_scenario()
        for i in range(2, 9):
            h.sender.on_ack(0, sack=((1, i),))
        assert h.sender.ssthresh == pytest.approx(5.0)


class TestRto:
    def test_timeout_collapses_window(self):
        h = SenderHarness()
        h.sender.try_send()
        h.sim.run(until_us=2_000_000.0)  # initial RTO is 1s
        assert h.sender.timeouts == 1
        assert h.sender.cwnd == 1.0

    def test_timeout_retransmits_from_una(self):
        h = SenderHarness()
        h.sender.try_send()
        h.sent.clear()
        h.sim.run(until_us=1_100_000.0)
        assert h.sent[0] == 0

    def test_rto_backs_off_exponentially(self):
        h = SenderHarness()
        h.sender.try_send()
        first = h.sender.rto_us
        h.sim.run(until_us=1_100_000.0)
        assert h.sender.rto_us == pytest.approx(first * 2)

    def test_ack_of_everything_cancels_timer(self):
        h = SenderHarness(total_segments=2)
        h.sender.try_send()
        h.sender.on_ack(2)
        h.sim.run()
        assert h.sender.timeouts == 0

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: after an RTO's go-back-N, a late cumulative ack for "
        "the pre-timeout flight moves snd_una past snd_nxt and try_send "
        "resends the acked segments as fresh data (ROADMAP item 2(a))"))
    def test_late_ack_after_rto_resends_nothing_acked(self):
        h = SenderHarness()
        h.sender.try_send()  # 0..9 in flight
        h.sim.run(until_us=1_100_000.0)  # RTO: go-back-N resends 0
        assert h.sender.timeouts == 1 and h.sender.snd_nxt == 1
        h.sent.clear()
        h.sender.on_ack(10)  # the whole pre-timeout flight was delivered
        assert [seq for seq in h.sent if seq < 10] == []

    def test_rtt_sample_sets_rto(self):
        h = SenderHarness()
        h.sender.try_send()
        h.sim.now = 50_000.0
        h.sender.on_ack(1)
        assert h.sender.srtt_us == pytest.approx(50_000.0)
        assert h.sender.rto_us >= 200_000.0  # min RTO


class TestReceiver:
    def test_in_order_data_acked_every_two_segments(self):
        h = ReceiverHarness()
        h.data(0)
        assert h.acks == []  # first segment: delayed
        h.data(1)
        assert h.acks[-1][0] == 2

    def test_delayed_ack_timer_fires(self):
        h = ReceiverHarness()
        h.data(0)
        h.sim.run()
        assert h.acks[-1][0] == 1

    def test_out_of_order_triggers_immediate_dupack_with_sack(self):
        h = ReceiverHarness()
        h.data(0)
        h.data(1)
        h.data(3)  # gap at 2
        ack, sack = h.acks[-1]
        assert ack == 2
        assert sack == ((3, 4),)

    def test_gap_fill_advances_cumulative_ack(self):
        h = ReceiverHarness()
        h.data(0)
        h.data(1)
        h.data(3)
        h.data(4)
        h.data(2)
        ack, _ = h.acks[-1]
        assert ack == 5

    def test_sack_ranges_merge_adjacent(self):
        h = ReceiverHarness()
        h.data(5)
        h.data(7)
        h.data(6)
        _, sack = h.acks[-1]
        assert sack == ((5, 8),)

    def test_sack_reports_at_most_three_ranges(self):
        h = ReceiverHarness()
        for seq in (2, 4, 6, 8, 10):
            h.data(seq)
        _, sack = h.acks[-1]
        assert len(sack) == 3

    def test_duplicate_data_is_ignored_but_acked(self):
        h = ReceiverHarness()
        h.data(0)
        h.data(0)
        assert h.receiver.rcv_nxt == 1
        assert h.acks[-1][0] == 1

    def test_rx_bytes_counted(self):
        h = ReceiverHarness()
        h.data(0, size=1000)
        h.data(1, size=500)
        assert h.receiver.rx_bytes == 1500


class TestEndToEnd:
    @pytest.mark.parametrize("scheme", [Scheme.FIFO, Scheme.AIRTIME])
    def test_finite_download_completes(self, scheme):
        tb = make_testbed(scheme)
        done = []
        conn = TcpConnection(tb.sim, tb.server, tb.stations[0],
                             direction="down", total_bytes=200_000)
        conn.sender.on_complete(lambda: done.append(tb.sim.now))
        conn.start()
        tb.sim.run(until_us=20_000_000.0)
        assert done, "transfer did not complete"
        assert conn.delivered_bytes >= 200_000 * 0.99

    def test_upload_direction_works(self):
        tb = make_testbed(Scheme.AIRTIME)
        conn = TcpConnection(tb.sim, tb.server, tb.stations[0],
                             direction="up", total_bytes=100_000)
        done = []
        conn.sender.on_complete(lambda: done.append(1))
        conn.start()
        tb.sim.run(until_us=20_000_000.0)
        assert done

    def test_download_survives_lossy_medium(self):
        tb = make_testbed(Scheme.AIRTIME, error_rate=0.2, seed=9)
        conn = TcpConnection(tb.sim, tb.server, tb.stations[0],
                             direction="down", total_bytes=50_000)
        done = []
        conn.sender.on_complete(lambda: done.append(1))
        conn.start()
        tb.sim.run(until_us=30_000_000.0)
        assert done

    def test_invalid_direction(self):
        tb = make_testbed(Scheme.AIRTIME)
        with pytest.raises(ValueError):
            TcpConnection(tb.sim, tb.server, tb.stations[0], direction="side")
