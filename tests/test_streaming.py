"""Streaming statistics: sketch error bounds, merging, and decode parity.

The streaming path exists so summaries no longer require full-trace
retention; its whole value rests on two promises tested here:

* the quantile sketch answers within its *documented* rank-error bound,
  including after merging shard sketches (Hypothesis properties), and
* an online run produces the same airtime / drop / queue tables as the
  legacy decode path, bit for bit.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import fairness
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.mac.ap import Scheme
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.streaming import (
    QuantileSketch,
    StreamingStats,
    WindowedJain,
    format_streaming,
    jain_index,
)
from repro.telemetry.summarize import summarize_records
from repro.telemetry.trace import TraceBus, iter_trace_file

from tests.conftest import make_testbed
from tests.test_trace_determinism import PINNED_SCENARIOS

# ----------------------------------------------------------------------
# Rank-error helper
# ----------------------------------------------------------------------
def rank_interval(data: list, value: float) -> tuple:
    """Empirical rank range of ``value`` in ``data`` (handles ties)."""
    n = len(data)
    below = sum(1 for x in data if x < value)
    at_or_below = sum(1 for x in data if x <= value)
    return below / n, at_or_below / n


QUANTILE_GRID = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)

samples = st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=2000,
)


def assert_within_bound(sketch: QuantileSketch, data: list) -> None:
    # The documented sketch bound, plus one sample of discretisation
    # slack: with n samples every achievable empirical rank is a
    # multiple of 1/n, so an interpolated estimate can legitimately sit
    # up to one sample-width from the requested rank even when the
    # sketch itself is exact.
    slack = sketch.rank_error_bound + 1.0 / len(data)
    for q in QUANTILE_GRID:
        estimate = sketch.quantile(q)
        lo, hi = rank_interval(data, estimate)
        assert lo - slack <= q <= hi + slack, (
            f"q={q}: estimate {estimate} has rank [{lo}, {hi}], "
            f"outside ±{slack}"
        )


# ----------------------------------------------------------------------
# QuantileSketch properties
# ----------------------------------------------------------------------
class TestQuantileSketch:
    @given(data=samples)
    @settings(max_examples=60, deadline=None)
    def test_quantiles_within_documented_rank_error(self, data):
        sketch = QuantileSketch(max_centroids=64)
        for value in data:
            sketch.observe(value)
        assert_within_bound(sketch, data)

    @given(data=samples)
    @settings(max_examples=40, deadline=None)
    def test_merged_halves_match_single_pass_bound(self, data):
        """Shard sketches merged answer within the same documented bound."""
        mid = len(data) // 2
        left, right = QuantileSketch(64), QuantileSketch(64)
        for value in data[:mid]:
            left.observe(value)
        for value in data[mid:]:
            right.observe(value)
        merged = left.merge(right)
        assert merged.count == len(data)
        assert merged.total == pytest.approx(sum(data), rel=1e-9, abs=1e-6)
        assert_within_bound(merged, data)

    @given(data=samples)
    @settings(max_examples=40, deadline=None)
    def test_merge_empty_is_identity(self, data):
        sketch = QuantileSketch(64)
        for value in data:
            sketch.observe(value)
        before = [sketch.quantile(q) for q in QUANTILE_GRID]
        sketch.merge(QuantileSketch(64))
        assert [sketch.quantile(q) for q in QUANTILE_GRID] == before

    @given(data=samples)
    @settings(max_examples=40, deadline=None)
    def test_tails_and_moments_are_exact(self, data):
        sketch = QuantileSketch(64)
        for value in data:
            sketch.observe(value)
        assert sketch.quantile(0.0) == min(data)
        assert sketch.quantile(1.0) == max(data)
        assert sketch.count == len(data)
        assert sketch.mean == pytest.approx(
            sum(data) / len(data), rel=1e-9, abs=1e-6
        )

    @given(data=samples)
    @settings(max_examples=30, deadline=None)
    def test_memory_stays_bounded(self, data):
        sketch = QuantileSketch(max_centroids=16)
        for value in data:
            sketch.observe(value)
            assert len(sketch._buffer) <= sketch._flush_at
        sketch._compress()
        assert len(sketch._means) <= sketch.max_centroids

    def test_empty_and_single_value(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) == 0.0
        assert sketch.to_dict() == {"count": 0}
        sketch.observe(42.0)
        for q in (0.0, 0.3, 0.5, 1.0):
            assert sketch.quantile(q) == 42.0

    def test_monotone_in_q(self):
        sketch = QuantileSketch(32)
        for i in range(5000):
            sketch.observe((i * 37) % 1000)
        values = [sketch.quantile(q / 100) for q in range(0, 101, 5)]
        assert values == sorted(values)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            QuantileSketch(max_centroids=4)
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)

    def test_to_dict_snapshot_keys(self):
        sketch = QuantileSketch(64)
        for i in range(1000):
            sketch.observe(float(i))
        snap = sketch.to_dict()
        assert snap["count"] == 1000
        assert snap["min"] == 0.0 and snap["max"] == 999.0
        assert abs(snap["p50"] - 499.5) <= 1000 * sketch.rank_error_bound
        # Dispersion fields ride along for interval estimation.
        two_pass = sum((i - 499.5) ** 2 for i in range(1000)) / 999
        assert snap["var"] == pytest.approx(two_pass, rel=1e-9)
        assert snap["stderr"] == pytest.approx(
            math.sqrt(two_pass / 1000), rel=1e-9
        )

    # ------------------------------------------------------------------
    # Mergeable moments + merge-of-empty regression (PR 9)
    # ------------------------------------------------------------------
    @given(data=samples)
    @settings(max_examples=40, deadline=None)
    def test_merge_with_empty_preserves_full_state(self, data):
        """Regression: merging an empty sketch — either direction — must
        be a full identity, including min/max and the moment state, even
        while the populated sketch's values still sit in its observe
        buffer (the pre-fix path skipped compression and could serve a
        stale snapshot afterwards)."""
        reference = QuantileSketch(64)
        for value in data:
            reference.observe(value)
        expect = (reference.count, reference.total, reference.quantile(0.0),
                  reference.quantile(1.0), reference.variance)

        populated = QuantileSketch(64)
        for value in data:
            populated.observe(value)
        populated.merge(QuantileSketch(64))   # buffer-only self, empty other
        assert (populated.count, populated.total, populated.quantile(0.0),
                populated.quantile(1.0), populated.variance) == expect

        other = QuantileSketch(64)
        for value in data:
            other.observe(value)
        empty = QuantileSketch(64)
        empty.merge(other)                    # empty self, populated other
        assert (empty.count, empty.total, empty.quantile(0.0),
                empty.quantile(1.0), empty.variance) == expect

    def test_variance_is_exact_despite_compression(self):
        data = [((i * 37) % 1000) / 7.0 for i in range(5000)]
        sketch = QuantileSketch(max_centroids=16)   # heavy compression
        for value in data:
            sketch.observe(value)
        mean = sum(data) / len(data)
        two_pass = sum((v - mean) ** 2 for v in data) / (len(data) - 1)
        assert sketch.variance == pytest.approx(two_pass, rel=1e-9)
        assert sketch.stddev == pytest.approx(math.sqrt(two_pass), rel=1e-9)
        assert sketch.stderr == pytest.approx(
            math.sqrt(two_pass / len(data)), rel=1e-9
        )

    @given(data=samples)
    @settings(max_examples=40, deadline=None)
    def test_variance_survives_merge(self, data):
        """Chan-combined shard moments equal the single-pass moments."""
        mid = len(data) // 2
        left, right = QuantileSketch(16), QuantileSketch(16)
        for value in data[:mid]:
            left.observe(value)
        for value in data[mid:]:
            right.observe(value)
        left.merge(right)
        whole = QuantileSketch(16)
        for value in data:
            whole.observe(value)
        assert left.variance == pytest.approx(
            whole.variance, rel=1e-6, abs=1e-9
        )

    def test_variance_degenerate_cases(self):
        sketch = QuantileSketch(64)
        assert sketch.variance == 0.0 and sketch.stderr == 0.0
        sketch.observe(3.0)
        assert sketch.variance == 0.0 and sketch.stderr == 0.0
        sketch.observe(3.0)
        assert sketch.variance == 0.0    # constant data: exactly zero

    def test_value_at_rank_is_exact_below_capacity(self):
        data = [9.0, 1.0, 5.0, 3.0, 7.0]
        sketch = QuantileSketch(64)
        for value in data:
            sketch.observe(value)
        expect = sorted(data)
        for rank in range(1, len(data) + 1):
            assert sketch.value_at_rank(rank) == expect[rank - 1]
        # Out-of-range ranks clamp to the exact tails.
        assert sketch.value_at_rank(0) == 1.0
        assert sketch.value_at_rank(99) == 9.0


# ----------------------------------------------------------------------
# Jain index + windows
# ----------------------------------------------------------------------
class TestWindowedJain:
    def test_jain_index_basics(self):
        # The one index of ``analysis.fairness``: idle is vacuously fair.
        assert jain_index is fairness.jain_index
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        # One active station out of n gives 1/n.
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_window_edge_cases(self):
        jain = WindowedJain(window_us=1000.0)
        jain.observe(100.0, 0, 0.0)       # all-zero window: not "unfair"
        jain.observe(200.0, 1, 0.0)
        jain.observe(5500.0, 0, 1.0)      # empty windows emit nothing
        assert jain.series == [(1000.0, 1.0)]
        jain.observe(5600.0, 1, float("nan"))
        with pytest.raises(ValueError):
            jain.flush()
        negative = WindowedJain(window_us=1000.0)
        negative.observe(100.0, 0, -1.0)
        with pytest.raises(ValueError):
            negative.snapshot()

    def test_windows_close_on_time(self):
        jain = WindowedJain(window_us=1000.0)
        jain.observe(100.0, 0, 10.0)
        jain.observe(200.0, 1, 10.0)
        assert jain.series == []          # window still open
        jain.observe(1500.0, 0, 10.0)     # crosses the boundary
        assert len(jain.series) == 1
        t_end, index = jain.series[0]
        assert t_end == 1000.0
        assert index == pytest.approx(1.0)
        jain.flush()
        assert len(jain.series) == 2      # the partial second window

    def test_gap_spanning_multiple_windows(self):
        jain = WindowedJain(window_us=1000.0)
        jain.observe(100.0, 0, 1.0)
        jain.observe(5500.0, 0, 1.0)      # jumps 4 empty windows
        # Empty windows emit nothing (no airtime means no index).
        assert len(jain.series) == 1

    def test_reset_is_in_place(self):
        """Tap consumers close over the object; reset must not replace it."""
        jain = WindowedJain(window_us=1000.0)
        alias = jain
        jain.observe(100.0, 0, 1.0)
        jain.reset()
        assert alias is jain
        assert alias.series == [] and alias.latest is None
        alias.observe(2500.0, 0, 1.0)
        alias.flush()
        assert len(jain.series) == 1


# ----------------------------------------------------------------------
# StreamingStats handlers (driven through a bus, no simulator)
# ----------------------------------------------------------------------
class TestStreamingStatsUnits:
    TX_FIELDS = (
        ("station", "q"), ("airtime_us", "d"), ("tx_us", "d"),
        ("down", "b"), ("agg", "q"), ("n_pkts", "q"),
        ("bytes", "q"), ("ac", "s"), ("ok", "b"), ("retries", "q"),
    )

    def _tx(self, stats):
        """The testbed's tx emitter on a bus ``stats`` taps."""
        bus = TraceBus()
        stats.register(bus)
        return bus.channel("tx").emitter("tx", self.TX_FIELDS)

    def test_tx_accounting_and_measurement_reset(self):
        stats = StreamingStats()
        consume = self._tx(stats)
        # Warm-up traffic, then the measurement marker, then real traffic.
        consume(10.0, 0, 100.0, 90.0, True, 1, 4, 6000, "BE", True, 0)
        stats.reset_window(20.0)
        consume(30.0, 0, 200.0, 180.0, True, 2, 8, 12000, "BE", True, 0)
        consume(40.0, 1, 50.0, 45.0, False, 0, 1, 1500, "BE", True, 0)
        assert stats.measurement_start_us == 20.0
        account = stats.stations[0]
        assert account.transmissions == 1       # warm-up discarded
        assert account.airtime_us == 200.0
        assert account.payload_bytes == 12000
        assert account.mean_aggregation == 8.0
        assert stats.stations[1].uplink_airtime_us == 50.0
        shares = stats.airtime_shares()
        assert shares[0] == pytest.approx(0.8)
        assert shares[1] == pytest.approx(0.2)

    def test_failed_downlink_carries_airtime_not_bytes(self):
        stats = StreamingStats()
        consume = self._tx(stats)
        consume(10.0, 0, 100.0, 90.0, True, 1, 4, 6000, "BE", False, 1)
        account = stats.stations[0]
        assert account.airtime_us == 100.0
        assert account.payload_bytes == 0

    def test_drop_and_queue_counters(self):
        stats = StreamingStats()
        bus = TraceBus()
        stats.register(bus)
        queue = bus.channel("queue")
        drop = queue.emitter("drop", (("layer", "c", "qdisc"),
                                      ("reason", "s")))
        drop(1.0, "overlimit")
        drop(2.0, "overlimit")
        drop(3.0, "codel")
        assert stats.drops == {
            ("qdisc", "overlimit"): 2, ("qdisc", "codel"): 1,
        }
        enq = queue.emitter("enqueue", (("layer", "c", "qdisc"),
                                        ("station", "q")))
        deq = queue.emitter("dequeue", (("layer", "c", "qdisc"),
                                        ("station", "q"),
                                        ("sojourn_us", "d")))
        enq(1.0, 7)
        enq(2.0, 7)
        deq(3.0, 7, 1500.0)
        assert stats.queue_counts[("qdisc", 7)] == [2, 1]
        assert stats.sojourn["qdisc"].count == 1

    def test_dequeue_without_sojourn_field_is_skipped(self):
        stats = StreamingStats()
        bus = TraceBus()
        stats.register(bus)
        bus.channel("queue").emitter("dequeue", (("layer", "c", "q"),))(1.0)
        assert stats.records_seen == 0
        assert not stats.sojourn and not stats.queue_counts

    def test_snapshot_and_format_roundtrip(self):
        stats = StreamingStats()
        consume = self._tx(stats)
        for i in range(10):
            consume(float(i) * 1e5, i % 2, 100.0, 90.0,
                    True, i, 4, 6000, "BE", True, 0)
        stats.observe_rtt(0, 25_000.0)
        snap = stats.snapshot()
        assert snap["records_seen"] == 10
        assert set(snap["stations"]) == {"0", "1"}
        assert snap["rtt_us"]["0"]["count"] == 1
        text = format_streaming(snap, title="unit")
        assert "records consumed online" in text
        assert "Windowed Jain" in text

    def test_snapshot_is_read_only(self):
        """The open Jain window is rendered, not closed: the flight
        recorder and tests snapshot mid-run, ``finish()`` at the end."""
        stats = StreamingStats()
        consume = self._tx(stats)
        consume(1e5, 0, 100.0, 90.0, True, 1, 4, 6000, "BE", True, 0)
        assert stats.snapshot()["jain"]["series"] == [[1e6, 1.0]]
        assert stats.jain.series == []
        consume(2e5, 1, 300.0, 270.0, True, 2, 4, 6000, "BE", True, 0)
        # One entry for the one window, over everything in it so far.
        assert stats.snapshot()["jain"]["series"] == [[1e6, 0.8]]
        assert stats.snapshot() == stats.snapshot()


# ----------------------------------------------------------------------
# Streaming vs decode parity on a real run
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestStreamingDecodeParity:
    def _run(self, streaming: bool):
        config = (TelemetryConfig(streaming=True) if streaming
                  else TelemetryConfig(trace=True))
        testbed = make_testbed(Scheme.AIRTIME, seed=7, telemetry=config)
        from repro.experiments.workloads import saturating_udp_download

        saturating_udp_download(testbed)
        testbed.run(duration_s=0.4, warmup_s=0.1)
        if streaming:
            return testbed, testbed.finish_telemetry()
        # Keep the raw records for an exact decode reference.
        records = list(testbed.telemetry.trace.records)
        summary = testbed.finish_telemetry()
        return testbed, summary, records

    def test_online_tables_match_decode_exactly(self):
        _, streamed = self._run(streaming=True)
        _, legacy, records = self._run(streaming=False)
        # The headline tables must agree bit for bit, not approximately:
        # both paths consume the same positional records.
        assert streamed["airtime_us"] == legacy["airtime_us"]
        assert streamed["drops"] == legacy["drops"]

        decode = summarize_records(records)
        snap = streamed["streaming"]
        for station, tx in decode.stations.items():
            account = snap["stations"][str(station)]
            assert account["transmissions"] == tx.transmissions
            assert account["airtime_us"] == tx.airtime_us
            assert account["payload_bytes"] == tx.payload_bytes

    @pytest.mark.parametrize("name,scheme", [
        ("udp", Scheme.AIRTIME),            # mac layer, marker reset
        ("udp-impaired", Scheme.AIRTIME),   # churn flush, fault markers
        ("voip-vo", Scheme.FIFO),           # stationless qdisc, vo layer
    ])
    def test_feeding_the_written_trace_reproduces_the_live_snapshot(
            self, name, scheme, tmp_path):
        """One set of handlers, two front-ends: taps in the run,
        ``feed`` over the JSONL the same run wrote."""
        scenario, _, overrides = PINNED_SCENARIOS[name]
        trace_path = str(tmp_path / "run.trace.jsonl")
        testbed = Testbed(three_station_rates(), TestbedOptions(**{
            "scheme": scheme, "seed": 1, **overrides,
            "telemetry": TelemetryConfig(streaming=True,
                                         trace_path=trace_path)}))
        duration_s, warmup_s = scenario(testbed)
        testbed.run(duration_s, warmup_s)
        live = testbed.finish_telemetry()
        assert "trace_dropped" not in live  # the file is the full trace

        fed = StreamingStats()
        for record in iter_trace_file(trace_path):
            fed.feed(record)
        assert fed.snapshot() == live["streaming"]
        assert live["streaming"]["records_seen"] > 1000

    def test_sketch_quantiles_track_decoded_sojourns(self):
        _, streamed = self._run(streaming=True)
        _, _, records = self._run(streaming=False)
        exact = {}
        for record in records:
            if record.get("ev") == "dequeue" and "sojourn_us" in record:
                exact.setdefault(record["layer"], []).append(
                    record["sojourn_us"]
                )
        snap = streamed["streaming"]
        bound = snap["rank_error_bound"]
        checked = 0
        for layer, values in exact.items():
            sketch = snap["sojourn_us"].get(layer)
            if sketch is None or sketch["count"] < 50:
                continue
            assert sketch["count"] == len(values)
            slack = bound + 1.0 / len(values)
            for q in (0.5, 0.9, 0.99):
                lo, hi = rank_interval(values, sketch[f"p{int(q * 100):02d}"])
                assert lo - slack <= q <= hi + slack
                checked += 1
        assert checked > 0

    def test_streaming_keeps_ring_bounded(self):
        testbed, summary = self._run(streaming=True)
        capacity = testbed.options.telemetry.effective_capacity
        assert capacity is not None
        # The columnar ring evicts amortised; it never holds more than
        # twice its capacity even though the run emitted far more.
        assert summary["trace_records"] <= 2 * capacity
        assert summary["streaming"]["records_seen"] > capacity


# ----------------------------------------------------------------------
# Ring-overflow surfacing in the decode path
# ----------------------------------------------------------------------
class TestRingOverflowSummary:
    def test_summarize_folds_overflow_header(self):
        header = {"t": 0.0, "cat": "meta", "ev": "ring_overflow",
                  "dropped": 123}
        body = [
            {"t": 10.0, "cat": "queue", "ev": "enqueue", "layer": "qdisc"},
            {"t": 20.0, "cat": "queue", "ev": "dequeue", "layer": "qdisc",
             "sojourn_us": 10.0},
        ]
        summary = summarize_records([header] + body)
        assert summary.ring_dropped == 123
        # The header is bookkeeping, not an event.
        assert summary.total_records == len(body)

    def test_summarize_without_header_reports_zero(self):
        summary = summarize_records(
            [{"t": 10.0, "cat": "queue", "ev": "enqueue", "layer": "qdisc"}]
        )
        assert summary.ring_dropped == 0
