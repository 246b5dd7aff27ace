"""Tests for the emulated web client."""

from __future__ import annotations

import pytest

from repro.mac.ap import Scheme
from repro.traffic.web import LARGE_PAGE, SMALL_PAGE, WebFetch, WebPage
from tests.conftest import make_testbed


class TestPageProfiles:
    def test_small_page_matches_paper(self):
        assert SMALL_PAGE.total_bytes == 56 * 1024
        assert SMALL_PAGE.request_count == 3

    def test_large_page_matches_paper(self):
        assert LARGE_PAGE.total_bytes == 3 * 1024 * 1024
        assert LARGE_PAGE.request_count == 110

    def test_object_sizes_sum_exactly(self):
        for page in (SMALL_PAGE, LARGE_PAGE):
            assert page.html_bytes + sum(page.object_bytes) == page.total_bytes


class TestFetch:
    def test_fetch_completes_on_idle_network(self):
        tb = make_testbed(Scheme.AIRTIME)
        plts = []
        WebFetch(tb.sim, tb.server, tb.stations[0], SMALL_PAGE,
                 on_complete=plts.append).start()
        tb.sim.run(until_us=30_000_000.0)
        assert len(plts) == 1
        assert 0.0 < plts[0] < 5.0

    def test_large_page_takes_longer_than_small(self):
        def fetch(page):
            tb = make_testbed(Scheme.AIRTIME)
            plts = []
            WebFetch(tb.sim, tb.server, tb.stations[0], page,
                     on_complete=plts.append).start()
            tb.sim.run(until_us=60_000_000.0)
            assert plts
            return plts[0]

        assert fetch(LARGE_PAGE) > fetch(SMALL_PAGE)

    def test_fetch_on_slow_station_is_slower(self):
        def fetch(station):
            tb = make_testbed(Scheme.AIRTIME)
            plts = []
            WebFetch(tb.sim, tb.server, tb.stations[station], SMALL_PAGE,
                     on_complete=plts.append).start()
            tb.sim.run(until_us=60_000_000.0)
            assert plts
            return plts[0]

        assert fetch(2) > fetch(0)  # station 2 is the MCS0 station

    def test_plt_recorded_on_object(self):
        tb = make_testbed(Scheme.AIRTIME)
        fetch = WebFetch(tb.sim, tb.server, tb.stations[0], SMALL_PAGE).start()
        tb.sim.run(until_us=30_000_000.0)
        assert fetch.plt_s is not None

    def test_competing_bulk_raises_plt(self):
        from repro.traffic.tcp import TcpConnection

        def fetch(with_bulk):
            tb = make_testbed(Scheme.FIFO)
            if with_bulk:
                TcpConnection(tb.sim, tb.server, tb.stations[2],
                              direction="down").start()
            plts = []
            tb.sim.schedule(2_000_000.0, lambda: WebFetch(
                tb.sim, tb.server, tb.stations[0], SMALL_PAGE,
                on_complete=plts.append).start())
            tb.sim.run(until_us=60_000_000.0)
            assert plts
            return plts[0]

        assert fetch(True) > fetch(False)


class TestFinishedFetches:
    def test_finished_fetches_release_their_flows(self):
        """A Fig. 11 cell keeps at most one live fetch's handlers and
        window subscribers, however many fetches have finished."""
        from repro.experiments.config import SLOW_STATION, three_station_rates
        from repro.experiments.testbed import Testbed, TestbedOptions
        from repro.experiments.web import _RepeatingFetcher
        from repro.experiments.workloads import tcp_download
        from repro.traffic.web import PARALLEL_CONNECTIONS

        tb = Testbed(three_station_rates(),
                     TestbedOptions(scheme=Scheme.AIRTIME, seed=1))
        tcp_download(tb, [SLOW_STATION])
        fetcher = _RepeatingFetcher(tb, 0, SMALL_PAGE).start(delay_us=10_000.0)
        handlers = len(tb.server._handlers)
        subscribers = len(tb.sim._window_subscribers)
        tb.run(20.0, 5.0)
        assert len(fetcher.plts_s) >= 10
        # One live fetch: a DNS flow, and per connection a control flow
        # and a data flow (whose receiver subscribes to the window).
        assert len(tb.server._handlers) <= \
            handlers + 1 + 2 * PARALLEL_CONNECTIONS
        assert len(tb.sim._window_subscribers) <= \
            subscribers + PARALLEL_CONNECTIONS
