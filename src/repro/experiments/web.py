"""Figure 11: web page-load times under competing bulk traffic.

Two scenarios from Section 4.2.2:

* ``fast_fetcher=True`` (Figure 11): a *fast* station repeatedly fetches
  a page while the slow station runs a bulk TCP download — PLT falls
  monotonically from FIFO to Airtime, with an order-of-magnitude jump
  from FIFO to FQ-CoDel.
* ``fast_fetcher=False`` (online appendix): the *slow* station fetches
  while the fast stations run bulk transfers — airtime fairness costs it
  5–10% PLT, since the slow station is deliberately throttled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.config import FAST_STATIONS, SLOW_STATION, three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import tcp_download
from repro.mac.ap import ALL_SCHEMES, Scheme
from repro.runner import RunSpec
from repro.traffic.web import LARGE_PAGE, SMALL_PAGE, WebFetch, WebPage

__all__ = ["WebResult", "run_case", "specs", "format_table",
           "ALL_SCHEMES"]


@dataclass(frozen=True)
class WebResult:
    scheme: Scheme
    page: str
    fast_fetcher: bool
    plts_s: List[float]

    @property
    def mean_plt_s(self) -> float:
        return sum(self.plts_s) / len(self.plts_s) if self.plts_s else float("nan")


class _RepeatingFetcher:
    """Fetch ``page`` back-to-back (1 s think time) and collect PLTs."""

    def __init__(self, testbed: Testbed, station_idx: int, page: WebPage) -> None:
        self.testbed = testbed
        self.station_idx = station_idx
        self.page = page
        self.plts_s: List[float] = []
        self._current: Optional[WebFetch] = None
        testbed.sim.at_window_start(self.plts_s.clear)

    def start(self, delay_us: float = 0.0) -> "_RepeatingFetcher":
        self.testbed.sim.schedule(delay_us, self._fetch)
        return self

    def _fetch(self) -> None:
        self._current = WebFetch(
            self.testbed.sim,
            self.testbed.server,
            self.testbed.stations[self.station_idx],
            self.page,
            on_complete=self._on_done,
        ).start()

    def _on_done(self, plt_s: float) -> None:
        self.plts_s.append(plt_s)
        self.testbed.sim.schedule(1_000_000.0, self._fetch)


def run_case(
    scheme: Scheme,
    page: WebPage,
    fast_fetcher: bool = True,
    duration_s: float = 30.0,
    warmup_s: float = 5.0,
    seed: int = 1,
) -> WebResult:
    testbed = Testbed(three_station_rates(), TestbedOptions(scheme=scheme, seed=seed))
    if fast_fetcher:
        fetch_station = FAST_STATIONS[0]
        bulk_stations = [SLOW_STATION]
    else:
        fetch_station = SLOW_STATION
        bulk_stations = list(FAST_STATIONS)
    tcp_download(testbed, bulk_stations)
    fetcher = _RepeatingFetcher(testbed, fetch_station, page).start(delay_us=10_000.0)
    testbed.run(duration_s, warmup_s)
    return WebResult(
        scheme=scheme,
        page=page.name,
        fast_fetcher=fast_fetcher,
        plts_s=list(fetcher.plts_s),
    )


def specs(
    schemes: Sequence[Scheme] = ALL_SCHEMES,
    pages: Sequence[WebPage] = (SMALL_PAGE, LARGE_PAGE),
    fast_fetcher: bool = True,
    *,
    duration_s: float,
    warmup_s: float,
    seed: int = 1,
) -> List[RunSpec]:
    """One spec per (page, scheme) cell of Figure 11."""
    return [
        RunSpec.make(
            "repro.experiments.web:run_case",
            label=f"web/{page.name}/{scheme.value}",
            scheme=scheme,
            page=page,
            fast_fetcher=fast_fetcher,
            duration_s=duration_s,
            warmup_s=warmup_s,
            seed=seed,
        )
        for page in pages
        for scheme in schemes
    ]


def format_table(results: Sequence[WebResult]) -> str:
    who = "fast station" if (results and results[0].fast_fetcher) else "slow station"
    lines = [f"Figure 11 — mean page load time (s), fetched by the {who}"]
    lines.append(f"{'Scheme':>16} {'page':>6} {'mean PLT s':>11} {'fetches':>8}")
    for result in results:
        # No completed fetch has no mean: a dash, not "nan".
        mean = f"{result.mean_plt_s:11.2f}" if result.plts_s else f"{'—':>11}"
        lines.append(
            f"{result.scheme.value:>16} {result.page:>6} "
            f"{mean} {len(result.plts_s):8d}"
        )
    return "\n".join(lines)
