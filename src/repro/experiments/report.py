"""Generate a paper-vs-measured markdown report (EXPERIMENTS.md).

Runs every experiment, places its measurements next to the paper's
values (:mod:`repro.experiments.paper_data`), and judges the *claims* —
the qualitative shapes each table or figure shows.

A claim (:mod:`repro.validation.verdict`) is a row of data: its text, a
formatter for the measured cell, and the named quantities it reads off
one run of its section, each with the side of a threshold it must fall
on.  ``--replications N`` runs every section over seeds 1..N and renders
the tables from seed 1; each claim is judged on the 95% t-interval of
its quantities over the N runs.

Runs go through :mod:`repro.runner`: ``--jobs N`` worker processes,
and a cache under ``.repro-cache/``, so a re-run — or a killed report
started again — simulates only what is not cached.  The report is
bit-identical for any worker count.

Usage::

    python -m repro.experiments.report [--duration-scale 1.0] [-o FILE]
        [--replications N] [--jobs N] [--no-cache]

Exit codes: 0 clean, 2 usage error, 3 partial (a run failed or a
section could not be rendered).  A ✗ claim is a finding, not an error:
it exits 0.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.attribution import Attribution, format_waterfall
from repro.experiments import paper_data, registry, table1
from repro.experiments.cli import run_cost_table, positive_float, positive_int
from repro.experiments.config import SLOW_STATION
from repro.mac.ap import Scheme
from repro.runner import ResultCache, Runner, default_jobs
from repro.telemetry import TelemetryConfig
from repro.telemetry.logutil import configure_logging, get_logger
from repro.validation.verdict import Claim, NoSamples, Quantity, table

__all__ = ["Section", "SECTIONS", "generate_report", "main"]

log = get_logger("repro.report")

FIFO, FQ_CODEL, FQ_MAC, AIRTIME = (
    Scheme.FIFO, Scheme.FQ_CODEL, Scheme.FQ_MAC, Scheme.AIRTIME)


@dataclass(frozen=True)
class Section:
    """One table or figure: its run for one seed, the body rendered from
    seed 1's run, and the claims judged over every seed's."""

    title: str
    run: Callable[[float, Optional[Runner], int], Any]
    body: Callable[[Any], str]
    claims: Tuple[Claim, ...]

    def render(self, scale: float, runner: Optional[Runner] = None,
               replications: int = 1) -> str:
        runs = [self.run(scale, runner, seed)
                for seed in range(1, replications + 1)]
        verdicts = [claim.judge(runs) for claim in self.claims
                    if claim.applies(runs[0])]
        return "\n".join([f"## {self.title}", "", self.body(runs[0]), "",
                          table("claim (paper)", verdicts)])


def _run(experiment_id: str, scale: float, runner: Optional[Runner],
         seed: int, **kwargs: Any) -> Any:
    """The registry row's experiment over its paper-length window, scaled,
    for one seed."""
    row = registry.BY_ID[experiment_id]
    return row.run(duration_s=row.duration_s * scale,
                   warmup_s=row.warmup_s * scale, seed=seed, runner=runner,
                   **kwargs)


def _runs(experiment_id: str,
          key: Callable[[Any], Any] = operator.attrgetter("scheme"),
          **kwargs: Any) -> Callable[[float, Optional[Runner], int], Dict]:
    """A section's run: the registry row's experiment over its scaled
    window for one seed, results keyed by ``key`` (failed runs left out)."""
    def run(scale: float, runner: Optional[Runner], seed: int) -> Dict:
        results = _run(experiment_id, scale, runner, seed, **kwargs)
        return {key(r): r for r in results if r is not None}
    return run


def _table(experiment_id: str) -> Callable[[Dict], str]:
    """A section's body: the experiment's own table of keyed results."""
    def body(run: Dict) -> str:
        module = registry.BY_ID[experiment_id].module
        return f"```\n{module.format_table(list(run.values()))}\n```"
    return body


def _ratio(a: float, b: float) -> float:
    """``a / b`` for a claim ``a > k·b`` or ``a < k·b``; a zero ``b`` gives
    +inf if ``a > 0``, else NaN, so verdicts stay the product form's."""
    if b:
        return a / b
    return math.inf if a > 0 else math.nan


def _ping(run: Dict, scheme: Scheme, station_class: str) -> float:
    """Median ping of one station class under ``scheme``."""
    summary = run[scheme].summaries()[station_class]
    if not summary.count:
        raise NoSamples(f"no {station_class}-station ping completed "
                        f"under {scheme.value}")
    return summary.median


def _table1_body(result) -> str:
    paper = "paper baseline R(i): " + "/".join(
        f"{r.predicted_mbps:g}" for r in paper_data.TABLE1_BASELINE
    ) + " — paper fair R(i): " + "/".join(
        f"{r.predicted_mbps:g}" for r in paper_data.TABLE1_FAIR)
    return f"```\n{table1.format_table(result)}\n```\n\n{paper}"


def _model_error(r) -> float:
    return max(abs(m - p.rate_mbps) / max(p.rate_mbps, 0.1)
               for p, m in zip(r.fair_predictions, r.fair_measured_mbps))


def _table1_gain(r) -> float:
    return _ratio(sum(r.fair_measured_mbps), sum(r.baseline_measured_mbps))


TABLE1 = Section(
    "Table 1 — analytical model vs measured UDP throughput",
    functools.partial(_run, "table1"),
    _table1_body, (
        Claim("FIFO: slow station takes ~79% of airtime",
              lambda r: f"{r.baseline_airtime_shares[2]:.0%}",
              Quantity("slow share", lambda r: r.baseline_airtime_shares[2],
                       ">", 0.6)),
        Claim("Airtime: equal 33% shares",
              lambda r: ", ".join(f"{s:.1%}" for s in r.fair_airtime_shares),
              Quantity("max deviation from 1/3", lambda r: max(
                  abs(s - 1 / 3) for s in r.fair_airtime_shares), "<", 0.05)),
        Claim("model positions within ~15% of simulator measurements "
              "(fair half)",
              lambda r: "predicted "
              + "/".join(f"{p.rate_mbps:.1f}" for p in r.fair_predictions)
              + " vs measured "
              + "/".join(f"{m:.1f}" for m in r.fair_measured_mbps),
              Quantity("max model error", _model_error, "<", 0.15)),
        Claim("total gain from fixing the anomaly is a multiple (paper ~4x "
              "measured)", lambda r: f"{_table1_gain(r):.1f}x",
              Quantity("gain", _table1_gain, ">", 2.5)),
    ))


LATENCY = Section(
    "Figures 1 and 4 — latency under load", _runs("fig04"), _table("fig04"), (
        Claim("FIFO sits at several hundred ms (paper ~600 ms median)",
              lambda r: f"{_ping(r, FIFO, 'fast'):.0f} ms median",
              Quantity("FIFO fast ms", lambda r: _ping(r, FIFO, "fast"),
                       ">", 150)),
        Claim("order-of-magnitude reduction FIFO → FQ-MAC",
              lambda r: f"{_ping(r, FIFO, 'fast'):.0f} ms → "
              f"{_ping(r, FQ_MAC, 'fast'):.1f} ms "
              f"({_ping(r, FIFO, 'fast') / _ping(r, FQ_MAC, 'fast'):.0f}x)",
              Quantity("FIFO/FQ-MAC", lambda r: _ratio(
                  _ping(r, FIFO, "fast"), _ping(r, FQ_MAC, "fast")), ">", 5)),
        Claim("Airtime adds nothing over FQ-MAC here: fast-station median "
              "within 3x of FQ-MAC's (the paper omits it from Fig. 4)",
              lambda r: f"{_ping(r, AIRTIME, 'fast'):.1f} ms vs FQ-MAC "
              f"{_ping(r, FQ_MAC, 'fast'):.1f} ms",
              Quantity("Airtime/FQ-MAC", lambda r: _ratio(
                  _ping(r, AIRTIME, "fast"), _ping(r, FQ_MAC, "fast")),
                  "<", 3)),
        Claim("slow station keeps large residual latency under FQ-CoDel, "
              "fixed by FQ-MAC (paper 215 ms → ~35 ms)",
              lambda r: f"{_ping(r, FQ_CODEL, 'slow'):.0f} ms → "
              f"{_ping(r, FQ_MAC, 'slow'):.1f} ms",
              Quantity("FQ-CoDel/FQ-MAC slow", lambda r: _ratio(
                  _ping(r, FQ_CODEL, "slow"), _ping(r, FQ_MAC, "slow")),
                  ">", 2)),
    ))


def _waterfall_run(scale: float, runner: Optional[Runner], seed: int) -> Dict:
    """The Figure 4 scenario traced with span reconstruction — *where*
    each scheme's latency lives, the per-layer attribution behind the
    paper's Figure 2 story — and the airtime ledger audited on the
    Table 1 scenario, the traffic eqs. (1)–(5) actually model."""
    spans = TelemetryConfig(trace=True, spans=True,
                            categories=("queue", "agg", "hw", "driver", "tx"))
    traced = _run("fig04", scale, runner, seed, telemetry=spans)
    ledgered = _run("fig05", scale, runner, seed,
                    telemetry=TelemetryConfig(ledger=True))
    return {
        "spans": {r.scheme: Attribution.from_dict(r.telemetry["spans"])
                  for r in traced if r is not None and r.telemetry is not None},
        "audits": {r.scheme: (r.telemetry.get("ledger") or {}).get("audit")
                   for r in ledgered
                   if r is not None and r.telemetry is not None},
    }


def _waterfall_body(run: Dict) -> str:
    waterfalls = "\n\n".join(format_waterfall(a, title=scheme.value)
                             for scheme, a in run["spans"].items())
    return f"```\n{waterfalls}\n```"


def _segment(run: Dict, scheme: Scheme, station: int, segment: str,
             stat: str = "total_us") -> float:
    """A station's span statistic for one segment (or ``"total"``), 0 when
    absent.  Segment *sums* telescope against the total sum over the same
    spans; a zero-length segment is skipped, so segment means cover fewer
    spans than the total mean and the two are not comparable."""
    entry = run["spans"][scheme].stations.get(station)
    stats = None if entry is None else (
        entry.total if segment == "total" else entry.segments.get(segment))
    return 0.0 if stats is None else getattr(stats, stat)


def _qdisc_share(run: Dict) -> float:
    total = _segment(run, FIFO, 0, "total")
    if total <= 0:
        raise NoSamples("no spans")
    return _segment(run, FIFO, 0, "qdisc") / total


def _driver_ms(run: Dict, station: int) -> float:
    return _segment(run, FQ_CODEL, station, "driver", "mean_us") / 1e3


def _driver_stages(run: Dict) -> int:
    return sum("driver" in entry.segments
               for entry in run["spans"][FQ_MAC].stations.values())


def _audit(scheme: Scheme, audit: Optional[Dict]) -> str:
    if not audit:
        return f"{scheme.value}: missing"
    verdict = "ok" if audit.get("ok") else "FAILED"
    return f"{scheme.value}: {verdict} (Δ{audit['worst_delta']:.3f})"


WATERFALL = Section(
    "Latency waterfall and airtime ledger (beyond the paper)",
    _waterfall_run, _waterfall_body, (
        Claim("every span stitches: zero unmatched join records in all "
              "schemes",
              lambda r: ", ".join(f"{s.value}: {a.unmatched}"
                                  for s, a in r["spans"].items()),
              Quantity("unmatched", lambda r: sum(
                  a.unmatched for a in r["spans"].values()), "<=", 0)),
        Claim("FIFO's latency lives in the qdisc (the bloated FIFO, Fig. 2)",
              lambda r: f"qdisc holds {_qdisc_share(r):.0%} of delivered "
              "latency", Quantity("qdisc share", _qdisc_share, ">", 0.8)),
        Claim("the unmanaged driver FIFO penalises the slow station "
              "rate-proportionally under FQ-CoDel; the integrated MAC has "
              "no driver stage at all",
              lambda r: f"driver wait {_driver_ms(r, SLOW_STATION):.1f} ms "
              f"slow vs {_driver_ms(r, 0):.1f} ms fast; FQ-MAC driver "
              f"segment {'present' if _driver_stages(r) else 'absent'}",
              Quantity("slow/fast driver wait", lambda r: _ratio(
                  _driver_ms(r, SLOW_STATION), _driver_ms(r, 0)), ">", 3),
              Quantity("fast driver ms", lambda r: _driver_ms(r, 0), ">", 0),
              Quantity("FQ-MAC driver stages", _driver_stages, "<=", 0)),
        Claim("airtime ledger audits against the §2.2.1 analytical model "
              "in every scheme",
              lambda r: ", ".join(_audit(s, a) for s, a in r["audits"].items()),
              Quantity("failed audits", lambda r: sum(
                  not (a and a.get("ok")) for a in r["audits"].values()),
                  "<=", 0)),
    ))


def _share(run: Dict, scheme: Scheme, station: int = 2) -> float:
    return run[scheme].airtime_shares[station]


AIRTIME_UDP = Section(
    "Figure 5 — airtime shares, one-way UDP", _runs("fig05"),
    _table("fig05"), (
        Claim("FIFO/FQ-CoDel: slow station ~80% of airtime",
              lambda r: f"{_share(r, FIFO):.0%} / {_share(r, FQ_CODEL):.0%}",
              Quantity("FIFO slow share", lambda r: _share(r, FIFO), ">", 0.6),
              Quantity("FQ-CoDel slow share", lambda r: _share(r, FQ_CODEL),
                       ">", 0.6)),
        Claim("FQ-MAC improves aggregation and moves shares toward the "
              "Tdata ratio, but is not airtime-fair",
              lambda r: f"slow share {_share(r, FQ_MAC):.0%}",
              Quantity("slow share", lambda r: _share(r, FQ_MAC), ">", 0.38),
              Quantity("slow share", lambda r: _share(r, FQ_MAC), "<", 0.6)),
        Claim("Airtime scheduler: exactly equal shares",
              lambda r: ", ".join(
                  f"{s:.1%}" for s in r[AIRTIME].airtime_shares.values()),
              Quantity("max deviation from 1/3", lambda r: max(
                  abs(s - 1 / 3) for s in r[AIRTIME].airtime_shares.values()),
                  "<", 0.03)),
    ))


def _jain(run: Dict, scheme: Scheme, traffic: str) -> float:
    return run[scheme].jain[traffic]


JAIN = Section(
    "Figure 6 — Jain's fairness index of airtime", _runs("fig06"),
    _table("fig06"), (
        Claim("Airtime: near-perfect index for unidirectional traffic",
              lambda r: f"udp {_jain(r, AIRTIME, 'udp'):.3f}, "
              f"tcp {_jain(r, AIRTIME, 'tcp_download'):.3f}",
              Quantity("udp", lambda r: _jain(r, AIRTIME, "udp"), ">", 0.98),
              Quantity("tcp", lambda r: _jain(r, AIRTIME, "tcp_download"),
                       ">", 0.9)),
        Claim("Airtime: slight dip for bidirectional traffic (indirect "
              "uplink control)",
              lambda r: f"bidir {_jain(r, AIRTIME, 'tcp_bidir'):.3f}",
              Quantity("udp − bidir", lambda r: _jain(r, AIRTIME, "udp")
                       - _jain(r, AIRTIME, "tcp_bidir"), ">", 0),
              Quantity("bidir", lambda r: _jain(r, AIRTIME, "tcp_bidir"),
                       ">", 0.8)),
        Claim("FIFO far from fair for UDP",
              lambda r: f"{_jain(r, FIFO, 'udp'):.3f}",
              Quantity("FIFO udp", lambda r: _jain(r, FIFO, "udp"), "<", 0.7)),
        Claim("Airtime beats FIFO for UDP and for TCP download",
              lambda r: ", ".join(
                  f"{t[:3]} {_jain(r, AIRTIME, t):.3f} vs "
                  f"{_jain(r, FIFO, t):.3f}" for t in ("udp", "tcp_download")),
              *(Quantity(f"Airtime − FIFO {t}", lambda r, t=t:
                         _jain(r, AIRTIME, t) - _jain(r, FIFO, t), ">", 0)
                for t in ("udp", "tcp_download"))),
    ))


def _mbps(run: Dict, scheme: Scheme, station: int) -> float:
    return run[scheme].download_mbps[station]


def _total_gain(run: Dict, baseline: Scheme = FIFO) -> float:
    return _ratio(run[AIRTIME].total_mbps, run[baseline].total_mbps)


def _totals(run: Dict, baseline: Scheme = FIFO) -> str:
    return (f"{run[baseline].total_mbps:.1f} → {run[AIRTIME].total_mbps:.1f} "
            f"Mbps ({_total_gain(run, baseline):.1f}x)")


TCP_THROUGHPUT = Section(
    "Figure 7 — TCP download throughput", _runs("fig07"), _table("fig07"), (
        Claim("fast stations gain as fairness goes up (paper ~10 → ~36 Mbps)",
              lambda r: f"{_mbps(r, FIFO, 0):.1f} → "
              f"{_mbps(r, AIRTIME, 0):.1f} Mbps",
              Quantity("Airtime/FIFO fast", lambda r: _ratio(
                  _mbps(r, AIRTIME, 0), _mbps(r, FIFO, 0)), ">", 2)),
        Claim("slow station loses some throughput",
              lambda r: f"{_mbps(r, FIFO, 2):.1f} → "
              f"{_mbps(r, AIRTIME, 2):.1f} Mbps",
              Quantity("Airtime − FIFO slow Mbps", lambda r:
                       _mbps(r, AIRTIME, 2) - _mbps(r, FIFO, 2), "<", 0)),
        Claim("net total increase", _totals,
              Quantity("gain", _total_gain, ">", 1.5)),
    ))


def _sparse_gain(run: Dict, bulk: str) -> float:
    return 1 - (run[(bulk, True)].summary().median
                / run[(bulk, False)].summary().median)


SPARSE = Section(
    "Figure 8 — the sparse-station optimisation",
    _runs("fig08", key=lambda r: (r.bulk_traffic, r.sparse_enabled)),
    _table("fig08"), (
        Claim("small but consistent median improvement with the "
              "optimisation (paper 10–15%)",
              lambda r: ", ".join(f"{bulk}: {_sparse_gain(r, bulk):.0%}"
                                  for bulk in ("udp", "tcp")),
              *(Quantity(f"{bulk} gain", lambda r, bulk=bulk:
                         _sparse_gain(r, bulk), ">", 0)
                for bulk in ("udp", "tcp"))),
    ))


SCALING = Section(
    "Figures 9–10 and §4.1.5 — scaling to 30 stations", _runs("fig09"),
    _table("fig09"), (
        Claim("slow 1 Mbps station grabs a dominant share under FQ-CoDel "
              "(paper ~2/3)", lambda r: f"{r[FQ_CODEL].slow_share:.0%}",
              Quantity("FQ-CoDel slow share", lambda r: r[FQ_CODEL].slow_share,
                       ">", 0.3)),
        Claim("airtime scheduler: fully fair sharing across 29 stations",
              lambda r: f"slow {r[AIRTIME].slow_share:.1%}, max fast "
              f"{max(r[AIRTIME].airtime_shares.values()):.1%} (fair = 3.4%)",
              Quantity("slow share", lambda r: r[AIRTIME].slow_share,
                       "<", 0.08),
              Quantity("max share", lambda r: max(
                  r[AIRTIME].airtime_shares.values()), "<", 0.08)),
        Claim("total throughput multiplies (paper 5.4x)",
              lambda r: _totals(r, FQ_CODEL),
              Quantity("gain", lambda r: _total_gain(r, FQ_CODEL), ">", 2)),
        Claim("sparse station's ping improves further at 30 stations "
              "(paper ~2x)",
              lambda r: f"{_ping(r, FQ_CODEL, 'sparse'):.1f} → "
              f"{_ping(r, AIRTIME, 'sparse'):.1f} ms",
              Quantity("FQ-CoDel/Airtime sparse", lambda r: _ratio(
                  _ping(r, FQ_CODEL, "sparse"), _ping(r, AIRTIME, "sparse")),
                  ">", 1)),
        Claim("Airtime: the 1 Mbps station, held to 1/29 of the air, pays "
              "with latency (median ping > 2x the fast stations')",
              lambda r: f"{_ping(r, AIRTIME, 'slow'):.0f} ms vs "
              f"{_ping(r, AIRTIME, 'fast'):.0f} ms",
              Quantity("slow/fast", lambda r: _ratio(
                  _ping(r, AIRTIME, "slow"), _ping(r, AIRTIME, "fast")),
                  ">", 2)),
    ))


def _voip_claims(delay: float) -> Tuple[Claim, ...]:
    def mos(r, scheme, qos="BE"):
        return r[(scheme, qos, delay)].voip.mos

    def mbps(r, scheme, qos="BE"):
        return r[(scheme, qos, delay)].total_throughput_mbps

    paper_vo = paper_data.TABLE2[("FIFO", "VO", delay)]
    paper_be = paper_data.TABLE2[("FIFO", "BE", delay)]
    paper_air = paper_data.TABLE2[("Airtime fair FQ", "BE", delay)]
    return (
        Claim(f"{delay:g} ms: FIFO needs the VO queue (paper: BE MOS "
              f"{paper_be.mos:.2f} vs VO {paper_vo.mos:.2f})",
              lambda r: f"BE {mos(r, FIFO):.2f} vs VO {mos(r, FIFO, 'VO'):.2f}",
              Quantity("VO − BE MOS", lambda r: mos(r, FIFO, "VO")
                       - mos(r, FIFO), ">", 1.0)),
        Claim(f"{delay:g} ms: FQ-MAC/Airtime best-effort voice ≈ VO voice on "
              "the stock kernel (paper's headline)",
              lambda r: f"FQ-MAC BE {mos(r, FQ_MAC):.2f}, Airtime BE "
              f"{mos(r, AIRTIME):.2f} vs FIFO VO {mos(r, FIFO, 'VO'):.2f}",
              *(Quantity(f"{name} BE − FIFO VO MOS", lambda r, s=s:
                         mos(r, s) - mos(r, FIFO, "VO"), ">=", -0.15)
                for s, name in ((FQ_MAC, "FQ-MAC"), (AIRTIME, "Airtime")))),
        Claim(f"{delay:g} ms: and at much higher total throughput (paper "
              f"{paper_vo.throughput_mbps:.0f} → "
              f"{paper_air.throughput_mbps:.0f} Mbps)",
              lambda r: f"FIFO VO {mbps(r, FIFO, 'VO'):.1f} → FQ-MAC BE "
              f"{mbps(r, FQ_MAC):.1f}, Airtime BE {mbps(r, AIRTIME):.1f} Mbps",
              Quantity("min BE / FIFO VO", lambda r: _ratio(
                  min(mbps(r, FQ_MAC), mbps(r, AIRTIME)),
                  mbps(r, FIFO, "VO")), ">", 1.5)),
    )


def _voip_body(run: Dict) -> str:
    paper = ", ".join(f"{k[0]}/{k[1]}/{k[2]:g}ms: MOS {v.mos:g}"
                      for k, v in list(paper_data.TABLE2.items())[:4])
    return f"{_table('table2')(run)}\n\n(paper, first rows: {paper} …)"


VOIP = Section(
    "Table 2 — VoIP MOS and throughput",
    _runs("table2", key=lambda r: (r.scheme, r.qos, r.base_delay_ms)),
    _voip_body, _voip_claims(5.0) + _voip_claims(50.0))


def _plt(run: Dict, scheme: Scheme, page: str) -> float:
    """Mean page-load time of ``page`` under ``scheme``."""
    result = run[(scheme, page)]
    if not result.plts_s:
        raise NoSamples(f"no {page}-page fetch completed under {scheme.value}")
    return result.mean_plt_s


def _web_claim(page: str) -> Claim:
    return Claim(
        f"{page} page: large FIFO → FQ-CoDel improvement, Airtime fastest",
        lambda r: " → ".join(f"{_plt(r, s, page):.2f}"
                             for s in (FIFO, FQ_CODEL, AIRTIME)) + " s",
        Quantity("FIFO/FQ-CoDel", lambda r: _ratio(
            _plt(r, FIFO, page), _plt(r, FQ_CODEL, page)), ">", 1),
        Quantity("Airtime/FQ-CoDel", lambda r: _ratio(
            _plt(r, AIRTIME, page), _plt(r, FQ_CODEL, page)), "<=", 1.25))


WEB = Section(
    "Figure 11 — web page-load times",
    _runs("fig11", key=lambda r: (r.scheme, r.page)), _table("fig11"), (
        _web_claim("small"), _web_claim("large"),
        Claim("FIFO's large page is dramatically slow (paper 35 s): above 3 s",
              lambda r: f"{_plt(r, FIFO, 'large'):.2f} s",
              Quantity("FIFO large s", lambda r: _plt(r, FIFO, "large"),
                       ">", 3.0)),
    ))


def _sampled(run: Dict, scheme: Scheme, series: str):
    """``scheme``'s result, provided ``series`` sampled a window (very
    short runs end before the first sampling window does)."""
    result = run[scheme]
    if not getattr(result, series):
        raise NoSamples(f"no {series} window completed under {scheme.value}")
    return result


def _sampled_both(series: str) -> Callable[[Dict], bool]:
    return lambda r: all(s in r and getattr(r[s], series)
                         for s in (AIRTIME, FIFO))


def _conserved(result) -> bool:
    return result.conservation is not None and result.conservation.ok


FAULT_TOLERANCE = Section(
    "Fault tolerance — impairment schedule (beyond the paper)",
    _runs("faults", strict=True), _table("faults"), (
        Claim("packet conservation holds under impairment for every scheme",
              lambda r: ", ".join(
                  f"{x.scheme.value}: {'ok' if _conserved(x) else 'VIOLATED'}"
                  for x in r.values()),
              Quantity("violations", lambda r: sum(
                  not _conserved(x) for x in r.values()), "<=", 0),
              applies=bool),
        Claim("airtime fairness degrades most gracefully under faults "
              "(worst-window Jain above FIFO's)",
              lambda r: f"FIFO {r[FIFO].min_jain():.3f} vs Airtime "
              f"{r[AIRTIME].min_jain():.3f}",
              Quantity("Airtime − FIFO", lambda r:
                       _sampled(r, AIRTIME, "jain_series").min_jain()
                       - _sampled(r, FIFO, "jain_series").min_jain(), ">", 0),
              applies=_sampled_both("jain_series")),
        Claim("worst-window ping latency stays well below FIFO's while "
              "impaired",
              lambda r: f"FIFO {r[FIFO].worst_rtt_ms():.0f} ms vs "
              f"Airtime {r[AIRTIME].worst_rtt_ms():.0f} ms",
              Quantity("FIFO − Airtime ms", lambda r:
                       _sampled(r, FIFO, "rtt_series").worst_rtt_ms()
                       - _sampled(r, AIRTIME, "rtt_series").worst_rtt_ms(),
                       ">", 0),
              applies=_sampled_both("rtt_series")),
    ))


SECTIONS: List[Section] = [
    TABLE1, LATENCY, WATERFALL, AIRTIME_UDP, JAIN, TCP_THROUGHPUT, SPARSE,
    SCALING, VOIP, WEB, FAULT_TOLERANCE,
]


def generate_report(
    duration_scale: float = 1.0,
    runner: Optional[Runner] = None,
    include_run_costs: bool = False,
    replications: int = 1,
) -> Tuple[str, List[str]]:
    """Run everything over seeds 1..``replications``; return the markdown
    report and the titles of the sections that could not be rendered.

    ``runner`` controls parallelism and caching (``None``: serial,
    in-process); only the wall-time footnotes vary with it.
    """
    parts = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Regenerated by `python -m repro.experiments.report` "
        f"(duration scale {duration_scale:g}). Absolute numbers come from "
        "the simulator substitute for the paper's testbed (see DESIGN.md "
        "§1/§3b); each section lists the *shape checks* — the qualitative "
        "claims the table/figure makes — and whether they reproduce.",
        "",
    ]
    failed: List[str] = []
    for section in SECTIONS:
        start = time.time()
        log.info("running %s ...", section.title)
        try:
            parts.append(section.render(duration_scale, runner, replications))
        except Exception as exc:
            # A failed run leaves holes a section may not tolerate; render
            # the gap as a note so the rest of the report still lands.
            log.error("section %s failed: %s", section.title, exc)
            failed.append(section.title)
            parts.append(
                f"## {section.title}\n\n"
                f"*Section could not be rendered ({type(exc).__name__}: "
                f"{exc}); see the failed-runs table below.*"
            )
        parts.append(f"\n*(section wall time: {time.time() - start:.0f}s)*\n")
    if runner is not None and runner.failures:
        parts.append(_failures_section(runner))
        parts.append("")
    if include_run_costs and runner is not None and runner.history:
        # Never emitted by default: its wall times differ run to run.
        table = run_cost_table(runner.history, mode=runner.execution_mode)
        parts.append(f"## Run cost (profiled)\n\n```\n{table}\n```\n")
    return "\n".join(parts), failed


def _failures_section(runner: Runner) -> str:
    """Markdown table of runs that produced no value (partial report)."""
    lines = [
        "## Failed runs", "",
        "These runs produced no value and were **not** cached; the tables "
        "above hold the surviving runs. A re-run retries them from "
        "scratch.", "",
        "| spec | phase | attempts | error |",
        "|---|---|---:|---|",
    ]
    for failure in runner.failures:
        error = failure.error.replace("|", "\\|")
        lines.append(
            f"| {failure.spec.label} | {failure.phase} "
            f"| {failure.attempts} | {error} |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration-scale", type=positive_float, default=1.0,
                        help="scale all experiment durations (0.2 = quick)")
    parser.add_argument("--replications", type=positive_int, default=1,
                        metavar="N",
                        help="run every section over seeds 1..N and judge "
                             "each claim on the 95%% t-interval of its "
                             "quantities (default 1: seed 1's values)")
    parser.add_argument("-o", "--output", default=None,
                        help="write the report to this file")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: $REPRO_JOBS or "
                             "the CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write .repro-cache/")
    parser.add_argument("--profile", action="store_true",
                        help="record per-run peak heap and append a "
                             "run-cost section to the report")
    parser.add_argument("--run-timeout", type=positive_float, default=None,
                        metavar="SECONDS",
                        help="kill any single run exceeding this wall time "
                             "(parallel runs only); it is retried once, "
                             "then reported in the failed-runs section")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more status output (repeat for debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less status output (warnings only)")
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    cache = None if args.no_cache else ResultCache()
    runner = Runner(jobs=jobs, cache=cache, profile=args.profile,
                    timeout_s=args.run_timeout)
    report, failed_sections = generate_report(
        args.duration_scale, runner=runner, include_run_costs=args.profile,
        replications=args.replications)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        log.info("wrote %s", args.output)
    else:
        print(report)
    if cache is not None and (cache.hits or cache.misses):
        log.info("[cache: %d hits, %d misses under %s/]",
                 cache.hits, cache.misses, cache.root)
    if runner.failures:
        log.warning("%d run(s) failed; the report holds partial results",
                    len(runner.failures))
    if failed_sections:
        log.warning("%d section(s) could not be rendered: %s",
                    len(failed_sections), ", ".join(failed_sections))
    return 3 if runner.failures or failed_sections else 0


if __name__ == "__main__":
    raise SystemExit(main())
