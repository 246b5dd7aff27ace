"""Generate a paper-vs-measured markdown report (EXPERIMENTS.md).

Runs every experiment, places the simulator's measurements next to the
paper's reported values (:mod:`repro.experiments.paper_data`), and
evaluates the *shape checks* — the qualitative claims each table/figure
makes — marking each as reproduced or not.

The independent simulation runs behind each section fan out through
:mod:`repro.runner`: ``--jobs N`` parallelises across worker processes
(default: all CPUs) and completed runs are cached under ``.repro-cache/``
so a re-run only simulates what changed.  Tables are bit-identical for
any worker count.

Usage::

    python -m repro.experiments.report [--duration-scale 1.0] [-o FILE]
        [--jobs N] [--no-cache]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.experiments import (
    airtime_udp,
    fairness_index,
    fault_tolerance,
    latency,
    scaling,
    sparse,
    table1,
    tcp_throughput,
    voip,
    web,
)
from repro.analysis.attribution import Attribution, format_waterfall
from repro.experiments import paper_data, registry
from repro.experiments.cli import positive_float
from repro.experiments.config import SLOW_STATION
from repro.mac.ap import Scheme
from repro.runner import ResultCache, Runner, default_jobs
from repro.telemetry import TelemetryConfig, configure_logging, get_logger

__all__ = ["generate_report", "main"]

log = get_logger("repro.report")


@dataclass
class ShapeCheck:
    """One qualitative claim and whether the measurement reproduces it."""

    claim: str
    passed: bool
    detail: str

    def row(self) -> str:
        mark = "✓" if self.passed else "✗"
        return f"| {mark} | {self.claim} | {self.detail} |"


def _window(experiment_id: str, scale: float) -> Dict[str, float]:
    """The registry row's paper-length window, scaled."""
    row = registry.BY_ID[experiment_id]
    return {"duration_s": row.duration_s * scale,
            "warmup_s": row.warmup_s * scale}


def _checks_table(checks: List[ShapeCheck]) -> str:
    lines = ["|  | claim (paper) | measured |", "|---|---|---|"]
    lines += [check.row() for check in checks]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Per-experiment sections
# ----------------------------------------------------------------------
def _section_table1(scale: float, runner: Optional[Runner] = None) -> str:
    result = table1.run(**_window("table1", scale), runner=runner)
    checks = [
        ShapeCheck(
            "FIFO: slow station takes ~79% of airtime",
            result.baseline_airtime_shares[2] > 0.6,
            f"{result.baseline_airtime_shares[2]:.0%}",
        ),
        ShapeCheck(
            "Airtime: equal 33% shares",
            all(abs(s - 1 / 3) < 0.05 for s in result.fair_airtime_shares),
            ", ".join(f"{s:.1%}" for s in result.fair_airtime_shares),
        ),
        ShapeCheck(
            "model positions within ~15% of simulator measurements (fair half)",
            all(
                abs(m - p.rate_mbps) / max(p.rate_mbps, 0.1) < 0.15
                for p, m in zip(result.fair_predictions, result.fair_measured_mbps)
            ),
            "predicted "
            + "/".join(f"{p.rate_mbps:.1f}" for p in result.fair_predictions)
            + " vs measured "
            + "/".join(f"{m:.1f}" for m in result.fair_measured_mbps),
        ),
        ShapeCheck(
            "total gain from fixing the anomaly is a multiple (paper ~4x measured)",
            sum(result.fair_measured_mbps) > 2.5 * sum(result.baseline_measured_mbps),
            f"{sum(result.fair_measured_mbps) / sum(result.baseline_measured_mbps):.1f}x",
        ),
    ]
    paper_rows = "paper baseline R(i): " + "/".join(
        f"{r.predicted_mbps:g}" for r in paper_data.TABLE1_BASELINE
    ) + " — paper fair R(i): " + "/".join(
        f"{r.predicted_mbps:g}" for r in paper_data.TABLE1_FAIR
    )
    return "\n".join([
        "## Table 1 — analytical model vs measured UDP throughput", "",
        "```", table1.format_table(result), "```", "",
        paper_rows, "", _checks_table(checks),
    ])


def _section_latency(scale: float, runner: Optional[Runner] = None) -> str:
    results = latency.run(**_window("fig04", scale), runner=runner)
    by_scheme = {r.scheme: r for r in results}
    fifo = by_scheme[Scheme.FIFO].fast_summary().median
    fq_mac = by_scheme[Scheme.FQ_MAC].fast_summary().median
    fq_codel_slow = by_scheme[Scheme.FQ_CODEL].slow_summary().median
    fq_mac_slow = by_scheme[Scheme.FQ_MAC].slow_summary().median
    checks = [
        ShapeCheck(
            "FIFO sits at several hundred ms (paper ~600 ms median)",
            fifo > 150,
            f"{fifo:.0f} ms median",
        ),
        ShapeCheck(
            "order-of-magnitude reduction FIFO → FQ-MAC",
            fifo > 5 * fq_mac,
            f"{fifo:.0f} ms → {fq_mac:.1f} ms ({fifo / fq_mac:.0f}x)",
        ),
        ShapeCheck(
            "slow station keeps large residual latency under FQ-CoDel, "
            "fixed by FQ-MAC (paper 215 ms → ~35 ms)",
            fq_codel_slow > 2 * fq_mac_slow,
            f"{fq_codel_slow:.0f} ms → {fq_mac_slow:.1f} ms",
        ),
    ]
    return "\n".join([
        "## Figures 1 and 4 — latency under load", "",
        "```", latency.format_table(results), "```", "",
        _checks_table(checks),
    ])


def _section_waterfall(scale: float, runner: Optional[Runner] = None) -> str:
    """Latency waterfall + airtime-ledger audit (observability layer).

    Re-runs the Figure 4 scenario traced with span reconstruction and
    shows *where* each scheme's latency lives — the per-layer
    attribution behind the paper's Figure 2 story.  The airtime ledger
    is audited on the Table-1 scenario (saturating UDP download), the
    traffic pattern eqs. (1)–(5) actually model.
    """
    telemetry = TelemetryConfig(
        trace=True,
        categories=("queue", "agg", "hw", "driver", "tx"),
        spans=True,
    )
    results = [r for r in latency.run(**_window("fig04", scale),
                                      runner=runner, telemetry=telemetry)
               if r is not None and r.telemetry is not None]
    attributions = {
        r.scheme: Attribution.from_dict(r.telemetry["spans"])
        for r in results
    }
    ledgered = [r for r in airtime_udp.run(**_window("fig05", scale),
                                           runner=runner,
                                           telemetry=TelemetryConfig(
                                               ledger=True))
                if r is not None and r.telemetry is not None]
    audits = {
        r.scheme: (r.telemetry.get("ledger") or {}).get("audit")
        for r in ledgered
    }

    # Segment *sums* telescope against the total sum over the same span
    # set (a zero-length segment is skipped, so segment means cover
    # fewer spans than the total mean and the two are not comparable).
    def _seg_sum(scheme: Scheme, station: int, segment: str) -> float:
        entry = attributions[scheme].stations.get(station)
        if entry is None or segment not in entry.segments:
            return 0.0
        return entry.segments[segment].total_us

    def _total_sum(scheme: Scheme, station: int) -> float:
        entry = attributions[scheme].stations.get(station)
        return entry.total.total_us if entry is not None else 0.0

    def _seg_mean(scheme: Scheme, station: int, segment: str) -> float:
        entry = attributions[scheme].stations.get(station)
        if entry is None or segment not in entry.segments:
            return 0.0
        return entry.segments[segment].mean_us

    fifo_fast_total = _total_sum(Scheme.FIFO, 0)
    fifo_fast_qdisc = _seg_sum(Scheme.FIFO, 0, "qdisc")
    codel_slow_driver = _seg_mean(Scheme.FQ_CODEL, SLOW_STATION, "driver")
    codel_fast_driver = _seg_mean(Scheme.FQ_CODEL, 0, "driver")
    fq_mac_has_driver = any(
        "driver" in entry.segments
        for entry in attributions[Scheme.FQ_MAC].stations.values()
    )
    checks = [
        ShapeCheck(
            "every span stitches: zero unmatched join records in all schemes",
            all(a.unmatched == 0 for a in attributions.values()),
            ", ".join(f"{s.value}: {a.unmatched}"
                      for s, a in attributions.items()),
        ),
        ShapeCheck(
            "FIFO's latency lives in the qdisc (the bloated FIFO, Fig. 2)",
            fifo_fast_total > 0
            and fifo_fast_qdisc > 0.8 * fifo_fast_total,
            f"qdisc holds {fifo_fast_qdisc / fifo_fast_total:.0%} of "
            "delivered latency" if fifo_fast_total > 0 else "no spans",
        ),
        ShapeCheck(
            "the unmanaged driver FIFO penalises the slow station "
            "rate-proportionally under FQ-CoDel; the integrated MAC has "
            "no driver stage at all",
            codel_slow_driver > 3 * codel_fast_driver > 0
            and not fq_mac_has_driver,
            f"driver wait {codel_slow_driver / 1e3:.1f} ms slow vs "
            f"{codel_fast_driver / 1e3:.1f} ms fast; FQ-MAC driver "
            f"segment {'present' if fq_mac_has_driver else 'absent'}",
        ),
        ShapeCheck(
            "airtime ledger audits against the §2.2.1 analytical model "
            "in every scheme",
            all(a is not None and a.get("ok") for a in audits.values()),
            ", ".join(
                f"{s.value}: "
                f"{'ok' if a and a.get('ok') else 'FAILED'}"
                f" (Δ{a['worst_delta']:.3f})" if a else f"{s.value}: missing"
                for s, a in audits.items()
            ),
        ),
    ]
    waterfalls = "\n\n".join(
        format_waterfall(attributions[r.scheme], title=r.scheme.value)
        for r in results
    )
    return "\n".join([
        "## Latency waterfall and airtime ledger (beyond the paper)", "",
        "```", waterfalls, "```", "",
        _checks_table(checks),
    ])


def _section_airtime_udp(scale: float, runner: Optional[Runner] = None) -> str:
    results = airtime_udp.run(**_window("fig05", scale), runner=runner)
    by_scheme = {r.scheme: r for r in results}
    checks = [
        ShapeCheck(
            "FIFO/FQ-CoDel: slow station ~80% of airtime",
            by_scheme[Scheme.FIFO].airtime_shares[2] > 0.6
            and by_scheme[Scheme.FQ_CODEL].airtime_shares[2] > 0.6,
            f"{by_scheme[Scheme.FIFO].airtime_shares[2]:.0%} / "
            f"{by_scheme[Scheme.FQ_CODEL].airtime_shares[2]:.0%}",
        ),
        ShapeCheck(
            "FQ-MAC improves aggregation and moves shares toward the "
            "Tdata ratio, but is not airtime-fair",
            0.38 < by_scheme[Scheme.FQ_MAC].airtime_shares[2] < 0.6,
            f"slow share {by_scheme[Scheme.FQ_MAC].airtime_shares[2]:.0%}",
        ),
        ShapeCheck(
            "Airtime scheduler: exactly equal shares",
            all(abs(s - 1 / 3) < 0.03
                for s in by_scheme[Scheme.AIRTIME].airtime_shares.values()),
            ", ".join(f"{s:.1%}"
                      for s in by_scheme[Scheme.AIRTIME].airtime_shares.values()),
        ),
    ]
    return "\n".join([
        "## Figure 5 — airtime shares, one-way UDP", "",
        "```", airtime_udp.format_table(results), "```", "",
        _checks_table(checks),
    ])


def _section_jain(scale: float, runner: Optional[Runner] = None) -> str:
    results = fairness_index.run(**_window("fig06", scale), runner=runner)
    by_scheme = {r.scheme: r for r in results}
    airtime = by_scheme[Scheme.AIRTIME]
    checks = [
        ShapeCheck(
            "Airtime: near-perfect index for unidirectional traffic",
            airtime.jain["udp"] > 0.98 and airtime.jain["tcp_download"] > 0.9,
            f"udp {airtime.jain['udp']:.3f}, tcp {airtime.jain['tcp_download']:.3f}",
        ),
        ShapeCheck(
            "Airtime: slight dip for bidirectional traffic (indirect "
            "uplink control)",
            airtime.jain["tcp_bidir"] < airtime.jain["udp"]
            and airtime.jain["tcp_bidir"] > 0.8,
            f"bidir {airtime.jain['tcp_bidir']:.3f}",
        ),
        ShapeCheck(
            "FIFO far from fair for UDP",
            by_scheme[Scheme.FIFO].jain["udp"] < 0.7,
            f"{by_scheme[Scheme.FIFO].jain['udp']:.3f}",
        ),
    ]
    return "\n".join([
        "## Figure 6 — Jain's fairness index of airtime", "",
        "```", fairness_index.format_table(results), "```", "",
        _checks_table(checks),
    ])


def _section_tcp_throughput(scale: float, runner: Optional[Runner] = None) -> str:
    results = tcp_throughput.run(**_window("fig07", scale), runner=runner)
    by_scheme = {r.scheme: r for r in results}
    fifo = by_scheme[Scheme.FIFO]
    airtime = by_scheme[Scheme.AIRTIME]
    checks = [
        ShapeCheck(
            "fast stations gain as fairness goes up (paper ~10 → ~36 Mbps)",
            airtime.download_mbps[0] > 2 * fifo.download_mbps[0],
            f"{fifo.download_mbps[0]:.1f} → {airtime.download_mbps[0]:.1f} Mbps",
        ),
        ShapeCheck(
            "slow station loses some throughput",
            airtime.download_mbps[2] < fifo.download_mbps[2],
            f"{fifo.download_mbps[2]:.1f} → {airtime.download_mbps[2]:.1f} Mbps",
        ),
        ShapeCheck(
            "net total increase",
            airtime.total_mbps > 1.5 * fifo.total_mbps,
            f"{fifo.total_mbps:.1f} → {airtime.total_mbps:.1f} Mbps "
            f"({airtime.total_mbps / fifo.total_mbps:.1f}x)",
        ),
    ]
    return "\n".join([
        "## Figure 7 — TCP download throughput", "",
        "```", tcp_throughput.format_table(results), "```", "",
        _checks_table(checks),
    ])


def _section_sparse(scale: float, runner: Optional[Runner] = None) -> str:
    results = sparse.run(**_window("fig08", scale), runner=runner)
    by_key = {(r.bulk_traffic, r.sparse_enabled): r for r in results}
    gains = {}
    for bulk in ("udp", "tcp"):
        on = by_key[(bulk, True)].summary().median
        off = by_key[(bulk, False)].summary().median
        gains[bulk] = 1 - on / off
    checks = [
        ShapeCheck(
            "small but consistent median improvement with the "
            "optimisation (paper 10–15%)",
            all(g > 0 for g in gains.values()),
            ", ".join(f"{b}: {g:.0%}" for b, g in gains.items()),
        ),
    ]
    return "\n".join([
        "## Figure 8 — the sparse-station optimisation", "",
        "```", sparse.format_table(results), "```", "",
        _checks_table(checks),
    ])


def _section_scaling(scale: float, runner: Optional[Runner] = None) -> str:
    results = scaling.run(**_window("fig09", scale), runner=runner)
    by_scheme = {r.scheme: r for r in results}
    fq_codel = by_scheme[Scheme.FQ_CODEL]
    airtime = by_scheme[Scheme.AIRTIME]
    gain = airtime.total_mbps / fq_codel.total_mbps
    checks = [
        ShapeCheck(
            "slow 1 Mbps station grabs a dominant share under FQ-CoDel "
            "(paper ~2/3)",
            fq_codel.slow_share > 0.3,
            f"{fq_codel.slow_share:.0%}",
        ),
        ShapeCheck(
            "airtime scheduler: fully fair sharing across 29 stations",
            airtime.slow_share < 0.08
            and max(airtime.airtime_shares.values()) < 0.08,
            f"slow {airtime.slow_share:.1%}, max fast "
            f"{max(airtime.airtime_shares.values()):.1%} (fair = 3.4%)",
        ),
        ShapeCheck(
            "total throughput multiplies (paper 5.4x)",
            gain > 2,
            f"{fq_codel.total_mbps:.1f} → {airtime.total_mbps:.1f} Mbps "
            f"({gain:.1f}x)",
        ),
        ShapeCheck(
            "sparse station's ping improves further at 30 stations "
            "(paper ~2x)",
            airtime.summaries()["sparse"].median
            < fq_codel.summaries()["sparse"].median,
            f"{fq_codel.summaries()['sparse'].median:.1f} → "
            f"{airtime.summaries()['sparse'].median:.1f} ms",
        ),
    ]
    return "\n".join([
        "## Figures 9–10 and §4.1.5 — scaling to 30 stations", "",
        "```", scaling.format_table(results), "```", "",
        _checks_table(checks),
    ])


def _section_voip(scale: float, runner: Optional[Runner] = None) -> str:
    results = voip.run(**_window("table2", scale), runner=runner)
    by_key = {(r.scheme, r.qos, r.base_delay_ms): r for r in results}
    checks = []
    fifo_be = by_key[(Scheme.FIFO, "BE", 5.0)]
    fifo_vo = by_key[(Scheme.FIFO, "VO", 5.0)]
    fq_be = by_key[(Scheme.FQ_MAC, "BE", 5.0)]
    air_be = by_key[(Scheme.AIRTIME, "BE", 5.0)]
    checks.append(ShapeCheck(
        "FIFO needs the VO queue (paper: BE MOS 1.00 vs VO 4.17)",
        fifo_be.voip.mos < fifo_vo.voip.mos - 1.0,
        f"BE {fifo_be.voip.mos:.2f} vs VO {fifo_vo.voip.mos:.2f}",
    ))
    checks.append(ShapeCheck(
        "FQ-MAC/Airtime: best-effort voice ≈ VO voice on the stock "
        "kernel (paper's headline)",
        fq_be.voip.mos >= fifo_vo.voip.mos - 0.15
        and air_be.voip.mos >= fifo_vo.voip.mos - 0.15,
        f"FQ-MAC BE {fq_be.voip.mos:.2f}, Airtime BE {air_be.voip.mos:.2f} "
        f"vs FIFO VO {fifo_vo.voip.mos:.2f}",
    ))
    checks.append(ShapeCheck(
        "and at much higher total throughput (paper 28 → 57 Mbps)",
        air_be.total_throughput_mbps > 1.5 * fifo_vo.total_throughput_mbps,
        f"{fifo_vo.total_throughput_mbps:.1f} → "
        f"{air_be.total_throughput_mbps:.1f} Mbps",
    ))
    paper = ", ".join(
        f"{k[0]}/{k[1]}/{k[2]:g}ms: MOS {v.mos:g}"
        for k, v in list(paper_data.TABLE2.items())[:4]
    )
    return "\n".join([
        "## Table 2 — VoIP MOS and throughput", "",
        "```", voip.format_table(results), "```", "",
        f"(paper, first rows: {paper} …)", "", _checks_table(checks),
    ])


def _section_web(scale: float, runner: Optional[Runner] = None) -> str:
    results = web.run(**_window("fig11", scale), runner=runner)
    by_key = {(r.scheme, r.page): r for r in results}
    checks = []
    for page in ("small", "large"):
        fifo = by_key[(Scheme.FIFO, page)].mean_plt_s
        fq_codel = by_key[(Scheme.FQ_CODEL, page)].mean_plt_s
        airtime = by_key[(Scheme.AIRTIME, page)].mean_plt_s
        checks.append(ShapeCheck(
            f"{page} page: large FIFO → FQ-CoDel improvement, Airtime fastest",
            fq_codel < fifo and airtime <= fq_codel * 1.25,
            f"{fifo:.2f} → {fq_codel:.2f} → {airtime:.2f} s",
        ))
    return "\n".join([
        "## Figure 11 — web page-load times", "",
        "```", web.format_table(results), "```", "",
        _checks_table(checks),
    ])


def _section_fault_tolerance(scale: float,
                             runner: Optional[Runner] = None) -> str:
    results = fault_tolerance.run(**_window("faults", scale),
                                  runner=runner, strict=True)
    usable = [r for r in results if r is not None]
    by_scheme = {r.scheme: r for r in usable}
    checks = []
    if usable:
        checks.append(ShapeCheck(
            "packet conservation holds under impairment for every scheme",
            all(r.conservation is not None and r.conservation.ok
                for r in usable),
            ", ".join(
                f"{r.scheme.value}: "
                f"{'ok' if r.conservation and r.conservation.ok else 'VIOLATED'}"
                for r in usable
            ),
        ))
    if Scheme.AIRTIME in by_scheme and Scheme.FIFO in by_scheme:
        air = by_scheme[Scheme.AIRTIME]
        fifo = by_scheme[Scheme.FIFO]
        # The comparative checks need actual sample windows; very short
        # smoke runs (duration below the sampling window) have none.
        if air.jain_series and fifo.jain_series:
            checks.append(ShapeCheck(
                "airtime fairness degrades most gracefully under faults "
                "(worst-window Jain above FIFO's)",
                air.min_jain() > fifo.min_jain(),
                f"FIFO {fifo.min_jain():.3f} vs Airtime {air.min_jain():.3f}",
            ))
        if air.rtt_series and fifo.rtt_series:
            checks.append(ShapeCheck(
                "worst-window ping latency stays well below FIFO's "
                "while impaired",
                air.worst_rtt_ms() < fifo.worst_rtt_ms(),
                f"FIFO {fifo.worst_rtt_ms():.0f} ms vs "
                f"Airtime {air.worst_rtt_ms():.0f} ms",
            ))
    return "\n".join([
        "## Fault tolerance — impairment schedule (beyond the paper)", "",
        "```", fault_tolerance.format_table(results), "```", "",
        _checks_table(checks),
    ])


SECTIONS: List[Callable[[float, Optional[Runner]], str]] = [
    _section_table1,
    _section_latency,
    _section_waterfall,
    _section_airtime_udp,
    _section_jain,
    _section_tcp_throughput,
    _section_sparse,
    _section_scaling,
    _section_voip,
    _section_web,
    _section_fault_tolerance,
]


def _run_cost_section(runner: Runner) -> str:
    """Markdown run-cost table from the runner's history (``--profile``).

    Never emitted by default: its wall times differ run to run, and the
    CI smoke job diffs serial vs parallel reports line for line.
    """
    lines = [
        "## Run cost (profiled)", "",
        f"Execution mode: {runner.execution_mode} "
        f"(requested jobs: {runner.requested_jobs}).", "",
        "| spec | wall s | sim s | post s | events | ev/s "
        "| peak heap | cached |",
        "|---|---:|---:|---:|---:|---:|---:|---|",
    ]
    for result in runner.history:
        m = result.metrics
        heap = f"{m.peak_heap_bytes / 1e6:.1f} MB" if m.peak_heap_bytes else "—"
        lines.append(
            f"| {result.spec.label} | {m.wall_s:.2f} | {m.sim_wall_s:.2f} "
            f"| {m.finalize_s:.2f} | {m.events} "
            f"| {m.events_per_sec:.0f} | {heap} "
            f"| {'yes' if m.cached else 'no'} |"
        )
    return "\n".join(lines)


def generate_report(
    duration_scale: float = 1.0,
    runner: Optional[Runner] = None,
    include_run_costs: bool = False,
) -> str:
    """Run everything and return the full markdown report.

    ``runner`` controls parallelism and caching; ``None`` preserves the
    historical serial in-process behaviour.  Section tables are identical
    for any worker count (runs are deterministic and collected in
    submission order); only the wall-time footnotes vary.
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
    for section in SECTIONS:
        name = section.__name__.lstrip("_")
        start = time.time()
        log.info("running %s ...", name)
        try:
            parts.append(section(duration_scale, runner))
        except Exception as exc:
            # A failed run leaves holes a section may not tolerate; render
            # the gap as a note so the rest of the report still lands.
            log.error("section %s failed: %s", name, exc)
            parts.append(
                f"## {name}\n\n"
                f"*Section could not be rendered ({type(exc).__name__}: "
                f"{exc}); see the failed-runs table below.*"
            )
        parts.append(f"\n*(section wall time: {time.time() - start:.0f}s)*\n")
    if runner is not None and runner.failures:
        parts.append(_failures_section(runner))
        parts.append("")
    if include_run_costs and runner is not None and runner.history:
        parts.append(_run_cost_section(runner))
        parts.append("")
    return "\n".join(parts)


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
    parser.add_argument("--run-timeout", type=float, default=None,
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
                    timeout_s=args.run_timeout, auto_serial=True)
    report = generate_report(args.duration_scale, runner=runner,
                             include_run_costs=args.profile)
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
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
