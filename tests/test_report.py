"""Tests for the paper-data constants and the report generator plumbing."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import paper_data, report, scaling, web
from repro.experiments.latency import LatencyResult
from repro.experiments.report import Section
from repro.mac.ap import Scheme
from repro.validation.verdict import Claim, Quantity, Reading

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestPaperData:
    def test_table1_baseline_shares_sum_to_one(self):
        assert sum(r.airtime_share for r in paper_data.TABLE1_BASELINE) == (
            pytest.approx(1.0, abs=0.01)
        )

    def test_table1_fair_shares_are_thirds(self):
        for row in paper_data.TABLE1_FAIR:
            assert row.airtime_share == pytest.approx(1 / 3)

    def test_table1_totals_match_paper_text(self):
        base_total = sum(r.predicted_mbps for r in paper_data.TABLE1_BASELINE)
        fair_total = sum(r.predicted_mbps for r in paper_data.TABLE1_FAIR)
        assert base_total == pytest.approx(26.2, abs=0.3)
        assert fair_total == pytest.approx(86.7, abs=0.3)

    def test_table2_has_all_16_cells(self):
        assert len(paper_data.TABLE2) == 16
        schemes = {k[0] for k in paper_data.TABLE2}
        assert schemes == {"FIFO", "FQ-CoDel", "FQ-MAC", "Airtime fair FQ"}

    def test_table2_headline_holds_in_paper_numbers(self):
        """Sanity: the paper's own numbers support its claim that FQ-MAC
        BE beats FIFO VO."""
        fq_mac_be = paper_data.TABLE2[("FQ-MAC", "BE", 5.0)]
        fifo_vo = paper_data.TABLE2[("FIFO", "VO", 5.0)]
        assert fq_mac_be.mos > fifo_vo.mos

    def test_headlines_present(self):
        assert paper_data.FIGURE_HEADLINES["fig9_throughput_gain"] == 5.4


def _latency_run(**rtts_ms):
    """A Figure 4 run keyed by scheme: ``FIFO=(fast, slow)`` ping lists."""
    run = {}
    for scheme in Scheme:
        fast, slow = rtts_ms.get(scheme.name, ([10.0], [20.0]))
        run[scheme] = LatencyResult(scheme, False, {0: fast, 1: [], 2: slow})
    return run


def _constant_section(*claims: Claim, values=(42,)) -> Section:
    """A section whose run for seed k is ``values[k - 1]``."""
    return Section("T", lambda scale, runner, seed: values[seed - 1],
                   lambda run: f"table of {run}", claims)


class TestShapeChecks:
    def test_check_rendering(self):
        table = _constant_section(
            Claim("claim A", str, Quantity("x", lambda r: r, ">", 0)),
            Claim("claim B", str, Quantity("x", lambda r: r, "<", 0)),
        ).render(1.0)
        assert table.splitlines()[:3] == ["## T", "", "table of 42"]
        assert "| ✓ | claim A | 42 |" in table
        assert "| ✗ | claim B | 42 |" in table

    def test_claim_on_missing_samples_fails_with_what_is_missing(self):
        """The first quantity the claim reads with no samples names it."""
        claim = report.LATENCY.claims[3]  # FQ-CoDel slow vs FQ-MAC slow
        run = _latency_run(FQ_CODEL=([10.0], [80.0]), FQ_MAC=([10.0], []))
        verdict = claim.judge([run])
        assert (verdict.passed, verdict.detail) == (
            False, "no slow-station ping completed under FQ-MAC")
        assert verdict.readings == ()
        # A seed that completed no ping fails the claim at any N.
        full = _latency_run(FQ_CODEL=([10.0], [80.0]), FQ_MAC=([9.0], [9.0]))
        assert claim.judge([full, run]).passed is False

    def test_claim_with_all_samples_is_unchanged(self):
        """At one seed the verdict and the cell are the point values'."""
        claim = report.LATENCY.claims[1]  # FIFO → FQ-MAC, > 5x
        run = _latency_run(FIFO=([106.2], [200.0]), FQ_MAC=([15.9], [16.0]))
        verdict = claim.judge([run])
        assert (verdict.passed, verdict.detail) == (
            True, "106 ms → 15.9 ms (7x)")
        assert verdict.value("FIFO/FQ-MAC") == pytest.approx(106.2 / 15.9)
        run = _latency_run(FIFO=([60.0], [200.0]), FQ_MAC=([15.0], [16.0]))
        verdict = claim.judge([run])
        assert (verdict.passed, verdict.detail) == (
            False, "60 ms → 15.0 ms (4x)")
        assert verdict.row() == "| ✗ | order-of-magnitude reduction FIFO → " \
                                "FQ-MAC | 60 ms → 15.0 ms (4x) |"


class TestReplications:
    """At N >= 2 a claim holds only if each quantity's 95% t-interval
    over the seeds lies on its passing side."""

    def test_the_interval_must_clear_the_threshold(self):
        claim = Claim("c", lambda r: "seed 1", Quantity("x", float, ">", 1))
        verdict = claim.judge([1.5])
        assert (verdict.passed, verdict.detail) == (True, "seed 1")
        assert verdict.readings == (Reading("x", 1.5, 0.0),)
        # Mean 2, half-width t(0.975, 1) * 0.5 = 6.35: straddles 1.
        verdict = claim.judge([1.5, 2.5])
        assert not verdict.passed
        assert verdict.detail == "seed 1; n=2: x 2 ± 6.35"
        assert verdict.value("x") == 2.0
        assert verdict.readings[0].half_width == pytest.approx(6.353, abs=1e-3)
        verdict = claim.judge([2.0, 2.0, 2.0])
        assert (verdict.passed, verdict.detail) == (
            True, "seed 1; n=3: x 2 ± 0")

    @pytest.mark.parametrize("side, passes", [
        (">", False), (">=", True), ("<", False), ("<=", True)])
    def test_a_zero_width_interval_on_the_threshold(self, side, passes):
        claim = Claim("c", str, Quantity("x", float, side, 3.0))
        assert claim.judge([3.0, 3.0]).passed is passes

    def test_upper_bounds_read_the_top_of_the_interval(self):
        claim = Claim("c", str, Quantity("x", float, "<", 10.0))
        assert claim.judge([9.0, 9.5]).passed is False      # 9.25 ± 3.18
        assert claim.judge([9.0, 9.0001, 9.0]).passed is True

    def test_a_quantity_bounded_twice_is_shown_once(self):
        claim = Claim("c", str, Quantity("share", float, ">", 0.38),
                      Quantity("share", float, "<", 0.6))
        verdict = claim.judge([0.5, 0.5])
        assert verdict.passed
        assert verdict.detail.endswith("; n=2: share 0.5 ± 0")
        assert verdict.readings == (Reading("share", 0.5, 0.0),)
        assert not claim.judge([0.7, 0.7]).passed

    def test_every_section_runs_seeds_one_to_n(self, monkeypatch):
        asked = []

        def run(scale, runner, seed):
            asked.append(seed)
            return 10 * seed

        section = Section("S", run, lambda r: f"body {r}", (
            Claim("c", lambda r: f"seed-1 {r}", Quantity("v", float, ">", 0)),
        ))
        monkeypatch.setattr(report, "SECTIONS", [section])
        text, failed = report.generate_report(replications=3)
        assert asked == [1, 2, 3] and failed == []
        assert "body 10" in text
        assert "| ✗ | c | seed-1 10; n=3: v 20 ± 24.8 |" in text

    def test_claims_left_out_on_seed_1_stay_out(self):
        section = _constant_section(
            Claim("kept", str, Quantity("x", float, ">", 0)),
            Claim("dropped", str, Quantity("x", float, ">", 0),
                  applies=lambda run: run > 100),
            values=(1, 200))
        table = section.render(1.0, replications=2)
        assert "kept" in table and "dropped" not in table


class TestEmptyResultsRender:
    """A result with no samples renders as a dash, never as ``nan``."""

    def test_web_table(self):
        table = web.format_table([
            web.WebResult(Scheme.FIFO, "large", True, []),
            web.WebResult(Scheme.AIRTIME, "large", True, [1.5]),
        ])
        assert "nan" not in table
        fifo_row, airtime_row = table.splitlines()[-2:]
        assert "—" in fifo_row and "1.50" in airtime_row

    def test_scaling_table(self):
        fast_shares = {i: 1 / 29 for i in scaling.FAST}
        result = scaling.ScalingResult(
            scheme=Scheme.AIRTIME,
            airtime_shares={scaling.SLOW: 1 / 29, **fast_shares},
            throughput_mbps={i: 1.0 for i in scaling.FAST},
            slow_rtts_ms=[], fast_rtts_ms=[20.0], sparse_rtts_ms=[],
        )
        table = scaling.format_table([result])
        assert "nan" not in table
        row = table.splitlines()[-1]
        assert row.count("—") == 2 and "20.0" in row


class TestExitCodes:
    def test_a_section_that_cannot_render_exits_3(self, monkeypatch,
                                                  tmp_path):
        """A crashing claim used to leave a note in the report and exit 0."""
        def broken(scale, runner, seed):
            raise KeyError("fifo")

        fine = Section("fine", lambda scale, runner, seed: None,
                       lambda run: "", ())
        monkeypatch.setattr(report, "SECTIONS",
                            [fine, Section("broken", broken, str, ())])
        out = tmp_path / "report.md"
        argv = ["--no-cache", "--jobs", "1", "-o", str(out)]
        assert report.main(argv) == 3
        text = out.read_text()
        assert "## fine" in text and "Section could not be rendered" in text

        monkeypatch.setattr(report, "SECTIONS", [fine])
        assert report.main(argv) == 0


class TestFailureSection:
    def test_failures_section_renders_and_escapes(self):
        from repro.experiments.report import _failures_section
        from repro.runner import FailedResult, RunSpec, Runner
        from repro.runner.executor import RunMetrics, RunResult

        runner = Runner(jobs=1, cache=None)
        spec = RunSpec.make("m:f", label="latency/FIFO", x=1)
        failure = FailedResult(spec=spec, phase="timeout",
                               error="exceeded | budget", attempts=2)
        runner.history.append(
            RunResult(spec, None, RunMetrics(0.0, 0), error=failure)
        )
        text = _failures_section(runner)
        assert "latency/FIFO" in text
        assert "timeout" in text
        assert "exceeded \\| budget" in text  # pipes escaped for markdown


def _report(out: Path, cache: Path, *argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.report",
         "--duration-scale", "0.005", "-o", str(out), *argv],
        cwd=REPO_ROOT, env=env, stderr=subprocess.PIPE, text=True,
        start_new_session=True)


def _without_wall_times(path: Path) -> str:
    return "".join(line for line in path.read_text().splitlines(True)
                   if "section wall time" not in line)


class TestResume:
    def test_a_killed_report_resumes_from_the_cache(self, tmp_path):
        """SIGKILL a parallel report once its first run is cached: the
        rerun takes what was cached and writes the uninterrupted bytes."""
        cache = tmp_path / "cache"
        killed = _report(tmp_path / "killed.md", cache, "--jobs", "2")
        try:
            deadline = time.monotonic() + 120.0
            while not list(cache.glob("*.pkl")):
                assert killed.poll() is None, "report ended before the kill"
                assert time.monotonic() < deadline, "no run was ever cached"
                time.sleep(0.01)
            os.killpg(killed.pid, signal.SIGKILL)
        finally:
            killed.communicate(timeout=60)
        assert killed.returncode == -signal.SIGKILL
        assert not (tmp_path / "killed.md").exists()

        resumed = _report(tmp_path / "resumed.md", cache, "--jobs", "2")
        _, err = resumed.communicate(timeout=600)
        assert resumed.returncode == 0, err
        hits = re.search(r"\[cache: (\d+) hits", err)
        assert hits and int(hits.group(1)) >= 1, err

        fresh = _report(tmp_path / "fresh.md", tmp_path / "unused",
                        "--jobs", "1", "--no-cache")
        _, err = fresh.communicate(timeout=600)
        assert fresh.returncode == 0, err
        assert (_without_wall_times(tmp_path / "resumed.md")
                == _without_wall_times(tmp_path / "fresh.md"))
