"""Tests for the model cross-validation matrix."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments import validate_cli
from repro.model.analytical import StationModel, predict
from repro.phy.rates import mcs
from repro.validation import matrix
from repro.validation.matrix import (
    GATE,
    CellMetrics,
    CellSpec,
    WAIVED_CELLS,
    cell_runspec,
    default_grid,
    judge_cell,
    pass_fraction,
    run_cell,
    run_matrix,
    smoke_grid,
)
from repro.validation.verdict import Reading, Verdict


def _model_perfect_metrics(spec: CellSpec,
                           agg: float = 16.0) -> CellMetrics:
    """Metrics that agree with the analytical model exactly."""
    indices = spec.mcs_indices()
    models = [StationModel(agg, spec.payload_bytes, mcs(i), str(n))
              for n, i in enumerate(indices)]
    predictions = predict(models, airtime_fairness=True)
    return CellMetrics(
        mcs_indices=indices,
        scheme_name="AIRTIME",
        throughput_mbps={n: p.rate_mbps
                         for n, p in enumerate(predictions)},
        airtime_shares={n: p.airtime_share
                        for n, p in enumerate(predictions)},
        mean_aggregation={n: agg for n in range(len(indices))},
        jain_airtime=1.0,
        window_us=spec.duration_s * 1e6,
        conservation_balance=0,
    )


class TestGrids:
    def test_default_grid_covers_all_axes(self):
        cells = default_grid()
        assert len(cells) == 4 * 3 * 2 * 2
        names = [c.name for c in cells]
        assert len(set(names)) == len(names)

    def test_smoke_grid_is_a_subset_of_the_axes(self):
        for cell in smoke_grid():
            assert cell.mix in ("all_fast", "fast_slow", "ladder")
            assert cell.max_subframes in (64, 8)
            assert cell.payload_bytes in (1500, 300)

    def test_cell_name_encodes_all_axes(self):
        spec = CellSpec(5, "ladder", 8, 300)
        assert spec.name == "n5-ladder-agg8-p300"

    def test_mix_produces_requested_station_count(self):
        for mix in ("all_fast", "fast_slow", "ladder"):
            assert len(CellSpec(5, mix, 64, 1500).mcs_indices()) == 5

    def test_every_waived_cell_is_in_the_default_grid(self):
        names = {c.name for c in default_grid()}
        for waived in WAIVED_CELLS:
            assert waived in names

    def test_runspec_digest_is_stable_per_cell(self):
        indices = CellSpec(3, "fast_slow", 64, 1500).mcs_indices()
        assert (cell_runspec("a", indices, max_subframes=64).digest()
                == cell_runspec("b", list(indices), max_subframes=64).digest())
        assert (cell_runspec("a", indices, max_subframes=64).digest()
                != cell_runspec("a", indices, max_subframes=8).digest())


class TestEvaluateCell:
    def test_model_perfect_metrics_pass(self):
        spec = CellSpec(3, "fast_slow", 64, 1500)
        verdict = judge_cell(spec, _model_perfect_metrics(spec))
        assert verdict.passed
        assert verdict.value("max share error") < 1e-9
        assert verdict.value("max rate error") < 1e-9

    def test_share_deviation_fails_the_cell(self):
        spec = CellSpec(3, "all_fast", 64, 1500)
        metrics = _model_perfect_metrics(spec)
        shares = dict(metrics.airtime_shares)
        shares[0] += 0.10
        shares[1] -= 0.10
        verdict = judge_cell(spec, replace(metrics, airtime_shares=shares))
        assert not verdict.passed
        assert verdict.value("max share error") == pytest.approx(0.10)
        assert "share err 0.100" in verdict.detail

    def test_share_band_edges(self):
        spec = CellSpec(2, "all_fast", 64, 1500)
        metrics = _model_perfect_metrics(spec)
        for delta, passes in ((0.049, True), (0.051, False)):
            shares = {0: 0.5 + delta, 1: 0.5 - delta}
            verdict = judge_cell(spec, replace(metrics, airtime_shares=shares))
            assert verdict.passed is passes, delta

    def test_rate_deviation_fails_the_cell(self):
        spec = CellSpec(3, "all_fast", 64, 1500)
        metrics = _model_perfect_metrics(spec)
        slow = {i: v * 0.85 for i, v in metrics.throughput_mbps.items()}
        verdict = judge_cell(spec, replace(metrics, throughput_mbps=slow))
        assert not verdict.passed
        assert verdict.value("max rate error") == pytest.approx(0.15)
        assert "rate err 15.0%" in verdict.detail

    def test_conservation_imbalance_fails_the_cell(self):
        spec = CellSpec(3, "all_fast", 64, 1500)
        metrics = _model_perfect_metrics(spec)
        verdict = judge_cell(spec, replace(metrics, conservation_balance=-7))
        assert not verdict.passed
        assert verdict.value("|conservation balance|") == 7

    def test_stall_fails_the_cell(self):
        spec = CellSpec(3, "all_fast", 64, 1500)
        metrics = _model_perfect_metrics(spec)
        verdict = judge_cell(spec, replace(metrics, stall_violations=1))
        assert not verdict.passed
        assert verdict.value("stall violations") == 1

    def test_a_silent_station_fails_the_cell(self):
        spec = CellSpec(3, "all_fast", 64, 1500)
        metrics = _model_perfect_metrics(spec)
        aggregation = dict(metrics.mean_aggregation)
        aggregation[1] = 0.0
        verdict = judge_cell(spec,
                             replace(metrics, mean_aggregation=aggregation))
        assert not verdict.passed
        assert verdict.detail == "station 1 never transmitted"

    def test_failed_run_scores_as_failure(self):
        spec = CellSpec(3, "all_fast", 64, 1500)
        verdict = judge_cell(spec, None)
        assert not verdict.passed
        assert verdict.detail == "run failed"
        assert verdict.readings == ()

    def test_waived_cell_is_marked(self):
        spec = CellSpec(2, "fast_slow", 64, 1500)
        assert spec.name in WAIVED_CELLS
        verdict = judge_cell(spec, None)
        assert verdict.text == spec.name
        assert verdict.detail.endswith(f"waived: {WAIVED_CELLS[spec.name]}")


class TestGate:
    def _verdict(self, spec, passed):
        metrics = _model_perfect_metrics(spec) if passed else None
        verdict = judge_cell(spec, metrics)
        assert verdict.passed == passed
        return verdict

    def test_waived_cells_do_not_gate(self):
        passing = self._verdict(CellSpec(3, "all_fast", 64, 1500), True)
        waived = self._verdict(CellSpec(2, "fast_slow", 64, 1500), False)
        assert pass_fraction([passing, waived]) == 1.0 >= GATE

    def test_gated_failure_lowers_the_fraction(self):
        passing = self._verdict(CellSpec(3, "all_fast", 64, 1500), True)
        failing = self._verdict(CellSpec(5, "all_fast", 64, 1500), False)
        assert pass_fraction([passing, failing]) == 0.5 < GATE

    def test_an_empty_gate_conforms(self):
        assert pass_fraction([]) == 1.0

    def test_json_report_round_trips(self, tmp_path, monkeypatch):
        """``validate matrix --report`` writes every verdict with its
        readings, and reading the file back gives the same verdicts."""
        passing = CellSpec(3, "all_fast", 64, 1500)
        verdicts = [judge_cell(passing, _model_perfect_metrics(passing)),
                    judge_cell(CellSpec(2, "fast_slow", 64, 1500), None)]
        monkeypatch.setattr(matrix, "run_matrix",
                            lambda cells, runner: verdicts)
        path = tmp_path / "conformance.json"
        assert validate_cli.main(["matrix", "--smoke", "--no-cache", "-q",
                                  "--report", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["gate"] == GATE and data["pass_fraction"] == 1.0
        assert [c.pop("waived") for c in data["cells"]] == [False, True]
        assert [Verdict(**dict(c, readings=tuple(
            Reading(**r) for r in c["readings"]))) for c in data["cells"]] \
            == verdicts


@pytest.mark.validation
class TestRunCell:
    def test_short_cell_is_conserved_and_normalised(self):
        metrics = run_cell((15, 0), duration_s=0.8, warmup_s=0.2, seed=1)
        assert metrics.conservation_balance == 0
        assert sum(metrics.airtime_shares.values()) == pytest.approx(1.0)
        assert all(v > 0 for v in metrics.throughput_mbps.values())

    def test_strict_mode_runs_clean(self):
        metrics = run_cell((15, 7), duration_s=0.6, warmup_s=0.2,
                           seed=2, strict=True)
        assert metrics.stall_violations == 0

    def test_same_seed_is_bit_identical(self):
        a = run_cell((15, 0), duration_s=0.5, warmup_s=0.1, seed=3)
        b = run_cell((15, 0), duration_s=0.5, warmup_s=0.1, seed=3)
        assert a == b


@pytest.mark.validation
@pytest.mark.slow
def test_run_matrix_scores_every_cell():
    cells = [CellSpec(2, "all_fast", 64, 1500, duration_s=0.8,
                      warmup_s=0.2),
             CellSpec(3, "fast_slow", 64, 1500, duration_s=0.8,
                      warmup_s=0.2)]
    verdicts = run_matrix(cells, runner=None)
    assert [v.text for v in verdicts] == [c.name for c in cells]
    assert all(len(v.readings) == 4 for v in verdicts), verdicts
