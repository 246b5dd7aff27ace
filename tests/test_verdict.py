"""One verdict type: matrix cells, oracles and report claims all judge to
a :class:`Verdict` and print through its one ``row()``."""

from __future__ import annotations

from repro.experiments import report, validate_cli
from repro.experiments.latency import LatencyResult
from repro.mac.ap import Scheme
from repro.validation import matrix, oracles
from repro.validation.matrix import CellMetrics, CellSpec, judge_cell
from repro.validation.verdict import Verdict, table


def _verdicts():
    metrics = CellMetrics(
        mcs_indices=(15, 0), scheme_name="AIRTIME",
        throughput_mbps={0: 40.0, 1: 2.0}, airtime_shares={0: 0.5, 1: 0.5},
        mean_aggregation={0: 8.0, 1: 8.0}, jain_airtime=0.99,
        window_us=1e6, conservation_balance=0)
    fifo = CellMetrics(**dict(vars(metrics), jain_airtime=0.55))
    latency = {s: LatencyResult(s, False, {0: [100.0], 1: [], 2: [200.0]})
               for s in Scheme}
    return [
        judge_cell(CellSpec(2, "fast_slow", 64, 1500), metrics),
        oracles.JAIN_DOMINANCE.judge(
            [{Scheme.FIFO: fifo, Scheme.AIRTIME: metrics}]),
        report.LATENCY.claims[0].judge([latency]),
    ]


def test_a_cell_an_oracle_and_a_claim_render_through_one_row():
    cell, oracle, claim = _verdicts()
    assert all(type(v) is Verdict for v in (cell, oracle, claim))
    assert cell.row() == f"| ✗ | n2-fast_slow-agg64-p1500 | {cell.detail} |"
    assert oracle.row() == (
        "| ✓ | jain_dominance: Airtime's Jain index is not below FIFO's "
        "| airtime Jain 0.9900 vs FIFO Jain 0.5500 |")
    assert claim.row() == ("| ✗ | FIFO sits at several hundred ms (paper "
                           "~600 ms median) | 100 ms median |")


def test_validate_prints_the_same_rows(monkeypatch, capsys):
    verdicts = _verdicts()
    monkeypatch.setattr(matrix, "run_matrix", lambda cells, runner: verdicts)
    monkeypatch.setattr(oracles, "standard_verdicts",
                        lambda seed, runner: verdicts)
    assert validate_cli.main(["matrix", "--smoke", "--no-cache", "-q"]) == 4
    assert validate_cli.main(["oracles", "--no-cache", "-q"]) == 4
    out = capsys.readouterr().out
    assert out.count(table("cell", verdicts)) == 1
    assert out.count(table("oracle", verdicts)) == 1
    for verdict in verdicts:
        assert out.count(verdict.row()) == 2
