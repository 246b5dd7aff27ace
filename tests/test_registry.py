"""The experiment registry is the one index the CLI and the report read."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import repro.experiments
from repro.experiments import registry, report
from repro.experiments.cli import main

#: ``repro list`` stdout as printed by the tree before the registry
#: existed (commit 0716bab): the row order, texts and ``[traceable]``
#: marks must survive the move from hand-kept tables to signatures.
LIST_STDOUT = """\
  table1   analytical model vs measured UDP (Table 1) (default 20s + 5s warmup)
  fig04    latency with TCP download (Figures 1/4) (default 20s + 8s warmup) [traceable]
  fig05    airtime shares, one-way UDP (Figure 5) (default 20s + 5s warmup) [traceable]
  fig06    Jain's fairness index (Figure 6) (default 15s + 6s warmup)
  fig07    TCP download throughput (Figure 7) (default 20s + 8s warmup)
  fig08    sparse-station optimisation (Figure 8) (default 15s + 5s warmup)
  fig09    30-station scaling (Figures 9/10) (default 30s + 10s warmup)
  table2   VoIP MOS and throughput (Table 2) (default 12s + 6s warmup)
  fig11    web page-load times (Figure 11) (default 40s + 5s warmup)
  faults   fairness/latency under channel impairment and churn (default 10s + 2s warmup) [traceable]
  campus   multi-BSS campus: co-channel contention + roaming (default 4s + 1s warmup)
"""


def test_every_experiment_module_is_registered_exactly_once():
    experiment_modules = []
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        if hasattr(module, "specs") and hasattr(module, "format_table"):
            experiment_modules.append(module)
    registered = [row.module for row in registry.EXPERIMENTS]
    assert sorted(m.__name__ for m in registered) == sorted(
        m.__name__ for m in experiment_modules)
    ids = [row.id for row in registry.EXPERIMENTS]
    assert len(set(ids)) == len(ids)
    assert list(registry.BY_ID) == ids


def test_every_run_takes_the_window_the_seed_and_the_runner():
    """``Experiment.run`` holds the runner; each module's ``specs`` takes
    the window and the seed, and has no window default of its own."""
    assert "runner" in inspect.signature(registry.Experiment.run).parameters
    for row in registry.EXPERIMENTS:
        parameters = inspect.signature(row.module.specs).parameters
        assert {"duration_s", "warmup_s", "seed"} <= set(parameters), row.id
        for window in ("duration_s", "warmup_s"):
            assert parameters[window].default is inspect.Parameter.empty, (
                row.id, window)
        assert not hasattr(row.module, "run"), row.id


def test_an_omitted_window_is_the_rows(monkeypatch):
    """``repro fig05`` and ``BY_ID["fig05"].run()`` simulate the same
    20 + 5 s: no module keeps a window default of its own."""
    asked = []

    def specs(*, duration_s, warmup_s, seed):
        asked.append((duration_s, warmup_s, seed))
        return []

    monkeypatch.setattr(registry.BY_ID["fig05"].module, "specs", specs)
    assert registry.BY_ID["fig05"].run() == []
    assert asked == [(20, 5, 1)]


def test_telemetry_and_fault_awareness_come_from_the_signatures():
    def ids(kwarg):
        return {row.id for row in registry.EXPERIMENTS if row.accepts(kwarg)}

    assert ids("telemetry") == {"fig04", "fig05", "faults"}
    assert ids("faults") == ids("strict") == {"fig05", "faults"}


def test_report_reads_its_windows_from_the_registry(monkeypatch):
    """No ``N * scale`` literal is left in report.py: a changed row shows
    up in the window the section asks for."""
    row = registry.BY_ID["fig06"]
    monkeypatch.setitem(registry.BY_ID, "fig06",
                        dataclasses.replace(row, duration_s=7, warmup_s=3))
    asked = {}

    def recorder(experiment_id):
        def specs(*, duration_s, warmup_s, **_):
            asked.setdefault(experiment_id, (duration_s, warmup_s))
            raise RuntimeError("window recorded; nothing simulated")
        return specs

    for each in registry.EXPERIMENTS:
        monkeypatch.setattr(each.module, "specs", recorder(each.id))
    report.generate_report(duration_scale=0.5)
    expected = {each.id: (each.duration_s * 0.5, each.warmup_s * 0.5)
                for each in registry.BY_ID.values() if each.id != "campus"}
    assert expected["fig06"] == (3.5, 1.5)
    assert asked == expected


def test_list_stdout_is_unchanged(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out == LIST_STDOUT
