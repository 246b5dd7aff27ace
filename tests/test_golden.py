"""Tests for the scenario catalogue and its exact pin gate."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.validation import catalogue


class TestCorpus:
    def test_names_are_unique_and_stable(self):
        names = catalogue.names()
        assert len(names) == len(set(names)) == 36
        assert "udp-airtime" in names
        assert "cell-n5-ladder" in names
        assert "udp-metrics/AIRTIME" in names

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError, match="unknown golden"):
            catalogue.check(only=["no-such-scenario"])

    def test_default_dir_is_tests_golden(self):
        path = catalogue.default_golden_dir()
        assert path.parts[-2:] == ("tests", "golden")


class TestDiffSnapshot:
    def test_identical_snapshots_are_clean(self):
        snap = {"total_mbps": 89.2, "airtime_share": {"0": 0.33}}
        assert catalogue.diff_pin("s", snap, dict(snap)) == []

    def test_relative_breach_detected(self):
        breaches = catalogue.diff_pin("s", {"total_mbps": 89.2},
                                      {"total_mbps": 60.0})
        assert len(breaches) == 1
        assert breaches[0].key == "total_mbps"

    def test_one_rounding_step_breaches(self):
        breaches = catalogue.diff_pin(
            "s", {"airtime_share": {"0": 0.338}},
            {"airtime_share": {"0": 0.3381}})
        assert [str(b) for b in breaches] == \
            ["s: airtime_share.0: 0.338 → 0.3381"]

    def test_missing_and_extra_keys_breach(self):
        breaches = catalogue.diff_pin("s", {"a_mbps": 1.0},
                                      {"b_mbps": 1.0})
        assert {b.key for b in breaches} == {"a_mbps", "b_mbps"}

    def test_non_numeric_change_breaches(self):
        assert catalogue.diff_pin("s", {"scheme": "FIFO"},
                                  {"scheme": "Airtime"})


@pytest.mark.validation
@pytest.mark.slow
class TestRefreshCheckCycle:
    def test_refresh_then_check_then_perturb(self, tmp_path):
        golden_dir = tmp_path / "golden"
        only = ["udp-airtime", "udp-ring512/AIRTIME"]

        assert catalogue.refresh(only=only, golden_dir=golden_dir) == only
        for name in only:  # re-recorded byte for byte
            assert (golden_dir / f"{name}.json").read_bytes() == \
                (catalogue.default_golden_dir() / f"{name}.json").read_bytes()

        report = catalogue.check(only=only, golden_dir=golden_dir)
        assert report.clean, report.format()
        assert report.checked == only

        golden_path, traced_path = (golden_dir / f"{name}.json"
                                    for name in only)
        golden = json.loads(golden_path.read_text())
        golden["total_mbps"] *= 2
        golden_path.write_text(json.dumps(golden))
        traced = json.loads(traced_path.read_text())
        traced["digests"]["trace"] = "0" * 64
        traced_path.write_text(json.dumps(traced))
        report = catalogue.check(only=only, golden_dir=golden_dir)
        assert [b.key for b in report.breaches] == \
            ["total_mbps", "digests.trace"]
        assert "BREACH udp-ring512/AIRTIME: digests moved: trace" in \
            report.format()

    def test_missing_snapshot_is_reported(self, tmp_path):
        report = catalogue.check(only=["udp-fifo"],
                                 golden_dir=tmp_path / "empty")
        assert not report.clean
        assert report.missing == ["udp-fifo"]
        assert "MISSING" in report.format()

    def test_a_warm_result_cache_does_not_hide_a_scheduler_change(
            self, tmp_path):
        """``validate check`` reads the result cache, whose key covers the
        code: run it on a copy of the package, warm the cache, edit the
        scheduler in the copy, and the same cache must not hide it."""
        src = tmp_path / "src"
        shutil.copytree(Path(repro.__file__).parent, src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        argv = [sys.executable, "-m", "repro.experiments.cli", "validate",
                "check", "--only", "cell-n5-ladder", "--jobs", "1",
                "--golden", str(catalogue.default_golden_dir())]

        def check():
            return subprocess.run(argv, env=env, capture_output=True,
                                  text=True, timeout=600)

        assert check().returncode == 0
        assert list((tmp_path / "cache").glob("*.pkl"))

        airtime = src / "repro" / "core" / "airtime.py"
        text = airtime.read_text()
        assert text.count("self.quantum_us = quantum_us\n") == 1
        airtime.write_text(text.replace("self.quantum_us = quantum_us\n",
                                        "self.quantum_us = quantum_us * 50\n"))
        proc = check()
        assert proc.returncode == 4, proc.stderr
        assert "BREACH cell-n5-ladder: jain_airtime" in proc.stdout


@pytest.mark.validation
def test_catalogue_and_pin_files_map_one_to_one():
    golden_dir = catalogue.default_golden_dir()
    files = {path.relative_to(golden_dir).with_suffix("").as_posix()
             for path in golden_dir.rglob("*.json")}
    assert files == set(catalogue.names())
    for name in catalogue.names():
        pin = catalogue.load(name)
        assert set(pin.get("digests", {})) == \
            set(catalogue.digest_names(name)), name
        assert set(pin) - {"digests"}, f"{name} pins no headline metric"
