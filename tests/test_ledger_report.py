"""Tests for the run ledger, regression gate, and HTML report.

Covers the persistence layer the perf trajectory rides on:

* JSONL ledger round-trips, schema stamping, malformed-line and
  unknown-schema tolerance, ``REPRO_LEDGER`` resolution;
* :func:`check_regressions` — green on a fresh ledger, red on an
  injected synthetic regression, median-robust against one outlier;
* the HTML report is fully self-contained (no network fetches) and
  embeds sparklines, overhead budget and failure callouts;
* the ``repro report`` CLI exit codes: 0 clean, 1 on ``--check``
  regression, 2 on usage errors.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.telemetry import ledger as ledger_module
from repro.telemetry.ledger import (
    LEDGER_ENV,
    LEDGER_MAX_MB_ENV,
    LEDGER_SCHEMA,
    RunLedger,
    default_ledger_path,
    git_sha,
    ledger_max_bytes,
    make_record,
    merge_ledgers,
)
from repro.telemetry.report import (
    REPORT_SUMMARY_SCHEMA,
    bisect_regressions,
    build_html,
    build_summary,
    check_regressions,
    gateable_series,
    latest_fabric_counters,
    latest_phase_attribution,
    latest_serve_stats,
    load_bench_documents,
    sparkline_svg,
    write_report,
)


# ----------------------------------------------------------------------
# Ledger persistence


class TestRunLedger:
    def test_round_trip_and_schema_stamp(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.record(
            "benchmark",
            "sim_throughput",
            config={"fast": True},
            counters={"records": 1000},
            metrics={"throughput": 2.5e6},
            wall_seconds=1.25,
            sha="abc1234",
        )
        ledger.record("experiment", "fig12", metrics={"throughput": 3.0e6})
        records = ledger.read()
        assert [r["name"] for r in records] == ["sim_throughput", "fig12"]
        assert all(r["schema"] == LEDGER_SCHEMA for r in records)
        assert records[0]["git_sha"] == "abc1234"
        assert records[0]["metrics"]["throughput"] == 2.5e6
        assert records[0]["wall_seconds"] == 1.25
        assert ledger.names() == ["sim_throughput", "fig12"]
        assert ledger.series("fig12") == [3.0e6]

    def test_malformed_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(str(path))
        ledger.record("benchmark", "a", metrics={"throughput": 1.0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{torn json\n")
            handle.write(json.dumps({"schema": "other/v9", "name": "x"}))
            handle.write("\n\n")
        ledger.record("benchmark", "a", metrics={"throughput": 2.0})
        assert ledger.series("a") == [1.0, 2.0]
        assert ledger.names() == ["a"]

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "never-written.jsonl"))
        assert ledger.read() == []
        assert ledger.names() == []

    def test_append_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "ledger.jsonl"
        RunLedger(str(path)).record("benchmark", "b")
        assert path.exists()

    def test_env_overrides_default_path(self, monkeypatch, tmp_path):
        override = str(tmp_path / "elsewhere.jsonl")
        monkeypatch.setenv(LEDGER_ENV, override)
        assert default_ledger_path() == override
        assert RunLedger().path == override
        monkeypatch.delenv(LEDGER_ENV)
        assert default_ledger_path().endswith("ledger.jsonl")

    def test_make_record_stamps_sha_and_timestamp(self):
        record = make_record("experiment", "fig4", sha="deadbee")
        assert record["git_sha"] == "deadbee"
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", record["created_at"]
        )

    def test_git_sha_in_repo_or_unknown(self):
        sha = git_sha()
        assert sha == "unknown" or re.fullmatch(r"[0-9a-f]{4,40}", sha)

    def test_phases_round_trip(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        ledger.record(
            "experiment", "fig12",
            phases={"sim": 1.23456789, "compile": 0.5},
        )
        record = ledger.read()[0]
        assert record["phases"] == {"sim": 1.234568, "compile": 0.5}


# ----------------------------------------------------------------------
# Size-based rotation


class TestLedgerRotation:
    def _fill(self, ledger, count, name="series"):
        for index in range(count):
            ledger.record(
                "benchmark", name,
                metrics={"throughput": float(index)},
                config={"pad": "x" * 64},
            )

    def test_rotation_keeps_newest_records(self, monkeypatch, tmp_path):
        # ~300 B/record; cap the file at 4 KiB => keep <= 2 KiB.
        monkeypatch.setenv(LEDGER_MAX_MB_ENV, str(4 / 1024))
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(str(path))
        self._fill(ledger, 40)
        assert path.stat().st_size <= 4096
        values = ledger.series("series")
        # Newest survive, oldest were compacted away, order preserved.
        assert values == sorted(values)
        assert values[-1] == 39.0
        assert 0 < len(values) < 40

    def test_rotation_drops_malformed_lines(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_MAX_MB_ENV, str(4 / 1024))
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(str(path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn json\n" * 50)
        self._fill(ledger, 20)
        raw = path.read_text()
        assert "torn" not in raw
        assert ledger.series("series")  # survivors parse cleanly

    def test_zero_disables_rotation(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_MAX_MB_ENV, "0")
        assert ledger_max_bytes() == 0
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(str(path))
        self._fill(ledger, 40)
        assert len(ledger.series("series")) == 40

    def test_invalid_env_falls_back_to_default(self, monkeypatch):
        # A malformed cap used to read as the default; it now raises,
        # and only an unset variable means the default.
        for bad in ("lots", "-1", "nan", "inf"):
            monkeypatch.setenv(LEDGER_MAX_MB_ENV, bad)
            with pytest.raises(ValueError, match=LEDGER_MAX_MB_ENV):
                ledger_max_bytes()
        monkeypatch.delenv(LEDGER_MAX_MB_ENV)
        assert ledger_max_bytes() == 64 * 1024 * 1024

    def test_rotation_always_keeps_latest_record(
        self, monkeypatch, tmp_path
    ):
        # A cap smaller than one record must still keep the newest.
        monkeypatch.setenv(LEDGER_MAX_MB_ENV, str(64 / (1024 * 1024)))
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        self._fill(ledger, 3)
        values = ledger.series("series")
        assert values == [2.0]

    def test_record_appended_during_compaction_is_kept(
        self, monkeypatch, tmp_path
    ):
        path = str(tmp_path / "l.jsonl")
        self._fill(RunLedger(path), 4)  # ~1.2 KB under the default cap
        monkeypatch.setenv(LEDGER_MAX_MB_ENV, "0.001")  # now over it
        compacting = threading.Event()
        real_loads = json.loads

        def slow_loads(text, *args, **kwargs):
            # Hold writer A's compaction open at its first parse.
            if (
                threading.current_thread().name == "A"
                and not compacting.is_set()
            ):
                compacting.set()
                time.sleep(0.3)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(ledger_module.json, "loads", slow_loads)

        def writer_b():
            compacting.wait(5)
            RunLedger(path).record("benchmark", "B")

        threads = [
            threading.Thread(
                target=lambda: RunLedger(path).record("benchmark", "A"),
                name="A",
            ),
            threading.Thread(target=writer_b, name="B"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert compacting.is_set()  # A's append did compact
        names = [record["name"] for record in RunLedger(path).read()]
        assert "A" in names
        assert "B" in names  # not dropped by the compaction


# ----------------------------------------------------------------------
# Regression gate


def _seed_series(ledger, name, values):
    for value in values:
        ledger.record("benchmark", name, metrics={"throughput": value})


class TestCheckRegressions:
    def test_fresh_ledger_is_green(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        assert check_regressions(ledger) == []
        _seed_series(ledger, "sim", [100.0])
        assert check_regressions(ledger) == []  # < min_history

    def test_stable_series_passes(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        _seed_series(ledger, "sim", [100.0, 102.0, 98.0, 101.0])
        assert check_regressions(ledger) == []

    def test_injected_regression_fails(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        _seed_series(ledger, "sim", [100.0, 102.0, 98.0, 50.0])
        failures = check_regressions(ledger)
        assert len(failures) == 1
        assert failures[0].startswith("sim: throughput 50")
        assert "below the ledger median" in failures[0]

    def test_median_baseline_absorbs_one_outlier(self, tmp_path):
        # One absurdly fast historical run must not fail a normal run.
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        _seed_series(ledger, "sim", [100.0, 1000.0, 102.0, 99.0])
        assert check_regressions(ledger) == []

    def test_threshold_and_metric_are_configurable(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        for value in (10.0, 10.0, 9.0):
            ledger.record("benchmark", "s", metrics={"speedup": value})
        assert check_regressions(ledger, metric="speedup") == []
        assert check_regressions(
            ledger, metric="speedup", threshold=0.05
        ) != []


# ----------------------------------------------------------------------
# Machine-readable summary


class TestSummary:
    def test_gateable_series_requires_history(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        assert gateable_series(ledger) == []
        _seed_series(ledger, "young", [1.0, 2.0])
        assert gateable_series(ledger) == []  # 1 prior < min_history 2
        _seed_series(ledger, "old", [1.0, 2.0, 3.0])
        assert gateable_series(ledger) == ["old"]

    def test_build_summary_schema_and_series(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        _seed_series(ledger, "sim", [100.0, 102.0, 98.0, 50.0])
        _seed_series(ledger, "fresh", [10.0])
        summary = build_summary(ledger)
        assert summary["schema"] == REPORT_SUMMARY_SCHEMA
        assert summary["metric"] == "throughput"
        assert summary["gateable_series"] == ["sim"]
        assert summary["failure_count"] == 1
        sim = summary["series"]["sim"]
        assert sim["runs"] == 4 and sim["latest"] == 50.0
        assert sim["median_prior"] == 100.0
        assert sim["gated"] and sim["regressed"]
        fresh = summary["series"]["fresh"]
        assert fresh["median_prior"] is None
        assert not fresh["gated"] and not fresh["regressed"]

    def test_summary_carries_overhead_and_phases(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        ledger.record(
            "experiment", "fig12",
            metrics={"throughput": 1.0},
            phases={"sim": 2.0, "compile": 0.5},
        )
        ledger.record(
            "experiment", "fig12",
            metrics={"throughput": 1.0},
            phases={"sim": 3.0, "export": 0.25},
        )
        overhead = {"overhead_fraction": 0.01, "budget_fraction": 0.05}
        summary = build_summary(
            ledger, {"BENCH_sim": {"telemetry_overhead": overhead}}
        )
        # Latest record per series wins; phases merge across series.
        assert summary["phases"] == {"export": 0.25, "sim": 3.0}
        assert summary["telemetry_overhead"] == overhead

    def test_latest_phase_attribution_sums_series(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        ledger.record("experiment", "fig12", phases={"sim": 2.0})
        ledger.record("experiment", "fig13", phases={"sim": 1.0})
        ledger.record("run", "experiments", phases={"export": 0.5})
        assert latest_phase_attribution(ledger) == {
            "export": 0.5, "sim": 3.0,
        }

    def test_serve_block_round_trips_into_summary(self, tmp_path):
        """A record's serve block survives the ledger verbatim and the
        summary keeps the latest block per series, whole."""
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        stale = {"hit_rate": 0.1, "requests_per_second": 10.0}
        fresh = {
            "hit_rate": 0.9,
            "requests_per_second": 2400.5,
            "batch_occupancy": 6.0,
            "latency_ms": {"p50": 0.7, "p99": 42.0},
        }
        ledger.record("benchmark", "serve_throughput", serve=stale)
        ledger.record("benchmark", "serve_throughput", serve=fresh)
        ledger.record("benchmark", "other", metrics={"throughput": 1.0})
        [record] = [
            r for r in ledger.read() if r.get("serve") == fresh
        ]
        assert record["name"] == "serve_throughput"
        assert latest_serve_stats(ledger) == {"serve_throughput": fresh}
        summary = build_summary(ledger)
        assert summary["serve"] == {"serve_throughput": fresh}
        # Records without a serve block simply don't carry the key.
        assert all(
            "serve" not in r for r in ledger.read() if r["name"] == "other"
        )

    def test_serve_section_renders_in_html(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        ledger.record(
            "benchmark",
            "serve_throughput",
            serve={
                "hit_rate": 0.85,
                "requests_per_second": 1234.5,
                "batch_occupancy": 5.5,
                "latency_ms": {"p50": 1.2, "p99": 50.0},
            },
        )
        html_text, _failures = build_html(ledger)
        assert "Serving plane" in html_text
        assert "serve_throughput" in html_text
        assert "1,234.5" in html_text


# ----------------------------------------------------------------------
# HTML report


class TestReportHtml:
    def _ledger(self, tmp_path, values=(100.0, 102.0, 98.0)):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        _seed_series(ledger, "sim_throughput", values)
        return ledger

    def test_report_is_self_contained(self, tmp_path):
        html_text, failures = build_html(self._ledger(tmp_path))
        assert failures == []
        assert "<!DOCTYPE html>" in html_text
        assert "<style>" in html_text
        assert '<svg class="spark"' in html_text
        # No network fetches of any kind.
        assert "http://" not in html_text.replace(
            "http://www.w3.org/2000/svg", ""
        )
        assert "https://" not in html_text
        assert "<script" not in html_text
        assert "<link" not in html_text
        assert 'src="' not in html_text

    def test_report_renders_overhead_budget(self, tmp_path):
        bench_docs = {
            "BENCH_sim": {
                "models": {
                    "lmi": {
                        "columnar_records_per_second": 2_000_000,
                        "geomean_speedup": 12.5,
                    },
                },
                "telemetry_overhead": {
                    "overhead_fraction": 0.021,
                    "budget_fraction": 0.05,
                    "sample": "1/1024",
                },
            }
        }
        html_text, _ = build_html(self._ledger(tmp_path), bench_docs)
        assert "Telemetry overhead" in html_text
        assert "2.10%" in html_text and "5% budget" in html_text
        assert "1/1024" in html_text

    def test_report_flags_regression(self, tmp_path):
        ledger = self._ledger(tmp_path, values=(100.0, 102.0, 98.0, 40.0))
        html_text, failures = build_html(ledger)
        assert failures
        assert "Regressions detected" in html_text
        assert "regressed" in html_text

    def test_write_report_creates_dirs(self, tmp_path):
        out = tmp_path / "nested" / "report.html"
        path, failures = write_report(str(out), self._ledger(tmp_path))
        assert out.exists() and failures == []
        assert path == str(out)

    def test_load_bench_documents_skips_garbage(self, tmp_path):
        (tmp_path / "BENCH_good.json").write_text('{"a": 1}')
        (tmp_path / "BENCH_bad.json").write_text("{torn")
        (tmp_path / "BENCH_list.json").write_text("[1, 2]")
        (tmp_path / "unrelated.json").write_text('{"b": 2}')
        docs = load_bench_documents(str(tmp_path))
        assert docs == {"BENCH_good": {"a": 1}}

    def test_sparkline_svg_shapes(self):
        assert sparkline_svg([]) == ""
        single = sparkline_svg([5.0])
        assert "<polyline" in single and "<circle" in single
        multi = sparkline_svg([1.0, 3.0, 2.0])
        assert multi.count("<circle") == 1


# ----------------------------------------------------------------------
# CLI exit codes


class TestReportCli:
    def test_clean_ledger_exits_zero(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        _seed_series(RunLedger(str(ledger)), "sim", [100.0, 101.0, 99.0])
        out = tmp_path / "report.html"
        assert cli_main([
            "report", "--ledger", str(ledger),
            "--out", str(out), "--check",
        ]) == 0
        assert out.exists()
        assert "--check passed" in capsys.readouterr().out

    def test_injected_regression_exits_one_with_check(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "ledger.jsonl"
        _seed_series(
            RunLedger(str(ledger)), "sim", [100.0, 101.0, 99.0, 40.0]
        )
        out = tmp_path / "report.html"
        argv = ["report", "--ledger", str(ledger), "--out", str(out)]
        # Without --check the regression is reported but not fatal.
        assert cli_main(argv) == 0
        assert "REGRESSION" in capsys.readouterr().out
        assert cli_main(argv + ["--check"]) == 1
        printed = capsys.readouterr().out
        assert "REGRESSION" in printed and "--check failed" in printed

    def test_check_with_thin_ledger_skips_cleanly(self, tmp_path, capsys):
        # Empty ledger, and one with too little history: both exit 0
        # and say explicitly that there was nothing to gate.
        out = tmp_path / "report.html"
        empty = tmp_path / "empty.jsonl"
        assert cli_main([
            "report", "--ledger", str(empty),
            "--out", str(out), "--check",
        ]) == 0
        assert "--check skipped" in capsys.readouterr().out
        thin = tmp_path / "thin.jsonl"
        _seed_series(RunLedger(str(thin)), "sim", [100.0, 101.0])
        assert cli_main([
            "report", "--ledger", str(thin),
            "--out", str(out), "--check",
        ]) == 0
        printed = capsys.readouterr().out
        assert "--check skipped" in printed
        assert "nothing to gate" in printed

    def test_json_summary_flag(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        _seed_series(RunLedger(str(ledger)), "sim", [100.0, 101.0, 99.0])
        out = tmp_path / "report.html"
        summary_path = tmp_path / "summary.json"
        assert cli_main([
            "report", "--ledger", str(ledger), "--out", str(out),
            "--json", str(summary_path),
        ]) == 0
        assert "JSON summary" in capsys.readouterr().out
        summary = json.loads(summary_path.read_text())
        assert summary["schema"] == REPORT_SUMMARY_SCHEMA
        assert summary["series"]["sim"]["runs"] == 3
        assert summary["failure_count"] == 0

    def test_json_summary_reports_regression(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        _seed_series(
            RunLedger(str(ledger)), "sim", [100.0, 101.0, 99.0, 40.0]
        )
        summary_path = tmp_path / "summary.json"
        assert cli_main([
            "report", "--ledger", str(ledger),
            "--out", str(tmp_path / "r.html"),
            "--json", str(summary_path),
        ]) == 0
        capsys.readouterr()
        summary = json.loads(summary_path.read_text())
        assert summary["failure_count"] == 1
        assert summary["series"]["sim"]["regressed"] is True

    def test_usage_errors_exit_two(self, capsys):
        assert cli_main(["report", "--threshold", "nope"]) == 2
        assert cli_main(["report", "--threshold", "5"]) == 2
        assert cli_main(["report", "--ledger"]) == 2
        assert cli_main(["report", "--bogus"]) == 2
        assert cli_main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_paths(self, capsys):
        assert cli_main(["--help"]) == 0
        assert cli_main(["report", "--help"]) == 0
        assert cli_main([]) == 2
        printed = capsys.readouterr().out
        assert "repro report" in printed

    def test_bench_dir_defaults_to_ledger_dir(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        _seed_series(RunLedger(str(ledger)), "sim", [10.0, 11.0])
        (tmp_path / "BENCH_x.json").write_text('{"score": 7}')
        out = tmp_path / "report.html"
        assert cli_main(
            ["report", "--ledger", str(ledger), "--out", str(out)]
        ) == 0
        assert "1 benchmark documents" in capsys.readouterr().out
        assert "BENCH_x" in out.read_text()


# ----------------------------------------------------------------------
# Segmented (commit-anchored) ledger mode


def _stamp(hour: int) -> str:
    return f"2026-08-01T{hour:02d}:00:00Z"


class TestSegmentedLedger:
    def test_dir_path_selects_segment_mode(self, tmp_path):
        assert RunLedger(str(tmp_path / "segs") + os.sep).segmented
        existing = tmp_path / "already-there"
        existing.mkdir()
        assert RunLedger(str(existing)).segmented
        assert not RunLedger(str(tmp_path / "flat.jsonl")).segmented

    def test_writers_get_private_segments(self, tmp_path):
        store = str(tmp_path / "segs") + os.sep
        first, second = RunLedger(store), RunLedger(store)
        first.record("benchmark", "a", metrics={"throughput": 1.0})
        second.record("benchmark", "a", metrics={"throughput": 2.0})
        segments = [
            entry for entry in os.listdir(store)
            if entry.startswith("seg-") and entry.endswith(".jsonl")
        ]
        assert len(segments) == 2  # no two writers share a file
        assert sorted(first.series("a")) == [1.0, 2.0]

    def test_rotation_drops_oldest_segment_with_its_lock(
        self, monkeypatch, tmp_path
    ):
        store = str(tmp_path / "segs") + os.sep
        old, current = RunLedger(store), RunLedger(store)
        old.record(
            "benchmark", "a", metrics={"throughput": 1.0},
            config={"pad": "x" * 2048}, created_at=_stamp(7),
        )
        monkeypatch.setenv(LEDGER_MAX_MB_ENV, str(2 / 1024))  # 2 KiB
        current.record(
            "benchmark", "a", metrics={"throughput": 2.0},
            created_at=_stamp(8),
        )
        own = os.path.basename(current._segment)
        # The old segment went, and its append lock with it.
        assert sorted(os.listdir(store)) == [own, own + ".lock"]
        assert current.series("a") == [2.0]

    def test_read_unions_segments_in_timestamp_order(self, tmp_path):
        store = str(tmp_path / "segs") + os.sep
        early_writer, late_writer = RunLedger(store), RunLedger(store)
        late_writer.record(
            "benchmark", "a", metrics={"throughput": 3.0},
            created_at=_stamp(9),
        )
        early_writer.record(
            "benchmark", "a", metrics={"throughput": 1.0},
            created_at=_stamp(7),
        )
        late_writer.record(
            "benchmark", "a", metrics={"throughput": 2.0},
            created_at=_stamp(8),
        )
        assert RunLedger(store).series("a") == [1.0, 2.0, 3.0]

    def test_missing_dir_reads_empty(self, tmp_path):
        assert RunLedger(str(tmp_path / "never") + os.sep).read() == []


class TestMergeLedgers:
    def _flat(self, path, values, sha="aaa0001", start_hour=1):
        ledger = RunLedger(str(path))
        for offset, value in enumerate(values):
            ledger.record(
                "benchmark", "sim", metrics={"throughput": value},
                sha=sha, created_at=_stamp(start_hour + offset),
            )
        return ledger

    def test_merge_is_ordered_and_idempotent(self, tmp_path):
        a = self._flat(tmp_path / "a.jsonl", [2.0], start_hour=2)
        b = self._flat(tmp_path / "b.jsonl", [1.0], start_hour=1)
        dest = str(tmp_path / "merged.jsonl")
        added, total = merge_ledgers([a.path, b.path], dest)
        assert (added, total) == (2, 2)
        # Timestamp order wins over source order.
        assert RunLedger(dest).series("sim") == [1.0, 2.0]
        added, total = merge_ledgers([a.path, b.path], dest)
        assert (added, total) == (0, 2)  # idempotent

    def test_merge_dedupes_identical_records(self, tmp_path):
        record = make_record(
            "benchmark", "sim", metrics={"throughput": 5.0},
            sha="aaa0001", created_at=_stamp(1),
        )
        for name in ("a.jsonl", "b.jsonl"):
            RunLedger(str(tmp_path / name)).append(dict(record))
        dest = str(tmp_path / "merged.jsonl")
        added, total = merge_ledgers(
            [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")], dest
        )
        assert (added, total) == (1, 1)

    def test_merge_from_segment_dir_preserves_metadata(self, tmp_path):
        store = str(tmp_path / "segs") + os.sep
        RunLedger(store).record(
            "benchmark", "sim", metrics={"throughput": 7.0},
            sha="cafe123", created_at=_stamp(3),
        )
        dest = str(tmp_path / "merged.jsonl")
        assert merge_ledgers([store], dest) == (1, 1)
        merged = RunLedger(dest).read()[0]
        assert merged["git_sha"] == "cafe123"
        assert merged["created_at"] == _stamp(3)

    def test_merge_cli_round_trip(self, tmp_path, capsys):
        self._flat(tmp_path / "a.jsonl", [1.0, 2.0])
        self._flat(tmp_path / "b.jsonl", [3.0], start_hour=5)
        dest = str(tmp_path / "merged.jsonl")
        assert cli_main([
            "ledger", "merge", str(tmp_path / "a.jsonl"),
            str(tmp_path / "b.jsonl"), "--out", dest,
        ]) == 0
        printed = capsys.readouterr().out
        assert "merged 2 source(s)" in printed
        assert "3 new record(s), 3 total" in printed
        assert len(RunLedger(dest).series("sim")) == 3

    def test_merge_cli_usage_errors(self, tmp_path, capsys):
        assert cli_main(["ledger", "merge"]) == 2
        assert cli_main(["ledger", "frobnicate"]) == 2
        assert cli_main([
            "ledger", "merge", str(tmp_path / "missing.jsonl"),
            "--out", str(tmp_path / "d.jsonl"),
        ]) == 2
        assert "source not found" in capsys.readouterr().out
        assert cli_main(["ledger", "--help"]) == 0


# ----------------------------------------------------------------------
# Commit bisection over ledger history


def _seed_commits(ledger, history):
    """*history* is ``[(sha, [values...]), ...]`` in commit order."""
    hour = 0
    for sha, values in history:
        for value in values:
            ledger.record(
                "benchmark", "sim", metrics={"throughput": value},
                sha=sha, created_at=_stamp(hour),
            )
            hour += 1


class TestBisectRegressions:
    def test_pins_first_regressing_commit(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        _seed_commits(ledger, [
            ("aaa0001", [100.0, 102.0]),
            ("bbb0002", [99.0]),
            ("ccc0003", [50.0, 52.0]),   # the culprit
            ("ddd0004", [51.0]),         # still slow, but not first
        ])
        culprits = bisect_regressions(ledger)
        assert list(culprits) == ["sim"]
        info = culprits["sim"]
        assert info["sha"] == "ccc0003"
        assert info["baseline"] == pytest.approx(100.0)
        assert info["value"] == pytest.approx(51.0)
        assert info["drop_fraction"] == pytest.approx(0.49)
        assert info["prior_commits"] == 2

    def test_clean_history_has_no_culprit(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        _seed_commits(ledger, [
            ("aaa0001", [100.0]), ("bbb0002", [98.0]), ("ccc0003", [101.0]),
        ])
        assert bisect_regressions(ledger) == {}

    def test_median_absorbs_one_noisy_run_at_the_boundary(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        _seed_commits(ledger, [
            ("aaa0001", [100.0, 101.0]),
            ("bbb0002", [40.0, 99.0, 100.0]),  # one bad run, not a trend
        ])
        assert bisect_regressions(ledger) == {}

    def test_threshold_is_configurable(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        _seed_commits(ledger, [("a", [100.0]), ("b", [90.0])])
        assert bisect_regressions(ledger) == {}
        assert "sim" in bisect_regressions(ledger, threshold=0.05)

    def test_report_cli_prints_culprit(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        _seed_commits(RunLedger(str(ledger)), [
            ("aaa0001", [100.0, 101.0]), ("bbb0002", [50.0]),
        ])
        assert cli_main([
            "report", "--ledger", str(ledger),
            "--out", str(tmp_path / "r.html"), "--bisect",
        ]) == 0
        printed = capsys.readouterr().out
        assert "[bisect] sim: first regressed at commit bbb0002" in printed
        assert "50.2% drop" in printed

    def test_report_cli_bisect_clean(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        _seed_commits(RunLedger(str(ledger)), [("aaa0001", [100.0, 99.0])])
        assert cli_main([
            "report", "--ledger", str(ledger),
            "--out", str(tmp_path / "r.html"), "--bisect",
        ]) == 0
        assert "no commit-attributable regression" in (
            capsys.readouterr().out
        )


# ----------------------------------------------------------------------
# Fabric counters in the ledger and the JSON summary


class TestFabricInLedger:
    def test_latest_fabric_counters_sums_latest_per_series(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        ledger.record(
            "experiment", "fig12",
            fabric={"cells_skipped": 2, "cells_executed": 10},
        )
        ledger.record(
            "experiment", "fig12",
            fabric={"cells_skipped": 12, "cells_executed": 0},
        )
        ledger.record(
            "experiment", "fig13",
            fabric={"cells_skipped": 3, "cells_stolen": 1},
        )
        assert latest_fabric_counters(ledger) == {
            "cells_executed": 0, "cells_skipped": 15, "cells_stolen": 1,
        }

    def test_summary_carries_fabric_block(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        ledger.record(
            "experiment", "fig12",
            metrics={"throughput": 1.0},
            fabric={"cells_skipped": 12},
        )
        summary = build_summary(ledger)
        assert summary["fabric"] == {"cells_skipped": 12}
