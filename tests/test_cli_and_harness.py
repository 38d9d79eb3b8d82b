"""Tests for the run-all CLI, the ``repro`` commands' argument
parsing, and the security harness internals."""

import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.compiler import InvalidateExtent, KernelBuilder, run_lmi_pass
from repro.experiments.__main__ import EXPERIMENTS, main
from repro.security.harness import CaseResult, SecurityReport
from repro.security.testcases import CaseOutcome, Category
from repro.telemetry.ledger import DEFAULT_LEDGER_PATH, RunLedger
from repro.telemetry.tracectx import TRACES, reset_trace_ids

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli_env():
    return dict(os.environ, PYTHONPATH=os.path.join(_REPO_ROOT, "src"))


class TestCli:
    def test_all_experiment_names_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig4", "fig12", "fig13", "table2", "table3", "table6",
            "feasibility",
        }

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["warpdrive"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_single_fast_experiment_runs(self, capsys):
        assert main(["--fast", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "backprop" in out
        assert "geomean" in out

    def test_feasibility_runs(self, capsys):
        assert main(["feasibility"]) == 0
        assert "vector_add" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_prints_usage_and_runs_nothing(self, flag, capsys):
        assert main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: python -m repro.experiments")
        assert "=" * 72 not in out

    @pytest.mark.parametrize(
        "argv",
        [["--jbos", "2"], ["--job=4"], ["--jobs=0"], ["--jobs", "x"],
         ["--serve", "70000"], ["fig4", "--fast", "--bogus"]],
    )
    def test_usage_errors_exit_2_before_any_experiment(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "python -m repro.experiments: error:" in captured.err

    def test_names_on_both_sides_of_a_flag_all_run(self, capsys):
        assert main(["fig4", "--fast", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "[fig4 done in" in out and "[fig1 done in" in out

    @pytest.mark.parametrize(
        "variable,value",
        [("REPRO_SHARD_WAIT", "3m"), ("REPRO_SHARD_WAIT", "-1"),
         ("REPRO_SERVE_LINGER", "10s"), ("REPRO_SERVE_LINGER", "nan")],
    )
    def test_malformed_env_seconds_exit_2(
        self, variable, value, monkeypatch, capsys
    ):
        # Both used to read as 0: a shard took over its peer's half at
        # once, and the --serve linger disappeared.
        monkeypatch.setenv(variable, value)
        assert main(["fig4"]) == 2
        out = capsys.readouterr().out
        assert out.strip() == (
            f"invalid {variable} value {value!r} (expected seconds >= 0)"
        )

    @pytest.mark.parametrize(
        "argv",
        [["-m", "repro.experiments", "table6"],
         ["-m", "repro", "experiments", "table6"]],
        ids=["experiments", "repro"],
    )
    def test_closed_stdout_exits_quietly(self, argv):
        # The reader is gone before the command prints anything, as
        # when its output is piped to `head` or `true`.
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=_REPO_ROOT, env=_cli_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err == b""

    def test_library_import_loads_no_server_or_parser(self):
        # A fresh interpreter: this one has loaded everything already.
        # asyncio (with ssl) cost ~43 ms of import when the telemetry
        # package re-exported the HTTP server; only --serve needs it.
        # cffi and the native kernels (the trace synthesizer's too) load
        # on first use, not at import.
        probe = (
            "import sys, repro.experiments\n"
            "print(sorted(m for m in ('asyncio', 'argparse', 'cffi',"
            " 'repro.telemetry.server') if m in sys.modules))\n"
            "from repro.sim.codegen import CODEGEN_STATS as s\n"
            "print(s.compiles, s.disk_hits, s.failures)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=_REPO_ROOT, env=_cli_env(),
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        assert out.split("\n")[:2] == ["[]", "0 0 0"]

    @pytest.mark.parametrize(
        "command",
        ["report", "top", "trace", "ledger", "experiments", "serve",
         "loadgen"],
    )
    def test_every_repro_command_has_help(self, command, capsys):
        assert cli_main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ")

    def test_serve_help_shows_the_constructor_defaults(self, capsys):
        assert cli_main(["serve", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--max-batch N max cells packed into one engine batch " \
            "(default 8)" in out
        assert "(default 0.99)" in out


#: Variables earlier versions read, each at a value other than its old
#: default (``None``: a path in the test's own directory).  Nothing
#: reads them now: their settings are fixed behaviour.
_RETIRED_VARIABLES = {
    "REPRO_TELEMETRY_SAMPLE": "1/8",
    "REPRO_TRACE_SEED": "42",
    "REPRO_TRACE_DISABLE": "1",
    "REPRO_LEDGER_MAX_MB": "0.001",
    "REPRO_LEDGER": None,
}


def _fig12_observables(directory):
    """``fig12 --fast`` with both exports and a ledger: the export
    bytes and each engine job's trace id with its stage names."""
    reset_trace_ids()
    TRACES.clear()
    metrics, trace = directory / "m.json", directory / "t.json"
    assert main([
        "fig12", "--fast", "--metrics", str(metrics), "--trace", str(trace),
        "--ledger", str(directory / "runs.jsonl"),
    ]) == 0
    jobs = [
        (doc["trace_id"], [stage["stage"] for stage in doc["stages"]])
        for doc in TRACES.recent(len(TRACES))
    ]
    TRACES.clear()
    return metrics.read_bytes(), trace.read_bytes(), jobs


@pytest.fixture(scope="module")
def clean_fig12(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        for variable in _RETIRED_VARIABLES:
            patch.delenv(variable, raising=False)
        return _fig12_observables(tmp_path_factory.mktemp("clean"))


class TestRetiredVariables:
    @pytest.mark.parametrize("variable", sorted(_RETIRED_VARIABLES))
    def test_setting_one_changes_nothing(
        self, variable, clean_fig12, tmp_path, monkeypatch, capsys
    ):
        value = _RETIRED_VARIABLES[variable]
        if value is None:
            value = str(tmp_path / "elsewhere.jsonl")
        monkeypatch.setenv(variable, value)
        metrics, trace, jobs = _fig12_observables(tmp_path)
        capsys.readouterr()
        clean_metrics, clean_trace, clean_jobs = clean_fig12
        # Byte-identical exports, and the same ids for the same jobs.
        assert metrics == clean_metrics
        assert trace == clean_trace
        assert len(jobs) == 112 and jobs == clean_jobs
        # A ledger keeps every record: 16 of ~330 bytes sit far below
        # the 64 MiB cap.
        ledger = RunLedger(str(tmp_path / "kept.jsonl"))
        for index in range(16):
            ledger.record("benchmark", "probe", config={"pad": "x" * 200},
                          metrics={"throughput": float(index)})
        assert ledger.series("probe") == [float(i) for i in range(16)]
        # A ledger given no path writes to the default one.
        monkeypatch.chdir(tmp_path)
        RunLedger().record("benchmark", "default")
        assert RunLedger(DEFAULT_LEDGER_PATH).names() == ["default"]
        assert not os.path.exists(tmp_path / "elsewhere.jsonl")


class TestLmiPassIdempotency:
    def test_double_run_inserts_nothing_new(self):
        b = KernelBuilder("x")
        b.alloca(64)
        b.scope_begin()
        b.alloca(32)
        b.scope_end()
        h = b.malloc(128)
        b.free(h)
        b.ret()
        module = b.module()
        run_lmi_pass(module)
        first = sum(
            isinstance(i, InvalidateExtent)
            for i in module.kernel.instructions()
        )
        second_result = run_lmi_pass(module)
        second = sum(
            isinstance(i, InvalidateExtent)
            for i in module.kernel.instructions()
        )
        assert first == second
        assert second_result.inserted_instructions == 0


def _fake_report():
    """A hand-built report exercising the aggregation paths."""
    report = SecurityReport()

    def add(case_id, category, mechanism, detected, oracle=True):
        report.results.append(
            CaseResult(
                case_id=case_id,
                category=category,
                mechanism=mechanism,
                outcome=CaseOutcome(detected=detected, oracle=oracle),
            )
        )

    for mech, hits in (("a", True), ("b", False)):
        add("g1", Category.GLOBAL_OOB, mech, hits)
        add("g2", Category.GLOBAL_OOB, mech, True)
        add("u1", Category.UAF, mech, hits)
    # A broken case: the oracle never fired.
    add("broken", Category.HEAP_OOB, "a", False, oracle=False)
    add("broken", Category.HEAP_OOB, "b", False, oracle=False)
    return report


class TestHarnessAggregation:
    def test_detections_counts_true_positives_only(self):
        report = _fake_report()
        assert report.detections("a", Category.GLOBAL_OOB) == 2
        assert report.detections("b", Category.GLOBAL_OOB) == 1

    def test_totals_count_unique_cases(self):
        report = _fake_report()
        assert report.total(Category.GLOBAL_OOB) == 2
        assert report.total(Category.UAF) == 1
        assert report.total(Category.INVALID_FREE) == 0

    def test_coverage_split_by_spatial(self):
        report = _fake_report()
        # Mechanism a: 2/2 global + 0/1 heap(broken) spatial.
        assert report.coverage("a", spatial=True) == pytest.approx(2 / 3)
        assert report.coverage("a", spatial=False) == pytest.approx(1.0)
        assert report.coverage("b", spatial=False) == pytest.approx(0.0)

    def test_oracle_failures_surface_broken_cases(self):
        report = _fake_report()
        assert [r.case_id for r in report.oracle_failures()] == ["broken"]

    def test_rows_include_every_category(self):
        rows = _fake_report().rows()
        assert len(rows) == len(Category)

    def test_empty_report_coverage_is_zero(self):
        assert SecurityReport().coverage("x", spatial=True) == 0.0
