"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.check.runner as check_runner
from repro.cli import main
from repro.exceptions import ReproError


class TestList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "shared-opt" in out
        assert "q32" in out
        assert "fig12" in out


class TestParams:
    def test_preset(self, capsys):
        assert main(["params", "--preset", "q32"]) == 0
        out = capsys.readouterr().out
        assert "lambda (Shared Opt.):      30" in out
        assert "mu (Distributed Opt.):     4" in out
        assert "alpha=16" in out

    def test_custom_machine(self, capsys):
        assert main(["params", "--cores", "4", "--cs", "100", "--cd", "21"]) == 0
        assert "lambda (Shared Opt.):      9" in capsys.readouterr().out

    def test_non_square_cores(self, capsys):
        assert main(["params", "--cores", "6", "--cs", "100", "--cd", "16"]) == 0
        assert "n/a" in capsys.readouterr().out


class TestRun:
    def test_run_basic(self, capsys):
        code = main(
            ["run", "shared-opt", "-m", "8", "--preset", "q32", "--setting", "ideal"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MS" in out and "shared-opt" in out

    def test_run_rectangular(self, capsys):
        code = main(
            [
                "run", "outer-product", "-m", "4", "-n", "6", "-z", "8",
                "--preset", "q32", "--setting", "lru",
            ]
        )
        assert code == 0

    def test_error_exit_code(self, capsys):
        # distributed-opt on a non-square core count -> clean error
        code = main(
            ["run", "distributed-opt", "-m", "4", "--cores", "6", "--cs", "100",
             "--cd", "16"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_sweep(self, capsys):
        code = main(
            [
                "sweep", "shared-opt", "outer-product",
                "--orders", "4", "8", "--preset", "q32", "--setting", "ideal",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("shared-opt") == 2  # one row per order

    def test_sweep_run_dir_and_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        base = [
            "sweep", "shared-opt", "--orders", "4", "6", "--preset", "q32",
            "--setting", "ideal", "--workers", "1", "--run-dir", str(run_dir),
        ]
        assert main(base) == 0
        captured = capsys.readouterr()
        assert (run_dir / "checkpoint.jsonl").exists()
        assert (run_dir / "manifest.json").exists()
        assert "run dir:" in captured.err

        assert main(base + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "(2 resumed from checkpoint)" in captured.err

    def test_resume_without_run_dir_rejected(self, capsys):
        code = main(
            ["sweep", "shared-opt", "--orders", "4", "--preset", "q32",
             "--workers", "1", "--resume"]
        )
        assert code == 2
        assert "resume" in capsys.readouterr().err


class TestRuns:
    def _make_run(self, run_dir):
        return main(
            ["sweep", "shared-opt", "--orders", "4", "6", "--preset", "q32",
             "--setting", "ideal", "--workers", "1", "--run-dir", str(run_dir)]
        )

    def test_runs_list(self, tmp_path, capsys):
        assert self._make_run(tmp_path / "run-a") == 0
        capsys.readouterr()
        assert main(["runs", "list", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run-a" in out and "complete" in out

    def test_runs_list_empty(self, tmp_path, capsys):
        assert main(["runs", "list", str(tmp_path)]) == 0
        assert "no run directories" in capsys.readouterr().out

    def test_runs_show(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._make_run(run_dir) == 0
        capsys.readouterr()
        assert main(["runs", "show", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "status: complete" in out
        assert "checkpoint: 2 ok" in out
        assert "manifest: present" in out

    def test_runs_show_rejects_non_run(self, tmp_path, capsys):
        assert main(["runs", "show", str(tmp_path)]) == 2
        assert "not a run directory" in capsys.readouterr().err

    def test_runs_verify_clean_and_corrupt(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._make_run(run_dir) == 0
        capsys.readouterr()
        assert main(["runs", "verify", str(run_dir)]) == 0
        assert "ok" in capsys.readouterr().out

        checkpoint = run_dir / "checkpoint.jsonl"
        lines = checkpoint.read_text().splitlines()
        lines[0] = lines[0].replace('"ok"', '"OK"')  # break the checksum
        checkpoint.write_text("\n".join(lines) + "\n")
        assert main(["runs", "verify", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "checksum mismatch" in out

    def test_runs_verify_rejects_non_run(self, tmp_path, capsys):
        for path in (tmp_path / "nonexistent", tmp_path):
            assert main(["runs", "verify", str(path)]) == 2
            captured = capsys.readouterr()
            assert f"error: {path} is not a run directory" in captured.err
            assert "CORRUPT" not in captured.out

    def test_runs_verify_missing_run_json_is_corrupt(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._make_run(run_dir) == 0
        (run_dir / "run.json").unlink()
        capsys.readouterr()
        assert main(["runs", "verify", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert "run.json is missing" in out
        assert "CORRUPT" in out

    def test_runs_verify_detects_truncation(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._make_run(run_dir) == 0
        capsys.readouterr()
        checkpoint = run_dir / "checkpoint.jsonl"
        raw = checkpoint.read_bytes()
        checkpoint.write_bytes(raw[:-9])  # SIGKILL-style torn tail
        assert main(["runs", "verify", str(run_dir)]) == 0  # warning, not error
        out = capsys.readouterr().out
        assert "torn tail" in out


class TestTraces:
    def test_stats_reports_what_the_tier_holds(self, tmp_path, capsys):
        from repro.algorithms.registry import get_algorithm
        from repro.cache import tracestore
        from repro.cache.replay import compile_trace
        from repro.model.machine import preset

        alg = get_algorithm("shared-opt")(preset("q32"), 6, 6, 6)
        trace = compile_trace(alg, directives=False)
        assert tracestore.store(tmp_path, alg.schedule_key(), trace)
        assert main(["traces", "stats", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "schema", "root", "entries", "fmas", "bytes", "directive_entries"
        }
        assert payload["schema"] == 2
        assert (payload["entries"], payload["fmas"]) == (1, len(trace))
        assert main(["traces", "stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "session" not in out


class TestFigure:
    def test_figure_fig4(self, capsys):
        assert main(["figure", "fig4", "--orders", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "Formula" in out

    def test_figure_csv_output(self, tmp_path, capsys):
        code = main(
            ["figure", "fig4", "--orders", "8", "--csv", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "fig4a.csv").exists()

    def test_fig12_rejects_several_orders(self, capsys):
        # Fig. 12 sweeps the bandwidth ratio at one order; a second
        # order must not be dropped silently.
        assert main(["figure", "fig12", "--orders", "4", "6"]) == 2
        assert "got --orders 4 6" in capsys.readouterr().err

    def test_fig12_defaults_to_the_papers_order(self, capsys):
        # Past the replay bound every cell runs on step, in about a second.
        assert main(["figure", "fig12"]) == 0
        assert "Cache bandwidth impact on Tdata (order 384)" in capsys.readouterr().out


class TestVerify:
    def test_verify(self, capsys):
        assert main(["verify", "tradeoff", "--preset", "q32", "-m", "8"]) == 0
        assert "passed" in capsys.readouterr().out


class TestTables:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "977" in out and "lambda" in out


class TestAnalyze:
    def test_analyze_basic(self, capsys):
        assert main(["analyze", "shared-opt", "--preset", "q32", "-m", "8"]) == 0
        out = capsys.readouterr().out
        assert "distributed[0]" in out
        assert "shared (alone)" in out

    def test_analyze_curve(self, capsys):
        assert main(
            ["analyze", "shared-opt", "--preset", "q32", "-m", "6", "--curve"]
        ) == 0
        assert "miss curve" in capsys.readouterr().out

    def test_analyze_extra_algorithm(self, capsys):
        assert main(["analyze", "cannon", "--preset", "q32", "-m", "6"]) == 0


class TestCheck:
    def test_single_cell_clean(self, capsys):
        code = main(["check", "--algorithm", "shared-opt", "--machine", "q32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out and "clean" in out

    def test_filters_multiply(self, capsys):
        code = main(
            [
                "check",
                "--algorithm", "shared-opt", "--algorithm", "cannon",
                "--machine", "q32", "--machine", "q64",
            ]
        )
        assert code == 0

    def test_explicit_orders(self, capsys):
        code = main(
            ["check", "--algorithm", "cannon", "--machine", "q32",
             "--orders", "4", "6"]
        )
        assert code == 0
        assert "2 schedule cells" in capsys.readouterr().out

    def test_lint_flag(self, capsys):
        code = main(
            ["check", "--algorithm", "shared-opt", "--machine", "q32", "--lint"]
        )
        assert code == 0
        assert (
            "source scan (lint/determinism): 0 finding(s)"
            in capsys.readouterr().out
        )

    def test_json_output(self, capsys):
        code = main(
            ["check", "--algorithm", "tradeoff", "--machine", "q32",
             "--lint", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["lint"] == []
        report = payload["reports"][0]
        assert report["algorithm"] == "tradeoff"
        assert report["findings"] == []
        assert report["computes"] == report["m"] * report["n"] * report["z"]

    def test_lint_overlapped_with_matrix_on_multicore(self, capsys, monkeypatch):
        # Given a second core, the source scan runs in a worker process
        # concurrently with the schedule matrix.  1-CPU hosts never take
        # that branch, so force it: the scan must stay clean there too.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        code = main(
            ["check", "--lint", "--json", "--algorithm", "tradeoff",
             "--machine", "q32"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["lint"] == []

    def test_unknown_algorithm_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--algorithm", "nope"])

    def test_json_schema_versioned_with_cell_accounting(self, capsys):
        code = main(
            ["check", "--algorithm", "cannon", "--machine", "q32",
             "--orders", "4", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 6
        assert payload["checker_version"] == 7
        assert payload["cells"] == {"analyzed": 1, "skipped": 0}
        assert "suppressed" not in payload
        assert "gap" not in payload
        assert payload["elapsed_s"] > 0
        report = payload["reports"][0]
        assert report["status"] == "analyzed"
        assert report["elapsed_s"] > 0
        assert "cached" not in report
        assert "gap" not in report

    def test_list_rules_json_schema(self, capsys):
        assert main(["check", "--list-rules", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        assert len(payload["rules"]) == 32
        for rule in payload["rules"]:
            assert set(rule) == {"id", "severity", "tier", "help"}
        assert {rule["tier"] for rule in payload["rules"]} == {
            "schedule", "lint", "determinism", "meta"
        }

    def test_json_cell_accounting_consistent_on_full_matrix(self, capsys):
        # analyzed + skipped must partition the reports, and skipped
        # entries must carry a reason and no findings.
        code = main(["check", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        cells = payload["cells"]
        assert cells["analyzed"] + cells["skipped"] == len(payload["reports"])
        for report in payload["reports"]:
            if report["status"] == "skipped":
                assert report["skip_reason"]
                assert report["findings"] == []

    def test_sarif_export(self, capsys, tmp_path):
        out = tmp_path / "check.sarif"
        code = main(
            ["check", "--algorithm", "cannon", "--machine", "q64",
             "--sarif", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["tool"]["driver"]["name"] == "repro-mmm-check"
        assert payload["runs"][0]["results"] == []  # clean matrix

    def test_orders_below_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--algorithm", "shared-opt", "--machine", "q32",
                  "--orders", "0"])
        assert exc.value.code == 2
        assert "--orders" in capsys.readouterr().err

    def test_run_that_analyzes_nothing_fails(self, capsys, monkeypatch):
        def infeasible(cls, machine):
            raise ReproError("no feasible parameters")

        monkeypatch.setattr(check_runner, "suggested_orders", infeasible)
        code = main(["check", "--algorithm", "shared-opt", "--machine", "q32"])
        assert code == 2
        captured = capsys.readouterr()
        assert "0 schedule cells analyzed" in captured.out
        assert "1 infeasible cell(s) skipped" in captured.out
        assert captured.err == "error: no schedule cell was analyzed\n"

    def test_broken_pipe_exits_like_sigpipe(self):
        # `repro-mmm check --json | head -1`: the reader is gone before
        # the CLI writes.  Exit 128 + SIGPIPE, with no traceback.
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "check", "--algorithm",
                 "cannon", "--machine", "q32", "--orders", "4", "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        stderr = proc.stderr.decode()
        assert proc.returncode == 141, stderr
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr


class TestLU:
    def test_lu_counts(self, capsys):
        assert main(["lu", "--preset", "q32", "-n", "12"]) == 0
        out = capsys.readouterr().out
        assert "right-looking-lu" in out and "left-looking-lu" in out

    def test_lu_verify(self, capsys):
        assert main(["lu", "--preset", "q32", "-n", "8", "--verify"]) == 0
        assert "verification passed" in capsys.readouterr().out


class TestBench:
    @staticmethod
    def _fake_report(path, median):
        import json

        path.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {
                            "fullname": "bench_x.py::bench_one",
                            "stats": {
                                "median": median,
                                "iqr": median / 10,
                                "mean": median,
                                "stddev": median / 8,
                                "rounds": 10,
                            },
                        }
                    ]
                }
            )
        )

    def test_from_json_records(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        self._fake_report(report, 0.1)
        out = tmp_path / "BENCH_test.json"
        code = main(["bench", "--from-json", str(report), "--out", str(out)])
        assert code == 0
        assert "recorded 1 benchmarks" in capsys.readouterr().out
        import json

        record = json.loads(out.read_text())
        assert record["benchmarks"]["bench_x.py::bench_one"]["median_s"] == 0.1

    def test_baseline_pass_and_regression(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        out = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        self._fake_report(report, 0.1)
        assert (
            main(
                [
                    "bench",
                    "--from-json",
                    str(report),
                    "--out",
                    str(out),
                    "--write-baseline",
                    str(baseline),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # within threshold
        self._fake_report(report, 0.11)
        args = [
            "bench",
            "--from-json",
            str(report),
            "--out",
            str(out),
            "--baseline",
            str(baseline),
        ]
        assert main(args) == 0
        assert "no regressions" in capsys.readouterr().out
        # beyond threshold -> exit 1
        self._fake_report(report, 0.2)
        assert main(args) == 1
        assert "regression(s)" in capsys.readouterr().out

    def test_bad_report_is_cli_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("{}")
        code = main(["bench", "--from-json", str(report)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
