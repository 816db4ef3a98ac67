"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for argv in (
            ["bounds", "4", "4", "4", "-p", "2"],
            ["grid", "4", "4", "4", "-p", "2"],
            ["run", "4", "4", "4", "-p", "2"],
            ["table1"],
            ["fig2"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBounds:
    def test_basic(self, capsys):
        assert main(["bounds", "9600", "2400", "600", "-p", "512"]) == 0
        out = capsys.readouterr().out
        assert "270000" in out
        assert "3D" in out

    def test_with_memory(self, capsys):
        assert main(["bounds", "512", "512", "512", "-p", "4096", "-m", "8000"]) == 0
        out = capsys.readouterr().out
        assert "memory_dependent" in out or "memory_independent" in out

    def test_memory_too_small(self, capsys):
        assert main(["bounds", "512", "512", "512", "-p", "4", "-m", "10"]) == 1
        assert "cannot hold" in capsys.readouterr().out


class TestGrid:
    def test_figure2(self, capsys):
        assert main(["grid", "9600", "2400", "600", "-p", "512"]) == 0
        out = capsys.readouterr().out
        assert "32x8x2" in out


class TestRun:
    def test_small_run(self, capsys):
        assert main(["run", "96", "24", "6", "-p", "16"]) == 0
        out = capsys.readouterr().out
        assert "numerically correct: True" in out
        assert "tight: True" in out

    def test_reports_attainment(self, capsys):
        assert main(["run", "96", "24", "6", "-p", "16"]) == 0
        out = capsys.readouterr().out
        assert "attainment: TWO_D regime" in out
        assert "1.000000000" in out

    def test_memory_flag_adds_memory_dependent_gauge(self, capsys):
        assert main(["run", "48", "48", "48", "-p", "64", "-m", "600"]) == 0
        out = capsys.readouterr().out
        assert "memory-dependent bound (M=600)" in out

    def test_trace_and_metrics_exports(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        assert main([
            "run", "96", "24", "6", "-p", "16",
            "--trace", str(trace), "--metrics", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote Chrome trace" in out
        assert "JSON-lines records" in out
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        assert payload["otherData"]["attainment"]["attains"] is True
        lines = [json.loads(ln) for ln in metrics.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[-1]["type"] == "summary"


class TestInspect:
    def test_round_trip_through_files(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        assert main(["run", "96", "24", "6", "-p", "16",
                     "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "per-rank counters" in out
        assert "bound attainment" in out
        assert "TWO_D" in out

    def test_missing_file_exits_2(self, capsys):
        assert main(["inspect", "/nonexistent/trace.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_jsonl_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "trace.json"
        bad.write_text("{\n 'not': 'jsonl'\n}\n")
        assert main(["inspect", str(bad)]) == 2
        assert "not a JSON-lines trace" in capsys.readouterr().err


class TestRunErrors:
    def test_memory_too_small_fails_cleanly(self, capsys):
        assert main(["run", "48", "48", "48", "-p", "64", "-m", "100"]) == 1
        err = capsys.readouterr().err
        assert "run aborted" in err
        assert "--memory" in err

    def test_unwritable_export_path_exits_2(self, capsys):
        assert main(["run", "96", "24", "6", "-p", "16",
                     "--trace", "/nonexistent-dir/t.json"]) == 2
        assert "cannot write export" in capsys.readouterr().err


class TestArtifacts:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "32x8x2" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "(1,3,1)" in out

    def test_lemma2(self, capsys):
        assert main(["lemma2"]) == 0
        out = capsys.readouterr().out
        assert "x1*" in out

    def test_crossover(self, capsys):
        assert main(["crossover"]) == 0
        out = capsys.readouterr().out
        assert "binding" in out


class TestLedgerCommand:
    def populate(self, tmp_path):
        """Two sweep runs -> two ledger records; returns the ledger path."""
        path = tmp_path / "repro_ledger.jsonl"
        for label in ("one", "two"):
            assert main([
                "sweep", "--shapes", "64x16x4", "--procs", "2",
                "--algorithms", "alg1", "--ledger", str(path),
                "--label", label,
            ]) == 0
        return path

    def test_list_tabulates_records(self, tmp_path, capsys):
        path = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "list", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "algorithm" in out
        assert "alg1" in out
        assert "one" in out and "two" in out

    def test_list_filters_by_label_and_limit(self, tmp_path, capsys):
        path = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "list", "--path", str(path),
                     "--label", "two", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "two" in out
        assert " one " not in out

    def test_show_prints_full_record(self, tmp_path, capsys):
        path = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "show", "0", "--path", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema_version"] == 1
        assert record["algorithm"] == "alg1"
        assert record["label"] == "one"

    def test_diff_reports_agreement_on_model_fields(self, tmp_path, capsys):
        path = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "diff", "0", "1", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        # Model costs agree between identical runs; label/wall differ.
        assert "words" not in out
        assert "label: one -> two" in out

    def test_missing_ledger_lists_as_empty(self, tmp_path, capsys):
        assert main(["ledger", "list",
                     "--path", str(tmp_path / "none.jsonl")]) == 0
        assert "no matching records" in capsys.readouterr().out

    def test_corrupt_ledger_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["ledger", "list", "--path", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot read ledger" in err
        assert "Traceback" not in err

    def test_show_out_of_range_index_exits_2(self, tmp_path, capsys):
        path = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "show", "99", "--path", str(path)]) == 2
        assert "no record 99" in capsys.readouterr().err


class TestRunBackendFlag:
    def test_symbolic_run_skips_numeric_check(self, capsys):
        assert main(["run", "96", "24", "6", "-p", "16",
                     "--backend", "symbolic"]) == 0
        out = capsys.readouterr().out
        assert "backend symbolic" in out
        assert "numerically correct: skipped" in out
        assert "tight: True" in out

    def test_symbolic_matches_data_words(self, capsys):
        assert main(["run", "96", "24", "6", "-p", "16"]) == 0
        data_out = capsys.readouterr().out
        assert main(["run", "96", "24", "6", "-p", "16",
                     "--backend", "symbolic"]) == 0
        sym_out = capsys.readouterr().out
        pick = lambda text: next(
            line for line in text.splitlines()
            if line.startswith("measured words")
        )
        assert pick(sym_out) == pick(data_out)


class TestLedgerMixedBackendDiff:
    def populate_mixed(self, tmp_path):
        """One data record and one symbolic record of the same point."""
        from repro.analysis.sweep import sweep
        from repro.core.shapes import ProblemShape
        from repro.obs.ledger import Ledger

        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        shape = ProblemShape(48, 48, 48)
        sweep([shape], [64], algorithms=["alg1"], ledger=ledger, label="d")
        sweep([shape], [64], algorithms=["alg1"], backend="symbolic",
              ledger=ledger, label="s")
        return path

    def test_refuses_cross_backend_diff(self, tmp_path, capsys):
        path = self.populate_mixed(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "diff", "0", "1", "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert "different backends" in err
        assert "--allow-mixed" in err

    def test_allow_mixed_compares_and_agrees_on_model_costs(
        self, tmp_path, capsys
    ):
        path = self.populate_mixed(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "diff", "0", "1", "--path", str(path),
                     "--allow-mixed"]) == 0
        out = capsys.readouterr().out
        assert "backend: data -> symbolic" in out
        # Model costs are identical across backends by construction.
        assert "words" not in out
        assert "flops" not in out

    def test_same_backend_diff_needs_no_flag(self, tmp_path, capsys):
        from repro.analysis.sweep import sweep
        from repro.core.shapes import ProblemShape
        from repro.obs.ledger import Ledger

        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        shape = ProblemShape(48, 48, 48)
        for label in ("a", "b"):
            sweep([shape], [64], algorithms=["alg1"], backend="symbolic",
                  ledger=ledger, label=label)
        capsys.readouterr()
        assert main(["ledger", "diff", "0", "1", "--path", str(path)]) == 0


class TestChaosCommand:
    ARGS = ["chaos", "--algorithms", "alg1", "--seeds", "2",
            "--schedules", "drop-retry,rank-failure"]

    def test_quadchotomy_matrix_passes(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "quadchotomy" in out
        assert "rank-failed" in out

    def test_json_report_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "chaos.json"
        assert main(self.ARGS + ["--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["ok"] is True
        assert all(row["algorithm"] == "alg1" for row in data["rows"])

    def test_unknown_schedule_rejected(self, capsys):
        capsys.readouterr()
        assert main(["chaos", "--schedules", "lightning"]) == 2
        assert "unknown schedule" in capsys.readouterr().err

    def test_nonpositive_seed_count_rejected(self, capsys):
        capsys.readouterr()
        assert main(["chaos", "--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_ledger_records_appended(self, tmp_path, capsys):
        from repro.obs.ledger import Ledger

        path = tmp_path / "ledger.jsonl"
        assert main(self.ARGS + ["--ledger", str(path)]) == 0
        records = Ledger(str(path)).records()
        assert records
        assert all(rec.kind == "chaos" for rec in records)

    def test_symbolic_backend_matrix_passes(self, capsys):
        assert main(self.ARGS + ["--backend", "symbolic"]) == 0


class TestSurviveCommand:
    ARGS = ["survive", "--algorithms", "alg1,alg1_abft"]

    def test_report_passes_and_names_the_verdict(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "overhead = recovery words / Theorem 3 bound" in out
        assert "every cell survived a rank death" in out

    def test_json_report_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "survive.json"
        assert main(self.ARGS + ["--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["ok"] is True
        assert {row["algorithm"] for row in data["rows"]} == {
            "alg1", "alg1_abft"
        }

    def test_negative_workers_rejected(self, capsys):
        capsys.readouterr()
        assert main(self.ARGS + ["--workers", "-1"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_negative_rank_rejected(self, capsys):
        capsys.readouterr()
        assert main(self.ARGS + ["--rank", "-1"]) == 2
        assert "--rank" in capsys.readouterr().err


class TestLedgerFaultyDiff:
    def populate(self, tmp_path):
        """Record 0: fault-free; record 1: fault-injected, same point."""
        from repro.analysis.chaos import run_chaos
        from repro.analysis.sweep import sweep
        from repro.core.shapes import ProblemShape
        from repro.obs.ledger import Ledger

        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        sweep([ProblemShape(32, 32, 4)], [16], algorithms=["alg1"],
              ledger=ledger, label="clean")
        run_chaos(algorithms=["alg1"], seeds=(0,), schedules=["drop-retry"],
                  ledger=ledger, label="faulty")
        records = ledger.records()
        faulty = next(
            i for i, rec in enumerate(records)
            if rec.fault_injected and tuple(rec.shape) == (32, 32, 4)
        )
        return path, 0, faulty

    def test_faulty_vs_clean_warns_but_exits_zero(self, tmp_path, capsys):
        path, clean, faulty = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "diff", str(clean), str(faulty),
                     "--path", str(path)]) == 0
        captured = capsys.readouterr()
        assert "fault-injected" in captured.err
        assert "--allow-faulty" in captured.err

    def test_allow_faulty_silences_the_warning(self, tmp_path, capsys):
        path, clean, faulty = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "diff", str(clean), str(faulty),
                     "--path", str(path), "--allow-faulty"]) == 0
        assert "fault-injected" not in capsys.readouterr().err

    def test_two_faulty_records_do_not_warn(self, tmp_path, capsys):
        from repro.analysis.chaos import run_chaos
        from repro.obs.ledger import Ledger

        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        for label in ("a", "b"):
            run_chaos(algorithms=["alg1"], seeds=(0,),
                      schedules=["drop-retry"], ledger=ledger, label=label)
        records = ledger.records()
        pair = [i for i, rec in enumerate(records) if rec.fault_injected][:2]
        capsys.readouterr()
        assert main(["ledger", "diff", str(pair[0]), str(pair[1]),
                     "--path", str(path)]) == 0
        assert "fault-injected" not in capsys.readouterr().err


class TestLedgerDiffExitContract:
    """Pin the documented exit-code contract of ``ledger diff``.

    0 = the comparison ran (even if it found differences, even with the
    fault warning); 2 = usage error (unreadable ledger, bad index, mixed
    backends without --allow-mixed).  Never 1: a diff has no "failure".
    """

    def populate_differing(self, tmp_path):
        """Two records whose model costs genuinely differ."""
        from repro.analysis.sweep import sweep
        from repro.core.shapes import ProblemShape
        from repro.obs.ledger import Ledger

        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        sweep([ProblemShape(32, 32, 4)], [16], algorithms=["alg1"],
              ledger=ledger, label="small")
        sweep([ProblemShape(64, 64, 8)], [16], algorithms=["alg1"],
              ledger=ledger, label="large")
        return path

    def test_diff_with_differences_still_exits_zero(self, tmp_path, capsys):
        path = self.populate_differing(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "diff", "0", "1", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "words" in out  # the difference was reported...
        # ...and reporting it is success, not failure.

    def test_diff_out_of_range_index_exits_2(self, tmp_path, capsys):
        path = self.populate_differing(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "diff", "0", "99", "--path", str(path)]) == 2
        assert "no record 99" in capsys.readouterr().err

    def test_diff_unreadable_ledger_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["ledger", "diff", "0", "1", "--path", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot read ledger" in err
        assert "Traceback" not in err


class TestRunOracle:
    def test_oracle_prediction_exits_zero(self, capsys):
        assert main(["run", "96", "24", "6", "-p", "16", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "engine oracle" in out
        assert "predicted words" in out
        assert "tight: True" in out

    def test_oracle_matches_simulated_words(self, capsys):
        assert main(["run", "96", "24", "6", "-p", "16"]) == 0
        simulated = capsys.readouterr().out
        assert main(["run", "96", "24", "6", "-p", "16", "--oracle"]) == 0
        predicted = capsys.readouterr().out
        sim_words = next(l for l in simulated.splitlines() if "words" in l)
        pred_words = next(
            l for l in predicted.splitlines() if "predicted words" in l
        )
        # both lines carry the same %g-formatted word count
        sim_value = sim_words.split("words:")[1].split()[0]
        pred_value = pred_words.split("words:")[1].split()[0]
        assert sim_value == pred_value

    def test_oracle_rejects_machine_flags(self, tmp_path, capsys):
        assert main(["run", "96", "24", "6", "-p", "16", "--oracle",
                     "--trace", str(tmp_path / "t.json")]) == 2
        assert "no machine" in capsys.readouterr().err

    def test_oracle_unsupported_configuration_exits_1(self, capsys):
        assert main(["run", "7", "5", "3", "-p", "4", "--oracle"]) == 1
        err = capsys.readouterr().err
        assert "cannot predict" in err
        assert "drop --oracle" in err


class TestWorkersFlag:
    def test_chaos_rejects_negative_workers(self, capsys):
        assert main(["chaos", "--workers", "-1"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_chaos_accepts_explicit_workers(self, capsys):
        assert main(["chaos", "--algorithms", "alg1", "--seeds", "1",
                     "--schedules", "drop-retry", "--workers", "2"]) == 0
        assert "quadchotomy" in capsys.readouterr().out


SMALL_SWEEP = ["sweep", "--shapes", "16x16x16,32x8x4", "--procs", "4"]


class TestSweepCommand:
    def test_prints_record_table(self, capsys):
        assert main(SMALL_SWEEP) == 0
        out = capsys.readouterr().out
        assert "algorithm" in out and "attainment" in out
        assert "alg1" in out
        assert "records over 2 shape(s)" in out

    def test_rejects_bad_shape(self, capsys):
        assert main(["sweep", "--shapes", "16x16"]) == 2
        assert "N1xN2xN3" in capsys.readouterr().err

    def test_rejects_negative_workers(self, capsys):
        assert main(SMALL_SWEEP + ["--workers", "-1"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_ledger_append(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        assert main(SMALL_SWEEP + ["--ledger", str(path),
                                   "--label", "cli"]) == 0
        assert "appended" in capsys.readouterr().out
        from repro.obs.ledger import Ledger

        records = Ledger(path).records()
        assert records and all(r.label == "cli" for r in records)
        # Telemetry was off: no telemetry keys in the ledger bytes.
        assert "task_index" not in path.read_text()


class TestTelemetryFlags:
    def test_sweep_telemetry_prints_digest(self, capsys):
        assert main(SMALL_SWEEP + ["--workers", "2", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry: driver=sweep" in out
        assert "straggler skew" in out

    def test_sweep_trace_out_writes_merged_chrome_trace(self, tmp_path,
                                                        capsys):
        trace = tmp_path / "trace.json"
        assert main(SMALL_SWEEP + ["--workers", "2", "--telemetry",
                                   "--trace-out", str(trace)]) == 0
        assert "wrote merged Chrome trace" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert "stage" in cats and "task" in cats
        assert payload["otherData"]["driver"] == "sweep"

    def test_trace_out_implies_telemetry(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(SMALL_SWEEP + ["--trace-out", str(trace)]) == 0
        assert trace.exists()

    def test_sweep_profile_prints_hotspots(self, capsys):
        assert main(SMALL_SWEEP + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "by tottime" in out and "ncalls" in out

    def test_sweep_profile_out_writes_collapsed_stacks(self, tmp_path,
                                                       capsys):
        path = tmp_path / "folded.txt"
        assert main(SMALL_SWEEP + ["--profile-out", str(path)]) == 0
        assert "collapsed stacks" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert lines and all(line.rsplit(" ", 1)[1].isdigit()
                             for line in lines)

    def test_telemetry_out_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "telemetry.jsonl"
        assert main(SMALL_SWEEP + ["--telemetry-out", str(out_path)]) == 0
        from repro.obs import read_jsonl

        records = read_jsonl(str(out_path))
        assert records[0]["format"] == "repro-telemetry-v1"
        assert records[-1]["type"] == "summary"

    def test_progress_heartbeats_to_stderr(self, capsys):
        assert main(SMALL_SWEEP + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "2/2" in err

    def test_chaos_telemetry(self, capsys):
        assert main(["chaos", "--algorithms", "alg1", "--seeds", "1",
                     "--schedules", "duplicate", "--telemetry"]) == 0
        assert "telemetry: driver=chaos" in capsys.readouterr().out


class TestTrendCommand:
    """Exit contract: 0 = no regression (or no --check), 1 = a ledger
    regression or an incorrect harness run under --check, 2 = usage
    error."""

    def _ledger(self, tmp_path, words, **overrides):
        from repro.obs.ledger import Ledger

        from .obs.test_ledger import make_record

        ledger = Ledger(str(tmp_path / "repro_ledger.jsonl"))
        for i, value in enumerate(words):
            ledger.append(make_record(
                timestamp=float(i), words=value, **overrides))
        return str(tmp_path)

    def _bench(self, tmp_path, pr, edit=None):
        from .obs.test_analytics import fixture_lines, write_bench

        lines = fixture_lines()
        if edit is not None:
            edit(*lines)
        write_bench(tmp_path, pr, lines)
        return str(tmp_path)

    def test_committed_trajectory_is_green_under_check(self, capsys):
        # Acceptance: the repository's own artifacts must never trip the
        # gate (CI runs exactly this in its dashboard step).
        assert main(["trend", "--check"]) == 0
        assert "TREND OK" in capsys.readouterr().out

    def test_synthetic_2x_regression_fails_check(self, tmp_path, capsys):
        root = self._ledger(tmp_path, [324.0, 648.0])
        assert main(["trend", "--root", root, "--check"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "words" in out

    def test_newest_words_change_fails_check(self, tmp_path, capsys):
        # Four records of 100 words, then one of 101.
        root = self._ledger(tmp_path, [100.0] * 4 + [101.0])
        assert main(["trend", "--root", root, "--check"]) == 1
        assert "test 100 -> test 101 (+1.0%)" in capsys.readouterr().out

    def test_same_regression_without_check_reports_but_exits_0(
        self, tmp_path, capsys
    ):
        root = self._ledger(tmp_path, [324.0, 648.0])
        assert main(["trend", "--root", root]) == 0
        assert "REGRESSED" in capsys.readouterr().out

    def test_improvement_never_fails_check(self, tmp_path, capsys):
        root = self._ledger(tmp_path, [648.0, 324.0])
        assert main(["trend", "--root", root, "--check"]) == 0
        assert "IMPROVED" in capsys.readouterr().out

    def test_metric_filter_limits_the_analysis(self, tmp_path, capsys):
        root = self._ledger(tmp_path, [324.0, 648.0])
        assert main(["trend", "--root", root, "--check",
                     "--metric", "attainment"]) == 0

    def test_unknown_metric_is_usage_error(self, tmp_path, capsys):
        root = self._ledger(tmp_path, [324.0])
        assert main(["trend", "--root", root, "--metric", "rounds"]) == 2
        assert "unknown --metric rounds" in capsys.readouterr().err

    def test_json_output_round_trips(self, tmp_path, capsys):
        root = self._ledger(tmp_path, [324.0, 648.0])
        assert main(["trend", "--root", root, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["counts"]["ledger"]["regressed"] >= 1

    def test_all_lists_each_series_samples(self, tmp_path, capsys):
        from repro.obs.ledger import Ledger

        from .obs.test_ledger import make_record

        ledger = Ledger(str(tmp_path / "repro_ledger.jsonl"))
        for i, label in enumerate(["pr1", "pr2", "pr3"]):
            ledger.append(make_record(timestamp=1000.0 + i, label=label,
                                      words=324.0 + i))
        ledger.append(make_record(timestamp=1003.0, shape=(4096, 64, 64), P=4))
        assert main(["trend", "--root", str(tmp_path), "--all",
                     "--case", "3D"]) == 0
        out = capsys.readouterr().out
        assert "alg1/data case 3D 48x48x48:P64" in out and "1D" not in out
        assert out.index("pr1          324") < out.index("pr2          325") \
            < out.index("pr3          326")

    def test_faulty_records_skipped_unless_included(self, tmp_path, capsys):
        root = self._ledger(tmp_path, [324.0],
                            faults={"injected": 1, "retries": 1})
        assert main(["trend", "--root", root]) == 0
        assert "trend: 0 ledger trajectories" in capsys.readouterr().out
        assert main(["trend", "--root", root, "--include-faulty"]) == 0
        assert "trend: 3 ledger trajectories" in capsys.readouterr().out

    def test_pr22_step_reported_improved_but_not_gated(
        self, tmp_path, capsys
    ):
        def ops(value):
            return lambda _d, result, _s: result["metrics"]["ops_per_s"] \
                .update(value=value)

        self._bench(tmp_path, 21, ops(92.4))
        root = self._bench(tmp_path, 22, ops(158.2))
        assert main(["trend", "--root", root, "--check"]) == 0
        out = capsys.readouterr().out
        assert "[IMPROVED ] ops_per_s  sweep-data" in out
        assert "pr21 92.4 -> pr22 158.2 (+71.2%, bound 25%, not gated)" in out

    def test_incorrect_harness_run_fails_check(self, tmp_path, capsys):
        def incorrect(_describe, result, _summary):
            result.update(correct=False, failed=1)

        root = self._bench(tmp_path, 31, incorrect)
        assert main(["trend", "--root", root]) == 0
        assert main(["trend", "--root", root, "--check"]) == 1
        out = capsys.readouterr().out
        assert "FAILED RUN BENCH_pr31.jsonl: sweep-data" in out

    def test_describe_line_without_result_is_usage_error(
        self, tmp_path, capsys
    ):
        from .obs.test_analytics import fixture_lines, write_bench

        write_bench(tmp_path, 31, fixture_lines()[:1])
        for command in ("trend", "dashboard"):
            assert main([command, "--root", str(tmp_path)]) == 2
            assert "no result line" in capsys.readouterr().err

    def test_missing_root_is_usage_error(self, tmp_path, capsys):
        assert main(["trend", "--root", str(tmp_path / "none")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_malformed_ledger_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "repro_ledger.jsonl").write_text("{not json\n")
        assert main(["trend", "--root", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestDashboardCommand:
    def test_writes_single_self_contained_file(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert main(["dashboard", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        html = out.read_text().lower()
        for needle in ("http", "<script src", "<link", "@import",
                       "url(", "fetch("):
            assert needle not in html

    def test_dashboard_from_empty_artifacts_still_renders(
        self, tmp_path, capsys
    ):
        out = tmp_path / "dash.html"
        assert main(["dashboard", "--out", str(out),
                     "--root", str(tmp_path)]) == 0
        assert "0 samples and 0 harness runs" in capsys.readouterr().out
        assert out.exists()

    def test_malformed_ledger_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "repro_ledger.jsonl").write_text("{not json\n")
        assert main(["dashboard", "--out", str(tmp_path / "d.html"),
                     "--root", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestRunSemiring:
    def test_min_plus_run_verifies_tropically(self, capsys):
        assert main(["run", "16", "16", "16", "-p", "4",
                     "--semiring", "min_plus"]) == 0
        out = capsys.readouterr().out
        assert "semiring min_plus" in out
        assert "numerically correct: True" in out

    def test_default_is_plus_times(self, capsys):
        assert main(["run", "16", "16", "16", "-p", "4"]) == 0
        assert "semiring plus_times" in capsys.readouterr().out

    def test_unknown_semiring_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "16", "16", "16", "-p", "4",
                  "--semiring", "max_times"])


class TestApspCommand:
    def test_small_apsp_is_correct(self, capsys):
        assert main(["apsp", "--n", "16", "--P", "4"]) == 0
        out = capsys.readouterr().out
        assert "semiring min_plus" in out
        assert "correct=True" in out
        assert "4 squaring(s)" in out

    def test_acceptance_point(self, capsys):
        """The ISSUE acceptance run: n=64, P=16, fox_otto."""
        assert main(["apsp", "--n", "64", "--P", "16"]) == 0
        out = capsys.readouterr().out
        assert "algorithm fox_otto" in out
        assert "6 squaring(s)" in out
        assert "correct=True" in out
        # Every squaring sits within standard constants of the bound.
        from repro.workloads.apsp import random_digraph, run_apsp

        result = run_apsp(random_digraph(64), 16)
        assert 1.0 <= result.worst_attainment_ratio <= 4.0

    def test_no_verify_skips_reference(self, capsys):
        assert main(["apsp", "--n", "16", "--P", "4", "--no-verify"]) == 0
        assert "verification: skipped" in capsys.readouterr().out

    def test_alternate_algorithm(self, capsys):
        assert main(["apsp", "--n", "16", "--P", "4",
                     "--algorithm", "cannon"]) == 0
        assert "algorithm cannon" in capsys.readouterr().out

    def test_bad_order_is_usage_error(self, capsys):
        assert main(["apsp", "--n", "0", "--P", "4"]) == 2
        assert "bad apsp problem" in capsys.readouterr().err

    def test_unknown_algorithm_is_usage_error(self, capsys):
        assert main(["apsp", "--n", "16", "--P", "4",
                     "--algorithm", "nope"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err


class TestLedgerMixedSemiringDiff:
    def populate_mixed(self, tmp_path):
        """Same algorithm and point, one min_plus and one plus_times run."""
        from repro.analysis.sweep import sweep
        from repro.core.shapes import ProblemShape
        from repro.obs.ledger import Ledger

        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        shape = ProblemShape(16, 16, 16)
        sweep([shape], [4], algorithms=["cannon"], semiring="min_plus",
              ledger=ledger, label="tropical")
        sweep([shape], [4], algorithms=["cannon"], ledger=ledger,
              label="classical")
        return path

    def test_refuses_cross_semiring_diff(self, tmp_path, capsys):
        path = self.populate_mixed(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "diff", "0", "1", "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert "different semirings" in err
        assert "--allow-mixed" in err

    def test_allow_mixed_shows_semiring_and_model_cost_parity(
        self, tmp_path, capsys
    ):
        path = self.populate_mixed(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "diff", "0", "1", "--path", str(path),
                     "--allow-mixed"]) == 0
        out = capsys.readouterr().out
        assert "semiring: min_plus -> plus_times" in out
        # Costs are semiring-independent by construction.
        assert "words" not in out
        assert "flops" not in out

    def test_same_semiring_diff_needs_no_flag(self, tmp_path, capsys):
        from repro.analysis.sweep import sweep
        from repro.core.shapes import ProblemShape
        from repro.obs.ledger import Ledger

        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        shape = ProblemShape(16, 16, 16)
        for label in ("a", "b"):
            sweep([shape], [4], algorithms=["fox_otto"], ledger=ledger,
                  label=label)
        capsys.readouterr()
        assert main(["ledger", "diff", "0", "1", "--path", str(path)]) == 0


class TestBoundaryErrors:
    """Bad input ends in one stderr line and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["bounds", "8", "8", "8", "-p", "0"],
        ["bounds", "0", "8", "8", "-p", "4"],
        ["grid", "8", "8", "8", "-p", "0"],
        ["run", "8", "8", "8", "-p", "0"],
        ["sweep", "--shapes", "8x8x8", "--procs", "0"],
        ["plan", "8", "8", "8", "--procs", "0"],
        ["plan", "0", "8", "8", "--procs", "4"],
        ["plan", "8", "8", "8", "--procs", "4", "--json", "{missing}"],
        ["survive", "--algorithms", "nope"],
        ["sweep", "--shapes", "8x8x8", "--procs", "4", "--algorithms", "nope"],
        ["chaos", "--algorithms", "nope", "--seeds", "1"],
    ], ids=" ".join)
    def test_bad_input_is_one_line_usage_error(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "x.json")
        argv = [a.replace("{missing}", missing) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
