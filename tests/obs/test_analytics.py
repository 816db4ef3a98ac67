"""Tests for trajectory analytics and trend verdicts (repro.obs.analytics)."""

import json
import os
import shutil

import pytest

from repro.exceptions import BaselineError
from repro.obs.analytics import (
    FLAT,
    IMPROVED,
    METRICS,
    REGRESSED,
    SeriesKey,
    TrajectoryStore,
    analyze,
    discover_bench_files,
    judge,
    load_bench_file,
    record_metric_value,
    shape_fingerprint,
    theorem3_case,
)
from repro.obs.ledger import Ledger

from .test_ledger import make_record

#: Real ``benchmarks/e2e/run.py --seed 0`` output: the sweep-data
#: describe and result lines, then the all-workload summary line.
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "sweep_data_seed0.jsonl")


def fixture_lines():
    with open(FIXTURE) as fh:
        return [json.loads(line) for line in fh]


def write_bench(directory, pr, lines) -> str:
    """Write ``lines`` (JSON objects) as ``BENCH_pr<pr>.jsonl``."""
    path = os.path.join(str(directory), f"BENCH_pr{pr}.jsonl")
    with open(path, "w") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)
    return path


def with_ops_per_s(value):
    """The fixture's lines with the result line's ops_per_s replaced."""
    describe, result, summary = fixture_lines()
    result["metrics"]["ops_per_s"]["value"] = value
    return [describe, result, summary]


class TestKeys:
    def test_shape_fingerprint(self):
        assert shape_fingerprint((48, 48, 48), 64) == "48x48x48:P64"

    def test_theorem3_case_matches_classifier(self):
        # The paper's regimes: tiny P is 1D, balanced cube at P=64 is 3D.
        assert theorem3_case((4096, 64, 64), 4) == "1D"
        assert theorem3_case((48, 48, 48), 64) == "3D"

    def test_series_keys_sort_deterministically(self):
        a = SeriesKey("alg1", "data", "3D", "48x48x48:P64")
        b = SeriesKey("alg1", "data", "1D", "4096x64x64:P4")
        assert sorted([a, b]) == [b, a]


class TestRecordMetricValue:
    def test_reads_each_tracked_metric(self):
        rec = make_record()
        assert record_metric_value(rec, "words") == rec.words
        assert record_metric_value(rec, "attainment") == rec.attainment
        assert record_metric_value(rec, "skew_ratio") == rec.skew.ratio

    def test_skewless_record_yields_none(self):
        assert record_metric_value(make_record(skew=None), "skew_ratio") is None

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            record_metric_value(make_record(), "rounds")

    def test_wall_clock_is_not_a_trend_metric(self):
        # Ledger records keep their wall_clock field, but one host's
        # timings across commits are not a model count to judge.
        assert "wall_clock" not in METRICS
        with pytest.raises(ValueError, match="unknown metric"):
            record_metric_value(make_record(), "wall_clock")


class TestDetectTrend:
    """:func:`judge`: the newest sample against the one before it."""

    def test_flags_a_2x_regression(self):
        verdict, change = judge(1.0, 2.0)
        assert verdict == REGRESSED
        assert change == pytest.approx(1.0)

    def test_flags_an_improvement(self):
        assert judge(2.0, 1.0)[0] == IMPROVED

    def test_insufficient_history_is_flat(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        ledger.append(make_record(words=400.0))
        [verdict] = analyze(TrajectoryStore.collect(ledger.path),
                            metrics=("words",)).verdicts
        assert verdict.verdict == FLAT and len(verdict.samples) == 1
        assert "one sample" in verdict.render()

    def test_exact_metrics_trip_on_any_drift(self):
        assert judge(324.0, 325.0)[0] == REGRESSED
        assert judge(324.0, 324.0) == (FLAT, 0.0)

    def test_higher_is_better_with_a_bound(self):
        # PR 22's sweep-data step: ops_per_s 92.4 -> 158.2 (+71%).
        assert judge(92.4, 158.2, "higher", 0.25)[0] == IMPROVED
        assert judge(158.2, 92.4, "higher", 0.25)[0] == REGRESSED
        assert judge(100.0, 120.0, "higher", 0.25)[0] == FLAT
        assert judge(100.0, 120.0, "lower", 0.25)[0] == FLAT


class TestTrajectoryStore:
    def test_groups_by_algorithm_case_and_shape(self):
        store = TrajectoryStore()
        store.add_record(make_record())
        store.add_record(make_record(shape=(4096, 64, 64), P=4))
        keys = store.keys()
        assert [k.case for k in keys] == ["1D", "3D"]
        assert all(k.algorithm == "alg1" for k in keys)

    def test_fault_injected_records_skipped_by_default(self):
        store = TrajectoryStore()
        kept = store.add_record(
            make_record(faults={"injected": 2, "retries": 2}))
        assert not kept and len(store) == 0
        assert TrajectoryStore(include_faulty=True).add_record(
            make_record(faults={"injected": 2}))

    def test_series_are_time_ordered(self):
        store = TrajectoryStore()
        store.add_record(make_record(timestamp=9.0, words=900.0))
        store.add_record(make_record(timestamp=1.0, words=100.0))
        [key] = store.keys()
        assert [p.value for p in store.series(key, "words")] == [100.0, 900.0]

    def test_collect_tolerates_missing_ledger(self, tmp_path):
        store = TrajectoryStore.collect(str(tmp_path / "absent.jsonl"))
        assert len(store) == 0


class TestAnalyze:
    def _store(self, tmp_path, words):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        for i, value in enumerate(words):
            ledger.append(make_record(timestamp=float(i), words=value))
        return TrajectoryStore.collect(ledger.path)

    def test_newest_words_change_is_a_regression(self, tmp_path):
        # Four records of 100 words, then 101: a rolling median over the
        # last three samples masked this; the newest sample must not.
        report = analyze(self._store(tmp_path, [100.0] * 4 + [101.0]))
        assert not report.ok
        [bad] = report.regressions
        assert bad.metric == "words" and bad.gating
        assert bad.change == pytest.approx(0.01)
        assert "TREND FAILED" in report.render()

    def test_only_the_newest_pair_is_judged(self, tmp_path):
        # A step that later samples held is history, not a verdict.
        report = analyze(self._store(tmp_path, [100.0, 101.0, 101.0]))
        assert report.ok

    def test_stable_history_is_ok(self, tmp_path):
        report = analyze(self._store(tmp_path, [324.0] * 7))
        assert report.ok
        assert report.counts("ledger")[FLAT] == len(report.verdicts)

    def test_model_metrics_trend_across_environments(self, tmp_path):
        # Model costs are environment-independent: drift on `words` is a
        # regression no matter where it was measured.
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        for i in range(5):
            words = 324.0 if i < 4 else 400.0
            ledger.append(make_record(
                timestamp=float(i), words=words,
                env={"machine": "a" if i < 4 else "b"},
            ))
        report = analyze(TrajectoryStore.collect(ledger.path),
                         metrics=("words",))
        assert [v.metric for v in report.regressions] == ["words"]

    def test_filters_by_algorithm_and_case(self, tmp_path):
        store = self._store(tmp_path, [324.0, 400.0])
        assert not analyze(store, algorithm="alg1").ok
        assert analyze(store, algorithm="other").ok
        assert analyze(store, case="1D").ok

    def test_report_round_trips_to_dict(self, tmp_path):
        report = analyze(self._store(tmp_path, [324.0] * 4))
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert len(data["verdicts"]) == len(report.verdicts)
        assert data["verdicts"][0]["samples"][0][1] == 324.0


class TestBenchFiles:
    """``BENCH_pr<N>.jsonl``: the harness's own JSON lines, committed."""

    def test_pairs_describe_and_result_and_skips_the_summary(self, tmp_path):
        describe, result, _summary = fixture_lines()
        shutil.copy(FIXTURE, tmp_path / "BENCH_pr31.jsonl")
        [run] = load_bench_file(str(tmp_path / "BENCH_pr31.jsonl"))
        assert (run.pr, run.workload, run.seed, run.trace) == (
            31, "sweep-data", 0, 0)
        assert run.correct and run.env == describe["env"]
        ops = run.metrics["ops_per_s"]
        assert ops["value"] == result["metrics"]["ops_per_s"]["value"]
        assert (ops["unit"], ops["better"], ops["bound"]) == (
            "ops/s", "higher", 0.25)

    def test_pr22_sweep_data_step_is_reported_improved(self, tmp_path):
        write_bench(tmp_path, 21, with_ops_per_s(92.4))
        write_bench(tmp_path, 22, with_ops_per_s(158.2))
        runs = [run for path in discover_bench_files(str(tmp_path))
                for run in load_bench_file(path)]
        report = analyze(TrajectoryStore(), runs)
        [step] = [v for v in report.verdicts if v.verdict != FLAT]
        assert (step.series, step.metric, step.verdict) == (
            "sweep-data", "ops_per_s", IMPROVED)
        assert step.samples == (("pr21", 92.4), ("pr22", 158.2))
        assert not step.gating and report.ok

    def test_harness_regressions_do_not_gate(self, tmp_path):
        write_bench(tmp_path, 21, with_ops_per_s(158.2))
        write_bench(tmp_path, 22, with_ops_per_s(92.4))
        runs = [run for path in discover_bench_files(str(tmp_path))
                for run in load_bench_file(path)]
        report = analyze(TrajectoryStore(), runs)
        assert report.counts("bench")[REGRESSED] == 1
        assert report.ok and "not gated" in report.render()

    def test_points_never_cross_env_fingerprints(self, tmp_path):
        write_bench(tmp_path, 21, with_ops_per_s(92.4))
        lines = with_ops_per_s(158.2)
        lines[0]["env"]["machine"] = "aarch64"
        write_bench(tmp_path, 22, lines)
        runs = [run for path in discover_bench_files(str(tmp_path))
                for run in load_bench_file(path)]
        assert all(v.verdict == FLAT
                   for v in analyze(TrajectoryStore(), runs).verdicts)

    def test_incorrect_run_fails_the_report(self, tmp_path):
        describe, result, summary = fixture_lines()
        result.update(correct=False, failed=1)
        path = write_bench(tmp_path, 31, [describe, result, summary])
        report = analyze(TrajectoryStore(), load_bench_file(path))
        assert not report.ok
        [failure] = report.failures
        assert "sweep-data seed 0" in failure and "1/626" in failure

    def test_describe_line_without_result_is_baseline_error(self, tmp_path):
        describe, _result, summary = fixture_lines()
        for lines in ([describe], [describe, describe]):
            path = write_bench(tmp_path, 31, lines)
            with pytest.raises(BaselineError, match="no result line"):
                load_bench_file(path)
        # The summary line repeats every workload's metrics under
        # prefixed names, so it cannot stand in for a result line.
        path = write_bench(tmp_path, 31, [describe, summary])
        with pytest.raises(BaselineError, match="malformed"):
            load_bench_file(path)

    @pytest.mark.parametrize("text", ["{broken\n", "[1, 2]\n", '{"x": 1}\n'],
                             ids=["not-json", "not-an-object", "neither-line"])
    def test_malformed_lines_are_baseline_errors(self, tmp_path, text):
        path = tmp_path / "BENCH_pr31.jsonl"
        path.write_text(text)
        with pytest.raises(BaselineError):
            load_bench_file(str(path))

    def test_missing_or_misnamed_file_is_baseline_error(self, tmp_path):
        with pytest.raises(BaselineError, match="cannot read"):
            load_bench_file(str(tmp_path / "BENCH_pr9.jsonl"))
        shutil.copy(FIXTURE, tmp_path / "BENCH_x.jsonl")
        with pytest.raises(BaselineError, match="BENCH_pr<N>"):
            load_bench_file(str(tmp_path / "BENCH_x.jsonl"))

    def test_discovery_orders_by_pr_number(self, tmp_path):
        for pr in (31, 4, 100):
            shutil.copy(FIXTURE, tmp_path / f"BENCH_pr{pr}.jsonl")
        (tmp_path / "BENCH_notes.jsonl").write_text("")
        names = [os.path.basename(p)
                 for p in discover_bench_files(str(tmp_path))]
        assert names == ["BENCH_pr4.jsonl", "BENCH_pr31.jsonl",
                         "BENCH_pr100.jsonl"]


class TestCommittedArtifacts:
    """The committed history must stay green (the CI trend gate)."""

    def test_committed_trajectory_has_no_regressions(self):
        from repro.obs.ledger import repo_root

        ledger_path = os.path.join(repo_root(), "repro_ledger.jsonl")
        store = TrajectoryStore.collect(
            ledger_path if os.path.exists(ledger_path) else None)
        runs = [run for path in discover_bench_files()
                for run in load_bench_file(path)]
        report = analyze(store, runs)
        assert report.ok, [v.render() for v in report.regressions] + \
            report.failures

    def test_committed_bench_file_covers_every_workload_both_ways(self):
        from repro.obs.ledger import repo_root

        with open(os.path.join(repo_root(), "BENCHMARK.json")) as fh:
            workloads = {w["name"] for w in json.load(fh)["workloads"]}
        paths = discover_bench_files()
        assert paths
        runs = load_bench_file(paths[-1])
        assert {(r.workload, r.trace) for r in runs} == {
            (w, t) for w in workloads for t in (0, 1)}
        assert all(r.correct and r.seed == 0 for r in runs)

    def test_every_metric_is_collected_from_the_committed_ledger(self):
        from repro.obs.ledger import repo_root

        path = os.path.join(repo_root(), "repro_ledger.jsonl")
        if not os.path.exists(path):
            pytest.skip("no committed ledger in this checkout")
        store = TrajectoryStore.collect(path)
        assert store.keys()
        collected = {
            metric
            for key in store.keys()
            for metric in METRICS
            if store.series(key, metric)
        }
        assert collected == set(METRICS)
