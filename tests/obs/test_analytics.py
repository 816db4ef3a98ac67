"""Tests for trajectory analytics and trend detection (repro.obs.analytics)."""

import pytest

from repro.obs.analytics import (
    FLAT,
    BenchEntry,
    BenchReport,
    IMPROVED,
    METRICS,
    REGRESSED,
    SeriesKey,
    TrajectoryStore,
    analyze,
    detect_trend,
    discover_bench_files,
    record_metric_value,
    rolling_median,
    shape_fingerprint,
    theorem3_case,
)
from repro.obs.ledger import Ledger
from repro.obs.metrics import RankSkew

from .test_ledger import make_record


def make_entry(**overrides) -> BenchEntry:
    base = dict(
        name="sweep alg1 48x48x48 P64",
        kind="sweep",
        wall_clock=0.05,
        algorithm="alg1",
        config="grid 4x4x4",
        shape=(48, 48, 48),
        P=64,
        words=324.0,
        rounds=9,
        flops=1728.0,
        bound=324.0,
        attainment=1.0,
        backend="data",
        skew=RankSkew(324.0, 324.0, 0, 1.0),
    )
    base.update(overrides)
    return BenchEntry(**base)


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
        assert record_metric_value(rec, "wall_clock") == rec.wall_clock
        assert record_metric_value(rec, "words") == rec.words
        assert record_metric_value(rec, "attainment") == rec.attainment
        assert record_metric_value(rec, "skew_ratio") == rec.skew.ratio

    def test_skewless_record_yields_none(self):
        assert record_metric_value(make_record(skew=None), "skew_ratio") is None

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            record_metric_value(make_record(), "rounds")


class TestRollingMedian:
    def test_trailing_windows(self):
        assert rolling_median([1, 2, 9, 2, 1], 3) == [1, 1.5, 2, 2, 2]

    def test_window_one_is_identity(self):
        assert rolling_median([3.0, 1.0], 1) == [3.0, 1.0]

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="window"):
            rolling_median([1.0], 0)


class TestDetectTrend:
    def test_flags_a_2x_regression(self):
        verdict, baseline, recent, change, cp = detect_trend(
            [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0],
            tolerance=0.20, floor=0.25,
        )
        assert verdict == REGRESSED
        assert baseline == 1.0 and recent == 2.0
        assert change == pytest.approx(1.0)
        assert cp is not None  # index of the first crossing

    def test_flags_an_improvement(self):
        verdict, *_ = detect_trend(
            [2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0],
            tolerance=0.20, floor=0.25,
        )
        assert verdict == IMPROVED

    def test_single_noisy_sample_does_not_trip(self):
        # Medians on both sides: one straggler inside the window is
        # outvoted by its neighbours.
        verdict, *_ = detect_trend(
            [1.0, 1.0, 1.0, 1.0, 5.0, 1.0, 1.0],
            tolerance=0.20, floor=0.25,
        )
        assert verdict == FLAT

    def test_insufficient_history_is_flat(self):
        verdict, baseline, recent, change, cp = detect_trend(
            [1.0, 2.0, 4.0], tolerance=0.20, window=3,
        )
        assert (verdict, baseline, recent, cp) == (FLAT, None, None, None)

    def test_absolute_floor_absorbs_micro_drift(self):
        # +100% relative but only +0.1s absolute: under a 0.25s floor the
        # shift is scheduler noise, not a regression.
        verdict, *_ = detect_trend(
            [0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.2],
            tolerance=0.20, floor=0.25,
        )
        assert verdict == FLAT

    def test_exact_metrics_trip_on_any_drift(self):
        verdict, *_ = detect_trend(
            [324.0, 324.0, 324.0, 324.0, 325.0, 325.0, 325.0],
            tolerance=1e-9, floor=0.0,
        )
        assert verdict == REGRESSED


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
        store.add_record(make_record(timestamp=9.0, wall_clock=0.9))
        store.add_record(make_record(timestamp=1.0, wall_clock=0.1))
        [key] = store.keys()
        assert [p.value for p in store.series(key, "wall_clock")] == [0.1, 0.9]

    def test_bench_entries_share_the_report_timestamp(self):
        report = BenchReport(
            label="t", entries=[make_entry()], timestamp=77.0,
            env={"python": "3.x"},
        )
        store = TrajectoryStore()
        store.add_bench_report(report)
        [key] = store.keys()
        [point] = store.series(key, "words")
        assert point.timestamp == 77.0 and point.source == "bench"

    def test_streams_split_by_env_on_demand(self):
        store = TrajectoryStore()
        store.add_record(make_record(env={"machine": "a"}, timestamp=1.0))
        store.add_record(make_record(env={"machine": "b"}, timestamp=2.0))
        [key] = store.keys()
        assert len(store.streams(key, "wall_clock", split_env=True)) == 2
        assert len(store.streams(key, "wall_clock", split_env=False)) == 1

    def test_collect_tolerates_missing_ledger(self, tmp_path):
        store = TrajectoryStore.collect(
            ledger_path=str(tmp_path / "absent.jsonl"))
        assert len(store) == 0


class TestAnalyze:
    def _ledger_with_trend(self, tmp_path, values):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        for i, wall in enumerate(values):
            ledger.append(make_record(timestamp=float(i), wall_clock=wall))
        return ledger

    def test_wallclock_regression_detected(self, tmp_path):
        ledger = self._ledger_with_trend(
            tmp_path, [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        store = TrajectoryStore()
        store.add_ledger(ledger)
        report = analyze(store, metrics=("wall_clock",))
        assert not report.ok
        [bad] = report.regressions
        assert bad.metric == "wall_clock"
        assert bad.changepoint is not None  # timestamp of the shift
        assert "REGRESSED" in report.render()

    def test_stable_history_is_ok(self, tmp_path):
        ledger = self._ledger_with_trend(tmp_path, [1.0] * 7)
        store = TrajectoryStore()
        store.add_ledger(ledger)
        report = analyze(store)
        assert report.ok and not report.improvements
        assert report.counts()[FLAT] == len(report.verdicts)

    def test_wallclock_never_trends_across_environments(self, tmp_path):
        # Same 2x shift as test_wallclock_regression_detected, but the
        # slow half ran on a different machine: not comparable, so flat.
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        for i, (wall, machine) in enumerate(
            [(1.0, "a")] * 4 + [(2.0, "b")] * 3
        ):
            ledger.append(make_record(
                timestamp=float(i), wall_clock=wall,
                env={"machine": machine},
            ))
        store = TrajectoryStore()
        store.add_ledger(ledger)
        assert analyze(store, metrics=("wall_clock",)).ok

    def test_model_metrics_trend_across_environments(self, tmp_path):
        # Model costs are environment-independent: drift on `words` is a
        # regression no matter where it was measured.
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        for i in range(7):
            words = 324.0 if i < 4 else 400.0
            ledger.append(make_record(
                timestamp=float(i), words=words,
                env={"machine": "a" if i < 4 else "b"},
            ))
        store = TrajectoryStore()
        store.add_ledger(ledger)
        report = analyze(store, metrics=("words",))
        assert [v.metric for v in report.regressions] == ["words"]

    def test_filters_by_algorithm_and_case(self, tmp_path):
        ledger = self._ledger_with_trend(
            tmp_path, [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        store = TrajectoryStore()
        store.add_ledger(ledger)
        assert not analyze(store, algorithm="alg1").ok
        assert analyze(store, algorithm="other").ok
        assert analyze(store, case="1D").ok

    def test_report_round_trips_to_dict(self, tmp_path):
        import json

        ledger = self._ledger_with_trend(tmp_path, [1.0] * 4)
        store = TrajectoryStore()
        store.add_ledger(ledger)
        report = analyze(store)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert len(data["verdicts"]) == len(report.verdicts)


class TestCommittedArtifacts:
    """The committed history must stay green (the CI advisory gate)."""

    def test_committed_trajectory_has_no_regressions(self):
        from repro.obs.ledger import repo_root

        import os

        ledger_path = os.path.join(repo_root(), "repro_ledger.jsonl")
        store = TrajectoryStore.collect(
            ledger_path=ledger_path if os.path.exists(ledger_path) else None,
            bench_paths=discover_bench_files(),
        )
        report = analyze(store)
        assert report.ok, [v.render() for v in report.regressions]

    def test_every_metric_is_collected_from_the_committed_ledger(self):
        import os

        from repro.obs.ledger import repo_root

        path = os.path.join(repo_root(), "repro_ledger.jsonl")
        if not os.path.exists(path):
            pytest.skip("no committed ledger in this checkout")
        store = TrajectoryStore.collect(ledger_path=path)
        assert store.keys()
        collected = {
            metric
            for key in store.keys()
            for metric in METRICS
            if store.series(key, metric)
        }
        assert collected == set(METRICS)
