"""Tests for the BENCH-file reader (repro.obs.analytics) and the repo root."""

import json
import os

import pytest

from repro.exceptions import BaselineError
from repro.obs.analytics import (
    BENCH_SCHEMA_VERSION,
    BenchEntry,
    BenchReport,
    load_bench_report,
)
from repro.obs.ledger import repo_root
from repro.obs.metrics import RankSkew


def make_entry(**overrides) -> BenchEntry:
    base = dict(
        name="module:bench_x",
        kind="module",
        wall_clock=0.1,
        algorithm="alg1",
        config="grid 4x4x4",
        shape=(48, 48, 48),
        P=64,
        words=324.0,
        rounds=9,
        flops=1728.0,
        bound=324.0,
        attainment=1.0,
        skew=RankSkew(324.0, 324.0, 0, 1.0),
    )
    base.update(overrides)
    return BenchEntry(**base)


def write_report(report: BenchReport, directory) -> str:
    path = os.path.join(str(directory), f"BENCH_{report.label}.json")
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh)
    return path


class TestPaths:
    def test_repo_root_contains_benchmarks(self):
        assert os.path.isdir(os.path.join(repo_root(), "benchmarks"))
        assert os.path.isdir(os.path.join(repo_root(), "src", "repro"))


class TestReportSerialization:
    def test_report_round_trips(self):
        report = BenchReport(label="t", entries=[make_entry()],
                             timestamp=1.0, git_sha="abc", env={"k": "v"})
        clone = BenchReport.from_dict(report.to_dict())
        assert clone.label == report.label
        assert clone.entries == report.entries
        assert clone.git_sha == "abc"

    def test_write_and_load(self, tmp_path):
        report = BenchReport(label="t", entries=[make_entry()])
        path = write_report(report, tmp_path)
        data = json.loads(open(path).read())
        assert data["schema"] == "repro-bench"
        assert data["schema_version"] == BENCH_SCHEMA_VERSION
        loaded = load_bench_report(path)
        assert loaded.entries == report.entries

    def test_load_missing_file_is_clean_baseline_error(self, tmp_path):
        with pytest.raises(BaselineError, match="not found"):
            load_bench_report(str(tmp_path / "none.json"))

    def test_load_corrupt_file_is_clean_baseline_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(BaselineError, match="cannot read"):
            load_bench_report(str(path))

    def test_load_wrong_schema_version_rejected(self, tmp_path):
        report = BenchReport(label="t", entries=[])
        path = write_report(report, tmp_path)
        data = json.loads(open(path).read())
        data["schema_version"] = 0
        open(path, "w").write(json.dumps(data))
        with pytest.raises(BaselineError, match="schema_version"):
            load_bench_report(path)

