"""Tests for the experiment ledger (repro.obs.ledger)."""

import json
import os

import pytest

from repro.exceptions import LedgerError
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    Ledger,
    RunRecord,
    environment_fingerprint,
    git_revision,
    merge_ledgers,
    repo_root,
)
from repro.obs.metrics import RankSkew


def make_record(**overrides) -> RunRecord:
    base = dict(
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
        wall_clock=0.05,
        label="test",
        kind="sweep",
        timestamp=1000.0,
        git_sha="abc123",
        env={"python": "3.x"},
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRunRecord:
    def test_round_trips_through_dict(self):
        rec = make_record()
        clone = RunRecord.from_dict(rec.to_dict())
        assert clone == rec

    def test_serialized_form_is_schema_versioned(self):
        data = make_record().to_dict()
        assert data["schema_version"] == LEDGER_SCHEMA_VERSION
        json.dumps(data)  # must be JSON-serializable as-is

    def test_unsupported_schema_version_rejected(self):
        data = make_record().to_dict()
        data["schema_version"] = 999
        with pytest.raises(LedgerError, match="schema_version"):
            RunRecord.from_dict(data)

    def test_missing_field_rejected_with_ledger_error(self):
        data = make_record().to_dict()
        del data["words"]
        with pytest.raises(LedgerError, match="malformed"):
            RunRecord.from_dict(data)

    def test_none_skew_round_trips(self):
        rec = make_record(skew=None)
        assert RunRecord.from_dict(rec.to_dict()).skew is None


class TestLedger:
    def test_missing_file_reads_as_empty(self, tmp_path):
        assert Ledger(str(tmp_path / "none.jsonl")).records() == []

    def test_append_is_additive_and_ordered(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        for i in range(3):
            ledger.append(make_record(timestamp=float(i), P=2 ** i))
        records = ledger.records()
        assert [r.P for r in records] == [1, 2, 4]
        assert len(ledger) == 3

    def test_file_is_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        ledger.append(make_record())
        ledger.append(make_record())
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["schema_version"] == LEDGER_SCHEMA_VERSION

    def test_corrupt_line_raises_with_location(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        ledger.append(make_record())
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(LedgerError, match=":2"):
            ledger.records()

    def test_query_filters_conjunctively(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        ledger.append(make_record(algorithm="alg1", label="a", P=4))
        ledger.append(make_record(algorithm="alg1", label="b", P=4))
        ledger.append(make_record(algorithm="summa", label="a", P=8))
        assert len(ledger.query(algorithm="alg1")) == 2
        assert len(ledger.query(algorithm="alg1", label="a")) == 1
        assert len(ledger.query(P=8)) == 1
        assert len(ledger.query(shape=(48, 48, 48))) == 3
        assert ledger.query(algorithm="nope") == []

    def test_trajectory_is_time_ordered_history_of_one_config(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        ledger.append(make_record(timestamp=3.0, wall_clock=0.3))
        ledger.append(make_record(timestamp=1.0, wall_clock=0.1))
        ledger.append(make_record(timestamp=2.0, P=2))  # different config
        traj = ledger.trajectory("alg1", (48, 48, 48), 64)
        assert [r.timestamp for r in traj] == [1.0, 3.0]

    def test_from_sweep_fills_provenance(self, tmp_path):
        from repro.analysis.sweep import sweep
        from repro.core import ProblemShape

        record = sweep([ProblemShape(64, 16, 4)], [2],
                       algorithms=["alg1"], seed=0)[0]
        run = RunRecord.from_sweep(record, label="prov")
        assert run.kind == "sweep"
        assert run.label == "prov"
        assert run.timestamp > 0
        assert run.env == environment_fingerprint()
        assert run.git_sha == git_revision()


class TestMergeLedgers:
    def test_merge_dedupes_and_time_orders(self, tmp_path):
        a = Ledger(str(tmp_path / "a.jsonl"))
        b = Ledger(str(tmp_path / "b.jsonl"))
        shared = make_record(timestamp=5.0)
        a.append(shared)
        a.append(make_record(timestamp=9.0, label="late"))
        b.append(shared)  # duplicate of a's first record
        b.append(make_record(timestamp=1.0, label="early"))
        out = str(tmp_path / "merged.jsonl")
        count = merge_ledgers([a.path, b.path], out)
        merged = Ledger(out).records()
        assert count == len(merged) == 3
        assert [r.timestamp for r in merged] == [1.0, 5.0, 9.0]

    def test_merge_of_no_inputs_writes_an_empty_ledger(self, tmp_path):
        out = str(tmp_path / "merged.jsonl")
        assert merge_ledgers([], out) == 0
        assert Ledger(out).records() == []

    def test_merge_of_empty_and_missing_files_is_empty(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = str(tmp_path / "merged.jsonl")
        count = merge_ledgers(
            [str(empty), str(tmp_path / "never_written.jsonl")], out)
        assert count == 0 and Ledger(out).records() == []

    def test_merge_rejects_mismatched_schema_version(self, tmp_path):
        good = Ledger(str(tmp_path / "good.jsonl"))
        good.append(make_record())
        bad_record = make_record().to_dict()
        bad_record["schema_version"] = LEDGER_SCHEMA_VERSION + 1
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(bad_record) + "\n")
        out = str(tmp_path / "merged.jsonl")
        with pytest.raises(LedgerError, match="schema_version"):
            merge_ledgers([good.path, str(bad)], out)

    def test_merge_is_idempotent_over_duplicate_files(self, tmp_path):
        # Merging the same ledger with itself (and with a prior merge
        # output) must not multiply records: dedup is on full content.
        a = Ledger(str(tmp_path / "a.jsonl"))
        a.append(make_record(timestamp=1.0))
        a.append(make_record(timestamp=2.0, label="other"))
        once = str(tmp_path / "once.jsonl")
        twice = str(tmp_path / "twice.jsonl")
        assert merge_ledgers([a.path, a.path], once) == 2
        assert merge_ledgers([a.path, once], twice) == 2
        assert Ledger(twice).records() == Ledger(once).records()

    def test_merge_keeps_distinct_records_with_equal_timestamps(
        self, tmp_path
    ):
        # Same instant, different content: both are real experiments.
        a = Ledger(str(tmp_path / "a.jsonl"))
        a.append(make_record(timestamp=5.0, label="x"))
        a.append(make_record(timestamp=5.0, label="y"))
        out = str(tmp_path / "merged.jsonl")
        assert merge_ledgers([a.path], out) == 2


class TestEnvironment:
    def test_fingerprint_fields(self):
        env = environment_fingerprint()
        assert set(env) == {
            "python", "implementation", "platform", "machine", "numpy",
        }

    def test_git_revision_in_this_checkout(self):
        sha = git_revision()
        # This test runs from a git checkout, so a SHA must be found.
        assert sha is None or len(sha) == 40

    def test_repo_root_contains_benchmarks(self):
        assert os.path.isdir(os.path.join(repo_root(), "benchmarks"))
        assert os.path.isdir(os.path.join(repo_root(), "src", "repro"))
