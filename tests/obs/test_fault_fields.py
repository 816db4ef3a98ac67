"""Fault-layer surfacing in spans, metrics, and the experiment ledger."""

import numpy as np
import pytest

from repro.exceptions import FaultDetectedError, LedgerError
from repro.machine import Machine
from repro.machine.faults import FaultModel, RetryPolicy
from repro.machine.message import Message
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, RunRecord
from repro.obs.metrics import update_machine_gauges


def msg(words=4, src=0, dest=1):
    return Message(src=src, dest=dest, payload=np.ones(words))


def duplicating_machine():
    return Machine(2, faults=FaultModel(seed=0, duplicate=1.0))


class TestSpanFaultAttribution:
    def test_span_measures_fault_deltas(self):
        machine = duplicating_machine()
        with machine.span("faulty-phase") as span:
            machine.exchange([msg(words=4)])
        assert span.faults_injected == 1
        assert span.words_resent == 4.0

    def test_deltas_are_per_span_not_cumulative(self):
        machine = duplicating_machine()
        with machine.span("first"):
            machine.exchange([msg(words=4)])
        with machine.span("second") as second:
            machine.exchange([msg(words=2, src=1, dest=0)])
        assert second.faults_injected == 1
        assert second.words_resent == 2.0

    def test_retry_deltas_recorded(self):
        # seed 1, p=0.5: first decision faults, the resend is clean.
        machine = Machine(
            2, faults=FaultModel(seed=1, drop=0.5, retry=RetryPolicy())
        )
        with machine.span("recovering") as span:
            machine.exchange([msg(words=4)])
        assert span.retries == 1
        assert span.words_resent == 4.0

    def test_to_record_serializes_fault_fields(self):
        machine = duplicating_machine()
        with machine.span("phase") as span:
            machine.exchange([msg(words=4)])
        record = span.to_record()
        assert record["faults_injected"] == 1
        assert record["retries"] == 0
        assert record["words_resent"] == 4.0

    def test_clean_spans_report_zeroes(self):
        machine = Machine(2)
        with machine.span("clean") as span:
            machine.exchange([msg(words=4)])
        assert (span.faults_injected, span.retries, span.words_resent) == (0, 0, 0.0)


class TestConservationAtSpanClose:
    def test_leak_detected_when_injector_attached(self):
        machine = Machine(2, faults=FaultModel(seed=0))
        with pytest.raises(FaultDetectedError, match="conservation"):
            with machine.span("leaky"):
                machine.exchange([msg(words=4)])
                machine.network.sent_words[0] += 5.0  # words leave, never arrive

    def test_inflight_exception_not_masked(self):
        machine = Machine(2, faults=FaultModel(seed=0, drop=1.0))
        # The drop raises FaultDetectedError mid-span; the close must
        # re-raise *that* error, not a secondary conservation complaint.
        with pytest.raises(FaultDetectedError, match="dropped"):
            with machine.span("fails-inside"):
                machine.exchange([msg()])

    def test_clean_machines_skip_the_check(self):
        machine = Machine(2)  # no injector: zero-overhead default
        with machine.span("unchecked"):
            machine.exchange([msg(words=4)])
            machine.network.sent_words[0] += 5.0
        machine.network.sent_words[0] -= 5.0
        machine.check_conservation()  # explicit call still available


class TestMetricsSurface:
    def test_fault_counters_appear_only_on_faults(self):
        machine = Machine(2)
        with machine.spans.measure("clean", "exchange"):
            machine.exchange([msg()])
        names = {snap["name"] for snap in machine.metrics.collect()}
        assert "faults_injected_total" not in names

    def test_fault_counters_accumulate_per_kind(self):
        machine = duplicating_machine()
        with machine.spans.measure("dup", "exchange"):
            machine.exchange([msg(words=4)])
        counter = machine.metrics.counter("words_resent_total", kind="exchange")
        assert counter.value == 4.0

    def test_gauges_present_only_with_injector(self):
        clean = Machine(2)
        clean.exchange([msg()])
        update_machine_gauges(clean)
        assert "faults_injected" not in clean.metrics

        faulty = duplicating_machine()
        faulty.exchange([msg(words=4)])
        update_machine_gauges(faulty)
        assert faulty.metrics.gauge("faults_injected").value == 1.0
        assert faulty.metrics.gauge("words_resent").value == 4.0


class TestLedgerFaultField:
    def base_record(self, **overrides):
        fields = dict(
            algorithm="alg1", shape=(4, 4, 4), P=2, words=16.0, rounds=2,
            flops=32.0, bound=16.0, attainment=1.0, wall_clock=0.01,
        )
        fields.update(overrides)
        return RunRecord(**fields)

    def test_faults_roundtrip(self):
        faults = {"schedule": "drop-retry", "seed": 3, "injected": 2,
                  "retries": 2, "words_resent": 8.0, "outcome": "recovered"}
        rec = self.base_record(kind="chaos", faults=faults)
        back = RunRecord.from_dict(rec.to_dict())
        assert back.faults == faults
        assert back.fault_injected

    def test_fault_free_records_read_back_none(self):
        back = RunRecord.from_dict(self.base_record().to_dict())
        assert back.faults is None
        assert not back.fault_injected

    def test_legacy_dict_without_faults_key_loads(self):
        data = self.base_record().to_dict()
        del data["faults"]
        assert RunRecord.from_dict(data).faults is None

    def test_zero_injected_is_not_fault_injected(self):
        rec = self.base_record(
            faults={"injected": 0, "retries": 0, "words_resent": 0.0}
        )
        assert not rec.fault_injected

    def test_schema_version_still_guards(self):
        data = self.base_record().to_dict()
        data["schema_version"] = LEDGER_SCHEMA_VERSION + 1
        with pytest.raises(LedgerError):
            RunRecord.from_dict(data)
