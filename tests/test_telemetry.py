"""Telemetry: event schema, sinks, derived metrics, campaign report."""

import json

import pytest

from repro.faults.classify import ArchTrialResult, UarchTrialResult
from repro.restore import ReStoreController
from repro.telemetry import (
    EVENT_KINDS,
    CampaignMetrics,
    Histogram,
    JsonlTraceSink,
    RingBufferTraceSink,
    TelemetryError,
    TraceSink,
    aggregate_campaign,
    make_event,
    render_campaign_report,
    validate_event,
    validate_trace,
)
from repro.uarch import load_pipeline
from repro.workloads import build_workload


class TestEventSchema:
    def test_make_event_is_valid(self):
        event = make_event("symptom", cycle=10, position=5,
                           symptom="exception", pc=0x40)
        validate_event(event)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError, match="unknown event kind"):
            validate_event({"kind": "nope", "cycle": 0, "position": 0})

    def test_missing_required_field_rejected(self):
        event = make_event("rollback_begin", cycle=1, position=2,
                           symptom="exception", from_position=2,
                           to_position=0, distance=2)
        validate_event(event)
        del event["distance"]
        with pytest.raises(TelemetryError, match="missing field 'distance'"):
            validate_event(event)

    def test_non_integer_int_field_rejected(self):
        event = make_event("symptom", cycle="10", position=5,
                           symptom="exception", pc=0)
        with pytest.raises(TelemetryError, match="must be an integer"):
            validate_event(event)

    def test_trial_end_carries_uarch_cost_fields(self):
        event = make_event("trial_end", cycle=400, position=90, status="ok",
                           sim_cycles=150, reconverged_cycle=550)
        validate_event(event)
        del event["reconverged_cycle"]  # absent when the window ran out
        validate_event(event)
        event["sim_cycles"] = "150"
        with pytest.raises(TelemetryError, match="must be an integer"):
            validate_event(event)

    def test_golden_event_carries_int_counts(self):
        event = make_event("golden", cycle=0, position=0, workload="gcc",
                           golden_cycles=7545, checkpoints=31, hop_cycles=1480)
        validate_event(event)
        for name in ("golden_cycles", "checkpoints", "hop_cycles"):
            bad = dict(event, **{name: 1.5})
            with pytest.raises(TelemetryError, match="must be an integer"):
                validate_event(bad)
            missing = dict(event)
            del missing[name]
            with pytest.raises(TelemetryError, match="missing field"):
                validate_event(missing)

    def test_non_object_rejected(self):
        with pytest.raises(TelemetryError, match="not a JSON object"):
            validate_event([1, 2, 3])

    def test_every_kind_has_required_fields(self):
        for kind, fields in EVENT_KINDS.items():
            assert isinstance(fields, tuple), kind


class TestJsonlSink:
    def test_round_trip_and_validate(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceSink(path) as sink:
            sink.emit(make_event("trial_end", cycle=1, position=2, status="ok"))
            sink.emit(make_event("symptom", cycle=3, position=4,
                                 symptom="deadlock", pc=0))
            assert sink.emitted == 2
        assert validate_trace(path) == 2
        lines = [json.loads(line) for line in open(path)]
        assert lines[0]["status"] == "ok"

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"kind": "trial_end"})

    def test_invalid_trace_line_reported_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "trial_end", "cycle": 0, "position": 0}\n')
        with pytest.raises(TelemetryError, match="bad.jsonl:1"):
            validate_trace(str(path))

    def test_satisfies_protocol(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        assert isinstance(sink, TraceSink)
        sink.close()


class TestRingBufferSink:
    def test_keeps_newest_and_counts_dropped(self):
        sink = RingBufferTraceSink(capacity=3)
        for index in range(5):
            sink.emit(make_event("trial_end", cycle=index, position=0,
                                 status="ok"))
        assert sink.emitted == 5
        assert sink.dropped == 2
        assert [event["cycle"] for event in sink.events()] == [2, 3, 4]

    def test_kind_filter(self):
        sink = RingBufferTraceSink()
        sink.emit(make_event("trial_end", cycle=0, position=0, status="ok"))
        sink.emit(make_event("symptom", cycle=1, position=0,
                             symptom="cfv", pc=4))
        assert len(sink.events("symptom")) == 1
        assert isinstance(sink, TraceSink)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingBufferTraceSink(capacity=0)


class TestHistogram:
    def test_bucketing_and_overflow(self):
        histogram = Histogram((10, 20))
        for value in (1, 10, 11, 21, 100):
            histogram.add(value)
        assert histogram.counts == [2, 1, 2]
        assert histogram.total == 5

    def test_mean_is_exact_not_bucketed(self):
        histogram = Histogram((10, 20))
        histogram.add(3)
        histogram.add(17)
        assert histogram.mean == 10.0

    def test_quantile(self):
        histogram = Histogram((10, 20, 30))
        for value in (5, 5, 15, 25):
            histogram.add(value)
        assert histogram.quantile(0.5) == 10
        assert histogram.quantile(1.0) == 30

    def test_merge_and_dict_round_trip(self):
        left, right = Histogram((10, 20)), Histogram((10, 20))
        left.add(5)
        right.add(15)
        left.merge(right)
        restored = Histogram.from_dict(left.as_dict())
        assert restored.counts == left.counts
        assert restored.mean == left.mean

    def test_merge_rejects_different_edges(self):
        with pytest.raises(ValueError):
            Histogram((10,)).merge(Histogram((20,)))

    def test_edges_validated(self):
        with pytest.raises(ValueError):
            Histogram((20, 10))


def uarch_record(**kwargs):
    return UarchTrialResult(
        workload="gcc", inject_cycle=500, target="rob", state_class="ctrl",
        bit=0, **kwargs,
    )


class TestAggregation:
    def test_coverage_latency_and_benign_rate(self):
        records = [
            uarch_record(inject_retired=430, exception_latency=40,
                         arch_corrupt=True),
            uarch_record(inject_retired=410, cfv_latency=8,
                         cfv_detected_latency=12),
            uarch_record(cfv_detected_latency=77),  # benign firing
            uarch_record(),  # masked, quiet
        ]
        metrics = aggregate_campaign("uarch", records)
        assert metrics.trials == 4 and metrics.failing == 2
        exception = metrics.detectors["exception"]
        assert exception.coverage == 0.5
        assert exception.benign_rate == 0.0
        assert exception.latency.total == 1 and exception.latency.mean == 40.0
        hc = metrics.detectors["hc_mispredict"]
        assert hc.fired_on_failing == 1 and hc.fired_on_benign == 1
        assert hc.benign_rate == 0.5

    def test_rollback_distance_is_interval_plus_position_mod_interval(self):
        # Symptom at position 430 + 40 = 470: with interval 100 the older
        # checkpoint sits at 400, distance 100 + 470 % 100 = 170.
        records = [uarch_record(inject_retired=430, exception_latency=40,
                                arch_corrupt=True)]
        metrics = aggregate_campaign("uarch", records, intervals=(100,))
        histogram = metrics.rollback_distance[100]
        assert histogram.total == 1
        assert histogram.mean == 170.0

    def test_symptom_beyond_interval_does_not_roll_back(self):
        records = [uarch_record(inject_retired=0, exception_latency=400,
                                arch_corrupt=True)]
        metrics = aggregate_campaign("uarch", records, intervals=(100,))
        assert metrics.rollback_distance[100].total == 0

    def test_arch_records_use_inject_step(self):
        records = [
            ArchTrialResult(workload="gcc", inject_step=55, bit=3,
                            exception_latency=10, failing=True),
        ]
        metrics = aggregate_campaign("arch", records, intervals=(50,))
        assert metrics.detectors["exception"].coverage == 1.0
        # Symptom at 55 + 10 = 65: distance 50 + 65 % 50 = 65.
        assert metrics.rollback_distance[50].mean == 65.0

    def test_metrics_journal_entry_round_trip(self):
        records = [uarch_record(inject_retired=10, cfv_latency=5,
                                cfv_detected_latency=5)]
        metrics = aggregate_campaign("uarch", records)
        entry = json.loads(json.dumps(metrics.to_entry()))
        assert entry["kind"] == "telemetry"
        restored = CampaignMetrics.from_entry(entry)
        assert restored.trials == metrics.trials
        assert restored.detectors["cfv"].fired_on_failing == 1
        assert (restored.rollback_distance[100].counts
                == metrics.rollback_distance[100].counts)


class TestControllerTracing:
    def test_fault_free_run_emits_schema_valid_events(self):
        bundle = build_workload("bzip2")
        pipeline = load_pipeline(bundle.program)
        sink = RingBufferTraceSink(capacity=200_000)
        controller = ReStoreController(pipeline, interval=50, telemetry=sink)
        pipeline.run(2_000_000)
        assert pipeline.halted and bundle.check(pipeline.memory) == []
        assert sink.dropped == 0
        for event in sink.events():
            validate_event(event)
        kinds = {event["kind"] for event in sink.events()}
        assert "checkpoint_create" in kinds
        assert "checkpoint_release" in kinds
        # bzip2 produces HC-mispredict rollbacks when fault-free.
        assert len(sink.events("rollback_begin")) == controller.stats.rollbacks
        assert len(sink.events("rollback_end")) == controller.stats.rollbacks
        verdicts = [e["verdict"] for e in sink.events("rollback_end")]
        assert verdicts.count("false_positive") == controller.stats.false_positives

    def test_rollback_begin_carries_distance(self):
        bundle = build_workload("bzip2")
        pipeline = load_pipeline(bundle.program)
        sink = RingBufferTraceSink(capacity=200_000)
        controller = ReStoreController(pipeline, interval=50, telemetry=sink)
        pipeline.run(2_000_000)
        begins = sink.events("rollback_begin")
        assert begins, "expected at least one rollback"
        for event in begins:
            assert event["distance"] == (
                event["from_position"] - event["to_position"]
            )
        total = sum(event["distance"] for event in begins)
        assert total == controller.stats.rollback_distance_total

    def test_disabled_telemetry_attribute_defaults_to_none(self):
        bundle = build_workload("gcc")
        pipeline = load_pipeline(bundle.program)
        controller = ReStoreController(pipeline, interval=100)
        assert pipeline.telemetry is None
        assert controller.telemetry is None
        assert controller.checkpoints.telemetry is None


class TestCampaignReport:
    def _journal(self, tmp_path):
        from repro.faults import UarchCampaignConfig
        from repro.campaign import run_campaign

        path = str(tmp_path / "campaign.jsonl")
        config = UarchCampaignConfig(
            trials_per_workload=8, injection_points=4,
            workloads=("gcc",), seed=7,
        )
        run_campaign("uarch", config, journal_path=path)
        return path

    def test_report_renders_metrics_and_histograms(self, tmp_path):
        path = self._journal(tmp_path)
        text = render_campaign_report(path)
        assert "Section 3.3 symptom metrics" in text
        assert "hc_mispredict" in text and "deadlock" in text
        assert "error-to-symptom latency" in text
        assert "rollback distance" in text
        assert "95% margin" in text

    def test_journal_carries_telemetry_aggregate(self, tmp_path):
        path = self._journal(tmp_path)
        entries = [json.loads(line) for line in open(path)]
        aggregates = [e for e in entries if e.get("kind") == "telemetry"]
        assert len(aggregates) == 1
        restored = CampaignMetrics.from_entry(aggregates[0])
        ok_trials = sum(1 for e in entries
                        if e.get("kind") == "trial" and e["status"] == "ok")
        assert restored.trials == ok_trials

    def test_report_requires_manifest(self, tmp_path):
        from repro.util.journal import JournalError

        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "trial"}\n')
        with pytest.raises(JournalError, match="missing manifest"):
            render_campaign_report(str(path))


class TestMetricsMerge:
    """Per-shard aggregates merge exactly into the serial aggregate."""

    def _records(self, seed, n=12):
        from repro.faults import ArchTrialResult

        records = []
        for i in range(n):
            records.append(ArchTrialResult(
                workload="gcc", inject_step=10 + i, bit=i % 8,
                exception_latency=(i * seed) % 40 if i % 3 else None,
                cfv_latency=(i * 7) % 25 if i % 4 else None,
                failing=bool(i % 2),
            ))
        return records

    def test_merged_partition_equals_whole_aggregate(self):
        from repro.telemetry import aggregate_campaign, merge_campaign_metrics

        records = self._records(seed=3)
        whole = aggregate_campaign("arch", records)
        parts = [
            aggregate_campaign("arch", records[0::3]),
            aggregate_campaign("arch", records[1::3]),
            aggregate_campaign("arch", records[2::3]),
        ]
        merged = merge_campaign_metrics(parts)
        assert merged.to_entry() == whole.to_entry()
        # The inputs were not mutated by the merge.
        assert parts[0].trials == len(records[0::3])

    def test_merge_rejects_level_mismatch(self):
        from repro.telemetry import aggregate_campaign, merge_campaign_metrics

        arch = aggregate_campaign("arch", [])
        uarch = aggregate_campaign("uarch", [])
        with pytest.raises(ValueError, match="cannot merge"):
            merge_campaign_metrics([arch, uarch])

    def test_merge_rejects_empty_collection(self):
        from repro.telemetry import merge_campaign_metrics

        with pytest.raises(ValueError, match="empty"):
            merge_campaign_metrics([])

    def test_detector_merge_rejects_symptom_mismatch(self):
        from repro.telemetry.metrics import DetectorMetrics

        with pytest.raises(ValueError, match="cannot merge detector"):
            DetectorMetrics("cfv").merge(DetectorMetrics("exception"))

    def test_histogram_merge_rejects_different_edges(self):
        from repro.telemetry.metrics import Histogram

        with pytest.raises(ValueError, match="different edges"):
            Histogram((1, 2)).merge(Histogram((1, 3)))


class TestExtraSymptomAggregation:
    """Opt-in memory-hierarchy detector columns in the aggregate."""

    def test_default_aggregate_has_no_extra_columns(self):
        metrics = aggregate_campaign("uarch", [uarch_record()])
        assert set(metrics.detectors) == {
            "deadlock", "exception", "cfv", "hc_mispredict"
        }

    def test_extra_symptoms_tally_coverage_and_benign_rate(self):
        records = [
            uarch_record(inject_retired=100, exception_latency=40,
                         arch_corrupt=True, miss_spike_latency=12),
            uarch_record(spurious_memop_latency=3),  # benign firing
            uarch_record(),
        ]
        metrics = aggregate_campaign(
            "uarch", records,
            extra_symptoms=("miss_spike", "stall_outlier", "spurious_memop"),
        )
        spike = metrics.detectors["miss_spike"]
        assert spike.fired_on_failing == 1 and spike.failing_trials == 1
        assert spike.latency.total == 1 and spike.latency.mean == 12.0
        spurious = metrics.detectors["spurious_memop"]
        assert spurious.fired_on_benign == 1
        assert spurious.benign_rate == 0.5
        assert metrics.detectors["stall_outlier"].latency.total == 0

    def test_extra_symptom_can_shorten_rollback_distance(self):
        """A detector firing before any stock symptom becomes the trial's
        earliest rollback trigger."""
        record = uarch_record(inject_retired=430, exception_latency=40,
                              arch_corrupt=True, miss_spike_latency=10)
        plain = aggregate_campaign("uarch", [record], intervals=(100,))
        extra = aggregate_campaign("uarch", [record], intervals=(100,),
                                   extra_symptoms=("miss_spike",))
        # Stock: symptom at 470 -> distance 170. With the spike detector
        # the earliest symptom is at 440 -> distance 100 + 440 % 100 = 140.
        assert plain.rollback_distance[100].mean == 170.0
        assert extra.rollback_distance[100].mean == 140.0

    def test_records_without_the_fields_report_none(self):
        from repro.telemetry.metrics import trial_symptom_latencies

        latencies = trial_symptom_latencies(
            "uarch", uarch_record(), extra_symptoms=("miss_spike",)
        )
        assert latencies["miss_spike"] is None

    def test_extra_metrics_merge_and_round_trip(self):
        records = [uarch_record(arch_corrupt=True, stall_outlier_latency=7)]
        metrics = aggregate_campaign("uarch", records,
                                     extra_symptoms=("stall_outlier",))
        entry = json.loads(json.dumps(metrics.to_entry()))
        restored = CampaignMetrics.from_entry(entry)
        assert restored.detectors["stall_outlier"].fired_on_failing == 1
        restored.merge(metrics)
        assert restored.detectors["stall_outlier"].fired_on_failing == 2


class TestDetectorRecordJournaling:
    """Trial entries omit the detector latency fields while None."""

    def _outcome(self, record):
        from repro.campaign.outcomes import TrialOutcome

        return TrialOutcome(
            key="gcc:500:0", workload="gcc", point=500, index=0,
            status="ok", record=record,
        )

    def test_none_latencies_are_omitted_from_the_entry(self):
        entry = self._outcome(uarch_record()).to_entry()
        for name in ("miss_spike_latency", "stall_outlier_latency",
                     "spurious_memop_latency"):
            assert name not in entry["record"]

    def test_set_latencies_are_journaled(self):
        entry = self._outcome(
            uarch_record(miss_spike_latency=9)
        ).to_entry()
        assert entry["record"]["miss_spike_latency"] == 9
        assert "stall_outlier_latency" not in entry["record"]

    def test_omitted_fields_round_trip_as_none(self):
        from repro.campaign.outcomes import TrialOutcome

        entry = json.loads(json.dumps(self._outcome(uarch_record()).to_entry()))
        restored = TrialOutcome.from_entry(entry, "uarch")
        assert restored.record.miss_spike_latency is None
        assert restored.record.spurious_memop_latency is None


class TestMemhierCampaignReport:
    def test_report_includes_configured_detector_columns(self, tmp_path):
        from repro.faults import UarchCampaignConfig
        from repro.campaign import run_campaign

        path = str(tmp_path / "memhier.jsonl")
        config = UarchCampaignConfig(
            trials_per_workload=6, injection_points=3, window_cycles=800,
            workloads=("gcc",), seed=7, memhier_targets=True,
            detectors=("miss_spike", "stall_outlier", "spurious_memop"),
        )
        run_campaign("uarch", config, journal_path=path)
        text = render_campaign_report(path)
        assert "miss_spike" in text
        assert "stall_outlier" in text
        assert "spurious_memop" in text
