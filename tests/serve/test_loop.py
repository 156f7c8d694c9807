"""Tests for the virtual-clock replay loop (repro.serve.loop)."""

import pytest

from repro.api import build_system, uniform_system_spec
from repro.core.pipeline import PRICED_STAGE_OFFSETS
from repro.data.trace import make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import tiny_config
from repro.serve import (
    AdmissionRejectedError,
    ArrivalSpec,
    ServeSpec,
    format_serve_report,
    replay,
)
from repro.systems.base import InsufficientSteadyStateError


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=300, batch_size=6, lookups_per_table=2,
                       num_tables=2)


@pytest.fixture
def system(cfg):
    return build_system(
        uniform_system_spec("scratchpipe", 0.2),
        cfg, DEFAULT_HARDWARE,
    )


@pytest.fixture
def trace(cfg):
    return make_dataset(cfg, "medium", seed=7, num_batches=24)


def _spec(rate, **kwargs):
    return ServeSpec(arrivals=ArrivalSpec(rate=rate), **kwargs)


class TestReplayBasics:
    def test_bit_identical_reruns(self, system, trace):
        spec = _spec(50.0)
        first = replay(system, trace, spec, warmup=4)
        second = replay(system, trace, spec, warmup=4)
        assert first == second

    def test_accounting_under_queue_policy(self, system, trace):
        report = replay(system, trace, _spec(50.0), warmup=4)
        assert report.offered == len(trace)
        assert report.admitted == report.offered  # queue admits everything
        assert report.rejected == 0
        assert report.completed == report.admitted
        assert report.measured == report.admitted - report.warmup

    def test_stage_axis_is_the_priced_pipeline(self, system, trace):
        report = replay(system, trace, _spec(50.0))
        assert tuple(report.stage_percentiles) == tuple(PRICED_STAGE_OFFSETS)
        assert tuple(PRICED_STAGE_OFFSETS) == ("plan", "collect", "exchange",
                                               "insert", "train")

    def test_percentiles_are_ordered(self, system, trace):
        report = replay(system, trace, _spec(2000.0), warmup=4)
        p50, p95, p99 = report.end_to_end
        assert 0 < p50 <= p95 <= p99
        for percentiles in report.stage_percentiles.values():
            assert percentiles[0] <= percentiles[1] <= percentiles[2]

    def test_serve_argument_forms_agree(self, system, trace):
        arrivals = ArrivalSpec(rate=80.0)
        bare = replay(system, trace, arrivals)
        wrapped = replay(system, trace, ServeSpec(arrivals=arrivals))
        assert bare == wrapped
        assert replay(system, trace).offered == len(trace)  # all defaults

    def test_num_batches_prefix(self, system, trace):
        report = replay(system, trace, _spec(50.0), num_batches=10)
        assert report.offered == 10

    def test_input_validation(self, system, trace):
        with pytest.raises(ValueError, match="num_batches"):
            replay(system, trace, num_batches=0)
        with pytest.raises(ValueError, match="warmup"):
            replay(system, trace, warmup=-1)

    def test_non_streaming_system_is_a_type_error(self, cfg, trace):
        sequential = build_system(
            uniform_system_spec("strawman", 0.2),
            cfg, DEFAULT_HARDWARE,
        )
        with pytest.raises(TypeError, match="stream cache statistics"):
            replay(sequential, trace)


class TestQueueing:
    def test_idle_traffic_sees_pure_service_time(self, system, trace):
        """At a trickle rate every batch finds an empty pipeline, so the
        end-to-end latency is exactly the summed stage residence."""
        report = replay(system, trace, _spec(0.01), warmup=0)
        stage_p50_sum = sum(p[0] for p in report.stage_percentiles.values())
        assert report.end_to_end[0] == pytest.approx(stage_p50_sum, rel=0.2)
        assert report.sla_violation_rate == 0.0

    def test_overload_inflates_latency(self, system, trace):
        idle = replay(system, trace, _spec(0.01), warmup=0)
        slammed = replay(system, trace, _spec(1e6), warmup=0)
        assert slammed.mean_latency > 2.0 * idle.mean_latency
        assert slammed.sla_violation_rate > 0.5

    def test_smaller_buffers_never_speed_things_up(self, system, trace):
        """Blocking-after-service monotonicity: shrinking the inter-stage
        buffers can only delay departures."""
        tight = replay(system, trace, _spec(1e6, queue_depth=1), warmup=0)
        roomy = replay(system, trace, _spec(1e6, queue_depth=8), warmup=0)
        for t, r in zip(tight.end_to_end, roomy.end_to_end):
            assert t >= r
        # And backpressure really engaged: with one buffer slot a batch
        # finishing Insert blocks in place until Train drains, so Insert
        # residence inflates relative to the roomy configuration.
        assert (tight.stage_percentiles["insert"][2]
                > roomy.stage_percentiles["insert"][2])


class TestAdmission:
    def test_reject_policy_drops_and_accounts(self, system, trace):
        report = replay(
            system, trace,
            _spec(1e6, admission="reject", admission_depth=2), warmup=0,
        )
        assert report.rejected > 0
        assert report.admitted + report.rejected == report.offered
        assert report.completed == report.admitted

    def test_queue_policy_never_rejects(self, system, trace):
        report = replay(system, trace, _spec(1e6), warmup=0)
        assert report.rejected == 0

    def test_rejection_caps_the_tail(self, system, trace):
        """Shedding load is the whole point: the reject policy's p99 sits
        below the unbounded queue's under the same overload."""
        queued = replay(system, trace, _spec(1e6), warmup=0)
        shed = replay(
            system, trace,
            _spec(1e6, admission="reject", admission_depth=2), warmup=0,
        )
        assert shed.end_to_end[2] < queued.end_to_end[2]

    def test_error_carries_context(self):
        err = AdmissionRejectedError(batch_index=7, arrival_s=1.25, depth=16)
        assert err.batch_index == 7
        assert err.arrival_s == 1.25
        assert err.depth == 16
        assert "batch 7" in str(err) and "16 waiting" in str(err)


class TestWarmupContract:
    def test_warmup_at_or_above_admitted_raises(self, system, trace):
        with pytest.raises(InsufficientSteadyStateError, match="warmup=10"):
            replay(system, trace, _spec(50.0), num_batches=10, warmup=10)

    def test_warmup_excludes_exactly_the_prefix(self, system, trace):
        report = replay(system, trace, _spec(50.0), warmup=6)
        assert report.measured == report.admitted - 6


class TestSla:
    def test_absolute_sla_respected(self, system, trace):
        report = replay(system, trace, _spec(50.0, sla_seconds=123.0))
        assert report.sla_seconds == 123.0
        assert report.sla_violation_rate == 0.0  # absurdly generous

    def test_derived_sla_scales_with_factor(self, system, trace):
        loose = replay(system, trace, _spec(50.0, sla_factor=6.0))
        tight = replay(system, trace, _spec(50.0, sla_factor=3.0))
        assert loose.sla_seconds == pytest.approx(2.0 * tight.sla_seconds)


class TestReportRendering:
    def test_format_renders_every_headline_number(self, system, trace):
        report = replay(system, trace, _spec(50.0), warmup=4)
        text = format_serve_report(report)
        for token in ("p50 ms", "p95 ms", "p99 ms", "end_to_end",
                      "SLA violations", "mean_latency ms", "warmup=4",
                      *PRICED_STAGE_OFFSETS):
            assert token in text
