"""Tests for the pipeline timeline (repro.core.timeline)."""

import numpy as np
import pytest

from repro.api import build_system, uniform_system_spec
from repro.core.pipeline import PRICED_STAGE_OFFSETS, STAGES
from repro.core.timeline import (
    PipelineTimeline,
    render_ascii,
    schedule,
)
from repro.data.trace import make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import tiny_config


class TestSchedule:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            schedule(0)

    def test_length(self):
        cycles = schedule(4)
        assert len(cycles) == 4 + len(STAGES) - 1

    def test_staircase(self):
        cycles = schedule(8)
        # Batch 0 walks one stage per cycle.
        for offset, stage in enumerate(STAGES):
            assert cycles[offset].batches[stage] == 0
        # Steady state: from cycle 5 on, all six stages are occupied.
        assert len(cycles[5].batches) == len(STAGES)

    def test_one_batch_retires_per_cycle(self):
        cycles = schedule(8)
        train_cycles = [c.cycle for c in cycles if "train" in c.batches]
        assert train_cycles == list(range(5, 13))

    def test_fill_and_drain(self):
        cycles = schedule(8)
        assert len(cycles[0].batches) == 1  # only Load busy
        assert len(cycles[-1].batches) == 1  # only Train busy


class TestPipelineTimeline:
    @pytest.fixture
    def timeline(self):
        stage_seconds = [
            {"plan": 0.001, "collect": 0.010, "exchange": 0.003,
             "insert": 0.004, "train": 0.006}
            for _ in range(10)
        ]
        return PipelineTimeline(stage_seconds=stage_seconds, sync_seconds=0.001)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PipelineTimeline(stage_seconds=[])

    def test_steady_state_cycle_is_bottleneck_plus_sync(self, timeline):
        assert timeline.steady_state_cycle_seconds() == pytest.approx(0.011)

    def test_total_exceeds_steady_portion(self, timeline):
        steady = timeline.steady_state_cycle_seconds() * 10
        assert timeline.total_seconds() > steady * 0.9

    def test_bottleneck_identified(self, timeline):
        assert timeline.bottleneck_stage() == "collect"

    def test_utilisation_bounded(self, timeline):
        utilisation = timeline.stage_utilisation()
        for stage, value in utilisation.items():
            assert 0.0 <= value <= 1.0, stage
        # The bottleneck dominates the others.
        assert utilisation["collect"] > utilisation["plan"]

    def test_short_trace_no_steady_state(self):
        timeline = PipelineTimeline(
            stage_seconds=[{"train": 0.002}], sync_seconds=0.0
        )
        assert timeline.steady_state_cycle_seconds() > 0

    def test_missing_stages_cost_zero(self):
        timeline = PipelineTimeline(stage_seconds=[{}, {}], sync_seconds=0.0)
        assert timeline.total_seconds() == 0.0


class TestOneCycleRule:
    """The timeline and ``run_trace`` read one pipelined-cycle rule."""

    SYNC = 0.001

    @pytest.fixture
    def prices(self):
        rng = np.random.default_rng(3)
        return [
            dict(zip(PRICED_STAGE_OFFSETS, rng.uniform(0.0, 0.2, 5).tolist()))
            for _ in range(12)
        ]

    def test_steady_cycles_are_those_with_every_priced_stage(self, prices):
        # The rule written out: a cycle costs its slowest occupied priced
        # stage plus sync, and is steady when all five priced stages hold
        # a batch (Load, unpriced, may be idle).
        steady = []
        for cycle in range(len(prices) + len(STAGES) - 1):
            occupied = {
                stage: cycle - offset
                for stage, offset in PRICED_STAGE_OFFSETS.items()
                if 0 <= cycle - offset < len(prices)
            }
            if len(occupied) == len(PRICED_STAGE_OFFSETS):
                steady.append(
                    max(prices[b][s] for s, b in occupied.items()) + self.SYNC
                )
        assert len(steady) == len(prices) - len(PRICED_STAGE_OFFSETS) + 1
        timeline = PipelineTimeline(stage_seconds=prices, sync_seconds=self.SYNC)
        assert timeline.steady_state_cycle_seconds() == pytest.approx(
            sum(steady) / len(steady), rel=1e-12
        )

    def test_drain_batches_cost_the_steady_cycle(self, prices):
        timeline = PipelineTimeline(stage_seconds=prices, sync_seconds=self.SYNC)
        retired = timeline.retired_cycle_seconds()
        cycles = [c.cycle_seconds for c in timeline.cycles()]
        train = PRICED_STAGE_OFFSETS["train"]
        drain = train - 1
        assert retired[:-drain] == cycles[train : train + len(prices) - drain]
        assert retired[-drain:] == [timeline.steady_state_cycle_seconds()] * drain

    def test_agrees_with_run_trace(self):
        cfg = tiny_config()
        system = build_system(
            uniform_system_spec("scratchpipe", 0.5), cfg, DEFAULT_HARDWARE
        )
        result = system.run_trace(
            make_dataset(cfg, "medium", seed=1, num_batches=12)
        )
        timeline = PipelineTimeline(
            stage_seconds=[b.by_stage() for b in result.breakdowns],
            sync_seconds=DEFAULT_HARDWARE.stage_sync_s,
        )
        # Drain batches are attributed exactly the timeline's steady cycle.
        assert result.iteration_times[-1] == (
            timeline.steady_state_cycle_seconds()
        )
        assert result.iteration_times == timeline.retired_cycle_seconds()


class TestRenderAscii:
    def test_contains_batches(self):
        out = render_ascii(schedule(3))
        assert "B0" in out and "B2" in out
        assert out.splitlines()[0].startswith("cycle")

    def test_truncation(self):
        out = render_ascii(schedule(30), max_cycles=5)
        assert "more cycles" in out
