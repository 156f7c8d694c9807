"""Tests for the straw-man system (repro.systems.strawman_system)."""

import pytest

from repro.api import build_system, uniform_system_spec
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import ModelConfig, tiny_config
from repro.systems.hybrid import HybridSystem
from repro.core.pipeline import PRICED_STAGE_OFFSETS


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=300, batch_size=6, lookups_per_table=2,
                       num_tables=2)


class TestStrawmanSystem:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            build_system(
                uniform_system_spec("strawman", -0.1),
                ModelConfig(), DEFAULT_HARDWARE,
            )

    def test_iteration_is_stage_sum(self, cfg):
        system = build_system(
            uniform_system_spec("strawman", 0.2),
            cfg, DEFAULT_HARDWARE,
        )
        dataset = make_dataset(cfg, "medium", seed=2, num_batches=10)
        result = system.run_trace(dataset)
        for breakdown, time in zip(result.breakdowns, result.iteration_times):
            assert time == pytest.approx(breakdown.total)

    def test_stage_names(self, cfg):
        system = build_system(
            uniform_system_spec("strawman", 0.2),
            cfg, DEFAULT_HARDWARE,
        )
        dataset = make_dataset(cfg, "medium", seed=2, num_batches=10)
        result = system.run_trace(dataset)
        assert set(result.stage_means(warmup=0)) == set(PRICED_STAGE_OFFSETS)

    def test_beats_hybrid_baseline_at_scale(self):
        # Figure 13: even without pipelining, dynamic caching helps by
        # filtering gradient scatters away from CPU memory.
        config = ModelConfig()
        trace = MaterialisedDataset(
            make_dataset(config, "medium", seed=2, num_batches=12)
        )
        strawman = build_system(
            uniform_system_spec("strawman", 0.02),
            config, DEFAULT_HARDWARE,
        )
        hybrid = HybridSystem(config, DEFAULT_HARDWARE)
        assert (
            strawman.run_trace(trace).mean_latency(8)
            < hybrid.run_trace(trace).mean_latency(0)
        )
