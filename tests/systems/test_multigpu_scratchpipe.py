"""Tests for multi-GPU ScratchPipe (repro.systems.multigpu_scratchpipe)."""

import dataclasses

import pytest

from repro.api import build_system, uniform_system_spec
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import ModelConfig, tiny_config
from repro.systems.multigpu_scratchpipe import tco_comparison


@pytest.fixture(scope="module")
def trace():
    config = ModelConfig()
    return MaterialisedDataset(
        make_dataset(config, "medium", seed=4, num_batches=12)
    )


class TestConstruction:
    def test_gpu_count_validated(self):
        with pytest.raises(ValueError):
            build_system(
                uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=0),
                ModelConfig(), DEFAULT_HARDWARE,
            )

    def test_gpu_count_must_divide_tables(self):
        with pytest.raises(ValueError, match="divide"):
            build_system(
                uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=3),
                ModelConfig(), DEFAULT_HARDWARE,
            )


class TestScaling:
    def test_one_gpu_close_to_single_gpu_design(self, trace):
        config = ModelConfig()
        single = build_system(
            uniform_system_spec("scratchpipe", 0.02),
            config, DEFAULT_HARDWARE,
        )
        multi1 = build_system(
            uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=1),
            config, DEFAULT_HARDWARE,
        )
        a = single.run_trace(trace).mean_latency(8)
        b = multi1.run_trace(trace).mean_latency(8)
        # Same design modulo the (empty) collective terms.
        assert b == pytest.approx(a, rel=0.15)

    def test_more_gpus_somewhat_faster(self, trace):
        config = ModelConfig()
        two = build_system(
            uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=2),
            config, DEFAULT_HARDWARE,
        )
        eight = build_system(
            uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=8),
            config, DEFAULT_HARDWARE,
        )
        assert (
            eight.run_trace(trace).mean_latency(8)
            <= two.run_trace(trace).mean_latency(8)
        )

    def test_sublinear_scaling(self, trace):
        # Section VI-G's prediction: multi-GPU ScratchPipe underutilises the
        # extra GPUs (CPU memory and the dense network do not scale).
        config = ModelConfig()
        single = build_system(
            uniform_system_spec("scratchpipe", 0.02),
            config, DEFAULT_HARDWARE,
        )
        eight = build_system(
            uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=8),
            config, DEFAULT_HARDWARE,
        )
        s = single.run_trace(trace).mean_latency(8)
        m = eight.run_trace(trace).mean_latency(8)
        out = tco_comparison(s, m, num_gpus=8)
        assert out["speedup"] < 4.0  # nowhere near 8x
        assert out["scaling_efficiency"] < 0.5
        assert out["cost_ratio"] > 1.5  # strictly worse TCO


class TestTcoComparison:
    def test_validation(self):
        with pytest.raises(ValueError):
            tco_comparison(0.0, 1.0, 8)

    def test_perfect_scaling_reference(self):
        out = tco_comparison(0.080, 0.010, num_gpus=8)
        assert out["speedup"] == pytest.approx(8.0)
        assert out["scaling_efficiency"] == pytest.approx(1.0)
        assert out["cost_ratio"] == pytest.approx(1.0)


class TestStageStructure:
    def test_breakdowns_cover_all_stages(self, trace):
        config = ModelConfig()
        system = build_system(
            uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=4),
            config, DEFAULT_HARDWARE,
        )
        result = system.run_trace(trace)
        stages = result.stage_means(warmup=8)
        assert set(stages) == {"plan", "collect", "exchange", "insert",
                               "train"}

    def test_cpu_collect_does_not_scale_with_gpus(self, trace):
        """DDR4 is shared: Collect stays constant as GPUs are added —
        the structural reason multi-GPU ScratchPipe scales poorly."""
        config = ModelConfig()
        two = build_system(
            uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=2),
            config, DEFAULT_HARDWARE,
        ).run_trace(trace)
        eight = build_system(
            uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=8),
            config, DEFAULT_HARDWARE,
        ).run_trace(trace)
        collect_2 = two.stage_means(warmup=8)["collect"]
        collect_8 = eight.stage_means(warmup=8)["collect"]
        assert collect_8 == pytest.approx(collect_2, rel=0.02)

    def test_train_shrinks_with_gpus(self, trace):
        config = ModelConfig()
        two = build_system(
            uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=2),
            config, DEFAULT_HARDWARE,
        ).run_trace(trace)
        eight = build_system(
            uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=8),
            config, DEFAULT_HARDWARE,
        ).run_trace(trace)
        assert (
            eight.stage_means(warmup=8)["train"]
            < two.stage_means(warmup=8)["train"]
        )
