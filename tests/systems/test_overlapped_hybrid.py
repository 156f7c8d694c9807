"""Tests for the software-pipelined hybrid (repro.systems.overlapped_hybrid).

The quantitative version of the paper's related-work argument: overlapping
CPU and GPU work (prior art [33]-[38]) recovers only the GPU-side time,
while ScratchPipe's relocation of the embedding work wins several-fold.
"""

import pytest

from repro.api import build_system, uniform_system_spec
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import ModelConfig
from repro.systems.base import batch_access_stats
from repro.systems.hybrid import HybridSystem
from repro.systems.overlapped_hybrid import OverlappedHybridSystem


@pytest.fixture(scope="module")
def trace():
    return MaterialisedDataset(
        make_dataset(ModelConfig(), "medium", seed=6, num_batches=12)
    )


@pytest.fixture(scope="module")
def config():
    return ModelConfig()


class TestOverlappedHybrid:
    def test_faster_than_sequential_hybrid(self, config, trace):
        sequential = HybridSystem(config, DEFAULT_HARDWARE).run_trace(trace)
        overlapped = OverlappedHybridSystem(config, DEFAULT_HARDWARE).run_trace(trace)
        assert overlapped.mean_latency(0) < sequential.mean_latency(0)

    def test_overlap_gain_is_modest(self, config, trace):
        """The paper's argument: the baseline is CPU-bound, so overlap
        recovers only the small GPU share — well under 1.5x."""
        sequential = HybridSystem(config, DEFAULT_HARDWARE).run_trace(trace)
        overlapped = OverlappedHybridSystem(config, DEFAULT_HARDWARE).run_trace(trace)
        gain = sequential.mean_latency(0) / overlapped.mean_latency(0)
        assert 1.0 < gain < 1.5

    def test_scratchpipe_still_wins_by_far(self, config, trace):
        """Relocation beats scheduling: ScratchPipe outruns the overlapped
        hybrid severalfold."""
        overlapped = OverlappedHybridSystem(config, DEFAULT_HARDWARE).run_trace(trace)
        scratchpipe = build_system(
            uniform_system_spec("scratchpipe", 0.02),
            config, DEFAULT_HARDWARE,
        ).run_trace(trace)
        ratio = overlapped.mean_latency(0) / scratchpipe.mean_latency(8)
        assert ratio > 2.5

    def test_cycle_bounded_below_by_dense(self, config, trace):
        """An MLP-dominated model flips the bottleneck to the GPU side."""
        system = OverlappedHybridSystem(config, DEFAULT_HARDWARE)
        stats = batch_access_stats(trace.batch(0))
        tiny_embedding = type(stats)(total_lookups=10, unique_rows=10)
        cycle = system.steady_cycle_seconds(tiny_embedding)
        assert cycle >= system.cost.dense_train("gpu")

    def test_cycle_below_stage_sum(self, config, trace):
        system = OverlappedHybridSystem(config, DEFAULT_HARDWARE)
        stats = batch_access_stats(trace.batch(0))
        assert (
            system.steady_cycle_seconds(stats)
            < system.iteration_breakdown(stats).total
        )

    def test_energy_counts_both_devices(self, config, trace):
        result = OverlappedHybridSystem(config, DEFAULT_HARDWARE).run_trace(trace)
        power = DEFAULT_HARDWARE.power
        both_active = power.cpu_active_w + power.gpu_active_w
        for seconds, joules in zip(result.iteration_times, result.energies):
            assert joules == pytest.approx(seconds * both_active)
