"""Streaming == materialised equivalence for every trace source.

The TraceSource contract: chunk-wise emission produces bit-identical
``MiniBatch`` sequences to one-shot materialisation, for every scenario,
every chunk size, across ``reset()`` and re-iteration — so consumers can
choose constant-memory streaming or in-memory replay freely.
"""

import numpy as np
import pytest

from repro.data.io import TraceFile, save_trace
from repro.data.scenarios import (
    SCENARIO_PRESETS,
    TsvTraceSource,
    build_scenario,
)
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.model.config import tiny_config


@pytest.fixture
def cfg():
    return tiny_config(
        rows_per_table=500, batch_size=8, lookups_per_table=3, num_tables=2
    )


def assert_batches_equal(a, b):
    assert a.index == b.index
    assert np.array_equal(a.sparse_ids, b.sparse_ids)
    if a.dense is None:
        assert b.dense is None
    else:
        assert np.array_equal(a.dense, b.dense)
        assert np.array_equal(a.labels, b.labels)


def assert_streaming_equivalent(source, chunk_batches):
    """One-shot materialisation == chunked emission == post-reset replay."""
    materialised = MaterialisedDataset(source)
    source.reset()
    streamed = [
        batch
        for chunk in source.iter_chunks(chunk_batches=chunk_batches)
        for batch in chunk
    ]
    assert len(streamed) == len(materialised) == len(source)
    for i, batch in enumerate(streamed):
        assert_batches_equal(batch, materialised.batch(i))
    # Re-iteration after reset is bit-identical.
    source.reset()
    replay = [
        batch
        for chunk in source.iter_chunks(chunk_batches=chunk_batches)
        for batch in chunk
    ]
    for first, second in zip(streamed, replay):
        assert_batches_equal(first, second)


class TestScenarioStreaming:
    @pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
    @pytest.mark.parametrize("chunk_batches", [1, 3, 64])
    def test_every_preset_every_chunking(self, cfg, name, chunk_batches):
        source = build_scenario(
            cfg, SCENARIO_PRESETS[name], seed=4, num_batches=11
        )
        assert_streaming_equivalent(source, chunk_batches)

    def test_with_dense_streams_identically(self, cfg):
        source = build_scenario(
            cfg, SCENARIO_PRESETS["diurnal"], seed=2, num_batches=7,
            with_dense=True,
        )
        assert_streaming_equivalent(source, 2)

    def test_invalid_chunk_size_rejected(self, cfg):
        source = build_scenario(cfg, SCENARIO_PRESETS["stationary"], seed=0)
        with pytest.raises(ValueError, match="chunk_batches"):
            next(source.iter_chunks(chunk_batches=0))


class TestSyntheticStreaming:
    @pytest.mark.parametrize("chunk_batches", [1, 4, 100])
    def test_synthetic_dataset(self, cfg, chunk_batches):
        source = make_dataset(cfg, "medium", seed=9, num_batches=10)
        assert_streaming_equivalent(source, chunk_batches)

    def test_iteration_matches_chunks(self, cfg):
        source = make_dataset(cfg, "high", seed=1, num_batches=9)
        via_iter = list(source)
        via_chunks = [
            b for chunk in source.iter_chunks(chunk_batches=4) for b in chunk
        ]
        for a, b in zip(via_iter, via_chunks):
            assert_batches_equal(a, b)


class TestTraceFileStreaming:
    def test_saved_trace_streams(self, cfg, tmp_path):
        dataset = make_dataset(cfg, "medium", seed=6, num_batches=8)
        path = tmp_path / "trace.npz"
        save_trace(path, [dataset.batch(i) for i in range(8)], cfg)
        archive = TraceFile(path)
        streamed = [
            b for chunk in archive.iter_chunks(chunk_batches=3) for b in chunk
        ]
        assert len(streamed) == 8
        for i, batch in enumerate(streamed):
            assert np.array_equal(
                batch.sparse_ids, dataset.batch(i).sparse_ids
            )


class TestTsvStreaming:
    def test_tsv_streams_and_replays(self, tmp_path, rng):
        cfg = tiny_config(
            rows_per_table=64, batch_size=4, lookups_per_table=2, num_tables=2
        )
        path = tmp_path / "trace.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(19):
                cats = [f"t{rng.integers(0, 30)}" for _ in range(4)]
                fh.write("\t".join(["0"] + [str(d) for d in range(13)] + cats) + "\n")
        source = TsvTraceSource(path, cfg)
        assert_streaming_equivalent(source, 2)


class TestPipelineStreaming:
    def test_stream_equals_run(self, cfg):
        """The pipeline's streaming twin yields exactly run()'s stats."""
        from repro.core.pipeline import ScratchPipePipeline
        from repro.core.scratchpad import required_slots
        from repro.systems.scratchpipe_system import make_scratchpads

        source = build_scenario(
            cfg, SCENARIO_PRESETS["fast-drift"], seed=3, num_batches=12
        )

        def fresh_pipeline():
            return ScratchPipePipeline(
                config=cfg,
                scratchpads=make_scratchpads(cfg, required_slots(cfg)),
                dataset_batches=source,
            )

        collected = fresh_pipeline().run().cache_stats
        streamed = list(fresh_pipeline().stream())
        assert streamed == collected
        assert [s.batch_index for s in streamed] == list(range(12))

    def test_system_stream_equals_simulate(self, cfg):
        from repro.api import build_system, uniform_system_spec
        from repro.hardware.spec import DEFAULT_HARDWARE

        source = build_scenario(
            cfg, SCENARIO_PRESETS["churn"], seed=5, num_batches=10
        )
        system = build_system(
            uniform_system_spec("scratchpipe", 0.5),
            cfg, DEFAULT_HARDWARE,
        )
        collected = system.simulate_cache(source)
        streamed = list(system.stream_cache_stats(source))
        assert streamed == collected

    def test_aggregate_matches_collected(self, cfg):
        from repro.api import build_system, uniform_system_spec
        from repro.hardware.spec import DEFAULT_HARDWARE

        source = build_scenario(
            cfg, SCENARIO_PRESETS["slow-drift"], seed=5, num_batches=10
        )
        system = build_system(
            uniform_system_spec("scratchpipe", 0.5),
            cfg, DEFAULT_HARDWARE,
        )
        stats = system.simulate_cache(source)
        totals = system.aggregate_cache_stats(source, warmup=2)
        steady = [s for s in stats if s.batch_index >= 2]
        assert totals.batches == len(steady)
        assert totals.hits == sum(s.hits for s in steady)
        assert totals.misses == sum(s.misses for s in steady)
        assert totals.unique_ids == sum(s.unique_ids for s in steady)
        assert totals.writebacks == sum(s.writebacks for s in steady)
        assert 0.0 <= totals.hit_rate <= 1.0
