"""Cross-module integration tests.

These exercise realistic end-to-end compositions that no single module's
unit tests cover: trace files feeding systems, public API surface, and
multi-epoch training behaviour.
"""

import numpy as np
import pytest

import repro
from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import make_scratchpads, required_slots
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.model.config import tiny_config
from repro.model.dlrm import DLRMModel
from repro.model.optimizer import SGD
from repro.systems.scratchpipe_system import ScratchPipeTrainingRun


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.core
        import repro.data
        import repro.hardware
        import repro.model
        import repro.systems

        for module in (repro.analysis, repro.core, repro.data,
                       repro.hardware, repro.model, repro.systems):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)


class TestMultiEpochTraining:
    def test_two_epochs_keep_improving(self):
        """Replaying the same trace (a second epoch) keeps training stable
        and the cache warm — hit rates in epoch 2 start high."""
        cfg = tiny_config(rows_per_table=300, batch_size=8,
                          lookups_per_table=2, num_tables=2)
        dataset = make_dataset(cfg, "high", seed=2, num_batches=12,
                               with_dense=True)
        init = DLRMModel.initialise(cfg, seed=1)
        run = ScratchPipeTrainingRun(
            config=cfg,
            cpu_tables=[t.weights.copy() for t in init.tables],
            dense_network=init.dense_network,
            num_slots=required_slots(cfg),
            optimizer=SGD(lr=0.02),
            monitor=HazardMonitor(strict=True),
        )
        first = run.run(dataset)
        # Second epoch: rebuild the pipeline over the same scratchpads.
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=run.scratchpads,
            dataset_batches=dataset,
            cpu_tables=run.cpu_tables,
            trainer=run.trainer,
            monitor=HazardMonitor(strict=True),
        )
        second = pipeline.run()
        first_epoch_hits = np.mean([s.hit_rate for s in first.cache_stats[:4]])
        second_epoch_hits = np.mean([s.hit_rate for s in second.cache_stats[:4]])
        assert second_epoch_hits > first_epoch_hits
        assert np.isfinite(second.losses).all()

    def test_sequential_reference_matches_two_epochs(self):
        cfg = tiny_config(rows_per_table=200, batch_size=6,
                          lookups_per_table=2, num_tables=2)
        dataset = make_dataset(cfg, "medium", seed=9, num_batches=8,
                               with_dense=True)
        reference = DLRMModel.initialise(cfg, seed=4, optimizer=SGD(lr=0.02))
        for _ in range(2):
            for i in range(8):
                reference.train_step(dataset.batch(i))

        init = DLRMModel.initialise(cfg, seed=4)
        run = ScratchPipeTrainingRun(
            config=cfg,
            cpu_tables=[t.weights.copy() for t in init.tables],
            dense_network=init.dense_network,
            num_slots=required_slots(cfg),
            optimizer=SGD(lr=0.02),
        )
        run.run(dataset)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=run.scratchpads,
            dataset_batches=dataset,
            cpu_tables=run.cpu_tables,
            trainer=run.trainer,
        )
        pipeline.run()
        final = run.final_tables()
        for t in range(cfg.num_tables):
            assert np.array_equal(final[t], reference.tables[t].weights)


class TestSystemsShareOneTrace:
    def test_materialised_trace_reused(self):
        """All four timing systems accept the same materialised trace and
        produce internally consistent results."""
        from repro.hardware.spec import DEFAULT_HARDWARE
        from repro.api import build_system, uniform_system_spec
        from repro.systems import HybridSystem

        cfg = tiny_config(rows_per_table=2000, batch_size=16,
                          lookups_per_table=4, num_tables=2)
        trace = MaterialisedDataset(
            make_dataset(cfg, "medium", seed=3, num_batches=10)
        )
        results = [
            HybridSystem(cfg, DEFAULT_HARDWARE).run_trace(trace),
            build_system(
                uniform_system_spec("static_cache", 0.1),
                cfg, DEFAULT_HARDWARE,
            ).run_trace(trace),
            build_system(
                uniform_system_spec("strawman", 0.5),
                cfg, DEFAULT_HARDWARE,
            ).run_trace(trace),
            build_system(
                uniform_system_spec("scratchpipe", 0.5),
                cfg, DEFAULT_HARDWARE,
            ).run_trace(trace),
        ]
        for result in results:
            assert len(result.iteration_times) == 10
            assert all(t > 0 for t in result.iteration_times)
            assert all(e > 0 for e in result.energies)
