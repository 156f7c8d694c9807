"""Fault-injection tests: corrupting the runtime's invariants must surface
loudly, never as silent training corruption."""

import numpy as np
import pytest

from repro.core.hitmap import EMPTY
from repro.core.pipeline import HazardError, HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import GpuScratchpad, required_slots
from repro.data.trace import make_dataset
from repro.model.config import tiny_config
from repro.core.scratchpad import make_scratchpads


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=200, batch_size=4, lookups_per_table=2,
                       num_tables=1)


class TestCorruptedHitMap:
    def test_foreign_plan_ids_raise_on_gather(self, cfg):
        """A plan cannot serve IDs it never planned — the always-hit
        guarantee fails closed."""
        pad = GpuScratchpad(num_slots=16, num_rows=cfg.rows_per_table)
        plan = pad.plan_batch(np.array([3, 7]))
        with pytest.raises(KeyError):
            plan.slots_for(np.array([[3, 9]]))

    def test_double_assign_rejected(self, cfg):
        pad = GpuScratchpad(num_slots=16, num_rows=cfg.rows_per_table)
        pad.plan_batch(np.array([3]))
        with pytest.raises(ValueError, match="already cached"):
            pad.hit_map.assign(3, 5)


class TestCorruptedWindows:
    def test_sabotaged_hold_mask_detected(self, cfg):
        """Clearing the hold mask mid-run (simulating a runtime bug) makes
        the strict monitor raise instead of silently corrupting training."""
        dataset = make_dataset(cfg, "random", seed=3, num_batches=30)
        pads = make_scratchpads(cfg, 24, policy_name="random")
        monitor = HazardMonitor(strict=True)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=pads,
            dataset_batches=dataset,
            future_window=2,
            monitor=monitor,
        )

        original_plan = pads[0].plan_batch

        def sabotaged_plan(batch_ids, future_ids=None, **kwargs):
            # Wipe the window protection before every plan.
            pads[0].hold_mask._release_at[:] = 0
            return original_plan(batch_ids, future_ids, **kwargs)

        pads[0].plan_batch = sabotaged_plan
        with pytest.raises(HazardError):
            pipeline.run()


class TestShapeMismatches:
    def test_wrong_cpu_table_count(self, cfg):
        dataset = make_dataset(cfg, "medium", seed=1, num_batches=4)
        with pytest.raises(ValueError, match="one array per table"):
            ScratchPipePipeline(
                config=cfg,
                scratchpads=make_scratchpads(cfg, 16, with_storage=True),
                dataset_batches=dataset,
                cpu_tables=[],
            )

    def test_storage_write_shape_mismatch(self, cfg):
        pad = GpuScratchpad(
            num_slots=8, num_rows=cfg.rows_per_table,
            dim=cfg.embedding_dim, with_storage=True,
        )
        with pytest.raises(ValueError):
            pad.write_slots(
                np.array([0, 1]),
                np.zeros((2, cfg.embedding_dim + 3), dtype=np.float32),
            )


class TestCapacityFailures:
    def test_undersized_cache_fails_closed(self, cfg):
        """A cache below the window bound raises CachePressureError with
        actionable guidance rather than evicting a protected slot."""
        from repro.core.replacement import CachePressureError

        dataset = make_dataset(cfg, "random", seed=5, num_batches=20)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, 10),  # << required_slots
            dataset_batches=dataset,
        )
        with pytest.raises(CachePressureError, match="enlarge the scratchpad"):
            pipeline.run()

    def test_required_slots_is_sufficient(self, cfg):
        dataset = make_dataset(cfg, "random", seed=5, num_batches=20)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, required_slots(cfg)),
            dataset_batches=dataset,
        )
        pipeline.run()  # must not raise


class TestPressureDiagnostics:
    def test_pressure_error_names_table_and_cycle(self, cfg):
        """The satellite contract: pipeline-raised cache pressure says which
        table and plan cycle hit it, not just the slot counts."""
        from repro.core.replacement import CachePressureError

        dataset = make_dataset(cfg, "random", seed=5, num_batches=20)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, 10),
            dataset_batches=dataset,
        )
        with pytest.raises(
            CachePressureError, match=r"table 0, plan cycle \d+"
        ):
            pipeline.run()
