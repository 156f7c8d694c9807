"""Property-based tests (hypothesis) on the core data structures.

These encode the invariants the cache and pipeline commit to:

* Hit-Map bijectivity under arbitrary assign/displace traffic,
* Hold-mask lifetime exactness for arbitrary windows and hold patterns,
* Plan-stage conservation laws over random batch streams,
* coalesce/duplicate gradient-mass conservation,
* pipelined-vs-sequential equivalence over random tiny workloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hitmap import EMPTY, HitMap
from repro.core.holdmask import HoldMask
from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import GpuScratchpad, required_slots
from repro.data.trace import make_dataset
from repro.model.config import tiny_config
from repro.model.dlrm import DLRMModel
from repro.model.embedding import coalesce_gradients, duplicate_gradients
from repro.model.optimizer import SGD
from repro.systems.scratchpipe_system import ScratchPipeTrainingRun


class TestHitMapProperties:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 49), st.integers(0, 7)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bijectivity_under_arbitrary_traffic(self, ops):
        hitmap = HitMap(num_slots=8, num_rows=50)
        for key, slot in ops:
            if key in hitmap:
                continue  # assign requires uncached keys, like [Plan] does
            hitmap.assign(key, slot)
            # Invariants after every operation:
            keys = hitmap.keys()
            assert len(set(keys.tolist())) == len(keys) == len(hitmap)
            for k in keys:
                s = hitmap.slot_of(int(k))
                assert hitmap.key_of(s) == int(k)
        # Occupancy can never exceed the slot count.
        assert len(hitmap) <= 8

    @given(
        keys=st.lists(st.integers(0, 99), min_size=1, max_size=10, unique=True)
    )
    @settings(max_examples=50, deadline=None)
    def test_query_consistency(self, keys):
        hitmap = HitMap(num_slots=16, num_rows=100)
        arr = np.array(keys, dtype=np.int64)
        hitmap.assign_many(arr, np.arange(len(keys), dtype=np.int64))
        slots, hits = hitmap.query(arr)
        assert hits.all()
        assert np.array_equal(np.sort(slots), np.arange(len(keys)))


class TestHoldMaskProperties:
    @given(window=st.integers(0, 10), extra=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_lifetime_exact(self, window, extra):
        mask = HoldMask(num_slots=4, past_window=window)
        mask.hold(np.array([2]))
        for _ in range(window):
            mask.advance()
            assert mask.is_held(np.array([2]))[0]
        for _ in range(extra):
            mask.advance()
            assert not mask.is_held(np.array([2]))[0]

    @given(
        holds=st.lists(
            st.lists(st.integers(0, 9), max_size=4), min_size=1, max_size=12
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_held_iff_within_window(self, holds):
        window = 3
        mask = HoldMask(num_slots=10, past_window=window)
        history = []
        for batch in holds:
            mask.advance()
            slots = np.array(sorted(set(batch)), dtype=np.int64)
            mask.hold(slots)
            history.append(set(slots.tolist()))
            recent = set().union(*history[-(window + 1):])
            for slot in range(10):
                assert mask.is_held(np.array([slot]))[0] == (slot in recent)


class TestPlanProperties:
    @given(seed=st.integers(0, 1000), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_plan_conservation_laws(self, seed, data):
        rng = np.random.default_rng(seed)
        pad = GpuScratchpad(num_slots=40, num_rows=60, past_window=2)
        for _ in range(6):
            ids = rng.integers(0, 60, size=8)
            plan = pad.plan_batch(ids)
            # Conservation: hits + misses == unique; all IDs get slots;
            # slots are distinct; displaced keys are no longer cached.
            assert plan.num_hits + plan.num_misses == plan.num_unique
            assert len(set(plan.slots.tolist())) == plan.num_unique
            for evicted in plan.evicted_ids:
                if evicted != EMPTY:
                    assert int(evicted) not in pad.hit_map
            for uid, slot in zip(plan.unique_ids, plan.slots):
                assert pad.hit_map.slot_of(int(uid)) == int(slot)


class TestGradientProperties:
    @given(
        seed=st.integers(0, 10_000),
        batch=st.integers(1, 6),
        lookups=st.integers(1, 5),
        dim=st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_duplicate_coalesce_mass_conservation(self, seed, batch, lookups, dim):
        rng = np.random.default_rng(seed)
        pooled = rng.standard_normal((batch, dim)).astype(np.float32)
        ids = rng.integers(0, 8, size=(batch, lookups))
        duplicated = duplicate_gradients(pooled, lookups)
        unique, positions = np.unique(ids.reshape(-1), return_inverse=True)
        coalesced = coalesce_gradients(
            positions, duplicated.reshape(-1, dim), unique.size
        )
        # Total gradient mass is conserved by coalescing.
        assert np.allclose(
            coalesced.sum(axis=0), duplicated.reshape(-1, dim).sum(axis=0),
            atol=1e-4,
        )
        # Every unique ID appears exactly once, sorted.
        assert np.array_equal(unique, np.unique(ids))


class TestEndToEndEquivalenceProperty:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_pipelined_training_equals_sequential(self, seed):
        cfg = tiny_config(
            rows_per_table=150, batch_size=4, lookups_per_table=2, num_tables=2
        )
        dataset = make_dataset(cfg, "medium", seed=seed, num_batches=10,
                               with_dense=True)
        reference = DLRMModel.initialise(cfg, seed=seed + 1,
                                         optimizer=SGD(lr=0.02))
        ref_tables_init = [t.weights.copy() for t in reference.tables]
        for i in range(10):
            reference.train_step(dataset.batch(i))

        init = DLRMModel.initialise(cfg, seed=seed + 1)
        run = ScratchPipeTrainingRun(
            config=cfg,
            cpu_tables=[t.weights.copy() for t in init.tables],
            dense_network=init.dense_network,
            num_slots=required_slots(cfg),
            optimizer=SGD(lr=0.02),
            monitor=HazardMonitor(strict=True),
        )
        run.run(dataset)
        final = run.final_tables()
        for t in range(cfg.num_tables):
            assert np.array_equal(final[t], reference.tables[t].weights)
            # And training actually changed something.
            assert not np.array_equal(final[t], ref_tables_init[t])


class TestPipelineInvariants:
    @given(
        seed=st.integers(0, 10_000),
        num_slots=st.integers(30, 120),
        locality=st.sampled_from(["random", "medium", "high"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_metadata_conservation_laws(self, seed, num_slots, locality):
        """Over arbitrary traces and (adequately sized) caches, per-batch
        cache statistics obey the conservation laws."""
        from repro.core.scratchpad import make_scratchpads

        cfg = tiny_config(
            rows_per_table=200, batch_size=3, lookups_per_table=2, num_tables=1
        )
        dataset = make_dataset(cfg, locality, seed=seed, num_batches=12)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, num_slots),
            dataset_batches=dataset,
            monitor=HazardMonitor(strict=True),
        )
        result = pipeline.run()
        cached = 0
        for stats in result.cache_stats:
            assert stats.hits + stats.misses == stats.unique_ids
            assert stats.unique_ids <= stats.total_lookups
            # A write-back requires a displaced entry: never more
            # write-backs than misses.
            assert stats.writebacks <= stats.misses
            # The cache can never hold more keys than slots.
            cached = cached + stats.misses - stats.writebacks
            assert cached <= num_slots

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_hit_rate_never_decreases_capacity(self, seed):
        """A strictly larger cache never produces more misses in total
        (LRU inclusion property holds for our vectorised variant on these
        traces)."""
        from repro.core.scratchpad import make_scratchpads

        cfg = tiny_config(
            rows_per_table=150, batch_size=3, lookups_per_table=2, num_tables=1
        )
        dataset = make_dataset(cfg, "high", seed=seed, num_batches=10)

        def total_misses(slots):
            pipeline = ScratchPipePipeline(
                config=cfg,
                scratchpads=make_scratchpads(cfg, slots),
                dataset_batches=dataset,
            )
            return sum(s.misses for s in pipeline.run().cache_stats)

        assert total_misses(150) <= total_misses(60)
