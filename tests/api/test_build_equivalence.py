"""build_system(uniform spec) must be bit-identical to the legacy
positional constructors, for every registered builtin system.

Hypothesis property test over random uniform specs (the acceptance
criterion), plus targeted equivalence runs per system and the
heterogeneous path's internal consistency.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CacheSpec, PipelineSpec, SystemSpec, build_system
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import tiny_config
from repro.systems import (
    HybridSystem,
    MultiGpuSystem,
    OverlappedHybridSystem,
    ScratchPipeSystem,
    StaticCacheSystem,
    StrawmanSystem,
)
from repro.systems.multigpu_scratchpipe import MultiGpuScratchPipeSystem

CFG = tiny_config(
    rows_per_table=4000, batch_size=8, lookups_per_table=3, num_tables=2
)
TRACE = MaterialisedDataset(make_dataset(CFG, "medium", seed=3,
                                         num_batches=14))


def results_equal(a, b):
    assert a.iteration_times == b.iteration_times
    assert a.energies == b.energies
    for x, y in zip(a.breakdowns, b.breakdowns):
        assert x.by_stage() == y.by_stage()
    return True


def legacy(cls, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return cls(CFG, DEFAULT_HARDWARE, *args, **kwargs)


uniform_params = st.fixed_dictionaries({
    "fraction": st.sampled_from([0.05, 0.11, 0.4, 1.0]),
    "policy": st.sampled_from(["lru", "lfu", "random"]),
    "future_window": st.integers(min_value=0, max_value=3),
})


class TestUniformSpecEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(params=uniform_params)
    def test_scratchpipe_bit_identical(self, params):
        spec = SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=params["fraction"],
                            policy=params["policy"]),
            pipeline=PipelineSpec(future_window=params["future_window"]),
        )
        via_spec = build_system(spec, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        via_legacy = legacy(
            ScratchPipeSystem, params["fraction"],
            policy_name=params["policy"],
            future_window=params["future_window"],
        ).run_trace(TRACE)
        assert results_equal(via_spec, via_legacy)

    @settings(max_examples=8, deadline=None)
    @given(params=uniform_params)
    def test_strawman_bit_identical(self, params):
        spec = SystemSpec(
            system="strawman",
            cache=CacheSpec(fraction=params["fraction"],
                            policy=params["policy"]),
        )
        via_spec = build_system(spec, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        via_legacy = legacy(
            StrawmanSystem, params["fraction"], policy_name=params["policy"]
        ).run_trace(TRACE)
        assert results_equal(via_spec, via_legacy)

    @settings(max_examples=8, deadline=None)
    @given(fraction=st.sampled_from([0.05, 0.11, 0.4, 1.0]))
    def test_static_cache_bit_identical(self, fraction):
        spec = SystemSpec(system="static_cache",
                          cache=CacheSpec(fraction=fraction))
        via_spec = build_system(spec, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        via_legacy = legacy(StaticCacheSystem, fraction).run_trace(TRACE)
        assert results_equal(via_spec, via_legacy)

    def test_hybrid_bit_identical(self):
        via_spec = build_system("hybrid", CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        assert results_equal(
            via_spec, HybridSystem(CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        )

    def test_overlapped_hybrid_bit_identical(self):
        via_spec = build_system(
            "overlapped_hybrid", CFG, DEFAULT_HARDWARE
        ).run_trace(TRACE)
        assert results_equal(
            via_spec,
            OverlappedHybridSystem(CFG, DEFAULT_HARDWARE).run_trace(TRACE),
        )

    @pytest.mark.parametrize("num_gpus", [1, 2, 8])
    def test_multi_gpu_bit_identical(self, num_gpus):
        spec = SystemSpec(system="multi_gpu", num_gpus=num_gpus)
        via_spec = build_system(spec, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        via_legacy = MultiGpuSystem(
            CFG, DEFAULT_HARDWARE, num_gpus=num_gpus
        ).run_trace(TRACE)
        assert results_equal(via_spec, via_legacy)

    @pytest.mark.parametrize("num_gpus", [1, 2])
    def test_multi_gpu_scratchpipe_bit_identical(self, num_gpus):
        spec = SystemSpec(
            system="multi_gpu_scratchpipe",
            cache=CacheSpec(fraction=0.1),
            num_gpus=num_gpus,
        )
        via_spec = build_system(spec, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        via_legacy = legacy(
            MultiGpuScratchPipeSystem, 0.1, num_gpus=num_gpus
        ).run_trace(TRACE)
        assert results_equal(via_spec, via_legacy)


class TestDeprecationShims:
    def test_legacy_constructor_warns(self, tiny_cfg, hardware):
        with pytest.warns(DeprecationWarning, match="build_system"):
            ScratchPipeSystem(tiny_cfg, hardware, 0.05)

    def test_legacy_constructor_synthesizes_uniform_spec(self, tiny_cfg,
                                                         hardware):
        with pytest.warns(DeprecationWarning):
            system = ScratchPipeSystem(tiny_cfg, hardware, 0.05,
                                       policy_name="lfu", future_window=1)
        assert system.spec == SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=0.05, policy="lfu"),
            pipeline=PipelineSpec(future_window=1),
        )

    def test_spec_construction_does_not_warn(self, tiny_cfg, hardware):
        # 0.3 clears the hazard-window floor at tiny geometry (0.256).
        spec = SystemSpec(system="scratchpipe",
                          cache=CacheSpec(fraction=0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            build_system(spec, tiny_cfg, hardware)


class TestHeterogeneousPath:
    def heterogeneous_system(self):
        spec = SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(
                fraction=0.05, policy="lru",
                tables={0: CacheSpec(fraction=0.25, policy="lfu")},
            ),
        )
        return build_system(spec, CFG, DEFAULT_HARDWARE)

    def test_per_table_index_structures_sized_independently(self):
        system = self.heterogeneous_system()
        assert system.table_slots == (1000, 200)
        assert system.table_policies == ("lfu", "lru")
        system.simulate_cache(TRACE, 4)
        pads = system._scratchpads
        assert [pad.num_slots for pad in pads] == [1000, 200]
        assert [pad.hold_mask.num_slots for pad in pads] == [1000, 200]
        assert [pad.policy.num_slots for pad in pads] == [1000, 200]
        assert [type(pad.policy).__name__ for pad in pads] == [
            "LfuPolicy", "LruPolicy",
        ]

    def test_per_table_stats_roll_up(self):
        system = self.heterogeneous_system()
        aggregate = system.aggregate_cache_stats(TRACE)
        assert sum(aggregate.per_table_hits) == aggregate.hits
        assert sum(aggregate.per_table_unique) == aggregate.unique_ids
        assert sum(aggregate.per_table_misses) == aggregate.misses
        rates = aggregate.per_table_hit_rates()
        assert len(rates) == CFG.num_tables
        assert all(0.0 <= rate <= 1.0 for rate in rates)

    def test_per_batch_stats_carry_per_table_hits(self):
        system = self.heterogeneous_system()
        for stats in system.simulate_cache(TRACE, 6):
            assert sum(stats.per_table_hits) == stats.hits
            assert sum(stats.per_table_unique) == stats.unique_ids

    def test_uniform_override_equals_flat_spec(self):
        """An override identical to the rest entry changes nothing."""
        flat = SystemSpec(system="scratchpipe",
                          cache=CacheSpec(fraction=0.05))
        padded = SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=0.05,
                            tables={1: CacheSpec(fraction=0.05)}),
        )
        a = build_system(flat, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        b = build_system(padded, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        assert results_equal(a, b)

    def test_static_cache_heterogeneous_hot_rows(self):
        spec = SystemSpec(
            system="static_cache",
            cache=CacheSpec(fraction=0.01,
                            tables={0: CacheSpec(fraction=0.5)}),
        )
        system = build_system(spec, CFG, DEFAULT_HARDWARE)
        assert system.table_hot_rows == (2000, 40)
        result = system.run_trace(TRACE)
        assert len(result.iteration_times) == len(TRACE)

    def test_scratchpad_spec_fields_are_honored(self):
        from repro.api import ScratchpadSpec

        spec = SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=0.05),
            scratchpad=ScratchpadSpec(past_window=4, with_storage=True),
        )
        system = build_system(spec, CFG, DEFAULT_HARDWARE)
        system.simulate_cache(TRACE, 4)
        for pad in system._scratchpads:
            assert pad.storage is not None
            assert pad.past_window == 4

    def test_strawman_pins_past_window_at_zero(self):
        from repro.api import ScratchpadSpec

        spec = SystemSpec(
            system="strawman",
            cache=CacheSpec(fraction=0.05),
            scratchpad=ScratchpadSpec(past_window=4),
        )
        system = build_system(spec, CFG, DEFAULT_HARDWARE)
        system.run_trace(TRACE, 2)
        for pad in system._scratchpads:
            # Sequential execution fixes the past window at 0 regardless
            # of the spec (documented on ScratchpadSpec).
            assert pad.past_window == 0

    def test_strawman_heterogeneous(self):
        spec = SystemSpec(
            system="strawman",
            cache=CacheSpec(fraction=0.05,
                            tables={0: CacheSpec(fraction=0.25)}),
        )
        system = build_system(spec, CFG, DEFAULT_HARDWARE)
        assert system.table_slots == (1000, 200)
        system.run_trace(TRACE)
        assert [pad.num_slots for pad in system._scratchpads] == [1000, 200]

    def test_bigger_table_cache_improves_that_table(self):
        """End-to-end: giving table 0 a much bigger cache must not hurt it.

        Uses a long high-locality trace where the small cache evicts; the
        boosted table's hit rate must be at least the small-cache one.
        """
        cfg = tiny_config(
            rows_per_table=20_000, batch_size=16, lookups_per_table=4,
            num_tables=2,
        )
        trace = MaterialisedDataset(
            make_dataset(cfg, "high", seed=1, num_batches=120)
        )
        boosted = build_system(
            SystemSpec(system="scratchpipe",
                       cache=CacheSpec(fraction=0.03,
                                       tables={0: CacheSpec(fraction=0.2)})),
            cfg, DEFAULT_HARDWARE,
        ).aggregate_cache_stats(trace)
        rates = boosted.per_table_hit_rates()
        assert rates[0] > rates[1]
